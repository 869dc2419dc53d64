//! The replay loop: pull arrivals from the source, merge them with the
//! event heap on simulation time, hand each to its one handler, and keep
//! the per-event housekeeping (lifecycle narration, spend attribution,
//! rollup windows, gauges) in one place. It knows *that* an event has a
//! handler, not what the handler computes.

use super::retire::ReplayEnd;
use super::*;
use crate::job::JobRequest;
use crate::lifecycle::JobLifecycle;
use crate::observe::{FleetEvent, GaugeSample, PlatformEvent, ReplayStats};
use lml_sim::Cost;

impl Fleet<'_> {
    /// Admit a pulled arrival into the slab and the open rollup window.
    fn insert(&mut self, job: JobRequest) -> Handle {
        let epochs_total = self.class_cache(job.class, job.workers).epochs_total;
        if let Some(r) = &mut self.rollup {
            r.submitted += 1;
        }
        self.slab.insert(job, epochs_total)
    }

    /// Pass a terminal job through the retire hook and recycle its slot.
    pub(super) fn retire(&mut self, h: Handle) {
        // Borrow, don't copy: the slot is ~300 bytes and this runs once
        // per job. The slot is recycled only after the sink has read it.
        let slot = self.slab.get(h);
        debug_assert!(
            slot.state.lifecycle.is_terminal(),
            "retire needs a terminal lifecycle state"
        );
        if let Some(r) = &mut self.rollup {
            if slot.state.lifecycle == JobLifecycle::Rejected {
                r.rejected += 1;
            } else {
                r.completed += 1;
            }
        }
        self.sink.retire(slot.seq, &slot.job, &slot.state);
        self.slab.recycle(h);
    }

    /// No job is resident and none is still to arrive.
    pub(super) fn drained(&self) -> bool {
        self.slab.resident() == 0 && !self.more_arrivals
    }

    fn flush_rollups_to(&mut self, now: SimTime) {
        if let Some(r) = &mut self.rollup {
            r.flush_to(now, self.obs, self.slab.resident() as u64);
        }
    }

    /// Advance the job's lifecycle through the validated state machine and
    /// narrate the transition to the observer.
    pub(super) fn step(&mut self, h: Handle, now: SimTime, next: JobLifecycle) {
        let slot = self.slab.get_mut(h);
        let from = slot.state.lifecycle;
        slot.state.lifecycle.transition(next);
        if self.obs_on {
            let ev = FleetEvent {
                at: now,
                job: slot.job.id,
                tenant: slot.job.tenant,
                route: slot.state.route,
                attempt: slot.state.attempt,
                from,
                to: next,
            };
            self.obs.lifecycle(&ev);
        }
    }

    /// Attribute `c` dollars to the job, its tenant's spend ledger, and
    /// the open rollup window.
    pub(super) fn charge(&mut self, h: Handle, c: Cost) {
        let slot = self.slab.get_mut(h);
        slot.state.cost += c;
        if self.track_spend {
            *self
                .tenant_spend
                .get_or_insert_with(slot.job.tenant, || 0.0) += c.as_usd();
        }
        if let Some(r) = &mut self.rollup {
            r.cost += c;
        }
    }

    /// Narrate a platform event. The payloads are a few integers, so
    /// building one for an inactive observer costs nothing worth gating.
    pub(super) fn narrate(&mut self, now: SimTime, ev: PlatformEvent) {
        if self.obs_on {
            self.obs.platform(now, &ev);
        }
    }

    /// The observer's standing telemetry clock: sample the gauges and
    /// re-arm while work remains (the trailing tick, like the budget
    /// window's, is dropped by the replay loop so it can't stretch the
    /// run).
    fn gauge_tick(&mut self, now: SimTime) {
        if self.obs_on {
            self.obs.gauges(&GaugeSample {
                at: now,
                queue_depth: self.faas_queue.len() + self.iaas_queue.len(),
                deferred: self.deferred_queue.len(),
                faas_in_use: self.cfg.faas.concurrency_limit - self.faas.available(),
                faas_limit: self.cfg.faas.concurrency_limit,
                iaas_busy: self.iaas.capacity() - self.iaas.free(),
                iaas_capacity: self.iaas.capacity(),
                spot_in_use: self.spot.in_use(),
                tenant_spend: self
                    .tenant_spend
                    .iter_sorted()
                    .map(|(t, &s)| (t, s))
                    .collect(),
            });
        }
        if !self.drained() {
            if let Some(p) = self.obs.gauge_period() {
                self.events.push(now + p, Event::GaugeTick);
            }
        }
    }

    /// Hand every event type to its handler (arrivals never enter the
    /// queue — the replay loop pulls them from the [`TraceSource`]
    /// directly). Only a budget window can fail: it admits held jobs, and
    /// admission validates the routed width.
    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut dyn Scheduler) -> Result<(), String> {
        match ev {
            Event::FaasDone(h) => self.faas_done(h, now, sched),
            Event::IaasDone(h) => self.iaas_done(h, now, sched),
            Event::SpotDone(h) => self.spot_done(h, now, sched),
            Event::SpotPreempted(h) => self.spot_preempted(h, now, sched),
            Event::Provisioned(k) => {
                self.iaas.provisioned(now, k);
                self.drain_iaas(now, sched);
            }
            Event::IdleCheck => self.idle_check(now),
            Event::BudgetWindow(w) => return self.open_window(now, w, sched),
            Event::GaugeTick => self.gauge_tick(now),
        }
        Ok(())
    }
}

/// Refuse a config the engine cannot run, before a single job is pulled:
/// each of these would otherwise panic in a platform constructor or
/// mid-replay, or (a zero budget window) re-arm its clock forever.
fn check_config(cfg: &FleetConfig) -> Result<(), String> {
    let (faas, iaas) = (cfg.faas, cfg.iaas);
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let mttp = cfg.spot.mean_time_to_preempt.as_secs();
    let window = cfg.budget_window.map(SimTime::as_secs);
    let fault = if !positive(cfg.epoch_scale) {
        format!(
            "epoch_scale must be finite and > 0, got {}",
            cfg.epoch_scale
        )
    } else if iaas.min_instances > iaas.max_instances {
        let (min, max) = (iaas.min_instances, iaas.max_instances);
        format!("iaas.min_instances must be <= max_instances ({max}), got {min}")
    } else if faas.provisioned_concurrency > faas.concurrency_limit {
        let (pc, limit) = (faas.provisioned_concurrency, faas.concurrency_limit);
        format!("faas.provisioned_concurrency must be <= concurrency_limit ({limit}), got {pc}")
    } else if mttp.is_nan() || mttp <= 0.0 {
        format!("spot.mean_time_to_preempt must be > 0, got {mttp}")
    } else if cfg.checkpoint == CheckpointPolicy::EveryK(0) {
        "checkpoint interval must be >= 1 epoch, got every0".into()
    } else if let Some(w) = window.filter(|&w| !positive(w)) {
        format!("budget_window must be finite and > 0, got {w}")
    } else {
        return Ok(());
    };
    Err(format!("FleetConfig::{fault}"))
}

/// The streaming replay driver behind every public entry point: pull
/// arrivals from `source` on demand, merge them with the event heap on
/// simulation time (arrival wins ties — it would have carried the lowest
/// heap sequence number in the batch-scheduled engine, so the pop order
/// is bit-identical), run the fleet to quiescence retiring every job into
/// `sink`, and hand back the platform totals.
pub(super) fn run_replay<S: TraceSource>(
    mut source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &mut (dyn FleetObserver + '_),
    sink: &mut dyn Retire,
) -> Result<ReplayEnd, String> {
    check_config(cfg)?;
    // The budget preamble comes first (sources deliver it before any job).
    let budgets = source.budgets()?;
    // Advisory only: a wrong hint costs a realloc or some slack.
    let len_hint = source.len_hint();
    observer.begin(scheduler.name(), seed, len_hint.unwrap_or(0));
    let mut pending = source.next_job()?;
    let discipline = scheduler.discipline();
    let mut fleet = Fleet::new(cfg, budgets, seed, discipline, len_hint, sink, observer);
    fleet.more_arrivals = pending.is_some();
    // The heap only ever holds in-flight events (completions, preemptions,
    // provisioning, the standing clocks) — never future arrivals — so one
    // modest reservation covers any trace length. Kept under the
    // allocator's mmap threshold: a fresh 128 KiB block per run would be
    // a syscall plus a page-fault storm in a cold process.
    fleet.events.reserve(512);
    // Budget windows are a standing clock, not a deferral side effect:
    // ledgers must reset at *every* boundary (a tenant spending a steady
    // 70% of its allowance per window is never over budget), so arm the
    // chain up front whenever windowed budgets are in play.
    if let Some(w) = cfg.budget_window {
        if !fleet.budgets.is_empty() && pending.is_some() {
            fleet.events.push(w, Event::BudgetWindow(w));
        }
    }
    // Arm the observer's standing gauge clock, if it wants one. With the
    // default (`None`) the queue carries no extra events at all.
    if let Some(p) = fleet.obs.gauge_period() {
        if pending.is_some() {
            fleet.events.push(p, Event::GaugeTick);
        }
    }

    let mut last_time = SimTime::ZERO;
    let mut last_submit = SimTime::ZERO;
    let mut pops: u64 = 0;
    loop {
        // Merge the pulled arrival stream with the event heap on time;
        // at a tie the arrival goes first (see the function docs).
        let next_event = fleet.events.peek_time();
        match pending {
            Some(job) if next_event.is_none_or(|t| job.submit <= t) => {
                pending = source.next_job()?;
                fleet.more_arrivals = pending.is_some();
                let now = job.submit;
                if now < last_submit {
                    return Err(format!(
                        "trace source delivered out-of-order arrivals: job {} submits at {} \
                         after {} (streaming replay needs non-decreasing submit times)",
                        job.id,
                        now.as_secs(),
                        last_submit.as_secs()
                    ));
                }
                last_submit = now;
                pops += 1;
                fleet.flush_rollups_to(now);
                last_time = now;
                let h = fleet.insert(job);
                fleet.admit_or_refuse(h, now, scheduler)?;
            }
            _ => {
                let Some((now, ev)) = fleet.events.pop() else {
                    break;
                };
                pops += 1;
                if matches!(ev, Event::BudgetWindow(_) | Event::GaugeTick) && fleet.drained() {
                    // A standing chain's trailing tick after the last job
                    // finished: dropped before it can stretch the makespan
                    // or idle billing.
                    continue;
                }
                fleet.flush_rollups_to(now);
                if ev != Event::GaugeTick {
                    // Gauge ticks observe; they must not move the billing
                    // clock (idle-pool finalization bills through
                    // `last_time`).
                    last_time = now;
                }
                fleet.handle(now, ev, scheduler)?;
            }
        }
    }

    fleet.iaas.finalize(last_time);
    debug_assert!(
        fleet.slab.resident() == 0,
        "every job must reach a terminal state and give its slot back"
    );
    if let Some(r) = &fleet.rollup {
        r.finish(fleet.obs, fleet.slab.resident() as u64);
    }
    fleet.obs.replay(&ReplayStats {
        arrivals_streamed: fleet.slab.arrivals(),
        peak_resident_jobs: fleet.slab.peak_resident(),
        peak_queue_depth: fleet.events.peak_len() as u64,
    });
    // Arrivals never enter the heap, but they are events all the same:
    // count them as both pushes and pops so the repo benchmark's
    // `sim.heap_ops` stays comparable with the batch-scheduled engine.
    let pushes = fleet.events.pushes() + fleet.slab.arrivals();
    fleet.obs.end(pushes, pops);
    Ok(ReplayEnd {
        arrivals: fleet.slab.arrivals(),
        peak_resident: fleet.slab.peak_resident(),
        faas: fleet.faas,
        iaas: fleet.iaas,
        spot: fleet.spot,
    })
}
