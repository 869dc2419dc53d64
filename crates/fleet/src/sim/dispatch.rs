//! Dispatch: getting an admitted job onto a platform and off it again.
//!
//! Every attempt, on every tier, is launched by the same two functions:
//! `begin_attempt` closes the job's wait interval, settles where the
//! attempt resumes from and walks `Booting → Running`; `launch` narrates
//! the dispatch span, attributes the dollars, schedules the event that
//! ends the attempt and credits the tenant's service. What differs per
//! tier — acquiring capacity and pricing the attempt — stays in
//! `start_faas` / `start_iaas` / `start_spot`, which feed the shared code
//! data (`Launch`), never their identity. Nothing here knows about
//! budgets, windows, or why a job was admitted.

use super::*;
use crate::estimate::{CompletedJob, PreemptionObs};
use crate::job::JobRequest;
use crate::lifecycle::{preempt_outcome, restore_beats_redo, AttemptPlan, JobLifecycle};
use crate::observe::{AttemptSpan, PlatformEvent};
use crate::queue::Pick;
use crate::scheduler::Route;
use lml_sim::Cost;

/// What `begin_attempt` settled: when the wait began, and where
/// the attempt resumes from at what restore price.
struct Begun {
    queued_at: SimTime,
    /// First epoch the attempt runs (durable epochs restored, or 0).
    from: u32,
    restore: SimTime,
    restore_dollars: Cost,
}

/// One tier's plan for an attempt, handed to `launch`.
struct Launch {
    substrate: Route,
    /// 0-based spot attempt index the span is labelled with.
    attempt: u32,
    /// Boot or dispatch latency plus the checkpoint restore.
    startup: SimTime,
    run: SimTime,
    /// Attributed dollars of the planned attempt, restore read included.
    cost: Cost,
    /// The event that ends the attempt, and when it fires.
    ends: (SimTime, Event),
}

impl Fleet<'_> {
    /// Credit a started job's service to its tenant (the DRR ledger).
    /// Skipped entirely under FIFO/EDF — nothing reads the ledger there.
    fn credit_service(&mut self, h: Handle, run: SimTime) {
        if self.discipline != QueueDiscipline::Drr {
            return;
        }
        let j = self.slab.get(h).job;
        *self.tenant_service.get_or_insert_with(j.tenant, || 0.0) +=
            j.workers as f64 * run.as_secs();
    }

    /// The queued job no wider than `cap` that the discipline admits next
    /// (see [`ReadyQueue::pick`]); DRR ranks tenants by weighted service.
    fn pick(
        &self,
        q: &ReadyQueue<Handle>,
        cap: usize,
        sched: &dyn Scheduler,
    ) -> Option<Pick<Handle>> {
        debug_assert_eq!(
            sched.discipline(),
            self.discipline,
            "a scheduler's discipline must stay constant for a replay"
        );
        q.pick(cap, |t| {
            self.tenant_service.get(t).copied().unwrap_or(0.0) / sched.tenant_weight(t)
        })
    }

    /// Where the job's next attempt starts: its last durable checkpoint if
    /// restoring it beats redoing the epochs on *both* time and dollars
    /// ([`restore_beats_redo`] — `rate_per_s` is the routed substrate's
    /// instance rate for the whole job), else from scratch. Returns
    /// (start epoch, restore time, restore dollars). The dollar check
    /// matters for budget-capped tenants: a restore read that costs more
    /// than redoing cheap epochs must not be billed.
    fn resume_point(&self, h: Handle, cache: &ClassCache, rate_per_s: f64) -> (u32, SimTime, Cost) {
        let from = self.slab.get(h).state.epochs_done;
        if from == 0 {
            return (0, SimTime::ZERO, Cost::ZERO);
        }
        let restore = cache.ckpt_read_time;
        let redo = SimTime::secs(from as f64 * cache.epoch_secs);
        if restore_beats_redo(restore, cache.ckpt_read_dollars, redo, rate_per_s) {
            (from, restore, cache.ckpt_read_dollars)
        } else {
            (0, SimTime::ZERO, Cost::ZERO)
        }
    }

    /// First half of every launch, once capacity is in hand: close the
    /// wait interval, settle the resume point (priced at `rate_per_s`, the
    /// tier's instance rate for the whole job), bring the durable-progress
    /// ledger in line with it, and walk the lifecycle to `Running`.
    fn begin_attempt(
        &mut self,
        h: Handle,
        now: SimTime,
        cache: &ClassCache,
        rate_per_s: f64,
    ) -> Begun {
        let (from, restore, restore_dollars) = self.resume_point(h, cache, rate_per_s);
        let s = self.slab.state_mut(h);
        let queued_at = s.ready_since;
        // Close the wait interval: queue seconds accumulate exactly once
        // per wait, however the job got here (fresh admission, a spot
        // relaunch, or the Requeued→pool-fallback path).
        s.queue += now - s.ready_since;
        s.ready_since = now;
        if from > 0 {
            s.resumes += 1;
        }
        // Keep the durable scalar in lock-step with the attempt's start:
        // a declined restore abandons the checkpoint for good (the trade
        // can't improve — epoch length is fixed per job), and the
        // banked-but-redone epochs count as lost work like any other.
        s.lost_work += SimTime::secs((s.epochs_done - from) as f64 * cache.epoch_secs);
        s.epochs_done = from;
        s.ckpt_cost += restore_dollars;
        self.step(h, now, JobLifecycle::Booting);
        self.step(h, now, JobLifecycle::Running { epochs_done: from });
        if from > 0 {
            let job = self.slab.get(h).job.id;
            self.narrate(now, PlatformEvent::CheckpointRestore { job, epochs: from });
        }
        Begun {
            queued_at,
            from,
            restore,
            restore_dollars,
        }
    }

    /// Second half of every launch: narrate the dispatch span, attribute
    /// the planned attempt's dollars (charge-at-dispatch on every tier, so
    /// tenant budget caps bite route-independently), schedule the event
    /// that ends the attempt, and credit the tenant's service — restart
    /// attempts consume (and are credited) capacity too.
    fn launch(&mut self, h: Handle, now: SimTime, queued_at: SimTime, l: Launch) {
        if self.obs_on {
            let job = self.slab.get(h).job;
            self.obs.attempt(&AttemptSpan {
                job: job.id,
                tenant: job.tenant,
                substrate: l.substrate,
                attempt: l.attempt,
                queued_at,
                dispatched_at: now,
                startup_s: l.startup.as_secs(),
                run_s: l.run.as_secs(),
            });
        }
        self.charge(h, l.cost);
        self.events.push(l.ends.0, l.ends.1);
        self.credit_service(h, l.run);
    }

    /// Try to begin the job on FaaS at `now`. FaaS jobs are never
    /// preempted, so they hold no durable progress to resume and always
    /// run all their epochs.
    fn start_faas(&mut self, h: Handle, now: SimTime) -> bool {
        let job = self.slab.get(h).job;
        let Some((startup, warm_hits)) = self.faas.try_start(now, job.workers) else {
            return false;
        };
        let cache = self.class_cache(job.class, job.workers);
        let run = cache.faas.run;
        // Nothing to resume, so the restore-vs-redo rate is never read.
        let begun = self.begin_attempt(h, now, &cache, 0.0);
        let s = self.slab.state_mut(h);
        s.startup += startup;
        s.run += run;
        s.warm_hits = warm_hits;
        let attempt = s.attempt;
        let started = PlatformEvent::FaasStart {
            job: job.id,
            workers: job.workers,
            warm_hits,
        };
        self.narrate(now, started);
        let plan = Launch {
            substrate: Route::Faas,
            attempt,
            startup,
            run,
            // GB-second billing of the execution (Lambda does not bill
            // provisioning time; the §5.3 cost formula is the same).
            cost: cache.faas.dollars,
            ends: (now + startup + run, Event::FaasDone(h)),
        };
        self.launch(h, now, begun.queued_at, plan);
        true
    }

    /// Try to begin the job on idle IaaS instances at `now`. A job thrown
    /// back by the spot market resumes from its last durable checkpoint:
    /// only the *remaining* epochs are scheduled (plus the restore read),
    /// so the pool's completion estimate no longer re-runs finished work.
    fn start_iaas(&mut self, h: Handle, now: SimTime) -> bool {
        let job = self.slab.get(h).job;
        if !self.iaas.try_start(now, job.workers) {
            return false;
        }
        let cache = self.class_cache(job.class, job.workers);
        // Restore-vs-redo priced at the reserved pool's own rate.
        let rate = self.cfg.iaas_case.rate(job.workers);
        let begun = self.begin_attempt(h, now, &cache, rate);
        let s = self.slab.state_mut(h);
        let run = SimTime::secs((s.epochs_total - begun.from) as f64 * cache.epoch_secs);
        let startup = self.cfg.iaas.dispatch_latency + begun.restore;
        s.startup += startup;
        s.run += run;
        let plan = Launch {
            substrate: Route::Iaas,
            attempt: s.attempt,
            startup,
            run,
            // Attributed share of the pool bill; the pool's own integral
            // is authoritative for totals.
            cost: Cost::usd(rate * (startup + run).as_secs()) + begun.restore_dollars,
            ends: (now + startup + run, Event::IaasDone(h)),
        };
        self.launch(h, now, begun.queued_at, plan);
        true
    }

    /// Launch (or relaunch after preemption) the job on the spot tier.
    /// Spot capacity is market-deep, so launches never queue — but the
    /// sampled preemption clock may reclaim the cluster mid-run. The
    /// attempt resumes from the last durable checkpoint and schedules only
    /// the remaining epochs; checkpoint uploads are asynchronous, so the
    /// attempt's wall clock is `boot + restore + remaining × epoch`. Its
    /// `startup`/`run` seconds are banked when the attempt ends
    /// (`spot_done` / `spot_preempted`), not here: only then is it known
    /// how many of them the market allowed.
    pub(super) fn start_spot(&mut self, h: Handle, now: SimTime) {
        let job = self.slab.get(h).job;
        let workers = job.workers;
        let cache = self.class_cache(job.class, workers);
        let boot = self.spot.start(workers);
        let s = self.slab.state_mut(h);
        let attempt = s.attempt;
        s.attempt += 1;
        // Restore-vs-redo priced at the market's discounted rate.
        let rate = self.spot.price_of(workers, SimTime::secs(1.0)).as_usd();
        let begun = self.begin_attempt(h, now, &cache, rate);
        let job_mttp = self.cfg.spot.mean_time_to_preempt.as_secs() / workers as f64;
        let plan = AttemptPlan {
            start_epoch: begun.from,
            total_epochs: cache.epochs_total,
            epoch_secs: cache.epoch_secs,
            interval: self.cfg.checkpoint.interval_epochs(
                cache.epoch_secs,
                cache.ckpt_write_secs,
                job_mttp,
            ),
            write_secs: cache.ckpt_write_secs,
        };
        let run = SimTime::secs(plan.run_secs());
        let s = self.slab.state_mut(h);
        s.attempt_start = now;
        s.attempt_boot = boot;
        s.attempt_restore = begun.restore;
        s.attempt_plan = Some(plan);
        let preempt_after = self.spot.preemption_clock(job.id, attempt, workers);
        let held = boot + begun.restore + run;
        let launch = Launch {
            substrate: Route::Spot,
            attempt,
            startup: boot + begun.restore,
            run,
            // The full planned hold, at the tier's own pricing so
            // attribution and bill can't diverge. A preemption settles the
            // difference between planned and actually-held seconds.
            cost: self.spot.price_of(workers, held) + begun.restore_dollars,
            ends: if preempt_after < held {
                (now + preempt_after, Event::SpotPreempted(h))
            } else {
                (now + boot + begun.restore + run, Event::SpotDone(h))
            },
        };
        self.launch(h, now, begun.queued_at, launch);
    }

    /// Hand a ready job to the FaaS region. With nothing queued ahead the
    /// job is the whole drain, so it gets `drain_faas`'s guard and its one
    /// start attempt directly — an uncongested fleet never touches its
    /// queues. A failed attempt has no side effects, so queueing and
    /// draining after one changes nothing.
    pub(super) fn enqueue_faas(&mut self, h: Handle, now: SimTime, sched: &dyn Scheduler) {
        if self.faas_queue.is_empty() && self.faas.available() > 0 && self.start_faas(h, now) {
            return;
        }
        let slot = self.slab.get(h);
        self.faas_queue.push(h, &slot.job, slot.seq);
        self.drain_faas(now, sched);
    }

    /// Hand a ready job to the reserved pool; the IaaS twin of
    /// [`enqueue_faas`](Self::enqueue_faas). The `free() > 0` guard is
    /// `drain_iaas`'s: with no idle instance the pool must not be ticked
    /// before the autoscaler runs. A failed attempt only ticks the pool to
    /// `now`, which the drain's own first attempt would have done.
    pub(super) fn enqueue_iaas(&mut self, h: Handle, now: SimTime, sched: &dyn Scheduler) {
        if self.iaas_queue.is_empty() && self.iaas.free() > 0 && self.start_iaas(h, now) {
            return;
        }
        let slot = self.slab.get(h);
        self.iaas_queue.push(h, &slot.job, slot.seq);
        self.drain_iaas(now, sched);
    }

    /// Drain the FaaS admission queue in discipline order. The picked job
    /// blocks the queue if it doesn't fit (strict priority — no backfill
    /// past an earlier deadline or a shorter-served tenant).
    fn drain_faas(&mut self, now: SimTime, sched: &dyn Scheduler) {
        if self.faas_queue.is_empty() || self.faas.available() == 0 {
            // Nothing can start (every job needs ≥ 1 slot): skip the pass.
            // `try_start` only prunes the warm pool on the way to a
            // decision, and pruning is idempotent over advancing time, so
            // deferring it to the next attempt changes nothing.
            return;
        }
        while let Some(p) = self.pick(&self.faas_queue, usize::MAX, sched) {
            if !self.start_faas(p.item, now) {
                break;
            }
            self.faas_queue.take(p);
        }
    }

    /// Discipline-ordered drain with backfill: every queued job that fits
    /// the idle capacity starts (in pick order), so a blocked wide job
    /// does not strand idle instances; leftovers re-trigger the autoscaler.
    pub(super) fn drain_iaas(&mut self, now: SimTime, sched: &dyn Scheduler) {
        if self.iaas_queue.is_empty() {
            return;
        }
        if self.iaas.free() == 0 {
            // No idle instance means no job can start (`start_iaas` has no
            // effect on failure): keep the queue as-is and go straight to
            // the autoscaler, exactly what a full failed pass would do.
            self.autoscale(now);
            return;
        }
        // The first attempt is unconditional: it ticks the pool's billing
        // integrals to `now`, keeping their subdivision exactly as it was.
        // After it a failed attempt would be a pure no-op (its redundant
        // tick advances by dt = 0, adding exactly +0.0), and a start fails
        // iff the job is wider than the idle capacity — so every later
        // pick is capped at that width and always starts.
        let mut cap = usize::MAX;
        while let Some(p) = self.pick(&self.iaas_queue, cap, sched) {
            if self.start_iaas(p.item, now) {
                self.iaas_queue.take(p);
            } else {
                debug_assert_eq!(cap, usize::MAX, "a job that fits must start");
            }
            cap = self.iaas.free();
        }
        if !self.iaas_queue.is_empty() {
            self.autoscale(now);
        }
    }

    /// Boot more instances if queued demand exceeds what is idle or coming.
    fn autoscale(&mut self, now: SimTime) {
        let deficit = self
            .iaas_queue
            .queued_workers()
            .saturating_sub(self.iaas.free() + self.iaas.provisioning());
        if deficit > 0 {
            if let Some((k, boot)) = self.iaas.scale_up(now, deficit) {
                self.events.push(now + boot, Event::Provisioned(k));
                let scaled = PlatformEvent::AutoscaleUp {
                    instances: k,
                    boot_s: boot.as_secs(),
                };
                self.narrate(now, scaled);
            }
        }
    }

    /// Release idle IaaS capacity above the floor, unless work is waiting
    /// for it.
    pub(super) fn idle_check(&mut self, now: SimTime) {
        if !self.iaas_queue.is_empty() {
            return;
        }
        let instances = self.iaas.scale_down_idle(now);
        if instances > 0 {
            self.narrate(now, PlatformEvent::AutoscaleDown { instances });
        }
    }

    pub(super) fn faas_done(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        self.faas.release(now, self.slab.get(h).job.workers);
        self.complete(h, now, sched);
        self.drain_faas(now, sched);
    }

    pub(super) fn iaas_done(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        self.iaas.finish(now, self.slab.get(h).job.workers);
        self.complete(h, now, sched);
        self.drain_iaas(now, sched);
        if self.iaas_queue.is_empty() {
            self.events
                .push(now + self.cfg.iaas.idle_after, Event::IdleCheck);
        }
    }

    /// Every spot attempt's outcome reaches the scheduler's preemption
    /// posterior the moment it lands, not only when (if) the job finally
    /// completes — clean attempts too: exposure without an event is what
    /// keeps the learned rate unbiased.
    fn report_spot_outcome(
        job: &JobRequest,
        held: SimTime,
        preempted: bool,
        sched: &mut dyn Scheduler,
    ) {
        sched.observe_preemption(&PreemptionObs {
            class: job.class,
            tenant: job.tenant,
            workers: job.workers,
            held,
            preempted,
        });
    }

    /// Book the checkpoint uploads an attempt initiated and return their
    /// dollars. Every initiated upload is billed — on a successful attempt
    /// (checkpointing is insurance, paid either way) and including the
    /// partial write a preemption interrupted.
    fn book_checkpoint_writes(
        &mut self,
        h: Handle,
        now: SimTime,
        job: &JobRequest,
        writes: u32,
    ) -> Cost {
        let dollars = self.class_cache(job.class, job.workers).ckpt_write_dollars * writes as f64;
        let st = self.slab.state_mut(h);
        st.ckpt_writes += writes;
        st.ckpt_cost += dollars;
        if writes > 0 {
            let job = job.id;
            self.narrate(now, PlatformEvent::CheckpointWrite { job, writes });
        }
        dollars
    }

    /// The spot attempt ran to completion: bank its seconds. The
    /// instance-seconds were attributed at launch; only the checkpoint
    /// uploads remain to bill.
    pub(super) fn spot_done(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        let slot = self.slab.get(h);
        let (job, s) = (slot.job, slot.state);
        let plan = s.attempt_plan.expect("spot completion without a plan");
        let run = SimTime::secs(plan.run_secs());
        let held = s.attempt_boot + s.attempt_restore + run;
        self.spot.finish(job.workers, held);
        Self::report_spot_outcome(&job, held, false, sched);
        let st = self.slab.state_mut(h);
        st.startup += st.attempt_boot + st.attempt_restore;
        st.run += run;
        let write_dollars = self.book_checkpoint_writes(h, now, &job, plan.writes_on_success());
        self.charge(h, write_dollars);
        self.complete(h, now, sched);
    }

    /// The market reclaimed the attempt's cluster: bank the seconds it was
    /// allowed, roll back to the last durable checkpoint, settle the
    /// attribution, and relaunch — on spot, or on the reserved pool once
    /// the retry budget is spent.
    pub(super) fn spot_preempted(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        let slot = self.slab.get(h);
        let (job, s) = (slot.job, slot.state);
        let workers = job.workers;
        let plan = s.attempt_plan.expect("spot preemption without a plan");
        let held = now - s.attempt_start;
        let overhead = s.attempt_boot + s.attempt_restore;
        // Seconds of the run phase actually trained before the market
        // struck (zero if it struck during boot/restore).
        let run_elapsed = (held - overhead).as_secs().max(0.0);
        let outcome = preempt_outcome(&plan, run_elapsed);
        self.spot.preempted(workers, held);
        Self::report_spot_outcome(&job, held, true, sched);
        let st = self.slab.state_mut(h);
        st.preemptions += 1;
        st.startup += held.min(overhead);
        st.run += SimTime::secs(run_elapsed);
        st.lost_work += outcome.lost_work;
        st.epochs_done = outcome.durable_epochs;
        st.ready_since = now;
        let preemptions = st.preemptions;
        let epochs_done = outcome.durable_epochs;
        if outcome.writes_interrupted > 0 {
            self.step(h, now, JobLifecycle::Checkpointing { epochs_done });
        }
        self.step(h, now, JobLifecycle::Preempted { epochs_done });
        self.step(h, now, JobLifecycle::Requeued { epochs_done });
        let reclaimed = PlatformEvent::SpotReclaim {
            job: job.id,
            // The in-flight attempt's 0-based index (the launch already
            // advanced the counter).
            attempt: s.attempt - 1,
            workers,
            held_s: held.as_secs(),
        };
        self.narrate(now, reclaimed);
        let write_dollars = self.book_checkpoint_writes(h, now, &job, outcome.writes_started);
        // The launch attributed the full planned hold; settle down to the
        // seconds the market actually allowed.
        let planned = overhead + SimTime::secs(plan.run_secs());
        let settle = self.spot.price_of(workers, held) - self.spot.price_of(workers, planned);
        self.charge(h, settle + write_dollars);
        // Work past the last durable checkpoint is lost: requeue on a
        // fresh spot cluster, or — once the retry budget is spent — fall
        // back to the reserved pool, resuming from the checkpoint there
        // (the record keeps its Spot route and its preemption history).
        if preemptions <= self.cfg.spot.max_retries {
            self.start_spot(h, now);
        } else {
            self.enqueue_iaas(h, now, sched);
        }
    }

    /// Mark the job finished: all epochs durable, lifecycle `Done`, the
    /// actuals fed back to the scheduler's estimator — the closed
    /// prediction loop — and the job retired.
    fn complete(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        let s = self.slab.state_mut(h);
        s.epochs_done = s.epochs_total;
        self.step(h, now, JobLifecycle::Done);
        let slot = self.slab.get(h);
        let (j, s) = (&slot.job, &slot.state);
        sched.observe(&CompletedJob {
            id: j.id,
            class: j.class,
            tenant: j.tenant,
            route: s.route,
            workers: j.workers,
            run: s.run,
            startup: s.startup,
            cost: s.cost,
            epochs_total: s.epochs_total,
            preemptions: s.preemptions,
        });
        self.retire(h);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{simulate, small_trace, FleetConfig};
    use crate::job::{JobClass, JobRequest};
    use crate::lifecycle::CheckpointPolicy;
    use crate::scheduler::{AllFaas, AllIaas, DeadlineAware, FairShare, Route};
    use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};
    use lml_sim::SimTime;

    #[test]
    fn faas_queue_kicks_in_at_the_concurrency_limit() {
        let mut cfg = FleetConfig::default();
        cfg.faas.concurrency_limit = 20; // two 10-worker jobs at a time
        let trace = Trace::generate(
            ArrivalProcess::Poisson { rate: 5.0 },
            &JobMix::only(JobClass::LrHiggs),
            40,
            3,
        );
        let m = simulate(&trace, &cfg, &mut AllFaas, 3);
        assert!(m.queue.max > 0.0, "queueing must appear under the limit");
        assert!(m.faas_peak_concurrency <= 20);
    }

    #[test]
    fn iaas_autoscaler_grows_and_charges_idle_floor() {
        let trace = small_trace(150, 1.0, 5);
        let cfg = FleetConfig::default();
        let m = simulate(&trace, &cfg, &mut AllIaas, 5);
        assert!(
            m.iaas_peak_instances > cfg.iaas.min_instances,
            "burst must trigger scale-up, peak {}",
            m.iaas_peak_instances
        );
        assert!(m.iaas_cost.as_usd() > 0.0);
        assert!(m.iaas_utilization > 0.0 && m.iaas_utilization <= 1.0);
    }

    /// All spot-routed jobs complete despite preemptions, preemptions are
    /// counted, and the spot bill is cheaper than the equivalent on-demand
    /// attribution.
    #[test]
    fn spot_jobs_survive_preemption_and_cost_less() {
        let mut cfg = FleetConfig::default();
        // Aggressive market: ~17 min mean per instance, 10-wide jobs die
        // every ~100 s — the convex zoo still finishes.
        cfg.spot.mean_time_to_preempt = SimTime::secs(1_000.0);
        let trace = small_trace(120, 0.5, 19);
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, 19);
        assert_eq!(m.n_jobs, 120);
        assert!(m.jobs_on_spot > 0, "spot fraction 1.0 must route to spot");
        assert!(m.preemptions > 0, "aggressive market must preempt someone");
        let preempted: u32 = m.records.iter().map(|r| r.preemptions).sum();
        assert_eq!(preempted as u64, m.preemptions, "per-job counts add up");
        // The per-job attribution covers at least the tier's bill (records
        // of jobs that fell back to the pool also carry an IaaS share).
        assert!(m.spot_cost.as_usd() > 0.0);
        let attributed: f64 = m
            .records
            .iter()
            .filter(|r| r.route == Route::Spot)
            .map(|r| r.cost.as_usd())
            .sum();
        assert!(
            attributed >= m.spot_cost.as_usd() * (1.0 - 1e-9),
            "attribution {attributed} vs tier bill {}",
            m.spot_cost.as_usd()
        );
    }

    /// On a hostile market every attempt dies fast; jobs exhaust the retry
    /// budget, fall back to the reserved pool, and still all complete.
    #[test]
    fn hostile_spot_market_falls_back_to_reserved_pool() {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(50.0); // 10-wide: ~5 s
        cfg.spot.max_retries = 2;
        let trace = small_trace(60, 0.5, 31);
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, 31);
        assert_eq!(m.n_jobs, 60, "every job completes despite the market");
        assert!(m.preemptions > 0);
        for r in &m.records {
            assert!(
                r.preemptions <= cfg.spot.max_retries + 1,
                "job {} preempted {} times, budget is {}",
                r.id,
                r.preemptions,
                cfg.spot.max_retries
            );
            // Accounting stays consistent across restarts and fallback.
            assert!(
                (r.finish() - r.submit - r.latency()).as_secs().abs() < 1e-6,
                "latency components must tile submit→finish for job {}",
                r.id
            );
        }
        assert!(
            m.iaas_cost.as_usd() > 0.0,
            "fallback work lands on the pool"
        );
    }

    /// The preemption process is part of the deterministic seed contract.
    #[test]
    fn spot_preemptions_are_deterministic() {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(2_000.0);
        let run = |seed: u64| {
            let trace = small_trace(100, 0.5, seed);
            let mut sched = FairShare::new().with_spot_fraction(0.8);
            simulate(&trace, &cfg, &mut sched, seed).to_json()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds give different markets");
    }

    /// The Requeued→pool-fallback path accounts queue time exactly once
    /// per wait interval: the latency components must tile submit→finish
    /// even when a job is preempted off spot, waits for a busy reserved
    /// pool, and resumes there. (A double-counted wait would make
    /// queue + startup + run overshoot the physical finish time.)
    #[test]
    fn fallback_queue_time_accumulates_once_per_wait() {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(100.0); // ~10 s for 10-wide
        cfg.spot.max_retries = 0; // first preemption falls back to the pool
        cfg.checkpoint = CheckpointPolicy::every(1);
        cfg.iaas.min_instances = 10;
        cfg.iaas.max_instances = 10; // one 10-wide job at a time: fallback queues
        let jobs = (0..4)
            .map(|k| JobRequest::new(k, JobClass::LrHiggs, SimTime::secs(k as f64), 10))
            .collect();
        let trace = Trace::from_jobs(jobs);
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, 5);
        assert_eq!(m.n_jobs, 4);
        assert!(m.preemptions > 0, "premise: the market strikes");
        let mut someone_waited = false;
        for r in &m.records {
            assert!(
                (r.finish() - r.submit - r.latency()).as_secs().abs() < 1e-6,
                "job {}: queue {} + startup {} + run {} must tile submit→finish",
                r.id,
                r.queue,
                r.startup,
                r.run
            );
            someone_waited |= r.queue.as_secs() > 1.0;
        }
        assert!(
            someone_waited,
            "premise: the capped pool makes a fallback job actually wait"
        );
    }

    /// EDF admission: on a capacity-capped pool the deadline jobs overtake
    /// deadline-less ones in the queue.
    #[test]
    fn edf_discipline_reorders_the_queue() {
        let mut cfg = FleetConfig::default();
        cfg.iaas.min_instances = 10;
        cfg.iaas.max_instances = 30; // persistent backlog at rate 2/s
        let spec = TenantSpec {
            n_tenants: 1,
            deadline_frac: 0.5,
            deadline_slack: 4.0,
        };
        let trace = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 2.0 },
            &JobMix::only(JobClass::LrHiggs),
            &spec,
            30,
            13,
        );
        // EDF queues deadline jobs first: their mean queue wait is lower.
        let m = simulate(&trace, &cfg, &mut DeadlineAware::new(), 13);
        let mean = |with_deadline: bool| {
            let rs: Vec<f64> = m
                .records
                .iter()
                .filter(|r| r.deadline.is_some() == with_deadline)
                .map(|r| r.queue.as_secs())
                .collect();
            rs.iter().sum::<f64>() / rs.len().max(1) as f64
        };
        assert!(
            mean(true) < mean(false),
            "deadline jobs must wait less: {} vs {}",
            mean(true),
            mean(false)
        );
    }
}
