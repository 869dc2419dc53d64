//! Fleet observability: structured event tracing, scheduler decision
//! audit, windowed telemetry, and Chrome-trace export.
//!
//! The simulator's only output used to be the end-of-run
//! [`FleetMetrics`](crate::metrics::FleetMetrics) aggregate — no way to see *why* a job was routed to spot, deferred, or
//! rejected, nor how queue depth and spend evolved over time. This module
//! adds a [`FleetObserver`] trait the event loop narrates a run into:
//!
//! * every validated lifecycle transition as a typed [`FleetEvent`]
//!   stamped with sim time, job id, tenant, route, and attempt;
//! * every scheduler decision as a [`DecisionRecord`] carrying the inputs
//!   that drove it (predicted ETA, quantile ETA, risk-adjusted spot ETA,
//!   laxity, deferral-vs-rejection prices), so routing and admission are
//!   fully explainable post-hoc;
//! * platform events ([`PlatformEvent`]): warm hits/misses, autoscale
//!   up/down, spot reclaims, checkpoint writes and restores;
//! * per-attempt dispatch spans ([`AttemptSpan`]) — the exact
//!   queue/startup/run segments the metrics accumulate, one record per
//!   platform launch, from which the Chrome-trace exporter builds per-job
//!   timelines;
//! * windowed time-series gauges ([`GaugeSample`]) on a standing window
//!   clock: queue depth, deferred backlog, pool/warm utilization, spot
//!   holdings, per-tenant spend.
//!
//! Two sinks ship with the trait:
//!
//! * [`NullObserver`] — the zero-cost default behind [`crate::simulate`];
//!   every hook is a no-op and [`FleetObserver::active`] returns `false`,
//!   so the simulator skips even assembling the payloads. A `NullObserver`
//!   run is byte-identical to one compiled without any observer wiring.
//! * [`RecordingObserver`] — in-memory capture of all five streams with a
//!   deterministic JSON dump ([`RecordingObserver::to_json`], schema
//!   `lml-fleet/trace/v1`) and a Chrome trace-event exporter
//!   ([`RecordingObserver::to_chrome_trace`]) loadable in Perfetto or
//!   `chrome://tracing`.
//!
//! An observer that returns a [`FleetObserver::rollup_period`] also gets
//! the incremental per-window metric rollups and, at the end, the run's
//! [`ReplayStats`]: the constant-memory way to watch a streamed replay.
//!
//! Determinism contract: with the default `NullObserver` nothing changes —
//! no extra events enter the queue and every metrics byte matches the
//! unobserved simulator. An active observer with a
//! [`FleetObserver::gauge_period`] *does* add `GaugeTick` events to the
//! loop (they mutate nothing, but heap tie-breaking means the run is its
//! own determinism domain): two same-seed runs with the same observer
//! configuration still produce byte-identical traces *and* metrics.

use crate::estimate::ETA_QUANTILE;
use crate::job::TenantId;
use crate::json::{self, JsonObject};
use crate::lifecycle::JobLifecycle;
use crate::metrics::WindowRollup;
use crate::scheduler::Route;
use lml_sim::SimTime;
use std::collections::BTreeMap;

/// Streaming-replay counters handed to every observer just before
/// [`FleetObserver::end`]: how many arrivals the engine pulled from its
/// [`TraceSource`](crate::stream::TraceSource) and the peak size of the
/// resident job slab. For a streamed trace, `peak_resident_jobs` is the
/// number that stays bounded by the in-flight working set rather than the
/// trace length.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayStats {
    /// Arrivals pulled from the trace source over the run.
    pub arrivals_streamed: u64,
    /// Peak occupancy of the resident job slab (admitted, non-retired).
    pub peak_resident_jobs: u64,
    /// Peak number of pending entries in the event queue over the run.
    pub peak_queue_depth: u64,
}

/// One validated lifecycle transition, stamped with everything needed to
/// place it on a per-job timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEvent {
    /// Sim time of the transition.
    pub at: SimTime,
    /// Trace job id.
    pub job: u64,
    pub tenant: TenantId,
    /// The job's routed substrate as of this transition (records keep the
    /// original route across a spot→pool fallback).
    pub route: Route,
    /// Spot attempts launched so far (0 before the first launch).
    pub attempt: u32,
    pub from: JobLifecycle,
    pub to: JobLifecycle,
}

/// Why a job went where it went: the scheduler-decision audit record. One
/// is emitted per admission (fresh arrivals and budget-window releases
/// alike) and per deferral/rejection, carrying the inputs that drove the
/// decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    pub at: SimTime,
    pub job: u64,
    pub tenant: TenantId,
    pub decision: Decision,
}

/// The decision itself, with the prices and ETAs that settled it. Fields
/// are `None` when the deciding policy does not produce them (constant
/// routers predict nothing; deadline-less jobs have no laxity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// The job was routed onto a platform.
    Admit {
        route: Route,
        /// Mean predicted run on the routed substrate, seconds.
        predicted_run_s: Option<f64>,
        /// Calibrated `ETA_QUANTILE` (P95) ETA on the routed substrate,
        /// seconds.
        eta_q_s: Option<f64>,
        /// Risk-adjusted spot ETA (clean attempt plus expected
        /// resume-and-rerun cycles from the preemption posterior) — what
        /// the laxity had to cover for a spot admission.
        spot_eta_s: Option<f64>,
        /// Deadline slack at admission, seconds.
        laxity_s: Option<f64>,
    },
    /// The job was held to the next budget-window boundary: deferral
    /// priced at or below rejection.
    Defer {
        laxity_s: Option<f64>,
        /// The window boundary the job would be released at, seconds.
        release_s: Option<f64>,
        /// Best-substrate quantile run after release, seconds — the ETA
        /// the deadline-miss test priced.
        eta_q_s: Option<f64>,
        /// What a P95 deadline miss is deemed to cost (the defer side of
        /// the pricing when the ETA misses; zero-cost when it makes it).
        deadline_miss_cost: f64,
        /// What rejecting outright is deemed to cost (the other side).
        rejection_cost: f64,
    },
    /// The job was refused admission: a hard budget cap with no window, a
    /// zero-budget tenant, or the deferral-vs-rejection pricing finding a
    /// P95 miss locked in and rejection strictly cheaper.
    Reject {
        laxity_s: Option<f64>,
        release_s: Option<f64>,
        eta_q_s: Option<f64>,
        deadline_miss_cost: f64,
        rejection_cost: f64,
    },
}

impl Decision {
    pub fn name(&self) -> &'static str {
        match self {
            Decision::Admit { .. } => "admit",
            Decision::Defer { .. } => "defer",
            Decision::Reject { .. } => "reject",
        }
    }
}

/// A platform-level event: what the substrates did, as it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlatformEvent {
    /// A FaaS launch: `warm_hits` of the `workers` functions came from the
    /// warm pool, the rest cold-started.
    FaasStart {
        job: u64,
        workers: usize,
        warm_hits: usize,
    },
    /// The IaaS autoscaler started booting `instances` more machines.
    AutoscaleUp { instances: usize, boot_s: f64 },
    /// The IaaS autoscaler released `instances` idle machines above the
    /// floor.
    AutoscaleDown { instances: usize },
    /// The spot market reclaimed job `job`'s cluster `held_s` seconds
    /// after launch of attempt `attempt` (0-based).
    SpotReclaim {
        job: u64,
        attempt: u32,
        workers: usize,
        held_s: f64,
    },
    /// `writes` recovery-checkpoint uploads were initiated (billed whether
    /// durable or interrupted).
    CheckpointWrite { job: u64, writes: u32 },
    /// An attempt restored `epochs` durable epochs from checkpoint instead
    /// of redoing them.
    CheckpointRestore { job: u64, epochs: u32 },
}

impl PlatformEvent {
    pub fn name(&self) -> &'static str {
        match self {
            PlatformEvent::FaasStart { .. } => "faas_start",
            PlatformEvent::AutoscaleUp { .. } => "autoscale_up",
            PlatformEvent::AutoscaleDown { .. } => "autoscale_down",
            PlatformEvent::SpotReclaim { .. } => "spot_reclaim",
            PlatformEvent::CheckpointWrite { .. } => "checkpoint_write",
            PlatformEvent::CheckpointRestore { .. } => "checkpoint_restore",
        }
    }
}

/// One platform launch of one job: the exact queue/startup/run segments
/// the metrics accumulate, emitted at dispatch time. `startup_s`/`run_s`
/// are the *planned* segments; a spot attempt the market reclaims is
/// truncated by the matching [`PlatformEvent::SpotReclaim`] exactly the
/// way the simulator truncates it (startup capped at the held seconds,
/// run at what remained after the overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptSpan {
    pub job: u64,
    pub tenant: TenantId,
    /// The substrate this attempt actually launched on (a spot job's pool
    /// fallback dispatches an `Iaas` span).
    pub substrate: Route,
    /// 0-based spot attempt index at launch (0 for FaaS/IaaS dispatches of
    /// never-preempted jobs).
    pub attempt: u32,
    /// When the wait interval ending in this dispatch began (submission,
    /// window release, or the preemption that threw the job back).
    pub queued_at: SimTime,
    pub dispatched_at: SimTime,
    /// Planned startup seconds (boot + restore, or cold/warm start).
    pub startup_s: f64,
    /// Planned run seconds (remaining epochs only, after a resume).
    pub run_s: f64,
}

/// One sample of the standing telemetry clock: fleet-wide gauges at an
/// instant of sim time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    pub at: SimTime,
    /// Jobs sitting in the FaaS + IaaS admission queues.
    pub queue_depth: usize,
    /// Jobs held for the next budget window.
    pub deferred: usize,
    /// FaaS executions in flight / account concurrency limit.
    pub faas_in_use: usize,
    pub faas_limit: usize,
    /// Busy / booted IaaS instances.
    pub iaas_busy: usize,
    pub iaas_capacity: usize,
    /// Spot instances currently held.
    pub spot_in_use: usize,
    /// Attributed dollars per tenant this accounting window (ascending by
    /// tenant id — deterministic).
    pub tenant_spend: Vec<(TenantId, f64)>,
}

/// The observer the fleet loop narrates a run into. Every hook has a
/// no-op default, so sinks implement only what they need; the simulator
/// gates payload assembly on [`FleetObserver::active`], so the default
/// [`NullObserver`] costs one predictable branch per site.
///
/// `Send` is a supertrait so an observer can ride its simulation run onto
/// a bench sweep worker thread.
pub trait FleetObserver: Send {
    /// Whether the simulator should assemble and deliver payloads at all.
    /// `NullObserver` returns `false`; custom sinks inherit `true`.
    fn active(&self) -> bool {
        true
    }
    /// Period of the standing gauge clock, if this sink wants one. `None`
    /// (the default) keeps the event queue untouched — required for
    /// byte-identical parity with the unobserved simulator.
    fn gauge_period(&self) -> Option<SimTime> {
        None
    }
    /// A run is starting: policy name, seed, and job count.
    fn begin(&mut self, _policy: &str, _seed: u64, _n_jobs: usize) {}
    /// One validated lifecycle transition.
    fn lifecycle(&mut self, _ev: &FleetEvent) {}
    /// One scheduler decision with its inputs.
    fn decision(&mut self, _d: &DecisionRecord) {}
    /// One platform event.
    fn platform(&mut self, _at: SimTime, _ev: &PlatformEvent) {}
    /// One dispatch span.
    fn attempt(&mut self, _s: &AttemptSpan) {}
    /// One gauge sample from the standing clock.
    fn gauges(&mut self, _g: &GaugeSample) {}
    /// Width of the incremental metric-rollup windows, if this sink wants
    /// them. Unlike the gauge clock, rollups ride the engine's own event
    /// times — no events enter the queue, so arming them keeps the run
    /// byte-identical to an unobserved one. `None` (the default) skips
    /// rollup accounting entirely.
    fn rollup_period(&self) -> Option<SimTime> {
        None
    }
    /// One flushed metric window (the clock passed a `rollup_period`
    /// boundary, or the run ended with a partial window open). Windows
    /// arrive in index order with dense indices.
    fn rollup(&mut self, _w: &WindowRollup) {}
    /// Streaming counters for the finished run, delivered immediately
    /// before [`FleetObserver::end`]. Called on every observer, active or
    /// not (it carries no per-event payload).
    fn replay(&mut self, _stats: &ReplayStats) {}
    /// The run finished: total event-queue pushes and pops — what the repo
    /// benchmark reports as `sim.heap_ops`. Called on every observer,
    /// active or not (it carries no per-event payload).
    fn end(&mut self, _pushes: u64, _pops: u64) {}
}

/// The zero-cost default: every hook is a no-op and `active()` is
/// `false`, so the simulator skips payload assembly entirely. A run with
/// this observer is byte-identical to one without observer wiring.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl FleetObserver for NullObserver {
    fn active(&self) -> bool {
        false
    }
}

/// In-memory capture of all five observer streams, with a deterministic
/// `lml-fleet/trace/v1` JSON dump and a Chrome trace-event exporter.
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    policy: String,
    seed: u64,
    n_jobs: usize,
    gauge_period: Option<SimTime>,
    pub events: Vec<FleetEvent>,
    pub decisions: Vec<DecisionRecord>,
    pub platform: Vec<(SimTime, PlatformEvent)>,
    pub attempts: Vec<AttemptSpan>,
    pub gauges: Vec<GaugeSample>,
}

impl RecordingObserver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the standing gauge clock at `period`. Note this inserts
    /// `GaugeTick` events into the simulation's queue: gauges in hand, the
    /// run is still seed-deterministic, but its metrics bytes form their
    /// own determinism domain (compare like with like).
    pub fn with_gauge_period(mut self, period: SimTime) -> Self {
        assert!(period.as_secs() > 0.0, "gauge period must be positive");
        self.gauge_period = Some(period);
        self
    }

    /// Deterministic JSON dump of the full trace (`lml-fleet/trace/v1`).
    /// Two same-seed runs with the same observer configuration produce
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        let spend: usize = self.gauges.iter().map(|g| g.tenant_spend.len()).sum();
        let bound = json::object_bound(TRACE_KEYS)
            + json::quoted_bound(&self.policy)
            + self.events.len() * (json::object_bound(EVENT_KEYS) + 1)
            + self.decisions.len() * (json::object_bound(DECISION_KEYS) + 1)
            + self.platform.len() * (json::object_bound(PLATFORM_KEYS) + 1)
            + self.attempts.len() * (json::object_bound(ATTEMPT_KEYS) + 1)
            + self.gauges.len() * (json::object_bound(GAUGE_KEYS) + 1)
            + spend * (json::object_bound(SPEND_KEYS) + 1);
        json::document(bound, |o| {
            o.str("schema", "lml-fleet/trace/v1")
                .str("policy", &self.policy)
                .u64("seed", self.seed)
                .u64("jobs", self.n_jobs as u64)
                .array("events", |a| {
                    for e in &self.events {
                        a.object(|o| {
                            o.f64("t", e.at.as_secs())
                                .u64("job", e.job)
                                .u64("tenant", e.tenant as u64)
                                .str("route", e.route.name())
                                .u64("attempt", e.attempt as u64)
                                .str("from", e.from.name())
                                .str("to", e.to.name());
                        });
                    }
                })
                .array("decisions", |a| {
                    for d in &self.decisions {
                        a.object(|o| decision_fields(o, d));
                    }
                })
                .array("platform", |a| {
                    for (at, ev) in &self.platform {
                        a.object(|o| platform_fields(o, *at, ev));
                    }
                })
                .array("attempts", |a| {
                    for s in &self.attempts {
                        a.object(|o| {
                            o.u64("job", s.job)
                                .u64("tenant", s.tenant as u64)
                                .str("substrate", s.substrate.name())
                                .u64("attempt", s.attempt as u64)
                                .f64("queued_at_s", s.queued_at.as_secs())
                                .f64("dispatched_at_s", s.dispatched_at.as_secs())
                                .f64("startup_s", s.startup_s)
                                .f64("run_s", s.run_s);
                        });
                    }
                })
                .array("gauges", |a| {
                    for g in &self.gauges {
                        a.object(|o| {
                            o.f64("t", g.at.as_secs())
                                .u64("queue_depth", g.queue_depth as u64)
                                .u64("deferred", g.deferred as u64)
                                .u64("faas_in_use", g.faas_in_use as u64)
                                .u64("faas_limit", g.faas_limit as u64)
                                .u64("iaas_busy", g.iaas_busy as u64)
                                .u64("iaas_capacity", g.iaas_capacity as u64)
                                .u64("spot_in_use", g.spot_in_use as u64)
                                .array("tenant_spend", |a| {
                                    for &(t, usd) in &g.tenant_spend {
                                        a.object(|o| {
                                            o.u64("tenant", t as u64).f64("spend_usd", usd);
                                        });
                                    }
                                });
                        });
                    }
                });
        })
    }

    /// Per-job queue/startup/run seconds reconstructed from the attempt
    /// spans (spot attempts truncated by their matching reclaim events,
    /// with the simulator's own arithmetic). Returns `(job, queue,
    /// startup, run)` rows in first-dispatch order — these sums reconcile
    /// *exactly* with the run's `JobRecord` timings.
    pub fn span_timings(&self) -> Vec<(u64, f64, f64, f64)> {
        let reclaims = self.reclaims();
        let mut rows: Vec<(u64, f64, f64, f64)> = Vec::new();
        let mut index = BTreeMap::new();
        for s in &self.attempts {
            let k = *index.entry(s.job).or_insert_with(|| {
                rows.push((s.job, 0.0, 0.0, 0.0));
                rows.len() - 1
            });
            let (startup, run) = ran(s, &reclaims);
            let row = &mut rows[k];
            row.1 += (s.dispatched_at - s.queued_at).as_secs();
            row.2 += startup;
            row.3 += run;
        }
        rows
    }

    /// Held seconds of each spot attempt the market reclaimed, keyed by
    /// `(job, attempt)`; the first matching event wins.
    fn reclaims(&self) -> BTreeMap<(u64, u32), f64> {
        let mut held = BTreeMap::new();
        for (_, ev) in &self.platform {
            if let PlatformEvent::SpotReclaim {
                job,
                attempt,
                held_s,
                ..
            } = *ev
            {
                held.entry((job, attempt)).or_insert(held_s);
            }
        }
        held
    }

    /// Each job's tenant: from its first attempt span, else from its first
    /// lifecycle event.
    fn tenants(&self) -> BTreeMap<u64, TenantId> {
        let mut tenants = BTreeMap::new();
        for s in &self.attempts {
            tenants.entry(s.job).or_insert(s.tenant);
        }
        for e in &self.events {
            tenants.entry(e.job).or_insert(e.tenant);
        }
        tenants
    }

    /// Export the run as Chrome trace-event JSON (the `traceEvents` array
    /// format), loadable in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`. Each job is a track (`pid` = tenant, `tid` =
    /// job id) carrying complete (`ph:"X"`) spans for its queued, startup,
    /// and run phases per attempt; decisions and platform events appear as
    /// instant (`ph:"i"`) events on the same tracks. Timestamps are sim
    /// microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let us = |t: f64| t * 1e6;
        let reclaims = self.reclaims();
        let tenants = self.tenants();
        let other = format!("lml-fleet policy={} seed={}", self.policy, self.seed);
        let span = json::object_bound(SPAN_KEYS) + json::object_bound(SPAN_ARGS_KEYS) + 1;
        let instant = json::object_bound(INSTANT_KEYS) + 1;
        let bound = json::object_bound(CHROME_KEYS)
            + json::quoted_bound(&other)
            + self.attempts.len() * 3 * span
            + self.decisions.len() * (instant + json::object_bound(DECISION_KEYS))
            + self.platform.len() * (instant + json::object_bound(PLATFORM_KEYS));
        json::document(bound, |o| {
            o.array("traceEvents", |a| {
                for s in &self.attempts {
                    let (startup, run) = ran(s, &reclaims);
                    let mut span = |name: &str, ts_s: f64, dur_s: f64| {
                        a.object(|o| {
                            o.str("name", name)
                                .str("ph", "X")
                                .f64("ts", us(ts_s))
                                .f64("dur", us(dur_s))
                                .u64("pid", s.tenant as u64)
                                .u64("tid", s.job)
                                .str("cat", "fleet")
                                .object("args", |o| {
                                    o.str("substrate", s.substrate.name())
                                        .u64("attempt", s.attempt as u64);
                                });
                        });
                    };
                    let q0 = s.queued_at.as_secs();
                    let d0 = s.dispatched_at.as_secs();
                    if d0 > q0 {
                        span("queued", q0, d0 - q0);
                    }
                    if startup > 0.0 {
                        span("startup", d0, startup);
                    }
                    if run > 0.0 {
                        span("run", d0 + startup, run);
                    }
                }
                for d in &self.decisions {
                    a.object(|o| {
                        o.str("name", d.decision.name())
                            .str("ph", "i")
                            .f64("ts", us(d.at.as_secs()))
                            .u64("pid", d.tenant as u64)
                            .u64("tid", d.job)
                            .str("cat", "decision")
                            .str("s", "t")
                            .object("args", |o| decision_fields(o, d));
                    });
                }
                for (at, ev) in &self.platform {
                    let (pid, tid) = match ev {
                        PlatformEvent::FaasStart { job, .. }
                        | PlatformEvent::SpotReclaim { job, .. }
                        | PlatformEvent::CheckpointWrite { job, .. }
                        | PlatformEvent::CheckpointRestore { job, .. } => {
                            (tenants.get(job).copied().unwrap_or(0), *job)
                        }
                        _ => (0, 0),
                    };
                    a.object(|o| {
                        o.str("name", ev.name())
                            .str("ph", "i")
                            .f64("ts", us(at.as_secs()))
                            .u64("pid", pid as u64)
                            .u64("tid", tid)
                            .str("cat", "platform")
                            .str("s", "t")
                            .object("args", |o| platform_fields(o, *at, ev));
                    });
                }
            })
            .str("displayTimeUnit", "ms")
            .str("otherData", &other);
        })
    }
}

// The keys each record kind writes — the inputs to the documents' upper
// bounds (see `json::object_bound`). A kind with variants lists every key
// any variant writes.
const TRACE_KEYS: &[&str] = &[
    "schema",
    "policy",
    "seed",
    "jobs",
    "events",
    "decisions",
    "platform",
    "attempts",
    "gauges",
];
const EVENT_KEYS: &[&str] = &["t", "job", "tenant", "route", "attempt", "from", "to"];
const DECISION_KEYS: &[&str] = &[
    "t",
    "job",
    "tenant",
    "decision",
    "route",
    "eta_quantile",
    "predicted_run_s",
    "eta_q_s",
    "spot_eta_s",
    "laxity_s",
    "release_s",
    "deadline_miss_cost_usd",
    "rejection_cost_usd",
];
const PLATFORM_KEYS: &[&str] = &[
    "t",
    "kind",
    "job",
    "workers",
    "warm_hits",
    "cold_starts",
    "instances",
    "boot_s",
    "attempt",
    "held_s",
    "writes",
    "epochs",
];
const ATTEMPT_KEYS: &[&str] = &[
    "job",
    "tenant",
    "substrate",
    "attempt",
    "queued_at_s",
    "dispatched_at_s",
    "startup_s",
    "run_s",
];
const GAUGE_KEYS: &[&str] = &[
    "t",
    "queue_depth",
    "deferred",
    "faas_in_use",
    "faas_limit",
    "iaas_busy",
    "iaas_capacity",
    "spot_in_use",
    "tenant_spend",
];
const SPEND_KEYS: &[&str] = &["tenant", "spend_usd"];
const CHROME_KEYS: &[&str] = &["traceEvents", "displayTimeUnit", "otherData"];
const SPAN_KEYS: &[&str] = &["name", "ph", "ts", "dur", "pid", "tid", "cat", "args"];
const SPAN_ARGS_KEYS: &[&str] = &["substrate", "attempt"];
const INSTANT_KEYS: &[&str] = &["name", "ph", "ts", "pid", "tid", "cat", "s", "args"];

/// Startup and run seconds of an attempt as it actually ran: a spot
/// attempt the market struck `held_s` after launch has its startup capped
/// at the held seconds and its run cut to what remained after the overhead
/// — the simulator's truncation, verbatim.
fn ran(s: &AttemptSpan, reclaims: &BTreeMap<(u64, u32), f64>) -> (f64, f64) {
    let held = match s.substrate {
        Route::Spot => reclaims.get(&(s.job, s.attempt)),
        _ => None,
    };
    match held {
        Some(&held_s) => (held_s.min(s.startup_s), (held_s - s.startup_s).max(0.0)),
        None => (s.startup_s, s.run_s),
    }
}

fn opt_f64(o: &mut JsonObject<'_>, k: &str, v: Option<f64>) {
    match v {
        Some(v) => o.f64(k, v),
        None => o.null(k),
    };
}

/// One decision record's members: the `trace/v1` element, and the Chrome
/// export's `args`.
fn decision_fields(o: &mut JsonObject<'_>, d: &DecisionRecord) {
    o.f64("t", d.at.as_secs())
        .u64("job", d.job)
        .u64("tenant", d.tenant as u64)
        .str("decision", d.decision.name());
    match d.decision {
        Decision::Admit {
            route,
            predicted_run_s,
            eta_q_s,
            spot_eta_s,
            laxity_s,
        } => {
            o.str("route", route.name())
                .f64("eta_quantile", ETA_QUANTILE);
            opt_f64(o, "predicted_run_s", predicted_run_s);
            opt_f64(o, "eta_q_s", eta_q_s);
            opt_f64(o, "spot_eta_s", spot_eta_s);
            opt_f64(o, "laxity_s", laxity_s);
        }
        Decision::Defer {
            laxity_s,
            release_s,
            eta_q_s,
            deadline_miss_cost,
            rejection_cost,
        }
        | Decision::Reject {
            laxity_s,
            release_s,
            eta_q_s,
            deadline_miss_cost,
            rejection_cost,
        } => {
            opt_f64(o, "laxity_s", laxity_s);
            opt_f64(o, "release_s", release_s);
            opt_f64(o, "eta_q_s", eta_q_s);
            o.f64("deadline_miss_cost_usd", deadline_miss_cost)
                .f64("rejection_cost_usd", rejection_cost);
        }
    }
}

/// One platform event's members: the `trace/v1` element, and the Chrome
/// export's `args`.
fn platform_fields(o: &mut JsonObject<'_>, at: SimTime, ev: &PlatformEvent) {
    o.f64("t", at.as_secs()).str("kind", ev.name());
    match *ev {
        PlatformEvent::FaasStart {
            job,
            workers,
            warm_hits,
        } => o
            .u64("job", job)
            .u64("workers", workers as u64)
            .u64("warm_hits", warm_hits as u64)
            .u64("cold_starts", (workers - warm_hits) as u64),
        PlatformEvent::AutoscaleUp { instances, boot_s } => {
            o.u64("instances", instances as u64).f64("boot_s", boot_s)
        }
        PlatformEvent::AutoscaleDown { instances } => o.u64("instances", instances as u64),
        PlatformEvent::SpotReclaim {
            job,
            attempt,
            workers,
            held_s,
        } => o
            .u64("job", job)
            .u64("attempt", attempt as u64)
            .u64("workers", workers as u64)
            .f64("held_s", held_s),
        PlatformEvent::CheckpointWrite { job, writes } => {
            o.u64("job", job).u64("writes", writes as u64)
        }
        PlatformEvent::CheckpointRestore { job, epochs } => {
            o.u64("job", job).u64("epochs", epochs as u64)
        }
    };
}

impl FleetObserver for RecordingObserver {
    fn gauge_period(&self) -> Option<SimTime> {
        self.gauge_period
    }
    fn begin(&mut self, policy: &str, seed: u64, n_jobs: usize) {
        self.policy = policy.to_string();
        self.seed = seed;
        self.n_jobs = n_jobs;
    }
    fn lifecycle(&mut self, ev: &FleetEvent) {
        self.events.push(*ev);
    }
    fn decision(&mut self, d: &DecisionRecord) {
        self.decisions.push(*d);
    }
    fn platform(&mut self, at: SimTime, ev: &PlatformEvent) {
        self.platform.push((at, *ev));
    }
    fn attempt(&mut self, s: &AttemptSpan) {
        self.attempts.push(*s);
    }
    fn gauges(&mut self, g: &GaugeSample) {
        self.gauges.push(g.clone());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Keeps the window rollups and the `ReplayStats` of a replay and
    /// nothing else. `active()` is `false`, so no per-event payloads are
    /// assembled and no gauge clock is armed — and because the rollup flush
    /// rides the engine's own event times, a run with this sink is
    /// byte-identical to an unobserved one.
    #[derive(Debug)]
    pub(crate) struct RollupCollector {
        period: SimTime,
        /// Flushed windows, in index order.
        pub windows: Vec<WindowRollup>,
        /// Streaming counters delivered at the end of the run.
        pub replay_stats: Option<ReplayStats>,
    }

    impl RollupCollector {
        pub(crate) fn new(period: SimTime) -> Self {
            assert!(period.as_secs() > 0.0, "rollup period must be positive");
            RollupCollector {
                period,
                windows: Vec::new(),
                replay_stats: None,
            }
        }
    }

    impl FleetObserver for RollupCollector {
        fn active(&self) -> bool {
            false
        }
        fn rollup_period(&self) -> Option<SimTime> {
            Some(self.period)
        }
        fn rollup(&mut self, w: &WindowRollup) {
            self.windows.push(*w);
        }
        fn replay(&mut self, stats: &ReplayStats) {
            self.replay_stats = Some(*stats);
        }
    }

    #[test]
    fn null_observer_is_inactive() {
        assert!(!NullObserver.active());
        assert!(NullObserver.gauge_period().is_none());
    }

    #[test]
    fn recording_observer_round_trips_streams() {
        let mut obs = RecordingObserver::new();
        obs.begin("test", 7, 2);
        obs.lifecycle(&FleetEvent {
            at: SimTime::secs(1.0),
            job: 3,
            tenant: 1,
            route: Route::Spot,
            attempt: 0,
            from: JobLifecycle::Queued,
            to: JobLifecycle::Booting,
        });
        obs.decision(&DecisionRecord {
            at: SimTime::secs(1.0),
            job: 3,
            tenant: 1,
            decision: Decision::Admit {
                route: Route::Spot,
                predicted_run_s: Some(10.0),
                eta_q_s: Some(12.0),
                spot_eta_s: Some(20.0),
                laxity_s: Some(100.0),
            },
        });
        obs.platform(
            SimTime::secs(2.0),
            &PlatformEvent::SpotReclaim {
                job: 3,
                attempt: 0,
                workers: 4,
                held_s: 1.0,
            },
        );
        let j = obs.to_json();
        assert!(j.starts_with(r#"{"schema":"lml-fleet/trace/v1""#));
        assert!(j.contains(r#""decision":"admit""#));
        assert!(j.contains(r#""spot_eta_s":20.0"#));
        assert!(j.contains(r#""kind":"spot_reclaim""#));
    }

    #[test]
    fn chrome_trace_truncates_reclaimed_attempts() {
        let mut obs = RecordingObserver::new();
        obs.attempt(&AttemptSpan {
            job: 9,
            tenant: 0,
            substrate: Route::Spot,
            attempt: 0,
            queued_at: SimTime::secs(0.0),
            dispatched_at: SimTime::secs(5.0),
            startup_s: 10.0,
            run_s: 100.0,
        });
        // Market strikes 30 s after launch: 10 s startup + 20 s of run.
        obs.platform(
            SimTime::secs(35.0),
            &PlatformEvent::SpotReclaim {
                job: 9,
                attempt: 0,
                workers: 2,
                held_s: 30.0,
            },
        );
        let rows = obs.span_timings();
        assert_eq!(rows, vec![(9, 5.0, 10.0, 20.0)]);
        let trace = obs.to_chrome_trace();
        assert!(trace.starts_with(r#"{"traceEvents":["#));
        assert!(trace.contains(r#""name":"run","ph":"X","ts":15000000.0,"dur":20000000.0"#));
    }

    #[test]
    fn rollup_collector_captures_windows_without_activating() {
        let mut c = RollupCollector::new(SimTime::secs(60.0));
        assert!(!c.active());
        assert_eq!(c.rollup_period(), Some(SimTime::secs(60.0)));
        c.rollup(&WindowRollup {
            index: 0,
            start: SimTime::ZERO,
            end: SimTime::secs(60.0),
            submitted: 5,
            completed: 3,
            rejected: 0,
            cost: lml_sim::Cost::usd(1.5),
            resident_jobs: 2,
        });
        c.replay(&ReplayStats {
            arrivals_streamed: 5,
            peak_resident_jobs: 4,
            peak_queue_depth: 3,
        });
        assert_eq!(c.windows.len(), 1);
        assert_eq!(c.windows[0].submitted, 5);
        assert_eq!(c.replay_stats.unwrap().peak_resident_jobs, 4);
    }
}
