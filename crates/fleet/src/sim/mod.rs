//! The fleet simulator: an event-driven loop over the shared
//! [`EventQueue`], driving arrivals through a [`Scheduler`] onto the three
//! platform models until every job completes.
//!
//! Job service times and dollars come from the §5.3 analytical model
//! through its one pricing seam, [`lml_analytic::model::price`] — the same
//! function the [`crate::estimate::Analytic`] estimate and the
//! [`JobClass::nominal_runtime`] deadline yardstick call, so truth and
//! prediction cannot drift apart. The fleet takes the run (the formula
//! minus its single-job startup term) and the run's dollars, and charges
//! the *actual* startup it simulates: warm/cold starts on FaaS, dispatch or
//! queueing on IaaS, boot plus preemption restarts on spot. A
//! thousand-job fleet simulates in host milliseconds.
//!
//! Admission queues obey the scheduler's [`QueueDiscipline`]: FIFO, EDF
//! (earliest deadline first), or deficit round-robin across tenants by
//! weighted service — the fair-share quota enforcement point.
//!
//! Every job moves through the explicit [`JobLifecycle`] state machine
//! (`Queued → Booting → Running{epochs_done} → … → Done/Rejected`), shared
//! by all schedulers and all three tiers. Progress is epoch-granular: a
//! [`CheckpointPolicy`] decides when spot-routed jobs upload recovery
//! checkpoints (priced through `lml-storage`'s checkpoint costing), a
//! preemption rolls the job back to its last durable checkpoint instead of
//! to zero, and completion events are always scheduled from the
//! *remaining* epochs — including after a pool fallback. Tenants with a
//! budget in the trace are cut off once their attributed spend exhausts it
//! (`Rejected`) — or, with a [`FleetConfig::budget_window`] configured,
//! held `Deferred` until the next window's fresh allowance.
//!
//! [`JobLifecycle`]: crate::lifecycle::JobLifecycle
//!
//! The loop is closed back to the prediction layer: every `Done`
//! transition feeds the job's actuals (run, startup, dollars — including
//! spot-inflated reruns) to the scheduler's [`crate::estimate::Estimator`]
//! via [`Scheduler::observe`], and the prediction snapshotted at admission
//! is scored against the actuals in the metrics (MAPE rollups). Setting
//! [`FleetConfig::epoch_scale`] ≠ 1 miscalibrates the zoo — jobs really
//! need more (or fewer) epochs than the analytic prior assumes — which is
//! exactly the regime where learning estimators earn their keep.
//!
//! # Streaming replay
//!
//! The engine is *pull-based*: [`replay_observed`] draws arrivals from a
//! [`TraceSource`] one at a time and stores in-flight jobs in a
//! generational slab, so resident memory is bounded by the working set
//! (jobs admitted but not yet terminal), never by trace length — a
//! 10M-job replay holds the same state as a 400-job one.
//! [`simulate`]/[`simulate_observed`] feed a materialized [`Trace`]
//! through the same loop via [`InMemorySource`]; whatever source delivers
//! a trace, the metrics JSON is **byte-identical** (the tie-break key is
//! the dense arrival sequence number, which equals the trace index).
//!
//! For traces too large to even collect per-job records, [`replay_stats`]
//! folds every retired job into a constant-size [`ReplaySummary`] —
//! that's the O(1)-memory path the million-job smoke test drives.
//! Observers that request a [`FleetObserver::rollup_period`] additionally
//! receive incremental [`crate::metrics::WindowRollup`]s as the simulation
//! clock crosses each boundary, so long replays report progress without
//! buffering.
//!
//! # Module map
//!
//! Every stage a job passes through has one code path, in one module
//! (ARCHITECTURE.md, "The fleet simulator", says what each may not know):
//! this module holds [`FleetConfig`], the `Fleet` state every handler
//! threads and the public entry points; `engine` the replay loop; `slab`
//! the resident jobs; `admission` budgets, pricing and routing; `dispatch`
//! the one launch path, queues and spot outcomes; `retire` the retire hook,
//! its two sinks and the rollup windows.

use crate::intern::TenantMap;
use crate::job::{JobClass, TenantId};
use crate::lifecycle::CheckpointPolicy;
use crate::metrics::FleetMetrics;
use crate::observe::{FleetObserver, NullObserver};
use crate::platform::{
    FaasConfig, FaasRegion, IaasConfig, IaasPool, SpotConfig, SpotTier, FAAS_CASE, IAAS_CASE,
};
use crate::queue::ReadyQueue;
use crate::scheduler::{QueueDiscipline, Scheduler};
use crate::stream::{InMemorySource, TraceSource};
use crate::workload::Trace;
use lml_analytic::model::{price, Price, Substrate};
use lml_sim::{Cost, EventQueue, SimTime};
use lml_storage::checkpoint::{checkpoint_bytes, CheckpointCosting};
use std::collections::BTreeMap;

mod admission;
mod dispatch;
mod engine;
#[cfg(test)]
mod pricing_golden;
mod retire;
mod slab;

pub use retire::ReplaySummary;

use engine::run_replay;
use retire::{RecordSink, Retire, RollupState, SummaryAcc};
use slab::{Handle, Slab};

/// Fleet-wide configuration: the three platforms' capacities, the spot
/// market, checkpointing, the zoo's calibration and budget accounting.
/// The substrate itself — the §5.3 channel and pricing cases, the rented
/// instance type and the platform timings — is fixed (see
/// [`crate::platform`]).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    pub faas: FaasConfig,
    pub iaas: IaasConfig,
    /// The preemptible tier (only exercised when a policy routes there).
    pub spot: SpotConfig,
    /// Recovery-checkpoint policy for spot-routed jobs (uploads are priced
    /// by size class — see [`lml_storage::checkpoint::TIER_THRESHOLD`]);
    /// `Never` reproduces the PR 2 lose-everything behaviour.
    pub checkpoint: CheckpointPolicy,
    /// Zoo miscalibration knob: the *actual* epochs every job needs are
    /// the class's calibrated count times this factor, while schedulers'
    /// analytic priors keep assuming the unscaled count. 1.0 (the
    /// default) reproduces a perfectly calibrated zoo; 2.0 is the
    /// "epoch counts perturbed ×2" study.
    pub epoch_scale: f64,
    /// Budget accounting window. `None` (the default) keeps PR 3's hard
    /// caps: an over-budget tenant's jobs are `Rejected`. With a window,
    /// trace budgets become per-window allowances — a standing clock
    /// resets the spend ledgers at every boundary, over-budget tenants'
    /// jobs are `Deferred`, and a deferred backlog re-admits at each
    /// boundary only up to the fresh allowance (the remainder waits for
    /// later windows). Zero-budget tenants are still rejected: no window
    /// can ever afford them.
    pub budget_window: Option<SimTime>,
    /// What a missed deadline is deemed to cost, in dollars — one side of
    /// the deferral-vs-rejection pricing when a tenant is over its
    /// windowed allowance. Deferring a job whose P95 ETA after the next
    /// window boundary still makes its deadline costs nothing; deferring
    /// one that will (at P95) miss costs this.
    pub deadline_miss_cost: f64,
    /// What rejecting a job outright is deemed to cost, in dollars — the
    /// other side of the pricing. With the defaults (equal costs, ties
    /// defer) every over-allowance job defers, reproducing the PR 4
    /// behaviour; price rejection *below* a miss and admission starts
    /// rejecting the jobs deferral can only doom.
    pub rejection_cost: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            faas: FaasConfig::default(),
            iaas: IaasConfig::default(),
            spot: SpotConfig::default(),
            checkpoint: CheckpointPolicy::Never,
            epoch_scale: 1.0,
            budget_window: None,
            deadline_miss_cost: 1.0,
            rejection_cost: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The resident job finishes on FaaS.
    FaasDone(Handle),
    /// The resident job finishes on IaaS.
    IaasDone(Handle),
    /// The resident job finishes on spot.
    SpotDone(Handle),
    /// The spot market reclaims the job's instances mid-flight.
    SpotPreempted(Handle),
    /// A batch of `k` IaaS instances finished booting.
    Provisioned(usize),
    /// Check whether idle IaaS capacity above the floor should be released.
    IdleCheck,
    /// A budget accounting window of the carried length opens: spend
    /// ledgers reset and deferred jobs are admitted.
    BudgetWindow(SimTime),
    /// The observer's standing telemetry clock fires: sample the gauges.
    /// Only ever scheduled when an active observer requests a
    /// [`FleetObserver::gauge_period`] — the default [`NullObserver`] run
    /// carries none, keeping the event stream byte-identical to the
    /// unobserved simulator.
    GaugeTick,
}

const N_CLASSES: usize = JobClass::ALL.len();

/// Per-class analytic cache: every value here is a pure function of
/// `(class, workers, config)`, so recomputing it per event is pure waste —
/// the job zoo has six classes and the hot path touches the same handful
/// of formulas on every dispatch. One entry per class, keyed by the
/// workers it was computed for (recomputed on a width change, which never
/// happens in homogeneous-width traces).
#[derive(Debug, Clone, Copy)]
struct ClassCache {
    workers: usize,
    /// Whole epochs a job of the class actually needs, after the zoo
    /// miscalibration knob (≥ 1).
    epochs_total: u32,
    /// The whole job on FaaS (its `startup` unread: the region simulates
    /// start-up).
    faas: Price,
    /// Seconds per epoch on booted IaaS or spot instances.
    epoch_secs: f64,
    ckpt_write_secs: f64,
    ckpt_write_dollars: Cost,
    ckpt_read_time: SimTime,
    ckpt_read_dollars: Cost,
}

/// All simulator state, threaded through the event handlers.
struct Fleet<'a> {
    cfg: &'a FleetConfig,
    /// Per-tenant dollar caps from the source's preamble (trace v3);
    /// absent tenants are uncapped.
    budgets: TenantMap<f64>,
    faas: FaasRegion,
    iaas: IaasPool,
    spot: SpotTier,
    /// Checkpoint channel: write/read time and request dollars.
    ckpt: CheckpointCosting,
    /// Admitted, non-terminal jobs (deferred ones included).
    slab: Slab,
    class_cache: [Option<ClassCache>; N_CLASSES],
    events: EventQueue<Event>,
    /// The scheduler's queue discipline, read once at replay start (it
    /// must not change mid-replay — see [`Scheduler::discipline`]).
    discipline: QueueDiscipline,
    /// Per-platform admission queues, indexed for that discipline. Each
    /// also keeps its queued-worker total, so `view()` and the autoscaler
    /// stay O(1).
    faas_queue: ReadyQueue<Handle>,
    iaas_queue: ReadyQueue<Handle>,
    /// Weighted-service ledger behind the deficit-round-robin discipline:
    /// worker-seconds of run time started so far, per tenant. Only
    /// maintained under DRR.
    tenant_service: TenantMap<f64>,
    /// Attributed dollars per tenant — the budget-cap enforcement ledger
    /// (reset every accounting window when deferral is on). Only
    /// maintained when someone reads it (`track_spend`).
    tenant_spend: TenantMap<f64>,
    /// Jobs held back until the next budget window, in arrival order.
    deferred_queue: Vec<Handle>,
    /// The source has at least one arrival still to deliver.
    more_arrivals: bool,
    /// `obs.active()`, cached: the vtable call was on the hot path.
    obs_on: bool,
    /// Maintain `tenant_spend` (budgets declared, or a gauge-sampling
    /// observer reads it — `sample_gauges` only runs on a gauge clock, so
    /// an observer without one never sees the ledger).
    track_spend: bool,
    rollup: Option<RollupState>,
    /// The retire hook: one call per terminal job.
    sink: &'a mut dyn Retire,
    /// The observability sink: every lifecycle transition, scheduler
    /// decision, platform event, dispatch span, and gauge sample is
    /// narrated here. [`NullObserver`] (the default) makes every call a
    /// no-op and `obs_on` gates payload assembly.
    obs: &'a mut (dyn FleetObserver + 'a),
}

impl<'a> Fleet<'a> {
    fn new(
        cfg: &'a FleetConfig,
        budgets: BTreeMap<TenantId, f64>,
        seed: u64,
        discipline: QueueDiscipline,
        len_hint: Option<usize>,
        sink: &'a mut dyn Retire,
        obs: &'a mut (dyn FleetObserver + 'a),
    ) -> Self {
        Fleet {
            cfg,
            track_spend: !budgets.is_empty() || obs.gauge_period().is_some(),
            budgets: budgets
                .into_iter()
                .fold(TenantMap::new(), |mut caps, (t, cap)| {
                    caps.insert(t, cap);
                    caps
                }),
            faas: FaasRegion::new(cfg.faas),
            iaas: IaasPool::new(cfg.iaas),
            spot: SpotTier::new(cfg.spot, seed),
            ckpt: CheckpointCosting::tiered(),
            slab: Slab::new(len_hint),
            class_cache: [None; N_CLASSES],
            events: EventQueue::new(),
            discipline,
            faas_queue: ReadyQueue::new(discipline),
            iaas_queue: ReadyQueue::new(discipline),
            tenant_service: TenantMap::new(),
            tenant_spend: TenantMap::new(),
            deferred_queue: Vec::new(),
            more_arrivals: false,
            obs_on: obs.active(),
            rollup: obs.rollup_period().map(RollupState::new),
            sink,
            obs,
        }
    }

    /// The per-class analytic bundle, recomputed only when the class's
    /// width changes (see [`ClassCache`]).
    fn class_cache(&mut self, class: JobClass, workers: usize) -> ClassCache {
        let idx = class as usize;
        if let Some(c) = self.class_cache[idx] {
            if c.workers == workers {
                return c;
            }
        }
        let mut p = class.profile();
        p.epochs *= self.cfg.epoch_scale;
        let bytes = checkpoint_bytes(class.profile().model_bytes);
        let epochs_total = ((class.default_epochs() * self.cfg.epoch_scale).ceil() as u32).max(1);
        let faas = price(&p, &FAAS_CASE, Substrate::Faas, workers);
        let iaas = price(&p, &IAAS_CASE, Substrate::Iaas, workers);
        let c = ClassCache {
            workers,
            epochs_total,
            faas,
            epoch_secs: iaas.run.as_secs() / epochs_total as f64,
            ckpt_write_secs: self.ckpt.write_time(bytes).as_secs(),
            ckpt_write_dollars: self.ckpt.write_dollars(bytes),
            ckpt_read_time: self.ckpt.read_time(bytes),
            ckpt_read_dollars: self.ckpt.read_dollars(bytes),
        };
        self.class_cache[idx] = Some(c);
        c
    }
}

/// Stream `source` through `scheduler` on the configured platforms,
/// collecting full per-job metrics.
///
/// Memory holds the in-flight working set plus one [`crate::metrics::JobRecord`] per
/// streamed job (the metrics need them); for traces too large even for
/// that, use [`replay_stats`]. A source or config the engine cannot run
/// is an `Err`, never a panic or a hang: a read or parse error,
/// out-of-order arrivals, a job wider than the platform it is routed to,
/// a non-positive [`FleetConfig::epoch_scale`], `iaas.min_instances` above
/// `iaas.max_instances`, `faas.provisioned_concurrency` above
/// `faas.concurrency_limit`, a non-positive `spot.mean_time_to_preempt`,
/// [`CheckpointPolicy::EveryK`]`(0)`, a non-positive or non-finite
/// [`FleetConfig::budget_window`], or a scheduler whose
/// [`Scheduler::eta_quantile`] is not [`crate::ETA_QUANTILE`].
///
/// ```
/// use lml_fleet::{replay, AllFaas, FleetConfig, TextSource};
///
/// let cfg = FleetConfig::default();
/// let text = "1.0\tlr-higgs\t10\n2.5\tsvm-rcv1\t5\n";
/// let m = replay(TextSource::new(text.as_bytes()), &cfg, &mut AllFaas, 7).unwrap();
/// assert_eq!(m.n_jobs, 2);
///
/// // 5,000 workers do not fit the account's concurrency limit.
/// let wide = "1.0\tlr-higgs\t5000\n";
/// let err = replay(TextSource::new(wide.as_bytes()), &cfg, &mut AllFaas, 7).unwrap_err();
/// assert!(err.contains("job 0") && err.contains("5000"), "{err}");
/// ```
pub fn replay<S: TraceSource>(
    source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
) -> Result<FleetMetrics, String> {
    replay_observed(source, cfg, scheduler, seed, &mut NullObserver)
}

/// [`replay`] with an observer: every validated lifecycle transition,
/// scheduler decision, platform event, dispatch span, windowed gauge
/// sample, and — when the observer requests a
/// [`FleetObserver::rollup_period`] — incremental [`crate::metrics::WindowRollup`]s as the
/// clock crosses each boundary, plus the final [`crate::observe::ReplayStats`].
pub fn replay_observed<S: TraceSource>(
    source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &mut (dyn FleetObserver + '_),
) -> Result<FleetMetrics, String> {
    let mut records = RecordSink::new(source.len_hint());
    let end = run_replay(source, cfg, scheduler, seed, observer, &mut records)?;
    Ok(records.into_metrics(scheduler.name(), seed, end))
}

/// Constant-memory replay: stream `source` to quiescence keeping only the
/// in-flight working set and a running [`ReplaySummary`] — no per-job
/// records, so a ten-million-job trace needs the same resident state as a
/// four-hundred-job one. The summary's `peak_resident_jobs` reports the
/// slab high-water mark that proves it.
pub fn replay_stats<S: TraceSource>(
    source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &mut (dyn FleetObserver + '_),
) -> Result<ReplaySummary, String> {
    let mut acc = SummaryAcc::default();
    let end = run_replay(source, cfg, scheduler, seed, observer, &mut acc)?;
    Ok(acc.into_summary(end))
}

/// Run `trace` through `scheduler` on the configured platforms.
///
/// # Panics
///
/// Where [`replay`] returns `Err` (a job wider than its routed platform,
/// a hostile config — see [`replay`] for the list), this panics with that
/// error — build the trace and config so that cannot happen, or call
/// [`replay`] through an [`InMemorySource`] to handle it.
///
/// Observability-free view of [`simulate_observed`]: the default
/// [`NullObserver`] makes every hook a no-op, so this is byte-identical to
/// the pre-observer simulator.
///
/// Output is a pure function of `(trace, config, scheduler, seed)`, down
/// to the bytes of [`FleetMetrics::to_json`] (`tests/fleet_artifacts.rs`
/// pins them):
///
/// ```
/// use lml_fleet::{simulate, AllFaas, ArrivalProcess, FleetConfig, JobMix, Trace};
///
/// let trace = Trace::generate(
///     ArrivalProcess::Poisson { rate: 0.2 },
///     &JobMix::default_mix(),
///     50,
///     7,
/// );
/// let cfg = FleetConfig::default();
/// let m = simulate(&trace, &cfg, &mut AllFaas, 7);
/// assert_eq!(m.n_jobs, 50);
/// assert!(m.to_json().starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
/// ```
pub fn simulate(
    trace: &Trace,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
) -> FleetMetrics {
    simulate_observed(trace, cfg, scheduler, seed, &mut NullObserver)
}

/// Run `trace` through `scheduler`, narrating the run into `observer`:
/// every validated lifecycle transition, scheduler decision (with the
/// ETAs/prices that drove it), platform event, dispatch span, and — when
/// the observer requests a [`FleetObserver::gauge_period`] — windowed
/// telemetry gauges on a standing clock.
///
/// The observer is passive: it mutates nothing the simulation reads, so a
/// [`NullObserver`] run is byte-identical to the unobserved simulator.
/// (An armed gauge clock does insert `GaugeTick` events into the queue —
/// runs compare byte-for-byte against runs with the same observer
/// configuration.)
///
/// ```
/// use lml_fleet::{
///     simulate, simulate_observed, AllIaas, ArrivalProcess, FleetConfig, JobMix,
///     RecordingObserver, Trace,
/// };
///
/// let trace = Trace::generate(
///     ArrivalProcess::Poisson { rate: 0.2 },
///     &JobMix::default_mix(),
///     50,
///     7,
/// );
/// let cfg = FleetConfig::default();
/// let mut obs = RecordingObserver::new();
/// let m = simulate_observed(&trace, &cfg, &mut AllIaas, 7, &mut obs);
/// assert_eq!(obs.attempts.len(), 50, "one IaaS dispatch span per job");
///
/// // Passive observer: metrics match the unobserved run exactly.
/// let unobserved = simulate(&trace, &cfg, &mut AllIaas, 7);
/// assert_eq!(m.to_json(), unobserved.to_json());
/// ```
pub fn simulate_observed<'a>(
    trace: &'a Trace,
    cfg: &'a FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &'a mut (dyn FleetObserver + 'a),
) -> FleetMetrics {
    replay_observed(InMemorySource::new(trace), cfg, scheduler, seed, observer)
        .expect("simulate* panics where replay* returns Err (see `simulate`'s docs)")
}

/// The convex-zoo Poisson trace most engine tests replay.
#[cfg(test)]
fn small_trace(n: usize, rate: f64, seed: u64) -> Trace {
    use crate::workload::{ArrivalProcess, JobMix};
    Trace::generate(
        ArrivalProcess::Poisson { rate },
        &JobMix::convex_mix(),
        n,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AllFaas, AllIaas, CostAware, DeadlineAware, FairShare, Route};
    use crate::workload::{ArrivalProcess, JobMix, TenantSpec};

    #[test]
    fn all_jobs_complete_on_every_policy() {
        let trace = small_trace(100, 0.5, 42);
        let cfg = FleetConfig::default();
        for (name, sched) in [
            ("all-faas", &mut AllFaas as &mut dyn Scheduler),
            ("all-iaas", &mut AllIaas),
            ("cost-aware", &mut CostAware::new()),
            ("deadline-aware", &mut DeadlineAware::new()),
            ("fair-share", &mut FairShare::new()),
        ] {
            let m = simulate(&trace, &cfg, sched, 42);
            assert_eq!(m.n_jobs, 100, "{name}");
            assert!(m.makespan >= trace.horizon(), "{name}");
            assert!(m.latency.p99 >= m.latency.p50, "{name}");
            assert!(m.total_cost().as_usd() > 0.0, "{name}");
        }
    }

    #[test]
    fn warm_hit_rate_rises_with_arrival_rate() {
        let cfg = FleetConfig::default();
        let rate_of = |rate: f64| {
            let trace = small_trace(300, rate, 11);
            simulate(&trace, &cfg, &mut AllFaas, 11).warm_hit_rate
        };
        let slow = rate_of(0.0003); // one job every ~55 min: pools go stale
        let fast = rate_of(1.0);
        assert!(
            fast > slow + 0.2,
            "cold-start probability must fall as traffic rises: slow {slow} fast {fast}"
        );
    }

    /// Provisioned concurrency converts cold starts to warm starts at a
    /// trickle arrival rate — and bills for it.
    #[test]
    fn provisioned_concurrency_buys_warm_starts() {
        let trace = small_trace(60, 0.002, 23); // pools go stale between jobs
        let cold_cfg = FleetConfig::default();
        let cold = simulate(&trace, &cold_cfg, &mut AllFaas, 23);
        let mut warm_cfg = FleetConfig::default();
        warm_cfg.faas.provisioned_concurrency = 100;
        let warm = simulate(&trace, &warm_cfg, &mut AllFaas, 23);
        assert!(
            warm.warm_hit_rate > cold.warm_hit_rate + 0.3,
            "provisioned floor must lift warm hits: {} vs {}",
            warm.warm_hit_rate,
            cold.warm_hit_rate
        );
        assert!(warm.startup.p99 < cold.startup.p99);
        assert_eq!(cold.faas_provisioned_cost.as_usd(), 0.0);
        assert!(warm.faas_provisioned_cost.as_usd() > 0.0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace::from_jobs(vec![]);
        let m = simulate(&trace, &FleetConfig::default(), &mut AllFaas, 1);
        assert_eq!(m.n_jobs, 0);
        assert_eq!(m.total_cost().as_usd() + m.latency.p99, 0.0);
        assert_eq!(m.deadline_hit_rate(), 1.0, "vacuously met");
        assert_eq!(m.fairness, 1.0, "vacuously fair");
    }

    /// On a perfectly calibrated zoo, cost-aware predictions match the
    /// simulated FaaS runs to the bit (truth and estimate are both
    /// `lml_analytic::model::price`), and constant routers predict nothing.
    #[test]
    fn predictions_are_snapshotted_and_scored() {
        let trace = small_trace(80, 0.5, 17);
        let cfg = FleetConfig::default();
        let m = simulate(&trace, &cfg, &mut CostAware::new(), 17);
        assert_eq!(m.predicted_jobs, 80, "every admitted job carries one");
        let faas_apes: Vec<f64> = m
            .records
            .iter()
            .filter(|r| r.route == Route::Faas)
            .filter_map(|r| r.runtime_ape())
            .collect();
        assert!(!faas_apes.is_empty(), "premise: some jobs ran on FaaS");
        for ape in &faas_apes {
            assert_eq!(*ape, 0.0, "calibrated FaaS prediction is exact");
        }
        let blind = simulate(&trace, &cfg, &mut AllFaas, 17);
        assert_eq!(blind.predicted_jobs, 0);
        assert_eq!(blind.runtime_mape, 0.0);
        assert!(blind.records.iter().all(|r| r.predicted_run.is_none()));
    }

    /// The epoch-scale knob stretches actual runtimes while the analytic
    /// prior stays put: MAPE under the blind estimator ≈ the miscalibration,
    /// and the online estimator learns it away within the run.
    #[test]
    fn miscalibrated_zoo_inflates_blind_mape_and_online_learns_it() {
        let trace = small_trace(300, 0.5, 23);
        let cfg = FleetConfig {
            epoch_scale: 2.0,
            ..FleetConfig::default()
        };
        let blind = simulate(&trace, &cfg, &mut CostAware::new(), 23);
        assert!(
            (blind.runtime_mape - 0.5).abs() < 0.05,
            "actuals are 2× the prediction → MAPE ≈ 0.5, got {}",
            blind.runtime_mape
        );
        let mut learned = CostAware::new().with_estimator(Box::new(crate::estimate::Online::new(
            crate::estimate::Analytic::new(),
        )));
        let online = simulate(&trace, &cfg, &mut learned, 23);
        assert!(
            online.runtime_mape < blind.runtime_mape * 0.6,
            "online feedback must cut MAPE: {} vs blind {}",
            online.runtime_mape,
            blind.runtime_mape
        );
        let windows = online.runtime_mape_windows(3);
        assert!(
            windows[2] < windows[0],
            "late windows must beat early ones: {windows:?}"
        );
        // Sanity: the calibrated zoo keeps near-zero error for both.
        let calib = simulate(&trace, &FleetConfig::default(), &mut CostAware::new(), 23);
        assert!(calib.runtime_mape < 0.05, "{}", calib.runtime_mape);
    }

    /// The source a trace arrives through never moves a byte: the text
    /// reader and the generator are held to the in-memory replay of the
    /// same jobs.
    #[test]
    fn every_source_replays_to_the_same_bytes() {
        use crate::stream::{collect, GeneratorSource, TextSource};
        // A budgeted, multi-tenant, deadline-carrying trace with windowed
        // deferral exercises every v3 feature on the wire.
        let spec = TenantSpec {
            n_tenants: 3,
            deadline_frac: 0.5,
            deadline_slack: 4.0,
        };
        let trace = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.6 },
            &JobMix::convex_mix(),
            &spec,
            120,
            29,
        )
        .with_budget(0, 0.05)
        .with_budget(1, 2.0);
        let cfg = FleetConfig {
            budget_window: Some(SimTime::secs(3_600.0)),
            ..Default::default()
        };
        let baseline = simulate(&trace, &cfg, &mut CostAware::new(), 29);
        assert!(
            baseline.deferred_jobs > 0,
            "premise: the window is exercised"
        );
        let text = trace.to_text();
        let from_text = replay(
            TextSource::new(text.as_bytes()),
            &cfg,
            &mut CostAware::new(),
            29,
        )
        .map(|m| m.to_json());
        assert_eq!(from_text, Ok(baseline.to_json()), "text source");
        // Generator-backed source vs the same jobs materialized
        // (generated traces carry no budgets, so the default config
        // applies).
        let gen = || {
            GeneratorSource::new(
                ArrivalProcess::Poisson { rate: 0.6 },
                JobMix::convex_mix(),
                spec,
                120,
                31,
            )
        };
        let cfg = FleetConfig::default();
        let materialized =
            collect(gen()).map(|t| simulate(&t, &cfg, &mut DeadlineAware::new(), 31));
        let streamed = replay(gen(), &cfg, &mut DeadlineAware::new(), 31);
        assert_eq!(
            streamed.map(|m| m.to_json()),
            materialized.map(|m| m.to_json()),
            "generator source"
        );
    }

    /// A config the engine cannot run is an `Err` from every `replay*`
    /// entry point, before a single job is pulled — and the documented
    /// panic from `simulate*`. The trace is budgeted and the scheduler
    /// routes to spot, so a field that got through would be read.
    #[test]
    fn hostile_config_is_an_error_not_a_panic() {
        use crate::observe::RecordingObserver;
        let trace = small_trace(5, 0.5, 1).with_budget(0, 0.5);
        let with = |edit: &dyn Fn(&mut FleetConfig)| {
            let mut cfg = FleetConfig::default();
            edit(&mut cfg);
            cfg
        };
        let mut hostile = vec![
            ("iaas.min_instances", with(&|c| c.iaas.min_instances = 401)),
            (
                "faas.provisioned_concurrency",
                with(&|c| c.faas.provisioned_concurrency = 1_001),
            ),
            (
                "checkpoint",
                with(&|c| c.checkpoint = CheckpointPolicy::EveryK(0)),
            ),
        ];
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            hostile.push(("epoch_scale", with(&|c| c.epoch_scale = bad)));
            let window = with(&|c| c.budget_window = Some(SimTime::secs(bad)));
            hostile.push(("budget_window", window));
        }
        for bad in [f64::NAN, 0.0, -1.0] {
            let mttp = with(&|c| c.spot.mean_time_to_preempt = SimTime::secs(bad));
            hostile.push(("spot.mean_time_to_preempt", mttp));
        }
        let sched = || FairShare::new().with_spot_fraction(1.0);
        for (field, cfg) in &hostile {
            let err = replay(InMemorySource::new(&trace), cfg, &mut sched(), 1).unwrap_err();
            let prefix = format!("FleetConfig::{field} ");
            assert!(err.starts_with(&prefix) && err.contains("must"), "{err}");
            let observed = replay_observed(
                InMemorySource::new(&trace),
                cfg,
                &mut sched(),
                1,
                &mut RecordingObserver::new(),
            );
            assert_eq!(observed.unwrap_err(), err);
            let stats = replay_stats(
                InMemorySource::new(&trace),
                cfg,
                &mut sched(),
                1,
                &mut NullObserver,
            );
            assert_eq!(stats.unwrap_err(), err);
        }
    }

    /// The fleet prices every tail at `ETA_QUANTILE`, so a policy asking
    /// for another quantile is refused up front, not judged at a tail it
    /// did not choose.
    #[test]
    fn off_fleet_eta_quantile_is_an_error() {
        use crate::job::JobRequest;
        use crate::scheduler::FleetView;
        struct P90;
        impl Scheduler for P90 {
            fn name(&self) -> &'static str {
                "p90"
            }
            fn route(&mut self, _job: &JobRequest, _view: &FleetView) -> Route {
                Route::Faas
            }
            fn eta_quantile(&self) -> f64 {
                0.9
            }
        }
        let trace = small_trace(5, 0.5, 1);
        let cfg = FleetConfig::default();
        let err = replay(InMemorySource::new(&trace), &cfg, &mut P90, 1).unwrap_err();
        assert_eq!(
            err,
            "scheduler p90 prices tails at eta_quantile 0.9, \
             but the fleet prices them at ETA_QUANTILE 0.95"
        );
        let stats = replay_stats(
            InMemorySource::new(&trace),
            &cfg,
            &mut P90,
            1,
            &mut NullObserver,
        );
        assert_eq!(stats.unwrap_err(), err);
    }

    #[test]
    #[should_panic(expected = "simulate* panics where replay* returns Err")]
    fn simulate_panics_where_replay_errs() {
        let cfg = FleetConfig {
            epoch_scale: 0.0,
            ..FleetConfig::default()
        };
        simulate(&small_trace(5, 0.5, 1), &cfg, &mut AllFaas, 1);
    }
}
