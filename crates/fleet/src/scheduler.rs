//! Fleet scheduling policies.
//!
//! A [`Scheduler`] routes each arriving job to the FaaS region, the IaaS
//! pool, or the spot tier, and declares the [`QueueDiscipline`] the
//! simulator's admission queues obey for it. The two degenerate policies
//! reproduce the paper's single-backend world at fleet scale; every
//! model-driven policy prices both options per job through a pluggable
//! [`Estimator`] (the §5.3 analytical model by default, or an online /
//! hybrid model learned from the simulator's completion feedback):
//! [`CostAware`] takes the cheaper side with a load-aware escape hatch;
//! [`DeadlineAware`] runs EDF over the predicted runtimes and spills to
//! IaaS when FaaS can't make the deadline; [`FairShare`] routes by cost
//! but drains queues deficit-round-robin across weighted tenants.

use crate::estimate::{
    calibrate_epochs, Analytic, CompletedJob, Estimate, Estimator, PreemptionObs, RiskModel,
    ETA_QUANTILE,
};
use crate::job::{JobClass, JobRequest, TenantId};
use crate::lifecycle::CheckpointPolicy;
use lml_sim::SimTime;

/// Where a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Faas,
    Iaas,
    /// Preemptible spot instances: cheapest, but the job may be reclaimed
    /// mid-run and requeued.
    Spot,
}

impl Route {
    pub fn name(self) -> &'static str {
        match self {
            Route::Faas => "faas",
            Route::Iaas => "iaas",
            Route::Spot => "spot",
        }
    }
}

/// Order in which the simulator's admission queues are drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Strict arrival order.
    #[default]
    Fifo,
    /// Earliest deadline first; deadline-less jobs go last, ties break by
    /// submission order.
    Edf,
    /// Deficit round-robin across tenants: the queued job of the tenant
    /// with the least weighted service started so far goes first.
    Drr,
}

/// Snapshot of platform load handed to the scheduler at decision time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetView {
    /// FaaS executions currently running.
    pub faas_in_use: usize,
    /// Account concurrency limit.
    pub faas_limit: usize,
    /// Workers queued for the FaaS region.
    pub faas_queued_workers: usize,
    /// Idle booted IaaS instances.
    pub iaas_free: usize,
    /// Booted IaaS instances (busy + idle).
    pub iaas_capacity: usize,
    /// Instances being provisioned.
    pub iaas_provisioning: usize,
    /// Workers queued for the IaaS pool.
    pub iaas_queued_workers: usize,
}

/// A fleet scheduling policy.
///
/// `Send` is a supertrait so whole simulation runs — scheduler included —
/// can be fanned out across the bench sweep engine's worker threads.
///
/// # Example: a custom constant router
///
/// ```
/// use lml_fleet::{FleetView, JobRequest, Route, Scheduler};
///
/// /// Sends every job wider than 32 workers to the reserved pool.
/// struct WidthSplit;
///
/// impl Scheduler for WidthSplit {
///     fn name(&self) -> &'static str {
///         "width-split"
///     }
///     fn route(&mut self, job: &JobRequest, _view: &FleetView) -> Route {
///         if job.workers > 32 {
///             Route::Iaas
///         } else {
///             Route::Faas
///         }
///     }
/// }
/// ```
pub trait Scheduler: Send {
    fn name(&self) -> &'static str;
    /// Route one arriving job given the current platform load.
    fn route(&mut self, job: &JobRequest, view: &FleetView) -> Route;
    /// How the simulator's admission queues are ordered for this policy.
    ///
    /// Must be constant for the lifetime of a replay: the simulator reads
    /// it once at replay start to index its queues and to decide whether
    /// to keep the DRR service ledger, and debug-asserts at every drain
    /// that it has not changed.
    fn discipline(&self) -> QueueDiscipline {
        QueueDiscipline::Fifo
    }
    /// Fair-share weight of a tenant (only consulted under
    /// [`QueueDiscipline::Drr`]; unknown tenants default to 1).
    fn tenant_weight(&self, _tenant: TenantId) -> f64 {
        1.0
    }
    /// The policy's runtime/cost prediction for this job, if it makes one
    /// — the simulator snapshots it at admission to score prediction
    /// error. Constant routers predict nothing.
    fn estimate(&self, _job: &JobRequest) -> Option<Estimate> {
        None
    }
    /// Completion feedback from the simulator: called on every `Done`
    /// lifecycle transition with the job's actuals. Policies holding an
    /// [`Estimator`] forward this to it; the default drops it.
    fn observe(&mut self, _done: &CompletedJob) {}
    /// Spot-market feedback from the simulator: every spot attempt's
    /// outcome — `SpotPreempted` *and* clean `SpotDone`, so rates are
    /// exposure-weighted — the moment it settles. Risk-aware policies
    /// forward this to their [`RiskModel`]; the default drops it.
    fn observe_preemption(&mut self, _obs: &PreemptionObs) {}
    /// The quantile this policy prices runtime tails at. The fleet prices
    /// every tail (admission ETAs, deferral-vs-rejection, the coverage
    /// score) at `ETA_QUANTILE`, so [`crate::replay`] returns `Err` for
    /// a policy answering anything else. No in-tree policy overrides it;
    /// it stays a trait method only because wrapping schedulers forward
    /// it.
    fn eta_quantile(&self) -> f64 {
        ETA_QUANTILE
    }
    /// The risk-adjusted spot ETA this policy would price the job's spot
    /// admission at, if it computes one — purely explanatory: the
    /// simulator stamps it into the admission [`DecisionRecord`] so trace
    /// consumers can see the number that competed against the firm-price
    /// ETAs. Policies without a risk model report nothing.
    ///
    /// [`DecisionRecord`]: crate::observe::DecisionRecord
    fn spot_eta_hint(&self, _job: &JobRequest, _e: &Estimate) -> Option<f64> {
        None
    }
}

/// Deterministic spot assignment: a stable per-job hash decides whether an
/// IaaS-bound job rides the spot market instead, so a `spot_fraction` of
/// jobs (in expectation, independent of arrival order) go preemptible
/// without consuming any RNG state.
pub(crate) fn spot_pick(id: u64, spot_fraction: f64) -> bool {
    if spot_fraction <= 0.0 {
        return false;
    }
    let h = (id.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < spot_fraction
}

/// The cost rule every model-driven policy routes by: the reserved pool
/// when it is no dearer than FaaS (a `spot_fraction` share of those jobs
/// ride the spot market instead), FaaS otherwise. [`CostAware`] passes 0.0.
///
/// Known difference, kept on purpose: when a deadline job can make its
/// deadline on both sides, [`DeadlineAware`] breaks a cost tie toward FaaS
/// (`c_faas <= c_iaas`), while this rule breaks it toward the pool.
/// Aligning the two would move routing, so it is not done here.
fn cost_route(e: &Estimate, job: &JobRequest, spot_fraction: f64) -> Route {
    if e.c_iaas <= e.c_faas {
        if spot_pick(job.id, spot_fraction) {
            Route::Spot
        } else {
            Route::Iaas
        }
    } else {
        Route::Faas
    }
}

/// Route everything to Lambda.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllFaas;

impl Scheduler for AllFaas {
    fn name(&self) -> &'static str {
        "all-faas"
    }
    fn route(&mut self, _job: &JobRequest, _view: &FleetView) -> Route {
        Route::Faas
    }
}

/// Route everything to the reserved cluster.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllIaas;

impl Scheduler for AllIaas {
    fn name(&self) -> &'static str {
        "all-iaas"
    }
    fn route(&mut self, _job: &JobRequest, _view: &FleetView) -> Route {
        Route::Iaas
    }
}

/// Cost-aware hybrid: per job, price both substrates with the estimator
/// and take the cheaper one — unless the cheaper side is saturated and the
/// other side would finish the job sooner, in which case latency wins (the
/// premium buys down the queue).
#[derive(Debug, Clone)]
pub struct CostAware {
    est: Box<dyn Estimator>,
}

/// How much slower the cheaper option may be (vs the other side) before
/// [`CostAware`] abandons it while it is saturated.
const PATIENCE: f64 = 2.0;

impl Default for CostAware {
    fn default() -> Self {
        Self::new()
    }
}

impl CostAware {
    /// Router predicting with the analytic model, which prices the
    /// fleet's own substrate whatever the [`crate::sim::FleetConfig`].
    pub fn new() -> Self {
        CostAware {
            est: Box::new(Analytic::new()),
        }
    }

    /// Swap in a different prediction model (online, hybrid, …).
    pub fn with_estimator(mut self, est: Box<dyn Estimator>) -> Self {
        self.est = est;
        self
    }

    /// Re-estimate `R` (epochs to threshold) for `class` by training on a
    /// `sample_frac` subsample — the paper's §5.3 estimator — and pin the
    /// result into the estimator's analytic prior.
    pub fn calibrate(&mut self, class: JobClass, sample_frac: f64, max_epochs: usize, seed: u64) {
        let epochs = calibrate_epochs(class, sample_frac, max_epochs, seed);
        self.est.pin_epochs(class, epochs);
    }
}

impl Scheduler for CostAware {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn route(&mut self, job: &JobRequest, view: &FleetView) -> Route {
        let e = self.est.predict(job);
        // With no spot share the rule only ever picks a firm substrate.
        let (cheap, dear) = match cost_route(&e, job, 0.0) {
            Route::Faas => (Route::Faas, Route::Iaas),
            _ => (Route::Iaas, Route::Faas),
        };
        let saturated = if cheap == Route::Iaas {
            view.iaas_queued_workers + job.workers > view.iaas_free + view.iaas_provisioning
        } else {
            view.faas_queued_workers + job.workers + view.faas_in_use > view.faas_limit
        };
        if saturated && e.time(dear) * PATIENCE < e.time(cheap) + queue_penalty(cheap, view) {
            // The queue on the cheap side costs more time than the premium
            // side's whole run: buy latency.
            return dear;
        }
        cheap
    }

    fn estimate(&self, job: &JobRequest) -> Option<Estimate> {
        Some(self.est.predict(job))
    }

    fn observe(&mut self, done: &CompletedJob) {
        self.est.observe(done);
    }
}

/// Deadline-aware EDF scheduler.
///
/// Jobs with deadlines are admitted earliest-deadline-first
/// ([`QueueDiscipline::Edf`]) and routed to the cheapest substrate whose
/// predicted *completion* (run plus a queue-backlog estimate) still meets
/// the deadline. FaaS can't make it when the predicted run is too slow
/// (deep, communication-bound jobs) or the region is saturated — the job
/// spills to the reserved pool; conversely a backlogged pool pushes urgent
/// jobs onto Lambda's elasticity. When nothing makes it the
/// earlier-finishing side wins (minimize tardiness). Deadline-less jobs
/// route by cost, with a `spot_fraction` share of the IaaS-bound ones
/// sent to the preemptible tier. Jobs with deadlines stay off the market
/// by default (a restart from zero can't afford it) — unless the fleet
/// runs checkpoint recovery ([`DeadlineAware::with_spot_recovery`]), in
/// which case a preemption only re-runs the epochs since the last durable
/// checkpoint, and deadline jobs whose laxity covers the *risk-adjusted*
/// spot ETA ride the market too.
///
/// Deadline tests price runtimes at a quantile, not the mean: every ETA
/// is the `ETA_QUANTILE` (P95) [`Estimate::eta_q`], so an estimator
/// that has learned its spread makes the laxity test honest about the
/// tail.
/// Spot admission is risk-aware: the expected
/// resume-and-rerun cycles come from the [`RiskModel`]'s learned
/// preemption-rate posterior (per tenant and class, fed by
/// [`Scheduler::observe_preemption`]), falling back to the configured
/// `mean_time_to_preempt` at zero observations. The pre-PR-5 static
/// behaviour is [`DeadlineAware::with_static_preemption`], which freezes
/// the posterior at the config — the baseline the learned variant is
/// measured against.
///
/// With a learning estimator plugged in, the startup cushion also adapts
/// upward: once the model's observed cold-start/dispatch draws for a
/// (tenant, class) exceed the static `STARTUP_MARGIN` (wide cold
/// fan-outs), the honest number is used instead. The cushion never
/// shrinks below the margin — its slack also absorbs queue-model error.
#[derive(Debug, Clone)]
pub struct DeadlineAware {
    est: Box<dyn Estimator>,
    /// Learned spot preemption-rate posterior behind the risk-aware spot
    /// admission (fed by the simulator's `observe_preemption` loop).
    risk: RiskModel,
    /// Share of jobs eligible for the spot market that actually ride it:
    /// deadline-less IaaS-bound jobs always, slack-rich deadline jobs too
    /// when `spot_recovery` is on. At 0.0 (the default) nothing routes to
    /// spot regardless of the recovery setting.
    spot_fraction: f64,
    /// The fleet resumes preempted jobs from durable checkpoints, so a
    /// deadline job with enough slack may ride the spot market.
    spot_recovery: bool,
}

/// Startup cushion [`DeadlineAware`] subtracts from the laxity before a
/// substrate is deemed to meet the deadline (covers cold starts /
/// dispatch). It is a floor: the estimator's learned cold-start draws grow
/// the cushion per (tenant, class) when they exceed it, never shrink it.
const STARTUP_MARGIN: SimTime = SimTime(30.0);

/// Safety multiple on the risk-adjusted spot ETA before a deadline job is
/// trusted to the market (absorbs queue-model and posterior error).
const RECOVERY_SLACK: f64 = 3.0;

/// Fraction of the quantile run redone per expected preemption, on top of
/// a re-boot — the per-cycle resume-and-rerun allowance (with
/// epoch-granular checkpoints the redo slice is bounded by the checkpoint
/// interval; half the run is deliberately conservative).
const RERUN_OVERHEAD: f64 = 0.5;

impl Default for DeadlineAware {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadlineAware {
    pub fn new() -> Self {
        DeadlineAware {
            est: Box::new(Analytic::new()),
            risk: RiskModel::for_config(&crate::platform::SpotConfig::default()),
            spot_fraction: 0.0,
            spot_recovery: false,
        }
    }

    /// Scheduler with the preemption-rate prior seeded from the fleet's
    /// spot configuration.
    pub fn for_config(cfg: &crate::sim::FleetConfig) -> Self {
        DeadlineAware {
            risk: RiskModel::for_config(&cfg.spot),
            ..Self::new()
        }
    }

    /// Swap in a different prediction model (online, hybrid, …).
    pub fn with_estimator(mut self, est: Box<dyn Estimator>) -> Self {
        self.est = est;
        self
    }

    /// Send this share of deadline-less IaaS-bound jobs to spot.
    pub fn with_spot_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.spot_fraction = f;
        self
    }

    /// Trust checkpoint-aware recovery: pass the fleet config's
    /// [`CheckpointPolicy`] and, if it actually checkpoints, deadline jobs
    /// whose laxity exceeds `RECOVERY_SLACK ×` the risk-adjusted spot ETA
    /// ride the spot market too. Passing [`CheckpointPolicy::Never`]
    /// keeps deadline jobs off the market — without durable checkpoints a
    /// preemption restarts from zero, which a deadline can't afford. Spot
    /// participation is still gated by
    /// [`DeadlineAware::with_spot_fraction`]: at the default 0.0 no job
    /// rides the market, recovery or not.
    pub fn with_spot_recovery(mut self, policy: CheckpointPolicy) -> Self {
        self.spot_recovery = policy != CheckpointPolicy::Never;
        self
    }

    /// Re-seed the preemption-rate prior (what the scheduler *believes*
    /// the per-instance mean time to preempt is — deliberately separate
    /// from the simulated market's true value, so miscalibrated-config
    /// studies can lie to the scheduler).
    pub fn with_preemption_prior(mut self, mttp: SimTime) -> Self {
        let frozen = self.risk.is_frozen();
        self.risk = RiskModel::new(mttp);
        if frozen {
            self.risk = self.risk.frozen();
        }
        self
    }

    /// Freeze the preemption posterior at the configured mean — the
    /// static-config baseline (pre-PR-5 behaviour) the learned admission
    /// is measured against.
    pub fn with_static_preemption(mut self) -> Self {
        self.risk = self.risk.frozen();
        self
    }

    /// The learned preemption-rate posterior, for reporting.
    pub fn risk(&self) -> &RiskModel {
        &self.risk
    }

    /// Startup cushion in seconds for `job` on `route`: never below the
    /// static margin (its slack also absorbs queue-model error), but
    /// learned cold-start draws can grow it — a class whose observed boots
    /// exceed the margin (wide cold fan-outs) gets the honest number.
    fn cushion(&self, job: &JobRequest, route: Route) -> f64 {
        self.est
            .startup_hint(job, route)
            .unwrap_or(SimTime::ZERO)
            .max(STARTUP_MARGIN)
            .as_secs()
    }

    /// The risk-adjusted spot ETA for a job: one clean attempt (startup
    /// cushion + quantile run) plus the expected resume-and-rerun cycles
    /// from the preemption posterior, each costing a re-boot and a redo
    /// slice. This is what the laxity must cover (times
    /// `RECOVERY_SLACK`) before a deadline job rides the market.
    fn spot_eta(&self, job: &JobRequest, e: &Estimate, cushion_secs: f64) -> f64 {
        let run_q = e.eta_q(Route::Spot);
        let attempt = cushion_secs + run_q;
        let cycles = self
            .risk
            .expected_preemptions(job.tenant, job.class, job.workers, attempt);
        attempt + cycles * (cushion_secs + RERUN_OVERHEAD * run_q)
    }
}

impl Scheduler for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }

    fn discipline(&self) -> QueueDiscipline {
        QueueDiscipline::Edf
    }

    fn route(&mut self, job: &JobRequest, view: &FleetView) -> Route {
        let e = self.est.predict(job);
        let Some(laxity) = job.laxity() else {
            // No deadline: pure cost routing, spot-eligible.
            return cost_route(&e, job, self.spot_fraction);
        };
        let margin_f = self.cushion(job, Route::Faas);
        let margin_i = self.cushion(job, Route::Iaas);
        // Every deadline test prices the run at the estimator's calibrated
        // quantile (P95): tails miss deadlines, means don't.
        let t_faas_q = e.eta_q(Route::Faas);
        let t_iaas_q = e.eta_q(Route::Iaas);
        // Predicted completion on FaaS: the run itself (Lambda is elastic)
        // unless the account concurrency limit is already saturated.
        let faas_saturated =
            view.faas_in_use + view.faas_queued_workers + job.workers > view.faas_limit;
        let faas_eta = if faas_saturated {
            f64::INFINITY
        } else {
            t_faas_q + margin_f
        };
        // Predicted completion on IaaS: the run plus a backlog estimate —
        // the queue drains roughly one capacity-wide wave per run.
        let backlog = (view.iaas_queued_workers + job.workers)
            .saturating_sub(view.iaas_free + view.iaas_provisioning);
        let iaas_wait = if backlog > 0 {
            backlog as f64 / view.iaas_capacity.max(1) as f64 * e.t_iaas
        } else {
            0.0
        };
        let iaas_eta = t_iaas_q + iaas_wait + margin_i;
        let budget = laxity.as_secs();
        // With checkpoint recovery on, a deadline job whose slack swallows
        // the *risk-adjusted* spot ETA takes the discount: one clean
        // attempt plus the expected resume-and-rerun cycles from the
        // learned preemption posterior (the configured mean at zero
        // observations). A market the posterior has seen eat clusters
        // alive prices itself out; a benign one prices itself in.
        if self.spot_recovery
            && spot_pick(job.id, self.spot_fraction)
            && budget >= RECOVERY_SLACK * self.spot_eta(job, &e, self.cushion(job, Route::Spot))
        {
            return Route::Spot;
        }
        match (faas_eta <= budget, iaas_eta <= budget) {
            // Both make it: take the cheaper option (ties go to FaaS — see
            // `cost_route`).
            (true, true) => {
                if e.c_faas <= e.c_iaas {
                    Route::Faas
                } else {
                    Route::Iaas
                }
            }
            // Only Lambda's elasticity beats the pool's backlog.
            (true, false) => Route::Faas,
            // FaaS can't make the deadline (too slow or saturated): spill
            // to the reserved pool.
            (false, true) => Route::Iaas,
            // Nothing makes it: minimize tardiness.
            (false, false) => {
                if faas_eta <= iaas_eta {
                    Route::Faas
                } else {
                    Route::Iaas
                }
            }
        }
    }

    fn estimate(&self, job: &JobRequest) -> Option<Estimate> {
        Some(self.est.predict(job))
    }

    fn observe(&mut self, done: &CompletedJob) {
        self.est.observe(done);
    }

    fn observe_preemption(&mut self, obs: &PreemptionObs) {
        self.risk.observe(obs);
    }

    fn spot_eta_hint(&self, job: &JobRequest, e: &Estimate) -> Option<f64> {
        Some(self.spot_eta(job, e, self.cushion(job, Route::Spot)))
    }
}

/// Fair-share scheduler: cost-based routing (like [`CostAware`] without
/// the escape hatch) plus deficit-round-robin admission across tenants
/// ([`QueueDiscipline::Drr`]) — the simulator starts the queued job of the
/// tenant with the least service first, so one tenant's burst cannot
/// starve the others. Every tenant weighs 1 (the
/// [`Scheduler::tenant_weight`] default).
#[derive(Debug, Clone)]
pub struct FairShare {
    est: Box<dyn Estimator>,
    /// Share of IaaS-bound jobs routed to spot.
    spot_fraction: f64,
}

impl Default for FairShare {
    fn default() -> Self {
        Self::new()
    }
}

impl FairShare {
    pub fn new() -> Self {
        FairShare {
            est: Box::new(Analytic::new()),
            spot_fraction: 0.0,
        }
    }

    /// Equals [`FairShare::new`]: no configuration moves the substrate
    /// its estimates price. Kept because the repo benchmark calls it.
    pub fn for_config(_cfg: &crate::sim::FleetConfig) -> Self {
        Self::new()
    }

    /// Swap in a different prediction model (online, hybrid, …).
    pub fn with_estimator(mut self, est: Box<dyn Estimator>) -> Self {
        self.est = est;
        self
    }

    /// Send this share of IaaS-bound jobs to spot.
    pub fn with_spot_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.spot_fraction = f;
        self
    }
}

impl Scheduler for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn discipline(&self) -> QueueDiscipline {
        QueueDiscipline::Drr
    }

    fn route(&mut self, job: &JobRequest, _view: &FleetView) -> Route {
        cost_route(&self.est.predict(job), job, self.spot_fraction)
    }

    fn estimate(&self, job: &JobRequest) -> Option<Estimate> {
        Some(self.est.predict(job))
    }

    fn observe(&mut self, done: &CompletedJob) {
        self.est.observe(done);
    }
}

/// Crude queue-delay proxy: one average job run per queued-worker batch of
/// the pool's capacity. Only used to compare against the other side's run
/// time, so a rough scale is enough.
fn queue_penalty(side: Route, view: &FleetView) -> f64 {
    let (queued, capacity) = match side {
        Route::Iaas => (view.iaas_queued_workers, view.iaas_capacity.max(1)),
        Route::Faas => (view.faas_queued_workers, view.faas_limit.max(1)),
        // Spot is market-deep and never queues.
        Route::Spot => (0, 1),
    };
    // Each "round" of the queue takes on the order of a minute of service.
    60.0 * (queued as f64 / capacity as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Hybrid, Online};
    use lml_sim::{Cost, SimTime};

    fn job(class: JobClass) -> JobRequest {
        JobRequest::new(0, class, SimTime::ZERO, class.default_workers())
    }

    /// The analytic prior's predicted run times (FaaS, IaaS) for a job.
    fn run_times(job: &JobRequest) -> (SimTime, SimTime) {
        let e = Analytic::new().predict(job);
        (SimTime::secs(e.t_faas), SimTime::secs(e.t_iaas))
    }

    #[test]
    fn pure_policies_are_constant() {
        let v = FleetView::default();
        assert_eq!(AllFaas.route(&job(JobClass::LrHiggs), &v), Route::Faas);
        assert_eq!(AllIaas.route(&job(JobClass::MnCifar), &v), Route::Iaas);
        assert!(AllFaas.estimate(&job(JobClass::LrHiggs)).is_none());
    }

    #[test]
    fn cost_aware_sends_deep_jobs_to_iaas() {
        // Communication-heavy deep jobs are both slower AND dearer on FaaS
        // (the paper's §5.2 headline) — the router must keep them serverful.
        let mut s = CostAware::new();
        let v = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            ..Default::default()
        };
        assert_eq!(s.route(&job(JobClass::MnCifar), &v), Route::Iaas);
        assert_eq!(s.route(&job(JobClass::RnCifar), &v), Route::Iaas);
    }

    #[test]
    fn cost_aware_escapes_a_saturated_pool() {
        let mut s = CostAware::new();
        // IaaS is cheaper for LR/Higgs but the pool is slammed: the FaaS
        // run (≈1 min) beats the queue, so the router pays the premium.
        let slammed = FleetView {
            iaas_free: 0,
            iaas_capacity: 20,
            iaas_provisioning: 0,
            iaas_queued_workers: 500,
            faas_limit: 1_000,
            ..Default::default()
        };
        assert_eq!(s.route(&job(JobClass::LrHiggs), &slammed), Route::Faas);
        // Same job, idle pool: stay on the cheap side.
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        assert_eq!(s.route(&job(JobClass::LrHiggs), &idle), Route::Iaas);
    }

    #[test]
    fn deadline_aware_spills_to_iaas_when_faas_cannot_make_it() {
        let mut s = DeadlineAware::new();
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        // Deep communication-bound jobs run ~5× slower on FaaS (§5.2): a
        // deadline between the two predicted runtimes is only meetable on
        // the reserved pool, however idle Lambda is.
        let mut deep = job(JobClass::MnCifar);
        let (t_f, t_i) = run_times(&deep);
        assert!(
            t_f > t_i * 3.0,
            "premise: FaaS is much slower for deep jobs"
        );
        deep.deadline = Some(deep.submit + (t_i + t_f) * 0.5);
        assert_eq!(s.route(&deep, &idle), Route::Iaas, "FaaS can't make it");
        // Ample deadline: the cheaper substrate wins (IaaS for every class
        // in the default pricing cases).
        deep.deadline = Some(deep.submit + t_f * 100.0);
        assert_eq!(s.route(&deep, &idle), Route::Iaas);
    }

    #[test]
    fn deadline_aware_escapes_a_backlogged_pool() {
        let mut s = DeadlineAware::new();
        let mut j = job(JobClass::LrHiggs);
        let (t_f, _) = run_times(&j);
        j.deadline = Some(j.submit + t_f * 2.0 + SimTime::secs(60.0));
        // Slammed reserved pool: the backlog estimate blows the deadline,
        // Lambda's elasticity saves it.
        let slammed = FleetView {
            iaas_free: 0,
            iaas_capacity: 20,
            iaas_queued_workers: 500,
            faas_limit: 1_000,
            ..Default::default()
        };
        assert_eq!(s.route(&j, &slammed), Route::Faas, "escape to Lambda");
        // Same job with FaaS saturated too: nothing meets the deadline;
        // minimize tardiness (the backlogged pool is still slower, so the
        // job stays on Lambda's queue only if it finishes sooner).
        let both_full = FleetView {
            faas_in_use: 1_000,
            ..slammed
        };
        assert_eq!(
            s.route(&j, &both_full),
            Route::Iaas,
            "saturated FaaS has infinite ETA: spill"
        );
        // Idle pool, same deadline: cheapest side (IaaS) meets it.
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        assert_eq!(s.route(&j, &idle), Route::Iaas);
    }

    #[test]
    fn deadline_aware_keeps_deadline_jobs_off_spot() {
        let mut s = DeadlineAware::new().with_spot_fraction(1.0);
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        let mut j = job(JobClass::LrHiggs);
        assert_eq!(
            s.route(&j, &idle),
            Route::Spot,
            "deadline-less job rides spot"
        );
        j.deadline = Some(SimTime::hours(1_000.0));
        assert_ne!(
            s.route(&j, &idle),
            Route::Spot,
            "deadline jobs never risk it"
        );
    }

    #[test]
    fn spot_recovery_lets_slack_deadline_jobs_ride_the_market() {
        let mut s = DeadlineAware::new()
            .with_spot_fraction(1.0)
            .with_spot_recovery(CheckpointPolicy::every(1));
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        let mut j = job(JobClass::LrHiggs);
        let (_, t_i) = run_times(&j);
        // Huge slack: recovery makes the discount safe.
        j.deadline = Some(j.submit + t_i * 100.0);
        assert_eq!(s.route(&j, &idle), Route::Spot, "slack deadline rides spot");
        // Tight slack: even with recovery the job stays on firm capacity.
        j.deadline = Some(j.submit + t_i * 1.5 + SimTime::secs(60.0));
        assert_ne!(s.route(&j, &idle), Route::Spot, "tight deadline stays firm");
        // A Never policy can't back recovery: the original never-on-spot
        // rule holds even when the knob is used.
        let mut off = DeadlineAware::new()
            .with_spot_fraction(1.0)
            .with_spot_recovery(CheckpointPolicy::Never);
        j.deadline = Some(j.submit + t_i * 100.0);
        assert_ne!(off.route(&j, &idle), Route::Spot);
    }

    #[test]
    fn learned_hostile_market_prices_deadline_jobs_off_spot() {
        use crate::estimate::PreemptionObs;
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        let mut j = job(JobClass::LrHiggs);
        let build = || {
            DeadlineAware::new()
                .with_spot_fraction(1.0)
                .with_spot_recovery(CheckpointPolicy::every(1))
        };
        let mut learned = build();
        let mut frozen = build().with_static_preemption();
        // The market eats 10-wide clusters every ~20 s — both schedulers
        // watch the same carnage, only one is allowed to believe it.
        for _ in 0..200 {
            let obs = PreemptionObs {
                class: JobClass::LrHiggs,
                tenant: 0,
                workers: 10,
                held: SimTime::secs(20.0),
                preempted: true,
            };
            learned.observe_preemption(&obs);
            frozen.observe_preemption(&obs);
        }
        // The evidence must widen the risk-adjusted ETA…
        let e = Analytic::new().predict(&j);
        let eta_learned = learned.spot_eta(&j, &e, 30.0);
        let eta_frozen = frozen.spot_eta(&j, &e, 30.0);
        assert!(
            eta_learned > eta_frozen * 1.5,
            "posterior must widen the spot ETA: {eta_learned} vs {eta_frozen}"
        );
        // …and flip the admission for a deadline sitting between the two
        // risk-adjusted requirements.
        let budget = 3.0 * (eta_frozen + eta_learned) / 2.0;
        j.deadline = Some(j.submit + SimTime::secs(budget));
        assert_eq!(
            frozen.route(&j, &idle),
            Route::Spot,
            "the static-mean baseline keeps trusting the config"
        );
        assert_ne!(
            learned.route(&j, &idle),
            Route::Spot,
            "the learned posterior must price the job off the market"
        );
        // Deadline-less jobs still ride spot — risk only gates deadlines.
        let free = job(JobClass::LrHiggs);
        assert_eq!(learned.route(&free, &idle), Route::Spot);
    }

    #[test]
    fn preemption_prior_seeds_the_admission_test() {
        // Same job, same market knowledge (none) — only the configured
        // prior differs. An alarmist prior declines what a benign one
        // admits, exactly the static-config sensitivity the learned
        // posterior exists to fix.
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        let mut j = job(JobClass::LrHiggs);
        let build = |mttp: f64| {
            DeadlineAware::new()
                .with_spot_fraction(1.0)
                .with_spot_recovery(CheckpointPolicy::every(1))
                .with_preemption_prior(SimTime::secs(mttp))
        };
        let e = Analytic::new().predict(&j);
        let req_benign = 3.0 * build(14_400.0).spot_eta(&j, &e, 30.0);
        let req_alarmist = 3.0 * build(50.0).spot_eta(&j, &e, 30.0);
        assert!(
            req_alarmist > req_benign,
            "premise: the prior moves the bar"
        );
        j.deadline = Some(j.submit + SimTime::secs((req_benign + req_alarmist) / 2.0));
        assert_eq!(build(14_400.0).route(&j, &idle), Route::Spot);
        assert_ne!(build(50.0).route(&j, &idle), Route::Spot);
        // The prior survives freezing order in the builder chain.
        let frozen = build(50.0).with_static_preemption();
        assert!(frozen.risk().is_frozen());
        assert_eq!(
            frozen.risk().mean_time_to_preempt(0, JobClass::LrHiggs),
            SimTime::secs(50.0)
        );
    }

    #[test]
    fn fair_share_weights_default_to_one_for_unknown_tenants() {
        let s = FairShare::new();
        assert_eq!(s.tenant_weight(999), 1.0, "unknown tenant id → weight 1");
        assert_eq!(s.discipline(), QueueDiscipline::Drr);
        assert_eq!(DeadlineAware::new().discipline(), QueueDiscipline::Edf);
        assert_eq!(AllFaas.discipline(), QueueDiscipline::Fifo);
    }

    #[test]
    fn spot_pick_matches_fraction() {
        assert!(!spot_pick(5, 0.0));
        assert!(spot_pick(5, 1.0));
        let n = (0..10_000).filter(|&i| spot_pick(i, 0.3)).count();
        assert!(
            (2_700..3_300).contains(&n),
            "~30% of ids picked, got {n} of 10000"
        );
    }

    #[test]
    fn epoch_override_changes_the_estimate() {
        let mut pinned = Analytic::new();
        pinned.pin_epochs(JobClass::LrHiggs, 600.0);
        let j = job(JobClass::LrHiggs);
        let (t_base, _) = run_times(&j);
        let t_long = SimTime::secs(pinned.predict(&j).t_faas);
        assert!(t_long > t_base * 10.0, "{t_long} vs {t_base}");
        let long = CostAware::new().with_estimator(Box::new(pinned.clone()));
        assert_eq!(
            long.estimate(&j),
            Some(pinned.predict(&j)),
            "the router prices with the pinned prior"
        );
    }

    #[test]
    fn schedulers_with_fresh_learning_estimators_route_like_analytic() {
        // Cold-start parity: with zero observations the online and hybrid
        // estimators ARE the analytic prior, so routing is identical.
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        for class in JobClass::ALL {
            let j = job(class);
            let mut analytic = CostAware::new();
            let mut online =
                CostAware::new().with_estimator(Box::new(Online::new(Analytic::new())));
            let mut hybrid = CostAware::new().with_estimator(Box::new(Hybrid::default()));
            let want = analytic.route(&j, &idle);
            assert_eq!(online.route(&j, &idle), want, "{class:?}");
            assert_eq!(hybrid.route(&j, &idle), want, "{class:?}");
        }
    }

    #[test]
    fn observed_slowdowns_reroute_deadline_jobs() {
        // Teach the online model that IaaS runs of LR/Higgs take 40× the
        // analytic prior; a deadline that the prior thinks IaaS can meet
        // must now spill to Lambda.
        let idle = FleetView {
            iaas_free: 100,
            iaas_capacity: 100,
            faas_limit: 1_000,
            ..Default::default()
        };
        let mut j = job(JobClass::LrHiggs);
        let (t_f, t_i) = run_times(&j);
        j.deadline = Some(j.submit + t_f * 2.0 + SimTime::secs(120.0));
        let mut online = Online::new(Analytic::new());
        for _ in 0..8 {
            online.observe(&CompletedJob {
                id: 7,
                class: JobClass::LrHiggs,
                tenant: 0,
                route: Route::Iaas,
                workers: j.workers,
                run: t_i * 40.0,
                startup: SimTime::secs(2.0),
                cost: Cost::usd(0.5),
                epochs_total: 6,
                preemptions: 0,
            });
        }
        let mut learned = DeadlineAware::new().with_estimator(Box::new(online));
        assert_eq!(
            learned.route(&j, &idle),
            Route::Faas,
            "learned slowdown must push the job off the slow pool"
        );
        let mut blind = DeadlineAware::new();
        assert_eq!(
            blind.route(&j, &idle),
            Route::Iaas,
            "the blind prior keeps trusting the pool"
        );
    }
}
