//! The prediction layer: a pluggable [`Estimator`] behind every
//! model-driven scheduling policy.
//!
//! Until PR 4 each scheduler trusted the paper's §5.3 analytical model
//! blindly, through a private `(f64, f64, f64, f64)` tuple helper. This
//! module makes prediction a first-class subsystem with a feedback loop:
//!
//! * [`Estimate`] — the named (runtime, cost) × (FaaS, IaaS) quadruple the
//!   tuple used to smuggle around;
//! * [`Estimator`] — `predict(&JobRequest) -> Estimate` consumed by the
//!   routers, plus `observe(&CompletedJob)` fed by the simulator on every
//!   `Done` lifecycle transition (preempted/resumed attempts included, so
//!   an online model learns spot-inflated runtimes);
//! * [`Analytic`] — the §5.3 model verbatim (extracted from
//!   `scheduler.rs`), observation-blind;
//! * [`Online`] — a per-(tenant, job-class) EWMA/deviation blend over
//!   actual epoch times, dollars, and cold-start draws, seeded from the
//!   analytic prior so cold-start behaviour is unchanged;
//! * [`Hybrid`] — analytic prior morphing into the online posterior as
//!   observations accumulate (`n / (n + PRIOR_WEIGHT)` weighting).
//!
//! The point: the fleet simulator can now study what happens when the
//! model is *wrong* (set [`crate::sim::FleetConfig::epoch_scale`] to
//! perturb the actual epoch counts away from the prior) — the scenario
//! real fleets live in.
//!
//! Since PR 5 the layer also carries the fleet's *risk* state, because the
//! interesting scheduling decisions (trust a deadline job to spot, defer
//! vs reject an over-budget tenant) are tail decisions, not mean
//! decisions:
//!
//! * [`Estimate::eta_q`] — the calibrated P95 ETA, mean plus margin. The
//!   fleet prices every runtime tail at this one quantile,
//!   [`ETA_QUANTILE`]. [`Online`] turns its deviation EWMA into a margin
//!   whose multiplier is calibrated online (adaptive-conformal style: the
//!   multiplier steps up on every miss and down on every cover until
//!   empirical coverage matches [`ETA_QUANTILE`]).
//! * [`RiskModel`] — learned per-(tenant, class) spot preemption rates: a
//!   Gamma posterior over (preemption events / held instance-seconds),
//!   seeded from the configured mean so zero observations reproduce the
//!   static-config behaviour exactly. The simulator feeds every spot
//!   attempt outcome back as a [`PreemptionObs`] through
//!   [`crate::scheduler::Scheduler::observe_preemption`] — preemptions
//!   *and* clean completions, so the rate estimate is exposure-weighted
//!   and unbiased, not a count of disasters.

use crate::intern::TenantClassMap;
use crate::job::{JobClass, JobRequest, TenantId};
use crate::platform::{SpotConfig, FAAS_CASE, IAAS_CASE};
use crate::scheduler::Route;
use lml_analytic::estimator::estimate_epochs;
use lml_analytic::model::{price, Substrate};
use lml_sim::{Cost, SimTime};

/// The one quantile the fleet prices runtime tails at: P95.
pub const ETA_QUANTILE: f64 = 0.95;

/// Runtime/cost estimates for one job on both firm substrates, startup
/// excluded (the fleet charges the actual simulated startup). Replaces the
/// anonymous `(t_faas, c_faas, t_iaas, c_iaas)` tuple every policy used to
/// carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Predicted run seconds on FaaS (data loading + training).
    pub t_faas: f64,
    /// Predicted FaaS dollars (GB-second billing of the execution).
    pub c_faas: f64,
    /// Predicted run seconds on booted IaaS instances.
    pub t_iaas: f64,
    /// Predicted IaaS dollars (instance-seconds for the run).
    pub c_iaas: f64,
    /// Calibrated [`ETA_QUANTILE`] (P95) runtime margin *above the mean*
    /// on FaaS, in seconds. 0 for estimators that carry no spread state
    /// (the analytic prior, cold-start learners) — their quantile ETA is
    /// the mean. [`Hybrid`]'s margin also spans the gap from its blended
    /// mean up to the calibrated posterior's.
    pub m_faas: f64,
    /// Calibrated P95 runtime margin above the mean on IaaS/spot, seconds.
    pub m_iaas: f64,
}

impl Estimate {
    /// A spread-free estimate (the quantile ETA collapses to the mean) —
    /// what every observation-blind model produces.
    pub fn point(t_faas: f64, c_faas: f64, t_iaas: f64, c_iaas: f64) -> Estimate {
        Estimate {
            t_faas,
            c_faas,
            t_iaas,
            c_iaas,
            m_faas: 0.0,
            m_iaas: 0.0,
        }
    }

    /// Predicted run seconds on the given route (spot runs on IaaS-class
    /// instances, so it shares the IaaS prediction).
    pub fn time(&self, route: Route) -> f64 {
        match route {
            Route::Faas => self.t_faas,
            Route::Iaas | Route::Spot => self.t_iaas,
        }
    }

    /// Predicted dollars on the given route.
    pub fn cost(&self, route: Route) -> f64 {
        match route {
            Route::Faas => self.c_faas,
            Route::Iaas | Route::Spot => self.c_iaas,
        }
    }

    /// Calibrated P95 runtime margin on the given route, seconds.
    pub fn margin(&self, route: Route) -> f64 {
        match route {
            Route::Faas => self.m_faas,
            Route::Iaas | Route::Spot => self.m_iaas,
        }
    }

    /// The calibrated [`ETA_QUANTILE`] (P95) runtime ETA on the given
    /// route: the mean plus the margin.
    pub fn eta_q(&self, route: Route) -> f64 {
        self.time(route) + self.margin(route)
    }
}

/// Actuals of one finished job, fed back to the estimator by the simulator
/// the moment the job's lifecycle reaches `Done`.
#[derive(Debug, Clone, Copy)]
pub struct CompletedJob {
    pub id: u64,
    pub class: JobClass,
    pub tenant: TenantId,
    /// Route the scheduler chose (spot jobs keep `Spot` even after a pool
    /// fallback).
    pub route: Route,
    pub workers: usize,
    /// Actual training seconds — including epochs redone after spot
    /// preemptions, so online models learn spot-inflated runtimes.
    pub run: SimTime,
    /// Actual fleet startup: cold/warm starts, dispatch, boots and
    /// restores (including boots lost to preemption).
    pub startup: SimTime,
    /// Dollars attributed to the job.
    pub cost: Cost,
    /// Whole epochs the job needed (actual, i.e. after any zoo
    /// miscalibration).
    pub epochs_total: u32,
    pub preemptions: u32,
}

/// A runtime/cost prediction model with a closed observation loop.
///
/// `Send` is a supertrait (estimators live inside
/// [`Scheduler`](crate::scheduler::Scheduler)s, which cross thread
/// boundaries in the parallel bench sweep engine).
pub trait Estimator: std::fmt::Debug + Send {
    fn name(&self) -> &'static str;
    /// Predict run seconds and dollars on both substrates for this job.
    fn predict(&self, job: &JobRequest) -> Estimate;
    /// Feed back the actuals of a finished job.
    fn observe(&mut self, done: &CompletedJob);
    /// Learned startup seconds for (job, route), when the estimator has
    /// observed any — schedulers may use it in place of a static margin.
    fn startup_hint(&self, _job: &JobRequest, _route: Route) -> Option<SimTime> {
        None
    }
    /// Pin the analytic prior's epochs-to-threshold for a class (e.g. from
    /// a §5.3 sampling-estimator run).
    fn pin_epochs(&mut self, class: JobClass, epochs: f64);
    /// Clone into a box (lets schedulers holding `Box<dyn Estimator>`
    /// stay `Clone`).
    fn clone_box(&self) -> Box<dyn Estimator>;
}

impl Clone for Box<dyn Estimator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Re-estimate `R` (epochs to threshold) for `class` by training on a
/// `sample_frac` subsample — the paper's §5.3 estimator. The result can be
/// pinned into any estimator's analytic prior via
/// [`Estimator::pin_epochs`].
pub fn calibrate_epochs(class: JobClass, sample_frac: f64, max_epochs: usize, seed: u64) -> f64 {
    let row = class.workload();
    estimate_epochs(
        row.dataset(),
        row.model(),
        class.algorithm(),
        row.lr(),
        row.threshold(),
        sample_frac,
        max_epochs,
        seed,
    )
    .epochs
}

/// The paper's §5.3 analytical model, observation-blind: `observe` is a
/// no-op, so this reproduces the pre-PR-4 behaviour of every scheduler
/// exactly.
#[derive(Debug, Clone)]
pub struct Analytic {
    /// Per-class epoch overrides (sampling-estimator calibration).
    epochs: [Option<f64>; JobClass::ALL.len()],
    /// Memoized `(workers, estimate)` per class: the prediction is a pure
    /// function of (class, workers), and `predict` sits on the simulator's
    /// per-admission hot path, so one slot per class covers the common
    /// single-width trace without re-running the piecewise model. Interior
    /// mutability keeps the `&self` trait signature.
    memo: std::cell::RefCell<[Option<(usize, Estimate)>; JobClass::ALL.len()]>,
}

impl Default for Analytic {
    fn default() -> Self {
        Self::new()
    }
}

impl Analytic {
    /// Priced on the fleet's own substrate (S3-channel FaaS, t2.medium
    /// IaaS), so predictions price what the simulator charges.
    pub fn new() -> Self {
        Analytic {
            epochs: [None; JobClass::ALL.len()],
            memo: Default::default(),
        }
    }

    /// Equals [`Analytic::new`]: no configuration moves the substrate.
    /// Kept because the repo benchmark calls it.
    pub fn for_config(_cfg: &crate::sim::FleetConfig) -> Self {
        Self::new()
    }

    /// Epochs-to-threshold the prior assumes for `class`.
    pub fn epochs_for(&self, class: JobClass) -> f64 {
        self.epochs[class as usize].unwrap_or_else(|| class.default_epochs())
    }
}

impl Estimator for Analytic {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn predict(&self, job: &JobRequest) -> Estimate {
        let idx = job.class as usize;
        if let Some((w, e)) = self.memo.borrow()[idx] {
            if w == job.workers {
                return e;
            }
        }
        let mut p = job.class.profile();
        p.epochs = self.epochs_for(job.class);
        let faas = price(&p, &FAAS_CASE, Substrate::Faas, job.workers);
        let iaas = price(&p, &IAAS_CASE, Substrate::Iaas, job.workers);
        let e = Estimate::point(
            faas.run.as_secs(),
            faas.dollars.as_usd(),
            iaas.run.as_secs(),
            iaas.dollars.as_usd(),
        );
        self.memo.borrow_mut()[idx] = Some((job.workers, e));
        e
    }

    fn observe(&mut self, _done: &CompletedJob) {}

    fn pin_epochs(&mut self, class: JobClass, epochs: f64) {
        self.epochs[class as usize] = Some(epochs);
        self.memo.get_mut()[class as usize] = None;
    }

    fn clone_box(&self) -> Box<dyn Estimator> {
        Box::new(self.clone())
    }
}

/// Learned per-(tenant, class, substrate) state.
#[derive(Debug, Clone, Copy)]
struct SubstrateStats {
    /// Observations folded in so far.
    n: u64,
    /// EWMA of observed whole epochs per job (learns zoo miscalibration).
    epochs: f64,
    /// EWMA of the per-epoch slowdown vs the prior *at the observed
    /// width* (learns spot inflation and channel error). Ratios — not
    /// absolute seconds — so a learned correction transfers across
    /// worker counts through the prior's own width scaling.
    epoch_ratio: f64,
    /// EWMA of |observed/prior − predicted/prior| runtime ratios — the
    /// relative spread behind the quantile-style margin.
    dev: f64,
    /// Calibrated multiplier on `dev` whose product is the
    /// [`ETA_QUANTILE`] margin. Adapted online (adaptive-conformal step:
    /// up by `lr·q` on every miss, down by `lr·(1−q)` on every cover), so
    /// empirical coverage converges to [`ETA_QUANTILE`] regardless of the
    /// error distribution's shape.
    q_mult: f64,
    /// EWMA of the attributed-dollars ratio vs the prior (firm routes
    /// only).
    cost_ratio: f64,
    /// Firm-route observations behind `cost_ratio`. Spot completions
    /// deliberately never teach dollars, so blend weights for the *cost*
    /// posterior must count these, not `n` — a spot-heavy tenant's cost
    /// posterior is really still the seed.
    n_cost: u64,
    /// EWMA of observed startup seconds (cold-start draws, boots,
    /// restores).
    startup: f64,
}

/// Per-(tenant, class) stats, one slot per substrate. Spot observations
/// fold into the IaaS slot — spot runs on IaaS-class instances and its
/// preemption-inflated actuals are exactly what the model should learn.
#[derive(Debug, Clone, Copy, Default)]
struct ClassStats {
    faas: Option<SubstrateStats>,
    iaas: Option<SubstrateStats>,
}

impl ClassStats {
    fn slot(&self, route: Route) -> Option<SubstrateStats> {
        match route {
            Route::Faas => self.faas,
            Route::Iaas | Route::Spot => self.iaas,
        }
    }
}

/// Online estimator: per-(tenant, job-class) EWMAs over actual epoch
/// counts, per-epoch slowdown ratios, dollar ratios, and cold-start
/// draws, seeded from the analytic prior — with zero observations it
/// predicts exactly what [`Analytic`] would, so cold-start behaviour is
/// unchanged. Corrections are learned as *ratios against the prior*, so
/// they transfer across worker counts (a mixed-width trace doesn't see a
/// 10-wide job's absolute seconds quoted for a 100-wide one). Runtimes
/// learn from every route (spot's preemption-inflated actuals included);
/// dollars learn from firm routes only, since spot attributions carry the
/// market discount and would deflate the quoted reserved-pool price.
/// The cost posterior deliberately learns *attributed* dollars (startup
/// and checkpoint charges included) — what a tenant actually pays — so
/// even on a calibrated zoo it drifts a few percent above the prior's
/// run-only idealization; that gap is honest model error, and it shows
/// up as the analytic estimator's residual cost MAPE.
#[derive(Debug, Clone)]
pub struct Online {
    prior: Analytic,
    state: TenantClassMap<ClassStats>,
}

/// Weight each new observation gets in [`Online`]'s EWMAs.
const ALPHA: f64 = 0.3;

/// Step size of [`Online`]'s coverage calibration.
const CALIB_LR: f64 = 0.25;

/// Where the calibrated margin multiplier starts: ≈ the normal-theory
/// z₉₅/MAD ratio, so the very first margins are plausible before the
/// coverage feedback has anything to say.
const Q_MULT_SEED: f64 = 2.0;

impl Default for Online {
    fn default() -> Self {
        Self::new(Analytic::new())
    }
}

impl Online {
    pub fn new(prior: Analytic) -> Self {
        Online {
            prior,
            state: TenantClassMap::new(),
        }
    }

    pub fn prior(&self) -> &Analytic {
        &self.prior
    }

    /// Observations folded in for (tenant, class) on the route's substrate.
    pub fn observations(&self, tenant: TenantId, class: JobClass, route: Route) -> u64 {
        self.state
            .get(tenant, class)
            .and_then(|cs| cs.slot(route))
            .map_or(0, |s| s.n)
    }

    /// Firm-route *cost* observations for (tenant, class) on the route's
    /// substrate — the honest sample size behind the cost posterior (spot
    /// completions never teach dollars).
    pub fn cost_observations(&self, tenant: TenantId, class: JobClass, route: Route) -> u64 {
        self.state
            .get(tenant, class)
            .and_then(|cs| cs.slot(route))
            .map_or(0, |s| s.n_cost)
    }
}

impl Estimator for Online {
    fn name(&self) -> &'static str {
        "online"
    }

    fn predict(&self, job: &JobRequest) -> Estimate {
        let mut e = self.prior.predict(job);
        if let Some(cs) = self.state.get(job.tenant, job.class) {
            let prior_epochs = self.prior.epochs_for(job.class).max(1.0);
            // Learned corrections apply multiplicatively to the prior at
            // *this* job's width: epoch-count ratio × per-epoch slowdown.
            // The quantile margin is the calibrated multiple of the
            // relative spread, scaled back into seconds through the prior
            // at this width.
            let correct = |t: &mut f64, c: &mut f64, m: &mut f64, s: &SubstrateStats| {
                let t_prior = *t;
                *t = t_prior * (s.epochs / prior_epochs * s.epoch_ratio);
                *c *= s.cost_ratio;
                *m = (t_prior * s.dev * s.q_mult).max(0.0);
            };
            if let Some(s) = cs.faas {
                correct(&mut e.t_faas, &mut e.c_faas, &mut e.m_faas, &s);
            }
            if let Some(s) = cs.iaas {
                correct(&mut e.t_iaas, &mut e.c_iaas, &mut e.m_iaas, &s);
            }
        }
        e
    }

    fn observe(&mut self, done: &CompletedJob) {
        // The prior's view at the observed width normalizes every
        // observation into ratios (tenant and submit time don't enter the
        // analytic model).
        let probe = JobRequest::new(done.id, done.class, SimTime::ZERO, done.workers);
        let p = self.prior.predict(&probe);
        let prior_epochs = self.prior.epochs_for(done.class).max(1.0);
        let t_prior = p.time(done.route).max(f64::MIN_POSITIVE);
        let c_prior = p.cost(done.route).max(f64::MIN_POSITIVE);
        let entry = self
            .state
            .get_or_insert_with(done.tenant, done.class, ClassStats::default);
        let slot = match done.route {
            Route::Faas => &mut entry.faas,
            Route::Iaas | Route::Spot => &mut entry.iaas,
        };
        let s = slot.get_or_insert(SubstrateStats {
            n: 0,
            epochs: prior_epochs,
            epoch_ratio: 1.0,
            dev: 0.0,
            q_mult: Q_MULT_SEED,
            cost_ratio: 1.0,
            n_cost: 0,
            // There is no analytic prior for startup: the first cold-start
            // draw seeds the EWMA directly.
            startup: done.startup.as_secs(),
        });
        let a = ALPHA;
        let epochs_obs = done.epochs_total.max(1) as f64;
        let rel_obs = done.run.as_secs() / t_prior;
        let rel_prev = s.epochs / prior_epochs * s.epoch_ratio;
        // Coverage feedback first, against the quantile this state was
        // predicting *before* the observation teaches it — the mean
        // correction plus the calibrated margin, i.e. exactly the `eta_q`
        // this state was publishing. Step the multiplier up on a miss,
        // down on a cover, so the long-run cover rate converges to
        // [`ETA_QUANTILE`] (adaptive conformal — distribution-free).
        let covered = rel_obs <= rel_prev + s.q_mult * s.dev;
        let step = if covered {
            ETA_QUANTILE - 1.0
        } else {
            ETA_QUANTILE
        };
        s.q_mult = (s.q_mult + CALIB_LR * step).max(0.0);
        s.dev = (1.0 - a) * s.dev + a * (rel_obs - rel_prev).abs();
        s.epochs = (1.0 - a) * s.epochs + a * epochs_obs;
        // Per-epoch slowdown: how much longer one epoch really took than
        // the prior said it would (at this width).
        let ratio_obs = rel_obs * prior_epochs / epochs_obs;
        s.epoch_ratio = (1.0 - a) * s.epoch_ratio + a * ratio_obs;
        // Spot attributions carry the market discount (and restart
        // settlements): folding them into the cost EWMA would deflate the
        // price quoted for the full-price reserved pool, so only firm
        // routes teach dollars. Runtimes learn from every route — spot's
        // preemption-inflated actuals are exactly the signal wanted.
        if done.route != Route::Spot {
            s.cost_ratio = (1.0 - a) * s.cost_ratio + a * done.cost.as_usd() / c_prior;
            s.n_cost += 1;
        }
        if s.n > 0 {
            s.startup = (1.0 - a) * s.startup + a * done.startup.as_secs();
        }
        s.n += 1;
    }

    fn startup_hint(&self, job: &JobRequest, route: Route) -> Option<SimTime> {
        self.state
            .get(job.tenant, job.class)
            .and_then(|cs| cs.slot(route))
            .map(|s| SimTime::secs(s.startup))
    }

    fn pin_epochs(&mut self, class: JobClass, epochs: f64) {
        self.prior.pin_epochs(class, epochs);
    }

    fn clone_box(&self) -> Box<dyn Estimator> {
        Box::new(self.clone())
    }
}

/// Hybrid estimator: analytic prior morphing into the online posterior as
/// observations accumulate. Each substrate's prediction is the linear
/// blend `(1 − w) × prior + w × online` with `w = n / (n + PRIOR_WEIGHT)`,
/// so a handful of noisy completions can't yank routing around, but a
/// sustained miscalibration is eventually fully corrected.
#[derive(Debug, Clone)]
pub struct Hybrid {
    online: Online,
}

/// Observation count at which [`Hybrid`]'s online posterior carries half
/// the weight.
const PRIOR_WEIGHT: f64 = 4.0;

impl Default for Hybrid {
    fn default() -> Self {
        Self::new(Analytic::new())
    }
}

impl Hybrid {
    pub fn new(prior: Analytic) -> Self {
        Hybrid {
            online: Online::new(prior),
        }
    }

    fn weight(&self, tenant: TenantId, class: JobClass, route: Route) -> f64 {
        let n = self.online.observations(tenant, class, route) as f64;
        n / (n + PRIOR_WEIGHT)
    }

    /// Blend weight for the *cost* posterior: counts firm-route cost
    /// observations only. `Online::observe` deliberately never teaches
    /// `cost_ratio` from spot completions, so counting those toward the
    /// cost lerp would present the stale seed with full posterior
    /// confidence for spot-heavy tenants.
    fn cost_weight(&self, tenant: TenantId, class: JobClass, route: Route) -> f64 {
        let n = self.online.cost_observations(tenant, class, route) as f64;
        n / (n + PRIOR_WEIGHT)
    }
}

fn lerp(a: f64, b: f64, w: f64) -> f64 {
    a + (b - a) * w
}

impl Estimator for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn predict(&self, job: &JobRequest) -> Estimate {
        let prior = self.online.prior().predict(job);
        let post = self.online.predict(job);
        let wf = self.weight(job.tenant, job.class, Route::Faas);
        let wi = self.weight(job.tenant, job.class, Route::Iaas);
        let wcf = self.cost_weight(job.tenant, job.class, Route::Faas);
        let wci = self.cost_weight(job.tenant, job.class, Route::Iaas);
        let t_faas = lerp(prior.t_faas, post.t_faas, wf);
        let t_iaas = lerp(prior.t_iaas, post.t_iaas, wi);
        Estimate {
            t_faas,
            c_faas: lerp(prior.c_faas, post.c_faas, wcf),
            t_iaas,
            c_iaas: lerp(prior.c_iaas, post.c_iaas, wci),
            // The calibration loop lives in the posterior: its coverage
            // feedback tracks `post.t + post.m`. The blend's P95 ETA must
            // reach that same calibrated point however far the prior drags
            // the blended mean, so the margin carries the mean gap too.
            // The gap is clamped at zero: a pessimistic prior already
            // over-covers. Cold start: post == prior, margin 0.
            m_faas: post.m_faas + (post.t_faas - t_faas).max(0.0),
            m_iaas: post.m_iaas + (post.t_iaas - t_iaas).max(0.0),
        }
    }

    fn observe(&mut self, done: &CompletedJob) {
        self.online.observe(done);
    }

    fn startup_hint(&self, job: &JobRequest, route: Route) -> Option<SimTime> {
        self.online.startup_hint(job, route)
    }

    fn pin_epochs(&mut self, class: JobClass, epochs: f64) {
        self.online.pin_epochs(class, epochs);
    }

    fn clone_box(&self) -> Box<dyn Estimator> {
        Box::new(self.clone())
    }
}

/// One spot attempt's outcome, fed back to the scheduler by the simulator
/// the moment the market settles it — on `SpotPreempted` *and* on
/// `SpotDone`, so the learned preemption rate is exposure-weighted rather
/// than a count of disasters.
#[derive(Debug, Clone, Copy)]
pub struct PreemptionObs {
    pub class: JobClass,
    pub tenant: TenantId,
    pub workers: usize,
    /// Wall-seconds the spot cluster was held this attempt (boot, restore
    /// and run — instances are reclaimable in every phase).
    pub held: SimTime,
    /// `true` if the market reclaimed the cluster, `false` if the attempt
    /// ran to completion.
    pub preempted: bool,
}

/// Learned per-(tenant, class) spot preemption rates.
///
/// The market preempts each instance independently at some rate λ
/// (exponential lifetimes — see [`crate::platform::SpotTier`]), so the
/// sufficient statistics per key are (preemption events, held
/// instance-seconds of exposure). The posterior is Gamma–Poisson: the
/// configured mean time to preempt enters as `PREEMPT_PRIOR_WEIGHT`
/// pseudo-events spread over `PREEMPT_PRIOR_WEIGHT × mttp` pseudo-exposure
/// — how much evidence it takes for the posterior to carry half the
/// weight — so **zero
/// observations reproduce the static config exactly** and sustained
/// evidence overturns it. [`RiskModel::frozen`] pins the posterior at the
/// prior — the static-mean baseline the risk-aware admission is measured
/// against.
#[derive(Debug, Clone)]
pub struct RiskModel {
    /// Configured per-instance mean time to preempt — the zero-observation
    /// prior.
    prior_mttp: SimTime,
    /// Learning disabled: the posterior never moves off the prior.
    frozen: bool,
    state: TenantClassMap<RateStats>,
}

/// Pseudo-events [`RiskModel`]'s configured prior is worth.
const PREEMPT_PRIOR_WEIGHT: f64 = 4.0;

#[derive(Debug, Clone, Copy, Default)]
struct RateStats {
    /// Spot attempts observed (preempted or clean).
    attempts: u64,
    /// Preemption events.
    events: f64,
    /// Held instance-seconds across all observed attempts.
    exposure: f64,
}

impl RiskModel {
    /// Posterior seeded from a per-instance mean time to preempt.
    pub fn new(prior_mttp: SimTime) -> Self {
        assert!(
            prior_mttp.as_secs() > 0.0,
            "prior mean time to preempt must be positive"
        );
        RiskModel {
            prior_mttp,
            frozen: false,
            state: TenantClassMap::new(),
        }
    }

    /// Seeded from the fleet's spot configuration — the prior is exactly
    /// the tier's advertised exponential-clock parameter
    /// ([`SpotConfig::preemption_rate_per_instance_s`]), so an unobserved
    /// posterior and the simulated market speak the same λ. A rate of 0
    /// (`mean_time_to_preempt = +∞`, a market that never reclaims) gives
    /// an infinite prior and a posterior rate of 0.
    pub fn for_config(cfg: &SpotConfig) -> Self {
        Self::new(SimTime::secs(1.0 / cfg.preemption_rate_per_instance_s()))
    }

    /// Freeze the posterior at the configured prior — the static-mean
    /// baseline (observations are still counted, never weighed).
    pub fn frozen(mut self) -> Self {
        self.frozen = true;
        self
    }

    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Fold in one spot attempt outcome.
    pub fn observe(&mut self, obs: &PreemptionObs) {
        let s = self
            .state
            .get_or_insert_with(obs.tenant, obs.class, RateStats::default);
        s.attempts += 1;
        s.exposure += obs.workers as f64 * obs.held.as_secs();
        if obs.preempted {
            s.events += 1.0;
        }
    }

    /// Spot attempts observed for (tenant, class).
    pub fn observations(&self, tenant: TenantId, class: JobClass) -> u64 {
        self.state.get(tenant, class).map_or(0, |s| s.attempts)
    }

    /// Posterior mean preemption rate per instance-second for
    /// (tenant, class). At zero observations (or frozen) this is exactly
    /// `1 / prior_mttp`.
    pub fn rate(&self, tenant: TenantId, class: JobClass) -> f64 {
        let (events, exposure) = if self.frozen {
            (0.0, 0.0)
        } else {
            self.state
                .get(tenant, class)
                .map_or((0.0, 0.0), |s| (s.events, s.exposure))
        };
        (PREEMPT_PRIOR_WEIGHT + events)
            / (PREEMPT_PRIOR_WEIGHT * self.prior_mttp.as_secs() + exposure)
    }

    /// Posterior mean per-instance time to preempt for (tenant, class).
    pub fn mean_time_to_preempt(&self, tenant: TenantId, class: JobClass) -> SimTime {
        SimTime::secs(1.0 / self.rate(tenant, class))
    }

    /// Expected preemptions a `workers`-wide job accumulates over
    /// `wall_secs` of held time: the cluster dies at `workers × λ` (first
    /// instance reclaimed kills the attempt).
    pub fn expected_preemptions(
        &self,
        tenant: TenantId,
        class: JobClass,
        workers: usize,
        wall_secs: f64,
    ) -> f64 {
        self.rate(tenant, class) * workers as f64 * wall_secs.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one fleet path that trains on Table 4 values: the §5.3
    /// sampling estimator on 20% of SVM/RCV1.
    #[test]
    fn calibrate_epochs_is_pinned() {
        let epochs = calibrate_epochs(JobClass::SvmRcv1, 0.2, 12, 5);
        assert_eq!(epochs.to_bits(), 0x4029_7a4b_01a1_6d40, "{epochs}");
    }

    fn job(class: JobClass) -> JobRequest {
        JobRequest::new(0, class, SimTime::ZERO, class.default_workers())
    }

    fn done_after(class: JobClass, run_secs: f64, route: Route) -> CompletedJob {
        CompletedJob {
            id: 0,
            class,
            tenant: 0,
            route,
            workers: class.default_workers(),
            run: SimTime::secs(run_secs),
            startup: SimTime::secs(5.0),
            cost: Cost::usd(0.2),
            epochs_total: class.epoch_count(),
            preemptions: 0,
        }
    }

    #[test]
    fn estimate_indexes_by_route() {
        let e = Estimate {
            t_faas: 1.0,
            c_faas: 2.0,
            t_iaas: 3.0,
            c_iaas: 4.0,
            m_faas: 0.5,
            m_iaas: 1.5,
        };
        assert_eq!(e.time(Route::Faas), 1.0);
        assert_eq!(e.cost(Route::Faas), 2.0);
        assert_eq!(e.time(Route::Iaas), 3.0);
        assert_eq!(e.time(Route::Spot), 3.0, "spot shares the IaaS numbers");
        assert_eq!(e.cost(Route::Spot), 4.0);
        assert_eq!(e.margin(Route::Spot), 1.5, "spot shares the IaaS margin");
    }

    #[test]
    fn eta_q_prices_the_tail_above_the_mean() {
        let e = Estimate {
            t_faas: 10.0,
            c_faas: 1.0,
            t_iaas: 20.0,
            c_iaas: 1.0,
            m_faas: 2.0,
            m_iaas: 4.0,
        };
        // The P95 ETA is the mean plus the calibrated margin.
        assert_eq!(e.eta_q(Route::Faas), 12.0);
        assert_eq!(e.eta_q(Route::Iaas), 24.0);
        assert_eq!(e.eta_q(Route::Spot), 24.0, "spot shares the IaaS tail");
        // A spread-free estimate's P95 ETA is the mean.
        let p = Estimate::point(10.0, 1.0, 20.0, 1.0);
        assert_eq!(p.eta_q(Route::Faas), 10.0);
    }

    #[test]
    fn online_quantile_margin_calibrates_coverage() {
        // Deterministic 2×-miscalibrated actuals: the EWMA mean approaches
        // from below forever, so without a calibrated margin the P95 ETA
        // would *never* cover. The adaptive multiplier must close the gap.
        let mut online = Online::new(Analytic::new());
        let j = job(JobClass::LrHiggs);
        let actual = online.predict(&j).t_iaas * 2.0;
        let (mut covered, mut seen) = (0, 0);
        for k in 0..60 {
            let e = online.predict(&j);
            if k >= 10 {
                seen += 1;
                if actual <= e.eta_q(Route::Iaas) + 1e-9 {
                    covered += 1;
                }
            }
            online.observe(&done_after(JobClass::LrHiggs, actual, Route::Iaas));
        }
        let coverage = covered as f64 / seen as f64;
        assert!(
            coverage >= 0.9,
            "calibrated P95 must cover ≥ 90% after warm-up, got {coverage}"
        );
        // The margin is honest work, not a blanket: it stays well under
        // the mean correction itself once converged.
        let e = online.predict(&j);
        assert!(e.m_iaas > 0.0);
        assert!(
            e.m_iaas < e.t_iaas,
            "margin {} vs mean {}",
            e.m_iaas,
            e.t_iaas
        );
    }

    #[test]
    fn hybrid_quantile_eta_reaches_the_calibrated_posterior() {
        // The blend's mean is dragged toward a 2×-optimistic prior, but
        // its published quantile ETA must still reach the posterior's
        // calibrated cover point — otherwise the blend's "P95" sits below
        // the truth and covers nothing.
        let mut hybrid = Hybrid::new(Analytic::new());
        let j = job(JobClass::LrHiggs);
        let actual = hybrid.predict(&j).t_iaas * 2.0;
        for _ in 0..12 {
            hybrid.observe(&done_after(JobClass::LrHiggs, actual, Route::Iaas));
        }
        let e = hybrid.predict(&j);
        let post = {
            let mut online = Online::new(Analytic::new());
            for _ in 0..12 {
                online.observe(&done_after(JobClass::LrHiggs, actual, Route::Iaas));
            }
            online.predict(&j)
        };
        assert!(
            e.t_iaas < post.eta_q(Route::Iaas),
            "premise: the prior drags the mean"
        );
        // The blend's P95 ETA lands on the posterior's calibrated one: its
        // margin carries the mean gap as well as the posterior's spread.
        assert!(
            (e.eta_q(Route::Iaas) - post.eta_q(Route::Iaas)).abs() < 1e-9,
            "blend P95 {} must reach the calibrated posterior {}",
            e.eta_q(Route::Iaas),
            post.eta_q(Route::Iaas)
        );
        // Cold start still publishes no margin.
        let unseen = job(JobClass::RnCifar);
        assert_eq!(hybrid.predict(&unseen).m_iaas, 0.0);
    }

    #[test]
    fn hybrid_cost_blend_ignores_spot_completions() {
        // 30 spot completions teach runtimes but not dollars: the hybrid
        // runtime prediction must move while the cost prediction stays the
        // pure prior (the seed is all the cost evidence there is).
        let mut hybrid = Hybrid::new(Analytic::new());
        let j = job(JobClass::LrHiggs);
        let prior = Analytic::new().predict(&j);
        for _ in 0..30 {
            hybrid.observe(&done_after(
                JobClass::LrHiggs,
                prior.t_iaas * 3.0,
                Route::Spot,
            ));
        }
        let e = hybrid.predict(&j);
        assert!(e.t_iaas > prior.t_iaas * 2.0, "runtime posterior moved");
        assert_eq!(
            e.c_iaas, prior.c_iaas,
            "spot-only evidence must leave the cost at the prior"
        );
        // A firm completion starts moving the cost blend again.
        hybrid.observe(&done_after(JobClass::LrHiggs, prior.t_iaas, Route::Iaas));
        assert_ne!(hybrid.predict(&j).c_iaas, prior.c_iaas);
    }

    #[test]
    fn risk_model_zero_observations_reproduce_the_config() {
        let r = RiskModel::new(SimTime::secs(1_000.0));
        assert_eq!(
            r.mean_time_to_preempt(0, JobClass::LrHiggs),
            SimTime::secs(1_000.0)
        );
        assert!((r.rate(0, JobClass::LrHiggs) - 1e-3).abs() < 1e-15);
        // A 10-wide job over 50 wall-seconds: 500 instance-seconds at
        // λ = 1/1000 → 0.5 expected preemptions.
        assert!((r.expected_preemptions(0, JobClass::LrHiggs, 10, 50.0) - 0.5).abs() < 1e-12);
        assert_eq!(r.observations(0, JobClass::LrHiggs), 0);
    }

    #[test]
    fn risk_model_posterior_overturns_a_wrong_prior() {
        // Config says instances live 4 000 s; the observed market kills a
        // 10-wide cluster every ~100 s (true per-instance mttp 1 000 s).
        let mut r = RiskModel::new(SimTime::secs(4_000.0));
        for _ in 0..40 {
            r.observe(&PreemptionObs {
                class: JobClass::LrHiggs,
                tenant: 0,
                workers: 10,
                held: SimTime::secs(100.0),
                preempted: true,
            });
        }
        let mttp = r.mean_time_to_preempt(0, JobClass::LrHiggs).as_secs();
        assert!(
            (900.0..1_400.0).contains(&mttp),
            "posterior must converge toward the true 1 000 s, got {mttp}"
        );
        // State is per-(tenant, class).
        assert_eq!(
            r.mean_time_to_preempt(1, JobClass::LrHiggs),
            SimTime::secs(4_000.0)
        );
        assert_eq!(r.observations(0, JobClass::LrHiggs), 40);
    }

    #[test]
    fn risk_model_clean_attempts_pull_the_rate_down() {
        // A benign market observed through clean completions only: the
        // posterior rate must drop below an alarmist prior.
        let mut r = RiskModel::new(SimTime::secs(100.0));
        for _ in 0..20 {
            r.observe(&PreemptionObs {
                class: JobClass::KmHiggs,
                tenant: 3,
                workers: 10,
                held: SimTime::secs(200.0),
                preempted: false,
            });
        }
        assert!(
            r.mean_time_to_preempt(3, JobClass::KmHiggs) > SimTime::secs(1_000.0),
            "exposure without events must stretch the learned mttp"
        );
    }

    #[test]
    fn frozen_risk_model_never_learns() {
        let mut r = RiskModel::new(SimTime::secs(500.0)).frozen();
        assert!(r.is_frozen());
        for _ in 0..50 {
            r.observe(&PreemptionObs {
                class: JobClass::LrHiggs,
                tenant: 0,
                workers: 10,
                held: SimTime::secs(10.0),
                preempted: true,
            });
        }
        assert_eq!(
            r.mean_time_to_preempt(0, JobClass::LrHiggs),
            SimTime::secs(500.0),
            "the static-mean baseline keeps quoting the config"
        );
        assert_eq!(r.observations(0, JobClass::LrHiggs), 50, "still counted");
    }

    #[test]
    fn analytic_matches_deep_vs_convex_ordering() {
        let a = Analytic::new();
        let deep = a.predict(&job(JobClass::RnCifar));
        let convex = a.predict(&job(JobClass::LrHiggs));
        // The paper's §5.2 headline: deep communication-bound jobs are far
        // slower on FaaS than on IaaS; convex jobs are competitive.
        assert!(deep.t_faas > deep.t_iaas * 3.0);
        assert!(convex.t_faas > 0.0 && convex.t_iaas > 0.0);
        assert!(convex.c_faas > 0.0 && convex.c_iaas > 0.0);
    }

    #[test]
    fn analytic_pin_epochs_scales_runtime() {
        let base = Analytic::new();
        let mut pinned = Analytic::new();
        pinned.pin_epochs(JobClass::LrHiggs, JobClass::LrHiggs.default_epochs() * 10.0);
        let j = job(JobClass::LrHiggs);
        assert!(pinned.predict(&j).t_faas > base.predict(&j).t_faas * 5.0);
        pinned.pin_epochs(JobClass::LrHiggs, 60.0);
        assert_eq!(pinned.epochs_for(JobClass::LrHiggs), 60.0);
    }

    #[test]
    fn online_cold_start_equals_analytic_prior() {
        let online = Online::new(Analytic::new());
        let a = Analytic::new();
        for class in JobClass::ALL {
            let j = job(class);
            assert_eq!(online.predict(&j), a.predict(&j), "{class:?}");
            assert_eq!(online.startup_hint(&j, Route::Faas), None);
        }
    }

    #[test]
    fn online_converges_to_observed_runtime() {
        let mut online = Online::new(Analytic::new());
        let j = job(JobClass::LrHiggs);
        let prior_t = online.predict(&j).t_iaas;
        let actual = prior_t * 2.0; // the zoo is miscalibrated ×2
        for _ in 0..40 {
            online.observe(&done_after(JobClass::LrHiggs, actual, Route::Iaas));
        }
        let t = online.predict(&j).t_iaas;
        assert!(
            (t - actual).abs() / actual < 0.02,
            "EWMA must converge: predicted {t}, actual {actual}"
        );
        // The FaaS side is untouched by IaaS observations.
        assert_eq!(online.predict(&j).t_faas, online.prior().predict(&j).t_faas);
        assert_eq!(online.observations(0, JobClass::LrHiggs, Route::Iaas), 40);
        assert_eq!(online.observations(0, JobClass::LrHiggs, Route::Faas), 0);
    }

    #[test]
    fn online_learns_per_tenant_and_cold_start_draws() {
        let mut online = Online::new(Analytic::new());
        let mut d = done_after(JobClass::SvmRcv1, 100.0, Route::Faas);
        d.tenant = 3;
        online.observe(&d);
        let mut j = job(JobClass::SvmRcv1);
        j.tenant = 3;
        assert_eq!(
            online.startup_hint(&j, Route::Faas),
            Some(SimTime::secs(5.0)),
            "first draw seeds the startup EWMA"
        );
        j.tenant = 0;
        assert_eq!(
            online.startup_hint(&j, Route::Faas),
            None,
            "state is per-tenant"
        );
    }

    #[test]
    fn spot_observations_fold_into_the_iaas_slot() {
        let mut online = Online::new(Analytic::new());
        let j = job(JobClass::LrHiggs);
        let prior_t = online.predict(&j).t_iaas;
        // Spot actuals are preemption-inflated: 3× the prior.
        for _ in 0..30 {
            online.observe(&done_after(JobClass::LrHiggs, prior_t * 3.0, Route::Spot));
        }
        assert!(online.predict(&j).t_iaas > prior_t * 2.0);
        assert_eq!(online.observations(0, JobClass::LrHiggs, Route::Spot), 30);
    }

    #[test]
    fn learned_corrections_transfer_across_worker_counts() {
        // Observe a 2× slowdown at width 10; a 100-wide job of the same
        // class must get the same *relative* correction on top of the
        // prior's own width scaling — not the 10-wide job's absolute
        // seconds.
        let mut online = Online::new(Analytic::new());
        let narrow = job(JobClass::LrHiggs); // default 10 workers
        let mut wide = narrow;
        wide.workers = 100;
        let prior = Analytic::new();
        let (pn, pw) = (prior.predict(&narrow), prior.predict(&wide));
        assert_ne!(pn.t_iaas, pw.t_iaas, "premise: the prior is width-aware");
        for _ in 0..30 {
            online.observe(&done_after(JobClass::LrHiggs, pn.t_iaas * 2.0, Route::Iaas));
        }
        let (en, ew) = (online.predict(&narrow), online.predict(&wide));
        let (rn, rw) = (en.t_iaas / pn.t_iaas, ew.t_iaas / pw.t_iaas);
        assert!((rn - 2.0).abs() < 0.05, "narrow correction converged: {rn}");
        assert!(
            (rn - rw).abs() < 1e-9,
            "the relative correction is width-invariant: {rn} vs {rw}"
        );
        assert!((en.c_iaas / pn.c_iaas - ew.c_iaas / pw.c_iaas).abs() < 1e-9);
    }

    #[test]
    fn hybrid_moves_from_prior_to_posterior() {
        let mut hybrid = Hybrid::new(Analytic::new());
        let j = job(JobClass::LrHiggs);
        let prior_t = hybrid.predict(&j).t_iaas;
        let actual = prior_t * 2.0;
        let mut last = prior_t;
        for k in 1..=30 {
            hybrid.observe(&done_after(JobClass::LrHiggs, actual, Route::Iaas));
            let t = hybrid.predict(&j).t_iaas;
            assert!(
                t >= last - 1e-9,
                "step {k}: prediction must move monotonically toward the actual"
            );
            last = t;
        }
        assert!(
            (last - actual).abs() / actual < 0.15,
            "after 30 observations the posterior dominates: {last} vs {actual}"
        );
        // An unseen class still predicts the pure prior.
        let unseen = job(JobClass::RnCifar);
        assert_eq!(
            hybrid.predict(&unseen),
            Analytic::new().predict(&unseen),
            "cold start unchanged"
        );
    }

    #[test]
    fn boxed_estimators_clone() {
        let mut online = Online::new(Analytic::new());
        online.observe(&done_after(JobClass::LrHiggs, 500.0, Route::Iaas));
        let boxed: Box<dyn Estimator> = Box::new(online);
        let copy = boxed.clone();
        let j = job(JobClass::LrHiggs);
        assert_eq!(boxed.predict(&j), copy.predict(&j));
        assert_eq!(copy.name(), "online");
        assert_eq!(Hybrid::default().name(), "hybrid");
        assert_eq!(Analytic::new().name(), "analytic");
    }
}
