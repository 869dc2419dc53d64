//! Platform models: a FaaS region with a warm-container pool and an IaaS
//! cluster pool with FIFO + backfill queueing and autoscaling.
//!
//! Both reuse the calibrated single-job constants of `lml-faas` / `lml-iaas`
//! (Table 6 start-up curves, GB-second and instance-hour billing) and layer
//! the *fleet-level* effects the paper cannot see with one job at a time:
//! cold-start probability falling as traffic rises, account concurrency
//! limits, queueing on reserved clusters, and idle reserved capacity
//! billing whether busy or not (§2.2).
//!
//! The substrate itself is fixed, as in the paper's §5.3 model: one FaaS
//! case (S3 channel, 3 GB functions) and one IaaS case (t2.medium, which
//! the reserved pool and the spot tier both rent). So are the platform
//! timings nobody varies: the warm keep-alive, the pool's idle release and
//! dispatch latency, the spot discount and its retry budget. Only the
//! capacities and the market's hostility are configured.

use lml_analytic::model::AnalyticCase;
use lml_faas::lambda::FUNCTION_GB;
use lml_faas::startup::{faas_startup_time, INVOKE_LATENCY};
use lml_iaas::cluster::iaas_startup_table;
use lml_iaas::InstanceType;
use lml_sim::{Cost, Pcg64, SimTime};

/// The §5.3 case every FaaS price comes from: the S3 channel and 3 GB
/// ([`FUNCTION_GB`]) functions.
pub(crate) const FAAS_CASE: AnalyticCase = AnalyticCase::faas_s3();

/// The §5.3 case every IaaS price comes from: [`INSTANCE`]'s network and
/// hourly price.
pub(crate) const IAAS_CASE: AnalyticCase = AnalyticCase::iaas_t2();

/// What the reserved pool and the spot tier rent.
const INSTANCE: InstanceType = InstanceType::T2Medium;

/// How long a finished container stays warm before the platform reclaims
/// it: ten minutes.
const KEEP_ALIVE: SimTime = SimTime(600.0);

/// How long idle pool capacity above the floor survives before release:
/// five minutes.
pub(crate) const IDLE_AFTER: SimTime = SimTime(300.0);

/// Dispatch latency of a job onto already-running pool instances (the
/// master dispensing scripts when the cluster is warm — vastly below the
/// cold `t_I(w)` boot).
pub(crate) const DISPATCH_LATENCY: SimTime = SimTime(2.0);

/// Spot price multiplier vs on-demand: a 70% discount, the typical
/// spot/preemptible market band.
const PRICE_FACTOR: f64 = 0.3;

/// Preemptions a spot job tolerates before it gives up on the market and
/// falls back to the reserved pool (bounds the restart storm a long job
/// would otherwise spin through on a hostile market).
pub(crate) const MAX_RETRIES: u32 = 3;

/// Provisioned-concurrency price per GB-second: what an always-warm
/// container costs whether invoked or not (AWS Lambda provisioned
/// concurrency, ≈¼ the on-demand duration rate).
const PROVISIONED_PRICE_PER_GB_SECOND: f64 = 0.000_004_166_7;

/// FaaS region configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasConfig {
    /// Account-level concurrent-execution limit (AWS default: 1000).
    pub concurrency_limit: usize,
    /// Always-warm containers the account pre-pays for (provisioned
    /// concurrency). They never go cold, are consumed before the organic
    /// warm pool, and bill at `PROVISIONED_PRICE_PER_GB_SECOND` for the
    /// whole simulation whether invoked or not.
    pub provisioned_concurrency: usize,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            concurrency_limit: 1_000,
            provisioned_concurrency: 0,
        }
    }
}

/// Runtime state of the FaaS region.
#[derive(Debug, Clone)]
pub(crate) struct FaasRegion {
    pub cfg: FaasConfig,
    /// Functions currently executing.
    in_use: usize,
    /// Expiry times of idle warm containers, ascending. Releases happen in
    /// event-time order and [`KEEP_ALIVE`] is constant, so appends keep the
    /// deque sorted for free: pruning pops stale entries from the front and
    /// warm hits consume the freshest entries from the back — no per-start
    /// sort or scan.
    warm: std::collections::VecDeque<f64>,
    /// Idle provisioned (always-warm) containers.
    provisioned_free: usize,
    /// Highest concurrent execution count observed.
    peak_in_use: usize,
    /// Total workers started warm / cold, across all jobs.
    warm_starts: u64,
    cold_starts: u64,
}

impl FaasRegion {
    pub(crate) fn new(cfg: FaasConfig) -> Self {
        assert!(
            cfg.provisioned_concurrency <= cfg.concurrency_limit,
            "cannot provision past the account concurrency limit"
        );
        FaasRegion {
            cfg,
            in_use: 0,
            warm: std::collections::VecDeque::new(),
            provisioned_free: cfg.provisioned_concurrency,
            peak_in_use: 0,
            warm_starts: 0,
            cold_starts: 0,
        }
    }

    fn prune(&mut self, now: SimTime) {
        let t = now.as_secs();
        while self.warm.front().is_some_and(|&e| e < t) {
            self.warm.pop_front();
        }
    }

    /// Concurrency slack at `now`.
    pub(crate) fn available(&self) -> usize {
        self.cfg.concurrency_limit - self.in_use
    }

    /// Try to start a `workers`-wide job. On success returns the fleet-level
    /// startup latency and how many workers were served from the warm pool:
    /// warm workers re-attach with one Invoke round-trip, cold workers pay
    /// the Table 6 cold-start curve for the *cold* count only.
    pub(crate) fn try_start(&mut self, now: SimTime, workers: usize) -> Option<(SimTime, usize)> {
        assert!(workers >= 1);
        assert!(
            workers <= self.cfg.concurrency_limit,
            "job wider than the account concurrency limit"
        );
        if self.in_use + workers > self.cfg.concurrency_limit {
            return None;
        }
        self.prune(now);
        // Provisioned containers are consumed first (they are paid for
        // either way), then the organic keep-alive pool.
        let from_provisioned = workers.min(self.provisioned_free);
        self.provisioned_free -= from_provisioned;
        let from_pool = (workers - from_provisioned).min(self.warm.len());
        // Consume the freshest warm containers (the platform keeps the most
        // recently used ones alive longest anyway; any choice is valid):
        // the deque is expiry-sorted, so the freshest are the back entries.
        self.warm.truncate(self.warm.len() - from_pool);
        let warm_hits = from_provisioned + from_pool;
        let cold = workers - warm_hits;
        self.warm_starts += warm_hits as u64;
        self.cold_starts += cold as u64;
        self.in_use += workers;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        let startup = if cold > 0 {
            faas_startup_time(cold)
        } else {
            INVOKE_LATENCY
        };
        Some((startup, warm_hits))
    }

    /// A job finished: its containers return to the warm pool. The
    /// provisioned floor is refilled first (the platform always keeps
    /// `provisioned_concurrency` containers warm; identity is irrelevant),
    /// the remainder joins the keep-alive pool.
    pub(crate) fn release(&mut self, now: SimTime, workers: usize) {
        assert!(self.in_use >= workers, "releasing more than in use");
        self.in_use -= workers;
        self.prune(now);
        let to_provisioned =
            (self.cfg.provisioned_concurrency - self.provisioned_free).min(workers);
        self.provisioned_free += to_provisioned;
        let expire = now.as_secs() + KEEP_ALIVE.as_secs();
        debug_assert!(
            self.warm.back().is_none_or(|&e| e <= expire),
            "releases must arrive in event-time order to keep the pool sorted"
        );
        self.warm
            .extend(std::iter::repeat_n(expire, workers - to_provisioned));
    }

    /// The pre-paid provisioned-concurrency bill over `horizon`: every
    /// provisioned container-second at the provisioned GB-second rate,
    /// busy or idle.
    pub(crate) fn provisioned_cost(&self, horizon: SimTime) -> Cost {
        Cost::usd(
            self.cfg.provisioned_concurrency as f64
                * FUNCTION_GB
                * PROVISIONED_PRICE_PER_GB_SECOND
                * horizon.as_secs(),
        )
    }

    /// Fraction of all started workers served warm.
    pub(crate) fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_starts + self.cold_starts;
        if total == 0 {
            0.0
        } else {
            self.warm_starts as f64 / total as f64
        }
    }

    pub(crate) fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    pub(crate) fn peak_concurrency(&self) -> usize {
        self.peak_in_use
    }
}

/// IaaS pool configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IaasConfig {
    /// Instances kept reserved at all times (bill from t = 0).
    pub min_instances: usize,
    /// Autoscaling ceiling.
    pub max_instances: usize,
}

impl Default for IaasConfig {
    fn default() -> Self {
        IaasConfig {
            min_instances: 20,
            max_instances: 400,
        }
    }
}

/// Runtime state of the reserved-cluster pool.
#[derive(Debug, Clone)]
pub(crate) struct IaasPool {
    pub cfg: IaasConfig,
    /// Instances currently booted (busy + idle).
    capacity: usize,
    /// Idle booted instances.
    free: usize,
    /// Instances being provisioned (not yet ready).
    provisioning: usize,
    /// Billing/utilization integrals.
    last_t: f64,
    instance_seconds: f64,
    busy_instance_seconds: f64,
    peak_capacity: usize,
}

impl IaasPool {
    pub(crate) fn new(cfg: IaasConfig) -> Self {
        assert!(cfg.min_instances <= cfg.max_instances);
        IaasPool {
            cfg,
            capacity: cfg.min_instances,
            free: cfg.min_instances,
            provisioning: 0,
            last_t: 0.0,
            instance_seconds: 0.0,
            busy_instance_seconds: 0.0,
            peak_capacity: cfg.min_instances,
        }
    }

    /// Advance the billing/utilization integrals to `now`. Must be called
    /// (and is, by every mutator) before any state change.
    fn tick(&mut self, now: SimTime) {
        let t = now.as_secs();
        debug_assert!(
            t >= self.last_t - 1e-9,
            "time went backwards: {t} < {}",
            self.last_t
        );
        let dt = (t - self.last_t).max(0.0);
        self.instance_seconds += self.capacity as f64 * dt;
        self.busy_instance_seconds += (self.capacity - self.free) as f64 * dt;
        self.last_t = t;
    }

    pub(crate) fn free(&self) -> usize {
        self.free
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn provisioning(&self) -> usize {
        self.provisioning
    }

    /// Try to start a `workers`-wide job on idle instances.
    pub(crate) fn try_start(&mut self, now: SimTime, workers: usize) -> bool {
        assert!(workers >= 1);
        self.tick(now);
        if self.free >= workers {
            self.free -= workers;
            true
        } else {
            false
        }
    }

    /// A job finished; its instances become idle.
    pub(crate) fn finish(&mut self, now: SimTime, workers: usize) {
        self.tick(now);
        self.free += workers;
        assert!(self.free <= self.capacity, "more free than booted");
    }

    /// Request capacity for `deficit` more workers. Returns the number of
    /// instances actually launched and their boot time (the Table 6
    /// `t_I(k)` curve for the batch being booted).
    pub(crate) fn scale_up(&mut self, now: SimTime, deficit: usize) -> Option<(usize, SimTime)> {
        self.tick(now);
        let headroom = self.cfg.max_instances - self.capacity - self.provisioning;
        let k = deficit.min(headroom);
        if k == 0 {
            return None;
        }
        self.provisioning += k;
        Some((k, SimTime::secs(iaas_startup_table().eval(k as f64))))
    }

    /// A batch of `k` provisioned instances is ready.
    pub(crate) fn provisioned(&mut self, now: SimTime, k: usize) {
        self.tick(now);
        assert!(self.provisioning >= k);
        self.provisioning -= k;
        self.capacity += k;
        self.free += k;
        self.peak_capacity = self.peak_capacity.max(self.capacity);
    }

    /// Release idle capacity above the reserved floor. Returns instances
    /// released.
    pub(crate) fn scale_down_idle(&mut self, now: SimTime) -> usize {
        self.tick(now);
        let releasable = self
            .free
            .min(self.capacity - self.cfg.min_instances.min(self.capacity));
        self.capacity -= releasable;
        self.free -= releasable;
        releasable
    }

    /// Close the books at the end of the simulation.
    pub(crate) fn finalize(&mut self, now: SimTime) {
        self.tick(now);
    }

    /// Reserved-capacity bill so far: every booted instance-second, busy or
    /// idle (§2.2: "reserved resources bill whether busy or idle").
    pub(crate) fn cost(&self) -> Cost {
        INSTANCE.hourly() * (self.instance_seconds / 3_600.0)
    }

    /// Busy fraction of all billed instance-seconds.
    pub(crate) fn utilization(&self) -> f64 {
        // Exact-zero guard against dividing by zero billed seconds.
        // lml-analyze: allow(float-eq)
        if self.instance_seconds == 0.0 {
            0.0
        } else {
            self.busy_instance_seconds / self.instance_seconds
        }
    }

    pub(crate) fn peak_capacity(&self) -> usize {
        self.peak_capacity
    }
}

/// Spot/preemptible tier configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotConfig {
    /// Mean time to preemption of a single spot instance (exponential,
    /// seeded). A `workers`-wide job dies when its *first* instance is
    /// reclaimed, so its effective mean is `mean_time_to_preempt/workers`.
    pub mean_time_to_preempt: SimTime,
}

impl SpotConfig {
    /// The per-instance exponential-clock parameter λ = 1 / mean time to
    /// preempt — the single definition of the market's hostility, shared
    /// by [`SpotTier::preemption_clock`]'s sampler and the
    /// zero-observation prior of [`crate::estimate::RiskModel`]. A
    /// `workers`-wide cluster dies at `workers × λ` (first instance
    /// reclaimed kills the attempt).
    pub(crate) fn preemption_rate_per_instance_s(&self) -> f64 {
        assert!(self.mean_time_to_preempt.as_secs() > 0.0);
        1.0 / self.mean_time_to_preempt.as_secs()
    }
}

impl Default for SpotConfig {
    fn default() -> Self {
        SpotConfig {
            mean_time_to_preempt: SimTime::hours(4.0),
        }
    }
}

/// Runtime state of the spot tier.
///
/// Unlike the reserved pool, spot capacity is modelled as market-deep: a
/// job always gets instances after the Table 6 boot curve, there is no
/// shared reservation and no idle billing — but every launch carries a
/// seeded exponential preemption clock, and a preempted job rolls back to
/// its last durable checkpoint (or to zero without one) and must requeue.
/// Billing covers exactly the instance-seconds actually held (boot + run
/// until completion or preemption) at a 70% discount.
#[derive(Debug, Clone)]
pub(crate) struct SpotTier {
    pub cfg: SpotConfig,
    seed: u64,
    in_use: usize,
    peak_in_use: usize,
    preemptions: u64,
    billed_instance_seconds: f64,
}

impl SpotTier {
    pub(crate) fn new(cfg: SpotConfig, seed: u64) -> Self {
        assert!(cfg.mean_time_to_preempt.as_secs() > 0.0);
        SpotTier {
            cfg,
            seed: seed ^ 0x5907_7157,
            in_use: 0,
            peak_in_use: 0,
            preemptions: 0,
            billed_instance_seconds: 0.0,
        }
    }

    /// Launch a `workers`-wide spot cluster. Returns the boot time (Table 6
    /// `t_I(w)`); sample the market's reclaim clock separately with
    /// [`SpotTier::preemption_clock`].
    pub(crate) fn start(&mut self, workers: usize) -> SimTime {
        assert!(workers >= 1);
        self.in_use += workers;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        SimTime::secs(iaas_startup_table().eval(workers as f64))
    }

    /// Sampled time-to-preemption of attempt `attempt` of job `job_id`,
    /// measured from launch: if it lands before the attempt's finish the
    /// caller must preempt the job at that instant.
    ///
    /// **Clock semantics.** Each *instance* dies after an independent
    /// Exp(1/`mean_time_to_preempt`) lifetime, and a `workers`-wide
    /// cluster is lost when its *first* instance is reclaimed. The minimum
    /// of `w` iid Exp(1/m) clocks is Exp(w/m), so the cluster's lifetime
    /// is sampled with mean `mean_time_to_preempt / workers` — the config
    /// field is per-instance; wide jobs die proportionally sooner (see
    /// `preemption_clock_mean_divides_by_width` for the statistical
    /// check).
    ///
    /// The sample is a pure function of (tier seed, job, attempt, width):
    /// two simulations of the same trace that differ only in checkpoint
    /// policy see identical reclaim times attempt-for-attempt, which is
    /// what makes "more frequent checkpoints never lose more work" a
    /// structural guarantee rather than a statistical accident.
    pub(crate) fn preemption_clock(&self, job_id: u64, attempt: u32, workers: usize) -> SimTime {
        assert!(workers >= 1);
        let tag = job_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64)
            .wrapping_mul(0xD605_1F65_4238_5DF6);
        let mut rng = Pcg64::new(self.seed ^ tag);
        let mean = self.cfg.mean_time_to_preempt.as_secs() / workers as f64;
        let u = rng.uniform();
        SimTime::secs(-(1.0 - u).ln() * mean)
    }

    /// The cluster ran to completion; bill the seconds it was held.
    pub(crate) fn finish(&mut self, workers: usize, held: SimTime) {
        assert!(self.in_use >= workers, "finishing more than in use");
        self.in_use -= workers;
        self.billed_instance_seconds += workers as f64 * held.as_secs();
    }

    /// The market reclaimed the cluster `held` seconds after launch; the
    /// partial run is billed, progress past the last durable checkpoint is
    /// lost.
    pub(crate) fn preempted(&mut self, workers: usize, held: SimTime) {
        self.finish(workers, held);
        self.preemptions += 1;
    }

    /// Discounted price of `instance_seconds` on this market — the single
    /// pricing point behind both the tier bill and per-job attribution.
    fn price(&self, instance_seconds: f64) -> Cost {
        INSTANCE.hourly() * (instance_seconds / 3_600.0 * PRICE_FACTOR)
    }

    /// Discounted price of holding `workers` instances for `held`.
    pub(crate) fn price_of(&self, workers: usize, held: SimTime) -> Cost {
        self.price(workers as f64 * held.as_secs())
    }

    /// Spot bill so far: held instance-seconds at the discounted rate.
    pub(crate) fn cost(&self) -> Cost {
        self.price(self.billed_instance_seconds)
    }

    pub(crate) fn preemptions(&self) -> u64 {
        self.preemptions
    }

    pub(crate) fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Spot instances currently held — a point-in-time gauge for telemetry
    /// (peak_in_use is the high-water mark, this is the live level).
    pub(crate) fn in_use(&self) -> usize {
        self.in_use
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_limit_blocks_admission() {
        let mut r = FaasRegion::new(FaasConfig {
            concurrency_limit: 25,
            ..Default::default()
        });
        assert!(r.try_start(SimTime::ZERO, 20).is_some());
        assert!(r.try_start(SimTime::ZERO, 10).is_none(), "20 + 10 > 25");
        assert!(r.try_start(SimTime::ZERO, 5).is_some());
        assert_eq!(r.available(), 0);
    }

    #[test]
    fn warm_pool_eliminates_cold_starts() {
        let mut r = FaasRegion::new(FaasConfig::default());
        let (cold_startup, hits) = r.try_start(SimTime::ZERO, 10).unwrap();
        assert_eq!(hits, 0, "first job is all cold");
        assert!(cold_startup >= faas_startup_time(10));
        r.release(SimTime::secs(100.0), 10);
        // Second job inside the keep-alive window: all warm.
        let (warm_startup, hits) = r.try_start(SimTime::secs(150.0), 10).unwrap();
        assert_eq!(hits, 10);
        assert_eq!(warm_startup, INVOKE_LATENCY);
        assert!(warm_startup < cold_startup);
        assert!((r.warm_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warm_containers_expire() {
        let mut r = FaasRegion::new(FaasConfig::default());
        r.try_start(SimTime::ZERO, 10).unwrap();
        r.release(SimTime::secs(10.0), 10);
        // 100 s past the keep-alive the pool is stale: all cold again.
        let (_, hits) = r.try_start(SimTime::secs(710.0), 10).unwrap();
        assert_eq!(hits, 0);
    }

    #[test]
    fn partial_warm_pool_charges_cold_tail_only() {
        let mut r = FaasRegion::new(FaasConfig::default());
        r.try_start(SimTime::ZERO, 4).unwrap();
        r.release(SimTime::secs(5.0), 4);
        let (startup, hits) = r.try_start(SimTime::secs(10.0), 10).unwrap();
        assert_eq!(hits, 4);
        // Startup pays the cold curve of the 6 cold workers, not all 10.
        assert_eq!(startup, faas_startup_time(6));
    }

    #[test]
    fn iaas_pool_bills_idle_capacity() {
        let cfg = IaasConfig {
            min_instances: 10,
            ..Default::default()
        };
        let mut p = IaasPool::new(cfg);
        p.finalize(SimTime::hours(1.0));
        // 10 × $0.0464 × 1 h, all idle.
        assert!((p.cost().as_usd() - 0.464).abs() < 1e-9);
        assert_eq!(p.utilization(), 0.0);
    }

    #[test]
    fn iaas_queue_capacity_accounting() {
        let mut p = IaasPool::new(IaasConfig {
            min_instances: 10,
            ..Default::default()
        });
        assert!(p.try_start(SimTime::ZERO, 8));
        assert!(!p.try_start(SimTime::ZERO, 5), "only 2 free");
        p.finish(SimTime::secs(50.0), 8);
        assert!(p.try_start(SimTime::secs(50.0), 5));
        p.finish(SimTime::secs(100.0), 5);
        p.finalize(SimTime::secs(100.0));
        // busy: 8 × 50 + 5 × 50 = 650 of 10 × 100 = 1000 instance-seconds.
        assert!((p.utilization() - 0.65).abs() < 1e-9);
    }

    #[test]
    fn iaas_scale_up_and_down() {
        let mut p = IaasPool::new(IaasConfig {
            min_instances: 5,
            max_instances: 50,
        });
        let (k, boot) = p.scale_up(SimTime::ZERO, 20).unwrap();
        assert_eq!(k, 20);
        assert!(boot.as_secs() >= 120.0, "Table 6 boot time, got {boot}");
        p.provisioned(boot, 20);
        assert_eq!(p.capacity(), 25);
        assert_eq!(p.free(), 25);
        let released = p.scale_down_idle(boot + SimTime::minutes(10.0));
        assert_eq!(released, 20, "shrinks back to the floor");
        assert_eq!(p.capacity(), 5);
    }

    #[test]
    fn provisioned_concurrency_is_always_warm() {
        let mut r = FaasRegion::new(FaasConfig {
            provisioned_concurrency: 10,
            ..Default::default()
        });
        // First job, hours into the trace: still fully warm.
        let (startup, hits) = r.try_start(SimTime::hours(5.0), 10).unwrap();
        assert_eq!(hits, 10);
        assert_eq!(startup, INVOKE_LATENCY);
        // A second concurrent job must go cold — the floor is exhausted.
        let (_, hits) = r.try_start(SimTime::hours(5.0), 10).unwrap();
        assert_eq!(hits, 0);
        // After release the floor refills and outlives the keep-alive pool.
        r.release(SimTime::hours(5.1), 20);
        let (_, hits) = r.try_start(SimTime::hours(9.0), 12).unwrap();
        assert_eq!(hits, 10, "floor refilled, keep-alive pool expired");
    }

    #[test]
    fn provisioned_concurrency_bills_whether_used_or_not() {
        let r = FaasRegion::new(FaasConfig {
            provisioned_concurrency: 100,
            ..Default::default()
        });
        let c = r.provisioned_cost(SimTime::hours(1.0));
        let expected = 100.0 * FUNCTION_GB * PROVISIONED_PRICE_PER_GB_SECOND * 3_600.0;
        assert!((c.as_usd() - expected).abs() < 1e-9);
        let none = FaasRegion::new(FaasConfig::default());
        assert_eq!(none.provisioned_cost(SimTime::hours(1.0)).as_usd(), 0.0);
    }

    #[test]
    fn spot_tier_bills_discounted_held_seconds() {
        let mut s = SpotTier::new(SpotConfig::default(), 1);
        let boot = s.start(10);
        assert!(boot.as_secs() > 0.0, "spot clusters still boot");
        s.finish(10, SimTime::hours(1.0));
        // 10 instances × 1 h × $0.0464 × 0.3.
        assert!((s.cost().as_usd() - 0.1392).abs() < 1e-9);
        assert_eq!(s.preemptions(), 0);
    }

    #[test]
    fn spot_preemption_clocks_are_seeded_per_job_and_attempt() {
        let s = SpotTier::new(SpotConfig::default(), 7);
        // Pure function of (seed, job, attempt): one answer is pinned,
        // and every coordinate changes it.
        let pinned = s.preemption_clock(3, 0, 10);
        assert_eq!(
            pinned.as_secs().to_bits(),
            0x40a8_06d0_07d3_fb70,
            "{pinned}"
        );
        assert_ne!(pinned, s.preemption_clock(3, 1, 10));
        assert_ne!(pinned, s.preemption_clock(4, 0, 10));
        let other = SpotTier::new(SpotConfig::default(), 8);
        assert_ne!(
            pinned,
            other.preemption_clock(3, 0, 10),
            "different tier seeds give different markets"
        );
    }

    /// The per-worker exponential mean divides correctly for multi-worker
    /// jobs: a `w`-wide cluster dies when its first instance does, so the
    /// sampled lifetimes must average `mean_time_to_preempt / w` — checked
    /// quantitatively for w = 1, 4, 20.
    #[test]
    fn preemption_clock_mean_divides_by_width() {
        let cfg = SpotConfig {
            mean_time_to_preempt: SimTime::secs(8_000.0),
        };
        let s = SpotTier::new(cfg, 5);
        let n = 4_000u64;
        for workers in [1usize, 4, 20] {
            let mean: f64 = (0..n)
                .map(|j| s.preemption_clock(j, 0, workers).as_secs())
                .sum::<f64>()
                / n as f64;
            let expect = 8_000.0 / workers as f64;
            assert!(
                (mean - expect).abs() < expect * 0.1,
                "width {workers}: empirical mean {mean:.1} vs {expect}"
            );
        }
    }

    /// The config's rate helper and the tier's sampled clocks agree: the
    /// empirical per-instance mean lifetime inverts the advertised λ.
    #[test]
    fn preemption_rate_inverts_the_sampled_mean() {
        let cfg = SpotConfig {
            mean_time_to_preempt: SimTime::secs(5_000.0),
        };
        assert!((cfg.preemption_rate_per_instance_s() - 2e-4).abs() < 1e-15);
        let s = SpotTier::new(cfg, 9);
        let n = 4_000u64;
        let mean: f64 = (0..n)
            .map(|j| s.preemption_clock(j, 0, 1).as_secs())
            .sum::<f64>()
            / n as f64;
        let implied_rate = 1.0 / mean;
        assert!(
            (implied_rate - cfg.preemption_rate_per_instance_s()).abs()
                < cfg.preemption_rate_per_instance_s() * 0.1,
            "sampled clocks imply λ = {implied_rate}, config advertises {}",
            cfg.preemption_rate_per_instance_s()
        );
    }

    /// The IaaS case prices the instance the pool and the spot tier rent.
    #[test]
    fn iaas_case_prices_the_rented_instance() {
        let rate = INSTANCE.hourly().as_usd() / 3_600.0;
        assert_eq!(IAAS_CASE.worker_price_per_s.to_bits(), rate.to_bits());
    }

    #[test]
    fn iaas_scale_up_respects_ceiling() {
        let mut p = IaasPool::new(IaasConfig {
            min_instances: 5,
            max_instances: 10,
        });
        let (k, _) = p.scale_up(SimTime::ZERO, 100).unwrap();
        assert_eq!(k, 5, "ceiling of 10 minus 5 booted");
        assert!(p.scale_up(SimTime::ZERO, 100).is_none(), "no headroom left");
    }
}
