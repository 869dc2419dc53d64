//! Fleet metrics: per-job breakdowns rolled up into tail latencies, cost,
//! warm-hit rate, utilization, deadline-hit rate, preemptions,
//! prediction-error (MAPE on runtime and dollars, overall and per class),
//! and a per-tenant fairness view, exported as deterministic JSON.

use crate::job::{JobClass, TenantId};
use crate::json::{self, JsonObject};
use crate::scheduler::Route;
use lml_sim::stats::Summary;
use lml_sim::{Cost, SimTime};

/// Everything the simulator learned about one job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    pub id: u64,
    pub class: JobClass,
    pub route: Route,
    pub workers: usize,
    pub tenant: TenantId,
    pub submit: SimTime,
    /// Completion deadline, if the tenant set one.
    pub deadline: Option<SimTime>,
    /// Time spent waiting for admission (concurrency limit / busy pool).
    pub queue: SimTime,
    /// Fleet startup: cold/warm function start, cluster dispatch, or spot
    /// boots (including boots lost to preemption).
    pub startup: SimTime,
    /// Data loading + training time (including partial runs lost to
    /// preemption).
    pub run: SimTime,
    /// Workers served from the warm pool (FaaS only).
    pub warm_hits: usize,
    /// Times the spot market reclaimed this job's instances.
    pub preemptions: u32,
    /// Attempts that restarted from a durable checkpoint instead of from
    /// scratch.
    pub resumes: u32,
    /// Spot clusters launched for this job (0 for jobs that never touched
    /// the market) — the denominator behind per-job preemption risk.
    pub spot_attempts: u32,
    /// Training seconds redone because preemptions struck past the last
    /// durable checkpoint.
    pub lost_work: SimTime,
    /// Checkpoint uploads initiated (durable, interrupted, and on
    /// successful attempts alike — all billed).
    pub checkpoint_writes: u32,
    /// Checkpoint dollars attributed to this job: uploads plus restores.
    pub checkpoint_cost: Cost,
    /// Terminal `Rejected`: admission refused (tenant budget exhausted);
    /// the job never ran.
    pub rejected: bool,
    /// The job sat out at least one budget accounting window before
    /// admission (budget deferral instead of rejection).
    pub deferred: bool,
    /// The scheduler's predicted run time on the routed substrate,
    /// snapshotted at admission (`None` for constant routers and rejected
    /// jobs).
    pub predicted_run: Option<SimTime>,
    /// The calibrated `ETA_QUANTILE` (P95) runtime ETA
    /// (`crate::estimate::Estimate::eta_q`) on the routed substrate,
    /// snapshotted at admission. Equal to `predicted_run` for estimators
    /// without spread state; the coverage rollup scores it against the
    /// actual run.
    pub predicted_run_q: Option<SimTime>,
    /// The scheduler's predicted dollars on the routed substrate. `None`
    /// for spot-routed jobs too: their attributed dollars ride the market
    /// discount the firm-price prediction deliberately ignores, and
    /// scoring it would report the discount as estimator error.
    pub predicted_cost: Option<Cost>,
    /// Attributed job cost: GB-seconds on FaaS, instance-time share on
    /// IaaS, discounted held-seconds on spot, plus checkpoint dollars.
    pub cost: Cost,
}

impl JobRecord {
    /// Submission-to-completion latency.
    pub fn latency(&self) -> SimTime {
        self.queue + self.startup + self.run
    }

    pub fn finish(&self) -> SimTime {
        self.submit + self.latency()
    }

    /// Completion time of the last job that actually ran — the single
    /// definition of makespan, shared by the rollup and by the simulator's
    /// provisioned-floor billing so the two can never diverge. Rejected
    /// jobs carry only their submit time and don't stretch it.
    pub(crate) fn makespan(records: &[JobRecord]) -> SimTime {
        records
            .iter()
            .filter(|r| !r.rejected)
            .map(|r| r.finish())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Did the job meet its deadline? `None` when it had none or was
    /// rejected at admission (it never ran, so "met" is undefined — the
    /// rejection is surfaced separately).
    fn deadline_met(&self) -> Option<bool> {
        if self.rejected {
            return None;
        }
        self.deadline.map(|d| self.finish() <= d)
    }

    /// Absolute percentage error of the runtime prediction:
    /// `|actual − predicted| / actual` over the run component (the
    /// quantity the estimator predicts — queue and startup are charged
    /// separately). `None` without a prediction or an actual to score
    /// against.
    pub(crate) fn runtime_ape(&self) -> Option<f64> {
        if self.rejected {
            return None;
        }
        let predicted = self.predicted_run?.as_secs();
        let actual = self.run.as_secs();
        (actual > 0.0).then(|| (actual - predicted).abs() / actual)
    }

    /// Absolute percentage error of the cost prediction.
    fn cost_ape(&self) -> Option<f64> {
        if self.rejected {
            return None;
        }
        let predicted = self.predicted_cost?.as_usd();
        let actual = self.cost.as_usd();
        (actual > 0.0).then(|| (actual - predicted).abs() / actual)
    }

    /// Did the P95 ETA snapshotted at admission cover the actual run?
    /// `None` without a quantile prediction or an actual to score — the
    /// fleet-wide cover rate is the calibration check on
    /// [`crate::estimate::Estimate::eta_q`] (a calibrated estimator sits
    /// near the target quantile; a blind one sits wherever its luck put
    /// it).
    fn eta_covered(&self) -> Option<bool> {
        if self.rejected {
            return None;
        }
        let q = self.predicted_run_q?.as_secs();
        let actual = self.run.as_secs();
        (actual > 0.0).then_some(actual <= q + 1e-9)
    }
}

/// Mean of absolute percentage errors; 0.0 when nothing was predicted.
fn mape(apes: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for e in apes {
        sum += e;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Percentile rollup of one latency component.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl Quantiles {
    fn from_values(values: Vec<f64>) -> Quantiles {
        if values.is_empty() {
            return Quantiles {
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut s = Summary::from_values(values);
        // Mean and max read the sample in insertion order; take them
        // before the in-place percentile sort permutes it (the summation
        // order is part of the byte-identical output contract).
        let mean = s.mean();
        let max = s.max();
        let [p50, p95, p99] = s.into_percentiles([50.0, 95.0, 99.0]);
        Quantiles {
            mean,
            p50,
            p95,
            p99,
            max,
        }
    }

    fn json_fields(self, o: &mut JsonObject<'_>) {
        o.f64("mean", self.mean)
            .f64("p50", self.p50)
            .f64("p95", self.p95)
            .f64("p99", self.p99)
            .f64("max", self.max);
    }
}

/// Platform-side counters and bills handed to the rollup (the per-job
/// records carry attributions; these integrals are authoritative).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformTotals {
    /// IaaS pool bill (every booted instance-second, busy or idle).
    pub iaas_cost: Cost,
    pub warm_hit_rate: f64,
    pub cold_starts: u64,
    pub iaas_utilization: f64,
    pub iaas_peak_instances: usize,
    pub faas_peak_concurrency: usize,
    /// Spot tier bill (held instance-seconds at the discounted rate).
    pub spot_cost: Cost,
    /// Spot preemption events across the run.
    pub preemptions: u64,
    /// Pre-paid provisioned-concurrency bill over the makespan.
    pub faas_provisioned_cost: Cost,
    pub spot_peak_instances: usize,
}

/// One fixed-width window of incremental replay metrics, flushed by the
/// streaming engine as the simulation clock passes each boundary (see
/// `FleetObserver::rollup_period`). Counters cover events *inside* the
/// window `[start, end)`; `resident_jobs` is the in-flight gauge at flush
/// time — the number the streaming engine promises stays bounded by the
/// working set, not by trace length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRollup {
    /// Zero-based window index (windows with no events are still emitted,
    /// so indices are dense).
    pub index: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// Jobs whose arrival was pulled from the source in this window.
    pub submitted: u64,
    /// Jobs that reached a terminal completed state in this window.
    pub completed: u64,
    /// Jobs refused admission in this window.
    pub rejected: u64,
    /// Dollars charged in this window (all substrates and checkpoints).
    pub cost: Cost,
    /// Admitted, non-terminal jobs at flush time.
    pub resident_jobs: u64,
}

/// Per-tenant rollup row.
#[derive(Debug, Clone, Copy)]
pub struct TenantRow {
    pub tenant: TenantId,
    /// Jobs submitted (including rejected ones).
    pub jobs: usize,
    /// Jobs refused admission because the tenant's budget was exhausted.
    pub rejected: usize,
    /// Jobs that sat out at least one budget accounting window.
    pub deferred: usize,
    pub latency_p99: f64,
    pub cost: Cost,
    /// Worker-seconds of run time delivered to this tenant.
    pub service: f64,
}

/// Per-class rollup row (replaces the old anonymous tuple).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassRow {
    pub class: JobClass,
    /// Jobs of this class that actually ran.
    pub jobs: usize,
    pub latency_p99: f64,
    /// Mean attributed dollars per job.
    pub mean_cost: f64,
    /// Jobs of this class that carried a runtime prediction.
    pub predicted: usize,
    /// Mean absolute percentage error of the runtime predictions.
    pub runtime_mape: f64,
    /// Mean absolute percentage error of the cost predictions.
    pub cost_mape: f64,
}

/// Fleet-level rollup of one simulation run.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    pub policy: String,
    pub seed: u64,
    pub n_jobs: usize,
    /// Completion time of the last job.
    pub makespan: SimTime,
    pub latency: Quantiles,
    pub queue: Quantiles,
    pub startup: Quantiles,
    /// Sum of attributed FaaS job costs (GB-second billing).
    pub faas_cost: Cost,
    /// Pre-paid provisioned-concurrency bill.
    pub faas_provisioned_cost: Cost,
    /// IaaS pool bill (every booted instance-second, busy or idle).
    pub iaas_cost: Cost,
    /// Spot tier bill.
    pub spot_cost: Cost,
    pub jobs_on_faas: usize,
    pub jobs_on_iaas: usize,
    pub jobs_on_spot: usize,
    pub warm_hit_rate: f64,
    pub cold_starts: u64,
    pub iaas_utilization: f64,
    pub iaas_peak_instances: usize,
    pub faas_peak_concurrency: usize,
    pub spot_peak_instances: usize,
    /// Spot preemption events across the run.
    pub preemptions: u64,
    /// Attempts that resumed from a durable checkpoint.
    pub resumes: u64,
    /// Training seconds redone fleet-wide because preemptions struck past
    /// the last durable checkpoint.
    pub lost_work: SimTime,
    /// Checkpoint uploads initiated fleet-wide.
    pub checkpoint_writes: u64,
    /// Checkpoint dollars fleet-wide (uploads plus restores).
    pub checkpoint_cost: Cost,
    /// Jobs refused admission on an exhausted tenant budget.
    pub rejected_jobs: usize,
    /// Jobs that sat out at least one budget accounting window before
    /// admission.
    pub deferred_jobs: usize,
    /// Jobs whose scheduler made a runtime/cost prediction at admission.
    pub predicted_jobs: usize,
    /// Mean absolute percentage error of the runtime predictions
    /// (|actual − predicted| / actual over the run component); 0.0 when
    /// nothing was predicted.
    pub runtime_mape: f64,
    /// Mean absolute percentage error of the cost predictions.
    pub cost_mape: f64,
    /// Jobs whose admission snapshot carried a P95 runtime ETA and whose
    /// actual run could score it.
    pub eta_q_jobs: usize,
    /// Of those, jobs whose actual run the P95 ETA covered.
    pub eta_q_covered: usize,
    /// Spot clusters launched fleet-wide (the exposure denominator behind
    /// the preemption counters).
    pub spot_attempts: u64,
    /// Jobs that carried a deadline / that met it. Rejected jobs never
    /// ran, so they appear in neither — `deadline_jobs_rejected` surfaces
    /// them so a policy that refuses doomed work can't read as one that
    /// improved deadline performance.
    pub deadline_jobs: usize,
    pub deadline_hits: usize,
    /// Deadline-carrying jobs refused admission (budget caps or the
    /// deferral-vs-rejection pricing): excluded from the hit-rate
    /// denominator, counted here.
    pub deadline_jobs_rejected: usize,
    /// Jain's fairness index over per-tenant delivered service
    /// (worker-seconds): 1 = perfectly even, 1/n = one tenant got it all.
    pub fairness: f64,
    pub records: Vec<JobRecord>,
}

impl FleetMetrics {
    /// Total dollars: FaaS execution + provisioned floor + reserved-pool
    /// bill + spot bill + checkpoint traffic.
    pub fn total_cost(&self) -> Cost {
        self.faas_cost
            + self.faas_provisioned_cost
            + self.iaas_cost
            + self.spot_cost
            + self.checkpoint_cost
    }

    /// Mean sustained throughput over the makespan, completed jobs/second
    /// (rejected jobs never ran, so they don't count as served work).
    fn throughput(&self) -> f64 {
        // Exact-zero guard against dividing by an empty makespan.
        // lml-analyze: allow(float-eq)
        if self.makespan.as_secs() == 0.0 {
            0.0
        } else {
            (self.n_jobs - self.rejected_jobs) as f64 / self.makespan.as_secs()
        }
    }

    /// Fraction of deadline-carrying jobs that finished in time (1.0 when
    /// no job had a deadline — vacuously met).
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.deadline_jobs == 0 {
            1.0
        } else {
            self.deadline_hits as f64 / self.deadline_jobs as f64
        }
    }

    /// Empirical coverage of the admission-time P95 ETA: the fraction of
    /// scoreable jobs whose actual run it covered. 1.0 when nothing was
    /// scoreable (vacuously covered — and NaN-free by construction). A
    /// calibrated estimator sits in [target, 1]; a miscalibrated blind
    /// prior sits near 0 when the zoo runs long.
    pub fn eta_coverage(&self) -> f64 {
        if self.eta_q_jobs == 0 {
            1.0
        } else {
            self.eta_q_covered as f64 / self.eta_q_jobs as f64
        }
    }

    /// Build the rollup from per-job records and platform counters.
    /// Latency/queue/startup quantiles and route counts cover jobs that
    /// actually ran; budget-rejected jobs are reported separately.
    ///
    /// One pass over the records feeds every accumulator (each was its own
    /// filter scan once — measurably hot on large sweeps); per-field
    /// summation order stays record order, so the floats are bit-identical
    /// to the multi-pass rollup.
    pub fn from_records(
        policy: &str,
        seed: u64,
        records: Vec<JobRecord>,
        totals: PlatformTotals,
    ) -> FleetMetrics {
        let n = records.len();
        let mut lat_s = Vec::with_capacity(n);
        let mut queue_s = Vec::with_capacity(n);
        let mut startup_s = Vec::with_capacity(n);
        let mut run_apes = Vec::new();
        let mut cost_apes = Vec::new();
        let mut faas_cost = Cost::ZERO;
        let (mut jobs_on_faas, mut jobs_on_iaas, mut jobs_on_spot) = (0usize, 0usize, 0usize);
        let (mut deadline_jobs, mut deadline_hits, mut deadline_jobs_rejected) =
            (0usize, 0usize, 0usize);
        let (mut rejected_jobs, mut deferred_jobs) = (0usize, 0usize);
        let (mut eta_q_jobs, mut eta_q_covered) = (0usize, 0usize);
        let (mut spot_attempts, mut resumes, mut checkpoint_writes) = (0u64, 0u64, 0u64);
        let mut lost_work = SimTime::ZERO;
        let mut checkpoint_cost = Cost::ZERO;
        // Tenant → accumulated service (worker-seconds); the dense map
        // is drained ascending by tenant id so the fairness index sums
        // tenants exactly as [`per_tenant_rows`] reports them.
        let mut service: crate::intern::TenantMap<f64> = crate::intern::TenantMap::new();
        for r in &records {
            if r.rejected {
                rejected_jobs += 1;
                if r.deadline.is_some() {
                    deadline_jobs_rejected += 1;
                }
            } else {
                lat_s.push(r.latency().as_secs());
                queue_s.push(r.queue.as_secs());
                startup_s.push(r.startup.as_secs());
                match r.route {
                    Route::Faas => {
                        jobs_on_faas += 1;
                        faas_cost += r.cost;
                    }
                    Route::Iaas => jobs_on_iaas += 1,
                    Route::Spot => jobs_on_spot += 1,
                }
                if r.deadline.is_some() {
                    deadline_jobs += 1;
                }
            }
            if r.deadline_met() == Some(true) {
                deadline_hits += 1;
            }
            if r.deferred {
                deferred_jobs += 1;
            }
            if let Some(a) = r.runtime_ape() {
                run_apes.push(a);
            }
            if let Some(a) = r.cost_ape() {
                cost_apes.push(a);
            }
            if let Some(covered) = r.eta_covered() {
                eta_q_jobs += 1;
                if covered {
                    eta_q_covered += 1;
                }
            }
            spot_attempts += r.spot_attempts as u64;
            resumes += r.resumes as u64;
            lost_work += r.lost_work;
            checkpoint_writes += r.checkpoint_writes as u64;
            checkpoint_cost += r.checkpoint_cost;
            *service.get_or_insert_with(r.tenant, || 0.0) += r.workers as f64 * r.run.as_secs();
        }
        let latency = Quantiles::from_values(lat_s);
        let queue = Quantiles::from_values(queue_s);
        let startup = Quantiles::from_values(startup_s);
        let makespan = JobRecord::makespan(&records);
        let predicted_jobs = run_apes.len();
        let runtime_mape = mape(run_apes.into_iter());
        let cost_mape = mape(cost_apes.into_iter());
        let fairness = jain_index(
            &service
                .into_iter_sorted()
                .map(|(_, s)| s)
                .collect::<Vec<_>>(),
        );
        FleetMetrics {
            policy: policy.to_string(),
            seed,
            n_jobs: n,
            makespan,
            latency,
            queue,
            startup,
            faas_cost,
            faas_provisioned_cost: totals.faas_provisioned_cost,
            iaas_cost: totals.iaas_cost,
            spot_cost: totals.spot_cost,
            jobs_on_faas,
            jobs_on_iaas,
            jobs_on_spot,
            warm_hit_rate: totals.warm_hit_rate,
            cold_starts: totals.cold_starts,
            iaas_utilization: totals.iaas_utilization,
            iaas_peak_instances: totals.iaas_peak_instances,
            faas_peak_concurrency: totals.faas_peak_concurrency,
            spot_peak_instances: totals.spot_peak_instances,
            preemptions: totals.preemptions,
            resumes,
            lost_work,
            checkpoint_writes,
            checkpoint_cost,
            rejected_jobs,
            deferred_jobs,
            predicted_jobs,
            runtime_mape,
            cost_mape,
            eta_q_jobs,
            eta_q_covered,
            spot_attempts,
            deadline_jobs,
            deadline_hits,
            deadline_jobs_rejected,
            fairness,
            records,
        }
    }

    /// Runtime MAPE over `k` consecutive windows of the predicted jobs (in
    /// submission order) — the convergence trajectory of a learning
    /// estimator. Windows with no predicted jobs report 0.0.
    pub fn runtime_mape_windows(&self, k: usize) -> Vec<f64> {
        assert!(k >= 1, "need at least one window");
        let apes: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.runtime_ape())
            .collect();
        (0..k)
            .map(|w| {
                let lo = w * apes.len() / k;
                let hi = (w + 1) * apes.len() / k;
                mape(apes[lo..hi].iter().copied())
            })
            .collect()
    }

    /// P95-ETA coverage over `k` consecutive windows of the scoreable jobs
    /// (in submission order) — the calibration trajectory: a learning
    /// estimator's late windows must land in [target, 1] however wrong the
    /// zoo is. Windows with nothing to score report 1.0 (vacuous).
    pub fn eta_coverage_windows(&self, k: usize) -> Vec<f64> {
        assert!(k >= 1, "need at least one window");
        let covers: Vec<bool> = self
            .records
            .iter()
            .filter_map(|r| r.eta_covered())
            .collect();
        (0..k)
            .map(|w| {
                let lo = w * covers.len() / k;
                let hi = (w + 1) * covers.len() / k;
                if lo == hi {
                    return 1.0;
                }
                covers[lo..hi].iter().filter(|&&c| c).count() as f64 / (hi - lo) as f64
            })
            .collect()
    }

    /// Per-class breakdown of the jobs that ran, in class order — named
    /// [`ClassRow`]s, prediction error included.
    fn per_class(&self) -> Vec<ClassRow> {
        // One bucketing pass instead of a scan per class; buckets keep
        // record order, so per-class sums and quantiles are bit-identical.
        let mut buckets: Vec<Vec<&JobRecord>> = vec![Vec::new(); JobClass::ALL.len()];
        for r in self.records.iter().filter(|r| !r.rejected) {
            buckets[r.class as usize].push(r);
        }
        JobClass::ALL
            .into_iter()
            .filter_map(|c| {
                let rs = &buckets[c as usize];
                if rs.is_empty() {
                    return None;
                }
                let lat =
                    Quantiles::from_values(rs.iter().map(|r| r.latency().as_secs()).collect());
                let mean_cost = rs.iter().map(|r| r.cost.as_usd()).sum::<f64>() / rs.len() as f64;
                Some(ClassRow {
                    class: c,
                    jobs: rs.len(),
                    latency_p99: lat.p99,
                    mean_cost,
                    predicted: rs.iter().filter_map(|r| r.runtime_ape()).count(),
                    runtime_mape: mape(rs.iter().filter_map(|r| r.runtime_ape())),
                    cost_mape: mape(rs.iter().filter_map(|r| r.cost_ape())),
                })
            })
            .collect()
    }

    /// Per-tenant rollup (jobs, p99 latency, attributed dollars, delivered
    /// service), ascending by tenant id.
    pub fn per_tenant(&self) -> Vec<TenantRow> {
        per_tenant_rows(&self.records)
    }

    /// Deterministic JSON export. Two runs with the same inputs produce
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        let per_class = self.per_class();
        let per_tenant = self.per_tenant();
        let bound = json::object_bound(METRICS_KEYS)
            + json::quoted_bound(&self.policy)
            + 3 * json::object_bound(QUANTILE_KEYS)
            + per_class.len() * (json::object_bound(CLASS_KEYS) + 1)
            + per_tenant.len() * (json::object_bound(TENANT_KEYS) + 1);
        json::document(bound, |o| {
            o.str("schema", "lml-fleet/metrics/v1")
                .str("policy", &self.policy)
                .u64("seed", self.seed)
                .u64("jobs", self.n_jobs as u64)
                .f64("makespan_s", self.makespan.as_secs())
                .f64("throughput_jobs_per_s", self.throughput())
                .object("latency_s", |o| self.latency.json_fields(o))
                .object("queue_s", |o| self.queue.json_fields(o))
                .object("startup_s", |o| self.startup.json_fields(o))
                .f64("faas_cost_usd", self.faas_cost.as_usd())
                .f64(
                    "faas_provisioned_cost_usd",
                    self.faas_provisioned_cost.as_usd(),
                )
                .f64("iaas_cost_usd", self.iaas_cost.as_usd())
                .f64("spot_cost_usd", self.spot_cost.as_usd())
                .f64("total_cost_usd", self.total_cost().as_usd())
                .u64("jobs_on_faas", self.jobs_on_faas as u64)
                .u64("jobs_on_iaas", self.jobs_on_iaas as u64)
                .u64("jobs_on_spot", self.jobs_on_spot as u64)
                .f64("warm_hit_rate", self.warm_hit_rate)
                .u64("cold_starts", self.cold_starts)
                .f64("iaas_utilization", self.iaas_utilization)
                .u64("iaas_peak_instances", self.iaas_peak_instances as u64)
                .u64("faas_peak_concurrency", self.faas_peak_concurrency as u64)
                .u64("spot_peak_instances", self.spot_peak_instances as u64)
                .u64("preemptions", self.preemptions)
                .u64("resumes", self.resumes)
                .f64("lost_work_s", self.lost_work.as_secs())
                .u64("checkpoint_writes", self.checkpoint_writes)
                .f64("checkpoint_cost_usd", self.checkpoint_cost.as_usd())
                .u64("rejected_jobs", self.rejected_jobs as u64)
                .u64("deferred_jobs", self.deferred_jobs as u64)
                .u64("predicted_jobs", self.predicted_jobs as u64)
                .f64("runtime_mape", self.runtime_mape)
                .f64("cost_mape", self.cost_mape)
                .u64("eta_q_jobs", self.eta_q_jobs as u64)
                .u64("eta_q_covered", self.eta_q_covered as u64)
                .f64("eta_q_coverage", self.eta_coverage())
                .u64("spot_attempts", self.spot_attempts)
                .u64("deadline_jobs", self.deadline_jobs as u64)
                .u64("deadline_hits", self.deadline_hits as u64)
                .u64("deadline_jobs_rejected", self.deadline_jobs_rejected as u64)
                .f64("deadline_hit_rate", self.deadline_hit_rate())
                .f64("fairness", self.fairness)
                .array("per_class", |a| {
                    for c in &per_class {
                        a.object(|o| {
                            o.str("class", c.class.name())
                                .u64("jobs", c.jobs as u64)
                                .f64("latency_p99_s", c.latency_p99)
                                .f64("mean_cost_usd", c.mean_cost)
                                .u64("predicted", c.predicted as u64)
                                .f64("runtime_mape", c.runtime_mape)
                                .f64("cost_mape", c.cost_mape);
                        });
                    }
                })
                .array("per_tenant", |a| {
                    for t in &per_tenant {
                        a.object(|o| {
                            o.u64("tenant", t.tenant as u64)
                                .u64("jobs", t.jobs as u64)
                                .u64("rejected", t.rejected as u64)
                                .u64("deferred", t.deferred as u64)
                                .f64("latency_p99_s", t.latency_p99)
                                .f64("cost_usd", t.cost.as_usd())
                                .f64("service_worker_s", t.service);
                        });
                    }
                });
        })
    }

    /// One-line human summary — two lines when any tenant was deferred or
    /// rejected, so the console view names the tenants the admission layer
    /// actually refused (the JSON rollups always carry the per-tenant
    /// breakdown; this keeps the human view honest with it).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:>14}: {} jobs | p50 {} p95 {} p99 {} | {} total | dl {:.0}% | fair {:.2} | preempt {} resume {} lost {} | warm {:.0}% | util {:.0}%",
            self.policy,
            self.n_jobs,
            SimTime::secs(self.latency.p50),
            SimTime::secs(self.latency.p95),
            SimTime::secs(self.latency.p99),
            self.total_cost(),
            self.deadline_hit_rate() * 100.0,
            self.fairness,
            self.preemptions,
            self.resumes,
            self.lost_work,
            self.warm_hit_rate * 100.0,
            self.iaas_utilization * 100.0,
        );
        if self.deferred_jobs > 0 || self.rejected_jobs > 0 {
            let refused: Vec<String> = self
                .per_tenant()
                .iter()
                .filter(|t| t.deferred > 0 || t.rejected > 0)
                .map(|t| format!("t{} defer {} reject {}", t.tenant, t.deferred, t.rejected))
                .collect();
            s.push_str(&format!(
                "\n{:>14}  admission: {}",
                "", // align under the policy name column
                refused.join(" | ")
            ));
        }
        s
    }
}

// The keys each part of the metrics document writes — the inputs to its
// upper bound (see `json::object_bound`).
const METRICS_KEYS: &[&str] = &[
    "schema",
    "policy",
    "seed",
    "jobs",
    "makespan_s",
    "throughput_jobs_per_s",
    "latency_s",
    "queue_s",
    "startup_s",
    "faas_cost_usd",
    "faas_provisioned_cost_usd",
    "iaas_cost_usd",
    "spot_cost_usd",
    "total_cost_usd",
    "jobs_on_faas",
    "jobs_on_iaas",
    "jobs_on_spot",
    "warm_hit_rate",
    "cold_starts",
    "iaas_utilization",
    "iaas_peak_instances",
    "faas_peak_concurrency",
    "spot_peak_instances",
    "preemptions",
    "resumes",
    "lost_work_s",
    "checkpoint_writes",
    "checkpoint_cost_usd",
    "rejected_jobs",
    "deferred_jobs",
    "predicted_jobs",
    "runtime_mape",
    "cost_mape",
    "eta_q_jobs",
    "eta_q_covered",
    "eta_q_coverage",
    "spot_attempts",
    "deadline_jobs",
    "deadline_hits",
    "deadline_jobs_rejected",
    "deadline_hit_rate",
    "fairness",
    "per_class",
    "per_tenant",
];
const QUANTILE_KEYS: &[&str] = &["mean", "p50", "p95", "p99", "max"];
const CLASS_KEYS: &[&str] = &[
    "class",
    "jobs",
    "latency_p99_s",
    "mean_cost_usd",
    "predicted",
    "runtime_mape",
    "cost_mape",
];
const TENANT_KEYS: &[&str] = &[
    "tenant",
    "jobs",
    "rejected",
    "deferred",
    "latency_p99_s",
    "cost_usd",
    "service_worker_s",
];

fn per_tenant_rows(records: &[JobRecord]) -> Vec<TenantRow> {
    /// Running per-tenant tallies; latencies collect for the quantile pass.
    struct Acc {
        jobs: usize,
        rejected: usize,
        deferred: usize,
        cost: Cost,
        service: f64,
        lat_s: Vec<f64>,
    }
    // One bucketing pass instead of a full scan per tenant; the dense
    // map is drained ascending by tenant id, and per-tenant accumulation
    // stays in record order, so sums and quantiles are bit-identical.
    let mut accs: crate::intern::TenantMap<Acc> = crate::intern::TenantMap::new();
    for r in records {
        let a = accs.get_or_insert_with(r.tenant, || Acc {
            jobs: 0,
            rejected: 0,
            deferred: 0,
            cost: Cost::ZERO,
            service: 0.0,
            lat_s: Vec::new(),
        });
        a.jobs += 1;
        if r.rejected {
            a.rejected += 1;
        } else {
            a.lat_s.push(r.latency().as_secs());
        }
        if r.deferred {
            a.deferred += 1;
        }
        a.cost += r.cost;
        a.service += r.workers as f64 * r.run.as_secs();
    }
    accs.into_iter_sorted()
        .map(|(t, a)| TenantRow {
            tenant: t,
            jobs: a.jobs,
            rejected: a.rejected,
            deferred: a.deferred,
            latency_p99: Quantiles::from_values(a.lat_s).p99,
            cost: a.cost,
            service: a.service,
        })
        .collect()
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 for an even allocation,
/// `1/n` when one party takes everything. Empty or all-zero → 1.0
/// (vacuously fair).
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    // Exact-zero guard: all-zero allocations are perfectly fair.
    // lml-analyze: allow(float-eq)
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, route: Route, queue: f64, run: f64, cost: f64) -> JobRecord {
        JobRecord {
            id,
            class: JobClass::LrHiggs,
            route,
            workers: 10,
            tenant: (id % 2) as TenantId,
            submit: SimTime::secs(id as f64),
            deadline: None,
            queue: SimTime::secs(queue),
            startup: SimTime::secs(1.0),
            run: SimTime::secs(run),
            warm_hits: 0,
            preemptions: 0,
            resumes: 0,
            spot_attempts: 0,
            lost_work: SimTime::ZERO,
            checkpoint_writes: 0,
            checkpoint_cost: Cost::ZERO,
            rejected: false,
            deferred: false,
            predicted_run: None,
            predicted_run_q: None,
            predicted_cost: None,
            cost: Cost::usd(cost),
        }
    }

    fn totals() -> PlatformTotals {
        PlatformTotals {
            iaas_cost: Cost::usd(2.0),
            warm_hit_rate: 0.5,
            cold_starts: 3,
            iaas_utilization: 0.8,
            iaas_peak_instances: 20,
            faas_peak_concurrency: 100,
            ..Default::default()
        }
    }

    fn metrics(records: Vec<JobRecord>) -> FleetMetrics {
        FleetMetrics::from_records("test", 1, records, totals())
    }

    #[test]
    fn rollup_accounts_costs_by_route() {
        let m = metrics(vec![
            rec(0, Route::Faas, 0.0, 10.0, 0.5),
            rec(1, Route::Iaas, 5.0, 10.0, 0.1),
        ]);
        // IaaS job cost is attributed but the pool bill is authoritative.
        assert_eq!(m.faas_cost, Cost::usd(0.5));
        assert_eq!(m.iaas_cost, Cost::usd(2.0));
        assert_eq!(m.total_cost(), Cost::usd(2.5));
        assert_eq!(m.jobs_on_faas, 1);
        assert_eq!(m.jobs_on_iaas, 1);
        assert_eq!(m.jobs_on_spot, 0);
    }

    #[test]
    fn latency_quantiles_cover_queue_and_startup() {
        let m = metrics(vec![rec(0, Route::Faas, 4.0, 10.0, 0.1)]);
        assert!((m.latency.p50 - 15.0).abs() < 1e-9, "4 + 1 + 10");
        assert!((m.queue.max - 4.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_versioned() {
        let json = metrics(vec![rec(0, Route::Faas, 0.0, 10.0, 0.5)]).to_json();
        assert!(json.starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
        assert!(json.contains(r#""per_tenant":["#));
    }

    #[test]
    fn makespan_is_last_finish() {
        let m = metrics(vec![
            rec(0, Route::Faas, 0.0, 10.0, 0.1),
            rec(5, Route::Faas, 0.0, 3.0, 0.1),
        ]);
        // job 1: submit 5 + 1 startup + 3 run = 9; job 0 finishes at 11.
        assert_eq!(m.makespan, SimTime::secs(11.0));
    }

    #[test]
    fn deadline_hit_rate_counts_only_deadline_jobs() {
        let mut hit = rec(0, Route::Faas, 0.0, 10.0, 0.1);
        hit.deadline = Some(SimTime::secs(100.0)); // finishes at 11
        let mut miss = rec(1, Route::Faas, 0.0, 10.0, 0.1);
        miss.deadline = Some(SimTime::secs(5.0)); // finishes at 12
        let free = rec(2, Route::Faas, 0.0, 10.0, 0.1);
        let m = metrics(vec![hit, miss, free]);
        assert_eq!(m.deadline_jobs, 2);
        assert_eq!(m.deadline_hits, 1);
        assert!((m.deadline_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(metrics(vec![free]).deadline_hit_rate(), 1.0);
    }

    #[test]
    fn jain_index_brackets_even_and_starved() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        let skewed = jain_index(&[9.0, 1.0]);
        assert!(skewed > 0.5 && skewed < 1.0, "{skewed}");
    }

    #[test]
    fn rejected_jobs_are_excluded_from_run_stats_but_surfaced() {
        let mut rej = rec(1, Route::Faas, 0.0, 0.0, 0.0);
        rej.rejected = true;
        rej.run = SimTime::ZERO;
        let ran = rec(0, Route::Faas, 0.0, 10.0, 0.5);
        let m = metrics(vec![ran, rej]);
        assert_eq!(m.n_jobs, 2);
        assert_eq!(m.rejected_jobs, 1);
        assert_eq!(m.jobs_on_faas, 1, "rejected jobs never reach a route");
        assert!(
            (m.latency.max - 11.0).abs() < 1e-9,
            "quantiles skip rejects"
        );
        let rows = m.per_tenant();
        assert_eq!((rows[1].tenant, rows[1].jobs, rows[1].rejected), (1, 1, 1));
        assert_eq!(rows[0].rejected, 0);
        let json = m.to_json();
        assert!(json.contains(r#""rejected_jobs":1"#));
        assert!(json.contains(r#""rejected":1"#));
        // A rejected job with a deadline counts as neither hit nor miss —
        // but it is surfaced, so refusing doomed work can't read as
        // improving deadline performance.
        let mut rej_dl = rec(2, Route::Faas, 0.0, 0.0, 0.0);
        rej_dl.rejected = true;
        rej_dl.deadline = Some(SimTime::secs(1.0));
        let m = metrics(vec![rej_dl]);
        assert_eq!(m.deadline_jobs, 0);
        assert_eq!(m.deadline_hit_rate(), 1.0, "vacuously met");
        assert_eq!(m.deadline_jobs_rejected, 1);
        assert!(m.to_json().contains(r#""deadline_jobs_rejected":1"#));
    }

    #[test]
    fn recovery_counters_roll_up_and_price_in() {
        let mut a = rec(0, Route::Spot, 0.0, 30.0, 0.2);
        a.preemptions = 2;
        a.resumes = 2;
        a.lost_work = SimTime::secs(7.5);
        a.checkpoint_writes = 4;
        a.checkpoint_cost = Cost::usd(0.01);
        let mut b = rec(1, Route::Spot, 0.0, 20.0, 0.1);
        b.lost_work = SimTime::secs(2.5);
        b.checkpoint_writes = 1;
        b.checkpoint_cost = Cost::usd(0.002);
        let m = metrics(vec![a, b]);
        assert_eq!(m.resumes, 2);
        assert_eq!(m.checkpoint_writes, 5);
        assert_eq!(m.lost_work, SimTime::secs(10.0));
        assert!((m.checkpoint_cost.as_usd() - 0.012).abs() < 1e-12);
        // Checkpoint dollars are part of the total bill.
        assert!((m.total_cost().as_usd() - (2.0 + 0.012)).abs() < 1e-12);
        let json = m.to_json();
        assert!(json.contains(r#""lost_work_s":10.0"#));
        assert!(json.contains(r#""resumes":2"#));
        assert!(json.contains(r#""checkpoint_writes":5"#));
    }

    #[test]
    fn prediction_error_rolls_up_as_mape() {
        // Job 0: predicted 8 s for a 10 s run (APE 0.2), cost spot-on.
        let mut a = rec(0, Route::Faas, 0.0, 10.0, 0.5);
        a.predicted_run = Some(SimTime::secs(8.0));
        a.predicted_cost = Some(Cost::usd(0.5));
        // Job 1: predicted 30 s for a 20 s run (APE 0.5), cost double.
        let mut b = rec(1, Route::Iaas, 0.0, 20.0, 0.1);
        b.predicted_run = Some(SimTime::secs(30.0));
        b.predicted_cost = Some(Cost::usd(0.2));
        // Job 2: no prediction (constant router) — excluded from MAPE.
        let c = rec(2, Route::Faas, 0.0, 10.0, 0.1);
        let m = metrics(vec![a, b, c]);
        assert_eq!(m.predicted_jobs, 2);
        assert!((m.runtime_mape - 0.35).abs() < 1e-12, "{}", m.runtime_mape);
        assert!((m.cost_mape - 0.5).abs() < 1e-12, "{}", m.cost_mape);
        let json = m.to_json();
        assert!(json.contains(r#""predicted_jobs":2"#));
        assert!(json.contains(r#""runtime_mape":0.35"#));
        assert!(json.contains(r#""cost_mape":0.5"#));
        // Per-class rows carry their own MAPE (all records are LrHiggs).
        let rows = m.per_class();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].predicted, 2);
        assert!((rows[0].runtime_mape - 0.35).abs() < 1e-12);
        // Windowed MAPE in submission order: [0.2], [0.5].
        assert_eq!(m.runtime_mape_windows(2), vec![0.2, 0.5]);
        // Predictions on nothing → MAPE 0, no predicted jobs.
        let empty = metrics(vec![rec(0, Route::Faas, 0.0, 10.0, 0.1)]);
        assert_eq!(empty.predicted_jobs, 0);
        assert_eq!(empty.runtime_mape, 0.0);
    }

    #[test]
    fn eta_coverage_rolls_up_and_windows() {
        // Job 0: P95 ETA 12 s covers the 10 s run; job 1: ETA 15 s misses
        // the 20 s run; job 2: no quantile snapshot — not scoreable.
        let mut a = rec(0, Route::Faas, 0.0, 10.0, 0.5);
        a.predicted_run_q = Some(SimTime::secs(12.0));
        let mut b = rec(1, Route::Iaas, 0.0, 20.0, 0.1);
        b.predicted_run_q = Some(SimTime::secs(15.0));
        b.spot_attempts = 2;
        let c = rec(2, Route::Faas, 0.0, 10.0, 0.1);
        let m = metrics(vec![a, b, c]);
        assert_eq!(m.eta_q_jobs, 2);
        assert_eq!(m.eta_q_covered, 1);
        assert!((m.eta_coverage() - 0.5).abs() < 1e-12);
        assert_eq!(m.spot_attempts, 2);
        assert_eq!(m.eta_coverage_windows(2), vec![1.0, 0.0]);
        let json = m.to_json();
        assert!(json.contains(r#""eta_q_jobs":2"#));
        assert!(json.contains(r#""eta_q_covered":1"#));
        assert!(json.contains(r#""eta_q_coverage":0.5"#));
        assert!(json.contains(r#""spot_attempts":2"#));
        // Nothing scoreable → vacuously covered, never NaN.
        let empty = metrics(vec![rec(0, Route::Faas, 0.0, 10.0, 0.1)]);
        assert_eq!(empty.eta_coverage(), 1.0);
        assert_eq!(empty.eta_coverage_windows(3), vec![1.0, 1.0, 1.0]);
        // An exact prediction (zero-margin estimator) counts as covered.
        let mut exact = rec(0, Route::Faas, 0.0, 10.0, 0.1);
        exact.predicted_run_q = Some(SimTime::secs(10.0));
        assert_eq!(exact.eta_covered(), Some(true));
    }

    #[test]
    fn deferred_jobs_roll_up_per_tenant_and_fleet_wide() {
        let mut d = rec(1, Route::Iaas, 30.0, 10.0, 0.1); // tenant 1
        d.deferred = true;
        let m = metrics(vec![rec(0, Route::Faas, 0.0, 10.0, 0.2), d]);
        assert_eq!(m.deferred_jobs, 1);
        assert_eq!(m.rejected_jobs, 0, "deferral is not rejection");
        let rows = m.per_tenant();
        assert_eq!((rows[1].tenant, rows[1].deferred), (1, 1));
        assert_eq!(rows[0].deferred, 0);
        let json = m.to_json();
        assert!(json.contains(r#""deferred_jobs":1"#));
        assert!(json.contains(r#""deferred":1"#));
    }

    #[test]
    fn per_tenant_rollup_splits_by_tenant() {
        let m = metrics(vec![
            rec(0, Route::Faas, 0.0, 10.0, 0.4), // tenant 0
            rec(1, Route::Iaas, 0.0, 20.0, 0.2), // tenant 1
            rec(2, Route::Faas, 0.0, 10.0, 0.4), // tenant 0
        ]);
        let rows = m.per_tenant();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].tenant, rows[0].jobs), (0, 2));
        assert_eq!((rows[1].tenant, rows[1].jobs), (1, 1));
        assert!((rows[0].service - 200.0).abs() < 1e-9, "2 × 10w × 10s");
        assert!((rows[1].service - 200.0).abs() < 1e-9, "1 × 10w × 20s");
        assert!((m.fairness - 1.0).abs() < 1e-12, "equal service is fair");
        assert_eq!(rows[0].cost, Cost::usd(0.8));
    }
}
