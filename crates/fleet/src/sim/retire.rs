//! Where finished work goes: the retire hook every terminal job passes
//! through exactly once, its two implementors (per-job records for the
//! metrics path, a constant-size fold for the bounded path), and the
//! incremental rollup windows.
//!
//! Nothing here knows about events, queues, schedulers or how a job ran —
//! a sink sees a terminal `(JobRequest, JobState)` pair, and the
//! end-of-replay platform totals ([`ReplayEnd`]).

use super::slab::JobState;
use crate::job::JobRequest;
use crate::lifecycle::JobLifecycle;
use crate::metrics::{FleetMetrics, JobRecord, PlatformTotals, WindowRollup};
use crate::observe::FleetObserver;
use crate::platform::{FaasRegion, IaasPool, SpotTier};
use crate::scheduler::Route;
use lml_sim::{Cost, SimTime};

/// The retire hook: called once per job, when it reaches a terminal
/// lifecycle state and before its slab slot is recycled. `seq` is the
/// job's dense arrival number.
pub(super) trait Retire {
    fn retire(&mut self, seq: u64, job: &JobRequest, state: &JobState);
}

/// What the engine hands back when a replay quiesces: the three platform
/// models (their bills, peaks and hit rates) and the slab's counters.
pub(super) struct ReplayEnd {
    pub(super) faas: FaasRegion,
    pub(super) iaas: IaasPool,
    pub(super) spot: SpotTier,
    pub(super) arrivals: u64,
    pub(super) peak_resident: u64,
}

/// Per-job records indexed by arrival seq — memory O(trace length),
/// exactly what [`FleetMetrics::from_records`] needs.
pub(super) struct RecordSink {
    records: Vec<Option<JobRecord>>,
}

impl RecordSink {
    /// The record vector genuinely reaches trace length, so one exact-fit
    /// allocation from the source's length hint beats a doubling chain of
    /// reallocs mid-replay.
    pub(super) fn new(len_hint: Option<usize>) -> Self {
        RecordSink {
            records: Vec::with_capacity(len_hint.unwrap_or(0)),
        }
    }

    pub(super) fn into_metrics(self, policy: &str, seed: u64, end: ReplayEnd) -> FleetMetrics {
        let records: Vec<JobRecord> = self
            .records
            .into_iter()
            .map(|r| r.expect("every streamed job retires exactly once"))
            .collect();
        // The provisioned floor bills over the makespan (last job finish),
        // not over the last event — the trailing IaaS IdleCheck would
        // otherwise add phantom `IDLE_AFTER` seconds only to policies that
        // touch the pool. One definition, shared with the metrics rollup.
        let makespan = JobRecord::makespan(&records);
        let ReplayEnd {
            faas, iaas, spot, ..
        } = end;
        FleetMetrics::from_records(
            policy,
            seed,
            records,
            PlatformTotals {
                iaas_cost: iaas.cost(),
                warm_hit_rate: faas.warm_hit_rate(),
                cold_starts: faas.cold_starts(),
                iaas_utilization: iaas.utilization(),
                iaas_peak_instances: iaas.peak_capacity(),
                faas_peak_concurrency: faas.peak_concurrency(),
                spot_cost: spot.cost(),
                preemptions: spot.preemptions(),
                faas_provisioned_cost: faas.provisioned_cost(makespan),
                spot_peak_instances: spot.peak_in_use(),
            },
        )
    }
}

impl Retire for RecordSink {
    fn retire(&mut self, seq: u64, j: &JobRequest, s: &JobState) {
        let rec = JobRecord {
            id: j.id,
            class: j.class,
            route: s.route,
            workers: j.workers,
            tenant: j.tenant,
            submit: j.submit,
            deadline: j.deadline,
            queue: s.queue,
            startup: s.startup,
            run: s.run,
            warm_hits: s.warm_hits,
            preemptions: s.preemptions,
            resumes: s.resumes,
            spot_attempts: s.attempt,
            lost_work: s.lost_work,
            checkpoint_writes: s.ckpt_writes,
            checkpoint_cost: s.ckpt_cost,
            rejected: s.lifecycle == JobLifecycle::Rejected,
            deferred: s.deferred,
            predicted_run: s.predicted.map(|e| SimTime::secs(e.time(s.route))),
            // The calibrated P95 ETA snapshotted at admission — what the
            // coverage rollup scores against the actual run.
            predicted_run_q: s.predicted.map(|e| SimTime::secs(e.eta_q(s.route))),
            // Spot attributions ride the market discount the firm-price
            // prediction deliberately ignores; scoring them would report
            // the discount as estimator error, so spot jobs carry no cost
            // prediction (their runtimes still score — spot inflation IS
            // estimator error).
            predicted_cost: match s.route {
                Route::Spot => None,
                _ => s.predicted.map(|e| Cost::usd(e.cost(s.route))),
            },
            cost: s.cost,
        };
        let at = seq as usize;
        if self.records.len() <= at {
            self.records.resize_with(at + 1, || None);
        }
        let cell = &mut self.records[at];
        debug_assert!(cell.is_none(), "job retired twice");
        *cell = Some(rec);
    }
}

/// Constant-size aggregates for the bounded ([`super::replay_stats`])
/// path: every retired job folds in here instead of materializing a
/// record (building one costs an `eta_q` evaluation per job).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct SummaryAcc {
    completed: u64,
    rejected: u64,
    deferred: u64,
    makespan: SimTime,
    /// Attributed dollars of completed FaaS-routed jobs (mirrors the
    /// `faas_cost` term of [`FleetMetrics::total_cost`]).
    faas_attributed: Cost,
    /// Checkpoint dollars across all jobs.
    ckpt_dollars: Cost,
}

impl Retire for SummaryAcc {
    fn retire(&mut self, _seq: u64, j: &JobRequest, s: &JobState) {
        if s.lifecycle == JobLifecycle::Rejected {
            self.rejected += 1;
        } else {
            self.completed += 1;
            let finish = j.submit + s.queue + s.startup + s.run;
            self.makespan = self.makespan.max(finish);
            if s.route == Route::Faas {
                self.faas_attributed += s.cost;
            }
        }
        if s.deferred {
            self.deferred += 1;
        }
        self.ckpt_dollars += s.ckpt_cost;
    }
}

impl SummaryAcc {
    pub(super) fn into_summary(self, end: ReplayEnd) -> ReplaySummary {
        // Same decomposition as FleetMetrics::total_cost, minus the
        // per-record intermediates the bounded path never holds.
        let total_cost = self.faas_attributed
            + end.faas.provisioned_cost(self.makespan)
            + end.iaas.cost()
            + end.spot.cost()
            + self.ckpt_dollars;
        ReplaySummary {
            jobs: end.arrivals,
            completed: self.completed,
            rejected: self.rejected,
            deferred: self.deferred,
            makespan: self.makespan,
            total_cost,
            peak_resident_jobs: end.peak_resident,
        }
    }
}

/// Constant-size outcome of a bounded replay ([`super::replay_stats`]):
/// the headline counters without the per-job records.
///
/// `total_cost` follows the same decomposition as
/// [`FleetMetrics::total_cost`] (FaaS execution + provisioned floor +
/// pool bill + spot bill + checkpoint traffic), but the summation order
/// differs from the record-based rollup, so compare it to the metrics
/// value with a tolerance, never byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaySummary {
    /// Arrivals pulled from the source (the streamed trace length).
    pub jobs: u64,
    /// Jobs that completed (reached `Done`).
    pub completed: u64,
    /// Jobs refused admission.
    pub rejected: u64,
    /// Jobs that sat out at least one budget window.
    pub deferred: u64,
    /// Finish time of the last job that ran.
    pub makespan: SimTime,
    /// Total platform dollars (see type docs for the decomposition).
    pub total_cost: Cost,
    /// High-water mark of the resident job slab — the number the
    /// streaming engine promises stays bounded by the in-flight set.
    pub peak_resident_jobs: u64,
}

/// Incremental rollup bookkeeping (armed only when the observer asks for
/// a [`FleetObserver::rollup_period`]): the counters of the open window.
pub(super) struct RollupState {
    period: SimTime,
    /// The next boundary to flush at.
    next: SimTime,
    index: u64,
    pub(super) submitted: u64,
    pub(super) completed: u64,
    pub(super) rejected: u64,
    pub(super) cost: Cost,
}

impl RollupState {
    pub(super) fn new(period: SimTime) -> Self {
        debug_assert!(period.as_secs() > 0.0, "rollup period must be positive");
        RollupState {
            period,
            next: period,
            index: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            cost: Cost::ZERO,
        }
    }

    /// Hand the open window to the observer.
    fn emit(&self, obs: &mut dyn FleetObserver, resident_jobs: u64) {
        obs.rollup(&WindowRollup {
            index: self.index,
            start: self.next - self.period,
            end: self.next,
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            cost: self.cost,
            resident_jobs,
        });
    }

    /// Flush every window whose boundary the (monotone) event clock has
    /// crossed. Called before processing each event, so counters land in
    /// the window the events actually happened in.
    pub(super) fn flush_to(&mut self, now: SimTime, obs: &mut dyn FleetObserver, resident: u64) {
        while now >= self.next {
            self.emit(obs, resident);
            self.index += 1;
            self.next += self.period;
            self.submitted = 0;
            self.completed = 0;
            self.rejected = 0;
            self.cost = Cost::ZERO;
        }
    }

    /// Emit the trailing partial window, if anything happened since the
    /// last boundary.
    pub(super) fn finish(&self, obs: &mut dyn FleetObserver, resident: u64) {
        // An untouched rollup holds an exact-zero sum. lml-analyze: allow(float-eq)
        if self.submitted + self.completed + self.rejected != 0 || self.cost.as_usd() != 0.0 {
            self.emit(obs, resident);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{replay_observed, replay_stats, simulate, small_trace, FleetConfig};
    use crate::observe::NullObserver;
    use crate::scheduler::{AllFaas, CostAware};
    use crate::stream::InMemorySource;
    use lml_sim::SimTime;

    #[test]
    fn replay_stats_is_bounded_and_consistent() {
        let trace = small_trace(300, 1.0, 11).with_budget(0, 0.02);
        let cfg = FleetConfig::default();
        let m = simulate(&trace, &cfg, &mut CostAware::new(), 11);
        let s = replay_stats(
            InMemorySource::new(&trace),
            &cfg,
            &mut CostAware::new(),
            11,
            &mut NullObserver,
        )
        .expect("in-memory replay_stats cannot fail");
        assert_eq!(s.jobs, 300);
        assert_eq!(s.completed + s.rejected, 300);
        assert_eq!(s.rejected as usize, m.rejected_jobs);
        assert_eq!(s.deferred as usize, m.deferred_jobs);
        assert_eq!(s.makespan, m.makespan, "same fold, same float");
        assert!(
            (s.total_cost.as_usd() - m.total_cost().as_usd()).abs() < 1e-6,
            "bounded total {} vs metrics total {}",
            s.total_cost.as_usd(),
            m.total_cost().as_usd()
        );
        // Retired jobs leave the slab: 11 of the 300 are ever resident at
        // once (measured), where holding the whole trace would read 300.
        assert_eq!(s.peak_resident_jobs, 11);
    }

    #[test]
    fn incremental_rollups_cover_the_run() {
        use crate::observe::RollupCollector;
        let trace = small_trace(200, 1.0, 7);
        let cfg = FleetConfig::default();
        let baseline = simulate(&trace, &cfg, &mut AllFaas, 7).to_json();
        let mut coll = RollupCollector::new(SimTime::secs(600.0));
        let m = replay_observed(
            InMemorySource::new(&trace),
            &cfg,
            &mut AllFaas,
            7,
            &mut coll,
        )
        .expect("rollup-observed replay cannot fail");
        assert_eq!(m.to_json(), baseline, "rollup observer is passive");
        let stats = coll.replay_stats.expect("replay stats delivered");
        assert_eq!(stats.arrivals_streamed, 200);
        assert!(stats.peak_resident_jobs >= 1);
        // Windows are dense from index 0 and the counters partition the
        // whole run: nothing double-counted, nothing dropped.
        for (i, w) in coll.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert_eq!(w.end, w.start + SimTime::secs(600.0));
        }
        let submitted: u64 = coll.windows.iter().map(|w| w.submitted).sum();
        let completed: u64 = coll.windows.iter().map(|w| w.completed).sum();
        let rejected: u64 = coll.windows.iter().map(|w| w.rejected).sum();
        assert_eq!(submitted, 200);
        assert_eq!(completed + rejected, 200);
        let cost: f64 = coll.windows.iter().map(|w| w.cost.as_usd()).sum();
        assert!(
            (cost - m.faas_cost.as_usd()).abs() < 1e-9,
            "windowed dollars must sum to the attributed total"
        );
    }
}
