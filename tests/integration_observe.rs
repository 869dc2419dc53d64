//! Integration tests of the observability layer through the public
//! `lambdaml` surface: byte-stable trace JSON across same-seed runs,
//! record-for-record reconciliation between the observer streams and the
//! `FleetMetrics` rollup, and the behavioral-inertness contract — a
//! `NullObserver` (or any gauge-free observer) leaves the metrics bytes
//! identical to the unobserved simulator.

use lambdaml::fleet::{
    simulate, simulate_observed, ArrivalProcess, CheckpointPolicy, DeadlineAware, Decision,
    FleetConfig, FleetMetrics, FleetObserver, JobLifecycle, JobMix, NullObserver, PlatformEvent,
    RecordingObserver, ReplayStats, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;

/// The example's workload, shrunk: a bursty three-tenant fleet under
/// deadline-aware scheduling with checkpointed spot recovery, a hostile
/// spot market, and a budget-capped tenant priced per job — so lifecycle
/// transitions, spot reclaims, checkpoint writes/restores, deferrals, and
/// rejections all appear in one trace.
fn testbed(seed: u64) -> (Trace, FleetConfig) {
    let spec = TenantSpec {
        n_tenants: 3,
        deadline_frac: 0.5,
        deadline_slack: 4.0,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Burst {
            base_rate: 0.05,
            burst_rate: 0.8,
            period: 1_200.0,
            duty: 0.3,
        },
        &JobMix::default_mix(),
        &spec,
        250,
        seed,
    )
    .with_budget(0, 0.02);
    let mut cfg = FleetConfig {
        budget_window: Some(SimTime::hours(1.0)),
        deadline_miss_cost: 4.0,
        ..FleetConfig::default()
    };
    cfg.spot.mean_time_to_preempt = SimTime::secs(1_800.0);
    cfg.checkpoint = CheckpointPolicy::every(1);
    (trace, cfg)
}

fn scheduler(cfg: &FleetConfig) -> DeadlineAware {
    DeadlineAware::for_config(cfg)
        .with_spot_fraction(0.6)
        .with_spot_recovery(cfg.checkpoint)
}

fn recorded_run(seed: u64) -> (FleetMetrics, RecordingObserver) {
    let (trace, cfg) = testbed(seed);
    let mut sched = scheduler(&cfg);
    let mut obs = RecordingObserver::new().with_gauge_period(SimTime::secs(600.0));
    let m = simulate_observed(&trace, &cfg, &mut sched, seed, &mut obs);
    (m, obs)
}

#[test]
fn trace_json_is_byte_stable_across_same_seed_runs() {
    let (m1, obs1) = recorded_run(42);
    let (m2, obs2) = recorded_run(42);
    assert_eq!(obs1.to_json(), obs2.to_json(), "trace JSON drifted");
    assert_eq!(
        obs1.to_chrome_trace(),
        obs2.to_chrome_trace(),
        "chrome trace drifted"
    );
    assert_eq!(m1.to_json(), m2.to_json(), "metrics drifted");
    assert!(obs1
        .to_json()
        .starts_with(r#"{"schema":"lml-fleet/trace/v1""#));
    assert!(!obs1.gauges.is_empty(), "the gauge clock sampled");
}

#[test]
fn observer_streams_reconcile_with_metrics_record_for_record() {
    let (m, obs) = recorded_run(42);
    // The premise: the workload exercises every stream.
    assert!(m.preemptions > 0 && m.resumes > 0, "spot recovery fired");
    assert!(m.deferred_jobs > 0 && m.rejected_jobs > 0, "pricing fired");

    // Preemptions: one validated `Preempted` transition and one
    // `SpotReclaim` platform event per market strike.
    let preempted = obs
        .events
        .iter()
        .filter(|e| matches!(e.to, JobLifecycle::Preempted { .. }))
        .count() as u64;
    let reclaims = obs
        .platform
        .iter()
        .filter(|(_, ev)| matches!(ev, PlatformEvent::SpotReclaim { .. }))
        .count() as u64;
    assert_eq!(preempted, m.preemptions);
    assert_eq!(reclaims, m.preemptions);

    // Resumes: one `CheckpointRestore` per checkpointed restart.
    let restores = obs
        .platform
        .iter()
        .filter(|(_, ev)| matches!(ev, PlatformEvent::CheckpointRestore { .. }))
        .count() as u64;
    assert_eq!(restores, m.resumes);

    // Checkpoint writes: the platform events carry per-attempt write
    // counts; their sum is the rollup's total.
    let writes: u64 = obs
        .platform
        .iter()
        .map(|(_, ev)| match ev {
            PlatformEvent::CheckpointWrite { writes, .. } => *writes as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(writes, m.checkpoint_writes);

    // Admission audit: one Defer decision per deferred job (re-deferrals
    // at later boundaries hold the job without a new transition), one
    // Reject per rejected job, and a terminal `Done` or `Rejected`
    // transition per job.
    let defers = obs
        .decisions
        .iter()
        .filter(|d| matches!(d.decision, Decision::Defer { .. }))
        .count();
    let rejects = obs
        .decisions
        .iter()
        .filter(|d| matches!(d.decision, Decision::Reject { .. }))
        .count();
    assert_eq!(defers, m.deferred_jobs);
    assert_eq!(rejects, m.rejected_jobs);
    let done = obs
        .events
        .iter()
        .filter(|e| e.to == JobLifecycle::Done)
        .count();
    let rejected = obs
        .events
        .iter()
        .filter(|e| e.to == JobLifecycle::Rejected)
        .count();
    assert_eq!(done, m.n_jobs - m.rejected_jobs);
    assert_eq!(rejected, m.rejected_jobs);

    // Span timings re-sum to the JobRecord columns exactly (same f64
    // operations, same bits) — the invariant the Chrome export rides on.
    for (job, queue, startup, run) in obs.span_timings() {
        let rec = m.records.iter().find(|r| r.id == job).unwrap();
        assert_eq!(queue, rec.queue.as_secs());
        assert_eq!(startup, rec.startup.as_secs());
        assert_eq!(run, rec.run.as_secs());
    }
}

#[test]
fn null_observer_is_behaviorally_inert() {
    let (trace, cfg) = testbed(42);
    // The unobserved simulator…
    let mut sched = scheduler(&cfg);
    let plain = simulate(&trace, &cfg, &mut sched, 42).to_json();
    // …an explicit NullObserver…
    let mut sched = scheduler(&cfg);
    let nulled = simulate_observed(&trace, &cfg, &mut sched, 42, &mut NullObserver).to_json();
    assert_eq!(plain, nulled, "NullObserver changed the metrics bytes");
    // …and even active observers, as long as they leave the gauge clock
    // unarmed (no events enter the queue, nothing the sim reads mutates).
    let mut sched = scheduler(&cfg);
    let mut recording = RecordingObserver::new();
    let recorded = simulate_observed(&trace, &cfg, &mut sched, 42, &mut recording).to_json();
    assert_eq!(plain, recorded, "gauge-free recording changed the metrics");
    // The end-of-run hooks reach an active observer with the run's real
    // counters, and listening to them changes nothing either.
    let mut sched = scheduler(&cfg);
    let mut tally = EndTally::default();
    let tallied = simulate_observed(&trace, &cfg, &mut sched, 42, &mut tally).to_json();
    assert_eq!(
        plain, tallied,
        "listening to replay/end changed the metrics"
    );
    let stats = tally.replay.expect("replay delivered before end");
    let (pushes, pops) = tally.end.expect("end delivered");
    assert!(
        pushes >= pops && pops > 0,
        "heap ops {pushes} >= {pops} > 0"
    );
    assert_eq!(stats.arrivals_streamed, trace.len() as u64);
}

/// Records what the two end-of-run hooks deliver.
#[derive(Default)]
struct EndTally {
    replay: Option<ReplayStats>,
    end: Option<(u64, u64)>,
}

impl FleetObserver for EndTally {
    fn replay(&mut self, stats: &ReplayStats) {
        self.replay = Some(*stats);
    }
    fn end(&mut self, pushes: u64, pops: u64) {
        self.end = Some((pushes, pops));
    }
}
