//! Integration tests of the risk subsystem through the public `lambdaml`
//! surface: calibrated P95-ETA coverage on a miscalibrated zoo, learned
//! preemption rates beating (and never losing to) the static-mean config
//! in spot admission, deferral-vs-rejection pricing, and NaN-free metrics
//! JSON across degenerate fleets.

use lambdaml::fleet::{
    replay, simulate, AllFaas, Analytic, ArrivalProcess, CheckpointPolicy, CostAware,
    DeadlineAware, Estimator, FleetConfig, FleetMetrics, InMemorySource, JobClass, JobMix,
    JobRequest, Online, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;

/// The PR 4 estimator testbed: a fixed reserved pool at ~80% utilization,
/// convex classes, deadlines at 2.7× nominal, `epoch_scale` 2.0 — every
/// job really needs twice the epochs the analytic prior assumes.
fn miscalibrated_fleet(est: Box<dyn Estimator>, seed: u64) -> FleetMetrics {
    let spec = TenantSpec {
        n_tenants: 3,
        deadline_frac: 0.6,
        deadline_slack: 2.7,
    };
    let mix = JobMix::new(vec![(JobClass::LrHiggs, 0.75), (JobClass::KmHiggs, 0.25)]);
    let trace = Trace::generate_multi(
        ArrivalProcess::Poisson { rate: 0.03 },
        &mix,
        &spec,
        300,
        seed,
    );
    let mut cfg = FleetConfig {
        epoch_scale: 2.0,
        ..FleetConfig::default()
    };
    cfg.iaas.min_instances = 60;
    cfg.iaas.max_instances = 60;
    let mut sched = DeadlineAware::for_config(&cfg).with_estimator(est);
    simulate(&trace, &cfg, &mut sched, seed)
}

/// The spot-admission testbed: a spot-eligible deadline fleet under
/// checkpoint recovery on a hostile market (true per-instance MTTP
/// `true_mttp`), with the scheduler's configured prior `prior_err`× the
/// truth — frozen at the config (`static_rate`) or learned online.
fn risk_fleet(true_mttp: f64, prior_err: f64, static_rate: bool, seed: u64) -> FleetMetrics {
    let spec = TenantSpec {
        n_tenants: 2,
        deadline_frac: 0.5,
        deadline_slack: 6.0,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Poisson { rate: 0.05 },
        &JobMix::only(JobClass::LrHiggs),
        &spec,
        300,
        seed,
    );
    let mut cfg = FleetConfig::default();
    cfg.spot.mean_time_to_preempt = SimTime::secs(true_mttp);
    cfg.checkpoint = CheckpointPolicy::every(1);
    let mut sched = DeadlineAware::for_config(&cfg)
        .with_spot_fraction(1.0)
        .with_spot_recovery(cfg.checkpoint)
        .with_preemption_prior(SimTime::secs(true_mttp * prior_err));
    if static_rate {
        sched = sched.with_static_preemption();
    }
    simulate(&trace, &cfg, &mut sched, seed)
}

/// Tentpole acceptance (a): the learned P95 ETA's empirical coverage
/// lands in [0.90, 1.0] after the first replay window on the
/// `epoch_scale`-miscalibrated zoo — on three seeds — while the blind
/// prior's "P95" (its mean, half the truth) covers nothing.
#[test]
fn calibrated_p95_coverage_lands_in_band_after_first_window() {
    use lambdaml::fleet::Hybrid;
    for seed in [7, 13, 42] {
        let online = miscalibrated_fleet(Box::new(Online::new(Analytic::new())), seed);
        let windows = online.eta_coverage_windows(3);
        for (w, cov) in windows.iter().enumerate().skip(1) {
            assert!(
                (0.90..=1.0).contains(cov),
                "seed {seed}: window {w} coverage {cov} outside [0.90, 1.0] ({windows:?})"
            );
        }
        // The blend inherits the calibration: Hybrid's published quantile
        // reaches the posterior's cover point even while its mean is
        // dragged toward the wrong prior.
        let hybrid = miscalibrated_fleet(Box::new(Hybrid::new(Analytic::new())), seed);
        let hw = hybrid.eta_coverage_windows(3);
        for (w, cov) in hw.iter().enumerate().skip(1) {
            assert!(
                (0.90..=1.0).contains(cov),
                "seed {seed}: hybrid window {w} coverage {cov} outside [0.90, 1.0] ({hw:?})"
            );
        }
        let blind = miscalibrated_fleet(Box::new(Analytic::new()), seed);
        assert!(
            blind.eta_coverage() < 0.1,
            "seed {seed}: premise — the blind prior's tail must be fiction, got {}",
            blind.eta_coverage()
        );
        assert!(online.eta_q_jobs > 200, "seed {seed}: coverage is scored");
    }
}

/// Tentpole acceptance (b): with the configured mean time to preempt 4×
/// too optimistic, `DeadlineAware` with the learned preemption posterior
/// strictly beats the frozen static-mean variant on deadline-hit rate —
/// and with a correct config the two produce byte-identical metrics
/// (risk-awareness is free when the config is honest).
#[test]
fn learned_preemption_rates_beat_the_static_mean_on_a_wrong_config() {
    for seed in [7, 13, 42] {
        let frozen = risk_fleet(600.0, 4.0, true, seed);
        let learned = risk_fleet(600.0, 4.0, false, seed);
        assert!(
            frozen.deadline_hit_rate() < 1.0,
            "seed {seed}: premise — the wrong config must actually hurt"
        );
        assert!(
            learned.deadline_hit_rate() > frozen.deadline_hit_rate(),
            "seed {seed}: learned {} must strictly beat static {}",
            learned.deadline_hit_rate(),
            frozen.deadline_hit_rate()
        );
        assert!(
            learned.preemptions < frozen.preemptions,
            "seed {seed}: deadline jobs priced off the market stop dying on it"
        );
        // Parity when the config is right: identical decisions, same bytes.
        assert_eq!(
            risk_fleet(600.0, 1.0, true, seed).to_json(),
            risk_fleet(600.0, 1.0, false, seed).to_json(),
            "seed {seed}: honest config must make the variants agree"
        );
    }
}

/// The risk sweep's metrics carry the additive risk keys, and the
/// admission variant shows in them. (The sweep's bytes are pinned by the
/// `fleet_risk` lines of `tests/fleet_artifacts.rs`.)
#[test]
fn risk_metrics_carry_the_additive_keys() {
    let a = risk_fleet(600.0, 4.0, false, 11).to_json();
    assert!(a.starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
    for key in [
        r#""eta_q_jobs":"#,
        r#""eta_q_covered":"#,
        r#""eta_q_coverage":"#,
        r#""spot_attempts":"#,
    ] {
        assert!(a.contains(key), "additive key {key} missing");
    }
    assert_ne!(
        a,
        risk_fleet(600.0, 4.0, true, 11).to_json(),
        "the admission variant visibly changes the rollup"
    );
}

/// A market that never reclaims (`mean_time_to_preempt = +∞`) is a valid
/// config for the replay, and so for risk-aware admission: its learned
/// preemption rate starts at 0. Under every checkpoint policy a spot-heavy
/// replay finishes with no preemption and finite metrics.
#[test]
fn an_infinite_mean_time_to_preempt_never_preempts() {
    let trace = Trace::generate(
        ArrivalProcess::Poisson { rate: 0.05 },
        &JobMix::only(JobClass::LrHiggs),
        100,
        5,
    );
    for policy in [
        CheckpointPolicy::Never,
        CheckpointPolicy::every(1),
        CheckpointPolicy::Adaptive,
    ] {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(f64::INFINITY);
        cfg.checkpoint = policy;
        let mut sched = DeadlineAware::for_config(&cfg)
            .with_spot_fraction(1.0)
            .with_spot_recovery(policy);
        let m = replay(InMemorySource::new(&trace), &cfg, &mut sched, 5)
            .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
        assert!(m.jobs_on_spot > 0, "{}: premise, spot-heavy", policy.name());
        assert_eq!(m.preemptions, 0, "{}", policy.name());
        // `to_json` asserts that every number it writes is finite.
        assert!(m
            .to_json()
            .starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
    }
}

/// Deferral-vs-rejection pricing through the public surface: rejection
/// priced below a P95 deadline miss rejects the over-allowance jobs that
/// deferral can only doom, and defers the rest; the default (equal)
/// prices defer everything.
#[test]
fn admission_pricing_rejects_doomed_jobs_and_defers_viable_ones() {
    let mk_trace = || {
        let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
        burner.tenant = 0;
        let mut doomed = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
        doomed.tenant = 0;
        doomed.deadline = Some(SimTime::secs(300.0)); // before the boundary
        let mut viable = JobRequest::new(2, JobClass::LrHiggs, SimTime::secs(6.0), 10);
        viable.tenant = 0;
        viable.deadline = Some(SimTime::secs(30_000.0));
        Trace::from_jobs(vec![burner, doomed, viable]).with_budget(0, 0.001)
    };
    let cfg = FleetConfig {
        budget_window: Some(SimTime::hours(1.0)),
        rejection_cost: 0.1,
        deadline_miss_cost: 1.0,
        ..FleetConfig::default()
    };
    let m = simulate(&mk_trace(), &cfg, &mut CostAware::new(), 3);
    assert_eq!(m.rejected_jobs, 1, "the doomed job is refused cleanly");
    assert_eq!(m.deferred_jobs, 1, "the viable job waits for its window");
    assert_eq!(m.n_jobs, 3);
    let defaults = FleetConfig {
        budget_window: Some(SimTime::hours(1.0)),
        ..FleetConfig::default()
    };
    let m = simulate(&mk_trace(), &defaults, &mut CostAware::new(), 3);
    assert_eq!(m.rejected_jobs, 0, "equal prices tie, and ties defer");
    assert_eq!(m.deferred_jobs, 2);
}

/// Satellite: `FleetMetrics` JSON must never contain NaN/inf tokens —
/// across empty, all-rejected, zero-slack-deadline, and single-job runs
/// (guards `jain_index`, the MAPEs, and the risk/calibration fields; the
/// JSON emitter itself panics on non-finite floats, so a clean pass means
/// every rollup stayed finite).
#[test]
fn metrics_json_is_nan_free_across_degenerate_fleets() {
    let check = |name: &str, m: &FleetMetrics| {
        let json = m.to_json();
        // Rust's float formatter spells non-finite values "NaN"/"inf";
        // neither token may appear (keys like "tenant" contain lowercase
        // "nan", so the check is case-sensitive on the formatter's
        // spelling).
        for token in ["NaN", "inf"] {
            assert!(
                !json.contains(token),
                "{name}: metrics JSON contains {token:?}"
            );
        }
        assert!(json.starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
    };
    // Empty fleet.
    let cfg = FleetConfig::default();
    check(
        "empty",
        &simulate(&Trace::from_jobs(vec![]), &cfg, &mut CostAware::new(), 1),
    );
    // All jobs rejected (zero-budget tenant): quantiles, MAPEs, coverage
    // and fairness all roll up over nothing that ran.
    let rejected_trace = Trace::from_jobs(
        (0..5)
            .map(|k| JobRequest::new(k, JobClass::LrHiggs, SimTime::secs(k as f64), 10))
            .collect(),
    )
    .with_budget(0, 0.0);
    let m = simulate(&rejected_trace, &cfg, &mut CostAware::new(), 1);
    assert_eq!(m.rejected_jobs, 5, "premise: everything is rejected");
    check("all-rejected", &m);
    // Zero-slack deadlines (deadline == submit): laxity 0 everywhere.
    let zero_dl = Trace::from_jobs(
        (0..4)
            .map(|k| {
                let mut j = JobRequest::new(k, JobClass::SvmRcv1, SimTime::secs(k as f64), 5);
                j.deadline = Some(j.submit);
                j
            })
            .collect(),
    );
    let m = simulate(&zero_dl, &cfg, &mut DeadlineAware::for_config(&cfg), 1);
    assert_eq!(m.deadline_hits, 0, "premise: zero slack misses everything");
    check("zero-deadline", &m);
    // Single job, on both a predicting and a constant router.
    let one = Trace::from_jobs(vec![JobRequest::new(
        0,
        JobClass::KmHiggs,
        SimTime::ZERO,
        10,
    )]);
    check(
        "single-cost-aware",
        &simulate(&one, &cfg, &mut CostAware::new(), 1),
    );
    check("single-all-faas", &simulate(&one, &cfg, &mut AllFaas, 1));
}
