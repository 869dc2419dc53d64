//! Integration tests of the prediction layer through the public
//! `lambdaml` surface: estimator convergence on a miscalibrated zoo,
//! no-regression when the prior is right, the closed sim→estimator
//! feedback loop, budget deferral, and the prediction metrics' keys.

use lambdaml::fleet::{
    simulate, Analytic, ArrivalProcess, CostAware, DeadlineAware, Estimator, FleetConfig,
    FleetMetrics, Hybrid, JobClass, JobMix, Online, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;

/// The estimator testbed: a fixed reserved pool at ~80% utilization where
/// marginal pool waits decide deadlines, convex classes, deadlines at
/// 2.7× nominal. `epoch_scale` 2.0 miscalibrates the zoo (every job
/// really needs twice the epochs the analytic prior assumes).
fn deadline_fleet(scale: f64, est: Box<dyn Estimator>, seed: u64) -> FleetMetrics {
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
        epoch_scale: scale,
        ..FleetConfig::default()
    };
    cfg.iaas.min_instances = 60;
    cfg.iaas.max_instances = 60;
    let mut sched = DeadlineAware::for_config(&cfg).with_estimator(est);
    simulate(&trace, &cfg, &mut sched, seed)
}

/// The acceptance criterion: `Online` runtime MAPE decreases monotonically
/// across replay windows on a miscalibrated zoo, over three seeds — the
/// feedback loop converges, it doesn't just wobble.
#[test]
fn online_mape_shrinks_monotonically_across_replay_windows() {
    for seed in [7, 13, 42] {
        let m = deadline_fleet(2.0, Box::new(Online::new(Analytic::new())), seed);
        let windows = m.runtime_mape_windows(3);
        assert!(
            windows[0] > windows[1] && windows[1] > windows[2],
            "seed {seed}: windows must strictly shrink, got {windows:?}"
        );
        assert!(
            windows[2] < windows[0] * 0.5,
            "seed {seed}: the last window must at least halve the first: {windows:?}"
        );
    }
}

/// The acceptance criterion: on the miscalibrated zoo, deadline-aware
/// with the `Hybrid` estimator achieves a strictly higher deadline-hit
/// rate than with the blind `Analytic` prior — and slashes the
/// prediction error doing it.
#[test]
fn hybrid_beats_analytic_on_hit_rate_when_the_model_is_wrong() {
    for seed in [7, 13, 42] {
        let blind = deadline_fleet(2.0, Box::new(Analytic::new()), seed);
        let hybrid = deadline_fleet(2.0, Box::new(Hybrid::new(Analytic::new())), seed);
        assert!(
            blind.deadline_hit_rate() < 1.0,
            "seed {seed}: premise — the blind prior must actually miss"
        );
        assert!(
            hybrid.deadline_hit_rate() > blind.deadline_hit_rate(),
            "seed {seed}: hybrid {} must strictly beat analytic {}",
            hybrid.deadline_hit_rate(),
            blind.deadline_hit_rate()
        );
        assert!(
            hybrid.runtime_mape < blind.runtime_mape * 0.5,
            "seed {seed}: hybrid MAPE {} vs analytic {}",
            hybrid.runtime_mape,
            blind.runtime_mape
        );
    }
}

/// No regression when the prior is right: on a well-calibrated zoo the
/// learning estimators are seeded from the analytic prior, so `Hybrid`
/// never does worse than `Analytic` — same hit rate, near-zero error.
#[test]
fn hybrid_never_does_worse_than_analytic_on_a_calibrated_zoo() {
    for seed in [7, 13, 42] {
        let blind = deadline_fleet(1.0, Box::new(Analytic::new()), seed);
        let hybrid = deadline_fleet(1.0, Box::new(Hybrid::new(Analytic::new())), seed);
        let online = deadline_fleet(1.0, Box::new(Online::new(Analytic::new())), seed);
        assert!(
            hybrid.deadline_hit_rate() >= blind.deadline_hit_rate(),
            "seed {seed}: {} vs {}",
            hybrid.deadline_hit_rate(),
            blind.deadline_hit_rate()
        );
        assert!(
            online.deadline_hit_rate() >= blind.deadline_hit_rate(),
            "seed {seed}"
        );
        assert!(blind.runtime_mape < 0.05, "calibrated prior is near-exact");
        assert!(hybrid.runtime_mape < 0.05);
    }
}

/// Prediction metrics carry the additive schema keys, and different
/// estimators leave different bytes. (The estimator sweep's bytes are
/// pinned by the `fleet_estimator` lines of `tests/fleet_artifacts.rs`.)
#[test]
fn prediction_metrics_carry_the_additive_keys() {
    let a = deadline_fleet(2.0, Box::new(Hybrid::new(Analytic::new())), 11).to_json();
    assert!(a.starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
    for key in [
        r#""predicted_jobs":"#,
        r#""runtime_mape":"#,
        r#""cost_mape":"#,
        r#""deferred_jobs":"#,
    ] {
        assert!(a.contains(key), "additive key {key} missing");
    }
    let blind = deadline_fleet(2.0, Box::new(Analytic::new()), 11).to_json();
    assert_ne!(a, blind, "the estimator visibly changes the rollup");
}

/// Budget deferral through the public surface: with an accounting window
/// the capped tenant's overflow waits instead of dying, every job still
/// completes, and the per-tenant rollup surfaces the deferrals.
#[test]
fn budget_window_defers_the_overspending_tail() {
    let spec = TenantSpec {
        n_tenants: 2,
        deadline_frac: 0.0,
        deadline_slack: 3.0,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Poisson { rate: 0.5 },
        &JobMix::convex_mix(),
        &spec,
        300,
        31,
    )
    .with_budget(0, 0.02);
    let cfg = FleetConfig {
        budget_window: Some(SimTime::hours(1.0)),
        ..FleetConfig::default()
    };
    let m = simulate(&trace, &cfg, &mut CostAware::new(), 31);
    assert_eq!(m.rejected_jobs, 0, "deferral replaces rejection");
    assert!(m.deferred_jobs > 0, "the cap must bite");
    assert_eq!(m.n_jobs, 300, "every job completes eventually");
    let rows = m.per_tenant();
    let t0 = rows.iter().find(|t| t.tenant == 0).unwrap();
    let t1 = rows.iter().find(|t| t.tenant == 1).unwrap();
    assert_eq!(t0.deferred, m.deferred_jobs, "all deferrals are tenant 0's");
    assert_eq!(t1.deferred, 0, "the uncapped tenant never waits");
    // Without the window the same trace rejects instead.
    let hard = simulate(&trace, &FleetConfig::default(), &mut CostAware::new(), 31);
    assert!(hard.rejected_jobs > 0);
    assert_eq!(hard.deferred_jobs, 0);
}
