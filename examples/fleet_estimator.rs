//! The prediction layer in action: what happens when the cost model is
//! wrong — and what an online estimator buys back.
//!
//! Run with: `cargo run --release --example fleet_estimator`
//!
//! Every scheduler prices jobs through a pluggable `Estimator`. Here the
//! job zoo is miscalibrated: every job really needs **twice** the epochs
//! the §5.3 analytic prior assumes (`FleetConfig::epoch_scale = 2.0`).
//! The fleet runs a fixed reserved pool at ~80% utilization, so marginal
//! pool waits decide deadlines — exactly where a 2×-optimistic prior
//! sends deadline jobs onto a pool that just misses. The simulator feeds
//! every completion back to the estimator (`Scheduler::observe`), so the
//! `Online`/`Hybrid` models learn the true runtimes within the first few
//! dozen jobs and start escaping to Lambda instead.

use lambdaml::fleet::{Analytic, Estimator, Hybrid, Online};
use lambdaml::prelude::*;
use lambdaml::sim::SimTime;

fn main() {
    let seed = 42;
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

    let run = |scale: f64, est: Box<dyn Estimator>| {
        let mut cfg = FleetConfig {
            epoch_scale: scale,
            ..FleetConfig::default()
        };
        cfg.iaas.min_instances = 60;
        cfg.iaas.max_instances = 60;
        let mut sched = DeadlineAware::for_config(&cfg).with_estimator(est);
        simulate(&trace, &cfg, &mut sched, seed)
    };

    println!("— miscalibrated zoo (every job needs 2× the epochs the prior assumes) —");
    let blind = run(2.0, Box::new(Analytic::new()));
    let online = run(2.0, Box::new(Online::new(Analytic::new())));
    let hybrid = run(2.0, Box::new(Hybrid::new(Analytic::new())));
    for (name, m) in [
        ("analytic", &blind),
        ("online", &online),
        ("hybrid", &hybrid),
    ] {
        println!(
            "{name:>9}: dl-hit {:>5.1}% | runtime MAPE {:.3} | cost MAPE {:.3} | p99 {}",
            m.deadline_hit_rate() * 100.0,
            m.runtime_mape,
            m.cost_mape,
            SimTime::secs(m.latency.p99),
        );
    }
    assert!(
        hybrid.deadline_hit_rate() > blind.deadline_hit_rate(),
        "hybrid must beat the blind prior on hit rate when the model is wrong"
    );
    assert!(hybrid.runtime_mape < blind.runtime_mape * 0.5);

    // The online model's error collapses as completions feed back.
    let windows = online.runtime_mape_windows(3);
    println!(
        "\nonline runtime MAPE by replay window: {:.3} → {:.3} → {:.3}",
        windows[0], windows[1], windows[2]
    );
    assert!(
        windows[2] < windows[0],
        "feedback must shrink the error over the trace"
    );

    // On a calibrated zoo the prior is right: the learning estimators are
    // seeded from it, so nothing regresses.
    println!("\n— calibrated zoo (the prior is right) —");
    let cal_blind = run(1.0, Box::new(Analytic::new()));
    let cal_hybrid = run(1.0, Box::new(Hybrid::new(Analytic::new())));
    println!(
        " analytic: dl-hit {:>5.1}% | hybrid: dl-hit {:>5.1}%",
        cal_blind.deadline_hit_rate() * 100.0,
        cal_hybrid.deadline_hit_rate() * 100.0,
    );
    assert!(
        cal_hybrid.deadline_hit_rate() >= cal_blind.deadline_hit_rate(),
        "a right prior must not be hurt by the feedback loop"
    );
}
