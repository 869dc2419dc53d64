//! Risk-aware scheduling in action: learned preemption rates and
//! calibrated P95 ETAs versus configured constants.
//!
//! Run with: `cargo run --release --example fleet_risk`
//!
//! Two risk decisions, two halves of this example.
//!
//! **Spot admission.** Deadline jobs may ride the spot market under
//! checkpoint recovery — *if* the laxity covers the risk-adjusted ETA.
//! The static-mean variant prices that risk off
//! `SpotConfig::mean_time_to_preempt` alone; here the config is 4× too
//! optimistic about a hostile market (true per-instance MTTP 600 s, the
//! scheduler is told 2 400 s). The learned variant watches the same
//! preemption feed (`Scheduler::observe_preemption`) and overturns the
//! bad config within the first few reclaims.
//!
//! **Calibrated tails.** The `Online` estimator turns its deviation EWMA
//! into a calibrated P95 margin (`Estimate::eta_q`): on a 2×-miscalibrated
//! zoo the blind prior's "P95" covers *nothing* (its mean is half the
//! truth), while the learned margin's empirical coverage converges into
//! the [0.90, 1.0] band within one replay window.

use lambdaml::fleet::{
    simulate, Analytic, ArrivalProcess, CheckpointPolicy, DeadlineAware, Estimator, FleetConfig,
    JobClass, JobMix, Online, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;

fn main() {
    let seed = 42;

    // ---- Half 1: risk-aware spot admission on a lying config ----------
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
    let true_mttp = 600.0;
    let mut cfg = FleetConfig::default();
    cfg.spot.mean_time_to_preempt = SimTime::secs(true_mttp);
    cfg.checkpoint = CheckpointPolicy::every(1);
    let run = |static_rate: bool| {
        let mut sched = DeadlineAware::for_config(&cfg)
            .with_spot_fraction(1.0)
            .with_spot_recovery(cfg.checkpoint)
            // The scheduler is told the market is 4× gentler than it is.
            .with_preemption_prior(SimTime::secs(true_mttp * 4.0));
        if static_rate {
            sched = sched.with_static_preemption();
        }
        simulate(&trace, &cfg, &mut sched, seed)
    };
    let frozen = run(true);
    let learned = run(false);
    println!("— spot admission, config 4× too optimistic (true MTTP {true_mttp} s) —");
    for (name, m) in [("static-mean", &frozen), ("learned", &learned)] {
        println!(
            "{name:>12}: dl-hit {:>5.1}% | preemptions {:>4} | lost {:>6.0} s | {}",
            m.deadline_hit_rate() * 100.0,
            m.preemptions,
            m.lost_work.as_secs(),
            m.total_cost(),
        );
    }
    assert!(
        learned.deadline_hit_rate() > frozen.deadline_hit_rate(),
        "learned preemption rates must beat the static mean on a 4×-wrong config"
    );
    assert!(
        learned.preemptions < frozen.preemptions,
        "pricing deadline jobs off a hostile market must cut preemptions"
    );

    // With a *correct* config the two admissions agree exactly: the
    // posterior starts at the truth and stays there.
    let run_honest = |static_rate: bool| {
        let mut sched = DeadlineAware::for_config(&cfg)
            .with_spot_fraction(1.0)
            .with_spot_recovery(cfg.checkpoint)
            .with_preemption_prior(SimTime::secs(true_mttp));
        if static_rate {
            sched = sched.with_static_preemption();
        }
        simulate(&trace, &cfg, &mut sched, seed)
    };
    assert_eq!(
        run_honest(true).to_json(),
        run_honest(false).to_json(),
        "an honest config makes risk-awareness free"
    );
    println!("\nhonest config: learned and static admissions are byte-identical ✓");

    // ---- Half 2: calibrated P95 ETAs on a miscalibrated zoo -----------
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
        epoch_scale: 2.0, // every job really needs twice the prior's epochs
        ..FleetConfig::default()
    };
    cfg.iaas.min_instances = 60;
    cfg.iaas.max_instances = 60;
    let run = |est: Box<dyn Estimator>| {
        let mut sched = DeadlineAware::for_config(&cfg).with_estimator(est);
        simulate(&trace, &cfg, &mut sched, seed)
    };
    let blind = run(Box::new(Analytic::new()));
    let online = run(Box::new(Online::new(Analytic::new())));
    let windows = online.eta_coverage_windows(3);
    println!("\n— P95 coverage on the 2×-miscalibrated zoo —");
    println!(
        "   blind prior: {:.2} (its \"P95\" is half the truth — covers nothing)",
        blind.eta_coverage()
    );
    println!(
        "        online: {:.2} → {:.2} → {:.2} by replay window",
        windows[0], windows[1], windows[2]
    );
    assert!(
        windows[1] >= 0.9 && windows[2] >= 0.9,
        "calibrated P95 coverage must land in [0.90, 1.0] after the first window: {windows:?}"
    );
    assert!(
        blind.eta_coverage() < 0.5,
        "premise: the blind prior's tail is fiction on this zoo"
    );
}
