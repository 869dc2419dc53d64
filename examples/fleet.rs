//! Fleet walkthrough: a multi-tenant serverless training platform under
//! Poisson load, scheduled three ways.
//!
//! Run with: `cargo run --release --example fleet`
//!
//! 1,000 tenants submit training jobs drawn from the paper's Table 4 zoo;
//! the fleet simulator routes them onto a Lambda region (warm container
//! pool, account concurrency limit) and/or an autoscaling EC2 pool, then
//! reports tail latencies and dollars per scheduling policy. The whole
//! thing is deterministic: same seed, byte-identical metrics (the fleet
//! sweeps' bytes are pinned in `tests/golden/fleet_artifacts.txt`).

use lambdaml::prelude::*;

fn main() {
    let seed = 42;
    let n_jobs = 1_000;
    let rate = 0.5; // jobs/second across all tenants

    // 1. Generate the workload: Poisson arrivals over the default job mix
    //    (mostly fast convex jobs, a tail of heavy deep-learning jobs).
    let trace = Trace::generate(
        ArrivalProcess::Poisson { rate },
        &JobMix::default_mix(),
        n_jobs,
        seed,
    );
    println!(
        "workload: {} jobs over {} ({} classes, replayable via Trace::to_text)",
        trace.len(),
        trace.horizon(),
        JobMix::default_mix().classes().count(),
    );

    // 2. Run the same trace through each scheduling policy.
    let cfg = FleetConfig::default();
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(AllFaas),
        Box::new(AllIaas),
        Box::new(CostAware::new()),
    ];
    let mut results = Vec::new();
    for mut s in schedulers {
        let m = simulate(&trace, &cfg, s.as_mut(), seed);
        println!("{}", m.summary());
        results.push(m);
    }

    // 3. The paper's trade-off, now at fleet scale: Lambda's warm pool
    //    gives the best median, the reserved pool the best dollars, and the
    //    cost-aware hybrid takes both within a whisker.
    let (faas, iaas, hybrid) = (&results[0], &results[1], &results[2]);
    println!(
        "\nhybrid p50 {:.0}s vs all-iaas {:.0}s | hybrid cost {} vs all-faas {}",
        hybrid.latency.p50,
        iaas.latency.p50,
        hybrid.total_cost(),
        faas.total_cost(),
    );

    // 4. The hybrid's metrics as JSON (schema lml-fleet/metrics/v1).
    let out = std::path::Path::new("target/fleet-example.json");
    if std::fs::write(out, hybrid.to_json()).is_ok() {
        println!("metrics JSON -> {}", out.display());
    }
}
