//! Multi-tenant scheduling walkthrough: deadlines, fair shares, spot
//! instances, and a replayed Azure-style trace.
//!
//! Run with: `cargo run --release --example fleet_tenants`
//!
//! Four tenants submit bursty training traffic where half the jobs carry
//! deadlines. The deadline-aware EDF policy spills work between Lambda
//! and the reserved pool to hit them; the fair-share policy drains queues
//! deficit-round-robin so one tenant's burst can't starve the rest; the
//! spot knob trades preemption restarts for a discounted bill. All of it
//! is deterministic: same seed, byte-identical metrics JSON (the fleet
//! sweeps' and the Azure fixture's bytes are pinned in
//! `tests/golden/fleet_artifacts.txt`).

use lambdaml::prelude::*;

fn main() {
    let seed = 42;
    let spec = TenantSpec {
        n_tenants: 4,
        deadline_frac: 0.5,
        deadline_slack: 2.5,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 1.5,
            period: 600.0,
            duty: 0.25,
        },
        &JobMix::default_mix(),
        &spec,
        600,
        seed,
    );
    println!(
        "workload: {} jobs, {} tenants, {} with deadlines, horizon {}",
        trace.len(),
        trace.tenants().len(),
        trace.jobs.iter().filter(|j| j.deadline.is_some()).count(),
        trace.horizon(),
    );

    // 1. Deadline hits: EDF + spill beats both pure policies.
    let cfg = FleetConfig::default();
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(AllFaas),
        Box::new(AllIaas),
        Box::new(CostAware::new()),
        Box::new(DeadlineAware::for_config(&cfg)),
        Box::new(FairShare::new()),
    ];
    println!("\n— policy comparison —");
    for mut s in schedulers {
        let m = simulate(&trace, &cfg, s.as_mut(), seed);
        println!("{}", m.summary());
    }

    // 2. Fair share: per-tenant p99 under the fair-share policy.
    let mut fair = FairShare::new();
    let m = simulate(&trace, &cfg, &mut fair, seed);
    println!(
        "\n— fair-share per-tenant view (Jain index {:.3}) —",
        m.fairness
    );
    for t in m.per_tenant() {
        println!(
            "  tenant {}: {:>3} jobs | p99 {:>8.0}s | {}",
            t.tenant, t.jobs, t.latency_p99, t.cost,
        );
    }

    // 3. Spot: send 60% of IaaS-bound jobs to the preemptible tier.
    let mut spotty = FairShare::new().with_spot_fraction(0.6);
    let spot = simulate(&trace, &cfg, &mut spotty, seed);
    println!(
        "\nspot: {} jobs preemptible, {} preemptions, spot bill {} (vs {} total)",
        spot.jobs_on_spot,
        spot.preemptions,
        spot.spot_cost,
        spot.total_cost(),
    );

    // 4. Replay the bundled Azure-Functions-style sample trace.
    let azure_csv = include_str!("../crates/fleet/data/azure_sample.csv");
    let azure = lambdaml::fleet::azure::parse(azure_csv).expect("bundled sample parses");
    let mut sched = CostAware::new();
    let am = simulate(&azure, &cfg, &mut sched, seed);
    println!(
        "\nazure sample: {} jobs from {} tenants replayed -> {}",
        azure.len(),
        azure.tenants().len(),
        am.summary().trim_start(),
    );
}
