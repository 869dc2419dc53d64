//! Checkpoint-aware spot recovery walkthrough: what epoch-granular
//! checkpoints buy back from a hostile preemptible market.
//!
//! Run with: `cargo run --release --example fleet_recovery`
//!
//! A spot-heavy fleet rides a market that reclaims instances every ~15
//! minutes. Without checkpoints every preemption throws away the whole
//! run; with them (priced through the S3 profile: write time, PUT/GET
//! dollars) a preempted job resumes from its last durable checkpoint —
//! on a fresh spot cluster, or on the reserved pool once the retry budget
//! is spent. The lifecycle of every job moves through the same explicit
//! state machine: Queued → Booting → Running{epochs} → Checkpointing →
//! Preempted → Requeued → Done/Rejected. The same scenarios at sweep scale
//! are pinned byte for byte by the `fleet_recovery` lines of
//! `tests/golden/fleet_artifacts.txt`.

use lambdaml::fleet::lifecycle::CheckpointPolicy;
use lambdaml::prelude::*;
use lambdaml::sim::SimTime;

fn main() {
    let seed = 42;
    let trace = Trace::generate(
        ArrivalProcess::Poisson { rate: 0.4 },
        &JobMix::default_mix(),
        300,
        seed,
    );

    println!("— checkpoint policy on a hostile spot market (mttp 900 s) —");
    let mut results = Vec::new();
    for policy in [
        CheckpointPolicy::Never,
        CheckpointPolicy::every(1),
        CheckpointPolicy::every(4),
        CheckpointPolicy::Adaptive,
    ] {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(900.0);
        cfg.checkpoint = policy;
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, seed);
        println!(
            "{:>9}: lost {:>8} | {:>3} resumes | {:>3} preemptions | {:>4} ckpt writes \
             (${:.4}) | {} total",
            policy.name(),
            m.lost_work,
            m.resumes,
            m.preemptions,
            m.checkpoint_writes,
            m.checkpoint_cost.as_usd(),
            m.total_cost(),
        );
        results.push((policy, m));
    }
    let never = &results[0].1;
    for (policy, m) in &results[1..] {
        assert!(
            m.lost_work < never.lost_work,
            "{} must lose strictly less work than never",
            policy.name()
        );
    }

    // Budget caps (trace text v3): tenant 0 gets a hard dollar cap; once
    // its attributed spend exhausts it, further jobs end Rejected.
    println!("\n— per-tenant budget cap —");
    let spec = TenantSpec {
        n_tenants: 2,
        deadline_frac: 0.0,
        deadline_slack: 3.0,
    };
    let capped = Trace::generate_multi(
        ArrivalProcess::Poisson { rate: 0.5 },
        &JobMix::convex_mix(),
        &spec,
        200,
        seed,
    )
    .with_budget(0, 0.05);
    let cfg = FleetConfig::default();
    let m = simulate(&capped, &cfg, &mut CostAware::new(), seed);
    for t in m.per_tenant() {
        println!(
            "  tenant {}: {:>3} jobs, {:>3} rejected, spent {}",
            t.tenant, t.jobs, t.rejected, t.cost
        );
    }
    assert!(m.rejected_jobs > 0, "the cap must bite");
    // The v3 text format round-trips the cap.
    let replay = Trace::from_text(&capped.to_text()).expect("v3 parses");
    assert_eq!(replay, capped);
}
