//! Integration tests of checkpoint-aware spot recovery and tenant budget
//! caps, exercised through the public `lambdaml` surface: seed sensitivity,
//! the lost-work monotonicity guarantee, and resume-vs-restart cost
//! sanity on a spot-heavy sweep.

use lambdaml::fleet::lifecycle::CheckpointPolicy;
use lambdaml::fleet::{
    simulate, ArrivalProcess, CostAware, DeadlineAware, FairShare, FleetConfig, FleetMetrics,
    JobMix, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;

/// A spot-heavy fleet on an aggressive market: the recovery sweep's
/// hardest cell.
fn spot_heavy(policy: CheckpointPolicy, mttp_secs: f64, seed: u64) -> FleetMetrics {
    let trace = Trace::generate(
        ArrivalProcess::Poisson { rate: 0.4 },
        &JobMix::default_mix(),
        200,
        seed,
    );
    let mut cfg = FleetConfig::default();
    cfg.spot.mean_time_to_preempt = SimTime::secs(mttp_secs);
    cfg.checkpoint = policy;
    let mut sched = FairShare::new().with_spot_fraction(1.0);
    simulate(&trace, &cfg, &mut sched, seed)
}

/// The seed reaches the metrics with checkpoint recovery in the loop. (The
/// recovery sweep's bytes are pinned by the `fleet_recovery` lines of
/// `tests/fleet_artifacts.rs`.)
#[test]
fn recovery_runs_differ_across_seeds() {
    for policy in [CheckpointPolicy::every(2), CheckpointPolicy::Adaptive] {
        let a = spot_heavy(policy, 900.0, 7).to_json();
        let c = spot_heavy(policy, 900.0, 8).to_json();
        assert_ne!(a, c, "{}: different seeds must differ", policy.name());
    }
}

/// The acceptance criterion: at the same seed and spot fraction, every
/// checkpointing policy yields strictly lower lost-work-seconds than
/// `Never` — and all jobs still finish.
#[test]
fn every_checkpoint_policy_strictly_beats_never_on_lost_work() {
    for mttp in [900.0, 3_600.0] {
        let never = spot_heavy(CheckpointPolicy::Never, mttp, 11);
        assert!(never.preemptions > 0, "premise: the market must bite");
        assert!(never.lost_work.as_secs() > 0.0);
        for policy in [
            CheckpointPolicy::every(1),
            CheckpointPolicy::every(4),
            CheckpointPolicy::Adaptive,
        ] {
            let m = spot_heavy(policy, mttp, 11);
            assert_eq!(m.n_jobs, 200, "{}: all jobs complete", policy.name());
            assert!(
                m.lost_work < never.lost_work,
                "{} at mttp {mttp}: lost {} must be strictly below never's {}",
                policy.name(),
                m.lost_work,
                never.lost_work
            );
            assert!(
                m.resumes > 0,
                "{}: recovery must actually resume",
                policy.name()
            );
            assert!(m.checkpoint_writes > 0);
            assert!(m.checkpoint_cost.as_usd() > 0.0);
        }
    }
}

/// Monotonicity: more frequent checkpoints never increase lost work.
/// Structural along a divisibility chain (1 | 2 | 4 | never): preemption
/// clocks are a pure function of (seed, job, attempt), checkpoint uploads
/// are asynchronous, and a finer interval's durable epochs are a superset
/// of a coarser one's at every strike time.
#[test]
fn finer_checkpoint_intervals_never_lose_more_work() {
    for seed in [3, 11, 29] {
        let chain = [
            CheckpointPolicy::every(1),
            CheckpointPolicy::every(2),
            CheckpointPolicy::every(4),
            CheckpointPolicy::Never,
        ];
        let lost: Vec<SimTime> = chain
            .iter()
            .map(|&p| spot_heavy(p, 900.0, seed).lost_work)
            .collect();
        for (i, w) in lost.windows(2).enumerate() {
            assert!(
                w[0] <= w[1],
                "seed {seed}: {} lost {} but coarser {} lost {}",
                chain[i].name(),
                w[0],
                chain[i + 1].name(),
                w[1]
            );
        }
    }
}

/// Resume-vs-restart cost sanity: on the spot-heavy sweep, resuming from
/// checkpoints re-buys fewer instance-seconds than restarting from
/// scratch, so the total bill (including the checkpoint traffic itself)
/// never exceeds `Never`'s, and the spot bill strictly shrinks.
#[test]
fn resuming_is_cheaper_than_restarting() {
    let never = spot_heavy(CheckpointPolicy::Never, 900.0, 19);
    for policy in [CheckpointPolicy::every(1), CheckpointPolicy::Adaptive] {
        let m = spot_heavy(policy, 900.0, 19);
        assert!(
            m.spot_cost.as_usd() < never.spot_cost.as_usd(),
            "{}: spot bill {} must undercut never's {}",
            policy.name(),
            m.spot_cost,
            never.spot_cost
        );
        assert!(
            m.total_cost().as_usd() <= never.total_cost().as_usd(),
            "{}: total {} vs never {}",
            policy.name(),
            m.total_cost(),
            never.total_cost()
        );
        // The saving is real compute, not an accounting artifact: the
        // per-job latency components still tile submit → finish.
        for r in &m.records {
            assert!(
                (r.finish() - r.submit - r.latency()).as_secs().abs() < 1e-6,
                "job {}: latency components must tile",
                r.id
            );
        }
    }
}

/// Deadline jobs trusted to spot under recovery still hit their deadlines
/// at a healthy rate — the scheduler only risks slack-rich jobs.
#[test]
fn spot_recovery_keeps_deadline_hit_rate_healthy() {
    let spec = TenantSpec {
        n_tenants: 2,
        deadline_frac: 0.5,
        deadline_slack: 6.0,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Poisson { rate: 0.3 },
        &JobMix::convex_mix(),
        &spec,
        200,
        23,
    );
    let mut cfg = FleetConfig::default();
    cfg.spot.mean_time_to_preempt = SimTime::secs(2_000.0);
    cfg.checkpoint = CheckpointPolicy::every(1);
    let mut sched = DeadlineAware::for_config(&cfg)
        .with_spot_fraction(1.0)
        .with_spot_recovery(cfg.checkpoint);
    let m = simulate(&trace, &cfg, &mut sched, 23);
    assert!(
        m.jobs_on_spot > 0,
        "recovery must unlock spot for some jobs"
    );
    assert!(
        m.deadline_hit_rate() > 0.9,
        "hit rate {} with recovery-backed spot routing",
        m.deadline_hit_rate()
    );
}

/// Budget caps through the public surface: the capped tenant's tail is
/// rejected, the other tenant is untouched, and the v3 trace text
/// round-trips the budgets byte-for-byte.
#[test]
fn tenant_budget_caps_reject_the_overspending_tail() {
    let spec = TenantSpec {
        n_tenants: 2,
        deadline_frac: 0.0,
        deadline_slack: 3.0,
    };
    let base = Trace::generate_multi(
        ArrivalProcess::Poisson { rate: 0.5 },
        &JobMix::convex_mix(),
        &spec,
        300,
        31,
    );
    let cfg = FleetConfig::default();
    let uncapped = simulate(&base, &cfg, &mut CostAware::new(), 31);
    assert_eq!(uncapped.rejected_jobs, 0, "no budgets, no rejections");

    let capped_trace = base.clone().with_budget(0, 0.02);
    let capped = simulate(&capped_trace, &cfg, &mut CostAware::new(), 31);
    assert!(capped.rejected_jobs > 0, "the cap must bite");
    let rows = capped.per_tenant();
    let t0 = rows.iter().find(|t| t.tenant == 0).unwrap();
    let t1 = rows.iter().find(|t| t.tenant == 1).unwrap();
    assert!(t0.rejected > 0, "tenant 0 loses its tail");
    assert_eq!(t1.rejected, 0, "tenant 1 is untouched");
    assert_eq!(
        capped.rejected_jobs, t0.rejected,
        "rollup and per-tenant counts agree"
    );
    // Rejected jobs never ran: they carry no cost and no latency.
    for r in capped.records.iter().filter(|r| r.rejected) {
        assert_eq!(r.cost.as_usd(), 0.0);
        assert_eq!(r.latency(), SimTime::ZERO);
        assert_eq!(r.tenant, 0);
    }
    // v3 text round-trip preserves the cap and replays identically.
    let replayed = Trace::from_text(&capped_trace.to_text()).expect("v3 parses");
    assert_eq!(replayed, capped_trace);
    let again = simulate(&replayed, &cfg, &mut CostAware::new(), 31);
    assert_eq!(again.to_json(), capped.to_json());
}
