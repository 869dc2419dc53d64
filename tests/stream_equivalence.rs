//! Property test: streaming trace replay is **byte-identical** to the
//! in-memory simulator — on randomized v1/v2/v3 traces read back through
//! the text source, and at any sweep width — and the two retire sinks
//! agree: `replay_stats`' constant-size summary equals the fold of the
//! same run's per-job records.
//!
//! The harness is hand-rolled: `proptest` is not vendored in this offline
//! build, so each property draws its random cases from the repository's own
//! deterministic [`Pcg64`] stream. Failures print the case seed, which
//! reproduces the exact inputs.

use lambdaml::fleet::{
    replay, replay_stats, simulate, AllFaas, AllIaas, ArrivalProcess, CheckpointPolicy, CostAware,
    DeadlineAware, FairShare, FleetConfig, FleetMetrics, JobMix, NullObserver, Route, Scheduler,
    TenantSpec, TextSource, Trace,
};
use lambdaml::sim::{Pcg64, SimTime};
use lml_bench::sweep::parallel_map;

/// Number of random cases per property.
const CASES: u64 = 64;

/// Deterministic per-case RNGs: case `i` of property `tag` always sees the
/// same stream.
fn cases(tag: u64) -> impl Iterator<Item = (u64, Pcg64)> {
    (0..CASES).map(move |i| {
        let seed = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i;
        (seed, Pcg64::new(seed))
    })
}

/// One randomized replay case: a serialized trace (the text format pins
/// the v1/v2/v3 shape on the wire), the config, and the scheduler choice.
#[derive(Clone)]
struct Case {
    seed: u64,
    text: String,
    cfg: FleetConfig,
    sched: usize,
    /// The in-memory engine's metrics JSON — the bytes to reproduce.
    baseline: String,
}

fn make_sched(k: usize) -> Box<dyn Scheduler> {
    match k {
        0 => Box::new(AllFaas),
        1 => Box::new(AllIaas),
        2 => Box::new(CostAware::new()),
        3 => Box::new(DeadlineAware::new()),
        4 => Box::new(FairShare::new()),
        // Spot-heavy: every IaaS-bound job rides the market.
        _ => Box::new(FairShare::new().with_spot_fraction(1.0)),
    }
}

/// Draw a random trace spanning the three text-format generations:
/// v1 (single tenant, no deadlines), v2 (tenants + deadlines), v3
/// (budgets on top).
fn random_trace(rng: &mut Pcg64) -> Trace {
    let version = rng.below(3);
    let n_jobs = 20 + rng.index(60);
    let rate = [0.2, 0.5, 1.0, 2.0][rng.index(4)];
    let mix = if rng.coin(0.5) {
        JobMix::convex_mix()
    } else {
        JobMix::default_mix()
    };
    let process = ArrivalProcess::Poisson { rate };
    let trace_seed = rng.next_u64();
    if version == 0 {
        return Trace::generate(process, &mix, n_jobs, trace_seed);
    }
    let spec = TenantSpec {
        n_tenants: 1 + rng.below(4) as u32,
        deadline_frac: [0.0, 0.3, 0.7][rng.index(3)],
        deadline_slack: rng.range(2.0, 8.0),
    };
    let mut trace = Trace::generate_multi(process, &mix, &spec, n_jobs, trace_seed);
    if version == 2 {
        // v3: budget caps, sometimes including an unaffordable zero cap
        // (hard-reject path) and sometimes a tight one (deferral path).
        for t in 0..spec.n_tenants {
            if rng.coin(0.7) {
                let cap = if rng.coin(0.2) {
                    0.0
                } else {
                    rng.range(0.01, 2.0)
                };
                trace = trace.with_budget(t, cap);
            }
        }
    }
    trace
}

fn case(seed: u64, trace: &Trace, cfg: FleetConfig, sched: usize) -> Case {
    Case {
        seed,
        text: trace.to_text(),
        cfg,
        sched,
        baseline: simulate(trace, &cfg, &mut *make_sched(sched), seed).to_json(),
    }
}

/// Number of spot-heavy cases appended after the `CASES` mixed ones.
const SPOT_CASES: u64 = 6;

/// Reclaims a spot job survives before it falls back to the reserved
/// pool: the spot tier's fixed retry budget.
const SPOT_MAX_RETRIES: u32 = 3;

fn build_cases() -> Vec<Case> {
    let mixed = cases(0xEA7).map(|(seed, mut rng)| {
        let trace = random_trace(&mut rng);
        let mut cfg = FleetConfig::default();
        if !trace.budgets.is_empty() && rng.coin(0.7) {
            cfg.budget_window = Some(SimTime::secs(rng.range(600.0, 7_200.0)));
        }
        case(seed, &trace, cfg, rng.index(5))
    });
    // Spot-heavy, checkpointing, pool-fallback: a hostile market (a
    // 10-wide cluster is reclaimed every 10–30 s, well inside its boot),
    // so jobs spend the tier's retry budget before the reserved pool
    // takes over, and a pool small enough that fallbacks queue behind
    // each other.
    let spot = cases(0x5907)
        .take(SPOT_CASES as usize)
        .map(|(seed, mut rng)| {
            let trace = random_trace(&mut rng);
            let mut cfg = FleetConfig {
                checkpoint: CheckpointPolicy::every(1 + rng.below(2) as u32),
                ..FleetConfig::default()
            };
            cfg.spot.mean_time_to_preempt = SimTime::secs(rng.range(100.0, 300.0));
            cfg.iaas.min_instances = 10;
            if !trace.budgets.is_empty() {
                cfg.budget_window = Some(SimTime::secs(3_600.0));
            }
            case(seed, &trace, cfg, 5)
        });
    mixed.chain(spot).collect()
}

/// What the bounded path's `SummaryAcc` must have seen, re-derived from
/// the records the metrics path collected on the same inputs: the two
/// retire sinks hang off one hook, so they see the same terminal jobs.
/// Counts and makespan are exact (the fold below adds a job's latency
/// components in the order the accumulator does); the dollar total sums
/// in a different order, so it gets a relative tolerance.
fn check_summary_is_the_fold_of_the_records(case: &Case, m: &FleetMetrics) {
    let s = replay_stats(
        TextSource::new(case.text.as_bytes()),
        &case.cfg,
        &mut *make_sched(case.sched),
        case.seed,
        &mut NullObserver,
    )
    .expect("text source must stream a valid trace");
    let count = |f: fn(&lambdaml::fleet::JobRecord) -> bool| {
        m.records.iter().filter(|r| f(r)).count() as u64
    };
    let ran = m.records.iter().filter(|r| !r.rejected);
    let makespan = ran
        .map(|r| r.submit + r.queue + r.startup + r.run)
        .fold(SimTime::ZERO, SimTime::max);
    assert_eq!(
        (s.jobs, s.completed, s.rejected, s.deferred, s.makespan),
        (
            m.records.len() as u64,
            count(|r| !r.rejected),
            count(|r| r.rejected),
            count(|r| r.deferred),
            makespan
        ),
        "case {}: summary counters vs record fold",
        case.seed
    );
    let (got, want) = (s.total_cost.as_usd(), m.total_cost().as_usd());
    assert!(
        (got - want).abs() <= 1e-9 * want.abs(),
        "case {}: bounded total {got} vs metrics total {want}",
        case.seed
    );
}

/// Replay the case's trace text through the streaming reader, check it
/// against the in-memory bytes, and hold the bounded path to the records.
/// Returns the JSON plus (preemptions, resumes, pool fallbacks) seen.
fn check_case(case: &Case) -> (String, [u64; 3]) {
    let m = replay(
        TextSource::new(case.text.as_bytes()),
        &case.cfg,
        &mut *make_sched(case.sched),
        case.seed,
    )
    .expect("text source must stream a valid trace");
    let text = m.to_json();
    assert_eq!(
        text, case.baseline,
        "case {}: TextSource diverged from simulate()",
        case.seed
    );
    check_summary_is_the_fold_of_the_records(case, &m);
    let spot = m.records.iter().filter(|r| r.route == Route::Spot);
    let churn = spot.fold([0; 3], |[p, r, f], rec| {
        let fell_back = rec.preemptions > SPOT_MAX_RETRIES;
        [
            p + rec.preemptions as u64,
            r + rec.resumes as u64,
            f + fell_back as u64,
        ]
    });
    (text, churn)
}

/// Streaming replay reproduces the in-memory engine byte-for-byte on every
/// randomized trace, and the sweep fan-out preserves those bytes at every
/// worker count (1 = inline, 2 = threaded, 8 = more workers than cores on
/// most CI boxes).
#[test]
fn streaming_replay_matches_in_memory_at_any_sweep_width() {
    let cases = build_cases();
    let mut per_width = Vec::new();
    for workers in [1usize, 2, 8] {
        let out = parallel_map(cases.clone(), workers, |_, case| check_case(&case));
        per_width.push(out);
    }
    let serial = &per_width[0];
    assert_eq!(serial.len(), (CASES + SPOT_CASES) as usize);
    for wider in &per_width[1..] {
        assert_eq!(serial, wider, "sweep width must not change any bytes");
    }
    // Premise of the spot-heavy cases: they really did exercise
    // preemption, checkpoint resume and the pool fallback.
    let churn = serial[CASES as usize..].iter().fold([0; 3], |acc, (_, c)| {
        [acc[0] + c[0], acc[1] + c[1], acc[2] + c[2]]
    });
    assert!(
        churn.iter().all(|&n| n > 0),
        "spot cases saw (preemptions, resumes, fallbacks) = {churn:?}"
    );
}
