//! Integration tests of the fleet simulator, exercised through the public
//! `lambdaml` surface: seed sensitivity, fleet-level cold-start amortization,
//! and the cost sanity of the hybrid router.

use lambdaml::fleet::{
    simulate, AllFaas, AllIaas, ArrivalProcess, CostAware, DeadlineAware, FairShare, FleetConfig,
    FleetMetrics, JobClass, JobMix, JobRequest, Scheduler, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;

fn poisson_trace(n: usize, rate: f64, seed: u64) -> Trace {
    Trace::generate(
        ArrivalProcess::Poisson { rate },
        &JobMix::default_mix(),
        n,
        seed,
    )
}

fn run(trace: &Trace, sched: &mut dyn Scheduler, seed: u64) -> FleetMetrics {
    simulate(trace, &FleetConfig::default(), sched, seed)
}

/// The seed reaches the metrics: a different seed moves the bytes. (What
/// one seed gives is pinned by `tests/fleet_artifacts.rs`.)
#[test]
fn different_seeds_give_different_json() {
    let one = |seed: u64| {
        let trace = poisson_trace(500, 0.5, seed);
        run(&trace, &mut CostAware::new(), seed).to_json()
    };
    assert_ne!(one(42), one(43), "different seeds must differ");
}

/// The trace text format replays to the same simulation results.
#[test]
fn replayed_trace_reproduces_metrics() {
    let trace = poisson_trace(300, 0.4, 9);
    let replayed = Trace::from_text(&trace.to_text()).expect("parse own format");
    let a = run(&trace, &mut AllFaas, 9).to_json();
    let b = run(&replayed, &mut AllFaas, 9).to_json();
    assert_eq!(a, b);
}

/// Cold-start probability falls as traffic rises: the warm pool serves a
/// strictly larger share of workers at higher arrival rates.
#[test]
fn warm_hit_rate_increases_with_arrival_rate() {
    let rate_of = |rate: f64| {
        let trace = poisson_trace(400, rate, 17);
        run(&trace, &mut AllFaas, 17).warm_hit_rate
    };
    let trickle = rate_of(0.0003);
    let steady = rate_of(0.1);
    let heavy = rate_of(1.0);
    assert!(
        steady > trickle && heavy > trickle + 0.2,
        "warm-hit rate must rise with traffic: {trickle} / {steady} / {heavy}"
    );
}

/// The cost-aware hybrid never costs more than the worse pure policy, and
/// its tail latency never degrades past the worse pure policy either.
#[test]
fn hybrid_cost_and_latency_sanity() {
    for seed in [1, 7, 23] {
        let trace = poisson_trace(400, 0.5, seed);
        let faas = run(&trace, &mut AllFaas, seed);
        let iaas = run(&trace, &mut AllIaas, seed);
        let hybrid = run(&trace, &mut CostAware::new(), seed);
        let worse_cost = faas.total_cost().as_usd().max(iaas.total_cost().as_usd());
        assert!(
            hybrid.total_cost().as_usd() <= worse_cost * 1.001,
            "seed {seed}: hybrid {} vs worse pure {worse_cost}",
            hybrid.total_cost()
        );
        let worse_p99 = faas.latency.p99.max(iaas.latency.p99);
        assert!(
            hybrid.latency.p99 <= worse_p99 * 1.001,
            "seed {seed}: hybrid p99 {} vs worse pure {worse_p99}",
            hybrid.latency.p99
        );
    }
}

/// Queueing appears on the reserved pool under load and is visible in the
/// per-job breakdown; Lambda's elasticity keeps its own queue near zero
/// until the account concurrency limit bites.
#[test]
fn queueing_shows_up_where_the_paper_says() {
    let trace = poisson_trace(400, 0.8, 3);
    let iaas = run(&trace, &mut AllIaas, 3);
    assert!(
        iaas.queue.p99 > 60.0,
        "reserved pool must queue under load, p99 {}",
        iaas.queue.p99
    );
    // Deep jobs camp on workers for hours, so even Lambda's account limit
    // saturates on the default mix — but a convex-only fleet at the same
    // rate stays comfortably inside it and never queues at the median.
    let convex = Trace::generate(
        ArrivalProcess::Poisson { rate: 0.8 },
        &JobMix::convex_mix(),
        400,
        3,
    );
    let faas = run(&convex, &mut AllFaas, 3);
    assert!(
        faas.queue.p50 == 0.0,
        "Lambda should rarely queue below the concurrency limit, p50 {}",
        faas.queue.p50
    );
}

/// Deep communication-heavy jobs route serverful, tiny convex jobs are
/// allowed on Lambda — the §5.2 findings as routing behaviour.
#[test]
fn hybrid_routes_by_workload_shape() {
    let trace = poisson_trace(600, 0.5, 31);
    let m = run(&trace, &mut CostAware::new(), 31);
    let deep_on_faas = m
        .records
        .iter()
        .filter(|r| {
            matches!(r.class, JobClass::MnCifar | JobClass::RnCifar)
                && r.route == lambdaml::fleet::Route::Faas
        })
        .count();
    assert_eq!(deep_on_faas, 0, "deep jobs must never land on Lambda");
    assert!(
        m.jobs_on_faas > 0,
        "some convex jobs should use Lambda's elasticity"
    );
}

/// The §2 acceptance scenario: on a deadline-carrying fleet the EDF
/// scheduler beats all-FaaS on deadline-hit rate — deep jobs camp on the
/// account concurrency limit under all-FaaS and blow every queue, while
/// deadline-aware spills them to the reserved pool.
#[test]
fn deadline_aware_beats_all_faas_on_deadline_hit_rate() {
    let spec = TenantSpec {
        n_tenants: 2,
        deadline_frac: 1.0,
        deadline_slack: 2.5,
    };
    // Bursty arrivals saturate the account concurrency limit under
    // all-FaaS (deep jobs camp on it for hours); a memoryless trickle
    // would let every policy coast.
    let trace = Trace::generate_multi(
        ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 1.5,
            period: 600.0,
            duty: 0.25,
        },
        &JobMix::default_mix(),
        &spec,
        500,
        21,
    );
    let cfg = FleetConfig::default();
    let faas = simulate(&trace, &cfg, &mut AllFaas, 21);
    let edf = simulate(&trace, &cfg, &mut DeadlineAware::for_config(&cfg), 21);
    assert!(
        edf.deadline_hit_rate() > faas.deadline_hit_rate() + 0.1,
        "deadline-aware {:.2} must clearly beat all-faas {:.2}",
        edf.deadline_hit_rate(),
        faas.deadline_hit_rate()
    );
    assert!(edf.deadline_hit_rate() > 0.8, "{}", edf.deadline_hit_rate());
}

/// The §2 acceptance scenario: two tenants, one bursting first. Deficit
/// round-robin bounds the spread between the tenants' mean admission
/// waits, where FIFO lets the first burst starve the second tenant.
#[test]
fn fair_share_bounds_tenant_shares_in_a_two_tenant_burst() {
    // Tenant 0 dumps 40 jobs in the first 4 s; tenant 1's 40 jobs follow
    // from t = 5 s. The capped pool (40 instances = 4 concurrent jobs)
    // becomes the contended resource.
    let mut jobs = Vec::new();
    for k in 0..40u64 {
        jobs.push(JobRequest {
            tenant: 0,
            ..JobRequest::new(k, JobClass::LrHiggs, SimTime::secs(0.1 * k as f64), 10)
        });
    }
    for k in 0..40u64 {
        jobs.push(JobRequest {
            tenant: 1,
            ..JobRequest::new(
                40 + k,
                JobClass::LrHiggs,
                SimTime::secs(5.0 + 0.1 * k as f64),
                10,
            )
        });
    }
    let trace = Trace::from_jobs(jobs);
    let mut cfg = FleetConfig::default();
    cfg.iaas.min_instances = 10;
    cfg.iaas.max_instances = 40;

    let wait_ratio = |m: &FleetMetrics| {
        let mean = |t: u32| {
            let qs: Vec<f64> = m
                .records
                .iter()
                .filter(|r| r.tenant == t)
                .map(|r| r.queue.as_secs())
                .collect();
            qs.iter().sum::<f64>() / qs.len() as f64
        };
        let (a, b) = (mean(0), mean(1));
        a.max(b) / a.min(b).max(1e-9)
    };

    let fifo = simulate(&trace, &cfg, &mut AllIaas, 1);
    let fair = simulate(&trace, &cfg, &mut FairShare::new(), 1);
    let (r_fifo, r_fair) = (wait_ratio(&fifo), wait_ratio(&fair));
    assert!(
        r_fair < r_fifo,
        "DRR must narrow the tenants' wait spread: fair {r_fair:.2} vs fifo {r_fifo:.2}"
    );
    assert!(
        r_fair < 2.0,
        "fair-share bounds the max/min tenant wait ratio, got {r_fair:.2}"
    );
    // And the late tenant is no longer starved outright.
    assert!(fair.fairness >= fifo.fairness - 1e-9);
}

/// The bundled Azure-style sample feeds `Trace::from_text` through the
/// adapter and replays on the public surface (its streamed metrics are
/// pinned by `tests/fleet_artifacts.rs`).
#[test]
fn azure_sample_replays_through_the_public_surface() {
    let csv = include_str!("../crates/fleet/data/azure_sample.csv");
    let trace = lambdaml::fleet::azure::parse(csv).expect("bundled sample parses");
    assert!(trace.len() >= 30);
    assert!(trace.tenants().len() >= 3);
    let cfg = FleetConfig::default();
    let m = simulate(&trace, &cfg, &mut CostAware::new(), 2);
    assert_eq!(m.n_jobs, trace.len(), "every job replays");
    // Adapter output is native v2 text: it survives another round-trip.
    let text = trace.to_text();
    assert_eq!(Trace::from_text(&text).unwrap(), trace);
}

/// Malformed inputs fail loudly on the public surface — native format and
/// Azure adapter alike.
#[test]
fn trace_parsers_reject_malformed_input() {
    // Native v2: bad tenant, deadline before submit, out-of-order rows.
    assert!(Trace::from_text("1.0\tlr-higgs\t10\tnot-a-tenant\t-").is_err());
    assert!(Trace::from_text("9.0\tlr-higgs\t10\t0\t4.0").is_err());
    assert!(Trace::from_text("5.0\tlr-higgs\t10\n1.0\tsvm-rcv1\t5\n").is_err());
    // Azure adapter: arity, negative duration, empty ids.
    assert!(lambdaml::fleet::azure::parse("1000,o,a,f\n").is_err());
    assert!(lambdaml::fleet::azure::parse("1000,o,a,f,-5\n").is_err());
    assert!(lambdaml::fleet::azure::parse("1000,,a,f,10\n").is_err());
    // Both accept comment-only input as an empty trace.
    assert!(Trace::from_text("# nothing\n").unwrap().is_empty());
    assert!(lambdaml::fleet::azure::parse("# nothing\n")
        .unwrap()
        .is_empty());
}

/// Riding the spot market on preemption-tolerant work cuts the bill:
/// short convex jobs rarely live long enough to be reclaimed, so the
/// discount dominates the occasional restart. (Deep multi-hour jobs are
/// the opposite — the restart tax eats the discount — which is why
/// `DeadlineAware` keeps deadline work off the market.)
#[test]
fn spot_fraction_cuts_cost_on_preemptible_work() {
    let trace = Trace::generate(
        ArrivalProcess::Poisson { rate: 0.5 },
        &JobMix::convex_mix(),
        300,
        37,
    );
    let cfg = FleetConfig::default();
    let firm = simulate(&trace, &cfg, &mut FairShare::new(), 37);
    let mut spotty = FairShare::new().with_spot_fraction(0.8);
    let spot = simulate(&trace, &cfg, &mut spotty, 37);
    assert!(spot.jobs_on_spot > 0);
    assert!(
        spot.total_cost().as_usd() < firm.total_cost().as_usd(),
        "spot {} must undercut firm {}",
        spot.total_cost(),
        firm.total_cost()
    );
    assert_eq!(spot.n_jobs, 300, "preempted jobs still finish");
}

/// The estimator-calibrated router still satisfies the cost sanity bound.
#[test]
fn estimator_calibrated_hybrid_is_sane() {
    let mut sched = CostAware::new();
    // Calibrate one cheap class with the real §5.3 sampling estimator.
    sched.calibrate(JobClass::SvmRcv1, 0.2, 12, 5);
    let trace = poisson_trace(300, 0.5, 5);
    let hybrid = run(&trace, &mut sched, 5);
    let faas = run(&trace, &mut AllFaas, 5);
    let iaas = run(&trace, &mut AllIaas, 5);
    let worse = faas.total_cost().as_usd().max(iaas.total_cost().as_usd());
    assert!(hybrid.total_cost().as_usd() <= worse * 1.001);
    assert_eq!(hybrid.n_jobs, 300);
}
