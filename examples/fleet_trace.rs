//! The fleet observability layer end to end: record a run, audit every
//! scheduler decision, and export a Perfetto-loadable Chrome trace.
//!
//! Run with: `cargo run --release --example fleet_trace`
//!
//! A bursty three-tenant fleet runs under the deadline-aware scheduler
//! with checkpointed spot recovery and a budget-capped tenant, so every
//! interesting path fires: spot admissions priced off the risk-adjusted
//! ETA, market reclaims and checkpoint restores, and deferral-vs-rejection
//! calls at the budget boundary. A [`RecordingObserver`] captures all five
//! streams (lifecycle transitions, decision audit, platform events,
//! dispatch spans, windowed gauges) and the example then *proves* the
//! trace is faithful:
//!
//! * the per-attempt spans re-sum — exactly, in f64 — to each job's
//!   `JobRecord` queue/startup/run timings;
//! * every deferred, rejected, and spot-admitted job has a
//!   [`Decision`] record naming the prices and ETAs that decided it.
//!
//! Two files land in `target/fleet_trace/` (override with
//! `LML_FLEET_TRACE_OUT`): `trace.json` (schema `lml-fleet/trace/v1`) and
//! `chrome_trace.json`. Load the latter at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): each tenant is a process, each job a track with
//! queued/startup/run spans per attempt, decisions and platform events as
//! instants. Both files are byte-stable across same-seed runs — CI runs
//! this example twice and diffs them.

use lambdaml::fleet::{
    simulate_observed, ArrivalProcess, CheckpointPolicy, DeadlineAware, Decision, FleetConfig,
    JobMix, RecordingObserver, Route, TenantSpec, Trace,
};
use lambdaml::sim::SimTime;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    std::env::var_os("LML_FLEET_TRACE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/fleet_trace"))
}

fn main() {
    let seed = 42;
    let spec = TenantSpec {
        n_tenants: 3,
        deadline_frac: 0.5,
        deadline_slack: 4.0,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Burst {
            base_rate: 0.05,
            burst_rate: 0.8,
            period: 1_200.0,
            duty: 0.3,
        },
        &JobMix::default_mix(),
        &spec,
        400,
        seed,
    )
    // Tenant 0 is budget-capped: with the hourly window below, its
    // over-allowance arrivals get priced — defer to the next window's
    // fresh allowance, or reject when a P95 miss is already locked in.
    .with_budget(0, 0.02);

    let mut cfg = FleetConfig {
        budget_window: Some(SimTime::hours(1.0)),
        // A P95 deadline miss hurts more than a clean refusal, so the
        // pricing rejects jobs that are already doomed at the tail instead
        // of deferring them into a guaranteed miss.
        deadline_miss_cost: 4.0,
        ..FleetConfig::default()
    };
    // A market hostile enough to show reclaims and checkpoint restores.
    cfg.spot.mean_time_to_preempt = SimTime::secs(1_800.0);
    cfg.checkpoint = CheckpointPolicy::every(1);
    let mut sched = DeadlineAware::for_config(&cfg)
        .with_spot_fraction(0.6)
        .with_spot_recovery(cfg.checkpoint);

    // Sample fleet-wide gauges every 10 sim minutes on the standing clock.
    let mut obs = RecordingObserver::new().with_gauge_period(SimTime::secs(600.0));
    let m = simulate_observed(&trace, &cfg, &mut sched, seed, &mut obs);
    println!("{}", m.summary());
    println!(
        "trace: {} lifecycle events | {} decisions | {} platform events | {} spans | {} gauge samples",
        obs.events.len(),
        obs.decisions.len(),
        obs.platform.len(),
        obs.attempts.len(),
        obs.gauges.len(),
    );

    // ---- The trace reconciles exactly with the metrics ----------------
    // Per-job span sums (spot attempts truncated by their reclaims, with
    // the simulator's own arithmetic) equal the JobRecord timings bit for
    // bit — same f64 operations, same bits.
    let timings = obs.span_timings();
    for &(job, queue, startup, run) in &timings {
        let rec = m
            .records
            .iter()
            .find(|r| r.id == job)
            .expect("span for a job the metrics know");
        assert_eq!(queue, rec.queue.as_secs(), "job {job}: queue drift");
        assert_eq!(startup, rec.startup.as_secs(), "job {job}: startup drift");
        assert_eq!(run, rec.run.as_secs(), "job {job}: run drift");
    }
    let dispatched = m.records.iter().filter(|r| !r.rejected).count();
    assert_eq!(
        timings.len(),
        dispatched,
        "every non-rejected job has dispatch spans"
    );
    println!("spans reconcile with JobRecord timings for all {dispatched} dispatched jobs ✓");

    // Every deferred/rejected/spot-admitted job is explained: a decision
    // record names the prices and ETAs that settled it.
    let mut audited = 0;
    for rec in &m.records {
        let decisions: Vec<&Decision> = obs
            .decisions
            .iter()
            .filter(|d| d.job == rec.id)
            .map(|d| &d.decision)
            .collect();
        if rec.deferred {
            assert!(
                decisions.iter().any(|d| matches!(
                    d,
                    Decision::Defer {
                        release_s: Some(_),
                        ..
                    }
                )),
                "deferred job {} lacks a priced Defer record",
                rec.id
            );
            audited += 1;
        }
        if rec.rejected {
            assert!(
                decisions
                    .iter()
                    .any(|d| matches!(d, Decision::Reject { .. })),
                "rejected job {} lacks a Reject record",
                rec.id
            );
            audited += 1;
        }
        if !rec.rejected && rec.route == Route::Spot {
            assert!(
                decisions.iter().any(|d| matches!(
                    d,
                    Decision::Admit {
                        route: Route::Spot,
                        spot_eta_s: Some(_),
                        ..
                    }
                )),
                "spot job {} lacks an Admit record with its risk-adjusted ETA",
                rec.id
            );
            audited += 1;
        }
    }
    assert!(
        m.deferred_jobs > 0 && m.jobs_on_spot > 0,
        "premise: the workload exercises deferrals and spot admissions"
    );
    println!("{audited} deferred/rejected/spot admissions carry full decision audits ✓");

    // ---- Export -------------------------------------------------------
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create trace output dir");
    let chrome = obs.to_chrome_trace();
    assert!(chrome.starts_with(r#"{"traceEvents":["#));
    std::fs::write(dir.join("trace.json"), obs.to_json()).expect("write trace.json");
    std::fs::write(dir.join("chrome_trace.json"), &chrome).expect("write chrome_trace.json");
    println!(
        "wrote {}/trace.json and chrome_trace.json — load the latter at https://ui.perfetto.dev",
        dir.display()
    );
}
