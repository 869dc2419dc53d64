//! Streaming replay at fleet scale, end to end: a **million-job** trace
//! replayed straight out of a generator — never materialized — in constant
//! resident memory, plus the byte-identity check that pins the streaming
//! engine to the in-memory one.
//!
//! Run with: `cargo run --release --example fleet_stream`
//!
//! Two things are asserted, both hard:
//!
//! 1. **Bounded residency.** `replay_stats` over 1,000,000 generated jobs
//!    reports a `peak_resident_jobs` high-water mark bounded by the
//!    in-flight working set (orders of magnitude below the trace length)
//!    — the whole point of pull-based arrivals plus the generational job
//!    slab.
//! 2. **Byte-identity.** A prefix of the same generator stream, fully
//!    materialized and run through the classic in-memory `simulate`,
//!    produces metrics JSON byte-identical to streaming replay of that
//!    prefix.
//!
//! The Google cluster-usage adapter's metrics on the bundled fixture are
//! pinned in `tests/fleet_artifacts.rs`.

use lambdaml::fleet::{
    replay, replay_stats, simulate, stream, ArrivalProcess, CostAware, FleetConfig,
    GeneratorSource, JobMix, NullObserver, TenantSpec,
};
use std::time::Instant;

const MILLION: usize = 1_000_000;
const PREFIX: usize = 20_000;

fn gen_source(n_jobs: usize) -> GeneratorSource {
    GeneratorSource::new(
        ArrivalProcess::Poisson { rate: 0.05 },
        JobMix::convex_mix(),
        TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.25,
            deadline_slack: 4.0,
        },
        n_jobs,
        42,
    )
}

fn main() {
    let cfg = FleetConfig::default();

    // 1. One million jobs, streamed from the generator: constant memory.
    let wall = Instant::now();
    let s = replay_stats(
        gen_source(MILLION),
        &cfg,
        &mut CostAware::new(),
        42,
        &mut NullObserver,
    )
    .expect("generated stream cannot fail");
    let secs = wall.elapsed().as_secs_f64();
    assert_eq!(s.jobs, MILLION as u64);
    assert_eq!(s.completed + s.rejected, MILLION as u64);
    assert!(s.completed > 0 && s.makespan.as_secs() > 0.0);
    // The hard bound: resident jobs track the in-flight set, not the
    // trace. 10,000 is two orders of magnitude below the trace length and
    // far above any steady-state working set this arrival rate produces.
    assert!(
        s.peak_resident_jobs < 10_000,
        "resident jobs must stay bounded: peak {} on {} jobs",
        s.peak_resident_jobs,
        s.jobs
    );
    println!(
        "streamed {} jobs in {secs:.2}s: completed={} rejected={} \
         peak_resident_jobs={} makespan={:.0}s total=${:.2}",
        s.jobs,
        s.completed,
        s.rejected,
        s.peak_resident_jobs,
        s.makespan.as_secs(),
        s.total_cost.as_usd()
    );

    // 2. Byte-identity on a materialized prefix of the same stream: the
    // generator is deterministic per job, so its first PREFIX jobs equal
    // the PREFIX-job source collected into a Trace.
    let trace = stream::collect(gen_source(PREFIX)).expect("collect");
    let in_memory = simulate(&trace, &cfg, &mut CostAware::new(), 42).to_json();
    let streamed = replay(gen_source(PREFIX), &cfg, &mut CostAware::new(), 42)
        .expect("prefix stream")
        .to_json();
    assert_eq!(
        streamed, in_memory,
        "streaming a generated prefix must reproduce the in-memory bytes"
    );
    println!(
        "prefix check: {PREFIX} jobs, streamed == in-memory ({} bytes)",
        in_memory.len()
    );

    println!("fleet_stream: all assertions passed");
}
