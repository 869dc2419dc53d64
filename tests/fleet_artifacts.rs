//! The fleet's JSON documents, pinned byte for byte: the sweeps' artifacts,
//! the observer's documents and the trace adapters' metrics, plus the
//! reports of the six sub-second paper experiments.
//!
//! `golden/fleet_artifacts.txt` holds one line per artifact,
//! `<fnv1a-64 hex> <bytes> <path>`, sorted by path. The paths:
//!
//! - `<sweep>/<seed>-<mode>/<file>`: every `lml_bench::EXPERIMENTS` entry
//!   named `fleet_*`, at seeds 7 and 42, in fast and `--full` mode. Each
//!   run's per-cell `metrics/v1` JSON files, plus a `table.txt` line for the
//!   table the runner returns. The whole set is regenerated through the
//!   public runners at 1, 2 and 8 sweep workers, and every pass must equal
//!   the manifest, so the worker count provably moves no byte.
//! - `observe/<case>/{trace,chrome,metrics}.json`: a `RecordingObserver`'s
//!   `trace/v1` and Chrome export, and the run's `metrics/v1`, for two
//!   gauged spot-heavy replays and four hand-fed recorders, one per class
//!   of escaped byte.
//! - `adapters/{google,azure,opendc}-sample-7/metrics.json`: the bundled
//!   Google cluster-usage, Azure Functions and OpenDC fixtures
//!   (`crates/fleet/data/`), Google's and OpenDC's streamed through their
//!   own `TraceSource`s and Azure's sorted rows through an
//!   `InMemorySource`, under `CostAware` and the default config at seed 7.
//! - `paper/<name>/7-fast/report.txt`: the report each of the
//!   [`PAPER_PINS`] experiments returns at seed 7 in fast mode. The other
//!   eleven paper experiments take minutes and are not pinned here.
//!
//! A mismatch names every moved, missing and extra path with its new hash,
//! then prints the whole new manifest. A change that moves artifacts on
//! purpose re-blesses them by pasting that over the file; the diff then
//! shows reviewers which files moved.
//!
//! These bytes are the licence for the indexed `ReadyQueue`
//! (`crates/fleet/src/queue.rs`): the EDF and DRR cells of `fleet_policies`
//! and `fleet_risk` are the byte-level witnesses that a capped heap pick
//! admits exactly what the linear scans did, so a queue change that moves
//! them is a behaviour change. The queue's differential-oracle and
//! call-count scaling tests live in `crates/fleet`. The same files witness
//! the launch/retire unification in `crates/fleet/src/sim/`: one
//! `begin_attempt` + `launch` pair serves all three tiers, and the spot and
//! checkpoint cells of `fleet_recovery` and `fleet_risk` pin the per-job
//! float order (queue, startup, run, charge) it must keep. `trace/v1`
//! records every observer callback in order, so the replays' traces pin
//! that the shared launch path narrates `Booting`, `Running`,
//! `FaasStart | CheckpointRestore` and the attempt span in that order. The
//! hand-fed Chrome exports pin that only spot spans are cut at their
//! reclaim: an IaaS span shares a reclaimed spot attempt's
//! `(job, attempt)`. The retire hook's two sinks are compared in
//! `tests/stream_equivalence.rs` (`replay_stats` vs the record fold).

mod golden;

use golden::{fnv1a, FNV_OFFSET};
use lambdaml::fleet::{
    azure, replay, simulate_observed, AllFaas, ArrivalProcess, AttemptSpan, CheckpointPolicy,
    CostAware, DeadlineAware, Decision, FleetConfig, FleetEvent, FleetMetrics, FleetObserver,
    GaugeSample, GoogleSource, InMemorySource, JobClass, JobLifecycle, JobMix, JobRecord,
    OpenDcSource, PlatformEvent, PlatformTotals, RecordingObserver, Route, TenantId, TenantSpec,
    Trace, TraceSource,
};
use lambdaml::sim::{Cost, SimTime};
use lml_bench::{Experiment, Harness, EXPERIMENTS};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;

const MANIFEST: &str = include_str!("golden/fleet_artifacts.txt");

/// Path → file bytes.
type Files = BTreeMap<String, Vec<u8>>;
/// Path → `<hash> <bytes>`, in path order.
type Manifest = BTreeMap<String, String>;

/// Every fleet sweep's artifacts, run on `workers` sweep threads.
fn artifacts(workers: usize) -> Files {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("fleet_artifacts")
        .join(format!("w{workers}"));
    let _ = std::fs::remove_dir_all(&root);
    let sweeps = EXPERIMENTS.iter().filter(|e| e.0.starts_with("fleet_"));
    let mut out = BTreeMap::new();
    for seed in [7, 42] {
        for (mode, fast) in [("fast", true), ("full", false)] {
            let run = format!("{seed}-{mode}");
            let h = Harness {
                seed,
                fast,
                out_root: root.join(&run),
                workers,
            };
            for (sweep, runner) in sweeps.clone() {
                let table = runner(&h);
                out.insert(format!("{sweep}/{run}/table.txt"), table.into_bytes());
                let dir = std::fs::read_dir(h.out_root.join(sweep)).expect("sweep wrote its dir");
                for file in dir {
                    let file = file.expect("readable dir entry");
                    let name = file.file_name().into_string().expect("UTF-8 file name");
                    let bytes = std::fs::read(file.path()).expect("readable artifact");
                    out.insert(format!("{sweep}/{run}/{name}"), bytes);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// A bursty three-tenant fleet with a budget-capped tenant, a hostile spot
/// market under checkpointed recovery and a small autoscaling IaaS pool,
/// run armed with the gauge clock. `hard_cap`
/// swaps the deadline-aware scheduler and its hourly budget window for
/// all-FaaS under a hard cap: no predictions, and refusals with no release
/// time.
fn recorded(hard_cap: bool, seed: u64) -> (RecordingObserver, FleetMetrics) {
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
        300,
        seed,
    )
    .with_budget(0, 0.02);
    let mut cfg = FleetConfig {
        budget_window: (!hard_cap).then_some(SimTime::hours(1.0)),
        deadline_miss_cost: 4.0,
        ..FleetConfig::default()
    };
    cfg.spot.mean_time_to_preempt = SimTime::secs(1_800.0);
    cfg.checkpoint = CheckpointPolicy::every(1);
    cfg.iaas.min_instances = 2;
    let mut obs = RecordingObserver::new().with_gauge_period(SimTime::secs(600.0));
    let m = if hard_cap {
        simulate_observed(&trace, &cfg, &mut AllFaas, seed, &mut obs)
    } else {
        let mut sched = DeadlineAware::for_config(&cfg)
            .with_spot_fraction(0.6)
            .with_spot_recovery(cfg.checkpoint);
        simulate_observed(&trace, &cfg, &mut sched, seed, &mut obs)
    };
    (obs, m)
}

/// The premise of pinning two replays: every decision and platform variant
/// occurs, every optional decision field is written both as a number and
/// as `null`, and the first run is spot-heavy and gauged.
fn assert_replays_reach_every_variant(runs: &[(RecordingObserver, FleetMetrics)]) {
    let decisions: Vec<&Decision> = runs
        .iter()
        .flat_map(|(obs, _)| obs.decisions.iter().map(|d| &d.decision))
        .collect();
    let platform: Vec<&PlatformEvent> = runs
        .iter()
        .flat_map(|(obs, _)| obs.platform.iter().map(|(_, ev)| ev))
        .collect();
    for name in ["admit", "defer", "reject"] {
        assert!(decisions.iter().any(|d| d.name() == name), "no {name}");
    }
    for name in [
        "faas_start",
        "autoscale_up",
        "autoscale_down",
        "spot_reclaim",
        "checkpoint_write",
        "checkpoint_restore",
    ] {
        assert!(platform.iter().any(|ev| ev.name() == name), "no {name}");
    }
    type Field = fn(&Decision) -> Option<Option<f64>>;
    let fields: [(&str, Field); 7] = [
        ("predicted_run_s", |d| match *d {
            Decision::Admit {
                predicted_run_s, ..
            } => Some(predicted_run_s),
            _ => None,
        }),
        ("admit eta_q_s", |d| match *d {
            Decision::Admit { eta_q_s, .. } => Some(eta_q_s),
            _ => None,
        }),
        ("spot_eta_s", |d| match *d {
            Decision::Admit { spot_eta_s, .. } => Some(spot_eta_s),
            _ => None,
        }),
        ("admit laxity_s", |d| match *d {
            Decision::Admit { laxity_s, .. } => Some(laxity_s),
            _ => None,
        }),
        ("refusal laxity_s", |d| match *d {
            Decision::Defer { laxity_s, .. } | Decision::Reject { laxity_s, .. } => Some(laxity_s),
            _ => None,
        }),
        ("release_s", |d| match *d {
            Decision::Defer { release_s, .. } | Decision::Reject { release_s, .. } => {
                Some(release_s)
            }
            _ => None,
        }),
        ("refusal eta_q_s", |d| match *d {
            Decision::Defer { eta_q_s, .. } | Decision::Reject { eta_q_s, .. } => Some(eta_q_s),
            _ => None,
        }),
    ];
    for (name, field) in fields {
        let seen: Vec<Option<f64>> = decisions.iter().filter_map(|d| field(d)).collect();
        assert!(seen.iter().any(Option::is_some), "{name} never Some");
        assert!(seen.iter().any(Option::is_none), "{name} never None");
    }
    let (obs, m) = &runs[0];
    assert!(
        m.preemptions > 0 && !obs.gauges.is_empty(),
        "spot-heavy, gauged"
    );
}

/// A hand-fed recorder and rollup, both named `policy`, with the
/// widest numbers and an IaaS span sharing a reclaimed spot attempt's
/// `(job, attempt)` (only spot spans are truncated).
fn hand_fed(policy: &str) -> (RecordingObserver, FleetMetrics) {
    let mut obs = RecordingObserver::new();
    obs.begin(policy, 3, 2);
    obs.lifecycle(&FleetEvent {
        at: SimTime::secs(0.5),
        job: u64::MAX,
        tenant: TenantId::MAX,
        route: Route::Spot,
        attempt: u32::MAX,
        from: JobLifecycle::Queued,
        to: JobLifecycle::Booting,
    });
    let spot = AttemptSpan {
        job: 1,
        tenant: 2,
        substrate: Route::Spot,
        attempt: 0,
        queued_at: SimTime::secs(0.0),
        dispatched_at: SimTime::secs(-2.2250738585072014e-308),
        startup_s: 1.2345678901234567e-300,
        run_s: 9.0,
    };
    obs.attempt(&spot);
    obs.attempt(&AttemptSpan {
        substrate: Route::Iaas,
        ..spot
    });
    obs.platform(
        SimTime::secs(3.0),
        &PlatformEvent::SpotReclaim {
            job: 1,
            attempt: 0,
            workers: 2,
            held_s: 4.0,
        },
    );
    obs.gauges(&GaugeSample {
        at: SimTime::secs(1.0),
        queue_depth: 1,
        deferred: 0,
        faas_in_use: 2,
        faas_limit: 3,
        iaas_busy: 4,
        iaas_capacity: 5,
        spot_in_use: 6,
        tenant_spend: vec![(0, 0.25), (7, 1e-7)],
    });
    let record = JobRecord {
        id: 1,
        class: JobClass::LrHiggs,
        route: Route::Spot,
        workers: 2,
        tenant: 2,
        submit: SimTime::ZERO,
        deadline: None,
        queue: SimTime::ZERO,
        startup: SimTime::secs(1.0),
        run: SimTime::secs(3.0),
        warm_hits: 0,
        preemptions: 1,
        resumes: 0,
        spot_attempts: 1,
        lost_work: SimTime::ZERO,
        checkpoint_writes: 0,
        checkpoint_cost: Cost::ZERO,
        rejected: false,
        deferred: false,
        predicted_run: None,
        predicted_run_q: None,
        predicted_cost: None,
        cost: Cost::usd(0.5),
    };
    let m = FleetMetrics::from_records(policy, 3, vec![record], PlatformTotals::default());
    (obs, m)
}

/// The observer's and the trace adapters' documents. None depends on the
/// sweep worker count.
fn documents() -> Files {
    let mut out = Files::new();
    let mut observed = |case: &str, (obs, m): &(RecordingObserver, FleetMetrics)| {
        for (file, doc) in [
            ("trace", obs.to_json()),
            ("chrome", obs.to_chrome_trace()),
            ("metrics", m.to_json()),
        ] {
            out.insert(format!("observe/{case}/{file}.json"), doc.into_bytes());
        }
    };
    let runs = [recorded(false, 42), recorded(true, 7)];
    assert_replays_reach_every_variant(&runs);
    observed("deadline-aware-42", &runs[0]);
    observed("all-faas-hard-cap-7", &runs[1]);
    // Each class of escaped byte alone, so the fast path must notice each,
    // then all of them together.
    for (case, policy) in [
        ("escaped-control", "tab\tlf\ncr\r\u{1}\u{1f}é∑"),
        ("escaped-quote", "say \"hi\""),
        ("escaped-backslash", "back\\slash"),
        ("escaped-all", "p\"q\\r\ns\tt\ru\u{1}v\u{1f}wé∑"),
    ] {
        observed(case, &hand_fed(policy));
    }
    let trace = std::str::from_utf8(&out["observe/escaped-all/trace.json"]).expect("UTF-8");
    assert!(trace.contains(r#""policy":"p\"q\\r\ns\tt\ru\u0001v\u001fwé∑""#));
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fleet/data");
    let google = std::fs::File::open(data.join("google_sample.csv")).expect("bundled fixture");
    let google = GoogleSource::new(BufReader::new(google));
    adapter(&mut out, "google", Ok(google));
    let csv = std::fs::read_to_string(data.join("azure_sample.csv")).expect("bundled fixture");
    let azure = azure::parse(&csv).expect("bundled fixture parses");
    adapter(&mut out, "azure", Ok(InMemorySource::new(&azure)));
    let opendc = OpenDcSource::from_dir(data.join("opendc"));
    adapter(&mut out, "opendc", opendc);
    out
}

/// Streams a bundled adapter fixture under `CostAware`, the default config
/// and seed 7, and files its `metrics/v1` as `adapters/<name>-sample-7`.
fn adapter(out: &mut Files, name: &str, source: Result<impl TraceSource, String>) {
    let source = source.unwrap_or_else(|e| panic!("{name} fixture: {e}"));
    let m = replay(source, &FleetConfig::default(), &mut CostAware::new(), 7)
        .unwrap_or_else(|e| panic!("{name} fixture streams: {e}"));
    let path = format!("adapters/{name}-sample-7/metrics.json");
    out.insert(path, m.to_json().into_bytes());
}

/// The paper experiments that together finish in about a second.
const PAPER_PINS: [&str; 6] = [
    "fig6_datasets",
    "table2_hybrid_rpc",
    "table3_patterns",
    "fig10_breakdown",
    "table6_constants",
    "ablations",
];

/// The report each [`PAPER_PINS`] experiment returns at seed 7, fast mode.
/// None depends on the sweep worker count.
fn paper_reports() -> Files {
    let h = Harness {
        seed: 7,
        ..Harness::default()
    };
    let pinned = EXPERIMENTS.iter().filter(|e| PAPER_PINS.contains(&e.0));
    let report = |(name, run): &Experiment| {
        let path = format!("paper/{name}/7-fast/report.txt");
        (path, run(&h).into_bytes())
    };
    pinned.map(report).collect()
}

/// Checks each JSON document's head, then pins each file: its FNV-1a and
/// byte count.
fn pin(files: Files) -> Manifest {
    for (path, bytes) in files.iter().filter(|(p, _)| p.ends_with(".json")) {
        let json = std::str::from_utf8(bytes).expect("UTF-8 JSON");
        let head = match path.rsplit('/').next() {
            Some("trace.json") => r#"{"schema":"lml-fleet/trace/v1""#,
            Some("chrome.json") => r#"{"traceEvents":["#,
            _ => {
                assert!(json.contains(r#""per_tenant":["#), "{path}: tenant rollup");
                r#"{"schema":"lml-fleet/metrics/v1""#
            }
        };
        assert!(json.starts_with(head), "{path}: document head");
    }
    files
        .into_iter()
        .map(|(path, b)| (path, format!("{:016x} {}", fnv1a(FNV_OFFSET, &b), b.len())))
        .collect()
}

fn render(manifest: &Manifest) -> String {
    let lines = manifest.iter().map(|(path, pin)| format!("{pin} {path}\n"));
    lines.collect()
}

/// Each line of `now` that differs from `pinned`, then the whole of `now`.
fn mismatch(pinned: &Manifest, now: &Manifest) -> String {
    let mut report = String::new();
    for (path, pin) in now {
        match pinned.get(path) {
            Some(old) if old == pin => {}
            Some(_) => report += &format!("moved   {pin} {path}\n"),
            None => report += &format!("extra   {pin} {path}\n"),
        }
    }
    for path in pinned.keys().filter(|p| !now.contains_key(*p)) {
        report += &format!("missing {path}\n");
    }
    format!("{report}\nnew manifest:\n{}", render(now))
}

#[test]
fn every_fleet_sweep_artifact_matches_the_manifest() {
    let pinned: Manifest = MANIFEST
        .lines()
        .map(|line| {
            let (pin, path) = line.rsplit_once(' ').expect("`<hash> <bytes> <path>`");
            (path.to_string(), pin.to_string())
        })
        .collect();
    let mut documents = pin(documents());
    documents.extend(pin(paper_reports()));
    for workers in [1, 2, 8] {
        let mut now = pin(artifacts(workers));
        now.extend(documents.clone());
        assert!(
            now == pinned,
            "at {workers} sweep workers the fleet artifacts differ from \
             tests/golden/fleet_artifacts.txt:\n{}",
            mismatch(&pinned, &now)
        );
    }
}
