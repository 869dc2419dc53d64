//! The fleet sweeps' artifacts, pinned byte for byte.
//!
//! `golden/fleet_artifacts.txt` holds one line per artifact,
//! `<fnv1a-64 hex> <bytes> <sweep>/<seed>-<mode>/<file>`, sorted by path.
//! It covers every `lml_bench::EXPERIMENTS` entry named `fleet_*`, at
//! seeds 7 and 42, in fast and `--full` mode: each run's per-cell
//! `metrics/v1` JSON files, plus a `table.txt` line for the table the
//! runner returns. The whole set is regenerated through the public runners
//! at 1, 2 and 8 sweep workers, and every pass must equal the manifest, so
//! the worker count provably moves no byte.
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
//! float order (queue, startup, run, charge) it must keep. The retire
//! hook's two sinks are compared in `tests/stream_equivalence.rs`
//! (`replay_stats` vs the record fold).

mod golden;

use golden::{fnv1a, FNV_OFFSET};
use lml_bench::{Harness, EXPERIMENTS};
use std::collections::BTreeMap;
use std::path::Path;

const MANIFEST: &str = include_str!("golden/fleet_artifacts.txt");
const SCHEMA_HEAD: &str = r#"{"schema":"lml-fleet/metrics/v1""#;

/// Path → `<hash> <bytes>`, in path order.
type Manifest = BTreeMap<String, String>;

/// Every fleet sweep's artifacts, run on `workers` sweep threads: path →
/// file bytes.
fn artifacts(workers: usize) -> BTreeMap<String, Vec<u8>> {
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
    for workers in [1, 2, 8] {
        let files = artifacts(workers);
        for (path, bytes) in files.iter().filter(|(p, _)| p.ends_with(".json")) {
            let json = std::str::from_utf8(bytes).expect("UTF-8 JSON");
            assert!(json.starts_with(SCHEMA_HEAD), "{path}: schema header");
            assert!(json.contains(r#""per_tenant":["#), "{path}: tenant rollup");
        }
        let now: Manifest = files
            .into_iter()
            .map(|(path, b)| (path, format!("{:016x} {}", fnv1a(FNV_OFFSET, &b), b.len())))
            .collect();
        assert!(
            now == pinned,
            "at {workers} sweep workers the fleet artifacts differ from \
             tests/golden/fleet_artifacts.txt:\n{}",
            mismatch(&pinned, &now)
        );
    }
}
