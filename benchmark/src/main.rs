//! The repo benchmark. See README.md beside this package for the metric
//! and workload glossary; `workloads.rs` holds every fixed point.
//!
//! ```text
//! lml-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, the last stdout line a JSON result (driver contract)
//! lml-benchmark run [--seed <n>] [--sets <k>] [--smoke] [--bless] [--out <file>]
//!     all six workloads plus their traced passes, human-readable, and a
//!     result file for `compare`
//! lml-benchmark compare <a.json> <b.json>
//!     per workload and metric: medians, quartiles, delta against the bound
//! lml-benchmark describe
//!     print BENCHMARK.json (the repo-root copy must equal this output)
//! ```

#![deny(unsafe_code)]

mod alloc;
mod child;
mod compare;
mod decorators;
mod fleet;
mod json;
mod proc;
mod runner;
mod stats;
mod train;
mod workloads;

use json::Json;
use runner::Opts;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{GOLDEN_SEED, MIN_PASSES, RUN_SECONDS, SMOKE_SCALE, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        let found = self.0.iter().position(|a| a == name);
        found.map(|i| self.0.remove(i)).is_some()
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn workload(name: Option<String>) -> Result<&'static workloads::Workload, String> {
    let name = name.ok_or("--workload is required")?;
    workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })
}

fn trace_flag(flags: &mut Flags) -> Result<bool, String> {
    match flags.value("--trace")?.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
}

fn contract(mut flags: Flags) -> Result<ExitCode, String> {
    let w = workload(flags.value("--workload")?)?;
    let opts = Opts {
        seed: flags.parsed("--seed")?.unwrap_or(GOLDEN_SEED),
        seconds: flags.parsed("--seconds")?.unwrap_or(RUN_SECONDS),
        min_passes: MIN_PASSES,
        scale: 1.0,
    };
    let traced = trace_flag(&mut flags)?;
    flags.done()?;
    let outcome = runner::run_contract(w, &opts, traced)?;
    runner::print_outcome(w, &outcome);
    println!("{}", runner::contract_json(&outcome, traced).render());
    Ok(ExitCode::SUCCESS)
}

fn child(mut flags: Flags) -> Result<ExitCode, String> {
    let w = workload(flags.value("--workload")?)?;
    let workdir: PathBuf = flags
        .value("--workdir")?
        .ok_or("--workdir is required")?
        .into();
    let args = child::Args {
        kind: w.kind,
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        scale: flags.parsed("--scale")?.ok_or("--scale is required")?,
        traced: trace_flag(&mut flags)?,
        workdir: &workdir,
    };
    flags.done()?;
    print!("{}", child::run(&args).render());
    Ok(ExitCode::SUCCESS)
}

fn run(mut flags: Flags) -> Result<ExitCode, String> {
    let smoke = flags.flag("--smoke");
    let bless = flags.flag("--bless");
    let sets: usize = flags.parsed("--sets")?.unwrap_or(1);
    let out: Option<PathBuf> = flags.value("--out")?.map(Into::into);
    let opts = Opts {
        seed: flags.parsed("--seed")?.unwrap_or(GOLDEN_SEED),
        // Smoke: two passes, the fewest that can disagree on an output.
        seconds: if smoke { 0.0 } else { RUN_SECONDS },
        min_passes: if smoke { 2 } else { MIN_PASSES },
        scale: if smoke { SMOKE_SCALE } else { 1.0 },
    };
    flags.done()?;
    if !(1..=2).contains(&sets) {
        return Err("--sets takes 1 or 2".into());
    }
    if smoke && sets > 1 {
        return Err("--sets compares timings, and smoke passes are too short to compare".into());
    }
    if bless && (smoke || opts.seed != GOLDEN_SEED) {
        return Err(format!(
            "--bless records seed {GOLDEN_SEED} at full size only"
        ));
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let toolchain = runner::toolchain();
    println!(
        "lml-benchmark: seed {}, {cores} cores, load threads 1, {toolchain}",
        opts.seed
    );
    let mut all_correct = true;
    let mut set_docs = Vec::new();
    for set in 0..sets {
        if sets > 1 {
            println!("==== set {} of {sets} ====", set + 1);
        }
        let mut entries = Vec::new();
        for w in &WORKLOADS {
            let outcome = runner::run_full(w, &opts, bless && set == 0)?;
            runner::print_outcome(w, &outcome);
            all_correct &= outcome.correct();
            entries.push(runner::result_json(&outcome));
        }
        set_docs.push(Json::obj(vec![("workloads", Json::Arr(entries))]));
    }

    let mut regressed = 0;
    if let [first, second] = set_docs.as_slice() {
        println!("==== set 2 against set 1 (same build: differences are noise) ====");
        let (a, b) = (compare::read_set(first)?, compare::read_set(second)?);
        regressed = compare::print(&a, &b, "set 1", "set 2");
    }

    let doc = Json::obj(vec![
        ("schema", Json::str("lml-benchmark/result/v1")),
        ("seed", Json::Int(opts.seed)),
        ("scale", Json::Num(opts.scale)),
        ("cores", Json::Int(cores as u64)),
        ("load_threads", Json::Int(1)),
        ("toolchain", Json::str(toolchain)),
        ("sets", Json::Arr(set_docs)),
    ]);
    let path = match out {
        Some(p) => p,
        None => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let dir = exe.parent().ok_or("executable has no parent directory")?;
            dir.join(format!("lml-benchmark-result-seed{}.json", opts.seed))
        }
    };
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());

    if !all_correct {
        return Err("at least one operation or check failed (see FAILED lines above)".into());
    }
    if regressed > 0 {
        return Err(format!(
            "{regressed} metric(s) differ between the two sets by more than their bound"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let bad = compare::print(&compare::read_file(a)?, &compare::read_file(b)?, a, b);
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The driver's command: build (if stale) and run this package. The
/// driver appends `--workload … --seed … --seconds … --trace …`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the fixed points in `workloads.rs` so
/// the driver's copy cannot drift from what the program measures.
fn describe() -> String {
    let q = |s: &str| Json::str(s).render();
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let end_to_end = workloads::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {:?}}}",
                q(m.name),
                q(m.unit),
                q(m.better.name()),
                m.bound
            )
        })
        .collect();
    let per_layer = workloads::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.name())
            )
        })
        .collect();
    let command: Vec<String> = COMMAND.iter().map(|c| q(c)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS as u64,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(Flags(args.split_off(1))),
        Some("compare") => compare_files(&args[1..]),
        Some("child") => child(Flags(args.split_off(1))),
        Some("describe") => {
            print!("{}", describe());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => contract(Flags(args)),
        _ => Err("usage: lml-benchmark (--workload <name> --seed <n> --seconds <s> --trace <0|1> | run [--seed <n>] [--sets <k>] [--smoke] [--bless] [--out <file>] | compare <a.json> <b.json> | describe)".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lml-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{END_TO_END, PER_LAYER};

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_parse_values_switches_and_reject_leftovers() {
        let mut f = flags(&["--seed", "7", "--smoke", "--out", "x.json"]);
        assert_eq!(f.parsed::<u64>("--seed").unwrap(), Some(7));
        assert!(f.flag("--smoke") && !f.flag("--bless"));
        assert_eq!(f.value("--out").unwrap().as_deref(), Some("x.json"));
        assert!(f.done().is_ok());
        assert!(flags(&["--seed"]).value("--seed").is_err());
        assert!(flags(&["--seed", "x"]).parsed::<u64>("--seed").is_err());
        assert!(flags(&["--what"]).done().is_err());
        assert!(trace_flag(&mut flags(&["--trace", "2"])).is_err());
        assert!(trace_flag(&mut flags(&["--trace", "1"])).unwrap());
    }

    /// The driver reads `BENCHMARK.json` at the repo root, the program
    /// reads `workloads.rs`; `describe` generates the one from the other.
    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            committed,
            describe(),
            "regenerate with `lml-benchmark describe`"
        );
        let doc = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let len = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().len();
        assert_eq!(len("workloads"), WORKLOADS.len());
        assert_eq!(len("end_to_end"), END_TO_END.len());
        assert_eq!(len("per_layer"), PER_LAYER.len());
        assert!(committed.len() < 64 * 1024);
    }
}
