//! The parent side: spawn passes as child processes, take medians, check
//! outputs against each other and against the golden files, and report.
//!
//! The load is closed-loop from one thread: children run one after the
//! other, each one pass. A run repeats passes until `--seconds` of
//! measured region have been spent (at least `min_passes`) and reports
//! the median of each end-to-end metric with its quartiles and `n`.

use crate::child::Report;
use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, END_TO_END, GOLDEN_SEED, MAX_PASSES, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct Opts {
    pub seed: u64,
    /// Seconds of measured region per workload.
    pub seconds: f64,
    /// Fewest passes, however short `seconds`.
    pub min_passes: usize,
    /// 1.0, or [`crate::workloads::SMOKE_SCALE`].
    pub scale: f64,
}

impl Opts {
    /// Goldens exist for one seed at the frozen sizes only.
    fn has_golden(&self) -> bool {
        self.seed == GOLDEN_SEED && self.scale == 1.0
    }
}

/// Scratch directory of one invocation, beside the executable (so inside
/// the build directory, which is inside the checkout). Removed on drop.
pub struct Workdir(PathBuf);

impl Workdir {
    pub fn create() -> Result<Workdir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("lml-benchmark-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Workdir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch file must not fail the run.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn_child(w: &Workload, opts: &Opts, traced: bool, workdir: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale", &format!("{:?}", opts.scale)])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--workdir")
        .arg(workdir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child of {} ended with {}", w.name, out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

/// What one workload's run produced.
pub struct Outcome {
    pub name: &'static str,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Per end-to-end metric, one value per pass (empty in a traced-only
    /// run).
    pub end_to_end: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer metrics of the traced pass (empty in an untraced run).
    pub per_layer: Vec<(&'static str, f64)>,
    pub outs: BTreeMap<String, String>,
    /// Diagnostics printed beside the metrics, not gated on.
    pub cpu_s: Vec<f64>,
}

impl Outcome {
    fn new(name: &'static str) -> Outcome {
        Outcome {
            name,
            attempted: 0,
            failures: Vec::new(),
            end_to_end: END_TO_END.iter().map(|m| (m.name, Vec::new())).collect(),
            per_layer: Vec::new(),
            outs: BTreeMap::new(),
            cpu_s: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Count one check; `failure` describes it if it did not hold.
    fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// Fold one child's report in; `false` if it could not be had at all.
    fn absorb(&mut self, report: Result<Report, String>) -> Option<Report> {
        match report {
            Err(e) => {
                self.check(Some(e));
                None
            }
            Ok(r) => {
                self.attempted += r.attempted;
                self.failures.extend(r.failures.iter().cloned());
                // Every pass of a seed must produce the same outputs.
                if self.outs.is_empty() {
                    self.outs = r.outs.clone();
                } else {
                    let differ = (self.outs != r.outs).then(|| {
                        format!(
                            "outputs differ between passes: {:?} vs {:?}",
                            self.outs, r.outs
                        )
                    });
                    self.check(differ);
                }
                Some(r)
            }
        }
    }

    pub fn values(&self, metric: &str) -> &[f64] {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or(&[], |(_, v)| v)
    }
}

/// The untraced passes of one workload: the end-to-end metrics.
pub fn measure(w: &'static Workload, opts: &Opts, workdir: &Path, into: &mut Outcome) {
    let mut spent = 0.0;
    let mut passes = 0;
    while passes < opts.min_passes || (spent < opts.seconds && passes < MAX_PASSES) {
        passes += 1;
        let Some(r) = into.absorb(spawn_child(w, opts, false, workdir)) else {
            // A child that cannot even report will not do better next time.
            break;
        };
        for (name, values) in into.end_to_end.iter_mut() {
            match r.metrics.get(*name) {
                Some(v) => values.push(*v),
                None => into.failures.push(format!("a pass reported no {name}")),
            }
        }
        into.cpu_s.extend(r.metrics.get("cpu_s"));
        // A pass that reports no time must not spin this loop to the cap.
        spent += r.metrics.get("wall_s").copied().unwrap_or(opts.seconds);
    }
}

/// The traced pass of one workload: every per-layer metric.
pub fn trace(w: &'static Workload, opts: &Opts, workdir: &Path, into: &mut Outcome) {
    let Some(r) = into.absorb(spawn_child(w, opts, true, workdir)) else {
        return;
    };
    for m in &PER_LAYER {
        let v = match m.name {
            "proc.cpu_s" => r.metrics.get("cpu_s"),
            "proc.peak_rss_mb" => r.metrics.get("peak_rss_mb"),
            name => r.metrics.get(name),
        };
        // A layer the workload does not exercise reads 0.
        into.per_layer.push((m.name, v.copied().unwrap_or(0.0)));
    }
}

/// Hold `outcome.outs` against the workload's golden file (or rewrite the
/// file under `--bless`).
pub fn check_golden(w: &Workload, opts: &Opts, bless: bool, outcome: &mut Outcome) {
    if !opts.has_golden() {
        return;
    }
    if bless {
        outcome.check(write_golden(w, &outcome.outs).err());
        return;
    }
    let golden = parse_golden(w.golden);
    let differ = (golden != outcome.outs).then(|| {
        format!(
            "outputs differ from golden/{}.txt (re-bless only if the simulated results were meant to change): got {:?}, golden {:?}",
            w.name, outcome.outs, golden
        )
    });
    outcome.check(differ);
}

pub fn parse_golden(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

pub fn render_golden(w: &Workload, outs: &BTreeMap<String, String>, toolchain: &str) -> String {
    let mut s = format!(
        "# Golden outputs of {} at seed {GOLDEN_SEED}: the simulated results and the FNV-1a\n\
         # fingerprint of every emitted value and JSON document. A change that only makes\n\
         # the program faster must leave this file as it is. Regenerate with\n\
         # `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --bless`.\n\
         # Produced with: {toolchain}\n",
        w.name
    );
    for (k, v) in outs {
        s.push_str(&format!("{k} {v}\n"));
    }
    s
}

fn write_golden(w: &Workload, outs: &BTreeMap<String, String>) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", w.name));
    std::fs::write(&path, render_golden(w, outs, &toolchain()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `rustc --version` and the C library, best effort, for the record.
pub fn toolchain() -> String {
    let first_line = |cmd: &str, arg: &str| {
        Command::new(cmd)
            .arg(arg)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("{cmd}: unknown"))
    };
    format!(
        "{}; {}",
        first_line("rustc", "--version"),
        first_line("ldd", "--version")
    )
}

/// Run one workload as the driver contract asks: untraced passes for
/// `--trace 0`, the traced pass for `--trace 1`.
pub fn run_contract(w: &'static Workload, opts: &Opts, traced: bool) -> Result<Outcome, String> {
    let workdir = Workdir::create()?;
    let mut outcome = Outcome::new(w.name);
    if traced {
        trace(w, opts, workdir.path(), &mut outcome);
    } else {
        measure(w, opts, workdir.path(), &mut outcome);
    }
    check_golden(w, opts, false, &mut outcome);
    Ok(outcome)
}

/// Run one workload in full: untraced passes, then the traced pass, whose
/// outputs must equal theirs.
pub fn run_full(w: &'static Workload, opts: &Opts, bless: bool) -> Result<Outcome, String> {
    let workdir = Workdir::create()?;
    let mut outcome = Outcome::new(w.name);
    measure(w, opts, workdir.path(), &mut outcome);
    trace(w, opts, workdir.path(), &mut outcome);
    check_golden(w, opts, bless, &mut outcome);
    Ok(outcome)
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// The result line of the driver contract: end-to-end medians for an
/// untraced run, per-layer values for a traced one.
pub fn contract_json(o: &Outcome, traced: bool) -> Json {
    let value = |name: &str, v: f64| {
        (
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    };
    let metrics = if traced {
        o.per_layer.iter().map(|(n, v)| value(n, *v)).collect()
    } else {
        o.end_to_end
            .iter()
            .filter(|(_, vs)| !vs.is_empty())
            .map(|(n, vs)| value(n, median(vs)))
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted.max(1))),
        ("failed", Json::Int(o.failures.len() as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One workload's entry in a result file (`run --out`, read by `compare`).
pub fn result_json(o: &Outcome) -> Json {
    let e2e = o
        .end_to_end
        .iter()
        .filter(|(_, vs)| !vs.is_empty())
        .map(|(name, vs)| {
            let [q1, q2, q3] = quartiles(vs);
            let entry = Json::obj(vec![
                ("unit", Json::str(unit_of(name))),
                ("n", Json::Int(vs.len() as u64)),
                ("median", Json::Num(q2)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(vs.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let layers = o
        .per_layer
        .iter()
        .map(|(name, v)| {
            let entry = Json::obj(vec![
                ("unit", Json::str(unit_of(name))),
                ("value", Json::Num(*v)),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let outs = o
        .outs
        .iter()
        .map(|(k, v)| (format!("out.{k}"), Json::str(v.as_str())))
        .collect();
    Json::obj(vec![
        ("name", Json::str(o.name)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted)),
        ("failed", Json::Int(o.failures.len() as u64)),
        (
            "failed_frac",
            Json::Num(o.failures.len() as f64 / o.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(o.failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
        ("end_to_end", Json::Obj(e2e)),
        ("per_layer", Json::Obj(layers)),
        ("out", Json::Obj(outs)),
    ])
}

/// Human-readable report of one workload.
pub fn print_outcome(w: &Workload, o: &Outcome) {
    println!("== {} ==", w.name);
    println!("   what: {}", w.shape);
    println!("   why:  {}", w.why);
    for (name, vs) in o.end_to_end.iter().filter(|(_, vs)| !vs.is_empty()) {
        let [q1, q2, q3] = quartiles(vs);
        let unit = unit_of(name);
        println!(
            "   {name:<28} {q2:>14.6} {unit:<6} median of n={}, quartiles [{q1:.6}, {q3:.6}]",
            vs.len()
        );
    }
    if let (false, Some(jobs)) = (o.values("wall_s").is_empty(), o.outs.get("fleet_jobs")) {
        if let Ok(jobs) = jobs.parse::<f64>() {
            println!(
                "   {:<28} {:>14.0} jobs/s (derived from wall_s)",
                "throughput",
                jobs / median(o.values("wall_s"))
            );
        }
    }
    if !o.cpu_s.is_empty() {
        println!(
            "   {:<28} {:>14.6} s      median per pass, set-up and warm-up included (diagnostic)",
            "proc.cpu_s",
            median(&o.cpu_s)
        );
    }
    for (name, v) in &o.per_layer {
        println!("   {name:<28} {v:>14.6} {}", unit_of(name));
    }
    for (k, v) in &o.outs {
        println!("   out.{k:<24} {v}");
    }
    println!(
        "   failed_frac                  {} of {} operations and checks",
        o.failures.len(),
        o.attempted
    );
    for f in &o.failures {
        println!("   FAILED: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn golden_files_round_trip_and_skip_comments() {
        let w = &WORKLOADS[0];
        let outs: BTreeMap<String, String> = [
            ("train_rounds".to_string(), "26".to_string()),
            (
                "train_fingerprint".to_string(),
                "00ff00ff00ff00ff".to_string(),
            ),
        ]
        .into();
        let text = render_golden(w, &outs, "rustc 1.0; glibc 2.0");
        assert!(text.starts_with("# Golden outputs of train_mlp_compute"));
        assert_eq!(parse_golden(&text), outs);
        assert!(parse_golden("# only comments\n\n").is_empty());
    }

    #[test]
    fn the_contract_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new("fleet_stream_idle");
        o.attempted = 9;
        for (name, vs) in o.end_to_end.iter_mut() {
            vs.extend([2.0, 1.0, 3.0].map(|v| v + name.len() as f64));
        }
        let line = contract_json(&o, false).render();
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(8.0));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );

        o.failures.push("x".into());
        let v = contract_json(&o, false);
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn differing_outputs_between_passes_are_a_failure() {
        let mut o = Outcome::new("x");
        let report = |rounds: &str| Report {
            outs: [("train_rounds".to_string(), rounds.to_string())].into(),
            attempted: 1,
            ..Report::default()
        };
        o.absorb(Ok(report("26")));
        o.absorb(Ok(report("26")));
        assert!(o.correct());
        o.absorb(Ok(report("27")));
        assert_eq!(o.failures.len(), 1);
        o.absorb(Err("child died".into()));
        assert_eq!(o.failures.len(), 2);
    }
}
