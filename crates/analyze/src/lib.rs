//! # lml-analyze — workspace static analysis for the determinism contracts
//!
//! Every headline number this reproduction produces rests on contracts that
//! used to be enforced only by convention and CI double-runs: byte-stable
//! sweep JSON, additive-only schemas, no wall clocks or unseeded randomness
//! in simulation logic. CI's determinism diffs catch a violation *after* it
//! lands in an artifact; this crate catches the whole class at the source
//! level, before anything runs.
//!
//! Three passes share one hand-rolled lexer ([`lexer`]):
//!
//! * [`lints`] — **determinism lints**: `HashMap`/`HashSet` in the
//!   simulation crates, `Instant`/`SystemTime` anywhere, float `==`/`!=`,
//!   `static mut`, and `thread::spawn`/`scope`/`Builder` outside
//!   `lml_sim::par`. Waivable inline with `// lml-analyze: allow(<lint>)`.
//! * [`mod@panic`] — a **panic-surface ratchet**: per-crate `unwrap` / `expect`
//!   / `panic!` / `[idx]` counts held to `crates/analyze/panic_budget.toml`,
//!   which can only shrink.
//! * [`schema`] — **schema locks**: the field names the hand-rolled JSON
//!   emitters write, checked against `schemas/*.lock` so the additive-only
//!   rule is mechanical.
//!
//! The `lml-analyze` binary drives all three; CI runs
//! `cargo run -p lml-analyze --release -- --check` as a gating lint step,
//! and `tests/workspace_clean.rs` runs the same check under `cargo test`.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod panic;
pub mod schema;

use lints::Finding;
use panic::{Budget, PanicCounts};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one full pass over a workspace produces, before baseline
/// comparison: lint findings plus the measured panic counts and extracted
/// schema fields that `--check` compares and `--write-baseline` records.
#[derive(Debug, Default)]
struct Analysis {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub panic_counts: BTreeMap<String, PanicCounts>,
    pub schema_fields: Vec<(schema::Emitter, std::collections::BTreeSet<String>)>,
}

/// The final report of a `--check` run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    pub fn gating_count(&self) -> usize {
        self.findings.iter().filter(|f| f.gating).count()
    }
}

/// Discover the crates to scan: every `crates/<dir>/src` plus the root
/// `src/` (the `lambdaml` facade crate). Returns `(package_name, src_dir)`
/// pairs in sorted order so output is deterministic.
fn discover_crates(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join("src").is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            out.push((format!("lml-{name}"), dir.join("src")));
        }
    }
    if root.join("src").is_dir() {
        out.push(("lambdaml".to_string(), root.join("src")));
    }
    Ok(out)
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lex and lint every source file; measure panic counts; extract schema
/// fields. Pure data gathering — no baseline files are read.
fn analyze(root: &Path) -> io::Result<Analysis> {
    let mut a = Analysis::default();
    for (package, src_dir) in discover_crates(root)? {
        let mut counts = PanicCounts::default();
        for file in rust_files(&src_dir)? {
            let rel_path = rel(root, &file);
            let opts = config::lint_opts(&package, &rel_path);
            let source = fs::read_to_string(&file)?;
            let lexed = lexer::lex(&source);
            a.findings
                .extend(lints::check_file(&rel_path, &lexed, opts));
            counts.add(panic::count(&lexed.tokens));
            for emitter in config::EMITTERS {
                if emitter.file == rel_path {
                    let fields = schema::extract_fields(&lexed, emitter.key_helpers);
                    a.schema_fields.push((emitter, fields));
                }
            }
            a.files_scanned += 1;
        }
        a.panic_counts.insert(package, counts);
    }
    Ok(a)
}

/// Full check: determinism lints + panic ratchet + schema locks + docs
/// drift, against the committed baselines under `root`.
pub fn run_check(root: &Path) -> io::Result<Report> {
    let analysis = analyze(root)?;
    let mut findings = analysis.findings;

    let budget_path = root.join(config::PANIC_BUDGET_PATH);
    match fs::read_to_string(&budget_path) {
        Ok(text) => match Budget::parse(&text) {
            Ok(budget) => findings.extend(panic::check(
                &analysis.panic_counts,
                &budget,
                config::PANIC_BUDGET_PATH,
            )),
            Err(e) => findings.push(Finding {
                file: config::PANIC_BUDGET_PATH.into(),
                line: 0,
                lint: "panic-ratchet".into(),
                msg: e,
                gating: true,
            }),
        },
        Err(_) => findings.push(Finding {
            file: config::PANIC_BUDGET_PATH.into(),
            line: 0,
            lint: "panic-ratchet".into(),
            msg: "missing panic budget — run `lml-analyze --write-baseline` and commit it".into(),
            gating: true,
        }),
    }

    // A configured emitter that vanished would otherwise silently skip its
    // lock check — deleting metrics.rs must not read as "schema intact".
    for emitter in config::EMITTERS {
        if !analysis
            .schema_fields
            .iter()
            .any(|(e, _)| e.file == emitter.file)
        {
            findings.push(Finding {
                file: emitter.file.into(),
                line: 0,
                lint: "schema-lock".into(),
                msg: format!(
                    "configured emitter `{}` not found — if the file moved, update \
                     `lml_analyze::config::EMITTERS`",
                    emitter.file
                ),
                gating: true,
            });
        }
    }

    let docs = fs::read_to_string(root.join(config::SCHEMA_DOCS_PATH)).ok();
    for (emitter, fields) in &analysis.schema_fields {
        let lock_path = root
            .join(config::SCHEMAS_DIR)
            .join(format!("{}.lock", emitter.name));
        let lock = fs::read_to_string(&lock_path).ok();
        findings.extend(schema::check(
            emitter,
            fields,
            lock.as_deref(),
            docs.as_deref(),
        ));
    }

    Ok(Report {
        findings,
        files_scanned: analysis.files_scanned,
    })
}

/// Regenerate the committed baselines: the panic budget and every schema
/// lock. Returns one human-readable line per file written.
pub fn write_baseline(root: &Path) -> io::Result<Vec<String>> {
    let analysis = analyze(root)?;
    let mut written = Vec::new();

    let budget = Budget {
        crates: analysis.panic_counts,
    };
    let budget_path = root.join(config::PANIC_BUDGET_PATH);
    fs::write(&budget_path, budget.render())?;
    written.push(format!("wrote {}", config::PANIC_BUDGET_PATH));

    let schemas_dir = root.join(config::SCHEMAS_DIR);
    fs::create_dir_all(&schemas_dir)?;
    for (emitter, fields) in &analysis.schema_fields {
        let path = schemas_dir.join(format!("{}.lock", emitter.name));
        fs::write(
            &path,
            schema::render_lock(emitter.name, emitter.file, fields),
        )?;
        written.push(format!(
            "wrote {}/{}.lock",
            config::SCHEMAS_DIR,
            emitter.name
        ));
    }
    Ok(written)
}
