//! OpenDC serverless trace adapter.
//!
//! OpenDC's serverless-workload format stores one CSV **per function**,
//! each an invocation timeline:
//!
//! ```text
//! Timestamp [ms],Invocations,Avg Exec time per Invocation,Provisioned CPU,...
//! 300000,2,350,1,128,...
//! ```
//!
//! A row says "this function was invoked N times in the window starting
//! at this timestamp". This module adapts a set of such timelines onto
//! the fleet simulator as a streaming [`TraceSource`]: the per-function
//! files are k-way merged in timestamp order (ties break on function
//! index, i.e. file order), and every invocation becomes one training-job
//! submission. Functions map onto tenants by their index in file order,
//! and onto the Table 4 job zoo by the same FNV-1a hash of the function
//! name that the Azure and Google adapters use, so the mapping is
//! deterministic across runs and platforms.
//!
//! Each timeline must be sorted by timestamp (OpenDC writes them that
//! way); the merge then yields a globally non-decreasing arrival stream
//! with constant memory per function — one buffered row each — which is
//! what the [`TraceSource`] contract requires. Files that violate time
//! order are rejected (streaming cannot re-sort). Rows with zero
//! invocations are skipped. Extra columns (exec time, provisioned
//! CPU/memory, usage averages) are ignored.
//!
//! OpenDC timelines carry no budget notion, so [`TraceSource::budgets`]
//! returns the empty map — only trace-text v3 preambles declare budgets.
//!
//! A bundled fixture lives under `crates/fleet/data/opendc/`.

use crate::job::{JobRequest, TenantId};
use crate::stream::{adapted_job, Lines, TraceSource};
use crate::workload::Trace;
use lml_sim::SimTime;
use std::collections::BTreeMap;
use std::io::BufRead;

/// One per-function timeline being streamed: the reader plus the one
/// buffered row the k-way merge peeks at.
struct FunctionStream<R> {
    name: String,
    lines: Lines<R>,
    last_ts: f64,
    /// Next unconsumed row: `(timestamp_secs, invocations_left)`.
    pending: Option<(f64, u64)>,
}

impl<R: BufRead> FunctionStream<R> {
    /// Advance to the next row with a positive invocation count, filling
    /// `pending` (left empty at the end of the timeline). Returns an error
    /// on malformed or time-disordered rows.
    fn refill(&mut self) -> Result<(), String> {
        while self.pending.is_none() {
            let Some(row) = self.lines.next_row()? else {
                return Ok(());
            };
            let range = "timestamp must be finite and >= 0";
            let ts = row.at_least(0, "timestamp", 0.0, range)? / 1e3;
            let invocations: u64 = row.parse(1, "invocation count")?;
            row.check(
                ts >= self.last_ts,
                "timeline not sorted by timestamp (the streaming adapter cannot re-sort)",
            )?;
            self.last_ts = ts;
            if invocations > 0 {
                self.pending = Some((ts, invocations));
            }
        }
        Ok(())
    }
}

/// Streaming adapter over a set of OpenDC per-function invocation
/// timelines: pull-based k-way merge, one buffered row per function.
pub struct OpenDcSource<R> {
    functions: Vec<FunctionStream<R>>,
    /// Lazily primed: every stream's first row buffered before merging.
    primed: bool,
    next_id: u64,
}

impl<R: BufRead> OpenDcSource<R> {
    /// Build from `(function_name, reader)` pairs. File order defines the
    /// tenant id (function index) and the merge tie-break.
    pub fn new(functions: impl IntoIterator<Item = (String, R)>) -> Self {
        OpenDcSource {
            functions: functions
                .into_iter()
                .map(|(name, reader)| FunctionStream {
                    lines: Lines::new(reader, Some("time"), format!("{name}: ")),
                    name,
                    last_ts: 0.0,
                    pending: None,
                })
                .collect(),
            primed: false,
            next_id: 0,
        }
    }
}

impl OpenDcSource<std::io::BufReader<std::fs::File>> {
    /// Open every `*.csv` in `dir` as a function timeline, in sorted
    /// filename order (which fixes tenant ids deterministically).
    pub fn from_dir(dir: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let dir = dir.as_ref();
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("{}: no *.csv timelines found", dir.display()));
        }
        let mut functions = Vec::with_capacity(paths.len());
        for path in paths {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let file =
                std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            functions.push((name, std::io::BufReader::new(file)));
        }
        Ok(Self::new(functions))
    }
}

impl<R: BufRead> TraceSource for OpenDcSource<R> {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        // Invocation timelines carry no budget notion; every tenant is
        // uncapped (only trace-text v3 preambles declare budgets).
        Ok(BTreeMap::new())
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        if !self.primed {
            for f in &mut self.functions {
                f.refill()?;
            }
            self.primed = true;
        }
        // Earliest buffered row wins; the strict `<` keeps the lowest
        // function index on ties, so the merge is deterministic.
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in self.functions.iter().enumerate() {
            if let Some((ts, _)) = f.pending {
                if best.is_none_or(|(bts, _)| ts < bts) {
                    best = Some((ts, i));
                }
            }
        }
        let Some((_, i)) = best else { return Ok(None) };
        let f = &mut self.functions[i];
        let (ts, left) = f.pending.take().expect("best has a pending row");
        if left > 1 {
            f.pending = Some((ts, left - 1));
        } else {
            f.refill()?;
        }
        let id = self.next_id;
        self.next_id += 1;
        let submit = SimTime::secs(ts);
        Ok(Some(adapted_job(id, &f.name, submit, i as TenantId)))
    }
}

/// Parse `(function_name, csv)` pairs into an in-memory [`Trace`] by
/// draining the streaming source (convenience for fixtures and tests).
pub fn parse(functions: &[(&str, &str)]) -> Result<Trace, String> {
    crate::stream::collect(OpenDcSource::new(
        functions
            .iter()
            .map(|&(name, csv)| (name.to_string(), csv.as_bytes())),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::collect;

    const FIXTURE: [(&str, &str); 3] = [
        ("img-resize", include_str!("../data/opendc/img-resize.csv")),
        ("ml-train", include_str!("../data/opendc/ml-train.csv")),
        ("thumb-gen", include_str!("../data/opendc/thumb-gen.csv")),
    ];

    #[test]
    fn bundled_fixture_parses() {
        let trace = parse(&FIXTURE).expect("bundled fixture must parse");
        assert!(trace.len() >= 10, "fixture has {} jobs", trace.len());
        let tenants = trace.tenants();
        assert_eq!(tenants, vec![0, 1, 2], "one tenant per function file");
        assert!(trace.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(trace.budgets.is_empty(), "OpenDC carries no budgets");
    }

    #[test]
    fn from_dir_matches_in_memory_fixture() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data/opendc");
        let from_dir = collect(OpenDcSource::from_dir(dir).unwrap()).unwrap();
        assert_eq!(from_dir, parse(&FIXTURE).unwrap());
    }

    #[test]
    fn invocation_counts_fan_out_and_merge_breaks_ties_by_file_order() {
        let t = parse(&[
            ("b-second", "Timestamp [ms],Invocations\n1000,2\n3000,1\n"),
            ("a-first", "Timestamp [ms],Invocations\n1000,1\n2000,1\n"),
        ])
        .unwrap();
        // 1000ms: two from file 0, one from file 1 (file order, not name
        // order, breaks the tie); then 2000ms, then 3000ms.
        let got: Vec<(f64, TenantId)> = t
            .jobs
            .iter()
            .map(|j| (j.submit.as_secs(), j.tenant))
            .collect();
        assert_eq!(got, vec![(1.0, 0), (1.0, 0), (1.0, 1), (2.0, 1), (3.0, 0)]);
        assert_eq!(
            t.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "ids are assigned in arrival order"
        );
    }

    #[test]
    fn zero_invocation_rows_are_skipped() {
        let t = parse(&[("f", "Timestamp [ms],Invocations\n0,0\n1000,0\n2000,1\n")]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.jobs[0].submit, SimTime::secs(2.0));
    }

    const UNSORTED: &str =
        "timeline not sorted by timestamp (the streaming adapter cannot re-sort)";

    #[test]
    fn out_of_order_timelines_are_rejected() {
        let e = parse(&[("f", "Timestamp [ms],Invocations\n5000,1\n2000,1\n")]).unwrap_err();
        assert_eq!(e, format!("f: line 3: {UNSORTED}"));
        // Zero-invocation rows are still checked for order.
        let e = parse(&[("g", "5000,0\n\n2000,1\n")]).unwrap_err();
        assert_eq!(e, format!("g: line 3: {UNSORTED}"));
    }

    #[test]
    fn malformed_rows_are_rejected_with_function_and_line() {
        for (bad, want) in [
            (
                "soon,1\n",
                "f: line 1: bad timestamp: invalid float literal",
            ),
            ("nan,1\n", "f: line 1: timestamp must be finite and >= 0"),
            ("-1,1\n", "f: line 1: timestamp must be finite and >= 0"),
            (
                "1000,often\n",
                "f: line 1: bad invocation count: invalid digit found in string",
            ),
            (
                "1000\n",
                "f: line 1: bad invocation count: cannot parse integer from empty string",
            ),
            // Blank, `#` and header lines count; CRLF is trimmed.
            (
                "# c\r\n\r\nTimestamp [ms],Invocations\r\n1000,-1\r\n",
                "f: line 4: bad invocation count: invalid digit found in string",
            ),
        ] {
            assert_eq!(parse(&[("f", bad)]).unwrap_err(), want, "{bad:?}");
        }
        // The faulty function is named, whichever file it is.
        let e = parse(&[("ok", "1000,1\n"), ("bad", "1000,1\nsoon,1\n")]).unwrap_err();
        assert_eq!(e, "bad: line 2: bad timestamp: invalid float literal");
        // A read error names the function and the line it stopped at.
        let bytes: &[u8] = b"1000,1\n\xff,1\n";
        assert_eq!(
            collect(OpenDcSource::new([("f".to_string(), bytes)])).unwrap_err(),
            "f: line 2: read error: stream did not contain valid UTF-8"
        );
    }

    #[test]
    fn headers_comments_and_blanks_are_skipped() {
        let csv = "# opendc export\nTimestamp [ms],Invocations,Avg Exec time\n\n1000,1,350\n";
        let t = parse(&[("f", csv)]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(parse(&[]).unwrap().is_empty(), "no functions, no jobs");
        assert!(parse(&[("f", "")]).unwrap().is_empty());
    }
}
