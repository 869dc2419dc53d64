//! Azure-Functions-style trace adapter.
//!
//! The Azure Functions 2019/2021 public traces record serverless
//! invocations as CSV rows keyed by hashed owner / app / function ids with
//! an end timestamp and a duration. This module adapts that shape onto the
//! fleet simulator: each row becomes one training-job submission, owners
//! become tenants (dense ids in order of first appearance), and function
//! ids are hashed deterministically onto the Table 4 job zoo. The public
//! CSVs are not sorted by submission time, so [`parse`] buffers and sorts
//! the rows into a [`Trace`]; an [`InMemorySource`](crate::InMemorySource)
//! streams it into the replay engine, so an adapted trace obeys exactly
//! the same validation and replay guarantees as a hand-written one
//! (`parse(csv)?.to_text()` renders it in the portable native text form).
//!
//! Accepted line format (header line and `#` comments are skipped):
//!
//! ```text
//! end_timestamp_ms,owner,app,func,duration_ms
//! 81000,owner-a,app-1,func-lr,21000
//! ```
//!
//! A bundled sample lives at `crates/fleet/data/azure_sample.csv`.

use crate::stream::{adapted_job, Lines, Tenants};
use crate::workload::Trace;
use lml_sim::SimTime;

const RANGE: &str = "timestamps must be finite, duration >= 0";

/// Parse Azure-style CSV into a [`Trace`]: rows sorted by submission time,
/// ids assigned in that order, owners interned as tenants in order of
/// first appearance in it, so the mapping is a pure function of the
/// (sorted) trace.
pub fn parse(csv: &str) -> Result<Trace, String> {
    let mut rows = Vec::new();
    let mut lines = Lines::new(csv.as_bytes(), Some("endtimestamp"), String::new());
    while let Some(row) = lines.next_row()? {
        let n = row.len();
        row.check(
            n == 5,
            format_args!("expected 5 comma-separated fields, got {n}"),
        )?;
        let end_ms: f64 = row.parse(0, "end timestamp")?;
        // Both fields parse before either is range-checked.
        let duration_ms = row.at_least(4, "duration", 0.0, RANGE)?;
        row.check(end_ms.is_finite(), RANGE)?;
        let submit_secs = (end_ms - duration_ms) / 1_000.0;
        row.check(
            submit_secs >= 0.0,
            "invocation starts before the trace epoch",
        )?;
        let (owner, func) = (row.field(1), row.field(3));
        row.check(
            !owner.is_empty() && !func.is_empty(),
            "empty owner or function id",
        )?;
        rows.push((submit_secs, owner.to_string(), func.to_string()));
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut tenants = Tenants::default();
    let jobs = (0..)
        .zip(&rows)
        .map(|(id, (submit, owner, func))| {
            adapted_job(id, func, SimTime::secs(*submit), tenants.id(owner))
        })
        .collect();
    Ok(Trace::from_jobs(jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{collect, InMemorySource, TraceSource};

    const SAMPLE: &str = include_str!("../data/azure_sample.csv");

    #[test]
    fn bundled_sample_parses() {
        let trace = parse(SAMPLE).expect("bundled sample must parse");
        assert!(trace.len() >= 30, "sample has {} jobs", trace.len());
        let tenants = trace.tenants();
        assert!(tenants.len() >= 3, "sample spans {} tenants", tenants.len());
        // Tenant ids are dense, starting at 0.
        assert_eq!(tenants, (0..tenants.len() as u32).collect::<Vec<_>>());
        assert!(trace.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    }

    #[test]
    fn source_streams_the_same_jobs_as_parse() {
        let trace = parse(SAMPLE).unwrap();
        let mut src = InMemorySource::new(&trace);
        assert_eq!(src.len_hint(), Some(trace.len()));
        assert!(src.budgets().unwrap().is_empty());
        let streamed = collect(InMemorySource::new(&trace)).unwrap();
        assert_eq!(streamed, trace);
    }

    #[test]
    fn out_of_order_rows_are_sorted_not_rejected() {
        let csv = "5000,o1,a,f1,1000\n2000,o2,a,f2,1000\n";
        let t = parse(csv).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.jobs[0].submit < t.jobs[1].submit);
        // The earlier submission's owner becomes tenant 0.
        assert_eq!(t.jobs[0].tenant, 0);
    }

    const RANGE: &str = "timestamps must be finite, duration >= 0";

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        for (bad, want) in [
            ("1000,o,a,f\n", "expected 5 comma-separated fields, got 4"),
            (
                "soon,o,a,f,10\n",
                "bad end timestamp: invalid float literal",
            ),
            ("1000,o,a,f,later\n", "bad duration: invalid float literal"),
            // Both fields parse before either is range-checked.
            ("nan,o,a,f,later\n", "bad duration: invalid float literal"),
            ("1000,o,a,f,-5\n", RANGE),
            ("inf,o,a,f,-5\n", RANGE),
            (
                "1000,o,a,f,2000\n",
                "invocation starts before the trace epoch",
            ),
            ("1000,,a,f,10\n", "empty owner or function id"),
            ("1000,o,a,,10\n", "empty owner or function id"),
        ] {
            let want = format!("line 1: {want}");
            assert_eq!(parse(bad).unwrap_err(), want, "{bad:?}");
        }
    }

    #[test]
    fn empty_and_comment_only_csv_yield_empty_traces() {
        assert!(parse("").unwrap().is_empty());
        let with_header = "# comment\nend_timestamp_ms,owner,app,func,duration_ms\n";
        assert!(parse(with_header).unwrap().is_empty());
    }

    #[test]
    fn header_variants_are_all_recognized() {
        for header in [
            "end_timestamp_ms,owner,app,func,duration_ms",
            "EndTimestampMs,Owner,App,Func,DurationMs",
            "END_TIMESTAMP_MS,OWNER,APP,FUNC,DURATION_MS",
            "End Timestamp (ms),Owner,App,Func,Duration (ms)",
            "end-timestamp-ms,owner,app,func,duration-ms",
        ] {
            let csv = format!("{header}\n2000,o1,a,f1,1000\n");
            let t = parse(&csv).unwrap_or_else(|e| panic!("{header:?}: {e}"));
            assert_eq!(t.len(), 1, "{header:?}");
        }
        // A data-looking first field is NOT a header, even if later fields
        // resemble column names.
        assert!(parse("1000,end_timestamp_ms,a,f,10\n").is_ok());
    }

    #[test]
    fn mid_file_headers_and_crlf_are_tolerated() {
        // Concatenated shards: each re-emits its header; CRLF line endings
        // survive `str::lines`.
        let csv = "end_timestamp_ms,owner,app,func,duration_ms\r\n\
                   2000,o1,a,f1,1000\r\n\
                   end_timestamp_ms,owner,app,func,duration_ms\r\n\
                   5000,o2,a,f2,1000\r\n";
        let t = parse(csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.tenants(), vec![0, 1]);
    }

    #[test]
    fn malformed_rows_beyond_the_happy_path_are_rejected() {
        for (bad, want) in [
            // Non-finite timestamps and durations.
            ("nan,o,a,f,10\n", format!("line 1: {RANGE}")),
            ("inf,o,a,f,10\n", format!("line 1: {RANGE}")),
            ("1000,o,a,f,nan\n", format!("line 1: {RANGE}")),
            // Too many fields (a quoted comma would need real CSV parsing —
            // fail loudly instead of mis-attributing columns).
            (
                "1000,o,a,f,10,extra\n",
                "line 1: expected 5 comma-separated fields, got 6".into(),
            ),
            // Whitespace-only fields count as empty ids.
            (
                "1000,   ,a,f,10\n",
                "line 1: empty owner or function id".into(),
            ),
            (
                "1000,o,a,   ,10\n",
                "line 1: empty owner or function id".into(),
            ),
            // Errors carry the 1-based line number of the offending row;
            // blank, `#` and header lines count.
            (
                "2000,o1,a,f1,1000\nbad,o,a,f,10\n",
                "line 2: bad end timestamp: invalid float literal".into(),
            ),
            (
                "# c\r\n\r\nend_timestamp_ms,owner,app,func,duration_ms\r\n1000,o,a,f\r\n",
                "line 4: expected 5 comma-separated fields, got 4".into(),
            ),
        ] {
            assert_eq!(parse(bad).unwrap_err(), want, "{bad:?}");
        }
    }
}
