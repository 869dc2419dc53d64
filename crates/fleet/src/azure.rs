//! Azure-Functions-style trace adapter.
//!
//! The Azure Functions 2019/2021 public traces record serverless
//! invocations as CSV rows keyed by hashed owner / app / function ids with
//! an end timestamp and a duration. This module adapts that shape onto the
//! fleet simulator: each row becomes one training-job submission, owners
//! become tenants (dense ids in order of first appearance), and function
//! ids are hashed deterministically onto the Table 4 job zoo. The adapter
//! converts rows directly into [`JobRequest`]s (sorted, validated) and
//! hands them to the replay engine through [`AzureSource`], the adapter's
//! [`TraceSource`], so an adapted trace obeys exactly the same validation
//! and replay guarantees as a hand-written one (`parse(csv)?.to_text()`
//! renders it in the portable native text form).
//!
//! Accepted line format (header line and `#` comments are skipped):
//!
//! ```text
//! end_timestamp_ms,owner,app,func,duration_ms
//! 81000,owner-a,app-1,func-lr,21000
//! ```
//!
//! A bundled sample lives at `crates/fleet/data/azure_sample.csv`.

use crate::job::{JobClass, JobRequest, TenantId};
use crate::stream::{CsvRows, TraceSource};
use crate::workload::Trace;
use lml_sim::SimTime;
use std::collections::BTreeMap;

/// One parsed invocation row, before conversion to a job submission.
#[derive(Debug, Clone, PartialEq)]
struct AzureRow {
    submit_secs: f64,
    owner: String,
    func: String,
}

fn parse_rows(csv: &str) -> Result<Vec<AzureRow>, String> {
    let mut rows = Vec::new();
    let mut lines = CsvRows::new(csv.as_bytes(), "endtimestamp");
    while let Some((line, fields)) = lines.next_row()? {
        let parts: Vec<&str> = fields.collect();
        if parts.len() != 5 {
            return Err(format!(
                "line {line}: expected 5 comma-separated fields, got {}",
                parts.len()
            ));
        }
        let end_ms: f64 = parts[0]
            .parse()
            .map_err(|e| format!("line {line}: bad end timestamp: {e}"))?;
        let duration_ms: f64 = parts[4]
            .parse()
            .map_err(|e| format!("line {line}: bad duration: {e}"))?;
        if !end_ms.is_finite() || !duration_ms.is_finite() || duration_ms < 0.0 {
            return Err(format!(
                "line {line}: timestamps must be finite, duration >= 0"
            ));
        }
        let submit_secs = (end_ms - duration_ms) / 1_000.0;
        if submit_secs < 0.0 {
            return Err(format!(
                "line {line}: invocation starts before the trace epoch"
            ));
        }
        if parts[1].is_empty() || parts[3].is_empty() {
            return Err(format!("line {line}: empty owner or function id"));
        }
        rows.push(AzureRow {
            submit_secs,
            owner: parts[1].to_string(),
            func: parts[3].to_string(),
        });
    }
    Ok(rows)
}

/// Rows sorted and converted: owners become dense tenant ids in order of
/// first appearance, function ids select job classes via
/// [`JobClass::for_trace_id`], and ids are assigned in sorted-time order —
/// the same mapping the text shim renders, without the intermediate
/// `String`.
fn to_jobs(csv: &str) -> Result<Vec<JobRequest>, String> {
    let mut rows = parse_rows(csv)?;
    rows.sort_by(|a, b| a.submit_secs.total_cmp(&b.submit_secs));
    // Assign tenant ids by first appearance in time order, so the mapping
    // is a pure function of the (sorted) trace.
    let mut tenants: BTreeMap<&str, TenantId> = BTreeMap::new();
    let mut next = 0u32;
    Ok(rows
        .iter()
        .enumerate()
        .map(|(id, r)| {
            let tenant = *tenants.entry(r.owner.as_str()).or_insert_with(|| {
                let t = next;
                next += 1;
                t
            });
            let class = JobClass::for_trace_id(&r.func);
            JobRequest {
                id: id as u64,
                class,
                submit: SimTime::secs(r.submit_secs),
                workers: class.default_workers(),
                tenant,
                deadline: None,
            }
        })
        .collect())
}

/// Parse Azure-style CSV straight into a [`Trace`] — rows convert
/// directly to [`JobRequest`]s, no intermediate text.
pub fn parse(csv: &str) -> Result<Trace, String> {
    Ok(Trace::from_jobs(to_jobs(csv)?))
}

/// The adapter as a [`TraceSource`]: rows stream into the replay engine
/// with no intermediate trace text or `Trace`. (The adapter must still
/// buffer the *rows* — the public CSVs are not sorted by submission time —
/// but that is one sort-and-drain pass, not three full renders.)
pub struct AzureSource {
    total: usize,
    jobs: std::vec::IntoIter<JobRequest>,
}

/// Build an [`AzureSource`] from Azure-style CSV text.
pub fn source(csv: &str) -> Result<AzureSource, String> {
    let jobs = to_jobs(csv)?;
    Ok(AzureSource {
        total: jobs.len(),
        jobs: jobs.into_iter(),
    })
}

impl TraceSource for AzureSource {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        Ok(BTreeMap::new())
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        Ok(self.jobs.next())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut src = source(SAMPLE).unwrap();
        assert_eq!(src.len_hint(), Some(trace.len()));
        assert!(src.budgets().unwrap().is_empty());
        let streamed = crate::stream::collect(source(SAMPLE).unwrap()).unwrap();
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

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        // Wrong arity.
        let e = parse("1000,o,a,f\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        // Unparsable timestamp / duration.
        assert!(parse("soon,o,a,f,10\n").is_err());
        assert!(parse("1000,o,a,f,later\n").is_err());
        // Negative duration and pre-epoch start.
        assert!(parse("1000,o,a,f,-5\n").is_err());
        assert!(parse("1000,o,a,f,2000\n").is_err());
        // Empty owner / function ids.
        assert!(parse("1000,,a,f,10\n").is_err());
        assert!(parse("1000,o,a,,10\n").is_err());
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
        // Non-finite timestamps and durations.
        assert!(parse("nan,o,a,f,10\n").is_err());
        assert!(parse("inf,o,a,f,10\n").is_err());
        assert!(parse("1000,o,a,f,nan\n").is_err());
        // Too many fields (a quoted comma would need real CSV parsing —
        // fail loudly instead of mis-attributing columns).
        assert!(parse("1000,o,a,f,10,extra\n").is_err());
        // Whitespace-only fields count as empty ids.
        assert!(parse("1000,   ,a,f,10\n").is_err());
        assert!(parse("1000,o,a,   ,10\n").is_err());
        // Errors carry the 1-based line number of the offending row.
        let e = parse("2000,o1,a,f1,1000\nbad,o,a,f,10\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }
}
