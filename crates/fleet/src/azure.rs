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
use crate::stream::TraceSource;
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

/// FNV-1a 64-bit hash: stable across platforms and runs, used to map
/// opaque function ids onto the job zoo (here and in the Google adapter).
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The job class an Azure function id maps to (deterministic).
pub fn class_for_function(func: &str) -> JobClass {
    JobClass::ALL[(fnv1a(func) % JobClass::ALL.len() as u64) as usize]
}

/// Is this a header line naming the columns? The public traces (and tools
/// that re-export them) vary the spelling — `end_timestamp_ms`,
/// `EndTimestampMs`, `End Timestamp (ms)` — so the check normalizes case
/// and separators on the first field rather than matching one string.
fn is_header(line: &str) -> bool {
    let first = line.split(',').next().unwrap_or("");
    let normalized: String = first
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    normalized.starts_with("endtimestamp")
}

fn parse_rows(csv: &str) -> Result<Vec<AzureRow>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Skip header lines (also mid-file: concatenated shards re-emit
        // them).
        if is_header(line) {
            continue;
        }
        let parts: Vec<&str> = line.split(',').map(str::trim).collect();
        if parts.len() != 5 {
            return Err(format!(
                "line {}: expected 5 comma-separated fields, got {}",
                lineno + 1,
                parts.len()
            ));
        }
        let end_ms: f64 = parts[0]
            .parse()
            .map_err(|e| format!("line {}: bad end timestamp: {e}", lineno + 1))?;
        let duration_ms: f64 = parts[4]
            .parse()
            .map_err(|e| format!("line {}: bad duration: {e}", lineno + 1))?;
        if !end_ms.is_finite() || !duration_ms.is_finite() || duration_ms < 0.0 {
            return Err(format!(
                "line {}: timestamps must be finite, duration >= 0",
                lineno + 1
            ));
        }
        let submit_secs = (end_ms - duration_ms) / 1_000.0;
        if submit_secs < 0.0 {
            return Err(format!(
                "line {}: invocation starts before the trace epoch",
                lineno + 1
            ));
        }
        if parts[1].is_empty() || parts[3].is_empty() {
            return Err(format!("line {}: empty owner or function id", lineno + 1));
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
/// [`class_for_function`], and ids are assigned in sorted-time order —
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
            let class = class_for_function(&r.func);
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
    fn function_class_mapping_is_stable() {
        let c = class_for_function("f-abc");
        assert_eq!(c, class_for_function("f-abc"));
        // The six-way hash spreads distinct functions over several classes.
        let classes: std::collections::BTreeSet<_> = (0..40)
            .map(|i| class_for_function(&format!("func-{i}")))
            .collect();
        assert!(classes.len() >= 3, "only {} classes hit", classes.len());
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
