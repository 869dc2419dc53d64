//! Google cluster-usage trace adapter (task_events table).
//!
//! The Google cluster-data traces (2011 v2 format and its descendants)
//! record scheduler events as CSV rows:
//!
//! ```text
//! timestamp_us,missing_info,job_id,task_index,machine_id,event_type,user,...
//! ```
//!
//! This module adapts that shape onto the fleet simulator as a streaming
//! [`TraceSource`]: each job's **first SUBMIT event** (event type `0`)
//! becomes one training-job submission, users become tenants (dense ids
//! in order of first appearance), and job ids are hashed deterministically
//! onto the Table 4 job zoo with the same FNV-1a mapping the Azure
//! adapter uses. Later tasks and resubmissions of an already-seen job id
//! are skipped, as are all non-SUBMIT event types.
//!
//! Unlike the Azure CSVs, task_events files are sorted by timestamp, so
//! the adapter streams rows straight into the replay engine with constant
//! memory per row — the only state that grows is the seen-job-id set,
//! O(#distinct jobs), which is what bounds duplicate detection. Files
//! that violate time order are rejected (streaming cannot re-sort).
//!
//! Rows need at least 7 comma-separated fields; extra columns (scheduling
//! class, priority, resource requests) are ignored. Header lines and `#`
//! comments are skipped, headers also mid-file (concatenated shards).
//!
//! A bundled sample lives at `crates/fleet/data/google_sample.csv`.

use crate::job::{JobClass, JobRequest, TenantId};
use crate::stream::{CsvRows, TraceSource};
use crate::workload::Trace;
use lml_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;

/// Streaming adapter over task_events CSV: pull-based, constant memory
/// per row (plus the O(#jobs) dedupe set).
pub struct GoogleSource<R> {
    rows: CsvRows<R>,
    seen_jobs: BTreeSet<u64>,
    tenants: BTreeMap<String, TenantId>,
    next_tenant: TenantId,
    last_submit: SimTime,
    next_id: u64,
}

impl<R: BufRead> GoogleSource<R> {
    pub fn new(reader: R) -> Self {
        GoogleSource {
            rows: CsvRows::new(reader, "time"),
            seen_jobs: BTreeSet::new(),
            tenants: BTreeMap::new(),
            next_tenant: 0,
            last_submit: SimTime::ZERO,
            next_id: 0,
        }
    }
}

impl<R: BufRead> TraceSource for GoogleSource<R> {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        // task_events carry no budget notion; every tenant is uncapped.
        Ok(BTreeMap::new())
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        loop {
            let Some((line, fields)) = self.rows.next_row()? else {
                return Ok(None);
            };
            let parts: Vec<&str> = fields.collect();
            if parts.len() < 7 {
                return Err(format!(
                    "line {line}: expected >= 7 comma-separated fields, got {}",
                    parts.len()
                ));
            }
            let event_type: u32 = parts[5]
                .parse()
                .map_err(|e| format!("line {line}: bad event type: {e}"))?;
            // Only SUBMIT (0) events become job arrivals.
            if event_type != 0 {
                continue;
            }
            let ts_us: f64 = parts[0]
                .parse()
                .map_err(|e| format!("line {line}: bad timestamp: {e}"))?;
            if !ts_us.is_finite() || ts_us < 0.0 {
                return Err(format!("line {line}: timestamp must be finite and >= 0"));
            }
            let submit = SimTime::secs(ts_us / 1e6);
            if submit < self.last_submit {
                return Err(format!(
                    "line {line}: task_events not sorted by timestamp (the streaming \
                     adapter cannot re-sort)"
                ));
            }
            self.last_submit = submit;
            let job_id: u64 = parts[2]
                .parse()
                .map_err(|e| format!("line {line}: bad job id: {e}"))?;
            // One arrival per job: later tasks / resubmissions are skipped.
            if !self.seen_jobs.insert(job_id) {
                continue;
            }
            if parts[6].is_empty() {
                return Err(format!("line {line}: empty user"));
            }
            let tenant = match self.tenants.get(parts[6]) {
                Some(&t) => t,
                None => {
                    let t = self.next_tenant;
                    self.next_tenant += 1;
                    self.tenants.insert(parts[6].to_string(), t);
                    t
                }
            };
            let class = JobClass::for_trace_id(parts[2]);
            let id = self.next_id;
            self.next_id += 1;
            return Ok(Some(JobRequest {
                id,
                class,
                submit,
                workers: class.default_workers(),
                tenant,
                deadline: None,
            }));
        }
    }
}

/// Parse task_events CSV into an in-memory [`Trace`] by draining the
/// streaming source (convenience for small fixtures and tests).
pub fn parse(csv: &str) -> Result<Trace, String> {
    crate::stream::collect(GoogleSource::new(csv.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = include_str!("../data/google_sample.csv");

    #[test]
    fn bundled_sample_parses() {
        let trace = parse(SAMPLE).expect("bundled sample must parse");
        assert!(trace.len() >= 10, "sample has {} jobs", trace.len());
        let tenants = trace.tenants();
        assert!(tenants.len() >= 3, "sample spans {} tenants", tenants.len());
        assert_eq!(tenants, (0..tenants.len() as u32).collect::<Vec<_>>());
        assert!(trace.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(trace.budgets.is_empty());
    }

    #[test]
    fn only_first_submit_per_job_counts() {
        let csv = "\
            1000000,,42,0,,0,alice,2,9,0.1,0.1,0.01,\n\
            1000000,,42,1,,0,alice,2,9,0.1,0.1,0.01,\n\
            2000000,,42,0,,0,alice,2,9,0.1,0.1,0.01,\n\
            3000000,,43,0,,0,bob,2,9,0.1,0.1,0.01,\n";
        let t = parse(csv).unwrap();
        assert_eq!(t.len(), 2, "tasks and resubmits of job 42 collapse");
        assert_eq!(t.jobs[0].submit, SimTime::secs(1.0));
        assert_eq!(t.jobs[1].tenant, 1, "bob is the second tenant seen");
    }

    #[test]
    fn non_submit_events_are_skipped() {
        let csv = "\
            1000000,,42,0,,0,alice,2,9,,,,\n\
            1500000,,42,0,m7,1,alice,2,9,,,,\n\
            1600000,,42,0,m7,4,alice,2,9,,,,\n\
            2000000,,43,0,,0,bob,2,9,,,,\n";
        let t = parse(csv).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn out_of_order_submits_are_rejected() {
        let csv = "\
            5000000,,1,0,,0,alice,2,9,,,,\n\
            2000000,,2,0,,0,bob,2,9,,,,\n";
        let e = parse(csv).unwrap_err();
        assert!(e.contains("line 2") && e.contains("not sorted"), "{e}");
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        // Too few fields.
        let e = parse("1000,,42,0,,0\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        // Bad timestamp / event type / job id, empty user.
        assert!(parse("soon,,42,0,,0,alice\n").is_err());
        assert!(parse("nan,,42,0,,0,alice\n").is_err());
        assert!(parse("-1,,42,0,,0,alice\n").is_err());
        assert!(parse("1000,,42,0,,boot,alice\n").is_err());
        assert!(parse("1000,,soon,0,,0,alice\n").is_err());
        let e = parse("1000,,41,0,,0,alice\n2000,,42,0,,0,\n").unwrap_err();
        assert!(e.contains("line 2") && e.contains("empty user"), "{e}");
    }

    #[test]
    fn header_variants_and_comments_are_skipped() {
        for header in [
            "timestamp,missing_info,job_id,task_index,machine_id,event_type,user",
            "Timestamp (us),Missing,JobID,TaskIndex,MachineID,EventType,User",
            "time_us,missing,job,task,machine,event,user",
        ] {
            let csv = format!("# shard 0\n{header}\n1000000,,42,0,,0,alice,2,9\n");
            let t = parse(&csv).unwrap_or_else(|e| panic!("{header:?}: {e}"));
            assert_eq!(t.len(), 1, "{header:?}");
        }
        assert!(parse("").unwrap().is_empty());
    }
}
