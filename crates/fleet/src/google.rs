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
//! O(#distinct jobs), which is what bounds duplicate detection. Every
//! row's timestamp, SUBMIT or not, is parsed and checked for time order;
//! files that violate it are rejected (streaming cannot re-sort).
//!
//! Rows need at least 7 comma-separated fields; extra columns (scheduling
//! class, priority, resource requests) are ignored. Header lines and `#`
//! comments are skipped, headers also mid-file (concatenated shards).
//!
//! A bundled sample lives at `crates/fleet/data/google_sample.csv`.

use crate::job::{JobRequest, TenantId};
use crate::stream::{adapted_job, Lines, Tenants, TraceSource};
use crate::workload::Trace;
use lml_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;

/// Streaming adapter over task_events CSV: pull-based, constant memory
/// per row (plus the O(#jobs) dedupe set).
pub struct GoogleSource<R> {
    lines: Lines<R>,
    seen_jobs: BTreeSet<u64>,
    tenants: Tenants,
    /// Timestamp of the last row read, of any event type.
    last_time: SimTime,
    next_id: u64,
}

impl<R: BufRead> GoogleSource<R> {
    pub fn new(reader: R) -> Self {
        GoogleSource {
            lines: Lines::new(reader, Some("time"), String::new()),
            seen_jobs: BTreeSet::new(),
            tenants: Tenants::default(),
            last_time: SimTime::ZERO,
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
        while let Some(row) = self.lines.next_row()? {
            let n = row.len();
            row.check(
                n >= 7,
                format_args!("expected >= 7 comma-separated fields, got {n}"),
            )?;
            let range = "timestamp must be finite and >= 0";
            let time = SimTime::secs(row.at_least(0, "timestamp", 0.0, range)? / 1e6);
            row.check(
                time >= self.last_time,
                "task_events not sorted by timestamp (the streaming adapter cannot re-sort)",
            )?;
            self.last_time = time;
            // Only SUBMIT (0) events become job arrivals.
            if row.parse::<u32>(5, "event type")? != 0 {
                continue;
            }
            // One arrival per job: later tasks / resubmissions are skipped.
            if !self.seen_jobs.insert(row.parse(2, "job id")?) {
                continue;
            }
            let user = row.field(6);
            row.check(!user.is_empty(), "empty user")?;
            let id = self.next_id;
            self.next_id += 1;
            let tenant = self.tenants.id(user);
            return Ok(Some(adapted_job(id, row.field(2), time, tenant)));
        }
        Ok(None)
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
        assert_eq!(
            parse(csv).unwrap_err(),
            "line 2: task_events not sorted by timestamp (the streaming adapter cannot re-sort)"
        );
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        for (bad, want) in [
            (
                "1000,,42,0,,0\n",
                "line 1: expected >= 7 comma-separated fields, got 6",
            ),
            (
                "soon,,42,0,,0,alice\n",
                "line 1: bad timestamp: invalid float literal",
            ),
            (
                "nan,,42,0,,0,alice\n",
                "line 1: timestamp must be finite and >= 0",
            ),
            (
                "-1,,42,0,,0,alice\n",
                "line 1: timestamp must be finite and >= 0",
            ),
            (
                "1000,,42,0,,boot,alice\n",
                "line 1: bad event type: invalid digit found in string",
            ),
            (
                "1000,,soon,0,,0,alice\n",
                "line 1: bad job id: invalid digit found in string",
            ),
            (
                "1000,,41,0,,0,alice\n2000,,42,0,,0,\n",
                "line 2: empty user",
            ),
            // Blank, `#` and header lines count; CRLF is trimmed.
            (
                "# shard\r\n\r\ntime_us,missing,job,task,machine,event,user\r\n1000,,42,0,,0,   \r\n",
                "line 4: empty user",
            ),
            // Every row's timestamp is parsed and order-checked, SUBMIT
            // or not.
            ("soon,,x,0,,1,\n", "line 1: bad timestamp: invalid float literal"),
            (
                "5000,,41,0,,0,alice\n2000,,41,0,m7,1,alice\n",
                "line 2: task_events not sorted by timestamp (the streaming adapter cannot re-sort)",
            ),
        ] {
            assert_eq!(parse(bad).unwrap_err(), want, "{bad:?}");
        }
        // A read error names the line it stopped at.
        let bytes: &[u8] = b"1000,,41,0,,0,alice\n\xff,,42,0,,0,bob\n";
        assert_eq!(
            crate::stream::collect(GoogleSource::new(bytes)).unwrap_err(),
            "line 2: read error: stream did not contain valid UTF-8"
        );
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
