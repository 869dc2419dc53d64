//! Streaming trace sources: constant-memory replay input for the fleet
//! simulator.
//!
//! A [`TraceSource`] is a pull-based producer of [`JobRequest`]s in
//! non-decreasing submission order, preceded by an optional per-tenant
//! budget preamble. The replay engine ([`crate::sim::replay_observed`])
//! pulls one arrival at a time, so resident memory is bounded by the
//! *in-flight* job set, never by trace length — a 10M-job replay holds
//! the same working set as a 400-job one.
//!
//! Three sources live here; the Google and OpenDC adapters
//! ([`crate::google::GoogleSource`], [`crate::opendc::OpenDcSource`]) are
//! the others:
//!
//! * [`InMemorySource`] — borrows an existing [`Trace`]; how
//!   `simulate`/`simulate_observed` feed the engine, and how an Azure trace
//!   (which must be sorted first, [`crate::azure::parse`]) streams.
//! * [`TextSource`] — chunked reader over the v1/v2/v3 trace text format,
//!   one line resident at a time. The line grammar lives here and nowhere
//!   else: [`Trace::from_text`] drains this source.
//! * [`GeneratorSource`] — the seeded arrival generator, one job per
//!   pull, so million-job synthetic traces never materialize.
//!   [`Trace::generate_multi`] is this source collected into a `Vec`.
//!
//! Every trace reader — the text format and the Azure, Google and OpenDC
//! CSV adapters — ingests through one path, at the end of this file:
//! `Lines` reads, counts and trims each line and skips the blank, `#` and
//! CSV header ones; each data line comes out as a `Row`. A fault about one
//! line — a read error, a wrong field count, a field that does not parse
//! or is out of range, an order or a duplicate the reader's state finds —
//! is worded by `Row` (`line N: …`, after `{name}: ` for an OpenDC
//! timeline).

use crate::job::{JobClass, JobRequest, TenantId};
use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};
use lml_sim::{Pcg64, SimTime};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::BufRead;
use std::str::FromStr;

/// A pull-based trace: a budget preamble, then jobs in non-decreasing
/// submission order.
///
/// Contract (relied on by the replay engine):
/// * [`TraceSource::budgets`] is called exactly once, before the first
///   [`TraceSource::next_job`] call.
/// * Jobs come back in non-decreasing `submit` order with ids assigned in
///   that order; a source that cannot guarantee order must return `Err`
///   (the engine surfaces it), never a misordered job.
/// * After the first `Ok(None)` the source is exhausted; further calls
///   keep returning `Ok(None)`.
pub trait TraceSource {
    /// The per-tenant dollar caps declared before any job (trace v3
    /// preamble). Called once, up front; the engine owns the returned map.
    ///
    /// Contract: budgets are a property of the *trace text format*, not of
    /// workloads in general. Only the v3 text preamble (and in-memory
    /// traces built from it) can declare caps; every other source —
    /// generator, Azure, Google, OpenDC adapters — must return an empty
    /// map, because their upstream formats have no budget notion and
    /// inventing caps would silently change admission behaviour. An empty
    /// map means "uncapped": the engine then never debits budgets and
    /// `budget_exhausted` rejections cannot occur.
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String>;

    /// Pull the next arrival, or `Ok(None)` when the trace is exhausted.
    fn next_job(&mut self) -> Result<Option<JobRequest>, String>;

    /// Exact job count when the source knows it (in-memory, generator),
    /// `None` when it cannot without a full scan (text, adapters). Used
    /// only for observer preambles and capacity hints, never correctness.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// Streams a borrowed in-memory [`Trace`] — the source behind
/// [`crate::sim::simulate`].
pub struct InMemorySource<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> InMemorySource<'a> {
    pub fn new(trace: &'a Trace) -> Self {
        InMemorySource { trace, next: 0 }
    }
}

impl TraceSource for InMemorySource<'_> {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        Ok(self.trace.budgets.clone())
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        let job = self.trace.jobs.get(self.next).copied();
        if job.is_some() {
            self.next += 1;
        }
        Ok(job)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.trace.jobs.len())
    }
}

/// One parsed line of the trace text format — either a v3 budget preamble
/// line or a v1/v2 job row (its `id` is a placeholder until the reader
/// assigns the dense one).
#[derive(Debug, Clone, Copy, PartialEq)]
enum TraceLine {
    Budget { tenant: TenantId, usd: f64 },
    Job(JobRequest),
}

/// Parse one data line of the trace text format. Duplicate-budget and
/// sortedness checks stay with the caller, which owns the cross-line state.
fn parse_trace_line(row: &Row) -> Result<TraceLine, String> {
    let n = row.len();
    if row.field(0) == "budget" {
        row.check(
            n == 3,
            format_args!("budget line needs `budget <tenant> <usd>`, got {n} fields"),
        )?;
        return Ok(TraceLine::Budget {
            tenant: row.parse(1, "budget tenant id")?,
            usd: row.at_least(2, "budget amount", 0.0, "budget must be finite and >= 0")?,
        });
    }
    row.check(
        n == 3 || n == 5,
        format_args!("expected 3 (v1) or 5 (v2) fields, got {n}"),
    )?;
    let t = row.at_least(0, "time", 0.0, "time must be finite and >= 0")?;
    let class = JobClass::parse(row.field(1))
        .ok_or_else(|| row.fault(format_args!("unknown job class {:?}", row.field(1))))?;
    let workers = row.parse(2, "workers")?;
    row.check(workers > 0, "zero workers")?;
    let tenant = if n == 5 {
        row.parse(3, "tenant id")?
    } else {
        0
    };
    // A v1 line has no field 4: `field` reads it as "".
    let deadline = match row.field(4) {
        "" | "-" => None,
        _ => {
            let range = "deadline must be finite and >= submit time";
            Some(SimTime::secs(row.at_least(4, "deadline", t, range)?))
        }
    };
    Ok(TraceLine::Job(JobRequest {
        tenant,
        deadline,
        ..JobRequest::new(0, class, SimTime::secs(t), workers)
    }))
}

/// Chunked reader over the trace text format: one buffered line resident
/// at a time, so memory is constant in trace length.
///
/// v3 `budget` lines must precede the first job row ([`Trace::to_text`]
/// always writes them first): the budget map is handed to the engine
/// before any job is pulled, so a late budget line is an error.
pub struct TextSource<R> {
    lines: Lines<R>,
    preamble_done: bool,
    /// First job row, pulled while scanning the budget preamble.
    pending: Option<JobRequest>,
    last_submit: SimTime,
    next_id: u64,
}

impl<R: BufRead> TextSource<R> {
    pub fn new(reader: R) -> Self {
        TextSource {
            lines: Lines::new(reader, None, String::new()),
            preamble_done: false,
            pending: None,
            last_submit: SimTime::ZERO,
            next_id: 0,
        }
    }
}

impl<R: BufRead> TraceSource for TextSource<R> {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        let mut budgets = BTreeMap::new();
        while let Some(row) = self.lines.next_row()? {
            match parse_trace_line(&row)? {
                TraceLine::Budget { tenant, usd } => row.check(
                    budgets.insert(tenant, usd).is_none(),
                    format_args!("duplicate budget for tenant {tenant}"),
                )?,
                TraceLine::Job(job) => {
                    self.pending = Some(job);
                    break;
                }
            }
        }
        self.preamble_done = true;
        Ok(budgets)
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        debug_assert!(self.preamble_done, "budgets() must be called first");
        // The first job row, held back by the preamble scan, is in order:
        // times are at least 0.
        let mut job = match self.pending.take() {
            Some(job) => job,
            None => {
                let Some(row) = self.lines.next_row()? else {
                    return Ok(None);
                };
                let TraceLine::Job(job) = parse_trace_line(&row)? else {
                    return Err(row.fault("budget lines must precede the first job row"));
                };
                let sorted = job.submit >= self.last_submit;
                row.check(sorted, "trace not sorted by submission time")?;
                job
            }
        };
        self.last_submit = job.submit;
        job.id = self.next_id;
        self.next_id += 1;
        Ok(Some(job))
    }
}

/// The seeded arrival generator: same seed, same process, same mix → the
/// identical job stream, one job per pull, without ever materializing the
/// `Vec`. An infallible [`Iterator`]; the [`TraceSource`] impl wraps it.
pub struct GeneratorSource {
    process: ArrivalProcess,
    mix: JobMix,
    tenants: TenantSpec,
    n_jobs: usize,
    emitted: usize,
    rng: Pcg64,
    t: f64,
}

impl GeneratorSource {
    /// `n_jobs` arrivals from `process` and `mix`: tenants drawn uniformly
    /// from the spec's population, a `deadline_frac` share of jobs
    /// carrying a deadline at `deadline_slack ×` the class's nominal
    /// runtime.
    pub fn new(
        process: ArrivalProcess,
        mix: JobMix,
        tenants: TenantSpec,
        n_jobs: usize,
        seed: u64,
    ) -> Self {
        assert!(tenants.n_tenants >= 1, "need at least one tenant");
        assert!(
            (0.0..=1.0).contains(&tenants.deadline_frac),
            "deadline_frac must be in [0, 1]"
        );
        assert!(tenants.deadline_slack > 0.0, "deadline slack must be > 0");
        GeneratorSource {
            process,
            mix,
            tenants,
            n_jobs,
            emitted: 0,
            rng: Pcg64::new(seed ^ 0xF1EE7),
            t: 0.0,
        }
    }

    /// Single-tenant, deadline-less convenience (mirrors
    /// [`Trace::generate`]).
    pub fn generate(process: ArrivalProcess, mix: JobMix, n_jobs: usize, seed: u64) -> Self {
        GeneratorSource::new(process, mix, TenantSpec::default(), n_jobs, seed)
    }
}

impl Iterator for GeneratorSource {
    type Item = JobRequest;

    fn next(&mut self) -> Option<JobRequest> {
        if self.emitted == self.n_jobs {
            return None;
        }
        let id = self.emitted as u64;
        self.emitted += 1;
        // The per-job draw order is part of the seed contract: gap, class,
        // tenant (only when the population is > 1), deadline coin.
        self.t += self.process.next_gap(self.t, &mut self.rng);
        let class = self.mix.sample(&mut self.rng);
        let submit = SimTime::secs(self.t);
        let tenant = if self.tenants.n_tenants > 1 {
            self.rng.below(self.tenants.n_tenants as u64) as TenantId
        } else {
            0
        };
        let deadline =
            if self.tenants.deadline_frac > 0.0 && self.rng.coin(self.tenants.deadline_frac) {
                Some(submit + class.nominal_runtime() * self.tenants.deadline_slack)
            } else {
                None
            };
        Some(JobRequest {
            id,
            class,
            submit,
            workers: class.default_workers(),
            tenant,
            deadline,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n_jobs - self.emitted;
        (left, Some(left))
    }
}

impl TraceSource for GeneratorSource {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        Ok(BTreeMap::new())
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        Ok(self.next())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.n_jobs)
    }
}

/// Drain any source into an in-memory [`Trace`] (test/debug helper; the
/// whole point of streaming is usually *not* to do this).
pub fn collect(mut source: impl TraceSource) -> Result<Trace, String> {
    let budgets = source.budgets()?;
    let mut jobs = Vec::with_capacity(source.len_hint().unwrap_or(0));
    while let Some(job) = source.next_job()? {
        jobs.push(job);
    }
    Ok(Trace { jobs, budgets })
}

/// A trace file read one line at a time, with one line resident: the loop
/// every reader shares. Lines are counted and trimmed; blank lines, `#`
/// comments and, in a CSV, header lines are skipped (headers also
/// mid-file: concatenated shards re-emit them).
pub(crate) struct Lines<R> {
    reader: R,
    line: String,
    /// Lines read so far.
    lineno: usize,
    /// What every fault starts with: empty, or an OpenDC timeline's
    /// `{name}: `.
    source: String,
    /// `None` splits lines on whitespace (the trace text format). `Some`
    /// splits them on `,` into trimmed fields and names what a header's
    /// normalized first field starts with (see [`is_csv_header`]).
    csv_header: Option<&'static str>,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(reader: R, csv_header: Option<&'static str>, source: String) -> Self {
        Lines {
            reader,
            line: String::new(),
            lineno: 0,
            source,
            csv_header,
        }
    }

    /// The next data line, or `None` at the end of the input. A failed
    /// read is an `Err` naming the line.
    pub(crate) fn next_row(&mut self) -> Result<Option<Row<'_>>, String> {
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line).map_err(|e| {
                fault(
                    &self.source,
                    self.lineno + 1,
                    format_args!("read error: {e}"),
                )
            })?;
            if n == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            let line = self.line.trim();
            let header = self.csv_header.is_some_and(|h| is_csv_header(line, h));
            if !(line.is_empty() || line.starts_with('#') || header) {
                break;
            }
        }
        let line = self.line.trim();
        let mut row = Row {
            source: &self.source,
            line: self.lineno,
            fields: [""; ROW_FIELDS],
            len: 0,
        };
        match self.csv_header {
            None => row.fill(line.split_whitespace()),
            Some(_) => row.fill(line.split(',').map(str::trim)),
        }
        Ok(Some(row))
    }
}

/// Is this CSV line a header naming the columns? Public trace exports vary
/// the spelling of the first column (`end_timestamp_ms`, `EndTimestampMs`,
/// `Timestamp [ms]`, `time_us`, ...), so the first field is compared with
/// case and separators stripped: a header is one whose normalized first
/// field starts with `prefix`.
fn is_csv_header(line: &str, prefix: &str) -> bool {
    let first = line.split(',').next().unwrap_or("");
    let mut normalized = first
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase());
    prefix.chars().all(|p| normalized.next() == Some(p))
}

/// The fields a [`Row`] keeps: the widest any reader looks at (Google's
/// user column is the seventh).
const ROW_FIELDS: usize = 7;

/// One data line of a trace file: its fields, its 1-based line number and
/// the prefix its faults carry. Its getters are the one place a trace
/// field is parsed or range-checked, and [`Row::fault`] the one place a
/// fault about a line is worded.
pub(crate) struct Row<'a> {
    source: &'a str,
    line: usize,
    /// The first [`ROW_FIELDS`] fields; any further ones are only counted.
    fields: [&'a str; ROW_FIELDS],
    len: usize,
}

impl<'a> Row<'a> {
    fn fill(&mut self, fields: impl Iterator<Item = &'a str>) {
        for field in fields {
            if let Some(slot) = self.fields.get_mut(self.len) {
                *slot = field;
            }
            self.len += 1;
        }
    }

    /// How many fields the line has.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Field `i`, or `""` past the end of the line.
    pub(crate) fn field(&self, i: usize) -> &'a str {
        debug_assert!(i < ROW_FIELDS, "field {i} is never kept");
        self.fields.get(i).copied().unwrap_or_default()
    }

    /// The fault `what` on this line: `{source}line {line}: {what}`.
    pub(crate) fn fault(&self, what: impl Display) -> String {
        fault(self.source, self.line, what)
    }

    /// `Ok` when `ok` holds, else the fault `what`.
    pub(crate) fn check(&self, ok: bool, what: impl Display) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(self.fault(what))
        }
    }

    /// Field `i` parsed as a `T`; the fault reads `bad {what}: {cause}`.
    pub(crate) fn parse<T: FromStr>(&self, i: usize, what: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.field(i)
            .parse()
            .map_err(|e| self.fault(format_args!("bad {what}: {e}")))
    }

    /// Field `i` parsed as a finite `f64` of at least `min`; a value out
    /// of that range is the fault `range`.
    pub(crate) fn at_least(
        &self,
        i: usize,
        what: &str,
        min: f64,
        range: &str,
    ) -> Result<f64, String> {
        let v: f64 = self.parse(i, what)?;
        self.check(v.is_finite() && v >= min, range)?;
        Ok(v)
    }
}

/// The wording of every fault about a line, [`Row::fault`]'s and a failed
/// read's.
fn fault(source: &str, line: usize, what: impl Display) -> String {
    format!("{source}line {line}: {what}")
}

/// An adapter's arrival: the class its trace id hashes to
/// ([`JobClass::for_trace_id`]), at that class's default width, with no
/// deadline.
pub(crate) fn adapted_job(
    id: u64,
    trace_id: &str,
    submit: SimTime,
    tenant: TenantId,
) -> JobRequest {
    let class = JobClass::for_trace_id(trace_id);
    JobRequest {
        tenant,
        ..JobRequest::new(id, class, submit, class.default_workers())
    }
}

/// Dense tenant ids for a trace's owner or user names, in order of first
/// appearance, so the mapping is a pure function of the row order.
#[derive(Default)]
pub(crate) struct Tenants(BTreeMap<String, TenantId>);

impl Tenants {
    pub(crate) fn id(&mut self, name: &str) -> TenantId {
        if let Some(&tenant) = self.0.get(name) {
            return tenant;
        }
        let tenant = self.0.len() as TenantId;
        self.0.insert(name.to_string(), tenant);
        tenant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};

    fn sample_trace() -> Trace {
        let spec = TenantSpec {
            n_tenants: 3,
            deadline_frac: 0.4,
            deadline_slack: 2.0,
        };
        Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.5 },
            &JobMix::default_mix(),
            &spec,
            120,
            11,
        )
        .with_budget(0, 40.0)
        .with_budget(2, 7.5)
    }

    #[test]
    fn in_memory_source_streams_the_trace_verbatim() {
        let trace = sample_trace();
        let mut src = InMemorySource::new(&trace);
        assert_eq!(src.len_hint(), Some(120));
        assert_eq!(src.budgets().unwrap(), trace.budgets);
        let back = collect(src).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn text_reader_accepts_v1_v2_v3() {
        // v1: three columns, tenant 0, no deadline, ids in file order.
        let v1 = Trace::from_text("# v1\n1.0\tlr-higgs\t10\n2.5\tsvm-rcv1\t5\n").unwrap();
        assert!(v1.budgets.is_empty());
        assert_eq!(
            v1.jobs,
            vec![
                JobRequest::new(0, JobClass::LrHiggs, SimTime::secs(1.0), 10),
                JobRequest::new(1, JobClass::SvmRcv1, SimTime::secs(2.5), 5),
            ]
        );
        // v2 (tenants + deadlines) and v3 (budget preamble on top): what
        // `to_text` writes reads back as the same trace.
        let v3 = sample_trace();
        let mut v2 = v3.clone();
        v2.budgets.clear();
        for trace in [v2, v3] {
            let text = trace.to_text();
            assert_eq!(Trace::from_text(&text).unwrap(), trace);
        }
    }

    #[test]
    fn malformed_trace_text_names_the_line_and_the_fault() {
        for (bad, want) in [
            (
                "1.0\tnot-a-class\t10\n",
                "line 1: unknown job class \"not-a-class\"",
            ),
            (
                "abc\tlr-higgs\t10\n",
                "line 1: bad time: invalid float literal",
            ),
            (
                "-1.0\tlr-higgs\t10\n",
                "line 1: time must be finite and >= 0",
            ),
            (
                "inf\tlr-higgs\t10\n",
                "line 1: time must be finite and >= 0",
            ),
            (
                "1.0\tlr-higgs\tten\n",
                "line 1: bad workers: invalid digit found in string",
            ),
            ("1.0\tlr-higgs\t0\n", "line 1: zero workers"),
            (
                "1.0\tlr-higgs\t10\t0\n",
                "line 1: expected 3 (v1) or 5 (v2) fields, got 4",
            ),
            (
                "1.0\tlr-higgs\t10\t0\t-\t9\n",
                "line 1: expected 3 (v1) or 5 (v2) fields, got 6",
            ),
            (
                "1.0\tlr-higgs\t10\tx\t-\n",
                "line 1: bad tenant id: invalid digit found in string",
            ),
            // The tenant is read before the deadline.
            (
                "1.0\tlr-higgs\t10\tx\tsoon\n",
                "line 1: bad tenant id: invalid digit found in string",
            ),
            (
                "1.0\tlr-higgs\t10\t0\tsoon\n",
                "line 1: bad deadline: invalid float literal",
            ),
            (
                "5.0\tlr-higgs\t10\t0\t4.0\n",
                "line 1: deadline must be finite and >= submit time",
            ),
            (
                "5.0\tlr-higgs\t10\t0\tinf\n",
                "line 1: deadline must be finite and >= submit time",
            ),
            (
                "budget\t0\n",
                "line 1: budget line needs `budget <tenant> <usd>`, got 2 fields",
            ),
            (
                "budget\t0\t1.0\textra\n",
                "line 1: budget line needs `budget <tenant> <usd>`, got 4 fields",
            ),
            (
                "budget\tx\t1.0\n",
                "line 1: bad budget tenant id: invalid digit found in string",
            ),
            (
                "budget\t0\tlots\n",
                "line 1: bad budget amount: invalid float literal",
            ),
            (
                "budget\t0\t-1.0\n",
                "line 1: budget must be finite and >= 0",
            ),
            ("budget\t0\tnan\n", "line 1: budget must be finite and >= 0"),
            (
                "budget\t0\t1.0\nbudget\t0\t2.0\n",
                "line 2: duplicate budget for tenant 0",
            ),
            (
                "5.0\tlr-higgs\t10\n1.0\tlr-higgs\t10\n",
                "line 2: trace not sorted by submission time",
            ),
            // CRLF endings, blank and `#` lines are skipped but counted.
            (
                "# v3\r\nbudget\t0\t1.0\r\n\r\n   \n# again\nbudget\t0\t2.0\r\n",
                "line 6: duplicate budget for tenant 0",
            ),
            (
                "# v1\r\n\r\n1.0\tlr-higgs\t10\r\n\n# mid\r\nabc\tlr-higgs\t10\r\n",
                "line 6: bad time: invalid float literal",
            ),
        ] {
            assert_eq!(Trace::from_text(bad).unwrap_err(), want, "{bad:?}");
        }
        // A read error names the line it stopped at.
        let bytes: &[u8] = b"1.0\tlr-higgs\t10\n\xff\tlr-higgs\t10\n";
        assert_eq!(
            collect(TextSource::new(bytes)).unwrap_err(),
            "line 2: read error: stream did not contain valid UTF-8"
        );
        // CRLF, blank and comment lines read back as the LF trace.
        let lf = "1.0\tlr-higgs\t10\t0\t-\n2.5\tsvm-rcv1\t5\t1\t9.0\n";
        let crlf = "# v2\r\n\r\n1.0\tlr-higgs\t10\t0\t-\r\n  \r\n2.5 svm-rcv1 5 1 9.0\r\n";
        assert_eq!(Trace::from_text(crlf), Trace::from_text(lf));
        assert_eq!(Trace::from_text(lf).map(|t| t.len()), Ok(2));
    }

    #[test]
    fn text_source_rejects_budget_lines_after_jobs() {
        // The budget map is handed over before any job is pulled, so a
        // late cap could never take effect; `to_text` writes them first.
        // One rule for every reader — `from_text` is this source, drained.
        let text = "1.0\tlr-higgs\t10\nbudget\t0\t5.0\n";
        let want = "line 2: budget lines must precede the first job row";
        assert_eq!(Trace::from_text(text).unwrap_err(), want);
        let mut src = TextSource::new(text.as_bytes());
        assert!(src.budgets().is_ok_and(|b| b.is_empty()));
        assert!(
            src.next_job().is_ok_and(|j| j.is_some()),
            "the job row parses"
        );
        assert_eq!(src.next_job().unwrap_err(), want);
    }

    #[test]
    fn text_source_is_constant_memory_per_call() {
        // Not a real memory assertion — just that the reader never needs
        // the whole input: a source over a forever-empty tail still
        // terminates per call.
        let trace = sample_trace();
        let text = trace.to_text();
        let mut src = TextSource::new(text.as_bytes());
        let budgets = src.budgets().unwrap();
        assert_eq!(budgets, trace.budgets);
        let mut n = 0usize;
        while src.next_job().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, trace.len());
        assert!(src.next_job().unwrap().is_none(), "stays exhausted");
    }

    /// The seeded stream is a contract: these literals were read off the
    /// generator before `Trace::generate_multi` became a drain of it.
    #[test]
    fn generator_stream_is_pinned_for_a_seed() {
        let spec = TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.5,
            deadline_slack: 3.0,
        };
        let process = ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 5.0,
            period: 60.0,
            duty: 0.25,
        };
        let src = GeneratorSource::new(process, JobMix::default_mix(), spec, 500, 77);
        assert_eq!(src.len_hint(), Some(500));
        let jobs: Vec<JobRequest> = src.collect();
        assert_eq!(jobs.len(), 500);
        let row = |j: &JobRequest| {
            let deadline = j.deadline.map(|d| d.as_secs());
            (
                j.id,
                j.class,
                j.submit.as_secs(),
                j.workers,
                j.tenant,
                deadline,
            )
        };
        assert_eq!(
            jobs.iter().take(4).map(row).collect::<Vec<_>>(),
            vec![
                (0, JobClass::KmHiggs, 0.08316598247316674, 10, 1, None),
                (1, JobClass::KmHiggs, 0.09793468921203147, 10, 3, None),
                (2, JobClass::KmHiggs, 0.21527612981636066, 10, 1, None),
                (
                    3,
                    JobClass::SvmRcv1,
                    0.5918258345806623,
                    5,
                    3,
                    Some(57.40103691150375)
                ),
            ]
        );
        assert_eq!(
            jobs.last().map(row),
            Some((
                499,
                JobClass::LrHiggs,
                447.1782892296835,
                10,
                0,
                Some(614.1333835213758)
            ))
        );
        // The single-tenant convenience draws neither tenant nor coin.
        let process = ArrivalProcess::Poisson { rate: 0.2 };
        let plain: Vec<JobRequest> =
            GeneratorSource::generate(process, JobMix::convex_mix(), 200, 42).collect();
        assert_eq!(
            plain.iter().take(2).map(row).collect::<Vec<_>>(),
            vec![
                (0, JobClass::LrHiggs, 4.267076113540078, 10, 0, None),
                (1, JobClass::SvmRcv1, 6.733535725318465, 5, 0, None),
            ]
        );
        assert_eq!(
            plain.last().map(row),
            Some((199, JobClass::LrHiggs, 1000.944061881196, 10, 0, None))
        );
    }

    #[test]
    fn v3_text_traces_are_the_only_budget_carrying_source() {
        // The budgets() contract: only the trace-text v3 preamble can
        // declare per-tenant caps. Every adapter over an external format
        // must come back uncapped (empty map).
        let mut v3 = TextSource::new("# v3\nbudget\t0\t12.5\n1.0\tlr-higgs\t10\t0\t-\n".as_bytes());
        let budgets = v3.budgets().unwrap();
        assert_eq!(budgets.get(&0), Some(&12.5), "v3 preamble carries caps");

        let mut generator = GeneratorSource::generate(
            ArrivalProcess::Poisson { rate: 0.5 },
            JobMix::default_mix(),
            10,
            1,
        );
        assert!(generator.budgets().unwrap().is_empty());

        let azure = crate::azure::parse(include_str!("../data/azure_sample.csv")).unwrap();
        assert!(InMemorySource::new(&azure).budgets().unwrap().is_empty());

        let mut google =
            crate::google::GoogleSource::new(include_str!("../data/google_sample.csv").as_bytes());
        assert!(google.budgets().unwrap().is_empty());

        let mut opendc = crate::opendc::OpenDcSource::new([(
            "fn-a".to_string(),
            include_str!("../data/opendc/ml-train.csv").as_bytes(),
        )]);
        assert!(opendc.budgets().unwrap().is_empty());
    }
}
