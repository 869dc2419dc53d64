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
//! Three sources live here; the Google cluster-usage adapter
//! ([`crate::google::GoogleSource`]) is the fourth:
//!
//! * [`InMemorySource`] — borrows an existing [`Trace`]; how
//!   `simulate`/`simulate_observed` feed the engine.
//! * [`TextSource`] — chunked reader over the v1/v2/v3 trace text format,
//!   one line resident at a time. The line grammar and its error strings
//!   live here and nowhere else: [`Trace::from_text`] drains this source.
//! * [`GeneratorSource`] — the seeded arrival generator, one job per
//!   pull, so million-job synthetic traces never materialize.
//!   [`Trace::generate_multi`] is this source collected into a `Vec`.

use crate::job::{JobClass, JobRequest, TenantId};
use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};
use lml_sim::{Pcg64, SimTime};
use std::collections::BTreeMap;
use std::io::BufRead;

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

/// Parse one trimmed, non-empty, non-comment trace-text line. `lineno` is
/// zero-based (error messages report `lineno + 1`). Duplicate-budget and
/// sortedness checks stay with the caller, which owns the cross-line state.
fn parse_trace_line(line: &str, lineno: usize) -> Result<TraceLine, String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts[0] == "budget" {
        if parts.len() != 3 {
            return Err(format!(
                "line {}: budget line needs `budget <tenant> <usd>`, got {} fields",
                lineno + 1,
                parts.len()
            ));
        }
        let tenant: TenantId = parts[1]
            .parse()
            .map_err(|e| format!("line {}: bad budget tenant id: {e}", lineno + 1))?;
        let usd: f64 = parts[2]
            .parse()
            .map_err(|e| format!("line {}: bad budget amount: {e}", lineno + 1))?;
        if !usd.is_finite() || usd < 0.0 {
            return Err(format!(
                "line {}: budget must be finite and >= 0",
                lineno + 1
            ));
        }
        return Ok(TraceLine::Budget { tenant, usd });
    }
    if parts.len() != 3 && parts.len() != 5 {
        return Err(format!(
            "line {}: expected 3 (v1) or 5 (v2) fields, got {}",
            lineno + 1,
            parts.len()
        ));
    }
    let t: f64 = parts[0]
        .parse()
        .map_err(|e| format!("line {}: bad time: {e}", lineno + 1))?;
    if !t.is_finite() || t < 0.0 {
        return Err(format!("line {}: time must be finite and >= 0", lineno + 1));
    }
    let class = JobClass::parse(parts[1])
        .ok_or_else(|| format!("line {}: unknown job class {:?}", lineno + 1, parts[1]))?;
    let workers: usize = parts[2]
        .parse()
        .map_err(|e| format!("line {}: bad workers: {e}", lineno + 1))?;
    if workers == 0 {
        return Err(format!("line {}: zero workers", lineno + 1));
    }
    let (tenant, deadline) = if parts.len() == 5 {
        let tenant: TenantId = parts[3]
            .parse()
            .map_err(|e| format!("line {}: bad tenant id: {e}", lineno + 1))?;
        let deadline = if parts[4] == "-" {
            None
        } else {
            let d: f64 = parts[4]
                .parse()
                .map_err(|e| format!("line {}: bad deadline: {e}", lineno + 1))?;
            if !d.is_finite() || d < t {
                return Err(format!(
                    "line {}: deadline must be finite and >= submit time",
                    lineno + 1
                ));
            }
            Some(SimTime::secs(d))
        };
        (tenant, deadline)
    } else {
        (0, None)
    };
    Ok(TraceLine::Job(JobRequest {
        id: 0,
        class,
        submit: SimTime::secs(t),
        workers,
        tenant,
        deadline,
    }))
}

/// Chunked reader over the trace text format: one buffered line resident
/// at a time, so memory is constant in trace length.
///
/// v3 `budget` lines must precede the first job row ([`Trace::to_text`]
/// always writes them first): the budget map is handed to the engine
/// before any job is pulled, so a late budget line is an error.
pub struct TextSource<R> {
    reader: R,
    line: String,
    /// Zero-based index of the next line to read.
    lineno: usize,
    preamble_done: bool,
    /// First job row, pulled while scanning the budget preamble.
    pending: Option<JobRequest>,
    last_submit: SimTime,
    next_id: u64,
}

impl<R: BufRead> TextSource<R> {
    pub fn new(reader: R) -> Self {
        TextSource {
            reader,
            line: String::new(),
            lineno: 0,
            preamble_done: false,
            pending: None,
            last_submit: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Next parsed line with its zero-based line number, skipping blanks
    /// and comments; `None` at end of input.
    fn next_line(&mut self) -> Result<Option<(usize, TraceLine)>, String> {
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("line {}: read error: {e}", self.lineno + 1))?;
            if n == 0 {
                return Ok(None);
            }
            let lineno = self.lineno;
            self.lineno += 1;
            let line = self.line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return parse_trace_line(line, lineno).map(|l| Some((lineno, l)));
        }
    }

    /// Check ordering, assign the next dense id, and admit a job row.
    fn admit(&mut self, mut job: JobRequest) -> Result<JobRequest, String> {
        if job.submit < self.last_submit {
            return Err("trace not sorted by submission time".into());
        }
        self.last_submit = job.submit;
        job.id = self.next_id;
        self.next_id += 1;
        Ok(job)
    }
}

impl<R: BufRead> TraceSource for TextSource<R> {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        let mut budgets = BTreeMap::new();
        loop {
            match self.next_line()? {
                None => break,
                Some((lineno, TraceLine::Budget { tenant, usd })) => {
                    if budgets.insert(tenant, usd).is_some() {
                        return Err(format!(
                            "line {}: duplicate budget for tenant {tenant}",
                            lineno + 1
                        ));
                    }
                }
                Some((_, TraceLine::Job(row))) => {
                    self.pending = Some(self.admit(row)?);
                    break;
                }
            }
        }
        self.preamble_done = true;
        Ok(budgets)
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        debug_assert!(self.preamble_done, "budgets() must be called first");
        if let Some(job) = self.pending.take() {
            return Ok(Some(job));
        }
        match self.next_line()? {
            None => Ok(None),
            Some((lineno, TraceLine::Budget { .. })) => Err(format!(
                "line {}: budget lines must precede the first job row",
                lineno + 1
            )),
            Some((_, TraceLine::Job(row))) => self.admit(row).map(Some),
        }
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
            ("abc\tlr-higgs\t10\n", "line 1: bad time: "),
            ("1.0\tlr-higgs\t0\n", "line 1: zero workers"),
            (
                "1.0\tlr-higgs\t10\t0\n",
                "line 1: expected 3 (v1) or 5 (v2) fields, got 4",
            ),
            ("1.0\tlr-higgs\t10\t0\tsoon\n", "line 1: bad deadline: "),
            (
                "budget\t0\n",
                "line 1: budget line needs `budget <tenant> <usd>`, got 2 fields",
            ),
            (
                "budget\t0\t-1.0\n",
                "line 1: budget must be finite and >= 0",
            ),
            (
                "budget\t0\t1.0\nbudget\t0\t2.0\n",
                "line 2: duplicate budget for tenant 0",
            ),
            (
                "5.0\tlr-higgs\t10\n1.0\tlr-higgs\t10\n",
                "trace not sorted by submission time",
            ),
        ] {
            let got = Trace::from_text(bad).unwrap_err();
            // The two `parse::<f64>` faults end in std's own wording.
            assert!(got.starts_with(want), "{bad:?}: got {got:?}, want {want:?}");
            assert!(want.ends_with(": ") || got == want, "{bad:?}: got {got:?}");
        }
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

        let mut azure = crate::azure::source(include_str!("../data/azure_sample.csv")).unwrap();
        assert!(azure.budgets().unwrap().is_empty());

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
