//! The three fleet-simulator workloads.
//!
//! Each pass is written twice over the same inputs: plain (the public
//! replay entry points with the stock source, scheduler and observer —
//! what the end-to-end metrics time) and decorated (the same calls with
//! the timing decorators of [`crate::decorators`] wired in from outside).
//! The two must agree on every output; the traced run checks that.
//!
//! Simulated results (`out.*`) are outputs, not performance: they are
//! folded into an FNV fingerprint together with every emitted JSON
//! document and must repeat exactly for a seed. Fingerprinting happens
//! outside the timed spans.

use crate::decorators::{Clocks, TimedEstimator, TimedObserver, TimedScheduler, TimedSource};
use crate::stats::median_ns_per_op;
use crate::stats::Fnv1a;
use crate::workloads::{scaled, size, FleetKind};
use lml_fleet::{
    replay_observed, replay_stats, Analytic, ArrivalProcess, CheckpointPolicy, CostAware,
    DeadlineAware, Estimator, FairShare, FleetConfig, FleetMetrics, GeneratorSource,
    InMemorySource, JobClass, JobMix, JobRequest, NullObserver, RecordingObserver, ReplaySummary,
    TenantId, TenantMap, TenantSpec, TextSource, Trace, TraceSource,
};
use lml_sim::{EventQueue, Pcg64, SimTime};
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub enum Inputs {
    StreamIdle {
        jobs: usize,
    },
    DeepQueue {
        cfg: FleetConfig,
        edf: Trace,
        drr: Trace,
    },
    TraceObserved {
        cfg: FleetConfig,
        path: PathBuf,
        file_bytes: u64,
        jobs: usize,
    },
}

const IDLE_TENANTS: TenantSpec = TenantSpec {
    n_tenants: 4,
    deadline_frac: 0.25,
    deadline_slack: 4.0,
};

fn idle_source(jobs: usize, seed: u64) -> GeneratorSource {
    GeneratorSource::new(
        ArrivalProcess::Poisson { rate: 0.05 },
        JobMix::convex_mix(),
        IDLE_TENANTS,
        jobs,
        seed,
    )
}

/// `JobMix::default_mix` in percent: mostly fast convex jobs, a tail of
/// heavy deep-learning jobs.
const MIX: [(JobClass, usize); 6] = [
    (JobClass::LrHiggs, 32),
    (JobClass::SvmRcv1, 30),
    (JobClass::KmHiggs, 20),
    (JobClass::LrYfcc, 8),
    (JobClass::MnCifar, 8),
    (JobClass::RnCifar, 2),
];

/// A multi-tenant trace whose *composition* does not depend on the seed:
/// class counts follow [`MIX`] exactly, tenants take equal shares and
/// every second job carries a deadline at 3× its class's nominal runtime.
/// The seed shuffles which job is which and draws the arrival gaps.
///
/// `Trace::generate_multi` samples class, tenant and deadline per job, so
/// at a few hundred jobs the count of the 2% heaviest class swings by a
/// quarter from seed to seed — and the host time of a congested replay
/// with it, by more than the regression bound. A benchmark input has to
/// be the same amount of work for every seed.
fn stratified_trace(process: ArrivalProcess, n_tenants: u32, jobs: usize, seed: u64) -> Trace {
    let mut rng = Pcg64::new(seed ^ 0xBE7C);
    // Largest-remainder apportionment of `jobs` over the mix.
    let mut classes: Vec<JobClass> = Vec::with_capacity(jobs);
    let mut remainders: Vec<(usize, JobClass)> = Vec::new();
    for (class, percent) in MIX {
        classes.extend(std::iter::repeat_n(class, percent * jobs / 100));
        remainders.push((percent * jobs % 100, class));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let short = jobs - classes.len();
    classes.extend(remainders.iter().cycle().take(short).map(|&(_, c)| c));
    let mut tenants: Vec<TenantId> = (0..jobs).map(|i| i as TenantId % n_tenants).collect();
    let mut deadlined: Vec<bool> = (0..jobs).map(|i| i % 2 == 0).collect();
    rng.shuffle(&mut classes);
    rng.shuffle(&mut tenants);
    rng.shuffle(&mut deadlined);

    let mut t = 0.0;
    let requests = (0..jobs)
        .map(|i| {
            t += -(1.0 - rng.uniform()).ln() / process.rate_at(t);
            let submit = SimTime::secs(t);
            let class = classes[i];
            JobRequest {
                id: i as u64,
                class,
                submit,
                workers: class.default_workers(),
                tenant: tenants[i],
                deadline: deadlined[i].then(|| submit + class.nominal_runtime() * 3.0),
            }
        })
        .collect();
    Trace::from_jobs(requests)
}

/// Build the inputs of `kind` at `scale`. `workdir` receives the trace
/// file of `fleet_trace_observed`.
pub fn build(kind: FleetKind, scale: f64, seed: u64, workdir: &Path) -> Result<Inputs, String> {
    match kind {
        FleetKind::StreamIdle => Ok(Inputs::StreamIdle {
            jobs: scaled(size::STREAM_IDLE_JOBS, scale, 1_000),
        }),
        FleetKind::DeepQueue => {
            // A fleet capped well below the burst's demand: almost every
            // job of the trace is queued at once. The IaaS ceiling stays
            // at 100 because the widest class (LR/YFCC) asks for 100
            // workers and the simulator refuses a job wider than its pool.
            let mut cfg = FleetConfig::default();
            cfg.faas.concurrency_limit = 200;
            cfg.iaas.min_instances = 20;
            cfg.iaas.max_instances = 100;
            let burst = ArrivalProcess::Burst {
                base_rate: 0.1,
                burst_rate: 20.0,
                period: 600.0,
                duty: 0.5,
            };
            let gen = |jobs| stratified_trace(burst, 8, jobs, seed);
            // `scale` is a share of the work, and with the whole trace
            // queued the linear-scan EDF cell is quadratic in jobs and the
            // DRR cell cubic: shrink the job counts by the matching root.
            Ok(Inputs::DeepQueue {
                cfg,
                edf: gen(scaled(size::DEEP_EDF_JOBS, scale.sqrt(), 100)),
                drr: gen(scaled(size::DEEP_DRR_JOBS, scale.cbrt(), 50)),
            })
        }
        FleetKind::TraceObserved => {
            let mut cfg = FleetConfig {
                checkpoint: CheckpointPolicy::every(2),
                ..FleetConfig::default()
            };
            cfg.spot.mean_time_to_preempt = SimTime::secs(1_800.0);
            let n_tenants = 16;
            let jobs = scaled(size::OBSERVED_JOBS, scale, 200);
            // An uncongested arrival rate, so the replay itself is cheap
            // and the observer and JSON layers carry the pass.
            let mut trace = stratified_trace(
                ArrivalProcess::Poisson { rate: 0.02 },
                n_tenants,
                jobs,
                seed,
            );
            // Budgets make the file trace-v3 and arm the spend ledger;
            // they are generous so that no job is refused.
            for tenant in 0..n_tenants {
                trace = trace.with_budget(tenant, 1.0e6);
            }
            let text = trace.to_text();
            let path = workdir.join(format!("trace-{seed}-{jobs}.txt"));
            std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Inputs::TraceObserved {
                cfg,
                path,
                file_bytes: text.len() as u64,
                jobs,
            })
        }
    }
}

/// Everything one pass produces.
#[derive(Debug, Default)]
pub struct Out {
    /// Timed spans only: replays plus JSON emission.
    pub wall: Duration,
    /// The replay calls alone.
    pub replay: Duration,
    pub edf: Duration,
    pub drr: Duration,
    pub metrics_json: Duration,
    pub metrics_json_bytes: u64,
    pub trace_json: Duration,
    pub trace_json_bytes: u64,
    /// Replays attempted, and invariant checks made on their results.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub jobs: u64,
    pub completed: u64,
    pub rejected: u64,
    pub makespan_s: f64,
    pub cost_usd: f64,
    pub preemptions: u64,
    pub fingerprint: Fnv1a,
}

impl Out {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn fold_counts(
        &mut self,
        label: &str,
        want_jobs: u64,
        jobs: u64,
        completed: u64,
        rejected: u64,
    ) {
        self.check(jobs == want_jobs, || {
            format!("{label}: {jobs} jobs replayed, {want_jobs} in the trace")
        });
        self.check(completed + rejected == jobs, || {
            format!("{label}: completed {completed} + rejected {rejected} != jobs {jobs}")
        });
        self.jobs += jobs;
        self.completed += completed;
        self.rejected += rejected;
        self.fingerprint.u64(completed);
        self.fingerprint.u64(rejected);
    }

    fn fold_summary(&mut self, label: &str, want_jobs: u64, r: Result<ReplaySummary, String>) {
        self.attempted += 1;
        match r {
            Err(e) => self.failures.push(format!("{label}: {e}")),
            Ok(s) => {
                self.fold_counts(label, want_jobs, s.jobs, s.completed, s.rejected);
                self.makespan_s += s.makespan.as_secs();
                self.cost_usd += s.total_cost.as_usd();
                self.fingerprint.f64(s.makespan.as_secs());
                self.fingerprint.f64(s.total_cost.as_usd());
                self.fingerprint.u64(s.peak_resident_jobs);
            }
        }
    }

    /// Fold a full-metrics replay; returns the metrics for JSON emission.
    fn fold_metrics(
        &mut self,
        label: &str,
        want_jobs: u64,
        r: Result<FleetMetrics, String>,
    ) -> Option<FleetMetrics> {
        self.attempted += 1;
        match r {
            Err(e) => {
                self.failures.push(format!("{label}: {e}"));
                None
            }
            Ok(m) => {
                let rejected = m.records.iter().filter(|r| r.rejected).count() as u64;
                let jobs = m.records.len() as u64;
                self.check(rejected == m.rejected_jobs as u64, || {
                    format!(
                        "{label}: rollup counts {} rejections, records {rejected}",
                        m.rejected_jobs
                    )
                });
                self.fold_counts(label, want_jobs, jobs, jobs - rejected, rejected);
                self.makespan_s += m.makespan.as_secs();
                self.cost_usd += m.total_cost().as_usd();
                self.preemptions += m.preemptions;
                Some(m)
            }
        }
    }

    /// Emit one JSON document into the counting sink: time `render`, then
    /// (untimed) count and fingerprint its bytes.
    fn emit(&mut self, which: Doc, render: impl FnOnce() -> String) {
        let t = Instant::now();
        let json = render();
        let dt = t.elapsed();
        self.wall += dt;
        let (span, bytes) = match which {
            Doc::Metrics => (&mut self.metrics_json, &mut self.metrics_json_bytes),
            Doc::Trace => (&mut self.trace_json, &mut self.trace_json_bytes),
        };
        *span += dt;
        *bytes += json.len() as u64;
        self.fingerprint.bytes(json.as_bytes());
    }

    fn timed_replay<T>(&mut self, cell: Option<Cell>, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed();
        self.wall += dt;
        self.replay += dt;
        match cell {
            Some(Cell::Edf) => self.edf += dt,
            Some(Cell::Drr) => self.drr += dt,
            None => {}
        }
        out
    }
}

enum Doc {
    Metrics,
    Trace,
}

enum Cell {
    Edf,
    Drr,
}

/// One pass over `inputs`: plain when `clocks` is `None`, decorated with
/// the timing layers otherwise.
pub fn run(inputs: &Inputs, seed: u64, clocks: Option<&Arc<Clocks>>) -> Out {
    let mut out = Out::default();
    match inputs {
        Inputs::StreamIdle { jobs } => {
            let cfg = FleetConfig::default();
            let summary = out.timed_replay(None, || match clocks {
                None => replay_stats(
                    idle_source(*jobs, seed),
                    &cfg,
                    &mut CostAware::new(),
                    seed,
                    &mut NullObserver,
                ),
                Some(c) => {
                    let est = TimedEstimator::new(Analytic::new(), c);
                    let sched = CostAware::new().with_estimator(Box::new(est));
                    replay_stats(
                        TimedSource::new(idle_source(*jobs, seed), c),
                        &cfg,
                        &mut TimedScheduler::new(sched, c),
                        seed,
                        &mut TimedObserver::new(NullObserver, c),
                    )
                }
            });
            out.fold_summary("stream_idle", *jobs as u64, summary);
        }
        Inputs::DeepQueue { cfg, edf, drr } => {
            let metrics = out.timed_replay(Some(Cell::Edf), || match clocks {
                None => replay_observed(
                    InMemorySource::new(edf),
                    cfg,
                    &mut DeadlineAware::for_config(cfg),
                    seed,
                    &mut NullObserver,
                ),
                Some(c) => {
                    let est = TimedEstimator::new(Analytic::for_config(cfg), c);
                    let sched = DeadlineAware::for_config(cfg).with_estimator(Box::new(est));
                    replay_observed(
                        TimedSource::new(InMemorySource::new(edf), c),
                        cfg,
                        &mut TimedScheduler::new(sched, c),
                        seed,
                        &mut TimedObserver::new(NullObserver, c),
                    )
                }
            });
            if let Some(m) = out.fold_metrics("deep_queue/edf", edf.len() as u64, metrics) {
                out.emit(Doc::Metrics, || m.to_json());
            }
            let metrics = out.timed_replay(Some(Cell::Drr), || match clocks {
                None => replay_observed(
                    InMemorySource::new(drr),
                    cfg,
                    &mut FairShare::for_config(cfg),
                    seed,
                    &mut NullObserver,
                ),
                Some(c) => {
                    let est = TimedEstimator::new(Analytic::for_config(cfg), c);
                    let sched = FairShare::for_config(cfg).with_estimator(Box::new(est));
                    replay_observed(
                        TimedSource::new(InMemorySource::new(drr), c),
                        cfg,
                        &mut TimedScheduler::new(sched, c),
                        seed,
                        &mut TimedObserver::new(NullObserver, c),
                    )
                }
            });
            if let Some(m) = out.fold_metrics("deep_queue/drr", drr.len() as u64, metrics) {
                out.emit(Doc::Metrics, || m.to_json());
            }
        }
        Inputs::TraceObserved {
            cfg, path, jobs, ..
        } => {
            for pass in 0..size::OBSERVED_PASSES {
                let label = format!("trace_observed/pass{pass}");
                let file = match File::open(path) {
                    Ok(f) => BufReader::new(f),
                    Err(e) => {
                        out.attempted += 1;
                        out.failures
                            .push(format!("{label}: {}: {e}", path.display()));
                        continue;
                    }
                };
                let scheduler = || {
                    DeadlineAware::for_config(cfg)
                        .with_spot_fraction(0.6)
                        .with_spot_recovery(cfg.checkpoint)
                };
                let recorder = RecordingObserver::new().with_gauge_period(SimTime::hours(1.0));
                let (metrics, recorder) = out.timed_replay(None, || match clocks {
                    None => {
                        let mut obs = recorder;
                        let m = replay_observed(
                            TextSource::new(file),
                            cfg,
                            &mut scheduler(),
                            seed + pass,
                            &mut obs,
                        );
                        (m, obs)
                    }
                    Some(c) => {
                        let est = TimedEstimator::new(Analytic::for_config(cfg), c);
                        let sched = scheduler().with_estimator(Box::new(est));
                        let mut obs = TimedObserver::new(recorder, c);
                        let m = replay_observed(
                            TimedSource::new(TextSource::new(file), c),
                            cfg,
                            &mut TimedScheduler::new(sched, c),
                            seed + pass,
                            &mut obs,
                        );
                        (m, obs.into_inner())
                    }
                });
                if let Some(m) = out.fold_metrics(&label, *jobs as u64, metrics) {
                    out.emit(Doc::Metrics, || m.to_json());
                    out.emit(Doc::Trace, || recorder.to_json());
                }
            }
        }
    }
    out
}

/// Parse throughput of the trace file alone (no simulation), MB/s.
pub fn text_parse_mb_per_s(path: &Path, file_bytes: u64) -> Result<f64, String> {
    let open = || File::open(path).map_err(|e| format!("{}: {e}", path.display()));
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let mut src = TextSource::new(BufReader::new(open()?));
        let t = Instant::now();
        black_box(src.budgets()?);
        while let Some(job) = src.next_job()? {
            black_box(job);
        }
        best = best.min(t.elapsed());
    }
    Ok(file_bytes as f64 / 1e6 / best.as_secs_f64())
}

/// The fleet micro cells: the pieces under `sim.self_s`, `scheduler.*`
/// and `estimate.*`, each sized to run at least 50 ms per repetition on
/// the calibration box.
pub fn micro_cells(seed: u64, scale: f64) -> Vec<(&'static str, f64)> {
    let sized = |n: u64| ((n as f64 * scale) as u64).max(1_000);
    let events = sized(1_000_000);
    let mut rng = Pcg64::new(seed);
    // The hold model, the simulator's own access pattern: 1,000 events
    // stay pending; each step pops the earliest and schedules a successor
    // a uniform 0..1,000 s later. (Preloading a million uniform times
    // before the first pop is quadratic in this queue — 27 us per event —
    // and is not how the simulator uses it.)
    let uniform: Vec<f64> = (0..events).map(|_| rng.uniform() * 1e3).collect();
    let hold = median_ns_per_op(events, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, &dt) in uniform.iter().take(1_000).enumerate() {
            q.push(SimTime::secs(dt), i as u32);
        }
        for &dt in &uniform {
            let (now, id) = q.pop().expect("the hold model never drains");
            q.push(SimTime::secs(now.as_secs() + dt), black_box(id));
        }
    });
    // 1,000 timestamps, each a storm of 1,000 simultaneous events, loaded
    // in time order and drained.
    let storms = median_ns_per_op(events, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..events {
            q.push(SimTime::secs((i / 1_000) as f64), i as u32);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });
    let mut out = vec![
        ("events.push_pop_ns", hold),
        ("events.push_pop_ties_ns", storms),
    ];

    let mut table: TenantMap<f64> = TenantMap::new();
    for tenant in 0..64u32 {
        table.insert(tenant, tenant as f64);
    }
    let lookups = sized(40_000_000);
    out.push((
        "intern.lookup_ns",
        median_ns_per_op(lookups, || {
            let mut acc = 0.0;
            for i in 0..lookups {
                acc += table
                    .get(black_box((i % 64) as u32))
                    .copied()
                    .unwrap_or(0.0);
            }
            black_box(acc);
        }),
    ));

    let analytic = Analytic::new();
    let job = |workers| JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, workers);
    let warm = sized(10_000_000);
    out.push((
        "analytic.predict_ns",
        median_ns_per_op(warm, || {
            let j = job(10);
            for _ in 0..warm {
                black_box(analytic.predict(black_box(&j)));
            }
        }),
    ));
    // The memo holds one width per class: alternating widths misses it on
    // every call, which is the un-memoised model.
    let cold = sized(200_000);
    out.push((
        "analytic.predict_cold_ns",
        median_ns_per_op(cold, || {
            let (a, b) = (job(10), job(11));
            for i in 0..cold {
                black_box(analytic.predict(black_box(if i % 2 == 0 { &a } else { &b })));
            }
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_traces_have_the_same_composition_for_every_seed() {
        let process = ArrivalProcess::Poisson { rate: 0.5 };
        let census = |seed| {
            let trace = stratified_trace(process, 8, 660, seed);
            assert_eq!(trace.len(), 660);
            assert!(trace.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
            let count =
                |f: &dyn Fn(&JobRequest) -> bool| trace.jobs.iter().filter(|j| f(j)).count();
            (
                MIX.map(|(class, _)| count(&|j| j.class == class)),
                count(&|j| j.deadline.is_some()),
                count(&|j| j.tenant == 3),
                trace.jobs[0].class,
            )
        };
        let (classes, deadlines, tenant3, _) = census(1);
        assert_eq!(classes, [211, 198, 132, 53, 53, 13]);
        assert_eq!((deadlines, tenant3), (330, 83));
        for seed in 2..6 {
            let (c, d, t, _) = census(seed);
            assert_eq!((c, d, t), (classes, deadlines, tenant3));
        }
        // ... while the seed still decides which job is which.
        let first: Vec<JobClass> = (1..12).map(|s| census(s).3).collect();
        assert!(first.iter().any(|c| *c != first[0]));
        assert_eq!(
            stratified_trace(process, 8, 50, 9),
            stratified_trace(process, 8, 50, 9)
        );
    }

    /// Decorator transparency on the real workloads, at smoke size: the
    /// decorated pass reproduces the plain pass's outputs and fingerprint.
    #[test]
    fn decorated_passes_equal_plain_passes() {
        let workdir = crate::runner::Workdir::create().unwrap();
        let dir = workdir.path();
        for kind in [
            FleetKind::StreamIdle,
            FleetKind::DeepQueue,
            FleetKind::TraceObserved,
        ] {
            let inputs = build(kind, 0.01, 5, dir).unwrap();
            let plain = run(&inputs, 5, None);
            let clocks = Clocks::shared();
            let decorated = run(&inputs, 5, Some(&clocks));
            assert!(plain.failures.is_empty(), "{kind:?}: {:?}", plain.failures);
            assert!(decorated.failures.is_empty(), "{kind:?}");
            assert!(plain.jobs > 0 && plain.completed + plain.rejected == plain.jobs);
            assert_eq!(
                plain.fingerprint.finish(),
                decorated.fingerprint.finish(),
                "{kind:?}"
            );
            assert_eq!(plain.makespan_s.to_bits(), decorated.makespan_s.to_bits());
            assert_eq!(plain.cost_usd.to_bits(), decorated.cost_usd.to_bits());
            let armed = kind == FleetKind::TraceObserved;
            assert_eq!(
                clocks.callback.calls() > 0,
                armed,
                "{kind:?}: observer callbacks"
            );
            assert_eq!(plain.trace_json_bytes > 0, armed, "{kind:?}");
        }
    }
}
