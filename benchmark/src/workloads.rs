//! The benchmark's fixed points: the six workloads, every metric with its
//! unit, direction and regression bound, and the frozen sizes.
//!
//! Sizes are constants, not flags: a number measured here is comparable
//! with one measured on another commit only if both ran the same work.
//! They were calibrated once, on a 2-core box, so that one pass of each
//! measured region takes about 2 s; a run repeats passes in fresh child
//! processes until `--seconds` of measured time is spent and reports
//! medians. `BENCHMARK.json` at the repo root repeats the names, units,
//! directions and bounds; a unit test holds the two in step.

/// Seconds of measured region per run (`run_seconds` in BENCHMARK.json):
/// about five passes per workload.
pub const RUN_SECONDS: f64 = 10.0;

/// Fewest passes a run takes its medians over, however short `--seconds`.
pub const MIN_PASSES: usize = 3;

/// Most passes in one run, so a run always ends well inside the driver's
/// per-run limit even if a later commit makes a pass nearly free.
pub const MAX_PASSES: usize = 12;

/// Size of the untimed warm-up pass, relative to the measured pass.
pub const WARMUP_SCALE: f64 = 0.1;

/// Size of every pass under `--smoke`.
pub const SMOKE_SCALE: f64 = 0.01;

/// The seed the committed golden outputs were produced with.
pub const GOLDEN_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    MlpCompute,
    MlpComm,
    ConvexSparse,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    StreamIdle,
    DeepQueue,
    TraceObserved,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Train(TrainKind),
    Fleet(FleetKind),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Why this workload exists: which layer it stresses and which
    /// optimisation it is the control for.
    pub why: &'static str,
    /// What one measured pass does, for the human-readable report.
    pub shape: &'static str,
    pub golden: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "train_mlp_compute",
        kind: Kind::Train(TrainKind::MlpCompute),
        why: "compute-bound training: MLP backprop and dense linalg dominate, lml-comm and lml-storage idle",
        shape: "MobileNet-surrogate/Cifar10, GA-SGD, 10 workers, IaaS c5.2xlarge PyTorch, 26 rounds",
        golden: include_str!("../golden/train_mlp_compute.txt"),
    },
    Workload {
        name: "train_mlp_comm",
        kind: Kind::Train(TrainKind::MlpComm),
        why: "communication-bound training: ten 4.7 MB statistics per round through lml-comm reduce and the S3 channel",
        shape: "ResNet50-surrogate/Cifar10, GA-SGD, 10 workers, FaaS/S3, 8 rounds AllReduce + 8 rounds ScatterReduce",
        golden: include_str!("../golden/train_mlp_comm.txt"),
    },
    Workload {
        name: "train_convex_sparse",
        kind: Kind::Train(TrainKind::ConvexSparse),
        why: "sparse and long-vector use of lml-optim and lml-linalg: ADMM sweeps, EM statistics, 1M-dim SGD; few rounds, no MLP",
        shape: "LR/RCV1 ADMM + KMeans/RCV1 EM + KMeans/YFCC EM on FaaS/S3, LR/Criteo GA-SGD on IaaS",
        golden: include_str!("../golden/train_convex_sparse.txt"),
    },
    Workload {
        name: "fleet_stream_idle",
        kind: Kind::Fleet(FleetKind::StreamIdle),
        why: "uncongested fleet replay: event queue, routing, memoised predict and slab recycling; queues stay in the dozens",
        shape: "replay_stats over a 7M-job GeneratorSource (Poisson 0.05/s, convex mix, 4 tenants), CostAware, NullObserver",
        golden: include_str!("../golden/fleet_stream_idle.txt"),
    },
    Workload {
        name: "fleet_deep_queue",
        kind: Kind::Fleet(FleetKind::DeepQueue),
        why: "congested fleet replay: nearly the whole trace is queued, so the EDF and DRR queue scans dominate",
        shape: "burst arrivals on a capped fleet: DeadlineAware/EDF on 6,000 jobs + FairShare/DRR on 660 jobs",
        golden: include_str!("../golden/fleet_deep_queue.txt"),
    },
    Workload {
        name: "fleet_trace_observed",
        kind: Kind::Fleet(FleetKind::TraceObserved),
        why: "observer-armed replay from a trace file: text parsing, RecordingObserver callbacks and trace JSON emission",
        shape: "6 passes over a 40k-job trace-v3 file: replay_observed (spot 0.6, checkpoints, hourly gauges) + metrics and trace JSON",
        golden: include_str!("../golden/fleet_trace_observed.txt"),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload. A fourth,
/// `failed_frac`, is carried by the result's `attempted`/`failed` counts
/// instead of a metric: it must stay exactly 0, and a metric that is
/// always 0 has no relative bound.
///
/// `wall_s` is bounded at 25% (the most the driver contract allows), not
/// the 7% first proposed. Passes made back to back agree within 1–3%, but
/// the shared host switches between speed levels that each last minutes:
/// the same binary read `train_mlp_compute` at 2.00 s, then 1.72 s from
/// one pass to the next, and held each level. The MLP workloads stream
/// 6 MB weight matrices through the shared last-level cache and move
/// 14–16% with a switch, the fleet workloads 4–5%. No statistic taken
/// inside a 10 s run removes a level that outlasts the run, and the
/// driver's ten runs of `train_mlp_compute` spread 17% at a 15% bound.
/// Tighter claims are for `compare` on alternating pairs, where the
/// level cancels.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Every per-layer metric a traced run reports. A metric the workload
/// does not exercise reads 0 (training metrics on fleet workloads and the
/// reverse). Counts and simulated outputs (`out.*`) repeat exactly; their
/// direction is nominal.
pub const PER_LAYER: [PerLayer; 73] = [
    // --- training layers (shadow BSP loop) ---
    lower("data.generate_s", "s"),
    lower("optim.produce_s", "s"),
    lower("optim.produce_calls", "count"),
    lower("optim.examples", "count"),
    lower("optim.consume_s", "s"),
    lower("optim.sum_s", "s"),
    lower("models.eval_s", "s"),
    lower("models.eval_calls", "count"),
    lower("comm.round_s", "s"),
    lower("comm.round_calls", "count"),
    lower("comm.f64s_moved", "count"),
    lower("storage.puts", "count"),
    lower("storage.gets", "count"),
    lower("storage.lists", "count"),
    lower("core.driver_self_s", "s"),
    lower("out.train_final_loss", "loss"),
    lower("out.train_rounds", "count"),
    lower("out.train_sim_runtime_s", "s"),
    lower("out.train_cost_usd", "usd"),
    // --- training micro cells ---
    lower("linalg.dense_dot_ns", "ns"),
    lower("linalg.dense_axpy_ns", "ns"),
    lower("linalg.sparse_dot_ns", "ns"),
    lower("models.mlp_grad_us", "us"),
    lower("models.lr_grad_us", "us"),
    lower("models.lr_sparse_grad_us", "us"),
    lower("models.kmeans_stats_us", "us"),
    lower("comm.allreduce_us", "us"),
    lower("comm.scatter_reduce_us", "us"),
    // --- fleet layers (decorators over the four extension traits) ---
    lower("stream.next_job_s", "s"),
    lower("stream.jobs", "count"),
    PerLayer {
        name: "stream.text_parse_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
    },
    lower("scheduler.route_s", "s"),
    lower("scheduler.route_calls", "count"),
    lower("scheduler.feedback_s", "s"),
    lower("scheduler.weight_calls", "count"),
    lower("estimate.predict_s", "s"),
    lower("estimate.predict_calls", "count"),
    lower("estimate.observe_s", "s"),
    lower("observe.callback_s", "s"),
    lower("observe.events", "count"),
    lower("sim.self_s", "s"),
    lower("sim.edf_s", "s"),
    lower("sim.drr_s", "s"),
    lower("sim.events", "count"),
    lower("sim.heap_ops", "count"),
    lower("sim.peak_queue_depth", "count"),
    lower("sim.peak_resident_jobs", "count"),
    lower("sim.ns_per_event", "ns"),
    lower("metrics.to_json_s", "s"),
    lower("metrics.json_bytes", "count"),
    lower("observe.trace_json_s", "s"),
    lower("observe.trace_json_bytes", "count"),
    lower("out.fleet_completed", "count"),
    lower("out.fleet_rejected", "count"),
    lower("out.fleet_makespan_s", "s"),
    lower("out.fleet_cost_usd", "usd"),
    lower("out.fleet_preemptions", "count"),
    // --- fleet micro cells ---
    lower("events.push_pop_ns", "ns"),
    lower("events.push_pop_ties_ns", "ns"),
    lower("intern.lookup_ns", "ns"),
    lower("analytic.predict_ns", "ns"),
    lower("analytic.predict_cold_ns", "ns"),
    // --- process and tracing ---
    lower("proc.cpu_s", "s"),
    lower("proc.peak_rss_mb", "MB"),
    lower("alloc.count", "count"),
    lower("alloc.bytes", "count"),
    lower("trace.untraced_wall_s", "s"),
    lower("trace.wall_s", "s"),
    lower("trace.layers_s", "s"),
    lower("trace.timer_ns", "ns"),
    lower("trace.timer_s", "s"),
    lower("trace.micro_s", "s"),
    lower("trace.overhead_frac", "frac"),
];

/// `n` scaled for a warm-up or smoke pass, never below `floor` (the
/// smallest input the workload is still well-formed on).
pub fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

/// Frozen input sizes of the measured pass (scale 1.0).
pub mod size {
    // Batches are fixed at the sample-scale value of the paper's batch
    // (Table 4) for the full-size rows below, not re-derived from the row
    // count: rounds per epoch then shrink with the rows, so a warm-up at a
    // tenth of the rows is a tenth of the work.
    //
    // train_mlp_compute: 3,700 rows → 333-row partitions → 26 rounds of
    // batch 13 (paper batch 128 at the 1:10 sample ratio).
    pub const MLP_COMPUTE_ROWS: usize = 3_700;
    pub const MLP_COMPUTE_BATCH: usize = 13;
    // train_mlp_comm: 234 rows → 22-row partitions → 8 rounds of batch 3
    // (paper batch 32; larger batches exceed Lambda's 3 GB, §5.2).
    pub const MLP_COMM_ROWS: usize = 234;
    pub const MLP_COMM_BATCH: usize = 3;
    // train_convex_sparse.
    pub const RCV1_ROWS: usize = 2_000;
    pub const YFCC_ROWS: usize = 2_000;
    pub const CRITEO_ROWS: usize = 10_000;
    /// Paper batch 2,000 on 697k RCV1 rows, at 2,000 sample rows.
    pub const LR_RCV1_BATCH: usize = 6;
    /// Paper batch 650,000 on 52M Criteo rows, at 10,000 sample rows.
    pub const LR_CRITEO_BATCH: usize = 125;
    pub const LR_RCV1_EPOCHS: usize = 30;
    pub const KM_RCV1_EPOCHS: usize = 2;
    pub const KM_YFCC_EPOCHS: usize = 3;
    pub const LR_CRITEO_EPOCHS: usize = 1;
    // fleet workloads.
    pub const STREAM_IDLE_JOBS: usize = 7_000_000;
    pub const DEEP_EDF_JOBS: usize = 6_000;
    pub const DEEP_DRR_JOBS: usize = 660;
    pub const OBSERVED_JOBS: usize = 40_000;
    pub const OBSERVED_PASSES: u64 = 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for n in &names {
            assert!(ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn scaled_rounds_and_respects_the_floor() {
        assert_eq!(scaled(1_000, 0.1, 10), 100);
        assert_eq!(scaled(1_000, 0.01, 40), 40);
        assert_eq!(scaled(7, 1.0, 1), 7);
    }
}
