//! # lml-fleet — multi-tenant serverless training fleet simulator
//!
//! The paper evaluates one training job at a time; its central trade-off —
//! FaaS elasticity vs. IaaS reservation (§5) — only fully materializes
//! under *load*: cold starts amortize across a warm container pool, and
//! reserved clusters queue jobs while Lambda fans out. This crate layers a
//! multi-tenant fleet on top of the single-job simulation:
//!
//! * [`job`] — the tenant job zoo: Table 4 (model, dataset) pairs with
//!   their paper-scale analytical profiles.
//! * [`workload`] — Poisson and burst arrival processes, weighted job
//!   mixes, multi-tenant/deadline generation ([`workload::TenantSpec`]),
//!   and a replayable plain-text trace format, all seeded and
//!   bit-reproducible.
//! * [`azure`] — an Azure-Functions-style CSV adapter (owners → tenants,
//!   function ids → job classes): [`azure::parse`] sorts the rows into a
//!   [`Trace`], which an [`InMemorySource`] streams; a bundled sample
//!   lives under `crates/fleet/data/`.
//! * [`google`] — a Google cluster-usage (task_events) adapter: a
//!   streaming [`TraceSource`] mapping each job's first SUBMIT event onto
//!   the job zoo (users → tenants), constant memory per row.
//! * [`opendc`] — an OpenDC serverless-trace adapter: per-function
//!   invocation-timeline CSVs k-way merged into one non-decreasing
//!   arrival stream (functions → tenants/classes); a bundled fixture
//!   lives under `crates/fleet/data/opendc/`.
//! * [`intern`] — dense key interning ([`TenantMap`],
//!   `TenantClassMap`): the O(1) Vec-indexed tables behind every
//!   hot-path per-tenant ledger and estimator state map, with
//!   sorted-by-id cold iteration preserving `BTreeMap` output order.
//! * [`stream`] — the pull-based [`TraceSource`] abstraction behind
//!   streaming replay: in-memory ([`InMemorySource`]), chunked text
//!   ([`TextSource`], the one statement of the trace grammar), and
//!   generator-backed ([`GeneratorSource`], the one statement of the RNG
//!   draw order) sources, so million-job traces replay without
//!   materializing; and the one ingest path every trace reader shares
//!   (text, Azure, Google, OpenDC): one line loop (`stream::Lines`) and
//!   one row type (`stream::Row`), whose getters parse and range-check
//!   every trace field and word every fault about a line.
//! * [`lifecycle`] — the explicit job-lifecycle state machine
//!   (`Queued → Booting → Running{epochs_done} → … → Done/Rejected`)
//!   shared by all schedulers and tiers, plus [`CheckpointPolicy`] and the
//!   epoch-granular attempt arithmetic behind checkpoint-aware spot
//!   recovery.
//! * [`platform`] — a FaaS region (account concurrency limit + warm pool +
//!   pre-paid provisioned-concurrency floor), an IaaS pool (FIFO +
//!   backfill queueing, Table 6 boot-time autoscaling, idle billing), and
//!   a preemptible spot tier (discounted, per-(job, attempt) seeded
//!   exponential preemption; preempted jobs resume from their last durable
//!   checkpoint).
//! * [`estimate`] — the prediction layer: the named [`Estimate`] quadruple
//!   (plus calibrated P95 margins, `Estimate::eta_q`), the pluggable
//!   [`Estimator`] trait, and its three impls — the §5.3 [`Analytic`]
//!   model, the per-(tenant, class) [`Online`] EWMA learned from the
//!   simulator's completion feedback, and the prior-to-posterior
//!   [`Hybrid`] blend — plus the risk subsystem: [`RiskModel`]'s learned
//!   per-(tenant, class) spot preemption-rate posteriors, fed every
//!   attempt outcome ([`PreemptionObs`]) through
//!   [`scheduler::Scheduler::observe_preemption`].
//! * [`scheduler`] — the routing policies: all-FaaS, all-IaaS, the
//!   cost-aware hybrid, deadline-aware EDF (spills to IaaS when FaaS can't
//!   make the deadline), and weighted fair-share (deficit round-robin
//!   across tenants), each declaring its admission [`QueueDiscipline`] and
//!   pricing through its estimator.
//! * [`sim`] — the event-driven fleet loop on the shared
//!   [`lml_sim::EventQueue`], with discipline-ordered admission queues and
//!   per-tenant service accounting, one private module per stage a job
//!   passes through: `engine` (the replay loop), `slab` (resident jobs
//!   behind generational handles), `admission` (budgets, windows, pricing,
//!   routing), `dispatch` (the one launch path, queues, spot outcomes) and
//!   `retire` (the retire hook and its two sinks). Arrivals are *pulled*
//!   from a [`TraceSource`] on demand, so resident memory is bounded by
//!   the working set — [`replay`] collects full metrics, [`replay_stats`]
//!   runs in constant memory, and [`simulate`] replays an in-memory
//!   [`Trace`].
//! * [`metrics`] — per-job queue/startup/run breakdowns rolled up into
//!   p50/p95/p99 latency, dollars, warm-hit rate, utilization,
//!   deadline-hit rate, preemption counts, and per-tenant fairness.
//! * [`json`] — the deterministic one-buffer JSON writer behind
//!   [`metrics::FleetMetrics::to_json`] and the [`observe`] exports.
//! * [`observe`] — the observability layer: the [`FleetObserver`] hook
//!   trait the simulator narrates runs through (lifecycle transitions,
//!   scheduler decision audits, platform events, windowed gauges), with a
//!   zero-cost [`NullObserver`] default and an in-memory
//!   [`RecordingObserver`] (byte-stable `lml-fleet/trace/v1` JSON + Chrome
//!   trace-event export).

#![forbid(unsafe_code)]

pub mod azure;
pub mod estimate;
pub mod google;
pub mod intern;
pub mod job;
pub mod json;
pub mod lifecycle;
pub mod metrics;
pub mod observe;
pub mod opendc;
pub mod platform;
mod queue;
pub mod scheduler;
pub mod sim;
pub mod stream;
pub mod workload;

pub use estimate::{
    Analytic, CompletedJob, Estimate, Estimator, Hybrid, Online, PreemptionObs, RiskModel,
};
pub use google::GoogleSource;
pub use intern::TenantMap;
pub use job::{JobClass, JobRequest, TenantId};
pub use lifecycle::{CheckpointPolicy, JobLifecycle};
pub use metrics::{jain_index, FleetMetrics, JobRecord, PlatformTotals, TenantRow, WindowRollup};
pub use observe::{
    AttemptSpan, Decision, DecisionRecord, FleetEvent, FleetObserver, GaugeSample, NullObserver,
    PlatformEvent, RecordingObserver, ReplayStats,
};
pub use opendc::OpenDcSource;
pub use platform::{FaasConfig, IaasConfig, SpotConfig};
pub use scheduler::{
    AllFaas, AllIaas, CostAware, DeadlineAware, FairShare, FleetView, QueueDiscipline, Route,
    Scheduler,
};
pub use sim::{
    replay, replay_observed, replay_stats, simulate, simulate_observed, FleetConfig, ReplaySummary,
};
pub use stream::{GeneratorSource, InMemorySource, TextSource, TraceSource};
pub use workload::{ArrivalProcess, JobMix, TenantSpec, Trace};
