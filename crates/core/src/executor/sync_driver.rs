//! The one synchronous job runner.
//!
//! FaaS-BSP, IaaS, hybrid and single-machine training differ only in a
//! `SyncBackend` (start-up, data loading, the engine a worker computes
//! on, and Lambda lifetimes), an [`Aggregate`] and a bill. IaaS and hybrid
//! take the loop's in-memory sum, which allocates its statistics once
//! per run; FaaS hands each round's statistics to the storage channel by
//! value, and the single machine hands its one statistic over as the sum.
//! `run_backend` builds the worker replicas and the loop's inputs from a
//! job, runs [`run_sync`], and assembles the [`RunResult`]; the executor
//! then prices its own [`CostBreakdown`] from the final meters. Dollars
//! are never estimated per curve point.
//!
//! The loop itself — producing and consuming statistics, epoch
//! accounting, periodic validation, curve recording and stopping — is
//! `lml_optim::driver`'s; this module adds only the infrastructure's
//! clocks and channels. The S-ASP protocol (`faas::run_asp`) is the one
//! other loop.

use crate::engine;
use crate::job::{JobError, TrainingJob};
use crate::result::{Breakdown, CostBreakdown, RunResult};
use lml_faas::LifetimeManager;
use lml_iaas::GpuKind;
use lml_models::AnyModel;
use lml_optim::driver::{replicas, run_sync, Aggregate, DriverCtx};
use lml_sim::SimTime;

/// What one synchronous backend contributes to a run.
pub(crate) struct SyncBackend {
    /// `RunResult::system`.
    pub system: String,
    /// Data partitions, one worker replica each.
    pub partitions: usize,
    /// Infrastructure start-up before the first round.
    pub startup: SimTime,
    /// Loading one partition, after start-up.
    pub load: SimTime,
    /// The worker's engine (see [`engine::compute_time`]).
    pub vcpus: f64,
    pub gpu: Option<GpuKind>,
    pub compute_factor: f64,
    /// Lambda workers' 15-minute lifetime; `None` for VMs.
    pub lifetime: Option<LifetimeManager>,
}

/// A finished synchronous run, before the executor's bill.
pub(crate) struct SyncRun {
    /// Everything a run reports; `cost` is zero until the executor bills.
    pub result: RunResult,
    /// Launch to finish: what instance- and node-hours bill.
    pub elapsed: SimTime,
    /// One Lambda worker's billed time: loading, rounds and rollovers.
    pub busy: SimTime,
}

/// Train `job` on `backend`, aggregating each round as `aggregate` says.
pub(crate) fn run_backend(
    job: &TrainingJob<'_>,
    model: &AnyModel,
    backend: SyncBackend,
    aggregate: Aggregate<'_, JobError>,
) -> Result<SyncRun, JobError> {
    let (cfg, wl) = (&job.config, job.workload);
    let workers = replicas(model, wl.train.len(), backend.partitions, &cfg.algorithm);
    let ctx = DriverCtx {
        train: &wl.train,
        valid: &wl.valid,
        algo: cfg.algorithm,
        schedule: cfg.lr,
        stop: cfg.stop,
        eval_every: cfg.resolved_eval_every(workers[0].partition_len()),
        start_offset: backend.startup + backend.load,
    };
    let scale_inv = wl.scale_inv();
    let nnz = engine::avg_nnz(&wl.train);
    let compute_time_of = |ex: u64| {
        engine::compute_time(
            model,
            ex as f64 * scale_inv,
            nnz,
            backend.vcpus,
            backend.gpu,
            backend.compute_factor,
        )
    };
    let mut lifetime = backend.lifetime;
    let out = run_sync(&ctx, workers, &compute_time_of, aggregate, &mut |t| {
        lifetime.as_mut().map_or(t, |l| l.charge(t))
    })?;
    Ok(SyncRun {
        elapsed: backend.startup + backend.load + out.compute + out.comm + out.overhead,
        busy: backend.load + out.compute + out.comm + out.overhead,
        result: RunResult {
            system: backend.system,
            final_loss: out.curve.final_loss(),
            final_accuracy: out.final_model.full_accuracy(&wl.valid),
            curve: out.curve,
            breakdown: Breakdown {
                startup: backend.startup + out.overhead,
                load: backend.load,
                compute: out.compute,
                comm: out.comm,
            },
            cost: CostBreakdown::default(),
            epochs: out.epochs,
            rounds: out.rounds,
            converged: out.converged,
            reinvocations: lifetime.map_or(0, |l| l.reinvocations()),
        },
    })
}
