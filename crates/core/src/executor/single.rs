//! Single-machine executor — the COST sanity check (§5.1.1).
//!
//! One EC2 instance holds the entire dataset and trains with no
//! communication at all. McSherry et al.'s COST methodology demands that
//! every scaled-up configuration beat this baseline before its scalability
//! numbers mean anything.

use crate::executor::sync_driver::{run_backend, SyncBackend};
use crate::executor::{check_vm_memory, s3_data_link};
use crate::job::{JobError, TrainingJob};
use crate::result::{CostBreakdown, RunResult};
use lml_iaas::{cluster::iaas_startup_table, InstanceType};
use lml_models::AnyModel;
use lml_optim::driver::Aggregate;
use lml_sim::SimTime;

/// Run a single-machine job (dispatched from [`TrainingJob::run`]).
pub(crate) fn run(
    job: &TrainingJob<'_>,
    model: AnyModel,
    instance: InstanceType,
) -> Result<RunResult, JobError> {
    let bytes = job.workload.spec.paper_bytes;
    // The whole dataset must fit in memory.
    check_vm_memory(instance, bytes)?;

    let backend = SyncBackend {
        system: format!("Single({})", instance.name()),
        partitions: 1,
        startup: SimTime::secs(iaas_startup_table().eval(1.0)),
        load: s3_data_link().transfer_time(bytes),
        vcpus: instance.vcpus() as f64,
        gpu: instance
            .gpu()
            .filter(|_| matches!(model, AnyModel::Mlp { .. })),
        compute_factor: 1.0,
        lifetime: None,
    };
    // One worker, no communication: its statistic is the aggregate, with
    // no `0.0 +` step in front of it.
    let mut run = run_backend(
        job,
        &model,
        backend,
        Aggregate::ByValue(&mut |_, _, stats| {
            Ok((stats.into_iter().next().unwrap_or_default(), SimTime::ZERO))
        }),
    )?;
    run.result.cost = CostBreakdown {
        compute: instance.hourly() * run.elapsed.as_hours(),
        ..CostBreakdown::default()
    };
    Ok(run.result)
}
