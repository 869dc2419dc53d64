//! The hybrid executor: Lambda workers + a VM parameter server
//! (Cirrus-style, §3.2.2).
//!
//! Workers push statistics to the PS over gRPC/Thrift; the PS — which,
//! unlike a storage service, *can compute* — applies the aggregation and
//! workers pull the fresh model. That saves a storage hop per round but, as
//! Table 2 shows, the pipeline is bounded by serialization on the Lambda's
//! fractional vCPU and by update locking on the PS.

use crate::executor::sync_driver::{run_backend, SyncBackend};
use crate::executor::{check_lambda_memory, lambda_bill, partition_load_time};
use crate::job::{JobError, TrainingJob};
use crate::result::{CostBreakdown, RunResult};
use lml_faas::{faas_startup_time, LambdaSpec, LifetimeManager};
use lml_iaas::{cluster::iaas_startup_table, InstanceType, PsModel, RpcKind};
use lml_models::AnyModel;
use lml_optim::driver::Aggregate;
use lml_sim::{Cost, SimTime};

/// Run a hybrid job (dispatched from [`TrainingJob::run`]).
pub fn run(
    job: &TrainingJob<'_>,
    model: AnyModel,
    spec: LambdaSpec,
    ps_instance: InstanceType,
    rpc: RpcKind,
) -> Result<RunResult, JobError> {
    let (w, wl) = (job.config.workers, job.workload);
    check_lambda_memory(job, &model, spec)?;

    let ps = PsModel::new(rpc, ps_instance, spec.vcpus());
    let load = partition_load_time(&wl.spec, w);
    // Rollover: model pull + push through the PS plus the partition reload.
    let rollover = ps.transfer_time_single(model.wire_bytes()) * 2.0 + load;
    let backend = SyncBackend {
        system: format!("HybridPS({})", rpc.name()),
        partitions: w,
        // One VM boots (t_I(1)) while the Lambda fleet cold-starts after it
        // — Figure 10 measures ~123 s for the hybrid's start-up.
        startup: SimTime::secs(iaas_startup_table().eval(1.0)) + faas_startup_time(w),
        load,
        vcpus: spec.vcpus(),
        gpu: None,
        compute_factor: 1.0,
        lifetime: Some(LifetimeManager::with_overhead(rollover)),
    };
    // The PS receives every statistic and computes the sum.
    let round = ps.round_time(w, model.statistic_wire_bytes());
    let mut run = run_backend(job, &model, backend, Aggregate::InMemory(round))?;
    run.result.cost = CostBreakdown {
        compute: lambda_bill(spec, w, run.busy),
        requests: Cost::ZERO,
        nodes: ps_instance.hourly() * run.elapsed.as_hours(),
    };
    Ok(run.result)
}
