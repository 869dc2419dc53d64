//! The IaaS executor: distributed PyTorch (or Angel) on an EC2 cluster.
//!
//! Communication is Gloo-style ring AllReduce over the VM network
//! (statistics still aggregate bit-exactly — the ring and the storage
//! patterns compute the same sum). Angel jobs inherit the Hadoop-stack
//! start-up, HDFS loading penalty and slower kernels of
//! [`SystemProfile::Angel`]. Billing is instance-hours from cluster launch
//! to convergence — reserved resources bill through start-up and stragglers
//! alike (§2.2).

use crate::executor::sync_driver::{run_backend, SyncBackend};
use crate::executor::{check_vm_memory, partition_load_time};
use crate::job::{JobError, TrainingJob};
use crate::result::{CostBreakdown, RunResult};
use lml_iaas::{ring_allreduce_time, ClusterSpec, InstanceType, SystemProfile};
use lml_models::AnyModel;
use lml_optim::driver::Aggregate;

/// Run an IaaS job (dispatched from [`TrainingJob::run`]).
pub fn run(
    job: &TrainingJob<'_>,
    model: AnyModel,
    instance: InstanceType,
    system: SystemProfile,
) -> Result<RunResult, JobError> {
    let (w, wl) = (job.config.workers, job.workload);
    // Admission: the partition must fit the VM's memory.
    check_vm_memory(instance, wl.spec.partition_bytes(w))?;

    let cluster = ClusterSpec::new(instance, w);
    let backend = SyncBackend {
        system: format!("{}({})", system.name(), instance.name()),
        partitions: w,
        startup: system.startup_time(&cluster),
        load: partition_load_time(&wl.spec, w) * system.load_factor(),
        vcpus: instance.vcpus() as f64,
        // Deep models train on the GPU when the instance has one.
        gpu: instance
            .gpu()
            .filter(|_| matches!(model, AnyModel::Mlp { .. })),
        compute_factor: system.compute_factor(),
        lifetime: None,
    };
    // Angel's PS-based exchange is marginally slower than the ring
    // (Figure 10: 1.1 s vs 0.9 s).
    let comm_factor = match system {
        SystemProfile::PyTorch => 1.0,
        SystemProfile::Angel => 1.2,
    };
    let ring =
        ring_allreduce_time(w, model.statistic_wire_bytes(), instance.vm_link()) * comm_factor;
    let mut run = run_backend(job, &model, backend, Aggregate::InMemory(ring))?;
    run.result.cost = CostBreakdown {
        compute: cluster.cost(run.elapsed),
        ..CostBreakdown::default()
    };
    Ok(run.result)
}
