//! Backend executors.
//!
//! Each executor runs the same real training loop (produce statistics →
//! aggregate → consume) while charging virtual time and dollars according
//! to its infrastructure:
//!
//! * [`faas`] — LambdaML proper: Lambda fleet + storage channel, BSP or
//!   ASP, with the 15-minute lifetime mechanism.
//! * [`iaas`] — distributed PyTorch / Angel on an EC2 cluster with ring
//!   AllReduce.
//! * [`hybrid`] — Cirrus-style Lambda workers + VM parameter server.
//! * [`single`] — one machine (the COST sanity check).
//! * [`sync_driver`] — the one synchronous job runner the four synchronous
//!   backends share, around `lml_optim::driver`'s loop; S-ASP (in
//!   [`faas`]) is the only other loop.

pub mod faas;
pub mod hybrid;
pub mod iaas;
pub mod single;
pub mod sync_driver;

use crate::job::{JobError, TrainingJob};
use lml_data::DatasetSpec;
use lml_faas::{GbSecondsMeter, LambdaSpec};
use lml_iaas::InstanceType;
use lml_models::AnyModel;
use lml_sim::{ByteSize, Cost, Link, SimTime};

/// The link every backend loads training data over (S3, Table 6).
pub(crate) fn s3_data_link() -> Link {
    Link::mbps(65.0, 0.08)
}

/// Time for one worker to load its partition from S3 (paper-scale bytes;
/// workers load in parallel, each over its own S3 stream).
pub(crate) fn partition_load_time(spec: &DatasetSpec, workers: usize) -> SimTime {
    s3_data_link().transfer_time(spec.partition_bytes(workers))
}

/// Working-set estimate for one worker: the partition, model + gradient +
/// communication buffers, and the mini-batch materialization (activations
/// for deep models — the term that blows ResNet50 past 3 GB at batch 64,
/// §5.2).
fn memory_required(
    model: &AnyModel,
    spec: &DatasetSpec,
    workers: usize,
    paper_batch: f64,
) -> ByteSize {
    let partition = spec.partition_bytes(workers).as_f64();
    let model_mem = model.wire_bytes().as_f64() * 4.0;
    let batch_mem = match model {
        // Backprop activations scale with batch size; the 0.55·wire-bytes
        // per example coefficient puts ResNet50 at ~3.3 GB for batch 64
        // (OOM, §5.2) and ~1.9 GB for batch 32 (fits).
        AnyModel::Mlp { .. } => model.wire_bytes().as_f64() * 0.55 * paper_batch,
        // EM scans the partition in place — no batch materialization.
        AnyModel::KMeans(_) => 0.0,
        _ => spec.bytes_per_instance() * paper_batch,
    };
    ByteSize::bytes((partition + model_mem + batch_mem) as u64)
}

/// Admission for Lambda workers: one worker's working set (at the
/// paper-scale batch of its partition) must fit the function's memory.
pub(crate) fn check_lambda_memory(
    job: &TrainingJob<'_>,
    model: &AnyModel,
    spec: LambdaSpec,
) -> Result<(), JobError> {
    let (w, wl) = (job.config.workers, job.workload);
    let batch = job.config.algorithm.batch_size(wl.train.len().div_ceil(w));
    spec.check_memory(memory_required(
        model,
        &wl.spec,
        w,
        batch as f64 * wl.scale_inv(),
    ))?;
    Ok(())
}

/// Admission for a VM: `required` bytes must fit its memory, with headroom
/// for the engine.
pub(crate) fn check_vm_memory(instance: InstanceType, required: ByteSize) -> Result<(), JobError> {
    if required.as_f64() > instance.memory().as_f64() * 0.8 {
        return Err(JobError::VmOutOfMemory { instance, required });
    }
    Ok(())
}

/// GB-second billing of `workers` functions, each busy for `busy`.
pub(crate) fn lambda_bill(spec: LambdaSpec, workers: usize, busy: SimTime) -> Cost {
    let mut meter = GbSecondsMeter::new();
    for _ in 0..workers {
        meter.charge(spec, busy);
    }
    meter.cost()
}
