//! The compute-time model.
//!
//! Converts "this worker processed `n` paper-scale examples" into virtual
//! seconds. Throughput constants are calibrated against the paper's own
//! measurements rather than hardware peaks, because the paper's engine is
//! Python/PyTorch:
//!
//! * **Linear models and k-means** are interpreter-overhead-bound.
//!   Figure 10 measures 80 s of compute for 10 epochs of LR on Higgs with
//!   10 workers (≈ 990 K examples × 112 FLOPs per epoch per worker) —
//!   an effective ~1.5×10⁷ FLOP/s per 2-vCPU worker.
//! * **Deep models** run BLAS kernels. Table 5 implies a MobileNet epoch of
//!   ~170 s on 10 Lambda workers (5.4 K images × 1.7 GFLOP each), i.e.
//!   ~5.4×10¹⁰ FLOP/s per 3 GB Lambda, scaling mildly with vCPUs across
//!   instance types, and GPUs reach the multi-hundred-GFLOP/s effective
//!   range that makes Figure 12's "T4 8× faster than the best FaaS" hold.

use lml_data::Dataset;
use lml_iaas::GpuKind;
use lml_models::AnyModel;
use lml_sim::SimTime;

/// Effective FLOP/s of the linear-model/k-means engine per vCPU
/// (Python-overhead-bound; Figure 10 calibration).
pub const LINEAR_FLOPS_PER_VCPU: f64 = 8.0e6;

/// Reference effective FLOP/s of the deep-model engine on one 3 GB Lambda
/// (1.8 vCPU) — Table 5 / Figure 9 calibration.
pub const NN_FLOPS_LAMBDA: f64 = 5.4e10;

/// Sub-linear vCPU scaling exponent of the deep-model engine across
/// instance sizes (BLAS scales, input pipelines don't).
const NN_VCPU_EXPONENT: f64 = 0.3;

/// Average stored features per example (drives linear-model FLOPs).
pub fn avg_nnz(data: &Dataset) -> f64 {
    match data {
        Dataset::Dense(d) => d.dim() as f64,
        Dataset::Sparse(s) => s.avg_nnz(),
    }
}

/// Effective engine throughput in FLOP/s for `model` on a worker with
/// `vcpus` (fractional for Lambda) and optionally a GPU.
fn engine_throughput(model: &AnyModel, vcpus: f64, gpu: Option<GpuKind>) -> f64 {
    assert!(vcpus > 0.0);
    match model {
        AnyModel::Mlp { .. } => match gpu {
            Some(g) => g.effective_flops(),
            None => NN_FLOPS_LAMBDA * (vcpus / 1.8).powf(NN_VCPU_EXPONENT),
        },
        _ => LINEAR_FLOPS_PER_VCPU * vcpus,
    }
}

/// Virtual compute time for `examples` paper-scale examples.
///
/// `system_factor` is the serverful system's compute slowdown
/// (`SystemProfile::compute_factor`, 1.56 for Angel).
pub(crate) fn compute_time(
    model: &AnyModel,
    examples_paper: f64,
    nnz: f64,
    vcpus: f64,
    gpu: Option<GpuKind>,
    system_factor: f64,
) -> SimTime {
    let flops = examples_paper * model.flops_per_example(nnz);
    SimTime::secs(flops / engine_throughput(model, vcpus, gpu) * system_factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::generators::DatasetId;
    use lml_models::ModelId;

    #[test]
    fn figure10_lr_higgs_compute_calibration() {
        // 10 epochs of LR on Higgs, 10 workers of t2.medium (2 vCPU):
        // paper measures ~80 s of compute.
        let data = DatasetId::Higgs.generate_rows(100, 1).data;
        let model = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let examples_per_worker_10_epochs = 11_000_000.0 * 0.9 / 10.0 * 10.0;
        let t = compute_time(&model, examples_per_worker_10_epochs, 28.0, 2.0, None, 1.0);
        assert!((50.0..110.0).contains(&t.as_secs()), "compute {t}");
    }

    #[test]
    fn mobilenet_epoch_matches_table5_scale() {
        // One MobileNet epoch on 10 Lambda workers ≈ 170 s.
        let data = DatasetId::Cifar10.generate_rows(100, 1).data;
        let model = ModelId::MobileNet.build(&data, 1);
        let imgs_per_worker = 60_000.0 * 0.9 / 10.0;
        let t = compute_time(&model, imgs_per_worker, 1_024.0, 1.8, None, 1.0);
        assert!((120.0..260.0).contains(&t.as_secs()), "epoch {t}");
    }

    #[test]
    fn gpu_is_roughly_an_order_faster_for_deep_models() {
        let data = DatasetId::Cifar10.generate_rows(100, 1).data;
        let model = ModelId::MobileNet.build(&data, 1);
        let cpu = compute_time(&model, 1e4, 1_024.0, 1.8, None, 1.0);
        let gpu = compute_time(&model, 1e4, 1_024.0, 4.0, Some(GpuKind::T4), 1.0);
        let speedup = cpu.as_secs() / gpu.as_secs();
        assert!((5.0..25.0).contains(&speedup), "GPU speedup {speedup}");
    }

    #[test]
    fn t4_is_about_25pc_faster_than_m60() {
        let data = DatasetId::Cifar10.generate_rows(100, 1).data;
        let model = ModelId::MobileNet.build(&data, 1);
        let m60 = compute_time(&model, 1e4, 1_024.0, 4.0, Some(GpuKind::M60), 1.0);
        let t4 = compute_time(&model, 1e4, 1_024.0, 4.0, Some(GpuKind::T4), 1.0);
        let ratio = m60.as_secs() / t4.as_secs();
        assert!((1.15..1.4).contains(&ratio), "M60/T4 {ratio}");
    }

    #[test]
    fn gpu_does_not_speed_up_linear_models() {
        // The paper only offloads NN training to GPUs.
        let data = DatasetId::Higgs.generate_rows(100, 1).data;
        let model = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let cpu = compute_time(&model, 1e6, 28.0, 4.0, None, 1.0);
        let gpu = compute_time(&model, 1e6, 28.0, 4.0, Some(GpuKind::T4), 1.0);
        assert_eq!(cpu, gpu);
    }

    #[test]
    fn sparse_data_costs_by_nnz() {
        let rcv1 = DatasetId::Rcv1.generate_rows(100, 1).data;
        assert!(avg_nnz(&rcv1) < 200.0, "RCV1 examples are sparse");
        let higgs = DatasetId::Higgs.generate_rows(100, 1).data;
        assert_eq!(avg_nnz(&higgs), 28.0);
    }

    #[test]
    fn angel_factor_slows_compute() {
        let data = DatasetId::Higgs.generate_rows(100, 1).data;
        let model = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let pytorch = compute_time(&model, 1e6, 28.0, 2.0, None, 1.0);
        let angel = compute_time(&model, 1e6, 28.0, 2.0, None, 1.56);
        assert!((angel.as_secs() / pytorch.as_secs() - 1.56).abs() < 1e-9);
    }
}
