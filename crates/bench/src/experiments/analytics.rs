//! §5.3: the analytical model — calibration, validation and what-ifs.

use crate::experiments::pytorch;
use crate::registry::{self, max_epochs, workload};
use crate::tablefmt::{f, table};
use crate::Harness;
use lml_analytic::constants;
use lml_analytic::estimator::estimate_epochs;
use lml_analytic::model::{time, AnalyticCase, AnalyticParams, Scenario, Substrate};
use lml_analytic::table4::WorkloadId;
use lml_core::{Backend, JobConfig, RunResult};
use lml_data::generators::DatasetId;
use lml_iaas::InstanceType;
use lml_optim::StopSpec;
use lml_sim::ByteSize;
use lml_storage::{ServiceProfile, StorageChannel};

/// Table 6: paper constants vs the simulator's own behaviour.
pub(crate) fn table6_constants(_h: &Harness) -> String {
    let mut rows = Vec::new();
    for c in constants::table6() {
        // Measure the matching quantity from the simulator where possible.
        let measured = match (c.symbol, c.config) {
            ("t_F(w)", cfg) => {
                let w: f64 = cfg.trim_start_matches("w=").parse().expect("knot config");
                Some(constants::t_f().eval(w))
            }
            ("t_I(w)", cfg) => {
                let w: f64 = cfg.trim_start_matches("w=").parse().expect("knot config");
                Some(constants::t_i().eval(w))
            }
            ("B_S3", _) => Some(measure_bandwidth(ServiceProfile::s3()) / 1e6),
            ("B_EC", "cache.t3.medium") => Some(
                measure_bandwidth(ServiceProfile::memcached(lml_storage::CacheNode::T3Medium))
                    / 1e6,
            ),
            ("B_EC", "cache.m5.large") => Some(
                measure_bandwidth(ServiceProfile::memcached(lml_storage::CacheNode::M5Large)) / 1e6,
            ),
            ("L_S3", _) => Some(ServiceProfile::s3().latency.as_secs()),
            ("L_EC", _) => Some(
                ServiceProfile::memcached(lml_storage::CacheNode::T3Medium)
                    .latency
                    .as_secs(),
            ),
            _ => None,
        };
        rows.push(vec![
            c.symbol.to_string(),
            c.config.to_string(),
            format!("({} ± {}) {}", f(c.mean), f(c.spread), c.unit),
            measured.map_or("-".into(), |m| format!("{} {}", f(m), c.unit)),
        ]);
    }
    table(
        "Table 6: analytical-model constants (paper vs simulator)",
        &["symbol", "configuration", "paper", "simulator"],
        &rows,
    )
}

/// Two-point bandwidth measurement against a simulated service.
fn measure_bandwidth(profile: ServiceProfile) -> f64 {
    let ch = StorageChannel::new(profile);
    let small = ch.op_time(ByteSize::mb(1.0)).as_secs();
    let large = ch.op_time(ByteSize::mb(101.0)).as_secs();
    100e6 / (large - small)
}

/// Analytic parameters for LR/Higgs trained by ADMM.
fn lr_higgs_params(epochs: f64) -> AnalyticParams {
    AnalyticParams {
        dataset_bytes: DatasetId::Higgs.paper_bytes().as_f64(),
        model_bytes: 224.0,
        epochs,
        rounds_per_epoch: 0.1, // ADMM: one exchange per 10 scans
        compute_per_epoch: 11_000_000.0 * 0.9 * 112.0 / (crate_engine_linear_throughput()),
    }
}

fn crate_engine_linear_throughput() -> f64 {
    // one t2.medium worker: 2 vCPU × calibrated linear-engine rate
    lml_core::engine::LINEAR_FLOPS_PER_VCPU * 2.0
}

/// Figure 13: (a) analytical model vs simulated runtime; (b) the
/// sampling-based epoch estimator.
pub(crate) fn fig13_model(h: &Harness) -> String {
    let mut out = String::new();

    // (a) model vs simulator, LR on Higgs, W = 10, forced epoch budgets.
    {
        let wid = WorkloadId::LrHiggs;
        let named = registry::build(wid, h);
        let epoch_grid: &[usize] = if h.fast {
            &[1, 5, 10, 30]
        } else {
            &[1, 2, 5, 10, 20, 50, 100]
        };
        let mut rows = Vec::new();
        for &e in epoch_grid {
            let cfg = JobConfig {
                stop: StopSpec::new(0.0, e),
                ..named.config
            };
            let sim_faas = named.run(cfg).expect("faas run");
            let iaas_cfg = cfg.with_backend(pytorch(InstanceType::T2Medium));
            let sim_iaas = named.run(iaas_cfg).expect("iaas run");
            let p = lr_higgs_params(e as f64);
            let (faas_s3, iaas_t2) = (AnalyticCase::faas_s3(), AnalyticCase::iaas_t2());
            let pred_f = time(&p, &faas_s3, Substrate::Faas, 10);
            let pred_i = time(&p, &iaas_t2, Substrate::Iaas, 10);
            rows.push(vec![
                e.to_string(),
                format!("{:.0}s", sim_faas.runtime().as_secs()),
                format!("{:.0}s", pred_f.as_secs()),
                format!("{:.0}s", sim_iaas.runtime().as_secs()),
                format!("{:.0}s", pred_i.as_secs()),
            ]);
        }
        out.push_str(&table(
            "Figure 13a: analytical model vs simulated runtime (LR, Higgs, W=10)",
            &[
                "epochs",
                "LambdaML actual",
                "predicted",
                "PyTorch actual",
                "predicted",
            ],
            &rows,
        ));
    }

    // (b) sampling-based epoch estimation on 10% of the data.
    {
        let mut rows = Vec::new();
        for wid in [
            WorkloadId::LrHiggs,
            WorkloadId::SvmHiggs,
            WorkloadId::LrYfcc,
            WorkloadId::SvmYfcc,
        ] {
            let wl = workload(wid.dataset(), h);
            let algo = registry::best_algorithm(wid, &wl);
            // Epochs to the threshold when training on `fraction` of the data.
            let epochs = |fraction| {
                let e = estimate_epochs(
                    wid.dataset(),
                    wid.model(),
                    algo,
                    wid.lr(),
                    wid.threshold(),
                    fraction,
                    max_epochs(wid, h),
                    h.seed,
                );
                format!("{:.2}{}", e.epochs, if e.reached { "" } else { " (cap)" })
            };
            rows.push(vec![wid.name().into(), epochs(0.1), epochs(1.0)]);
        }
        out.push_str(&table(
            "Figure 13b: sampling-based epoch estimator (10% sample vs full data)",
            &["workload", "estimated epochs", "actual epochs"],
            &rows,
        ));
    }
    out
}

/// Convert one simulated run into a closed-form scenario for what-ifs.
fn scenario_of(
    name: &str,
    r: &RunResult,
    workers: usize,
    rate_per_s: f64,
    bills_startup: bool,
) -> Scenario {
    let epochs = r.epochs.max(1e-9);
    Scenario {
        name: name.to_string(),
        workers,
        startup: r.breakdown.startup.as_secs(),
        load: r.breakdown.load.as_secs(),
        epochs,
        rounds_per_epoch: r.rounds as f64 / epochs,
        comm_round: r.breakdown.comm.as_secs() / (r.rounds.max(1) as f64),
        compute_per_epoch: r.breakdown.compute.as_secs() / epochs,
        rate_per_s,
        bills_startup,
    }
}

/// Run the three base systems for a workload and return their scenarios.
fn base_scenarios(h: &Harness, wid: WorkloadId, max_ep: usize) -> Vec<Scenario> {
    let mut named = registry::build(wid, h);
    named.config.stop = StopSpec::new(wid.threshold(), max_ep);
    let w = named.config.workers;
    let lambda_rate =
        w as f64 * lml_faas::lambda::FUNCTION_GB * lml_faas::lambda::PRICE_PER_GB_SECOND;
    let mut v = Vec::new();

    let faas = named.run(named.config).expect("faas");
    v.push(scenario_of("FaaS", &faas, w, lambda_rate, false));

    let iaas_inst = if wid == WorkloadId::MnCifar {
        InstanceType::G3sXLarge
    } else {
        InstanceType::T2Medium
    };
    let iaas_cfg = named.config.with_backend(pytorch(iaas_inst));
    let iaas = named.run(iaas_cfg).expect("iaas");
    v.push(scenario_of(
        &format!("IaaS({})", iaas_inst.name()),
        &iaas,
        w,
        w as f64 * iaas_inst.hourly().as_usd() / 3600.0,
        true,
    ));

    let hybrid_cfg = named.config.with_backend(Backend::hybrid_default());
    let hybrid = named.run(hybrid_cfg).expect("hybrid");
    v.push(scenario_of(
        "HybridPS",
        &hybrid,
        w,
        lambda_rate + InstanceType::C5XLarge4.hourly().as_usd() / 3600.0,
        false,
    ));
    v
}

/// Figure 14: what if FaaS↔IaaS communication reached 10 Gbps (and Lambda
/// offered GPUs at g3s-comparable pricing)?
pub(crate) fn fig14_fast_hybrid(h: &Harness) -> String {
    let mut out = String::new();
    for wid in [WorkloadId::LrYfcc, WorkloadId::MnCifar] {
        let max_ep = if h.fast { 4 } else { max_epochs(wid, h) };
        let mut scenarios = base_scenarios(h, wid, max_ep);
        // 10 Gbps hybrid: the wire share of a PS round is ~60% for big
        // payloads (serialization keeps the rest).
        let hybrid = scenarios.last().expect("three base scenarios").clone();
        scenarios.push(hybrid.with_10gbps(0.6));
        if wid == WorkloadId::MnCifar {
            // GPU-FaaS at g3s pricing: compute shrinks by the calibrated
            // GPU/Lambda throughput ratio; billing at $0.75/h per worker.
            let faas = scenarios[0].clone();
            let gpu_speedup =
                lml_iaas::GpuKind::M60.effective_flops() / lml_core::engine::NN_FLOPS_LAMBDA;
            let mut gpu_faas = Scenario {
                name: "FaaS-GPU@g3s-price".into(),
                compute_per_epoch: faas.compute_per_epoch / gpu_speedup,
                rate_per_s: faas.workers as f64 * 0.75 / 3600.0,
                ..faas
            };
            gpu_faas = gpu_faas.with_10gbps(0.6);
            scenarios.push(gpu_faas);
        }
        let rows: Vec<Vec<String>> = scenarios
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    format!("{:.0}s", s.time().as_secs()),
                    format!("{}", s.cost()),
                ]
            })
            .collect();
        out.push_str(&table(
            &format!("Figure 14: faster FaaS-IaaS communication — {}", wid.name()),
            &["system", "time", "cost"],
            &rows,
        ));
    }
    out
}

/// Figure 15: what if the data is hot (resident in an m5a.12xlarge VM)?
pub(crate) fn fig15_hot_data(h: &Harness) -> String {
    let mut out = String::new();
    for wid in [WorkloadId::LrYfcc, WorkloadId::MnCifar] {
        let max_ep = if h.fast { 4 } else { max_epochs(wid, h) };
        let scenarios = base_scenarios(h, wid, max_ep);
        let wl = workload(wid.dataset(), h);
        let host_nic = InstanceType::M5a12XLarge.vm_link().bandwidth_bps;
        let rows: Vec<Vec<String>> = scenarios
            .iter()
            .map(|s| {
                let partition = wl.spec.partition_bytes(s.workers).as_f64();
                // FaaS and the hybrid's Lambdas read hot data over the
                // 70 MB/s Lambda↔VM path; EC2 readers get the VM network.
                let reader_bw = if s.name.starts_with("IaaS") {
                    InstanceType::T2Medium.vm_link().bandwidth_bps
                } else {
                    lml_iaas::param_server::LAMBDA_TO_VM_BW
                };
                let hot = s.with_hot_data(partition, host_nic, reader_bw);
                vec![
                    hot.name.clone(),
                    format!("{:.0}s", hot.time().as_secs()),
                    format!("{}", hot.cost()),
                    format!("{:.1}s", hot.load),
                ]
            })
            .collect();
        out.push_str(&table(
            &format!("Figure 15: hot data on m5a.12xlarge — {}", wid.name()),
            &["system", "time", "cost", "load"],
            &rows,
        ));
    }
    out
}
