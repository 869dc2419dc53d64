//! §4: evaluation of LambdaML's design space.

use crate::registry::{self, workload};
use crate::tablefmt::{f, table};
use crate::Harness;
use lml_analytic::table4::{WorkloadId, ADMM_LOCAL_SCANS};
use lml_comm::Pattern;
use lml_core::{Backend, ChannelKind, JobConfig, Protocol, TrainingJob};
use lml_data::generators::DatasetId;
use lml_faas::LambdaSpec;
use lml_iaas::{InstanceType, PsModel, RpcKind};
use lml_models::ModelId;
use lml_optim::{Algorithm, LrSchedule, StopSpec};
use lml_sim::ByteSize;
use lml_storage::{CacheNode, ServiceProfile, StorageChannel};

/// Figure 6: the dataset tables (generated-sample and paper-scale columns).
pub(crate) fn fig6_datasets(h: &Harness) -> String {
    let mut rows = Vec::new();
    for id in DatasetId::ALL {
        let g = id.generate_rows(registry::sample_rows(id, h), h.seed);
        let (layout, nnz) = match &g.data {
            lml_data::Dataset::Dense(_) => ("dense", g.data.dim() as f64),
            lml_data::Dataset::Sparse(s) => ("sparse", s.avg_nnz()),
        };
        rows.push(vec![
            g.spec.name.to_string(),
            format!("{}", g.spec.paper_bytes),
            g.spec.paper_instances.to_string(),
            g.spec.features.to_string(),
            layout.to_string(),
            g.data.len().to_string(),
            f(nnz),
        ]);
    }
    table(
        "Figure 6: datasets (paper scale + generated sample)",
        &[
            "dataset",
            "size",
            "#ins(paper)",
            "#feat",
            "layout",
            "#ins(sample)",
            "avg nnz",
        ],
        &rows,
    )
}

/// Figure 7: GA-SGD vs MA-SGD vs ADMM.
pub(crate) fn fig7_optimizers(h: &Harness) -> String {
    let mut out = String::new();
    let big_w = if h.fast { 60 } else { 300 };

    for wid in [WorkloadId::LrHiggs, WorkloadId::SvmHiggs] {
        let wl = workload(DatasetId::Higgs, h);
        let batch = wl.spec.scaled_batch(wid.paper_batch());
        let algos = [
            (
                "ADMM",
                Algorithm::Admm {
                    rho: 0.1,
                    local_scans: ADMM_LOCAL_SCANS,
                    batch,
                },
            ),
            (
                "MA-SGD",
                Algorithm::MaSgd {
                    batch,
                    local_iters: (wl.train.len() / 10 / batch).max(1),
                },
            ),
            ("GA-SGD", Algorithm::GaSgd { batch }),
        ];
        let mut rows = Vec::new();
        let mut small_times = Vec::new();
        for (name, algo) in algos {
            let mut per_w = Vec::new();
            for w in [10usize, big_w] {
                let cfg = JobConfig::new(
                    w,
                    algo,
                    wid.lr(),
                    StopSpec::new(wid.threshold(), registry::max_epochs(wid, h)),
                )
                .with_backend(Backend::Faas {
                    spec: LambdaSpec::gb3(),
                    channel: ChannelKind::Memcached(CacheNode::T3Medium),
                    pattern: Pattern::AllReduce,
                    protocol: Protocol::Sync,
                })
                .with_seed(h.seed);
                let r = TrainingJob::new(&wl, wid.model(), cfg)
                    .run()
                    .expect("job runs");
                per_w.push(r);
            }
            let t10 = per_w[0].breakdown.total_without_startup().as_secs();
            let tbig = per_w[1].breakdown.total_without_startup().as_secs();
            small_times.push(t10);
            rows.push(vec![
                name.to_string(),
                format!("{:.1}s", t10),
                per_w[0].rounds.to_string(),
                format!("{:.3}", per_w[0].final_loss),
                format!("{:.1}s", tbig),
                per_w[1].rounds.to_string(),
                format!("{:.2}x", t10 / tbig),
            ]);
        }
        out.push_str(&table(
            &format!(
                "Figure 7: {} (Memcached channel; speedup = t(10w)/t({big_w}w))",
                wid.name()
            ),
            &[
                "algorithm",
                "t(10w)",
                "rounds",
                "loss",
                &format!("t({big_w}w)"),
                "rounds'",
                "speedup",
            ],
            &rows,
        ));
    }

    // MobileNet: ADMM inapplicable; MA-SGD converges unstably (Figure 7c).
    {
        let wid = WorkloadId::MnCifar;
        let wl = workload(DatasetId::Cifar10, h);
        let batch = wl.spec.scaled_batch(wid.paper_batch());
        let max_ep = if h.fast { 5 } else { 12 };
        let mut rows = Vec::new();
        for (name, algo) in [
            ("GA-SGD", Algorithm::GaSgd { batch }),
            (
                "MA-SGD",
                Algorithm::MaSgd {
                    batch,
                    local_iters: (wl.train.len() / 10 / batch).max(1),
                },
            ),
        ] {
            let cfg = JobConfig::new(10, algo, wid.lr(), StopSpec::new(wid.threshold(), max_ep))
                .with_seed(h.seed);
            let r = TrainingJob::new(&wl, wid.model(), cfg)
                .run()
                .expect("job runs");
            rows.push(vec![
                name.to_string(),
                format!("{:.1}s", r.breakdown.total_without_startup().as_secs()),
                r.rounds.to_string(),
                format!("{:.3}", r.final_loss),
                format!("{:.4}", r.curve.tail_oscillation(8)),
            ]);
        }
        out.push_str(&table(
            "Figure 7c: MobileNet/Cifar10 (ADMM not applicable to non-convex models)",
            &[
                "algorithm",
                "time",
                "rounds",
                "final loss",
                "tail oscillation",
            ],
            &rows,
        ));
    }
    out
}

/// Table 1: communication channels vs S3 (cost ratio and slowdown).
pub(crate) fn table1_channels(h: &Harness) -> String {
    // Fixed-epoch budgets so channel ratios compare identical work.
    struct Case {
        label: &'static str,
        wid: WorkloadId,
        workers: usize,
        k_override: Option<usize>,
        epochs: usize,
    }
    let cases = [
        Case {
            label: "LR,Higgs,W=10",
            wid: WorkloadId::LrHiggs,
            workers: 10,
            k_override: None,
            epochs: 10,
        },
        Case {
            label: "LR,Higgs,W=50",
            wid: WorkloadId::LrHiggs,
            workers: 50,
            k_override: None,
            epochs: 10,
        },
        Case {
            label: "KMeans,Higgs,W=50,k=10",
            wid: WorkloadId::KmHiggs,
            workers: 50,
            k_override: Some(10),
            epochs: 10,
        },
        Case {
            label: "KMeans,Higgs,W=50,k=1K",
            wid: WorkloadId::KmHiggs,
            workers: 50,
            k_override: Some(1_000),
            epochs: 10,
        },
        Case {
            label: "MobileNet,Cifar10,W=10",
            wid: WorkloadId::MnCifar,
            workers: 10,
            k_override: None,
            epochs: if h.fast { 2 } else { 5 },
        },
        Case {
            label: "MobileNet,Cifar10,W=50",
            wid: WorkloadId::MnCifar,
            workers: 50,
            k_override: None,
            epochs: if h.fast { 2 } else { 5 },
        },
    ];

    let channels: [(&str, Option<ChannelKind>); 4] = [
        ("S3", Some(ChannelKind::S3)),
        (
            "Memcached",
            Some(ChannelKind::Memcached(CacheNode::T3Medium)),
        ),
        ("DynamoDB", Some(ChannelKind::DynamoDb)),
        ("VM-PS", None), // hybrid backend
    ];

    let mut rows = Vec::new();
    for case in &cases {
        let wl = workload(case.wid.dataset(), h);
        let model = match case.k_override {
            Some(k) => ModelId::KMeans { k },
            None => case.wid.model(),
        };
        let algo = match model {
            ModelId::KMeans { .. } => Algorithm::Em,
            _ => registry::best_algorithm(case.wid, &wl),
        };
        let base = JobConfig::new(
            case.workers,
            algo,
            case.wid.lr(),
            StopSpec::new(0.0, case.epochs),
        )
        .with_seed(h.seed);

        let mut cells = vec![case.label.to_string()];
        let mut s3_time = 0.0;
        let mut s3_cost = 0.0;
        for (name, kind) in &channels {
            let backend = match kind {
                Some(k) => Backend::Faas {
                    spec: LambdaSpec::gb3(),
                    channel: *k,
                    pattern: Pattern::AllReduce,
                    protocol: Protocol::Sync,
                },
                None => Backend::hybrid_default(),
            };
            let r = TrainingJob::new(&wl, model, base.with_backend(backend)).run();
            match r {
                Ok(r) => {
                    let t = r.runtime().as_secs();
                    let c = r.dollars().as_usd();
                    if *name == "S3" {
                        s3_time = t;
                        s3_cost = c;
                        cells.push(format!("{t:.1}s/{c:.3}$"));
                    } else {
                        cells.push(format!("{:.2}/{:.2}", c / s3_cost, t / s3_time));
                    }
                }
                Err(_) => cells.push("N/A".into()),
            }
        }
        rows.push(cells);
    }
    table(
        "Table 1: channels vs S3 (cells: cost-ratio/slowdown; >1 ⇒ S3 cheaper/faster; N/A = item cap)",
        &["workload", "S3 (abs)", "Memcached", "DynamoDB", "VM-PS"],
        &rows,
    )
}

/// Table 2: Lambda ↔ VM parameter-server RPC measurements (75 MB payload).
pub(crate) fn table2_hybrid_rpc(_h: &Harness) -> String {
    let m75 = ByteSize::mb(75.0);
    let mut rows = Vec::new();
    for (n, vcpus, lam) in [
        (1usize, 1.8, "Lambda-3GB"),
        (1, 0.6, "Lambda-1GB"),
        (10, 1.8, "Lambda-3GB"),
        (10, 0.6, "Lambda-1GB"),
    ] {
        for ec2 in [InstanceType::T2XLarge2, InstanceType::C5XLarge4] {
            let grpc = PsModel::new(RpcKind::Grpc, ec2, vcpus);
            let thrift = PsModel::new(RpcKind::Thrift, ec2, vcpus);
            rows.push(vec![
                format!("{n}x{lam} ({vcpus}vCPU)"),
                ec2.name().to_string(),
                format!(
                    "{:.2}s / {:.1}s",
                    grpc.transfer_time(n, m75).as_secs(),
                    thrift.transfer_time(n, m75).as_secs()
                ),
                format!(
                    "{:.1}s / {:.1}s",
                    grpc.update_time(n, m75).as_secs(),
                    thrift.update_time(n, m75).as_secs()
                ),
            ]);
        }
    }
    table(
        "Table 2: Lambda↔VM-PS, 75 MB (cells: gRPC / Thrift)",
        &["lambda", "EC2 type", "data transmission", "model update"],
        &rows,
    )
}

/// Table 3: AllReduce vs ScatterReduce over S3.
pub(crate) fn table3_patterns(_h: &Harness) -> String {
    let cases = [
        ("LR,Higgs,W=50", 50usize, 28usize, ByteSize::bytes(224)),
        ("MobileNet,Cifar10,W=10", 10, 1_000, ByteSize::mb(12.0)),
        ("ResNet,Cifar10,W=10", 10, 1_000, ByteSize::mb(89.0)),
    ];
    let mut rows = Vec::new();
    for (label, w, len, wire) in cases {
        let stats: Vec<Vec<f64>> = (0..w).map(|i| vec![i as f64; len]).collect();
        let mut times = Vec::new();
        for pattern in [Pattern::AllReduce, Pattern::ScatterReduce] {
            let mut ch = StorageChannel::new(ServiceProfile::s3());
            let o = lml_comm::patterns::reduce(&mut ch, pattern, "t3", &stats, wire)
                .expect("S3 admits any size");
            times.push(o.duration.as_secs());
        }
        rows.push(vec![
            label.to_string(),
            format!("{wire}"),
            format!("{:.1}s", times[0]),
            format!("{:.1}s", times[1]),
        ]);
    }
    table(
        "Table 3: communication patterns on S3",
        &[
            "model & dataset",
            "model size",
            "AllReduce",
            "ScatterReduce",
        ],
        &rows,
    )
}

/// Figure 8: Synchronous vs Asynchronous convergence.
pub(crate) fn fig8_sync_async(h: &Harness) -> String {
    let cases: Vec<(WorkloadId, usize, usize)> = vec![
        (WorkloadId::LrHiggs, 10, if h.fast { 10 } else { 30 }),
        (WorkloadId::LrRcv1, 5, if h.fast { 10 } else { 30 }),
        (WorkloadId::MnCifar, 10, if h.fast { 4 } else { 10 }),
    ];
    let mut rows = Vec::new();
    for (wid, w, max_ep) in cases {
        let wl = workload(wid.dataset(), h);
        let algo = registry::ga_sgd(wid, &wl);
        for (proto, schedule) in [
            (Protocol::Sync, LrSchedule::Const(wid.lr())),
            // §4.5: 1/√T decay for S-ASP, after [104].
            (Protocol::Async, LrSchedule::InvSqrt { base: wid.lr() }),
        ] {
            let cfg = JobConfig::new(w, algo, wid.lr(), StopSpec::new(0.0, max_ep))
                .with_schedule(schedule)
                .with_backend(Backend::Faas {
                    spec: LambdaSpec::gb3(),
                    channel: ChannelKind::S3,
                    pattern: Pattern::AllReduce,
                    protocol: proto,
                })
                .with_seed(h.seed);
            let r = TrainingJob::new(&wl, wid.model(), cfg)
                .run()
                .expect("job runs");
            rows.push(vec![
                format!("{} W={w}", wid.name()),
                if proto == Protocol::Sync {
                    "BSP".into()
                } else {
                    "S-ASP".into()
                },
                format!("{:.1}s", r.breakdown.total_without_startup().as_secs()),
                format!("{:.4}", r.final_loss),
                format!("{:.4}", r.curve.best_loss()),
                format!("{:.4}", r.curve.tail_oscillation(10)),
            ]);
        }
    }
    table(
        "Figure 8: synchronous vs asynchronous (S-ASP is faster per epoch but oscillates)",
        &[
            "workload",
            "protocol",
            "time",
            "final loss",
            "best loss",
            "oscillation",
        ],
        &rows,
    )
}
