//! §5: the end-to-end FaaS vs IaaS study.

use crate::experiments::outcome_cells;
use crate::registry::WorkloadId;
use crate::tablefmt::table;
use crate::Harness;
use lml_core::pipeline::run_pipeline;
use lml_core::{Backend, JobConfig, TrainingJob};
use lml_iaas::{InstanceType, SystemProfile};
use lml_models::ModelId;
use lml_optim::{Algorithm, StopSpec};

/// The competing systems of §5.1 for a given workload.
fn systems(wid: WorkloadId) -> Vec<(&'static str, Backend, SystemChoice)> {
    let mut v = vec![
        ("LambdaML", Backend::faas_default(), SystemChoice::Best),
        (
            "PyTorch-SGD",
            Backend::Iaas {
                instance: InstanceType::C5XLarge2,
                system: SystemProfile::PyTorch,
            },
            SystemChoice::GaSgd,
        ),
    ];
    // ADMM applies only to convex models.
    if !matches!(
        wid.model(),
        ModelId::MobileNet | ModelId::ResNet50 | ModelId::KMeans { .. }
    ) {
        v.push((
            "PyTorch-ADMM",
            Backend::Iaas {
                instance: InstanceType::C5XLarge2,
                system: SystemProfile::PyTorch,
            },
            SystemChoice::Best,
        ));
    }
    v.push((
        "Angel",
        Backend::Iaas {
            instance: InstanceType::C5XLarge2,
            system: SystemProfile::Angel,
        },
        SystemChoice::GaSgd,
    ));
    v.push(("HybridPS", Backend::hybrid_default(), SystemChoice::GaSgd));
    if matches!(wid.model(), ModelId::MobileNet | ModelId::ResNet50) {
        v.push((
            "PyTorch-GPU",
            Backend::Iaas {
                instance: InstanceType::G3sXLarge,
                system: SystemProfile::PyTorch,
            },
            SystemChoice::GaSgd,
        ));
    }
    v
}

enum SystemChoice {
    /// The workload's most suitable algorithm (ADMM/EM/GA-SGD).
    Best,
    /// Plain GA-SGD (EM for k-means, which has no SGD form).
    GaSgd,
}

/// Figure 9: end-to-end convergence across all twelve workloads.
pub fn fig9_end_to_end(h: &Harness) -> String {
    let mut out = String::new();
    for wid in WorkloadId::ALL {
        let named = wid.build(h);
        let mut rows = Vec::new();
        for (name, backend, choice) in systems(wid) {
            let algo = match choice {
                SystemChoice::Best => named.config.algorithm,
                SystemChoice::GaSgd => match wid.model() {
                    ModelId::KMeans { .. } => Algorithm::Em,
                    _ => wid.ga_sgd(&named.workload),
                },
            };
            let cfg = JobConfig {
                algorithm: algo,
                ..named.config
            }
            .with_backend(backend);
            let r = TrainingJob::new(&named.workload, named.model, cfg).run();
            let cells = outcome_cells(&r);
            let (epochs, rounds) = match &r {
                Ok(r) => (format!("{:.1}", r.epochs), r.rounds.to_string()),
                Err(_) => ("-".into(), "-".into()),
            };
            rows.push(vec![
                name.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                epochs,
                rounds,
                cells[2].clone(),
            ]);
        }
        out.push_str(&table(
            &format!("Figure 9: {} (target loss {})", wid.name(), wid.threshold()),
            &["system", "time", "cost", "epochs", "rounds", "note"],
            &rows,
        ));
    }
    println!("{out}");
    out
}

/// Figure 10: runtime breakdown for LR on Higgs, W = 10, 10 epochs.
pub fn fig10_breakdown(h: &Harness) -> String {
    let wid = WorkloadId::LrHiggs;
    let named = wid.build(h);
    // fixed 10-epoch budget, ADMM (the most suitable algorithm)
    let base = JobConfig {
        stop: StopSpec::new(0.0, 10),
        ..named.config
    };
    let systems: Vec<(&str, Backend)> = vec![
        (
            "PyTorch",
            Backend::Iaas {
                instance: InstanceType::T2Medium,
                system: SystemProfile::PyTorch,
            },
        ),
        (
            "Angel",
            Backend::Iaas {
                instance: InstanceType::T2Medium,
                system: SystemProfile::Angel,
            },
        ),
        ("HybridPS", Backend::hybrid_default()),
        ("LambdaML", Backend::faas_default()),
    ];
    let mut rows = Vec::new();
    for (name, backend) in systems {
        let r = TrainingJob::new(&named.workload, named.model, base.with_backend(backend))
            .run()
            .expect("fig10 jobs run");
        let b = r.breakdown;
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", b.startup.as_secs()),
            format!("{:.1}", b.load.as_secs()),
            format!("{:.1}", b.compute.as_secs()),
            format!("{:.2}", b.comm.as_secs()),
            format!("{:.1}", b.total().as_secs()),
            format!("{:.1}", b.total_without_startup().as_secs()),
        ]);
    }
    let out = table(
        "Figure 10: time breakdown (LR, Higgs, W=10, 10 epochs; seconds)",
        &[
            "system",
            "startup",
            "load",
            "compute",
            "comm",
            "total",
            "w/o startup",
        ],
        &rows,
    );
    println!("{out}");
    out
}

/// Figure 11: runtime vs cost as the worker count scales.
pub fn fig11_workers(h: &Harness) -> String {
    let mut out = String::new();

    // LR / Higgs
    {
        let wid = WorkloadId::LrHiggs;
        let named = wid.build(h);
        let faas_ws: &[usize] = if h.fast {
            &[10, 30, 50]
        } else {
            &[10, 30, 50, 100, 150]
        };
        let t2_ws: &[usize] = if h.fast {
            &[1, 5, 10, 30]
        } else {
            &[1, 2, 5, 10, 20, 30]
        };
        let c5_ws: &[usize] = &[2, 5, 10];
        let mut rows = Vec::new();
        let push = |label: &str, backend: Backend, w: usize, rows: &mut Vec<Vec<String>>| {
            let mut cfg = named.config.with_backend(backend);
            cfg.workers = w;
            let r = TrainingJob::new(&named.workload, named.model, cfg).run();
            let cells = outcome_cells(&r);
            rows.push(vec![
                label.to_string(),
                w.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        };
        for &w in faas_ws {
            push("FaaS", Backend::faas_default(), w, &mut rows);
        }
        for &w in t2_ws {
            push(
                "IaaS(t2.medium)",
                Backend::Iaas {
                    instance: InstanceType::T2Medium,
                    system: SystemProfile::PyTorch,
                },
                w,
                &mut rows,
            );
        }
        for &w in c5_ws {
            push(
                "IaaS(c5.4xlarge)",
                Backend::Iaas {
                    instance: InstanceType::C5XLarge4,
                    system: SystemProfile::PyTorch,
                },
                w,
                &mut rows,
            );
        }
        out.push_str(&table(
            "Figure 11 (left): LR/Higgs — runtime vs cost vs #workers",
            &["system", "workers", "time", "cost", "note"],
            &rows,
        ));
    }

    // MobileNet / Cifar10
    {
        let wid = WorkloadId::MnCifar;
        let mut named = wid.build(h);
        if h.fast {
            named.config.stop = StopSpec::new(wid.threshold(), 4);
        }
        let faas_ws: &[usize] = if h.fast {
            &[10, 20]
        } else {
            &[1, 2, 5, 10, 20, 50]
        };
        let gpu_ws: &[usize] = if h.fast { &[10] } else { &[10, 20, 50] };
        let mut rows = Vec::new();
        for &w in faas_ws {
            let mut cfg = named.config;
            cfg.workers = w;
            let r = TrainingJob::new(&named.workload, named.model, cfg).run();
            let cells = outcome_cells(&r);
            rows.push(vec![
                "FaaS".into(),
                w.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
        for &w in gpu_ws {
            let mut cfg = named.config.with_backend(Backend::Iaas {
                instance: InstanceType::G3sXLarge,
                system: SystemProfile::PyTorch,
            });
            cfg.workers = w;
            let r = TrainingJob::new(&named.workload, named.model, cfg).run();
            let cells = outcome_cells(&r);
            rows.push(vec![
                "IaaS(g3s.xlarge)".into(),
                w.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
        out.push_str(&table(
            "Figure 11 (right): MobileNet/Cifar10 — runtime vs cost vs #workers",
            &["system", "workers", "time", "cost", "note"],
            &rows,
        ));
    }
    println!("{out}");
    out
}

/// Figure 12: the runtime-cost frontier across instance types.
pub fn fig12_frontier(h: &Harness) -> String {
    let mut out = String::new();
    let panels: Vec<WorkloadId> = vec![
        WorkloadId::LrYfcc,
        WorkloadId::SvmYfcc,
        WorkloadId::KmYfcc,
        WorkloadId::MnCifar,
    ];
    for wid in panels {
        let mut named = wid.build(h);
        if h.fast && wid == WorkloadId::MnCifar {
            named.config.stop = StopSpec::new(wid.threshold(), 4);
        }
        let mut rows = Vec::new();
        // FaaS point (tuned configuration)
        {
            let r = TrainingJob::new(&named.workload, named.model, named.config).run();
            let cells = outcome_cells(&r);
            rows.push(vec![
                "FaaS".into(),
                "-".into(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
        // IaaS points across instance types
        let instances: Vec<InstanceType> = if wid == WorkloadId::MnCifar {
            vec![
                InstanceType::C5XLarge2,
                InstanceType::G3sXLarge,
                InstanceType::G4dnXLarge,
            ]
        } else {
            vec![
                InstanceType::T2Medium,
                InstanceType::C5Large,
                InstanceType::C5XLarge4,
            ]
        };
        for inst in instances {
            let cfg = named.config.with_backend(Backend::Iaas {
                instance: inst,
                system: SystemProfile::PyTorch,
            });
            let r = TrainingJob::new(&named.workload, named.model, cfg).run();
            let cells = outcome_cells(&r);
            rows.push(vec![
                "IaaS".into(),
                inst.name().into(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
        out.push_str(&table(
            &format!("Figure 12: {} — runtime vs cost frontier", wid.name()),
            &["kind", "instance", "time", "cost", "note"],
            &rows,
        ));
    }
    println!("{out}");
    out
}

/// Table 5: the ML pipeline (normalize + grid search).
pub fn table5_pipeline(h: &Harness) -> String {
    let mut rows = Vec::new();
    for (wid, epochs) in [
        (WorkloadId::LrHiggs, 10usize),
        (WorkloadId::MnCifar, if h.fast { 2 } else { 10 }),
    ] {
        let named = wid.build(h);
        let base = JobConfig {
            stop: StopSpec::new(0.0, epochs),
            ..named.config
        };
        for backend in [
            Backend::faas_default(),
            Backend::Iaas {
                instance: InstanceType::T2Medium,
                system: SystemProfile::PyTorch,
            },
        ] {
            // MobileNet partitions don't fit t2.medium-style memory issues
            // here; the paper used ten t2.medium workers for both.
            let cfg = base.with_backend(backend);
            match run_pipeline(&named.workload, named.model, cfg) {
                Ok(p) => rows.push(vec![
                    format!("{} ({},W=10)", p.system, wid.name()),
                    format!("{:.0}s", p.runtime.as_secs()),
                    format!("{:.2}%", p.best_accuracy * 100.0),
                    format!("{}", p.cost),
                    format!("lr*={:.2}", p.best_lr),
                ]),
                Err(e) => rows.push(vec![
                    wid.name().into(),
                    "N/A".into(),
                    "-".into(),
                    "-".into(),
                    e.to_string(),
                ]),
            }
        }
    }
    let out = table(
        "Table 5: ML pipeline (normalize + grid-search lr in [0.01,0.1])",
        &["workload", "run time", "best accuracy", "cost", "winner"],
        &rows,
    );
    println!("{out}");
    out
}

/// §5.1.1: the COST sanity check — scaled-up must beat one machine.
pub fn cost_sanity(h: &Harness) -> String {
    let mut rows = Vec::new();
    let cases: Vec<WorkloadId> = vec![
        WorkloadId::LrHiggs,
        WorkloadId::SvmHiggs,
        WorkloadId::KmHiggs,
        WorkloadId::MnCifar,
    ];
    for wid in cases {
        let mut named = wid.build(h);
        if h.fast && wid == WorkloadId::MnCifar {
            named.config.stop = StopSpec::new(wid.threshold(), 4);
        }
        let single_cfg = JobConfig {
            workers: 1,
            ..named.config
        }
        .with_backend(Backend::Single {
            instance: InstanceType::T2XLarge2,
        });
        let single = TrainingJob::new(&named.workload, named.model, single_cfg)
            .run()
            .expect("single-machine baseline runs");
        let faas = TrainingJob::new(&named.workload, named.model, named.config)
            .run()
            .expect("faas runs");
        let iaas_cfg = named.config.with_backend(Backend::Iaas {
            instance: InstanceType::T2XLarge2,
            system: SystemProfile::PyTorch,
        });
        let iaas = TrainingJob::new(&named.workload, named.model, iaas_cfg)
            .run()
            .expect("iaas runs");
        let base = single.breakdown.total_without_startup().as_secs();
        rows.push(vec![
            wid.name().into(),
            format!("{:.0}s", base),
            format!(
                "{:.1}x",
                base / faas.breakdown.total_without_startup().as_secs()
            ),
            format!(
                "{:.1}x",
                base / iaas.breakdown.total_without_startup().as_secs()
            ),
        ]);
    }
    let out = table(
        "COST sanity check (§5.1.1): speedup of 10 workers over 1 machine (startup excluded)",
        &[
            "workload",
            "single(t2.2xlarge)",
            "FaaS speedup",
            "IaaS speedup",
        ],
        &rows,
    );
    println!("{out}");
    out
}
