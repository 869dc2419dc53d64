//! §5: the end-to-end FaaS vs IaaS study.

use crate::experiments::{outcome_cells, pytorch};
use crate::registry::{self, Named};
use crate::tablefmt::table;
use crate::Harness;
use lml_analytic::table4::WorkloadId;
use lml_core::pipeline::run_pipeline;
use lml_core::{Backend, JobConfig, RunResult};
use lml_iaas::{InstanceType, SystemProfile};
use lml_models::ModelId;
use lml_optim::{Algorithm, StopSpec};

/// The competing systems of §5.1 for a given workload.
fn systems(wid: WorkloadId) -> Vec<(&'static str, Backend, SystemChoice)> {
    let c5 = pytorch(InstanceType::C5XLarge2);
    let deep = matches!(wid.model(), ModelId::MobileNet | ModelId::ResNet50);
    let mut v = vec![
        ("LambdaML", Backend::faas_default(), SystemChoice::Best),
        ("PyTorch-SGD", c5, SystemChoice::GaSgd),
    ];
    // ADMM applies only to convex models.
    if !deep && !matches!(wid.model(), ModelId::KMeans { .. }) {
        v.push(("PyTorch-ADMM", c5, SystemChoice::Best));
    }
    let angel = Backend::Iaas {
        instance: InstanceType::C5XLarge2,
        system: SystemProfile::Angel,
    };
    v.push(("Angel", angel, SystemChoice::GaSgd));
    v.push(("HybridPS", Backend::hybrid_default(), SystemChoice::GaSgd));
    if deep {
        let gpu = pytorch(InstanceType::G3sXLarge);
        v.push(("PyTorch-GPU", gpu, SystemChoice::GaSgd));
    }
    v
}

enum SystemChoice {
    /// The workload's most suitable algorithm (ADMM/EM/GA-SGD).
    Best,
    /// Plain GA-SGD (EM for k-means, which has no SGD form).
    GaSgd,
}

/// [`registry::build`], with MobileNet capped at 4 epochs in fast mode.
fn build_capped(wid: WorkloadId, h: &Harness) -> Named {
    let mut named = registry::build(wid, h);
    if h.fast && wid == WorkloadId::MnCifar {
        named.config.stop = StopSpec::new(wid.threshold(), 4);
    }
    named
}

/// Run `named` under `cfg`: the row `lead` followed by time, cost and note.
fn point_row(named: &Named, cfg: JobConfig, lead: [String; 2]) -> Vec<String> {
    lead.into_iter()
        .chain(outcome_cells(&named.run(cfg)))
        .collect()
}

/// Figure 9: end-to-end convergence across all twelve workloads.
pub(crate) fn fig9_end_to_end(h: &Harness) -> String {
    let mut out = String::new();
    for wid in WorkloadId::ALL {
        let named = registry::build(wid, h);
        let mut rows = Vec::new();
        for (name, backend, choice) in systems(wid) {
            let algorithm = match choice {
                SystemChoice::Best => named.config.algorithm,
                SystemChoice::GaSgd => match wid.model() {
                    ModelId::KMeans { .. } => Algorithm::Em,
                    _ => registry::ga_sgd(wid, &named.workload),
                },
            };
            let r = named.run(JobConfig {
                algorithm,
                ..named.config.with_backend(backend)
            });
            let [time, cost, note] = outcome_cells(&r);
            let (epochs, rounds) = match &r {
                Ok(r) => (format!("{:.1}", r.epochs), r.rounds.to_string()),
                Err(_) => ("-".into(), "-".into()),
            };
            rows.push(vec![name.to_string(), time, cost, epochs, rounds, note]);
        }
        out.push_str(&table(
            &format!("Figure 9: {} (target loss {})", wid.name(), wid.threshold()),
            &["system", "time", "cost", "epochs", "rounds", "note"],
            &rows,
        ));
    }
    out
}

/// Figure 10: runtime breakdown for LR on Higgs, W = 10, 10 epochs.
pub fn fig10_breakdown(h: &Harness) -> String {
    let named = registry::build(WorkloadId::LrHiggs, h);
    // fixed 10-epoch budget, ADMM (the most suitable algorithm)
    let base = JobConfig {
        stop: StopSpec::new(0.0, 10),
        ..named.config
    };
    let angel = Backend::Iaas {
        instance: InstanceType::T2Medium,
        system: SystemProfile::Angel,
    };
    let systems = [
        ("PyTorch", pytorch(InstanceType::T2Medium)),
        ("Angel", angel),
        ("HybridPS", Backend::hybrid_default()),
        ("LambdaML", Backend::faas_default()),
    ];
    let mut rows = Vec::new();
    for (name, backend) in systems {
        let r = named.run(base.with_backend(backend));
        let b = r.expect("fig10 jobs run").breakdown;
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
    table(
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
    )
}

/// One Figure 11 series: a system label, its backend and its worker counts.
type Series = (&'static str, Backend, &'static [usize]);

/// Figure 11: runtime vs cost as the worker count scales.
pub(crate) fn fig11_workers(h: &Harness) -> String {
    let pick = |fast: &'static [usize], full: &'static [usize]| if h.fast { fast } else { full };
    let faas = Backend::faas_default();
    let [t2, c5, g3s] = [
        InstanceType::T2Medium,
        InstanceType::C5XLarge4,
        InstanceType::G3sXLarge,
    ]
    .map(pytorch);
    let lr_higgs = [
        ("FaaS", faas, pick(&[10, 30, 50], &[10, 30, 50, 100, 150])),
        (
            "IaaS(t2.medium)",
            t2,
            pick(&[1, 5, 10, 30], &[1, 2, 5, 10, 20, 30]),
        ),
        ("IaaS(c5.4xlarge)", c5, &[2, 5, 10]),
    ];
    let mn_cifar = [
        ("FaaS", faas, pick(&[10, 20], &[1, 2, 5, 10, 20, 50])),
        ("IaaS(g3s.xlarge)", g3s, pick(&[10], &[10, 20, 50])),
    ];
    fig11_panel(h, "left", WorkloadId::LrHiggs, &lr_higgs)
        + &fig11_panel(h, "right", WorkloadId::MnCifar, &mn_cifar)
}

/// One Figure 11 panel: `wid` run at every width of every series.
fn fig11_panel(h: &Harness, side: &str, wid: WorkloadId, series: &[Series]) -> String {
    let named = build_capped(wid, h);
    let mut rows = Vec::new();
    for &(label, backend, widths) in series {
        for &workers in widths {
            let cfg = JobConfig {
                workers,
                ..named.config.with_backend(backend)
            };
            rows.push(point_row(&named, cfg, [label.into(), workers.to_string()]));
        }
    }
    table(
        &format!(
            "Figure 11 ({side}): {} — runtime vs cost vs #workers",
            wid.name()
        ),
        &["system", "workers", "time", "cost", "note"],
        &rows,
    )
}

/// Figure 12: the runtime-cost frontier across instance types.
pub(crate) fn fig12_frontier(h: &Harness) -> String {
    let cpu = [
        InstanceType::T2Medium,
        InstanceType::C5Large,
        InstanceType::C5XLarge4,
    ];
    let gpu = [
        InstanceType::C5XLarge2,
        InstanceType::G3sXLarge,
        InstanceType::G4dnXLarge,
    ];
    let panels = [
        (WorkloadId::LrYfcc, cpu),
        (WorkloadId::SvmYfcc, cpu),
        (WorkloadId::KmYfcc, cpu),
        (WorkloadId::MnCifar, gpu),
    ];
    let mut out = String::new();
    for (wid, instances) in panels {
        let named = build_capped(wid, h);
        // The tuned FaaS configuration, then PyTorch on each instance type.
        let iaas = instances.map(|i| ("IaaS", i.name(), pytorch(i)));
        let points = [("FaaS", "-", named.config.backend)]
            .into_iter()
            .chain(iaas);
        let rows: Vec<Vec<String>> = points
            .map(|(kind, instance, backend)| {
                let cfg = named.config.with_backend(backend);
                point_row(&named, cfg, [kind.into(), instance.into()])
            })
            .collect();
        out.push_str(&table(
            &format!("Figure 12: {} — runtime vs cost frontier", wid.name()),
            &["kind", "instance", "time", "cost", "note"],
            &rows,
        ));
    }
    out
}

/// Table 5: the ML pipeline (normalize + grid search).
pub(crate) fn table5_pipeline(h: &Harness) -> String {
    let mut rows = Vec::new();
    for (wid, epochs) in [
        (WorkloadId::LrHiggs, 10usize),
        (WorkloadId::MnCifar, if h.fast { 2 } else { 10 }),
    ] {
        let named = registry::build(wid, h);
        let base = JobConfig {
            stop: StopSpec::new(0.0, epochs),
            ..named.config
        };
        for backend in [Backend::faas_default(), pytorch(InstanceType::T2Medium)] {
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
    table(
        "Table 5: ML pipeline (normalize + grid-search lr in [0.01,0.1])",
        &["workload", "run time", "best accuracy", "cost", "winner"],
        &rows,
    )
}

/// §5.1.1: the COST sanity check — scaled-up must beat one machine.
pub(crate) fn cost_sanity(h: &Harness) -> String {
    let mut rows = Vec::new();
    for wid in [
        WorkloadId::LrHiggs,
        WorkloadId::SvmHiggs,
        WorkloadId::KmHiggs,
        WorkloadId::MnCifar,
    ] {
        let named = build_capped(wid, h);
        let single_cfg = JobConfig {
            workers: 1,
            ..named.config
        }
        .with_backend(Backend::Single {
            instance: InstanceType::T2XLarge2,
        });
        let single = named.run(single_cfg).expect("single-machine baseline runs");
        let faas = named.run(named.config).expect("faas runs");
        let iaas_cfg = named.config.with_backend(pytorch(InstanceType::T2XLarge2));
        let iaas = named.run(iaas_cfg).expect("iaas runs");
        let base = single.breakdown.total_without_startup().as_secs();
        let speedup = |r: &RunResult| {
            let scaled = r.breakdown.total_without_startup().as_secs();
            format!("{:.1}x", base / scaled)
        };
        rows.push(vec![
            wid.name().into(),
            format!("{:.0}s", base),
            speedup(&faas),
            speedup(&iaas),
        ]);
    }
    table(
        "COST sanity check (§5.1.1): speedup of 10 workers over 1 machine (startup excluded)",
        &[
            "workload",
            "single(t2.2xlarge)",
            "FaaS speedup",
            "IaaS speedup",
        ],
        &rows,
    )
}
