//! Ablations of three design choices: the BSP polling interval, ADMM's
//! local scans per round, and the 15-minute Lambda lifetime mechanism.

use crate::registry::workload;
use crate::tablefmt::table;
use crate::Harness;
use lml_analytic::table4::WorkloadId;
use lml_comm::{Bsp, Pattern};
use lml_core::{JobConfig, TrainingJob};
use lml_faas::LifetimeManager;
use lml_optim::{Algorithm, StopSpec};
use lml_sim::{ByteSize, SimTime};
use lml_storage::{ServiceProfile, StorageChannel};

/// Run every ablation and concatenate the reports.
pub(crate) fn run_all(h: &Harness) -> String {
    polling_interval() + &admm_local_scans(h) + &lifetime_overhead()
}

/// Sweep the BSP polling interval: detection delay vs request volume.
fn polling_interval() -> String {
    let stats: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64; 28]).collect();
    let mut rows = Vec::new();
    for ms in [0.0, 10.0, 100.0, 500.0, 2_000.0] {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let bsp = Bsp::new(Pattern::AllReduce).with_poll_interval(SimTime::millis(ms));
        let o = bsp
            .run_round(&mut ch, 0, 0, &stats, ByteSize::bytes(224))
            .expect("round");
        rows.push(vec![
            format!("{ms}ms"),
            format!("{:.2}s", o.duration.as_secs()),
        ]);
    }
    table(
        "Ablation: BSP polling interval (LR/Higgs round, W=10, S3)",
        &["poll interval", "round time"],
        &rows,
    )
}

/// Sweep ADMM's local scans per round: communication rounds vs convergence.
fn admm_local_scans(h: &Harness) -> String {
    let wid = WorkloadId::LrHiggs;
    let wl = workload(wid.dataset(), h);
    let batch = wl.spec.scaled_batch(wid.paper_batch());
    let mut rows = Vec::new();
    for scans in [1usize, 2, 5, 10, 20] {
        let algo = Algorithm::Admm {
            rho: 0.1,
            local_scans: scans,
            batch,
        };
        let cfg =
            JobConfig::new(10, algo, 0.1, StopSpec::new(wid.threshold(), 40)).with_seed(h.seed);
        let r = TrainingJob::new(&wl, wid.model(), cfg)
            .run()
            .expect("admm runs");
        rows.push(vec![
            scans.to_string(),
            r.rounds.to_string(),
            format!("{:.1}", r.epochs),
            format!("{:.1}s", r.runtime().as_secs()),
            format!("{:.4}", r.final_loss),
        ]);
    }
    table(
        "Ablation: ADMM local scans per round (paper fixes 10)",
        &["scans", "comm rounds", "epochs", "time", "final loss"],
        &rows,
    )
}

/// Quantify the 15-minute lifetime mechanism's overhead on long jobs.
fn lifetime_overhead() -> String {
    let mut rows = Vec::new();
    for (label, total_work_s, rollover_s) in [
        ("short job (5 min)", 300.0, 15.0),
        ("one lifetime (14 min)", 840.0, 15.0),
        ("hour-long job", 3_600.0, 15.0),
        ("hour-long, heavy checkpoint", 3_600.0, 60.0),
    ] {
        let mut lm = LifetimeManager::with_overhead(SimTime::secs(rollover_s));
        let mut wall = SimTime::ZERO;
        let rounds = (total_work_s / 10.0) as usize;
        for _ in 0..rounds {
            wall += lm.charge(SimTime::secs(10.0));
        }
        let overhead = wall.as_secs() - total_work_s;
        rows.push(vec![
            label.to_string(),
            lm.reinvocations().to_string(),
            format!("{overhead:.1}s"),
            format!("{:.2}%", overhead / total_work_s * 100.0),
        ]);
    }
    table(
        "Ablation: 15-minute lifetime mechanism (10 s rounds)",
        &["job", "re-invocations", "overhead", "relative"],
        &rows,
    )
}
