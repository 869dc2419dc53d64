//! The one pricing seam, pinned per job class.
//!
//! Every fleet price goes through [`lml_analytic::model::price`]: the class
//! cache (the simulator's ground truth), `Analytic::predict` (the estimate)
//! and `JobClass::nominal_runtime` (the deadline yardstick). One line per
//! class holds what each caller makes of it over that class's share of
//! 1,200 Pcg64 cases. The seam itself, on all four §5.3 cases, is pinned by
//! the analytic crate's own table.

use super::*;
use crate::estimate::{Analytic, Estimator};
use crate::job::JobRequest;
use lml_sim::Pcg64;

/// `nominal=` is `nominal_runtime`'s seconds as hex. `truth=` is an FNV-1a
/// over the class cache's `faas.run`, `faas.dollars`, `epoch_secs` and
/// `epochs_total`; `estimate=` one over all eight `Estimate` fields of a
/// cold and then a memoised `Analytic::predict`, with the class's epochs
/// pinned in about half the cases. A mismatch prints the whole new table
/// to paste over this one.
const GOLDEN: &str = "\
lr-higgs nominal=404bd36ad7df3c5c truth=e5824d545857ee6e estimate=cea9337678c2b901
svm-rcv1 nominal=4032efb8270250b1 truth=16f1eeed801ecfb4 estimate=2d99c6d9df2bdb89
km-higgs nominal=406e96ad9a332d13 truth=3e01568db04cf1f6 estimate=3f79c955ec5057a9
lr-yfcc nominal=4047ffb3c9f22456 truth=296fe7425d634ec9 estimate=42dd71050a003679
mn-cifar nominal=40d3886a56a56a56 truth=1f4e196d5e403aed estimate=74129c7b05b42cbd
rn-cifar nominal=41070cda17a17a18 truth=229290d40ffc86d7 estimate=ea6cf9c4d01f5bf5
";

#[test]
fn truth_estimate_and_yardstick_match_the_golden_table() {
    let fnv = |h: u64, bytes: &[u8]| {
        let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        bytes.iter().fold(h, fold)
    };
    let offset = 0xcbf2_9ce4_8422_2325_u64;
    let mut lines = JobClass::ALL.map(|class| (class, offset, offset));
    let mut rng = Pcg64::new(0x9e1c_e5ea);
    // 1,200 cases, dealt to the six classes in turn.
    for _ in 0..200 {
        for (class, truth, estimate) in &mut lines {
            let (class, w) = (*class, 1 + rng.index(1_000));
            // The two §5.3 cases this stream also drew for the seam itself.
            let _ = (rng.index(4), rng.index(4));
            let cfg = FleetConfig {
                epoch_scale: match rng.index(4) {
                    0 => 0.5,
                    1 => 1.0,
                    2 => 2.0,
                    _ => 3.7,
                },
                ..FleetConfig::default()
            };
            let pinned = rng.coin(0.5).then(|| rng.range(0.5, 50.0));

            let mut sink = SummaryAcc::default();
            let mut obs = NullObserver;
            let mut fleet = Fleet::new(
                &cfg,
                BTreeMap::new(),
                0,
                QueueDiscipline::Fifo,
                None,
                &mut sink,
                &mut obs,
            );
            let c = fleet.class_cache(class, w);
            for v in [c.faas.run.as_secs(), c.faas.dollars.as_usd(), c.epoch_secs] {
                *truth = fnv(*truth, &v.to_bits().to_le_bytes());
            }
            *truth = fnv(*truth, &c.epochs_total.to_le_bytes());

            let mut analytic = Analytic::new();
            if let Some(epochs) = pinned {
                analytic.pin_epochs(class, epochs);
            }
            let job = JobRequest::new(0, class, SimTime::ZERO, w);
            for e in [analytic.predict(&job), analytic.predict(&job)] {
                let fields = [
                    e.t_faas, e.c_faas, e.t_iaas, e.c_iaas, e.m_faas, e.m_iaas, e.s_faas, e.s_iaas,
                ];
                for v in fields {
                    *estimate = fnv(*estimate, &v.to_bits().to_le_bytes());
                }
            }
        }
    }
    let table: String = lines
        .iter()
        .map(|(class, truth, estimate)| {
            format!(
                "{} nominal={:016x} truth={truth:016x} estimate={estimate:016x}\n",
                class.name(),
                class.nominal_runtime().as_secs().to_bits(),
            )
        })
        .collect();
    assert!(
        table == GOLDEN,
        "the fleet's prices moved; new table:\n{table}"
    );
}
