//! # lml-bench — the experiment harness
//!
//! One module per paper section, each experiment a `fn(&Harness) ->
//! String` that regenerates the artifact's rows/series, prints them, and
//! returns the printed report. [`EXPERIMENTS`] is the one registry (and
//! index) of them; the `lml-bench` binary is a thin CLI over
//! [`select`]: `lml-bench <experiment|all> [--seed N] [--full]`.
//!
//! The harness defaults to **fast mode** (reduced samples/worker counts) so
//! the whole suite finishes in minutes; pass `--full` for the paper-scale
//! worker counts.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod registry;
pub mod tablefmt;

use experiments::{ablations, analytics, design, endtoend, fleet};
use std::path::PathBuf;

/// Global experiment settings. The binary fills them from the command line
/// and `LML_FLEET_OUT`; nothing below it reads either.
#[derive(Debug, Clone)]
pub struct Harness {
    pub seed: u64,
    pub fast: bool,
    /// Root of the fleet sweeps' per-cell JSON: each sweep writes
    /// `<out_root>/<sweep name>/` (CLI: `LML_FLEET_OUT`).
    pub out_root: PathBuf,
    /// Worker threads for sweep fan-out (CLI: every core); never changes a
    /// byte of output (`tests/fleet_artifacts.rs` pins them at 1, 2 and 8).
    pub workers: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            seed: 42,
            fast: true,
            out_root: PathBuf::from("target"),
            workers: lml_sim::par::available_threads(),
        }
    }
}

/// A registry entry: experiment name + its runner.
pub type Experiment = (&'static str, fn(&Harness) -> String);

/// Every experiment, in paper order (the fleet sweeps go beyond the paper).
pub static EXPERIMENTS: [Experiment; 22] = [
    ("fig6_datasets", design::fig6_datasets),
    ("fig7_optimizers", design::fig7_optimizers),
    ("table1_channels", design::table1_channels),
    ("table2_hybrid_rpc", design::table2_hybrid_rpc),
    ("table3_patterns", design::table3_patterns),
    ("fig8_sync_async", design::fig8_sync_async),
    ("fig9_end_to_end", endtoend::fig9_end_to_end),
    ("fig10_breakdown", endtoend::fig10_breakdown),
    ("fig11_workers", endtoend::fig11_workers),
    ("fig12_frontier", endtoend::fig12_frontier),
    ("table5_pipeline", endtoend::table5_pipeline),
    ("cost_sanity", endtoend::cost_sanity),
    ("table6_constants", analytics::table6_constants),
    ("fig13_model", analytics::fig13_model),
    ("fig14_fast_hybrid", analytics::fig14_fast_hybrid),
    ("fig15_hot_data", analytics::fig15_hot_data),
    ("ablations", ablations::run_all),
    ("fleet_scale", fleet::fleet_scale),
    ("fleet_policies", fleet::fleet_policies),
    ("fleet_recovery", fleet::fleet_recovery),
    ("fleet_estimator", fleet::fleet_estimator),
    ("fleet_risk", fleet::fleet_risk),
];

/// The experiments `name` selects: the one entry it names, or the whole
/// registry for `all`. `None` for a name the registry does not know.
pub fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(&EXPERIMENTS);
    }
    let entry = EXPERIMENTS.iter().find(|(n, _)| *n == name);
    entry.map(std::slice::from_ref)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_harness_is_fast() {
        let h = Harness::default();
        assert!(h.fast);
        assert_eq!(h.seed, 42);
        assert!(h.workers >= 1);
    }

    #[test]
    fn registry_names_are_unique_and_all_visits_each_once() {
        let names: std::collections::BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(
            !names.contains("all"),
            "`all` is the selector, not an entry"
        );
        let selected = |name| select(name).map(|s| s.iter().map(|e| e.0).collect::<Vec<_>>());
        assert_eq!(selected("all"), Some(EXPERIMENTS.map(|e| e.0).to_vec()));
        for (name, _) in EXPERIMENTS {
            assert_eq!(selected(name), Some(vec![name]));
        }
        assert_eq!(selected("fig6_dataset"), None);
    }

    #[test]
    fn cheap_experiments_run() {
        let h = Harness::default();
        let cheap = ["fig6_datasets", "table2_hybrid_rpc", "table3_patterns"];
        let reports = EXPERIMENTS
            .iter()
            .filter(|e| cheap.contains(&e.0))
            .map(|(_, run)| run(&h));
        assert_eq!(reports.filter(|r| !r.is_empty()).count(), cheap.len());
    }
}
