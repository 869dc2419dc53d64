//! Experiment implementations, one module per paper section:
//!
//! * [`design`] — §4's design-space evaluation (Figures 6–8, Tables 1–3).
//! * [`endtoend`] — §5's FaaS-vs-IaaS study (Figures 9–12, Table 5, the
//!   COST sanity check).
//! * [`analytics`] — §5.3's analytical model (Table 6, Figures 13–15).
//! * [`ablations`] — design-choice sweeps: BSP polling interval, ADMM local
//!   scans, and the Lambda lifetime mechanism's overhead.
//! * [`fleet`] — the fleet-scale multi-tenant sweep (beyond the paper).

pub mod ablations;
pub mod analytics;
pub mod design;
pub mod endtoend;
pub mod fleet;

use lml_core::{Backend, JobError, RunResult};
use lml_iaas::{InstanceType, SystemProfile};

/// Distributed PyTorch on a cluster of `instance`s.
pub(crate) fn pytorch(instance: InstanceType) -> Backend {
    Backend::Iaas {
        instance,
        system: SystemProfile::PyTorch,
    }
}

/// Render a run (or its failure) as table cells `[time, cost, note]`.
pub(crate) fn outcome_cells(r: &Result<RunResult, JobError>) -> [String; 3] {
    match r {
        Ok(r) => [
            format!("{:.1}s", r.runtime().as_secs()),
            format!("{}", r.dollars()),
            if r.converged {
                String::new()
            } else {
                format!("loss {:.3}", r.final_loss)
            },
        ],
        Err(e) => ["N/A".into(), "N/A".into(), e.to_string()],
    }
}
