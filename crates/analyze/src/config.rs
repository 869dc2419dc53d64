//! Per-crate lint configuration.
//!
//! The configuration is code, not a config file: the set of
//! determinism-critical crates changes at the same cadence as the crates
//! themselves, and a table here shows up in review next to the code it
//! governs.

use crate::lints::LintOpts;
use crate::schema::Emitter;

/// The one file allowed to start threads: the deterministic fan-out that
/// hands results back in item order.
pub const THREAD_HOME: &str = "crates/sim/src/par.rs";

/// Lint options for workspace file `file` (workspace-relative) of a crate
/// keyed by package name (`lml-<dir>` for `crates/<dir>`, `lambdaml` for
/// the root `src/`).
pub fn lint_opts(package: &str, file: &str) -> LintOpts {
    LintOpts {
        // Only the simulation crates carry the byte-stable-artifact
        // contract; a HashMap in the data-prep or linalg layers cannot leak
        // iteration order into sweep JSON.
        hash_collections: matches!(package, "lml-sim" | "lml-fleet"),
        // Wall clocks are banned everywhere: the simulators run on virtual
        // `SimTime`, and wall time is measured from outside (`benchmark/`).
        wall_clock: true,
        float_eq: true,
        static_mut: true,
        // Thread scheduling must never order a result: work fans out only
        // through `lml_sim::par`, which returns results in item order.
        threads: file != THREAD_HOME,
    }
}

/// The hand-rolled JSON emitters whose field sets are schema-locked.
/// `fleet/src/json.rs` is the generic writer — it emits no fields of its
/// own, so the locks cover the two files that call it with literal keys.
pub const EMITTERS: [Emitter; 2] = [
    Emitter {
        name: "metrics",
        file: "crates/fleet/src/metrics.rs",
        key_helpers: &[],
    },
    Emitter {
        name: "observe",
        file: "crates/fleet/src/observe.rs",
        key_helpers: &["opt_f64"],
    },
];

/// Workspace-relative path of the panic-surface ratchet baseline.
pub const PANIC_BUDGET_PATH: &str = "crates/analyze/panic_budget.toml";

/// Workspace-relative directory holding the `<name>.lock` schema locks.
pub const SCHEMAS_DIR: &str = "schemas";

/// Workspace-relative path of the human-readable schema documentation the
/// drift report checks against.
pub const SCHEMA_DOCS_PATH: &str = "docs/SCHEMAS.md";
