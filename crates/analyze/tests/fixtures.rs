//! The fixture-corpus self-test: `--check` must fail on each known-bad
//! violation class, with the right lint attributed at the right place.
//!
//! The corpus under `tests/fixtures/violations/` is a miniature workspace
//! (never compiled — only lexed): a determinism-critical `sim` crate
//! containing one representative of every determinism lint, plus a
//! `par.rs` whose thread start is the one the `threads` lint exempts; a
//! `fleet` crate whose only violation is a wall-clock read in
//! `observe.rs`; a zeroed panic budget the fixture source exceeds; and a
//! schema lock listing a field the fixture emitter no longer writes.

use std::collections::BTreeSet;
use std::path::Path;

fn violations_report() -> lml_analyze::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations");
    lml_analyze::run_check(&root).expect("fixture workspace is readable")
}

#[test]
fn every_violation_class_gates() {
    let report = violations_report();
    let gating: BTreeSet<&str> = report
        .findings
        .iter()
        .filter(|f| f.gating)
        .map(|f| f.lint.as_str())
        .collect();
    for lint in [
        "hash-collections",
        "wall-clock",
        "float-eq",
        "static-mut",
        "threads",
        "panic-ratchet",
        "schema-lock",
    ] {
        assert!(
            gating.contains(lint),
            "expected gating `{lint}`, got {gating:?}"
        );
    }
}

#[test]
fn determinism_findings_point_into_the_sim_crate() {
    let report = violations_report();
    for lint in [
        "hash-collections",
        "wall-clock",
        "float-eq",
        "static-mut",
        "threads",
    ] {
        let f = report
            .findings
            .iter()
            .find(|f| f.lint == lint && f.file == "crates/sim/src/lib.rs")
            .unwrap_or_else(|| panic!("missing {lint} in the sim crate"));
        assert!(f.gating, "{lint} gates");
        assert!(f.line > 0, "{lint} carries a line number");
    }
}

#[test]
fn threads_start_only_in_the_fan_out() {
    let report = violations_report();
    let threads: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "threads")
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(threads, [("crates/sim/src/lib.rs", 28)], "par.rs is exempt");
}

#[test]
fn a_wall_clock_in_the_fleet_observer_gates() {
    let report = violations_report();
    let fleet: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/fleet/"))
        .collect();
    assert_eq!(fleet.len(), 1, "{fleet:?}");
    let f = fleet[0];
    assert_eq!(
        (f.file.as_str(), f.lint.as_str(), f.line, f.gating),
        ("crates/fleet/src/observe.rs", "wall-clock", 12, true),
        "{f:?}"
    );
}

#[test]
fn panic_ratchet_regression_names_the_grown_counts() {
    let report = violations_report();
    let msgs: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.lint == "panic-ratchet" && f.gating)
        .map(|f| f.msg.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("`lml-sim` unwrap count grew 0 -> 1")),
        "unwrap regression reported: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`lml-sim` index count grew 0 -> 1")),
        "index regression reported: {msgs:?}"
    );
}

#[test]
fn schema_field_removal_is_the_only_schema_error() {
    let report = violations_report();
    let schema: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "schema-lock")
        .collect();
    assert_eq!(schema.len(), 1, "{schema:?}");
    assert!(schema[0].gating);
    assert!(schema[0].msg.contains("`removed_field`"));
    // The in-sync observe emitter and the fixture docs stay quiet.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.lint == "schema-docs-drift"));
}
