//! `lml-bench <experiment|all> [--seed N] [--full]` — regenerate one paper
//! artifact or fleet sweep (the index is `lml_bench::EXPERIMENTS`), or all
//! of them in paper order.
//!
//! This is the only place that prints a report: stdout carries each
//! experiment's report and nothing else, so it depends only on the seed and
//! the mode. Stderr carries a `>>> <name>` line before each experiment and,
//! for a fleet sweep, the directory its per-run JSON went to.
//!
//! One environment knob, read here and nowhere else: `LML_FLEET_OUT`
//! roots the fleet sweeps' per-cell JSON (default `target/`, each sweep
//! writing `<root>/<sweep name>/`). Sweeps fan out over every core; the
//! bytes never depend on the worker count (`tests/fleet_artifacts.rs`).

#![forbid(unsafe_code)]

use lml_bench::{select, Experiment, Harness, EXPERIMENTS};
use std::ffi::OsString;
use std::process::ExitCode;

/// Resolve the command line and the output-root knob to the experiments
/// to run and their settings, or a one-line error.
fn parse(
    args: &[String],
    out_root: Option<OsString>,
) -> Result<(&'static [Experiment], Harness), String> {
    let mut h = Harness::default();
    if let Some(root) = out_root {
        h.out_root = root.into();
    }
    let mut name = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => h.fast = false,
            "--seed" => {
                h.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| usage("--seed needs an integer"))?;
            }
            flag if flag.starts_with('-') => return Err(usage(&format!("unknown flag {flag:?}"))),
            _ if name.is_some() => return Err(usage("more than one experiment named")),
            _ => name = Some(arg),
        }
    }
    let name = name.ok_or_else(|| usage("no experiment named"))?;
    let selected = select(name).ok_or_else(|| usage(&format!("unknown experiment {name:?}")))?;
    Ok((selected, h))
}

/// `problem`, the synopsis, and every valid name, on one line.
fn usage(problem: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    format!(
        "{problem}; usage: lml-bench <experiment|all> [--seed N] [--full]; experiments: {}",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args, std::env::var_os("LML_FLEET_OUT")) {
        Ok((selected, h)) => {
            for (name, run) in selected {
                eprintln!(">>> {name}");
                println!("{}", run(&h));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lml-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse_args(args: &[&str]) -> Result<(Vec<&'static str>, Harness), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (selected, h) = parse(&args, Some("/tmp/x".into()))?;
        Ok((selected.iter().map(|e| e.0).collect(), h))
    }

    #[test]
    fn flags_and_knobs_land_in_the_harness() -> Result<(), String> {
        let (selected, h) = parse_args(&["fleet_risk", "--seed", "7", "--full"])?;
        assert_eq!(selected, ["fleet_risk"]);
        assert_eq!((h.seed, h.fast), (7, false));
        assert_eq!(h.out_root, Path::new("/tmp/x"));
        let (all, h) = parse_args(&["all"])?;
        assert_eq!(all.len(), EXPERIMENTS.len());
        assert_eq!((h.seed, h.fast), (42, true));
        let (_, h) = parse(&["all".to_string()], None)?;
        assert_eq!(h.out_root, Path::new("target"));
        assert!(h.workers >= 1);
        Ok(())
    }

    #[test]
    fn bad_command_lines_are_one_line_errors_listing_the_names() {
        let bad: [&[&str]; 7] = [
            &["fleet_scael"],
            &[],
            &["fleet_scale", "fleet_risk"],
            &["fleet_scale", "--sed", "7"],
            &["fleet_scale", "--seed"],
            &["fleet_scale", "--seed", "seven"],
            &["--seed", "7"],
        ];
        for args in bad {
            let e = parse_args(args).map(|_| ()).unwrap_err();
            assert_eq!(e.lines().count(), 1, "{args:?}: {e}");
            assert!(
                e.contains("fleet_scale") && e.contains("table6_constants"),
                "{e}"
            );
        }
    }
}
