//! `compare <a.json> <b.json>`: hold two result files (or the two sets of
//! one `--sets 2` run) against each other, one row per workload and
//! end-to-end metric, every delta printed with its base and its bound.
//!
//! A pair is `unresolved` when either side's run-to-run spread (distance
//! between its quartiles, as a share of its median) is wider than the
//! metric's bound — unless every run of one side beats every run of the
//! other, which no amount of spread explains away.

use crate::json::Json;
use crate::stats::{iqr_share, quartiles};
use crate::workloads::{Better, END_TO_END};
use std::collections::BTreeMap;

/// One side's samples: workload → metric → one value per pass.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// One side's simulated outputs: workload → `out.*` name → value.
pub type Outputs = BTreeMap<String, BTreeMap<String, String>>;

/// Pull the samples and outputs out of one set of a result file.
pub fn read_set(set: &Json) -> Result<(Samples, Outputs), String> {
    let mut samples = Samples::new();
    let mut outputs = Outputs::new();
    let workloads = set
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result set has no `workloads` array")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let metrics = samples.entry(name.to_string()).or_default();
        for (metric, entry) in w.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
            let values: Vec<f64> = entry
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{name}/{metric}: no `values`"))?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            metrics.entry(metric.clone()).or_default().extend(values);
        }
        let outs = outputs.entry(name.to_string()).or_default();
        for (k, v) in w.get("out").and_then(Json::as_obj).unwrap_or(&[]) {
            outs.insert(k.clone(), v.as_str().unwrap_or_default().to_string());
        }
    }
    Ok((samples, outputs))
}

/// Read a result file, pooling the passes of all its sets.
pub fn read_file(path: &str) -> Result<(Samples, Outputs), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets = doc
        .get("sets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: not a result file (no `sets`)"))?;
    let mut pooled = (Samples::new(), Outputs::new());
    for set in sets {
        let (samples, outputs) = read_set(set).map_err(|e| format!("{path}: {e}"))?;
        for (w, metrics) in samples {
            for (m, values) in metrics {
                let into = pooled.0.entry(w.clone()).or_default();
                into.entry(m).or_default().extend(values);
            }
        }
        // Sets of one file ran the same build and seed; keep the last.
        pooled.1.extend(outputs);
    }
    Ok(pooled)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side `b` against base `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Orient so that smaller is better.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let oriented = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x * sign).collect() };
    let (a, b) = (oriented(a), oriented(b));
    let (ma, mb) = (quartiles(&a)[1], quartiles(&b)[1]);
    let worse_by = (mb - ma) / ma.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let spread = iqr_share(&a).max(iqr_share(&b));
    if spread > bound {
        return if max(&b) < min(&a) {
            Verdict::Improved
        } else if min(&b) > max(&a) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread && mb < ma {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Print the comparison table; returns how many pairs regressed or had
/// differing outputs.
pub fn print(a: &(Samples, Outputs), b: &(Samples, Outputs), a_name: &str, b_name: &str) -> usize {
    println!("base A = {a_name}\nside B = {b_name}");
    println!(
        "{:<22} {:<12} {:>34} {:>34} {:>22} {:>7}  verdict",
        "workload",
        "metric",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "B-A (share of A)",
        "bound"
    );
    let mut bad = 0;
    for (workload, metrics_a) in &a.0 {
        let Some(metrics_b) = b.0.get(workload) else {
            println!("{workload:<22} missing from B");
            bad += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q2:.5} [{q1:.5}, {q3:.5}] {}", v.len())
            };
            let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
            let verdict = judge(va, vb, def.better, def.bound);
            bad += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<22} {:<12} {:>34} {:>34} {:>+11.5} ({:>+6.2}%) {:>6.0}%  {}",
                def.name,
                side(va),
                side(vb),
                mb - ma,
                (mb - ma) / ma * 100.0,
                def.bound * 100.0,
                verdict.name()
            );
        }
        let same = a.1.get(workload) == b.1.get(workload);
        println!(
            "{workload:<22} {:<12} {}",
            "out.*",
            if same {
                "identical"
            } else {
                "DIFFER (a speed-only change must leave simulated outputs unchanged)"
            }
        );
        bad += usize::from(!same);
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.005];

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let shift = |d: f64| TIGHT_A.map(|v| v * d);
        // 3% slower under a 7% bound: within bound.
        assert_eq!(
            judge(&TIGHT_A, &shift(1.03), Better::Lower, 0.07),
            Verdict::WithinBound
        );
        // 10% slower: regressed.
        assert_eq!(
            judge(&TIGHT_A, &shift(1.10), Better::Lower, 0.07),
            Verdict::Regressed
        );
        // 10% faster: improved.
        assert_eq!(
            judge(&TIGHT_A, &shift(0.90), Better::Lower, 0.07),
            Verdict::Improved
        );
        // Higher-is-better flips the sense.
        assert_eq!(
            judge(&TIGHT_A, &shift(0.90), Better::Higher, 0.07),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&TIGHT_A, &shift(1.10), Better::Higher, 0.07),
            Verdict::Improved
        );
    }

    #[test]
    fn a_wide_spread_leaves_the_pair_unresolved_unless_runs_separate() {
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 1.05), Better::Lower, 0.07),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved despite the spread.
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 0.5), Better::Lower, 0.07),
            Verdict::Improved
        );
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 2.0), Better::Lower, 0.07),
            Verdict::Regressed
        );
    }

    #[test]
    fn result_sets_are_read_back_and_pooled() {
        let set = |wall: [f64; 3]| {
            Json::obj(vec![(
                "workloads",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("w")),
                    (
                        "end_to_end",
                        Json::obj(vec![(
                            "wall_s",
                            Json::obj(vec![(
                                "values",
                                Json::Arr(wall.iter().map(|v| Json::Num(*v)).collect()),
                            )]),
                        )]),
                    ),
                    ("out", Json::obj(vec![("out.rounds", Json::str("26"))])),
                ])]),
            )])
        };
        let (samples, outputs) = read_set(&set([1.0, 2.0, 3.0])).unwrap();
        assert_eq!(samples["w"]["wall_s"], [1.0, 2.0, 3.0]);
        assert_eq!(outputs["w"]["out.rounds"], "26");
        assert!(read_set(&Json::obj(vec![])).is_err());
    }
}
