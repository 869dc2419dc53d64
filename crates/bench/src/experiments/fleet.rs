//! The fleet sweeps: the FaaS/IaaS trade-off under multi-tenant load,
//! beyond the paper's single-job figures. Each sweep is a *declaration* —
//! a `Sweep` naming its title, job counts, columns, and grid of
//! `Cell`s — and one runner, `run_sweep`, executes them all: every cell
//! is simulated on `lml_sim::par`'s fan-out, its full metrics rollup is
//! written as one byte-stable JSON file (schema `lml-fleet/metrics/v1`)
//! under `<Harness::out_root>/<sweep name>/`, and its row joins the returned
//! table. `tests/fleet_artifacts.rs` pins every sweep's bytes at seeds 7
//! and 42, fast and full, at 1, 2 and 8 workers.

use crate::tablefmt::{f, table};
use crate::Harness;
use lml_fleet::{
    simulate, AllFaas, AllIaas, Analytic, ArrivalProcess, CheckpointPolicy, CostAware,
    DeadlineAware, Estimator, FairShare, FleetConfig, FleetMetrics, Hybrid, JobClass, JobMix,
    Online, Route, Scheduler, TenantSpec, Trace,
};
use lml_sim::par::parallel_map;
use lml_sim::SimTime;

/// A metric column: header + renderer over one cell's metrics.
type Column = (&'static str, fn(&FleetMetrics) -> String);

/// Fresh-scheduler factory: no routing state leaks between cells, and it
/// sees the cell's config so deadline-aware admission seeds its preemption
/// prior from the cell's spot market. `Send + Sync` because worker threads
/// call it.
type SchedFactory = Box<dyn Fn(&FleetConfig) -> Box<dyn Scheduler> + Send + Sync>;

/// Constructors the grids name their rows with: a scheduler from the
/// cell's config alone, plus a knob `K` (spot fraction, estimator), and an
/// estimator.
type MakeSched = fn(&FleetConfig) -> Box<dyn Scheduler>;
type MakeSchedWith<K> = fn(&FleetConfig, K) -> Box<dyn Scheduler>;
type MakeEstimator = fn() -> Box<dyn Estimator>;

/// One grid cell: everything one simulation needs besides its trace.
struct Cell {
    /// File-name stem: `<prefix>-seed<seed>-<stem>.json`.
    stem: String,
    /// Leading table cells, one per [`Sweep::labels`] header.
    labels: Vec<String>,
    cfg: FleetConfig,
    sched: SchedFactory,
}

/// A built grid: each trace with the cells that replay it, in table order
/// (all cells of a trace share one arrival sequence).
type Grid = Vec<(Trace, Vec<Cell>)>;

/// A sweep declaration.
struct Sweep {
    /// Experiment name; also the output subdirectory.
    name: &'static str,
    /// File-name prefix of the per-cell JSON.
    prefix: &'static str,
    /// Table title after `"<name>: <n>-job "`.
    title: &'static str,
    /// Jobs per trace in (fast, full) mode.
    jobs: (usize, usize),
    /// Headers of the label columns every [`Cell`] fills.
    labels: &'static [&'static str],
    columns: &'static [Column],
    grid: fn(n_jobs: usize, h: &Harness) -> Grid,
}

const P50: Column = ("p50 s", |m| f(m.latency.p50));
const P99: Column = ("p99 s", |m| f(m.latency.p99));
const DL_HIT: Column = ("dl-hit", |m| {
    format!("{:.0}%", m.deadline_hit_rate() * 100.0)
});
const PREEMPT: Column = ("preempt", |m| format!("{}", m.preemptions));
const LOST: Column = ("lost s", |m| format!("{:.0}", m.lost_work.as_secs()));
const COST: Column = ("cost", |m| format!("{}", m.total_cost()));

/// Execute one declaration: simulate every cell on `h.workers` threads,
/// then — on this thread, in grid order, so output is byte-identical at
/// any worker count — write each cell's JSON and render the table.
fn run_sweep(s: &Sweep, h: &Harness) -> String {
    let n_jobs = if h.fast { s.jobs.0 } else { s.jobs.1 };
    let grid = (s.grid)(n_jobs, h);
    let cells = grid
        .iter()
        .flat_map(|(trace, cells)| cells.iter().map(move |c| (trace, c)));
    let results = parallel_map(cells, h.workers, |_, (trace, cell)| {
        let mut sched = (cell.sched)(&cell.cfg);
        let m = simulate(trace, &cell.cfg, sched.as_mut(), h.seed);
        let metrics = s.columns.iter().map(|(_, render)| render(&m));
        let row: Vec<String> = cell.labels.iter().cloned().chain(metrics).collect();
        let file = format!("{}-seed{}-{}.json", s.prefix, h.seed, cell.stem);
        (file, m.to_json(), row)
    });
    let dir = h.out_root.join(s.name);
    let _ = std::fs::create_dir_all(&dir);
    let mut rows = Vec::new();
    for (file, json, row) in results {
        // The table is the primary output: a read-only output root
        // downgrades to a warning rather than aborting the sweep.
        let file = dir.join(file);
        if let Err(e) = std::fs::write(&file, json) {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
        rows.push(row);
    }
    let mut headers = s.labels.to_vec();
    headers.extend(s.columns.iter().map(|c| c.0));
    let title = format!("{}: {n_jobs}-job {}", s.name, s.title);
    eprintln!("per-run JSON written to {}", dir.display());
    table(&title, &headers, &rows)
}

/// `fleet_scale`: arrival rate × routing policy on Poisson fleets — warm
/// pools amortizing cold starts, reserved clusters queueing, and the
/// cost-aware router buying tail latency with Lambda only when it pays.
const SCALE: Sweep = Sweep {
    name: "fleet_scale",
    prefix: "fleet",
    title: "Poisson fleets, arrival rate x policy",
    jobs: (400, 2_000),
    labels: &["rate/s", "policy"],
    columns: &[
        P50,
        ("p95 s", |m| f(m.latency.p95)),
        P99,
        ("q-p99 s", |m| f(m.queue.p99)),
        COST,
        ("warm", |m| format!("{:.0}%", m.warm_hit_rate * 100.0)),
        ("util", |m| format!("{:.0}%", m.iaas_utilization * 100.0)),
        ("on-faas", |m| format!("{}", m.jobs_on_faas)),
    ],
    grid: |n_jobs, h| {
        let rates = [0.05, 0.2, 0.8, 2.0];
        let n_rates = if h.fast { 3 } else { 4 };
        let policies: [(&str, MakeSched); 3] = [
            ("all-faas", |_| Box::new(AllFaas)),
            ("all-iaas", |_| Box::new(AllIaas)),
            ("cost-aware", |_| Box::new(CostAware::new())),
        ];
        let per_rate = |&rate: &f64| {
            let process = ArrivalProcess::Poisson { rate };
            let trace = Trace::generate(process, &JobMix::default_mix(), n_jobs, h.seed);
            let cells = policies.iter().map(|&(name, make)| Cell {
                stem: format!("rate{rate}-{name}"),
                labels: vec![format!("{rate}"), name.to_string()],
                cfg: FleetConfig::default(),
                sched: Box::new(make),
            });
            (trace, cells.collect())
        };
        rates.iter().take(n_rates).map(per_rate).collect()
    },
};

/// `fleet_policies`: the multi-tenant scheduling testbed — policy ×
/// spot-fraction × provisioned-concurrency over a bursty four-tenant
/// trace where half the jobs carry deadlines.
const POLICIES: Sweep = Sweep {
    name: "fleet_policies",
    prefix: "fleet-policies",
    title: "bursty 4-tenant fleet (50% deadlines), \
            policy x spot-fraction x provisioned-concurrency",
    jobs: (300, 1_200),
    labels: &["policy", "spot", "pc"],
    columns: &[
        P50,
        P99,
        DL_HIT,
        ("fair", |m| format!("{:.2}", m.fairness)),
        PREEMPT,
        COST,
        ("faas/iaas/spot", |m| {
            format!("{}/{}/{}", m.jobs_on_faas, m.jobs_on_iaas, m.jobs_on_spot)
        }),
    ],
    grid: |n_jobs, h| {
        let spec = TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.5,
            deadline_slack: 2.5,
        };
        let process = ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 1.5,
            period: 600.0,
            duty: 0.25,
        };
        let trace = Trace::generate_multi(process, &JobMix::default_mix(), &spec, n_jobs, h.seed);
        // Name, whether the policy honours the spot-fraction knob, and a
        // constructor seeing (config, spot fraction).
        let policies: [(&str, bool, MakeSchedWith<f64>); 5] = [
            ("all-faas", false, |_, _| Box::new(AllFaas)),
            ("all-iaas", false, |_, _| Box::new(AllIaas)),
            ("cost-aware", false, |_, _| Box::new(CostAware::new())),
            ("deadline-aware", true, |cfg, frac| {
                Box::new(DeadlineAware::for_config(cfg).with_spot_fraction(frac))
            }),
            ("fair-share", true, |_, frac| {
                Box::new(FairShare::new().with_spot_fraction(frac))
            }),
        ];
        let mut cells = Vec::new();
        for pc in [0usize, 64] {
            for frac in [0.0, 0.6] {
                for (name, takes_spot, make) in policies {
                    if frac > 0.0 && !takes_spot {
                        // The knob is a no-op for this policy: skip the
                        // cell rather than re-emit identical JSON.
                        continue;
                    }
                    let mut cfg = FleetConfig::default();
                    cfg.faas.provisioned_concurrency = pc;
                    cells.push(Cell {
                        stem: format!("{name}-spot{frac}-pc{pc}"),
                        labels: vec![name.to_string(), format!("{frac}"), format!("{pc}")],
                        cfg,
                        sched: Box::new(move |cfg| make(cfg, frac)),
                    });
                }
            }
        }
        vec![(trace, cells)]
    },
};

/// `fleet_recovery`: checkpoint policy × spot fraction × preemption rate
/// on a spot-heavy fair-share fleet. Epoch-granular checkpoints (priced
/// through DynamoDB or S3 by size) buy back lost-work seconds: resumes replace
/// from-scratch restarts, and the bill shrinks with them.
const RECOVERY: Sweep = Sweep {
    name: "fleet_recovery",
    prefix: "fleet-recovery",
    title: "spot-heavy fleet, checkpoint policy x spot fraction x preemption rate",
    jobs: (150, 600),
    labels: &["policy", "spot", "mttp s"],
    columns: &[
        P99,
        LOST,
        ("resumes", |m| format!("{}", m.resumes)),
        PREEMPT,
        ("ckpts", |m| format!("{}", m.checkpoint_writes)),
        COST,
    ],
    grid: |n_jobs, h| {
        let process = ArrivalProcess::Poisson { rate: 0.4 };
        let trace = Trace::generate(process, &JobMix::default_mix(), n_jobs, h.seed);
        let policies = [
            CheckpointPolicy::Never,
            CheckpointPolicy::every(1),
            CheckpointPolicy::every(4),
            CheckpointPolicy::Adaptive,
        ];
        let mut cells = Vec::new();
        for mttp in [900.0, 3_600.0] {
            for frac in [0.6, 1.0] {
                for policy in policies {
                    let mut cfg = FleetConfig::default();
                    cfg.spot.mean_time_to_preempt = SimTime::secs(mttp);
                    cfg.checkpoint = policy;
                    cells.push(Cell {
                        stem: format!("{}-spot{frac}-mttp{mttp}", policy.name()),
                        labels: vec![policy.name(), format!("{frac}"), format!("{mttp:.0}")],
                        cfg,
                        sched: Box::new(move |_| {
                            Box::new(FairShare::new().with_spot_fraction(frac))
                        }),
                    });
                }
            }
        }
        vec![(trace, cells)]
    },
};

/// `fleet_estimator`: estimator (analytic / online / hybrid) × scheduler ×
/// zoo calibration (epoch scale 1 = the §5.3 prior is right, 2 = every job
/// really needs twice the epochs it assumes). Calibrated, all three route
/// identically (online/hybrid are seeded from the analytic prior);
/// miscalibrated, the feedback loop earns its keep: runtime MAPE collapses
/// and `deadline-aware + hybrid` beats the blind prior on deadline hits.
const ESTIMATOR: Sweep = Sweep {
    name: "fleet_estimator",
    prefix: "fleet-estimator",
    title: "3-tenant fleet (60% deadlines), zoo calibration x scheduler x estimator",
    jobs: (300, 1_200),
    labels: &["scale", "policy", "estimator"],
    columns: &[
        P50,
        P99,
        DL_HIT,
        ("t-mape", |m| format!("{:.3}", m.runtime_mape)),
        ("c-mape", |m| format!("{:.3}", m.cost_mape)),
        COST,
    ],
    grid: |n_jobs, h| {
        // The regime where the prediction matters: a fixed reserved pool at
        // ~80% utilization (marginal pool waits are where a 2×-optimistic
        // prior sends deadline jobs onto a pool that just misses, while a
        // learned model escapes to Lambda), convex classes with deadlines
        // at 2.7× their nominal runtime.
        let spec = TenantSpec {
            n_tenants: 3,
            deadline_frac: 0.6,
            deadline_slack: 2.7,
        };
        let mix = JobMix::new(vec![(JobClass::LrHiggs, 0.75), (JobClass::KmHiggs, 0.25)]);
        let process = ArrivalProcess::Poisson { rate: 0.03 };
        let trace = Trace::generate_multi(process, &mix, &spec, n_jobs, h.seed);
        let estimators: [(&str, MakeEstimator); 3] = [
            ("analytic", || Box::new(Analytic::new())),
            ("online", || Box::new(Online::default())),
            ("hybrid", || Box::new(Hybrid::default())),
        ];
        let schedulers: [(&str, MakeSchedWith<Box<dyn Estimator>>); 3] = [
            ("cost-aware", |_, est| {
                Box::new(CostAware::new().with_estimator(est))
            }),
            ("deadline-aware", |cfg, est| {
                Box::new(DeadlineAware::for_config(cfg).with_estimator(est))
            }),
            ("fair-share", |_, est| {
                Box::new(FairShare::new().with_estimator(est))
            }),
        ];
        let mut cells = Vec::new();
        for scale in [1.0, 2.0] {
            for (sched_name, make_sched) in schedulers {
                for (est_name, make_est) in estimators {
                    let mut cfg = FleetConfig {
                        epoch_scale: scale,
                        ..FleetConfig::default()
                    };
                    // A fixed pool: no autoscaling to paper over the pool
                    // waits the blind prior underestimates.
                    cfg.iaas.min_instances = 60;
                    cfg.iaas.max_instances = 60;
                    cells.push(Cell {
                        stem: format!("{sched_name}-{est_name}-scale{scale}"),
                        labels: vec![
                            format!("{scale}"),
                            sched_name.to_string(),
                            est_name.to_string(),
                        ],
                        cfg,
                        sched: Box::new(move |cfg| make_sched(cfg, make_est())),
                    });
                }
            }
        }
        vec![(trace, cells)]
    },
};

/// `fleet_risk`: spot admission (learned preemption posterior vs the
/// frozen static-mean config) × configured-prior error (the scheduler is
/// told the mean time to preempt is right / 4× too optimistic) × true
/// market hostility. A 4×-optimistic config keeps the static variant
/// shipping deadline jobs onto a market that eats them, while the learned
/// posterior prices them back onto firm capacity within a few reclaims;
/// with a correct config the two are identical — risk-awareness is free.
const RISK: Sweep = Sweep {
    name: "fleet_risk",
    prefix: "fleet-risk",
    title: "spot-eligible deadline fleet, \
            true preemption rate x configured-prior error x admission",
    jobs: (200, 600),
    labels: &["mttp s", "prior", "admission"],
    columns: &[
        ("dl-hit", |m| {
            format!("{:.1}%", m.deadline_hit_rate() * 100.0)
        }),
        ("dl-spot", |m| {
            let on_spot = m
                .records
                .iter()
                .filter(|r| r.deadline.is_some() && r.route == Route::Spot);
            format!("{}", on_spot.count())
        }),
        PREEMPT,
        LOST,
        P99,
        ("p95-cov", |m| format!("{:.2}", m.eta_coverage())),
        COST,
    ],
    grid: |n_jobs, h| {
        // One convex class and two tenants: the preemption posterior is
        // keyed per (tenant, class), so a narrow zoo makes the learning
        // visible within one trace. Slack 6× nominal is the knife edge —
        // rich enough that a benign-believing admission takes the discount,
        // tight enough that a hostile market's reboots blow it.
        let spec = TenantSpec {
            n_tenants: 2,
            deadline_frac: 0.5,
            deadline_slack: 6.0,
        };
        let process = ArrivalProcess::Poisson { rate: 0.05 };
        let mix = JobMix::only(JobClass::LrHiggs);
        let trace = Trace::generate_multi(process, &mix, &spec, n_jobs, h.seed);
        let mut cells = Vec::new();
        for mttp in [600.0, 1_800.0] {
            for err in [1.0, 4.0] {
                for (name, frozen) in [("learned", false), ("static", true)] {
                    let mut cfg = FleetConfig::default();
                    cfg.spot.mean_time_to_preempt = SimTime::secs(mttp);
                    cfg.checkpoint = CheckpointPolicy::every(1);
                    cells.push(Cell {
                        stem: format!("{name}-err{err}-mttp{mttp}"),
                        labels: vec![format!("{mttp:.0}"), format!("{err}"), name.to_string()],
                        cfg,
                        sched: Box::new(move |cfg| {
                            let sched = DeadlineAware::for_config(cfg)
                                .with_spot_fraction(1.0)
                                .with_spot_recovery(cfg.checkpoint)
                                .with_preemption_prior(SimTime::secs(mttp * err));
                            Box::new(if frozen {
                                sched.with_static_preemption()
                            } else {
                                sched
                            })
                        }),
                    });
                }
            }
        }
        vec![(trace, cells)]
    },
};

pub(crate) fn fleet_scale(h: &Harness) -> String {
    run_sweep(&SCALE, h)
}

pub(crate) fn fleet_policies(h: &Harness) -> String {
    run_sweep(&POLICIES, h)
}

pub(crate) fn fleet_recovery(h: &Harness) -> String {
    run_sweep(&RECOVERY, h)
}

pub(crate) fn fleet_estimator(h: &Harness) -> String {
    run_sweep(&ESTIMATOR, h)
}

pub(crate) fn fleet_risk(h: &Harness) -> String {
    run_sweep(&RISK, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    /// A fresh scratch directory under the system temp dir, private to
    /// this process so concurrent test runs never delete each other's
    /// files.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn harness(seed: u64, out_root: &Path) -> Harness {
        Harness {
            seed,
            fast: true,
            out_root: out_root.to_path_buf(),
            workers: 2,
        }
    }

    /// Pull one f64 field out of a flat JSON metrics file.
    fn json_f64(json: &str, field: &str) -> f64 {
        let key = format!("\"{field}\":");
        let at = json.find(&key).expect("field present") + key.len();
        json[at..]
            .split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn fleet_estimator_hybrid_beats_blind_prior_on_miscalibrated_zoo() {
        let tmp = scratch("lml_fleet_estimator_test");
        let out = fleet_estimator(&harness(21, &tmp));
        assert!(out.contains("hybrid") && out.contains("analytic"));
        let read = |sched: &str, est: &str, scale: &str| {
            std::fs::read_to_string(tmp.join(format!(
                "fleet_estimator/fleet-estimator-seed21-{sched}-{est}-scale{scale}.json"
            )))
            .expect("JSON file written")
        };
        // The acceptance criterion: on the miscalibrated zoo the learned
        // posterior strictly beats the blind prior on deadline-hit rate…
        let blind = json_f64(
            &read("deadline-aware", "analytic", "2"),
            "deadline_hit_rate",
        );
        let hybrid = json_f64(&read("deadline-aware", "hybrid", "2"), "deadline_hit_rate");
        assert!(
            hybrid > blind,
            "hybrid {hybrid} must strictly beat analytic {blind} at scale 2"
        );
        // …and cuts the runtime prediction error.
        let blind_mape = json_f64(&read("deadline-aware", "analytic", "2"), "runtime_mape");
        let hybrid_mape = json_f64(&read("deadline-aware", "hybrid", "2"), "runtime_mape");
        assert!(
            hybrid_mape < blind_mape * 0.5,
            "{hybrid_mape} vs {blind_mape}"
        );
        // On the calibrated zoo the prior is right and nothing regresses.
        let a1 = json_f64(
            &read("deadline-aware", "analytic", "1"),
            "deadline_hit_rate",
        );
        let h1 = json_f64(&read("deadline-aware", "hybrid", "1"), "deadline_hit_rate");
        assert!(h1 >= a1, "calibrated zoo: {h1} vs {a1}");
        assert!(
            read("cost-aware", "online", "1").starts_with(r#"{"schema":"lml-fleet/metrics/v1""#)
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn fleet_risk_learned_admission_beats_static_on_wrong_config() {
        let tmp = scratch("lml_fleet_risk_test");
        let out = fleet_risk(&harness(7, &tmp));
        assert!(out.contains("learned") && out.contains("static"));
        let read = |adm: &str, err: &str, mttp: &str| {
            std::fs::read_to_string(tmp.join(format!(
                "fleet_risk/fleet-risk-seed7-{adm}-err{err}-mttp{mttp}.json"
            )))
            .expect("JSON file written")
        };
        // The acceptance criterion: with the configured mean 4× too
        // optimistic on the hostile market, the learned posterior strictly
        // beats the frozen config on deadline-hit rate…
        let frozen = json_f64(&read("static", "4", "600"), "deadline_hit_rate");
        let learned = json_f64(&read("learned", "4", "600"), "deadline_hit_rate");
        assert!(
            learned > frozen,
            "learned {learned} must strictly beat static {frozen} on a 4×-wrong config"
        );
        // …and with a correct config the two admissions are identical —
        // risk-awareness is free when the config is honest.
        assert_eq!(
            read("learned", "1", "600"),
            read("static", "1", "600"),
            "correct config: byte-identical decisions"
        );
        assert!(read("static", "4", "600").starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn fleet_recovery_runs_and_checkpoints_beat_never() {
        let tmp = scratch("lml_fleet_recovery_test");
        let out = fleet_recovery(&harness(13, &tmp));
        assert!(out.contains("adaptive") && out.contains("every1"));
        let read = |policy: &str| {
            std::fs::read_to_string(tmp.join(format!(
                "fleet_recovery/fleet-recovery-seed13-{policy}-spot1-mttp900.json"
            )))
            .expect("JSON file written")
        };
        let lost = |json: &str| {
            let key = "\"lost_work_s\":";
            let at = json.find(key).expect("lost_work_s present") + key.len();
            json[at..]
                .split(',')
                .next()
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        let never = lost(&read("never"));
        for policy in ["every1", "every4", "adaptive"] {
            let l = lost(&read(policy));
            assert!(
                l < never,
                "{policy} lost {l}s must be strictly below never's {never}s"
            );
        }
        assert!(read("never").starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
