//! The one pricing seam, held to the arithmetic it replaced.
//!
//! Before [`lml_analytic::model::price`] existed, the fleet wrote the §5.3
//! subtraction "run = time − start-up" out at each caller: the class cache
//! (the simulator's ground truth), `Analytic::predict` (the estimate) and
//! `JobClass::nominal_runtime` (the deadline yardstick). That arithmetic is
//! kept here verbatim, and a Pcg64 case sweep asserts the seam reproduces it
//! to the bit: on all four §5.3 cases for the seam itself, and on the
//! fleet's two cases for the truth and the estimate.

use super::*;
use crate::estimate::{Analytic, Estimate, Estimator};
use crate::job::JobRequest;
use lml_analytic::constants;
use lml_analytic::model::{AnalyticCase, AnalyticParams, Scaling};
use lml_sim::Pcg64;

fn faas_time(p: &AnalyticParams, c: &AnalyticCase, scaling: Scaling, w: usize) -> SimTime {
    assert!(w >= 1);
    let startup = constants::t_f().eval(w as f64);
    let load = p.dataset_bytes / w as f64 / constants::B_S3;
    let comm_per_round =
        (3.0 * w as f64 - 2.0) * (p.model_bytes / w as f64 / c.bandwidth + c.latency);
    let per_epoch = p.rounds_per_epoch * comm_per_round + p.compute_per_epoch / w as f64;
    SimTime::secs(startup + load + p.epochs * scaling.f(w) * per_epoch)
}

fn iaas_time(p: &AnalyticParams, c: &AnalyticCase, scaling: Scaling, w: usize) -> SimTime {
    assert!(w >= 1);
    let startup = constants::t_i().eval(w as f64);
    let load = p.dataset_bytes / w as f64 / constants::B_S3;
    let comm_per_round =
        (2.0 * w as f64 - 2.0) * (p.model_bytes / w as f64 / c.bandwidth + c.latency);
    let per_epoch = p.rounds_per_epoch * comm_per_round + p.compute_per_epoch / w as f64;
    SimTime::secs(startup + load + p.epochs * scaling.f(w) * per_epoch)
}

fn faas_cost(p: &AnalyticParams, c: &AnalyticCase, scaling: Scaling, w: usize) -> Cost {
    let t = faas_time(p, c, scaling, w).as_secs() - constants::t_f().eval(w as f64);
    Cost::usd(w as f64 * c.worker_price_per_s * t)
}

fn faas_run(p: &AnalyticParams, case: &AnalyticCase, w: usize) -> SimTime {
    faas_time(p, case, Scaling::Perfect, w) - SimTime::secs(constants::t_f().eval(w as f64))
}

fn iaas_run(p: &AnalyticParams, case: &AnalyticCase, w: usize) -> SimTime {
    iaas_time(p, case, Scaling::Perfect, w) - SimTime::secs(constants::t_i().eval(w as f64))
}

/// The class cache's three priced fields: `(faas_run, faas_cost, epoch_secs)`.
fn class_cache(cfg: &FleetConfig, class: JobClass, workers: usize) -> (SimTime, Cost, f64) {
    let mut p = class.profile();
    p.epochs *= cfg.epoch_scale;
    let epochs_total = ((class.default_epochs() * cfg.epoch_scale).ceil() as u32).max(1);
    let iaas_run_full = iaas_run(&p, &IAAS_CASE, workers);
    (
        faas_run(&p, &FAAS_CASE, workers),
        faas_cost(&p, &FAAS_CASE, Scaling::Perfect, workers),
        iaas_run_full.as_secs() / epochs_total as f64,
    )
}

fn predict(epochs: f64, job: &JobRequest) -> Estimate {
    let mut p = job.class.profile();
    p.epochs = epochs;
    let w = job.workers;
    let t_faas = faas_time(&p, &FAAS_CASE, Scaling::Perfect, w).as_secs()
        - lml_analytic::constants::t_f().eval(w as f64);
    let c_faas = faas_cost(&p, &FAAS_CASE, Scaling::Perfect, w).as_usd();
    let t_iaas = iaas_time(&p, &IAAS_CASE, Scaling::Perfect, w).as_secs()
        - lml_analytic::constants::t_i().eval(w as f64);
    let c_iaas = w as f64 * IAAS_CASE.worker_price_per_s * t_iaas;
    Estimate::point(t_faas, c_faas, t_iaas, c_iaas)
}

fn nominal_runtime(class: JobClass) -> SimTime {
    let w = class.default_workers();
    faas_time(
        &class.profile(),
        &AnalyticCase::faas_s3(),
        Scaling::Perfect,
        w,
    ) - SimTime::secs(lml_analytic::constants::t_f().eval(w as f64))
}

fn any_case(rng: &mut Pcg64) -> AnalyticCase {
    match rng.index(4) {
        0 => AnalyticCase::faas_s3(),
        1 => AnalyticCase::faas_elasticache(),
        2 => AnalyticCase::iaas_t2(),
        _ => AnalyticCase::iaas_c5(),
    }
}

fn estimate_bits(e: &Estimate) -> [u64; 8] {
    [
        e.t_faas, e.c_faas, e.t_iaas, e.c_iaas, e.m_faas, e.m_iaas, e.s_faas, e.s_iaas,
    ]
    .map(f64::to_bits)
}

#[test]
fn truth_estimate_and_yardstick_match_the_kept_arithmetic_bit_for_bit() {
    let secs = |t: SimTime| t.as_secs().to_bits();
    let usd = |c: Cost| c.as_usd().to_bits();
    for class in JobClass::ALL {
        assert_eq!(
            secs(class.nominal_runtime()),
            secs(nominal_runtime(class)),
            "{class:?}"
        );
    }
    let mut rng = Pcg64::new(0x9e1c_e5ea);
    for (&class, case) in JobClass::ALL.iter().cycle().zip(0..1_200) {
        let w = 1 + rng.index(1_000);
        let (faas_case, iaas_case) = (any_case(&mut rng), any_case(&mut rng));
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
        let at = format!("case {case}: {class:?} w={w} scale={}", cfg.epoch_scale);

        // The seam itself, on the miscalibrated profile the truth uses.
        let mut p = class.profile();
        p.epochs *= cfg.epoch_scale;
        let faas = price(&p, &faas_case, Substrate::Faas, w);
        let iaas = price(&p, &iaas_case, Substrate::Iaas, w);
        let t_f = constants::t_f().eval(w as f64);
        let t_i = constants::t_i().eval(w as f64);
        assert_eq!(secs(faas.startup), t_f.to_bits(), "{at}");
        assert_eq!(secs(iaas.startup), t_i.to_bits(), "{at}");
        assert_eq!(secs(faas.run), secs(faas_run(&p, &faas_case, w)), "{at}");
        assert_eq!(secs(iaas.run), secs(iaas_run(&p, &iaas_case, w)), "{at}");
        let want = faas_cost(&p, &faas_case, Scaling::Perfect, w);
        assert_eq!(usd(faas.dollars), usd(want), "{at}");
        let rate = w as f64 * iaas_case.worker_price_per_s;
        assert_eq!(iaas_case.rate(w).to_bits(), rate.to_bits(), "{at}");
        let want = rate * iaas_run(&p, &iaas_case, w).as_secs();
        assert_eq!(usd(iaas.dollars), want.to_bits(), "{at}");

        // The simulator's ground truth.
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
        let got = fleet.class_cache(class, w);
        let (run, dollars, epoch_secs) = class_cache(&cfg, class, w);
        assert_eq!(secs(got.faas.run), secs(run), "{at}");
        assert_eq!(usd(got.faas.dollars), usd(dollars), "{at}");
        assert_eq!(got.epoch_secs.to_bits(), epoch_secs.to_bits(), "{at}");

        // The estimate, cold and memoised.
        let mut analytic = Analytic::new();
        if let Some(epochs) = pinned {
            analytic.pin_epochs(class, epochs);
        }
        let job = JobRequest::new(0, class, SimTime::ZERO, w);
        let epochs = pinned.unwrap_or_else(|| class.default_epochs());
        let want = estimate_bits(&predict(epochs, &job));
        assert_eq!(estimate_bits(&analytic.predict(&job)), want, "{at}");
        assert_eq!(estimate_bits(&analytic.predict(&job)), want, "{at}");
    }
}
