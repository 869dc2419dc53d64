//! The FaaS(w) / IaaS(w) formulas: one body keyed by [`Substrate`], its
//! dollar version, and [`price`], the form the fleet simulator consumes.

use crate::constants;
use lml_sim::{Cost, PiecewiseLinear, SimTime};

/// Workload-level inputs of the analytical model.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticParams {
    /// Dataset size `s` in bytes.
    pub dataset_bytes: f64,
    /// Model/statistic size `m` in bytes.
    pub model_bytes: f64,
    /// Epochs to converge with one worker (`R`).
    pub epochs: f64,
    /// Communication rounds per epoch (`ρ`): 1 for MA/EM, iterations per
    /// epoch for GA-SGD, 1/local_scans for ADMM.
    pub rounds_per_epoch: f64,
    /// Single-worker compute seconds per epoch (`C`).
    pub compute_per_epoch: f64,
}

/// Infrastructure-level inputs: which channel/network and worker pricing.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticCase {
    /// Channel bandwidth `B` (bytes/s): S3/ElastiCache for FaaS, VM network
    /// for IaaS.
    pub bandwidth: f64,
    /// Channel latency `L` (s).
    pub latency: f64,
    /// Worker price per second (Lambda GB-s rate or instance hourly/3600).
    pub worker_price_per_s: f64,
}

impl AnalyticCase {
    /// FaaS over S3 with 3 GB functions.
    pub fn faas_s3() -> Self {
        AnalyticCase {
            bandwidth: constants::B_S3,
            latency: constants::L_S3,
            worker_price_per_s: 3.008 * lml_faas::lambda::PRICE_PER_GB_SECOND,
        }
    }

    /// FaaS over ElastiCache (cache.t3.medium).
    pub fn faas_elasticache() -> Self {
        AnalyticCase {
            bandwidth: constants::B_EC_T3,
            latency: constants::L_EC,
            ..Self::faas_s3()
        }
    }

    /// IaaS on t2.medium.
    pub fn iaas_t2() -> Self {
        AnalyticCase {
            bandwidth: constants::B_N_T2,
            latency: constants::L_N_T2,
            worker_price_per_s: 0.0464 / 3600.0,
        }
    }

    /// IaaS on c5.large.
    pub fn iaas_c5() -> Self {
        AnalyticCase {
            bandwidth: constants::B_N_C5,
            latency: constants::L_N_C5,
            worker_price_per_s: 0.085 / 3600.0,
        }
    }

    /// Dollars per second for `w` workers.
    pub fn rate(&self, w: usize) -> f64 {
        w as f64 * self.worker_price_per_s
    }
}

/// Which side of the trade-off a formula prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    Faas,
    Iaas,
}

impl Substrate {
    /// Everything that tells `FaaS(w)` from `IaaS(w)`, as data: `a` in the
    /// per-round hop count `a·w − 2` (a storage service cannot compute, so
    /// on FaaS the merged state makes one extra hop), the start-up table
    /// `t_F` or `t_I`, and whether the paper's dollar version bills
    /// start-up (Lambda bills execution only, a VM is paid from boot).
    fn terms(self) -> (f64, &'static PiecewiseLinear, bool) {
        match self {
            Substrate::Faas => (3.0, constants::t_f(), false),
            Substrate::Iaas => (2.0, constants::t_i(), true),
        }
    }
}

/// Convergence scaling factor `f(w)` — more workers can need more epochs.
/// The paper's validation uses perfect scaling (`f ≡ 1`) with measured `R`;
/// `sqrt_degradation` models workloads that scale poorly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scaling {
    Perfect,
    /// `f(w) = w^alpha` — statistical-efficiency loss with more workers.
    Power {
        alpha: f64,
    },
}

impl Scaling {
    pub fn f(&self, w: usize) -> f64 {
        match *self {
            Scaling::Perfect => 1.0,
            Scaling::Power { alpha } => (w as f64).powf(alpha),
        }
    }
}

/// `FaaS(w)` or `IaaS(w)`: start-up + loading + R·f(w)·(ρ·(a·w−2)(m/w/B + L)
/// + C/w), with `a` = 3 on FaaS and 2 on IaaS.
pub fn time(
    p: &AnalyticParams,
    c: &AnalyticCase,
    s: Substrate,
    scaling: Scaling,
    w: usize,
) -> SimTime {
    assert!(w >= 1);
    let (hops_per_worker, startup_table, _) = s.terms();
    let startup = startup_table.eval(w as f64);
    let load = p.dataset_bytes / w as f64 / constants::B_S3;
    let comm_per_round =
        (hops_per_worker * w as f64 - 2.0) * (p.model_bytes / w as f64 / c.bandwidth + c.latency);
    let per_epoch = p.rounds_per_epoch * comm_per_round + p.compute_per_epoch / w as f64;
    SimTime::secs(startup + load + p.epochs * scaling.f(w) * per_epoch)
}

/// Dollar cost `w × price × billed seconds`: FaaS bills only execution
/// (time minus start-up), IaaS bills wall time including start-up.
pub fn cost(
    p: &AnalyticParams,
    c: &AnalyticCase,
    s: Substrate,
    scaling: Scaling,
    w: usize,
) -> Cost {
    let (_, startup, bills_startup) = s.terms();
    let mut billed = time(p, c, s, scaling, w).as_secs();
    if !bills_startup {
        billed -= startup.eval(w as f64);
    }
    Cost::usd(c.rate(w) * billed)
}

/// One job on one substrate, split the way the fleet simulator uses it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// The formula's start-up term, `t_F(w)` or `t_I(w)`.
    pub startup: SimTime,
    /// Loading plus training: the formula minus its start-up term.
    pub run: SimTime,
    /// The run's dollars, `rate(w) × run`, on either substrate.
    pub dollars: Cost,
}

/// The fleet's price of one job at perfect scaling. Unlike [`cost`],
/// `dollars` never bills start-up, even on IaaS: the fleet simulates
/// start-up (and bills it) itself.
pub fn price(p: &AnalyticParams, c: &AnalyticCase, s: Substrate, w: usize) -> Price {
    let startup = s.terms().1.eval(w as f64);
    let run = time(p, c, s, Scaling::Perfect, w).as_secs() - startup;
    Price {
        startup: SimTime::secs(startup),
        run: SimTime::secs(run),
        dollars: Cost::usd(c.rate(w) * run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Substrate::{Faas, Iaas};

    /// LR on Higgs with ADMM-ish communication: ρ = 0.1 rounds/epoch,
    /// R ≈ 6 epochs, C ≈ 70 s/epoch on one worker-equivalent.
    fn lr_higgs() -> AnalyticParams {
        AnalyticParams {
            dataset_bytes: 8e9,
            model_bytes: 224.0,
            epochs: 6.0,
            rounds_per_epoch: 0.1,
            compute_per_epoch: 70.0,
        }
    }

    /// MobileNet on Cifar10 with GA-SGD: ρ = 422 rounds/epoch (54 K / 128),
    /// heavy 12 MB messages.
    fn mn_cifar() -> AnalyticParams {
        AnalyticParams {
            dataset_bytes: 220e6,
            model_bytes: 12e6,
            epochs: 15.0,
            rounds_per_epoch: 422.0,
            compute_per_epoch: 1700.0,
        }
    }

    #[test]
    fn faas_wins_communication_light_workloads() {
        // LR/Higgs: tiny model, few rounds — the FaaS start-up edge decides.
        let p = lr_higgs();
        let f = time(&p, &AnalyticCase::faas_s3(), Faas, Scaling::Perfect, 10);
        let i = time(&p, &AnalyticCase::iaas_t2(), Iaas, Scaling::Perfect, 10);
        assert!(f < i, "FaaS {f} vs IaaS {i}");
    }

    #[test]
    fn iaas_wins_communication_heavy_workloads() {
        // MN/Cifar10: 422 rounds/epoch of 12 MB — the (3w−2) storage-hop
        // penalty at 65 MB/s buries FaaS.
        let p = mn_cifar();
        let f = time(&p, &AnalyticCase::faas_s3(), Faas, Scaling::Perfect, 10);
        let i = time(&p, &AnalyticCase::iaas_t2(), Iaas, Scaling::Perfect, 10);
        assert!(i < f, "IaaS {i} vs FaaS {f}");
    }

    #[test]
    fn faas_is_not_proportionally_cheaper() {
        // Even when FaaS is much faster it is never much cheaper (§1).
        let p = lr_higgs();
        let fc = cost(&p, &AnalyticCase::faas_s3(), Faas, Scaling::Perfect, 10).as_usd();
        let ic = cost(&p, &AnalyticCase::iaas_t2(), Iaas, Scaling::Perfect, 10).as_usd();
        assert!(fc > 0.2 * ic, "FaaS ${fc} vs IaaS ${ic}");
    }

    #[test]
    fn adding_workers_has_diminishing_returns_then_hurts() {
        let p = mn_cifar();
        let c = AnalyticCase::faas_s3();
        let t10 = time(&p, &c, Faas, Scaling::Perfect, 10);
        let t50 = time(&p, &c, Faas, Scaling::Perfect, 50);
        let t200 = time(&p, &c, Faas, Scaling::Perfect, 200);
        // communication term grows with w: large fleets lose
        assert!(t50 > t10 || t200 > t50, "{t10} {t50} {t200}");
    }

    #[test]
    fn elasticache_beats_s3_per_round_in_the_model() {
        let p = mn_cifar();
        let s3 = time(&p, &AnalyticCase::faas_s3(), Faas, Scaling::Perfect, 10);
        let ec = time(
            &p,
            &AnalyticCase::faas_elasticache(),
            Faas,
            Scaling::Perfect,
            10,
        );
        assert!(ec < s3);
    }

    #[test]
    fn scaling_degradation_raises_time() {
        let p = lr_higgs();
        let c = AnalyticCase::faas_s3();
        let perfect = time(&p, &c, Faas, Scaling::Perfect, 50);
        let degraded = time(&p, &c, Faas, Scaling::Power { alpha: 0.3 }, 50);
        assert!(degraded > perfect);
    }

    /// The per-substrate formulas `time`/`cost` replaced, kept verbatim as
    /// the oracle the keyed bodies are held to bit for bit.
    mod oracle {
        use super::super::*;

        pub fn faas_time(
            p: &AnalyticParams,
            c: &AnalyticCase,
            scaling: Scaling,
            w: usize,
        ) -> SimTime {
            assert!(w >= 1);
            let startup = constants::t_f().eval(w as f64);
            let load = p.dataset_bytes / w as f64 / constants::B_S3;
            let comm_per_round =
                (3.0 * w as f64 - 2.0) * (p.model_bytes / w as f64 / c.bandwidth + c.latency);
            let per_epoch = p.rounds_per_epoch * comm_per_round + p.compute_per_epoch / w as f64;
            SimTime::secs(startup + load + p.epochs * scaling.f(w) * per_epoch)
        }

        pub fn iaas_time(
            p: &AnalyticParams,
            c: &AnalyticCase,
            scaling: Scaling,
            w: usize,
        ) -> SimTime {
            assert!(w >= 1);
            let startup = constants::t_i().eval(w as f64);
            let load = p.dataset_bytes / w as f64 / constants::B_S3;
            let comm_per_round =
                (2.0 * w as f64 - 2.0) * (p.model_bytes / w as f64 / c.bandwidth + c.latency);
            let per_epoch = p.rounds_per_epoch * comm_per_round + p.compute_per_epoch / w as f64;
            SimTime::secs(startup + load + p.epochs * scaling.f(w) * per_epoch)
        }

        pub fn faas_cost(p: &AnalyticParams, c: &AnalyticCase, scaling: Scaling, w: usize) -> Cost {
            let t = faas_time(p, c, scaling, w).as_secs() - constants::t_f().eval(w as f64);
            Cost::usd(w as f64 * c.worker_price_per_s * t)
        }

        pub fn iaas_cost(p: &AnalyticParams, c: &AnalyticCase, scaling: Scaling, w: usize) -> Cost {
            let t = iaas_time(p, c, scaling, w).as_secs();
            Cost::usd(w as f64 * c.worker_price_per_s * t)
        }
    }

    #[test]
    fn keyed_bodies_match_the_per_substrate_oracle_bit_for_bit() {
        let cases = [
            AnalyticCase::faas_s3(),
            AnalyticCase::faas_elasticache(),
            AnalyticCase::iaas_t2(),
            AnalyticCase::iaas_c5(),
        ];
        let mut rng = lml_sim::Pcg64::new(0x5eed_0053);
        for (c, _) in cases.iter().cycle().zip(0..2_000) {
            let p = AnalyticParams {
                dataset_bytes: rng.range(1e6, 1e11),
                model_bytes: rng.range(8.0, 1e8),
                epochs: rng.range(0.1, 100.0),
                rounds_per_epoch: rng.range(0.01, 2_000.0),
                compute_per_epoch: rng.range(0.1, 20_000.0),
            };
            let scaling = if rng.coin(0.5) {
                Scaling::Perfect
            } else {
                Scaling::Power {
                    alpha: rng.range(0.0, 1.0),
                }
            };
            let w = 1 + rng.index(1_000);
            let bits = |t: SimTime| t.as_secs().to_bits();
            let usd = |d: Cost| d.as_usd().to_bits();
            let want_f = oracle::faas_time(&p, c, scaling, w);
            let want_i = oracle::iaas_time(&p, c, scaling, w);
            assert_eq!(bits(time(&p, c, Faas, scaling, w)), bits(want_f));
            assert_eq!(bits(time(&p, c, Iaas, scaling, w)), bits(want_i));
            let want = oracle::faas_cost(&p, c, scaling, w);
            assert_eq!(usd(cost(&p, c, Faas, scaling, w)), usd(want));
            let want = oracle::iaas_cost(&p, c, scaling, w);
            assert_eq!(usd(cost(&p, c, Iaas, scaling, w)), usd(want));
        }
    }
}
