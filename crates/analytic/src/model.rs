//! The FaaS(w) / IaaS(w) formulas: one body keyed by [`Substrate`] and
//! evaluated through the closed form [`Scenario`], its dollar version, and
//! [`price`], the form the fleet simulator consumes.

use crate::constants;
use lml_faas::lambda::{FUNCTION_GB, PRICE_PER_GB_SECOND};
use lml_iaas::InstanceType;
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
    pub const fn faas_s3() -> Self {
        AnalyticCase {
            bandwidth: constants::B_S3,
            latency: constants::L_S3,
            worker_price_per_s: FUNCTION_GB * PRICE_PER_GB_SECOND,
        }
    }

    /// IaaS on t2.medium.
    pub const fn iaas_t2() -> Self {
        AnalyticCase {
            bandwidth: constants::B_N_T2,
            latency: constants::L_N_T2,
            worker_price_per_s: InstanceType::T2Medium.hourly().as_usd() / 3600.0,
        }
    }

    /// IaaS on c5.large.
    pub const fn iaas_c5() -> Self {
        AnalyticCase {
            bandwidth: constants::B_N_C5,
            latency: constants::L_N_C5,
            worker_price_per_s: InstanceType::C5Large.hourly().as_usd() / 3600.0,
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

/// The §5.3 closed form, `startup + load + R·(ρ·comm_round + compute)`,
/// over already-evaluated terms. [`time`], [`cost`] and [`price`] build
/// one from the formula's inputs; the `whatif` case studies transform one
/// built from a simulated run.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub workers: usize,
    /// Start-up seconds.
    pub startup: f64,
    /// Per-worker data-loading seconds.
    pub load: f64,
    /// Epochs to converge.
    pub epochs: f64,
    /// Communication rounds per epoch.
    pub rounds_per_epoch: f64,
    /// Seconds per communication round.
    pub comm_round: f64,
    /// Per-worker compute seconds per epoch.
    pub compute_per_epoch: f64,
    /// Billed rate, $/s, while workers execute (Lambda) or while the
    /// cluster exists (EC2) — see `bills_startup`.
    pub rate_per_s: f64,
    /// Whether the start-up window is billed (IaaS yes, FaaS no).
    pub bills_startup: bool,
}

impl Scenario {
    /// End-to-end runtime: `startup + load + epochs·(ρ·comm_round +
    /// compute)`.
    pub fn time(&self) -> SimTime {
        SimTime::secs(
            self.startup
                + self.load
                + self.epochs * (self.rounds_per_epoch * self.comm_round + self.compute_per_epoch),
        )
    }

    /// End-to-end dollars: `rate × billed seconds`.
    pub fn cost(&self) -> Cost {
        Cost::usd(self.rate_per_s * self.billed_secs())
    }

    /// Lambda bills execution only (time minus start-up); a VM is paid
    /// from boot.
    fn billed_secs(&self) -> f64 {
        let time = self.time().as_secs();
        if self.bills_startup {
            time
        } else {
            time - self.startup
        }
    }
}

/// The formula's terms for `w` workers on substrate `s`: start-up,
/// loading `s/w/B_S3`, one round's `(a·w − 2)(m/w/B + L)` with `a` = 3 on
/// FaaS and 2 on IaaS, and compute `C/w`.
fn scenario(p: &AnalyticParams, c: &AnalyticCase, s: Substrate, w: usize) -> Scenario {
    assert!(w >= 1);
    let (hops_per_worker, startup_table, bills_startup) = s.terms();
    let wf = w as f64;
    Scenario {
        name: String::new(),
        workers: w,
        startup: startup_table.eval(wf),
        load: p.dataset_bytes / wf / constants::B_S3,
        epochs: p.epochs,
        rounds_per_epoch: p.rounds_per_epoch,
        comm_round: (hops_per_worker * wf - 2.0) * (p.model_bytes / wf / c.bandwidth + c.latency),
        compute_per_epoch: p.compute_per_epoch / wf,
        rate_per_s: c.rate(w),
        bills_startup,
    }
}

/// `FaaS(w)` or `IaaS(w)`: start-up + loading + R·(ρ·(a·w−2)(m/w/B + L)
/// + C/w), with `a` = 3 on FaaS and 2 on IaaS.
pub fn time(p: &AnalyticParams, c: &AnalyticCase, s: Substrate, w: usize) -> SimTime {
    scenario(p, c, s, w).time()
}

/// Dollar cost `w × price × billed seconds`: FaaS bills only execution
/// (time minus start-up), IaaS bills wall time including start-up.
pub fn cost(p: &AnalyticParams, c: &AnalyticCase, s: Substrate, w: usize) -> Cost {
    scenario(p, c, s, w).cost()
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

/// The fleet's price of one job. Unlike [`cost`], `dollars` never bills
/// start-up, even on IaaS: the fleet simulates start-up (and bills it)
/// itself.
pub fn price(p: &AnalyticParams, c: &AnalyticCase, s: Substrate, w: usize) -> Price {
    let unbilled_startup = Scenario {
        bills_startup: false,
        ..scenario(p, c, s, w)
    };
    Price {
        startup: SimTime::secs(unbilled_startup.startup),
        run: SimTime::secs(unbilled_startup.billed_secs()),
        dollars: unbilled_startup.cost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Substrate::{Faas, Iaas};

    /// FaaS over ElastiCache (cache.t3.medium): the simulator's memcached
    /// profile, which Table 6's `B_EC` and `L_EC` describe.
    fn faas_elasticache() -> AnalyticCase {
        let ec = lml_storage::ServiceProfile::memcached(lml_storage::CacheNode::T3Medium);
        AnalyticCase {
            bandwidth: ec.stream_bw,
            latency: constants::L_EC,
            ..AnalyticCase::faas_s3()
        }
    }

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
        let f = time(&p, &AnalyticCase::faas_s3(), Faas, 10);
        let i = time(&p, &AnalyticCase::iaas_t2(), Iaas, 10);
        assert!(f < i, "FaaS {f} vs IaaS {i}");
    }

    #[test]
    fn iaas_wins_communication_heavy_workloads() {
        // MN/Cifar10: 422 rounds/epoch of 12 MB — the (3w−2) storage-hop
        // penalty at 65 MB/s buries FaaS.
        let p = mn_cifar();
        let f = time(&p, &AnalyticCase::faas_s3(), Faas, 10);
        let i = time(&p, &AnalyticCase::iaas_t2(), Iaas, 10);
        assert!(i < f, "IaaS {i} vs FaaS {f}");
    }

    #[test]
    fn faas_is_not_proportionally_cheaper() {
        // Even when FaaS is much faster it is never much cheaper (§1).
        let p = lr_higgs();
        let fc = cost(&p, &AnalyticCase::faas_s3(), Faas, 10).as_usd();
        let ic = cost(&p, &AnalyticCase::iaas_t2(), Iaas, 10).as_usd();
        assert!(fc > 0.2 * ic, "FaaS ${fc} vs IaaS ${ic}");
    }

    #[test]
    fn adding_workers_has_diminishing_returns_then_hurts() {
        let p = mn_cifar();
        let c = AnalyticCase::faas_s3();
        let t10 = time(&p, &c, Faas, 10);
        let t50 = time(&p, &c, Faas, 50);
        let t200 = time(&p, &c, Faas, 200);
        // communication term grows with w: large fleets lose
        assert!(t50 > t10 || t200 > t50, "{t10} {t50} {t200}");
    }

    #[test]
    fn elasticache_beats_s3_per_round_in_the_model() {
        let p = mn_cifar();
        let s3 = time(&p, &AnalyticCase::faas_s3(), Faas, 10);
        let ec = time(&p, &faas_elasticache(), Faas, 10);
        assert!(ec < s3);
    }

    /// The cases read their prices from `lml-faas` and `lml-iaas`, and the
    /// bits are the ones the old literal expressions gave.
    #[test]
    fn worker_prices_match_the_old_literals_bit_for_bit() {
        use std::hint::black_box;
        let faas = black_box(3.008) * PRICE_PER_GB_SECOND;
        let pins = [
            (AnalyticCase::faas_s3(), faas),
            (faas_elasticache(), faas),
            (AnalyticCase::iaas_t2(), black_box(0.0464) / 3600.0),
            (AnalyticCase::iaas_c5(), black_box(0.085) / 3600.0),
        ];
        for (case, want) in pins {
            assert_eq!(case.worker_price_per_s.to_bits(), want.to_bits());
        }
    }

    /// One line per [`AnalyticCase`] (the three constructors and
    /// `faas_elasticache` above), over its share of 2,000 random
    /// workloads: an FNV-1a over the `to_bits` of [`time`], of [`cost`]
    /// and of [`price`]'s three fields, each on both substrates.
    /// A moved column names the formula that moved; the failure prints the
    /// whole new table to paste over it.
    const GOLDEN: &str = "\
faas_s3 time=fd2fcfc6c3769fa0 cost=221614040b83ae70 price=62d3219e63222594
faas_elasticache time=d16061b93fab7be4 cost=14df07743f6567df price=c2bfc5ee0d58fd63
iaas_t2 time=caf6d95b2cdef2b7 cost=9bef1b854c3bd8bc price=3f789e5d014805de
iaas_c5 time=df3b9f90f991fd3b cost=bd05a58db089bd4b price=b0d156ef910fffc6
";

    #[test]
    fn every_formula_matches_the_golden_table() {
        let fnv = |h: u64, bits: u64| {
            let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            bits.to_le_bytes().iter().fold(h, fold)
        };
        let offset = 0xcbf2_9ce4_8422_2325_u64;
        let mut lines = [
            ("faas_s3", AnalyticCase::faas_s3(), [offset; 3]),
            ("faas_elasticache", faas_elasticache(), [offset; 3]),
            ("iaas_t2", AnalyticCase::iaas_t2(), [offset; 3]),
            ("iaas_c5", AnalyticCase::iaas_c5(), [offset; 3]),
        ];
        let mut rng = lml_sim::Pcg64::new(0x5eed_0053);
        // 2,000 cases, dealt to the four cases in turn.
        for _ in 0..500 {
            for (_, c, [time_h, cost_h, price_h]) in &mut lines {
                let p = AnalyticParams {
                    dataset_bytes: rng.range(1e6, 1e11),
                    model_bytes: rng.range(8.0, 1e8),
                    epochs: rng.range(0.1, 100.0),
                    rounds_per_epoch: rng.range(0.01, 2_000.0),
                    compute_per_epoch: rng.range(0.1, 20_000.0),
                };
                let w = 1 + rng.index(1_000);
                for s in [Faas, Iaas] {
                    *time_h = fnv(*time_h, time(&p, c, s, w).as_secs().to_bits());
                    *cost_h = fnv(*cost_h, cost(&p, c, s, w).as_usd().to_bits());
                    let got = price(&p, c, s, w);
                    for v in [
                        got.startup.as_secs(),
                        got.run.as_secs(),
                        got.dollars.as_usd(),
                    ] {
                        *price_h = fnv(*price_h, v.to_bits());
                    }
                }
            }
        }
        let table: String = lines
            .iter()
            .map(|(name, _, [t, c, p])| {
                format!("{name} time={t:016x} cost={c:016x} price={p:016x}\n")
            })
            .collect();
        assert!(
            table == GOLDEN,
            "the analytic formulas moved; new table:\n{table}"
        );
    }
}
