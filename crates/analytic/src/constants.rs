//! Table 6 of the paper, as code.
//!
//! The measured constants of the analytical model. The simulator's service
//! profiles are built from the same numbers; the `table6_constants`
//! experiment binary re-measures them *from the simulator* and prints both
//! columns side by side, closing the calibration loop.

use lml_faas::startup::startup_table;
use lml_iaas::cluster::iaas_startup_table;
use lml_sim::PiecewiseLinear;

/// One Table 6 row: symbol, configuration, mean value, spread.
#[derive(Debug, Clone)]
pub struct Constant {
    pub symbol: &'static str,
    pub config: &'static str,
    pub mean: f64,
    pub spread: f64,
    pub unit: &'static str,
}

/// `t_F(w)` — FaaS start-up (seconds at 10/50/100/200 workers). Returns
/// the process-wide cached table: this sits on the simulator's hot path.
pub fn t_f() -> &'static PiecewiseLinear {
    startup_table()
}

/// `t_I(w)` — IaaS start-up. Returns the process-wide cached table.
pub fn t_i() -> &'static PiecewiseLinear {
    iaas_startup_table()
}

/// S3 bandwidth, bytes/s.
pub const B_S3: f64 = 65e6;
/// S3 latency, seconds.
pub const L_S3: f64 = 8e-2;
/// VM network bandwidth, t2.medium↔t2.medium.
pub(crate) const B_N_T2: f64 = 120e6;
/// VM network latency, t2.
pub(crate) const L_N_T2: f64 = 5e-4;
/// VM network bandwidth, c5.large↔c5.large.
pub(crate) const B_N_C5: f64 = 225e6;
/// VM network latency, c5.
pub(crate) const L_N_C5: f64 = 1.5e-4;
/// ElastiCache latency.
pub const L_EC: f64 = 1e-2;

/// The full Table 6, row by row (paper means and spreads).
pub fn table6() -> Vec<Constant> {
    vec![
        Constant {
            symbol: "t_F(w)",
            config: "w=10",
            mean: 1.2,
            spread: 0.1,
            unit: "s",
        },
        Constant {
            symbol: "t_F(w)",
            config: "w=50",
            mean: 11.0,
            spread: 1.0,
            unit: "s",
        },
        Constant {
            symbol: "t_F(w)",
            config: "w=100",
            mean: 18.0,
            spread: 1.0,
            unit: "s",
        },
        Constant {
            symbol: "t_F(w)",
            config: "w=200",
            mean: 35.0,
            spread: 3.0,
            unit: "s",
        },
        Constant {
            symbol: "t_I(w)",
            config: "w=10",
            mean: 132.0,
            spread: 6.0,
            unit: "s",
        },
        Constant {
            symbol: "t_I(w)",
            config: "w=50",
            mean: 160.0,
            spread: 5.0,
            unit: "s",
        },
        Constant {
            symbol: "t_I(w)",
            config: "w=100",
            mean: 292.0,
            spread: 8.0,
            unit: "s",
        },
        Constant {
            symbol: "t_I(w)",
            config: "w=200",
            mean: 606.0,
            spread: 12.0,
            unit: "s",
        },
        Constant {
            symbol: "B_S3",
            config: "Amazon S3",
            mean: 65.0,
            spread: 7.0,
            unit: "MB/s",
        },
        Constant {
            symbol: "B_EBS",
            config: "gp2",
            mean: 1950.0,
            spread: 50.0,
            unit: "MB/s",
        },
        Constant {
            symbol: "B_n",
            config: "t2.medium-t2.medium",
            mean: 120.0,
            spread: 6.0,
            unit: "MB/s",
        },
        Constant {
            symbol: "B_n",
            config: "c5.large-c5.large",
            mean: 225.0,
            spread: 8.0,
            unit: "MB/s",
        },
        Constant {
            symbol: "B_EC",
            config: "cache.t3.medium",
            mean: 630.0,
            spread: 25.0,
            unit: "MB/s",
        },
        Constant {
            symbol: "B_EC",
            config: "cache.m5.large",
            mean: 1260.0,
            spread: 35.0,
            unit: "MB/s",
        },
        Constant {
            symbol: "L_S3",
            config: "Amazon S3",
            mean: 8e-2,
            spread: 2e-2,
            unit: "s",
        },
        Constant {
            symbol: "L_EBS",
            config: "gp2",
            mean: 3e-5,
            spread: 0.5e-5,
            unit: "s",
        },
        Constant {
            symbol: "L_n",
            config: "t2.medium-t2.medium",
            mean: 5e-4,
            spread: 1e-4,
            unit: "s",
        },
        Constant {
            symbol: "L_n",
            config: "c5.large-c5.large",
            mean: 1.5e-4,
            spread: 0.2e-4,
            unit: "s",
        },
        Constant {
            symbol: "L_EC",
            config: "cache.t3.medium",
            mean: 1e-2,
            spread: 0.2e-2,
            unit: "s",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_tables_hit_table6_knots() {
        assert!((t_f().eval(10.0) - 1.2).abs() < 1e-9);
        assert!((t_i().eval(100.0) - 292.0).abs() < 1e-9);
    }

    #[test]
    fn table6_is_complete() {
        let t = table6();
        assert_eq!(t.len(), 19);
        assert!(t.iter().any(|c| c.symbol == "B_EC" && c.mean == 630.0));
    }

    #[test]
    fn profile_constants_agree_with_simulator() {
        // The simulator's S3 profile must match Table 6 (single source of
        // truth check).
        let s3 = lml_storage::ServiceProfile::s3();
        assert_eq!(s3.stream_bw, B_S3);
        assert_eq!(s3.latency.as_secs(), L_S3);
        let mc = lml_storage::ServiceProfile::memcached(lml_storage::CacheNode::T3Medium);
        let b_ec = table6().into_iter().find(|c| c.symbol == "B_EC");
        assert_eq!(b_ec.map(|c| c.mean * 1e6), Some(mc.stream_bw));
        assert_eq!(mc.latency.as_secs(), L_EC);
    }
}
