//! Synthetic dataset generators.
//!
//! One module per paper dataset (Figure 6). Every generator's
//! `generate_rows(n, seed)` is deterministic in its seed and returns
//! exactly `n` rows as `(Dataset, DatasetSpec)`: the scaled sample for the
//! numerics plus paper-scale metadata for the system model. Each module's
//! `DEFAULT_ROWS` is its default sample size
//! ([`DatasetId::default_rows`]).
//!
//! | Paper dataset | Generator | Dim | Sample rows (default) | Paper rows |
//! |---|---|---|---|---|
//! | Higgs (8 GB) | [`higgs`] | 28 dense | 110 000 | 11 M |
//! | RCV1 (1.2 GB) | [`rcv1`] | 47 236 sparse | 6 970 | 697 K |
//! | Cifar10 (220 MB) | [`cifar10`] | 1 024 dense | 6 000 | 60 K |
//! | YFCC100M subset (65.5 GB) | [`yfcc`] | 4 096 dense | 2 000 | 4 M |
//! | Criteo (30 GB) | [`criteo`] | 1 M sparse | 10 000 | 52 M |

pub mod cifar10;
pub mod criteo;
pub mod higgs;
pub mod rcv1;
pub mod yfcc;

use crate::dataset::Dataset;
use crate::spec::DatasetSpec;

/// A generated dataset bundle: sample + paper-scale spec.
#[derive(Debug, Clone)]
pub struct Generated {
    pub data: Dataset,
    pub spec: DatasetSpec,
}

/// Which paper dataset to generate — the single entry point used by the
/// experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    Higgs,
    Rcv1,
    Cifar10,
    Yfcc100m,
    Criteo,
}

impl DatasetId {
    pub const ALL: [DatasetId; 5] = [
        DatasetId::Higgs,
        DatasetId::Rcv1,
        DatasetId::Cifar10,
        DatasetId::Yfcc100m,
        DatasetId::Criteo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Higgs => "Higgs",
            DatasetId::Rcv1 => "RCV1",
            DatasetId::Cifar10 => "Cifar10",
            DatasetId::Yfcc100m => "YFCC100M",
            DatasetId::Criteo => "Criteo",
        }
    }

    /// Rows in the default-size sample (the table above).
    pub fn default_rows(self) -> usize {
        match self {
            DatasetId::Higgs => higgs::DEFAULT_ROWS,
            DatasetId::Rcv1 => rcv1::DEFAULT_ROWS,
            DatasetId::Cifar10 => cifar10::DEFAULT_ROWS,
            DatasetId::Yfcc100m => yfcc::DEFAULT_ROWS,
            DatasetId::Criteo => criteo::DEFAULT_ROWS,
        }
    }

    /// Generate a reduced sample (for fast tests and the sampling-based
    /// epoch estimator of §5.3, which trains on 10% of the data).
    pub fn generate_rows(self, rows: usize, seed: u64) -> Generated {
        match self {
            DatasetId::Higgs => higgs::generate_rows(rows, seed),
            DatasetId::Rcv1 => rcv1::generate_rows(rows, seed),
            DatasetId::Cifar10 => cifar10::generate_rows(rows, seed),
            DatasetId::Yfcc100m => yfcc::generate_rows(rows, seed),
            DatasetId::Criteo => criteo::generate_rows(rows, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Row;

    /// One line per dataset: its dimension and an FNV-1a over the first
    /// 200 rows at seed 42 (each row's label bits, then its entries' bits,
    /// with the index of each stored sparse entry). A mismatch prints the
    /// whole new table to paste over this one.
    const GOLDEN: &str = "\
Higgs dim=28 rows=6da6f9c74c6c8049
RCV1 dim=47236 rows=510258bfbf219ae0
Cifar10 dim=1024 rows=053ae1026ffd1591
YFCC100M dim=4096 rows=4c66daf85865aa71
Criteo dim=1000000 rows=99d9423e57c1ab02
";

    #[test]
    fn every_dataset_matches_the_golden_table() {
        let fnv = |h: u64, bytes: &[u8]| {
            let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            bytes.iter().fold(h, fold)
        };
        let mut table = String::new();
        for id in DatasetId::ALL {
            let g = id.generate_rows(200, 42);
            assert_eq!(g.data.len(), 200, "{}", id.name());
            assert_eq!(g.spec.name, id.name());
            let mut h = 0xcbf2_9ce4_8422_2325;
            for i in 0..g.data.len() {
                h = fnv(h, &g.data.label(i).to_bits().to_le_bytes());
                match g.data.row(i) {
                    Row::Dense(x) => {
                        for v in x {
                            h = fnv(h, &v.to_bits().to_le_bytes());
                        }
                    }
                    Row::Sparse(x) => {
                        for (j, v) in x.iter() {
                            h = fnv(h, &j.to_le_bytes());
                            h = fnv(h, &v.to_bits().to_le_bytes());
                        }
                    }
                }
            }
            table += &format!("{} dim={} rows={h:016x}\n", id.name(), g.data.dim());
        }
        assert!(table == GOLDEN, "generated rows moved; new table:\n{table}");
    }

    #[test]
    fn seeds_change_content() {
        let a = DatasetId::Higgs.generate_rows(100, 1);
        let b = DatasetId::Higgs.generate_rows(100, 2);
        let wa = a.data.row(0).dot(&vec![1.0; 28]);
        let wb = b.data.row(0).dot(&vec![1.0; 28]);
        assert_ne!(wa, wb);
    }
}
