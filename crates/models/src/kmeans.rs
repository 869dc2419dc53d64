//! K-means clustering trained by expectation maximization.
//!
//! The paper's distributed k-means (§2.1.2, §4.3) aggregates **sufficient
//! statistics** — per-cluster feature sums and counts — once per epoch. That
//! statistic vector plays the role the gradient plays for SGD: it is what
//! goes over the communication channel, with length `k·(d+1)` (the paper's
//! Table 1 varies `k` from 10 to 1000 precisely to scale this payload).

use lml_data::Dataset;
use lml_linalg::blocked::nearest_row;
use lml_linalg::Matrix;
use lml_sim::Pcg64;

/// K-means model: `k × d` centroid matrix.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Matrix,
}

impl KMeans {
    /// Initialize centroids from `k` random distinct examples (the paper's
    /// implementations seed from data).
    pub fn init_from_data(data: &Dataset, k: usize, seed: u64) -> Self {
        assert!(k >= 1 && k <= data.len(), "k={k} must be in [1, n]");
        let mut rng = Pcg64::new(seed ^ 0x4b4d_4541);
        let picks = rng.sample_indices(data.len(), k);
        let mut centroids = Matrix::zeros(k, data.dim());
        for (c, &row) in picks.iter().enumerate() {
            match data.row(row) {
                lml_data::Row::Dense(x) => centroids.row_mut(c).copy_from_slice(x),
                lml_data::Row::Sparse(sv) => {
                    for (i, v) in sv.iter() {
                        centroids.set(c, i as usize, v);
                    }
                }
            }
        }
        KMeans { centroids }
    }

    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    fn feature_dim(&self) -> usize {
        self.centroids.cols()
    }

    /// Length of the flat parameter/statistic vector: `k·(d+1)`.
    pub fn stats_len(&self) -> usize {
        self.k() * (self.feature_dim() + 1)
    }

    /// Flat view of the centroids (the "model" that asynchronous protocols
    /// write to the storage channel).
    pub fn params(&self) -> &[f64] {
        self.centroids.as_flat()
    }

    pub fn params_mut(&mut self) -> &mut [f64] {
        self.centroids.as_flat_mut()
    }

    /// Nearest centroid of every row of `rows`, in order: `f` receives the
    /// row as a dense slice (a sparse row is written into one reused
    /// buffer), the centroid's index and the squared distance to it.
    fn for_each_nearest(
        &self,
        data: &Dataset,
        rows: &[usize],
        mut f: impl FnMut(&[f64], usize, f64),
    ) {
        let mut dense_buf = match data {
            Dataset::Dense(_) => Vec::new(),
            Dataset::Sparse(_) => vec![0.0; self.feature_dim()],
        };
        for &r in rows {
            let x: &[f64] = match data.row(r) {
                lml_data::Row::Dense(x) => x,
                lml_data::Row::Sparse(sv) => {
                    sv.write_dense(&mut dense_buf);
                    &dense_buf
                }
            };
            let (best, best_d) = nearest_row(self.centroids.as_flat(), x);
            f(x, best, best_d);
        }
    }

    /// Nearest centroid of row `r`.
    pub fn assign(&self, data: &Dataset, r: usize) -> usize {
        let mut nearest = 0;
        self.for_each_nearest(data, &[r], |_, best, _| nearest = best);
        nearest
    }

    /// E-step over `rows`: per-cluster feature sums and counts, flattened as
    /// `[sum_0 (d), count_0 (1), sum_1 (d), count_1 (1), ...]`. These vectors
    /// **sum across workers** — the aggregation the communication layer
    /// performs.
    pub fn sufficient_stats(&self, data: &Dataset, rows: &[usize]) -> Vec<f64> {
        let mut stats = vec![0.0; self.stats_len()];
        self.add_sufficient_stats(data, rows, &mut stats);
        stats
    }

    /// [`KMeans::sufficient_stats`] added into `stats` (of
    /// [`KMeans::stats_len`]); a zeroed `stats` receives the same bits.
    pub(crate) fn add_sufficient_stats(&self, data: &Dataset, rows: &[usize], stats: &mut [f64]) {
        assert_eq!(stats.len(), self.stats_len(), "stats length mismatch");
        let d = self.feature_dim();
        self.for_each_nearest(data, rows, |x, best, _| {
            let cluster = stats.chunks_exact_mut(d + 1).nth(best);
            let Some((count, sum)) = cluster.and_then(<[f64]>::split_last_mut) else {
                return;
            };
            for (s, v) in sum.iter_mut().zip(x) {
                *s += v;
            }
            *count += 1.0;
        });
    }

    /// M-step: replace centroids with the means in the aggregated statistics.
    /// Empty clusters keep their previous centroid (standard practice).
    pub(crate) fn apply_stats(&mut self, stats: &[f64]) {
        let d = self.feature_dim();
        assert_eq!(stats.len(), self.stats_len(), "stats length mismatch");
        for c in 0..self.k() {
            let base = c * (d + 1);
            let count = stats[base + d];
            if count > 0.0 {
                let row = self.centroids.row_mut(c);
                for j in 0..d {
                    row[j] = stats[base + j] / count;
                }
            }
        }
    }

    /// Clustering objective: mean squared distance to the nearest centroid.
    pub fn loss(&self, data: &Dataset, rows: &[usize]) -> f64 {
        assert!(!rows.is_empty());
        let mut total = 0.0;
        self.for_each_nearest(data, rows, |_, _, best_d| total += best_d);
        total / rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::dataset::DenseDataset;
    use lml_data::generators::DatasetId;

    /// One full EM epoch on `rows`: E and M steps on one machine.
    fn em_epoch(km: &mut KMeans, data: &Dataset, rows: &[usize]) {
        let stats = km.sufficient_stats(data, rows);
        km.apply_stats(&stats);
    }

    fn two_blob_data() -> Dataset {
        // 2 tight blobs at (0,0) and (10,10)
        let mut flat = Vec::new();
        let mut rng = Pcg64::new(1);
        for _ in 0..50 {
            flat.push(rng.normal() * 0.1);
            flat.push(rng.normal() * 0.1);
        }
        for _ in 0..50 {
            flat.push(10.0 + rng.normal() * 0.1);
            flat.push(10.0 + rng.normal() * 0.1);
        }
        let m = Matrix::from_flat(100, 2, flat);
        Dataset::Dense(DenseDataset::new(m, vec![0.0; 100]))
    }

    #[test]
    fn em_finds_two_blobs() {
        let data = two_blob_data();
        let mut km = KMeans::init_from_data(&data, 2, 7);
        let rows: Vec<usize> = (0..data.len()).collect();
        for _ in 0..10 {
            em_epoch(&mut km, &data, &rows);
        }
        let loss = km.loss(&data, &rows);
        assert!(loss < 0.1, "loss {loss} should be tiny for separated blobs");
        // centroids near (0,0) and (10,10) in some order
        let c0 = km.centroids.row(0);
        let c1 = km.centroids.row(1);
        let near_origin = c0[0].abs() < 1.0 || c1[0].abs() < 1.0;
        let near_ten = c0[0] > 9.0 || c1[0] > 9.0;
        assert!(near_origin && near_ten);
    }

    #[test]
    fn em_loss_is_monotone_nonincreasing() {
        let data = DatasetId::Higgs.generate_rows(2_000, 42).data;
        let mut km = KMeans::init_from_data(&data, 10, 42);
        let rows: Vec<usize> = (0..data.len()).collect();
        let mut prev = km.loss(&data, &rows);
        for _ in 0..8 {
            em_epoch(&mut km, &data, &rows);
            let l = km.loss(&data, &rows);
            assert!(l <= prev + 1e-9, "EM must not increase loss: {l} > {prev}");
            prev = l;
        }
    }

    #[test]
    fn distributed_stats_equal_local_em() {
        // Summing per-partition sufficient statistics must give exactly the
        // same M-step as a single pass — the invariant that makes k-means
        // distributable.
        let data = DatasetId::Higgs.generate_rows(500, 3).data;
        let rows: Vec<usize> = (0..data.len()).collect();
        let km = KMeans::init_from_data(&data, 5, 1);

        let full = km.sufficient_stats(&data, &rows);
        let part1 = km.sufficient_stats(&data, &rows[..250]);
        let part2 = km.sufficient_stats(&data, &rows[250..]);
        let summed: Vec<f64> = part1.iter().zip(&part2).map(|(a, b)| a + b).collect();
        for (a, b) in full.iter().zip(&summed) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        let data = two_blob_data();
        let mut km = KMeans {
            centroids: Matrix::from_flat(
                2,
                2,
                vec![0.0, 0.0, 100.0, 100.0], // second centroid far from all data
            ),
        };
        let rows: Vec<usize> = (0..data.len()).collect();
        // All points still closer to centroid 1 than (100,100)? No: blob at
        // (10,10) is nearer to (100,100)? dist to (0,0) = 200, to (100,100)
        // = 16200 — everything assigns to centroid 0.
        em_epoch(&mut km, &data, &rows);
        assert_eq!(
            km.centroids.row(1),
            &[100.0, 100.0],
            "empty cluster unchanged"
        );
    }

    #[test]
    fn stats_len_matches_table1_payload_scaling() {
        // Table 1 varies k=10 vs k=1000 to scale the aggregation payload.
        let data = DatasetId::Higgs.generate_rows(100, 1).data;
        let small = KMeans::init_from_data(&data, 10, 1);
        let large = KMeans::init_from_data(&data, 100, 1);
        assert_eq!(small.stats_len(), 10 * 29);
        assert_eq!(large.stats_len(), 100 * 29);
    }

    #[test]
    fn works_on_sparse_data() {
        let data = DatasetId::Rcv1.generate_rows(100, 5).data;
        let mut km = KMeans::init_from_data(&data, 3, 2);
        let rows: Vec<usize> = (0..data.len()).collect();
        let before = km.loss(&data, &rows);
        em_epoch(&mut km, &data, &rows);
        let after = km.loss(&data, &rows);
        assert!(after <= before + 1e-9);
    }

    /// The per-centroid scan the rows kernel replaced, kept as the oracle:
    /// one `dist2` chain per centroid, first strict minimum wins.
    fn oracle_nearest(km: &KMeans, x: &[f64]) -> (usize, f64) {
        let mut best = (0, f64::INFINITY);
        for c in 0..km.k() {
            let dd = lml_linalg::dense::dist2(x, km.centroids.row(c));
            if dd < best.1 {
                best = (c, dd);
            }
        }
        best
    }

    #[test]
    fn blocked_e_step_equals_the_scalar_scan_bit_for_bit() {
        // Dense and sparse rows, cluster counts on both sides of the rows
        // kernel's block width, dims that are no multiple of anything.
        let datasets = [
            DatasetId::Higgs.generate_rows(120, 11).data,
            DatasetId::Rcv1.generate_rows(60, 12).data,
        ];
        for data in &datasets {
            let rows: Vec<usize> = (0..data.len()).rev().collect();
            for k in [1, 2, 3, 4, 5, 7, 8, 9, 13] {
                let km = KMeans::init_from_data(data, k, k as u64);
                let d = km.feature_dim();
                let mut want = vec![0.0; km.stats_len()];
                let mut want_loss = 0.0;
                for &r in &rows {
                    let x = match data.row(r) {
                        lml_data::Row::Dense(x) => x.to_vec(),
                        lml_data::Row::Sparse(sv) => sv.to_dense(d),
                    };
                    let (best, best_d) = oracle_nearest(&km, &x);
                    assert_eq!(km.assign(data, r), best, "k={k} row {r}");
                    let cluster = want.iter_mut().skip(best * (d + 1));
                    for (sum, v) in cluster.zip(x.iter().chain(&[1.0])) {
                        *sum += v;
                    }
                    want_loss += best_d;
                }
                let got = km.sufficient_stats(data, &rows);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "k={k}");
                let want_loss = want_loss / rows.len() as f64;
                assert_eq!(km.loss(data, &rows).to_bits(), want_loss.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn k_larger_than_n_panics() {
        let data = two_blob_data();
        KMeans::init_from_data(&data, 101, 1);
    }
}
