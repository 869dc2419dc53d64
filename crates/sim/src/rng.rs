//! Deterministic random number generation.
//!
//! A self-contained PCG64 (XSL-RR 128/64) implementation so the simulator has
//! no external randomness dependency and is bit-reproducible across
//! platforms. All dataset generation, mini-batch sampling, initialization and
//! timing jitter in the repository flows through [`Pcg64`].

/// PCG XSL-RR 128/64 pseudo-random generator.
///
/// State transition is a 128-bit LCG; output applies an xor-shift-low and a
/// random rotation, as in the reference PCG implementation.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

impl Pcg64 {
    /// Create a generator from a 64-bit seed. Distinct seeds give
    /// independent-looking streams.
    pub fn new(seed: u64) -> Self {
        let mut rng = Pcg64 {
            state: 0,
            inc: ((seed as u128) << 65) | 0x5851_f42d_4c95_7f2d, // odd increment
        };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(seed as u128);
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng
    }

    /// Derive a child generator with an independent stream. Used to give each
    /// simulated worker its own RNG while staying reproducible.
    pub fn split(&mut self, tag: u64) -> Pcg64 {
        let s = self.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Pcg64::new(s)
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let rot = (self.state >> 122) as u32;
        let xsl = ((self.state >> 64) as u64) ^ (self.state as u64);
        xsl.rotate_right(rot)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` using Lemire rejection for lack of bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Standard normal via Marsaglia polar method.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    pub fn coin(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Zipf-distributed index in `[0, n)` with exponent `s` (rejection
    /// sampling; used to draw realistic sparse-feature indices).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n >= 1);
        // Inverse-CDF on the continuous approximation, then clamp.
        let n_f = n as f64;
        if (s - 1.0).abs() < 1e-9 {
            // H(x) = ln(x+1); inverse: exp(u * ln(n+1)) - 1
            let u = self.uniform();
            let x = ((n_f + 1.0).ln() * u).exp() - 1.0;
            (x as usize).min(n - 1)
        } else {
            let a = 1.0 - s;
            let h_n = ((n_f + 1.0).powf(a) - 1.0) / a;
            let u = self.uniform() * h_n;
            let x = (u * a + 1.0).powf(1.0 / a) - 1.0;
            (x as usize).min(n - 1)
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (Floyd's algorithm for small
    /// k, shuffle-prefix otherwise). Result is in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            return all;
        }
        let mut chosen = Vec::with_capacity(k);
        for j in n - k..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded stream in the workspace starts here: the first draws
    /// of seed 42, as read off the generator.
    #[test]
    fn seed_42_gives_the_known_answers() {
        let mut r = Pcg64::new(42);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let want = [
            0x5ae2_1ff4_9dbd_ac51,
            0x4d55_fcba_775e_eb92,
            0x1192_e381_b530_1f64,
            0x994b_99c1_d325_d8cd,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg64::new(1);
        let mut b = Pcg64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Pcg64::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Pcg64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_unbiased_over_range() {
        let mut r = Pcg64::new(3);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts={counts:?}");
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Pcg64::new(1).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut r = Pcg64::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = Pcg64::new(9);
        let n = 1000;
        let mut first_decile = 0;
        for _ in 0..10_000 {
            let z = r.zipf(n, 1.1);
            assert!(z < n);
            if z < n / 10 {
                first_decile += 1;
            }
        }
        // Zipf mass concentrates on small indices.
        assert!(first_decile > 6_000, "first_decile={first_decile}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Pcg64::new(13);
        let mut xs: Vec<usize> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Pcg64::new(17);
        for &(n, k) in &[(100, 5), (100, 50), (10, 10), (1000, 3)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {s:?}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = Pcg64::new(42);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn coin_respects_probability() {
        let mut r = Pcg64::new(21);
        let hits = (0..100_000).filter(|_| r.coin(0.3)).count();
        assert!((hits as f64 - 30_000.0).abs() < 1_500.0);
    }
}
