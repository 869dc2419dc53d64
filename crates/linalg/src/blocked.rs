//! Order-preserving blocked kernels.
//!
//! [`dense::dot`](crate::dense::dot) and [`dense::dist2`](crate::dense::dist2)
//! are one loop-carried f64 add chain each. rustc may not reassociate a
//! float sum, so a chain runs at the *latency* of an add, one element at a
//! time, however wide the machine is. The kernels here leave every chain
//! exactly as it is — same operands, same order, same roundings, so every
//! result is bit-identical to the scalar loop — and run several
//! *independent* chains side by side instead:
//!
//! * the **lane** kernel ([`lanes_affine`]) pushes a block of [`LANES`]
//!   examples through one weight row, one accumulator per example. The
//!   block is stored interleaved (`xt[i * LANES + e]` is feature `i` of
//!   example `e`, see [`pack_lane`]), so the `LANES` chains of one step are
//!   adjacent in memory and the compiler keeps them in vector registers;
//! * the **rows** kernel ([`nearest_row`]) runs the `dist2` chains of
//!   several matrix rows against one vector.
//!
//! Lanes are examples (or rows), never slices of one chain: splitting a
//! chain is a reassociation and changes the last bits.

/// Examples per lane block. A constant of the kernel, not a tuning knob:
/// eight f64 accumulators are four SSE2 registers, which leaves room for
/// the operands in the sixteen the baseline x86-64 target has.
pub const LANES: usize = 8;

/// Rows per step of the rows kernel: enough independent chains to cover
/// the add latency with scalar operations (the rows are not adjacent in
/// memory, so this kernel does not vectorize).
const ROWS: usize = 4;

/// Write `row` into lane `e` of an interleaved block
/// (`xt[i * LANES + e] = row[i]`). The other lanes keep whatever they
/// held: lanes never mix, so a stale lane is wasted work, not an error.
pub fn pack_lane(row: &[f64], e: usize, xt: &mut [f64]) {
    assert!(e < LANES, "pack_lane: lane out of range");
    assert_eq!(row.len() * LANES, xt.len(), "pack_lane: row length");
    for (dst, &v) in xt.iter_mut().skip(e).step_by(LANES).zip(row) {
        *dst = v;
    }
}

/// Copy lane `e` of an interleaved block out into `row`
/// (`row[i] = xt[i * LANES + e]`).
pub fn unpack_lane(xt: &[f64], e: usize, row: &mut [f64]) {
    assert!(e < LANES, "unpack_lane: lane out of range");
    assert_eq!(row.len() * LANES, xt.len(), "unpack_lane: row length");
    for (dst, &v) in row.iter_mut().zip(xt.iter().skip(e).step_by(LANES)) {
        *dst = v;
    }
}

/// `bias + w · x_e` for each of the [`LANES`] examples of an interleaved
/// block, every lane adding its products in index order starting from the
/// bias — the same chain as `z = bias; for i { z += w[i] * x[i] }`.
#[inline]
pub fn lanes_affine(w: &[f64], bias: f64, xt: &[f64]) -> [f64; LANES] {
    let (steps, rest) = xt.as_chunks::<LANES>();
    assert!(
        rest.is_empty() && steps.len() == w.len(),
        "lanes_affine: block shape"
    );
    let mut acc = [bias; LANES];
    for (&wi, xs) in w.iter().zip(steps) {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a += wi * x;
        }
    }
    acc
}

/// Squared distances from `x` to [`ROWS`] rows at once, each chain as in
/// [`dense::dist2`](crate::dense::dist2).
#[inline]
fn dist2_rows(x: &[f64], [r0, r1, r2, r3]: [&[f64]; ROWS]) -> [f64; ROWS] {
    assert!(
        [r0, r1, r2, r3].iter().all(|r| r.len() == x.len()),
        "dist2_rows: length mismatch"
    );
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    for ((((&xi, &y0), &y1), &y2), &y3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        let (d0, d1, d2, d3) = (xi - y0, xi - y1, xi - y2, xi - y3);
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
    }
    [a0, a1, a2, a3]
}

/// Index and squared distance of the row of the row-major `rows`
/// (`x.len()` columns) nearest to `x`; the first row wins ties and NaN
/// distances never win. `(0, ∞)` if there are no rows; a zero-length `x`
/// is at distance 0 from row 0.
pub fn nearest_row(rows: &[f64], x: &[f64]) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    if x.is_empty() {
        return (0, 0.0);
    }
    assert_eq!(rows.len() % x.len(), 0, "nearest_row: ragged rows");
    for (block, base) in rows.chunks(ROWS * x.len()).zip((0..).step_by(ROWS)) {
        // A short last block repeats its last row; `zip` below drops the
        // repeats.
        let mut it = block.chunks_exact(x.len());
        let mut four = [x; ROWS];
        let mut last = x;
        for slot in four.iter_mut() {
            last = it.next().unwrap_or(last);
            *slot = last;
        }
        let present = block.len() / x.len();
        for (dd, c) in dist2_rows(x, four).into_iter().take(present).zip(base..) {
            if dd < best.1 {
                best = (c, dd);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::dist2;

    /// Deterministic, sign-mixed, non-dyadic values: sums of them round at
    /// every step, so a reordered chain shows in the last bits.
    fn values(n: usize, salt: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + salt) * 0.737).sin() * 3.1 + 0.01 * salt)
            .collect()
    }

    /// `rows` interleaved into a block whose other lanes hold `fill`.
    fn packed(rows: &[Vec<f64>], fill: f64) -> Vec<f64> {
        let mut xt = vec![fill; rows.first().map_or(0, Vec::len) * LANES];
        for (e, row) in rows.iter().enumerate() {
            pack_lane(row, e, &mut xt);
        }
        xt
    }

    fn scalar_affine(w: &[f64], bias: f64, x: &[f64]) -> f64 {
        let mut z = bias;
        for (wi, xi) in w.iter().zip(x) {
            z += wi * xi;
        }
        z
    }

    #[test]
    fn pack_and_unpack_are_inverse() {
        let rows: Vec<Vec<f64>> = (0..LANES).map(|e| values(5, e as f64)).collect();
        let xt = packed(&rows, 0.0);
        assert_eq!(xt.get(LANES + 2), rows.get(2).and_then(|r| r.get(1)));
        for (e, want) in rows.iter().enumerate() {
            let mut got = vec![0.0; 5];
            unpack_lane(&xt, e, &mut got);
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn lanes_affine_is_bit_identical_to_the_scalar_chain() {
        for n in [0, 1, 7, 64, 257] {
            let w = values(n, 0.5);
            let rows: Vec<Vec<f64>> = (0..LANES).map(|e| values(n, 1.0 + e as f64)).collect();
            let xt = packed(&rows, 0.0);
            let got = lanes_affine(&w, 0.125, &xt);
            for (g, row) in got.iter().zip(&rows) {
                assert_eq!(
                    g.to_bits(),
                    scalar_affine(&w, 0.125, row).to_bits(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn a_partial_block_leaves_the_other_lanes_alone() {
        let rows: Vec<Vec<f64>> = (0..3).map(|e| values(9, e as f64)).collect();
        let xt = packed(&rows, f64::NAN);
        let w = values(9, 4.0);
        let got = lanes_affine(&w, -1.0, &xt);
        for (g, row) in got.iter().zip(&rows) {
            assert_eq!(g.to_bits(), scalar_affine(&w, -1.0, row).to_bits());
        }
        assert!(
            got.iter().skip(3).all(|g| g.is_nan()),
            "stale lanes stay put"
        );
    }

    #[test]
    fn nearest_row_matches_the_scalar_scan_bit_for_bit() {
        // Every row count around the block width, including the short
        // last block and a single row.
        for k in 1..=2 * ROWS + 1 {
            for d in [1, 3, 50] {
                let rows = values(k * d, 2.0);
                let x = values(d, 9.0);
                let mut want = (0, f64::INFINITY);
                for (c, row) in rows.chunks_exact(d).enumerate() {
                    let dd = dist2(&x, row);
                    if dd < want.1 {
                        want = (c, dd);
                    }
                }
                let got = nearest_row(&rows, &x);
                assert_eq!(
                    (got.0, got.1.to_bits()),
                    (want.0, want.1.to_bits()),
                    "k={k} d={d}"
                );
            }
        }
    }

    #[test]
    fn nearest_row_ties_go_to_the_first_row_and_nan_never_wins() {
        let x = [1.0, 2.0];
        let rows = [4.0, 6.0, f64::NAN, 0.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0];
        assert_eq!(nearest_row(&rows, &x), (0, 25.0));
        assert_eq!(nearest_row(&[], &x), (0, f64::INFINITY));
        assert_eq!(nearest_row(&[f64::NAN, 0.0], &x).0, 0);
    }
}
