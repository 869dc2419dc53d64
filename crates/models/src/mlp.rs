//! Feed-forward network with manual backprop.
//!
//! The statistical engine behind the paper's deep-model workloads
//! (MobileNet/ResNet50 on Cifar10). The simulator charges communication and
//! compute using the *surrogate profile* in [`crate::zoo`] (12 MB / 89 MB
//! payloads, per-image FLOPs); this module supplies genuine non-convex
//! optimization so that phenomena like unstable model averaging (Figure 7c)
//! and asynchronous divergence (Figure 8) arise from real numerics.
//!
//! Architecture: fully-connected ReLU layers ending in softmax
//! cross-entropy. All parameters live in one flat `Vec<f64>` (layer-major:
//! `W₀, b₀, W₁, b₁, …`) so the communication layer can ship them like any
//! other statistic vector.

use lml_data::Dataset;
use lml_linalg::blocked::{lanes_affine, pack_lane, unpack_lane, LANES};
use lml_linalg::dense::{argmax, axpy, softmax_inplace};
use lml_sim::Pcg64;

/// Fully-connected ReLU network with softmax cross-entropy output.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layer sizes, e.g. `[1024, 256, 10]`.
    sizes: Vec<usize>,
    /// Flat parameter buffer, layer-major `W₀ (out×in), b₀ (out), …`.
    params: Vec<f64>,
}

/// `(n_in, n_out)` of every layer of an architecture, input side first.
fn dims(sizes: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    sizes
        .iter()
        .zip(sizes.iter().skip(1))
        .map(|(&i, &o)| (i, o))
}

/// One layer's slices of a flat parameter buffer.
struct Layer<'a> {
    n_in: usize,
    /// `n_out × n_in`, row-major.
    w: &'a [f64],
    b: &'a [f64],
}

impl Mlp {
    /// He-initialized network. `sizes` = `[input, hidden…, classes]`.
    pub(crate) fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output layers");
        assert!(sizes.iter().all(|&s| s > 0));
        let mut rng = Pcg64::new(seed ^ 0x4d4c_5000);
        let mut params = Vec::with_capacity(Self::param_count(sizes));
        for (fan_in, fan_out) in dims(sizes) {
            let std = (2.0 / fan_in as f64).sqrt();
            for _ in 0..fan_in * fan_out {
                params.push(rng.normal() * std);
            }
            params.extend(std::iter::repeat_n(0.0, fan_out)); // biases
        }
        Mlp {
            sizes: sizes.to_vec(),
            params,
        }
    }

    /// Total parameter count for an architecture.
    fn param_count(sizes: &[usize]) -> usize {
        dims(sizes).map(|(n_in, n_out)| n_in * n_out + n_out).sum()
    }

    fn classes(&self) -> usize {
        *self.sizes.last().expect("at least two layers")
    }

    /// Split the parameters into layers, once per pass.
    fn layers(&self) -> Vec<Layer<'_>> {
        let mut rest = self.params.as_slice();
        dims(&self.sizes)
            .map(|(n_in, n_out)| {
                let (w, tail) = rest.split_at(n_in * n_out);
                let (b, tail) = tail.split_at(n_out);
                rest = tail;
                Layer { n_in, w, b }
            })
            .collect()
    }

    /// Zeroed lane-interleaved buffers, one per layer boundary:
    /// `acts[l]` is the input of layer `l`, the last one the logits.
    fn lane_buffers(&self) -> Vec<Vec<f64>> {
        self.sizes.iter().map(|&n| vec![0.0; n * LANES]).collect()
    }

    /// Forward pass of one block of at most [`LANES`] examples: `acts[0]`
    /// receives the packed inputs and every later buffer its layer's
    /// post-activation output (ReLU on hidden layers, identity on the
    /// output — softmax is applied in the loss), all lane-interleaved.
    /// This is the only forward path: one example is a block of one.
    fn forward(layers: &[Layer<'_>], xs: &[&[f64]], acts: &mut [Vec<f64>]) {
        let Some((input, outputs)) = acts.split_first_mut() else {
            return;
        };
        for (e, x) in xs.iter().enumerate() {
            pack_lane(x, e, input);
        }
        let mut input = input.as_slice();
        for (l, (layer, out)) in layers.iter().zip(outputs).enumerate() {
            let hidden = l + 1 < layers.len();
            let rows = layer.w.chunks_exact(layer.n_in).zip(layer.b);
            for ((row, &b), z_out) in rows.zip(out.as_chunks_mut::<LANES>().0) {
                *z_out = lanes_affine(row, b, input);
                if hidden {
                    z_out.iter_mut().for_each(|z| *z = z.max(0.0));
                }
            }
            input = out.as_slice();
        }
    }

    /// Run `rows` through the network block by block and hand `f` every
    /// example's row index and class probabilities, in `rows` order.
    fn for_each_proba(&self, data: &Dataset, rows: &[usize], mut f: impl FnMut(usize, &[f64])) {
        let layers = self.layers();
        let mut acts = self.lane_buffers();
        let mut probs = vec![0.0; self.classes()];
        let mut sparse_rows = sparse_buffer(data, layers.first().map_or(0, |l| l.n_in));
        for block in rows.chunks(LANES) {
            let xs = block_inputs(data, block, &mut sparse_rows);
            Self::forward(&layers, xs.split_at(block.len()).0, &mut acts);
            for (e, &r) in block.iter().enumerate() {
                unpack_lane(acts.last().map_or(&[], Vec::as_slice), e, &mut probs);
                softmax_inplace(&mut probs);
                f(r, &probs);
            }
        }
    }
}

/// `−ln p[label]`, floored so that a vanished probability stays finite.
fn cross_entropy(probs: &[f64], label: usize) -> f64 {
    -(probs[label].max(1e-300)).ln()
}

/// Room for one block of a sparse dataset's rows as dense `n_in`-vectors
/// (nothing for a dense dataset, whose rows are borrowed as they are).
fn sparse_buffer(data: &Dataset, n_in: usize) -> Vec<f64> {
    match data {
        Dataset::Dense(_) => Vec::new(),
        Dataset::Sparse(_) => vec![0.0; n_in * LANES],
    }
}

/// The examples of one block as dense rows: borrowed from a dense dataset,
/// written into `buf` (see [`sparse_buffer`]) from a sparse one. Entries
/// past the block are empty.
fn block_inputs<'a>(
    data: &'a Dataset,
    block: &[usize],
    buf: &'a mut Vec<f64>,
) -> [&'a [f64]; LANES] {
    let mut xs: [&[f64]; LANES] = [&[]; LANES];
    match data {
        Dataset::Dense(d) => {
            for (x, &r) in xs.iter_mut().zip(block) {
                *x = d.row(r);
            }
        }
        Dataset::Sparse(s) => {
            let n_in = (buf.len() / LANES).max(1);
            for (dense, &r) in buf.chunks_exact_mut(n_in).zip(block) {
                s.row(r).write_dense(dense);
            }
            let buf: &'a [f64] = buf.as_slice();
            for ((x, dense), _) in xs.iter_mut().zip(buf.chunks_exact(n_in)).zip(block) {
                *x = dense;
            }
        }
    }
    xs
}

/// `dW += δ ⊗ x` and `db += δ`, scaled by `inv_n`, for one block; `grad`
/// is the layer's stretch of the gradient (`dW` then `db`). Weight row
/// outer, examples inner: a gradient row stays in cache for the whole
/// block and every `dW[o][i]` and `db[o]` still receives its examples in
/// batch order.
fn accumulate<'a>(
    grad: &mut [f64],
    n_in: usize,
    delta: &[f64],
    inputs: impl Iterator<Item = &'a [f64]> + Clone,
    inv_n: f64,
) {
    let (dw, db) = grad.split_at_mut(grad.len() / (n_in + 1) * n_in);
    let rows = dw.chunks_exact_mut(n_in).zip(db);
    for ((dw_row, db_o), deltas) in rows.zip(delta.chunks_exact(LANES)) {
        for (&d, x) in deltas.iter().zip(inputs.clone()) {
            let d = d * inv_n;
            // Skip-zero sparsity fast path (exact). lml-analyze: allow(float-eq)
            if d != 0.0 {
                axpy(d, x, dw_row);
                *db_o += d;
            }
        }
    }
}

/// `δ_below = Wᵀδ`, gated by `ReLU'` of the layer's inputs, for every
/// example of a block: each example sums its units in index order in
/// `scratch` (example-major), then the gated result is interleaved into
/// `below`.
fn backpropagate<'a>(
    layer: &Layer<'_>,
    delta: &[f64],
    inputs: impl Iterator<Item = &'a [f64]> + Clone,
    scratch: &mut [f64],
    below: &mut [f64],
) {
    let n_in = layer.n_in;
    for (sum, _) in scratch.chunks_exact_mut(n_in).zip(inputs.clone()) {
        sum.fill(0.0);
    }
    for (w_row, deltas) in layer.w.chunks_exact(n_in).zip(delta.chunks_exact(LANES)) {
        let sums = scratch.chunks_exact_mut(n_in).zip(inputs.clone());
        for (&d, (sum, _)) in deltas.iter().zip(sums) {
            // Skip-zero sparsity fast path (exact). lml-analyze: allow(float-eq)
            if d != 0.0 {
                axpy(d, w_row, sum);
            }
        }
    }
    for (e, (sum, x)) in scratch.chunks_exact(n_in).zip(inputs).enumerate() {
        let lane = below.iter_mut().skip(e).step_by(LANES);
        for ((dst, &v), &act) in lane.zip(sum).zip(x) {
            *dst = if act <= 0.0 { 0.0 } else { v }; // ReLU gate
        }
    }
}

impl Mlp {
    /// Number of parameters.
    pub(crate) fn dim(&self) -> usize {
        self.params.len()
    }

    pub(crate) fn params(&self) -> &[f64] {
        &self.params
    }

    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Accumulate the mean gradient over `rows` into `grad_out` (pre-zeroed
    /// by the caller) and return the mean loss over those rows.
    pub(crate) fn grad(&self, data: &Dataset, rows: &[usize], grad_out: &mut [f64]) -> f64 {
        assert!(!rows.is_empty());
        assert_eq!(grad_out.len(), self.params.len());
        let inv_n = 1.0 / rows.len() as f64;
        let layers = self.layers();
        // Scratch, reused by every block: interleaved activations and
        // deltas per layer boundary, the activations again example-major
        // (the rows `accumulate` reads; the input boundary's stays unused,
        // those rows are borrowed), and one `Wᵀδ` buffer.
        let mut acts = self.lane_buffers();
        let mut deltas: Vec<Vec<f64>> = acts.iter().skip(1).map(|a| vec![0.0; a.len()]).collect();
        let mut dense: Vec<Vec<f64>> = acts.iter().map(|a| vec![0.0; a.len()]).collect();
        let mut scratch = vec![0.0; dense.iter().skip(1).map(Vec::len).max().unwrap_or(0)];
        let mut probs = vec![0.0; self.classes()];
        let mut sparse_rows = sparse_buffer(data, layers.first().map_or(0, |l| l.n_in));
        let mut total_loss = 0.0;

        for block in rows.chunks(LANES) {
            let xs = block_inputs(data, block, &mut sparse_rows);
            let xs = xs.split_at(block.len()).0;
            Self::forward(&layers, xs, &mut acts);

            // Softmax cross-entropy at the output: δ = probs − onehot(label).
            let mut below = deltas.iter_mut().rev();
            let (Some(logits), Some(mut delta)) = (acts.last(), below.next()) else {
                break;
            };
            for (e, &r) in block.iter().enumerate() {
                let label = data.label(r) as usize;
                debug_assert!(label < self.classes(), "label out of range");
                unpack_lane(logits, e, &mut probs);
                softmax_inplace(&mut probs);
                total_loss += cross_entropy(&probs, label);
                probs[label] -= 1.0;
                pack_lane(&probs, e, delta);
            }

            // Backward through the layers, the output layer first; each
            // takes its stretch off the end of the gradient.
            let mut grad_below = &mut *grad_out;
            let boundaries = acts.iter().zip(dense.iter_mut());
            for (layer, (act, rows_in)) in layers.iter().zip(boundaries).rev() {
                let split = grad_below.len() - layer.w.len() - layer.b.len();
                let (rest, grad) = grad_below.split_at_mut(split);
                grad_below = rest;
                let Some(lower) = below.next() else {
                    // The input layer reads the examples where they lie.
                    accumulate(grad, layer.n_in, delta, xs.iter().copied(), inv_n);
                    break;
                };
                let unpacked = rows_in.chunks_exact_mut(layer.n_in).take(block.len());
                for (e, row) in unpacked.enumerate() {
                    unpack_lane(act, e, row);
                }
                let inputs = rows_in.chunks_exact(layer.n_in).take(block.len());
                accumulate(grad, layer.n_in, delta, inputs.clone(), inv_n);
                backpropagate(layer, delta, inputs, &mut scratch, lower);
                delta = lower;
            }
        }
        total_loss * inv_n
    }

    /// Mean softmax cross-entropy over `rows` (no gradient).
    pub(crate) fn loss(&self, data: &Dataset, rows: &[usize]) -> f64 {
        assert!(!rows.is_empty());
        let mut total = 0.0;
        self.for_each_proba(data, rows, |r, probs| {
            total += cross_entropy(probs, data.label(r) as usize);
        });
        total / rows.len() as f64
    }

    /// Fraction of `rows` classified correctly.
    pub(crate) fn accuracy(&self, data: &Dataset, rows: &[usize]) -> f64 {
        if rows.is_empty() {
            return 1.0;
        }
        let mut correct = 0usize;
        self.for_each_proba(data, rows, |r, probs| {
            correct += usize::from(argmax(probs) == data.label(r) as usize);
        });
        correct as f64 / rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{grad_check, AnyModel, DeepProfile};
    use lml_data::dataset::{DenseDataset, SparseDataset};
    use lml_linalg::{Matrix, SparseVec};

    /// The one-example-at-a-time implementation the blocked passes
    /// replaced, kept word for word as the differential oracle: one serial
    /// add chain per unit, one walk over the whole gradient per example.
    mod oracle {
        use super::super::*;

        fn layer_offset(m: &Mlp, l: usize) -> usize {
            m.sizes[..l]
                .windows(2)
                .map(|w| w[0] * w[1] + w[1])
                .sum::<usize>()
                + if l > 0 {
                    // windows over prefix misses the (l-1, l) pair
                    m.sizes[l - 1] * m.sizes[l] + m.sizes[l]
                } else {
                    0
                }
        }

        fn forward(m: &Mlp, x: &[f64], acts: &mut Vec<Vec<f64>>) {
            acts.clear();
            acts.push(x.to_vec());
            let mut offset = 0;
            for l in 0..m.sizes.len() - 1 {
                let (n_in, n_out) = (m.sizes[l], m.sizes[l + 1]);
                let w = &m.params[offset..offset + n_in * n_out];
                let b = &m.params[offset + n_in * n_out..offset + n_in * n_out + n_out];
                offset += n_in * n_out + n_out;
                let prev = &acts[acts.len() - 1];
                let mut out = vec![0.0; n_out];
                for o in 0..n_out {
                    let row = &w[o * n_in..(o + 1) * n_in];
                    let mut z = b[o];
                    for i in 0..n_in {
                        z += row[i] * prev[i];
                    }
                    out[o] = if l + 2 < m.sizes.len() { z.max(0.0) } else { z };
                }
                acts.push(out);
            }
        }

        pub(super) fn dense_row(m: &Mlp, data: &Dataset, r: usize) -> Vec<f64> {
            match data.row(r) {
                lml_data::Row::Dense(v) => v.to_vec(),
                lml_data::Row::Sparse(sv) => sv.to_dense(m.sizes[0]),
            }
        }

        pub(super) fn grad(m: &Mlp, data: &Dataset, rows: &[usize], grad_out: &mut [f64]) -> f64 {
            let inv_n = 1.0 / rows.len() as f64;
            let layers = m.sizes.len() - 1;
            let mut acts: Vec<Vec<f64>> = Vec::new();
            let mut total_loss = 0.0;
            for &r in rows {
                let x = dense_row(m, data, r);
                let label = data.label(r) as usize;
                forward(m, &x, &mut acts);
                let mut probs = acts[layers].clone();
                softmax_inplace(&mut probs);
                total_loss += -(probs[label].max(1e-300)).ln();
                let mut delta: Vec<f64> = probs;
                delta[label] -= 1.0;
                for l in (0..layers).rev() {
                    let (n_in, n_out) = (m.sizes[l], m.sizes[l + 1]);
                    let offset = layer_offset(m, l);
                    let (w_block, b_block) = {
                        let g = &mut grad_out[offset..offset + n_in * n_out + n_out];
                        g.split_at_mut(n_in * n_out)
                    };
                    let prev = &acts[l];
                    for o in 0..n_out {
                        let d = delta[o] * inv_n;
                        if d != 0.0 {
                            let row = &mut w_block[o * n_in..(o + 1) * n_in];
                            for i in 0..n_in {
                                row[i] += d * prev[i];
                            }
                            b_block[o] += d;
                        }
                    }
                    if l > 0 {
                        let w = &m.params[offset..offset + n_in * n_out];
                        let mut new_delta = vec![0.0; n_in];
                        for o in 0..n_out {
                            let d = delta[o];
                            if d != 0.0 {
                                let row = &w[o * n_in..(o + 1) * n_in];
                                for i in 0..n_in {
                                    new_delta[i] += d * row[i];
                                }
                            }
                        }
                        for i in 0..n_in {
                            if prev[i] <= 0.0 {
                                new_delta[i] = 0.0;
                            }
                        }
                        delta = new_delta;
                    }
                }
            }
            total_loss * inv_n
        }

        pub(super) fn proba(m: &Mlp, x: &[f64]) -> Vec<f64> {
            let mut acts = Vec::new();
            forward(m, x, &mut acts);
            let mut logits = acts.pop().expect("forward fills acts");
            softmax_inplace(&mut logits);
            logits
        }

        pub(super) fn loss(m: &Mlp, data: &Dataset, rows: &[usize]) -> f64 {
            let mut total = 0.0;
            for &r in rows {
                let probs = proba(m, &dense_row(m, data, r));
                total += -(probs[data.label(r) as usize].max(1e-300)).ln();
            }
            total / rows.len() as f64
        }

        pub(super) fn accuracy(m: &Mlp, data: &Dataset, rows: &[usize]) -> f64 {
            let correct = rows
                .iter()
                .filter(|&&r| argmax(&proba(m, &dense_row(m, data, r))) == data.label(r) as usize)
                .count();
            correct as f64 / rows.len() as f64
        }
    }

    /// A random architecture with 1–3 hidden layers whose widths are never
    /// a multiple of `LANES`, random weights *and* biases, one hidden unit
    /// forced dead (zero weights, negative bias: its activation, and so its
    /// delta, is exactly zero for every example) and class 0's output bias
    /// so large that softmax returns exactly one-hot — every delta of an
    /// example labelled 0 is then exactly zero. Returns the net and the
    /// dead unit's index in the first hidden layer.
    fn random_net(rng: &mut Pcg64) -> (Mlp, usize) {
        let width = |rng: &mut Pcg64| 1 + rng.index(LANES - 1) + LANES * rng.index(3);
        let mut sizes = vec![width(rng)];
        for _ in 0..1 + rng.index(3) {
            sizes.push(width(rng));
        }
        sizes.push(2 + rng.index(4));
        let mut net = Mlp::new(&sizes, rng.next_u64());
        for p in net.params.iter_mut() {
            *p += 0.3 * rng.normal();
        }
        let n_in = sizes.first().copied().unwrap_or(0);
        let hidden = sizes.get(1).copied().unwrap_or(0);
        let classes = net.classes();
        let dead = rng.index(hidden);
        let (w0, rest) = net.params.split_at_mut(n_in * hidden);
        if let Some(row) = w0.chunks_exact_mut(n_in).nth(dead) {
            row.fill(0.0);
        }
        if let Some(b) = rest.get_mut(dead) {
            *b = -1.0;
        }
        if let Some(b) = net.params.iter_mut().rev().nth(classes - 1) {
            *b = 1.0e3;
        }
        (net, dead)
    }

    /// The same random examples twice: as a dense matrix and as sparse rows
    /// that store about half the features (the rest are exact zeros).
    fn random_data(rng: &mut Pcg64, n: usize, net: &Mlp) -> [Dataset; 2] {
        let (dim, classes) = (net.sizes.first().copied().unwrap_or(0), net.classes());
        let flat: Vec<f64> = (0..n * dim)
            .map(|_| if rng.index(2) == 0 { 0.0 } else { rng.normal() })
            .collect();
        let labels: Vec<f64> = (0..n).map(|_| rng.index(classes) as f64).collect();
        let sparse_rows = flat
            .chunks_exact(dim)
            .map(|row| {
                let stored = row.iter().enumerate().filter(|(_, v)| **v != 0.0);
                SparseVec::from_pairs(stored.map(|(i, &v)| (i as u32, v)).collect())
            })
            .collect();
        [
            Dataset::Dense(DenseDataset::new(
                Matrix::from_flat(n, dim, flat),
                labels.clone(),
            )),
            Dataset::Sparse(SparseDataset::new(sparse_rows, labels, dim)),
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Per-case RNGs of the in-repo property harness: case `i` of property
    /// `tag` always sees the same stream, and a failure names the seed.
    fn cases(tag: u64, n: u64) -> impl Iterator<Item = (u64, Pcg64)> {
        (0..n).map(move |i| {
            let seed = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i;
            (seed, Pcg64::new(seed))
        })
    }

    #[test]
    fn blocked_passes_equal_the_one_example_oracle_bit_for_bit() {
        let mut zero_deltas = 0usize;
        for (seed, mut rng) in cases(0x6d6c70, 24) {
            let (net, _) = random_net(&mut rng);
            let n = 3 * LANES;
            let [dense, sparse] = random_data(&mut rng, n, &net);
            for batch in 1..=2 * LANES + 1 {
                let rows = rng.sample_indices(n, batch);
                for data in [&dense, &sparse] {
                    let ctx = format!("case {seed}: sizes {:?}, batch {batch}", net.sizes);
                    let (mut got, mut want) = (vec![0.0; net.dim()], vec![0.0; net.dim()]);
                    let loss = net.grad(data, &rows, &mut got);
                    let oracle_loss = oracle::grad(&net, data, &rows, &mut want);
                    assert_eq!(bits(&got), bits(&want), "gradient, {ctx}");
                    assert_eq!(loss.to_bits(), oracle_loss.to_bits(), "grad loss, {ctx}");
                    assert_eq!(
                        net.loss(data, &rows).to_bits(),
                        oracle::loss(&net, data, &rows).to_bits(),
                        "loss, {ctx}"
                    );
                    assert_eq!(
                        net.accuracy(data, &rows).to_bits(),
                        oracle::accuracy(&net, data, &rows).to_bits(),
                        "accuracy, {ctx}"
                    );
                }
                for &r in &rows {
                    let p = oracle::proba(&net, &oracle::dense_row(&net, &dense, r));
                    if dense.label(r) as usize == 0 {
                        zero_deltas += usize::from(p.first() == Some(&1.0));
                    }
                }
            }
        }
        assert!(
            zero_deltas > 100,
            "the exact-zero output delta is exercised"
        );
    }

    #[test]
    fn the_forced_dead_unit_and_the_one_hot_class_give_exact_zeros() {
        // What `random_net` promises, checked on the gradient itself: the
        // dead unit's weight row and bias receive nothing at all, and a
        // batch made only of class-0 examples has an all-zero gradient.
        for (seed, mut rng) in cases(0xdead, 16) {
            let (net, dead) = random_net(&mut rng);
            let (n_in, hidden) = dims(&net.sizes).next().unwrap_or((0, 0));
            let [dense, _] = random_data(&mut rng, 2 * LANES, &net);
            let rows: Vec<usize> = (0..2 * LANES).collect();
            let mut grad = vec![0.0; net.dim()];
            net.grad(&dense, &rows, &mut grad);
            let dead_row = grad.chunks_exact(n_in).nth(dead);
            assert!(
                dead_row.is_some_and(|row| row.iter().all(|g| g.to_bits() == 0)),
                "case {seed}: dead unit row"
            );
            let dead_bias = grad.get(n_in * hidden + dead);
            assert_eq!(dead_bias.map(|g| g.to_bits()), Some(0), "case {seed}");

            let class0: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&r| dense.label(r) as usize == 0)
                .collect();
            if !class0.is_empty() {
                grad.fill(0.0);
                let loss = net.grad(&dense, &class0, &mut grad);
                assert_eq!(loss.to_bits(), 0, "case {seed}: -ln(1)");
                assert!(grad.iter().all(|g| g.to_bits() == 0), "case {seed}");
            }
        }
    }

    #[test]
    fn swapping_two_examples_inside_a_block_changes_the_bits() {
        // Mutation check on the differential test: the sums it compares
        // are order-sensitive, so a kernel that visited a block's examples
        // in another order would not slip through. Same examples, two of
        // them swapped within the first block: numerically the same
        // gradient, different last bits — and the oracle on the swapped
        // order follows the swapped kernel, not the original.
        let mut detected = 0;
        for (seed, mut rng) in cases(0x5a7, 16) {
            let (net, _) = random_net(&mut rng);
            let [dense, _] = random_data(&mut rng, 2 * LANES, &net);
            let rows: Vec<usize> = (0..LANES + 3).collect();
            let mut swapped = rows.clone();
            swapped.swap(1, LANES - 2);
            let (mut a, mut b, mut c) = (
                vec![0.0; net.dim()],
                vec![0.0; net.dim()],
                vec![0.0; net.dim()],
            );
            net.grad(&dense, &rows, &mut a);
            net.grad(&dense, &swapped, &mut b);
            oracle::grad(&net, &dense, &swapped, &mut c);
            assert_eq!(bits(&b), bits(&c), "case {seed}");
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= 1e-12 * (1.0 + x.abs()), "case {seed}");
            }
            detected += usize::from(bits(&a) != bits(&b));
        }
        assert!(detected >= 12, "only {detected} of 16 swaps moved a bit");
    }

    fn xor_data() -> Dataset {
        // XOR: the canonical non-linearly-separable problem.
        let m = Matrix::from_flat(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        Dataset::Dense(DenseDataset::new(m, vec![0.0, 1.0, 1.0, 0.0]))
    }

    #[test]
    fn param_count_formula() {
        assert_eq!(Mlp::param_count(&[2, 3, 2]), 2 * 3 + 3 + 3 * 2 + 2);
        let mlp = Mlp::new(&[1024, 256, 10], 1);
        assert_eq!(mlp.dim(), 1024 * 256 + 256 + 256 * 10 + 10);
    }

    #[test]
    fn gradient_matches_numeric() {
        // Random (kink-free) inputs: at XOR's (0,0) corner with zero biases
        // the ReLU sits exactly on its kink and central differences disagree
        // with any subgradient choice, so we grad-check on smooth data.
        let mut rng = Pcg64::new(17);
        let flat: Vec<f64> = (0..8 * 3).map(|_| rng.normal() + 0.1).collect();
        let m = Matrix::from_flat(8, 3, flat);
        let labels: Vec<f64> = (0..8).map(|i| (i % 2) as f64).collect();
        let data = Dataset::Dense(DenseDataset::new(m, labels));
        let mlp = Mlp::new(&[3, 5, 2], 3);
        let rows: Vec<usize> = (0..8).collect();
        let profile = DeepProfile::MOBILENET;
        let err = grad_check(&mut AnyModel::Mlp { net: mlp, profile }, &data, &rows, 1e-5);
        assert!(err < 1e-6, "backprop gradient error {err}");
    }

    #[test]
    fn learns_xor() {
        let data = xor_data();
        let mut mlp = Mlp::new(&[2, 8, 2], 5);
        let rows = [0usize, 1, 2, 3];
        let mut grad = vec![0.0; mlp.dim()];
        for _ in 0..2000 {
            grad.iter_mut().for_each(|g| *g = 0.0);
            mlp.grad(&data, &rows, &mut grad);
            for (p, g) in mlp.params_mut().iter_mut().zip(&grad) {
                *p -= 0.5 * g;
            }
        }
        assert!(
            mlp.loss(&data, &rows) < 0.05,
            "loss {}",
            mlp.loss(&data, &rows)
        );
        assert_eq!(mlp.accuracy(&data, &rows), 1.0, "XOR solved exactly");
    }

    #[test]
    fn initial_loss_near_uniform() {
        // He init with zero biases: expected CE ≈ ln(classes).
        let data = lml_data::generators::DatasetId::Cifar10
            .generate_rows(100, 1)
            .data;
        let mlp = Mlp::new(&[1024, 64, 10], 11);
        let rows: Vec<usize> = (0..100).collect();
        let l = mlp.loss(&data, &rows);
        assert!((l - (10.0f64).ln()).abs() < 0.8, "initial loss {l}");
    }

    #[test]
    fn learns_cifar_surrogate_beyond_linear() {
        // A small MLP must fit the class structure of the Cifar10 generator.
        let data = lml_data::generators::DatasetId::Cifar10
            .generate_rows(400, 2)
            .data;
        let rows: Vec<usize> = (0..400).collect();
        let mut mlp = Mlp::new(&[1024, 32, 10], 13);
        let mut grad = vec![0.0; mlp.dim()];
        let mut rng = Pcg64::new(99);
        for _ in 0..150 {
            let batch = rng.sample_indices(400, 64);
            grad.iter_mut().for_each(|g| *g = 0.0);
            mlp.grad(&data, &batch, &mut grad);
            for (p, g) in mlp.params_mut().iter_mut().zip(&grad) {
                *p -= 0.1 * g;
            }
        }
        let acc = mlp.accuracy(&data, &rows);
        assert!(acc > 0.5, "training accuracy {acc}");
    }

    #[test]
    #[should_panic]
    fn single_layer_rejected() {
        Mlp::new(&[10], 1);
    }
}
