//! Mini-batch SGD primitives.
//!
//! A worker owns a contiguous partition of (already shuffled) rows and
//! cycles through it in mini-batches — the same access pattern as the
//! paper's PyTorch data loader with `shuffle=False` over a pre-shuffled S3
//! partition.

use lml_data::Dataset;
use lml_models::AnyModel;

/// Cycling mini-batch cursor over a worker's partition rows.
#[derive(Debug, Clone)]
pub(crate) struct BatchCursor {
    rows: Vec<usize>,
    pos: usize,
    batch: usize,
}

impl BatchCursor {
    pub fn new(rows: Vec<usize>, batch: usize) -> Self {
        assert!(!rows.is_empty(), "empty partition");
        assert!(batch >= 1);
        let batch = batch.min(rows.len());
        BatchCursor {
            rows,
            pos: 0,
            batch,
        }
    }

    /// The next mini-batch of row indices (wraps around the partition).
    pub(crate) fn next_batch(&mut self) -> Vec<usize> {
        let n = self.rows.len();
        let mut out = Vec::with_capacity(self.batch);
        for _ in 0..self.batch {
            out.push(self.rows[self.pos]);
            self.pos = (self.pos + 1) % n;
        }
        out
    }

    /// Mini-batches per full pass over the partition.
    pub(crate) fn batches_per_epoch(&self) -> usize {
        self.rows.len().div_ceil(self.batch)
    }

    pub fn partition_len(&self) -> usize {
        self.rows.len()
    }

    pub fn rows(&self) -> &[usize] {
        &self.rows
    }
}

/// One SGD step on `model` over `batch` rows: `w ← w − lr·∇f(w)`.
/// `grad_buf` is a caller-provided scratch buffer of `param_len`. Returns
/// the mini-batch loss *before* the step.
pub(crate) fn sgd_step(
    model: &mut AnyModel,
    data: &Dataset,
    batch: &[usize],
    lr: f64,
    grad_buf: &mut [f64],
) -> f64 {
    grad_buf.iter_mut().for_each(|g| *g = 0.0);
    let loss = model.grad(data, batch, grad_buf);
    let params = model.params_mut();
    for (p, g) in params.iter_mut().zip(grad_buf.iter()) {
        *p -= lr * g;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::generators::DatasetId;
    use lml_models::ModelId;

    #[test]
    fn cursor_wraps_and_covers() {
        let mut c = BatchCursor::new(vec![10, 11, 12, 13, 14], 2);
        assert_eq!(c.next_batch(), vec![10, 11]);
        assert_eq!(c.next_batch(), vec![12, 13]);
        assert_eq!(c.next_batch(), vec![14, 10]);
        assert_eq!(c.batches_per_epoch(), 3);
    }

    #[test]
    fn cursor_clamps_batch_to_partition() {
        let mut c = BatchCursor::new(vec![1, 2], 100);
        assert_eq!(c.next_batch(), vec![1, 2]);
    }

    #[test]
    fn sgd_step_reduces_loss_on_average() {
        let data = DatasetId::Higgs.generate_rows(500, 1).data;
        let mut m = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let mut grad = vec![0.0; m.param_len()];
        let before = m.full_loss(&data);
        let mut cursor = BatchCursor::new((0..500).collect(), 50);
        for _ in 0..30 {
            let b = cursor.next_batch();
            sgd_step(&mut m, &data, &b, 0.3, &mut grad);
        }
        let after = m.full_loss(&data);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    #[should_panic]
    fn empty_partition_rejected() {
        BatchCursor::new(vec![], 1);
    }
}
