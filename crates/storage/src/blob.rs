//! Storage payloads.
//!
//! A [`Blob`] carries real `f64` data (so aggregation results are
//! bit-exact) together with its *logical* wire size. The two can differ: the
//! MobileNet surrogate trains a small MLP but ships the paper's 12 MB
//! payload, and a deep model's chunk in ScatterReduce ships `wire/n` bytes.

use lml_sim::ByteSize;
use std::sync::Arc;

/// An immutable payload stored in (and moved through) a storage service:
/// a window of a shared buffer, so the chunks of one statistic are views
/// of a single copy.
#[derive(Debug, Clone)]
pub struct Blob {
    buffer: Arc<Vec<f64>>,
    start: usize,
    end: usize,
    wire: ByteSize,
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.data() == other.data() && self.wire == other.wire
    }
}

impl AsRef<[f64]> for Blob {
    fn as_ref(&self) -> &[f64] {
        self.data()
    }
}

impl Blob {
    /// Wrap a statistic vector, without copying it; wire size defaults to
    /// `8 × len` (f64 encoding).
    pub fn from_vec(data: Vec<f64>) -> Self {
        Blob {
            wire: ByteSize::of_f64s(data.len()),
            end: data.len(),
            start: 0,
            buffer: Arc::new(data),
        }
    }

    /// Override the logical wire size (deep-model surrogates).
    pub fn with_wire(mut self, wire: ByteSize) -> Self {
        self.wire = wire;
        self
    }

    /// An empty marker blob (checkpoint flags, trigger messages) with an
    /// explicit wire size.
    pub fn marker(wire: ByteSize) -> Self {
        Blob::from_vec(Vec::new()).with_wire(wire)
    }

    /// Elements `lo..hi` of this blob as a blob of their own, sharing the
    /// buffer (no copy); wire size defaults to `8 × (hi − lo)`.
    pub fn slice(&self, lo: usize, hi: usize) -> Blob {
        assert!(lo <= hi && hi <= self.len(), "blob slice out of range");
        Blob {
            buffer: Arc::clone(&self.buffer),
            start: self.start + lo,
            end: self.start + hi,
            wire: ByteSize::of_f64s(hi - lo),
        }
    }

    pub fn data(&self) -> &[f64] {
        self.buffer.get(self.start..self.end).unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn wire_bytes(&self) -> ByteSize {
        self.wire
    }

    /// Sum another blob's data into a mutable accumulator vector.
    pub fn add_into(&self, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.len(), "blob length mismatch in aggregation");
        for (a, v) in acc.iter_mut().zip(self.data()) {
            *a += v;
        }
    }

    /// The buffer behind this blob, if this was the last blob (whole or
    /// slice, original or clone) referring to it.
    pub(crate) fn into_buffer(self) -> Option<Vec<f64>> {
        Arc::try_unwrap(self.buffer).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_defaults_to_f64_encoding() {
        let b = Blob::from_vec(vec![1.0; 28]);
        assert_eq!(b.wire_bytes(), ByteSize::bytes(224));
        assert_eq!(b.len(), 28);
    }

    #[test]
    fn wire_override_keeps_data() {
        let b = Blob::from_vec(vec![1.0; 10]).with_wire(ByteSize::mb(12.0));
        assert_eq!(b.wire_bytes(), ByteSize::mb(12.0));
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn marker_is_empty() {
        let m = Blob::marker(ByteSize::bytes(64));
        assert!(m.is_empty());
        assert_eq!(m.wire_bytes(), ByteSize::bytes(64));
    }

    #[test]
    fn add_into_accumulates() {
        let b = Blob::from_vec(vec![1.0, 2.0]);
        let mut acc = vec![0.5, 0.5];
        b.add_into(&mut acc);
        assert_eq!(acc, vec![1.5, 2.5]);
    }

    #[test]
    fn clone_shares_data() {
        let b = Blob::from_vec(vec![1.0; 1000]);
        let c = b.clone();
        assert_eq!(b.data().as_ptr(), c.data().as_ptr(), "Arc-shared, no copy");
    }

    #[test]
    fn slices_are_views_of_the_same_buffer() {
        let whole = Blob::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0]).with_wire(ByteSize::mb(1.0));
        let mid = whole.slice(1, 4);
        assert_eq!(mid.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(
            mid.wire_bytes(),
            ByteSize::of_f64s(3),
            "a slice has its own wire size"
        );
        assert_eq!(mid.data().as_ptr(), whole.data().split_at(1).1.as_ptr());
        let inner = mid.slice(2, 3);
        assert_eq!(inner.data(), &[3.0], "slices of slices are relative");
        assert!(whole.slice(5, 5).is_empty());
        assert_eq!(
            mid,
            Blob::from_vec(vec![1.0, 2.0, 3.0]),
            "equality is by content"
        );
        let mut acc = vec![1.0; 3];
        mid.add_into(&mut acc);
        assert_eq!(acc, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn the_buffer_comes_back_only_from_the_last_reference() {
        let whole = Blob::from_vec(vec![7.0; 4]);
        let (clone, part) = (whole.clone(), whole.slice(0, 2));
        assert!(
            whole.into_buffer().is_none(),
            "a clone and a slice are alive"
        );
        assert!(clone.into_buffer().is_none(), "a slice is alive");
        assert_eq!(
            part.into_buffer(),
            Some(vec![7.0; 4]),
            "the whole buffer, not the window"
        );
    }

    #[test]
    #[should_panic]
    fn add_into_length_mismatch_panics() {
        Blob::from_vec(vec![1.0]).add_into(&mut [0.0, 0.0]);
    }
}
