//! The in-memory object store.
//!
//! One store instance plays every storage service; the per-service
//! differences (latency, bandwidth, caps, billing) live in
//! [`crate::profile`] and [`crate::channel`]. Keys are flat strings using
//! the paper's naming scheme (`ep3_it7_p12` — epoch, iteration, partition),
//! and prefix listing is atomic, the property the merging phase's
//! completion check relies on (§3.2.4).

use crate::blob::Blob;
use std::collections::BTreeMap;

/// In-memory key→blob store with sorted, atomic prefix listing.
///
/// The store also recycles payload buffers: `ObjectStore::blob_of` copies
/// data into a buffer taken from blobs the store dropped earlier
/// (overwritten or cleared) *while holding the last reference* to
/// them, so a round that writes what the previous round cleared touches no
/// fresh memory. It keeps only as many dropped buffers as `blob_of` has
/// lent: in a BSP round that is the merged file's buffer, plus one copy per
/// statistic when the caller lent its statistics instead of handing them
/// over (owned statistics move in through [`Blob::from_vec`] and are freed
/// when cleared). Recycling is invisible in the stored data, the listing
/// and [`ObjectStore::stored_bytes`].
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    objects: BTreeMap<String, Blob>,
    spare: Spare,
}

/// The buffers `blob_of` recycles.
#[derive(Debug, Clone, Default)]
struct Spare {
    /// Buffers of dropped blobs, waiting for `blob_of`.
    buffers: Vec<Vec<f64>>,
    /// Buffers `blob_of` has handed out and not had back. Only that many
    /// dropped buffers are kept, so a store that is only ever overwritten
    /// with blobs built elsewhere retains nothing.
    lent: usize,
}

impl Spare {
    /// Keep a dropped blob's buffer if nothing else refers to it.
    fn recycle(&mut self, blob: Blob) {
        if self.lent == 0 {
            return;
        }
        if let Some(buffer) = blob.into_buffer() {
            self.lent -= 1;
            self.buffers.push(buffer);
        }
    }
}

impl ObjectStore {
    pub(crate) fn new() -> Self {
        ObjectStore::default()
    }

    /// A blob holding a copy of `data` (wire size `8 × len`), in a recycled
    /// buffer when the store has one.
    pub(crate) fn blob_of(&mut self, data: &[f64]) -> Blob {
        let mut buffer = self.spare.buffers.pop().unwrap_or_default();
        buffer.clear();
        buffer.extend_from_slice(data);
        self.spare.lent += 1;
        Blob::from_vec(buffer)
    }

    /// Dropped buffers held for the next `blob_of` calls (a host-side
    /// count; nothing simulated depends on it).
    pub fn spare_buffers(&self) -> usize {
        self.spare.buffers.len()
    }

    /// Insert or overwrite.
    pub(crate) fn put(&mut self, key: impl Into<String>, blob: Blob) {
        if let Some(old) = self.objects.insert(key.into(), blob) {
            self.spare.recycle(old);
        }
    }

    /// Fetch a blob (cheap Arc clone).
    pub fn get(&self, key: &str) -> Option<Blob> {
        self.objects.get(key).cloned()
    }

    /// All keys with the given prefix, in sorted order (atomic snapshot).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of keys with the given prefix.
    pub fn count(&self, prefix: &str) -> usize {
        self.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .count()
    }

    /// Remove all keys with the given prefix, in key order; returns how
    /// many were removed.
    pub(crate) fn clear_prefix(&mut self, prefix: &str) -> usize {
        let gone = self
            .objects
            .extract_if(prefix.to_string().., |k, _| k.starts_with(prefix));
        let mut n = 0;
        for (_, blob) in gone {
            self.spare.recycle(blob);
            n += 1;
        }
        n
    }

    /// Total logical bytes stored.
    pub fn stored_bytes(&self) -> u64 {
        self.objects
            .values()
            .map(|b| b.wire_bytes().as_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(v: f64) -> Blob {
        Blob::from_vec(vec![v])
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = ObjectStore::new();
        s.put("a", blob(1.0));
        assert_eq!(s.get("a").unwrap().data(), &[1.0]);
        assert!(s.get("b").is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = ObjectStore::new();
        s.put("k", blob(1.0));
        s.put("k", blob(2.0));
        assert_eq!(s.get("k").unwrap().data(), &[2.0]);
        assert_eq!(s.count(""), 1);
    }

    #[test]
    fn list_is_prefix_filtered_and_sorted() {
        let mut s = ObjectStore::new();
        s.put("ep1_it2_p1", blob(1.0));
        s.put("ep1_it2_p0", blob(0.0));
        s.put("ep1_it3_p0", blob(0.0));
        s.put("merged_ep1_it2", blob(9.0));
        let keys = s.list("ep1_it2_");
        assert_eq!(keys, vec!["ep1_it2_p0", "ep1_it2_p1"]);
        assert_eq!(s.count("ep1_"), 3);
    }

    #[test]
    fn clear_prefix_removes_only_matches() {
        let mut s = ObjectStore::new();
        s.put("ep1_p0", blob(1.0));
        s.put("ep1_p1", blob(1.0));
        s.put("ep2_p0", blob(1.0));
        assert_eq!(s.clear_prefix("ep1_"), 2);
        assert_eq!(s.list(""), vec!["ep2_p0"]);
    }

    #[test]
    fn stored_bytes_sums_wire_sizes() {
        let mut s = ObjectStore::new();
        s.put("a", Blob::from_vec(vec![0.0; 10]));
        s.put(
            "b",
            Blob::from_vec(vec![0.0; 5]).with_wire(lml_sim::ByteSize::mb(1.0)),
        );
        assert_eq!(s.stored_bytes(), 80 + 1_000_000);
    }

    #[test]
    fn a_buffer_is_never_recycled_while_a_clone_of_it_is_alive() {
        let mut s = ObjectStore::new();
        let first = s.blob_of(&[1.0, 2.0, 3.0]);
        let ptr = first.data().as_ptr();
        s.put("a", first);
        let held = s.get("a");
        s.put("a", blob(9.0)); // the store drops its reference, `held` lives on
        let other = s.blob_of(&[4.0, 5.0, 6.0]);
        assert_ne!(
            other.data().as_ptr(),
            ptr,
            "a live buffer was handed out again"
        );
        assert_eq!(
            held.as_ref().map(|b| b.data().to_vec()),
            Some(vec![1.0, 2.0, 3.0])
        );
        // Once the outside reference is gone too, a later drop recycles.
        drop(held);
        s.put("b", other);
        let ptr = s.get("b").map(|b| b.data().as_ptr());
        assert_eq!(s.clear_prefix("b"), 1);
        let again = s.blob_of(&[7.0, 8.0]);
        assert_eq!(
            Some(again.data().as_ptr()),
            ptr,
            "last reference dropped by the store"
        );
        assert_eq!(
            again.data(),
            &[7.0, 8.0],
            "recycled buffers carry no old data"
        );
    }

    #[test]
    fn slices_keep_the_whole_buffer_alive_until_the_last_one_is_cleared() {
        let mut s = ObjectStore::new();
        let whole = s.blob_of(&[0.0, 1.0, 2.0, 3.0]);
        let ptr = whole.data().as_ptr();
        s.put("r_c0", whole.slice(0, 2));
        s.put("r_c1", whole.slice(2, 4));
        drop(whole);
        assert_eq!(s.clear_prefix("r_c0"), 1);
        assert_ne!(
            s.blob_of(&[5.0]).data().as_ptr(),
            ptr,
            "r_c1 still reads it"
        );
        assert_eq!(
            s.get("r_c1").map(|b| b.data().to_vec()),
            Some(vec![2.0, 3.0])
        );
        assert_eq!(s.clear_prefix("r_"), 1);
        assert_eq!(s.blob_of(&[6.0]).data().as_ptr(), ptr);
    }

    #[test]
    fn overwriting_with_foreign_blobs_retains_nothing() {
        // An ASP-style key rewritten forever with blobs built elsewhere:
        // nothing was lent, so nothing is kept.
        let mut s = ObjectStore::new();
        for i in 0..100 {
            s.put("global_model", Blob::from_vec(vec![i as f64; 64]));
        }
        assert_eq!(s.spare_buffers(), 0);
        // One loan admits one return, whatever buffer it is.
        let lent = s.blob_of(&[1.0]);
        s.put("global_model", blob(0.0));
        s.put("global_model", blob(0.0));
        assert_eq!(s.spare_buffers(), 1);
        drop(lent);
    }
}
