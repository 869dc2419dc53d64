//! Dense key interning for hot-path per-tenant state.
//!
//! The simulator's inner loop touches several maps keyed by [`TenantId`]
//! or `(TenantId, JobClass)` on every admission, completion, and observe
//! call: DRR service credit, spend ledgers, budget caps, EWMA estimator
//! state, preemption-rate posteriors. As `BTreeMap`s these cost a
//! pointer-chasing ordered lookup per touch; profiles of `fleet_scale`
//! showed them and the event heap dominating the remaining wall.
//!
//! [`TenantMap`] replaces them with a tiny interner plus a dense value
//! vector. Tenant ids are "dense small integers" by convention
//! (`crate::job::TenantId`), so the id→slot table is direct-mapped — a
//! `Vec<u32>` indexed by the tenant id itself — and a lookup is two
//! array reads. Ids past `DIRECT_CAP` (adversarially sparse traces)
//! fall back to a sorted-vec binary search so memory stays bounded.
//!
//! Each map interns independently: a tenant occupies a slot in a given
//! map only once that map has actually seen it, which exactly preserves
//! the presence semantics of the `BTreeMap`s it replaces (e.g. the spend
//! gauge must list precisely the tenants ever charged). Iteration on the
//! JSON/metrics cold paths goes through `TenantMap::iter_sorted` /
//! `TenantMap::into_iter_sorted`, which order by the original tenant id
//! so emitted bytes (and float summation order) match the ordered-map
//! output bit for bit.

use crate::job::{JobClass, TenantId};

/// Largest tenant id served by the direct-mapped index table. At 4 bytes
/// a slot the table tops out at 4 MiB; anything sparser than that goes to
/// the binary-search side table.
const DIRECT_CAP: usize = 1 << 20;

/// Sentinel in the direct-mapped table: "not interned here".
const EMPTY: u32 = u32::MAX;

/// A map from [`TenantId`] to `V` backed by dense interned slots.
///
/// `get`/`get_or_insert_with` are O(1) for ids below `DIRECT_CAP`.
/// Insertion order is preserved in the dense storage; sorted views are
/// materialized on demand (cold paths only).
#[derive(Debug, Clone)]
pub struct TenantMap<V> {
    /// Direct-mapped id → dense slot, grown lazily to the largest id seen.
    idx: Vec<u32>,
    /// Sorted `(id, slot)` pairs for ids ≥ [`DIRECT_CAP`].
    sparse: Vec<(TenantId, u32)>,
    /// Dense slot → original id (parallel to `vals`).
    keys: Vec<TenantId>,
    vals: Vec<V>,
}

impl<V> Default for TenantMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> TenantMap<V> {
    pub fn new() -> Self {
        TenantMap {
            idx: Vec::new(),
            sparse: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Dense slot for `tenant`, if interned in this map.
    #[inline]
    fn slot(&self, tenant: TenantId) -> Option<usize> {
        let t = tenant as usize;
        if t < DIRECT_CAP {
            match self.idx.get(t) {
                Some(&s) if s != EMPTY => Some(s as usize),
                _ => None,
            }
        } else {
            self.sparse
                .binary_search_by_key(&tenant, |&(id, _)| id)
                .ok()
                .map(|i| self.sparse[i].1 as usize)
        }
    }

    #[inline]
    pub fn get(&self, tenant: TenantId) -> Option<&V> {
        self.slot(tenant).map(|s| &self.vals[s])
    }

    /// The slot for `tenant`, interning it with `default()` on first
    /// touch — the dense analogue of `entry(t).or_insert_with(..)`.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        tenant: TenantId,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let s = match self.slot(tenant) {
            Some(s) => s,
            None => self.intern(tenant, default()),
        };
        &mut self.vals[s]
    }

    /// Insert or overwrite, returning the previous value if any.
    pub fn insert(&mut self, tenant: TenantId, value: V) -> Option<V> {
        match self.slot(tenant) {
            Some(s) => Some(std::mem::replace(&mut self.vals[s], value)),
            None => {
                self.intern(tenant, value);
                None
            }
        }
    }

    /// Allocate a fresh dense slot for a not-yet-interned tenant.
    fn intern(&mut self, tenant: TenantId, value: V) -> usize {
        let slot = self.vals.len();
        let t = tenant as usize;
        if t < DIRECT_CAP {
            if t >= self.idx.len() {
                self.idx.resize(t + 1, EMPTY);
            }
            self.idx[t] = slot as u32;
        } else {
            let pos = self
                .sparse
                .binary_search_by_key(&tenant, |&(id, _)| id)
                .unwrap_err();
            self.sparse.insert(pos, (tenant, slot as u32));
        }
        self.keys.push(tenant);
        self.vals.push(value);
        slot
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Mutable sweep over every value, in intern order. Used for bulk
    /// resets (budget-window rollover) where order is irrelevant.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.vals.iter_mut()
    }

    /// Iterate `(tenant, &value)` ascending by tenant id — the iteration
    /// order of the `BTreeMap` this replaces. Sorts a slot permutation on
    /// each call; only for cold paths (gauges, JSON rows, Jain sums).
    pub(crate) fn iter_sorted(&self) -> impl Iterator<Item = (TenantId, &V)> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by_key(|&s| self.keys[s]);
        order.into_iter().map(|s| (self.keys[s], &self.vals[s]))
    }

    /// Consume into `(tenant, value)` pairs ascending by tenant id.
    pub(crate) fn into_iter_sorted(self) -> impl Iterator<Item = (TenantId, V)> {
        let mut pairs: Vec<(TenantId, V)> = self.keys.into_iter().zip(self.vals).collect();
        pairs.sort_unstable_by_key(|&(t, _)| t);
        pairs.into_iter()
    }
}

/// A map from `(TenantId, JobClass)` to `V`: interned tenant slots, each
/// fanned out over the six job classes. Lookup is the tenant's O(1) slot
/// plus a fixed-offset class index. Never iterated — the estimator and
/// risk state it backs are read/update only.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantClassMap<V> {
    inner: TenantMap<[Option<V>; JobClass::ALL.len()]>,
}

impl<V> TenantClassMap<V> {
    pub(crate) fn new() -> Self {
        TenantClassMap {
            inner: TenantMap::new(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, tenant: TenantId, class: JobClass) -> Option<&V> {
        self.inner
            .get(tenant)
            .and_then(|slots| slots[class as usize].as_ref())
    }

    /// The slot for `(tenant, class)`, created with `default()` on first
    /// touch — the dense analogue of `entry((t, c)).or_insert_with(..)`.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        tenant: TenantId,
        class: JobClass,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let slots = self
            .inner
            .get_or_insert_with(tenant, || std::array::from_fn(|_| None));
        slots[class as usize].get_or_insert_with(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn get_or_insert_matches_entry_semantics() {
        let mut m: TenantMap<f64> = TenantMap::new();
        *m.get_or_insert_with(3, || 0.0) += 1.5;
        *m.get_or_insert_with(3, || 0.0) += 1.5;
        *m.get_or_insert_with(1, || 0.0) += 5.0;
        assert_eq!(m.get(3), Some(&3.0));
        assert_eq!(m.get(1), Some(&5.0));
        assert_eq!(m.get(2), None);
        assert_eq!(m.iter_sorted().count(), 2);
    }

    #[test]
    fn insert_overwrites_and_returns_previous() {
        let mut m: TenantMap<&str> = TenantMap::new();
        assert_eq!(m.insert(7, "a"), None);
        assert_eq!(m.insert(7, "b"), Some("a"));
        assert_eq!(m.get(7), Some(&"b"));
        assert_eq!(m.iter_sorted().count(), 1);
    }

    #[test]
    fn sorted_iteration_matches_btreemap_order() {
        let ids = [9u32, 2, 40, 0, 17, 5];
        let mut dense: TenantMap<u64> = TenantMap::new();
        let mut reference: BTreeMap<TenantId, u64> = BTreeMap::new();
        for (i, &t) in ids.iter().enumerate() {
            dense.insert(t, i as u64);
            reference.insert(t, i as u64);
        }
        let got: Vec<(TenantId, u64)> = dense.iter_sorted().map(|(t, &v)| (t, v)).collect();
        let want: Vec<(TenantId, u64)> = reference.iter().map(|(&t, &v)| (t, v)).collect();
        assert_eq!(got, want);
        let got_owned: Vec<(TenantId, u64)> = dense.into_iter_sorted().collect();
        assert_eq!(got_owned, want);
    }

    #[test]
    fn sparse_ids_past_direct_cap_still_work() {
        let mut m: TenantMap<i32> = TenantMap::new();
        let big = (DIRECT_CAP as u32) + 12345;
        m.insert(big, 1);
        m.insert(3, 2);
        m.insert(big + 7, 3);
        assert_eq!(m.get(big), Some(&1));
        assert_eq!(m.get(big + 7), Some(&3));
        assert_eq!(m.get(big + 1), None);
        let order: Vec<TenantId> = m.iter_sorted().map(|(t, _)| t).collect();
        assert_eq!(order, vec![3, big, big + 7]);
    }

    #[test]
    fn tenant_class_map_keys_independently_per_class() {
        let mut m: TenantClassMap<u32> = TenantClassMap::new();
        *m.get_or_insert_with(4, JobClass::LrHiggs, || 0) += 10;
        *m.get_or_insert_with(4, JobClass::RnCifar, || 0) += 20;
        *m.get_or_insert_with(9, JobClass::LrHiggs, || 0) += 30;
        assert_eq!(m.get(4, JobClass::LrHiggs), Some(&10));
        assert_eq!(m.get(4, JobClass::RnCifar), Some(&20));
        assert_eq!(m.get(9, JobClass::LrHiggs), Some(&30));
        assert_eq!(m.get(4, JobClass::SvmRcv1), None);
        assert_eq!(m.get(9, JobClass::RnCifar), None);
    }
}
