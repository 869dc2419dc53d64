//! Data partitioning across workers.
//!
//! LambdaML partitions training data evenly and assigns one partition per
//! executor (§3.1, step 1 of the job execution). [`Partition`] describes one
//! worker's contiguous index range into the (already shuffled) dataset.

/// One worker's slice of the dataset: row indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    pub worker: usize,
    pub start: usize,
    pub end: usize,
}

impl Partition {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `pub` beside the `pub` [`Partition::len`], as clippy's
    /// `len_without_is_empty` asks.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The row indices in this partition.
    pub fn indices(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }
}

/// Split `n` rows into `workers` contiguous, near-equal partitions. The
/// first `n % workers` partitions get one extra row, so sizes differ by at
/// most one.
pub fn partition_rows(n: usize, workers: usize) -> Vec<Partition> {
    assert!(workers >= 1, "need at least one worker");
    let base = n / workers;
    let extra = n % workers;
    let mut parts = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        parts.push(Partition {
            worker: w,
            start,
            end: start + len,
        });
        start += len;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let parts = partition_rows(100, 10);
        assert_eq!(parts.len(), 10);
        assert!(parts.iter().all(|p| p.len() == 10));
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[9].end, 100);
    }

    #[test]
    fn uneven_split_differs_by_at_most_one() {
        let parts = partition_rows(103, 10);
        let sizes: Vec<usize> = parts.iter().map(Partition::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let parts = partition_rows(57, 8);
        let mut seen = [false; 57];
        for p in &parts {
            for i in p.indices() {
                assert!(!seen[i], "row {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn more_workers_than_rows() {
        let parts = partition_rows(3, 5);
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!(parts.iter().map(Partition::len).sum::<usize>(), 3);
    }

    #[test]
    fn single_worker_gets_everything() {
        let parts = partition_rows(42, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 42);
    }

    #[test]
    #[should_panic]
    fn zero_workers_panics() {
        partition_rows(10, 0);
    }
}
