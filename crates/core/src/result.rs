//! Scan results: candidates and top-K collection.
//!
//! Each worker thread keeps a local [`TopK`] (no synchronisation in the
//! hot loop, per §IV-A) and the driver merges them in a final reduction.

#![warn(clippy::iter_over_hash_type)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A strictly increasing SNP triple `(i0, i1, i2)`.
pub type Triple = (u32, u32, u32);

/// A scored SNP triple. Lower score = better (K2 convention).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Objective value.
    pub score: f64,
    /// The SNP triple.
    pub triple: Triple,
}

impl Candidate {
    /// Total order: by score, ties broken by triple so merges are
    /// deterministic regardless of thread scheduling.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.triple.cmp(&other.triple))
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

/// Bounded best-K collection (min scores kept; internally a max-heap so
/// the worst retained candidate is evictable in O(log k)).
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl TopK {
    /// Collector retaining the `k` lowest-scoring candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k requires k >= 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer a candidate.
    #[inline]
    pub fn push(&mut self, score: f64, triple: Triple) {
        let cand = Candidate { score, triple };
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(worst) = self.heap.peek() {
            if cand < *worst {
                self.heap.pop();
                self.heap.push(cand);
            }
        }
    }

    /// Current admission threshold: scores ≥ this cannot enter (None while
    /// the collector is not yet full).
    #[inline]
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|c| c.score)
        }
    }

    /// Merge another collector into this one.
    pub fn merge(&mut self, other: TopK) {
        for c in other.heap {
            self.push(c.score, c.triple);
        }
    }

    /// Number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extract candidates sorted best (lowest score) first.
    pub fn into_sorted(self) -> Vec<Candidate> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Best candidate without consuming the collector.
    pub fn best(&self) -> Option<Candidate> {
        self.heap.iter().min().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_lowest() {
        let mut t = TopK::new(3);
        for (i, s) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            t.push(*s, (i as u32, i as u32 + 1, i as u32 + 2));
        }
        let sorted = t.into_sorted();
        let scores: Vec<f64> = sorted.iter().map(|c| c.score).collect();
        assert_eq!(scores, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn merge_equals_single_stream() {
        let items: Vec<(f64, Triple)> = (0..100)
            .map(|i| (((i * 37) % 100) as f64, (i, i + 1, i + 2)))
            .collect();
        let mut single = TopK::new(10);
        for &(s, t) in &items {
            single.push(s, t);
        }
        let mut a = TopK::new(10);
        let mut b = TopK::new(10);
        for (idx, &(s, t)) in items.iter().enumerate() {
            if idx % 2 == 0 {
                a.push(s, t);
            } else {
                b.push(s, t);
            }
        }
        a.merge(b);
        assert_eq!(a.into_sorted(), single.into_sorted());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut t = TopK::new(2);
        t.push(1.0, (3, 4, 5));
        t.push(1.0, (0, 1, 2));
        t.push(1.0, (6, 7, 8));
        let sorted = t.into_sorted();
        assert_eq!(sorted[0].triple, (0, 1, 2));
        assert_eq!(sorted[1].triple, (3, 4, 5));
    }

    #[test]
    fn threshold_appears_once_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        t.push(5.0, (0, 1, 2));
        assert_eq!(t.threshold(), None);
        t.push(3.0, (1, 2, 3));
        assert_eq!(t.threshold(), Some(5.0));
        t.push(1.0, (2, 3, 4));
        assert_eq!(t.threshold(), Some(3.0));
    }

    #[test]
    fn best_is_minimum() {
        let mut t = TopK::new(5);
        t.push(2.0, (0, 1, 2));
        t.push(-1.0, (1, 2, 3));
        assert_eq!(t.best().unwrap().score, -1.0);
    }

    #[test]
    fn nan_scores_do_not_poison_ordering() {
        let mut t = TopK::new(2);
        t.push(f64::NAN, (0, 1, 2));
        t.push(1.0, (1, 2, 3));
        t.push(2.0, (2, 3, 4));
        let sorted = t.into_sorted();
        // total_cmp sorts NaN after real values
        assert_eq!(sorted[0].score, 1.0);
        assert_eq!(sorted[1].score, 2.0);
    }
}
