//! Second-order (pairwise) epistasis detection.
//!
//! The paper's introduction motivates exhaustive search with two-way
//! interactions (Crohn's disease) before scaling to three-way; most prior
//! tools (GBOOST, epiSNP, GWIS_FI) are pairwise. This module generalises
//! the machinery down an order: 3×3 contingency tables over the same
//! split two-plane layout, the same K2 objective, and the same dynamic
//! parallel driver.
//!
//! The kernel reuses the vectorised 27-cell accumulator by synthesising a
//! degenerate third SNP whose genotype-0 plane is all ones: every sample
//! then lands in cell `(gx, gy, 0)`, so the 9 pair counts drop out of the
//! 27-cell result unchanged — the SIMD dispatch comes for free.

use crate::combin;
use crate::k2::K2Scorer;
use crate::pool;
use crate::result::TopK;
use crate::simd::{accumulate27, SimdLevel};
use bitgenome::{GenotypeMatrix, Phenotype, SplitDataset, Word, CASE, CTRL};
use std::time::{Duration, Instant};

/// Cells of a pairwise contingency table.
pub const PAIR_CELLS: usize = 9;

/// Flat cell index for genotype pair `(gx, gy)`.
#[inline]
pub const fn pair_cell_index(gx: usize, gy: usize) -> usize {
    gx * 3 + gy
}

/// Case/control contingency table for one SNP pair.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PairTable {
    /// `counts[class][cell]`.
    pub counts: [[u32; PAIR_CELLS]; 2],
}

impl PairTable {
    /// Reference construction from dense genotypes.
    pub fn from_dense(g: &GenotypeMatrix, p: &Phenotype, pair: (usize, usize)) -> Self {
        let mut t = Self::default();
        for j in 0..g.num_samples() {
            let gx = g.get(pair.0, j) as usize;
            let gy = g.get(pair.1, j) as usize;
            t.counts[p.get(j) as usize][pair_cell_index(gx, gy)] += 1;
        }
        t
    }

    /// Total samples in the table.
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .flat_map(|c| c.iter())
            .map(|&v| u64::from(v))
            .sum()
    }
}

/// A scored SNP pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairCandidate {
    /// K2 score (lower = better).
    pub score: f64,
    /// The SNP pair `(i0, i1)` with `i0 < i1`.
    pub pair: (u32, u32),
}

/// Result of a pairwise scan.
#[derive(Clone, Debug)]
pub struct PairScanResult {
    /// Best pairs, lowest score first.
    pub top: Vec<PairCandidate>,
    /// Pairs evaluated (`C(M, 2)`).
    pub combos: u64,
    /// Kernel wall-clock.
    pub elapsed: Duration,
}

/// Build the pair table through the (vectorised) triple kernel with a
/// degenerate all-ones third SNP.
pub fn table_for_pair(
    ds: &SplitDataset,
    pair: (u32, u32),
    level: SimdLevel,
    ones: &OnesPlanes,
) -> PairTable {
    let (x, y) = (pair.0 as usize, pair.1 as usize);
    let mut t = PairTable::default();
    for class in [CTRL, CASE] {
        let cp = ds.class(class);
        let (x0, x1) = cp.planes(x);
        let (y0, y1) = cp.planes(y);
        let (z0, z1) = ones.planes(class, cp.num_words());
        let mut acc27 = [0u32; 27];
        accumulate27(level, (x0, x1, y0, y1, z0, z1), &mut acc27);
        for gx in 0..3 {
            for gy in 0..3 {
                // pair counts sit at (gx, gy, z-genotype 0)
                t.counts[class][pair_cell_index(gx, gy)] = acc27[gx * 9 + gy * 3];
            }
        }
    }
    // padding bits: zero in x/y planes => genotype 2 for both, genotype 0
    // for the synthetic z => phantom counts at (2, 2)
    let last = pair_cell_index(2, 2);
    t.counts[CTRL][last] -= ds.controls().pad_bits();
    t.counts[CASE][last] -= ds.cases().pad_bits();
    t
}

/// Pre-built all-ones/all-zero planes for the degenerate third SNP.
pub struct OnesPlanes {
    ones: [Vec<Word>; 2],
    zeros: [Vec<Word>; 2],
}

impl OnesPlanes {
    /// Build for a split dataset's class word counts.
    pub fn for_dataset(ds: &SplitDataset) -> Self {
        let mk = |w: usize| (vec![Word::MAX; w], vec![0 as Word; w]);
        let (oc, zc) = mk(ds.controls().num_words());
        let (ok, zk) = mk(ds.cases().num_words());
        Self {
            ones: [oc, ok],
            zeros: [zc, zk],
        }
    }

    fn planes(&self, class: usize, words: usize) -> (&[Word], &[Word]) {
        (&self.ones[class][..words], &self.zeros[class][..words])
    }
}

/// Exhaustive pairwise scan with the K2 objective.
///
/// ```
/// use bitgenome::{GenotypeMatrix, Phenotype};
/// use epi_core::pairs::scan_pairs;
///
/// let g = GenotypeMatrix::from_raw(3, 4, vec![0, 1, 2, 0, 1, 0, 2, 1, 2, 2, 0, 0]);
/// let p = Phenotype::from_labels(vec![0, 1, 1, 0]);
/// let res = scan_pairs(&g, &p, 2, 1);
/// assert_eq!(res.combos, 3); // C(3,2)
/// assert_eq!(res.top.len(), 2);
/// ```
pub fn scan_pairs(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    top_k: usize,
    threads: usize,
) -> PairScanResult {
    let m = genotypes.num_snps();
    if m < 2 {
        return PairScanResult {
            top: Vec::new(),
            combos: 0,
            elapsed: Duration::ZERO,
        };
    }
    let ds = SplitDataset::encode(genotypes, phenotype);
    let ones = OnesPlanes::for_dataset(&ds);
    let scorer = K2Scorer::new(genotypes.num_samples());
    let level = SimdLevel::detect();
    #[expect(
        clippy::disallowed_methods,
        reason = "pair-cache build timer is telemetry; cache contents are a deterministic function of the genotype matrix"
    )]
    let start = Instant::now();
    let states = pool::run_dynamic(
        m,
        threads,
        1,
        || TopK::new(top_k),
        |i0, top| {
            for i1 in (i0 + 1)..m {
                let t = table_for_pair(&ds, (i0 as u32, i1 as u32), level, &ones);
                let score = scorer.score_pair(&t);
                top.push(score, (i0 as u32, i1 as u32, 0));
            }
        },
    );
    let elapsed = start.elapsed();
    let mut merged = TopK::new(top_k);
    for s in states {
        merged.merge(s);
    }
    PairScanResult {
        top: merged
            .into_sorted()
            .into_iter()
            .map(|c| PairCandidate {
                score: c.score,
                pair: (c.triple.0, c.triple.1),
            })
            .collect(),
        combos: combin::n_choose_k(m as u64, 2),
        elapsed,
    }
}

impl K2Scorer {
    /// K2 score of a pairwise table (9-cell variant of Eq. 1).
    pub fn score_pair(&self, t: &PairTable) -> f64 {
        self.score_cells_generic(&t.counts[CTRL], &t.counts[CASE])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(m: usize, n: usize, seed: u64) -> (GenotypeMatrix, Phenotype) {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s >> 33
        };
        let data: Vec<u8> = (0..m * n).map(|_| (next() % 3) as u8).collect();
        let labels: Vec<u8> = (0..n).map(|_| (next() % 2) as u8).collect();
        (
            GenotypeMatrix::from_raw(m, n, data),
            Phenotype::from_labels(labels),
        )
    }

    #[test]
    fn pair_table_matches_dense() {
        let (g, p) = dataset(6, 147, 9);
        let ds = SplitDataset::encode(&g, &p);
        let ones = OnesPlanes::for_dataset(&ds);
        for pair in [(0u32, 1u32), (2, 4), (1, 5), (0, 5)] {
            let got = table_for_pair(&ds, pair, SimdLevel::Scalar, &ones);
            let want = PairTable::from_dense(&g, &p, (pair.0 as usize, pair.1 as usize));
            assert_eq!(got, want, "{pair:?}");
            assert_eq!(got.total(), 147);
        }
    }

    #[test]
    fn simd_tiers_agree_on_pairs() {
        let (g, p) = dataset(5, 333, 4);
        let ds = SplitDataset::encode(&g, &p);
        let ones = OnesPlanes::for_dataset(&ds);
        let want = table_for_pair(&ds, (1, 3), SimdLevel::Scalar, &ones);
        for level in SimdLevel::available() {
            assert_eq!(table_for_pair(&ds, (1, 3), level, &ones), want, "{level}");
        }
    }

    #[test]
    fn pair_scan_counts_pairs() {
        let (g, p) = dataset(10, 64, 2);
        let res = scan_pairs(&g, &p, 3, 2);
        assert_eq!(res.combos, 45);
        assert_eq!(res.top.len(), 3);
        for w in res.top.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }

    #[test]
    fn pair_scan_is_thread_invariant() {
        let (g, p) = dataset(12, 96, 6);
        let a = scan_pairs(&g, &p, 5, 1);
        let b = scan_pairs(&g, &p, 5, 4);
        assert_eq!(a.top, b.top);
    }

    #[test]
    fn tiny_input() {
        let (g, p) = dataset(1, 10, 3);
        assert!(scan_pairs(&g, &p, 1, 1).top.is_empty());
    }
}
