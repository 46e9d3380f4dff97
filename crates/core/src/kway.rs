//! Arbitrary-order (k-way) exhaustive epistasis detection.
//!
//! The paper targets third order because "interactions of three or more
//! SNPs" underlie complex diseases (§I, citing Alzheimer's and type-2
//! diabetes work); this module generalises the split-layout kernel to any
//! order `k ≥ 2`: `3^k`-cell contingency tables, a prefix-AND intersection
//! kernel (each partial genotype intersection is computed once and reused
//! for all `3^(k-remaining)` descendants), generic K2 scoring, and the
//! same dynamic parallel driver. Orders 2 and 3 are cross-checked against
//! the specialised implementations in the test suite.
//!
//! [`table_for_combo`] is the *reference* kernel: it re-derives the
//! prefix intersections per combination (word-local recursion).
//! [`scan_kway`] instead drives the shared
//! [`crate::prefixcache::PrefixCache`], which materialises the same
//! recursion per *depth* and reuses it across the rank order — every
//! combination in a prefix run costs `2·3^(k-1)` `AND`+`POPCNT` passes
//! plus `3^(k-1)` subtractions, exactly the V5 amortisation at arbitrary
//! order, through one cache type instead of two parallel
//! implementations. Both produce bit-identical tables (property-tested).

#![warn(clippy::iter_over_hash_type)]

use crate::combin;
use crate::k2::K2Scorer;
use crate::pool;
use crate::prefixcache::PrefixCache;
use crate::result::TopK;
use crate::simd::SimdLevel;
use bitgenome::{GenotypeMatrix, Phenotype, SplitDataset, Word, CASE, CTRL};
use std::time::{Duration, Instant};

/// Contingency table for one k-way combination: `3^k` cells per class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KwayTable {
    k: usize,
    /// `counts[class][cell]`, cell index in base-3 (first SNP most
    /// significant — the same convention as `datagen::PenetranceTable`).
    pub counts: [Vec<u32>; 2],
}

impl KwayTable {
    /// Empty table of order `k`.
    pub fn new(k: usize) -> Self {
        let cells = 3usize.pow(k as u32);
        Self {
            k,
            counts: [vec![0; cells], vec![0; cells]],
        }
    }

    /// Interaction order.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Number of genotype-combination cells (`3^k`).
    pub fn cells(&self) -> usize {
        self.counts[0].len()
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .flat_map(|c| c.iter())
            .map(|&v| u64::from(v))
            .sum()
    }

    /// Reference construction from dense genotypes.
    pub fn from_dense(g: &GenotypeMatrix, p: &Phenotype, snps: &[usize]) -> Self {
        let mut t = Self::new(snps.len());
        for j in 0..g.num_samples() {
            let mut cell = 0usize;
            for &s in snps {
                cell = cell * 3 + g.get(s, j) as usize;
            }
            t.counts[p.get(j) as usize][cell] += 1;
        }
        t
    }
}

/// Build the k-way table for `snps` over a split dataset with the
/// prefix-AND kernel.
pub fn table_for_combo(ds: &SplitDataset, snps: &[usize]) -> KwayTable {
    let k = snps.len();
    assert!(k >= 1, "need at least one SNP");
    let mut t = KwayTable::new(k);
    for class in [CTRL, CASE] {
        let cp = ds.class(class);
        let words = cp.num_words();
        // per-word genotype planes of every SNP in the combo
        let mut planes: Vec<(&[Word], &[Word])> = Vec::with_capacity(k);
        for &s in snps {
            planes.push(cp.planes(s));
        }
        for w in 0..words {
            descend(&planes, w, 0, Word::MAX, 0, &mut t.counts[class]);
        }
    }
    // zero padding aliases to genotype 2 at every SNP => all-2s cell
    let last = t.cells() - 1;
    t.counts[CTRL][last] -= ds.controls().pad_bits();
    t.counts[CASE][last] -= ds.cases().pad_bits();
    t
}

/// Recursive prefix-AND: `partial` holds the intersection of the first
/// `depth` SNPs' chosen genotype planes at word `w`.
fn descend(
    planes: &[(&[Word], &[Word])],
    w: usize,
    depth: usize,
    partial: Word,
    cell: usize,
    acc: &mut [u32],
) {
    if partial == 0 {
        // nothing survives: all 3^(k-depth) descendant cells gain zero
        return;
    }
    if depth == planes.len() {
        acc[cell] += partial.count_ones();
        return;
    }
    let (p0, p1) = planes[depth];
    let g0 = p0[w];
    let g1 = p1[w];
    let g2 = !(g0 | g1);
    descend(planes, w, depth + 1, partial & g0, cell * 3, acc);
    descend(planes, w, depth + 1, partial & g1, cell * 3 + 1, acc);
    descend(planes, w, depth + 1, partial & g2, cell * 3 + 2, acc);
}

/// A scored k-way combination.
#[derive(Clone, Debug, PartialEq)]
pub struct KwayCandidate {
    /// K2 score (lower = better).
    pub score: f64,
    /// The SNP combination, strictly increasing.
    pub snps: Vec<usize>,
}

/// Result of a k-way scan.
#[derive(Clone, Debug)]
pub struct KwayScanResult {
    /// Best combinations, lowest score first.
    pub top: Vec<KwayCandidate>,
    /// Combinations evaluated (`C(M, k)`).
    pub combos: u64,
    /// Kernel wall-clock.
    pub elapsed: Duration,
}

/// Exhaustive k-way scan with the K2 objective. `k = 3` matches the
/// specialised `scan` drivers exactly (tested); higher orders grow as
/// `C(M, k)`, so keep `M` modest.
///
/// Each worker holds one [`PrefixCache`]: leading-index tasks are walked
/// in rank order, so the `k − 1` prefix streams stay warm while the last
/// SNP sweeps and only the changed depths rebuild on a prefix step.
pub fn scan_kway(
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
    k: usize,
    top_k: usize,
    threads: usize,
) -> KwayScanResult {
    assert!(k >= 2, "interaction order must be at least 2");
    let m = genotypes.num_snps();
    if m < k {
        return KwayScanResult {
            top: Vec::new(),
            combos: 0,
            elapsed: Duration::ZERO,
        };
    }
    let ds = SplitDataset::encode(genotypes, phenotype);
    let scorer = K2Scorer::new(genotypes.num_samples());
    let level = SimdLevel::detect();
    #[expect(
        clippy::disallowed_methods,
        reason = "elapsed time feeds ScanResult timing stats only; candidate ordering is pure popcount arithmetic"
    )]
    let start = Instant::now();
    // worker state: TopK over (score, packed combo); combos are packed
    // into the triple type when k <= 3, otherwise tracked via index map
    let states = pool::run_dynamic(
        m,
        threads,
        1,
        || {
            (
                TopK::new(top_k),
                Vec::<(f64, Vec<usize>)>::new(),
                PrefixCache::new(k, level),
            )
        },
        |i0, (top, spill, cache)| {
            combin::for_each_combo_with_leading(m, k, i0, &mut |combo| {
                let t = cache.table_for_combo(&ds, combo);
                let score = scorer.score_cells_generic(&t.counts[CTRL], &t.counts[CASE]);
                // keep the K best in the spill vec (simple insertion,
                // top_k is small)
                if top.threshold().is_none_or(|thr| score < thr) {
                    top.push(score, (combo[0] as u32, combo[1] as u32, 0));
                    spill.push((score, combo.to_vec()));
                }
            });
        },
    );
    let elapsed = start.elapsed();

    // merge spills: sort by (score, combo) and take top_k distinct
    let mut all: Vec<(f64, Vec<usize>)> = states.into_iter().flat_map(|(_, s, _)| s).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    all.truncate(top_k);
    KwayScanResult {
        top: all
            .into_iter()
            .map(|(score, snps)| KwayCandidate { score, snps })
            .collect(),
        combos: combin::n_choose_k(m as u64, k as u64),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan, ScanConfig, Version};

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
    fn kway_tables_match_dense_for_k2_to_k4() {
        let (g, p) = dataset(8, 130, 7);
        let ds = SplitDataset::encode(&g, &p);
        for combo in [vec![0usize, 3], vec![1, 4, 6], vec![0, 2, 5, 7]] {
            let got = table_for_combo(&ds, &combo);
            let want = KwayTable::from_dense(&g, &p, &combo);
            assert_eq!(got, want, "{combo:?}");
            assert_eq!(got.total(), 130);
        }
    }

    #[test]
    fn order3_matches_specialised_scan() {
        let (g, p) = dataset(11, 120, 3);
        let kway = scan_kway(&g, &p, 3, 4, 2);
        let mut cfg = ScanConfig::new(Version::V4);
        cfg.top_k = 4;
        let spec = scan(&g, &p, &cfg);
        assert_eq!(kway.combos, spec.combos);
        for (a, b) in kway.top.iter().zip(&spec.top) {
            assert!((a.score - b.score).abs() < 1e-9);
            let t = b.triple;
            assert_eq!(a.snps, vec![t.0 as usize, t.1 as usize, t.2 as usize]);
        }
    }

    #[test]
    fn order2_matches_pairs_module() {
        let (g, p) = dataset(9, 88, 5);
        let kway = scan_kway(&g, &p, 2, 3, 2);
        let pairs = crate::pairs::scan_pairs(&g, &p, 3, 2);
        assert_eq!(kway.combos, pairs.combos);
        for (a, b) in kway.top.iter().zip(&pairs.top) {
            assert!((a.score - b.score).abs() < 1e-9);
            assert_eq!(a.snps, vec![b.pair.0 as usize, b.pair.1 as usize]);
        }
    }

    #[test]
    fn order4_scan_runs_and_counts() {
        let (g, p) = dataset(8, 64, 9);
        let res = scan_kway(&g, &p, 4, 2, 2);
        assert_eq!(res.combos, 70); // C(8,4)
        assert_eq!(res.top.len(), 2);
        assert!(res.top[0].score <= res.top[1].score);
        assert_eq!(res.top[0].snps.len(), 4);
    }

    #[test]
    fn prefix_pruning_preserves_counts() {
        // All-zero genotypes: every sample lands in cell (0,0,..,0) and
        // early-exit on zero partials must not drop counts.
        let g = GenotypeMatrix::zeros(5, 70);
        let p = Phenotype::from_labels((0..70).map(|i| (i % 2) as u8).collect());
        let ds = SplitDataset::encode(&g, &p);
        let t = table_for_combo(&ds, &[0, 2, 4]);
        assert_eq!(t.counts[CTRL][0], 35);
        assert_eq!(t.counts[CASE][0], 35);
        assert_eq!(t.total(), 70);
    }

    #[test]
    fn degenerate_m_less_than_k() {
        let (g, p) = dataset(3, 16, 1);
        assert!(scan_kway(&g, &p, 4, 1, 1).top.is_empty());
    }
}
