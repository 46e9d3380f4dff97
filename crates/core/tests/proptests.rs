//! Property-based invariants of the detection core.

use bitgenome::{GenotypeMatrix, Phenotype, SplitDataset, UnsplitDataset};
use epi_core::k2::{K2Scorer, LnFactTable, Objective};
use epi_core::result::TopK;
use epi_core::simd::{
    accumulate18, accumulate18_scalar, accumulate27, accumulate27_scalar, SimdLevel,
};
use epi_core::table27::{ContingencyTable, CELLS};
use epi_core::versions::{v1, v2, v5, BlockedScanner, V5Scratch};
use epi_core::{combin, shard, BlockParams};
use proptest::prelude::*;

fn labelled_strategy() -> impl Strategy<Value = (GenotypeMatrix, Phenotype)> {
    (3usize..=12, 10usize..=180).prop_flat_map(|(m, n)| {
        (
            prop::collection::vec(0u8..=2, m * n),
            prop::collection::vec(0u8..=1, n),
        )
            .prop_map(move |(geno, labels)| {
                (
                    GenotypeMatrix::from_raw(m, n, geno),
                    Phenotype::from_labels(labels),
                )
            })
    })
}

/// Smaller datasets for the k-way sweeps (`C(M, 4)` combos per case).
fn kway_strategy() -> impl Strategy<Value = (GenotypeMatrix, Phenotype)> {
    (4usize..=8, 10usize..=150).prop_flat_map(|(m, n)| {
        (
            prop::collection::vec(0u8..=2, m * n),
            prop::collection::vec(0u8..=1, n),
        )
            .prop_map(move |(geno, labels)| {
                (
                    GenotypeMatrix::from_raw(m, n, geno),
                    Phenotype::from_labels(labels),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v1_v2_dense_tables_agree((g, p) in labelled_strategy()) {
        let unsplit = UnsplitDataset::encode(&g, &p);
        let split = SplitDataset::encode(&g, &p);
        let m = g.num_snps() as u32;
        for t in [(0u32, 1, 2), (0, m / 2, m - 1)] {
            if t.0 < t.1 && t.1 < t.2 {
                let dense = ContingencyTable::from_dense(
                    &g, &p, (t.0 as usize, t.1 as usize, t.2 as usize));
                prop_assert_eq!(&v1::table_for_triple(&unsplit, t), &dense);
                prop_assert_eq!(&v2::table_for_triple(&split, t), &dense);
            }
        }
    }

    #[test]
    fn simd_tiers_bitwise_identical(
        len in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); s };
        let planes: Vec<Vec<u64>> =
            (0..6).map(|_| (0..len).map(|_| next()).collect()).collect();
        let view = (
            &planes[0][..], &planes[1][..], &planes[2][..],
            &planes[3][..], &planes[4][..], &planes[5][..],
        );
        let mut want = [0u32; CELLS];
        accumulate27_scalar(view, &mut want);
        for level in SimdLevel::available() {
            let mut got = [0u32; CELLS];
            accumulate27(level, view, &mut got);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn v5_blocked_tables_match_v2(
        (g, p) in labelled_strategy(),
        bs in 1usize..=6,
        bp in prop::sample::select(vec![2usize, 64, 400]),
    ) {
        let ds = SplitDataset::encode(&g, &p);
        let scanner = BlockedScanner::new(&ds, BlockParams { bs, bp }, SimdLevel::Scalar);
        let mut scratch = V5Scratch::new();
        let mut seen = 0u64;
        for bt in scanner.tasks() {
            let mut failure = None;
            scanner.scan_block_triple_v5(bt, &mut scratch, &mut |t, ctrl, case| {
                seen += 1;
                let got = ContingencyTable::from_counts(*ctrl, *case);
                let want = v2::table_for_triple(&ds, t);
                if got != want && failure.is_none() {
                    failure = Some((t, got, want));
                }
            });
            if let Some((t, got, want)) = failure {
                prop_assert_eq!(got, want, "bs={} bp={} t={:?}", bs, bp, t);
            }
        }
        prop_assert_eq!(seen, combin::num_triples(g.num_snps()));
    }

    #[test]
    fn v5_pair_prefix_cache_matches_v2(
        (g, p) in labelled_strategy(),
    ) {
        let ds = SplitDataset::encode(&g, &p);
        let mut cache = v5::PairPrefixCache::new(SimdLevel::detect());
        for t in combin::TripleIter::new(g.num_snps()) {
            prop_assert_eq!(cache.table_for_triple(&ds, t), v2::table_for_triple(&ds, t));
        }
    }

    #[test]
    fn cross_triple_cache_matches_cold_across_shard_boundaries(
        (g, p) in labelled_strategy(),
        shards in 1u64..14,
    ) {
        // One warm cache carried across random rank-order shard
        // boundaries (hit and miss paths interleave arbitrarily with the
        // cuts) must produce tables bit-identical to a cold-built cache
        // and to the V2 reference, triple by triple.
        let ds = SplitDataset::encode(&g, &p);
        let m = g.num_snps();
        let plan = shard::ShardPlan::triples(m, shards);
        let mut warm = epi_core::prefixcache::PairPrefixCache::new(SimdLevel::detect());
        for r in plan.ranges() {
            for t in shard::TripleRangeIter::new(m, r) {
                let mut cold = epi_core::prefixcache::PairPrefixCache::new(SimdLevel::detect());
                let w = warm.table_for_triple(&ds, t);
                prop_assert_eq!(&w, &cold.table_for_triple(&ds, t), "t={:?}", t);
                prop_assert_eq!(&w, &v2::table_for_triple(&ds, t), "t={:?}", t);
            }
        }
        prop_assert_eq!(warm.hits() + warm.misses(), combin::num_triples(m));
    }

    #[test]
    fn cached_shard_scans_merge_bit_identical_to_monolithic(
        (g, p) in labelled_strategy(),
        shards in 1u64..10,
    ) {
        // The epi-server work loop: one worker drains all shards with a
        // persistent cache; the merged top-K must be bit-identical to a
        // monolithic V5 scan.
        let ds = SplitDataset::encode(&g, &p);
        let mut cfg = epi_core::scan::ScanConfig::new(epi_core::scan::Version::V5);
        cfg.top_k = 5;
        let mut cache = epi_core::prefixcache::PairPrefixCache::new(cfg.effective_simd());
        let plan = shard::ShardPlan::triples(g.num_snps(), shards);
        let mut merged = TopK::new(cfg.top_k);
        for r in plan.ranges() {
            merged.merge(shard::scan_shard_split_cached(&ds, &cfg, r, &mut cache));
        }
        let want = epi_core::scan::scan_split(&ds, &cfg).top;
        let got = merged.into_sorted();
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.triple, b.triple);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn kway_unified_cache_matches_seed_tables(
        (g, p) in kway_strategy(),
        k in 2usize..=4,
    ) {
        // scan_kway's unified prefix cache against the seed recursive
        // prefix-AND kernel, every combination, orders 2-4.
        let ds = SplitDataset::encode(&g, &p);
        let m = g.num_snps();
        let mut cache = epi_core::prefixcache::PrefixCache::new(k, SimdLevel::detect());
        let mut mismatch = None;
        combin::for_each_combo(m, k, &mut |combo| {
            let got = cache.table_for_combo(&ds, combo);
            let want = epi_core::kway::table_for_combo(&ds, combo);
            if got != want && mismatch.is_none() {
                mismatch = Some(combo.to_vec());
            }
        });
        prop_assert_eq!(mismatch, None);
    }

    #[test]
    fn accumulate18_tiers_bitwise_identical(
        len in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); s };
        let planes: Vec<Vec<u64>> =
            (0..4).map(|_| (0..len).map(|_| next()).collect()).collect();
        let z0: Vec<u64> = (0..len).map(|_| next()).collect();
        let z1: Vec<u64> = (0..len).map(|_| next()).collect();
        let mut pairs = vec![0u64; 9 * len];
        bitgenome::build_pair_streams(&planes[0], &planes[1], &planes[2], &planes[3], &mut pairs);
        let mut want = [0u32; CELLS];
        accumulate18_scalar(&pairs, &z0, &z1, &mut want);
        for level in SimdLevel::available() {
            let mut got = [0u32; CELLS];
            accumulate18(level, &pairs, &z0, &z1, &mut got);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn k2_additivity_and_bounds(cells in prop::collection::vec(0u32..200, 54)) {
        let mut table = ContingencyTable::new();
        table.counts[0].copy_from_slice(&cells[..CELLS]);
        table.counts[1].copy_from_slice(&cells[CELLS..]);
        let scorer = K2Scorer::new(table.total() as usize + 2);
        let score = scorer.score(&table);
        prop_assert!(score.is_finite());
        // K2 >= sum_i ln(r_i + 1) >= 0 (each term is minimised by a pure
        // cell where one class holds everything)
        prop_assert!(score >= 0.0);
        // splitting any cell across classes can only increase the score
        // relative to the pure assignment with the same row totals
        let mut pure = ContingencyTable::new();
        for i in 0..CELLS {
            pure.counts[0][i] = cells[i] + cells[i + CELLS];
        }
        prop_assert!(scorer.score(&pure) <= score + 1e-9);
    }

    #[test]
    fn lnfact_is_monotone_and_superadditive(n in 1usize..500) {
        let t = LnFactTable::new(n + 2);
        prop_assert!(t.lnfact(n + 1) > t.lnfact(n));
        // ln((a+b)!) >= ln(a!) + ln(b!)
        let a = n / 2;
        let b = n - a;
        prop_assert!(t.lnfact(n) + 1e-12 >= t.lnfact(a) + t.lnfact(b));
    }

    #[test]
    fn topk_matches_full_sort(
        scores in prop::collection::vec(0.0f64..1000.0, 1..200),
        k in 1usize..20,
    ) {
        let mut top = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            top.push(s, (i as u32, i as u32 + 1, i as u32 + 2));
        }
        let got: Vec<f64> = top.into_sorted().iter().map(|c| c.score).collect();
        let mut want = scores.clone();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn triple_enumeration_counts(m in 0usize..40) {
        prop_assert_eq!(
            combin::TripleIter::new(m).count() as u64,
            combin::num_triples(m)
        );
    }

    #[test]
    fn shard_plan_covers_every_rank_exactly_once(
        m in 3usize..40,
        s in 1u64..100,
    ) {
        let plan = shard::ShardPlan::triples(m, s);
        prop_assert_eq!(plan.num_shards(), s);
        prop_assert_eq!(plan.total_combos(), combin::num_triples(m));
        // contiguous tiling of [0, total): each rank in exactly one shard
        let mut next_rank = 0u64;
        for r in plan.ranges() {
            prop_assert_eq!(r.start, next_rank);
            prop_assert!(r.end >= r.start);
            next_rank = r.end;
        }
        prop_assert_eq!(next_rank, plan.total_combos());
        // and the shards' triples concatenate to the full enumeration
        let concatenated: Vec<_> = plan
            .ranges()
            .flat_map(|r| shard::TripleRangeIter::new(m, r))
            .collect();
        let full: Vec<_> = combin::TripleIter::new(m).collect();
        prop_assert_eq!(concatenated, full);
    }

    #[test]
    fn shard_plan_covers_every_pair_rank_exactly_once(
        m in 2usize..60,
        s in 1u64..50,
    ) {
        let plan = shard::ShardPlan::pairs(m, s);
        let concatenated: Vec<_> = plan
            .ranges()
            .flat_map(|r| shard::PairRangeIter::new(m, r))
            .collect();
        let mut full = Vec::new();
        for a in 0..m as u32 {
            for b in a + 1..m as u32 {
                full.push((a, b));
            }
        }
        prop_assert_eq!(concatenated, full);
    }

    #[test]
    fn unrank_is_the_inverse_of_rank(
        m in 3usize..2000,
        seed in any::<u64>(),
    ) {
        let total = combin::num_triples(m);
        let rank = seed % total;
        let t = shard::unrank_triple(m, rank);
        prop_assert!(t.0 < t.1 && t.1 < t.2 && (t.2 as usize) < m);
        prop_assert_eq!(shard::rank_triple(m, t), rank);
    }

    #[test]
    fn block_params_respect_budgets(
        ft_kib in 1usize..64,
        blk_kib in 1usize..64,
        vec_bits in prop::sample::select(vec![64usize, 128, 256, 512]),
    ) {
        let p = BlockParams::for_sizes(ft_kib * 1024, blk_kib * 1024, vec_bits);
        prop_assert!(p.bs >= 1);
        prop_assert!(p.bp >= 1);
        prop_assert!(p.ft_bytes() <= ft_kib * 1024 || p.bs == 1);
        // bp is a whole number of vector registers (when above one)
        let lanes = (vec_bits / 32).max(1);
        prop_assert!(p.bp.is_multiple_of(lanes) || p.bp == lanes);
    }

    /// PR 4: over *any* detected L2/L3 geometry (including absent levels,
    /// absurd sharing degrees, and tiny embedded caches) the adaptive
    /// budget never disables the cross-pair cache on a dataset the fixed
    /// 4 MiB budget enabled it for.
    #[test]
    fn adaptive_budget_never_disables_what_the_fixed_budget_enabled(
        has_l2 in any::<bool>(),
        l2_kib in prop::sample::select(vec![64usize, 256, 512, 1024, 2048, 4096, 16384]),
        l2_shared in 1usize..=16,
        has_l3 in any::<bool>(),
        l3_mib in prop::sample::select(vec![1usize, 4, 8, 32, 105, 256, 1024]),
        l3_shared in 1usize..=256,
        bs in 1usize..=8,
        class_words in 1usize..=200_000,
    ) {
        use devices::{CacheGeometry, SharedCache};
        use epi_core::block::CROSS_PAIR_CACHE_BUDGET;
        let l2 = has_l2.then_some(SharedCache {
            geom: CacheGeometry { size_bytes: l2_kib * 1024, ways: 8, line_bytes: 64 },
            shared_cpus: l2_shared,
        });
        let l3 = has_l3.then_some(SharedCache {
            geom: CacheGeometry { size_bytes: l3_mib << 20, ways: 16, line_bytes: 64 },
            shared_cpus: l3_shared,
        });
        let budget = BlockParams::budget_from_caches(l2, l3);
        // the floor: detection can widen the gate, never narrow it
        prop_assert!(budget >= CROSS_PAIR_CACHE_BUDGET);
        let p = BlockParams { bs, bp: 64 };
        if p.cross_pair_cache_enabled(class_words, CROSS_PAIR_CACHE_BUDGET) {
            prop_assert!(
                p.cross_pair_cache_enabled(class_words, budget),
                "budget {budget} disabled a dataset the fixed budget admitted"
            );
        }
    }

    /// PR 4: the paper-policy V5 block parameters keep the whole per-task
    /// working set — frequency tables, pair-total tables, pair-stream
    /// cache, and the third-SNP data block — within the L1 they were
    /// sized for, across plausible L1 geometries and vector widths.
    #[test]
    fn paper_policy_v5_working_set_stays_within_l1(
        size_kib in prop::sample::select(vec![8usize, 16, 24, 32, 48, 64, 128]),
        ways in prop::sample::select(vec![2usize, 4, 8, 12, 16]),
        vec_bits in prop::sample::select(vec![64usize, 256, 512]),
    ) {
        use devices::CacheGeometry;
        prop_assume!((size_kib * 1024).is_multiple_of(ways * 64));
        let l1 = CacheGeometry { size_bytes: size_kib * 1024, ways, line_bytes: 64 };
        let p = BlockParams::paper_policy_v5(&l1, vec_bits);
        prop_assert!(p.bs >= 1 && p.bp >= 1);
        let lanes = (vec_bits / 32).max(1);
        // B_P floors at one vector register; above the floor the whole
        // working set must fit the cache it was budgeted against
        if p.bp > lanes {
            let working_set = p.ft_bytes()
                + p.pair_table_bytes()
                + p.pair_cache_bytes()
                + p.bs * p.bp * 4 * 2;
            prop_assert!(
                working_set <= l1.size_bytes,
                "working set {working_set} exceeds L1 {} for {p:?}",
                l1.size_bytes
            );
        }
    }

    /// PR 5: the concurrency-honest budget never collapses to zero —
    /// whatever the detected geometry and however many workers share (or
    /// oversubscribe) a cache domain, the fixed 4 MiB floor holds, a
    /// worker's share never drops below its per-CPU slice, and more
    /// workers can only shrink the budget, never grow it.
    #[test]
    fn worker_budget_floors_and_is_monotone(
        l2_kib in prop::sample::select(vec![0usize, 256, 512, 1024, 2048, 4096]),
        l2_cpus in 1usize..=8,
        l3_kib in prop::sample::select(vec![0usize, 1024, 4096, 32 * 1024, 512 * 1024]),
        l3_cpus in 1usize..=128,
        workers in 1usize..=512,
    ) {
        use devices::{CacheGeometry, SharedCache};
        use epi_core::block::CROSS_PAIR_CACHE_BUDGET;
        let mk = |kib: usize, cpus: usize| (kib > 0).then(|| SharedCache {
            geom: CacheGeometry::kib(kib, 8),
            shared_cpus: cpus,
        });
        let (l2, l3) = (mk(l2_kib, l2_cpus), mk(l3_kib, l3_cpus));
        let budget = BlockParams::budget_from_caches_for_workers(l2, l3, workers);
        prop_assert!(budget >= CROSS_PAIR_CACHE_BUDGET, "budget {budget} below the floor");
        // never below the fully subscribed (per-CPU) budget
        prop_assert!(budget >= BlockParams::budget_from_caches(l2, l3));
        // monotone: doubling the workers cannot widen the budget
        let denser = BlockParams::budget_from_caches_for_workers(l2, l3, workers * 2);
        prop_assert!(denser <= budget);
        // and workers beyond every sharing degree change nothing
        let degree = l2.map_or(1, |c| c.shared_cpus).max(l3.map_or(1, |c| c.shared_cpus));
        if workers >= degree {
            prop_assert_eq!(budget, BlockParams::budget_from_caches(l2, l3));
        }
    }

    /// PR 5: thread-count and scheduler invariance of the blocked V5
    /// path with the cross-pair cache enabled — the property-based twin
    /// of `pairs::pair_scan_is_thread_invariant`, over random datasets
    /// and worker counts.
    #[test]
    fn blocked_v5_scan_is_thread_invariant(
        (g, p) in labelled_strategy(),
        workers in prop::sample::select(vec![2usize, 3, 7]),
    ) {
        use epi_core::scan::{scan_split_with_workers, ScanConfig, Version};
        let ds = SplitDataset::encode(&g, &p);
        let mut cfg = ScanConfig::new(Version::V5);
        cfg.top_k = 5;
        let (want, _) = scan_split_with_workers(&ds, &cfg, 1);
        let (got, stats) = scan_split_with_workers(&ds, &cfg, workers);
        prop_assert_eq!(got.top.len(), want.top.len());
        for (a, b) in got.top.iter().zip(&want.top) {
            prop_assert_eq!(a.triple, b.triple, "workers={}", workers);
            prop_assert_eq!(
                a.score.to_bits(), b.score.to_bits(),
                "workers={}: scores must be bit-identical", workers
            );
        }
        // V5 always reports pool stats, and every worker state is counted
        let stats = stats.unwrap();
        prop_assert!(stats.per_worker.len() <= workers);
    }

    /// PR 6: the significance test's seeded label permutation is a
    /// bijection on `0..n` (every index appears exactly once — a shuffle
    /// that drops or duplicates samples would silently corrupt the null
    /// distribution) and is fully determined by `(n, seed)`.
    #[test]
    fn seeded_permutation_is_a_seed_deterministic_bijection(
        n in 0usize..=300,
        seed in any::<u64>(),
    ) {
        use epi_core::permute::seeded_permutation;
        let perm = seeded_permutation(n, seed);
        prop_assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &i in &perm {
            prop_assert!(i < n, "index {} out of range 0..{}", i, n);
            prop_assert!(!seen[i], "index {} appears twice", i);
            seen[i] = true;
        }
        // surjective follows from injective + same cardinality, but say so
        prop_assert!(seen.iter().all(|&s| s));
        // same (n, seed) -> same permutation, bit for bit
        prop_assert_eq!(&perm, &seeded_permutation(n, seed));
        // a different seed almost surely moves something (skip tiny n,
        // where there is only one possible permutation)
        if n >= 16 {
            prop_assert_ne!(&perm, &seeded_permutation(n, seed ^ 0x1));
        }
    }
}
