//! Property-based invariants of the bit-packed substrate.

use bitgenome::layout::{RowMajorPlanes, SnpLayout, TiledPlanes, TransposedPlanes};
use bitgenome::word::{get_bit, tail_mask, words_for};
use bitgenome::{
    ClassPlanes, GenotypeMatrix, Phenotype, SplitDataset, UnsplitDataset, Word, WORD_BITS,
};
use proptest::prelude::*;

fn matrix_strategy() -> impl Strategy<Value = GenotypeMatrix> {
    (1usize..=10, 1usize..=200).prop_flat_map(|(m, n)| {
        prop::collection::vec(0u8..=2, m * n)
            .prop_map(move |data| GenotypeMatrix::from_raw(m, n, data))
    })
}

fn labelled_strategy() -> impl Strategy<Value = (GenotypeMatrix, Phenotype)> {
    matrix_strategy().prop_flat_map(|g| {
        let n = g.num_samples();
        prop::collection::vec(0u8..=1, n)
            .prop_map(move |labels| (g.clone(), Phenotype::from_labels(labels)))
    })
}

/// The per-sample oracle for every encoder: each packed bit is compared
/// with the dense matrix it came from (`rank` = position of sample `j`
/// within its class), every plane has exactly the words its sample count
/// needs, and every bit past the last sample is zero.
fn assert_encodings_match_dense(g: &GenotypeMatrix, p: &Phenotype) {
    let (m, n) = (g.num_snps(), g.num_samples());
    let assert_plane = |plane: &[Word], members: &[usize], snp: usize, gt: u8, what: &str| {
        assert_eq!(plane.len(), words_for(members.len()), "{what}: words");
        for (rank, &j) in members.iter().enumerate() {
            assert_eq!(
                get_bit(plane, rank),
                g.get(snp, j) == gt,
                "{what}: snp {snp} genotype {gt} sample {j} (rank {rank}) of {m}x{n}"
            );
        }
        if let Some(&last) = plane.last() {
            assert_eq!(last & !tail_mask(members.len()), 0, "{what}: padding");
        }
    };

    let split = SplitDataset::encode(g, p);
    assert_eq!(split.num_snps(), m);
    for class in 0..2 {
        let members: Vec<usize> = (0..n).filter(|&j| p.get(j) as usize == class).collect();
        let cp = split.class(class);
        assert_eq!(cp.num_samples(), members.len());
        assert_eq!(cp.num_words(), words_for(members.len()));
        assert_eq!(
            cp.pad_bits() as usize,
            cp.num_words() * WORD_BITS - members.len()
        );
        assert_eq!(cp.raw().len(), m * 2 * cp.num_words(), "[snp][g][word]");
        for snp in 0..m {
            for gt in 0..2 {
                assert_plane(cp.plane(snp, gt), &members, snp, gt as u8, "split");
            }
        }
    }

    let everyone: Vec<usize> = (0..n).collect();
    let unsplit = UnsplitDataset::encode(g, p);
    assert_eq!(unsplit.num_cases(), p.num_cases());
    for snp in 0..m {
        for gt in 0..3 {
            assert_plane(unsplit.plane(snp, gt), &everyone, snp, gt as u8, "unsplit");
        }
    }

    let bits = p.to_bits();
    assert_eq!(unsplit.phenotype(), &bits[..]);
    assert_eq!(bits.len(), words_for(n));
    for j in 0..n {
        assert_eq!(
            get_bit(&bits, j),
            p.get(j) == 1,
            "to_bits sample {j} of {n}"
        );
    }
    if let Some(&last) = bits.last() {
        assert_eq!(last & !tail_mask(n), 0, "to_bits padding");
    }
}

/// Every shape where the word-at-a-time encoder changes behaviour — empty,
/// one bit, one short of / exactly / one past a word, the same around two
/// words — crossed with phenotypes that leave a class empty, interleave
/// the classes, put a lone case in the last word, or end a class exactly
/// on and one past a word boundary.
#[test]
fn encoders_match_dense_oracle_on_edge_shapes() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut check = |m: usize, n: usize, label: &dyn Fn(usize) -> u8| {
        let data = (0..m * n).map(|_| (next() % 3) as u8).collect();
        let g = GenotypeMatrix::from_raw(m, n, data);
        let p = Phenotype::from_labels((0..n).map(label).collect());
        assert_encodings_match_dense(&g, &p);
    };
    for m in [0, 1, 3] {
        for n in [0, 1, 63, 64, 65, 127, 128, 129, 193] {
            check(m, n, &|_| 0); // all control
            check(m, n, &|_| 1); // all case
            check(m, n, &|j| (j % 2) as u8); // alternating
            check(m, n, &|j| u8::from(j + 1 == n)); // one case, in the last word
            check(m, n, &|j| u8::from(j != 0)); // one control, in the first
            for class_size in [64, 65, 128] {
                // interleaved: the first `class_size` even samples are cases
                check(m, n, &|j| u8::from(j % 2 == 0 && j / 2 < class_size));
                // contiguous: the first `class_size` samples are controls
                check(m, n, &|j| u8::from(j >= class_size));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encoders_match_dense_oracle((g, p) in labelled_strategy()) {
        assert_encodings_match_dense(&g, &p);
    }

    #[test]
    fn unsplit_encode_decode_roundtrip((g, p) in labelled_strategy()) {
        let enc = UnsplitDataset::encode(&g, &p);
        prop_assert_eq!(enc.decode(), g);
    }

    #[test]
    fn unsplit_planes_partition_every_sample((g, p) in labelled_strategy()) {
        let enc = UnsplitDataset::encode(&g, &p);
        for snp in 0..g.num_snps() {
            for j in 0..g.num_samples() {
                let members: Vec<usize> = (0..3)
                    .filter(|&gt| get_bit(enc.plane(snp, gt), j))
                    .collect();
                prop_assert_eq!(members.len(), 1);
                prop_assert_eq!(members[0] as u8, g.get(snp, j));
            }
        }
    }

    #[test]
    fn padding_bits_always_zero((g, p) in labelled_strategy()) {
        let enc = UnsplitDataset::encode(&g, &p);
        let mask = tail_mask(g.num_samples());
        for snp in 0..g.num_snps() {
            for gt in 0..3 {
                let plane = enc.plane(snp, gt);
                if let Some(&last) = plane.last() {
                    prop_assert_eq!(last & !mask, 0);
                }
            }
        }
        if let Some(&last) = enc.phenotype().last() {
            prop_assert_eq!(last & !mask, 0);
        }
    }

    #[test]
    fn split_preserves_per_class_genotype_counts((g, p) in labelled_strategy()) {
        let split = SplitDataset::encode(&g, &p);
        for snp in 0..g.num_snps() {
            for (class, keep) in [(0usize, p.control_mask()), (1, p.case_mask())] {
                let mut want = [0u32; 3];
                for j in 0..g.num_samples() {
                    if keep[j] {
                        want[g.get(snp, j) as usize] += 1;
                    }
                }
                let cp = split.class(class);
                let count = |gt: usize| -> u32 {
                    cp.plane(snp, gt).iter().map(|w| w.count_ones()).sum()
                };
                prop_assert_eq!(count(0), want[0]);
                prop_assert_eq!(count(1), want[1]);
                // genotype 2 via NOR minus padding
                let n2: u32 = cp.plane(snp, 0).iter().zip(cp.plane(snp, 1))
                    .map(|(a, b)| (!(a | b)).count_ones()).sum::<u32>() - cp.pad_bits();
                prop_assert_eq!(n2, want[2]);
            }
        }
    }

    #[test]
    fn all_layouts_load_identically(
        g in matrix_strategy(),
        bs in 1usize..=8,
    ) {
        let keep = vec![true; g.num_samples()];
        let cp = ClassPlanes::encode(&g, &keep);
        let m = g.num_snps();
        let row = RowMajorPlanes::new(&cp, m);
        let tr = TransposedPlanes::from_class(&cp, m);
        let ti = TiledPlanes::from_class(&cp, m, bs);
        for snp in 0..m {
            for gt in 0..2 {
                for w in 0..row.num_words() {
                    let v = row.load(snp, gt, w);
                    prop_assert_eq!(tr.load(snp, gt, w), v);
                    prop_assert_eq!(ti.load(snp, gt, w), v);
                }
            }
        }
    }

    #[test]
    fn layout_addresses_are_injective(g in matrix_strategy(), bs in 1usize..=8) {
        let keep = vec![true; g.num_samples()];
        let cp = ClassPlanes::encode(&g, &keep);
        let m = g.num_snps();
        let ti = TiledPlanes::from_class(&cp, m, bs);
        let mut seen = std::collections::HashSet::new();
        for snp in 0..m {
            for gt in 0..2 {
                for w in 0..ti.num_words() {
                    prop_assert!(seen.insert(ti.address(snp, gt, w)));
                }
            }
        }
    }

    #[test]
    fn popcount_helpers_agree_with_naive(
        a in prop::collection::vec(any::<Word>(), 0..20),
    ) {
        let naive: u64 = a.iter().map(|w| w.count_ones() as u64).sum();
        prop_assert_eq!(bitgenome::popcnt::popcount(&a), naive);
    }

    #[test]
    fn and_counts_partition_by_mask(
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); s };
        let a: Vec<Word> = (0..len).map(|_| next()).collect();
        let b: Vec<Word> = (0..len).map(|_| next()).collect();
        let c: Vec<Word> = (0..len).map(|_| next()).collect();
        let m: Vec<Word> = (0..len).map(|_| next()).collect();
        let n3 = bitgenome::popcnt::popcount_and3(&a, &b, &c);
        let n4 = bitgenome::popcnt::popcount_and4(&a, &b, &c, &m);
        let n3n = bitgenome::popcnt::popcount_and3_not(&a, &b, &c, &m);
        prop_assert_eq!(n4 + n3n, n3);
        prop_assert!(n3 <= (len * WORD_BITS) as u64);
    }
}
