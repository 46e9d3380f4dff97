//! Bit-packed encodings of genotype matrices (paper Fig. 1 and §IV).
//!
//! Two CPU-side encodings are produced from a dense [`GenotypeMatrix`]:
//!
//! * [`UnsplitDataset`] — approach **V1**: three planes per SNP plus a
//!   phenotype bit vector; contingency cells are formed by
//!   `X[gx] & Y[gy] & Z[gz] & (±phenotype)` followed by `POPCNT`.
//! * [`SplitDataset`] — approaches **V2–V4**: the sample set is first
//!   partitioned into controls and cases; only genotype planes 0 and 1 are
//!   stored per class, and plane 2 is reconstructed with `NOR` inside the
//!   kernel. This cuts memory traffic by ≈ 1/3 and removes the phenotype
//!   stream from the hot loop entirely.
//!
//! ## How the planes are built
//!
//! Every encoder is the same three steps, 64 samples at a time and with
//! no branch on a genotype:
//!
//! 1. **Pack.** [`pack_bit_pairs`] turns 64 dense bytes into the bit-0
//!    and bit-1 planes of their values, eight bytes per multiply; for
//!    genotypes those are planes 1 and 2, and plane 0 is their `NOR`.
//!    [`UnsplitDataset`] and [`Phenotype::to_bits`] stop here.
//! 2. **Compress by phenotype word.** A split class keeps only its own
//!    samples, so each packed word is bit-compressed under the class's
//!    sample mask for that word. The masks of the log₂ 64 = 6 compress
//!    rounds depend on the phenotype word alone — not on the SNP, not on
//!    the genotype — so they are computed once per phenotype word (a
//!    `Lane`) and reused for all `M` SNPs and both planes: a class's
//!    `2·M` compressions of that word share one set of move masks.
//! 3. **Append.** The compressed bits go to the class's plane at a
//!    running bit offset (the number of class members in earlier words,
//!    also fixed per lane), spilling into the next word when they cross
//!    a boundary.
//!
//! Planes start zeroed and only kept samples are ever written, so every
//! bit past a class's last sample is **zero**. Kernels rely on that:
//! `NOR` turns exactly those pad bits into phantom genotype-2 samples,
//! and [`ClassPlanes::pad_bits`] is the count they subtract.

use crate::matrix::{GenotypeMatrix, Phenotype};
use crate::word::{pack_bit_pairs, pack_low_bits, pad_bits, tail_mask, words_for, Word, WORD_BITS};
use crate::{CASE, CTRL, GENOTYPES};

/// `log2(WORD_BITS)`: the number of halving rounds of a bit-compress.
const COMPRESS_ROUNDS: usize = WORD_BITS.trailing_zeros() as usize;

/// How one 64-sample word of the full sample set feeds one class's
/// stream: which of its samples belong to the class, the moves that
/// compact exactly those bits to the low end of a word, and the bit
/// offset in the class's planes where they are appended. All of it
/// depends on the phenotype word only, so a lane is built once and reused
/// for every SNP and both genotype planes.
struct Lane {
    keep: Word,
    /// Round `r` moves the bits under `moves[r]` right by `1 << r`
    /// (the parallel-suffix compress of Hacker's Delight §7-4).
    moves: [Word; COMPRESS_ROUNDS],
    offset: usize,
}

impl Lane {
    fn new(keep: Word, offset: usize) -> Self {
        let mut moves = [0; COMPRESS_ROUNDS];
        let mut kept = keep;
        // Bits with an odd number of dropped positions below them move
        // by 1, then those with an odd number of dropped *pairs* by 2, …
        let mut dropped_below = !keep << 1;
        for (round, mv) in moves.iter_mut().enumerate() {
            let mut parity = dropped_below;
            for step in 0..COMPRESS_ROUNDS {
                parity ^= parity << (1 << step);
            }
            *mv = parity & kept;
            kept = (kept ^ *mv) | (*mv >> (1 << round));
            dropped_below &= !parity;
        }
        Self {
            keep,
            moves,
            offset,
        }
    }

    /// One lane per word of `keep`, offsets running; also the class size.
    fn plan(keep: &[Word]) -> (Vec<Lane>, usize) {
        let mut offset = 0;
        let lanes = keep
            .iter()
            .map(|&k| {
                let lane = Lane::new(k, offset);
                offset += k.count_ones() as usize;
                lane
            })
            .collect();
        (lanes, offset)
    }

    /// The kept bits of `plane`, contiguous from bit 0.
    #[inline]
    fn compress(&self, plane: Word) -> Word {
        let mut x = plane & self.keep;
        for (round, &mv) in self.moves.iter().enumerate() {
            let moved = x & mv;
            x = (x ^ moved) | (moved >> (1 << round));
        }
        x
    }

    /// Append the kept bits of `plane` to `stream` at this lane's offset.
    /// `stream` must be zero from the offset on, which appending lanes in
    /// order guarantees.
    #[inline]
    fn append(&self, plane: Word, stream: &mut [Word]) {
        if self.keep == 0 {
            // Nothing to add, and the offset may be one past the stream.
            return;
        }
        let bits = self.compress(plane);
        let (word, shift) = (self.offset / WORD_BITS, self.offset % WORD_BITS);
        stream[word] |= bits << shift;
        // What does not fit in `word`; two shifts because `shift` may be 0.
        let spill = (bits >> 1) >> (WORD_BITS - 1 - shift);
        if spill != 0 {
            stream[word + 1] |= spill;
        }
    }
}

/// The packer behind every split encoding: one pass over the dense
/// matrix that packs each 64-sample word once and appends its genotype-0
/// and genotype-1 bits to each of the `C` classes selected by the packed
/// sample masks `keep` (pad bits zero).
fn encode_classes<const C: usize>(matrix: &GenotypeMatrix, keep: [&[Word]; C]) -> [ClassPlanes; C] {
    let m = matrix.num_snps();
    for mask in keep {
        assert_eq!(mask.len(), words_for(matrix.num_samples()));
    }
    let plans = keep.map(Lane::plan);
    let mut classes = plans.each_ref().map(|&(_, n_samples)| {
        let words = words_for(n_samples);
        ClassPlanes {
            n_samples,
            words,
            data: vec![0; m * 2 * words],
        }
    });
    for snp in 0..m {
        let mut planes = classes.each_mut().map(|class| {
            let words = class.words;
            class.data[snp * 2 * words..(snp + 1) * 2 * words].split_at_mut(words)
        });
        for (w, chunk) in matrix.snp(snp).chunks(WORD_BITS).enumerate() {
            let (g1, g2) = pack_bit_pairs(chunk);
            // Bits past the chunk read as genotype 0; no lane keeps them.
            let g0 = !(g1 | g2);
            for ((lanes, _), (plane0, plane1)) in plans.iter().zip(&mut planes) {
                lanes[w].append(g0, plane0);
                lanes[w].append(g1, plane1);
            }
        }
    }
    classes
}

/// Packed planes for one phenotype class: genotype planes 0 and 1 for each
/// SNP, laid out SNP-major (`[snp][genotype][word]`).
///
/// Plane 2 is deliberately absent — kernels recover it as
/// `!(plane0 | plane1)`, which also turns zero padding bits into phantom
/// genotype-2 samples; [`ClassPlanes::pad_bits`] is the per-class count
/// contingency builders must subtract from the all-(2,2,2) cell.
#[derive(Clone, Debug)]
pub struct ClassPlanes {
    n_samples: usize,
    words: usize,
    /// `[snp][g in {0,1}][word]`, flattened.
    data: Vec<Word>,
}

impl ClassPlanes {
    /// Pack genotype planes 0/1 for all SNPs of `matrix`, restricted to
    /// the samples where `keep` is true.
    pub fn encode(matrix: &GenotypeMatrix, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), matrix.num_samples());
        let keep: Vec<u8> = keep.iter().map(|&k| u8::from(k)).collect();
        let [class] = encode_classes(matrix, [&pack_low_bits(&keep)]);
        class
    }

    /// Number of samples in this class.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.n_samples
    }

    /// Words per plane.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words
    }

    /// Zero padding bits per plane (all of which alias to genotype 2 under
    /// `NOR` reconstruction).
    #[inline]
    pub fn pad_bits(&self) -> u32 {
        pad_bits(self.n_samples)
    }

    /// Genotype plane `g ∈ {0, 1}` of `snp`.
    #[inline]
    pub fn plane(&self, snp: usize, g: usize) -> &[Word] {
        debug_assert!(g < 2, "only genotype planes 0 and 1 are stored");
        let base = (snp * 2 + g) * self.words;
        &self.data[base..base + self.words]
    }

    /// Both planes of `snp` as `(plane0, plane1)`.
    #[inline]
    pub fn planes(&self, snp: usize) -> (&[Word], &[Word]) {
        let base = snp * 2 * self.words;
        let (p0, rest) = self.data[base..base + 2 * self.words].split_at(self.words);
        (p0, rest)
    }

    /// Full backing storage (layout `[snp][g][word]`), e.g. for blocked
    /// kernels that slice sample-word ranges directly.
    #[inline]
    pub fn raw(&self) -> &[Word] {
        &self.data
    }
}

/// Approach-V1 encoding: three genotype planes per SNP over the *whole*
/// sample set, plus a packed phenotype (bit set ⇒ case).
#[derive(Clone, Debug)]
pub struct UnsplitDataset {
    m: usize,
    n: usize,
    words: usize,
    /// `[snp][g in {0,1,2}][word]`, flattened.
    data: Vec<Word>,
    phenotype: Vec<Word>,
    n_cases: usize,
}

impl UnsplitDataset {
    /// Encode a dense matrix and its phenotype.
    pub fn encode(matrix: &GenotypeMatrix, phenotype: &Phenotype) -> Self {
        assert_eq!(matrix.num_samples(), phenotype.len());
        let m = matrix.num_snps();
        let n = matrix.num_samples();
        let words = words_for(n);
        let mut data = vec![0 as Word; m * GENOTYPES * words];
        for snp in 0..m {
            let planes = &mut data[snp * GENOTYPES * words..(snp + 1) * GENOTYPES * words];
            let (plane0, rest) = planes.split_at_mut(words);
            let (plane1, plane2) = rest.split_at_mut(words);
            for (w, chunk) in matrix.snp(snp).chunks(WORD_BITS).enumerate() {
                (plane1[w], plane2[w]) = pack_bit_pairs(chunk);
                plane0[w] = !(plane1[w] | plane2[w]) & tail_mask(chunk.len());
            }
        }
        Self {
            m,
            n,
            words,
            data,
            phenotype: phenotype.to_bits(),
            n_cases: phenotype.num_cases(),
        }
    }

    /// Number of SNPs.
    #[inline]
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Number of samples.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.n
    }

    /// Number of case samples.
    #[inline]
    pub fn num_cases(&self) -> usize {
        self.n_cases
    }

    /// Number of control samples.
    #[inline]
    pub fn num_controls(&self) -> usize {
        self.n - self.n_cases
    }

    /// Words per plane.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words
    }

    /// Genotype plane `g ∈ {0,1,2}` of `snp`.
    #[inline]
    pub fn plane(&self, snp: usize, g: usize) -> &[Word] {
        debug_assert!(g < GENOTYPES);
        let base = (snp * GENOTYPES + g) * self.words;
        &self.data[base..base + self.words]
    }

    /// Packed phenotype bits (set ⇒ case); padding bits are zero.
    #[inline]
    pub fn phenotype(&self) -> &[Word] {
        &self.phenotype
    }

    /// Decode back to a dense matrix (testing / round-trip support).
    pub fn decode(&self) -> GenotypeMatrix {
        let mut out = GenotypeMatrix::zeros(self.m, self.n);
        for snp in 0..self.m {
            for g in 0..GENOTYPES {
                let plane = self.plane(snp, g);
                for j in 0..self.n {
                    if crate::word::get_bit(plane, j) {
                        out.set(snp, j, g as u8);
                    }
                }
            }
        }
        out
    }
}

/// Approach-V2+ encoding: case/control-split two-plane representation.
#[derive(Clone, Debug)]
pub struct SplitDataset {
    m: usize,
    classes: [ClassPlanes; 2],
}

impl SplitDataset {
    /// Encode a dense matrix, splitting samples by phenotype.
    pub fn encode(matrix: &GenotypeMatrix, phenotype: &Phenotype) -> Self {
        assert_eq!(matrix.num_samples(), phenotype.len());
        let case = phenotype.to_bits();
        let mut ctrl: Vec<Word> = case.iter().map(|&w| !w).collect();
        if let Some(last) = ctrl.last_mut() {
            *last &= tail_mask(phenotype.len());
        }
        Self {
            m: matrix.num_snps(),
            classes: encode_classes(matrix, [&ctrl, &case]),
        }
    }

    /// Number of SNPs.
    #[inline]
    pub fn num_snps(&self) -> usize {
        self.m
    }

    /// Planes for one class (use [`CTRL`] / [`CASE`]).
    #[inline]
    pub fn class(&self, c: usize) -> &ClassPlanes {
        &self.classes[c]
    }

    /// Control-class planes.
    #[inline]
    pub fn controls(&self) -> &ClassPlanes {
        &self.classes[CTRL]
    }

    /// Case-class planes.
    #[inline]
    pub fn cases(&self) -> &ClassPlanes {
        &self.classes[CASE]
    }

    /// Total number of samples across both classes.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.classes[CTRL].num_samples() + self.classes[CASE].num_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::get_bit;

    fn demo() -> (GenotypeMatrix, Phenotype) {
        // 3 SNPs x 5 samples, mixed genotypes.
        let m = GenotypeMatrix::from_raw(
            3,
            5,
            vec![
                0, 1, 2, 0, 1, //
                2, 2, 0, 1, 0, //
                1, 0, 1, 2, 2,
            ],
        );
        let p = Phenotype::from_labels(vec![0, 1, 0, 1, 1]);
        (m, p)
    }

    #[test]
    fn unsplit_roundtrip() {
        let (m, p) = demo();
        let enc = UnsplitDataset::encode(&m, &p);
        assert_eq!(enc.decode(), m);
    }

    #[test]
    fn unsplit_planes_partition_samples() {
        let (m, p) = demo();
        let enc = UnsplitDataset::encode(&m, &p);
        for snp in 0..3 {
            for j in 0..5 {
                let set: Vec<usize> = (0..3).filter(|&g| get_bit(enc.plane(snp, g), j)).collect();
                assert_eq!(set.len(), 1, "exactly one plane holds each sample");
                assert_eq!(set[0] as u8, m.get(snp, j));
            }
        }
        // padding bits of every plane are zero
        for snp in 0..3 {
            for g in 0..3 {
                let w = enc.plane(snp, g)[0];
                assert_eq!(w >> 5, 0, "padding must be zero");
            }
        }
    }

    #[test]
    fn split_counts_match_dense() {
        let (m, p) = demo();
        let enc = SplitDataset::encode(&m, &p);
        assert_eq!(enc.controls().num_samples(), 2);
        assert_eq!(enc.cases().num_samples(), 3);
        for snp in 0..3 {
            // plane popcounts must equal dense per-class genotype counts
            for (class, mask) in [(CTRL, p.control_mask()), (CASE, p.case_mask())] {
                let mut want = [0u32; 3];
                for j in 0..5 {
                    if mask[j] {
                        want[m.get(snp, j) as usize] += 1;
                    }
                }
                let cp = enc.class(class);
                let n0: u32 = cp.plane(snp, 0).iter().map(|w| w.count_ones()).sum();
                let n1: u32 = cp.plane(snp, 1).iter().map(|w| w.count_ones()).sum();
                assert_eq!(n0, want[0]);
                assert_eq!(n1, want[1]);
                // inferred genotype 2 = NOR minus padding
                let n2: u32 = cp
                    .plane(snp, 0)
                    .iter()
                    .zip(cp.plane(snp, 1))
                    .map(|(a, b)| (!(a | b)).count_ones())
                    .sum::<u32>()
                    - cp.pad_bits();
                assert_eq!(n2, want[2]);
            }
        }
    }

    #[test]
    fn nor_inference_matches_explicit_plane() {
        let (m, p) = demo();
        let unsplit = UnsplitDataset::encode(&m, &p);
        // With no split and full sample set, NOR of planes 0,1 must equal
        // plane 2 on the valid bits.
        for snp in 0..3 {
            let p0 = unsplit.plane(snp, 0);
            let p1 = unsplit.plane(snp, 1);
            let p2 = unsplit.plane(snp, 2);
            let mask = crate::word::tail_mask(unsplit.num_samples());
            for w in 0..unsplit.num_words() {
                let nor = !(p0[w] | p1[w]);
                let valid = if w + 1 == unsplit.num_words() {
                    mask
                } else {
                    Word::MAX
                };
                assert_eq!(nor & valid, p2[w]);
            }
        }
    }

    #[test]
    fn split_pad_bits_accounting() {
        // 70 controls => 2 words, 58 pad bits; 58 cases => 1 word, 6 pad.
        let n = 128;
        let labels: Vec<u8> = (0..n).map(|i| u8::from(i >= 70)).collect();
        let p = Phenotype::from_labels(labels);
        let m = GenotypeMatrix::zeros(2, n);
        let enc = SplitDataset::encode(&m, &p);
        assert_eq!(enc.controls().pad_bits(), 58);
        assert_eq!(enc.cases().pad_bits(), 6);
    }

    #[test]
    fn planes_pair_accessor_consistent() {
        let (m, p) = demo();
        let enc = SplitDataset::encode(&m, &p);
        for snp in 0..3 {
            let (a, b) = enc.cases().planes(snp);
            assert_eq!(a, enc.cases().plane(snp, 0));
            assert_eq!(b, enc.cases().plane(snp, 1));
        }
    }
}
