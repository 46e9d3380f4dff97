//! Machine-word primitives for bit-packed sample sets.
//!
//! The paper packs samples into 32-bit integers for portability across all
//! evaluated devices. On a 64-bit host the natural packing unit is `u64`
//! (each word covers two of the paper's 32-bit words); analytic models in
//! the `carm` crate convert to 32-bit word units where the paper's
//! instruction counts are defined.

/// The packing unit: one bit per sample.
pub type Word = u64;

/// Number of sample bits per [`Word`].
pub const WORD_BITS: usize = Word::BITS as usize;

/// Number of words needed to hold `n` sample bits.
#[inline]
pub const fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// Mask with the low `n % WORD_BITS` bits set, covering the valid sample
/// bits of the *last* word of a plane over `n` samples. All-ones when `n`
/// is a multiple of [`WORD_BITS`].
#[inline]
pub const fn tail_mask(n: usize) -> Word {
    let rem = n % WORD_BITS;
    if rem == 0 {
        Word::MAX
    } else {
        (1 << rem) - 1
    }
}

/// Number of zero padding bits in the packed representation of `n` samples.
#[inline]
pub const fn pad_bits(n: usize) -> u32 {
    (words_for(n) * WORD_BITS - n) as u32
}

/// The low bit of each of the eight bytes of a `u64`.
const BYTE_LSB: u64 = 0x0101_0101_0101_0101;

/// Multiplier that gathers the eight bits selected by [`BYTE_LSB`] into
/// the top byte, lowest byte first: bit `8i` times `2^(7(8-i))` lands on
/// bit `56 + i`, and no two of the 64 partial products share a position,
/// so nothing carries.
const GATHER_LSB: u64 = 0x0102_0408_1020_4080;

/// Pack up to [`WORD_BITS`] dense byte values, each below 4, into two
/// bit planes with one bit per value: `(low, high)` holds bit 0 and
/// bit 1 of `values[i]` at position `i`. Bits past `values.len()` are
/// zero.
///
/// This is the one dense → packed conversion of the crate, eight values
/// per multiply and no branch on the data. For genotypes `low` is the
/// genotype-1 plane, `high` the genotype-2 plane and `!(low | high)`,
/// cut to the valid bits, the genotype-0 plane; for 0/1 phenotype labels
/// `low` is the case mask.
#[inline]
pub fn pack_bit_pairs(values: &[u8]) -> (Word, Word) {
    assert!(
        values.len() <= WORD_BITS,
        "one word packs at most 64 values"
    );
    let gather = |bytes: u64| (bytes & BYTE_LSB).wrapping_mul(GATHER_LSB) >> 56;
    let (mut low, mut high) = (0, 0);
    let mut groups = values.chunks_exact(8);
    let mut shift = 0;
    let mut push = |group: [u8; 8]| {
        let bytes = u64::from_le_bytes(group);
        low |= gather(bytes) << shift;
        high |= gather(bytes >> 1) << shift;
        shift += 8;
    };
    for group in &mut groups {
        push(group.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    let rest = groups.remainder();
    if !rest.is_empty() {
        let mut group = [0u8; 8];
        group[..rest.len()].copy_from_slice(rest);
        push(group);
    }
    (low, high)
}

/// Bit 0 of every value, one bit per value, zero-padded to whole words:
/// the packed form of a 0/1 label or mask vector.
pub fn pack_low_bits(values: &[u8]) -> Vec<Word> {
    values
        .chunks(WORD_BITS)
        .map(|chunk| pack_bit_pairs(chunk).0)
        .collect()
}

/// Set bit `i` in a packed bit slice.
#[inline]
pub fn set_bit(bits: &mut [Word], i: usize) {
    bits[i / WORD_BITS] |= 1 << (i % WORD_BITS);
}

/// Read bit `i` from a packed bit slice.
#[inline]
pub fn get_bit(bits: &[Word], i: usize) -> bool {
    (bits[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_covers_remainder() {
        assert_eq!(tail_mask(64), Word::MAX);
        assert_eq!(tail_mask(128), Word::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(3), 0b111);
        assert_eq!(tail_mask(63), Word::MAX >> 1);
    }

    #[test]
    fn pad_bits_complements_tail() {
        for n in 1..300 {
            let pad = pad_bits(n);
            assert_eq!(pad as usize, words_for(n) * WORD_BITS - n);
            assert_eq!(tail_mask(n).count_ones() + pad, WORD_BITS as u32);
        }
    }

    #[test]
    fn pack_bit_pairs_matches_per_value_bits() {
        let values: Vec<u8> = (0..WORD_BITS).map(|i| (i * 7 % 4) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64] {
            let (low, high) = pack_bit_pairs(&values[..len]);
            for (i, &v) in values.iter().enumerate() {
                let present = i < len;
                assert_eq!((low >> i) & 1 == 1, present && v & 1 == 1, "low {i}/{len}");
                assert_eq!(
                    (high >> i) & 1 == 1,
                    present && v & 2 == 2,
                    "high {i}/{len}"
                );
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bits = vec![0 as Word; 3];
        for &i in &[0usize, 1, 63, 64, 100, 191] {
            assert!(!get_bit(&bits, i));
            set_bit(&mut bits, i);
            assert!(get_bit(&bits, i));
        }
        assert_eq!(bits.iter().map(|w| w.count_ones()).sum::<u32>(), 6);
    }
}
