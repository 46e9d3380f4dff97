//! Dataset content integrity: a std-only 64-bit streaming content hash
//! and the canonical dataset fingerprint the job service verifies.
//!
//! A federation merges per-shard top-Ks from many machines under the
//! assumption that every node scanned the *same* dataset. That
//! assumption is silent: a node with a stale or corrupted copy of the
//! file produces perfectly well-formed candidates that merge into a
//! "bit-identical" — and wrong — answer. [`dataset_hash`] closes the
//! hole: the coordinator hashes the dataset once, pins the digest in
//! every sub-job spec (`dataset_hash=` key), and each node verifies its
//! local file at SUBMIT before any shard is scanned.
//!
//! The hash is an xxHash64-style construction (four 64-bit lanes over
//! 32-byte stripes, multiply–rotate mixing, avalanche finalization).
//! It runs at ≈ 11 GB/s: on the benchmark's 2.2 MB `small_jobs`
//! dataset, 0.2 ms (`integrity.hash_ms`) beside 0.4 ms to load the file
//! and 1.25 ms to encode it — a sixth of the encode, under a tenth of a
//! SUBMIT. With 64-bit output, collisions are not a practical concern
//! for corruption detection. It is **not** a cryptographic MAC and does not defend
//! against an adversarial node — only against mismatched files.
//!
//! The only contract is determinism: every party, any architecture,
//! any build, derives the same digest for the same bytes (the golden
//! tests below pin the exact values so an accidental change to the
//! mixing breaks loudly, because a changed digest orphans every spooled
//! `dataset_hash=` in the field).

use bitgenome::{GenotypeMatrix, Phenotype};

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Seed of the canonical dataset fingerprint. Changing it (or the
/// domain tag in [`dataset_hash`]) is a wire-format break: every
/// pinned `dataset_hash=` key in flight would stop verifying.
pub const DATASET_HASH_SEED: u64 = 0x4550_4933_0000_0001; // "EPI3", v1

/// Streaming 64-bit content hash. Feed bytes in any chunking —
/// the digest depends only on the byte sequence and the seed.
#[derive(Clone, Debug)]
pub struct ContentHash64 {
    seed: u64,
    lanes: [u64; 4],
    /// Partial stripe carried between `update` calls.
    buf: [u8; 32],
    buf_len: usize,
    total_len: u64,
}

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(hash: u64, lane: u64) -> u64 {
    (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

impl ContentHash64 {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            buf: [0; 32],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.buf_len > 0 {
            let take = bytes.len().min(32 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < 32 {
                return;
            }
            let stripe = self.buf;
            self.consume_stripe(&stripe);
            self.buf_len = 0;
        }
        let mut chunks = bytes.chunks_exact(32);
        for stripe in &mut chunks {
            let stripe: &[u8; 32] = stripe.try_into().expect("exact chunk");
            self.consume_stripe(stripe);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Absorb one `u64` in little-endian byte order (header fields).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    #[inline]
    fn consume_stripe(&mut self, stripe: &[u8; 32]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(stripe[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = round(*lane, word);
        }
    }

    /// Final digest. Does not consume the hasher: more `update` calls
    /// (after a `finish` used for a running digest) keep accumulating.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total_len >= 32 {
            let [v1, v2, v3, v4] = self.lanes;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for lane in self.lanes {
                h = merge_round(h, lane);
            }
            h
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(self.total_len);

        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            let word = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
            h = (h ^ round(0, word))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as u64;
            h = (h ^ word.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        h
    }
}

/// One-shot convenience over [`ContentHash64`].
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = ContentHash64::new(seed);
    h.update(bytes);
    h.finish()
}

/// The canonical content fingerprint of a dataset: dimensions plus the
/// raw genotype matrix and phenotype labels, under a fixed domain tag
/// and seed. This is what the `dataset_hash=` spec key pins and what
/// every node recomputes from its local file at SUBMIT — the dimensions
/// are hashed explicitly so two files whose byte streams happen to
/// concatenate identically but tile differently cannot collide.
pub fn dataset_hash(genotypes: &GenotypeMatrix, phenotype: &Phenotype) -> u64 {
    let mut h = ContentHash64::new(DATASET_HASH_SEED);
    h.update(b"epi3-dataset-v1");
    h.update_u64(genotypes.num_snps() as u64);
    h.update_u64(genotypes.num_samples() as u64);
    h.update(genotypes.raw());
    h.update(phenotype.labels());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_is_chunking_independent() {
        let data: Vec<u8> = (0..1027).map(|i| (i * 31 % 251) as u8).collect();
        let oneshot = hash_bytes(7, &data);
        for chunk in [1usize, 3, 7, 31, 32, 33, 64, 1000] {
            let mut h = ContentHash64::new(7);
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finish(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn digest_depends_on_every_byte_and_the_seed() {
        let data: Vec<u8> = (0..257).map(|i| i as u8).collect();
        let base = hash_bytes(0, &data);
        assert_ne!(base, hash_bytes(1, &data), "seed must matter");
        for flip in [0usize, 1, 31, 32, 100, 256] {
            let mut corrupted = data.clone();
            corrupted[flip] ^= 0x01;
            assert_ne!(base, hash_bytes(0, &corrupted), "flipped byte {flip}");
        }
        // length extension of a zero byte changes the digest too
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(base, hash_bytes(0, &longer));
    }

    #[test]
    fn short_inputs_hash_distinctly() {
        // below one stripe the tail path does all the work; make sure
        // the 8/4/1-byte stages all contribute
        let mut seen = std::collections::HashSet::new();
        for len in 0..=33usize {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert!(seen.insert(hash_bytes(42, &data)), "collision at len {len}");
        }
    }

    #[test]
    fn golden_digests_are_stable() {
        // Pinned values: if these change, every dataset_hash= key ever
        // spooled or scripted stops verifying. Bump the domain tag and
        // DATASET_HASH_SEED instead of silently re-deriving.
        assert_eq!(hash_bytes(0, b""), 0xef46db3751d8e999);
        assert_eq!(hash_bytes(0, b"epi3"), 0xfa65f60d02aed46e);
        let stripes: Vec<u8> = (0..64).collect();
        assert_eq!(hash_bytes(0, &stripes), 0xf7c67301db6713f0);
    }

    #[test]
    fn dataset_hash_separates_content_and_shape() {
        let g1 = GenotypeMatrix::from_raw(2, 4, vec![0, 1, 2, 0, 2, 1, 0, 1]);
        let p1 = Phenotype::from_labels(vec![0, 1, 0, 1]);
        let h1 = dataset_hash(&g1, &p1);
        // identical data hashes identically
        let g1b = GenotypeMatrix::from_raw(2, 4, vec![0, 1, 2, 0, 2, 1, 0, 1]);
        assert_eq!(h1, dataset_hash(&g1b, &p1));
        // one genotype flipped
        let g2 = GenotypeMatrix::from_raw(2, 4, vec![0, 1, 2, 1, 2, 1, 0, 1]);
        assert_ne!(h1, dataset_hash(&g2, &p1));
        // one label flipped
        let p2 = Phenotype::from_labels(vec![0, 1, 1, 1]);
        assert_ne!(h1, dataset_hash(&g1, &p2));
        // same bytes, transposed shape: the explicit dims must separate them
        let g3 = GenotypeMatrix::from_raw(4, 2, vec![0, 1, 2, 0, 2, 1, 0, 1]);
        assert_ne!(h1, dataset_hash(&g3, &p1));
    }
}
