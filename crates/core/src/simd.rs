//! Vectorised contingency-accumulation kernels (§IV-A's fourth approach).
//!
//! The hot operation is: given the genotype-0/1 planes of three SNPs over
//! one phenotype class, add the popcount of every `X[gx] & Y[gy] & Z[gz]`
//! intersection (genotype 2 reconstructed by `NOR`) into a 27-cell
//! accumulator.
//!
//! Three explicit paths mirror the paper's per-architecture dispatch:
//!
//! * **AVX2** — 256-bit loads/logic; `POPCNT` is *not* vectorised, so each
//!   lane is extracted and counted scalar (Zen/Zen2/Skylake path);
//! * **AVX-512** — 512-bit logic with per-lane scalar `POPCNT` (the
//!   Skylake-SP path, paying the extract overhead the paper measures);
//! * **AVX-512 `VPOPCNTDQ`** — fully vectorised popcount plus reduction
//!   (the Ice Lake SP path that dominates Fig. 3).
//!
//! All paths produce *bit-identical* accumulator contents; tests verify
//! every available path against the scalar reference.

use bitgenome::Word;

pub use bitgenome::SimdLevel;

/// Popcount a 256-bit register via ALU lane extraction (`vextracti128` +
/// `pextrq`) + scalar `POPCNT` — the paper's lane-extract scheme. ALU
/// extracts deliberately: bouncing the register through a stack buffer
/// and reloading 64-bit chunks hits the store-forwarding stall (a 32 B
/// store followed by 8 B loads cannot forward), which is slow enough to
/// drop the extract tiers *below* scalar throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[inline]
fn popcnt256(v: core::arch::x86_64::__m256i) -> u32 {
    use core::arch::x86_64::*;
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    (_mm_cvtsi128_si64(lo) as u64).count_ones()
        + (_mm_extract_epi64::<1>(lo) as u64).count_ones()
        + (_mm_cvtsi128_si64(hi) as u64).count_ones()
        + (_mm_extract_epi64::<1>(hi) as u64).count_ones()
}

/// Popcount a 512-bit register via ALU lane extraction (two 256-bit
/// halves through [`popcnt256`]) — the Skylake-SP path, paying exactly
/// the extract overhead §V-B measures, but not the store-forwarding
/// stall a memory round-trip would add on top.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
#[inline]
fn popcnt512(v: core::arch::x86_64::__m512i) -> u32 {
    use core::arch::x86_64::*;
    // avx512f implies avx2 on every real part; the cast/extract pair is
    // plain avx512f
    popcnt256(_mm512_castsi512_si256(v)) + popcnt256(_mm512_extracti64x4_epi64::<1>(v))
}

/// Per-64-bit-lane popcounts of a 256-bit register via the in-register
/// nibble-LUT scheme (Mula: `vpshufb` lookup on both nibbles, byte add,
/// `vpsadbw` to fold bytes into the four u64 lanes). Used by the fill
/// kernels on the no-`VPOPCNTDQ` tiers: the result feeds straight into a
/// vector accumulator, so a whole fill pass performs exactly one
/// horizontal reduction per stream — no per-chunk lane extraction at
/// all, which is what keeps these tiers ahead of the scalar fill.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn popcnt256_lanes(v: core::arch::x86_64::__m256i) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(cnt, _mm256_setzero_si256())
}

/// Horizontal sum of the four u64 lanes of a [`popcnt256_lanes`]
/// accumulator (called once per stream, after the chunk loop).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[inline]
fn reduce256_lanes(v: core::arch::x86_64::__m256i) -> u32 {
    use core::arch::x86_64::*;
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let s = _mm_add_epi64(lo, hi);
    (_mm_cvtsi128_si64(s) as u64 + _mm_extract_epi64::<1>(s) as u64) as u32
}

/// 512-bit analogue of [`popcnt256_lanes`] (`avx512bw` provides the
/// zmm-wide `vpshufb`/`vpsadbw`) — the Skylake-SP fill path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn popcnt512_lanes(v: core::arch::x86_64::__m512i) -> core::arch::x86_64::__m512i {
    use core::arch::x86_64::*;
    #[rustfmt::skip]
    let lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    ));
    let low_mask = _mm512_set1_epi8(0x0f);
    let lo = _mm512_and_si512(v, low_mask);
    let hi = _mm512_and_si512(_mm512_srli_epi16::<4>(v), low_mask);
    let cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi));
    _mm512_sad_epu8(cnt, _mm512_setzero_si512())
}

/// Horizontal sum of the eight u64 lanes of a [`popcnt512_lanes`]
/// accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn reduce512_lanes(v: core::arch::x86_64::__m512i) -> u32 {
    core::arch::x86_64::_mm512_reduce_add_epi64(v) as u32
}

/// Six equal-length plane slices: `(x0, x1, y0, y1, z0, z1)`.
pub type Planes<'a> = (
    &'a [Word],
    &'a [Word],
    &'a [Word],
    &'a [Word],
    &'a [Word],
    &'a [Word],
);

/// Add the 27 intersection popcounts of one class to `acc`, using the
/// requested SIMD tier.
///
/// # Panics
/// Panics (debug) if `level` exceeds the host's capability; panics if
/// slice lengths differ (the vector kernels' loads rely on it).
#[inline]
pub fn accumulate27(level: SimdLevel, planes: Planes<'_>, acc: &mut [u32; 27]) {
    debug_assert!(level <= SimdLevel::detect(), "SIMD tier not available");
    let (x0, x1, y0, y1, z0, z1) = planes;
    assert!(
        x0.len() == x1.len()
            && x0.len() == y0.len()
            && x0.len() == y1.len()
            && x0.len() == z0.len()
            && x0.len() == z1.len()
    );
    match level {
        SimdLevel::Scalar => accumulate27_scalar(planes, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level <= SimdLevel::detect()` (asserted above), so the
        // features each kernel was compiled for are present on this host.
        SimdLevel::Avx2 => unsafe { accumulate27_avx2(x0, x1, y0, y1, z0, z1, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512 => unsafe { accumulate27_avx512(x0, x1, y0, y1, z0, z1, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512Vpopcnt => unsafe {
            accumulate27_avx512_vpopcnt(x0, x1, y0, y1, z0, z1, acc)
        },
        // Exhaustive on every architecture: an x86 tier reaching a
        // non-x86 build means the detection layer is broken — fail
        // loudly in tests instead of quietly running 10× slower.
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 | SimdLevel::Avx512 | SimdLevel::Avx512Vpopcnt => {
            debug_assert!(false, "x86 SIMD tier {level} dispatched on a non-x86 host");
            accumulate27_scalar(planes, acc)
        }
    }
}

/// Scalar reference path: 64-bit logic with hardware `POPCNT`
/// (`u64::count_ones`). Also handles vector-path remainders.
pub fn accumulate27_scalar(planes: Planes<'_>, acc: &mut [u32; 27]) {
    let (x0, x1, y0, y1, z0, z1) = planes;
    for w in 0..x0.len() {
        let xs = [x0[w], x1[w], !(x0[w] | x1[w])];
        let ys = [y0[w], y1[w], !(y0[w] | y1[w])];
        let zs = [z0[w], z1[w], !(z0[w] | z1[w])];
        let mut cell = 0;
        for xv in xs {
            for yv in ys {
                let xy = xv & yv;
                for zv in zs {
                    acc[cell] += (xy & zv).count_ones();
                    cell += 1;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn accumulate27_avx2(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32; 27],
) {
    use core::arch::x86_64::*;
    const L: usize = 4; // u64 lanes per ymm
    let chunks = x0.len() / L;
    let ones = _mm256_set1_epi64x(-1);
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= x0.len(), and `accumulate27`
        // asserts that the six planes share x0's length.
        let ld = |s: &[Word]| unsafe { _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i) };
        let (xv0, xv1) = (ld(x0), ld(x1));
        let (yv0, yv1) = (ld(y0), ld(y1));
        let (zv0, zv1) = (ld(z0), ld(z1));
        // NOR = (a | b) ^ ones — the paper's two-instruction emulation.
        let xs = [xv0, xv1, _mm256_xor_si256(_mm256_or_si256(xv0, xv1), ones)];
        let ys = [yv0, yv1, _mm256_xor_si256(_mm256_or_si256(yv0, yv1), ones)];
        let zs = [zv0, zv1, _mm256_xor_si256(_mm256_or_si256(zv0, zv1), ones)];
        let mut cell = 0;
        for xv in xs {
            for yv in ys {
                let xy = _mm256_and_si256(xv, yv);
                for zv in zs {
                    let v = _mm256_and_si256(xy, zv);
                    // lane extraction + scalar POPCNT (no vector popcount
                    // on this tier)
                    acc[cell] += popcnt256(v);
                    cell += 1;
                }
            }
        }
    }
    let tail = chunks * L;
    accumulate27_scalar(
        (
            &x0[tail..],
            &x1[tail..],
            &y0[tail..],
            &y1[tail..],
            &z0[tail..],
            &z1[tail..],
        ),
        acc,
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
fn accumulate27_avx512(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32; 27],
) {
    use core::arch::x86_64::*;
    const L: usize = 8; // u64 lanes per zmm
    let chunks = x0.len() / L;
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= x0.len(), and `accumulate27`
        // asserts that the six planes share x0's length.
        let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
        let (xv0, xv1) = (ld(x0), ld(x1));
        let (yv0, yv1) = (ld(y0), ld(y1));
        let (zv0, zv1) = (ld(z0), ld(z1));
        // ternarylogic imm 0x01 = 1 iff all inputs 0 => NOR(a, b) with c=b.
        let xs = [xv0, xv1, _mm512_ternarylogic_epi64(xv0, xv1, xv1, 0x01)];
        let ys = [yv0, yv1, _mm512_ternarylogic_epi64(yv0, yv1, yv1, 0x01)];
        let zs = [zv0, zv1, _mm512_ternarylogic_epi64(zv0, zv1, zv1, 0x01)];
        let mut cell = 0;
        for xv in xs {
            for yv in ys {
                let xy = _mm512_and_si512(xv, yv);
                for zv in zs {
                    let v = _mm512_and_si512(xy, zv);
                    // Skylake-SP path: 256-bit extracts, then scalar
                    // POPCNT per lane — the overhead §V-B blames for CI2's
                    // AVX-512 slowdown.
                    acc[cell] += popcnt512(v);
                    cell += 1;
                }
            }
        }
    }
    let tail = chunks * L;
    accumulate27_scalar(
        (
            &x0[tail..],
            &x1[tail..],
            &y0[tail..],
            &y1[tail..],
            &z0[tail..],
            &z1[tail..],
        ),
        acc,
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
fn accumulate27_avx512_vpopcnt(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32; 27],
) {
    use core::arch::x86_64::*;
    const L: usize = 8;
    let chunks = x0.len() / L;
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= x0.len(), and `accumulate27`
        // asserts that the six planes share x0's length.
        let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
        let (xv0, xv1) = (ld(x0), ld(x1));
        let (yv0, yv1) = (ld(y0), ld(y1));
        let (zv0, zv1) = (ld(z0), ld(z1));
        let xs = [xv0, xv1, _mm512_ternarylogic_epi64(xv0, xv1, xv1, 0x01)];
        let ys = [yv0, yv1, _mm512_ternarylogic_epi64(yv0, yv1, yv1, 0x01)];
        let zs = [zv0, zv1, _mm512_ternarylogic_epi64(zv0, zv1, zv1, 0x01)];
        let mut cell = 0;
        for xv in xs {
            for yv in ys {
                let xy = _mm512_and_si512(xv, yv);
                for zv in zs {
                    let v = _mm512_and_si512(xy, zv);
                    // Ice Lake SP path: vector POPCNT + horizontal add
                    // (the paper's _mm512_popcnt / _mm512_reduce_add pair).
                    let pc = _mm512_popcnt_epi64(v);
                    acc[cell] += _mm512_reduce_add_epi64(pc) as u32;
                    cell += 1;
                }
            }
        }
    }
    let tail = chunks * L;
    accumulate27_scalar(
        (
            &x0[tail..],
            &x1[tail..],
            &y0[tail..],
            &y1[tail..],
            &z0[tail..],
            &z1[tail..],
        ),
        acc,
    );
}

/// Materialise the nine pair streams `X[gx] & Y[gy]` of one SNP pair into
/// `streams` (pair-major, `bitgenome::build_pair_streams` layout) *and*
/// add each stream's popcount into `counts` — the once-per-pair cache
/// fill of the V5 kernel, vectorised so the amortised work keeps pace
/// with the vector inner loop on every tier. All tiers produce
/// bit-identical buffers and counts:
///
/// * **scalar** — 64-bit logic + hardware `POPCNT`;
/// * **AVX2** — 256-bit logic/stores, lane-extracted scalar `POPCNT`;
/// * **AVX-512** — 512-bit logic/stores, lane-extracted scalar `POPCNT`
///   (Skylake-SP tier);
/// * **AVX-512 `VPOPCNTDQ`** — fully vectorised count (Ice Lake SP+).
///
/// # Panics
/// Panics (debug) if `level` exceeds the host's capability; panics if
/// plane lengths differ or `streams.len() != 9 * x0.len()`.
#[inline]
pub fn fill_pair_cache(
    level: SimdLevel,
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    streams: &mut [Word],
    counts: &mut [u32; 9],
) {
    debug_assert!(level <= SimdLevel::detect(), "SIMD tier not available");
    match level {
        SimdLevel::Scalar => fill_pair_cache_scalar(x0, x1, y0, y1, streams, counts),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level <= SimdLevel::detect()` (asserted above), so the
        // features each kernel was compiled for are present on this host.
        SimdLevel::Avx2 => unsafe { fill_pair_cache_avx2(x0, x1, y0, y1, streams, counts) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512 => unsafe { fill_pair_cache_avx512(x0, x1, y0, y1, streams, counts) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512Vpopcnt => unsafe {
            fill_pair_cache_avx512_vpopcnt(x0, x1, y0, y1, streams, counts)
        },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 | SimdLevel::Avx512 | SimdLevel::Avx512Vpopcnt => {
            debug_assert!(false, "x86 SIMD tier {level} dispatched on a non-x86 host");
            fill_pair_cache_scalar(x0, x1, y0, y1, streams, counts)
        }
    }
}

/// Scalar reference path for [`fill_pair_cache`].
fn fill_pair_cache_scalar(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    streams: &mut [Word],
    counts: &mut [u32; 9],
) {
    bitgenome::build_pair_streams(x0, x1, y0, y1, streams);
    bitgenome::add_pair_stream_counts(streams, x0.len(), counts);
}

/// Scalar tail shared by the vector `fill_pair_cache` paths: build and
/// count words `from..len` of every stream.
fn fill_pair_cache_tail(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    streams: &mut [Word],
    counts: &mut [u32; 9],
    from: usize,
) {
    let len = x0.len();
    for w in from..len {
        let xs = [x0[w], x1[w], !(x0[w] | x1[w])];
        let ys = [y0[w], y1[w], !(y0[w] | y1[w])];
        for (gx, &xv) in xs.iter().enumerate() {
            for (gy, &yv) in ys.iter().enumerate() {
                let p = gx * 3 + gy;
                let v = xv & yv;
                streams[p * len + w] = v;
                counts[p] += v.count_ones();
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn fill_pair_cache_avx2(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    streams: &mut [Word],
    counts: &mut [u32; 9],
) {
    use core::arch::x86_64::*;
    const L: usize = 4; // u64 lanes per ymm
    let len = x0.len();
    assert!(x1.len() == len && y0.len() == len && y1.len() == len);
    assert_eq!(streams.len(), 9 * len);
    let chunks = len / L;
    let ones = _mm256_set1_epi64x(-1);
    // no vector POPCNT on this tier: nibble-LUT counts into per-pair
    // vector accumulators, one reduction per stream after the loop
    let mut vacc = [_mm256_setzero_si256(); 9];
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= len, and the asserts above pin
        // every plane to len words.
        let ld = |s: &[Word]| unsafe { _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i) };
        let (xv0, xv1) = (ld(x0), ld(x1));
        let (yv0, yv1) = (ld(y0), ld(y1));
        let xs = [xv0, xv1, _mm256_xor_si256(_mm256_or_si256(xv0, xv1), ones)];
        let ys = [yv0, yv1, _mm256_xor_si256(_mm256_or_si256(yv0, yv1), ones)];
        for (gx, &xv) in xs.iter().enumerate() {
            for (gy, &yv) in ys.iter().enumerate() {
                let p = gx * 3 + gy;
                let v = _mm256_and_si256(xv, yv);
                // SAFETY: p * len + i + L <= 9 * len == streams.len() (asserted above).
                unsafe {
                    _mm256_storeu_si256(streams.as_mut_ptr().add(p * len + i) as *mut __m256i, v)
                };
                vacc[p] = _mm256_add_epi64(vacc[p], popcnt256_lanes(v));
            }
        }
    }
    for (p, &v) in vacc.iter().enumerate() {
        counts[p] += reduce256_lanes(v);
    }
    fill_pair_cache_tail(x0, x1, y0, y1, streams, counts, chunks * L);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
fn fill_pair_cache_avx512(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    streams: &mut [Word],
    counts: &mut [u32; 9],
) {
    use core::arch::x86_64::*;
    const L: usize = 8; // u64 lanes per zmm
    let len = x0.len();
    assert!(x1.len() == len && y0.len() == len && y1.len() == len);
    assert_eq!(streams.len(), 9 * len);
    let chunks = len / L;
    // Skylake-SP tier (no VPOPCNTDQ): zmm nibble-LUT counts into
    // per-pair vector accumulators, reduced once after the loop
    let mut vacc = [_mm512_setzero_si512(); 9];
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= len, and the asserts above pin
        // every plane to len words.
        let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
        let (xv0, xv1) = (ld(x0), ld(x1));
        let (yv0, yv1) = (ld(y0), ld(y1));
        let xs = [xv0, xv1, _mm512_ternarylogic_epi64(xv0, xv1, xv1, 0x01)];
        let ys = [yv0, yv1, _mm512_ternarylogic_epi64(yv0, yv1, yv1, 0x01)];
        for (gx, &xv) in xs.iter().enumerate() {
            for (gy, &yv) in ys.iter().enumerate() {
                let p = gx * 3 + gy;
                let v = _mm512_and_si512(xv, yv);
                // SAFETY: p * len + i + L <= 9 * len == streams.len() (asserted above).
                unsafe { _mm512_storeu_si512(streams.as_mut_ptr().add(p * len + i) as *mut _, v) };
                vacc[p] = _mm512_add_epi64(vacc[p], popcnt512_lanes(v));
            }
        }
    }
    for (p, &v) in vacc.iter().enumerate() {
        counts[p] += reduce512_lanes(v);
    }
    fill_pair_cache_tail(x0, x1, y0, y1, streams, counts, chunks * L);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
fn fill_pair_cache_avx512_vpopcnt(
    x0: &[Word],
    x1: &[Word],
    y0: &[Word],
    y1: &[Word],
    streams: &mut [Word],
    counts: &mut [u32; 9],
) {
    use core::arch::x86_64::*;
    const L: usize = 8;
    let len = x0.len();
    assert!(x1.len() == len && y0.len() == len && y1.len() == len);
    assert_eq!(streams.len(), 9 * len);
    let chunks = len / L;
    let mut vacc = [_mm512_setzero_si512(); 9];
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= len, and the asserts above pin
        // every plane to len words.
        let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
        let (xv0, xv1) = (ld(x0), ld(x1));
        let (yv0, yv1) = (ld(y0), ld(y1));
        let xs = [xv0, xv1, _mm512_ternarylogic_epi64(xv0, xv1, xv1, 0x01)];
        let ys = [yv0, yv1, _mm512_ternarylogic_epi64(yv0, yv1, yv1, 0x01)];
        for (gx, &xv) in xs.iter().enumerate() {
            for (gy, &yv) in ys.iter().enumerate() {
                let p = gx * 3 + gy;
                let v = _mm512_and_si512(xv, yv);
                // SAFETY: p * len + i + L <= 9 * len == streams.len() (asserted above).
                unsafe { _mm512_storeu_si512(streams.as_mut_ptr().add(p * len + i) as *mut _, v) };
                vacc[p] = _mm512_add_epi64(vacc[p], _mm512_popcnt_epi64(v));
            }
        }
    }
    for (p, &v) in vacc.iter().enumerate() {
        counts[p] += _mm512_reduce_add_epi64(v) as u32;
    }
    fill_pair_cache_tail(x0, x1, y0, y1, streams, counts, chunks * L);
}

/// Materialise the three child streams `parent ∧ Z[gz]` of one prefix
/// stream — genotype 2 reconstructed by `NOR` — into `out` (child-major:
/// `out[g·len..][..len]` holds genotype `g`) *and* add each child's
/// popcount into `counts`. This is the depth-`d ≥ 3` fill of the k-way
/// [`crate::prefixcache::PrefixCache`] (one call per parent stream), and
/// with an all-ones `parent` it doubles as the depth-1 fill of an
/// order-2 cache. Mirrors [`fill_pair_cache`]'s per-tier layout so the
/// deep prefix levels keep pace with the vectorised pair level:
///
/// * **scalar** — 64-bit logic + hardware `POPCNT`;
/// * **AVX2** — 256-bit logic/stores, lane-extracted scalar `POPCNT`;
/// * **AVX-512** — 512-bit logic/stores, lane-extracted scalar `POPCNT`
///   (Skylake-SP tier);
/// * **AVX-512 `VPOPCNTDQ`** — fully vectorised count (Ice Lake SP+).
///
/// All tiers produce bit-identical buffers and counts (exact integer
/// arithmetic throughout).
///
/// # Panics
/// Panics (debug) if `level` exceeds the host's capability; panics if
/// plane/parent lengths differ or `out.len() != 3 * parent.len()`.
#[inline]
pub fn fill_prefix_cache(
    level: SimdLevel,
    parent: &[Word],
    p0: &[Word],
    p1: &[Word],
    out: &mut [Word],
    counts: &mut [u32; 3],
) {
    debug_assert!(level <= SimdLevel::detect(), "SIMD tier not available");
    assert!(p0.len() == parent.len() && p1.len() == parent.len());
    assert_eq!(out.len(), 3 * parent.len());
    match level {
        SimdLevel::Scalar => fill_prefix_cache_tail(parent, p0, p1, out, counts, 0),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level <= SimdLevel::detect()` (asserted above), so the
        // features each kernel was compiled for are present on this host.
        SimdLevel::Avx2 => unsafe { fill_prefix_cache_avx2(parent, p0, p1, out, counts) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512 => unsafe { fill_prefix_cache_avx512(parent, p0, p1, out, counts) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512Vpopcnt => unsafe {
            fill_prefix_cache_avx512_vpopcnt(parent, p0, p1, out, counts)
        },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 | SimdLevel::Avx512 | SimdLevel::Avx512Vpopcnt => {
            debug_assert!(false, "x86 SIMD tier {level} dispatched on a non-x86 host");
            fill_prefix_cache_tail(parent, p0, p1, out, counts, 0)
        }
    }
}

/// Scalar path and vector-tail of [`fill_prefix_cache`]: build and count
/// words `from..len` of the three child streams.
fn fill_prefix_cache_tail(
    parent: &[Word],
    p0: &[Word],
    p1: &[Word],
    out: &mut [Word],
    counts: &mut [u32; 3],
    from: usize,
) {
    let len = parent.len();
    for w in from..len {
        let pv = parent[w];
        let a = pv & p0[w];
        let b = pv & p1[w];
        let c = pv & !(p0[w] | p1[w]);
        out[w] = a;
        out[len + w] = b;
        out[2 * len + w] = c;
        counts[0] += a.count_ones();
        counts[1] += b.count_ones();
        counts[2] += c.count_ones();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn fill_prefix_cache_avx2(
    parent: &[Word],
    p0: &[Word],
    p1: &[Word],
    out: &mut [Word],
    counts: &mut [u32; 3],
) {
    use core::arch::x86_64::*;
    const L: usize = 4; // u64 lanes per ymm
    let len = parent.len();
    let chunks = len / L;
    let ones = _mm256_set1_epi64x(-1);
    // no vector POPCNT on this tier: nibble-LUT counts into three
    // per-child vector accumulators, one reduction per child at the end
    let mut vacc = [_mm256_setzero_si256(); 3];
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= len, and `fill_prefix_cache` asserts
        // that p0 and p1 have the parent's length.
        let ld = |s: &[Word]| unsafe { _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i) };
        let pv = ld(parent);
        let (z0, z1) = (ld(p0), ld(p1));
        let zs = [z0, z1, _mm256_xor_si256(_mm256_or_si256(z0, z1), ones)];
        for (g, &zv) in zs.iter().enumerate() {
            let v = _mm256_and_si256(pv, zv);
            // SAFETY: g * len + i + L <= 3 * len == out.len() (asserted in
            // `fill_prefix_cache`).
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(g * len + i) as *mut __m256i, v) };
            vacc[g] = _mm256_add_epi64(vacc[g], popcnt256_lanes(v));
        }
    }
    for (g, &v) in vacc.iter().enumerate() {
        counts[g] += reduce256_lanes(v);
    }
    fill_prefix_cache_tail(parent, p0, p1, out, counts, chunks * L);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
fn fill_prefix_cache_avx512(
    parent: &[Word],
    p0: &[Word],
    p1: &[Word],
    out: &mut [Word],
    counts: &mut [u32; 3],
) {
    use core::arch::x86_64::*;
    const L: usize = 8; // u64 lanes per zmm
    let len = parent.len();
    let chunks = len / L;
    // Skylake-SP tier (no VPOPCNTDQ): zmm nibble-LUT counts into vector
    // accumulators, one reduction per child after the loop
    let mut vacc = [_mm512_setzero_si512(); 3];
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= len, and `fill_prefix_cache` asserts
        // that p0 and p1 have the parent's length.
        let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
        let pv = ld(parent);
        let (z0, z1) = (ld(p0), ld(p1));
        // ternarylogic imm 0x01 = 1 iff all inputs 0 => NOR(a, b) with c=b
        let zs = [z0, z1, _mm512_ternarylogic_epi64(z0, z1, z1, 0x01)];
        for (g, &zv) in zs.iter().enumerate() {
            let v = _mm512_and_si512(pv, zv);
            // SAFETY: g * len + i + L <= 3 * len == out.len() (asserted in
            // `fill_prefix_cache`).
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().add(g * len + i) as *mut _, v) };
            vacc[g] = _mm512_add_epi64(vacc[g], popcnt512_lanes(v));
        }
    }
    for (g, &v) in vacc.iter().enumerate() {
        counts[g] += reduce512_lanes(v);
    }
    fill_prefix_cache_tail(parent, p0, p1, out, counts, chunks * L);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
fn fill_prefix_cache_avx512_vpopcnt(
    parent: &[Word],
    p0: &[Word],
    p1: &[Word],
    out: &mut [Word],
    counts: &mut [u32; 3],
) {
    use core::arch::x86_64::*;
    const L: usize = 8;
    let len = parent.len();
    let chunks = len / L;
    let mut vacc = [_mm512_setzero_si512(); 3];
    for c in 0..chunks {
        let i = c * L;
        // SAFETY: i + L <= chunks * L <= len, and `fill_prefix_cache` asserts
        // that p0 and p1 have the parent's length.
        let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
        let pv = ld(parent);
        let (z0, z1) = (ld(p0), ld(p1));
        let zs = [z0, z1, _mm512_ternarylogic_epi64(z0, z1, z1, 0x01)];
        for (g, &zv) in zs.iter().enumerate() {
            let v = _mm512_and_si512(pv, zv);
            // SAFETY: g * len + i + L <= 3 * len == out.len() (asserted in
            // `fill_prefix_cache`).
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().add(g * len + i) as *mut _, v) };
            vacc[g] = _mm512_add_epi64(vacc[g], _mm512_popcnt_epi64(v));
        }
    }
    for (g, &v) in vacc.iter().enumerate() {
        counts[g] += _mm512_reduce_add_epi64(v) as u32;
    }
    fill_prefix_cache_tail(parent, p0, p1, out, counts, chunks * L);
}

/// Add the popcounts of the 18 `gz ∈ {0, 1}` intersections of
/// pre-materialised pair streams with a third SNP's genotype planes into
/// the matching cells of a 27-cell accumulator (`cell = pair * 3 + gz`).
///
/// This is the V5 inner kernel: the nine pair streams
/// (`bitgenome::build_pair_streams` layout, pair-major) already encode
/// `X[gx] & Y[gy]`, so each cell costs one `AND` + one `POPCNT`, no `NOR`
/// is needed for the third SNP (its genotype-2 cells are derived by
/// subtraction from the pair totals), and the `gz = 2` column of `acc` is
/// left untouched.
///
/// Thin wrapper over [`accumulate_streams_strided`] with nine contiguous
/// streams; kept as the named V5 entry point.
///
/// # Panics
/// Panics (debug) if `level` exceeds the host's capability or
/// `pairs.len() != 9 * z0.len()`; panics if `z0`/`z1` lengths differ or
/// `pairs` is too short.
#[inline]
pub fn accumulate18(
    level: SimdLevel,
    pairs: &[Word],
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32; 27],
) {
    debug_assert_eq!(pairs.len(), 9 * z0.len());
    accumulate_streams_strided(level, pairs, z0.len(), z0, z1, &mut acc[..]);
}

/// Generic form of [`accumulate18`] for the unified prefix cache: add the
/// popcounts of `stream[p] ∧ z0` and `stream[p] ∧ z1` into `acc[p*3]` and
/// `acc[p*3 + 1]` for `acc.len() / 3` consecutive streams (`acc[p*3 + 2]`
/// is untouched — callers derive it by subtraction from the stream
/// totals). The stream count is arbitrary, which is what lets `3^(k-1)`
/// prefix streams of a k-way scan share the V5 kernels.
///
/// # Panics
/// Panics (debug) if `level` exceeds the host's capability, `streams`
/// does not hold exactly `acc.len() / 3` streams, or `acc.len()` is not a
/// multiple of 3; panics if `z0`/`z1` lengths differ or `streams` is too
/// short.
#[inline]
pub fn accumulate_streams(
    level: SimdLevel,
    streams: &[Word],
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32],
) {
    debug_assert_eq!(streams.len(), (acc.len() / 3) * z0.len());
    accumulate_streams_strided(level, streams, z0.len(), z0, z1, acc);
}

/// Strided core of [`accumulate_streams`]: stream `p` occupies
/// `streams[p * stride .. p * stride + z0.len()]`. A stride larger than
/// `z0.len()` lets the blocked V5 kernel accumulate one *sample block* of
/// full-range cached pair streams without copying them out first.
///
/// # Panics
/// Panics (debug) if `level` exceeds the host's capability,
/// `stride < z0.len()`, or `acc.len()` is not a multiple of 3; panics if
/// `z0`/`z1` lengths differ or `streams` is too short for the last stream
/// (the vector kernels' loads rely on both).
pub fn accumulate_streams_strided(
    level: SimdLevel,
    streams: &[Word],
    stride: usize,
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32],
) {
    debug_assert!(level <= SimdLevel::detect(), "SIMD tier not available");
    assert_eq!(z0.len(), z1.len());
    debug_assert_eq!(acc.len() % 3, 0);
    debug_assert!(stride >= z0.len());
    let n = acc.len() / 3;
    if z0.is_empty() || n == 0 {
        return;
    }
    assert!(streams.len() >= (n - 1) * stride + z0.len());
    match level {
        SimdLevel::Scalar => accumulate_streams_scalar_from(streams, stride, z0, z1, 0, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level <= SimdLevel::detect()` (asserted above), so the
        // features each kernel was compiled for are present on this host.
        SimdLevel::Avx2 => unsafe { accumulate_streams_avx2(streams, stride, z0, z1, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512 => unsafe { accumulate_streams_avx512(streams, stride, z0, z1, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as the Avx2 arm.
        SimdLevel::Avx512Vpopcnt => unsafe {
            accumulate_streams_avx512_vpopcnt(streams, stride, z0, z1, acc)
        },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 | SimdLevel::Avx512 | SimdLevel::Avx512Vpopcnt => {
            debug_assert!(false, "x86 SIMD tier {level} dispatched on a non-x86 host");
            accumulate_streams_scalar_from(streams, stride, z0, z1, 0, acc)
        }
    }
}

/// Scalar reference path for [`accumulate18`]; also handles vector-path
/// remainders (via the internal `from` offset).
pub fn accumulate18_scalar(pairs: &[Word], z0: &[Word], z1: &[Word], acc: &mut [u32; 27]) {
    accumulate_streams_scalar_from(pairs, z0.len(), z0, z1, 0, &mut acc[..]);
}

fn accumulate_streams_scalar_from(
    streams: &[Word],
    stride: usize,
    z0: &[Word],
    z1: &[Word],
    from: usize,
    acc: &mut [u32],
) {
    let len = z0.len();
    if from >= len {
        return;
    }
    for p in 0..acc.len() / 3 {
        let stream = &streams[p * stride..p * stride + len];
        let mut c0 = 0u32;
        let mut c1 = 0u32;
        for w in from..len {
            let xy = stream[w];
            c0 += (xy & z0[w]).count_ones();
            c1 += (xy & z1[w]).count_ones();
        }
        acc[p * 3] += c0;
        acc[p * 3 + 1] += c1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn accumulate_streams_avx2(
    streams: &[Word],
    stride: usize,
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32],
) {
    use core::arch::x86_64::*;
    const L: usize = 4; // u64 lanes per ymm
    let len = z0.len();
    let chunks = len / L;
    for p in 0..acc.len() / 3 {
        let stream = &streams[p * stride..p * stride + len];
        let mut c0 = 0u32;
        let mut c1 = 0u32;
        for c in 0..chunks {
            let i = c * L;
            // SAFETY: i + L <= chunks * L <= len; `stream` is sliced to len words
            // and `accumulate_streams_strided` asserts z1 has z0's length.
            let ld =
                |s: &[Word]| unsafe { _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i) };
            let xy = ld(stream);
            for (zs, cnt) in [(z0, &mut c0), (z1, &mut c1)] {
                *cnt += popcnt256(_mm256_and_si256(xy, ld(zs)));
            }
        }
        acc[p * 3] += c0;
        acc[p * 3 + 1] += c1;
    }
    accumulate_streams_scalar_from(streams, stride, z0, z1, chunks * L, acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
fn accumulate_streams_avx512(
    streams: &[Word],
    stride: usize,
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32],
) {
    use core::arch::x86_64::*;
    const L: usize = 8; // u64 lanes per zmm
    let len = z0.len();
    let chunks = len / L;
    for p in 0..acc.len() / 3 {
        let stream = &streams[p * stride..p * stride + len];
        let mut c0 = 0u32;
        let mut c1 = 0u32;
        for c in 0..chunks {
            let i = c * L;
            // SAFETY: i + L <= chunks * L <= len; `stream` is sliced to len words
            // and `accumulate_streams_strided` asserts z1 has z0's length.
            let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
            let xy = ld(stream);
            for (zs, cnt) in [(z0, &mut c0), (z1, &mut c1)] {
                *cnt += popcnt512(_mm512_and_si512(xy, ld(zs)));
            }
        }
        acc[p * 3] += c0;
        acc[p * 3 + 1] += c1;
    }
    accumulate_streams_scalar_from(streams, stride, z0, z1, chunks * L, acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
fn accumulate_streams_avx512_vpopcnt(
    streams: &[Word],
    stride: usize,
    z0: &[Word],
    z1: &[Word],
    acc: &mut [u32],
) {
    use core::arch::x86_64::*;
    const L: usize = 8;
    let len = z0.len();
    let chunks = len / L;
    let n = acc.len() / 3;
    if n == 9 {
        // Chunk-outer with 18 per-lane vector accumulators (fits zmm0-31
        // alongside the two z registers): the z planes are loaded once per
        // chunk instead of once per stream, and the horizontal reduction
        // leaves the loop entirely — one reduce per cell per call, unlike
        // the per-chunk-per-cell reduce of accumulate27. Integer sums are
        // order-invariant, so results stay bit-identical to scalar.
        let mut v0 = [_mm512_setzero_si512(); 9];
        let mut v1 = [_mm512_setzero_si512(); 9];
        for c in 0..chunks {
            let i = c * L;
            // SAFETY: i + L <= chunks * L <= len; `stream` is sliced to len words
            // and `accumulate_streams_strided` asserts z1 has z0's length.
            let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
            let zv0 = ld(z0);
            let zv1 = ld(z1);
            for p in 0..9 {
                // SAFETY: p * stride + i + L <= 8 * stride + len <= streams.len(),
                // as `accumulate_streams_strided` asserts for n = 9.
                let xy =
                    unsafe { _mm512_loadu_si512(streams.as_ptr().add(p * stride + i) as *const _) };
                v0[p] = _mm512_add_epi64(v0[p], _mm512_popcnt_epi64(_mm512_and_si512(xy, zv0)));
                v1[p] = _mm512_add_epi64(v1[p], _mm512_popcnt_epi64(_mm512_and_si512(xy, zv1)));
            }
        }
        for p in 0..9 {
            acc[p * 3] += _mm512_reduce_add_epi64(v0[p]) as u32;
            acc[p * 3 + 1] += _mm512_reduce_add_epi64(v1[p]) as u32;
        }
    } else {
        // Arbitrary stream counts (k-way prefix streams): stream-outer
        // with two vector accumulators; same exact integer arithmetic.
        for p in 0..n {
            let stream = &streams[p * stride..p * stride + len];
            let mut v0 = _mm512_setzero_si512();
            let mut v1 = _mm512_setzero_si512();
            for c in 0..chunks {
                let i = c * L;
                // SAFETY: i + L <= chunks * L <= len; `stream` is sliced to len words
                // and `accumulate_streams_strided` asserts z1 has z0's length.
                let ld = |s: &[Word]| unsafe { _mm512_loadu_si512(s.as_ptr().add(i) as *const _) };
                let xy = ld(stream);
                v0 = _mm512_add_epi64(v0, _mm512_popcnt_epi64(_mm512_and_si512(xy, ld(z0))));
                v1 = _mm512_add_epi64(v1, _mm512_popcnt_epi64(_mm512_and_si512(xy, ld(z1))));
            }
            acc[p * 3] += _mm512_reduce_add_epi64(v0) as u32;
            acc[p * 3 + 1] += _mm512_reduce_add_epi64(v1) as u32;
        }
    }
    accumulate_streams_scalar_from(streams, stride, z0, z1, chunks * L, acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes(len: usize, seed: u64) -> Vec<Vec<Word>> {
        // Six pseudo-random planes; plane pairs (0,1) must be disjoint to
        // model valid genotype encodings, but the kernels do not depend on
        // that, so random words exercise them harder.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        (0..6).map(|_| (0..len).map(|_| next()).collect()).collect()
    }

    fn as_planes(v: &[Vec<Word>]) -> Planes<'_> {
        (&v[0], &v[1], &v[2], &v[3], &v[4], &v[5])
    }

    #[test]
    fn all_available_tiers_match_scalar() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 33, 64, 100] {
            let data = planes(len, len as u64 + 1);
            let mut want = [0u32; 27];
            accumulate27_scalar(as_planes(&data), &mut want);
            for level in SimdLevel::available() {
                let mut got = [0u32; 27];
                accumulate27(level, as_planes(&data), &mut got);
                assert_eq!(got, want, "level={level} len={len}");
            }
        }
    }

    #[test]
    fn all_available_tiers_match_scalar_18() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 33, 64, 100] {
            let data = planes(len, len as u64 + 11);
            let mut pairs = vec![0 as Word; 9 * len];
            bitgenome::build_pair_streams(&data[0], &data[1], &data[2], &data[3], &mut pairs);
            let mut want = [0u32; 27];
            accumulate18_scalar(&pairs, &data[4], &data[5], &mut want);
            for level in SimdLevel::available() {
                let mut got = [0u32; 27];
                accumulate18(level, &pairs, &data[4], &data[5], &mut got);
                assert_eq!(got, want, "level={level} len={len}");
            }
        }
    }

    #[test]
    fn accumulate18_matches_the_18_direct_cells() {
        // On the same planes, the gz ∈ {0, 1} cells of accumulate27 and
        // the pair-stream path must agree bit-exactly; the gz = 2 column
        // must stay untouched by accumulate18.
        let len = 21;
        let data = planes(len, 7);
        let mut full = [0u32; 27];
        accumulate27_scalar(as_planes(&data), &mut full);
        let mut pairs = vec![0 as Word; 9 * len];
        bitgenome::build_pair_streams(&data[0], &data[1], &data[2], &data[3], &mut pairs);
        let mut part = [u32::MAX; 27];
        for p in 0..9 {
            part[p * 3] = 0;
            part[p * 3 + 1] = 0;
        }
        accumulate18_scalar(&pairs, &data[4], &data[5], &mut part);
        for p in 0..9 {
            assert_eq!(part[p * 3], full[p * 3], "pair {p} gz=0");
            assert_eq!(part[p * 3 + 1], full[p * 3 + 1], "pair {p} gz=1");
            assert_eq!(part[p * 3 + 2], u32::MAX, "gz=2 column must be untouched");
        }
    }

    #[test]
    fn fill_pair_cache_tiers_match_scalar() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 33, 64, 100] {
            let data = planes(len, len as u64 + 5);
            let mut want_streams = vec![0 as Word; 9 * len];
            let mut want_counts = [3u32; 9]; // non-zero: counts accumulate
            fill_pair_cache_scalar(
                &data[0],
                &data[1],
                &data[2],
                &data[3],
                &mut want_streams,
                &mut want_counts,
            );
            for level in SimdLevel::available() {
                let mut streams = vec![0 as Word; 9 * len];
                let mut counts = [3u32; 9];
                fill_pair_cache(
                    level,
                    &data[0],
                    &data[1],
                    &data[2],
                    &data[3],
                    &mut streams,
                    &mut counts,
                );
                assert_eq!(streams, want_streams, "level={level} len={len}");
                assert_eq!(counts, want_counts, "level={level} len={len}");
            }
        }
    }

    #[test]
    fn fill_prefix_cache_tiers_match_scalar() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 33, 64, 100] {
            let data = planes(len, len as u64 + 17);
            let (parent, p0, p1) = (&data[0], &data[1], &data[2]);
            let mut want_out = vec![0 as Word; 3 * len];
            let mut want_counts = [5u32; 3]; // non-zero: counts accumulate
            fill_prefix_cache(
                SimdLevel::Scalar,
                parent,
                p0,
                p1,
                &mut want_out,
                &mut want_counts,
            );
            for level in SimdLevel::available() {
                let mut out = vec![0 as Word; 3 * len];
                let mut counts = [5u32; 3];
                fill_prefix_cache(level, parent, p0, p1, &mut out, &mut counts);
                assert_eq!(out, want_out, "level={level} len={len}");
                assert_eq!(counts, want_counts, "level={level} len={len}");
            }
        }
    }

    #[test]
    fn fill_prefix_cache_children_partition_the_parent() {
        // Every parent bit lands in exactly one child (the three genotype
        // reconstructions partition each bit position), so the child
        // popcounts must sum to the parent popcount on every tier.
        let len = 37;
        let data = planes(len, 23);
        // make (p0, p1) a valid disjoint genotype encoding
        let mut p0 = data[1].clone();
        let p1: Vec<Word> = data[2].iter().zip(&p0).map(|(&b, &a)| b & !a).collect();
        p0.iter_mut().zip(&p1).for_each(|(a, &b)| *a &= !b);
        let parent = &data[0];
        let parent_bits: u32 = parent.iter().map(|w| w.count_ones()).sum();
        for level in SimdLevel::available() {
            let mut out = vec![0 as Word; 3 * len];
            let mut counts = [0u32; 3];
            fill_prefix_cache(level, parent, &p0, &p1, &mut out, &mut counts);
            assert_eq!(counts.iter().sum::<u32>(), parent_bits, "level={level}");
        }
    }

    #[test]
    fn fill_prefix_cache_with_ones_parent_is_the_genotype_fill() {
        // The depth-1 use: an all-ones parent yields the raw genotype
        // streams [p0, p1, NOR(p0, p1)].
        let len = 19;
        let data = planes(len, 3);
        let ones = vec![!0 as Word; len];
        for level in SimdLevel::available() {
            let mut out = vec![0 as Word; 3 * len];
            let mut counts = [0u32; 3];
            fill_prefix_cache(level, &ones, &data[0], &data[1], &mut out, &mut counts);
            for w in 0..len {
                assert_eq!(out[w], data[0][w]);
                assert_eq!(out[len + w], data[1][w]);
                assert_eq!(out[2 * len + w], !(data[0][w] | data[1][w]));
            }
        }
    }

    #[test]
    fn accumulate_streams_generic_counts_match_direct() {
        // 3 and 27 streams (the k=2 / k=4 prefix-cache shapes) across all
        // tiers, verified against a direct per-stream popcount.
        for nstreams in [1usize, 3, 9, 27] {
            for len in [0usize, 1, 7, 8, 9, 40] {
                let mut state = (nstreams * 31 + len) as u64 + 1;
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state
                };
                let streams: Vec<Word> = (0..nstreams * len).map(|_| next()).collect();
                let z0: Vec<Word> = (0..len).map(|_| next()).collect();
                let z1: Vec<Word> = (0..len).map(|_| next()).collect();
                let mut want = vec![0u32; nstreams * 3];
                for p in 0..nstreams {
                    for w in 0..len {
                        let xy = streams[p * len + w];
                        want[p * 3] += (xy & z0[w]).count_ones();
                        want[p * 3 + 1] += (xy & z1[w]).count_ones();
                    }
                }
                for level in SimdLevel::available() {
                    let mut acc = vec![0u32; nstreams * 3];
                    accumulate_streams(level, &streams, &z0, &z1, &mut acc);
                    assert_eq!(acc, want, "level={level} n={nstreams} len={len}");
                }
            }
        }
    }

    #[test]
    fn strided_accumulation_matches_contiguous() {
        // Strided access over a wider buffer (the blocked V5 cross-task
        // cache shape) must equal the contiguous result on the same block.
        let (stride, len, n) = (29usize, 11usize, 9usize);
        let mut state = 123u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let wide: Vec<Word> = (0..n * stride).map(|_| next()).collect();
        let z0: Vec<Word> = (0..len).map(|_| next()).collect();
        let z1: Vec<Word> = (0..len).map(|_| next()).collect();
        for offset in [0usize, 5, 18] {
            let mut packed = vec![0 as Word; n * len];
            for p in 0..n {
                packed[p * len..(p + 1) * len]
                    .copy_from_slice(&wide[p * stride + offset..p * stride + offset + len]);
            }
            let mut want = vec![0u32; n * 3];
            accumulate_streams(SimdLevel::Scalar, &packed, &z0, &z1, &mut want);
            for level in SimdLevel::available() {
                let mut got = vec![0u32; n * 3];
                accumulate_streams_strided(level, &wide[offset..], stride, &z0, &z1, &mut got);
                assert_eq!(got, want, "level={level} offset={offset}");
            }
        }
    }

    #[test]
    fn accumulation_is_additive() {
        let data = planes(24, 99);
        let mut once = [0u32; 27];
        accumulate27_scalar(as_planes(&data), &mut once);
        let mut twice = [0u32; 27];
        accumulate27_scalar(as_planes(&data), &mut twice);
        accumulate27_scalar(as_planes(&data), &mut twice);
        for i in 0..27 {
            assert_eq!(twice[i], 2 * once[i]);
        }
    }

    #[test]
    fn cells_sum_to_total_bits() {
        // The 27 cells partition every bit position (each sample has
        // exactly one genotype per SNP under NOR reconstruction), so the
        // accumulator total must be words * 64.
        let len = 10;
        let data = planes(len, 5);
        // make planes valid: clear plane1 bits that overlap plane0
        let mut v = data.clone();
        for p in [0, 2, 4] {
            let (a, b) = (p, p + 1);
            for w in 0..v[a].len() {
                let overlap = v[a][w] & v[b][w];
                v[b][w] &= !overlap;
            }
        }
        let mut acc = [0u32; 27];
        accumulate27_scalar(as_planes(&v), &mut acc);
        let total: u64 = acc.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(total, (len * 64) as u64);
    }

    #[test]
    fn empty_input_leaves_accumulator_untouched() {
        let data = planes(0, 1);
        let mut acc = [7u32; 27];
        accumulate27(SimdLevel::detect(), as_planes(&data), &mut acc);
        assert_eq!(acc, [7u32; 27]);
    }
}
