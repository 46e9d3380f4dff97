//! # bitgenome — bit-packed genotype substrate
//!
//! This crate implements the binarized SNP data representation of
//! Wan et al. (BOOST) as used by the IPDPS'22 three-way epistasis study
//! (Fig. 1 of the paper): every SNP is stored as up to three bit planes,
//! one per genotype value (0 = homozygous major, 1 = heterozygous,
//! 2 = homozygous minor), with one bit per sample.
//!
//! Four layouts are provided, mirroring the data organisations the paper's
//! CPU/GPU approach versions rely on:
//!
//! * [`UnsplitDataset`] — all three genotype planes plus a phenotype bit
//!   vector over the full sample set (CPU/GPU approach **V1**).
//! * [`SplitDataset`] — samples partitioned into controls and cases, only
//!   genotype planes 0 and 1 stored; plane 2 is inferred on the fly via
//!   `NOR` (CPU/GPU approaches **V2+**).
//! * [`TransposedPlanes`] — sample-word-major layout enabling coalesced
//!   accesses by consecutive GPU threads (GPU approach **V3**).
//! * [`TiledPlanes`] — SNP-tiled transposed layout in blocks of `BS` SNPs
//!   (GPU approach **V4**).
//!
//! ## Padding convention
//!
//! Sample bits are packed into 64-bit [`Word`]s. The trailing bits of the
//! last word of every plane are **zero**. For layouts that store all three
//! genotype planes this makes padding invisible to `AND`/`POPCNT`
//! pipelines. For split layouts that *infer* genotype 2 via `NOR`, padding
//! bits surface as genotype 2 for every SNP and therefore land exclusively
//! in the all-(2,2,2) contingency cell; [`ClassPlanes::pad_bits`] exposes
//! the count that downstream contingency-table builders must subtract
//! (see `epi-core::table27`). This keeps the hot loop free of masking, at
//! the price of a single O(1) correction per table.

#![forbid(unsafe_code)]
#![warn(clippy::disallowed_methods)]

pub mod encode;
pub mod layout;
pub mod matrix;
pub mod pairstream;
pub mod popcnt;
pub mod word;

pub use encode::{ClassPlanes, SplitDataset, UnsplitDataset};
pub use layout::{TiledPlanes, TransposedPlanes};
pub use matrix::{GenotypeMatrix, InvalidDense, Phenotype};
pub use pairstream::{add_pair_stream_counts, build_pair_streams, PAIR_STREAMS};
pub use popcnt::SimdLevel;
pub use word::{words_for, Word, WORD_BITS};

/// Number of distinct genotype values a biallelic SNP can take.
pub const GENOTYPES: usize = 3;

/// Number of phenotype classes in a case-control study.
pub const CLASSES: usize = 2;

/// Index of the control class.
pub const CTRL: usize = 0;

/// Index of the case class.
pub const CASE: usize = 1;
