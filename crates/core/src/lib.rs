//! # epi-core — exhaustive three-way epistasis detection
//!
//! The paper's four progressively optimised CPU approaches for exhaustive
//! third-order epistasis detection (§IV-A, Algorithm 1), scored with the
//! Bayesian K2 objective (§III, Eq. 1), plus a fifth of our own:
//!
//! * **V1** ([`versions::v1`]) — naive: three stored genotype planes plus
//!   a phenotype bit vector; 27 × 6 = 162 logic ops per processed word.
//! * **V2** ([`versions::v2`]) — phenotype split + genotype-2 inference by
//!   `NOR`: memory traffic −1/3, compute −65 % (57 ops per word).
//! * **V3** ([`versions::v3`]) — V2 + loop tiling: `B_S³` SNP combinations
//!   and `B_P`-sample blocks sized so the frequency tables and the data
//!   block both fit in L1 ([`block::BlockParams`]).
//! * **V4** ([`versions::v4`]) — V3 + explicit SIMD (AVX2 / AVX-512 /
//!   AVX-512 `VPOPCNTDQ`, runtime-dispatched; [`simd`]).
//! * **V5** ([`versions::v5`]) — V4 + pair-prefix caching: the nine
//!   `X[gx] ∧ Y[gy]` streams are materialised once per SNP pair into an
//!   L1-resident cache and reused by every third SNP of the block, and
//!   only the `gz ∈ {0, 1}` cells are popcounted — `cell(gx, gy, 2)`
//!   follows by exact subtraction from the pair totals. Bit-identical
//!   tables at ≈ 36 + 20/`B_S` ops per word.
//!
//! [`scan`] provides the parallel drivers (dynamic thread pool with
//! per-thread local results and a final reduction, exactly the scheme of
//! §IV-A), and [`result`] the top-K solution collection. [`shard`]
//! partitions the combination range into deterministic, independently
//! schedulable shards whose merged top-Ks are bit-identical to a
//! monolithic scan — the work unit of the `epi-server` job service.
//! [`prefixcache`] is the shared pair/prefix-stream cache all split-layout
//! consumers (blocked V5, shard scans, arbitrary-order [`kway`] scans, the
//! job engine) amortise their stream materialisation through.

#![deny(unsafe_code)]
#![warn(clippy::disallowed_methods)]

pub mod block;
pub mod combin;
pub mod costs;
pub mod integrity;
pub mod k2;
pub mod kway;
pub mod pairs;
pub mod permute;
pub mod pool;
pub mod prefixcache;
pub mod result;
pub mod scan;
pub mod shard;
// The SIMD kernels are the one place unsafe is permitted: the workspace
// denies `unsafe_code` everywhere else (bar the `polling` shim's `poll(2)`
// call), so the compiler keeps the unsafe audit scope to this module.
#[allow(unsafe_code)]
pub mod simd;
pub mod table27;
pub mod versions;

pub use block::BlockParams;
pub use integrity::{dataset_hash, ContentHash64};
pub use k2::{K2Scorer, LnFactTable, MutualInformation, Objective};
pub use pool::PoolCacheStats;
pub use prefixcache::{PairPrefixCache, PrefixCache};
pub use result::{Candidate, TopK, Triple};
pub use scan::{scan, ScanConfig, ScanResult, Scheduler, Version};
pub use shard::{scan_shard, scan_sharded, scan_sharded_stats, ShardPlan};
pub use table27::ContingencyTable;
