//! # epi-coord — multi-node scan federation
//!
//! One exhaustive three-way scan, split across a fleet of epi-servers.
//!
//! A scan job's `ShardPlan` is already deterministic: shard boundaries
//! depend only on `(M, order, shards)`, so every party — coordinator and
//! every node — derives the identical global plan, and a shard index
//! means the same rank range everywhere. The coordinator exploits this:
//! it partitions the global shard indices into per-node [`ShardSet`]s,
//! submits one sub-job per node (`shard_set=` spec key), parks a `WAIT`
//! on each, harvests what each finishes with `PARTIAL … have=` (every
//! shard's list crosses the wire once), and merges the per-shard top-Ks
//! **bit-identically** to a monolithic scan.
//!
//! ```text
//!             ┌─ node A ── SUBMIT shard_set=0-15   ──┐
//!  one spec ──┼─ node B ── SUBMIT shard_set=16-31  ──┼── per-shard merge
//!             └─ node C ── SUBMIT shard_set=32-47  ──┘   (bit-exact)
//! ```
//!
//! ## Fault tolerance
//!
//! * **Dead nodes.** Every RPC carries a deadline
//!   ([`Client::connect_with_deadline`](epi_server::client::Client::connect_with_deadline));
//!   a configurable number of consecutive transport failures marks a node
//!   dead and its unmerged shards are resubmitted to the survivors.
//!   Results harvested from the node before it died stay merged — exact
//!   shard accounting means only genuinely missing work is re-executed.
//! * **Re-admission.** A dead node moves to probation rather than
//!   oblivion: [`NodeHandle`] re-PINGs it on an exponential backoff
//!   (`probe_floor` → `probe_cap`), and the first successful probe
//!   re-admits it as a steal target. The report records every
//!   [`ReadmissionEvent`] (who, downtime, when).
//! * **Stragglers.** When a node has drained its partition and sits
//!   idle while another still has a backlog, the coordinator *steals*:
//!   CANCEL the straggler's sub-job (the engine hands back unscanned
//!   shards), harvest its completed shards (`PARTIAL`), and resubmit the
//!   remainder split between the idle node and the straggler. A shard
//!   that was mid-scan during the cancel may land on both nodes; the
//!   merge keys results by global shard index (first copy wins, copies
//!   are bit-identical), so re-execution is duplicate-free by
//!   construction.
//! * **Dataset integrity.** The coordinator pins the dataset's content
//!   hash ([`epi_core::integrity::dataset_hash`]) into every sub-job's
//!   `dataset_hash=` key; a node whose replica hashes differently is
//!   refused at SUBMIT or caught by the status a `WAIT` returns —
//!   before any harvest — and *quarantined*: probes
//!   stop, nothing it computed is merged, and the report names it with
//!   the reason. A corrupt replica can cost capacity, never
//!   correctness.
//! * **Coordinator crashes.** With `FederationConfig::spool_path` set,
//!   every merge batch spools a [`FederationCheckpoint`] (merged
//!   shards, per-node assignments, harvested top-K with exact score
//!   bits; torn-write-safe via tmp → `.prev` rotation).
//!   [`resume_from_spool`] rebuilds the run: merged shards are adopted
//!   without rescanning, live sub-jobs re-attach by node address, and
//!   the resumed result is bit-identical to an uninterrupted run.
//! * **Chaos testing.** The [`chaos`] module is a deterministic TCP
//!   fault proxy (drop / black-hole / delay / truncate per scripted or
//!   seeded schedule) so every claim above is exercised on purpose in
//!   tests, reproducibly (`EPI3_CHAOS_SEED=<n>` replays a failure).
//!
//! [`ShardSet`]: epi_core::shard::ShardSet

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type
)]

pub mod chaos;
pub mod checkpoint;
pub mod coord;
pub mod node;

pub use chaos::{ChaosProxy, ChaosSchedule, Fault};
pub use checkpoint::{CheckpointAssignment, FederationCheckpoint};
pub use coord::{
    federate, partition, resume_from_spool, FederationConfig, FederationReport, ReadmissionEvent,
    StealEvent, StealReason,
};
pub use node::NodeHandle;
