//! # epi-server — sharded, resumable scan jobs behind a TCP service
//!
//! The paper's exhaustive three-way scan is a single monolithic pass over
//! all `C(M,3)` triples. This crate turns that pass into a *job*: the
//! combination range is partitioned into `S` deterministic shards
//! ([`epi_core::shard::ShardPlan`]), a worker pool drains shards from a
//! queue shared by all concurrent jobs, per-shard top-K results are
//! checkpointed as they land, and merging the shard results reproduces
//! the monolithic scan **bit-identically**. Cancelled (or crashed) jobs
//! resume from the checkpoint without rescanning completed shards.
//!
//! ## Architecture
//!
//! ```text
//!  client ──TCP──>  Server ──> Engine ── shard queue ──> worker pool
//!                                 │                          │
//!                            job table <── per-shard TopK ───┘
//!                                 │
//!                            spool dir (job-<id>.ckpt, .ckpt.prev,
//!                                       job-<id>.shard-<n>)
//! ```
//!
//! * [`spec::JobSpec`] — what to scan: dataset path, Version, shard
//!   count, top-K, objective.
//! * [`engine::Engine`] — job table + shared FIFO shard queue + workers.
//!   Each worker claims one `(job, shard)` task at a time, scans it
//!   single-threaded with [`epi_core::shard::scan_shard_split`] /
//!   [`scan_shard_unsplit`](epi_core::shard::scan_shard_unsplit), and
//!   records the shard's sorted candidates under the job.
//! * [`codec::Checkpoint`] — std-only, line-oriented serialization of a
//!   job's spec + completed shard results. Scores are stored as
//!   `f64::to_bits` hex so resumes stay bit-identical.
//! * [`server::Server`] / [`client::Client`] — the TCP front end.
//!
//! ## Wire protocol
//!
//! Line-delimited UTF-8 over TCP; one request per line. Replies start
//! with `OK` or `ERR <message>`. Values that may contain whitespace are
//! `%`-escaped ([`spec::escape`]).
//!
//! | Request | Reply |
//! |---------|-------|
//! | `SUBMIT <spec keys>` (see below) | `OK job=<id> state=queued done=0 total=<S> in_flight=0 combos=<C> [simd=<tier>]` |
//! | `STATUS <id>` | `OK job=<id> state=<s> done=<d> total=<S> in_flight=<f> combos=<C> [simd=<tier>] [dataset_hash=<16 hex>] [error=<e>]` |
//! | `WAIT <id> [done>=K] [timeout_ms=T]` | the `STATUS` line, held back until the job is stable, `done ≥ K`, or `T` ms passed (then it is the current, unfinished status — not an error) |
//! | `RESULT <id>` | `OK job=<id> count=<k>` then `k` x `CAND <i0> <i1> <i2> <bits-hex> <score>` then `END` (job must be `done`) |
//! | `PARTIAL <id> [have=<compact set>]` | `OK job=<id> count=<s>` then per completed shard not in `have` `SHARD <idx> <n>` + `n` x `CAND <i0> <i1> <i2> <bits-hex>`, then `END` — any job state |
//! | `SHARDS_DONE <id>` | `OK job=<id> done=<compact set, e.g. 0-4,7>` — any job state |
//! | `CANCEL <id>` | status line; pending shards dropped, finished ones kept |
//! | `RESUME <id>` | status line; missing shards re-enqueued |
//! | `JOBS` | `OK count=<n>`, `n` x `JOB <status fields>`, `END` |
//! | `STATS` | `OK jobs=<n> scanned=<shards> workers=<w> pair_hits=<h> pair_misses=<m> pair_hit_rate=<r> pair_hit_min=<r> pair_hit_max=<r> accept_errors=<n> mem_used=<b> mem_budget=<b> rejected=<n> queue_depth=<s> tenant_jobs=<t:c,…or->` |
//! | `PING` | `OK pong` |
//! | `SHUTDOWN` | `OK bye`, then the server stops |
//!
//! `SUBMIT` spec keys: `path=<f>` (required; resolved under the
//! server's `dataset_root` when configured and the path is relative),
//! `version=v1..v5`, `shards=N`, `top=K`, `mi`, `throttle_ms=N`,
//! `simd=<tier>` (clamped to the server's capability and echoed back
//! in `simd=`), `shard_set=<compact>` (own only these global shard
//! indices — the federation sub-job key; `total`/`combos` then count
//! owned work), `dataset_hash=<16 hex>` (expected
//! [`epi_core::integrity::dataset_hash`] of the dataset; the server
//! hashes its local copy at SUBMIT and refuses a diverging replica
//! with `ERR hash mismatch …`; the job's actual hash is echoed in
//! STATUS for later audit), `tenant=<name>` (the quota account the
//! job is charged to), `priority=<0-9>` (weighted-fair dispatch
//! weight, 9 highest), `deadline_ms=<N>` (wall-clock completion
//! budget; expiry fails the job and workers abandon its remaining
//! shards), `job_token=<tok>` (idempotency token — resubmitting the
//! same token echoes the original job, making `over capacity` retries
//! safe), and `panic_shard=N` / `fail_partial=N` (fault injection,
//! tests only).
//!
//! ## Resource governance
//!
//! Admission control happens *before* any allocation: a memory
//! accountant charges each job its encoded-dataset + result-scratch
//! footprint against [`EngineConfig::mem_budget`], and per-tenant
//! quotas ([`EngineConfig::max_jobs_per_tenant`],
//! [`EngineConfig::max_queued_per_tenant`]) bound what one `tenant=`
//! can hold. Work the server cannot take is refused with
//! `ERR over capacity (retry_after_ms=N)`; [`Client::submit`] retries
//! that refusal with jittered backoff when the spec carries a
//! `job_token=`. Dispatch is stride-scheduled per (priority, tenant)
//! lane ([`queue::DispatchQueue`]) with shard-granularity preemption,
//! and `deadline_ms=` windows are swept on every admission/claim wake.
//! The spool behind checkpoint persistence goes through an injectable
//! [`spool::SpoolFs`] ([`spool::FaultySpoolFs`] injects ENOSPC/EIO/
//! torn writes on a seeded schedule). A job is a header-only base
//! `job-<id>.ckpt` written at SUBMIT plus one `job-<id>.shard-<n>`
//! delta per recorded shard; restore is the union of whatever decodes,
//! so a fault costs at most the shard it hit. The record that finishes
//! the job compacts it: the whole job goes to `.ckpt` (tmp → `.prev`
//! → primary rotation) and `.ckpt.prev`, both are read back, and only
//! then are the deltas unlinked ([`engine`] module docs).
//!
//! `STATUS`'s `done` counts completed shards but not *which* ones;
//! `SHARDS_DONE` + `PARTIAL` exist so a coordinator can harvest exactly
//! the finished shards of a running, cancelled or dying sub-job and
//! resubmit the rest elsewhere (see the `epi-coord` crate). `PARTIAL
//! … have=` makes that harvest incremental — only lists the caller
//! does not hold yet are cloned, formatted and sent — and `WAIT` makes
//! completion pushed: the connection parks in the readiness loop and
//! is answered by the transition it waits for ([`server`] module docs),
//! so neither a coordinator nor [`Client::wait`] polls.
//!
//! States: `queued → running → done`, with `cancelled` (resumable) and
//! `failed` (diagnostic in `error=`) off the main path.
//!
//! ## Transports and limits
//!
//! The server runs a single-threaded nonblocking readiness loop
//! ([`server`] module docs) and speaks two transports, picked per
//! connection by its first byte: the text protocol above, or
//! length-prefixed binary frames ([`frame`]) whose payloads carry
//! exactly the same text byte stream under a per-frame checksum
//! ([`epi_core::integrity::ContentHash64`]). Framed and text clients
//! therefore receive bit-identical replies; [`Client::connect_framed`]
//! and the federation coordinator use framing so cross-machine
//! candidate traffic is integrity-checked in transit. Request lines are
//! capped at [`server::MAX_REQUEST_LEN`] (`ERR request too long` and
//! the connection drops beyond it), and reply streaming pauses while a
//! connection's write buffer is above its high-water mark, so one slow
//! or hostile peer costs bounded memory.
//!
//! ## Example
//!
//! ```no_run
//! use epi_server::{Client, EngineConfig, JobSpec, Server};
//! use std::time::Duration;
//!
//! let server = Server::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let job = client.submit(&JobSpec::new("cohort.epi3")).unwrap();
//! let done = client.wait(job.id, Duration::from_secs(600)).unwrap();
//! let top = client.result(done.id).unwrap();
//! println!("best triple: {:?}", top.first());
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type
)]

pub mod client;
pub mod codec;
pub mod engine;
pub mod frame;
pub mod job;
pub mod queue;
pub mod server;
pub mod spec;
pub mod spool;

pub use client::Client;
pub use codec::Checkpoint;
pub use engine::{Engine, EngineConfig};
pub use job::{JobState, JobStatus};
pub use queue::DispatchQueue;
pub use server::{Server, ServerHandle};
pub use spec::{escape, unescape, JobSpec};
pub use spool::{FaultySpoolFs, RealSpoolFs, SpoolFault, SpoolFs, SpoolSchedule};
