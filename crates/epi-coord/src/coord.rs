//! The federation coordinator: partition one plan, submit per-node
//! sub-jobs, wait, harvest, steal, spool checkpoints, and merge
//! bit-exactly.
//!
//! ## What a tick costs
//!
//! The loop does not poll. A tick writes `WAIT <job> done>=<harvested
//! so far>+1` to every node with a live sub-job — all of them before
//! reading the first reply — and blocks until each has answered: with
//! news (a shard landed, the job went stable) or, after
//! `min(rpc_deadline / 2, steal_patience)`, without. The status that
//! comes back is gated on `dataset_hash` exactly as a polled one was,
//! and only then is the node harvested, with `PARTIAL <job> have=<what
//! was already merged from it>`: each shard's list is cloned,
//! formatted, framed, parsed and merged once. Requests are therefore
//! linear in shards (at most one `WAIT` + one `PARTIAL` per shard, one
//! `SUBMIT` per sub-job; [`FederationReport::rpcs`] and
//! [`FederationReport::harvested_shards`] report the actual numbers),
//! and between shards the coordinator and the nodes' event loops are
//! asleep, which on a small host is CPU the scan gets back. The one
//! sleep left in this file paces ticks that had nothing to wait on
//! (`IDLE_PACE`).
//!
//! Robustness posture (PR 7): every failure the fleet can throw at the
//! coordinator has an explicit, tested answer —
//!
//! * a **dead node** moves to probation and is re-PINGed on exponential
//!   backoff; an answered probe re-admits it and the scheduler hands it
//!   fresh work ([`ReadmissionEvent`] records the provenance);
//! * a **diverged dataset replica** is caught by content hash — at
//!   SUBMIT (the node refuses the spec's `dataset_hash=`) or at STATUS
//!   (the node's reported hash disagrees) — and the node is
//!   *quarantined*: terminally excluded, its results never merged;
//! * a **killed coordinator** resumes from its spool file
//!   ([`resume_from_spool`]): merged shards and the harvested top-K are
//!   reloaded bit-exactly, live sub-jobs are re-adopted by address, and
//!   only genuinely unmerged work is rescanned.

use crate::checkpoint::{CheckpointAssignment, FederationCheckpoint};
use crate::node::{is_transport_error, NodeHandle};
use epi_core::result::{Candidate, TopK};
use epi_core::shard::ShardSet;
use epi_server::{Client, JobSpec, JobState, JobStatus, RealSpoolFs};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Knobs of a federation run. `FederationConfig::new(nodes)` gives
/// production-ready defaults; tests tighten the timing knobs.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Fleet addresses (`host:port`), one epi-server each.
    pub nodes: Vec<String>,
    /// Connect/read/write deadline of every coordinator RPC. A node
    /// that answers nothing for this long counts one transport failure.
    pub rpc_deadline: Duration,
    /// Consecutive transport failures before a node is declared dead
    /// and its unmerged shards are resubmitted elsewhere.
    pub max_rpc_failures: u32,
    /// How long a node may sit idle (its partition drained) while
    /// another node still has a backlog before the coordinator steals.
    pub steal_patience: Duration,
    /// How long to wait for a cancelled straggler to quiesce (in-flight
    /// shards landing) before harvesting and resubmitting its backlog.
    /// One parked `WAIT`, so also bounded by half of `rpc_deadline`.
    pub steal_quiesce: Duration,
    /// Probation probe bounds: a dead node is re-PINGed on exponential
    /// backoff from floor to cap until it answers (re-admission) or the
    /// run ends.
    pub probe_floor: Duration,
    pub probe_cap: Duration,
    /// Hard wall-clock bound on the whole federated scan.
    pub overall_deadline: Duration,
    /// Pin the dataset content hash (computed from the coordinator's
    /// local copy when the spec doesn't carry one) into every sub-job,
    /// so nodes with diverged replicas are rejected at SUBMIT.
    pub verify_dataset: bool,
    /// Where to spool [`FederationCheckpoint`]s (after every merge
    /// batch); `None` disables checkpointing.
    pub spool_path: Option<PathBuf>,
    /// Fault injection (tests only): abort the coordinator once this
    /// many shards merged — while the scan is still incomplete — as a
    /// stand-in for `kill -9` mid-run.
    pub fail_after_merges: Option<u64>,
}

impl FederationConfig {
    pub fn new(nodes: Vec<String>) -> Self {
        Self {
            nodes,
            rpc_deadline: Duration::from_secs(5),
            max_rpc_failures: 3,
            steal_patience: Duration::from_millis(150),
            steal_quiesce: Duration::from_secs(2),
            probe_floor: Duration::from_millis(50),
            probe_cap: Duration::from_secs(2),
            overall_deadline: Duration::from_secs(600),
            verify_dataset: true,
            spool_path: None,
            fail_after_merges: None,
        }
    }
}

/// Why shards moved between nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealReason {
    /// Victim was healthy but backlogged while the thief sat idle.
    Straggler,
    /// Victim stopped answering RPCs and was declared dead.
    DeadNode,
    /// Victim answered fine but its sub-job failed (worker panic…).
    FailedJob,
    /// Work re-owned while resuming from a coordinator checkpoint
    /// (vanished job, node no longer in the fleet, or never-assigned
    /// shards).
    Resume,
}

/// One reassignment of shards from a victim to a new owner.
#[derive(Clone, Debug)]
pub struct StealEvent {
    pub from: String,
    pub to: String,
    pub shards: ShardSet,
    pub reason: StealReason,
    /// Decision-to-resubmission latency: from the moment the steal (or
    /// death) was detected to the new sub-job being acked.
    pub latency: Duration,
    /// Offset from the start of the federated scan.
    pub at: Duration,
}

/// A dead node that answered a probation probe and rejoined the fleet.
#[derive(Clone, Debug)]
pub struct ReadmissionEvent {
    pub node: String,
    /// Death-to-readmission span.
    pub downtime: Duration,
    /// Offset from the start of the federated scan.
    pub at: Duration,
}

/// Outcome of a federated scan.
#[derive(Clone, Debug)]
pub struct FederationReport {
    /// Final merged top-K — bit-identical to the monolithic scan.
    pub top: Vec<Candidate>,
    /// Shards in the global plan.
    pub num_shards: u64,
    /// Shards merged per node address (who did the work that counted;
    /// every global shard is attributed to exactly one node).
    pub per_node_shards: Vec<(String, u64)>,
    pub steals: Vec<StealEvent>,
    /// Nodes re-admitted from probation during the run.
    pub readmissions: Vec<ReadmissionEvent>,
    /// Nodes still dead (probation unanswered) when the run ended.
    /// Quarantined nodes are listed separately.
    pub dead_nodes: Vec<String>,
    /// Terminally excluded nodes and why (dataset hash mismatch…).
    pub quarantined: Vec<(String, String)>,
    /// Shards adopted from a checkpoint instead of being rescanned
    /// (zero on a fresh run).
    pub resumed_merged: u64,
    /// Requests the coordinator sent, per verb, sorted by verb — what
    /// the run cost the fleet's event loops. A healthy run is one
    /// SUBMIT per sub-job plus a `WAIT` and a `PARTIAL` per harvest;
    /// probation PINGs are not counted.
    pub rpcs: Vec<(&'static str, u64)>,
    /// Per-shard candidate lists received over `PARTIAL`, duplicates
    /// included: `num_shards` on a clean run, more only when a steal
    /// re-ran a shard that was mid-scan.
    pub harvested_shards: u64,
    pub elapsed: Duration,
}

/// Split the global plan's `num_shards` shard indices into `n`
/// near-equal contiguous partitions, one per node. Deterministic: any
/// party with the same `(num_shards, n)` derives the same split.
pub fn partition(num_shards: u64, n: usize) -> Vec<ShardSet> {
    ShardSet::from_range(0..num_shards).split_chunks(n)
}

/// Derive the idempotent `job_token=` the coordinator pins into the
/// sub-job `sub` (its `shard_set` assigned, its `job_token` still the
/// caller's, if any): FNV-1a over the sub-job's whole spec — path,
/// version, top-K, objective, shard set, pinned `dataset_hash=` — and
/// the submission sequence, prefixed by the caller's own token when the
/// federated spec carries one. Deterministic per submission (so the
/// client's over-capacity retry loop resends it verbatim), unique
/// across submissions (so a re-owned shard set admits a *new* job
/// instead of being echoed the cancelled one's status), and different
/// for a different scan (so a second federation with the same shard
/// plan on a live fleet is never echoed the first one's jobs).
fn derive_job_token(sub: &JobSpec, seq: u64) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sub.to_tokens().bytes().chain(seq.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}-{h:016x}", sub.job_token.as_deref().unwrap_or("fed"))
}

/// Parse the `retry_after_ms=` hint out of an `over capacity` refusal
/// (100 ms when absent or malformed).
fn retry_hint_ms(err: &str) -> u64 {
    err.split_once("retry_after_ms=")
        .and_then(|(_, rest)| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .filter(|&ms| ms > 0)
        .unwrap_or(100)
}

/// One sub-job tracked on one node.
struct Assignment {
    node: usize,
    job_id: u64,
    owned: ShardSet,
    /// Shards already harvested (merged) from this sub-job.
    done: ShardSet,
    active: bool,
}

/// Shards awaiting (re)assignment, with provenance for the report.
struct PendingWork {
    shards: ShardSet,
    from: String,
    reason: StealReason,
    since: Instant,
}

/// Everything the poll loop mutates, grouped so helpers can borrow it
/// as one unit.
struct Run<'a> {
    cfg: &'a FederationConfig,
    spec: JobSpec,
    nodes: Vec<NodeHandle>,
    idle_since: Vec<Option<Instant>>,
    /// Admission backpressure: a node that refused a SUBMIT with
    /// `over capacity` is skipped for new work until this instant —
    /// backpressure, never a health strike.
    busy_until: Vec<Option<Instant>>,
    /// Submission sequence for derived `job_token=`s: stable within one
    /// SUBMIT (the client's retry loop reuses it), unique across
    /// submissions so a re-owned shard set admits a fresh job.
    token_seq: u64,
    assignments: Vec<Assignment>,
    pending: Vec<PendingWork>,
    merged: ShardSet,
    node_merged: Vec<u64>,
    top: TopK,
    steals: Vec<StealEvent>,
    readmissions: Vec<ReadmissionEvent>,
    /// Merged-shard count at the last spooled checkpoint.
    spooled: u64,
    /// Shards adopted from a checkpoint (resume runs only).
    resumed_merged: u64,
    /// Requests sent so far, per verb ([`FederationReport::rpcs`]).
    rpcs: BTreeMap<&'static str, u64>,
    /// See [`FederationReport::harvested_shards`].
    harvested_shards: u64,
    started: Instant,
}

fn new_run<'a>(spec: JobSpec, cfg: &'a FederationConfig) -> Run<'a> {
    let n = cfg.nodes.len();
    Run {
        cfg,
        top: TopK::new(spec.top_k.max(1)),
        spec,
        nodes: cfg
            .nodes
            .iter()
            .map(|a| {
                NodeHandle::new(a.clone(), cfg.rpc_deadline, cfg.max_rpc_failures)
                    .with_probe_backoff(cfg.probe_floor, cfg.probe_cap)
            })
            .collect(),
        idle_since: vec![None; n],
        busy_until: vec![None; n],
        token_seq: 0,
        assignments: Vec::new(),
        pending: Vec::new(),
        merged: ShardSet::new(),
        node_merged: vec![0; n],
        steals: Vec::new(),
        readmissions: Vec::new(),
        spooled: 0,
        resumed_merged: 0,
        rpcs: BTreeMap::new(),
        harvested_shards: 0,
        started: Instant::now(),
    }
}

/// Run `spec` federated across `cfg.nodes` and merge the result
/// bit-identically to a monolithic scan. The spec's `shard_set` must be
/// `None` — partitioning is the coordinator's job. Blocks until every
/// shard of the global plan is merged, or fails when the fleet dies or
/// the overall deadline expires.
pub fn federate(spec: &JobSpec, cfg: &FederationConfig) -> Result<FederationReport, String> {
    if cfg.nodes.is_empty() {
        return Err("federation needs at least one node".into());
    }
    if spec.shard_set.is_some() {
        return Err("spec.shard_set is the coordinator's to assign; leave it unset".into());
    }
    let mut spec = spec.clone();
    // Pin the dataset content hash so every node proves its replica
    // matches before any shard is assigned to it. Best-effort: when the
    // coordinator itself has no readable copy (data lives only on the
    // nodes), federation still runs — just without the integrity gate.
    if cfg.verify_dataset && spec.dataset_hash.is_none() {
        if let Ok((g, p)) = datagen::io::load(Path::new(&spec.path)) {
            spec.dataset_hash = Some(epi_core::integrity::dataset_hash(&g, &p));
        }
    }
    let num_shards = spec.shards;
    let mut run = new_run(spec, cfg);

    // Initial partition: one contiguous chunk per node (empty chunks --
    // more nodes than shards -- leave that node idle from the start).
    for (node, chunk) in partition(num_shards, cfg.nodes.len())
        .into_iter()
        .enumerate()
    {
        if chunk.is_empty() {
            continue;
        }
        run.submit_to(node, chunk, None);
    }

    drive(run)
}

/// Continue a federation whose coordinator died, from the checkpoint it
/// spooled. Merged shards and the harvested top-K are adopted verbatim
/// (bit-exact, no rescan); checkpointed sub-jobs are re-adopted by node
/// address and polled where the fleet still runs them; everything else
/// — vanished jobs, nodes no longer configured, never-assigned shards —
/// re-enters the pending pool with [`StealReason::Resume`] provenance.
pub fn resume_from_spool(path: &Path, cfg: &FederationConfig) -> Result<FederationReport, String> {
    if cfg.nodes.is_empty() {
        return Err("federation needs at least one node".into());
    }
    let ckpt = FederationCheckpoint::load(&RealSpoolFs, path)?;
    let num_shards = ckpt.spec.shards;
    let mut run = new_run(ckpt.spec, cfg);
    run.merged = ckpt.merged;
    run.spooled = run.merged.len();
    run.resumed_merged = run.merged.len();
    for c in &ckpt.top {
        run.top.push(c.score, c.triple);
    }
    for (addr, count) in &ckpt.node_merged {
        #[expect(
            clippy::indexing_slicing,
            reason = "node_merged is sized to the node count when the run starts; indices are node ids from the same list"
        )]
        if let Some(i) = cfg.nodes.iter().position(|a| a == addr) {
            run.node_merged[i] = *count;
        }
    }

    let now = Instant::now();
    // every shard the checkpoint accounts for, one way or another
    let mut covered = run.merged.clone();
    for a in ckpt.assignments {
        for shard in a.owned.iter() {
            covered.insert(shard);
        }
        match cfg.nodes.iter().position(|addr| *addr == a.node) {
            Some(node) => {
                // Adopt the live sub-job: what the fleet merged before
                // the crash counts as done; the node answers STATUS for
                // the rest (a vanished job surfaces as a protocol error
                // and its shards are re-owned by the normal machinery).
                let done =
                    ShardSet::from_indices(a.owned.iter().filter(|&s| run.merged.contains(s)));
                let fully_merged = done.len() == a.owned.len();
                run.assignments.push(Assignment {
                    node,
                    job_id: a.job_id,
                    owned: a.owned,
                    done,
                    active: !fully_merged,
                });
            }
            None => {
                let rest = a.owned.difference(&run.merged);
                if !rest.is_empty() {
                    run.pending.push(PendingWork {
                        shards: rest,
                        from: a.node,
                        reason: StealReason::Resume,
                        since: now,
                    });
                }
            }
        }
    }
    // shards the checkpoint never assigned (work that sat in the dead
    // coordinator's pending pool)
    let leftover = ShardSet::from_range(0..num_shards).difference(&covered);
    if !leftover.is_empty() {
        run.pending.push(PendingWork {
            shards: leftover,
            from: "checkpoint".into(),
            reason: StealReason::Resume,
            since: now,
        });
    }

    drive(run)
}

/// Pace of a tick that neither moved anything nor spent its time parked
/// on the fleet: every living node backpressured or in probation, or a
/// harvest the node refused. Nothing to wait *on* there, so this is the
/// one place the coordinator sleeps.
const IDLE_PACE: Duration = Duration::from_millis(10);

/// The loop shared by fresh and resumed runs: tick, spool, maybe crash
/// (injection), finish or go again. A tick blocks inside the fleet's
/// parked `WAIT`s, so the loop itself needs no sleep while any sub-job
/// is live.
fn drive(mut run: Run<'_>) -> Result<FederationReport, String> {
    let cfg = run.cfg;
    let num_shards = run.spec.shards;
    loop {
        let began = Instant::now();
        let progressed = run.tick()?;
        // spool BEFORE the crash check: the injected crash models a
        // coordinator that died after its last checkpoint write, which
        // is exactly what resume_from_spool must recover from
        run.maybe_spool()?;
        if let Some(limit) = cfg.fail_after_merges {
            if run.merged.len() >= limit && run.merged.len() < num_shards {
                return Err(format!(
                    "injected coordinator crash: {} of {} shards merged",
                    run.merged.len(),
                    num_shards
                ));
            }
        }
        if run.merged.len() == num_shards {
            break;
        }
        if run.started.elapsed() > cfg.overall_deadline {
            return Err(format!(
                "federation deadline exceeded: {}/{} shards merged after {:?}",
                run.merged.len(),
                num_shards,
                run.started.elapsed()
            ));
        }
        if !progressed {
            if let Some(rest) = IDLE_PACE.checked_sub(began.elapsed()) {
                std::thread::sleep(rest);
            }
        }
    }

    Ok(FederationReport {
        top: run.top.into_sorted(),
        num_shards,
        per_node_shards: cfg
            .nodes
            .iter()
            .cloned()
            .zip(run.node_merged.iter().copied())
            .collect(),
        steals: run.steals,
        readmissions: run.readmissions,
        dead_nodes: run
            .nodes
            .iter()
            .filter(|n| n.is_dead() && !n.is_quarantined())
            .map(|n| n.addr().to_string())
            .collect(),
        quarantined: run
            .nodes
            .iter()
            .filter_map(|n| {
                n.quarantine_reason()
                    .map(|r| (n.addr().to_string(), r.to_string()))
            })
            .collect(),
        resumed_merged: run.resumed_merged,
        rpcs: run.rpcs.into_iter().collect(),
        harvested_shards: run.harvested_shards,
        elapsed: run.started.elapsed(),
    })
}

impl Run<'_> {
    /// One counted request to `node` (see [`FederationReport::rpcs`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place)"
    )]
    fn rpc<T>(
        &mut self,
        node: usize,
        verb: &'static str,
        op: impl FnOnce(&mut Client) -> Result<T, String>,
    ) -> Result<T, String> {
        *self.rpcs.entry(verb).or_default() += 1;
        self.nodes[node].rpc(op)
    }

    /// Status of every active sub-job, each asked with `WAIT
    /// done>=<harvested>+1`: every request is written before the first
    /// reply is read, so the whole fleet is parked at once and the call
    /// returns when each node has something new, its job went stable,
    /// or [`Run::park_time`] passed — one timeout, not one per node.
    ///
    /// A connection answers in order, so only the first `WAIT` on a
    /// node parks; the node's other sub-jobs (a re-owned remainder
    /// queued behind the first) are asked with a zero timeout. All
    /// replies are in hand before this returns, so the caller is free
    /// to send `PARTIAL` on the same connections.
    ///
    /// Once a node's connection fails, its remaining sub-jobs are left
    /// out of this tick's answer: whatever was written to the old
    /// connection will not be answered and a fresh one has nothing in
    /// flight, so one dead link is one strike, not one per `WAIT`.
    fn wait_all(&mut self) -> Vec<(usize, Result<JobStatus, String>)> {
        let park = self.park_time();
        // nodes that already hold this tick's parked WAIT
        let mut parked = BTreeSet::new();
        // nodes whose connection failed this tick
        let mut lost = BTreeSet::new();
        let mut asked = Vec::new();
        for (ai, a) in self.assignments.iter().enumerate() {
            if !a.active {
                continue;
            }
            let (node, job_id, want) = (a.node, a.job_id, a.done.len() + 1);
            if lost.contains(&node) {
                continue;
            }
            let timeout = match parked.insert(node) {
                true => park,
                false => Duration::ZERO,
            };
            *self.rpcs.entry("WAIT").or_default() += 1;
            #[expect(
                clippy::indexing_slicing,
                reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place)"
            )]
            let sent = self.nodes[node].post(|c| c.wait_post(job_id, Some(want), timeout));
            if sent.is_err() {
                lost.insert(node);
            }
            asked.push((ai, node, sent));
        }
        let mut replies = Vec::with_capacity(asked.len());
        for (ai, node, sent) in asked {
            #[expect(
                clippy::indexing_slicing,
                reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place)"
            )]
            let reply = match sent {
                Ok(()) if lost.contains(&node) => continue,
                Ok(()) => self.nodes[node].rpc(|c| c.wait_reply()),
                Err(e) => Err(e),
            };
            if reply.as_ref().is_err_and(|e| is_transport_error(e)) {
                lost.insert(node);
            }
            replies.push((ai, reply));
        }
        replies
    }

    /// How long a `WAIT` may stay parked: under `rpc_deadline`, so a
    /// healthy node's answer always beats the read timeout that marks a
    /// dead link, and within `steal_patience`, so a node that went idle
    /// is noticed while stealing for it still pays.
    fn park_time(&self) -> Duration {
        (self.cfg.rpc_deadline / 2)
            .min(self.cfg.steal_patience)
            .max(Duration::from_millis(1))
    }

    /// Submit `shards` as a new sub-job on `node`. On failure the work
    /// goes (back) to the pending pool — nothing is ever lost. A
    /// `hash mismatch` refusal quarantines the node on the spot: its
    /// replica diverged and no amount of retrying fixes data; an
    /// `over capacity` refusal marks the node backpressured until the
    /// server's `retry_after_ms=` hint passes so the next tick prefers
    /// other owners. Returns true when the submission was acked.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place). idle_since is created with one slot per node and never resized; indexed by the same node ids as self.nodes. busy_until is created with one slot per node and never resized; indexed by the same node ids as self.nodes"
    )]
    fn submit_to(
        &mut self,
        node: usize,
        shards: ShardSet,
        provenance: Option<PendingWork>,
    ) -> bool {
        let mut sub = self.spec.clone();
        sub.shard_set = Some(shards.clone());
        // Pin an idempotent token (tenant= and deadline_ms= ride along
        // in the spec clone): the client's over-capacity retry loop
        // resends it verbatim, so a SUBMIT whose ack was lost is echoed
        // back by the node instead of admitting a duplicate scan.
        self.token_seq += 1;
        sub.job_token = Some(derive_job_token(&sub, self.token_seq));
        match self.rpc(node, "SUBMIT", |c| c.submit(&sub)) {
            Ok(st) => {
                self.assignments.push(Assignment {
                    node,
                    job_id: st.id,
                    owned: shards,
                    done: ShardSet::new(),
                    active: true,
                });
                self.idle_since[node] = None;
                if let Some(p) = provenance {
                    self.steals.push(StealEvent {
                        from: p.from,
                        to: self.nodes[node].addr().to_string(),
                        shards: p.shards,
                        reason: p.reason,
                        latency: p.since.elapsed(),
                        at: self.started.elapsed(),
                    });
                }
                true
            }
            Err(e) => {
                if e.contains("hash mismatch") {
                    self.nodes[node].quarantine(e);
                } else if e.contains("over capacity") {
                    // admission refusal, not node death: the node is
                    // healthy but full, so honor its retry hint and
                    // route around it until the window passes
                    let ms = retry_hint_ms(&e);
                    self.busy_until[node] = Some(Instant::now() + Duration::from_millis(ms));
                }
                // requeue; the health machinery decides whether the node
                // is dying, and the next tick finds another owner
                self.pending.push(provenance.unwrap_or(PendingWork {
                    shards: shards.clone(),
                    from: self.nodes[node].addr().to_string(),
                    reason: StealReason::DeadNode,
                    since: Instant::now(),
                }));
                false
            }
        }
    }

    /// Merge the completed shards of `assignment` that this run has not
    /// harvested from it yet: `PARTIAL … have=<what it has>`, so each
    /// list is fetched once. First copy of a shard wins; later copies (a
    /// stolen shard that was mid-scan during the cancel and landed on
    /// both nodes) are bit-identical by construction and dropped.
    ///
    /// The reply is checked against the request before anything is
    /// merged: a shard the sub-job does not own, one already in the
    /// `have` that was sent, or a list longer than `top_k` means the
    /// job id no longer names our sub-job (a node restarted without its
    /// spool re-issues ids) — nothing from that reply is merged and the
    /// assignment is closed, its remainder re-owned elsewhere.
    #[expect(
        clippy::indexing_slicing,
        reason = "ai comes from positions()/enumerate() over self.assignments; assignments are deactivated, never removed. node_merged is sized to the node count when the run starts; indices are node ids from the same list"
    )]
    fn harvest(&mut self, ai: usize) -> Result<bool, String> {
        let (node, job_id) = (self.assignments[ai].node, self.assignments[ai].job_id);
        let have = self.assignments[ai].done.clone();
        let parts = self.rpc(node, "PARTIAL", |c| c.partial(job_id, &have))?;
        self.harvested_shards += parts.len() as u64;
        let top_k = self.spec.top_k.max(1);
        let owned = &self.assignments[ai].owned;
        if parts
            .iter()
            .any(|(s, c)| !owned.contains(*s) || have.contains(*s) || c.len() > top_k)
        {
            self.close_assignment(ai, StealReason::FailedJob);
            return Ok(true);
        }
        let mut new = false;
        for (shard, cands) in parts {
            self.assignments[ai].done.insert(shard);
            if self.merged.contains(shard) {
                continue;
            }
            self.merged.insert(shard);
            self.node_merged[node] += 1;
            new = true;
            for c in cands {
                self.top.push(c.score, c.triple);
            }
        }
        Ok(new)
    }

    /// Spool a [`FederationCheckpoint`] when the merged set advanced
    /// since the last write. The spool rotates (`.prev` keeps the last
    /// good copy), so a crash mid-write still leaves a loadable file.
    fn maybe_spool(&mut self) -> Result<(), String> {
        let Some(path) = &self.cfg.spool_path else {
            return Ok(());
        };
        if self.merged.len() == self.spooled {
            return Ok(());
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place)"
        )]
        let ckpt = FederationCheckpoint {
            spec: self.spec.clone(),
            merged: self.merged.clone(),
            node_merged: self
                .cfg
                .nodes
                .iter()
                .cloned()
                .zip(self.node_merged.iter().copied())
                .collect(),
            assignments: self
                .assignments
                .iter()
                .filter(|a| a.active)
                .map(|a| CheckpointAssignment {
                    node: self.nodes[a.node].addr().to_string(),
                    job_id: a.job_id,
                    owned: a.owned.clone(),
                    done: a.done.clone(),
                })
                .collect(),
            top: self.top.clone().into_sorted(),
        };
        ckpt.save(&RealSpoolFs, path)?;
        self.spooled = self.merged.len();
        Ok(())
    }

    /// Close an assignment whose node died or whose job failed: requeue
    /// everything owned but not merged.
    #[expect(
        clippy::indexing_slicing,
        reason = "ai comes from positions()/enumerate() over self.assignments; assignments are deactivated, never removed. node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place)"
    )]
    fn close_assignment(&mut self, ai: usize, reason: StealReason) {
        let a = &mut self.assignments[ai];
        a.active = false;
        let remaining = a.owned.difference(&a.done);
        if !remaining.is_empty() {
            self.pending.push(PendingWork {
                shards: remaining,
                from: self.nodes[a.node].addr().to_string(),
                reason,
                since: Instant::now(),
            });
        }
    }

    /// One scheduler pass: probe probation, wait on every active
    /// sub-job (harvesting new shards), reassign pending work, update
    /// idle clocks, and steal from stragglers. Returns true when
    /// anything moved.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place). ai comes from positions()/enumerate() over self.assignments; assignments are deactivated, never removed. idle_since is created with one slot per node and never resized; indexed by the same node ids as self.nodes"
    )]
    fn tick(&mut self) -> Result<bool, String> {
        let mut progressed = false;

        // 0. Probation probes: re-admit any dead node that answers.
        //    A re-admitted node starts with no assignment, so the idle
        //    clock and steal machinery below hand it work immediately.
        for i in 0..self.nodes.len() {
            if let Some(downtime) = self.nodes[i].probe() {
                self.readmissions.push(ReadmissionEvent {
                    node: self.nodes[i].addr().to_string(),
                    downtime,
                    at: self.started.elapsed(),
                });
                progressed = true;
            }
        }

        // 1. Close the sub-jobs of nodes already declared dead, then
        //    park on the rest and act on what each one answers.
        for ai in 0..self.assignments.len() {
            let a = &self.assignments[ai];
            if a.active && self.nodes[a.node].is_dead() {
                self.close_assignment(ai, StealReason::DeadNode);
                progressed = true;
            }
        }
        for (ai, reply) in self.wait_all() {
            let node = self.assignments[ai].node;
            if self.nodes[node].is_dead() {
                // this reply was its last strike, or an earlier one in
                // this tick quarantined it: whatever it answered, none
                // of it may be merged
                self.close_assignment(ai, StealReason::DeadNode);
                progressed = true;
                continue;
            }
            let st = match reply {
                Ok(st) => st,
                Err(e) => {
                    if !is_transport_error(&e) {
                        // healthy node, but the job is gone (restarted
                        // server?): re-own the work elsewhere
                        self.close_assignment(ai, StealReason::FailedJob);
                        progressed = true;
                    }
                    continue;
                }
            };
            // Integrity gate, checked BEFORE any harvest: a node whose
            // dataset hash disagrees with the pinned one must never
            // contribute a shard to the merge.
            if let (Some(want), Some(got)) = (self.spec.dataset_hash, st.dataset_hash) {
                if got != want {
                    self.nodes[node].quarantine(format!(
                        "dataset hash mismatch: node reports {got:016x}, federation pinned {want:016x}"
                    ));
                    self.close_assignment(ai, StealReason::FailedJob);
                    progressed = true;
                    continue;
                }
            }
            if st.done > self.assignments[ai].done.len() {
                progressed |= self.harvest(ai).unwrap_or(false);
                if !self.assignments[ai].active {
                    continue; // the reply was not our sub-job's: closed
                }
            }
            match st.state {
                JobState::Done => {
                    // deactivate only once fully harvested — a failed
                    // PARTIAL above leaves the assignment active so the
                    // harvest retries next tick instead of dropping work
                    let a = &mut self.assignments[ai];
                    if a.done.len() == a.owned.len() {
                        a.active = false;
                        progressed = true;
                    }
                }
                JobState::Failed | JobState::Cancelled => {
                    // harvest() above already banked its completed shards
                    self.close_assignment(ai, StealReason::FailedJob);
                    progressed = true;
                }
                JobState::Queued | JobState::Running => {}
            }
        }

        // 2. Reassign pending work to the least-loaded living node that
        //    isn't inside an over-capacity backoff window.
        let mut pending = std::mem::take(&mut self.pending);
        for work in pending.drain(..) {
            match self.least_loaded_alive() {
                Some(node) => {
                    self.submit_to(node, work.shards.clone(), Some(work));
                    progressed = true;
                }
                None if (0..self.nodes.len()).any(|i| !self.nodes[i].is_dead()) => {
                    // the fleet lives but every node is backpressured:
                    // hold the work and let `drive`'s idle pace space
                    // the retry — capacity frees as shards drain
                    self.pending.push(work);
                }
                None => {
                    let unscanned = work.shards.len()
                        + self.pending.iter().map(|p| p.shards.len()).sum::<u64>();
                    self.pending.push(work);
                    return Err(format!(
                        "all {} nodes dead with {} shards unscanned",
                        self.nodes.len(),
                        unscanned
                    ));
                }
            }
        }

        // 3. Update idle clocks.
        let now = Instant::now();
        for node in 0..self.nodes.len() {
            let busy = self.assignments.iter().any(|a| a.active && a.node == node);
            self.idle_since[node] =
                match (busy || self.nodes[node].is_dead(), self.idle_since[node]) {
                    (true, _) => None,
                    (false, Some(t)) => Some(t),
                    (false, None) => Some(now),
                };
        }

        // 4. Steal: an idle node past its patience takes half of the
        // biggest backlog.
        let thief = (0..self.nodes.len())
            .find(|&i| self.idle_since[i].is_some_and(|t| t.elapsed() >= self.cfg.steal_patience));
        if let Some(thief) = thief {
            if self.steal_for(thief) {
                progressed = true;
            }
        }

        Ok(progressed)
    }

    /// Living, non-backpressured node with the smallest outstanding
    /// shard count.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place). busy_until is created with one slot per node and never resized; indexed by the same node ids as self.nodes"
    )]
    fn least_loaded_alive(&self) -> Option<usize> {
        let now = Instant::now();
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].is_dead())
            .filter(|&i| self.busy_until[i].is_none_or(|t| now >= t))
            .min_by_key(|&i| {
                self.assignments
                    .iter()
                    .filter(|a| a.active && a.node == i)
                    .map(|a| a.owned.len() - a.done.len())
                    .sum::<u64>()
            })
    }

    /// Steal for idle node `thief`: cancel the biggest healthy backlog,
    /// let it quiesce, harvest what finished, and split the remainder
    /// between the thief and the victim. Returns true when a steal
    /// actually moved work.
    #[expect(
        clippy::indexing_slicing,
        reason = "ai comes from positions()/enumerate() over self.assignments; assignments are deactivated, never removed. node indices come from enumerate() over self.nodes or from assignments recorded at submit; the node list never shrinks (dead nodes are quarantined in place)"
    )]
    fn steal_for(&mut self, thief: usize) -> bool {
        // victim: the active assignment with the most unscanned shards
        // (at least 2 — a single straggling shard is likely mid-scan and
        // not worth the cancel round-trip)
        let Some(ai) = (0..self.assignments.len())
            .filter(|&ai| {
                let a = &self.assignments[ai];
                a.active && a.node != thief && !self.nodes[a.node].is_dead()
            })
            .max_by_key(|&ai| {
                let a = &self.assignments[ai];
                a.owned.len() - a.done.len()
            })
        else {
            return false;
        };
        let undone = self.assignments[ai].owned.len() - self.assignments[ai].done.len();
        if undone < 2 {
            return false;
        }
        let decided = Instant::now();
        let (victim, job_id) = (self.assignments[ai].node, self.assignments[ai].job_id);
        let victim_addr = self.nodes[victim].addr().to_string();

        // cancel; the engine hands back every unscanned shard
        if self.rpc(victim, "CANCEL", |c| c.cancel(job_id)).is_err() {
            return false; // health machinery took note; retry next tick
        }
        // let the in-flight shard land so the harvest below is maximal:
        // one WAIT, answered when the cancelled job is stable. Running
        // out of time is an ordinary (unstable) status, not an error —
        // the merge dedups by shard index — so an expected timeout
        // cannot count against the victim's health. Never parked past
        // the run's own deadline, nor past the read timeout.
        let quiesce = self
            .cfg
            .steal_quiesce
            .min(
                self.cfg
                    .overall_deadline
                    .saturating_sub(self.started.elapsed()),
            )
            .min(self.cfg.rpc_deadline / 2);
        let _ = self.rpc(victim, "WAIT", |c| c.wait_progress(job_id, None, quiesce));
        let _ = self.harvest(ai);
        if !self.assignments[ai].active {
            return true; // harvest closed it; the remainder is pending
        }
        self.assignments[ai].active = false;

        let a = &self.assignments[ai];
        let remaining = a.owned.difference(&a.done);
        if remaining.is_empty() {
            return false; // the cancel lost the race with completion
        }
        // thief takes the first half, the victim keeps the rest (unless
        // too little remains to split)
        let (to_thief, to_victim) = if remaining.len() >= 2 {
            let mut chunks = remaining.split_chunks(2).into_iter();
            (
                chunks.next().unwrap_or_default(),
                chunks.next().unwrap_or_default(),
            )
        } else {
            (remaining.clone(), ShardSet::new())
        };
        self.submit_to(
            thief,
            to_thief.clone(),
            Some(PendingWork {
                shards: to_thief,
                from: victim_addr.clone(),
                reason: StealReason::Straggler,
                since: decided,
            }),
        );
        if !to_victim.is_empty() {
            self.submit_to(victim, to_victim, None);
        }
        true
    }
}
