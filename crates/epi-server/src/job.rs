//! The job model: lifecycle states, per-shard progress, and the merged
//! result of a finished job.

use crate::spec::JobSpec;
use bitgenome::{SplitDataset, UnsplitDataset};
use epi_core::result::{Candidate, TopK};
use epi_core::shard::ShardPlan;
use std::collections::HashSet;
use std::sync::Arc;

/// Lifecycle of a job.
///
/// ```text
/// SUBMIT ──> Queued ──> Running ──> Done
///               │          │
///               │       CANCEL ──> Cancelled ──RESUME──> Queued
///               │          │
///               └──────> Failed  (dataset unreadable, bad checkpoint…)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; shards are enqueued but none picked up yet.
    Queued,
    /// At least one shard has been picked up by a worker.
    Running,
    /// Every shard finished; the merged result is available.
    Done,
    /// The job cannot make progress; see the job's error message.
    Failed,
    /// Cancelled by a client. Completed shard results are retained in the
    /// checkpoint; RESUME re-enqueues only the missing shards.
    Cancelled,
}

impl JobState {
    /// Lower-case wire name.
    pub const fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            other => return Err(format!("unknown job state {other:?}")),
        })
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Dataset encoded for the job's scan version, shared by all workers.
pub enum EncodedData {
    Split(SplitDataset),
    Unsplit(UnsplitDataset),
}

impl EncodedData {
    /// Samples in the dataset (needed for scoring).
    pub fn num_samples(&self) -> usize {
        match self {
            EncodedData::Split(ds) => ds.num_samples(),
            EncodedData::Unsplit(ds) => ds.num_samples(),
        }
    }

    /// SNPs in the dataset.
    pub fn num_snps(&self) -> usize {
        match self {
            EncodedData::Split(ds) => ds.num_snps(),
            EncodedData::Unsplit(ds) => ds.num_snps(),
        }
    }

    /// Resident footprint of the encoded bitplanes in bytes — what the
    /// engine's memory accountant charges an admitted job while its
    /// dataset stays loaded.
    pub fn resident_bytes(&self) -> u64 {
        let word = std::mem::size_of::<bitgenome::Word>() as u64;
        match self {
            // two bitplanes per SNP per class (cases + controls)
            EncodedData::Split(ds) => {
                let per_snp = 2 * (ds.cases().num_words() + ds.controls().num_words()) as u64;
                ds.num_snps() as u64 * per_snp * word
            }
            // three genotype planes per SNP, plus the phenotype plane
            EncodedData::Unsplit(ds) => {
                (ds.num_snps() as u64 * 3 + 1) * ds.num_words() as u64 * word
            }
        }
    }
}

/// Tenant a spec without a `tenant=` key is accounted to.
pub const DEFAULT_TENANT: &str = "default";

/// One tracked job.
pub struct Job {
    pub id: u64,
    pub spec: JobSpec,
    pub plan: ShardPlan,
    pub state: JobState,
    /// Per-shard sorted candidate lists; `None` = not scanned yet.
    pub shard_results: Vec<Option<Vec<Candidate>>>,
    /// Indices of shards currently being scanned by a worker. Tracked as
    /// a set so resume can avoid re-enqueuing work that is mid-scan.
    pub in_flight: HashSet<u64>,
    /// Dataset encoded for scanning. `None` for jobs restored from a
    /// checkpoint until RESUME reloads the file.
    pub data: Option<Arc<EncodedData>>,
    /// Failure diagnostic when `state == Failed`.
    pub error: Option<String>,
    /// Content hash of the dataset as loaded on *this* node, recorded
    /// whenever the file is (re)read. `None` for checkpoint-restored
    /// jobs until RESUME reloads the data. Echoed in STATUS so a
    /// coordinator can cross-check a node's copy before merging.
    pub dataset_hash: Option<u64>,
    /// Remaining `PARTIAL` requests to fail for this job (fault
    /// injection, counts down from `spec.fail_partial`).
    pub fail_partial_left: u32,
    /// Wall-clock moment the job's `deadline_ms=` budget expires; the
    /// engine fails the job (`deadline exceeded`) and drains its queued
    /// shards once this passes. `None` = no deadline. Re-anchored on
    /// RESUME — a resumed job gets a fresh window.
    pub deadline: Option<std::time::Instant>,
    /// Bytes the engine's memory accountant currently charges this job
    /// (encoded planes + result scratch); released back to the budget
    /// when the job parks or completes and its dataset is dropped.
    pub mem_charge: u64,
}

impl Job {
    /// Tenant this job is accounted to ([`DEFAULT_TENANT`] when the spec
    /// names none).
    pub fn tenant(&self) -> &str {
        self.spec.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// Does this job own (and therefore scan) the given global shard
    /// index? Jobs without a `shard_set` own the whole plan.
    pub fn owns(&self, shard: u64) -> bool {
        match &self.spec.shard_set {
            Some(set) => set.contains(shard),
            None => shard < self.plan.num_shards(),
        }
    }

    /// Number of shards this job owns (its `total` for progress).
    pub fn owned_total(&self) -> u64 {
        match &self.spec.shard_set {
            Some(set) => set.len(),
            None => self.plan.num_shards(),
        }
    }

    /// Combinations covered by the owned shards.
    pub fn owned_combos(&self) -> u64 {
        match &self.spec.shard_set {
            Some(set) => set.iter().map(|s| self.plan.shard_len(s)).sum(),
            None => self.plan.total_combos(),
        }
    }

    /// Number of completed shards.
    pub fn completed(&self) -> u64 {
        self.shard_results.iter().filter(|r| r.is_some()).count() as u64
    }

    /// Shard indices that still need scanning: owned but no result yet.
    /// (Shards outside the job's `shard_set` are someone else's work and
    /// are never reported missing.)
    pub fn missing_shards(&self) -> Vec<u64> {
        self.shard_results
            .iter()
            .enumerate()
            .filter(|(i, r)| r.is_none() && self.owns(*i as u64))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Shard indices safe to (re-)enqueue: missing *and* not currently
    /// being scanned. Resume uses this — a shard in flight when the job
    /// was cancelled will record its own result, so re-enqueuing it
    /// would scan it twice.
    pub fn resumable_shards(&self) -> Vec<u64> {
        self.missing_shards()
            .into_iter()
            .filter(|s| !self.in_flight.contains(s))
            .collect()
    }

    /// Merge all completed shard results into the final ordered top-K.
    /// Associative and order-independent, so the merged outcome equals a
    /// monolithic scan whenever every shard is present.
    pub fn merged_top(&self) -> Vec<Candidate> {
        let mut top = TopK::new(self.spec.top_k.max(1));
        for cand in self.shard_results.iter().flatten().flatten() {
            top.push(cand.score, cand.triple);
        }
        top.into_sorted()
    }

    /// Snapshot for STATUS replies.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            state: self.state,
            done: self.completed(),
            total: self.owned_total(),
            in_flight: self.in_flight.len() as u64,
            combos: self.owned_combos(),
            // echo the tier that actually runs: the clamped forced tier
            // for V4/V5, Scalar for the definitionally scalar V1-V3 —
            // never the raw request
            simd: self
                .spec
                .simd
                .map(|_| self.spec.scan_config().effective_simd()),
            dataset_hash: self.dataset_hash,
            error: self.error.clone(),
        }
    }
}

/// Client-visible progress snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    pub id: u64,
    pub state: JobState,
    /// Completed shards.
    pub done: u64,
    /// Total shards.
    pub total: u64,
    /// Shards currently being scanned by workers.
    pub in_flight: u64,
    /// Total combinations in the job.
    pub combos: u64,
    /// Forced SIMD tier, post-clamp (`None` = host default). Echoed on
    /// the wire as `simd=<token>` so clients can verify which kernel
    /// path actually ran.
    pub simd: Option<bitgenome::SimdLevel>,
    /// Content hash of the dataset as this node loaded it (`None` until
    /// the file has been read). Wire form `dataset_hash=<16 hex>`.
    pub dataset_hash: Option<u64>,
    pub error: Option<String>,
}

impl JobStatus {
    /// True once no worker can still change this snapshot: the job is in
    /// a terminal-ish state *and* no shard is mid-scan. `wait` and the
    /// cancel/resume tests key off this, not the state alone, because an
    /// in-flight shard of a cancelled job still lands afterwards.
    pub fn is_stable(&self) -> bool {
        !matches!(self.state, JobState::Queued | JobState::Running) && self.in_flight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_with_results(results: Vec<Option<Vec<Candidate>>>) -> Job {
        let mut spec = JobSpec::new("x");
        spec.top_k = 2;
        spec.shards = results.len() as u64;
        Job {
            id: 1,
            plan: ShardPlan::triples(10, results.len() as u64),
            spec,
            state: JobState::Running,
            shard_results: results,
            in_flight: HashSet::new(),
            data: None,
            error: None,
            dataset_hash: None,
            fail_partial_left: 0,
            deadline: None,
            mem_charge: 0,
        }
    }

    fn cand(score: f64, t: (u32, u32, u32)) -> Candidate {
        Candidate { score, triple: t }
    }

    #[test]
    fn merge_keeps_best_across_shards() {
        let job = job_with_results(vec![
            Some(vec![cand(3.0, (0, 1, 2)), cand(5.0, (1, 2, 3))]),
            None,
            Some(vec![cand(1.0, (2, 3, 4)), cand(9.0, (3, 4, 5))]),
        ]);
        assert_eq!(job.completed(), 2);
        assert_eq!(job.missing_shards(), vec![1]);
        let merged = job.merged_top();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].triple, (2, 3, 4));
        assert_eq!(merged[1].triple, (0, 1, 2));
    }

    #[test]
    fn state_names_roundtrip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.name()).unwrap(), s);
        }
        assert!(JobState::parse("zombie").is_err());
    }
}
