//! The job engine: a weighted-fair shard queue drained by a worker pool
//! behind an admission-controlled front door.
//!
//! All jobs feed one [`DispatchQueue`] of `(job, shard)` tasks —
//! per-`(priority, tenant)` lanes under stride scheduling, so a bulk
//! low-priority scan shares the pool instead of starving everyone
//! behind it; workers claim
//! work dynamically (the self-scheduling idiom of `epi_core::pool`, here
//! with a `Mutex` + `Condvar` because tasks arrive over time from
//! concurrent submissions) — and claim it **run-aware**: a claim takes a
//! batch of immediately consecutive shards of one job, so the worker's
//! pair-prefix cache stays warm across the batch's contiguous rank span
//! instead of collapsing when several workers interleave shard-by-shard
//! (the same locality scheme as `epi_core::pool::plan_claims`, bounded
//! by the identical `⌈shards / 2·workers⌉` balance cap). Per-shard
//! results are recorded under the job, each recorded shard is persisted
//! as its own small delta file, and the final top-K is merged when the
//! last shard lands — so a cancel or crash at any point loses at most
//! the shards currently in flight; a cancel also makes the worker
//! abandon the unscanned remainder of its batch, so batching never
//! widens the cancel window beyond the shard mid-scan.
//!
//! A spooled job is three kinds of file in the one [`Checkpoint`]
//! format: `job-<id>.ckpt` (a header-only base from SUBMIT on, the
//! whole job once it finishes), its rotation `job-<id>.ckpt.prev`, and
//! one `job-<id>.shard-<n>` delta per recorded shard — a worker writes
//! only the shard it just scanned. The record that finishes the job
//! compacts: two verified whole copies, then the deltas are unlinked.
//! Restore is the union of whatever decodes, so a failed or torn write
//! of any one file costs at most the shard it carried.
//!
//! Resource governance sits in front of all of that: a memory
//! accountant charges every admitted job its encoded-dataset + result
//! scratch footprint against a configurable budget, per-tenant quotas
//! bound concurrent jobs and queued shards, `deadline_ms=` budgets are
//! enforced by a sweep on every API call and worker wake, and an
//! idempotent `job_token=` lets clients retry `over capacity`
//! rejections without ever duplicating work. All spool I/O goes
//! through the injectable [`SpoolFs`] layer so the recovery suite can
//! prove disk faults mid-checkpoint never corrupt job state.

#![warn(clippy::disallowed_methods)]

use crate::codec::Checkpoint;
use crate::job::{EncodedData, Job, JobState, JobStatus, DEFAULT_TENANT};
use crate::queue::DispatchQueue;
use crate::spec::JobSpec;
use crate::spool::{self, RealSpoolFs, SpoolFs};
use bitgenome::{SplitDataset, UnsplitDataset};
use epi_core::prefixcache::PairPrefixCache;
use epi_core::result::Candidate;
use epi_core::scan::Version;
use epi_core::shard::{scan_shard_split_cached, scan_shard_unsplit, ShardPlan, ShardSet};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the data if a previous holder panicked.
///
/// Engine state is only ever mutated transactionally under the lock
/// (every unlock point leaves the maps and queue consistent), so the
/// data behind a poisoned guard is still sound — refusing it would turn
/// a single worker panic into a permanently wedged server where every
/// subsequent verb crashes on `unwrap()`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Human-readable panic payload (worker-boundary diagnostics).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Engine configuration.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads; `0` = all available cores.
    pub workers: usize,
    /// Directory for job checkpoints; `None` disables persistence.
    pub spool_dir: Option<PathBuf>,
    /// Default forced SIMD tier for jobs whose spec carries no `simd=`
    /// key (`epi3 serve --simd` / `EPI3_SIMD` on the server). Clamped to
    /// the host's capability; an explicit spec key always wins.
    pub default_simd: Option<bitgenome::SimdLevel>,
    /// Node-local dataset directory (`epi3 serve --data-root`). When
    /// set, spec paths are resolved as *file names* under this root
    /// instead of absolute paths — the deployment shape where every
    /// fleet node carries its own replica of the dataset, which is
    /// exactly when `dataset_hash=` verification matters: replicas
    /// drift, and the hash is what catches a stale or corrupted copy.
    pub dataset_root: Option<PathBuf>,
    /// Memory budget in bytes for admitted jobs (encoded datasets +
    /// result scratch, accounted per job the way `epi_core`'s cache
    /// cost model accounts blocks). `None` = unlimited. A SUBMIT that
    /// would exceed it is refused with `over capacity
    /// (retry_after_ms=N)` *before* anything is allocated.
    pub mem_budget: Option<u64>,
    /// Per-tenant cap on concurrent (queued/running) jobs; `None` =
    /// unlimited.
    pub max_jobs_per_tenant: Option<u64>,
    /// Per-tenant cap on queued shards; `None` = unlimited.
    pub max_queued_per_tenant: Option<u64>,
    /// Spool I/O layer; `None` = the real filesystem. Tests inject
    /// [`crate::spool::FaultySpoolFs`] here to prove disk faults never
    /// corrupt job state.
    pub spool_fs: Option<Arc<dyn SpoolFs>>,
}

struct EngineState {
    jobs: HashMap<u64, Job>,
    queue: DispatchQueue,
    next_id: u64,
    /// `job_token=` → job id. A retried SUBMIT carrying a token the
    /// engine has seen gets the existing job's status echoed back
    /// instead of a duplicate job — the idempotency half of the
    /// retry-on-`over capacity` contract.
    tokens: HashMap<String, u64>,
    /// Bytes currently charged by the memory accountant (reservations
    /// of in-flight admissions plus every admitted job's
    /// [`Job::mem_charge`]).
    mem_used: u64,
}

struct Shared {
    state: Mutex<EngineState>,
    work_ready: Condvar,
    /// Signalled by [`Shared::notify_progress`]; [`Engine::wait`] sleeps
    /// on it (with `state`).
    progress: Condvar,
    /// Live [`ProgressWatch`]es: `Engine::wait` sleepers, plus one for
    /// the server's readiness loop while it has a `WAIT` parked. Zero
    /// means nobody is listening and `notify_progress` returns after
    /// one load.
    watchers: AtomicUsize,
    /// Wakes the server's readiness loop (it blocks in `poll`, not on
    /// a condvar); installed once by [`Engine::set_progress_hook`].
    progress_hook: OnceLock<Box<dyn Fn() + Send + Sync>>,
    shutdown: AtomicBool,
    /// Shards scanned since engine start — across resumes this equals the
    /// number of *distinct* shards completed, which is how the tests
    /// prove resume never rescans checkpointed work.
    shards_scanned: AtomicU64,
    spool_dir: Option<PathBuf>,
    /// Clamped engine-wide default tier for specs without `simd=`.
    default_simd: Option<bitgenome::SimdLevel>,
    /// Node-local dataset directory; see [`EngineConfig::dataset_root`].
    dataset_root: Option<PathBuf>,
    /// Worker-pool size (sets the batch-claim balance cap).
    workers: usize,
    /// Per-worker pair-prefix cache counters `(hits, misses)`, flushed by
    /// each worker after every shard, so STATS reports the whole pool —
    /// not whichever worker a single counter happened to follow.
    pair_stats: Vec<(AtomicU64, AtomicU64)>,
    /// All spool reads/writes go through this (fault injection point).
    fs: Arc<dyn SpoolFs>,
    /// Memory budget; see [`EngineConfig::mem_budget`].
    mem_budget: Option<u64>,
    /// See [`EngineConfig::max_jobs_per_tenant`].
    max_jobs_per_tenant: Option<u64>,
    /// See [`EngineConfig::max_queued_per_tenant`].
    max_queued_per_tenant: Option<u64>,
    /// Submissions refused by admission control (budget or quota)
    /// since engine start — the STATS `rejected=` counter.
    rejected: AtomicU64,
}

/// Multi-tenant scan-job engine. Cloneable handle; dropping the last
/// handle does not stop workers — call [`Engine::stop`].
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Start an engine: spawns the worker pool and, when a spool
    /// directory is configured, restores every checkpoint found there
    /// (restored jobs sit in `Cancelled`/`Done` until resumed).
    pub fn start(cfg: EngineConfig) -> Arc<Self> {
        // `0` = all cores; explicit requests are clamped to the host's
        // parallelism like every other thread knob (epi_core::pool).
        let threads = epi_core::pool::resolve_threads(cfg.workers);
        let fs: Arc<dyn SpoolFs> = cfg
            .spool_fs
            .clone()
            .unwrap_or_else(|| Arc::new(RealSpoolFs));
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                jobs: HashMap::new(),
                queue: DispatchQueue::new(),
                next_id: 1,
                tokens: HashMap::new(),
                mem_used: 0,
            }),
            work_ready: Condvar::new(),
            progress: Condvar::new(),
            watchers: AtomicUsize::new(0),
            progress_hook: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            shards_scanned: AtomicU64::new(0),
            spool_dir: cfg.spool_dir.clone(),
            default_simd: cfg.default_simd.map(|l| l.clamped_to_host()),
            dataset_root: cfg.dataset_root.clone(),
            workers: threads,
            pair_stats: (0..threads)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            fs,
            mem_budget: cfg.mem_budget,
            max_jobs_per_tenant: cfg.max_jobs_per_tenant,
            max_queued_per_tenant: cfg.max_queued_per_tenant,
            rejected: AtomicU64::new(0),
        });
        if let Some(dir) = &cfg.spool_dir {
            let _ = shared.fs.create_dir_all(dir);
            Self::restore_spool(&shared, dir);
        }
        let mut workers = Vec::with_capacity(threads);
        for widx in 0..threads {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared, widx)));
        }
        Arc::new(Self {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Restore every job the spool holds: per job id, the **union** of
    /// whatever decodes. A finished job costs one read — its `.ckpt`
    /// decodes complete and nothing else is opened. Otherwise the
    /// header comes from `.ckpt`, else `.ckpt.prev`, else any delta, and
    /// every delta that decodes fills its shard's slot (a torn one
    /// lacks `end` and is skipped). Deltas beside a job that restores
    /// complete are what a crashed, failed or raced compaction left:
    /// compacting again is what unlinks them.
    fn restore_spool(shared: &Shared, dir: &Path) {
        let Ok(mut paths) = shared.fs.read_dir(dir) else {
            return;
        };
        paths.sort();
        // job id → its delta files (none for a job that is only `.ckpt`)
        let mut found: BTreeMap<u64, Vec<PathBuf>> = BTreeMap::new();
        for path in paths {
            if let Some((id, is_delta)) = parse_spool_name(&path) {
                let deltas = found.entry(id).or_default();
                if is_delta {
                    deltas.push(path);
                }
            }
        }
        let decode = |bytes: &[u8]| Checkpoint::read_from(bytes);
        let mut state = lock(&shared.state);
        for (id, deltas) in found {
            let mut ck = spool::read_rotated(&*shared.fs, &ckpt_path(dir, id), decode).ok();
            if !ck.as_ref().is_some_and(Checkpoint::is_complete) {
                let read = |path: &PathBuf| decode(&shared.fs.read(path).ok()?).ok();
                for delta in deltas.iter().filter_map(read) {
                    match &mut ck {
                        Some(ck) => ck.absorb(delta),
                        None => ck = Some(delta),
                    }
                }
            }
            let Some(ck) = ck else {
                continue;
            };
            if ck.is_complete() && !deltas.is_empty() {
                shared.compact(&ck);
            }
            // The checkpoint carries the shard plan's SNP count, so a
            // restore needs no dataset access at all; the file is only
            // reloaded (and validated) when the job is resumed.
            let mut job = ck.into_job();
            // A spool on shared storage may have been written by a more
            // capable host: re-clamp the forced tier exactly as submit()
            // does, or a resumed job would dispatch unsupported SIMD
            // intrinsics here. (Tiers only widen the kernel choice —
            // results are bit-identical at any tier.)
            job.spec.simd = job.spec.simd.map(|l| l.clamped_to_host());
            // Re-register the job's idempotency token so a client retry
            // that straddles a server restart still cannot duplicate it.
            if let Some(token) = &job.spec.job_token {
                state.tokens.insert(token.clone(), job.id);
            }
            state.next_id = state.next_id.max(job.id + 1);
            state.jobs.insert(job.id, job);
        }
    }

    /// Submit a new job. Admission control runs first — token
    /// idempotency, tenant quotas, and the memory budget are checked
    /// (and an estimate reserved) *before* the dataset is touched, so an
    /// `over capacity` rejection costs no allocation. The dataset is
    /// then loaded and encoded synchronously so invalid submissions fail
    /// at the protocol boundary, and every owned shard is enqueued on
    /// the job's `(priority, tenant)` dispatch lane. A requested SIMD
    /// tier is clamped to *this* host's capability (the scan runs here,
    /// whatever the client supports) and the clamped tier is what STATUS
    /// echoes back.
    pub fn submit(&self, spec: JobSpec) -> Result<JobStatus, String> {
        if spec.shards == 0 {
            return Err("a job needs at least one shard".into());
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err("engine is shutting down".into());
        }
        let mut spec = spec;
        spec.simd = spec
            .simd
            .map(|l| l.clamped_to_host())
            .or(self.shared.default_simd);
        // Size the job from file metadata alone (a stat, not a read):
        // the refusal path must not pay for what it refuses.
        let est = estimate_footprint(&spec, self.shared.dataset_root.as_deref())?;
        let tenant = spec
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        // Phase A — admission under the lock: on success the estimate is
        // reserved and the id + token registered, so concurrent
        // duplicates and over-budget bursts are decided here while the
        // slow load below runs outside the lock.
        let id = {
            let mut state = lock(&self.shared.state);
            let st = &mut *state;
            self.shared.sweep_deadlines(st);
            if let Some(token) = &spec.job_token {
                if let Some(&existing) = st.tokens.get(token) {
                    return match st.jobs.get(&existing) {
                        // idempotent echo: the token was already
                        // admitted — report that job, duplicate nothing
                        Some(job) => Ok(job.status()),
                        // reserved by a submit still loading its dataset
                        None => Err(format!("job_token {token:?} is mid-admission; retry")),
                    };
                }
            }
            if let Some(max) = self.shared.max_jobs_per_tenant {
                let active = active_tenant_jobs(&st.jobs, &tenant);
                if active >= max {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "over capacity (retry_after_ms=100): tenant {tenant} has \
                         {active} active jobs (quota {max})"
                    ));
                }
            }
            if let Some(max) = self.shared.max_queued_per_tenant {
                let queued = st.queue.queued_for_tenant(&tenant);
                let incoming = match &spec.shard_set {
                    Some(set) => set.len(),
                    None => spec.shards,
                };
                if queued.saturating_add(incoming) > max {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "over capacity (retry_after_ms=100): tenant {tenant} would \
                         have {} queued shards (quota {max})",
                        queued.saturating_add(incoming)
                    ));
                }
            }
            if let Some(budget) = self.shared.mem_budget {
                if st.mem_used.saturating_add(est) > budget {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "over capacity (retry_after_ms=100): job needs ~{est} bytes, \
                         {} of {budget} budget in use",
                        st.mem_used
                    ));
                }
            }
            st.mem_used = st.mem_used.saturating_add(est);
            let id = st.next_id;
            st.next_id += 1;
            if let Some(token) = &spec.job_token {
                st.tokens.insert(token.clone(), id);
            }
            id
        };
        let loaded = load_encoded(&spec, self.shared.dataset_root.as_deref());
        let (data, m, hash) = match loaded {
            Ok(v) => v,
            Err(e) => {
                self.rollback_admission(est, spec.job_token.as_deref());
                return Err(e);
            }
        };
        let plan = ShardPlan::triples(m, spec.shards);
        let shards = plan.num_shards();
        if let Some(set) = &spec.shard_set {
            // shard_set indexes the *global* plan derived from this spec;
            // an out-of-range index means the submitter's plan disagrees
            // with ours — fail loudly rather than silently scan less.
            match set.max() {
                Some(max) if max < shards => {}
                Some(max) => {
                    self.rollback_admission(est, spec.job_token.as_deref());
                    return Err(format!(
                        "shard_set index {max} out of range: plan has {shards} shards"
                    ));
                }
                None => {
                    self.rollback_admission(est, spec.job_token.as_deref());
                    return Err("shard_set selects no shards".into());
                }
            }
        }
        // The global shard indices this job actually scans. Results are
        // still recorded at their global index, so a coordinator can
        // merge sub-jobs from many nodes without translation.
        let owned: Vec<u64> = match &spec.shard_set {
            Some(set) => set.iter().collect(),
            None => (0..shards).collect(),
        };
        // A spooled job is on disk before any worker can see it: the
        // header-only base keeps the job and its `job_token` across a
        // crash that lands before the first shard does. Written after
        // the commit below, it could lose the race against a short
        // job's compaction and rotate the finished checkpoint away.
        if let Some(dir) = &self.shared.spool_dir {
            let mut bytes = Vec::new();
            let written = Checkpoint::write_records(&mut bytes, id, &spec, m, std::iter::empty())
                .and_then(|()| spool::write_rotated(&*self.shared.fs, &ckpt_path(dir, id), &bytes));
            if let Err(e) = written {
                log_spool_error("base checkpoint", id, &e);
            }
        }
        // Phase B — commit under the lock: swap the stat-based
        // reservation for the encoded planes' exact resident size.
        let mut state = lock(&self.shared.state);
        let st = &mut *state;
        let actual = data.resident_bytes().saturating_add(scratch_bytes(&spec));
        st.mem_used = st.mem_used.saturating_sub(est).saturating_add(actual);
        #[expect(
            clippy::disallowed_methods,
            reason = "admission/resume stamp the job's deadline window; expiry flips lifecycle state only, never a completed shard's score bits"
        )]
        let deadline = spec
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let priority = spec.priority;
        let fail_partial_left = spec.fail_partial;
        let mut job = Job {
            id,
            spec,
            plan,
            state: JobState::Queued,
            shard_results: vec![None; shards as usize],
            in_flight: Default::default(),
            data: Some(Arc::new(data)),
            error: None,
            dataset_hash: Some(hash),
            fail_partial_left,
            deadline,
            mem_charge: actual,
        };
        if job.plan.total_combos() == 0 {
            // Degenerate dataset (M < 3): complete immediately with the
            // empty result rather than scheduling no-op shards.
            #[expect(
                clippy::indexing_slicing,
                reason = "shard ids are validated against the job plan at submit/partial admission before any worker touches them"
            )]
            for &shard in &owned {
                job.shard_results[shard as usize] = Some(Vec::new());
            }
            job.state = JobState::Done;
            job.data = None;
            st.mem_used = st.mem_used.saturating_sub(job.mem_charge);
            job.mem_charge = 0;
            let status = job.status();
            let spooled = self.shared.spool_dir.is_some();
            let finished = spooled.then(|| Checkpoint::of_job(&job));
            st.jobs.insert(id, job);
            drop(state);
            if let Some(ck) = finished {
                self.shared.compact(&ck);
            }
            return Ok(status);
        }
        for shard in owned {
            st.queue.push(&tenant, priority, (id, shard));
        }
        let status = job.status();
        st.jobs.insert(id, job);
        drop(state);
        self.shared.work_ready.notify_all();
        Ok(status)
    }

    /// Undo a Phase-A admission reservation after the dataset load (or
    /// plan validation) failed outside the lock: release the estimate
    /// and free the token so the client can retry cleanly.
    fn rollback_admission(&self, est: u64, token: Option<&str>) {
        let mut state = lock(&self.shared.state);
        state.mem_used = state.mem_used.saturating_sub(est);
        if let Some(token) = token {
            state.tokens.remove(token);
        }
    }

    /// Progress snapshot of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        let mut state = lock(&self.shared.state);
        self.shared.sweep_deadlines(&mut state);
        state
            .jobs
            .get(&id)
            .map(Job::status)
            .ok_or_else(|| format!("no such job {id}"))
    }

    /// Snapshot of every job, newest first.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let mut state = lock(&self.shared.state);
        self.shared.sweep_deadlines(&mut state);
        let mut all: Vec<JobStatus> = state.jobs.values().map(Job::status).collect();
        all.sort_by_key(|s| std::cmp::Reverse(s.id));
        all
    }

    /// Final merged result of a finished job.
    pub fn result(&self, id: u64) -> Result<Vec<Candidate>, String> {
        let state = lock(&self.shared.state);
        let job = state
            .jobs
            .get(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        if job.state != JobState::Done {
            return Err(format!("job {id} not finished (state={})", job.state));
        }
        Ok(job.merged_top())
    }

    /// Cancel a job: pending shards are dropped from the queue and
    /// completed shard results stay checkpointed (each is already on
    /// disk as its delta, so there is nothing to write here). Of a
    /// worker's claimed batch, only the shard *mid-scan* finishes and is
    /// recorded — the
    /// unscanned remainder is handed back (leaves `in_flight`) for a
    /// later RESUME, so the status returned here may briefly show more
    /// `in_flight` shards than will actually be recorded. Idempotent for
    /// finished jobs.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, String> {
        let mut state = lock(&self.shared.state);
        let st = &mut *state;
        st.queue.retain(|&(job_id, _)| job_id != id);
        let job = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        if matches!(job.state, JobState::Queued | JobState::Running) {
            job.state = JobState::Cancelled;
        }
        if job.state == JobState::Cancelled && job.in_flight.is_empty() {
            // Release the encoded dataset (O(M*N) bits) while the job is
            // parked; resume reloads it from spec.path. With shards still
            // in flight the workers hold their own Arc clones, and the
            // last completion drops it instead (worker_loop). The memory
            // accountant releases the charge with the data.
            job.data = None;
            st.mem_used = st.mem_used.saturating_sub(job.mem_charge);
            job.mem_charge = 0;
        }
        let status = job.status();
        drop(state);
        self.shared.notify_progress();
        Ok(status)
    }

    /// Resume a cancelled (or failed-at-restore) job from its checkpoint:
    /// reloads the dataset if needed and re-enqueues only the missing
    /// shards.
    #[expect(
        clippy::disallowed_methods,
        reason = "admission/resume stamp the job's deadline window; expiry flips lifecycle state only, never a completed shard's score bits"
    )]
    pub fn resume(&self, id: u64) -> Result<JobStatus, String> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err("engine is shutting down".into());
        }
        // Phase 1 — inspect under the lock, but do the (potentially slow)
        // dataset load/encode outside it: holding the engine mutex during
        // file I/O would stall every worker and client.
        let reload_spec = {
            let state = lock(&self.shared.state);
            let job = state
                .jobs
                .get(&id)
                .ok_or_else(|| format!("no such job {id}"))?;
            match job.state {
                JobState::Cancelled | JobState::Failed => {}
                JobState::Done => return Ok(job.status()),
                other => return Err(format!("job {id} is {other}; nothing to resume")),
            }
            job.data.is_none().then(|| job.spec.clone())
        };
        let loaded = match reload_spec {
            Some(spec) => match load_encoded(&spec, self.shared.dataset_root.as_deref()) {
                Ok(v) => Some(v),
                Err(e) => {
                    // Park the failure on the job so STATUS echoes it
                    // (a coordinator polls STATUS, not this reply).
                    let mut state = lock(&self.shared.state);
                    if let Some(job) = state.jobs.get_mut(&id) {
                        if matches!(job.state, JobState::Cancelled | JobState::Failed) {
                            job.state = JobState::Failed;
                            job.error = Some(e.clone());
                        }
                    }
                    return Err(e);
                }
            },
            None => None,
        };

        // Phase 2 — commit under the lock, re-checking the state (another
        // client may have resumed or the job may have finished meanwhile).
        let mut state = lock(&self.shared.state);
        let st = &mut *state;
        let job = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        match job.state {
            JobState::Cancelled | JobState::Failed => {}
            // lost the race to another resume (or completion): that's fine
            _ => return Ok(job.status()),
        }
        if job.data.is_none() {
            let Some((data, m, hash)) = loaded else {
                // data appeared and vanished again between the phases;
                // exceedingly unlikely — ask the client to retry
                return Err(format!("job {id} is mid-transition; retry resume"));
            };
            if m != job.plan.num_snps() {
                let msg = format!(
                    "dataset changed: checkpoint plan covers {} SNPs, file has {m}",
                    job.plan.num_snps()
                );
                job.state = JobState::Failed;
                job.error = Some(msg.clone());
                return Err(msg);
            }
            // Re-admission: resuming re-loads the dataset, so the job
            // must clear the memory budget again. A refusal leaves the
            // job parked exactly as it was — retry later.
            let actual = data
                .resident_bytes()
                .saturating_add(scratch_bytes(&job.spec));
            if let Some(budget) = self.shared.mem_budget {
                if st.mem_used.saturating_add(actual) > budget {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "over capacity (retry_after_ms=100): resume needs ~{actual} \
                         bytes, {} of {budget} budget in use",
                        st.mem_used
                    ));
                }
            }
            st.mem_used = st.mem_used.saturating_add(actual);
            job.mem_charge = actual;
            job.data = Some(Arc::new(data));
            job.dataset_hash = Some(hash);
        }
        job.error = None;
        // A resumed job gets a fresh deadline window: the time it spent
        // parked was not its own spending.
        job.deadline = job
            .spec
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        if job.missing_shards().is_empty() {
            job.state = JobState::Done;
            let status = job.status();
            return Ok(status);
        }
        // Only shards that are missing *and* not mid-scan get re-enqueued:
        // an in-flight shard of the cancelled job will record its own
        // result, so re-enqueuing it would scan it twice.
        let resumable = job.resumable_shards();
        job.state = if resumable.is_empty() {
            // everything left is already in flight; the workers will
            // finish the job without new queue entries
            JobState::Running
        } else {
            JobState::Queued
        };
        let tenant = job.tenant().to_string();
        let priority = job.spec.priority;
        let status = job.status();
        for shard in resumable {
            st.queue.push(&tenant, priority, (id, shard));
        }
        drop(state);
        self.shared.work_ready.notify_all();
        Ok(status)
    }

    /// Exact set of completed shard indices of a job, at any state (the
    /// SHARDS_DONE verb). Batch claiming completes shards out of order,
    /// so STATUS's `done` count alone cannot tell a coordinator *which*
    /// shards are safe to skip when it reassigns a straggler's work —
    /// this can.
    pub fn shards_done(&self, id: u64) -> Result<ShardSet, String> {
        let state = lock(&self.shared.state);
        let job = state
            .jobs
            .get(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        Ok(ShardSet::from_indices(
            job.shard_results
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_some())
                .map(|(i, _)| i as u64),
        ))
    }

    /// Per-shard candidate lists of every *completed* shard not in
    /// `have`, in any job state (the PARTIAL verb). Unlike
    /// [`Engine::result`] this does not require `Done`: a federation
    /// coordinator harvests a running (or cancelled) sub-job through
    /// this, passing the shards it already merged as `have` so each
    /// list crosses the lock and the wire once, and merges per shard
    /// index — duplicate-free by construction. `have` may name shards
    /// the job does not own or that lie past the plan; they match
    /// nothing.
    pub fn partial(&self, id: u64, have: &ShardSet) -> Result<Vec<(u64, Vec<Candidate>)>, String> {
        let mut state = lock(&self.shared.state);
        let job = state
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        if job.fail_partial_left > 0 {
            // Fault injection (`fail_partial=` spec key): answer with a
            // protocol-level ERR — a healthy server saying no, which is
            // exactly the failure a coordinator must retry rather than
            // count against the node's transport health.
            job.fail_partial_left -= 1;
            return Err(format!(
                "injected fault: partial harvest of job {id} refused ({} left)",
                job.fail_partial_left
            ));
        }
        Ok(job
            .shard_results
            .iter()
            .enumerate()
            .filter(|(i, _)| !have.contains(*i as u64))
            .filter_map(|(i, r)| r.as_ref().map(|c| (i as u64, c.clone())))
            .collect())
    }

    /// Total shards scanned since engine start (monitoring; also the
    /// no-rescan proof in tests).
    pub fn shards_scanned(&self) -> u64 {
        self.shared.shards_scanned.load(Ordering::Relaxed)
    }

    /// Aggregated per-worker pair-prefix cache statistics since engine
    /// start: hits/misses summed across the pool plus per-worker min/max
    /// rates — what the STATS verb reports and hit-rate gates should
    /// judge, instead of a single worker's view.
    pub fn pair_cache_stats(&self) -> epi_core::pool::PoolCacheStats {
        epi_core::pool::PoolCacheStats {
            per_worker: self
                .shared
                .pair_stats
                .iter()
                .map(|(h, m)| (h.load(Ordering::Relaxed), m.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Current worker count.
    pub fn num_workers(&self) -> usize {
        lock(&self.workers).len()
    }

    /// Bytes currently charged by the memory accountant (STATS
    /// `mem_used=`).
    pub fn mem_used(&self) -> u64 {
        lock(&self.shared.state).mem_used
    }

    /// Configured memory budget in bytes; `0` = unlimited (STATS
    /// `mem_budget=`).
    pub fn mem_budget(&self) -> u64 {
        self.shared.mem_budget.unwrap_or(0)
    }

    /// Submissions refused by admission control since engine start
    /// (STATS `rejected=`).
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Shards waiting for a worker across all dispatch lanes (STATS
    /// `queue_depth=`).
    pub fn queue_depth(&self) -> u64 {
        lock(&self.shared.state).queue.len() as u64
    }

    /// Active (queued/running) job count per tenant, sorted by tenant
    /// name (STATS `tenant_jobs=`).
    pub fn tenant_jobs(&self) -> Vec<(String, u64)> {
        let mut state = lock(&self.shared.state);
        self.shared.sweep_deadlines(&mut state);
        let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
        #[expect(
            clippy::iter_over_hash_type,
            reason = "tenant_jobs counts into a BTreeMap, so the emitted order is sorted by tenant name whatever the visit order"
        )]
        for job in state.jobs.values() {
            if matches!(job.state, JobState::Queued | JobState::Running) {
                *counts.entry(job.tenant().to_string()).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// Block until the job reaches a stable snapshot (terminal state and
    /// no shard mid-scan) or the timeout elapses; returns the last status
    /// seen. Sleeps on the progress condvar, so it wakes on the
    /// transition itself rather than on a poll interval.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobStatus, String> {
        #[expect(
            clippy::disallowed_methods,
            reason = "Engine::wait deadline: bounds how long a caller sleeps on the progress condvar, never what the job computes"
        )]
        let deadline = Instant::now() + timeout;
        let _watch = self.watch_progress();
        let mut state = lock(&self.shared.state);
        loop {
            self.shared.sweep_deadlines(&mut state);
            let status = state
                .jobs
                .get(&id)
                .map(Job::status)
                .ok_or_else(|| format!("no such job {id}"))?;
            #[expect(
                clippy::disallowed_methods,
                reason = "sweep_deadlines compares against the stamped window (and Engine::wait against its own timeout); results come from completed shards neither ever rewrites"
            )]
            let now = Instant::now();
            if status.is_stable() || now >= deadline {
                return Ok(status);
            }
            state = self
                .shared
                .progress
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Register as blocked on job progress until the returned guard
    /// drops. Register *before* inspecting a job: a transition the
    /// inspection misses then finds the registration.
    pub(crate) fn watch_progress(&self) -> ProgressWatch {
        self.shared.watchers.fetch_add(1, Ordering::SeqCst);
        ProgressWatch(Arc::clone(&self.shared))
    }

    /// Live progress watches (tests: a parked `WAIT` whose peer vanished
    /// must not leave one behind).
    #[doc(hidden)]
    pub fn progress_watchers(&self) -> usize {
        self.shared.watchers.load(Ordering::SeqCst)
    }

    /// Install the callback [`Shared::notify_progress`] runs while a
    /// watcher is registered — the server's wake channel. One per
    /// engine; `false` when one is already installed.
    pub(crate) fn set_progress_hook(&self, hook: Box<dyn Fn() + Send + Sync>) -> bool {
        self.shared.progress_hook.set(hook).is_ok()
    }

    /// Stop the worker pool: each worker finishes (and records) at most
    /// the shard it is mid-scan on — the unscanned remainder of a
    /// claimed batch is handed back — then any job left unfinished is
    /// parked in `Cancelled` (checkpoint
    /// intact) so clients see a resumable terminal state instead of a
    /// forever-queued job. This also closes the submit/shutdown race: a
    /// submission that slipped in just before the flag was set is parked
    /// here rather than stranded.
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        let mut workers = lock(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        {
            let mut state = lock(&self.shared.state);
            let st = &mut *state;
            st.queue.retain(|_| false);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "stop() cancels every job independently; per-job effect does not depend on visit order"
            )]
            for job in st.jobs.values_mut() {
                if matches!(job.state, JobState::Queued | JobState::Running) {
                    job.state = JobState::Cancelled;
                    job.error = Some("engine stopped before completion; RESUME to continue".into());
                    job.data = None;
                    st.mem_used = st.mem_used.saturating_sub(job.mem_charge);
                    job.mem_charge = 0;
                }
            }
        }
        self.shared.notify_progress();
    }
}

/// One party blocked on job progress; see [`Engine::watch_progress`].
pub(crate) struct ProgressWatch(Arc<Shared>);

impl Drop for ProgressWatch {
    fn drop(&mut self) {
        self.0.watchers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Shared {
    /// Tell whoever is blocked on job progress to look again. Every
    /// transition that can satisfy a waiter ends here: a shard recorded,
    /// CANCEL, a worker panic, a deadline expiry, `stop`.
    fn notify_progress(&self) {
        // Relaxed is enough: a watcher registers before it inspects the
        // job under the state lock and every transition is made under
        // that lock, so whenever the inspection missed the transition
        // the lock hand-over orders the registration before this load.
        if self.watchers.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.progress.notify_all();
        if let Some(hook) = self.progress_hook.get() {
            hook();
        }
    }

    /// Fail every queued/running job whose `deadline_ms=` budget has
    /// expired, drain their queued shards, and release the memory charge of
    /// any that have nothing left in flight. Runs under the state lock on
    /// every API call and worker wake, so a deadline fires even on an
    /// otherwise idle engine. Workers abandon the rest of a claimed batch
    /// through the existing failed-job abandon path. (Nothing new needs
    /// checkpointing: shard results were persisted as they landed, and the
    /// checkpoint format does not store the lifecycle state.)
    fn sweep_deadlines(&self, state: &mut EngineState) {
        #[expect(
            clippy::disallowed_methods,
            reason = "sweep_deadlines compares against the stamped window (and Engine::wait against its own timeout); results come from completed shards neither ever rewrites"
        )]
        let now = Instant::now();
        let st = &mut *state;
        let mut expired = false;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "sweep_deadlines fails every expired job independently; per-job effect does not depend on visit order"
        )]
        for job in st.jobs.values_mut() {
            if !matches!(job.state, JobState::Queued | JobState::Running) {
                continue;
            }
            let Some(deadline) = job.deadline else {
                continue;
            };
            if now < deadline {
                continue;
            }
            job.state = JobState::Failed;
            job.error = Some(format!(
                "deadline exceeded: deadline_ms={} elapsed before completion",
                job.spec.deadline_ms.unwrap_or(0)
            ));
            expired = true;
            if job.in_flight.is_empty() {
                job.data = None;
                st.mem_used = st.mem_used.saturating_sub(job.mem_charge);
                job.mem_charge = 0;
            }
        }
        if expired {
            let jobs = &st.jobs;
            st.queue.retain(|&(id, _)| {
                jobs.get(&id)
                    .map(|j| matches!(j.state, JobState::Queued | JobState::Running))
                    .unwrap_or(false)
            });
            self.notify_progress();
        }
    }

    /// Replace a finished job's files with two verified complete copies,
    /// then drop its deltas: the whole job goes to `job-<id>.ckpt`
    /// (tmp → `.prev` → rename rotation) and to `.ckpt.prev`, each is
    /// read back and compared with what was meant to be written (a torn
    /// write reports success), and only then comes one unlink per
    /// recorded shard. Any failure stops before the first unlink — the
    /// deltas stay the truth and the next restore compacts again, which
    /// is also what removes a stray an unlink failed to.
    fn compact(&self, ck: &Checkpoint) {
        let Some(dir) = &self.spool_dir else {
            return;
        };
        let fs = &*self.fs;
        let primary = ckpt_path(dir, ck.job_id);
        let prev = spool::sibling(&primary, ".prev");
        let mut bytes = Vec::new();
        let verified = |path: &Path, bytes: &[u8]| {
            if fs.read(path)? == bytes {
                Ok(())
            } else {
                Err(io::Error::other("read back differs from what was written"))
            }
        };
        let copies = ck
            .write_to(&mut bytes)
            .and_then(|()| spool::write_rotated(fs, &primary, &bytes))
            .and_then(|()| verified(&primary, &bytes))
            .and_then(|()| fs.write(&prev, &bytes))
            .and_then(|()| verified(&prev, &bytes));
        if let Err(e) = copies {
            return log_spool_error("compaction", ck.job_id, &e);
        }
        let recorded = ck.shard_results.iter().enumerate();
        for (shard, _) in recorded.filter(|(_, r)| r.is_some()) {
            let _ = fs.remove_file(&delta_path(dir, ck.job_id, shard as u64));
        }
    }
}

/// `<dir>/job-<id>.ckpt`: the header-only base from SUBMIT on, the
/// whole job after compaction.
fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ckpt"))
}

/// `<dir>/job-<id>.shard-<n>`: the delta of one recorded shard. Never
/// the extension `ckpt` — whatever lists `*.ckpt` finds whole jobs only.
fn delta_path(dir: &Path, id: u64, shard: u64) -> PathBuf {
    dir.join(format!("job-{id}.shard-{shard}"))
}

/// Job id of a spool file that holds job state (a `.tmp` does not), and
/// whether it is a delta — from its name alone.
fn parse_spool_name(path: &Path) -> Option<(u64, bool)> {
    let name = path.file_name()?.to_str()?;
    let (id, kind) = name.strip_prefix("job-")?.split_once('.')?;
    let is_delta = kind.starts_with("shard-");
    (is_delta || kind == "ckpt" || kind == "ckpt.prev").then_some((id.parse().ok()?, is_delta))
}

/// A spool write failed. The job runs on: until a crash every spool
/// file is redundant with memory, and restore takes whatever did land.
fn log_spool_error(what: &str, job_id: u64, e: &io::Error) {
    eprintln!("epi-server: {what} write for job {job_id} failed: {e}");
}

/// Queued/Running jobs accounted to `tenant` (concurrent-job quota).
fn active_tenant_jobs(jobs: &HashMap<u64, Job>, tenant: &str) -> u64 {
    let mut active = 0;
    #[expect(
        clippy::iter_over_hash_type,
        reason = "active_tenant_jobs sums a commutative per-tenant count; visit order cannot change the total"
    )]
    for job in jobs.values() {
        if job.tenant() == tenant && matches!(job.state, JobState::Queued | JobState::Running) {
            active += 1;
        }
    }
    active
}

/// Stat-only admission estimate of a job's resident footprint: the
/// on-disk binary stores one byte per genotype while the split bitplane
/// encoding packs ~4 bits per genotype, so half the file size (plus
/// fixed slack) bounds the encoded planes; [`scratch_bytes`] adds the
/// result-side scratch. Refined to [`EncodedData::resident_bytes`] once
/// the dataset is actually encoded.
fn estimate_footprint(spec: &JobSpec, root: Option<&Path>) -> Result<u64, String> {
    let path = resolve_dataset_path(&spec.path, root);
    let meta = std::fs::metadata(&path)
        .map_err(|e| format!("cannot read dataset {}: {e}", path.display()))?;
    Ok((meta.len() / 2 + 4096).saturating_add(scratch_bytes(spec)))
}

/// Result-side scratch a job can pin: one sorted candidate list per
/// owned shard, `top_k` entries each — the same per-candidate
/// accounting the kernel's cost model uses for its heap.
fn scratch_bytes(spec: &JobSpec) -> u64 {
    let owned = match &spec.shard_set {
        Some(set) => set.len(),
        None => spec.shards,
    };
    let per_candidate = std::mem::size_of::<Candidate>() as u64;
    owned
        .saturating_mul(spec.top_k.max(1) as u64)
        .saturating_mul(per_candidate)
}

/// Resolve a spec's dataset path against an optional node-local root:
/// with a root configured, only the file name of the spec path is used
/// (every node keeps its replica under its own root); without one the
/// spec path is taken verbatim.
fn resolve_dataset_path(spec_path: &str, root: Option<&Path>) -> PathBuf {
    match root {
        Some(root) => match Path::new(spec_path).file_name() {
            Some(name) => root.join(name),
            None => root.join(spec_path),
        },
        None => PathBuf::from(spec_path),
    }
}

/// Load, fingerprint, and encode a dataset for a spec's scan version.
/// When the spec pins a `dataset_hash=`, the recomputed hash of the
/// local file must match or the load fails — this is the integrity gate
/// that keeps a node with a divergent replica out of a federation.
fn load_encoded(spec: &JobSpec, root: Option<&Path>) -> Result<(EncodedData, usize, u64), String> {
    let path = resolve_dataset_path(&spec.path, root);
    let (g, p) = datagen::io::load(&path)
        .map_err(|e| format!("cannot read dataset {}: {e}", path.display()))?;
    let hash = epi_core::integrity::dataset_hash(&g, &p);
    if let Some(want) = spec.dataset_hash {
        if hash != want {
            return Err(format!(
                "hash mismatch: dataset {} hashes to {hash:016x}, spec expects {want:016x}",
                path.display()
            ));
        }
    }
    let m = g.num_snps();
    let data = match spec.version {
        Version::V1 => EncodedData::Unsplit(UnsplitDataset::encode(&g, &p)),
        _ => EncodedData::Split(SplitDataset::encode(&g, &p)),
    };
    Ok((data, m, hash))
}

/// Worker-local pair-prefix cache, keyed by (job, dataset identity), plus
/// the hit/miss counts already flushed to the shared per-worker stats.
/// The identity is a Weak to the job's Arc<EncodedData>: holding the
/// Weak keeps the allocation address from being reused even after a
/// cancel/resume drops and reloads the dataset, so pointer equality
/// is ABA-safe — and unlike a strong Arc it doesn't pin the (large)
/// encoded planes in memory while the worker idles.
struct WorkerCache {
    job_id: u64,
    data: std::sync::Weak<EncodedData>,
    cache: PairPrefixCache,
    flushed: (u64, u64),
}

fn worker_loop(shared: &Shared, widx: usize) {
    let mut cache: Option<WorkerCache> = None;
    loop {
        // Claim a run of work: the queue's front shard plus every
        // immediately consecutive shard of the same job behind it, up to
        // the balance cap — shards tile the rank range contiguously, so
        // the batch is one contiguous rank span and the worker's
        // pair-prefix cache stays warm across all of it.
        let claimed = {
            let mut state = lock(&shared.state);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let st = &mut *state;
                // Deadlines fire on worker wakes too, so an expired job
                // is failed (and its queue entries drained) even while
                // every client is silent.
                shared.sweep_deadlines(st);
                if let Some((job_id, shard)) = st.queue.pop() {
                    match st.jobs.get_mut(&job_id) {
                        Some(job)
                            if job.state == JobState::Queued || job.state == JobState::Running =>
                        {
                            job.state = JobState::Running;
                            let cap = epi_core::pool::balance_cap(
                                // the job's own shard count, not the full
                                // plan's: a shard_set sub-job should batch
                                // relative to the work it actually has
                                job.owned_total() as usize,
                                shared.workers,
                            );
                            let mut shards = vec![shard];
                            while shards.len() < cap {
                                // extend the claim only through the same
                                // dispatch lane, so batching cannot leak
                                // scheduling credit across tenants
                                #[expect(
                                    clippy::expect_used,
                                    reason = "shards starts as vec![shard] and only grows, so last() is Some"
                                )]
                                let next = *shards.last().expect("nonempty") + 1;
                                if st.queue.pop_next_consecutive((job_id, next)) {
                                    shards.push(next);
                                } else {
                                    break;
                                }
                            }
                            for &s in &shards {
                                job.in_flight.insert(s);
                            }
                            #[expect(
                                clippy::expect_used,
                                reason = "submit() stores data before the job can enter Queued; workers only see queued jobs"
                            )]
                            let data = Arc::clone(job.data.as_ref().expect("queued job has data"));
                            let ranges: Vec<_> =
                                shards.iter().map(|&s| job.plan.range(s)).collect();
                            let snps = job.plan.num_snps();
                            break Some((job_id, shards, ranges, job.spec.clone(), snps, data));
                        }
                        // job vanished or was cancelled after enqueue: drop task
                        _ => continue,
                    }
                }
                state = shared
                    .work_ready
                    .wait_timeout(state, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let Some((job_id, shards, ranges, spec, snps, data)) = claimed else {
            return;
        };

        for (bi, (&shard, range)) in shards.iter().zip(&ranges).enumerate() {
            // A shutdown must not wait for the whole batch: hand the
            // unscanned remainder back (out of in_flight, so stop() can
            // park the job resumably) and exit like the claim loop does.
            if shared.shutdown.load(Ordering::SeqCst) {
                let mut state = lock(&shared.state);
                if let Some(job) = state.jobs.get_mut(&job_id) {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "bi iterates block starts produced from shards.len() itself, so every slice start is in range"
                    )]
                    for &s in &shards[bi..] {
                        job.in_flight.remove(&s);
                    }
                }
                return;
            }
            let range = range.clone();
            // Scan outside the lock, behind a panic boundary: a panicking
            // kernel (or the injected panic_shard fault) must fail only
            // its job — the claim/record sections never unwind
            // mid-update, so catching here keeps the shared state
            // consistent and the lock recovery above is a second line of
            // defence, not the plan.
            let scanned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[expect(
                    clippy::panic,
                    reason = "deliberate fault injection behind the panic_shard spec key, used by the chaos harness to exercise crash recovery"
                )]
                if spec.panic_shard == Some(shard) {
                    panic!("injected fault (panic_shard={shard})");
                }
                if spec.throttle_ms > 0 {
                    std::thread::sleep(Duration::from_millis(spec.throttle_ms));
                }
                let cfg = spec.scan_config();
                match &*data {
                    EncodedData::Split(ds) => {
                        let same = matches!(&cache, Some(wc)
                            if wc.job_id == job_id
                                && std::ptr::eq(wc.data.as_ptr(), Arc::as_ptr(&data)));
                        if !same {
                            cache = Some(WorkerCache {
                                job_id,
                                data: Arc::downgrade(&data),
                                cache: PairPrefixCache::new(cfg.effective_simd()),
                                flushed: (0, 0),
                            });
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "the branch above inserts the cache when it is None; Some is guaranteed here"
                        )]
                        let pair_cache = &mut cache.as_mut().expect("cache just set").cache;
                        scan_shard_split_cached(ds, &cfg, range, pair_cache)
                    }
                    EncodedData::Unsplit(ds) => scan_shard_unsplit(ds, &cfg, range),
                }
            }));
            let top = match scanned {
                Ok(top) => top,
                Err(payload) => {
                    // The cache may have been mid-rebuild when the stack
                    // unwound; drop it rather than trust partial streams.
                    cache = None;
                    let msg = panic_message(payload.as_ref());
                    {
                        let mut state = lock(&shared.state);
                        let st = &mut *state;
                        // drop the job's pending shards: it cannot finish
                        st.queue.retain(|&(jid, _)| jid != job_id);
                        let Some(job) = st.jobs.get_mut(&job_id) else {
                            break;
                        };
                        // this shard and the unscanned rest of the batch
                        // are no longer in flight
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "bi iterates block starts produced from shards.len() itself, so every slice start is in range"
                        )]
                        for &s in &shards[bi..] {
                            job.in_flight.remove(&s);
                        }
                        job.state = JobState::Failed;
                        job.error = Some(format!("worker panicked on shard {shard}: {msg}"));
                        if job.in_flight.is_empty() {
                            job.data = None; // resume reloads from spec.path
                            st.mem_used = st.mem_used.saturating_sub(job.mem_charge);
                            job.mem_charge = 0;
                        }
                    }
                    shared.notify_progress();
                    break;
                }
            };
            // Flush this worker's cache-counter delta so STATS always
            // reflects completed shards pool-wide.
            #[expect(
                clippy::indexing_slicing,
                reason = "widx is the worker's own index; pair_stats is allocated with one slot per worker at engine construction"
            )]
            if let Some(wc) = &mut cache {
                let (h, m) = (wc.cache.hits(), wc.cache.misses());
                shared.pair_stats[widx]
                    .0
                    .fetch_add(h - wc.flushed.0, Ordering::Relaxed);
                shared.pair_stats[widx]
                    .1
                    .fetch_add(m - wc.flushed.1, Ordering::Relaxed);
                wc.flushed = (h, m);
            }
            shared.shards_scanned.fetch_add(1, Ordering::Relaxed);

            // The shard's delta is serialised before the lock, from what
            // this worker already holds; without a spool nothing is built.
            let sorted = top.into_sorted();
            let delta = shared.spool_dir.as_deref().and_then(|dir| {
                let mut bytes = Vec::new();
                let record = [(shard, sorted.as_slice())];
                // writing into a Vec cannot fail
                Checkpoint::write_records(&mut bytes, job_id, &spec, snps, record).ok()?;
                Some((delta_path(dir, job_id, shard), bytes))
            });

            // record the result
            #[expect(
                clippy::indexing_slicing,
                reason = "shard ids are validated against the job plan at submit/partial admission before any worker touches them"
            )]
            let (finished, abandon) = {
                let mut state = lock(&shared.state);
                let st = &mut *state;
                let Some(job) = st.jobs.get_mut(&job_id) else {
                    break;
                };
                job.in_flight.remove(&shard);
                job.shard_results[shard as usize] = Some(sorted);
                // "all done" = no *owned* shard missing — a shard_set job
                // finishes when its partition is scanned, not the plan.
                let all_done = job.missing_shards().is_empty();
                if all_done && job.state == JobState::Running {
                    job.state = JobState::Done;
                }
                if all_done && job.state == JobState::Cancelled {
                    // last in-flight shard of a cancelled job completed
                    // the job anyway — promote, nothing left to resume
                    job.state = JobState::Done;
                }
                // A cancelled (or failed) job should not keep burning CPU
                // on the rest of this batch: hand the unscanned shards
                // back (they leave in_flight, so RESUME re-enqueues them)
                // and stop after the shard that was actually mid-scan.
                let abandon = matches!(job.state, JobState::Cancelled | JobState::Failed);
                if abandon {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "bi iterates block starts produced from shards.len() itself, so every slice start is in range"
                    )]
                    for &s in &shards[bi + 1..] {
                        job.in_flight.remove(&s);
                    }
                }
                // Failed jobs park like cancelled ones: when the last
                // in-flight shard of a panic-failed job lands here,
                // release the dataset too — resume reloads it from
                // spec.path.
                let parked = matches!(job.state, JobState::Cancelled | JobState::Failed)
                    && job.in_flight.is_empty();
                if job.data.is_some() && (job.state == JobState::Done || parked) {
                    job.data = None; // release the encoded dataset; resume reloads
                    st.mem_used = st.mem_used.saturating_sub(job.mem_charge);
                    job.mem_charge = 0;
                }
                // The whole job is cloned once, by the record that
                // finishes it, and only for a spool.
                let compacts = job.state == JobState::Done && shared.spool_dir.is_some();
                (compacts.then(|| Checkpoint::of_job(job)), abandon)
            };
            // Waiters first: the disk must not delay them. Then this
            // shard's delta, and only after it the compaction, so one
            // that fails still leaves every shard on disk. Deltas have
            // distinct paths, so workers need no ordering between their
            // writes; one landing after another worker's compaction
            // unlinked its path is a stray the next restore removes.
            shared.notify_progress();
            if let Some((path, bytes)) = delta {
                if let Err(e) = shared.fs.write(&path, &bytes) {
                    log_spool_error("shard delta", job_id, &e);
                }
            }
            if let Some(ck) = finished {
                shared.compact(&ck);
            }
            if abandon {
                break;
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test-side timers bound how long a test polls; no result or checkpoint reads them"
)]
mod tests {
    use super::*;
    use crate::spool::FaultySpoolFs;
    use datagen::DatasetSpec;

    fn write_dataset(name: &str, m: usize, n: usize, seed: u64) -> PathBuf {
        let dir = std::env::temp_dir().join("epi_server_engine_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{m}x{n}-{seed}.epi3"));
        let data = DatasetSpec::with_planted_triple(m, n, [2, 5, 9], seed).generate();
        datagen::io::save_binary(&path, &data).unwrap();
        path
    }

    #[test]
    fn submit_runs_to_done_and_matches_detect() {
        let path = write_dataset("basic", 14, 256, 33);
        let engine = Engine::start(EngineConfig {
            workers: 3,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 9;
        spec.top_k = 5;
        let st = engine.submit(spec.clone()).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.done, 9);
        let got = engine.result(st.id).unwrap();

        let (g, p) = datagen::io::load(&path).unwrap();
        let mut cfg = epi_core::scan::ScanConfig::new(Version::V4);
        cfg.top_k = 5;
        let want = epi_core::scan::scan(&g, &p, &cfg).top;
        assert_eq!(got, want);
        engine.stop();
    }

    #[test]
    fn shard_set_subjobs_partition_the_plan_exactly() {
        let path = write_dataset("subset", 15, 192, 55);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        // Split one 12-shard plan into two sub-jobs with interleaved,
        // gappy ownership — the worst case for batch claiming.
        let mut spec_a = JobSpec::new(path.to_str().unwrap());
        spec_a.shards = 12;
        spec_a.top_k = 6;
        let mut spec_b = spec_a.clone();
        spec_a.shard_set = Some(ShardSet::from_indices([0, 1, 4, 5, 8, 11]));
        spec_b.shard_set = Some(ShardSet::from_indices([2, 3, 6, 7, 9, 10]));
        let a = engine.submit(spec_a).unwrap();
        let b = engine.submit(spec_b).unwrap();
        assert_eq!(a.total, 6);
        assert_eq!(b.total, 6);
        let a_done = engine.wait(a.id, Duration::from_secs(30)).unwrap();
        let b_done = engine.wait(b.id, Duration::from_secs(30)).unwrap();
        assert_eq!(a_done.state, JobState::Done);
        assert_eq!(b_done.state, JobState::Done);
        assert_eq!(a_done.done, 6);
        // exactly the 12 distinct shards were scanned — no overlap
        assert_eq!(engine.shards_scanned(), 12);
        assert_eq!(
            engine.shards_done(a.id).unwrap(),
            ShardSet::from_indices([0, 1, 4, 5, 8, 11])
        );

        // merging the two partitions per shard index reproduces the
        // monolithic scan bit-for-bit
        let mut top = epi_core::result::TopK::new(6);
        for id in [a.id, b.id] {
            for (_, cands) in engine.partial(id, &ShardSet::new()).unwrap() {
                for c in cands {
                    top.push(c.score, c.triple);
                }
            }
        }
        let (g, p) = datagen::io::load(&path).unwrap();
        let mut cfg = epi_core::scan::ScanConfig::new(Version::V5);
        cfg.top_k = 6;
        let want = epi_core::scan::scan(&g, &p, &cfg).top;
        let got = top.into_sorted();
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.triple, b.triple);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        // out-of-range shard_set is rejected at submit
        let mut bad = JobSpec::new(path.to_str().unwrap());
        bad.shards = 12;
        bad.shard_set = Some(ShardSet::from_indices([12]));
        assert!(engine.submit(bad).unwrap_err().contains("out of range"));
        engine.stop();
    }

    #[test]
    fn concurrent_jobs_share_the_pool() {
        let path_a = write_dataset("a", 12, 128, 1);
        let path_b = write_dataset("b", 13, 96, 2);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec_a = JobSpec::new(path_a.to_str().unwrap());
        spec_a.shards = 5;
        let mut spec_b = JobSpec::new(path_b.to_str().unwrap());
        spec_b.shards = 6;
        spec_b.version = Version::V2;
        let a = engine.submit(spec_a).unwrap();
        let b = engine.submit(spec_b).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(
            engine.wait(a.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(
            engine.wait(b.id, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(engine.shards_scanned(), 11);
        engine.stop();
    }

    #[test]
    fn forced_tier_is_clamped_echoed_and_bit_identical() {
        use bitgenome::SimdLevel;
        let path = write_dataset("simd", 13, 128, 17);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });

        // unforced reference
        let base = engine.submit(JobSpec::new(path.to_str().unwrap())).unwrap();
        assert_eq!(base.simd, None);
        engine.wait(base.id, Duration::from_secs(30)).unwrap();
        let want = engine.result(base.id).unwrap();

        // every forced tier (requesting above the host clamps, never
        // crashes) produces the bit-identical result and echoes the
        // clamped tier in its status
        for requested in [
            SimdLevel::Scalar,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
            SimdLevel::Avx512Vpopcnt,
        ] {
            let mut spec = JobSpec::new(path.to_str().unwrap());
            spec.simd = Some(requested);
            let st = engine.submit(spec).unwrap();
            assert_eq!(st.simd, Some(requested.clamped_to_host()), "{requested}");
            engine.wait(st.id, Duration::from_secs(30)).unwrap();
            let got = engine.result(st.id).unwrap();
            assert_eq!(got.len(), want.len(), "{requested}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.triple, b.triple, "{requested}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{requested}");
            }
        }
        // a forced tier on a definitionally scalar version (V1-V3) is
        // echoed as the tier that actually runs, not the raw request
        let mut v2_spec = JobSpec::new(path.to_str().unwrap());
        v2_spec.version = Version::V2;
        v2_spec.simd = Some(SimdLevel::Avx2);
        let st = engine.submit(v2_spec).unwrap();
        assert_eq!(st.simd, Some(SimdLevel::Scalar), "V2 runs scalar");
        engine.wait(st.id, Duration::from_secs(30)).unwrap();
        engine.stop();

        // a server-wide default tier applies to specs without simd=
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: Some(SimdLevel::Scalar),
            dataset_root: None,
            ..EngineConfig::default()
        });
        let st = engine.submit(JobSpec::new(path.to_str().unwrap())).unwrap();
        assert_eq!(st.simd, Some(SimdLevel::Scalar));
        engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(engine.result(st.id).unwrap(), want);
        engine.stop();
    }

    #[test]
    fn pool_cache_stats_cover_every_worker_and_survive_batching() {
        let path = write_dataset("stats", 16, 128, 77);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 20;
        spec.version = Version::V5;
        let st = engine.submit(spec).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(engine.shards_scanned(), 20, "batching must not rescan");

        let stats = engine.pair_cache_stats();
        assert_eq!(stats.per_worker.len(), engine.num_workers());
        // every triple consulted the cache exactly once, pool-wide
        assert_eq!(
            stats.hits() + stats.misses(),
            epi_core::combin::num_triples(16)
        );
        // run-aware batch claiming keeps the pool's rate at the
        // sequential level: misses bounded by prefixes + a rebuild per
        // batch boundary
        assert!(
            stats.misses() <= epi_core::combin::n_choose_k(15, 2) + 20,
            "{stats:?}"
        );
        assert!(stats.hit_rate() > 0.5, "{stats:?}");
        assert!(stats.min_hit_rate() <= stats.max_hit_rate());

        // and the merged result is still the monolithic answer
        let (g, p) = datagen::io::load(&path).unwrap();
        let mut cfg = epi_core::scan::ScanConfig::new(Version::V5);
        cfg.top_k = 10;
        assert_eq!(
            engine.result(st.id).unwrap(),
            epi_core::scan::scan(&g, &p, &cfg).top
        );
        engine.stop();
    }

    #[test]
    fn bad_path_is_rejected_at_submit() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        assert!(engine.submit(JobSpec::new("/no/such/file.epi3")).is_err());
        assert!(engine.status(99).is_err());
        assert!(engine.result(1).is_err());
        engine.stop();
    }

    #[test]
    fn tiny_dataset_completes_immediately() {
        let dir = std::env::temp_dir().join("epi_server_engine_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.epi3");
        let data = DatasetSpec::noise(2, 16, 5).generate();
        datagen::io::save_binary(&path, &data).unwrap();
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let st = engine.submit(JobSpec::new(path.to_str().unwrap())).unwrap();
        assert_eq!(st.state, JobState::Done);
        assert!(engine.result(st.id).unwrap().is_empty());
        engine.stop();
    }

    #[test]
    fn cancel_then_resume_never_rescans() {
        let path = write_dataset("resume", 16, 200, 7);
        let spool = std::env::temp_dir().join(format!("epi_server_spool_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: Some(spool.clone()),
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 24;
        spec.throttle_ms = 20; // make the cancel window deterministic
        let st = engine.submit(spec).unwrap();
        // let a few shards complete, then cancel
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let s = engine.status(st.id).unwrap();
            if s.done >= 3 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        let cancelled = engine.cancel(st.id).unwrap();
        // in-flight shards may still land; wait for quiescence
        let quiesced = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert!(matches!(
            quiesced.state,
            JobState::Cancelled | JobState::Done
        ));
        let after_cancel = engine.status(st.id).unwrap().done;
        assert!(after_cancel >= cancelled.done);
        assert!(
            after_cancel < 24,
            "cancel landed too late for the test to mean anything"
        );
        let scanned_before_resume = engine.shards_scanned();
        assert_eq!(scanned_before_resume, after_cancel);

        let resumed = engine.resume(st.id).unwrap();
        assert_eq!(resumed.state, JobState::Queued);
        let done = engine.wait(st.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, JobState::Done);
        // the no-rescan proof: total scans == total shards
        assert_eq!(engine.shards_scanned(), 24);

        // and the result is still exactly the monolithic scan
        let (g, p) = datagen::io::load(&path).unwrap();
        let mut cfg = epi_core::scan::ScanConfig::new(Version::V4);
        cfg.top_k = 10;
        assert_eq!(
            engine.result(st.id).unwrap(),
            epi_core::scan::scan(&g, &p, &cfg).top
        );
        engine.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn immediate_resume_after_cancel_does_not_rescan_in_flight_shards() {
        let path = write_dataset("hotresume", 15, 180, 3);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 18;
        spec.throttle_ms = 25;
        let st = engine.submit(spec).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.status(st.id).unwrap().done < 2 {
            assert!(std::time::Instant::now() < deadline, "no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        // cancel and resume back-to-back, while shards are still in
        // flight — the resume must not re-enqueue mid-scan shards
        engine.cancel(st.id).unwrap();
        engine.resume(st.id).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(
            engine.shards_scanned(),
            18,
            "every shard must be scanned exactly once despite cancel+resume racing in-flight work"
        );
        engine.stop();
    }

    #[test]
    fn cancel_releases_the_encoded_dataset() {
        let path = write_dataset("memrelease", 14, 150, 8);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 12;
        spec.throttle_ms = 20;
        let st = engine.submit(spec).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.status(st.id).unwrap().done < 1 {
            assert!(std::time::Instant::now() < deadline, "no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        engine.cancel(st.id).unwrap();
        engine.wait(st.id, Duration::from_secs(30)).unwrap();
        {
            let state = lock(&engine.shared.state);
            let job = state.jobs.get(&st.id).unwrap();
            if job.state == JobState::Cancelled {
                assert!(
                    job.data.is_none(),
                    "parked cancelled job must not hold the encoded dataset"
                );
            }
        }
        // resume still works: the dataset is reloaded from disk
        engine.resume(st.id).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, JobState::Done);
        engine.stop();
    }

    #[test]
    fn worker_panic_fails_the_job_without_wedging_the_engine() {
        let path = write_dataset("panic", 13, 120, 21);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 8;
        spec.panic_shard = Some(3); // injected fault
        let st = engine.submit(spec).unwrap();
        let failed = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(failed.state, JobState::Failed);
        let err = failed.error.expect("failure diagnostic");
        assert!(
            err.contains("panicked on shard 3") && err.contains("injected fault"),
            "unhelpful error: {err}"
        );
        // shard 3 was never counted as scanned, and the queue was drained
        assert!(engine.status(st.id).unwrap().done < 8);
        // the parked failed job must not pin the encoded dataset
        {
            let state = lock(&engine.shared.state);
            assert!(
                state.jobs.get(&st.id).unwrap().data.is_none(),
                "failed job must release the dataset once no shard is in flight"
            );
        }

        // every verb still works and a healthy job runs to completion —
        // the panic must not have wedged the engine
        assert!(engine.result(st.id).is_err());
        assert!(engine.cancel(st.id).is_ok());
        let healthy = engine.submit(JobSpec::new(path.to_str().unwrap())).unwrap();
        let done = engine.wait(healthy.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert!(!engine.result(healthy.id).unwrap().is_empty());
        engine.stop();
    }

    #[test]
    fn stop_does_not_wait_for_a_whole_claimed_batch() {
        let path = write_dataset("faststop", 16, 128, 13);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 20; // one worker claims a batch of up to 10
        spec.throttle_ms = 100;
        let st = engine.submit(spec).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.status(st.id).unwrap().done < 1 {
            assert!(std::time::Instant::now() < deadline, "no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        let done_before = engine.status(st.id).unwrap().done;
        engine.stop();
        // Structural bound, immune to runner load: the worker may finish
        // only the shard it was mid-scan on (plus at most one that
        // completed while stop() raced the status read) — draining the
        // whole 10-shard batch would add ~9.
        let parked = engine.status(st.id).unwrap();
        assert!(
            parked.done <= done_before + 2,
            "worker drained its batch after stop: {done_before} -> {}",
            parked.done
        );
        // the job parks resumably: terminal state, nothing in flight,
        // and the handed-back shards are recorded as missing, not lost
        assert_eq!(parked.state, JobState::Cancelled);
        assert_eq!(parked.in_flight, 0);
        assert!(parked.done < 20);
    }

    #[test]
    fn poisoned_state_lock_is_recovered() {
        let path = write_dataset("poison", 12, 96, 4);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        // Poison the state mutex the hard way: panic while holding it.
        let shared = Arc::clone(&engine.shared);
        let _ = std::thread::spawn(move || {
            let _guard = lock(&shared.state);
            panic!("deliberate poison");
        })
        .join();
        assert!(engine.shared.state.is_poisoned());
        // Every verb must recover the lock instead of crashing.
        assert!(engine.jobs().is_empty());
        assert!(engine.status(1).is_err());
        let st = engine.submit(JobSpec::new(path.to_str().unwrap())).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        engine.stop();
    }

    #[test]
    fn checkpoint_restores_across_engine_restarts() {
        let path = write_dataset("restart", 14, 160, 11);
        let spool = std::env::temp_dir().join(format!("epi_server_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);

        // first engine: run some shards, cancel, stop
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(spool.clone()),
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 16;
        spec.throttle_ms = 15;
        let st = engine.submit(spec).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.status(st.id).unwrap().done < 2 {
            assert!(std::time::Instant::now() < deadline, "no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        engine.cancel(st.id).unwrap();
        engine.wait(st.id, Duration::from_secs(30)).unwrap();
        let first_run_done = engine.status(st.id).unwrap().done;
        assert!(first_run_done >= 2);
        engine.stop();

        // second engine restores the checkpoint from the spool
        let engine2 = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: Some(spool.clone()),
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let restored = engine2.status(st.id).unwrap();
        assert!(matches!(
            restored.state,
            JobState::Cancelled | JobState::Done
        ));
        assert_eq!(restored.done, first_run_done);
        engine2.resume(st.id).unwrap();
        let done = engine2.wait(st.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, JobState::Done);
        // only the missing shards were scanned in the second engine
        assert_eq!(engine2.shards_scanned(), 16 - first_run_done);
        let (g, p) = datagen::io::load(&path).unwrap();
        let mut cfg = epi_core::scan::ScanConfig::new(Version::V4);
        cfg.top_k = 10;
        assert_eq!(
            engine2.result(st.id).unwrap(),
            epi_core::scan::scan(&g, &p, &cfg).top
        );
        engine2.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn dataset_hash_gate_admits_matching_and_rejects_divergent_files() {
        let path = write_dataset("hashgate", 12, 128, 77);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let (g, p) = datagen::io::load(&path).unwrap();
        let want = epi_core::integrity::dataset_hash(&g, &p);

        // the pinned hash matches the file: accepted, and STATUS echoes it
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 4;
        spec.dataset_hash = Some(want);
        let st = engine.submit(spec.clone()).unwrap();
        assert_eq!(st.dataset_hash, Some(want));
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);

        // a divergent pin is refused at the protocol boundary — no job,
        // no shard ever scanned against the wrong data
        let scanned_before = engine.shards_scanned();
        spec.dataset_hash = Some(want ^ 1);
        let err = engine.submit(spec).unwrap_err();
        assert!(err.contains("hash mismatch"), "unhelpful error: {err}");
        assert!(
            err.contains(&format!("{want:016x}")),
            "got-hash missing: {err}"
        );
        assert_eq!(engine.shards_scanned(), scanned_before);

        // an unpinned spec still reports the computed hash for
        // coordinator-side cross-checks
        let mut unpinned = JobSpec::new(path.to_str().unwrap());
        unpinned.shards = 2;
        let st = engine.submit(unpinned).unwrap();
        assert_eq!(st.dataset_hash, Some(want));
        engine.stop();
    }

    #[test]
    fn hash_mismatch_at_resume_parks_the_job_failed_with_the_error_in_status() {
        let path = write_dataset("hashresume", 12, 128, 78);
        let spool = std::env::temp_dir().join(format!("epi_hashresume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(spool.clone()),
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let (g, p) = datagen::io::load(&path).unwrap();
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 8;
        spec.throttle_ms = 10;
        spec.dataset_hash = Some(epi_core::integrity::dataset_hash(&g, &p));
        let st = engine.submit(spec).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.status(st.id).unwrap().done < 1 {
            assert!(std::time::Instant::now() < deadline, "no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        engine.cancel(st.id).unwrap();
        engine.wait(st.id, Duration::from_secs(30)).unwrap();

        // 'replica drift': same shape, different content, same path
        let drifted = DatasetSpec::with_planted_triple(12, 128, [2, 5, 9], 9999).generate();
        datagen::io::save_binary(&path, &drifted).unwrap();

        let err = engine.resume(st.id).unwrap_err();
        assert!(err.contains("hash mismatch"), "unhelpful error: {err}");
        let status = engine.status(st.id).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.unwrap().contains("hash mismatch"));
        engine.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn dataset_root_resolves_spec_paths_as_local_file_names() {
        // node-local replica layout: the spec carries the coordinator's
        // absolute path, the node resolves just the file name under its
        // own root
        let path = write_dataset("rooted", 12, 128, 79);
        let root = std::env::temp_dir().join(format!("epi_dataroot_{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let local = root.join(path.file_name().unwrap());
        std::fs::copy(&path, &local).unwrap();
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: Some(root.clone()),
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(format!(
            "/somewhere/else/{}",
            path.file_name().unwrap().to_str().unwrap()
        ));
        spec.shards = 3;
        let st = engine.submit(spec).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        engine.stop();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fail_partial_injects_protocol_errors_then_recovers() {
        let path = write_dataset("failpartial", 12, 128, 80);
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 4;
        spec.fail_partial = 2;
        let st = engine.submit(spec).unwrap();
        engine.wait(st.id, Duration::from_secs(30)).unwrap();
        // exactly the first two harvests fail, the third succeeds in full
        for _ in 0..2 {
            let err = engine.partial(st.id, &ShardSet::new()).unwrap_err();
            assert!(err.contains("injected fault"), "{err}");
        }
        let harvest = engine.partial(st.id, &ShardSet::new()).unwrap();
        assert_eq!(harvest.len(), 4);
        engine.stop();
    }

    #[test]
    fn memory_budget_refuses_then_admits_after_release() {
        let path = write_dataset("budget", 14, 256, 91);
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 4;
        spec.throttle_ms = 25;
        // budget sized so the first job fits but a concurrent second
        // (its resident charge + the newcomer's stat estimate) does not
        let est = estimate_footprint(&spec, None).unwrap();
        let (data, _, _) = load_encoded(&spec, None).unwrap();
        let actual = data.resident_bytes() + scratch_bytes(&spec);
        drop(data);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            mem_budget: Some(actual + est - 1),
            ..EngineConfig::default()
        });
        let a = engine.submit(spec.clone()).unwrap();
        assert!(engine.mem_used() > 0, "admitted job carries no charge");
        let err = engine.submit(spec.clone()).unwrap_err();
        assert!(
            err.contains("over capacity (retry_after_ms="),
            "refusal lacks the retry contract: {err}"
        );
        assert_eq!(engine.rejected(), 1);
        // the refusal allocated nothing: the accountant still charges
        // exactly the admitted job
        assert_eq!(engine.mem_used(), actual);

        let done = engine.wait(a.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        // completion releases the encoded planes and their charge …
        assert_eq!(engine.mem_used(), 0);
        // … so the retried submission now clears admission
        let b = engine.submit(spec).unwrap();
        let done = engine.wait(b.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(engine.mem_used(), 0);
        engine.stop();
    }

    #[test]
    fn tenant_quotas_bound_jobs_and_queued_shards() {
        let path = write_dataset("quota", 14, 192, 92);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            max_jobs_per_tenant: Some(1),
            max_queued_per_tenant: Some(8),
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 4;
        spec.throttle_ms = 25;
        spec.tenant = Some("acme".into());
        let a = engine.submit(spec.clone()).unwrap();
        // same tenant, second concurrent job: refused by the job quota
        let err = engine.submit(spec.clone()).unwrap_err();
        assert!(err.contains("over capacity"), "{err}");
        assert!(err.contains("quota 1"), "{err}");
        // a different tenant is unaffected by acme's quota …
        let mut other = spec.clone();
        other.tenant = Some("zeta".into());
        let b = engine.submit(other).unwrap();
        // … but the queued-shard quota bounds any single tenant's
        // backlog (9 incoming > 8 allowed)
        let mut wide = spec.clone();
        wide.tenant = Some("theta".into());
        wide.shards = 9;
        let err = engine.submit(wide).unwrap_err();
        assert!(err.contains("queued shards (quota 8)"), "{err}");
        assert_eq!(engine.rejected(), 2);
        let tenants = engine.tenant_jobs();
        assert_eq!(tenants, vec![("acme".into(), 1), ("zeta".into(), 1)]);
        for id in [a.id, b.id] {
            let done = engine.wait(id, Duration::from_secs(30)).unwrap();
            assert_eq!(done.state, JobState::Done);
        }
        // drained tenants disappear from the accounting
        assert!(engine.tenant_jobs().is_empty());
        assert_eq!(engine.queue_depth(), 0);
        engine.stop();
    }

    #[test]
    fn job_token_is_idempotent_within_a_run_and_across_restart() {
        let path = write_dataset("token", 14, 160, 93);
        let spool = std::env::temp_dir().join(format!("epi_token_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(spool.clone()),
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 4;
        spec.job_token = Some("tok-1".into());
        let first = engine.submit(spec.clone()).unwrap();
        // the retried SUBMIT is echoed the existing job, never duplicated
        let echoed = engine.submit(spec.clone()).unwrap();
        assert_eq!(echoed.id, first.id);
        assert_eq!(engine.jobs().len(), 1);
        let done = engine.wait(first.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(engine.shards_scanned(), 4);
        engine.stop();

        // idempotency survives a server restart: the token is
        // re-registered from the spool, so a client retry that straddles
        // the crash still cannot double-scan
        let engine2 = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(spool.clone()),
            ..EngineConfig::default()
        });
        let echoed = engine2.submit(spec).unwrap();
        assert_eq!(echoed.id, first.id);
        assert_eq!(echoed.state, JobState::Done);
        assert_eq!(engine2.shards_scanned(), 0);
        engine2.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn deadline_expiry_fails_the_job_and_releases_its_memory() {
        let path = write_dataset("deadline", 14, 192, 94);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // the worker is busy with a bulk job while the deadlined job
        // waits its turn — exactly the overload shape deadlines exist for
        let mut bulk = JobSpec::new(path.to_str().unwrap());
        bulk.shards = 8;
        bulk.throttle_ms = 30;
        let b = engine.submit(bulk).unwrap();
        let mut hot = JobSpec::new(path.to_str().unwrap());
        hot.shards = 4;
        hot.deadline_ms = Some(1);
        let h = engine.submit(hot).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let st = engine.status(h.id).unwrap();
        assert_eq!(st.state, JobState::Failed);
        let err = st.error.unwrap_or_default();
        assert!(err.contains("deadline exceeded: deadline_ms=1"), "{err}");
        let done = engine.wait(b.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        // both the expired job's queue entries and its charge are gone
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.mem_used(), 0);
        engine.stop();
    }

    #[test]
    fn high_priority_job_completes_while_bulk_scan_still_runs() {
        let path = write_dataset("prio", 14, 160, 95);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut bulk = JobSpec::new(path.to_str().unwrap());
        bulk.shards = 40;
        bulk.throttle_ms = 10;
        bulk.priority = 0;
        let b = engine.submit(bulk).unwrap();
        let mut hot = JobSpec::new(path.to_str().unwrap());
        hot.shards = 3;
        hot.throttle_ms = 10;
        hot.priority = 9;
        let h = engine.submit(hot).unwrap();
        let hot_done = engine.wait(h.id, Duration::from_secs(30)).unwrap();
        assert_eq!(hot_done.state, JobState::Done);
        // weighted-fair dispatch: the interactive job finished while the
        // bulk scan — submitted first, 13x the shards — is still going
        let bulk_st = engine.status(b.id).unwrap();
        assert!(
            bulk_st.done < 40,
            "bulk scan finished before the high-priority job"
        );
        let done = engine.wait(b.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, JobState::Done);
        engine.stop();
    }

    #[test]
    fn torn_spool_primary_restores_from_the_rotated_prev() {
        let path = write_dataset("torn", 14, 160, 96);
        let spool = std::env::temp_dir().join(format!("epi_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let engine = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(spool.clone()),
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 6;
        let st = engine.submit(spec).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        let want = engine.result(st.id).unwrap();
        engine.stop();

        // tear the primary mid-record (a crash between write and flush)
        let primary = spool.join(format!("job-{}.ckpt", st.id));
        let bytes = std::fs::read(&primary).unwrap();
        std::fs::write(&primary, &bytes[..bytes.len() / 2]).unwrap();

        // restart: no panic, and the job comes back from the `.prev`
        // rotation — the last good checkpoint before the torn write
        let engine2 = Engine::start(EngineConfig {
            workers: 1,
            spool_dir: Some(spool.clone()),
            ..EngineConfig::default()
        });
        let restored = engine2.status(st.id).unwrap();
        assert!(restored.done >= 1, "no shard survived the torn primary");
        // completed shards recover bit-identically; the torn-off tail is
        // rescanned by resume, never invented
        engine2.resume(st.id).unwrap();
        let done = engine2.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(engine2.result(st.id).unwrap(), want);
        engine2.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn seeded_spool_chaos_recovers_bit_identical_results() {
        // Every spool write runs behind a seeded fault schedule
        // (ENOSPC / EIO / torn writes); whatever the faults leave on
        // disk, a restart must restore a loadable checkpoint and resume
        // to the exact monolithic result. EPI3_SPOOL_SEED picks the
        // schedule (the CI chaos legs run two).
        let seed: u64 = std::env::var("EPI3_SPOOL_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let path = write_dataset("chaos", 14, 160, 97);
        let spool =
            std::env::temp_dir().join(format!("epi_spool_chaos_{seed}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let faulty = Arc::new(FaultySpoolFs::seeded(seed));
        let engine = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: Some(spool.clone()),
            spool_fs: Some(faulty.clone()),
            ..EngineConfig::default()
        });
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 12;
        spec.top_k = 6;
        let st = engine.submit(spec).unwrap();
        let done = engine.wait(st.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        let want = engine.result(st.id).unwrap();
        engine.stop();
        assert!(faulty.faults_injected() > 0, "schedule injected nothing");

        // restart on the *real* filesystem: whatever the fault schedule
        // did to the spool, the rotation discipline must have left a
        // loadable last-good checkpoint
        let engine2 = Engine::start(EngineConfig {
            workers: 2,
            spool_dir: Some(spool.clone()),
            ..EngineConfig::default()
        });
        let restored = engine2
            .status(st.id)
            .expect("no loadable checkpoint survived the fault schedule");
        if restored.state != JobState::Done {
            engine2.resume(st.id).unwrap();
            let done = engine2.wait(st.id, Duration::from_secs(30)).unwrap();
            assert_eq!(done.state, JobState::Done);
        }
        // completed shards recovered bit-identically: the merged result
        // equals the pre-crash scan exactly
        assert_eq!(engine2.result(st.id).unwrap(), want);
        engine2.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }
}
