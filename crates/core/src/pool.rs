//! Hand-rolled dynamic thread pool.
//!
//! The paper parallelises the CPU scan with "a thread pool [where] each
//! core fetches a task … defined dynamically in order to improve load
//! balancing", keeping scores thread-local and reducing at the end
//! (§IV-A). This module is that scheme: a shared atomic task cursor,
//! scoped worker threads, per-worker state, and a final collection — no
//! locks in the steady state.
//!
//! Two claiming granularities are provided:
//!
//! * [`run_dynamic`] — the original per-task (or fixed-chunk) cursor;
//! * [`run_claims`] over a [`plan_claims`] plan — **run-aware** claiming:
//!   the caller groups the task sequence into *runs* of tasks that share
//!   cacheable state (the `(b0, b1)` block pair of the blocked V5 kernel,
//!   the contiguous rank span of a shard batch) and workers claim whole
//!   runs, so per-worker LRU caches stay hot instead of collapsing the
//!   moment a second worker appears. Oversized runs are tail-split for
//!   balance; the claim plan is precomputed, so the steady state is still
//!   a single `fetch_add` per claim.
//!
//! The higher-level drivers in [`crate::scan`] can also run on Rayon; the
//! benches compare both (the pool is the closer analogue of the paper's
//! OpenMP `schedule(dynamic)`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a thread-count request: `0` means "all available cores", and
/// any explicit request is clamped to the host's available parallelism —
/// a CPU-bound scan gains nothing from oversubscription, and silently
/// spawning 512 workers on an 8-core box only costs memory and context
/// switches. (The thread-invariance tests deliberately bypass this via
/// [`run_claims`]' exact worker count, so workers interleave for real on
/// small hosts.)
pub fn resolve_threads(requested: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested > 0 {
        requested.min(avail)
    } else {
        avail
    }
}

/// A contiguous claim of tasks `[start, end)` — the unit workers fetch
/// under run-aware claiming.
pub type Claim = (usize, usize);

/// The balance cap of run-aware claiming: the largest claim (in tasks)
/// a plan over `total` tasks and `workers` workers may hand out — half a
/// worker's fair share. Shared by [`plan_claims`] and the epi-server
/// engine's shard batching, so the two stay in lockstep by construction.
pub fn balance_cap(total: usize, workers: usize) -> usize {
    total.div_ceil(2 * workers.max(1)).max(1)
}

/// Group a task sequence into claims along its *run* structure.
///
/// `run_lens` are the lengths of consecutive task runs (tasks inside one
/// run share per-worker cacheable state; their order is preserved). Every
/// run becomes one claim, except runs longer than the [`balance_cap`]
/// `⌈total / 2·workers⌉`, which are tail-split into cap-sized pieces so no
/// single claim can hold more than half a worker's fair share hostage at
/// the end of the scan. Splitting costs at most one extra cache refill
/// per piece, so the cap trades a bounded locality loss for bounded
/// imbalance.
pub fn plan_claims(run_lens: &[usize], workers: usize) -> Vec<Claim> {
    let total: usize = run_lens.iter().sum();
    let cap = balance_cap(total, workers);
    let mut claims = Vec::with_capacity(run_lens.len());
    let mut start = 0usize;
    for &len in run_lens {
        let end = start + len;
        let mut s = start;
        while end - s > cap {
            claims.push((s, s + cap));
            s += cap;
        }
        if s < end {
            claims.push((s, end));
        }
        start = end;
    }
    claims
}

/// Run a precomputed claim plan over exactly `workers` workers (bounded
/// by the claim count), with dynamic self-scheduling at claim
/// granularity: workers `fetch_add` a claim index and process that
/// claim's tasks in order, keeping per-worker state across claims.
///
/// The worker count is honored exactly — no host clamping — because this
/// is the primitive the thread-invariance tests oversubscribe on
/// purpose; callers that accept user input resolve through
/// [`resolve_threads`] first.
pub fn run_claims<S, MS, T>(claims: &[Claim], workers: usize, make_state: MS, task: T) -> Vec<S>
where
    S: Send,
    MS: Fn() -> S + Sync,
    T: Fn(usize, &mut S) + Sync,
{
    run_claim_fn(claims.len(), &|c| claims[c], workers, make_state, task)
}

/// The shared self-scheduling driver: `n_claims` claims produced on
/// demand by `claim(index)`, drained by exactly `workers` scoped workers
/// through one atomic cursor.
fn run_claim_fn<S, MS, T>(
    n_claims: usize,
    claim: &(impl Fn(usize) -> Claim + Sync),
    workers: usize,
    make_state: MS,
    task: T,
) -> Vec<S>
where
    S: Send,
    MS: Fn() -> S + Sync,
    T: Fn(usize, &mut S) + Sync,
{
    let threads = workers.max(1).min(n_claims.max(1));
    let cursor = AtomicUsize::new(0);
    let mut states: Vec<Option<S>> = Vec::new();
    states.resize_with(threads, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let make_state = &make_state;
            let task = &task;
            handles.push(scope.spawn(move || {
                let mut state = make_state();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_claims {
                        break;
                    }
                    let (start, end) = claim(c);
                    for idx in start..end {
                        task(idx, &mut state);
                    }
                }
                state
            }));
        }
        for (slot, handle) in states.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("worker thread panicked"));
        }
    });

    states.into_iter().flatten().collect()
}

/// Aggregated per-worker cache statistics of one parallel scan: one
/// `(hits, misses)` pair per worker, summed and min/maxed so gates can
/// judge the *whole pool* instead of whichever worker happened to be
/// index 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolCacheStats {
    /// `(hits, misses)` per worker, in worker order.
    pub per_worker: Vec<(u64, u64)>,
}

impl PoolCacheStats {
    /// Total hits across all workers.
    pub fn hits(&self) -> u64 {
        self.per_worker.iter().map(|&(h, _)| h).sum()
    }

    /// Total misses across all workers.
    pub fn misses(&self) -> u64 {
        self.per_worker.iter().map(|&(_, m)| m).sum()
    }

    /// Pool-wide `hits / (hits + misses)`, or 0 before any call.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Lowest per-worker hit rate (workers that made no calls excluded);
    /// 0 when no worker made a call.
    pub fn min_hit_rate(&self) -> f64 {
        self.worker_rates().reduce(f64::min).unwrap_or(0.0)
    }

    /// Highest per-worker hit rate (workers that made no calls excluded).
    pub fn max_hit_rate(&self) -> f64 {
        self.worker_rates().reduce(f64::max).unwrap_or(0.0)
    }

    fn worker_rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_worker
            .iter()
            .filter(|&&(h, m)| h + m > 0)
            .map(|&(h, m)| h as f64 / (h + m) as f64)
    }
}

/// Run `n_tasks` tasks over `threads` workers with dynamic self-scheduling
/// in chunks of `chunk` tasks, returning every worker's final state.
///
/// * `make_state` creates the thread-local state (e.g. a `TopK`);
/// * `task(idx, state)` processes task `idx`.
///
/// Tasks are claimed with a single `fetch_add` per chunk; larger chunks
/// amortise contention for very cheap tasks, `chunk = 1` maximises balance
/// for expensive ones.
pub fn run_dynamic<S, MS, T>(
    n_tasks: usize,
    threads: usize,
    chunk: usize,
    make_state: MS,
    task: T,
) -> Vec<S>
where
    S: Send,
    MS: Fn() -> S + Sync,
    T: Fn(usize, &mut S) + Sync,
{
    let threads = resolve_threads(threads).min(n_tasks.max(1));
    let chunk = chunk.max(1);
    let n_claims = n_tasks.div_ceil(chunk);
    run_claim_fn(
        n_claims,
        &|c| (c * chunk, (c * chunk + chunk).min(n_tasks)),
        threads,
        make_state,
        task,
    )
}

/// Run `n_tasks` over `threads` workers with a *static* even split
/// (contiguous ranges). Provided as the ablation counterpart of
/// [`run_dynamic`] — the paper chose dynamic scheduling precisely because
/// triangular triple enumeration makes static splits imbalanced.
pub fn run_static<S, MS, T>(n_tasks: usize, threads: usize, make_state: MS, task: T) -> Vec<S>
where
    S: Send,
    MS: Fn() -> S + Sync,
    T: Fn(usize, &mut S) + Sync,
{
    let threads = resolve_threads(threads).min(n_tasks.max(1));
    let per = n_tasks.div_ceil(threads);
    let mut states: Vec<Option<S>> = Vec::new();
    states.resize_with(threads, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let make_state = &make_state;
            let task = &task;
            handles.push(scope.spawn(move || {
                let mut state = make_state();
                let start = t * per;
                let end = ((t + 1) * per).min(n_tasks);
                for idx in start..end {
                    task(idx, &mut state);
                }
                state
            }));
        }
        for (slot, handle) in states.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("worker thread panicked"));
        }
    });

    states.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dynamic_processes_every_task_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let states = run_dynamic(
            n,
            4,
            7,
            || 0u64,
            |idx, count| {
                hits[idx].fetch_add(1, Ordering::Relaxed);
                *count += 1;
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(states.iter().sum::<u64>(), n as u64);
    }

    #[test]
    fn static_processes_every_task_exactly_once() {
        let n = 103;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let states = run_static(
            n,
            5,
            || 0u64,
            |idx, count| {
                hits[idx].fetch_add(1, Ordering::Relaxed);
                *count += 1;
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(states.iter().sum::<u64>(), n as u64);
    }

    #[test]
    fn sum_reduction_matches_serial() {
        let n = 500usize;
        let want: u64 = (0..n as u64).sum();
        for threads in [1, 2, 8] {
            let states = run_dynamic(n, threads, 3, || 0u64, |idx, acc| *acc += idx as u64);
            assert_eq!(states.iter().sum::<u64>(), want);
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let states = run_dynamic(0, 4, 1, || 1u32, |_, _| unreachable!());
        assert!(states.len() <= 1);
    }

    #[test]
    fn more_threads_than_tasks_is_clamped() {
        let states = run_dynamic(2, 64, 1, || 0u32, |_, c| *c += 1);
        assert!(states.len() <= 2);
        assert_eq!(states.iter().sum::<u32>(), 2);
    }

    #[test]
    fn resolve_threads_zero_means_all_and_requests_are_clamped() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(0), avail);
        assert_eq!(resolve_threads(1), 1);
        // silent oversubscription is clamped to the host's parallelism
        assert_eq!(resolve_threads(3), 3.min(avail));
        assert_eq!(resolve_threads(10_000), avail);
    }

    #[test]
    fn plan_claims_preserves_runs_and_tiles_the_range() {
        // 3 runs over 10 tasks, 2 workers: cap = ceil(10/4) = 3, so the
        // 6-run tail-splits into 3+3 and the small runs stay whole.
        let claims = plan_claims(&[6, 3, 1], 2);
        assert_eq!(claims, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        // one worker: cap = 5 -> the 6-run splits once, nothing else
        assert_eq!(
            plan_claims(&[6, 3, 1], 1),
            vec![(0, 5), (5, 6), (6, 9), (9, 10)]
        );
        // claims always tile [0, total) exactly, whatever the shape
        for (runs, workers) in [
            (vec![1usize; 17], 4usize),
            (vec![100], 4),
            (vec![5, 4, 3, 2, 1], 3),
            (vec![0, 7, 0, 2], 2),
            (vec![], 2),
        ] {
            let total: usize = runs.iter().sum();
            let claims = plan_claims(&runs, workers);
            let mut next = 0usize;
            for &(s, e) in &claims {
                assert_eq!(s, next, "runs={runs:?} workers={workers}");
                assert!(e > s);
                next = e;
            }
            assert_eq!(next, total);
        }
    }

    #[test]
    fn plan_claims_without_splits_is_one_claim_per_run() {
        // runs all below the cap: exactly one claim per nonempty run, so
        // an LRU-of-one per-worker cache misses once per claim
        let runs = vec![5usize, 4, 3, 2, 1];
        let claims = plan_claims(&runs, 1); // cap = 8 > every run
        assert_eq!(claims.len(), runs.len());
    }

    #[test]
    fn run_claims_processes_every_task_exactly_once() {
        let runs = vec![7usize, 1, 12, 3, 3];
        let n: usize = runs.iter().sum();
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for workers in [1usize, 2, 5] {
            hits.iter().for_each(|h| h.store(0, Ordering::Relaxed));
            let claims = plan_claims(&runs, workers);
            let states = run_claims(
                &claims,
                workers,
                || 0u64,
                |idx, count| {
                    hits[idx].fetch_add(1, Ordering::Relaxed);
                    *count += 1;
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!(states.iter().sum::<u64>(), n as u64);
            assert!(states.len() <= workers.max(1));
        }
        // empty plan: no panic, at most one (unused) state
        assert!(run_claims(&[], 4, || 0u32, |_, _| unreachable!()).len() <= 1);
    }

    #[test]
    fn run_claims_keeps_runs_on_one_worker() {
        // With claims = whole runs, every task of a run lands on the same
        // worker *consecutively*: an LRU-of-one keyed by run id must miss
        // exactly once per claim, whatever the worker count.
        let runs = vec![5usize, 4, 3, 2, 1];
        let mut run_of_task = Vec::new();
        for (rid, &len) in runs.iter().enumerate() {
            run_of_task.extend(std::iter::repeat_n(rid, len));
        }
        for workers in [1usize, 2, 3, 7] {
            let claims = plan_claims(&runs, workers);
            let states = run_claims(
                &claims,
                workers,
                || (None::<usize>, 0u64, 0u64), // (last run, hits, misses)
                |idx, (last, hits, misses)| {
                    if *last == Some(run_of_task[idx]) {
                        *hits += 1;
                    } else {
                        *misses += 1;
                    }
                    *last = Some(run_of_task[idx]);
                },
            );
            let misses: u64 = states.iter().map(|&(_, _, m)| m).sum();
            let hits: u64 = states.iter().map(|&(_, h, _)| h).sum();
            assert_eq!(hits + misses, 15, "workers={workers}");
            assert!(
                misses <= claims.len() as u64,
                "workers={workers}: {misses} misses > {} claims",
                claims.len()
            );
        }
    }

    #[test]
    fn pool_cache_stats_aggregate() {
        let stats = PoolCacheStats {
            per_worker: vec![(9, 1), (0, 0), (1, 4)],
        };
        assert_eq!(stats.hits(), 10);
        assert_eq!(stats.misses(), 5);
        assert!((stats.hit_rate() - 10.0 / 15.0).abs() < 1e-12);
        assert!((stats.min_hit_rate() - 0.2).abs() < 1e-12);
        assert!((stats.max_hit_rate() - 0.9).abs() < 1e-12);
        let empty = PoolCacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        assert_eq!(empty.min_hit_rate(), 0.0);
        assert_eq!(empty.max_hit_rate(), 0.0);
    }
}
