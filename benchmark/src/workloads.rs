//! The five workloads' measured loops. The timed run calls them with
//! tracing off; the traced run calls the same code with a tracer, so
//! the difference between the two is the tracing overhead and nothing
//! else.

use crate::fixture::{
    connect_framed, next_op, run_job, stat, stats, Data, Fixture, JobTiming, Node, Workload,
    OP_TIMEOUT, POLL,
};
use crate::metrics::median;
use crate::trace::{span, Tracer};
use epi_coord::{federate, FederationConfig, FederationReport};
use epi_server::{EngineConfig, JobSpec, JobState};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one measured loop produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Elements (combinations × samples) whose results were delivered,
    /// and the seconds they took.
    pub elements: f64,
    pub busy_s: f64,
    /// Where one client delivers equal operations one after another:
    /// the seconds of each, so `geps` can be a median.
    pub op_seconds: Vec<f64>,
    /// The workload's latency-critical operation, one sample each.
    pub latencies_ms: Vec<f64>,
    /// Span split of every client job the loop ran.
    pub jobs: Vec<JobTiming>,
    /// The server's STATS fields when the loop ended.
    pub end_stats: HashMap<String, String>,
    /// Shards scanned twice across `durable_scan`'s cancel → restart →
    /// RESUME leg (must be 0).
    pub rescanned_shards: u64,
}

impl Outcome {
    /// Throughput in the paper's unit. Serial workloads report the
    /// median operation's rate, which a single stalled job cannot move;
    /// concurrent ones (`small_jobs`, `mixed_priority`) the window's
    /// total.
    pub fn geps(&self) -> f64 {
        if !self.op_seconds.is_empty() {
            let per_op = self.elements / self.op_seconds.len() as f64;
            per_op / median(&self.op_seconds) / 1e9
        } else if self.busy_s > 0.0 {
            self.elements / self.busy_s / 1e9
        } else {
            0.0
        }
    }

    pub fn latency_p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// Count one operation; `None` (stop the loop) when it failed — a
    /// failure here means the system is broken, not busy, and retrying
    /// in a tight loop would only inflate `attempted`.
    fn record<T>(&mut self, op: Result<T, String>) -> Option<T> {
        let value = self.check(op)?;
        self.attempted += 1;
        Some(value)
    }

    /// Bookkeeping around the operations (connecting, reading STATS):
    /// counted only when it fails.
    fn check<T>(&mut self, step: Result<T, String>) -> Option<T> {
        match step {
            Ok(v) => Some(v),
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.elements += other.elements;
        self.latencies_ms.extend(other.latencies_ms);
        self.jobs.extend(other.jobs);
    }
}

/// The workload's loop for `seconds`, after an untimed, untraced
/// warm-up of a tenth of that (at most 1 s): by then the page cache
/// holds the dataset, every server thread has run once, and the second
/// vCPU of a small VM is awake. Operations of the warm-up count toward
/// `attempted` and `failed`, nothing else.
pub fn run(fx: &Fixture, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let warm_up = run_loop(fx, (seconds * 0.1).min(1.0), None);
    let mut out = run_loop(fx, seconds, tracer);
    out.attempted += warm_up.attempted;
    out.failed += warm_up.failed;
    out.errors.extend(warm_up.errors);
    out
}

fn run_loop(fx: &Fixture, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let window = Duration::from_secs_f64(seconds);
    let mut out = match fx.workload {
        Workload::BatchScan => {
            let mut out = closed_loop(fx.nodes[0].addr, &fx.data, &fx.data.spec(), window, tracer);
            out.op_seconds = out.jobs.iter().map(|t| t.total_s).collect();
            out
        }
        Workload::SmallJobs => small_jobs(fx, window, tracer),
        Workload::DurableScan => durable_scan(fx, window, tracer),
        Workload::FederatedScan => federated_scan(fx, window, tracer),
        Workload::MixedPriority => mixed_priority(fx, window, tracer),
    };
    if let Some(node) = fx.nodes.first() {
        if let Some(s) = out.check(stats(node.addr)) {
            out.end_stats = s;
        }
    }
    out
}

/// One client resubmitting `spec` as soon as the previous result is in,
/// until `window` has passed. `busy_s` is the loop's wall time.
fn closed_loop(
    addr: std::net::SocketAddr,
    data: &Data,
    spec: &JobSpec,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let Some(mut client) = out.check(connect_framed(addr, tracer)) else {
        return out;
    };
    while start.elapsed() < window {
        let Some(t) = out.record(run_job(&mut client, spec, data, tracer)) else {
            break;
        };
        out.elements += data.elements();
        out.latencies_ms.push(t.total_s * 1e3);
        out.jobs.push(t);
    }
    out.busy_s = start.elapsed().as_secs_f64();
    out
}

/// Two tenants on persistent connections, each a closed loop.
fn small_jobs(fx: &Fixture, window: Duration, tracer: Option<&Tracer>) -> Outcome {
    let addr = fx.nodes[0].addr;
    let start = Instant::now();
    let mut out = Outcome::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = ["t0", "t1"]
            .into_iter()
            .map(|tenant| {
                let mut spec = fx.data.spec();
                spec.tenant = Some(tenant.to_string());
                s.spawn(move || closed_loop(addr, &fx.data, &spec, window, tracer))
            })
            .collect();
        for client in clients {
            out.merge(client.join().expect("client thread does not panic"));
        }
    });
    out.busy_s = start.elapsed().as_secs_f64();
    out
}

fn spooled(spool: &Path) -> EngineConfig {
    EngineConfig {
        workers: 1,
        spool_dir: Some(spool.to_path_buf()),
        ..EngineConfig::default()
    }
}

/// Cycles of {job on a fresh spool (write path: `geps`), shutdown,
/// re-bind on that spool, RESULT of the restored job (read path:
/// `latency_p50_ms`)}, then one CANCEL → restart → RESUME leg.
fn durable_scan(fx: &Fixture, window: Duration, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let spec = fx.data.spec();
    let start = Instant::now();
    let mut cycle = 0u64;
    while start.elapsed() < window {
        let spool = fx.dir.join(format!("spool-{cycle}"));
        let ok = durable_cycle(&fx.data, &spec, &spool, tracer, &mut out);
        let _ = std::fs::remove_dir_all(&spool);
        if !ok {
            return out;
        }
        cycle += 1;
    }
    let spool = fx.dir.join("spool-resume");
    if let Some((rescanned, end_stats)) =
        out.record(cancel_resume_leg(&fx.data, &spec, &spool, tracer))
    {
        out.rescanned_shards = rescanned;
        out.end_stats = end_stats;
    }
    let _ = std::fs::remove_dir_all(&spool);
    out
}

fn durable_cycle(
    data: &Data,
    spec: &JobSpec,
    spool: &Path,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> bool {
    let write = (|| {
        let node = Node::start(spooled(spool), tracer);
        let mut client = connect_framed(node.addr, tracer)?;
        run_job(&mut client, spec, data, tracer)
    })();
    let Some(t) = out.record(write) else {
        return false;
    };
    out.elements += data.elements();
    out.op_seconds.push(t.total_s);
    out.jobs.push(t);

    let restore = (|| {
        let start = Instant::now();
        let node = Node::start(spooled(spool), tracer);
        let mut client = connect_framed(node.addr, tracer)?;
        let jobs = client.jobs()?;
        if jobs.len() != 1 {
            return Err(format!("restart restored {} jobs, want 1", jobs.len()));
        }
        let op = next_op();
        for job in jobs {
            let top = span(tracer, "result", None, op, |_| client.result(job.id))?;
            data.verify(&top, spec.top_k)?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    })();
    match out.record(restore) {
        Some(ms) => {
            out.latencies_ms.push(ms);
            true
        }
        None => false,
    }
}

/// CANCEL once half the shards are done, restart the server on the
/// spool, RESUME, and check the result and that no shard was scanned
/// twice: `(rescanned shards, STATS at the end)`.
pub fn cancel_resume_leg(
    data: &Data,
    spec: &JobSpec,
    spool: &Path,
    tracer: Option<&Tracer>,
) -> Result<(u64, HashMap<String, String>), String> {
    let node = Node::start(spooled(spool), tracer);
    let mut client = connect_framed(node.addr, tracer)?;
    let id = client.submit(spec)?.id;
    loop {
        let st = client.status(id)?;
        if st.done * 2 >= st.total || st.is_stable() {
            break;
        }
        std::thread::sleep(POLL);
    }
    client.cancel(id)?;
    let parked = client.wait_with_backoff(id, OP_TIMEOUT, POLL, POLL)?;
    let scanned_before = stat(node.addr, "scanned")? as u64;
    drop(client);
    drop(node);

    let node = Node::start(spooled(spool), tracer);
    let mut client = connect_framed(node.addr, tracer)?;
    // a job this short can finish before the CANCEL lands
    if parked.state == JobState::Cancelled {
        client.resume(id)?;
    }
    let done = client.wait_with_backoff(id, OP_TIMEOUT, POLL, POLL)?;
    if done.state != JobState::Done {
        return Err(format!("resumed job ended {}", done.state));
    }
    data.verify(&client.result(id)?, spec.top_k)?;
    let end_stats = stats(node.addr)?;
    let scanned_after: u64 = end_stats
        .get("scanned")
        .and_then(|v| v.parse().ok())
        .ok_or("STATS has no scanned")?;
    let rescanned = (scanned_before + scanned_after).saturating_sub(done.total);
    Ok((rescanned, end_stats))
}

/// One `federate` over `nodes`: `(seconds, report, shards the fleet's
/// `scanned` counter advanced by)`. Every run carries a unique
/// `job_token`: the coordinator derives sub-job tokens from the shard
/// set and a sequence number only, so a repeated plan on a live fleet
/// would be echoed the previous run's jobs and measure nothing. The
/// fleet's `scanned` counter must advance by the shard count (more only
/// when a steal re-ran a shard that was mid-scan).
pub fn federate_once(
    nodes: &[Node],
    spec: &JobSpec,
    data: &Data,
    tracer: Option<&Tracer>,
) -> Result<(f64, FederationReport, u64), String> {
    let scanned = || -> Result<u64, String> {
        nodes
            .iter()
            .map(|n| stat(n.addr, "scanned").map(|v| v as u64))
            .sum()
    };
    let cfg = FederationConfig::new(nodes.iter().map(|n| n.addr.to_string()).collect());
    let op = next_op();
    let mut spec = spec.clone();
    spec.job_token = Some(format!("bench-{}-{op}", std::process::id()));
    let before = scanned()?;
    let begun = Instant::now();
    let report = span(tracer, "federate", None, op, |_| federate(&spec, &cfg))?;
    let seconds = begun.elapsed().as_secs_f64();
    data.verify(&report.top, spec.top_k)?;
    let advanced = scanned()? - before;
    if advanced < spec.shards || (advanced > spec.shards && report.steals.is_empty()) {
        return Err(format!(
            "fleet scanned {advanced} shards for a {}-shard plan",
            spec.shards
        ));
    }
    Ok((seconds, report, advanced))
}

/// `federate` over the fixture's nodes, back to back.
fn federated_scan(fx: &Fixture, window: Duration, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let spec = fx.data.spec();
    let start = Instant::now();
    while start.elapsed() < window {
        let run = federate_once(&fx.nodes, &spec, &fx.data, tracer);
        let Some((seconds, ..)) = out.record(run) else {
            break;
        };
        out.elements += fx.data.elements();
        out.op_seconds.push(seconds);
        out.latencies_ms.push(seconds * 1e3);
    }
    out
}

/// One worker; tenant `bulk` (priority 1) keeps a 512-shard job queued
/// at all times while tenant `inter` (priority 9) runs the small job in
/// a closed loop. `latency_p50_ms` is the interactive job's, `geps` the
/// bulk tenant's, counting the shards its last job had done when the
/// window closed.
fn mixed_priority(fx: &Fixture, window: Duration, tracer: Option<&Tracer>) -> Outcome {
    let addr = fx.nodes[0].addr;
    let bulk = fx.bulk.as_ref().expect("mixed_priority has a bulk dataset");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let bulk_client = s.spawn(|| bulk_tenant(addr, bulk, &stop, tracer));
        let mut spec = fx.data.spec();
        spec.tenant = Some("inter".to_string());
        spec.priority = 9;
        let mut out = closed_loop(addr, &fx.data, &spec, window, tracer);
        stop.store(true, Ordering::SeqCst);
        let bulk_out = bulk_client.join().expect("bulk thread does not panic");
        // the interactive client's latencies, the bulk tenant's throughput
        out.attempted += bulk_out.attempted;
        out.failed += bulk_out.failed;
        out.errors.extend(bulk_out.errors);
        out.elements = bulk_out.elements;
        out.busy_s = bulk_out.busy_s;
        out
    })
}

fn bulk_tenant(
    addr: std::net::SocketAddr,
    data: &Data,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut spec = data.spec();
    spec.tenant = Some("bulk".to_string());
    spec.priority = 1;
    let start = Instant::now();
    let Some(mut client) = out.check(connect_framed(addr, tracer)) else {
        return out;
    };
    'jobs: loop {
        let job = (|| {
            let id = client.submit(&spec)?.id;
            loop {
                let st = client.status(id)?;
                if stop.load(Ordering::SeqCst) {
                    // window closed: credit the shards done, park the rest
                    out.busy_s = start.elapsed().as_secs_f64();
                    client.cancel(id)?;
                    client.wait_with_backoff(id, OP_TIMEOUT, POLL, POLL)?;
                    return Ok(Some(st.done as f64 / st.total as f64));
                }
                if st.is_stable() {
                    if st.state != JobState::Done {
                        return Err(format!("bulk job ended {}", st.state));
                    }
                    data.verify(&client.result(id)?, spec.top_k)?;
                    return Ok(None);
                }
                std::thread::sleep(POLL);
            }
        })();
        match out.record(job) {
            Some(None) => out.elements += data.elements(),
            Some(Some(fraction)) => {
                out.elements += fraction * data.elements();
                break 'jobs;
            }
            None => break 'jobs,
        }
    }
    out
}
