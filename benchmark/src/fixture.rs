//! Set-up shared by the timed and traced runs: workload shapes, seeded
//! datasets with their reference results, loopback servers, and the one
//! client-side job loop (`SUBMIT` → poll → `RESULT` → verify) every
//! service workload goes through.

use crate::metrics::median;
use crate::trace::{span, Tracer};
use datagen::{DatasetSpec, MafModel};
use epi_core::result::Candidate;
use epi_core::scan::{scan, ScanConfig, Version};
use epi_server::{Client, EngineConfig, JobSpec, Server, ServerHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Status polling cadence of every benchmark client, so latency is not
/// quantised by `Client::wait`'s default 2 → 250 ms backoff.
pub const POLL: Duration = Duration::from_millis(1);
/// No operation of any workload takes near this long; reaching it is a
/// failed operation, not a wait.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);
/// `top=` of the `wire.result_mb_s` probe; the traced run's reference
/// keeps this many candidates so the probe's reply is verified too.
pub const RESULT_PROBE_TOP: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchScan,
    SmallJobs,
    DurableScan,
    FederatedScan,
    MixedPriority,
}

/// Dataset and job shape: `snps × samples`, split into `shards`,
/// keeping `top_k`.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub snps: usize,
    pub samples: usize,
    pub shards: u64,
    pub top_k: usize,
}

// The shapes are sized so a job is short against the measured window
// (many samples per run, steady medians) while each workload still
// loads the layer it was chosen for; see the README for the shares.
const BATCH: Shape = Shape {
    snps: 192,
    samples: 16384,
    shards: 256,
    top_k: 16,
};
const SMALL: Shape = Shape {
    snps: 16,
    samples: 131072,
    shards: 4,
    top_k: 1,
};
const DURABLE: Shape = Shape {
    snps: 128,
    samples: 8192,
    shards: 512,
    top_k: 16,
};
const FEDERATED: Shape = Shape { top_k: 64, ..BATCH };
const BULK: Shape = Shape {
    snps: 128,
    samples: 16384,
    shards: 512,
    top_k: 16,
};

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "batch_scan" => Self::BatchScan,
            "small_jobs" => Self::SmallJobs,
            "durable_scan" => Self::DurableScan,
            "federated_scan" => Self::FederatedScan,
            "mixed_priority" => Self::MixedPriority,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::BatchScan => "batch_scan",
            Self::SmallJobs => "small_jobs",
            Self::DurableScan => "durable_scan",
            Self::FederatedScan => "federated_scan",
            Self::MixedPriority => "mixed_priority",
        }
    }

    /// The job the workload's `latency_p50_ms` client runs, and the one
    /// the traced ladder climbs (for `mixed_priority` the ladder climbs
    /// the bulk job instead: the small job's ladder is `small_jobs`').
    pub fn shape(self) -> Shape {
        match self {
            Self::BatchScan => BATCH,
            Self::SmallJobs | Self::MixedPriority => SMALL,
            Self::DurableScan => DURABLE,
            Self::FederatedScan => FEDERATED,
        }
    }

    /// Loopback servers the workload needs up when measuring starts.
    fn nodes(self) -> usize {
        match self {
            Self::FederatedScan => 2,
            // starts one per cycle itself, each on a fresh spool
            Self::DurableScan => 0,
            _ => 1,
        }
    }
}

/// A generated dataset on disk with its reference result.
#[derive(Debug)]
pub struct Data {
    pub shape: Shape,
    pub path: PathBuf,
    pub genotypes: bitgenome::GenotypeMatrix,
    pub phenotype: bitgenome::Phenotype,
    /// `epi_core::scan::scan` over the whole dataset, best first; at
    /// least `shape.top_k` long (longer in the traced run).
    pub reference: Vec<Candidate>,
}

impl Data {
    fn generate(dir: &Path, name: &str, shape: Shape, seed: u64, ref_top: usize) -> Self {
        // The seed draws the samples, never the shape of the work. With
        // `noise`'s binomial class split the per-class word count changes
        // with the seed, and with it whether the SIMD kernels take their
        // remainder path (a 20 % swing in scan speed); with per-SNP MAFs
        // drawn from a range, `SplitDataset::encode`'s per-genotype
        // branches mispredict more or less (11 to 16 ms on 16 SNPs).
        let dataset = DatasetSpec {
            balance: true,
            maf: MafModel::Fixed(0.3),
            ..DatasetSpec::noise(shape.snps, shape.samples, seed)
        }
        .generate();
        let path = dir.join(format!("{name}.epi3"));
        datagen::io::save_binary(&path, &dataset).expect("dataset file is writable");
        let mut cfg = ScanConfig::new(Version::V5);
        cfg.top_k = ref_top.max(shape.top_k);
        // one thread: `setup_s` then does not depend on how quickly a
        // small VM wakes its second vCPU for a 50 ms scan
        cfg.threads = 1;
        let reference = scan(&dataset.genotypes, &dataset.phenotype, &cfg).top;
        Self {
            shape,
            path,
            genotypes: dataset.genotypes,
            phenotype: dataset.phenotype,
            reference,
        }
    }

    /// The paper's work unit: combinations × samples.
    pub fn elements(&self) -> f64 {
        epi_core::combin::num_elements(self.shape.snps, self.shape.samples) as f64
    }

    pub fn spec(&self) -> JobSpec {
        self.spec_with(self.shape.shards, self.shape.top_k)
    }

    pub fn spec_with(&self, shards: u64, top_k: usize) -> JobSpec {
        let mut spec = JobSpec::new(self.path.to_string_lossy());
        spec.shards = shards;
        spec.top_k = top_k;
        spec
    }

    /// Bit-identical to the reference: same triples, same `f64` bits.
    pub fn verify(&self, got: &[Candidate], top_k: usize) -> Result<(), String> {
        let want = &self.reference[..top_k.min(self.reference.len())];
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.triple == w.triple && g.score.to_bits() == w.score.to_bits());
        if same {
            Ok(())
        } else {
            Err(format!(
                "result differs from the reference scan ({} candidates, want {})",
                got.len(),
                want.len()
            ))
        }
    }
}

/// A loopback server on an ephemeral port; shut down on drop.
pub struct Node {
    handle: Option<ServerHandle>,
    pub addr: SocketAddr,
}

impl Node {
    pub fn start(cfg: EngineConfig, tracer: Option<&Tracer>) -> Self {
        let server = span(tracer, "Server::bind", None, 0, |_| {
            Server::bind("127.0.0.1:0", cfg).expect("loopback bind")
        });
        let addr = server.local_addr();
        Self {
            handle: Some(server.spawn()),
            addr,
        }
    }

    pub fn workers(workers: usize) -> Self {
        Self::start(
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
            None,
        )
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Everything one run measures against.
pub struct Fixture {
    pub workload: Workload,
    pub dir: PathBuf,
    pub data: Data,
    /// `mixed_priority`'s bulk tenant dataset.
    pub bulk: Option<Data>,
    pub nodes: Vec<Node>,
}

impl Fixture {
    /// Dataset generation, save, reference scan, server start: what
    /// `setup_s` times.
    pub fn set_up(workload: Workload, dir: &Path, seed: u64, ref_top: usize) -> Self {
        std::fs::create_dir_all(dir).expect("run directory is writable");
        let data = Data::generate(dir, "data", workload.shape(), seed, ref_top);
        let bulk = (workload == Workload::MixedPriority)
            .then(|| Data::generate(dir, "bulk", BULK, seed.wrapping_add(1), ref_top));
        let nodes = (0..workload.nodes()).map(|_| Node::workers(1)).collect();
        Self {
            workload,
            dir: dir.to_path_buf(),
            data,
            bulk,
            nodes,
        }
    }

    /// Set up repeatedly and keep the last: `(fixture, median seconds)`.
    /// At least three times, more while set-up is short, so the median
    /// of a 30 ms set-up is as steady as that of a 1 s one.
    pub fn set_up_timed(workload: Workload, dir: &Path, seed: u64) -> (Self, f64) {
        let mut times = Vec::new();
        let begun = Instant::now();
        loop {
            let start = Instant::now();
            let fixture = Self::set_up(workload, dir, seed, 0);
            times.push(start.elapsed().as_secs_f64());
            let enough =
                times.len() >= 9 || (times.len() >= 3 && begun.elapsed().as_secs_f64() > 1.0);
            if enough {
                return (fixture, median(&times));
            }
            // stop this repetition's servers before the next binds its own
            drop(fixture);
        }
    }

    /// The dataset the traced ladder climbs.
    pub fn ladder_data(&self) -> &Data {
        self.bulk.as_ref().unwrap_or(&self.data)
    }
}

/// Where one client job's time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTiming {
    pub total_s: f64,
    pub submit_s: f64,
    pub wait_s: f64,
    pub result_s: f64,
    /// STATUS round trips (traced runs only).
    pub polls: u64,
    /// SUBMIT ack → first STATUS showing a completed shard (traced runs
    /// only): how long the job's first claim waited behind other work.
    pub claim_wait_s: f64,
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh identifier shared by the spans of one operation.
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// One job through a connected client: SUBMIT, poll every [`POLL`] until
/// stable, RESULT, verify against the reference. Any `ERR`, refusal,
/// timeout or mismatch is an `Err`: a failed operation.
pub fn run_job(
    client: &mut Client,
    spec: &JobSpec,
    data: &Data,
    tracer: Option<&Tracer>,
) -> Result<JobTiming, String> {
    let op = next_op();
    span(tracer, "job", None, op, |root| {
        let start = Instant::now();
        let status = span(tracer, "submit", root, op, |_| client.submit(spec))?;
        let submitted = Instant::now();
        let mut polls = 0;
        let mut claim_wait_s = 0.0;
        let done = if tracer.is_some() {
            // `wait_with_backoff(id, t, POLL, POLL)` unrolled, so each
            // STATUS round trip gets its own span
            loop {
                let st = span(tracer, "status", root, op, |_| client.status(status.id))?;
                polls += 1;
                if claim_wait_s == 0.0 && (st.done > 0 || st.is_stable()) {
                    claim_wait_s = submitted.elapsed().as_secs_f64();
                }
                if st.is_stable() {
                    break st;
                }
                if submitted.elapsed() > OP_TIMEOUT {
                    return Err(format!("job {} timed out", status.id));
                }
                std::thread::sleep(POLL);
            }
        } else {
            client.wait_with_backoff(status.id, OP_TIMEOUT, POLL, POLL)?
        };
        let waited = Instant::now();
        if done.state != epi_server::JobState::Done {
            return Err(format!("job {} ended {}", done.id, done.state));
        }
        let top = span(tracer, "result", root, op, |_| client.result(done.id))?;
        let end = Instant::now();
        data.verify(&top, spec.top_k)?;
        Ok(JobTiming {
            total_s: (end - start).as_secs_f64(),
            submit_s: (submitted - start).as_secs_f64(),
            wait_s: (waited - submitted).as_secs_f64(),
            result_s: (end - waited).as_secs_f64(),
            polls,
            claim_wait_s,
        })
    })
}

pub fn connect_framed(addr: SocketAddr, tracer: Option<&Tracer>) -> Result<Client, String> {
    span(tracer, "connect", None, 0, |_| {
        Client::connect_framed(addr).map_err(|e| format!("connect failed: {e}"))
    })
}

/// One request line over a plain text socket, reply lines until `stop`
/// says the reply is complete: `(lines, bytes received)`. The few
/// things [`Client`] has no accessor for (every STATS field, raw RESULT
/// bytes) are read this way — still only the public protocol.
pub fn raw_request(
    addr: SocketAddr,
    request: &str,
    stop: impl Fn(&str) -> bool,
) -> Result<(Vec<String>, u64), String> {
    let io = |e: std::io::Error| format!("raw {request}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(OP_TIMEOUT)).map_err(io)?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let (mut lines, mut bytes) = (Vec::new(), 0u64);
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(io)?;
        if n == 0 {
            return Err(format!("raw {request}: connection closed mid-reply"));
        }
        bytes += n as u64;
        let line = line.trim_end().to_string();
        if line.starts_with("ERR") {
            return Err(format!("raw {request}: {line}"));
        }
        let last = stop(&line);
        lines.push(line);
        if last {
            return Ok((lines, bytes));
        }
    }
}

/// Every `key=value` field of the server's STATS line.
pub fn stats(addr: SocketAddr) -> Result<HashMap<String, String>, String> {
    let (lines, _) = raw_request(addr, "STATS", |_| true)?;
    Ok(lines[0]
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

pub fn stat(addr: SocketAddr, key: &str) -> Result<f64, String> {
    stats(addr)?
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("STATS has no numeric {key}"))
}
