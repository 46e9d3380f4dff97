//! The traced run: the workload's loop again with spans on, then one
//! ladder over the workload's dataset — the identical job timed at
//! every layer from the bare kernel up to a two-node federation — and
//! a probe of each layer the ladder does not isolate. Every layer is
//! timed around its public call, from outside.

use crate::fixture::{
    connect_framed, raw_request, run_job, Data, Fixture, JobTiming, Node, Workload, POLL,
    RESULT_PROBE_TOP,
};
use crate::host::Host;
use crate::metrics::{median, pct_over, percentile, RunResult, Values};
use crate::spoolfs::CountingSpoolFs;
use crate::trace::{span, Tracer};
use crate::workloads::{self, cancel_resume_leg, federate_once};
use bitgenome::SplitDataset;
use epi_core::costs::VersionCosts;
use epi_core::scan::{scan_split, ScanConfig, Version};
use epi_core::shard::{scan_sharded_stats, scan_sharded_with_workers};
use epi_server::{frame, Checkpoint, Client, DispatchQueue, Engine, EngineConfig, JobSpec};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One rung of the ladder: the job's seconds at this layer and the rung
/// it is compared against.
struct Rung {
    name: &'static str,
    seconds: f64,
    below: Option<&'static str>,
    threads: usize,
}

impl Rung {
    fn new(name: &'static str, seconds: f64, below: Option<&'static str>, threads: usize) -> Self {
        Self {
            name,
            seconds,
            below,
            threads,
        }
    }
}

/// Run `f` (which returns its own measured seconds) at least once and
/// then until `budget_s` is spent, at most 15 times: `(median seconds,
/// last value)`. Long jobs get one repetition, short ones a median.
fn repeat<T>(
    budget_s: f64,
    mut f: impl FnMut() -> Result<(f64, T), String>,
) -> Result<(f64, T), String> {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let (seconds, value) = f()?;
        times.push(seconds);
        if times.len() >= 15 || begun.elapsed().as_secs_f64() >= budget_s {
            return Ok((median(&times), value));
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `(result, the ladder as a JSON member of the trace file)`.
pub fn traced_run(fx: &Fixture, seconds: f64, tracer: &Tracer, host: &Host) -> (RunResult, String) {
    let mut result = RunResult::default();
    let mut ladder = Vec::new();
    let measured = measure(fx, seconds, tracer, host, &mut result, &mut ladder);
    result.attempted += 1;
    if let Err(e) = measured {
        eprintln!("traced run failed: {e}");
        result.failed += 1;
    }
    result.values.set("trace.spans", tracer.len() as f64);
    (result, ladder_json(&ladder, fx.ladder_data(), host))
}

fn measure(
    fx: &Fixture,
    seconds: f64,
    tracer: &Tracer,
    host: &Host,
    result: &mut RunResult,
    ladder: &mut Vec<Rung>,
) -> Result<(), String> {
    let tr = Some(tracer);
    let v = &mut result.values;
    let budget = seconds * 0.04;

    // ---- the workload's own loop, traced
    let out = workloads::run(fx, (seconds * 0.3).max(1.0), tr);
    result.attempted += out.attempted;
    result.failed += out.failed;
    for e in &out.errors {
        eprintln!("failed operation: {e}");
    }
    v.set("trace.e2e_geps", out.geps());
    v.set("trace.e2e_latency_p50_ms", out.latency_p50_ms());
    v.set("client.job_p95_ms", percentile(&out.latencies_ms, 95.0));
    let loop_claim_waits: Vec<f64> = out.jobs.iter().map(|t| t.claim_wait_s * 1e3).collect();
    let end_stat = |key: &str| -> f64 {
        out.end_stats
            .get(key)
            .and_then(|s| s.parse().ok())
            .unwrap_or(f64::NAN)
    };
    v.set("server.pair_hit_rate", end_stat("pair_hit_rate"));
    v.set("server.accept_errors", end_stat("accept_errors"));
    v.set("engine.mem_used_end", end_stat("mem_used"));
    v.set("engine.rejected", end_stat("rejected"));

    // ---- what SUBMIT pays before the first shard: load, hash, encode
    let data = fx.ladder_data();
    let spec = data.spec();
    let shape = data.shape;
    let (load_s, _) = repeat(budget, || {
        let (s, loaded) = timed(|| datagen::io::load(&data.path));
        loaded.map_err(|e| format!("load: {e}"))?;
        Ok((s, ()))
    })?;
    let (hash_s, _) = repeat(budget, || {
        let (s, h) = timed(|| epi_core::integrity::dataset_hash(&data.genotypes, &data.phenotype));
        Ok((s, black_box(h)))
    })?;
    let (encode_s, ds) = repeat(budget, || {
        Ok(timed(|| {
            SplitDataset::encode(&data.genotypes, &data.phenotype)
        }))
    })?;
    v.set("datagen.load_ms", load_s * 1e3);
    v.set("integrity.hash_ms", hash_s * 1e3);
    v.set("bitgenome.encode_ms", encode_s * 1e3);

    // ---- rung 1: the kernel, one thread, no shards
    let mut cfg = ScanConfig::new(Version::V5);
    cfg.threads = 1;
    cfg.top_k = shape.top_k;
    let (kernel_s, _) = repeat(budget, || {
        let (s, r) = timed(|| scan_split(&ds, &cfg));
        data.verify(&r.top, shape.top_k)?;
        Ok((s, ()))
    })?;
    drop(ds);
    let costs = VersionCosts::for_version(Version::V5);
    v.set("kernel.scan_s", kernel_s);
    v.set("kernel.geps", data.elements() / kernel_s / 1e9);
    v.set("kernel.elements", data.elements());
    v.set(
        "kernel.bytes_computed",
        data.elements() * costs.bytes_per_element(),
    );
    v.set("kernel.ops_per_byte", costs.arithmetic_intensity());
    // The model counts POPCNTs per 32-bit word; the peak loop counts
    // 64-bit words, each worth two.
    let kernel_popcnt_rate = data.elements() / kernel_s * costs.popcnt_per_element();
    v.set(
        "kernel.pct_of_popcnt_peak",
        kernel_popcnt_rate / (2.0 * popcount_peak_words_per_s()) * 100.0,
    );
    ladder.push(Rung::new("kernel", kernel_s, None, 1));

    // ---- rung 2: the sharded scan, and the pool at 1 and 2 workers
    let (shard_s, hit_rate) = repeat(budget, || {
        let (r, stats) = scan_sharded_stats(&data.genotypes, &data.phenotype, &cfg, shape.shards);
        data.verify(&r.top, shape.top_k)?;
        Ok((r.elapsed.as_secs_f64(), stats.hit_rate()))
    })?;
    v.set("shard.scan_s", shard_s);
    v.set("shard.overhead_pct", pct_over(shard_s, kernel_s));
    v.set("shard.prefix_hit_rate", hit_rate);
    ladder.push(Rung::new("shard", shard_s, Some("kernel"), 1));
    let pool_s = |workers: usize| {
        repeat(budget, || {
            let (r, _) = scan_sharded_with_workers(
                &data.genotypes,
                &data.phenotype,
                &cfg,
                shape.shards,
                workers,
            );
            data.verify(&r.top, shape.top_k)?;
            Ok((r.elapsed.as_secs_f64(), ()))
        })
    };
    v.set("pool.speedup_2w", pool_s(1)?.0 / pool_s(2)?.0);
    v.set("pool.oversubscribed", host.oversubscribed(2) as u8 as f64);

    // ---- rungs 3 and 4: the engine in process, without and with a spool
    let plain = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let (engine_s, submit_s, _) = engine_rung(plain, &spec, data, budget)?;
    v.set("engine.submit_ms", submit_s * 1e3);
    v.set("engine.job_s", engine_s);
    v.set("engine.overhead_pct", pct_over(engine_s, shard_s));
    ladder.push(Rung::new("engine", engine_s, Some("shard"), 1));

    // Spool counters are totals over the rung's jobs, reported per job.
    let spool = fx.dir.join("spool-ladder");
    let write_fs = Arc::new(CountingSpoolFs::default());
    let (spool_s, _, jobs) = engine_rung(spool_config(&spool, &write_fs), &spec, data, budget)?;
    let written = write_fs.counts();
    let per_job = |total: f64| total / jobs as f64;
    v.set("engine.spool_job_s", spool_s);
    v.set("engine.spool_overhead_pct", pct_over(spool_s, engine_s));
    v.set("spool.bytes_written", per_job(written.bytes_written as f64));
    v.set(
        "spool.ops",
        per_job((written.write_ops + written.read_ops) as f64),
    );
    v.set("spool.write_busy_s", per_job(written.write_busy_s));
    v.set(
        "spool.bytes_per_shard",
        per_job(written.bytes_written as f64) / shape.shards as f64,
    );
    ladder.push(Rung::new("engine+spool", spool_s, Some("engine"), 1));
    // the same spool read back: a restart restores the finished jobs
    let read_fs = Arc::new(CountingSpoolFs::default());
    let (restore_s, engine) = timed(|| Engine::start(spool_config(&spool, &read_fs)));
    let restored = engine.jobs();
    let verified = restored
        .iter()
        .try_for_each(|job| data.verify(&engine.result(job.id)?, shape.top_k));
    engine.stop();
    verified?;
    if restored.len() != jobs {
        return Err(format!(
            "restart restored {} of {jobs} jobs",
            restored.len()
        ));
    }
    v.set("engine.restore_ms", per_job(restore_s * 1e3));
    v.set("spool.read_busy_s", per_job(read_fs.counts().read_busy_s));
    codec_probe(&spool, v)?;
    let _ = std::fs::remove_dir_all(&spool);

    // ---- rungs 5 and 6: over loopback, text then framed
    let node = Node::workers(1);
    let mut text = span(tr, "connect", None, 0, |_| Client::connect(node.addr))
        .map_err(|e| format!("connect failed: {e}"))?;
    let (text_s, _) = repeat(budget, || {
        run_job(&mut text, &spec, data, tr).map(|t| (t.total_s, ()))
    })?;
    let mut framed = connect_framed(node.addr, tr)?;
    let mut rung_jobs: Vec<JobTiming> = Vec::new();
    let (framed_s, _) = repeat(budget, || {
        let t = run_job(&mut framed, &spec, data, tr)?;
        rung_jobs.push(t);
        Ok((t.total_s, ()))
    })?;
    v.set("wire.job_s_text", text_s);
    v.set("wire.job_s_framed", framed_s);
    v.set("wire.overhead_pct", pct_over(framed_s, engine_s));
    ladder.push(Rung::new("wire_text", text_s, Some("engine"), 1));
    ladder.push(Rung::new("wire_framed", framed_s, Some("wire_text"), 1));
    let split = |f: fn(&JobTiming) -> f64| median(&rung_jobs.iter().map(f).collect::<Vec<_>>());
    v.set("client.submit_ms", split(|t| t.submit_s * 1e3));
    v.set("client.wait_ms", split(|t| t.wait_s * 1e3));
    v.set("client.result_ms", split(|t| t.result_s * 1e3));
    v.set("client.polls_per_job", split(|t| t.polls as f64));
    // Claim wait under the workload's own contention where its loop
    // runs client jobs; on the idle rung otherwise (federated_scan).
    let claim_waits = if loop_claim_waits.is_empty() {
        rung_jobs.iter().map(|t| t.claim_wait_s * 1e3).collect()
    } else {
        loop_claim_waits
    };
    v.set("queue.claim_wait_p50_ms", median(&claim_waits));
    v.set("queue.claim_wait_p95_ms", percentile(&claim_waits, 95.0));

    // default `Client::wait` (2 → 250 ms backoff) against 1 ms polling
    let (default_wait_s, _) = timed(|| -> Result<(), String> {
        let id = framed.submit(&spec)?.id;
        framed.wait(id, crate::fixture::OP_TIMEOUT)?;
        Ok(())
    });
    v.set(
        "client.wait_overshoot_ms",
        (default_wait_s - split(|t| t.submit_s + t.wait_s)) * 1e3,
    );

    let ping_us = |client: &mut Client| -> Result<f64, String> {
        const PINGS: u32 = 2000;
        let start = Instant::now();
        for _ in 0..PINGS {
            client.ping()?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(PINGS))
    };
    v.set("wire.ping_rtt_us_text", ping_us(&mut text)?);
    v.set("wire.ping_rtt_us_framed", ping_us(&mut framed)?);

    // RESULT of a large top-K, bytes counted on a plain text socket
    let big = data.spec_with(shape.shards, RESULT_PROBE_TOP);
    let id = framed.submit(&big)?.id;
    framed.wait_with_backoff(id, crate::fixture::OP_TIMEOUT, POLL, POLL)?;
    data.verify(&framed.result(id)?, RESULT_PROBE_TOP)?;
    let (result_s, reply) =
        timed(|| raw_request(node.addr, &format!("RESULT {id}"), |l| l == "END"));
    v.set("wire.result_mb_s", reply?.1 as f64 / result_s / 1e6);
    drop((text, framed, node));

    // ---- rungs 7 and 8: the coordinator over 1 and 2 nodes, against a
    // direct job on one server with as many workers
    let one = [Node::workers(1)];
    let federated = |nodes: &[Node]| {
        repeat(budget, || {
            let (seconds, report, advanced) = federate_once(nodes, &spec, data, tr)?;
            Ok((seconds, (report, advanced)))
        })
    };
    let (coord1_s, _) = federated(&one)?;
    drop(one);
    let two = [Node::workers(1), Node::workers(1)];
    let (coord2_s, (report, advanced)) = federated(&two)?;
    drop(two);
    let direct = Node::workers(2);
    let mut client = connect_framed(direct.addr, tr)?;
    let (direct_s, _) = repeat(budget, || {
        run_job(&mut client, &spec, data, tr).map(|t| (t.total_s, ()))
    })?;
    drop((client, direct));
    v.set("coord.job_s_1node", coord1_s);
    v.set("coord.job_s", coord2_s);
    v.set("coord.tax_pct", pct_over(coord2_s, direct_s));
    v.set("coord.steals", report.steals.len() as f64);
    let per_node: Vec<f64> = report
        .per_node_shards
        .iter()
        .map(|(_, n)| *n as f64)
        .collect();
    let mean = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
    let spread = per_node.iter().fold(0.0f64, |m, &n| m.max(n))
        - per_node.iter().fold(f64::MAX, |m, &n| m.min(n));
    v.set("coord.node_imbalance", spread / mean);
    v.set("coord.fleet_scanned", advanced as f64);
    v.set("coord.oversubscribed", host.oversubscribed(2) as u8 as f64);
    ladder.push(Rung::new("coord_1node", coord1_s, Some("wire_framed"), 1));
    ladder.push(Rung::new("coord_2nodes", coord2_s, Some("coord_1node"), 2));
    ladder.push(Rung::new("direct_2w", direct_s, Some("wire_framed"), 2));

    // ---- CANCEL → restart → RESUME must not scan a shard twice
    let rescanned = if fx.workload == Workload::DurableScan {
        out.rescanned_shards
    } else {
        let spool = fx.dir.join("spool-resume");
        let leg = cancel_resume_leg(data, &spec, &spool, tr);
        let _ = std::fs::remove_dir_all(&spool);
        leg?.0
    };
    v.set("engine.rescanned_shards", rescanned as f64);

    // ---- pure-function layers
    v.set("queue.push_pop_ns", queue_push_pop_ns());
    v.set("spec.parse_us", spec_parse_us(&spec)?);
    v.set("frame.roundtrip_mb_s", frame_roundtrip_mb_s()?);
    Ok(())
}

fn spool_config(spool: &Path, fs: &Arc<CountingSpoolFs>) -> EngineConfig {
    EngineConfig {
        workers: 1,
        spool_dir: Some(spool.to_path_buf()),
        spool_fs: Some(Arc::clone(fs) as Arc<dyn epi_server::SpoolFs>),
        ..EngineConfig::default()
    }
}

/// The job, repeatedly, through one in-process engine: `(median job
/// seconds, median submit seconds, jobs run)`. Polls faster than
/// `Engine::wait`'s 2 ms so a 7 ms job is not rounded up by a third.
fn engine_rung(
    cfg: EngineConfig,
    spec: &JobSpec,
    data: &Data,
    budget_s: f64,
) -> Result<(f64, f64, usize), String> {
    let engine = Engine::start(cfg);
    let mut submits = Vec::new();
    let rung = repeat(budget_s, || {
        let start = Instant::now();
        let id = engine.submit(spec.clone())?.id;
        submits.push(start.elapsed().as_secs_f64());
        while !engine.status(id)?.is_stable() {
            std::thread::sleep(Duration::from_micros(200));
        }
        let top = engine.result(id)?;
        let job_s = start.elapsed().as_secs_f64();
        data.verify(&top, spec.top_k)?;
        Ok((job_s, ()))
    });
    engine.stop();
    Ok((rung?.0, median(&submits), submits.len()))
}

/// `Checkpoint::read_from` then `write_to` on the finished job's file.
fn codec_probe(spool: &Path, v: &mut Values) -> Result<(), String> {
    let file = std::fs::read_dir(spool)
        .map_err(|e| format!("spool: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .ok_or("spool holds no checkpoint")?;
    let bytes = std::fs::read(&file).map_err(|e| format!("checkpoint: {e}"))?;
    let (read_s, ck) = timed(|| Checkpoint::read_from(&bytes[..]));
    let ck = ck?;
    let mut rewritten = Vec::with_capacity(bytes.len());
    let (write_s, wrote) = timed(|| ck.write_to(&mut rewritten));
    wrote.map_err(|e| format!("checkpoint write: {e}"))?;
    if rewritten != bytes {
        return Err("checkpoint does not round-trip byte for byte".into());
    }
    v.set("codec.read_ms", read_s * 1e3);
    v.set("codec.write_ms", write_s * 1e3);
    v.set("codec.bytes", bytes.len() as f64);
    Ok(())
}

/// AND + POPCNT 64-bit words per second of the V5 inner kernel
/// (`accumulate18` at the host's SIMD tier) over L1-resident streams
/// (22 KiB): the ceiling the whole scan is held against, measured in
/// the same run on the same core.
fn popcount_peak_words_per_s() -> f64 {
    const WORDS: usize = 256;
    let words = |n: usize, seed: u64| -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    };
    let (pairs, z0, z1) = (words(9 * WORDS, 1), words(WORDS, 2), words(WORDS, 3));
    let level = bitgenome::SimdLevel::detect();
    let mut acc = [0u32; 27];
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed() < Duration::from_millis(100) {
        for _ in 0..1000 {
            epi_core::simd::accumulate18(
                level,
                black_box(&pairs),
                black_box(&z0),
                black_box(&z1),
                &mut acc,
            );
            acc = black_box([0u32; 27]);
        }
        passes += 1000;
    }
    (passes * 18 * WORDS as u64) as f64 / start.elapsed().as_secs_f64()
}

/// `DispatchQueue` push + pop, 4 lanes × 4096 tasks, nanoseconds a task.
fn queue_push_pop_ns() -> f64 {
    const LANES: [(&str, u8); 4] = [("a", 1), ("b", 1), ("c", 5), ("d", 9)];
    const TASKS: u64 = 4096;
    const ROUNDS: u64 = 8;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let mut queue = DispatchQueue::new();
        for shard in 0..TASKS {
            for (job, (tenant, priority)) in LANES.iter().enumerate() {
                queue.push(tenant, *priority, (job as u64, shard));
            }
        }
        while let Some(task) = queue.pop() {
            black_box(task);
        }
    }
    start.elapsed().as_nanos() as f64 / (ROUNDS * TASKS * LANES.len() as u64) as f64
}

fn spec_parse_us(spec: &JobSpec) -> Result<f64, String> {
    const ROUNDS: u32 = 20_000;
    let line = spec.to_tokens();
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        black_box(JobSpec::parse_tokens(black_box(&tokens))?);
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS))
}

/// `encode_into` + `decode_step` of a 32 KiB payload, MB of payload a
/// second.
fn frame_roundtrip_mb_s() -> Result<f64, String> {
    const ROUNDS: usize = 2000;
    let payload: Vec<u8> = (0..32 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let mut buf = Vec::new();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        frame::encode_into(black_box(&payload), &mut buf);
        match frame::decode_step(&mut buf)? {
            frame::Decoded::Payload(p) if p.len() == payload.len() => {
                black_box(p);
            }
            other => return Err(format!("frame did not round-trip: {other:?}")),
        }
    }
    Ok((ROUNDS * payload.len()) as f64 / start.elapsed().as_secs_f64() / 1e6)
}

fn ladder_json(ladder: &[Rung], data: &Data, host: &Host) -> String {
    let mut out = String::from("\"ladder\": [");
    eprintln!(
        "ladder ({} SNPs x {} samples, {} shards, top {}):",
        data.shape.snps, data.shape.samples, data.shape.shards, data.shape.top_k
    );
    for (i, rung) in ladder.iter().enumerate() {
        let geps = data.elements() / rung.seconds / 1e9;
        let below = rung
            .below
            .and_then(|name| ladder.iter().find(|r| r.name == name));
        let delta = below.map(|b| pct_over(rung.seconds, b.seconds));
        let oversubscribed = host.oversubscribed(rung.threads);
        eprintln!(
            "  {:<13} {:>10.6} s {:>8.3} Gelem/s {}{}",
            rung.name,
            rung.seconds,
            geps,
            delta.map_or(String::new(), |d| format!(
                "{d:>+7.1}% vs {}",
                rung.below.unwrap_or_default()
            )),
            if oversubscribed {
                "  oversubscribed"
            } else {
                ""
            }
        );
        let _ = write!(
            out,
            "{}\n  {{\"rung\": \"{}\", \"seconds\": {}, \"geps\": {geps}, \"below\": {}, \"delta_pct\": {}, \"threads\": {}, \"oversubscribed\": {oversubscribed}}}",
            if i == 0 { "" } else { "," },
            rung.name,
            rung.seconds,
            rung.below.map_or("null".to_string(), |b| format!("\"{b}\"")),
            delta.map_or("null".to_string(), |d| d.to_string()),
            rung.threads
        );
    }
    out.push_str("\n]");
    out
}
