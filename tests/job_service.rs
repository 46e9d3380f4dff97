//! End-to-end tests of the TCP job service over loopback: submit → poll
//! → result matches `detect()`, plus cancellation and checkpoint resume
//! without rescanning completed shards.

use std::time::Duration;
use threeway_epistasis::epi_server::{EngineConfig, Server};
use threeway_epistasis::prelude::*;

fn write_planted_dataset(tag: &str, m: usize, n: usize, plant: [usize; 3]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("epi3_job_service_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}-{m}x{n}.epi3", std::process::id()));
    let data = DatasetSpec::with_planted_triple(m, n, plant, 99).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

fn start_server(
    workers: usize,
    spool: Option<std::path::PathBuf>,
) -> (
    std::net::SocketAddr,
    threeway_epistasis::epi_server::ServerHandle,
) {
    let server = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers,
            spool_dir: spool,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (addr, server.spawn())
}

#[test]
fn loopback_job_returns_the_planted_triple() {
    let path = write_planted_dataset("e2e", 32, 512, [4, 13, 27]);
    let (addr, handle) = start_server(2, None);

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 24;
    spec.top_k = 10;
    let submitted = client.submit(&spec).unwrap();
    assert_eq!(submitted.total, 24);

    // poll STATUS until done
    let done = client.wait(submitted.id, Duration::from_secs(120)).unwrap();
    assert_eq!(done.state, JobState::Done, "status: {done:?}");
    assert_eq!(done.done, 24);

    // RESULT matches detect() bit-for-bit and finds the planted triple
    let got = client.result(submitted.id).unwrap();
    let (g, p) = datagen::io::load(&path).unwrap();
    let want = threeway_epistasis::detect(&g, &p);
    assert_eq!(got.len(), want.top.len());
    for (a, b) in got.iter().zip(&want.top) {
        assert_eq!(a.triple, b.triple);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    assert_eq!(got[0].triple, (4, 13, 27), "planted triple wins");

    // server-side counters visible over the wire (worker requests are
    // clamped to the host's parallelism, like every thread knob)
    let (jobs, scanned, workers) = client.stats().unwrap();
    assert_eq!(jobs, 1);
    assert_eq!(scanned, 24);
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    assert_eq!(workers, 2.min(avail));

    // pool-aggregated pair-prefix cache stats: every triple consulted a
    // cache exactly once, and the run-aware batch claiming kept the
    // pool-wide hit rate at the sequential level
    let (hits, misses, rate, min_rate, max_rate) = client.stats_pair_cache().unwrap();
    assert_eq!(
        hits + misses,
        threeway_epistasis::epi_core::combin::num_triples(32)
    );
    assert!(rate > 0.5, "pool-wide hit rate {rate}");
    assert!((0.0..=max_rate).contains(&min_rate) && max_rate <= 1.0);

    handle.shutdown();
}

#[test]
fn multiple_clients_and_jobs_share_one_server() {
    let path_a = write_planted_dataset("multi-a", 20, 256, [2, 9, 15]);
    let path_b = write_planted_dataset("multi-b", 18, 192, [1, 7, 12]);
    let (addr, handle) = start_server(3, None);

    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();

    let mut spec_a = JobSpec::new(path_a.to_str().unwrap());
    spec_a.shards = 10;
    spec_a.top_k = 3;
    let mut spec_b = JobSpec::new(path_b.to_str().unwrap());
    spec_b.shards = 5;
    spec_b.top_k = 3;
    spec_b.version = Version::V2;

    let job_a = c1.submit(&spec_a).unwrap();
    let job_b = c2.submit(&spec_b).unwrap();
    assert_ne!(job_a.id, job_b.id);

    let done_a = c1.wait(job_a.id, Duration::from_secs(120)).unwrap();
    let done_b = c2.wait(job_b.id, Duration::from_secs(120)).unwrap();
    assert_eq!(done_a.state, JobState::Done);
    assert_eq!(done_b.state, JobState::Done);

    // each job's result is its own dataset's scan
    let (ga, pa) = datagen::io::load(&path_a).unwrap();
    let mut cfg = ScanConfig::new(Version::V4);
    cfg.top_k = 3;
    assert_eq!(
        c2.result(job_a.id).unwrap(),
        detect_with(&ga, &pa, &cfg).top
    );

    let (gb, pb) = datagen::io::load(&path_b).unwrap();
    let mut cfg_b = ScanConfig::new(Version::V2);
    cfg_b.top_k = 3;
    assert_eq!(
        c1.result(job_b.id).unwrap(),
        detect_with(&gb, &pb, &cfg_b).top
    );

    // JOBS lists both, newest first
    let jobs = c1.jobs().unwrap();
    assert_eq!(jobs.len(), 2);
    assert!(jobs[0].id > jobs[1].id);

    handle.shutdown();
}

#[test]
fn cancel_keeps_checkpoint_and_resume_never_rescans() {
    let path = write_planted_dataset("cancel", 24, 320, [3, 10, 19]);
    let (addr, handle) = start_server(2, None);
    let mut client = Client::connect(addr).unwrap();

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 20;
    spec.top_k = 5;
    spec.throttle_ms = 25; // widen the cancellation window
    let job = client.submit(&spec).unwrap();

    // cancel once a few shards have landed
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let s = client.status(job.id).unwrap();
        if s.done >= 3 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.cancel(job.id).unwrap();
    let stable = client.wait(job.id, Duration::from_secs(60)).unwrap();
    assert!(
        matches!(stable.state, JobState::Cancelled | JobState::Done),
        "cancelled job should be stable, got {stable:?}"
    );
    assert!(
        stable.done < 20,
        "cancel landed after completion; widen throttle"
    );

    // RESULT refuses while cancelled
    assert!(client.result(job.id).is_err());

    // every completed shard was scanned exactly once so far
    let (_, scanned_before, _) = client.stats().unwrap();
    assert_eq!(scanned_before, stable.done);

    // resume: only the missing shards run
    let resumed = client.resume(job.id).unwrap();
    assert_eq!(resumed.state, JobState::Queued);
    assert_eq!(
        resumed.done, stable.done,
        "checkpointed shards survive cancel"
    );
    let done = client.wait(job.id, Duration::from_secs(120)).unwrap();
    assert_eq!(done.state, JobState::Done);

    // the no-rescan proof: lifetime scans == shard count
    let (_, scanned_after, _) = client.stats().unwrap();
    assert_eq!(scanned_after, 20);

    // and the final result is still bit-identical to the monolithic scan
    let (g, p) = datagen::io::load(&path).unwrap();
    let mut cfg = ScanConfig::new(Version::V4);
    cfg.top_k = 5;
    assert_eq!(
        client.result(job.id).unwrap(),
        detect_with(&g, &p, &cfg).top
    );

    handle.shutdown();
}

#[test]
fn forced_scalar_tier_echoes_in_status_and_matches_unforced() {
    use threeway_epistasis::bitgenome::SimdLevel;
    let path = write_planted_dataset("simd", 18, 224, [2, 8, 14]);
    let (addr, handle) = start_server(2, None);
    let mut client = Client::connect(addr).unwrap();

    // unforced reference job
    let base_spec = JobSpec::new(path.to_str().unwrap());
    let base = client.submit(&base_spec).unwrap();
    assert_eq!(base.simd, None, "unforced job must not echo a tier");
    client.wait(base.id, Duration::from_secs(120)).unwrap();
    let want = client.result(base.id).unwrap();

    // simd=scalar in the spec: STATUS echoes the tier end to end and the
    // result is bit-identical to the unforced run
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.simd = Some(SimdLevel::Scalar);
    let st = client.submit(&spec).unwrap();
    assert_eq!(st.simd, Some(SimdLevel::Scalar), "SUBMIT reply echo");
    let polled = client.status(st.id).unwrap();
    assert_eq!(polled.simd, Some(SimdLevel::Scalar), "STATUS echo");
    let done = client.wait(st.id, Duration::from_secs(120)).unwrap();
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.simd, Some(SimdLevel::Scalar));
    let got = client.result(st.id).unwrap();
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(a.triple, b.triple);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "forced-scalar result must be bit-identical to unforced"
        );
    }

    // a tier above the server's capability is clamped, never a crash
    let mut over_spec = JobSpec::new(path.to_str().unwrap());
    over_spec.simd = Some(SimdLevel::Avx512Vpopcnt);
    let over = client.submit(&over_spec).unwrap();
    assert_eq!(over.simd, Some(SimdLevel::Avx512Vpopcnt.clamped_to_host()));
    client.wait(over.id, Duration::from_secs(120)).unwrap();

    // an unsupported tier *name* is a clean protocol error, not a panic —
    // and the connection (and server) survive to serve the next request
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    raw.write_all(format!("SUBMIT path={} simd=sse9\n", path.to_str().unwrap()).as_bytes())
        .unwrap();
    raw.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR") && line.contains("sse9"),
        "unsupported tier must be a clean error, got {line:?}"
    );
    raw.write_all(b"PING\n").unwrap();
    raw.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK pong"), "server must survive: {line:?}");

    handle.shutdown();
}

#[test]
fn shard_set_jobs_and_progress_verbs_work_over_the_wire() {
    use threeway_epistasis::epi_core::shard::ShardSet;
    let path = write_planted_dataset("fedverbs", 20, 256, [3, 8, 16]);
    let (addr, handle) = start_server(2, None);
    let mut client = Client::connect(addr).unwrap();

    // two sub-jobs partitioning one 10-shard global plan
    let mut spec_a = JobSpec::new(path.to_str().unwrap());
    spec_a.shards = 10;
    spec_a.top_k = 4;
    let mut spec_b = spec_a.clone();
    spec_a.shard_set = Some(ShardSet::from_range(0..6));
    spec_b.shard_set = Some(ShardSet::from_range(6..10));
    let a = client.submit(&spec_a).unwrap();
    let b = client.submit(&spec_b).unwrap();
    assert_eq!(a.total, 6);
    assert_eq!(b.total, 4);
    assert_eq!(
        client.wait(a.id, Duration::from_secs(120)).unwrap().state,
        JobState::Done
    );
    assert_eq!(
        client.wait(b.id, Duration::from_secs(120)).unwrap().state,
        JobState::Done
    );

    // SHARDS_DONE reports exactly each sub-job's owned partition
    assert_eq!(
        client.shards_done(a.id).unwrap(),
        ShardSet::from_range(0..6)
    );
    assert_eq!(
        client.shards_done(b.id).unwrap(),
        ShardSet::from_range(6..10)
    );

    // PARTIAL dumps per-shard candidates; merging the two partitions per
    // shard index reproduces the monolithic scan bit-for-bit
    let mut top = threeway_epistasis::epi_core::result::TopK::new(4);
    for id in [a.id, b.id] {
        for (_, cands) in client.partial(id, &ShardSet::new()).unwrap() {
            for c in cands {
                top.push(c.score, c.triple);
            }
        }
    }
    let (g, p) = datagen::io::load(&path).unwrap();
    let mut cfg = ScanConfig::new(Version::V5);
    cfg.top_k = 4;
    let want = detect_with(&g, &p, &cfg).top;
    let got = top.into_sorted();
    assert_eq!(got.len(), want.len());
    for (x, y) in got.iter().zip(&want) {
        assert_eq!(x.triple, y.triple);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }

    // both verbs fail cleanly on unknown jobs
    assert!(client.shards_done(999).is_err());
    assert!(client.partial(999, &ShardSet::new()).is_err());

    handle.shutdown();
}

#[test]
fn client_deadline_turns_a_silent_peer_into_a_clean_timeout() {
    // a listener that never answers: connection succeeds (backlog), but
    // every request goes unreplied — exactly what a hung node looks like
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap();

    let mut client = Client::connect_with_deadline(addr, Duration::from_millis(150)).unwrap();
    let start = std::time::Instant::now();
    let err = client.ping().unwrap_err();
    assert!(
        err.contains("timed out"),
        "expected a clean timeout error, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline must fire promptly, took {:?}",
        start.elapsed()
    );

    // against a live server the deadline-enabled client works normally
    let (srv_addr, handle) = start_server(1, None);
    let mut live = Client::connect_with_deadline(srv_addr, Duration::from_secs(5)).unwrap();
    live.ping().unwrap();
    handle.shutdown();
}

#[test]
fn connections_surviving_shutdown_are_refused() {
    let (addr, handle) = start_server(1, None);
    use std::io::{BufRead, BufReader, Write};

    // open a second connection BEFORE shutdown
    let mut survivor = std::net::TcpStream::connect(addr).unwrap();
    let mut survivor_reader = BufReader::new(survivor.try_clone().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // the surviving connection must not be able to enqueue work on an
    // engine whose workers are gone
    survivor
        .write_all(b"SUBMIT path=/tmp/whatever.epi3\n")
        .unwrap();
    survivor.flush().unwrap();
    let mut line = String::new();
    let n = survivor_reader.read_line(&mut line).unwrap_or(0);
    assert!(
        n == 0 || line.starts_with("ERR"),
        "post-shutdown request must be refused or the socket closed, got {line:?}"
    );

    handle.shutdown();
}

#[test]
fn protocol_rejects_garbage_gracefully() {
    let (addr, handle) = start_server(1, None);
    use std::io::{BufRead, BufReader, Write};

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut say = |req: &str, reader: &mut BufReader<std::net::TcpStream>| {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    assert!(say("FROBNICATE", &mut reader).starts_with("ERR unknown verb"));
    assert!(say("STATUS notanumber", &mut reader).starts_with("ERR"));
    assert!(say("STATUS 424242", &mut reader).starts_with("ERR no such job"));
    assert!(
        say("SUBMIT shards=4", &mut reader).starts_with("ERR"),
        "missing path"
    );
    assert!(say("SUBMIT path=/no/such/file.epi3", &mut reader).starts_with("ERR"));
    assert!(say("RESULT 1", &mut reader).starts_with("ERR"));
    assert!(say("PING", &mut reader).starts_with("OK pong"));

    handle.shutdown();
}
