//! End-to-end federation over loopback fleets of real epi-servers:
//! bit-identical merges, dead-node recovery, and straggler stealing.

use epi_coord::{federate, partition, FederationConfig, FederationReport, StealReason};
use epi_core::result::Candidate;
use epi_core::scan::{ScanConfig, Version};
use epi_core::shard::ShardSet;
use epi_server::{Client, EngineConfig, JobSpec, Server, ServerHandle};
use std::net::SocketAddr;
use std::time::Duration;

fn write_dataset(tag: &str, m: usize, n: usize, seed: u64) -> std::path::PathBuf {
    write_dataset_planted(tag, m, n, [2, 7, 11], seed)
}

fn write_dataset_planted(
    tag: &str,
    m: usize,
    n: usize,
    planted: [usize; 3],
    seed: u64,
) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("epi_coord_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}-{m}x{n}-{seed}.epi3", std::process::id()));
    let data = datagen::DatasetSpec::with_planted_triple(m, n, planted, seed).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

fn spawn_fleet(workers: &[usize]) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for &w in workers {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig {
                workers: w,
                spool_dir: None,
                default_simd: None,
                dataset_root: None,
                ..EngineConfig::default()
            },
        )
        .expect("bind loopback");
        addrs.push(server.local_addr());
        handles.push(server.spawn());
    }
    (addrs, handles)
}

fn monolithic(path: &std::path::Path, top_k: usize) -> Vec<Candidate> {
    let (g, p) = datagen::io::load(path).unwrap();
    let mut cfg = ScanConfig::new(Version::V5);
    cfg.top_k = top_k;
    epi_core::scan::scan(&g, &p, &cfg).top
}

fn assert_bit_identical(got: &[Candidate], want: &[Candidate]) {
    assert_eq!(got.len(), want.len(), "candidate count");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.triple, b.triple);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "triple {:?}",
            a.triple
        );
    }
}

/// Requests of one verb the coordinator sent during the run.
fn rpcs(report: &FederationReport, verb: &str) -> u64 {
    report
        .rpcs
        .iter()
        .find(|(v, _)| *v == verb)
        .map_or(0, |(_, n)| *n)
}

fn test_config(addrs: &[SocketAddr]) -> FederationConfig {
    let mut cfg = FederationConfig::new(addrs.iter().map(|a| a.to_string()).collect());
    cfg.rpc_deadline = Duration::from_secs(2);
    cfg.max_rpc_failures = 2;
    cfg.steal_patience = Duration::from_millis(50);
    cfg.overall_deadline = Duration::from_secs(120);
    cfg
}

#[test]
fn partition_tiles_the_plan_exactly() {
    for (shards, nodes) in [(16u64, 4usize), (7, 3), (5, 8), (1, 1), (64, 5)] {
        let parts = partition(shards, nodes);
        assert_eq!(parts.len(), nodes);
        let mut union = ShardSet::new();
        let mut total = 0;
        for p in &parts {
            for s in p.iter() {
                assert!(!union.contains(s), "overlap at shard {s}");
                union.insert(s);
            }
            total += p.len();
        }
        assert_eq!(total, shards, "{shards} shards over {nodes} nodes");
        assert_eq!(union, ShardSet::from_range(0..shards));
    }
}

#[test]
fn two_node_federation_merges_bit_identical_to_monolithic() {
    let path = write_dataset("twonode", 24, 256, 5);
    let (addrs, handles) = spawn_fleet(&[2, 2]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 8;

    let report = federate(&spec, &test_config(&addrs)).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 8));
    assert_eq!(report.num_shards, 16);
    assert!(report.dead_nodes.is_empty());
    // both nodes contributed, and every shard is attributed exactly once
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);
    assert!(
        report.per_node_shards.iter().all(|(_, n)| *n > 0),
        "both nodes should do work: {:?}",
        report.per_node_shards
    );
    // what the run cost: every shard's list crossed the wire exactly
    // once, each harvest was announced by one parked WAIT, and nothing
    // polled — one SUBMIT per sub-job and no STATUS at all
    assert_eq!(report.harvested_shards, 16);
    let rpcs = |verb| rpcs(&report, verb);
    assert_eq!(rpcs("SUBMIT"), 2, "{:?}", report.rpcs);
    assert_eq!(rpcs("STATUS"), 0, "{:?}", report.rpcs);
    assert!((1..=16).contains(&rpcs("PARTIAL")), "{:?}", report.rpcs);
    assert!(rpcs("WAIT") >= rpcs("PARTIAL"), "{:?}", report.rpcs);

    for h in handles {
        h.shutdown();
    }
}

/// Total shards scanned by the fleet since its servers started.
fn fleet_scanned(addrs: &[SocketAddr]) -> u64 {
    addrs
        .iter()
        .map(|a| Client::connect(a).unwrap().stats().unwrap().1)
        .sum()
}

#[test]
fn second_federation_on_a_live_fleet_is_never_echoed_the_first() {
    // Same SNP count, same shard plan, no caller job_token: everything
    // the derived sub-job tokens used to hash is equal across the two
    // runs, so the fleet would answer B's SUBMITs with A's finished
    // jobs and B would report A's top-K.
    let a = write_dataset_planted("echo-a", 20, 256, [2, 7, 11], 5);
    let b = write_dataset_planted("echo-b", 20, 256, [4, 9, 16], 6);
    let (addrs, handles) = spawn_fleet(&[1, 1]);
    let cfg = test_config(&addrs);
    let spec_for = |path: &std::path::Path| {
        let mut spec = JobSpec::new(path.to_str().unwrap());
        spec.shards = 12;
        spec.top_k = 6;
        spec
    };

    let report_a = federate(&spec_for(&a), &cfg).expect("federation A");
    assert_bit_identical(&report_a.top, &monolithic(&a, 6));
    let scanned_after_a = fleet_scanned(&addrs);
    assert_eq!(scanned_after_a, 12);

    let report_b = federate(&spec_for(&b), &cfg).expect("federation B");
    let want_b = monolithic(&b, 6);
    assert_ne!(want_b[0].triple, report_a.top[0].triple, "datasets differ");
    assert_bit_identical(&report_b.top, &want_b);
    assert_eq!(
        fleet_scanned(&addrs) - scanned_after_a,
        12,
        "B's shards must be scanned, not echoed"
    );

    for h in handles {
        h.shutdown();
    }
}

#[test]
fn single_node_federation_degenerates_cleanly() {
    let path = write_dataset("onenode", 18, 192, 9);
    let (addrs, handles) = spawn_fleet(&[2]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 6;
    spec.top_k = 5;
    let report = federate(&spec, &test_config(&addrs)).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 5));
    assert!(report.steals.is_empty());
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn killed_node_mid_scan_is_survived_bit_identically() {
    let path = write_dataset("killed", 22, 224, 13);
    let (addrs, mut handles) = spawn_fleet(&[2, 2]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 8;
    spec.throttle_ms = 25; // keep the victim mid-scan long enough to die there

    // killer thread: wait until the victim (node 1) has completed at
    // least one shard of its sub-job, then SHUTDOWN it mid-scan
    let victim_addr = addrs[1];
    let killer = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "victim never made progress"
            );
            if let Ok(mut c) = Client::connect_with_deadline(victim_addr, Duration::from_secs(2)) {
                let progressed = c
                    .jobs()
                    .map(|jobs| jobs.iter().any(|j| j.done >= 1 && j.done < j.total));
                if matches!(progressed, Ok(true)) {
                    let _ = c.shutdown();
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let report = federate(&spec, &test_config(&addrs)).expect("federation survives the kill");
    killer.join().unwrap();

    assert_bit_identical(&report.top, &monolithic(&path, 8));
    assert_eq!(
        report.dead_nodes,
        vec![addrs[1].to_string()],
        "the killed node must be declared dead"
    );
    // its unfinished shards moved to the survivor
    assert!(
        report
            .steals
            .iter()
            .any(|s| s.reason == StealReason::DeadNode && s.from == addrs[1].to_string()),
        "expected a dead-node reassignment, got {:?}",
        report.steals
    );
    // every shard still attributed exactly once
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);

    handles.remove(1); // killed itself; joining its handle would hang on shutdown()
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn straggler_work_is_stolen_by_the_idle_node() {
    let path = write_dataset("straggler", 20, 192, 21);
    let (addrs, handles) = spawn_fleet(&[1, 1]);

    // Make node 1 the straggler: the engine's shard queue is FIFO across
    // jobs, so a throttled background job submitted first keeps node 1's
    // federation sub-job queued for ~360 ms while node 0 races ahead.
    // (Worker-count asymmetry can't be used here: single-core CI hosts
    // clamp every pool to one worker.)
    let mut bg = JobSpec::new(path.to_str().unwrap());
    bg.shards = 12;
    bg.top_k = 1;
    bg.throttle_ms = 30;
    Client::connect(addrs[1]).unwrap().submit(&bg).unwrap();

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 6;
    spec.throttle_ms = 10; // node 0 drains its 8 shards in ~80 ms, then idles

    let report = federate(&spec, &test_config(&addrs)).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 6));
    assert!(report.dead_nodes.is_empty());
    assert!(
        report
            .steals
            .iter()
            .any(|s| s.reason == StealReason::Straggler
                && s.from == addrs[1].to_string()
                && s.to == addrs[0].to_string()),
        "fast node should steal from the slow one, got {:?}",
        report.steals
    );
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);
    // a steal can fetch a shard twice (mid-scan during the cancel, so it
    // lands on both nodes) but only a stolen one
    let stolen: u64 = report.steals.iter().map(|s| s.shards.len()).sum();
    assert!(
        (16..=16 + stolen).contains(&report.harvested_shards),
        "harvested {} lists for 16 shards with {stolen} stolen",
        report.harvested_shards
    );

    for h in handles {
        h.shutdown();
    }
}

/// A node that refuses PARTIAL (a healthy server saying no) leaves the
/// WAIT's `done>=K` already true, so the next WAIT returns at once: the
/// retry must be paced per tick, not spun.
#[test]
fn a_refused_harvest_is_retried_once_per_paced_tick() {
    let path = write_dataset("refused", 18, 192, 27);
    let (addrs, handles) = spawn_fleet(&[1]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 6;
    spec.top_k = 5;
    spec.fail_partial = 2;

    let began = std::time::Instant::now();
    let report = federate(&spec, &test_config(&addrs)).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 5));
    assert!(report.dead_nodes.is_empty(), "a refusal is not a strike");
    assert!(report.steals.is_empty(), "{:?}", report.steals);
    assert_eq!(report.harvested_shards, 6);
    let rpcs = |verb| rpcs(&report, verb);
    // at most one PARTIAL per shard plus the two refused ones, and one
    // WAIT per PARTIAL plus the ticks that timed out with nothing new
    assert!(rpcs("PARTIAL") <= 6 + 2, "{:?}", report.rpcs);
    let quiet_ticks = began.elapsed().as_millis() as u64 / 50 + 1;
    assert!(
        rpcs("WAIT") <= rpcs("PARTIAL") + quiet_ticks,
        "{:?} in {:?}",
        report.rpcs,
        began.elapsed()
    );
    for h in handles {
        h.shutdown();
    }
}

/// Shards slower than the read timeout: every WAIT times out *in the
/// server* (an ordinary unfinished status, well inside `rpc_deadline`),
/// so a slow node is never mistaken for a dead link.
#[test]
fn slow_shards_time_out_in_the_server_not_on_the_link() {
    let path = write_dataset("slowshards", 18, 192, 33);
    let (addrs, handles) = spawn_fleet(&[1, 1]);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 4;
    spec.top_k = 5;
    spec.throttle_ms = 700;

    let mut cfg = test_config(&addrs);
    cfg.rpc_deadline = Duration::from_millis(500); // < one shard
    cfg.max_rpc_failures = 1; // a single link timeout would kill the node
    cfg.steal_patience = Duration::from_secs(30);
    let report = federate(&spec, &cfg).expect("federation");
    assert_bit_identical(&report.top, &monolithic(&path, 5));
    assert!(report.dead_nodes.is_empty(), "{:?}", report.dead_nodes);
    assert!(report.steals.is_empty(), "{:?}", report.steals);
    assert!(report.readmissions.is_empty());
    for h in handles {
        h.shutdown();
    }
}

/// A fake fleet member speaking the framed protocol from a script:
/// `answer(request line) -> reply text`.
fn fake_node(answer: impl Fn(&str) -> String + Send + Sync + 'static) -> SocketAddr {
    use epi_server::frame::{FrameReader, FrameWriter};
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let answer = std::sync::Arc::new(answer);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            let answer = std::sync::Arc::clone(&answer);
            std::thread::spawn(move || {
                let mut out = FrameWriter::new(conn.try_clone().unwrap());
                let mut lines = BufReader::new(FrameReader::new(conn));
                let mut line = String::new();
                while matches!(lines.read_line(&mut line), Ok(n) if n > 0) {
                    let reply = answer(line.trim_end());
                    if out
                        .write_all(reply.as_bytes())
                        .and_then(|_| out.flush())
                        .is_err()
                    {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

/// A job id is only a number: a node restarted without its spool
/// re-issues ids, so the id of our sub-job can come to name somebody
/// else's job on the same dataset — right hash, wrong shards. Whatever
/// such a reply carries (a shard we did not assign, one we said we
/// have, a list longer than top-K), none of it may be merged.
#[test]
fn a_harvest_that_answers_for_someone_elses_job_is_never_merged() {
    let path = write_dataset("foreign", 20, 192, 39);
    let (addrs, handles) = spawn_fleet(&[1]);
    // the impostor is handed shards 4-7 and answers with shard 1 — the
    // real node's — carrying a candidate that would top the merge
    let submits = std::sync::atomic::AtomicU64::new(0);
    let impostor = fake_node(move |request| {
        let verb = request.split_whitespace().next().unwrap_or("");
        match verb {
            "SUBMIT" if submits.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 => {
                "OK job=7 state=queued done=0 total=4 in_flight=0 combos=100\n".into()
            }
            "SUBMIT" => "ERR over capacity (retry_after_ms=60000): one job was enough\n".into(),
            "WAIT" => "OK job=7 state=running done=1 total=4 in_flight=1 combos=100\n".into(),
            "PARTIAL" => format!(
                "OK job=7 count=1\nSHARD 1 1\nCAND 0 1 2 {:016x}\nEND\n",
                f64::NEG_INFINITY.to_bits()
            ),
            _ => "ERR unexpected\n".into(),
        }
    });

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 8;
    spec.top_k = 6;
    spec.throttle_ms = 5;
    let mut cfg = test_config(&[addrs[0], impostor]);
    cfg.steal_patience = Duration::from_secs(30);
    let report = federate(&spec, &cfg).expect("federation finishes on the real node");

    assert_bit_identical(&report.top, &monolithic(&path, 6));
    let impostor = impostor.to_string();
    assert_eq!(
        report.per_node_shards,
        vec![(addrs[0].to_string(), 8), (impostor.clone(), 0)],
        "nothing the impostor sent may count as a merged shard"
    );
    assert!(
        report
            .steals
            .iter()
            .any(|s| s.reason == StealReason::FailedJob
                && s.from == impostor
                && s.shards == ShardSet::from_range(4..8)),
        "its assignment is closed and re-owned whole: {:?}",
        report.steals
    );
    assert!(report.dead_nodes.is_empty() && report.quarantined.is_empty());
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn config_errors_are_caught_before_any_rpc() {
    let spec = JobSpec::new("/data/x.epi3");
    assert!(federate(&spec, &FederationConfig::new(vec![])).is_err());
    let mut preset = spec.clone();
    preset.shard_set = Some(ShardSet::from_range(0..1));
    let cfg = FederationConfig::new(vec!["127.0.0.1:1".into()]);
    assert!(federate(&preset, &cfg).is_err());
}

#[test]
fn a_fully_dead_fleet_is_a_clean_error() {
    // reserved ports: nothing listens, connects are refused instantly
    let mut cfg = FederationConfig::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
    cfg.rpc_deadline = Duration::from_millis(300);
    cfg.max_rpc_failures = 2;
    cfg.overall_deadline = Duration::from_secs(30);
    let mut spec = JobSpec::new("/data/x.epi3");
    spec.shards = 8;
    let err = federate(&spec, &cfg).unwrap_err();
    assert!(err.contains("dead"), "unhelpful error: {err}");
}

#[test]
fn over_capacity_node_is_routed_around_not_declared_dead() {
    let path = write_dataset("backpressure", 20, 224, 31);

    // node 0 is healthy; node 1 has a 1-byte memory budget and refuses
    // every SUBMIT with `over capacity` — backpressure, not death
    let healthy = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    )
    .expect("bind healthy node");
    let full = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers: 1,
            mem_budget: Some(1),
            ..EngineConfig::default()
        },
    )
    .expect("bind full node");
    let addrs = vec![healthy.local_addr(), full.local_addr()];
    let handles = vec![healthy.spawn(), full.spawn()];

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 8;
    spec.top_k = 6;
    // a tight RPC deadline keeps the client's own over-capacity retry
    // loop short, so each refusal costs about a second, not thirty
    let mut cfg = test_config(&addrs);
    cfg.rpc_deadline = Duration::from_secs(1);

    let report = federate(&spec, &cfg).expect("federation completes despite backpressure");
    assert_bit_identical(&report.top, &monolithic(&path, 6));

    // the refusing node was treated as busy and routed around: it is
    // neither dead nor quarantined, and the healthy node absorbed the
    // requeued partition
    assert!(
        report.dead_nodes.is_empty(),
        "over capacity must not kill a node: {:?}",
        report.dead_nodes
    );
    assert!(report.quarantined.is_empty());
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 8);
    assert!(
        report
            .per_node_shards
            .iter()
            .all(|(a, n)| *n == 0 || *a == addrs[0].to_string()),
        "every merged shard should come from the healthy node: {:?}",
        report.per_node_shards
    );

    for h in handles {
        h.shutdown();
    }
}
