//! Chaos and recovery end-to-end tests: the PR 7 acceptance gauntlet.
//!
//! Every test here runs real epi-servers on loopback and proves one of
//! the coordinator's survival claims **bit-identically** against the
//! monolithic scan:
//!
//! 1. a node killed mid-scan and restarted is re-admitted from
//!    probation and contributes merged shards after recovery;
//! 2. a coordinator killed mid-scan resumes from its spool file without
//!    rescanning any merged shard;
//! 3. a node whose dataset replica diverged is quarantined — its
//!    results are never merged and the federation still finishes right;
//! 4. a fleet behind seeded chaos proxies (drops, black-holes, delays,
//!    truncations) still merges bit-identically — rerun any failure
//!    with `EPI3_CHAOS_SEED=<n>`.

use epi_coord::{federate, resume_from_spool, ChaosProxy, ChaosSchedule, FederationConfig};
use epi_core::result::Candidate;
use epi_core::scan::{ScanConfig, Version};
use epi_server::{Client, EngineConfig, JobSpec, Server, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epi_recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_dataset(tag: &str, m: usize, n: usize, seed: u64) -> PathBuf {
    let path = test_dir().join(format!("{tag}-{m}x{n}-{seed}.epi3"));
    let data = datagen::DatasetSpec::with_planted_triple(m, n, [2, 7, 11], seed).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

fn node_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        spool_dir: None,
        default_simd: None,
        dataset_root: None,
        ..EngineConfig::default()
    }
}

fn spawn_fleet(n: usize) -> (Vec<SocketAddr>, Vec<ServerHandle>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let server = Server::bind("127.0.0.1:0", node_config()).expect("bind loopback");
        addrs.push(server.local_addr());
        handles.push(server.spawn());
    }
    (addrs, handles)
}

fn monolithic(path: &Path, top_k: usize) -> Vec<Candidate> {
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

fn test_config(nodes: Vec<String>) -> FederationConfig {
    let mut cfg = FederationConfig::new(nodes);
    cfg.rpc_deadline = Duration::from_secs(2);
    cfg.max_rpc_failures = 2;
    cfg.steal_patience = Duration::from_millis(50);
    cfg.probe_floor = Duration::from_millis(10);
    cfg.probe_cap = Duration::from_millis(100);
    cfg.overall_deadline = Duration::from_secs(120);
    cfg
}

fn addrs_of(addrs: &[SocketAddr]) -> Vec<String> {
    addrs.iter().map(|a| a.to_string()).collect()
}

/// Acceptance 1: kill → recover → re-admit. The victim dies before
/// completing a single shard (heavy throttle, instant kill), restarts
/// on the same address, is re-admitted by a probation probe, and every
/// shard attributed to it was therefore merged *after* recovery.
#[test]
fn killed_node_is_readmitted_and_contributes_after_recovery() {
    let path = write_dataset("readmit", 22, 224, 17);
    let (addrs, mut handles) = spawn_fleet(2);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 8;
    spec.throttle_ms = 40; // a shard takes ≥40 ms: the kill lands first

    // killer-then-reviver: SHUTDOWN node 1 the moment its sub-job is
    // running but has completed nothing, pause, then rebind the same
    // address — a crashed fleet member coming back up
    let victim_addr = addrs[1];
    let reviver = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "victim never started its job");
            if let Ok(mut c) = Client::connect_with_deadline(victim_addr, Duration::from_secs(2)) {
                let ready = c
                    .jobs()
                    .map(|jobs| jobs.iter().any(|j| j.done == 0 && j.in_flight > 0));
                if matches!(ready, Ok(true)) {
                    let _ = c.shutdown();
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // stay down long enough to be declared dead and probed
        std::thread::sleep(Duration::from_millis(150));
        let revived = Server::bind(victim_addr, node_config()).expect("rebind victim address");
        revived.spawn()
    });

    let report = federate(&spec, &test_config(addrs_of(&addrs))).expect("federation survives");
    let revived_handle = reviver.join().unwrap();

    assert_bit_identical(&report.top, &monolithic(&path, 8));
    let victim = victim_addr.to_string();
    let readmission = report
        .readmissions
        .iter()
        .find(|r| r.node == victim)
        .unwrap_or_else(|| panic!("victim never re-admitted: {:?}", report.readmissions));
    assert!(readmission.downtime > Duration::ZERO);
    // re-admitted and then put back to work: it died with zero shards
    // done, so its attribution is entirely post-recovery
    let victim_shards = report
        .per_node_shards
        .iter()
        .find(|(a, _)| *a == victim)
        .map(|(_, n)| *n)
        .unwrap();
    assert!(
        victim_shards >= 1,
        "re-admitted node merged nothing: {:?}",
        report.per_node_shards
    );
    assert!(
        report
            .steals
            .iter()
            .any(|s| s.to == victim && s.at > readmission.at),
        "no work was routed to the re-admitted node: {:?}",
        report.steals
    );
    assert!(
        !report.dead_nodes.contains(&victim),
        "a re-admitted node must not be reported dead"
    );
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);

    handles.remove(1); // its first incarnation killed itself
    for h in handles {
        h.shutdown();
    }
    revived_handle.shutdown();
}

/// Acceptance 2: kill the coordinator mid-scan (injected crash after 4
/// merges), resume from its spool, and prove bit-identity *and* zero
/// rescans — the fleet's scanned-shard total stays exactly the plan
/// size because resumed sub-jobs are adopted, not resubmitted.
#[test]
fn coordinator_killed_mid_scan_resumes_from_spool_bit_identically() {
    let path = write_dataset("resume", 24, 256, 29);
    let (addrs, handles) = spawn_fleet(2);
    let spool = test_dir().join("resume.fedckpt");
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 16;
    spec.top_k = 8;
    spec.throttle_ms = 10;

    let mut cfg = test_config(addrs_of(&addrs));
    cfg.steal_patience = Duration::from_secs(30); // no steals: keeps the
                                                  // scanned-shard ledger exact
    cfg.spool_path = Some(spool.clone());
    cfg.fail_after_merges = Some(4);

    let err = federate(&spec, &cfg).expect_err("injected crash must fire");
    assert!(err.contains("injected coordinator crash"), "{err}");
    assert!(spool.exists(), "crash must leave a spooled checkpoint");

    // the coordinator is gone; the fleet keeps scanning its sub-jobs
    let mut resume_cfg = cfg.clone();
    resume_cfg.fail_after_merges = None;
    let report = resume_from_spool(&spool, &resume_cfg).expect("resume");

    assert_bit_identical(&report.top, &monolithic(&path, 8));
    assert!(
        report.resumed_merged >= 4,
        "checkpointed merges must be adopted, got {}",
        report.resumed_merged
    );
    assert_eq!(report.num_shards, 16);
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 16);
    // the no-rescan proof: across the whole fleet exactly 16 shard
    // scans ran — adoption never resubmitted finished work
    let scanned: u64 = addrs
        .iter()
        .map(|a| {
            Client::connect_with_deadline(*a, Duration::from_secs(2))
                .unwrap()
                .stats()
                .unwrap()
                .1
        })
        .sum();
    assert_eq!(scanned, 16, "resume must not rescan merged shards");

    for h in handles {
        h.shutdown();
    }
}

/// Acceptance 3: one node's dataset replica is corrupt (same shape,
/// different content). The pinned `dataset_hash=` makes that node
/// refuse the sub-job at SUBMIT, the coordinator quarantines it, and
/// the federation finishes bit-identically on the healthy node alone.
#[test]
fn corrupted_replica_is_quarantined_and_never_merged() {
    let good = write_dataset("integrity-good", 20, 192, 31);
    // node 1 resolves spec paths under its own root, where the same
    // file name holds a divergent cohort
    let evil_root = test_dir().join("evil-root");
    std::fs::create_dir_all(&evil_root).unwrap();
    let corrupt = datagen::DatasetSpec::with_planted_triple(20, 192, [2, 7, 11], 9999).generate();
    datagen::io::save_binary(evil_root.join(good.file_name().unwrap()), &corrupt).unwrap();

    let healthy = Server::bind("127.0.0.1:0", node_config()).unwrap();
    let healthy_addr = healthy.local_addr();
    let healthy_handle = healthy.spawn();
    let tainted = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            dataset_root: Some(evil_root),
            ..node_config()
        },
    )
    .unwrap();
    let tainted_addr = tainted.local_addr();
    let tainted_handle = tainted.spawn();

    let mut spec = JobSpec::new(good.to_str().unwrap());
    spec.shards = 8;
    spec.top_k = 6;
    let cfg = test_config(vec![healthy_addr.to_string(), tainted_addr.to_string()]);
    let report = federate(&spec, &cfg).expect("healthy node carries the scan");

    assert_bit_identical(&report.top, &monolithic(&good, 6));
    let (quarantined_addr, reason) = report
        .quarantined
        .first()
        .unwrap_or_else(|| panic!("tainted node not quarantined: {:?}", report.quarantined));
    assert_eq!(*quarantined_addr, tainted_addr.to_string());
    assert!(reason.contains("hash mismatch"), "{reason}");
    // never merged a shard, never re-admitted, not merely "dead"
    let tainted_shards = report
        .per_node_shards
        .iter()
        .find(|(a, _)| *a == tainted_addr.to_string())
        .map(|(_, n)| *n)
        .unwrap();
    assert_eq!(tainted_shards, 0, "quarantined results must never merge");
    assert!(report.readmissions.is_empty());
    assert!(!report.dead_nodes.contains(&tainted_addr.to_string()));
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 8);

    healthy_handle.shutdown();
    tainted_handle.shutdown();
}

/// Regression (PR 7 satellite): a fleet larger than the plan leaves the
/// surplus nodes idle instead of submitting empty sub-jobs.
#[test]
fn more_nodes_than_shards_leaves_surplus_nodes_idle() {
    let path = write_dataset("surplus", 18, 192, 41);
    let (addrs, handles) = spawn_fleet(4);
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 2;
    spec.top_k = 5;
    let mut cfg = test_config(addrs_of(&addrs));
    cfg.steal_patience = Duration::from_secs(30); // idle surplus must not churn

    let report = federate(&spec, &cfg).expect("surplus fleet");
    assert_bit_identical(&report.top, &monolithic(&path, 5));
    assert!(report.dead_nodes.is_empty());
    assert!(report.steals.is_empty(), "{:?}", report.steals);
    let busy = report
        .per_node_shards
        .iter()
        .filter(|(_, n)| *n > 0)
        .count();
    assert!(
        busy <= 2,
        "at most one node per shard: {:?}",
        report.per_node_shards
    );
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 2);

    for h in handles {
        h.shutdown();
    }
}

/// A `WAIT` parked on a link that went dead: the write lands in a
/// kernel buffer, no reply ever comes, and what resolves it is the
/// connection's `rpc_deadline` — one transport failure, however long
/// the server was asked to hold the reply. The write half must not pass
/// for a sign of life either, or a black-holed node would reset its own
/// strike count every tick and never be declared dead.
#[test]
fn a_wait_parked_on_a_dead_link_resolves_through_the_rpc_deadline() {
    use epi_coord::{Fault, NodeHandle};
    let (addrs, handles) = spawn_fleet(1);
    // connections 0 and 1 are black holes, 2 onward are faithful
    let proxy = ChaosProxy::launch(
        addrs[0],
        ChaosSchedule::Scripted(vec![Fault::Blackhole, Fault::Blackhole]),
    )
    .expect("launch chaos proxy");
    let rpc_deadline = Duration::from_millis(250);
    let mut node = NodeHandle::new(proxy.local_addr().to_string(), rpc_deadline, 2);
    let park = rpc_deadline / 2;

    let began = Instant::now();
    node.post(|c| c.wait_post(1, Some(1), park))
        .expect("the write succeeds");
    assert_eq!(node.failures(), 0);
    let err = node.rpc(|c| c.wait_reply()).unwrap_err();
    assert!(err.starts_with("receive timed out"), "{err}");
    let took = began.elapsed();
    assert!(
        took >= rpc_deadline && took < rpc_deadline * 8,
        "resolved by the read timeout, got {took:?}"
    );
    assert_eq!(node.failures(), 1, "one dead WAIT is one strike");

    // next tick, next (black-holed) connection: the successful write
    // leaves the strike standing, the second silence is the last one
    node.post(|c| c.wait_post(1, Some(1), park))
        .expect("the write succeeds again");
    assert_eq!(node.failures(), 1, "a write proves nothing about the peer");
    assert!(node.rpc(|c| c.wait_reply()).is_err());
    assert!(node.is_dead(), "two silent WAITs in a row: dead");

    // the link heals: the probe re-admits it and a WAIT gets its answer
    // (`no such job` — a protocol error, i.e. a healthy exchange)
    std::thread::sleep(Duration::from_millis(60));
    assert!(node.probe().is_some(), "connection 2 is faithful");
    node.post(|c| c.wait_post(1, Some(1), park)).unwrap();
    let err = node.rpc(|c| c.wait_reply()).unwrap_err();
    assert!(err.contains("no such job"), "{err}");
    assert_eq!(node.failures(), 0);

    drop(proxy);
    for h in handles {
        h.shutdown();
    }
}

/// Chaos sweep: every coordinator↔node byte crosses a seeded fault
/// proxy. Whatever the schedule drops, delays, black-holes, or
/// truncates, the merge must stay bit-identical and completely
/// attributed. Seed comes from `EPI3_CHAOS_SEED` so CI can pin several
/// and a failure replays exactly.
#[test]
fn seeded_chaos_federation_stays_bit_identical() {
    let seed: u64 = std::env::var("EPI3_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let path = write_dataset("chaos", 22, 224, 53);
    let (addrs, handles) = spawn_fleet(2);
    let mut proxies = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        proxies.push(
            ChaosProxy::launch(
                *addr,
                ChaosSchedule::Seeded(seed.wrapping_add(i as u64 * 1000)),
            )
            .expect("launch chaos proxy"),
        );
    }

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 12;
    spec.top_k = 8;
    spec.throttle_ms = 5;
    let mut cfg = test_config(proxies.iter().map(|p| p.local_addr().to_string()).collect());
    // black-holed connections burn a full deadline; keep it short but
    // far above the largest scripted delay, and shrug off more
    // consecutive faults before declaring death
    cfg.rpc_deadline = Duration::from_millis(400);
    cfg.max_rpc_failures = 3;

    let report = federate(&spec, &cfg)
        .unwrap_or_else(|e| panic!("chaos federation failed under EPI3_CHAOS_SEED={seed}: {e}"));

    assert_bit_identical(&report.top, &monolithic(&path, 8));
    assert_eq!(report.num_shards, 12);
    let contributed: u64 = report.per_node_shards.iter().map(|(_, n)| n).sum();
    assert_eq!(contributed, 12, "seed {seed}: every shard attributed once");
    for p in &proxies {
        assert!(
            p.faults_injected() >= 1,
            "seed {seed}: the schedule must actually inject faults"
        );
    }

    for mut p in proxies {
        p.stop();
    }
    for h in handles {
        h.shutdown();
    }
}
