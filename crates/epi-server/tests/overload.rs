//! Wire-level overload and resource-governance tests: SUBMIT bursts
//! past the memory budget are refused with `ERR over capacity` while
//! PING stays responsive, a retried `job_token=` is admitted exactly
//! once, tenant quotas hold over the wire, an expired `deadline_ms=`
//! fails the job, a high-priority job finishes while a bulk scan is
//! still in flight, and `Client::wait` reports a transport-classified
//! timeout instead of polling forever.

use epi_server::{Client, EngineConfig, JobSpec, JobState, Server, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const IO_DEADLINE: Duration = Duration::from_secs(30);

fn start_server(cfg: EngineConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();
    (addr, server.spawn())
}

fn write_dataset(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("epi3_overload_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.epi3", std::process::id()));
    let data = datagen::DatasetSpec::with_planted_triple(24, 256, [3, 11, 19], 77).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

/// A budget that admits exactly one copy of `spec`: the job's footprint
/// is dominated by its result-side scratch (`shards * top_k` candidate
/// slots, the same accounting the engine charges), so one job plus a
/// generous headroom for the tiny encoded dataset fits, and a second
/// concurrent admission deterministically does not.
fn one_job_budget(spec: &JobSpec) -> u64 {
    let per_candidate = std::mem::size_of::<epi_core::result::Candidate>() as u64;
    let scratch = spec.shards * spec.top_k as u64 * per_candidate;
    let file_len = std::fs::metadata(&spec.path).expect("dataset exists").len();
    scratch + file_len + (1 << 20)
}

/// A scratch-heavy spec: `top_k` is large enough that the candidate
/// scratch dwarfs the dataset, making admission arithmetic exact.
fn heavy_spec(path: &std::path::Path) -> JobSpec {
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 4;
    spec.top_k = 50_000;
    spec
}

#[test]
fn submit_burst_over_budget_is_rejected_while_ping_stays_responsive() {
    let path = write_dataset("burst");
    let mut spec = heavy_spec(&path);
    let budget = one_job_budget(&spec);
    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        mem_budget: Some(budget),
        ..EngineConfig::default()
    });

    // the first job fills the budget and keeps the worker busy
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");
    spec.throttle_ms = 100;
    let running = client.submit(&spec).expect("first job admits");

    // a burst of further submissions is refused before any allocation,
    // each with the machine-readable retry hint
    let mut burst = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect burst");
    for i in 0..8 {
        let err = burst
            .submit(&spec)
            .expect_err("burst submit must be refused");
        assert!(
            err.contains("over capacity (retry_after_ms="),
            "burst {i}: {err}"
        );
    }

    // the server stays interactive under the burst: PING on a fresh
    // connection answers well inside a human-visible deadline
    let t0 = Instant::now();
    let mut prober = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect probe");
    prober.ping().expect("PING under burst");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "PING took {:?} under burst",
        t0.elapsed()
    );

    // STATS accounts for the pressure while the job holds its charge
    let (mem_used, mem_budget, rejected, _, _) = prober.stats_governance().expect("STATS parses");
    assert_eq!(mem_budget, budget);
    assert!(mem_used > 0, "running job holds a memory charge");
    assert!(mem_used <= budget, "charge never exceeds the budget");
    assert!(rejected >= 8, "burst rejections counted, got {rejected}");

    // once the job drains, its charge is released and admission reopens
    client.wait(running.id, IO_DEADLINE).expect("job completes");
    let (mem_used, _, _, queue_depth, _) = prober.stats_governance().expect("STATS after drain");
    assert_eq!(mem_used, 0, "memory released when the job finished");
    assert_eq!(queue_depth, 0);
    spec.throttle_ms = 0;
    let again = client
        .submit(&spec)
        .expect("admission reopens after release");
    client
        .wait(again.id, IO_DEADLINE)
        .expect("second job completes");
    handle.shutdown();
}

#[test]
fn retried_job_token_is_admitted_exactly_once() {
    let path = write_dataset("token-retry");
    let mut bulk = heavy_spec(&path);
    let budget = one_job_budget(&bulk);
    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        mem_budget: Some(budget),
        ..EngineConfig::default()
    });

    // occupy the whole budget for roughly half a second
    let mut filler = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect filler");
    bulk.throttle_ms = 120;
    let filling = filler.submit(&bulk).expect("filler admits");

    // a tokened submission hits `over capacity` on its first attempt;
    // Client::submit retries with jittered backoff until the filler's
    // charge is released, and the token guarantees the accepted run is
    // the only one
    let mut tokened = heavy_spec(&path);
    tokened.job_token = Some("overload-suite-token".to_string());
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect tokened");
    let admitted = client
        .submit(&tokened)
        .expect("retry loop eventually admits");
    let done = client
        .wait(admitted.id, IO_DEADLINE)
        .expect("tokened job completes");
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.done, done.total);
    filler
        .wait(filling.id, IO_DEADLINE)
        .expect("filler completes");

    // resubmitting the same token is an idempotent echo of the finished
    // job — same id, no second scan
    let echo = client.submit(&tokened).expect("token echo");
    assert_eq!(echo.id, admitted.id, "token maps to the original job");
    assert_eq!(echo.state, JobState::Done);

    // exactly two jobs ran (filler + tokened); the echo added nothing
    let (mem_used, _, rejected, queue_depth, _) = client.stats_governance().expect("STATS parses");
    assert_eq!(mem_used, 0);
    assert_eq!(queue_depth, 0);
    assert!(rejected >= 1, "the first tokened attempt was refused");
    handle.shutdown();
}

#[test]
fn tenant_quotas_hold_over_the_wire() {
    let path = write_dataset("quota-wire");
    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        max_jobs_per_tenant: Some(1),
        max_queued_per_tenant: Some(8),
        ..EngineConfig::default()
    });
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 4;
    spec.throttle_ms = 100;
    spec.tenant = Some("acme".to_string());
    let first = client.submit(&spec).expect("first acme job admits");

    // a second concurrent job for the same tenant trips the job quota
    let err = client.submit(&spec).expect_err("acme job quota");
    assert!(err.contains("over capacity"), "{err}");
    assert!(err.contains("quota 1"), "{err}");

    // STATS names the tenant holding a slot
    let (_, _, _, _, tenants) = client.stats_governance().expect("STATS parses");
    assert!(
        tenants.iter().any(|(t, n)| t == "acme" && *n == 1),
        "tenant_jobs reports acme: {tenants:?}"
    );

    // a fresh tenant is bounded by the queued-shard quota instead
    let mut wide = JobSpec::new(path.to_str().unwrap());
    wide.shards = 9;
    wide.tenant = Some("theta".to_string());
    let err = client.submit(&wide).expect_err("theta shard quota");
    assert!(err.contains("queued shards (quota 8)"), "{err}");

    client
        .wait(first.id, IO_DEADLINE)
        .expect("acme job completes");
    let (_, _, _, _, tenants) = client.stats_governance().expect("STATS after drain");
    assert!(
        tenants.is_empty(),
        "no active tenants after drain: {tenants:?}"
    );
    handle.shutdown();
}

#[test]
fn expired_deadline_fails_the_job_over_the_wire() {
    let path = write_dataset("deadline-wire");
    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");

    // one slow job occupies the only worker …
    let mut bulk = JobSpec::new(path.to_str().unwrap());
    bulk.shards = 4;
    bulk.throttle_ms = 80;
    let bulk_job = client.submit(&bulk).expect("bulk admits");

    // … so a 1 ms deadline on the next job expires while it queues
    let mut hot = JobSpec::new(path.to_str().unwrap());
    hot.shards = 2;
    hot.deadline_ms = Some(1);
    let hot_job = client.submit(&hot).expect("hot admits before expiring");
    let failed = client.wait(hot_job.id, IO_DEADLINE).expect("wait settles");
    assert_eq!(failed.state, JobState::Failed);
    let msg = failed.error.expect("failed job carries its error");
    assert!(msg.contains("deadline exceeded: deadline_ms=1"), "{msg}");

    // the expiry released everything the hot job held
    client
        .wait(bulk_job.id, IO_DEADLINE)
        .expect("bulk completes");
    let (mem_used, _, _, queue_depth, _) = client.stats_governance().expect("STATS parses");
    assert_eq!(mem_used, 0);
    assert_eq!(queue_depth, 0);
    handle.shutdown();
}

#[test]
fn high_priority_job_completes_while_a_bulk_scan_is_in_flight() {
    let path = write_dataset("priority-wire");
    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");

    // a long bulk scan at the lowest priority …
    let mut bulk = JobSpec::new(path.to_str().unwrap());
    bulk.shards = 60;
    bulk.throttle_ms = 15;
    bulk.priority = 0;
    bulk.tenant = Some("batch".to_string());
    let bulk_job = client.submit(&bulk).expect("bulk admits");

    // … must not starve an interactive job: the dispatcher cuts the
    // bulk batch at shard granularity and serves the hot lane first
    let mut hot = JobSpec::new(path.to_str().unwrap());
    hot.shards = 3;
    hot.priority = 9;
    hot.tenant = Some("interactive".to_string());
    let hot_job = client.submit(&hot).expect("hot admits");
    let hot_done = client.wait(hot_job.id, IO_DEADLINE).expect("hot completes");
    assert_eq!(hot_done.state, JobState::Done);

    let bulk_st = client.status(bulk_job.id).expect("bulk status");
    assert!(
        bulk_st.done < bulk.shards,
        "bulk scan ({} of {} shards) should still be in flight when the \
         high-priority job finishes",
        bulk_st.done,
        bulk.shards
    );
    client
        .wait(bulk_job.id, IO_DEADLINE)
        .expect("bulk completes");
    handle.shutdown();
}

#[test]
fn wait_reports_a_transport_classified_timeout_on_a_stalled_job() {
    let path = write_dataset("wait-timeout");
    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 10;
    spec.throttle_ms = 200; // ~2 s of work, far past the wait below
    let job = client.submit(&spec).expect("submit");

    let err = client
        .wait(job.id, Duration::from_millis(150))
        .expect_err("wait must time out");
    assert!(
        err.starts_with("receive timed out after"),
        "timeout error is transport-classified: {err}"
    );
    assert!(err.contains(&format!("job {}", job.id)), "{err}");

    client.cancel(job.id).expect("cancel the stalled job");
    client.wait(job.id, IO_DEADLINE).expect("cancel settles");
    handle.shutdown();
}

#[test]
fn crafted_header_is_refused_and_its_admission_rolled_back() {
    // 20 bytes that stat as a tiny file but declare 1 x 2^62 genotypes:
    // allocating what the header claims would abort the whole server
    let path = write_dataset("crafted-header");
    let good = std::fs::read(&path).unwrap();
    let mut crafted = b"EPI3".to_vec();
    crafted.extend(1u64.to_le_bytes());
    crafted.extend((1u64 << 62).to_le_bytes());
    std::fs::write(&path, &crafted).unwrap();

    let (addr, handle) = start_server(EngineConfig {
        workers: 1,
        mem_budget: Some(1 << 30),
        ..EngineConfig::default()
    });
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 4;
    spec.job_token = Some("crafted-header-token".to_string());
    let err = client
        .submit(&spec)
        .expect_err("crafted header must be refused");
    assert!(err.contains("cannot read dataset"), "{err}");

    // the server survived, and nothing stays charged or reserved
    client.ping().expect("PING after the refusal");
    let (mem_used, _, _, queue_depth, _) = client.stats_governance().expect("STATS parses");
    assert_eq!(mem_used, 0, "the refused job's reservation was released");
    assert_eq!(queue_depth, 0);

    // the token was released too: once the file is repaired, the same
    // token admits a fresh job instead of answering "mid-admission"
    std::fs::write(&path, &good).unwrap();
    let admitted = client.submit(&spec).expect("retry with the same token");
    let done = client
        .wait(admitted.id, IO_DEADLINE)
        .expect("retried job completes");
    assert_eq!(done.state, JobState::Done);
    handle.shutdown();
}
