//! `WAIT` lifecycle over the wire: what answers a parked connection,
//! and what a parked connection must never cost.
//!
//! Every test gives its `WAIT` a timeout far beyond what the scenario
//! needs (`LONG`) and asserts the reply arrived in a fraction of it, so
//! a wake that never comes fails the assertion instead of passing once
//! the timeout fires. Only the timeout test lets a timeout elapse — its
//! own, of 50 ms.

use epi_server::{Client, Engine, EngineConfig, JobSpec, JobState, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `timeout_ms=` no scenario here needs: a reply that takes anywhere
/// near this long was not woken.
const LONG: Duration = Duration::from_secs(120);
/// "Promptly": a generous bound on scheduling noise, a small fraction
/// of `LONG`.
const PROMPT: Duration = Duration::from_secs(20);

fn start_server(workers: usize) -> (SocketAddr, Arc<Engine>, ServerHandle) {
    let server = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let engine = Arc::clone(server.engine());
    (addr, engine, server.spawn())
}

fn write_dataset(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("epi3_wait_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.epi3", std::process::id()));
    let data = datagen::DatasetSpec::with_planted_triple(20, 192, [3, 11, 17], 41).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

/// An 8-shard job whose shards each take `throttle_ms`.
fn slow_spec(tag: &str, throttle_ms: u64) -> JobSpec {
    let mut spec = JobSpec::new(write_dataset(tag).to_str().unwrap());
    spec.shards = 8;
    spec.top_k = 4;
    spec.throttle_ms = throttle_ms;
    spec
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_with_deadline(addr, LONG + PROMPT).expect("connect")
}

fn raw_socket(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(LONG + PROMPT)).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Spin (1 ms steps, bounded by `PROMPT`) until `cond` holds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + PROMPT;
    while !cond() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn satisfied_stable_and_unknown_waits_answer_at_once() {
    let (addr, _, handle) = start_server(2);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("at-once", 0)).expect("submit");
    let done = client.wait(st.id, PROMPT).expect("job completes");
    assert_eq!(done.state, JobState::Done);

    let began = Instant::now();
    // stable job, no condition at all
    let st1 = client.wait_progress(st.id, None, LONG).expect("WAIT");
    assert_eq!(st1, done);
    // K already reached
    let st2 = client.wait_progress(st.id, Some(3), LONG).expect("WAIT");
    assert_eq!(st2, done);
    // K beyond the plan: a stable job still answers
    let st3 = client
        .wait_progress(st.id, Some(10_000), LONG)
        .expect("WAIT");
    assert_eq!(st3, done);
    // unknown id: an error now, not a parked connection
    let err = client.wait_progress(999, None, LONG).unwrap_err();
    assert!(err.contains("no such job"), "{err}");
    assert!(began.elapsed() < PROMPT, "none of these may park");

    // malformed options are refused, and the connection survives them
    let (mut stream, mut reader) = raw_socket(addr);
    for bad in [
        "WAIT",
        "WAIT x",
        "WAIT 1 done>=many",
        "WAIT 1 timeout_ms=-5",
        "WAIT 1 until=done",
    ] {
        writeln!(stream, "{bad}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR "), "{bad:?} answered {line:?}");
    }
    // a timeout too large to add to the clock is "no timeout", not a panic
    writeln!(stream, "WAIT {} timeout_ms={}", st.id, u64::MAX).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK job="), "{line:?}");
    handle.shutdown();
}

#[test]
fn parked_wait_is_answered_by_the_shard_that_crosses_k() {
    let (addr, _, handle) = start_server(1);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("cross-k", 30)).expect("submit");

    let began = Instant::now();
    let at3 = client.wait_progress(st.id, Some(3), LONG).expect("WAIT");
    assert!(
        began.elapsed() < PROMPT,
        "woken by the shard, not the timeout"
    );
    // one worker, 30 ms a shard: the reply is the status as of the
    // third shard, give or take one that landed within the wake — not
    // the finished job's
    assert!(at3.done >= 3 && !at3.is_stable(), "{at3:?}");

    // and the default client wait is the same mechanism, to stability
    let done = client.wait(st.id, LONG).expect("wait");
    assert_eq!(done.state, JobState::Done);
    assert!(began.elapsed() < PROMPT);
    handle.shutdown();
}

#[test]
fn parked_wait_is_answered_by_cancel_panic_and_deadline() {
    let (addr, _, handle) = start_server(1);
    let began = Instant::now();

    // CANCEL from another connection: answered once the job is stable,
    // i.e. after the shard that was mid-scan has landed
    let mut waiter = connect(addr);
    let st = waiter
        .submit(&slow_spec("cancel", 20))
        .expect("submit to cancel");
    waiter.wait_post(st.id, None, LONG).expect("park");
    connect(addr).cancel(st.id).expect("cancel");
    let cancelled = waiter.wait_reply().expect("answered by the cancel");
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert_eq!(cancelled.in_flight, 0, "stable means quiesced");
    assert!(cancelled.done < cancelled.total);

    // an injected worker panic fails the job and answers the waiter
    let mut spec = slow_spec("panic", 10);
    spec.panic_shard = Some(2);
    let st = waiter.submit(&spec).expect("submit to panic");
    let failed = waiter.wait_progress(st.id, None, LONG).expect("WAIT");
    assert_eq!(failed.state, JobState::Failed);
    assert!(
        failed.error.as_deref().unwrap_or("").contains("panicked"),
        "{failed:?}"
    );

    // deadline_ms= on a silent engine: the job sits queued behind a
    // blocker on the only worker and no client asks about it, so what
    // fails it is the sweep on the worker's next wake — and that has to
    // reach the waiter
    let mut blocker = slow_spec("blocker", 150);
    blocker.shards = 1;
    waiter.submit(&blocker).expect("submit blocker");
    let mut spec = slow_spec("deadline", 0);
    spec.deadline_ms = Some(30);
    let st = waiter.submit(&spec).expect("submit to expire");
    let expired = waiter.wait_progress(st.id, None, LONG).expect("WAIT");
    assert_eq!(expired.state, JobState::Failed);
    assert_eq!(expired.done, 0, "it never ran");
    assert!(
        expired
            .error
            .as_deref()
            .unwrap_or("")
            .contains("deadline exceeded"),
        "{expired:?}"
    );
    assert!(began.elapsed() < PROMPT, "three wakes, no timeout");
    handle.shutdown();
}

#[test]
fn a_wait_that_times_out_answers_with_the_unfinished_status() {
    let (addr, _, handle) = start_server(1);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("timeout", 40)).expect("submit");

    let timeout = Duration::from_millis(50);
    let began = Instant::now();
    let status = client
        .wait_progress(st.id, Some(8), timeout)
        .expect("a timeout is a status, not an error");
    let took = began.elapsed();
    assert!(took >= timeout, "answered early: {took:?}");
    assert!(took < PROMPT);
    assert!(!status.is_stable(), "{status:?}");
    assert!(status.done < 8);

    // the hard-deadline client call maps the same situation to its
    // documented transport-classified error
    let err = client.wait(st.id, timeout).unwrap_err();
    assert!(err.starts_with("receive timed out"), "{err}");
    client.cancel(st.id).expect("cancel");
    handle.shutdown();
}

/// `wait_with_backoff` is the explicit-poll API the benchmark harness
/// drives at a fixed 1 ms: same result, same hard-deadline error as the
/// parked `wait`, and it never parks anything.
#[test]
fn the_explicit_poll_wait_keeps_its_contract() {
    let (addr, engine, handle) = start_server(1);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("poll", 10)).expect("submit");
    let tick = Duration::from_millis(1);
    let err = client
        .wait_with_backoff(st.id, Duration::from_millis(20), tick, tick)
        .unwrap_err();
    assert!(err.starts_with("receive timed out"), "{err}");
    let done = client
        .wait_with_backoff(st.id, PROMPT, tick, tick * 4)
        .expect("polled to completion");
    assert_eq!(done.state, JobState::Done);
    assert_eq!(engine.progress_watchers(), 0, "polling arms nothing");
    assert_eq!(
        done,
        client.wait(st.id, PROMPT).expect("parked wait agrees")
    );
    handle.shutdown();
}

#[test]
fn a_peer_that_vanishes_while_parked_leaves_no_waiter_behind() {
    let (addr, engine, handle) = start_server(1);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("vanish", 30)).expect("submit");

    let (mut stream, reader) = raw_socket(addr);
    writeln!(stream, "WAIT {} timeout_ms={}", st.id, LONG.as_millis()).unwrap();
    eventually("the WAIT parks and arms the wake channel", || {
        engine.progress_watchers() == 1
    });
    drop((stream, reader));
    eventually("the slot is freed and the channel disarmed", || {
        engine.progress_watchers() == 0
    });

    // the job and the server are unaffected
    client.cancel(st.id).expect("cancel");
    let parked = client.wait(st.id, PROMPT).expect("quiesce");
    assert_eq!(parked.state, JobState::Cancelled);
    handle.shutdown();
}

#[test]
fn shutdown_answers_every_parked_connection_inside_the_drain() {
    let (addr, engine, handle) = start_server(1);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("drain", 30)).expect("submit");

    let mut parked = Vec::new();
    for _ in 0..3 {
        let (mut stream, mut reader) = raw_socket(addr);
        // PING and WAIT in one write: once the pong is back the server
        // has dispatched the line behind it too, i.e. the WAIT is parked
        let batch = format!("PING\nWAIT {} timeout_ms={}\n", st.id, LONG.as_millis());
        stream.write_all(batch.as_bytes()).unwrap();
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        assert_eq!(pong, "OK pong\n");
        parked.push((stream, reader));
    }
    assert_eq!(engine.progress_watchers(), 1, "one watch however many wait");
    client
        .ping()
        .expect("server serves others while three are parked");

    let began = Instant::now();
    client.shutdown().expect("SHUTDOWN");
    for (i, (_stream, reader)) in parked.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply or clean close");
        assert_eq!(line, "ERR server shutting down\n", "parked connection {i}");
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0, "then closed");
    }
    // DRAIN_DEADLINE is 2 s; nothing here may need the forced close
    assert!(
        began.elapsed() < Duration::from_secs(2),
        "{:?}",
        began.elapsed()
    );
    handle.shutdown();
}

#[test]
fn requests_pipelined_behind_a_parked_wait_are_served_in_order() {
    let (addr, _, handle) = start_server(1);
    let mut client = connect(addr);
    let st = client.submit(&slow_spec("pipeline", 15)).expect("submit");

    let (mut stream, mut reader) = raw_socket(addr);
    let began = Instant::now();
    let batch = format!(
        "WAIT {id} done>=2 timeout_ms={ms}\nPING\nSTATUS {id}\nWAIT {id}\nPING\n",
        id = st.id,
        ms = LONG.as_millis()
    );
    stream
        .write_all(batch.as_bytes())
        .expect("one write, five requests");
    let mut replies = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        replies.push(line);
    }
    assert!(began.elapsed() < PROMPT);
    let done_of = |line: &str| -> u64 {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix("done="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no done= in {line:?}"))
    };
    assert!(replies[0].starts_with("OK job="), "{replies:?}");
    assert!(done_of(&replies[0]) >= 2, "{replies:?}");
    assert_eq!(replies[1], "OK pong\n", "{replies:?}");
    assert!(done_of(&replies[2]) >= done_of(&replies[0]), "{replies:?}");
    // the second WAIT (no K) parks again and resolves at stability
    assert!(replies[3].contains("state=done"), "{replies:?}");
    assert_eq!(done_of(&replies[3]), 8, "{replies:?}");
    assert_eq!(replies[4], "OK pong\n", "{replies:?}");
    handle.shutdown();
}
