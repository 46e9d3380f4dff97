//! Network-edge tests of the readiness-loop server: request caps,
//! slow/partial writers, accept-error backoff, the framed transport's
//! bit-identity with text, corrupt-frame rejection, and a
//! many-connections smoke test — all against one single-threaded
//! accept loop.

use epi_core::shard::ShardSet;
use epi_server::frame;
use epi_server::server::MAX_REQUEST_LEN;
use epi_server::{Client, EngineConfig, JobSpec, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_DEADLINE: Duration = Duration::from_secs(30);

fn start_server(workers: usize) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (addr, server.spawn())
}

/// A raw text-protocol socket (no Client conveniences), with a read
/// deadline so a buggy server fails the test instead of hanging it.
fn raw_socket(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(IO_DEADLINE)).unwrap();
    stream.set_write_timeout(Some(IO_DEADLINE)).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn write_dataset(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("epi3_net_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.epi3", std::process::id()));
    let data = datagen::DatasetSpec::with_planted_triple(24, 256, [3, 11, 19], 77).generate();
    datagen::io::save_binary(&path, &data).unwrap();
    path
}

#[test]
fn oversized_request_is_refused_and_the_server_survives() {
    let (addr, handle) = start_server(1);
    let (mut stream, mut reader) = raw_socket(addr);

    // a request line that never ends: the server must answer with a
    // clean error once the cap is crossed, then drop the connection
    let blob = vec![b'A'; MAX_REQUEST_LEN + 16 * 1024];
    stream.write_all(&blob).expect("send oversized request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read refusal");
    assert_eq!(line, "ERR request too long\n");
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection closes after the refusal");

    // the server itself is unaffected
    let mut client = Client::connect(addr).expect("reconnect");
    client.ping().expect("server still answers");
    handle.shutdown();
}

#[test]
fn partial_line_from_a_slow_client_does_not_block_others() {
    let (addr, handle) = start_server(1);

    // the slow-loris socket parks mid-request…
    let (mut slow, mut slow_reader) = raw_socket(addr);
    slow.write_all(b"PI").expect("send partial request");

    // …while other clients are served normally on the same one thread
    let mut other = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        other
            .ping()
            .expect("served while another line is incomplete");
    }

    // the slow client eventually finishes its line and is served too
    slow.write_all(b"NG\n").expect("finish request");
    let mut line = String::new();
    slow_reader.read_line(&mut line).expect("read reply");
    assert_eq!(line, "OK pong\n");
    handle.shutdown();
}

#[test]
fn accept_errors_back_off_and_are_counted_in_stats() {
    let server = Server::bind(
        "127.0.0.1:0",
        EngineConfig {
            workers: 1,
            spool_dir: None,
            default_simd: None,
            dataset_root: None,
            ..EngineConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    // the next 3 accept wakes fail; the pending connection below sits
    // in the backlog until the backoff ladder (5→10→20 ms) finishes
    server.inject_accept_errors(3);
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect queues in backlog");
    client.ping().expect("accepted after the backoff drains");

    let (mut stream, mut reader) = raw_socket(addr);
    stream.write_all(b"STATS\n").expect("send STATS");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read STATS");
    let errors: u64 = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("accept_errors="))
        .expect("STATS reports accept_errors=")
        .parse()
        .expect("accept_errors is a number");
    assert!(errors >= 3, "expected >=3 accept errors, got {errors}");
    handle.shutdown();
}

#[test]
fn framed_and_text_transports_yield_bit_identical_replies() {
    let path = write_dataset("framed-vs-text");
    let (addr, handle) = start_server(2);

    let mut text = Client::connect(addr).expect("text connect");
    let mut framed = Client::connect_framed(addr).expect("framed connect");
    framed.ping().expect("framed ping");

    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 12;
    spec.top_k = 8;
    let a = text.submit(&spec).expect("submit via text");
    let b = framed.submit(&spec).expect("submit via framed");
    let a = text.wait(a.id, IO_DEADLINE).expect("wait text job");
    let b = framed.wait(b.id, IO_DEADLINE).expect("wait framed job");
    assert_eq!(a.done, b.done);
    assert_eq!(a.total, b.total);

    // cross-read each job over the *other* transport too: same verbs,
    // same bytes, bit-identical scores everywhere
    let r_text = text.result(a.id).expect("RESULT over text");
    let r_framed = framed.result(a.id).expect("RESULT over framed");
    assert_eq!(r_text.len(), r_framed.len());
    for (x, y) in r_text.iter().zip(&r_framed) {
        assert_eq!(x.triple, y.triple);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
    let r_own = framed.result(b.id).expect("RESULT of framed-submitted job");
    for (x, y) in r_text.iter().zip(&r_own) {
        assert_eq!(x.triple, y.triple);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }

    let p_text = text
        .partial(a.id, &ShardSet::new())
        .expect("PARTIAL over text");
    let p_framed = framed
        .partial(a.id, &ShardSet::new())
        .expect("PARTIAL over framed");
    assert_eq!(p_text.len(), p_framed.len());
    for ((sa, ca), (sb, cb)) in p_text.iter().zip(&p_framed) {
        assert_eq!(sa, sb);
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb) {
            assert_eq!(x.triple, y.triple);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }
    assert_eq!(
        text.shards_done(a.id)
            .expect("SHARDS_DONE text")
            .to_compact(),
        framed
            .shards_done(a.id)
            .expect("SHARDS_DONE framed")
            .to_compact(),
    );

    // the incremental harvest and the parked wait, byte for byte: the
    // framed reply's payloads concatenate to exactly the text reply
    for (request, last_line) in [
        (format!("PARTIAL {} have=0-3,7,40-99", a.id), "END\n"),
        (format!("PARTIAL {} have=0-11", a.id), "END\n"),
        (format!("WAIT {} done>=5 timeout_ms=60000", a.id), ""),
        (format!("WAIT {}", b.id), ""),
        (format!("WAIT {} timeout_ms=0", 9_999), ""),
    ] {
        let over_text = raw_reply(addr, &request, last_line, false);
        let over_frames = raw_reply(addr, &request, last_line, true);
        assert!(!over_text.is_empty(), "{request}");
        assert_eq!(
            String::from_utf8_lossy(&over_text),
            String::from_utf8_lossy(&over_frames),
            "{request}"
        );
    }
    let have: ShardSet = ShardSet::parse_compact("0-3,7,40-99").unwrap();
    let inc = framed.partial(a.id, &have).expect("PARTIAL have= framed");
    assert_eq!(
        inc.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![4, 5, 6, 8, 9, 10, 11],
        "exactly the completed shards the caller lacks"
    );
    handle.shutdown();
}

/// The reply bytes to one request on a fresh connection, read up to and
/// including `last_line` (or the first line when it is empty): raw text
/// bytes, or the concatenated payloads of the reply frames.
fn raw_reply(addr: SocketAddr, request: &str, last_line: &str, framed: bool) -> Vec<u8> {
    let (stream, _) = raw_socket(addr);
    let mut reader: Box<dyn BufRead> = if framed {
        let mut w = frame::FrameWriter::new(stream.try_clone().unwrap());
        writeln!(w, "{request}").unwrap();
        w.flush().unwrap();
        Box::new(BufReader::new(frame::FrameReader::new(stream)))
    } else {
        writeln!(&stream, "{request}").unwrap();
        Box::new(BufReader::new(stream))
    };
    let mut out = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("reply line") > 0,
            "{request}: closed early"
        );
        out.extend_from_slice(line.as_bytes());
        if last_line.is_empty() || line == last_line || line.starts_with("ERR ") {
            return out;
        }
    }
}

/// A peer's header is a claim, not a size: `count=2^50` must cost an
/// error when the lines do not follow, not a 36-petabyte allocation
/// (which is SIGABRT — no `Err`, no `catch_unwind`, the coordinator
/// process is gone).
#[test]
fn a_reply_header_claiming_2_pow_50_entries_is_an_error_not_an_abort() {
    const HUGE: u64 = 1 << 50;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let replies = [
        format!("OK job=1 count={HUGE}\n"),
        format!("OK job=1 count={HUGE}\n"),
        format!("OK job=1 count=1\nSHARD 0 {HUGE}\n"),
        format!("OK count={HUGE}\n"),
    ];
    let fake = std::thread::spawn(move || {
        for reply in replies {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(conn.try_clone().unwrap())
                .read_line(&mut request)
                .unwrap();
            conn.write_all(reply.as_bytes()).unwrap();
            // and hang up: the promised lines never come
        }
    });
    let connect = || Client::connect_with_deadline(addr, IO_DEADLINE).unwrap();
    let closed = |e: String| assert!(e.contains("closed the connection"), "{e}");
    closed(connect().result(1).unwrap_err());
    closed(connect().partial(1, &ShardSet::new()).unwrap_err());
    closed(connect().partial(1, &ShardSet::new()).unwrap_err());
    closed(connect().jobs().unwrap_err());
    fake.join().unwrap();
}

#[test]
fn corrupt_frame_gets_a_clean_error_and_the_server_survives() {
    let (addr, handle) = start_server(1);
    let (mut stream, mut reader) = raw_socket(addr);

    // hand-build a PING frame, then flip a checksum byte
    let payload = b"PING\n";
    let mut wire = Vec::new();
    wire.extend_from_slice(&frame::FRAME_MAGIC);
    wire.push(frame::FRAME_VERSION);
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&(frame::checksum(payload) ^ 0xFF).to_le_bytes());
    wire.extend_from_slice(payload);
    stream.write_all(&wire).expect("send corrupt frame");

    // the reply comes back framed (the magic byte selected the framed
    // transport before the checksum failed)
    let mut framed_reply = frame::FrameReader::new(reader.get_mut().try_clone().unwrap());
    let mut reply = String::new();
    BufReader::new(&mut framed_reply)
        .read_line(&mut reply)
        .expect("read framed error");
    assert_eq!(reply, "ERR frame checksum mismatch\n");
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection closes after the refusal");

    // a well-formed framed client and a text client both still work
    let mut framed = Client::connect_framed(addr).expect("framed reconnect");
    framed.ping().expect("framed ping");
    let mut text = Client::connect(addr).expect("text reconnect");
    text.ping().expect("text ping");
    handle.shutdown();
}

#[test]
fn a_result_larger_than_the_high_water_mark_streams_to_completion() {
    // C(48,3) = 17,296 candidates at ~40 bytes per CAND line is a
    // ~700 KiB reply, far past the 256 KiB write high-water mark.
    // Regression: once the kernel sndbuf absorbed the whole write
    // buffer mid-stream, the loop parked the connection with no
    // interest armed (outbuf empty, reply still pending) and the fetch
    // hung forever — write interest must stay armed while a reply
    // stream is in flight. The deadline client turns a relapse into a
    // clean test failure instead of a wedged run.
    let dir = std::env::temp_dir().join("epi3_net_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("big-result-{}.epi3", std::process::id()));
    let data = datagen::DatasetSpec::with_planted_triple(48, 256, [3, 11, 19], 77).generate();
    datagen::io::save_binary(&path, &data).unwrap();

    let (addr, handle) = start_server(2);
    let mut client = Client::connect_with_deadline(addr, IO_DEADLINE).expect("connect");
    let mut spec = JobSpec::new(path.to_str().unwrap());
    spec.shards = 8;
    spec.top_k = 20_000; // above C(48,3): keep every candidate
    let st = client.submit(&spec).expect("submit");
    client.wait(st.id, IO_DEADLINE).expect("job completes");

    let cands = client.result(st.id).expect("RESULT streams past 256 KiB");
    assert_eq!(cands.len(), 17_296, "every candidate arrives");

    // the framed transport shares the same pump; same job, same bytes
    let mut framed =
        Client::connect_framed_with_deadline(addr, IO_DEADLINE).expect("framed connect");
    let framed_cands = framed.result(st.id).expect("framed RESULT past 256 KiB");
    assert_eq!(framed_cands.len(), cands.len());
    for (x, y) in cands.iter().zip(&framed_cands) {
        assert_eq!(x.triple, y.triple);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
    handle.shutdown();
}

#[test]
fn one_thread_sustains_hundreds_of_concurrent_connections() {
    let (addr, handle) = start_server(1);

    // open them all before reading anything: every connection is live
    // on the single accept/serve thread at once
    let mut socks = Vec::new();
    for i in 0..256 {
        let (stream, reader) = raw_socket(addr);
        socks.push((i, stream, reader));
    }
    for (_, stream, _) in socks.iter_mut() {
        stream.write_all(b"PING\n").expect("send PING");
    }
    for (i, _, reader) in socks.iter_mut() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        assert_eq!(line, "OK pong\n", "connection {i}");
    }
    drop(socks);
    handle.shutdown();
}
