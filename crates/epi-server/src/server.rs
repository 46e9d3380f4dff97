//! TCP front end for the job engine: a single-threaded nonblocking
//! readiness loop over per-connection state machines.
//!
//! One request per line, one reply per line — except RESULT, PARTIAL,
//! and JOBS, whose replies are a header line, body lines, and a
//! terminating `END`, streamed to the socket in bounded chunks. See the
//! crate docs for the full verb reference.
//!
//! ## Why a readiness loop
//!
//! The original thread-per-connection design had three failure modes a
//! production edge cannot afford: an unbounded `read_line` let one peer
//! OOM the server with an endless line; `let Ok(stream) = conn else
//! { continue }` busy-looped at 100% CPU on persistent accept errors
//! (EMFILE above all); and detached, never-joined handler threads raced
//! `run()`'s return on SHUTDOWN. One thread owning every connection
//! through a poll(2) dispatcher (the `polling` shim) fixes all three
//! structurally: buffers are bounded per connection, accept errors back
//! off by parking the listener's interest (no spin under level-triggered
//! readiness), and SHUTDOWN drains live connections in the same loop
//! that owns them — no threads to leak, no self-connect hack to race.
//!
//! ## Transports
//!
//! The first byte of a connection picks the transport for its lifetime:
//! `0xEB` (never valid text) selects length-prefixed binary framing
//! ([`crate::frame`]), anything else the line-delimited text protocol.
//! Framing is pure transport — framed payloads carry exactly the text
//! protocol's bytes — so both transports produce bit-identical replies.
//!
//! ## Parked `WAIT`s
//!
//! `WAIT <id> [done>=K] [timeout_ms=T]` is STATUS with the reply held
//! back until there is something to say. A connection is in one of
//! three states, and `WAIT` adds the third:
//!
//! ```text
//!            request line                  stream exhausted
//!   idle ───────────────────> streaming ──────────────────> idle
//!     │  (RESULT/PARTIAL/JOBS)
//!     │ WAIT, condition not met yet
//!     └─────────────────────> parked ─────────────────────> idle
//!                                job stable | done ≥ K | T elapsed
//!                                (reply: the status line, as STATUS)
//! ```
//!
//! A parked connection holds a `Waiter` (job id, `K`, deadline) and
//! nothing else: no thread, no timer. The loop re-examines every
//! waiter on every wake — its deadline is folded into the poll timeout
//! next to the accept backoff and the drain — and what wakes the loop
//! when a *worker thread* moves the job is the [`WakeChannel`]: a
//! socket pair registered with the poller like any connection, written
//! one byte per burst by the engine's progress hook. The engine fires
//! that hook only while a [`ProgressWatch`] is registered, and the loop
//! holds one exactly while some connection is parked, so a server
//! nobody waits on pays one relaxed atomic load per recorded shard and
//! never touches the channel. Requests pipelined behind a parked
//! `WAIT` stay buffered (bounded: the connection stops being read once
//! a request's worth has accumulated) and are served in order after
//! it; a peer that hangs up while parked is noticed by the read that
//! returns 0 and its slot — and with the last one, the watch — is
//! freed; SHUTDOWN answers every parked `WAIT` with `ERR server
//! shutting down`, like any request met while draining.
//!
//! ## Backpressure
//!
//! Per connection: requests longer than [`MAX_REQUEST_LEN`] are refused
//! (`ERR request too long`) and the connection dropped; replies are
//! generated in ≤16 KiB chunks only while the connection's write buffer
//! sits below a 256 KiB high-water mark; a connection with a reply in
//! flight is not read from until the reply finishes. A slow reader
//! therefore costs the server one bounded buffer, never unbounded
//! memory, and never blocks other connections.

use crate::engine::{Engine, EngineConfig, ProgressWatch};
use crate::frame;
use crate::job::JobStatus;
use crate::spec::{escape, JobSpec};
use epi_core::result::Candidate;
use epi_core::shard::ShardSet;
use polling::{Event, Poller};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on one request line, both transports (the text protocol's
/// line and the framed payload stream feed the same line buffer).
/// Anything longer answers `ERR request too long` and the connection is
/// dropped — the bound that closes the endless-line OOM.
pub const MAX_REQUEST_LEN: usize = 64 * 1024;

/// Write-buffer high-water mark: reply streaming pauses above it and
/// resumes as the socket drains. Per-connection memory stays bounded by
/// roughly this plus one stream chunk.
const HIGH_WATER: usize = 256 * 1024;

/// Bytes read from a socket per readiness wake.
const READ_CHUNK: usize = 16 * 1024;

/// Target size of one streamed reply chunk (RESULT/PARTIAL/JOBS bodies).
const STREAM_CHUNK: usize = 16 * 1024;

/// Accept-error backoff bounds: the listener's interest is parked for
/// the backoff (doubling per consecutive error, reset on success), so a
/// persistent EMFILE costs a few wakes per second instead of a core.
const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(5);
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Accepts per readiness wake (bounds time away from live connections).
const ACCEPT_BATCH: usize = 32;

/// How long SHUTDOWN waits for in-flight replies to flush before
/// forcing the remaining connections closed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

const LISTENER_KEY: usize = 0;

/// Poller key of the wake channel's read end (connection keys are
/// `slot + 1`, so the top of the range is free).
const WAKE_KEY: usize = usize::MAX;

/// A running job service bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    /// Total failed `accept(2)` calls, surfaced in STATS.
    accept_errors: AtomicU64,
    /// Test-only: pending synthetic accept failures (see
    /// [`Server::inject_accept_errors`]).
    accept_fault_budget: AtomicU64,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// start the engine's worker pool.
    pub fn bind(addr: impl ToSocketAddrs, cfg: EngineConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            engine: Engine::start(cfg),
            accept_errors: AtomicU64::new(0),
            accept_fault_budget: AtomicU64::new(0),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[expect(
        clippy::expect_used,
        reason = "local_addr() on a freshly bound TcpListener cannot fail; startup path, not a request"
    )]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The underlying engine (tests inspect scan counters through this).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Fault injection for the accept-backoff tests: the next `n` accept
    /// readiness wakes are treated as failed `accept(2)` calls (counted
    /// in STATS `accept_errors=` and backed off from) without touching
    /// the pending connection, which is accepted once the budget runs
    /// out. Not part of the public service contract.
    #[doc(hidden)]
    pub fn inject_accept_errors(&self, n: u64) {
        self.accept_fault_budget.fetch_add(n, Ordering::Relaxed);
    }

    /// Serve until a client sends SHUTDOWN: one thread, every connection.
    pub fn run(&self) {
        let mut lp = match EventLoop::new(self) {
            Ok(lp) => lp,
            Err(e) => {
                // a poller that cannot even start leaves nothing to
                // serve; stop the workers instead of leaking them
                eprintln!("epi-server: cannot start event loop: {e}");
                self.engine.stop();
                return;
            }
        };
        if let Err(e) = lp.run() {
            eprintln!("epi-server: event loop failed: {e}");
        }
        self.engine.stop();
    }

    /// Run the accept loop on a background thread, returning a handle the
    /// caller can use to reach and stop the server.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Send SHUTDOWN and join the accept loop.
    pub fn shutdown(self) {
        if let Ok(mut client) = crate::client::Client::connect(self.addr) {
            let _ = client.shutdown();
        }
        let _ = self.thread.join();
    }
}

// ------------------------------------------------------------ the loop

struct EventLoop<'a> {
    server: &'a Server,
    poller: Poller,
    /// Connection slab; a connection's poller key is its slot + 1
    /// (key 0 is the listener).
    conns: Vec<Option<Conn>>,
    accept_backoff: Duration,
    /// `Some` while the listener is parked after an accept error.
    accept_retry_at: Option<Instant>,
    /// `Some(deadline)` once SHUTDOWN was received: no new connections,
    /// in-flight replies flush until the deadline, then the loop exits.
    draining: Option<Instant>,
    /// How engine threads interrupt `poller.wait` when a job a parked
    /// `WAIT` is watching makes progress.
    wake: Arc<WakeChannel>,
    /// Held exactly while some connection has a `WAIT` parked: the
    /// engine only signals `wake` while a watch is registered, so an
    /// unwatched job's record path pays one relaxed load per shard.
    watch: Option<ProgressWatch>,
}

impl<'a> EventLoop<'a> {
    fn new(server: &'a Server) -> std::io::Result<Self> {
        server.listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.add(&server.listener, Event::readable(LISTENER_KEY))?;
        let wake = Arc::new(WakeChannel::new()?);
        poller.add(&wake.rx, Event::readable(WAKE_KEY))?;
        let hook = Arc::clone(&wake);
        if !server
            .engine
            .set_progress_hook(Box::new(move || hook.notify()))
        {
            return Err(std::io::Error::other("engine already has an event loop"));
        }
        Ok(Self {
            server,
            poller,
            conns: Vec::new(),
            accept_backoff: ACCEPT_BACKOFF_FLOOR,
            accept_retry_at: None,
            draining: None,
            wake,
            watch: None,
        })
    }

    fn run(&mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            self.poller.wait(&mut events, self.wait_timeout())?;
            let now = Instant::now();

            // re-arm accepting once the error backoff has elapsed
            if self.draining.is_none() && self.accept_retry_at.is_some_and(|at| now >= at) {
                self.accept_retry_at = None;
                self.poller
                    .modify(&self.server.listener, Event::readable(LISTENER_KEY))?;
            }

            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else {
                    break;
                };
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                } else if ev.key == WAKE_KEY {
                    // the service pass below re-examines every parked
                    // WAIT; all the event has to do is clear the channel
                    self.wake.drain();
                } else if ev.readable {
                    self.read_ready(ev.key - 1, scratch.as_mut_slice());
                }
                // writable wakes need no per-event work: the flush pass
                // below covers every connection with queued bytes
            }

            let mut shutdown = false;
            for slot in 0..self.conns.len() {
                shutdown |= self.service_conn(slot, now);
                self.flush_conn(slot);
            }
            if shutdown {
                self.begin_drain();
            }
            for slot in 0..self.conns.len() {
                self.update_interest(slot);
            }
            if !self.conns.iter().flatten().any(|c| c.waiting.is_some()) {
                self.watch = None;
            }

            if let Some(deadline) = self.draining {
                let live = self.conns.iter().flatten().count();
                if live == 0 || Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }

    /// Next poll timeout: the nearest of the accept-backoff retry, the
    /// drain deadline and the parked `WAIT`s' own timeouts; `None`
    /// (block) when none is pending.
    fn wait_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let waiters = self
            .conns
            .iter()
            .flatten()
            .filter_map(|c| c.waiting.as_ref()?.deadline);
        [self.accept_retry_at, self.draining]
            .into_iter()
            .flatten()
            .chain(waiters)
            .min()
            .map(|at| at.saturating_duration_since(now))
    }

    fn accept_ready(&mut self) {
        if self.draining.is_some() || self.accept_retry_at.is_some() {
            return;
        }
        for _ in 0..ACCEPT_BATCH {
            // atomic decrement: a concurrent inject_accept_errors from a
            // test thread must not be lost between a load and a store
            let faulted = self
                .server
                .accept_fault_budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok();
            let result = if faulted {
                Err(std::io::Error::other("injected accept fault"))
            } else {
                self.server.listener.accept().map(|(stream, _)| stream)
            };
            match result {
                Ok(stream) => {
                    self.accept_backoff = ACCEPT_BACKOFF_FLOOR;
                    // a connection we cannot register (fd limits, most
                    // likely) is dropped; the client sees a reset
                    let _ = self.register_conn(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    // park the listener's interest for the backoff so a
                    // persistent error (EMFILE) cannot spin the loop
                    self.server.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.accept_retry_at = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                    let _ = self
                        .poller
                        .modify(&self.server.listener, Event::none(LISTENER_KEY));
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        let slot = self
            .conns
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
        let key = slot + 1;
        self.poller.add(&stream, Event::readable(key))?;
        if let Some(entry) = self.conns.get_mut(slot) {
            *entry = Some(Conn::new(stream, key));
        }
        Ok(())
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.delete(&conn.stream, conn.key);
        }
    }

    fn read_ready(&mut self, slot: usize, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.refuse_input || conn.close_after_flush {
            return;
        }
        match conn.stream.read(scratch) {
            Ok(0) => self.close_conn(slot),
            Ok(n) => {
                let bytes = scratch.get(..n).unwrap_or_default();
                if let Err(msg) = conn.ingest(bytes) {
                    // fatal transport/framing state: answer once, stop
                    // reading, close after the error flushes
                    conn.queue_reply(format!("ERR {msg}\n").as_bytes());
                    conn.refuse_input = true;
                    conn.close_after_flush = true;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.close_conn(slot),
        }
    }

    /// Drive one connection's request/reply state machine: dispatch
    /// buffered complete lines (one reply stream in flight at a time)
    /// and pump the in-flight stream into the write buffer up to the
    /// high-water mark. Returns true when this connection requested
    /// SHUTDOWN. `now` is the loop's one clock read of this wake; the
    /// parked `WAIT`'s deadline is stamped from and checked against it.
    fn service_conn(&mut self, slot: usize, now: Instant) -> bool {
        let draining = self.draining.is_some();
        let accept_errors = self.server.accept_errors.load(Ordering::Relaxed);
        let engine = self.server.engine.as_ref();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        let mut shutdown = false;
        let mut progress = true;
        while progress && conn.outbuf.len() < HIGH_WATER {
            progress = false;
            if let Some(w) = &conn.waiting {
                // register before looking, so a transition the look
                // misses finds the registration and wakes the loop
                if self.watch.is_none() {
                    self.watch = Some(engine.watch_progress());
                }
                match w.resolve(engine, now) {
                    Some(reply) => {
                        conn.queue_reply(reply.as_bytes());
                        conn.waiting = None;
                        progress = true;
                    }
                    None => break,
                }
            }
            while conn.pending.is_none() && conn.waiting.is_none() && !conn.close_after_flush {
                let Some(pos) = conn.line_in.iter().position(|&b| b == b'\n') else {
                    break;
                };
                let line: Vec<u8> = conn.line_in.drain(..=pos).collect();
                let text = String::from_utf8_lossy(line.as_slice());
                let request = text.trim();
                if request.is_empty() {
                    continue;
                }
                progress = true;
                if draining {
                    // another connection initiated SHUTDOWN: accepting
                    // work (or answering as if alive) would silently
                    // strand jobs. Refuse and close.
                    conn.queue_reply(b"ERR server shutting down\n");
                    conn.refuse_input = true;
                    conn.close_after_flush = true;
                    break;
                }
                let (reply, is_shutdown) = dispatch(request, engine, accept_errors, now);
                match reply {
                    Reply::Line(s) => conn.queue_reply(s.as_bytes()),
                    Reply::Stream(rs) => conn.pending = Some(Box::new(rs)),
                    Reply::Park(w) => conn.waiting = Some(w),
                }
                if is_shutdown {
                    conn.refuse_input = true;
                    conn.close_after_flush = true;
                    shutdown = true;
                    break;
                }
            }
            while conn.outbuf.len() < HIGH_WATER {
                let Some(rs) = conn.pending.as_mut() else {
                    break;
                };
                progress = true;
                match rs.next_chunk() {
                    Some(chunk) => conn.queue_reply(chunk.as_bytes()),
                    None => {
                        conn.pending = None;
                        break;
                    }
                }
            }
        }
        shutdown
    }

    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut dead = false;
        while !conn.outbuf.is_empty() {
            match conn.stream.write(conn.outbuf.as_slice()) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead || (conn.outbuf.is_empty() && conn.pending.is_none() && conn.close_after_flush) {
            self.close_conn(slot);
        }
    }

    /// SHUTDOWN received: stop accepting, close idle connections now,
    /// and give the rest until the drain deadline to flush what they
    /// are owed (the issuer's `OK bye` included).
    fn begin_drain(&mut self) {
        if self.draining.is_some() {
            return;
        }
        self.draining = Some(Instant::now() + DRAIN_DEADLINE);
        self.accept_retry_at = None;
        let _ = self
            .poller
            .modify(&self.server.listener, Event::none(LISTENER_KEY));
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                if conn.waiting.take().is_some() {
                    // a parked WAIT is a request still owed its answer:
                    // refuse it like any other request met while draining
                    conn.queue_reply(b"ERR server shutting down\n");
                    conn.close_after_flush = true;
                }
            }
            let idle = match self.conns.get(slot).and_then(Option::as_ref) {
                Some(c) => c.outbuf.is_empty() && c.pending.is_none() && !c.close_after_flush,
                None => false,
            };
            if idle {
                self.close_conn(slot);
            } else if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.refuse_input = true;
            }
        }
    }

    fn update_interest(&mut self, slot: usize) {
        let draining = self.draining.is_some();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // read only while this connection may produce another request:
        // not mid-reply (strict request/reply), not above the write
        // high-water mark (backpressure), not refused or draining. A
        // parked WAIT keeps reading — that is how a vanished peer is
        // noticed and its waiter freed — until the requests pipelined
        // behind it fill one request's worth of buffer.
        let backlog_full = conn.waiting.is_some() && conn.line_in.len() >= MAX_REQUEST_LEN;
        let want_read = !conn.refuse_input
            && !conn.close_after_flush
            && conn.pending.is_none()
            && conn.outbuf.len() < HIGH_WATER
            && !backlog_full
            && !draining;
        // write interest must stay armed while a reply stream is in
        // flight even if outbuf drained completely: writable is
        // level-triggered, so it is what wakes the loop to pump the
        // remaining chunks once the socket has buffer space again
        let want_write = !conn.outbuf.is_empty() || conn.pending.is_some();
        if (want_read, want_write) != (conn.want_read, conn.want_write) {
            let ev = Event {
                key: conn.key,
                readable: want_read,
                writable: want_write,
            };
            if self.poller.modify(&conn.stream, ev).is_ok() {
                conn.want_read = want_read;
                conn.want_write = want_write;
            }
        }
    }
}

// ------------------------------------------------------- one connection

/// Transport of a connection, fixed by its first byte.
enum Mode {
    /// No bytes seen yet.
    Detecting,
    /// Line-delimited text (first byte was not the frame magic).
    Text,
    /// Length-prefixed binary frames carrying the text byte stream.
    Framed,
}

struct Conn {
    stream: TcpStream,
    key: usize,
    mode: Mode,
    /// Framed mode: undecoded wire bytes (bounded by the declared-length
    /// check plus one read chunk).
    wire_in: Vec<u8>,
    /// Decoded request bytes awaiting a `\n` (both transports feed this;
    /// its newline-less tail is capped at [`MAX_REQUEST_LEN`]).
    line_in: Vec<u8>,
    /// Encoded reply bytes awaiting the socket (capped at [`HIGH_WATER`]
    /// plus one stream chunk by the pump).
    outbuf: Vec<u8>,
    /// Streaming reply in flight; no further request is read or
    /// dispatched until it completes.
    pending: Option<Box<ReplyStream>>,
    /// A `WAIT` whose condition does not hold yet. Requests pipelined
    /// behind it stay buffered in `line_in` and are dispatched, in
    /// order, once it is answered.
    waiting: Option<Waiter>,
    /// Fatal input state (protocol error, SHUTDOWN): discard reads.
    refuse_input: bool,
    /// Close once `outbuf` drains.
    close_after_flush: bool,
    /// Currently armed poller interests (to skip redundant `modify`s).
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, key: usize) -> Self {
        Self {
            stream,
            key,
            mode: Mode::Detecting,
            wire_in: Vec::new(),
            line_in: Vec::new(),
            outbuf: Vec::new(),
            pending: None,
            waiting: None,
            refuse_input: false,
            close_after_flush: false,
            want_read: true,
            want_write: false,
        }
    }

    /// Absorb freshly read bytes into the request line buffer,
    /// detecting the transport on the first byte and unwrapping frames
    /// in framed mode. `Err` is a fatal protocol condition to answer
    /// and close on.
    fn ingest(&mut self, bytes: &[u8]) -> Result<(), String> {
        if matches!(self.mode, Mode::Detecting) {
            match bytes.first() {
                None => return Ok(()),
                Some(&b) if b == frame::FRAME_MAGIC.first().copied().unwrap_or(0xEB) => {
                    self.mode = Mode::Framed;
                }
                Some(_) => self.mode = Mode::Text,
            }
        }
        match self.mode {
            Mode::Detecting => {}
            Mode::Text => self.line_in.extend_from_slice(bytes),
            Mode::Framed => {
                self.wire_in.extend_from_slice(bytes);
                while let frame::Decoded::Payload(p) = frame::decode_step(&mut self.wire_in)? {
                    self.line_in.extend_from_slice(&p);
                }
            }
        }
        // cap the newline-less tail: a peer streaming an endless line
        // must be refused before its buffer grows without bound
        let tail = match self.line_in.iter().rposition(|&b| b == b'\n') {
            Some(pos) => self.line_in.len() - pos - 1,
            None => self.line_in.len(),
        };
        if tail > MAX_REQUEST_LEN {
            return Err("request too long".to_string());
        }
        Ok(())
    }

    /// Queue reply bytes for the socket, wrapping them into frames on a
    /// framed connection. `bytes` arrive pre-chunked (single lines or
    /// ≤[`STREAM_CHUNK`] stream chunks), so frames stay well under the
    /// payload cap.
    fn queue_reply(&mut self, bytes: &[u8]) {
        match self.mode {
            Mode::Framed => frame::encode_into(bytes, &mut self.outbuf),
            _ => self.outbuf.extend_from_slice(bytes),
        }
    }
}

// ------------------------------------------------------------- replies

/// One dispatched reply: a single line, a header + streamed body, or
/// (WAIT) a line owed once the job gets there.
enum Reply {
    Line(String),
    Stream(ReplyStream),
    Park(Waiter),
}

/// A parked `WAIT <id> [done>=K] [timeout_ms=T]`.
struct Waiter {
    id: u64,
    /// Answer once this many shards are done (`done>=K`), if given.
    min_done: Option<u64>,
    /// Answer with whatever the status is by then; `None` = no timeout.
    deadline: Option<Instant>,
}

impl Waiter {
    fn parse(rest: &[&str], now: Instant) -> Result<Self, String> {
        let (id, opts) = rest.split_first().ok_or("expected a job id")?;
        let mut w = Waiter {
            id: id.parse().map_err(|_| format!("bad job id {id:?}"))?,
            min_done: None,
            deadline: None,
        };
        for opt in opts {
            if let Some(k) = opt.strip_prefix("done>=") {
                w.min_done = Some(k.parse().map_err(|_| format!("bad done>= count {k:?}"))?);
            } else if let Some(ms) = opt.strip_prefix("timeout_ms=") {
                let ms = ms.parse().map_err(|_| format!("bad timeout_ms {ms:?}"))?;
                // a timeout too far out to represent is no timeout
                w.deadline = now.checked_add(Duration::from_millis(ms));
            } else {
                return Err(format!("unknown WAIT option {opt:?}"));
            }
        }
        Ok(w)
    }

    /// The reply line once it is due: the job is stable, `done` reached
    /// `min_done`, the timeout passed (the line is then the current,
    /// unfinished status — not an error), or the job does not exist.
    fn resolve(&self, engine: &Engine, now: Instant) -> Option<String> {
        match engine.status(self.id) {
            Ok(s) => (s.is_stable()
                || self.min_done.is_some_and(|k| s.done >= k)
                || self.deadline.is_some_and(|at| now >= at))
            .then(|| status_line(&s)),
            Err(e) => Some(format!("ERR {e}\n")),
        }
    }
}

/// Cross-thread wake for the readiness loop: a socket pair whose read
/// end the poller watches. The engine's progress hook writes one byte
/// (one per burst: `pending` suppresses the rest until the loop has
/// looked), which is the only way a worker thread can interrupt
/// `poll(2)` with std alone.
struct WakeChannel {
    tx: UnixStream,
    rx: UnixStream,
    /// A byte is in flight that the loop has not drained yet.
    pending: AtomicBool,
}

impl WakeChannel {
    fn new() -> std::io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self {
            tx,
            rx,
            pending: AtomicBool::new(false),
        })
    }

    /// Called from engine threads, after the transition was published
    /// under the engine's state lock.
    fn notify(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // cannot fill up: at most one byte is ever in flight
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Called by the loop before it re-examines the parked waiters.
    /// Empty the socket first and clear the flag second: a notify that
    /// lands in between finds the flag still set and writes nothing,
    /// but its transition is already published and the examination
    /// that follows sees it; one that lands after the clear writes a
    /// fresh byte. Clearing first could leave the flag set with no
    /// byte behind it, and every later wake would be swallowed.
    fn drain(&self) {
        let mut sink = [0u8; 16];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        self.pending.store(false, Ordering::SeqCst);
    }
}

impl Reply {
    fn line(s: impl Into<String>) -> Self {
        Reply::Line(s.into())
    }
}

/// A multi-line reply produced incrementally: header, body lines in
/// ≤[`STREAM_CHUNK`] chunks, then `END`. Replaces the old
/// build-the-whole-String-first replies, whose size scaled with the
/// candidate count instead of the chunk size.
struct ReplyStream {
    header: Option<String>,
    body: StreamBody,
    done: bool,
}

enum StreamBody {
    /// RESULT: merged top-K candidates, score echoed in both exact bits
    /// and display decimal.
    Result(std::vec::IntoIter<Candidate>),
    /// PARTIAL: per completed shard, a SHARD line then its candidates.
    Partial {
        shards: std::vec::IntoIter<(u64, Vec<Candidate>)>,
        current: Option<std::vec::IntoIter<Candidate>>,
    },
    /// JOBS: one JOB status line per known job.
    Jobs(std::vec::IntoIter<JobStatus>),
}

impl ReplyStream {
    fn new(header: String, body: StreamBody) -> Self {
        Self {
            header: Some(header),
            body,
            done: false,
        }
    }

    /// Next chunk of the reply byte stream, `None` once exhausted.
    fn next_chunk(&mut self) -> Option<String> {
        if let Some(h) = self.header.take() {
            return Some(h);
        }
        if self.done {
            return None;
        }
        let mut out = String::new();
        while out.len() < STREAM_CHUNK {
            match self.body.next_line() {
                Some(line) => out.push_str(&line),
                None => {
                    out.push_str("END\n");
                    self.done = true;
                    break;
                }
            }
        }
        Some(out)
    }
}

impl StreamBody {
    fn next_line(&mut self) -> Option<String> {
        match self {
            StreamBody::Result(cands) => cands.next().map(|c| {
                format!(
                    "CAND {} {} {} {:016x} {:.6}\n",
                    c.triple.0,
                    c.triple.1,
                    c.triple.2,
                    c.score.to_bits(),
                    c.score
                )
            }),
            StreamBody::Partial { shards, current } => {
                if let Some(cands) = current {
                    if let Some(c) = cands.next() {
                        return Some(format!(
                            "CAND {} {} {} {:016x}\n",
                            c.triple.0,
                            c.triple.1,
                            c.triple.2,
                            c.score.to_bits()
                        ));
                    }
                    *current = None;
                }
                let (shard, cands) = shards.next()?;
                let line = format!("SHARD {shard} {}\n", cands.len());
                *current = Some(cands.into_iter());
                Some(line)
            }
            StreamBody::Jobs(jobs) => jobs
                .next()
                .map(|s| format!("JOB {}", status_line(&s).trim_start_matches("OK "))),
        }
    }
}

/// Render a STATUS-style reply line for a job.
fn status_line(s: &JobStatus) -> String {
    let mut out = format!(
        "OK job={} state={} done={} total={} in_flight={} combos={}",
        s.id,
        s.state.name(),
        s.done,
        s.total,
        s.in_flight,
        s.combos
    );
    if let Some(level) = s.simd {
        out.push_str(" simd=");
        out.push_str(level.token());
    }
    if let Some(hash) = s.dataset_hash {
        out.push_str(&format!(" dataset_hash={hash:016x}"));
    }
    if let Some(err) = &s.error {
        out.push_str(" error=");
        out.push_str(&escape(err));
    }
    out.push('\n');
    out
}

fn dispatch(request: &str, engine: &Engine, accept_errors: u64, now: Instant) -> (Reply, bool) {
    let mut parts = request.split_whitespace();
    let verb = parts.next().unwrap_or("").to_ascii_uppercase();
    let rest: Vec<&str> = parts.collect();
    let reply = match verb.as_str() {
        "PING" => Ok(Reply::line("OK pong\n")),
        "SUBMIT" => JobSpec::parse_tokens(&rest)
            .and_then(|spec| engine.submit(spec))
            .map(|s| Reply::Line(status_line(&s))),
        "STATUS" => parse_id(&rest)
            .and_then(|id| engine.status(id))
            .map(|s| Reply::Line(status_line(&s))),
        // STATUS, deferred: the connection parks until the job is stable,
        // `done>=K` holds or `timeout_ms=` passes, and is then answered
        // with the ordinary status line.
        "WAIT" => Waiter::parse(&rest, now).map(Reply::Park),
        "CANCEL" => parse_id(&rest)
            .and_then(|id| engine.cancel(id))
            .map(|s| Reply::Line(status_line(&s))),
        "RESUME" => parse_id(&rest)
            .and_then(|id| engine.resume(id))
            .map(|s| Reply::Line(status_line(&s))),
        "RESULT" => parse_id(&rest).and_then(|id| {
            let cands = engine.result(id)?;
            Ok(Reply::Stream(ReplyStream::new(
                format!("OK job={id} count={}\n", cands.len()),
                StreamBody::Result(cands.into_iter()),
            )))
        }),
        "SHARDS_DONE" => parse_id(&rest).and_then(|id| {
            // Exact completed-shard accounting, any job state. STATUS's
            // `done` count can't tell a coordinator *which* shards a
            // straggler finished; the compact set here can.
            let set = engine.shards_done(id)?;
            Ok(Reply::Line(format!("OK job={id} done={}\n", set.to_compact())))
        }),
        "PARTIAL" => parse_partial(&rest).and_then(|(id, have)| {
            // Per-shard candidate dumps of completed shards the caller
            // does not `have=` yet, any job state — how a coordinator
            // harvests a running sub-job incrementally, and a cancelled
            // straggler's finished work before resubmitting the rest.
            let shards = engine.partial(id, &have)?;
            Ok(Reply::Stream(ReplyStream::new(
                format!("OK job={id} count={}\n", shards.len()),
                StreamBody::Partial {
                    shards: shards.into_iter(),
                    current: None,
                },
            )))
        }),
        "JOBS" => {
            let jobs = engine.jobs();
            Ok(Reply::Stream(ReplyStream::new(
                format!("OK count={}\n", jobs.len()),
                StreamBody::Jobs(jobs.into_iter()),
            )))
        }
        "STATS" => {
            // Pool-wide pair-prefix cache statistics: hits/misses summed
            // across every worker plus the per-worker rate spread, so a
            // monitoring gate sees the whole pool, not worker 0 — plus
            // the accept-error counter of the network edge and the
            // resource-governance gauges (memory accountant, admission
            // rejections, queue depth, active jobs per tenant).
            let cache = engine.pair_cache_stats();
            // `a:1,b:2` sorted by tenant; `-` when nothing is active, so
            // the field count of the reply line stays fixed
            let tenants = engine.tenant_jobs();
            let tenant_jobs = if tenants.is_empty() {
                "-".to_string()
            } else {
                tenants
                    .iter()
                    .map(|(t, n)| format!("{}:{n}", crate::spec::escape(t)))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            Ok(Reply::Line(format!(
                "OK jobs={} scanned={} workers={} pair_hits={} pair_misses={} \
                 pair_hit_rate={:.4} pair_hit_min={:.4} pair_hit_max={:.4} accept_errors={} \
                 mem_used={} mem_budget={} rejected={} queue_depth={} tenant_jobs={}\n",
                engine.jobs().len(),
                engine.shards_scanned(),
                engine.num_workers(),
                cache.hits(),
                cache.misses(),
                cache.hit_rate(),
                cache.min_hit_rate(),
                cache.max_hit_rate(),
                accept_errors,
                engine.mem_used(),
                engine.mem_budget(),
                engine.rejected(),
                engine.queue_depth(),
                tenant_jobs,
            )))
        }
        "SHUTDOWN" => {
            return (Reply::line("OK bye\n"), true);
        }
        "" => Err("empty request".to_string()),
        other => Err(format!(
            "unknown verb {other:?} (try SUBMIT/STATUS/WAIT/RESULT/PARTIAL/SHARDS_DONE/CANCEL/RESUME/JOBS/STATS/PING/SHUTDOWN)"
        )),
    };
    let reply = match reply {
        Ok(ok) => ok,
        Err(e) => Reply::Line(format!("ERR {}\n", e.replace('\n', " "))),
    };
    (reply, false)
}

fn parse_id(rest: &[&str]) -> Result<u64, String> {
    match rest {
        [id] => id.parse().map_err(|_| format!("bad job id {id:?}")),
        _ => Err("expected exactly one job id".to_string()),
    }
}

/// `PARTIAL <id> [have=<compact shard set>]`; no `have=` is the empty set.
fn parse_partial(rest: &[&str]) -> Result<(u64, ShardSet), String> {
    match rest {
        [_] => Ok((parse_id(rest)?, ShardSet::new())),
        [id, have] => {
            let set = have
                .strip_prefix("have=")
                .ok_or_else(|| format!("expected have=<shard set>, got {have:?}"))?;
            Ok((parse_id(&[id])?, ShardSet::parse_compact(set)?))
        }
        _ => Err("expected a job id and at most one have=<shard set>".to_string()),
    }
}
