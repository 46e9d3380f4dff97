//! Blocking client for the job service, used by the `epi3` CLI, the
//! examples, the federation coordinator and the end-to-end tests.
//!
//! ## Waiting for a job
//!
//! [`Client::wait`] parks server-side: it sends `WAIT <id>
//! timeout_ms=T`, the server answers when the job is stable (or `T`
//! passes), and the call re-arms until the caller's hard deadline — one
//! round trip per job instead of a poll loop, and the answer arrives
//! with the transition instead of up to a backoff step after it.
//! [`Client::wait_progress`] is the single round trip underneath
//! (optionally with `done>=K`), and [`Client::wait_post`] /
//! [`Client::wait_reply`] are its two halves, so a caller with several
//! connections can have every server waiting before it blocks on the
//! first reply.
//!
//! [`Client::wait_with_backoff`] is the explicit-poll API and stays:
//! it is what a caller uses to *choose* its own STATUS cadence — the
//! frozen `benchmark/` polls at a fixed 1 ms with it so its latencies
//! are not shaped by the server's wake path — and what still works
//! against a server that predates `WAIT`.

use crate::frame::{FrameReader, FrameWriter};
use crate::job::{JobState, JobStatus};
use crate::server::MAX_REQUEST_LEN;
use crate::spec::{unescape, JobSpec};
use epi_core::result::Candidate;
use epi_core::shard::ShardSet;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Receiving half of a connection: raw text bytes, or the byte stream
/// unwrapped from length-prefixed frames. Either way the bytes *read*
/// are the same text protocol — framing is pure transport.
enum ReadHalf {
    Text(TcpStream),
    Framed(FrameReader<TcpStream>),
}

impl Read for ReadHalf {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ReadHalf::Text(s) => s.read(buf),
            ReadHalf::Framed(r) => r.read(buf),
        }
    }
}

/// Sending half: plain buffered writes, or writes wrapped into a frame
/// (with checksum) per flush.
enum WriteHalf {
    Text(BufWriter<TcpStream>),
    Framed(FrameWriter<TcpStream>),
}

impl Write for WriteHalf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WriteHalf::Text(w) => w.write(buf),
            WriteHalf::Framed(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WriteHalf::Text(w) => w.flush(),
            WriteHalf::Framed(w) => w.flush(),
        }
    }
}

/// [`Client::stats_governance`] reply: `(mem_used, mem_budget,
/// rejected, queue_depth, per-tenant active job counts)`.
pub type GovernanceStats = (u64, u64, u64, u64, Vec<(String, u64)>);

/// One TCP connection to an epi-server. Requests are serialized; the
/// protocol is strictly request/reply, so one connection serves any
/// number of sequential calls.
pub struct Client {
    reader: BufReader<ReadHalf>,
    writer: WriteHalf,
    /// Connect/read/write deadline, when connected with one. Kept so
    /// timeout errors can say how long the caller actually waited.
    deadline: Option<Duration>,
}

impl Client {
    /// Connect to a running server with no I/O deadline: calls block
    /// until the server replies or the connection drops. Interactive use
    /// only — anything supervising *other* machines (the federation
    /// coordinator above all) must use [`Client::connect_with_deadline`],
    /// because a dead-but-not-closed peer hangs this client forever.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, None, false)
    }

    /// [`Client::connect`] over the length-prefixed binary framing
    /// ([`crate::frame`]): every request and reply is checksummed in
    /// transit, so a flipped bit surfaces as a clean error instead of a
    /// silently corrupted candidate. Same verbs, same replies, byte for
    /// byte — the server detects the transport from the first byte.
    pub fn connect_framed(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, None, true)
    }

    /// Connect with a deadline applied to the connection attempt and to
    /// every subsequent read/write. A peer that stops answering turns
    /// into a clean `timed out` error after `deadline` instead of a hang
    /// — the basis of the coordinator's liveness detection.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> std::io::Result<Self> {
        Self::connect_deadline_inner(addr, deadline, false)
    }

    /// [`Client::connect_with_deadline`] over binary framing — what the
    /// federation coordinator uses, so cross-machine candidate traffic
    /// is integrity-checked end to end.
    pub fn connect_framed_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> std::io::Result<Self> {
        Self::connect_deadline_inner(addr, deadline, true)
    }

    fn connect_deadline_inner(
        addr: impl ToSocketAddrs,
        deadline: Duration,
        framed: bool,
    ) -> std::io::Result<Self> {
        // `TcpStream::connect_timeout` wants one concrete SocketAddr;
        // resolve and try each like `connect` does.
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, deadline) {
                Ok(stream) => return Self::from_stream(stream, Some(deadline), framed),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(
        stream: TcpStream,
        deadline: Option<Duration>,
        framed: bool,
    ) -> std::io::Result<Self> {
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        let read_stream = stream.try_clone()?;
        let (reader, writer) = if framed {
            (
                ReadHalf::Framed(FrameReader::new(read_stream)),
                WriteHalf::Framed(FrameWriter::new(stream)),
            )
        } else {
            (
                ReadHalf::Text(read_stream),
                WriteHalf::Text(BufWriter::new(stream)),
            )
        };
        Ok(Self {
            reader: BufReader::new(reader),
            writer,
            deadline,
        })
    }

    /// Describe an I/O error, naming the deadline when it expired.
    /// (A timed-out read surfaces as `WouldBlock` on Unix, `TimedOut`
    /// on Windows.)
    fn io_error(&self, what: &str, e: std::io::Error) -> String {
        match (e.kind(), self.deadline) {
            (ErrorKind::WouldBlock | ErrorKind::TimedOut, Some(d)) => {
                format!("{what} timed out after {d:?}")
            }
            _ => format!("{what} failed: {e}"),
        }
    }

    /// Write one request line without reading its reply.
    fn post(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| self.io_error("send", e))
    }

    fn send(&mut self, request: &str) -> Result<String, String> {
        self.post(request)?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        // cap the reply line like the server caps request lines: a
        // corrupt or hostile peer streaming bytes without a newline must
        // become an error, not unbounded memory
        let cap = (MAX_REQUEST_LEN + 1) as u64;
        match (&mut self.reader).take(cap).read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) if line.len() > MAX_REQUEST_LEN && !line.ends_with('\n') => Err(format!(
                "receive failed: reply line exceeds {MAX_REQUEST_LEN} bytes"
            )),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(self.io_error("receive", e)),
        }
    }

    fn expect_ok(line: &str) -> Result<&str, String> {
        if let Some(rest) = line.strip_prefix("OK") {
            Ok(rest.trim_start())
        } else if let Some(err) = line.strip_prefix("ERR ") {
            Err(err.to_string())
        } else {
            Err(format!("malformed reply {line:?}"))
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), String> {
        let line = self.send("PING")?;
        Self::expect_ok(&line).map(|_| ())
    }

    /// Submit a job; returns its initial status.
    ///
    /// When the spec carries an idempotent `job_token=`, an `over
    /// capacity` refusal (admission control: memory budget or tenant
    /// quota) is retried with jittered exponential backoff seeded by the
    /// server's `retry_after_ms=` hint — the token makes the retry safe,
    /// because a SUBMIT that actually landed is echoed back by the
    /// server, never duplicated. Without a token the refusal is returned
    /// as-is: a blind retry could double-scan.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobStatus, String> {
        const MAX_RETRIES: u64 = 6;
        // never spend longer retrying than the connection's own I/O
        // deadline: a coordinator on a tight rpc budget fails fast and
        // reroutes the work, an interactive client climbs the ladder
        let budget = self.deadline.unwrap_or(Duration::from_secs(30));
        let start = Instant::now();
        let mut attempt = 0u64;
        loop {
            let line = self.send(&format!("SUBMIT {}", spec.to_tokens()))?;
            match Self::expect_ok(&line) {
                Ok(rest) => return parse_status(rest),
                Err(e) => {
                    let retryable = spec.job_token.is_some() && e.contains("over capacity");
                    if !retryable || attempt >= MAX_RETRIES {
                        return Err(e);
                    }
                    let delay = retry_backoff(&e, spec.job_token.as_deref(), attempt);
                    if start.elapsed() + delay > budget {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }

    /// Progress of one job.
    pub fn status(&mut self, id: u64) -> Result<JobStatus, String> {
        let line = self.send(&format!("STATUS {id}"))?;
        parse_status(Self::expect_ok(&line)?)
    }

    /// One `WAIT` round trip: the server holds the reply until the job
    /// is stable, `done` reaches `min_done` (when given) or `timeout`
    /// passes, then answers with the job's status — on a timeout that
    /// is the current, unfinished status, not an error. `timeout` is
    /// the *server's*; on a connection with an I/O deadline keep it
    /// below that deadline, or the reply cannot arrive in time.
    pub fn wait_progress(
        &mut self,
        id: u64,
        min_done: Option<u64>,
        timeout: Duration,
    ) -> Result<JobStatus, String> {
        self.wait_post(id, min_done, timeout)?;
        self.wait_reply()
    }

    /// First half of [`Client::wait_progress`]: send the `WAIT` and
    /// return. The connection then owes one [`Client::wait_reply`]
    /// before any other call.
    pub fn wait_post(
        &mut self,
        id: u64,
        min_done: Option<u64>,
        timeout: Duration,
    ) -> Result<(), String> {
        // whole milliseconds, rounded up: a sub-millisecond remainder
        // must not turn into `timeout_ms=0`, an immediate answer
        let ms = u64::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX);
        let done = min_done.map_or(String::new(), |k| format!(" done>={k}"));
        self.post(&format!("WAIT {id}{done} timeout_ms={ms}"))
    }

    /// Second half of [`Client::wait_progress`]: block for the status
    /// line the server owes this connection.
    pub fn wait_reply(&mut self) -> Result<JobStatus, String> {
        let line = self.read_line()?;
        parse_status(Self::expect_ok(&line)?)
    }

    /// Cancel a job (completed shards stay checkpointed).
    pub fn cancel(&mut self, id: u64) -> Result<JobStatus, String> {
        let line = self.send(&format!("CANCEL {id}"))?;
        parse_status(Self::expect_ok(&line)?)
    }

    /// Resume a cancelled job from its checkpoint.
    pub fn resume(&mut self, id: u64) -> Result<JobStatus, String> {
        let line = self.send(&format!("RESUME {id}"))?;
        parse_status(Self::expect_ok(&line)?)
    }

    /// Final result of a finished job, scores reconstructed bit-exactly.
    pub fn result(&mut self, id: u64) -> Result<Vec<Candidate>, String> {
        let header = self.send(&format!("RESULT {id}"))?;
        let fields = parse_kv(Self::expect_ok(&header)?)?;
        let count: usize = field(&fields, "count")?;
        // `count` is the peer's claim: grow as lines actually arrive
        let mut out = Vec::new();
        for _ in 0..count {
            let line = self.read_line()?;
            out.push(parse_candidate(&line)?);
        }
        let end = self.read_line()?;
        if end != "END" {
            return Err(format!("expected END, got {end:?}"));
        }
        Ok(out)
    }

    /// Exact set of completed shard indices of a job, at any state —
    /// the coordinator's steal accounting (STATUS's `done` count can't
    /// say *which* shards finished; batch claiming completes them out
    /// of order).
    pub fn shards_done(&mut self, id: u64) -> Result<ShardSet, String> {
        let line = self.send(&format!("SHARDS_DONE {id}"))?;
        let fields = parse_kv(Self::expect_ok(&line)?)?;
        let done = fields
            .iter()
            .find(|(k, _)| k == "done")
            .map(|(_, v)| v.as_str())
            .ok_or("missing field done")?;
        ShardSet::parse_compact(done)
    }

    /// Per-shard candidate lists of every completed shard not in
    /// `have`, in any job state. The federation coordinator harvests a
    /// running (or cancelled) node's completed work through this,
    /// passing what it already merged so each list travels once;
    /// merging per shard index keeps re-executed shards duplicate-free.
    /// The empty `have` asks for everything.
    pub fn partial(
        &mut self,
        id: u64,
        have: &ShardSet,
    ) -> Result<Vec<(u64, Vec<Candidate>)>, String> {
        let have = if have.is_empty() {
            String::new()
        } else {
            format!(" have={}", have.to_compact())
        };
        let header = self.send(&format!("PARTIAL {id}{have}"))?;
        let fields = parse_kv(Self::expect_ok(&header)?)?;
        let count: usize = field(&fields, "count")?;
        // `count` and each shard's `n` are the peer's claims: grow as
        // lines actually arrive
        let mut out = Vec::new();
        for _ in 0..count {
            let line = self.read_line()?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("SHARD") {
                return Err(format!("expected SHARD line, got {line:?}"));
            }
            let shard: u64 = parse_num(parts.next(), "shard index")?;
            let n: usize = parse_num(parts.next(), "candidate count")?;
            let mut cands = Vec::new();
            for _ in 0..n {
                let line = self.read_line()?;
                cands.push(parse_candidate(&line)?);
            }
            out.push((shard, cands));
        }
        let end = self.read_line()?;
        if end != "END" {
            return Err(format!("expected END, got {end:?}"));
        }
        Ok(out)
    }

    /// All jobs the server knows, newest first.
    pub fn jobs(&mut self) -> Result<Vec<JobStatus>, String> {
        let header = self.send("JOBS")?;
        let fields = parse_kv(Self::expect_ok(&header)?)?;
        let count: usize = field(&fields, "count")?;
        let mut out = Vec::new();
        for _ in 0..count {
            let line = self.read_line()?;
            let rest = line
                .strip_prefix("JOB ")
                .ok_or_else(|| format!("expected JOB line, got {line:?}"))?;
            out.push(parse_status(rest)?);
        }
        let end = self.read_line()?;
        if end != "END" {
            return Err(format!("expected END, got {end:?}"));
        }
        Ok(out)
    }

    /// Server-wide counters: `(jobs, shards_scanned, workers)`.
    pub fn stats(&mut self) -> Result<(u64, u64, u64), String> {
        let line = self.send("STATS")?;
        let fields = parse_kv(Self::expect_ok(&line)?)?;
        Ok((
            field(&fields, "jobs")?,
            field(&fields, "scanned")?,
            field(&fields, "workers")?,
        ))
    }

    /// Pool-wide pair-prefix cache counters from STATS:
    /// `(hits, misses, hit_rate, per-worker min rate, per-worker max
    /// rate)` aggregated over every engine worker.
    pub fn stats_pair_cache(&mut self) -> Result<(u64, u64, f64, f64, f64), String> {
        let line = self.send("STATS")?;
        let fields = parse_kv(Self::expect_ok(&line)?)?;
        Ok((
            field(&fields, "pair_hits")?,
            field(&fields, "pair_misses")?,
            field(&fields, "pair_hit_rate")?,
            field(&fields, "pair_hit_min")?,
            field(&fields, "pair_hit_max")?,
        ))
    }

    /// Resource-governance counters from STATS: `(mem_used, mem_budget,
    /// rejected, queue_depth, per-tenant active job counts)`.
    /// `mem_budget == 0` means the server runs unlimited; `rejected`
    /// counts SUBMIT/RESUME refusals from admission control (memory
    /// budget and tenant quotas) since startup.
    pub fn stats_governance(&mut self) -> Result<GovernanceStats, String> {
        let line = self.send("STATS")?;
        let fields = parse_kv(Self::expect_ok(&line)?)?;
        let raw: String = field(&fields, "tenant_jobs")?;
        let mut tenants = Vec::new();
        if raw != "-" {
            for entry in raw.split(',') {
                let (name, n) = entry
                    .rsplit_once(':')
                    .ok_or_else(|| format!("malformed tenant_jobs entry {entry:?}"))?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("malformed tenant_jobs count {entry:?}"))?;
                tenants.push((unescape(name)?, n));
            }
        }
        Ok((
            field(&fields, "mem_used")?,
            field(&fields, "mem_budget")?,
            field(&fields, "rejected")?,
            field(&fields, "queue_depth")?,
            tenants,
        ))
    }

    /// Ask the server to stop accepting connections and shut down.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let line = self.send("SHUTDOWN")?;
        Self::expect_ok(&line).map(|_| ())
    }

    /// Block until the job is stable (done/failed/cancelled with nothing
    /// in flight) or the timeout elapses. The waiting happens in the
    /// server: one parked `WAIT`, answered by the transition itself and
    /// re-armed only when the connection's own I/O deadline is shorter
    /// than what is left (the server is asked to answer within half of
    /// it, so a healthy reply is never mistaken for a dead link).
    ///
    /// The timeout is a hard deadline: a job still unstable when it
    /// elapses yields a `receive timed out …` error (classified like a
    /// transport timeout, since both mean "the answer didn't arrive in
    /// time") rather than silently returning an in-flight status —
    /// callers that used to poll forever behind a quota'd queue now get
    /// a clean failure carrying the job's last observed progress.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> Result<JobStatus, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let park = self.deadline.map_or(left, |io| left.min(io / 2));
            let status = self.wait_progress(id, None, park)?;
            if status.is_stable() {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(wait_timed_out(timeout, &status));
            }
        }
    }

    /// The explicit-poll wait: STATUS on a backoff the caller chooses,
    /// from `floor` doubling to `cap` and back to the floor whenever
    /// `done` advances. Same hard deadline and error as
    /// [`Client::wait`], which parks instead and is what to use unless
    /// the cadence itself is the point (the module docs say when).
    pub fn wait_with_backoff(
        &mut self,
        id: u64,
        timeout: Duration,
        floor: Duration,
        cap: Duration,
    ) -> Result<JobStatus, String> {
        let floor = floor.max(Duration::from_millis(1));
        let cap = cap.max(floor);
        let deadline = Instant::now() + timeout;
        let mut backoff = floor;
        let mut last_done: Option<u64> = None;
        loop {
            let status = self.status(id)?;
            if status.is_stable() {
                return Ok(status);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(wait_timed_out(timeout, &status));
            }
            if last_done.is_some_and(|d| status.done > d) {
                backoff = floor;
            }
            last_done = Some(status.done);
            // never sleep past the deadline: the final poll happens on
            // time even when the backoff has grown to the cap
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(cap);
        }
    }
}

/// The hard-deadline error of both waits: transport-classified
/// (`receive …`), carrying the job's last observed progress.
fn wait_timed_out(timeout: Duration, last: &JobStatus) -> String {
    format!(
        "receive timed out after {timeout:?}: job {} still {} (done {}/{})",
        last.id, last.state, last.done, last.total
    )
}

/// Backoff before retrying an `over capacity` SUBMIT: the server's
/// `retry_after_ms=` hint (default 100 ms) doubled per attempt, plus a
/// deterministic jitter hashed from the job token and attempt number so
/// a herd of refused clients fans out instead of thundering back in
/// lockstep. Capped at 5 s per sleep.
fn retry_backoff(err: &str, token: Option<&str>, attempt: u64) -> Duration {
    let hint: u64 = err
        .split_once("retry_after_ms=")
        .map(|(_, rest)| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(100);
    let base = hint.saturating_mul(1 << attempt.min(6));
    // FNV-1a over the token bytes and attempt: deterministic per
    // (client, attempt) but distinct across clients, which is all the
    // decorrelation a jitter needs — no RNG, no wall clock.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in token
        .unwrap_or_default()
        .bytes()
        .chain(attempt.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let jitter = if base >= 2 { h % (base / 2) } else { 0 };
    Duration::from_millis(base.saturating_add(jitter).min(5_000))
}

/// Parse one `CAND i0 i1 i2 <score-bits-hex> [...]` line, score
/// reconstructed bit-exactly from the hex field (any trailing display
/// fields are ignored).
fn parse_candidate(line: &str) -> Result<Candidate, String> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("CAND") {
        return Err(format!("expected CAND line, got {line:?}"));
    }
    let a: u32 = parse_num(parts.next(), "i0")?;
    let b: u32 = parse_num(parts.next(), "i1")?;
    let c: u32 = parse_num(parts.next(), "i2")?;
    let bits = parts.next().ok_or("missing score bits")?;
    let bits = u64::from_str_radix(bits, 16).map_err(|_| format!("bad score bits {bits:?}"))?;
    Ok(Candidate {
        score: f64::from_bits(bits),
        triple: (a, b, c),
    })
}

fn parse_kv(rest: &str) -> Result<Vec<(String, String)>, String> {
    rest.split_whitespace()
        .map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("malformed field {tok:?}"))
        })
        .collect()
}

fn field<T: std::str::FromStr>(fields: &[(String, String)], key: &str) -> Result<T, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("missing or malformed field {key}"))
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("missing or malformed {what}"))
}

/// Parse a status reply's `key=value` fields.
fn parse_status(rest: &str) -> Result<JobStatus, String> {
    let fields = parse_kv(rest)?;
    let state_name: String = field(&fields, "state")?;
    let error = fields
        .iter()
        .find(|(k, _)| k == "error")
        .map(|(_, v)| unescape(v))
        .transpose()?;
    let simd = fields
        .iter()
        .find(|(k, _)| k == "simd")
        .map(|(_, v)| bitgenome::SimdLevel::parse_token(v))
        .transpose()?;
    let dataset_hash = fields
        .iter()
        .find(|(k, _)| k == "dataset_hash")
        .map(|(_, v)| {
            u64::from_str_radix(v, 16).map_err(|_| format!("bad dataset_hash field {v:?}"))
        })
        .transpose()?;
    Ok(JobStatus {
        id: field(&fields, "id").or_else(|_| field(&fields, "job"))?,
        state: JobState::parse(&state_name)?,
        done: field(&fields, "done")?,
        total: field(&fields, "total")?,
        in_flight: field(&fields, "in_flight")?,
        combos: field(&fields, "combos")?,
        simd,
        dataset_hash,
        error,
    })
}
