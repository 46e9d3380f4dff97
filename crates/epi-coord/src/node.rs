//! The node registry's unit: one handle per fleet member, tracking the
//! connection, consecutive-failure health, and deadline-bounded RPC.

use epi_server::Client;
use std::time::{Duration, Instant};

/// Classify a client error string: transport trouble (timeouts, refused
/// or dropped connections, a server announcing shutdown) versus a
/// protocol-level `ERR` the server answered while perfectly healthy
/// (`no such job`, a spec typo). Only the former counts against a
/// node's health — a coordinator must not declare a node dead because
/// one request was malformed.
pub fn is_transport_error(e: &str) -> bool {
    e.starts_with("connect ")
        || e.starts_with("send ")
        || e.starts_with("receive ")
        || e.contains("server closed the connection")
        || e.contains("shutting down")
}

/// One fleet member: address, lazily (re)established deadline-bounded
/// connection, and a consecutive-transport-failure counter that trips
/// into `dead` at a configurable threshold.
///
/// Dead is **probation**, not a grave: [`NodeHandle::probe`] re-PINGs a
/// dead node on its own exponential backoff schedule and re-admits it
/// on the first answered ping — unless it has been
/// [`NodeHandle::quarantine`]d, which *is* terminal (a node whose
/// dataset replica diverged must never rejoin, however healthy its
/// transport looks).
pub struct NodeHandle {
    addr: String,
    deadline: Duration,
    max_failures: u32,
    client: Option<Client>,
    failures: u32,
    dead: bool,
    /// Probation probe schedule: backoff bounds, the moment the next
    /// probe is due, and when the node died (for downtime provenance).
    probe_floor: Duration,
    probe_cap: Duration,
    probe_backoff: Duration,
    next_probe_at: Option<Instant>,
    dead_since: Option<Instant>,
    /// Terminal disqualification reason; `Some` wins over any probe.
    quarantined: Option<String>,
}

impl NodeHandle {
    /// Handle for `addr` (`host:port`). No connection is attempted until
    /// the first [`NodeHandle::rpc`].
    pub fn new(addr: impl Into<String>, deadline: Duration, max_failures: u32) -> Self {
        Self {
            addr: addr.into(),
            deadline,
            max_failures: max_failures.max(1),
            client: None,
            failures: 0,
            dead: false,
            probe_floor: Duration::from_millis(50),
            probe_cap: Duration::from_secs(2),
            probe_backoff: Duration::from_millis(50),
            next_probe_at: None,
            dead_since: None,
            quarantined: None,
        }
    }

    /// Override the probation probe backoff bounds (floor doubles to
    /// cap while a dead node stays unreachable).
    pub fn with_probe_backoff(mut self, floor: Duration, cap: Duration) -> Self {
        self.probe_floor = floor.max(Duration::from_millis(1));
        self.probe_cap = cap.max(self.probe_floor);
        self.probe_backoff = self.probe_floor;
        self
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Declared dead: `max_failures` consecutive transport failures (or
    /// an explicit [`NodeHandle::mark_dead`]). A dead node refuses
    /// [`NodeHandle::rpc`] but sits in probation — only a successful
    /// [`NodeHandle::probe`] re-admits it.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Terminally disqualified (dataset mismatch or other integrity
    /// breach); a quarantined node is also dead and never re-admitted.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.is_some()
    }

    /// Why the node was quarantined, if it was.
    pub fn quarantine_reason(&self) -> Option<&str> {
        self.quarantined.as_deref()
    }

    /// Consecutive transport failures since the last successful RPC.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    pub fn mark_dead(&mut self) {
        if !self.dead {
            self.dead_since = Some(Instant::now());
            self.probe_backoff = self.probe_floor;
            self.next_probe_at = Some(Instant::now() + self.probe_floor);
        }
        self.dead = true;
        self.client = None;
    }

    /// Disqualify the node permanently: dead, and probes stop trying.
    pub fn quarantine(&mut self, reason: impl Into<String>) {
        self.mark_dead();
        self.quarantined = Some(reason.into());
        self.next_probe_at = None;
    }

    /// True when the node is in probation and its next re-admission
    /// probe is due.
    pub fn probe_due(&self, now: Instant) -> bool {
        self.dead && self.quarantined.is_none() && self.next_probe_at.is_some_and(|at| now >= at)
    }

    /// Re-admission probe: PING a dead node once (bypassing the `rpc`
    /// dead-gate) if its backoff schedule says it's due. An answered
    /// ping re-admits the node — health reset, connection kept — and
    /// returns its downtime; an unanswered one doubles the backoff
    /// (floor→cap) and returns `None`. Quarantined nodes never probe.
    pub fn probe(&mut self) -> Option<Duration> {
        if !self.probe_due(Instant::now()) {
            return None;
        }
        let answered = Client::connect_framed_with_deadline(self.addr.as_str(), self.deadline)
            .ok()
            .and_then(|mut c| c.ping().ok().map(|_| c));
        match answered {
            Some(c) => {
                let downtime = self.dead_since.map(|t| t.elapsed()).unwrap_or_default();
                self.dead = false;
                self.failures = 0;
                self.client = Some(c);
                self.next_probe_at = None;
                self.dead_since = None;
                self.probe_backoff = self.probe_floor;
                Some(downtime)
            }
            None => {
                self.probe_backoff = (self.probe_backoff * 2).min(self.probe_cap);
                self.next_probe_at = Some(Instant::now() + self.probe_backoff);
                None
            }
        }
    }

    /// Run one request against this node, connecting (with the deadline)
    /// if needed. A transport failure drops the connection — the next
    /// call reconnects fresh rather than reading a half-dead stream —
    /// and counts toward the death threshold; any successful exchange
    /// resets the counter, even when the server's answer is an `ERR`.
    pub fn rpc<T>(
        &mut self,
        op: impl FnOnce(&mut Client) -> Result<T, String>,
    ) -> Result<T, String> {
        self.exchange(op, true)
    }

    /// The write half of a split request (`Client::wait_post`): the
    /// reply is collected by a later [`NodeHandle::rpc`]. Failures count
    /// exactly as in `rpc`, but success proves only that a kernel
    /// buffer took the bytes, so it does not reset the failure count —
    /// otherwise a black-holed node, whose writes succeed and whose
    /// reads time out, would alternate 1, 0, 1, 0 and never be
    /// declared dead.
    pub fn post(
        &mut self,
        op: impl FnOnce(&mut Client) -> Result<(), String>,
    ) -> Result<(), String> {
        self.exchange(op, false)
    }

    fn exchange<T>(
        &mut self,
        op: impl FnOnce(&mut Client) -> Result<T, String>,
        proves_liveness: bool,
    ) -> Result<T, String> {
        if self.dead {
            return Err(format!("node {} is dead", self.addr));
        }
        if self.client.is_none() {
            // framed transport: every cross-machine request and reply is
            // checksummed in transit (same verbs, bit-identical replies)
            match Client::connect_framed_with_deadline(self.addr.as_str(), self.deadline) {
                Ok(c) => self.client = Some(c),
                Err(e) => {
                    self.note_transport_failure();
                    return Err(format!("connect to {} failed: {e}", self.addr));
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the connect branch just above fills self.client or returns Err"
        )]
        let client = self.client.as_mut().expect("connected above");
        match op(client) {
            Ok(v) => {
                if proves_liveness {
                    self.failures = 0;
                }
                Ok(v)
            }
            Err(e) => {
                if is_transport_error(&e) {
                    self.client = None;
                    self.note_transport_failure();
                } else {
                    self.failures = 0;
                }
                Err(e)
            }
        }
    }

    fn note_transport_failure(&mut self) {
        self.failures += 1;
        if self.failures >= self.max_failures {
            self.mark_dead();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_errors_are_distinguished_from_protocol_errors() {
        for e in [
            "connect to 10.0.0.1:7733 failed: Connection refused",
            "connect timed out",
            "send timed out after 5s",
            "receive timed out after 5s",
            "send failed: Broken pipe (os error 32)",
            "receive failed: Connection reset by peer",
            "server closed the connection",
            "server shutting down",
        ] {
            assert!(is_transport_error(e), "{e:?} should be transport");
        }
        for e in [
            "no such job 7",
            "shard_set selects no shards",
            "unknown verb \"FROB\"",
        ] {
            assert!(!is_transport_error(e), "{e:?} should be protocol");
        }
    }

    #[test]
    fn consecutive_failures_trip_the_death_threshold() {
        // 127.0.0.1:1 — reserved port, connection refused immediately
        let mut node = NodeHandle::new("127.0.0.1:1", Duration::from_millis(200), 3);
        for expect_dead in [false, false, true] {
            assert!(node.rpc(|c| c.ping()).is_err());
            assert_eq!(node.is_dead(), expect_dead);
        }
        // dead gates rpc: work only flows again through a probe
        let err = node.rpc(|c| c.ping()).unwrap_err();
        assert!(err.contains("dead"), "{err}");
    }

    #[test]
    fn probe_readmits_a_restarted_node() {
        use epi_server::{EngineConfig, Server};
        let server = Server::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut node = NodeHandle::new(addr.to_string(), Duration::from_secs(2), 1)
            .with_probe_backoff(Duration::from_millis(5), Duration::from_millis(40));
        node.rpc(|c| c.ping()).unwrap();

        handle.shutdown();
        // the next rpc hits a closed port and (max_failures=1) kills it
        while !node.is_dead() {
            let _ = node.rpc(|c| c.ping());
        }
        assert!(node.rpc(|c| c.ping()).is_err(), "dead gates rpc");
        // unanswered probes keep it in probation
        std::thread::sleep(Duration::from_millis(10));
        assert!(node.probe().is_none());
        assert!(node.is_dead());

        // restart the server on the *same* address, as a recovered
        // fleet member would
        let revived = Server::bind(addr, EngineConfig::default()).unwrap();
        let revived_handle = revived.spawn();
        let deadline = Instant::now() + Duration::from_secs(30);
        let downtime = loop {
            assert!(Instant::now() < deadline, "probe never re-admitted");
            if let Some(d) = node.probe() {
                break d;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(!node.is_dead());
        assert_eq!(node.failures(), 0);
        assert!(downtime > Duration::ZERO);
        // and the re-admitted node serves RPCs again
        node.rpc(|c| c.ping()).unwrap();
        revived_handle.shutdown();
    }

    #[test]
    fn quarantine_is_terminal_even_for_a_healthy_transport() {
        use epi_server::{EngineConfig, Server};
        let server = Server::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut node = NodeHandle::new(addr.to_string(), Duration::from_secs(2), 2)
            .with_probe_backoff(Duration::from_millis(1), Duration::from_millis(10));
        node.rpc(|c| c.ping()).unwrap();
        node.quarantine("hash mismatch: replica diverged");
        assert!(node.is_dead());
        assert!(node.is_quarantined());
        assert_eq!(
            node.quarantine_reason(),
            Some("hash mismatch: replica diverged")
        );
        // the server is perfectly reachable — the probe must not even try
        std::thread::sleep(Duration::from_millis(5));
        assert!(!node.probe_due(Instant::now()));
        assert!(node.probe().is_none());
        assert!(node.is_dead());
        handle.shutdown();
    }
}
