//! Deterministic fault injection for federation tests: a TCP relay
//! that drops, black-holes, delays, or truncates connections per a
//! scripted or seeded schedule.
//!
//! The paper's systematic-enumeration stance, applied to failure
//! surfaces: instead of waiting for CI to stumble into a flaky socket,
//! every transport failure mode the coordinator claims to survive is
//! *injected on purpose*, per connection, reproducibly. A coordinator
//! pointed at `proxy.local_addr()` instead of the node talks through
//! the schedule; connection `i` always draws the same fault for the
//! same seed, so a failing chaos run replays exactly with
//! `EPI3_CHAOS_SEED=<n>`.
//!
//! The faults map one-to-one onto the transport-error taxonomy in
//! [`crate::node::is_transport_error`]:
//!
//! * [`Fault::Drop`] — accept then close: `connect` succeeds, first
//!   read fails (connection reset / closed).
//! * [`Fault::Blackhole`] — accept and hold the socket open, never
//!   relaying a byte: the RPC blocks until the client deadline fires
//!   (`… timed out`).
//! * [`Fault::Delay`] — relay after a pause: slow but healthy, must
//!   NOT count against node health when under the deadline.
//! * [`Fault::Truncate`] — relay only the first N upstream bytes, then
//!   shut down: a reply cut mid-line (`server closed the connection`).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What happens to one proxied connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    None,
    /// Accept, then close immediately.
    Drop,
    /// Accept and hold open without relaying; the client's deadline is
    /// what ends the exchange.
    Blackhole,
    /// Relay, but only after this pause.
    Delay(Duration),
    /// Relay only the first N bytes coming back from the upstream, then
    /// shut the connection down.
    Truncate(usize),
}

/// Per-connection fault schedule.
#[derive(Clone, Debug)]
pub enum ChaosSchedule {
    /// `faults[i]` applies to connection `i`; connections beyond the
    /// script relay faithfully.
    Scripted(Vec<Fault>),
    /// Pseudo-random but fully determined by the seed. Connection 0
    /// always draws a fault (a healthy coordinator reuses one
    /// connection for many RPCs, so without this a lucky seed could
    /// inject nothing at all); later connections fault at ~1 in 4.
    Seeded(u64),
}

impl ChaosSchedule {
    /// The fault connection `index` draws.
    pub fn fault_for(&self, index: u64) -> Fault {
        match self {
            ChaosSchedule::Scripted(faults) => {
                faults.get(index as usize).copied().unwrap_or(Fault::None)
            }
            ChaosSchedule::Seeded(seed) => {
                let r = epi_server::spool::seeded_roll(*seed, index);
                if index != 0 && !r.is_multiple_of(4) {
                    return Fault::None;
                }
                match (r >> 8) % 4 {
                    0 => Fault::Drop,
                    1 => Fault::Blackhole,
                    2 => Fault::Delay(Duration::from_millis(20 + (r >> 16) % 60)),
                    _ => Fault::Truncate(((r >> 16) % 48) as usize),
                }
            }
        }
    }
}

/// Counters of what the proxy actually did (assert on these to prove a
/// chaos test exercised what it claims to).
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    faults: AtomicU64,
}

/// A chaos TCP relay in front of one upstream address.
pub struct ChaosProxy {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    counters: Arc<Counters>,
    /// Black-holed client sockets, held open until the proxy stops.
    held: Arc<Mutex<Vec<TcpStream>>>,
}

impl ChaosProxy {
    /// Start a relay on an ephemeral loopback port in front of
    /// `upstream`, applying `schedule` per accepted connection.
    pub fn launch(upstream: SocketAddr, schedule: ChaosSchedule) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let held = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let held = Arc::clone(&held);
            std::thread::spawn(move || {
                let mut index = 0u64;
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = conn else { continue };
                    let fault = schedule.fault_for(index);
                    index += 1;
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    if fault != Fault::None {
                        counters.faults.fetch_add(1, Ordering::Relaxed);
                    }
                    match fault {
                        Fault::Drop => drop(client),
                        Fault::Blackhole => {
                            held.lock().unwrap_or_else(|e| e.into_inner()).push(client)
                        }
                        Fault::None => relay(client, upstream, None, Duration::ZERO),
                        Fault::Delay(pause) => relay(client, upstream, None, pause),
                        Fault::Truncate(n) => relay(client, upstream, Some(n), Duration::ZERO),
                    }
                }
            })
        };
        Ok(Self {
            local,
            stop,
            accept_thread: Some(accept_thread),
            counters,
            held,
        })
    }

    /// Address the coordinator should use instead of the upstream's.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.counters.connections.load(Ordering::Relaxed)
    }

    /// Faulted connections so far.
    pub fn faults_injected(&self) -> u64 {
        self.counters.faults.load(Ordering::Relaxed)
    }

    /// Stop accepting and release every held (black-holed) socket.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the accept loop with one last connection
        let _ = TcpStream::connect(self.local);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.held.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Relay `client` ⇄ `upstream` on detached threads, optionally delayed
/// first, optionally truncating the upstream→client direction after
/// `truncate` bytes (then shutting both directions down).
fn relay(client: TcpStream, upstream: SocketAddr, truncate: Option<usize>, delay: Duration) {
    std::thread::spawn(move || {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            return;
        };
        let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
            return;
        };
        // client → server, unbounded
        let up = std::thread::spawn(move || copy_until_eof(client_r, server, None));
        // server → client, possibly truncated
        copy_until_eof(server_r, client, truncate);
        let _ = up.join();
    });
}

/// Pump bytes from `src` to `dst` until EOF, an error, or the optional
/// byte budget runs out; then shut both ends down so the peer's blocked
/// reads fail fast instead of waiting for a timeout.
fn copy_until_eof(mut src: TcpStream, mut dst: TcpStream, budget: Option<usize>) {
    let mut remaining = budget;
    let mut buf = [0u8; 4096];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let take = match remaining {
            Some(left) => n.min(left),
            None => n,
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "take is min(bytes read, remaining byte budget), both bounded by buf.len()"
        )]
        if dst.write_all(&buf[..take]).is_err() {
            break;
        }
        if let Some(left) = &mut remaining {
            *left -= take;
            if *left == 0 {
                break;
            }
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_server::{Client, EngineConfig, Server};

    #[test]
    fn seeded_schedules_are_deterministic_and_fault_connection_zero() {
        for seed in 0..32u64 {
            let s1 = ChaosSchedule::Seeded(seed);
            let s2 = ChaosSchedule::Seeded(seed);
            for i in 0..64 {
                assert_eq!(s1.fault_for(i), s2.fault_for(i), "seed {seed} conn {i}");
            }
            assert_ne!(
                s1.fault_for(0),
                Fault::None,
                "connection 0 must always fault (seed {seed})"
            );
        }
        // different seeds disagree somewhere (not a constant schedule)
        let a = ChaosSchedule::Seeded(1);
        let b = ChaosSchedule::Seeded(2);
        assert!((0..64).any(|i| a.fault_for(i) != b.fault_for(i)));
    }

    #[test]
    fn faithful_relay_is_transparent_to_the_protocol() {
        let server = Server::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();
        let proxy = ChaosProxy::launch(addr, ChaosSchedule::Scripted(vec![])).unwrap();
        let mut c =
            Client::connect_with_deadline(proxy.local_addr(), Duration::from_secs(5)).unwrap();
        c.ping().unwrap();
        assert!(c.jobs().unwrap().is_empty());
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.faults_injected(), 0);
        handle.shutdown();
    }

    #[test]
    fn each_fault_kind_maps_to_a_transport_error() {
        use crate::node::is_transport_error;
        let server = Server::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();
        // conn 0: dropped; conn 1: black-holed; conn 2: reply truncated
        // to nothing (request still forwarded, reply cut → EOF); conn 3:
        // delayed but healthy; conn 4+: faithful
        let script = vec![
            Fault::Drop,
            Fault::Blackhole,
            Fault::Truncate(0),
            Fault::Delay(Duration::from_millis(30)),
        ];
        let proxy = ChaosProxy::launch(addr, ChaosSchedule::Scripted(script)).unwrap();
        let deadline = Duration::from_millis(500);

        for conn in 0..3 {
            let outcome = Client::connect_with_deadline(proxy.local_addr(), deadline)
                .map_err(|e| format!("connect failed: {e}"))
                .and_then(|mut c| c.ping());
            let err = outcome.expect_err("faulted connection should fail");
            assert!(
                is_transport_error(&err) || err.starts_with("connect failed"),
                "conn {conn}: fault must look like transport trouble, got {err:?}"
            );
        }
        // the delayed connection succeeds — slow is not dead
        Client::connect_with_deadline(proxy.local_addr(), Duration::from_secs(5))
            .unwrap()
            .ping()
            .unwrap();
        // and so does every connection after the script runs out
        Client::connect_with_deadline(proxy.local_addr(), deadline)
            .unwrap()
            .ping()
            .unwrap();
        assert_eq!(proxy.faults_injected(), 4, "all four scripted faults fired");
        handle.shutdown();
    }
}
