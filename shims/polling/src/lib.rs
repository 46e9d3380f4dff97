//! Offline stand-in for the subset of
//! [polling](https://crates.io/crates/polling) used by this workspace.
//!
//! The build environment has no registry access, so this crate wraps the
//! `poll(2)` syscall (already linked through std's libc) behind the same
//! `Poller`/`Event` names the real crate exports. Unix only, like its one
//! user, `epi-server`. Two deliberate divergences, both in the direction
//! the `epi-server` readiness loop wants:
//!
//! * **level-triggered**, not oneshot: an interest stays armed until
//!   [`Poller::modify`] or [`Poller::delete`] changes it, so a socket
//!   with unread bytes keeps reporting readable on every wait;
//! * registration takes `&mut self` — the server owns its poller
//!   exclusively, so no interior mutability (and no lock) is needed.
//!
//! The registry is a flat `Vec`: the server polls one listener plus a
//! few hundred connections at most, far below the point where `poll(2)`
//! fd-set rebuild costs would argue for epoll.

#![deny(unsafe_code)]

use std::io;
use std::time::Duration;

use std::os::unix::io::{AsRawFd, RawFd};

/// Readiness interest / readiness report for one registered source,
/// identified by the caller-chosen `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub key: usize,
    pub readable: bool,
    pub writable: bool,
}

impl Event {
    pub fn readable(key: usize) -> Self {
        Self {
            key,
            readable: true,
            writable: false,
        }
    }

    pub fn writable(key: usize) -> Self {
        Self {
            key,
            readable: false,
            writable: true,
        }
    }

    pub fn all(key: usize) -> Self {
        Self {
            key,
            readable: true,
            writable: true,
        }
    }

    /// Registered but currently dormant: the fd stays in the set (its
    /// key is reserved) without waking the poller. The server parks its
    /// listener like this while backing off from accept errors.
    pub fn none(key: usize) -> Self {
        Self {
            key,
            readable: false,
            writable: false,
        }
    }
}

mod sys {
    // The one unsafe surface of the workspace outside the SIMD core:
    // the `poll(2)` FFI declaration and call. Everything above it is
    // safe Rust over plain fd/interest bookkeeping.
    #![allow(unsafe_code)]

    use std::os::raw::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs, its length is passed as
        // nfds, and poll(2) writes only the `revents` fields within
        // that span. The pointer outlives the call; no aliasing exists
        // while the mutable borrow is held.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

/// A `poll(2)`-backed readiness watcher over registered fds.
pub struct Poller {
    sources: Vec<(RawFd, Event)>,
}

impl Poller {
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            sources: Vec::new(),
        })
    }

    /// Register `source` with an initial interest. The `key` inside
    /// `interest` is echoed back in every readiness report.
    pub fn add(&mut self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let fd = source.as_raw_fd();
        if self.sources.iter().any(|(f, _)| *f == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.sources.push((fd, interest));
        Ok(())
    }

    /// Replace the interest of an already-registered source.
    pub fn modify(&mut self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match self.sources.iter_mut().find(|(f, _)| *f == fd) {
            Some((_, ev)) => {
                *ev = interest;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Remove a source from the set. Unlike the real crate, deletion
    /// also takes the registration's `key`: the unix backend deletes by
    /// fd, but the non-unix fallback has no fd and keys its registry on
    /// `key` alone, so both signatures carry it.
    pub fn delete(&mut self, source: &impl AsRawFd, _key: usize) -> io::Result<()> {
        let fd = source.as_raw_fd();
        self.sources.retain(|(f, _)| *f != fd);
        Ok(())
    }

    /// Block until at least one registered interest is ready or the
    /// timeout elapses (`None` = wait forever). Ready events are
    /// appended to `events` (cleared first); returns how many. An
    /// `EINTR`-interrupted wait reports zero events rather than an
    /// error, like the real crate.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // round up so a 100µs deadline does not spin at timeout 0
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        let mut fds: Vec<sys::PollFd> = self
            .sources
            .iter()
            .map(|(fd, ev)| {
                let mut bits: i16 = 0;
                if ev.readable {
                    bits |= sys::POLLIN;
                }
                if ev.writable {
                    bits |= sys::POLLOUT;
                }
                sys::PollFd {
                    fd: *fd,
                    events: bits,
                    revents: 0,
                }
            })
            .collect();
        match sys::poll_fds(fds.as_mut_slice(), timeout_ms) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(0),
            Err(e) => return Err(e),
        }
        for (pfd, (_, ev)) in fds.iter().zip(self.sources.iter()) {
            // error/hangup conditions surface through whichever
            // direction the caller is watching, so a closed peer wakes
            // a read-interested connection instead of hanging it
            let err = pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0;
            let readable = ev.readable && (pfd.revents & sys::POLLIN != 0 || err);
            let writable = ev.writable && (pfd.revents & sys::POLLOUT != 0 || err);
            if readable || writable {
                events.push(Event {
                    key: ev.key,
                    readable,
                    writable,
                });
            }
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn listener_reports_readable_when_a_connection_is_pending() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&listener, Event::readable(7)).unwrap();

        let mut events = Vec::new();
        // nothing pending: a short wait times out empty
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn level_triggered_interest_persists_until_modified() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&listener, Event::readable(1)).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();

        let mut events = Vec::new();
        for _ in 0..3 {
            // the pending connection is never accepted, so a
            // level-triggered poller must keep reporting it
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1);
        }
        // parking the interest silences it
        poller.modify(&listener, Event::none(1)).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn writable_and_readable_directions_are_independent() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(&client, Event::all(3)).unwrap();
        let mut events = Vec::new();

        // an idle connected socket: writable, not readable
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.key == 3 && e.writable));
        assert!(!events.iter().any(|e| e.readable));

        served.write_all(b"x").unwrap();
        served.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.key == 3 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never readable");
        }
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap(), 1);
    }
}
