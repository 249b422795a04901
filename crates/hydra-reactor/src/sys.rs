//! Thin FFI layer over the one Linux readiness primitive the reactor
//! needs: `epoll` for the event loop.
//!
//! The workspace vendors every dependency, so there is no `libc` crate to
//! lean on; the declarations below bind the exact symbols the platform C
//! library already exports (std links it unconditionally on Linux).  Only
//! the calls the reactor actually makes are declared — this is not a
//! general-purpose binding.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Readable readiness (data available, or a listener with a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (kernel send buffer has room again).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (reported even when not requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: both directions closed (reported even when not requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half — the early-disconnect signal the reactor
/// registers on every connection so aborted clients are noticed without
/// waiting for a failed write.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `struct epoll_event` as the kernel ABI defines it.  On x86-64 the UAPI
/// header marks it `__attribute__((packed))` (12 bytes); on every other
/// architecture it is naturally aligned (16 bytes).  Getting this wrong
/// corrupts the `data` cookie on every wait, so mirror the header exactly.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
}

fn last_os_error_or_retry(ret: i32) -> Option<io::Error> {
    if ret >= 0 {
        return None;
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        None
    } else {
        Some(err)
    }
}

/// An epoll instance plus a reusable event buffer: the single readiness
/// source the reactor loop blocks on.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates a close-on-exec epoll instance with room for `capacity`
    /// events per wait.
    pub fn new(capacity: usize) -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags int and returns a new fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: epfd was just returned by epoll_create1 and is owned here.
        let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(8)],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event matching the kernel layout and
        // outlives the call; fd validity is the caller's invariant.
        let ret = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Registers `fd` under `token` with the given interest mask.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest mask of an already registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`.  Errors are ignored: the fd may already be gone,
    /// and close() deregisters implicitly anyway.
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until readiness or `timeout` (forever when `None`), appending
    /// `(token, events)` pairs to `out`.  Spurious interrupt returns an
    /// empty set rather than an error.
    pub fn wait(&mut self, out: &mut Vec<(u64, u32)>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs timer does not spin at timeout 0.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
            None => -1,
        };
        // SAFETY: buf is a live, correctly sized array of epoll_event.
        let ret = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if let Some(err) = last_os_error_or_retry(ret) {
            return Err(err);
        }
        for ev in self.buf.iter().take(ret.max(0) as usize) {
            // Copy out of the (possibly packed) struct before use.
            let (data, events) = (ev.data, ev.events);
            out.push((data, events));
        }
        Ok(())
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("epfd", &self.epfd.as_raw_fd())
            .field("capacity", &self.buf.len())
            .finish()
    }
}

/// Test helper: blocks until one of `fds` is readable or `timeout` expires
/// (forever when `None`).  Returns a readability flag per fd, all-false on
/// timeout.
#[cfg(test)]
pub fn wait_readable(fds: &[RawFd], timeout: Option<Duration>) -> io::Result<Vec<bool>> {
    let mut poller = Poller::new(fds.len())?;
    for (token, &fd) in fds.iter().enumerate() {
        poller.add(fd, token as u64, EPOLLIN)?;
    }
    let mut events = Vec::new();
    poller.wait(&mut events, timeout)?;
    let mut ready = vec![false; fds.len()];
    for (token, _) in events {
        ready[token as usize] = true;
    }
    Ok(ready)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn poller_reports_readable_socket() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new(8).expect("epoll");
        poller
            .add(b.as_raw_fd(), 42, EPOLLIN | EPOLLRDHUP)
            .expect("add");

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "no data yet: {events:?}");

        a.write_all(b"x").expect("write");
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 42);
        assert_ne!(events[0].1 & EPOLLIN, 0);
    }

    #[test]
    fn poller_reports_peer_hangup() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new(8).expect("epoll");
        poller
            .add(b.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP)
            .expect("add");
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_ne!(events[0].1 & (EPOLLRDHUP | EPOLLHUP), 0);
    }

    #[test]
    fn wait_readable_times_out_and_fires() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        let start = Instant::now();
        let ready = wait_readable(&[b.as_raw_fd()], Some(Duration::from_millis(20))).expect("poll");
        assert_eq!(ready, vec![false]);
        assert!(start.elapsed() >= Duration::from_millis(15));

        a.write_all(b"y").expect("write");
        let ready = wait_readable(&[b.as_raw_fd()], Some(Duration::from_secs(2))).expect("poll");
        assert_eq!(ready, vec![true]);
    }
}
