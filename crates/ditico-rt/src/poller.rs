//! Readiness-driven I/O primitives for the event-loop transport.
//!
//! This module is what lets one thread own every socket: a [`Poller`]
//! over epoll(7), a [`PollWaker`] so producer threads can interrupt a
//! blocked wait, and a nonblocking [`connect_start`] so in-flight dials
//! are concurrent instead of serialized behind `connect_timeout`. The
//! loop's deadlines (heartbeats, reconnect backoff, connect timeouts)
//! are a plain list in `netloop.rs` whose earliest entry becomes the
//! wait timeout.
//!
//! Std has no readiness API and no way to start a connect without
//! waiting for it (`TcpStream::connect_timeout` blocks its caller), and
//! the workspace vendors no `libc` crate. So `sys` declares by hand the
//! five calls std lacks: `epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `socket` and `connect`, with **Linux** constant values and sockaddr
//! layouts. That is why the whole module (and the TCP transport that
//! rides on it) is compiled only for `target_os = "linux"`: other
//! unixes lack epoll, disagree on `SOCK_NONBLOCK` and `EINPROGRESS` and
//! prefix sockaddrs with `sin_len`, so compiling there would fail at
//! runtime, not loudly at build time. On those targets
//! `Transport::start` reports that TCP runs need Linux. Everything else
//! is std: the wake channel is a [`UnixStream`] pair, and a finished
//! dial is a [`TcpStream`] that reads its own `SO_ERROR`. Every raw fd
//! becomes an [`OwnedFd`] in `owned_fd`, the moment the call returns
//! it, so error paths cannot leak descriptors.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Raw libc declarations of what std lacks. Constant values and struct
/// layouts are Linux's — the reason this module is gated on
/// `target_os = "linux"`.
#[allow(non_camel_case_types)]
mod sys {
    pub use std::os::raw::{c_int, c_void};

    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOCK_NONBLOCK: c_int = 0o4000;
    pub const SOCK_CLOEXEC: c_int = 0o2000000;
    pub const EINPROGRESS: i32 = 115;
    pub const EINTR: i32 = 4;

    // The kernel packs epoll_event on x86-64 (for 32-bit ABI compat);
    // other architectures use natural alignment. Mirrors libc's cfg.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;

        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, ev: *mut epoll_event) -> c_int;
        pub fn epoll_wait(epfd: c_int, evs: *mut epoll_event, max: c_int, timeout: c_int) -> c_int;
    }
}

fn cvt(ret: sys::c_int) -> io::Result<sys::c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Adopt the descriptor a call returned, or turn its failure into an
/// error. Only `epoll_create1` and `socket` results come here.
fn owned_fd(ret: sys::c_int) -> io::Result<OwnedFd> {
    let fd = cvt(ret)?;
    // SAFETY: a non-negative return of `epoll_create1` or `socket` is a
    // fresh open descriptor that nothing else owns or will close.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report. `closed` means the peer hung up or the socket
/// errored; readers should still drain (the error surfaces on `read`).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    pub closed: bool,
}

/// Readiness multiplexer (epoll) over a set of registered fds, each
/// identified by a caller-chosen `token`. Level-triggered: an unconsumed
/// condition is re-reported on the next `wait`, so a budgeted reader
/// never needs to drain a socket to exhaustion.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<sys::epoll_event>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers cross the call.
        let epfd = owned_fd(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            buf: vec![sys::epoll_event { events: 0, data: 0 }; 1024],
        })
    }

    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn ctl(&self, op: sys::c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest.readable {
            events |= sys::EPOLLIN;
        }
        if interest.writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::epoll_event {
            events,
            data: token as u64,
        };
        // SAFETY: `ev` is a live epoll_event for the duration of the call
        // and `epfd` is our open epoll descriptor; a bad `fd` is reported
        // as an error, not undefined behaviour.
        cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses (`None` = forever), appending events to `out`. A spurious
    /// empty return is allowed (EINTR, timeout).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let ms: sys::c_int = match timeout {
            None => -1,
            // Round up so a 100µs deadline does not busy-spin at 0ms.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as sys::c_int,
        };
        // SAFETY: `buf` is an initialized Vec of `buf.len()` events that
        // outlives the call; the kernel writes at most that many.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as sys::c_int,
                ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.raw_os_error() == Some(sys::EINTR) {
                Ok(())
            } else {
                Err(e)
            };
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            let err = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            out.push(Event {
                token: ev.data as usize,
                // Errors count as both-ready so the owner makes progress
                // (the read/write call is what reports *which* error).
                readable: bits & sys::EPOLLIN != 0 || err,
                writable: bits & sys::EPOLLOUT != 0 || err,
                closed: err,
            });
        }
        Ok(())
    }
}

/// The read end of the wake channel; the loop registers it and drains it.
pub struct WakeReader {
    sock: UnixStream,
}

impl WakeReader {
    pub fn raw_fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }

    /// Swallow all pending wake bytes; many wakes coalesce into one.
    /// Stops when the channel is empty (`WouldBlock`), closed, or errs
    /// (`Interrupted` included): the poll is level-triggered, so a byte
    /// left behind only re-reports the channel readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.sock).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The write end, cheaply cloneable across producer threads. Waking an
/// event loop blocked in `Poller::wait` is the poller-world equivalent
/// of [`crate::wake::Notify::notify`]; like it, a wake is idempotent —
/// the socket buffer fills after a few hundred unconsumed wakes and
/// further writes fail with `WouldBlock`, which is exactly "flag already
/// raised".
#[derive(Clone)]
pub struct PollWaker {
    sock: Arc<UnixStream>,
}

impl PollWaker {
    pub fn wake(&self) {
        // `WouldBlock` (the buffer is already full of wakes) and
        // `Interrupted` both leave the loop sure to wake; nothing to
        // handle.
        let _ = (&*self.sock).write(&[1]);
    }
}

impl crate::wake::Wake for PollWaker {
    fn wake(&self) {
        PollWaker::wake(self);
    }
}

/// A nonblocking, close-on-exec wake channel: `(drain side, wake side)`.
pub fn wake_pipe() -> io::Result<(WakeReader, PollWaker)> {
    let (r, w) = UnixStream::pair()?;
    r.set_nonblocking(true)?;
    w.set_nonblocking(true)?;
    Ok((WakeReader { sock: r }, PollWaker { sock: Arc::new(w) }))
}

/// A dial that could not complete instantly: the socket is mid-handshake
/// and becomes writable when the connect resolves (successfully or not).
pub struct PendingConnect {
    fd: OwnedFd,
}

/// Outcome of starting a nonblocking connect.
pub enum ConnectStart {
    /// Completed synchronously (possible on loopback).
    Connected(TcpStream),
    /// In flight; register writable interest and wait.
    Pending(PendingConnect),
}

impl PendingConnect {
    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Call once the socket reported writable: reads `SO_ERROR` for the
    /// connect verdict and hands over the stream on success.
    pub fn finish(self) -> io::Result<TcpStream> {
        let sock = TcpStream::from(self.fd);
        match sock.take_error()? {
            Some(e) => Err(e),
            None => Ok(sock),
        }
    }
}

/// `sockaddr_in` / `sockaddr_in6` wire image (family and port in the
/// positions POSIX fixes; built by hand so no libc struct defs are
/// needed). Returns `(storage, len, domain)`.
fn sockaddr_bytes(addr: &SocketAddr) -> ([u8; 28], u32, sys::c_int) {
    let mut buf = [0u8; 28];
    match addr {
        SocketAddr::V4(a) => {
            buf[0..2].copy_from_slice(&(sys::AF_INET as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&a.port().to_be_bytes());
            buf[4..8].copy_from_slice(&a.ip().octets());
            (buf, 16, sys::AF_INET)
        }
        SocketAddr::V6(a) => {
            buf[0..2].copy_from_slice(&(sys::AF_INET6 as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&a.port().to_be_bytes());
            buf[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            buf[8..24].copy_from_slice(&a.ip().octets());
            buf[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (buf, 28, sys::AF_INET6)
        }
    }
}

/// Begin a nonblocking TCP connect. Unlike
/// `TcpStream::connect_timeout`, this never blocks the caller — which is
/// what keeps one dead peer from delaying every other peer's handshake.
pub fn connect_start(addr: &SocketAddr) -> io::Result<ConnectStart> {
    let (sa, len, domain) = sockaddr_bytes(addr);
    let ty = sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC;
    // SAFETY: no pointers cross the call.
    let fd = owned_fd(unsafe { sys::socket(domain, ty, 0) })?;
    // SAFETY: `sa` is a live buffer of at least `len` bytes holding the
    // sockaddr of `domain`; the kernel only reads it.
    let r = unsafe { sys::connect(fd.as_raw_fd(), sa.as_ptr().cast(), len) };
    if r == 0 {
        return Ok(ConnectStart::Connected(TcpStream::from(fd)));
    }
    let e = io::Error::last_os_error();
    match e.raw_os_error() {
        Some(sys::EINPROGRESS) | Some(sys::EINTR) => {
            Ok(ConnectStart::Pending(PendingConnect { fd }))
        }
        _ => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn epoll_backend_connects_and_reads() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pending = match connect_start(&addr).unwrap() {
            ConnectStart::Connected(s) => {
                // Loopback connect finished synchronously; good enough.
                s
            }
            ConnectStart::Pending(p) => {
                poller.register(p.raw_fd(), 7, Interest::WRITE).unwrap();
                let mut evs = Vec::new();
                let t0 = Instant::now();
                while evs.is_empty() && t0.elapsed() < Duration::from_secs(5) {
                    poller
                        .wait(&mut evs, Some(Duration::from_millis(100)))
                        .unwrap();
                }
                assert!(evs.iter().any(|e| e.token == 7 && e.writable), "{evs:?}");
                poller.deregister(p.raw_fd()).unwrap();
                p.finish().unwrap()
            }
        };
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"ping").unwrap();

        let mut sock = pending;
        poller
            .register(sock.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        let mut evs: Vec<Event> = Vec::new();
        let t0 = Instant::now();
        while !evs.iter().any(|e| e.token == 9 && e.readable) {
            assert!(t0.elapsed() < Duration::from_secs(5), "no readable event");
            poller
                .wait(&mut evs, Some(Duration::from_millis(100)))
                .unwrap();
        }
        let mut buf = [0u8; 4];
        sock.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn failed_connect_reports_an_error_not_a_hang() {
        // Bind-then-drop: connecting to the freed port is refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match connect_start(&addr) {
            Err(_) => {} // synchronous refusal is fine
            Ok(ConnectStart::Connected(_)) => panic!("connect to dead port succeeded"),
            Ok(ConnectStart::Pending(p)) => {
                let mut poller = Poller::new().unwrap();
                poller.register(p.raw_fd(), 1, Interest::WRITE).unwrap();
                let mut evs = Vec::new();
                let t0 = Instant::now();
                while evs.is_empty() && t0.elapsed() < Duration::from_secs(5) {
                    poller
                        .wait(&mut evs, Some(Duration::from_millis(100)))
                        .unwrap();
                }
                assert!(!evs.is_empty(), "connect failure must become an event");
                poller.deregister(p.raw_fd()).unwrap();
                assert!(p.finish().is_err(), "SO_ERROR must report the refusal");
            }
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_and_coalesces() {
        let (reader, waker) = wake_pipe().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(reader.raw_fd(), 0, Interest::READ).unwrap();
        let w2 = waker.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            // Many wakes, one event.
            for _ in 0..100 {
                w2.wake();
            }
        });
        let mut evs = Vec::new();
        let t0 = Instant::now();
        while evs.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(5), "wake lost");
            poller.wait(&mut evs, Some(Duration::from_secs(1))).unwrap();
        }
        assert!(evs.iter().any(|e| e.token == 0 && e.readable));
        // Every wake must be in the channel before the drain, or a late one
        // makes the final wait readable again.
        h.join().unwrap();
        reader.drain();
        // Drained: the next wait times out instead of spinning.
        evs.clear();
        poller
            .wait(&mut evs, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(evs.is_empty(), "{evs:?}");
    }
}
