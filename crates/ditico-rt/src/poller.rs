//! Readiness-driven I/O primitives for the event-loop transport.
//!
//! This module is what lets one thread own every socket: a [`Poller`]
//! over epoll(7), a [`PollWaker`] self-pipe so producer threads can
//! interrupt a blocked wait, a [`TimerWheel`] of deadlines (heartbeats,
//! reconnect backoff, connect timeouts) that turns every transport
//! sleep-loop into a computed wait timeout, and a nonblocking
//! [`connect_start`] so in-flight dials are concurrent instead of
//! serialized behind `connect_timeout`.
//!
//! The workspace vendors no `libc` crate, and the build environment
//! cannot add one; since std already links the platform libc, the tiny
//! syscall surface needed here (a dozen symbols) is declared directly in
//! [`sys`] — with **Linux** constant values and sockaddr layouts, which
//! is why the whole module (and the TCP transport that rides on it) is
//! compiled only for `target_os = "linux"`: other unixes lack epoll,
//! disagree on `O_NONBLOCK`, `SOL_SOCKET`, `EINPROGRESS` and prefix
//! sockaddrs with `sin_len`, so compiling there would fail at runtime,
//! not loudly at build time. On those targets `Transport::start` reports
//! that TCP runs need Linux. Every raw fd is wrapped in [`OwnedFd`]
//! immediately so error paths cannot leak descriptors.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw libc declarations. Constant values and struct layouts are
/// Linux's — the reason this module is gated on `target_os = "linux"`.
#[allow(non_camel_case_types)]
mod sys {
    pub use std::os::raw::{c_int, c_void};

    pub const F_SETFL: c_int = 4;
    pub const F_GETFL: c_int = 3;
    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;
    pub const O_NONBLOCK: c_int = 0o4000;

    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_ERROR: c_int = 4;
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
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;

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
        // SAFETY: no pointers cross the call; a negative return is
        // turned into an error by `cvt`.
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller {
            // SAFETY: `fd` is a fresh descriptor nobody else owns.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
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

fn set_nonblocking_cloexec(fd: RawFd) -> io::Result<()> {
    let flags = cvt(unsafe { sys::fcntl(fd, sys::F_GETFL, 0) })?;
    cvt(unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) })?;
    cvt(unsafe { sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC) })?;
    Ok(())
}

/// The read half of the wake pipe; the loop registers it and drains it.
pub struct WakeReader {
    fd: OwnedFd,
}

impl WakeReader {
    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Swallow all pending wake bytes; many wakes coalesce into one.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe {
                sys::read(
                    self.fd.as_raw_fd(),
                    buf.as_mut_ptr() as *mut sys::c_void,
                    buf.len(),
                )
            };
            if n <= 0 {
                return; // empty (EAGAIN), closed, or EINTR — all fine
            }
        }
    }
}

/// The write half, cheaply cloneable across producer threads. Waking an
/// event loop blocked in `Poller::wait` is the poller-world equivalent
/// of [`crate::wake::Notify::notify`]; like it, a wake is idempotent —
/// the pipe fills after ~64KiB of unconsumed wakes and further writes
/// return EAGAIN, which is exactly "flag already raised".
#[derive(Clone)]
pub struct PollWaker {
    fd: Arc<OwnedFd>,
}

impl PollWaker {
    pub fn wake(&self) {
        let b = [1u8];
        unsafe {
            // EAGAIN (pipe already full of wakes) and EINTR both mean the
            // loop is guaranteed to wake; nothing to handle.
            sys::write(self.fd.as_raw_fd(), b.as_ptr() as *const sys::c_void, 1);
        }
    }
}

impl crate::wake::Wake for PollWaker {
    fn wake(&self) {
        PollWaker::wake(self);
    }
}

/// A nonblocking self-pipe: `(drain side, wake side)`.
pub fn wake_pipe() -> io::Result<(WakeReader, PollWaker)> {
    let mut fds = [0 as sys::c_int; 2];
    cvt(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
    let (r, w) = unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
    set_nonblocking_cloexec(r.as_raw_fd())?;
    set_nonblocking_cloexec(w.as_raw_fd())?;
    Ok((WakeReader { fd: r }, PollWaker { fd: Arc::new(w) }))
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
    /// connect verdict and converts the fd into a `TcpStream` on success.
    pub fn finish(self) -> io::Result<TcpStream> {
        let mut err: sys::c_int = 0;
        let mut len = std::mem::size_of::<sys::c_int>() as u32;
        cvt(unsafe {
            sys::getsockopt(
                self.fd.as_raw_fd(),
                sys::SOL_SOCKET,
                sys::SO_ERROR,
                &mut err as *mut sys::c_int as *mut sys::c_void,
                &mut len,
            )
        })?;
        if err != 0 {
            return Err(io::Error::from_raw_os_error(err));
        }
        Ok(TcpStream::from(self.fd))
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
    let fd = cvt(unsafe { sys::socket(domain, sys::SOCK_STREAM, 0) })?;
    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
    set_nonblocking_cloexec(fd.as_raw_fd())?;
    let r = unsafe { sys::connect(fd.as_raw_fd(), sa.as_ptr() as *const sys::c_void, len) };
    if r == 0 {
        return Ok(ConnectStart::Connected(TcpStream::from(fd)));
    }
    match io::Error::last_os_error().raw_os_error() {
        Some(sys::EINPROGRESS) | Some(sys::EINTR) => {
            Ok(ConnectStart::Pending(PendingConnect { fd }))
        }
        _ => Err(io::Error::last_os_error()),
    }
}

/// Opaque handle for cancelling a scheduled deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

struct TimerEntry<T> {
    id: u64,
    deadline: Instant,
    val: T,
}

/// A hashed deadline wheel: `slots` buckets of `tick` width. Near
/// deadlines hash into their bucket; deadlines beyond the horizon
/// (`slots × tick`) sit in an overflow list re-examined as the wheel
/// turns. This absorbs every sleep the old transport threads did —
/// heartbeat periods, reconnect backoff, connect timeouts — into
/// [`TimerWheel::next_deadline`], which becomes the poller's wait
/// timeout: the loop sleeps *exactly* until something is due.
pub struct TimerWheel<T> {
    tick: Duration,
    slots: Vec<Vec<TimerEntry<T>>>,
    overflow: Vec<TimerEntry<T>>,
    /// First tick index not yet expired.
    cursor: u64,
    epoch: Instant,
    next_id: u64,
    live: usize,
}

impl<T> TimerWheel<T> {
    pub fn new(tick: Duration, slots: usize) -> TimerWheel<T> {
        assert!(!tick.is_zero() && slots > 0);
        TimerWheel {
            tick,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            cursor: 0,
            epoch: Instant::now(),
            next_id: 0,
            live: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let dt = at.saturating_duration_since(self.epoch);
        (dt.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Arm a deadline at `at` carrying `val`.
    pub fn schedule_at(&mut self, at: Instant, val: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        // Clamp into the future relative to the unexpired cursor so a
        // deadline in the past fires on the very next expire().
        let t = self.tick_of(at).max(self.cursor);
        let entry = TimerEntry {
            id,
            deadline: at,
            val,
        };
        if t < self.cursor + self.slots.len() as u64 {
            let slot = (t % self.slots.len() as u64) as usize;
            self.slots[slot].push(entry);
        } else {
            self.overflow.push(entry);
        }
        self.live += 1;
        TimerId(id)
    }

    pub fn schedule_after(&mut self, after: Duration, val: T) -> TimerId {
        self.schedule_at(Instant::now() + after, val)
    }

    /// Disarm. O(wheel) worst case; timer counts here are small (one per
    /// dialer plus the heartbeat), so linear scans beat tombstone
    /// bookkeeping.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        for bucket in self
            .slots
            .iter_mut()
            .chain(std::iter::once(&mut self.overflow))
        {
            if let Some(i) = bucket.iter().position(|e| e.id == id.0) {
                bucket.swap_remove(i);
                self.live -= 1;
                return true;
            }
        }
        false
    }

    /// Pop every deadline at or before `now` into `due` (unordered
    /// within the same tick; callers that care compare `Instant`s).
    pub fn expire(&mut self, now: Instant, due: &mut Vec<T>) {
        let now_tick = self.tick_of(now);
        if now_tick < self.cursor && self.overflow.is_empty() {
            return;
        }
        let nslots = self.slots.len() as u64;
        let mut t = self.cursor;
        // Walk at most one full revolution; every bucket is visited once
        // even if the loop slept through many turns.
        let stop = now_tick.min(self.cursor + nslots - 1);
        while t <= stop {
            let slot = (t % nslots) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline <= now {
                    due.push(bucket.swap_remove(i).val);
                    self.live -= 1;
                } else {
                    i += 1;
                }
            }
            t += 1;
        }
        // Stop *at* `now_tick`, not past it: only the current tick's
        // bucket can hold entries whose deadline falls later within the
        // tick (any earlier tick's deadlines are all ≤ now and fired
        // above). Advancing to `now_tick + 1` would strand such an entry
        // for a full wheel revolution while `next_deadline` keeps
        // returning its past-due deadline — a busy-spinning wait loop.
        // Re-walking the current bucket on the next expire is safe: fired
        // entries were removed.
        self.cursor = now_tick;
        // The horizon moved: rehash overflow entries that now fit (or
        // are already due — schedule_at clamps them to the cursor).
        let mut i = 0;
        while i < self.overflow.len() {
            if self.tick_of(self.overflow[i].deadline) < self.cursor + nslots {
                let e = self.overflow.swap_remove(i);
                self.live -= 1;
                if e.deadline <= now {
                    due.push(e.val);
                } else {
                    self.schedule_at(e.deadline, e.val);
                }
            } else {
                i += 1;
            }
        }
    }

    /// The earliest armed deadline, if any — the poller's wait timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .chain(std::iter::once(&self.overflow))
            .flat_map(|b| b.iter().map(|e| e.deadline))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn wheel_fires_in_deadline_order_across_buckets() {
        let mut w: TimerWheel<u32> = TimerWheel::new(Duration::from_millis(1), 8);
        let t0 = Instant::now();
        w.schedule_at(t0 + Duration::from_millis(3), 3);
        w.schedule_at(t0 + Duration::from_millis(1), 1);
        // Beyond the 8ms horizon: lands in overflow.
        w.schedule_at(t0 + Duration::from_millis(40), 40);
        assert_eq!(w.len(), 3);

        let mut due = Vec::new();
        w.expire(t0 + Duration::from_millis(2), &mut due);
        assert_eq!(due, vec![1]);
        w.expire(t0 + Duration::from_millis(10), &mut due);
        assert_eq!(due, vec![1, 3]);
        assert_eq!(w.len(), 1, "overflow entry still armed");
        w.expire(t0 + Duration::from_millis(60), &mut due);
        assert_eq!(due, vec![1, 3, 40]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_cancel_and_next_deadline() {
        let mut w: TimerWheel<&'static str> = TimerWheel::new(Duration::from_millis(1), 16);
        let t0 = Instant::now();
        let a = w.schedule_at(t0 + Duration::from_millis(5), "a");
        let b = w.schedule_at(t0 + Duration::from_millis(2), "b");
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(2)));
        assert!(w.cancel(b));
        assert!(!w.cancel(b), "double cancel is a no-op");
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(5)));
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_secs(1), &mut due);
        assert_eq!(due, vec!["a"]);
        let _ = a;
    }

    #[test]
    fn wheel_past_deadline_fires_immediately() {
        let mut w: TimerWheel<u8> = TimerWheel::new(Duration::from_millis(1), 8);
        let t0 = Instant::now();
        // Let the cursor advance, then schedule something already due.
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_millis(20), &mut due);
        w.schedule_at(t0, 7);
        w.expire(t0 + Duration::from_millis(21), &mut due);
        assert_eq!(due, vec![7]);
    }

    #[test]
    fn wheel_same_tick_later_deadline_is_not_stranded() {
        // 5ms ticks: a deadline at t0+4ms hashes into tick 0. An expire
        // at t0+1ms (same tick, earlier instant) must keep the entry
        // *reachable*: the next expire at t0+6ms fires it. The regression
        // advanced the cursor past tick 0 and stranded the entry for a
        // full wheel revolution (~1.28s) while next_deadline() kept
        // reporting the past deadline — a zero-timeout busy spin.
        let mut w: TimerWheel<u8> = TimerWheel::new(Duration::from_millis(5), 256);
        let t0 = Instant::now();
        w.schedule_at(t0 + Duration::from_millis(4), 1);
        let mut due = Vec::new();
        w.expire(t0 + Duration::from_millis(1), &mut due);
        assert!(due.is_empty(), "not due yet");
        assert_eq!(
            w.next_deadline(),
            Some(t0 + Duration::from_millis(4)),
            "still armed"
        );
        w.expire(t0 + Duration::from_millis(6), &mut due);
        assert_eq!(
            due,
            vec![1],
            "fires on the next expire, not a wheel turn later"
        );
        assert!(w.is_empty());
    }

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
        // Every wake must be in the pipe before the drain, or a late one
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
