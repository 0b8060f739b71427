//! The transport's readiness-driven event loop.
//!
//! One `tyco-net` thread owns the listener, every peer socket's read
//! half, every in-flight dial and every deadline. It parks in
//! [`Poller::wait`] with the timer wheel's next deadline as its timeout
//! and is interrupted by exactly three things: socket readiness, a timer
//! firing, or a writer ringing the wake pipe because a socket pushed
//! back or broke under it — one thread and zero sleeps, whatever the
//! peer count, and no wake at all for a frame the sender could write.
//!
//! Design points, argued in DESIGN.md §15:
//!
//! * **Exactly-sized inbound, views from there on.** Every `read` lands
//!   in one [`READ_CHUNK`] scratch buffer the loop owns for its lifetime,
//!   and only the bytes that arrived are appended to the connection's
//!   accumulator — two copies per byte (kernel → scratch → accumulator),
//!   and no allocation or zero-fill sized by the chunk: a 57-byte RPC
//!   frame costs a 57-byte accumulator, not a fresh 64 KB one per
//!   readable event. Once at least one complete frame is buffered the
//!   accumulator is frozen and frames are carved off as [`Bytes`] views
//!   (`codec::decode_frame_view`), so from the accumulator to the daemon
//!   a payload is not copied again. The partial tail, if any, is copied
//!   into the next accumulator — bounded by one frame, amortized O(1)
//!   per byte. Payloads tiny relative to the accumulator's *allocation*
//!   are copied out rather than handed over as views, so a retained
//!   small payload never pins a big read buffer ([`PIN_DENOM`]).
//! * **One injection per readable event.** The data frames a readable
//!   event admits are handed to the local fabric together — one
//!   `send_batch` and one kick of the destination daemon per `(from, to)`
//!   run — and that kick pumps the daemon on this thread: what was just
//!   read is decoded, screened, delivered and its sites marked ready
//!   before the loop looks at the next socket. The loop itself never
//!   opens a data payload.
//! * **Writable-gated output, written by the sender.** A connection's
//!   backlog and socket sit behind the write half's lock in `PeerConn`
//!   and whoever appends a frame writes it from its own thread. This
//!   loop takes over only a backlog that met `EWOULDBLOCK` (counted in
//!   `flush_stalls`): it registers writable interest, drains the backlog
//!   when the socket reports writable and drops the interest again. A
//!   connection whose write failed is handed over the same way, to be
//!   killed and redialled here — slots and registrations are never
//!   touched off this thread.
//! * **Concurrent dials.** Every peer address holds a nonblocking
//!   connect in flight simultaneously ([`poller::connect_start`]); the
//!   connect timeout and reconnect backoff are wheel deadlines. One dead
//!   peer costs one quiet socket, never a blocked thread.

use super::{backoff_delay, handle_frame, inject_admitted, io_err, Admitted, Inner, PeerConn};
use crate::poller::{
    connect_start, ConnectStart, Event, Interest, PendingConnect, Poller, TimerId, TimerWheel,
    WakeReader,
};
use bytes::{Buf, Bytes, BytesMut};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Packet, CONTROL_NODE, MAX_FRAME_LEN};
use tyco_vm::word::NodeId;

const TOKEN_WAKE: usize = 0;
const TOKEN_LISTENER: usize = 1;
/// Connection/dial slots start here; `token - SLOT_BASE` indexes `slots`.
const SLOT_BASE: usize = 2;

/// Most bytes one `read` call takes off a socket (the size of the loop's
/// scratch buffer).
const READ_CHUNK: usize = 64 * 1024;
/// Reads per readiness event before yielding to other connections —
/// level-triggered polling re-reports leftover data, so fairness costs
/// nothing.
const READ_BUDGET: usize = 4;
/// Pin-amplification bound for zero-copy payload views: a decoded
/// payload smaller than `1/PIN_DENOM` of the allocation backing its read
/// accumulator (its capacity, which freezing keeps — not merely the bytes
/// in use) is copied out instead of handed over as a view. A retained
/// `Bytes` then pins at most `PIN_DENOM`× its own size — never the whole
/// multi-frame accumulator (up to `READ_BUDGET × READ_CHUNK`) on behalf
/// of one small long-lived payload. Large payloads, where the copy would
/// actually cost something, stay zero-copy: they already *are* most of
/// the buffer they pin.
const PIN_DENOM: usize = 8;
/// Park ceiling: bounds stop-flag latency even if the wheel is empty.
const MAX_PARK: Duration = Duration::from_millis(500);

/// A connection being served: the socket's read half, the owner record
/// (which holds the write half) and the decode accumulator.
struct ConnSlot {
    sock: Arc<TcpStream>,
    peer: Arc<PeerConn>,
    /// Inbound accumulator; frozen into `Bytes` when a frame completes.
    rbuf: BytesMut,
    got_hello: bool,
    /// Whether writable interest is currently registered.
    want_write: bool,
    /// Index of the dialer that owns this connection (outbound only).
    dialer: Option<usize>,
}

/// A nonblocking connect in flight, waiting for writability or timeout.
struct DialSlot {
    pending: PendingConnect,
    dialer: usize,
    timer: Option<TimerId>,
}

enum Slot {
    Conn(ConnSlot),
    Dial(DialSlot),
}

/// Per-peer-address dial state.
struct Dialer {
    addr: SocketAddr,
    attempts: u32,
    /// Nodes the last successful connection announced — declared
    /// permanently down if the retry budget runs out.
    last_nodes: Vec<NodeId>,
    done: bool,
}

#[derive(Clone, Copy)]
enum Timer {
    /// Periodic beacon on every live connection.
    Heartbeat,
    /// Reconnect backoff elapsed for dialer `.0`.
    Redial(usize),
    /// In-flight connect in slot `.0` ran out of patience.
    ConnectTimeout(usize),
}

struct NetLoop {
    inner: Arc<Inner>,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReader,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    dialers: Vec<Dialer>,
    wheel: TimerWheel<Timer>,
    /// Where every `read` lands before the bytes that arrived are
    /// appended to the connection's accumulator.
    scratch: Vec<u8>,
    /// Data frames admitted by the readable event being served, and the
    /// scratch their payloads are batched in on the way into the fabric.
    admitted: Admitted,
    batch: Vec<Bytes>,
}

/// The poller with the wake pipe and listener already registered. Built
/// by [`prepare`] on `Transport::start`'s own thread so that a poller or
/// registration failure becomes a start error the caller sees — never a
/// silently dead `tyco-net` thread behind a transport that reported
/// success and then neither accepts, dials, nor beacons.
pub(super) struct NetIo {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReader,
}

pub(super) fn prepare(
    listener: Option<TcpListener>,
    wake_rx: WakeReader,
) -> std::io::Result<NetIo> {
    let mut poller = Poller::new()?;
    poller.register(wake_rx.raw_fd(), TOKEN_WAKE, Interest::READ)?;
    if let Some(l) = &listener {
        poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    }
    Ok(NetIo {
        poller,
        listener,
        wake_rx,
    })
}

/// Entry point for the `tyco-net` thread.
pub(super) fn run(inner: Arc<Inner>, io: NetIo) {
    let NetIo {
        poller,
        listener,
        wake_rx,
    } = io;
    let dialers = inner
        .cfg
        .peers
        .iter()
        .map(|&addr| Dialer {
            addr,
            attempts: 0,
            last_nodes: Vec::new(),
            done: false,
        })
        .collect::<Vec<_>>();
    let hb_period = inner.cfg.hb_period;
    let mut nl = NetLoop {
        inner,
        poller,
        listener,
        wake_rx,
        slots: Vec::new(),
        free: Vec::new(),
        dialers,
        wheel: TimerWheel::new(Duration::from_millis(5), 256),
        scratch: vec![0; READ_CHUNK],
        admitted: Vec::new(),
        batch: Vec::new(),
    };
    // Every dial starts NOW, concurrently — nothing serializes one
    // peer's connect behind another's.
    for i in 0..nl.dialers.len() {
        nl.start_dial(i);
    }
    nl.wheel.schedule_after(hb_period, Timer::Heartbeat);
    nl.run_loop();
    nl.shutdown_flush();
}

impl NetLoop {
    fn run_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<Timer> = Vec::new();
        while !self.inner.stop.load(Ordering::Acquire) {
            let timeout = self
                .wheel
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(MAX_PARK)
                .min(MAX_PARK);
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                return;
            }
            if self.inner.stop.load(Ordering::Acquire) {
                return;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.wake_rx.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    t => self.slot_ready(t - SLOT_BASE, *ev),
                }
            }
            // Writers hit a full or broken socket since the last pass:
            // take over exactly those connections.
            self.serve_handed();
            due.clear();
            self.wheel.expire(Instant::now(), &mut due);
            for t in &due {
                match *t {
                    Timer::Heartbeat => {
                        self.emit_heartbeats();
                        self.wheel
                            .schedule_after(self.inner.cfg.hb_period, Timer::Heartbeat);
                    }
                    Timer::Redial(didx) => self.start_dial(didx),
                    Timer::ConnectTimeout(idx) => self.connect_timed_out(idx),
                }
            }
        }
    }

    fn alloc_slot(&mut self, slot: Slot) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn take_slot(&mut self, idx: usize) -> Option<Slot> {
        let s = self.slots.get_mut(idx)?.take();
        if s.is_some() {
            self.free.push(idx);
        }
        s
    }

    fn slot_ready(&mut self, idx: usize, ev: Event) {
        match self.slots.get(idx) {
            Some(Some(Slot::Dial(_))) if ev.writable || ev.closed => self.resolve_dial(idx),
            Some(Some(Slot::Dial(_))) => {}
            Some(Some(Slot::Conn(_))) => {
                if ev.readable || ev.closed {
                    self.conn_read(idx);
                }
                // Writable is only ever reported for a stalled backlog
                // (or an error): it can move now.
                if ev.writable {
                    self.conn_flush(idx);
                }
            }
            _ => {} // stale event for a slot already torn down
        }
    }

    // --- accepting ----------------------------------------------------

    fn accept_ready(&mut self) {
        let mut incoming = Vec::new();
        if let Some(l) = &self.listener {
            while let Ok((sock, _addr)) = l.accept() {
                incoming.push(sock);
            }
        }
        for sock in incoming {
            let _ = self.install_conn(sock, true, None);
        }
    }

    /// Wrap an established socket into a connection slot: nonblocking,
    /// registered for reads, hello written.
    fn install_conn(
        &mut self,
        sock: TcpStream,
        accepted: bool,
        dialer: Option<usize>,
    ) -> std::io::Result<()> {
        sock.set_nonblocking(true)?;
        let _ = sock.set_nodelay(true);
        let fd = sock.as_raw_fd();
        let sock = Arc::new(sock);
        let peer = PeerConn::new(sock.clone(), accepted, self.inner.hello_frame());
        let idx = self.alloc_slot(Slot::Conn(ConnSlot {
            sock,
            peer: peer.clone(),
            rbuf: BytesMut::new(),
            got_hello: false,
            want_write: false,
            dialer,
        }));
        if let Err(e) = self.poller.register(fd, idx + SLOT_BASE, Interest::READ) {
            self.take_slot(idx);
            return Err(e);
        }
        // Only a registered connection is published: the hand-over path
        // must never see a socket the loop cannot service.
        peer.token.store(idx + SLOT_BASE, Ordering::Release);
        self.conn_flush(idx);
        Ok(())
    }

    // --- dialing ------------------------------------------------------

    fn start_dial(&mut self, didx: usize) {
        if self.inner.stop.load(Ordering::Acquire) || self.dialers[didx].done {
            return;
        }
        let addr = self.dialers[didx].addr;
        match connect_start(&addr) {
            Ok(ConnectStart::Connected(sock)) => self.dial_connected(didx, sock),
            Ok(ConnectStart::Pending(p)) => {
                let fd = p.raw_fd();
                let idx = self.alloc_slot(Slot::Dial(DialSlot {
                    pending: p,
                    dialer: didx,
                    timer: None,
                }));
                if self
                    .poller
                    .register(fd, idx + SLOT_BASE, Interest::WRITE)
                    .is_err()
                {
                    self.take_slot(idx);
                    self.dial_failed(didx);
                    return;
                }
                let tid = self
                    .wheel
                    .schedule_after(self.inner.cfg.connect_timeout, Timer::ConnectTimeout(idx));
                if let Some(Some(Slot::Dial(d))) = self.slots.get_mut(idx) {
                    d.timer = Some(tid);
                }
            }
            Err(_) => self.dial_failed(didx),
        }
    }

    /// The socket reported writable (or errored): the connect resolved.
    fn resolve_dial(&mut self, idx: usize) {
        let Some(Slot::Dial(d)) = self.take_slot(idx) else {
            return;
        };
        if let Some(t) = d.timer {
            self.wheel.cancel(t);
        }
        let _ = self.poller.deregister(d.pending.raw_fd());
        match d.pending.finish() {
            Ok(sock) => self.dial_connected(d.dialer, sock),
            Err(_) => self.dial_failed(d.dialer),
        }
    }

    fn connect_timed_out(&mut self, idx: usize) {
        // Only meaningful if the slot still holds the dial this timer was
        // armed for (resolution cancels its timer, so a reused slot index
        // can never be hit by a stale timeout).
        if matches!(self.slots.get(idx), Some(Some(Slot::Dial(_)))) {
            let Some(Slot::Dial(d)) = self.take_slot(idx) else {
                return;
            };
            let _ = self.poller.deregister(d.pending.raw_fd());
            self.dial_failed(d.dialer);
        }
    }

    fn dial_connected(&mut self, didx: usize, sock: TcpStream) {
        if self.dialers[didx].attempts > 0 {
            self.inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.dialers[didx].attempts = 0;
        if self.install_conn(sock, false, Some(didx)).is_err() {
            self.dial_failed(didx);
        }
    }

    fn dial_failed(&mut self, didx: usize) {
        let d = &mut self.dialers[didx];
        if d.attempts >= self.inner.cfg.max_retries {
            d.done = true;
            let nodes = std::mem::take(&mut d.last_nodes);
            self.inner.peer_exhausted(&nodes);
            return;
        }
        let delay = backoff_delay(
            self.inner.cfg.backoff_base,
            self.inner.cfg.backoff_cap,
            d.attempts,
        );
        d.attempts += 1;
        self.wheel.schedule_after(delay, Timer::Redial(didx));
    }

    // --- reading ------------------------------------------------------

    fn conn_read(&mut self, idx: usize) {
        let mut dead = false;
        {
            let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
                return;
            };
            for _ in 0..READ_BUDGET {
                match (&*c.sock).read(&mut self.scratch) {
                    Ok(0) => {
                        dead = true; // peer closed
                        break;
                    }
                    Ok(n) => {
                        c.rbuf.extend_from_slice(&self.scratch[..n]);
                        if n < READ_CHUNK {
                            break; // drained for now
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        // Parse even when the peer closed: its final frames still count.
        if self.parse_frames(idx).is_err() {
            dead = true;
        }
        // Whatever this event admitted goes in as one batch — also when
        // the stream turned corrupt after it.
        inject_admitted(&self.inner, &mut self.admitted, &mut self.batch);
        if dead {
            self.kill_conn(idx);
        }
    }

    /// True when the accumulator holds either one complete frame or a
    /// length prefix the decoder will reject — both worth freezing for.
    fn has_actionable_frame(buf: &[u8]) -> bool {
        if buf.len() < 4 {
            return false;
        }
        let body = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if !(8..=MAX_FRAME_LEN).contains(&body) {
            return true; // decode_frame_view turns this into the error
        }
        buf.len() >= 4 + body
    }

    fn parse_frames(&mut self, idx: usize) -> std::io::Result<()> {
        let (buf, acc_alloc, peer, mut got_hello) = {
            let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
                return Ok(());
            };
            if !Self::has_actionable_frame(&c.rbuf) {
                return Ok(()); // keep accumulating in place
            }
            let acc_alloc = c.rbuf.capacity();
            (
                std::mem::take(&mut c.rbuf).freeze(),
                acc_alloc,
                c.peer.clone(),
                c.got_hello,
            )
        };
        let mut cur = buf;
        let mut res = Ok(());
        loop {
            match codec::decode_frame_view(&cur) {
                Ok(None) => break,
                Ok(Some((mut frame, used))) => {
                    cur.advance(used);
                    // `frame.payload` is a view into `cur`'s allocation —
                    // the zero-copy handoff to the daemon — unless it is
                    // small relative to that allocation, in which case a
                    // daemon retaining it would pin the whole accumulator:
                    // bound the amplification by copying it out (see
                    // `PIN_DENOM`).
                    if frame.payload.len() * PIN_DENOM < acc_alloc {
                        frame.payload = Bytes::copy_from_slice(&frame.payload);
                    }
                    if let Err(e) = handle_frame(
                        &self.inner,
                        &peer,
                        frame,
                        &mut got_hello,
                        &mut self.admitted,
                    ) {
                        res = Err(e);
                        break;
                    }
                }
                Err(e) => {
                    res = Err(io_err(format!("corrupt stream: {e}")));
                    break;
                }
            }
        }
        if let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) {
            c.got_hello = got_hello;
            if res.is_ok() && !cur.is_empty() {
                // Partial tail: at most one frame's worth re-buffered.
                c.rbuf.extend_from_slice(&cur);
            }
        }
        res
    }

    // --- writing ------------------------------------------------------

    /// The loop's turn at a connection's write half: move a stalled
    /// backlog, keep writable interest in step with it, and tear the
    /// connection down if a write (here or on a producer's thread) failed.
    fn conn_flush(&mut self, idx: usize) {
        let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
            return;
        };
        let (mut dead, stalled) = {
            let mut w = c.peer.w.lock();
            w.flush(&self.inner);
            (w.closed(), w.stalled)
        };
        // Writable interest tracks "backlog parked on a full socket
        // buffer" — registered on the stall edge, dropped once the
        // backlog drains, so an idle connection costs zero spurious
        // writable events.
        if !dead && stalled != c.want_write {
            let interest = if stalled {
                Interest::BOTH
            } else {
                Interest::READ
            };
            let fd = c.sock.as_raw_fd();
            if self.poller.modify(fd, idx + SLOT_BASE, interest).is_ok() {
                c.want_write = stalled;
            } else {
                dead = true;
            }
        }
        if dead {
            self.kill_conn(idx);
        }
    }

    /// Take over the connections whose writers hit a full or broken
    /// socket since the last pass.
    fn serve_handed(&mut self) {
        let handed: Vec<Arc<PeerConn>> = std::mem::take(&mut *self.inner.handed.lock());
        for peer in handed {
            let token = peer.token.load(Ordering::Acquire);
            if token < SLOT_BASE {
                continue; // already torn down
            }
            let idx = token - SLOT_BASE;
            let same = matches!(
                self.slots.get(idx),
                Some(Some(Slot::Conn(c))) if Arc::ptr_eq(&c.peer, &peer)
            );
            if same {
                self.conn_flush(idx);
            }
        }
    }

    // --- heartbeats ---------------------------------------------------

    fn emit_heartbeats(&mut self) {
        // The beacon tick doubles as the clock for chaos-delayed frames
        // and for termination waves.
        self.inner.flush_due_delayed();
        let chaos = self.inner.chaos.read().clone();
        let seq = self.inner.hb_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let frames: Vec<(NodeId, Bytes)> = self
            .inner
            .cfg
            .local_nodes
            .iter()
            .map(|&n| {
                let p = Packet::Heartbeat { node: n, seq };
                (n, codec::encode_frame(n, CONTROL_NODE, &codec::encode(&p)))
            })
            .collect();
        for slot in &self.slots {
            let Some(Slot::Conn(c)) = slot else {
                continue;
            };
            let peer_nodes = match &chaos {
                Some(_) => c.peer.nodes.lock().clone(),
                None => Vec::new(),
            };
            // A partition that cuts every announced peer node silences
            // the beacon too — that is what drives the failure monitor
            // during a partition soak. The backlog's cap applies: a wedged
            // connection drops beacons rather than growing without bound.
            let beacons = frames
                .iter()
                .filter(|(n, _)| !matches!(&chaos, Some(ch) if ch.hb_blocked(*n, &peer_nodes)))
                .map(|(_, f)| (f.clone(), CONTROL_NODE, None));
            self.inner.write_frames(&c.peer, beacons);
        }
        self.inner.wave_tick();
    }

    // --- teardown -----------------------------------------------------

    fn kill_conn(&mut self, idx: usize) {
        if !matches!(self.slots.get(idx), Some(Some(Slot::Conn(_)))) {
            return;
        }
        let Some(Slot::Conn(c)) = self.take_slot(idx) else {
            return;
        };
        let _ = self.poller.deregister(c.sock.as_raw_fd());
        c.peer.token.store(0, Ordering::Release);
        c.peer.alive.store(false, Ordering::Release);
        c.peer.w.lock().close();
        // A dead accepted connection means the peer departed (it may
        // dial back in, which re-installs routes); a dead outbound one
        // gets redialed, so its nodes are merely suspect.
        self.inner.drop_routes(&c.peer, c.peer.accepted);
        if let Some(didx) = c.dialer {
            if !self.inner.stop.load(Ordering::Acquire) {
                // A connection that died before its handshake (a dying
                // peer's kernel can still complete a redial) names no
                // nodes: the dialer keeps the ones it last reached.
                let nodes = c.peer.nodes.lock().clone();
                if !nodes.is_empty() {
                    self.dialers[didx].last_nodes = nodes;
                }
                // Immediate retry; failures fall into exponential backoff
                // from there.
                self.start_dial(didx);
            }
        }
    }

    /// Best-effort final drain on shutdown so frames queued just before
    /// `stop` (goodbye traffic, last data) still reach the wire. Sockets
    /// go blocking with a short write timeout: a stuck peer cannot hang
    /// process exit.
    fn shutdown_flush(&mut self) {
        for slot in std::mem::take(&mut self.slots) {
            match slot {
                None => {}
                Some(Slot::Dial(d)) => {
                    let _ = self.poller.deregister(d.pending.raw_fd());
                }
                Some(Slot::Conn(c)) => {
                    let _ = self.poller.deregister(c.sock.as_raw_fd());
                    c.peer.token.store(0, Ordering::Release);
                    c.peer.alive.store(false, Ordering::Release);
                    // Closing under the lock fences producers off before
                    // the shared socket changes mode.
                    let mut w = c.peer.w.lock();
                    let rest = std::mem::take(&mut w.wbufs);
                    let woff = w.woff;
                    w.close();
                    drop(w);
                    let _ = c.sock.set_nonblocking(false);
                    let _ = c.sock.set_write_timeout(Some(Duration::from_millis(100)));
                    for (i, q) in rest.into_iter().enumerate() {
                        let s = if i == 0 { &q.0[woff..] } else { &q.0[..] };
                        if (&*c.sock).write_all(s).is_err() {
                            break;
                        }
                        self.inner
                            .stats
                            .bytes_out
                            .fetch_add(s.len() as u64, Ordering::Relaxed);
                        self.inner.sent(q);
                    }
                    self.inner.drop_routes(&c.peer, c.peer.accepted);
                }
            }
        }
    }
}
