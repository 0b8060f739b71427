//! Real TCP transport between TyCOd processes.
//!
//! §5 of the paper describes a *network* of per-node daemons exchanging
//! byte-coded messages, objects and class code. The in-process
//! [`fabric`](crate::fabric) models that network's latency; this module
//! is the part that actually crosses a machine boundary: it carries the
//! same encoded [`Packet`] stream over TCP with length-prefixed frames
//! (see [`tyco_vm::codec::decode_frame_view`] for the layout).
//!
//! ## One event loop
//!
//! **Every** listener, peer socket's read half, in-flight dial and timer
//! runs on a single `tyco-net` thread (`netloop.rs`) parked in
//! [`crate::poller::Poller::wait`]: sockets are nonblocking, frame
//! decode is incremental and zero-copy (reads accumulate in a
//! `BytesMut`; payloads reach the daemon as `Bytes` views of the read
//! buffer), and heartbeats / reconnect backoff / connect timeouts are
//! deadlines in one list instead of sleeping threads. Inbound
//! traffic is injected into the in-process fabric — everything one
//! readable event admitted as one batch — whose delivery path kicks the
//! owning daemon's [`crate::daemon::DaemonCell`]: the `tyco-net` thread
//! itself decodes and delivers what it just read and marks the
//! destination sites ready on the M:N scheduler.
//!
//! ## The sending thread writes the socket
//!
//! Each connection's write half (socket, backlog, partial-write offset)
//! sits behind one lock. Whoever has a frame for a peer — a daemon
//! flushing on a worker thread, the loop emitting a beacon — appends it
//! and writes the backlog out from its own thread
//! (`Inner::write_frames`); the bytes are in the kernel before the call
//! returns and the event loop is not woken. The loop takes a connection
//! over in two cases only, each announced through the wake channel: the
//! socket buffer filled up (`EWOULDBLOCK`: the half is marked stalled,
//! producers append behind it up to `outbound_cap`, and the loop drains
//! it on writable readiness) or a write failed (the loop tears the
//! connection down and redials). The loop never calls into a daemon
//! while holding a write half.
//!
//! The loop is built on epoll, so the TCP transport is **Linux-only**:
//! elsewhere [`Transport::start`] returns an error (deterministic and
//! in-process threaded runs never touch it and stay portable).
//!
//! ## Handshake, liveness, reconnect
//!
//! The first frame on every connection is a [`Packet::Hello`] carrying
//! [`WIRE_VERSION`] and the node ids the sending process hosts; a
//! version mismatch closes the connection. After the handshake the
//! transport beacons every `hb_period` on each live connection, and a
//! [`FailureMonitor`] keyed to *wall-clock* rounds
//! (`elapsed / hb_period`) turns silence into suspicion. Outbound
//! connections reconnect with exponential backoff up to a retry cap;
//! exhausting the cap marks the peer's nodes permanently down.
//!
//! Everything known of one remote node is one `Remote` record in one
//! table under one lock, beside the failure monitor: its route, the
//! frames stashed for it, whether a handshake named it, and whether it
//! is gone. A frame for a node with no live route is stashed in its
//! record. A handshake publishes the route and moves the stash into the
//! connection's backlog before it releases the table, so a sender that
//! finds the route queues behind every frame stashed before it: each
//! link is FIFO, and no frame is stashed after the drain that should
//! have flushed it.
//!
//! Lock order: `waves` → table → write half → tallies (`exchanged`).
//!
//! ## Termination waves
//!
//! On the heartbeat tick, a process whose sites are all idle sends a
//! [`Packet::TermProbe`] to every member process; each answers from its
//! net loop with a [`Packet::TermReport`] of its Mattern counters, and the
//! initiator feeds the sum to the [`TerminationDetector`]
//! ([`crate::termination`]). Two equal quiet sums are the verdict, which
//! goes to every peer as a [`Packet::TermVerdict`]. All three are
//! [`Class::Control`] frames, handled here and never counted. A data
//! frame's [`Ticket`] rides in the backlog, the stash and the chaos delay
//! list, so a frame the transport loses is consumed by being dropped; a
//! frame written to its socket is forwarded, and tallied as sent to its
//! node.
//!
//! ## Trust boundary
//!
//! Bytes from a socket are opaque until [`crate::daemon::Daemon::pump`].
//! The reader checks what a frame header can tell it — length bounds,
//! handshake before data, a destination this process hosts — and hands
//! the payload to the fabric unopened; `pump` decodes every fabric
//! packet and screens every code image with the byte-code verifier
//! before `ingest`, for socket and in-process traffic alike. Each packet
//! is decoded once and each image verified once, and `pump` runs on the
//! `tyco-net` thread inside the same readable event, so nothing from the
//! least trustworthy boundary the runtime has reaches a site unscreened
//! or any later.

// Off Linux only `Transport::start`'s refusal is live; the rest of the
// module still type-checks there but nothing can reach it.
#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use crate::chaos::{ChaosState, Fault};
use crate::counters::{TransportReport, TransportTally};
use crate::fabric::{Fabric, Frames, PacketFabric};
use crate::failure::FailureMonitor;
use crate::termination::{Snapshot, TermCounters, TerminationDetector, Ticket, Wave};
use crate::wake::{Notify, Wake};
use bytes::{Bytes, BytesMut};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Class, Packet, CONTROL_NODE, WIRE_VERSION};
use tyco_vm::word::NodeId;

#[cfg(target_os = "linux")]
#[path = "netloop.rs"]
mod netloop;

/// Everything `Transport::start` needs to know about this process's place
/// in the topology and how patient to be with its peers.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Nodes hosted by this process (announced in the handshake).
    pub local_nodes: Vec<NodeId>,
    /// Address to accept peer connections on, if any.
    pub listen: Option<SocketAddr>,
    /// Addresses this process dials out to.
    pub peers: Vec<SocketAddr>,
    /// Heartbeat emission period; also the failure monitor's round width
    /// and the cadence of termination waves.
    pub hb_period: Duration,
    /// Heartbeat rounds without progress before a peer node is suspected.
    pub stale_periods: u64,
    /// Consecutive failed connect attempts before an outbound peer is
    /// declared permanently down (a successful connection resets it).
    pub max_retries: u32,
    /// First reconnect delay; doubles per attempt up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Ceiling on the reconnect delay.
    pub backoff_cap: Duration,
    /// How long one connect attempt may stay in flight. Attempts to
    /// different peers are concurrent — a dead peer consuming its full
    /// timeout must never delay a live peer's handshake.
    pub connect_timeout: Duration,
    /// Bounded outbound queue depth per connection (frames beyond it are
    /// dropped and counted, like an overflowing NIC ring).
    pub outbound_cap: usize,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            local_nodes: Vec::new(),
            listen: None,
            peers: Vec::new(),
            hb_period: Duration::from_millis(100),
            stale_periods: 5,
            max_retries: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            outbound_cap: 4096,
        }
    }
}

/// Parse a `--peers` list: comma-separated socket addresses, each
/// resolved via DNS if needed. Every entry must resolve; the error names
/// the offending entry so a typo fails with a diagnostic, not a panic.
pub fn parse_peer_list(s: &str) -> Result<Vec<SocketAddr>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty peer address in list `{s}`"));
        }
        let mut addrs = part
            .to_socket_addrs()
            .map_err(|e| format!("bad peer address `{part}`: {e}"))?;
        match addrs.next() {
            Some(a) => out.push(a),
            None => return Err(format!("peer address `{part}` resolved to nothing")),
        }
    }
    Ok(out)
}

/// Reconnect delay before attempt `attempt` (0-based): exponential from
/// `base`, capped at `cap`.
pub fn backoff_delay(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let mult = 1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX);
    base.checked_mul(mult).unwrap_or(cap).min(cap)
}

/// Buffers gathered into one `write_vectored` (well under IOV_MAX).
const MAX_IOV: usize = 64;

/// One buffer waiting in a connection's backlog: the bytes, the node its
/// data packets are bound for, and the ticket of the frames it coalesces
/// (a control frame goes to [`CONTROL_NODE`] and carries no ticket).
type Queued = (Bytes, NodeId, Option<Ticket>);

/// How many frames a queued buffer coalesces.
fn frames((_, _, ticket): &Queued) -> u64 {
    ticket.as_ref().map_or(1, Ticket::count)
}

/// The write half of one connection: the socket and the frames not yet
/// on it, behind one lock. Whoever appends a frame also writes it, from
/// its own thread; the event loop takes over only a connection whose
/// socket buffer filled up (`stalled`) or whose write failed (closed).
struct WriteHalf {
    /// Shared with the loop's read half. `None` is closed — dead, failed
    /// or shut down: appends are refused and counted, and the descriptor
    /// goes when the loop drops its slot.
    sock: Option<Arc<TcpStream>>,
    /// Frames not yet on the wire; the front buffer is `woff` bytes in.
    wbufs: VecDeque<Queued>,
    woff: usize,
    /// The socket refused bytes: the backlog waits for the loop's
    /// writable event, and producers only append behind it.
    stalled: bool,
}

impl WriteHalf {
    fn closed(&self) -> bool {
        self.sock.is_none()
    }

    /// Close the half; the data packets of an unsent backlog are lost.
    fn close(&mut self) {
        self.sock = None;
        self.wbufs.clear();
        self.woff = 0;
    }

    /// Write the backlog until it drains or the socket pushes back.
    /// Returns whether the event loop must be told: the backlog just
    /// stalled (it registers writable interest) or the write failed (it
    /// kills the connection and redials).
    fn flush(&mut self, inner: &Inner) -> bool {
        let Some(mut sock) = self.sock.as_deref() else {
            return false;
        };
        while !self.wbufs.is_empty() {
            let wrote = if self.wbufs.len() == 1 {
                sock.write(&self.wbufs[0].0[self.woff..])
            } else {
                let mut iovs = [IoSlice::new(&[]); MAX_IOV];
                let n = self.wbufs.len().min(MAX_IOV);
                for (i, (iov, (b, ..))) in iovs.iter_mut().zip(&self.wbufs).enumerate() {
                    *iov = IoSlice::new(if i == 0 { &b[self.woff..] } else { b });
                }
                sock.write_vectored(&iovs[..n])
            };
            match wrote {
                Ok(mut n) if n > 0 => {
                    inner.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    while n > 0 {
                        let front_left = self.wbufs[0].0.len() - self.woff;
                        if n >= front_left {
                            n -= front_left;
                            let (_, to, ticket) = self.wbufs.pop_front().expect("front");
                            inner.sent(to, ticket);
                            self.woff = 0;
                        } else {
                            self.woff += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let edge = !self.stalled;
                    if edge {
                        self.stalled = true;
                        inner.stats.flush_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    return edge;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => {
                    self.close();
                    return true;
                }
            }
        }
        self.stalled = false;
        false
    }

    /// Write `wire`, the frames `ticket` covers, with nothing queued
    /// ahead of it: on the socket straight from the caller's buffer. Only
    /// what the socket does not take is copied into the backlog, where
    /// [`WriteHalf::flush`] meets the same push-back or failure again and
    /// reports it. Returns whether the event loop must be told.
    fn write_direct(&mut self, inner: &Inner, wire: &[u8], to: NodeId, t: Option<Ticket>) -> bool {
        debug_assert!(self.wbufs.is_empty() && !self.stalled);
        let wrote = match self.sock.as_deref() {
            Some(mut sock) => sock.write(wire).unwrap_or(0),
            None => 0,
        };
        inner
            .stats
            .bytes_out
            .fetch_add(wrote as u64, Ordering::Relaxed);
        if wrote == wire.len() {
            inner.sent(to, t);
            return false;
        }
        let rest = Bytes::copy_from_slice(&wire[wrote..]);
        self.wbufs.push_back((rest, to, t));
        self.flush(inner)
    }
}

/// One live connection to a peer process.
struct PeerConn {
    w: Mutex<WriteHalf>,
    alive: AtomicBool,
    /// Accepted (inbound) connections; their death means the peer left.
    accepted: bool,
    /// Event-loop slot token (+2 offset; 0 = not owned by the loop).
    token: AtomicUsize,
}

impl PeerConn {
    /// A connection over `sock` whose first frame is `hello`.
    fn new(sock: Arc<TcpStream>, accepted: bool, hello: Bytes) -> Arc<PeerConn> {
        Arc::new(PeerConn {
            w: Mutex::new(WriteHalf {
                sock: Some(sock),
                wbufs: VecDeque::from([(hello, CONTROL_NODE, None)]),
                woff: 0,
                stalled: false,
            }),
            alive: AtomicBool::new(true),
            accepted,
            token: AtomicUsize::new(0),
        })
    }
}

/// Why a remote node will never be reached again (until a handshake
/// names it anew). `Unreachable` outranks `Departed`: a node once
/// unreachable stays suspected whatever else is learned of it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Gone {
    /// Its accepted connection closed: the peer left.
    Departed,
    /// The dialer that reached it exhausted its retries.
    Unreachable,
}

/// What this process knows of one remote node.
#[derive(Default)]
struct Remote {
    /// The connection that currently reaches it.
    route: Option<Arc<PeerConn>>,
    /// Frames waiting for a route, in send order.
    stash: Vec<(Bytes, Ticket)>,
    /// A handshake has named it.
    known: bool,
    /// Gone for good, and why; a handshake clears it.
    gone: Option<Gone>,
}

impl Remote {
    /// The route, if its connection is still alive.
    fn live_route(&self) -> Option<&Arc<PeerConn>> {
        self.route
            .as_ref()
            .filter(|c| c.alive.load(Ordering::Acquire))
    }
}

/// Every remote node, behind one lock. A handshake publishes a route and
/// moves the node's stash into the connection's backlog under it, so a
/// sender that finds the route queues behind every frame stashed before.
struct Remotes {
    nodes: HashMap<NodeId, Remote>,
    monitor: FailureMonitor,
    /// Frames stashed over all nodes; bounded by [`STASH_CAP`].
    stashed: usize,
}

impl Remotes {
    /// The nodes a handshake has named.
    fn known(&self) -> impl Iterator<Item = (&NodeId, &Remote)> {
        self.nodes.iter().filter(|(_, r)| r.known)
    }

    /// Record that `nodes` are gone for `why`.
    fn mark_gone(&mut self, nodes: &[NodeId], why: Gone) {
        for &n in nodes {
            let r = self.nodes.entry(n).or_default();
            r.gone = r.gone.max(Some(why));
        }
    }

    /// Take the frames stashed for every node `lost` picks: no route
    /// will ever drain them.
    fn take_stashes(&mut self, lost: impl Fn(&Remote) -> bool) -> Vec<(Bytes, Ticket)> {
        let mut out = Vec::new();
        for r in self.nodes.values_mut().filter(|r| lost(r)) {
            out.append(&mut r.stash);
        }
        self.stashed -= out.len();
        out
    }
}

/// Most frames the stash holds over all nodes; beyond it they are dropped.
const STASH_CAP: usize = 10_000;

/// A process's side of the termination waves (see [`crate::termination`]).
struct Waves {
    /// Member nodes hosted by other processes: every topology node with a
    /// site or a name-service shard that is not local.
    members: Vec<NodeId>,
    /// Whether any local site is active.
    active: Arc<dyn Fn() -> bool + Send + Sync>,
    detector: TerminationDetector,
    /// The nodes the last wave excluded: the detector only compares sums
    /// taken over the same set.
    excluded: Vec<NodeId>,
    /// The wave in flight, with the heartbeat round it started in.
    wave: Option<(Wave, u64)>,
    /// Set when a quiet wave started its confirming wave at once; cleared
    /// by the tick, so that happens at most once per tick.
    chained: bool,
    round: u64,
}

struct Inner {
    cfg: TransportConfig,
    local: HashSet<NodeId>,
    /// Injection path for admitted inbound traffic: the node-local
    /// in-process fabric (over an ideal link), so daemons receive remote packets
    /// exactly like local ones.
    local_fabric: Fabric,
    remotes: Mutex<Remotes>,
    /// Outbound dialers that have given up for good.
    connectors_done: AtomicUsize,
    /// Heartbeat ticks the event loop has executed: the beacon sequence
    /// number, and the failure monitor's round (see [`Inner::round`]).
    hb_seq: AtomicU64,
    stop: AtomicBool,
    /// This process's Mattern counters, which admitted inbound frames are
    /// adopted against.
    term: &'static TermCounters,
    /// Remote node → data packets written to it and admitted from it; a
    /// wave that excludes the node subtracts them.
    exchanged: Mutex<HashMap<NodeId, (u64, u64)>>,
    /// The termination waves this process runs, once
    /// [`Transport::attach`] has joined it to them.
    waves: Mutex<Option<Waves>>,
    /// A wave reached the verdict here, or a peer's verdict arrived.
    verdict: AtomicBool,
    stats: TransportTally,
    /// Wakes the event loop (its wake channel): a connection was handed
    /// over, or the transport is stopping.
    net_wake: Arc<dyn Wake>,
    /// Connections whose write half stalled or failed under a writer and
    /// now need the event loop (writable interest, or teardown).
    handed: Mutex<Vec<Arc<PeerConn>>>,
    /// What the environment loop parks on: notified when routes appear,
    /// connections die or dialers give up, and on the verdict. Data
    /// traffic never pings it.
    activity: Mutex<Option<Arc<Notify>>>,
    /// Fault-injection hook for outbound traffic (the chaos harness).
    /// Distributed runs install chaos here, at the wire, and leave the
    /// node-local fabric clean — one jeopardy per packet.
    chaos: RwLock<Option<Arc<ChaosState>>>,
    /// Chaos-delayed frames waiting out their extra latency; flushed by
    /// the heartbeat tick, so delay resolution is one `hb_period`.
    delayed: Mutex<Vec<(Instant, NodeId, Bytes, Ticket)>>,
    /// Where control packets are framed on their way to a socket.
    control_buf: Mutex<BytesMut>,
}

impl Inner {
    /// The failure monitor's clock: heartbeat ticks the event loop has
    /// *executed*, not wall time over `hb_period`. A pass of the loop
    /// reads every readable socket before it runs a due tick, so the
    /// beacons a peer sent while this process was not running (a stopped
    /// or starved process, hypervisor steal) are observed before the
    /// round that would condemn it can advance, whichever thread wakes
    /// first; a peer that really is silent is still suspected after
    /// `stale_periods` ticks. A tick's round is published by the
    /// `Release` store in `emit_heartbeats` after its beacons are queued,
    /// and pairs with this `Acquire`: a reader sees the beacons of every
    /// round it counts.
    fn round(&self) -> u64 {
        self.hb_seq.load(Ordering::Acquire)
    }

    /// The node this process frames its control packets from: its first.
    fn control_from(&self) -> NodeId {
        self.cfg
            .local_nodes
            .first()
            .copied()
            .unwrap_or(CONTROL_NODE)
    }

    fn hello_frame(&self) -> Bytes {
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        let hello = Packet::Hello {
            version: WIRE_VERSION,
            nodes: self.cfg.local_nodes.clone(),
        };
        let mut frame = BytesMut::new();
        codec::encode_framed_into(self.control_from(), CONTROL_NODE, &hello, &mut frame);
        frame.freeze()
    }

    /// Tell whoever watches topology edges (the distributed env loop)
    /// that an exit condition may have changed.
    fn notify_activity(&self) {
        self.stats.topology_edges.fetch_add(1, Ordering::Relaxed);
        self.ping_env();
    }

    fn ping_env(&self) {
        let observer = self.activity.lock().clone();
        if let Some(n) = observer {
            n.notify();
        }
    }

    /// A buffer is on the socket: its data packets leave this process
    /// unconsumed and count as sent to the node they are bound for.
    fn sent(&self, to: NodeId, ticket: Option<Ticket>) {
        if let Some(t) = ticket {
            self.exchanged.lock().entry(to).or_default().0 += t.forward();
        }
    }

    /// Count `n` data packets admitted from remote node `from`, before
    /// anything can consume them.
    fn tally_in(&self, from: NodeId, n: u64) {
        self.exchanged.lock().entry(from).or_default().1 += n;
    }

    /// Data packets this process sent to and received from `nodes`.
    fn exchanged_with(&self, nodes: &[NodeId]) -> (u64, u64) {
        let x = self.exchanged.lock();
        nodes
            .iter()
            .filter_map(|n| x.get(n))
            .fold((0, 0), |(s, r), (o, i)| (s + o, r + i))
    }

    /// Append one buffer to a backlog, or drop and count it.
    fn append(&self, w: &mut WriteHalf, q: Queued) {
        let nframes = frames(&q);
        if w.closed() || w.wbufs.len() >= self.cfg.outbound_cap {
            self.stats.dropped.fetch_add(nframes, Ordering::Relaxed);
            return;
        }
        w.wbufs.push_back(q);
        self.stats.frames_out.fetch_add(nframes, Ordering::Relaxed);
        self.stats
            .outq_hwm
            .fetch_max(w.wbufs.len() as u64, Ordering::Relaxed);
    }

    /// Write `conn`'s backlog from this thread, and hand the connection
    /// to the event loop if its socket pushed back or failed.
    fn write_out(&self, conn: &Arc<PeerConn>, mut w: MutexGuard<'_, WriteHalf>) {
        if w.stalled || !w.flush(self) {
            return;
        }
        drop(w);
        self.hand_over(conn);
    }

    /// Hand `conn` to the event loop: its socket pushed back or failed.
    fn hand_over(&self, conn: &Arc<PeerConn>) {
        self.handed.lock().push(conn.clone());
        self.net_wake.wake();
    }

    /// Write one control packet from `from` to `conn`. It is framed in
    /// the buffer kept for that, so it allocates nothing unless the
    /// backlog must keep a copy.
    fn send_control_from(&self, from: NodeId, conn: &Arc<PeerConn>, p: &Packet) {
        let mut frame = self.control_buf.lock();
        frame.clear();
        codec::encode_framed_into(from, CONTROL_NODE, p, &mut frame);
        self.write_or_queue(conn, &frame, CONTROL_NODE, None);
    }

    fn send_control(&self, conn: &Arc<PeerConn>, p: &Packet) {
        self.send_control_from(self.control_from(), conn, p);
    }

    /// Queue one already-framed buffer for `to`, running it through the
    /// chaos hook first (when installed). `ticket` covers every packet
    /// the buffer coalesces, so one fate applies to them all: a drop
    /// discards the ticket, a duplicate mints one for the copy. `frame`
    /// is the caller's: only bytes the transport keeps — a stash, a
    /// backlog, a chaos delay — are copied.
    fn queue_frame(&self, from: NodeId, to: NodeId, frame: &[u8], ticket: Ticket) {
        let chaos = self.chaos.read().clone();
        let Some(ch) = chaos else {
            return self.queue_frame_raw(to, frame, ticket);
        };
        match ch.packet_fate(from, to, ticket.count(), true) {
            Fault::Drop => {}
            Fault::Deliver => self.queue_frame_raw(to, frame, ticket),
            Fault::Duplicate => {
                let copy = ticket.mint_copy();
                self.queue_frame_raw(to, frame, ticket);
                self.queue_frame_raw(to, frame, copy);
            }
            Fault::Delay(extra_ns) => {
                let due = Instant::now() + Duration::from_nanos(extra_ns);
                let frame = Bytes::copy_from_slice(frame);
                self.delayed.lock().push((due, to, frame, ticket));
            }
        }
    }

    /// Flush chaos-delayed frames whose extra latency has elapsed.
    /// Driven from the event loop's heartbeat tick.
    fn flush_due_delayed(&self) {
        let now = Instant::now();
        let due: Vec<(Instant, NodeId, Bytes, Ticket)> = {
            let mut d = self.delayed.lock();
            if d.is_empty() {
                return;
            }
            let (due, keep) = d.drain(..).partition(|(at, ..)| *at <= now);
            *d = keep;
            due
        };
        for (_, to, frame, ticket) in due {
            self.queue_frame_raw(to, &frame, ticket);
        }
    }

    /// Queue one already-framed buffer for `to`, stashing a copy when no
    /// route exists yet.
    fn queue_frame_raw(&self, to: NodeId, frame: &[u8], ticket: Ticket) {
        let mut remotes = self.remotes.lock();
        let Some(conn) = remotes.nodes.get(&to).and_then(Remote::live_route).cloned() else {
            return self.stash(&mut remotes, to, Bytes::copy_from_slice(frame), ticket);
        };
        drop(remotes);
        self.write_or_queue(&conn, frame, to, Some(ticket));
    }

    /// Write `frame` to `conn` straight from the caller's buffer, or,
    /// behind a backlog, append a copy to it.
    fn write_or_queue(&self, conn: &Arc<PeerConn>, frame: &[u8], to: NodeId, t: Option<Ticket>) {
        let mut w = conn.w.lock();
        if !w.wbufs.is_empty() || w.stalled || w.closed() {
            self.append(&mut w, (Bytes::copy_from_slice(frame), to, t));
            return self.write_out(conn, w);
        }
        // What `append` counts for a buffer it queues.
        let frames = t.as_ref().map_or(1, Ticket::count);
        self.stats.frames_out.fetch_add(frames, Ordering::Relaxed);
        self.stats.outq_hwm.fetch_max(1, Ordering::Relaxed);
        if w.write_direct(self, frame, to, t) {
            drop(w);
            self.hand_over(conn);
        }
    }

    /// Park a frame for `to` until a handshake routes it, unless the node
    /// is gone for good, no handshake can come any more, or the stash is
    /// full: then it is dropped.
    fn stash(&self, remotes: &mut Remotes, to: NodeId, frame: Bytes, t: Ticket) {
        let full = remotes.stashed >= STASH_CAP;
        let r = remotes.nodes.entry(to).or_default();
        let lost = r.gone.is_some() || self.no_handshake_can_come();
        if !lost && !full {
            r.stash.push((frame, t));
            remotes.stashed += 1;
            return;
        }
        self.stats.dropped.fetch_add(t.count(), Ordering::Relaxed);
        if lost {
            self.stats
                .dropped_perma
                .fetch_add(t.count(), Ordering::Relaxed);
        }
    }

    /// Every dialer has given up and no listener can accept a peer: no
    /// node without a route will ever get one.
    fn no_handshake_can_come(&self) -> bool {
        !self.cfg.peers.is_empty()
            && self.cfg.listen.is_none()
            && self.connectors_done.load(Ordering::Acquire) >= self.cfg.peers.len()
    }

    /// Drop frames that were stashed for a route that will never come,
    /// counting them as dropped for a permanently down node.
    fn drop_lost(&self, lost: Vec<(Bytes, Ticket)>) {
        let n: u64 = lost.iter().map(|(_, t)| t.count()).sum();
        self.stats.dropped.fetch_add(n, Ordering::Relaxed);
        self.stats.dropped_perma.fetch_add(n, Ordering::Relaxed);
    }

    /// Drop any frame still stashed for a node that has a live route: its
    /// handshake drained the stash without it, so nothing ever will. The
    /// handshake moves the stash under the table lock, so this finds none.
    fn lose_stranded(&self) {
        let mut remotes = self.remotes.lock();
        let mut stranded = 0;
        for r in remotes.nodes.values_mut() {
            if r.live_route().is_some() {
                stranded += std::mem::take(&mut r.stash).len();
            }
        }
        remotes.stashed -= stranded;
        drop(remotes);
        debug_assert!(stranded == 0, "{stranded} frame(s) stranded");
    }

    /// Publish the routes a handshake announced, moving each node's stash
    /// into the connection's backlog before the table lock is released:
    /// no sender can see the route while a frame stashed before it is not
    /// yet queued, so the link stays FIFO.
    fn install_routes(&self, conn: &Arc<PeerConn>, nodes: &[NodeId]) {
        let round = self.round();
        let mut remotes = self.remotes.lock();
        let mut w = conn.w.lock();
        for &n in nodes {
            if self.local.contains(&n) {
                continue;
            }
            // A handshake is proof of life: restart the grace window
            // *now* and forget any recorded heartbeat history. This
            // covers both the late joiner (first-known tracking) and
            // the suspected peer that reconnects — whose restarted
            // beacon sequence would otherwise never shed suspicion,
            // leaving the all-remotes-down termination cut
            // satisfiable under a live peer.
            remotes.monitor.reconnected(n, round);
            let r = remotes.nodes.entry(n).or_default();
            r.route = Some(conn.clone());
            r.known = true;
            r.gone = None;
            let stash = std::mem::take(&mut r.stash);
            remotes.stashed -= stash.len();
            for (frame, t) in stash {
                self.append(&mut w, (frame, n, Some(t)));
            }
        }
        drop(remotes);
        self.write_out(conn, w);
        self.notify_activity();
    }

    /// Tear down a dead connection's routes to `nodes`, the ones it
    /// announced; those of an accepted connection have departed.
    fn drop_routes(&self, conn: &Arc<PeerConn>, nodes: &[NodeId]) {
        let mut remotes = self.remotes.lock();
        for n in nodes {
            if let Some(r) = remotes.nodes.get_mut(n) {
                if r.route.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, conn)) {
                    r.route = None;
                }
            }
        }
        let mut lost = Vec::new();
        if conn.accepted {
            remotes.mark_gone(nodes, Gone::Departed);
            lost = remotes.take_stashes(|r| r.gone.is_some());
        }
        drop(remotes);
        self.drop_lost(lost);
        self.notify_activity();
    }

    /// An outbound dialer exhausted its retry budget: its peer's nodes
    /// are permanently down, and so is every node without a route once
    /// no handshake can come. Frames stashed for them are dropped.
    fn peer_exhausted(&self, last_nodes: &[NodeId]) {
        self.stats.peers_failed.fetch_add(1, Ordering::Relaxed);
        let mut remotes = self.remotes.lock();
        remotes.mark_gone(last_nodes, Gone::Unreachable);
        self.connectors_done.fetch_add(1, Ordering::Release);
        let hopeless = self.no_handshake_can_come();
        let lost = remotes.take_stashes(|r| hopeless || r.gone.is_some());
        drop(remotes);
        self.drop_lost(lost);
        self.notify_activity();
    }

    fn suspects(&self) -> Vec<NodeId> {
        let round = self.round();
        let remotes = self.remotes.lock();
        let mut out: Vec<NodeId> = remotes
            .known()
            .filter(|(n, r)| {
                r.gone == Some(Gone::Unreachable) || remotes.monitor.suspected(**n, round)
            })
            .map(|(n, _)| *n)
            .collect();
        out.sort_by_key(|n| n.0);
        out
    }

    /// Every remote node we ever learned about is suspected, permanently
    /// unreachable or departed — or we never learned about any and every
    /// connector has given up. A member node never heard from is not
    /// down while a connection may still bring it: a listener can always
    /// be dialled.
    fn all_remotes_down(&self) -> bool {
        let waves = self.waves.lock();
        let members = waves.as_ref().map_or(&[][..], |w| &w.members);
        let gave_up = !self.cfg.peers.is_empty()
            && self.connectors_done.load(Ordering::Acquire) >= self.cfg.peers.len();
        let round = self.round();
        let remotes = self.remotes.lock();
        if remotes.known().next().is_none() {
            return gave_up;
        }
        let unseen = members
            .iter()
            .any(|n| !remotes.nodes.get(n).is_some_and(|r| r.known));
        if unseen && !(gave_up && self.cfg.listen.is_none()) {
            return false;
        }
        let down = remotes
            .known()
            .all(|(n, r)| r.gone.is_some() || remotes.monitor.suspected(*n, round));
        down
    }

    /// One termination snapshot of this process, leaving out what it
    /// exchanged with `excluded`.
    fn snapshot(&self, excluded: &[NodeId], active: bool) -> Snapshot {
        self.stats.detector_probes.fetch_add(1, Ordering::Relaxed);
        Snapshot::take_excluding(self.term, active, || self.exchanged_with(excluded))
    }

    /// The heartbeat tick's turn at the waves: start one, unless one has
    /// been in flight for no longer than the failure monitor's patience.
    /// (A report lost with its connection would otherwise block forever.)
    fn wave_tick(&self) {
        let mut waves = self.waves.lock();
        let Some(w) = waves.as_mut() else {
            return;
        };
        w.chained = false;
        let round = self.round();
        if w.wave
            .as_ref()
            .is_some_and(|(_, at)| round - at <= self.cfg.stale_periods)
        {
            return;
        }
        self.start_wave(w);
    }

    /// Probe every member process, if this one is idle and each member is
    /// either reachable and unsuspected or gone for good (excluded). A
    /// suspected member blocks the wave: it may only be stalled.
    fn start_wave(&self, w: &mut Waves) {
        w.wave = None;
        if self.verdict.load(Ordering::Acquire) {
            return;
        }
        let active = (w.active)();
        if active {
            return;
        }
        let round = self.round();
        let (mut excluded, mut owed, mut conns) = (Vec::new(), Vec::new(), Vec::new());
        {
            let remotes = self.remotes.lock();
            let gone = |n| remotes.nodes.get(n).is_some_and(|r| r.gone.is_some());
            let ready = |n| {
                let route = remotes.nodes.get(n).and_then(Remote::live_route);
                route.filter(|_| !remotes.monitor.suspected(*n, round))
            };
            // Checked before anything is built: a blocked tick allocates
            // nothing.
            if !w.members.iter().all(|n| gone(n) || ready(n).is_some()) {
                return;
            }
            for n in &w.members {
                match ready(n) {
                    Some(c) if !gone(n) => {
                        owed.push(*n);
                        if !conns.iter().any(|k: &Arc<PeerConn>| Arc::ptr_eq(k, c)) {
                            conns.push(c.clone());
                        }
                    }
                    _ => excluded.push(*n),
                }
            }
        }
        if excluded != w.excluded {
            w.detector.reset();
            w.excluded = excluded.clone();
        }
        w.round += 1;
        let own = self.snapshot(&excluded, active);
        w.wave = Some((Wave::new(w.round, own, owed), round));
        let probe = Packet::TermProbe {
            round: w.round,
            excluded,
        };
        for c in &conns {
            self.send_control(c, &probe);
        }
        self.finish_wave(w);
    }

    /// Feed a complete wave to the detector: the verdict goes to every
    /// peer, and a first quiet wave starts its confirming wave at once.
    fn finish_wave(&self, w: &mut Waves) {
        let Some(sum) = w.wave.as_ref().and_then(|(wave, _)| wave.sum()) else {
            return;
        };
        w.wave = None;
        if w.detector.probe(sum) {
            let peers: Vec<Arc<PeerConn>> = (self.remotes.lock().nodes.values())
                .filter_map(|r| r.route.clone())
                .collect();
            for c in &peers {
                self.send_control(c, &Packet::TermVerdict);
            }
            self.conclude();
        } else if sum.quiet() && !w.chained {
            w.chained = true;
            self.start_wave(w);
        }
    }

    /// A member process's report, from the connection that announced
    /// `nodes`.
    fn take_report(&self, nodes: &[NodeId], round: u64, part: Snapshot) {
        let mut waves = self.waves.lock();
        let Some(w) = waves.as_mut() else {
            return;
        };
        if let Some((wave, _)) = &mut w.wave {
            wave.report(round, nodes, part);
        }
        self.finish_wave(w);
    }

    /// Answer a wave's probe with this process's snapshot. Before the run
    /// has joined the waves its sites count as active.
    fn answer_probe(&self, conn: &Arc<PeerConn>, round: u64, excluded: &[NodeId]) {
        let active = self.waves.lock().as_ref().map(|w| w.active.clone());
        let s = self.snapshot(excluded, active.is_none_or(|a| a()));
        let report = Packet::TermReport {
            round,
            sent: s.injected,
            recv: s.consumed,
            active: s.any_active,
        };
        self.send_control(conn, &report);
    }

    /// The distributed computation has terminated.
    fn conclude(&self) {
        self.verdict.store(true, Ordering::Release);
        self.ping_env();
    }
}

/// The daemon-facing side of the transport: implements [`PacketFabric`]
/// by keeping node-local traffic on the in-process fabric and framing
/// everything else onto the right peer's socket queue.
#[derive(Clone)]
pub struct NetHandle {
    inner: Arc<Inner>,
}

impl PacketFabric for NetHandle {
    fn send_batch(&self, from: NodeId, to: NodeId, batch: &mut Vec<Bytes>, ticket: Ticket) {
        if batch.is_empty() {
            return;
        }
        if self.inner.local.contains(&to) {
            self.inner.local_fabric.send_batch(from, to, batch, ticket);
            return;
        }
        let n = batch.len() as u64;
        self.inner.stats.data_out.fetch_add(n, Ordering::Relaxed);
        let total: usize = batch.iter().map(|b| b.len() + 12).sum();
        let mut buf = BytesMut::with_capacity(total);
        for p in batch.drain(..) {
            codec::encode_frame_into(from, to, &p, &mut buf);
        }
        self.inner.queue_frame(from, to, &buf, ticket);
    }

    fn send_frames(&self, from: NodeId, to: NodeId, frames: &mut Frames, ticket: Ticket) {
        if frames.is_empty() {
            return;
        }
        if self.inner.local.contains(&to) {
            let batch = frames.payloads();
            self.inner.local_fabric.send_batch(from, to, batch, ticket);
            return;
        }
        // Keep the fabric's batching discipline on the wire: the whole
        // per-link backlog is one coalesced buffer under one ticket, one
        // queue slot, one write — FIFO order preserved. The daemon framed
        // every packet as it encoded it, so the buffer goes out as it is.
        let n = frames.len() as u64;
        self.inner.stats.data_out.fetch_add(n, Ordering::Relaxed);
        self.inner.queue_frame(from, to, frames.wire(), ticket);
        frames.clear();
    }
}

/// A running TCP transport: the `tyco-net` event-loop thread and the
/// state it shares with the daemons' [`NetHandle`]s.
pub struct Transport {
    inner: Arc<Inner>,
    net_thread: Option<std::thread::JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Transport {
    /// Bind, dial and start beaconing. `local_fabric` is the in-process
    /// fabric admitted inbound traffic is injected into; `term` is the
    /// process's Mattern counters, which admitted traffic is adopted
    /// against.
    ///
    /// Linux only: the event loop's poller hand-declares epoll and its
    /// Linux syscall constants (see `crate::poller`), so on any other
    /// target this returns an error instead of carrying the wire.
    #[cfg(not(target_os = "linux"))]
    pub fn start(
        _cfg: TransportConfig,
        _local_fabric: Fabric,
        _term: &'static TermCounters,
    ) -> Result<Transport, String> {
        Err(
            "the TCP transport (`net --peers/--listen`, `serve`) needs Linux epoll; \
             deterministic and in-process threaded runs work on this platform"
                .to_string(),
        )
    }

    /// Bind, dial and start beaconing. `local_fabric` is the in-process
    /// fabric admitted inbound traffic is injected into; `term` is the
    /// process's Mattern counters, which admitted traffic is adopted
    /// against.
    #[cfg(target_os = "linux")]
    pub fn start(
        cfg: TransportConfig,
        local_fabric: Fabric,
        term: &'static TermCounters,
    ) -> Result<Transport, String> {
        let listener = match cfg.listen {
            Some(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
                l.set_nonblocking(true)
                    .map_err(|e| format!("set_nonblocking: {e}"))?;
                Some(l)
            }
            None => None,
        };
        let local_addr = listener.as_ref().and_then(|l| l.local_addr().ok());

        // The poller, wake channel and their registrations are built here,
        // *before* the net thread is spawned, so a failure surfaces as a
        // start error — never a net thread that exits at birth while the
        // transport reports success.
        let (wake_rx, wake_tx) =
            crate::poller::wake_pipe().map_err(|e| format!("wake pipe: {e}"))?;
        let io = netloop::prepare(listener, wake_rx).map_err(|e| format!("net event loop: {e}"))?;

        let stale = cfg.stale_periods;
        let inner = Arc::new(Inner {
            local: cfg.local_nodes.iter().copied().collect(),
            local_fabric,
            remotes: Mutex::new(Remotes {
                nodes: HashMap::new(),
                monitor: FailureMonitor::new(stale),
                stashed: 0,
            }),
            connectors_done: AtomicUsize::new(0),
            hb_seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            term,
            exchanged: Mutex::new(HashMap::new()),
            waves: Mutex::new(None),
            verdict: AtomicBool::new(false),
            stats: TransportTally::default(),
            net_wake: Arc::new(wake_tx),
            handed: Mutex::new(Vec::new()),
            activity: Mutex::new(None),
            chaos: RwLock::new(None),
            delayed: Mutex::new(Vec::new()),
            control_buf: Mutex::new(BytesMut::new()),
            cfg,
        });
        let inner2 = inner.clone();
        let net_thread = std::thread::Builder::new()
            .name("tyco-net".into())
            .spawn(move || netloop::run(inner2, io))
            .map_err(|e| format!("spawn net thread: {e}"))?;
        Ok(Transport {
            inner,
            net_thread: Some(net_thread),
            local_addr,
        })
    }

    /// The bound listen address (useful when configured with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A [`PacketFabric`] handle for daemons.
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            inner: self.inner.clone(),
        }
    }

    pub fn is_local(&self, node: NodeId) -> bool {
        self.inner.local.contains(&node)
    }

    pub fn hb_period(&self) -> Duration {
        self.inner.cfg.hb_period
    }

    pub fn all_remotes_down(&self) -> bool {
        self.inner.all_remotes_down()
    }

    /// Join this process to the termination waves. `members` are the
    /// topology's member nodes — every node that hosts a site or a
    /// name-service shard — and `active` says whether any local site is
    /// busy. From the next heartbeat tick on, an idle process probes every
    /// member process, and every process answers probes with its
    /// counters. `notify` is pinged on topology edges (route installed,
    /// connection died, dialer gave up) and on the verdict: what the
    /// distributed environment loop parks on. Nothing on the data path
    /// touches it.
    pub fn attach(
        &self,
        members: &[NodeId],
        active: impl Fn() -> bool + Send + Sync + 'static,
        notify: Arc<Notify>,
    ) {
        *self.inner.activity.lock() = Some(notify);
        *self.inner.waves.lock() = Some(Waves {
            members: members
                .iter()
                .copied()
                .filter(|n| !self.is_local(*n))
                .collect(),
            active: Arc::new(active),
            detector: TerminationDetector::new(),
            excluded: Vec::new(),
            wave: None,
            chained: false,
            round: 0,
        });
    }

    /// Has the distributed computation terminated: did a wave reach the
    /// verdict here, or did a peer's verdict arrive?
    pub fn concluded(&self) -> bool {
        self.inner.verdict.load(Ordering::Acquire)
    }

    /// Remote nodes currently considered dead (heartbeat silence or
    /// exhausted reconnects).
    pub fn suspects(&self) -> Vec<NodeId> {
        self.inner.suspects()
    }

    /// Install (or clear) the chaos fault-injection hook on outbound
    /// traffic. In distributed runs chaos lives here, at the wire, and
    /// the node-local fabric stays clean — a packet faces one roll of
    /// the dice, not one per hop.
    pub fn set_chaos(&self, chaos: Option<Arc<ChaosState>>) {
        *self.inner.chaos.write() = chaos;
    }

    pub fn report(&self) -> TransportReport {
        self.inner.stats.snapshot()
    }

    /// Stop the net thread and close every connection.
    pub fn shutdown(&mut self) {
        self.inner.lose_stranded();
        self.inner.stop.store(true, Ordering::Release);
        self.inner.net_wake.wake();
        if let Some(h) = self.net_thread.take() {
            let _ = h.join();
        }
        // The activity probe holds the scheduler; let it go with the run.
        self.inner.waves.lock().take();
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Data frames one readable event admitted, in arrival order, waiting to
/// be injected into the local fabric by [`inject_admitted`].
type Admitted = Vec<(NodeId, NodeId, Bytes)>;

/// Consume one inbound frame: control frames update routing and liveness
/// (Hello, Heartbeat) or run the termination waves (probe, report,
/// verdict) here, and are never Mattern-counted; a frame to
/// [`CONTROL_NODE`] whose kind is not [`Class::Control`] closes the
/// connection. Data frames pass the frame-level checks (handshake done,
/// destination hosted) and are appended to `admitted` unopened; the
/// `payload` is a zero-copy view of the event loop's read buffer.
/// `hello` holds the nodes the peer announced, once it has.
fn handle_frame(
    inner: &Arc<Inner>,
    conn: &Arc<PeerConn>,
    frame: codec::Frame,
    hello: &mut Option<Vec<NodeId>>,
    admitted: &mut Admitted,
) -> std::io::Result<()> {
    inner.stats.frames_in.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .bytes_in
        .fetch_add(frame.payload.len() as u64 + 12, Ordering::Relaxed);

    if frame.to == CONTROL_NODE {
        // Control frames are consumed here, never routed.
        let p = codec::decode(frame.payload)
            .map_err(|e| io_err(format!("corrupt control frame: {e}")))?;
        if p.class() != Class::Control {
            return Err(io_err(format!("not a control packet: {p:?}")));
        }
        match p {
            Packet::Hello { version, nodes } => {
                if version != WIRE_VERSION {
                    inner
                        .stats
                        .version_mismatches
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(io_err(format!(
                        "wire version mismatch: peer speaks v{version}, we speak v{WIRE_VERSION}"
                    )));
                }
                inner.install_routes(conn, &nodes);
                *hello = Some(nodes);
            }
            _ if hello.is_none() => {
                return Err(io_err("control frame before handshake".into()));
            }
            Packet::Heartbeat { node, seq } => {
                inner.stats.heartbeats_in.fetch_add(1, Ordering::Relaxed);
                let round = inner.round();
                inner.remotes.lock().monitor.observe(node, seq, round);
            }
            Packet::TermProbe { round, excluded } => inner.answer_probe(conn, round, &excluded),
            Packet::TermReport {
                round,
                sent,
                recv,
                active,
                ..
            } => {
                let part = Snapshot {
                    injected: sent,
                    consumed: recv,
                    any_active: active,
                };
                inner.take_report(hello.as_deref().unwrap_or_default(), round, part);
            }
            Packet::TermVerdict => inner.conclude(),
            other => return Err(io_err(format!("unhandled control packet: {other:?}"))),
        }
        return Ok(());
    }

    if hello.is_none() {
        return Err(io_err("data frame before handshake".into()));
    }
    if !inner.local.contains(&frame.to) {
        // Misrouted: this process does not host the destination node. Its
        // sender counted it injected; it ends here.
        inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
        inner.tally_in(frame.from, 1);
        drop(Ticket::adopt(inner.term, 1));
        return Ok(());
    }
    // The payload stays opaque here: `Daemon::pump` decodes and screens
    // every fabric packet before `ingest`, and it is the one trust
    // boundary for socket and in-process traffic alike.
    inner.stats.data_in.fetch_add(1, Ordering::Relaxed);
    admitted.push((frame.from, frame.to, frame.payload));
    Ok(())
}

/// Inject everything one readable event admitted: one `send_batch` — one
/// inbox lock, one kick of the destination daemon — per run of frames on
/// the same `(from, to)` link, in arrival order. `batch` is the caller's
/// reusable scratch (left empty).
fn inject_admitted(inner: &Inner, admitted: &mut Admitted, batch: &mut Vec<Bytes>) {
    if admitted.is_empty() {
        return;
    }
    let mut link = (admitted[0].0, admitted[0].1);
    let deliver = |batch: &mut Vec<Bytes>, (from, to): (NodeId, NodeId)| {
        let n = batch.len() as u64;
        inner.tally_in(from, n);
        let ticket = Ticket::adopt(inner.term, n);
        inner.local_fabric.send_batch(from, to, batch, ticket);
    };
    for (from, to, payload) in admitted.drain(..) {
        if (from, to) != link {
            deliver(batch, link);
            link = (from, to);
        }
        batch.push(payload);
    }
    deliver(batch, link);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_list_parses_good_addresses() {
        let got = parse_peer_list("127.0.0.1:9000, 127.0.0.1:9001").unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].port(), 9000);
        assert_eq!(got[1].port(), 9001);
    }

    #[test]
    fn peer_list_rejects_bad_addresses_with_diagnostics() {
        let e = parse_peer_list("127.0.0.1:9000,,127.0.0.1:9001").unwrap_err();
        assert!(e.contains("empty peer address"), "{e}");
        let e = parse_peer_list("not an address").unwrap_err();
        assert!(e.contains("not an address"), "{e}");
        let e = parse_peer_list("127.0.0.1:notaport").unwrap_err();
        assert!(e.contains("notaport"), "{e}");
        assert!(parse_peer_list("").is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let delays: Vec<u64> = (0..8)
            .map(|a| backoff_delay(base, cap, a).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![50, 100, 200, 400, 800, 1600, 2000, 2000]);
        // No overflow at absurd attempt counts.
        assert_eq!(backoff_delay(base, cap, u32::MAX), cap);
    }
}
