//! The network fabric: the in-process stand-in for the paper's hardware
//! platform (Fig. 1 — a 1 Gb/s Myrinet switch plus a 100 Mb/s Fast
//! Ethernet uplink).
//!
//! Substitution note (see DESIGN.md §2): the paper's claims are about
//! *relative* behaviour under different latency/bandwidth regimes, so the
//! fabric models point-to-point links with one [`LinkProfile`], and the
//! link decides how a packet is delivered:
//!
//! * an [ideal](LinkProfile::is_ideal) link, which takes no time, puts a
//!   send straight into the destination's inbox (functional testing, and
//!   the node-local carrier of threaded and multi-process runs);
//! * any other link queues it on an event heap against a virtual clock,
//!   delivered by [`Fabric::advance_to`] (deterministic experiments:
//!   latency hiding, crossovers).
//!
//! Real latency is the TCP transport's job ([`crate::transport`]).
//!
//! Packets are byte-encoded ([`tyco_vm::codec`]) before entering the
//! fabric, so byte counts are real.
//!
//! ## Sharding (the hot path)
//!
//! Per-destination delivery state (inbox sender, dead flag, daemon waker)
//! lives in a read-mostly routing table separate from the event-queue
//! state. An ideal-link [`Fabric::send_batch`] therefore takes a
//! shared read lock plus one channel lock — it never serializes against
//! other links or against the event heap — and moves a whole
//! per-link backlog under that one routing lookup, one stats update and
//! one inbox lock, preserving per-link FIFO order (the batch is drained
//! in send order into a FIFO channel). The destination's waker is cloned
//! out of the table and kicked only after the read lock is dropped: in
//! real-thread runs the kick *is* the destination daemon's pump, which
//! sends through this table again.
//!
//! Every packet rides with its [`Ticket`]: a packet the fabric drops — a
//! dead endpoint, a chaos fate — is consumed by dropping it.

use crate::chaos::{ChaosState, Fault};
use crate::termination::Ticket;
use crate::wake::Wake;
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tyco_vm::codec::{self, Packet};
use tyco_vm::word::NodeId;

/// Latency/bandwidth model of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way latency in nanoseconds.
    pub latency_ns: u64,
    /// Bandwidth in bytes per second (`f64::INFINITY` for ideal).
    pub bandwidth_bps: f64,
}

impl LinkProfile {
    /// The paper's 1 Gb/s Myrinet switch: ~9 µs one-way latency.
    pub fn myrinet() -> LinkProfile {
        LinkProfile {
            latency_ns: 9_000,
            bandwidth_bps: 125_000_000.0,
        }
    }

    /// The paper's 100 Mb/s Fast Ethernet uplink: ~70 µs latency.
    pub fn fast_ethernet() -> LinkProfile {
        LinkProfile {
            latency_ns: 70_000,
            bandwidth_bps: 12_500_000.0,
        }
    }

    /// A wide-area link: 20 ms, 10 Mb/s.
    pub fn wan() -> LinkProfile {
        LinkProfile {
            latency_ns: 20_000_000,
            bandwidth_bps: 1_250_000.0,
        }
    }

    /// Zero-latency, infinite-bandwidth (functional testing).
    pub fn ideal() -> LinkProfile {
        LinkProfile {
            latency_ns: 0,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// Does every transfer take no time ([`LinkProfile::ideal`])? The
    /// fabric over such a link delivers at send time.
    pub fn is_ideal(&self) -> bool {
        self.latency_ns == 0 && self.bandwidth_bps == f64::INFINITY
    }

    /// Validated constructor: rejects bandwidths that would poison the
    /// delay math (NaN, zero, negative, subnormal). `f64::INFINITY` is
    /// accepted and means "no serialization delay".
    pub fn new(latency_ns: u64, bandwidth_bps: f64) -> Result<LinkProfile, String> {
        let p = LinkProfile {
            latency_ns,
            bandwidth_bps,
        };
        p.validate()?;
        Ok(p)
    }

    /// Check the profile's bandwidth is usable (see [`LinkProfile::new`]).
    pub fn validate(&self) -> Result<(), String> {
        let b = self.bandwidth_bps;
        if b.is_nan() {
            return Err("link bandwidth is NaN".into());
        }
        if b <= 0.0 {
            return Err(format!("link bandwidth must be positive, got {b}"));
        }
        if b.is_finite() && !b.is_normal() {
            return Err(format!("link bandwidth {b} is subnormal"));
        }
        Ok(())
    }

    /// Total transfer time for a payload of `bytes`.
    ///
    /// Defensive even for profiles built without [`LinkProfile::new`]: a
    /// zero/denormal bandwidth makes the division blow up to `inf` or a
    /// huge finite value, so the serialization term is clamped and the
    /// final sum saturates instead of overflowing (which panicked in
    /// debug builds and wrapped the virtual clock in release).
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        let ser = if self.bandwidth_bps.is_nan() || self.bandwidth_bps <= 0.0 {
            // NaN, zero or negative bandwidth: treat the link as unusable
            // (slowest possible), never as a free one.
            u64::MAX
        } else if self.bandwidth_bps.is_finite() {
            // Rust float→int casts saturate, so a huge or infinite
            // quotient (denormal bandwidth) becomes u64::MAX rather than
            // wrapping.
            (bytes as f64 / self.bandwidth_bps * 1e9) as u64
        } else {
            // Infinite bandwidth: serialization is free.
            0
        };
        self.latency_ns.saturating_add(ser)
    }
}

/// The time a run is measured in: daemons time leases and the modeled
/// resolver by it, the run loop chaos events.
#[derive(Clone)]
pub enum Clock {
    /// The fabric's virtual clock, which only a deterministic run moves.
    Virtual(Fabric),
    /// Wall time since the instant a threaded run started.
    Wall(Instant),
}

impl Clock {
    /// Nanoseconds on this clock.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Virtual(f) => f.shared.lock().now_ns,
            Clock::Wall(t0) => t0.elapsed().as_nanos() as u64,
        }
    }
}

/// Aggregate traffic counters. Packets/bytes count only traffic accepted
/// by the fabric — sends dropped because an endpoint is dead are NOT
/// counted, so partition experiments don't over-report traffic.
#[derive(Debug, Default)]
pub struct FabricStats {
    pub packets: AtomicU64,
    pub bytes: AtomicU64,
    /// Batches ([`Fabric::send_batch`]) that hit the fabric; mean
    /// batch occupancy is `packets / batches`.
    pub batches: AtomicU64,
}

struct Event {
    due_ns: u64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: Bytes,
    ticket: Ticket,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.due_ns == other.due_ns && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_ns, self.seq).cmp(&(other.due_ns, other.seq))
    }
}

/// Per-destination delivery state: the shard of the old global table that
/// a sender actually needs. Lives in a read-mostly `RwLock` map — sends
/// only read it; registration and failure injection write it.
#[derive(Default)]
struct Route {
    /// Inbound queue of the node's daemon (`None` for nodes that were
    /// killed before ever registering).
    tx: Option<Sender<(NodeId, Bytes, Ticket)>>,
    /// Dead nodes drop all traffic (failure injection).
    dead: bool,
    /// Kicked after a delivery into `tx`: the node's
    /// [`crate::daemon::DaemonCell`] in real-thread runs.
    waker: Option<Arc<dyn Wake>>,
}

/// Event-queue state of a link that takes time. Ideal-link sends never
/// touch this lock.
struct Shared {
    link: LinkProfile,
    /// Pending deliveries (min-heap on due time).
    pending: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Virtual clock (ns).
    now_ns: u64,
    /// Last scheduled arrival per directed link: links are FIFO (a later
    /// small packet must not overtake an earlier large one), like the
    /// point-to-point switch links of Fig. 1.
    link_last: HashMap<(NodeId, NodeId), u64>,
}

impl Shared {
    /// Queue one payload on the (from, to) link, keeping per-link FIFO by
    /// forcing due times to be strictly monotone along the link.
    /// `extra_ns` is chaos-injected delay on top of the link model.
    fn schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
        extra_ns: u64,
        ticket: Ticket,
    ) {
        let raw = self
            .now_ns
            .saturating_add(self.link.transfer_ns(payload.len()))
            .saturating_add(extra_ns);
        let last = self.link_last.get(&(from, to)).copied().unwrap_or(0);
        let due = raw.max(last.saturating_add(1));
        self.link_last.insert((from, to), due);
        self.seq += 1;
        let seq = self.seq;
        self.pending.push(Reverse(Event {
            due_ns: due,
            seq,
            from,
            to,
            payload,
            ticket,
        }));
    }

    /// Pop everything due at or before `now` (delivery happens outside
    /// this lock, through the routing table).
    fn pop_due(&mut self, now: u64) -> Vec<Event> {
        let mut due = Vec::new();
        while let Some(Reverse(e)) = self.pending.peek() {
            if e.due_ns > now {
                break;
            }
            let Reverse(e) = self.pending.pop().expect("peeked");
            due.push(e);
        }
        due
    }
}

type Routes = Arc<RwLock<HashMap<NodeId, Route>>>;

/// The network fabric connecting node daemons. A clone is another handle
/// on the same network: every clone shares the routing table, the event
/// queue, the counters and the chaos plan.
#[derive(Clone)]
pub struct Fabric {
    /// The link is [ideal](LinkProfile::is_ideal): sends skip the heap.
    immediate: bool,
    shared: Arc<Mutex<Shared>>,
    routes: Routes,
    pub stats: Arc<FabricStats>,
    /// Installed fault-injection plan (None on the fast path).
    chaos: Arc<RwLock<Option<Arc<ChaosState>>>>,
}

impl Fabric {
    pub fn new(link: LinkProfile) -> Fabric {
        Fabric {
            immediate: link.is_ideal(),
            shared: Arc::new(Mutex::new(Shared {
                link,
                pending: BinaryHeap::new(),
                seq: 0,
                now_ns: 0,
                link_last: HashMap::new(),
            })),
            routes: Arc::new(RwLock::new(HashMap::new())),
            stats: Arc::new(FabricStats::default()),
            chaos: Arc::new(RwLock::new(None)),
        }
    }

    /// Install (or clear) a fault-injection plan. Existing handles see it
    /// immediately — the chaos slot is shared, like the routing table.
    pub fn set_chaos(&self, chaos: Option<Arc<ChaosState>>) {
        *self.chaos.write() = chaos;
    }

    /// Does a send deliver at once (an [ideal](LinkProfile::is_ideal)
    /// link), rather than when [`Fabric::advance_to`] reaches it?
    pub fn is_immediate(&self) -> bool {
        self.immediate
    }

    /// Register a node; returns its inbound packet queue.
    pub fn register_node(&self, node: NodeId) -> Receiver<(NodeId, Bytes, Ticket)> {
        let (tx, rx) = unbounded();
        self.routes.write().entry(node).or_default().tx = Some(tx);
        rx
    }

    /// Attach the node's daemon waker: every delivery into the node's
    /// inbox is followed by one kick of it.
    pub fn set_waker(&self, node: NodeId, waker: Arc<dyn Wake>) {
        self.routes.write().entry(node).or_default().waker = Some(waker);
    }

    /// A sending handle for daemons: a clone.
    pub fn handle(&self) -> Fabric {
        self.clone()
    }

    /// Mark a node dead: all traffic to/from it is dropped (failure
    /// injection for the §7 future-work experiments).
    pub fn kill_node(&self, node: NodeId) {
        self.routes.write().entry(node).or_default().dead = true;
    }

    /// Undo [`Fabric::kill_node`]: the node carries traffic again
    /// (rolling-restart experiments).
    pub fn revive_node(&self, node: NodeId) {
        self.routes.write().entry(node).or_default().dead = false;
    }

    /// The due time of the earliest pending event (none ever, over an
    /// ideal link).
    pub fn next_event_ns(&self) -> Option<u64> {
        self.shared.lock().pending.peek().map(|Reverse(e)| e.due_ns)
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.shared.lock().now_ns
    }

    /// Advance the virtual clock and deliver everything due on a link
    /// that takes time. Returns the number of packets delivered.
    pub fn advance_to(&self, t_ns: u64) -> usize {
        let due = {
            let mut s = self.shared.lock();
            s.now_ns = s.now_ns.max(t_ns);
            let now = s.now_ns;
            s.pop_due(now)
        };
        deliver(&self.routes, due)
    }
}

/// Deliver a drained batch of due events through the routing table
/// (called with no fabric lock held). Dead or unregistered destinations
/// drop their packets, tickets and all. Returns the number delivered.
fn deliver(routes: &Routes, due: Vec<Event>) -> usize {
    if due.is_empty() {
        return 0;
    }
    let mut delivered = 0;
    // One kick per destination, after the table is released.
    let mut kicks: Vec<(NodeId, Arc<dyn Wake>)> = Vec::new();
    {
        let routes = routes.read();
        for e in due {
            let Some(r) = routes.get(&e.to).filter(|r| !r.dead) else {
                continue;
            };
            if let Some(w) = &r.waker {
                if !kicks.iter().any(|(n, _)| *n == e.to) {
                    kicks.push((e.to, w.clone()));
                }
            }
            if let Some(tx) = &r.tx {
                let _ = tx.send((e.from, e.payload, e.ticket));
                delivered += 1;
            }
        }
    }
    for (_, w) in kicks {
        w.wake();
    }
    delivered
}

impl Fabric {
    /// Is either endpoint dead? (Unregistered nodes count as alive: tests
    /// send from synthetic nodes that never register.)
    fn endpoint_dead(&self, from: NodeId, to: NodeId) -> bool {
        let routes = self.routes.read();
        routes.get(&from).is_some_and(|r| r.dead) || routes.get(&to).is_some_and(|r| r.dead)
    }

    /// Send one encoded packet: a batch of one.
    pub fn send(&self, from: NodeId, to: NodeId, payload: Bytes, ticket: Ticket) {
        self.send_batch(from, to, &mut vec![payload], ticket);
    }

    /// Send a whole per-link backlog in one operation, draining `batch`
    /// (its allocation is kept for reuse); `ticket` covers its packets.
    /// Per-link FIFO order is preserved: packets enter the destination
    /// inbox (ideal link) or the event heap in `batch` order, under one
    /// lock.
    pub fn send_batch(&self, from: NodeId, to: NodeId, batch: &mut Vec<Bytes>, mut ticket: Ticket) {
        let chaos = if from == to {
            None // chaos models the network; a node cannot partition itself
        } else {
            self.chaos.read().clone()
        };
        // Extra latency per packet from chaos delays (empty: none).
        let mut delays = Vec::new();
        if let Some(ch) = chaos {
            // Each packet rolls its fate, in batch order, and `batch` keeps
            // the copies that go on: a dropped packet's ticket is
            // discarded, a duplicate gets a minted one. An ideal link
            // cannot hold a packet back, so it never delays.
            let can_delay = !self.immediate;
            let (mut kept, mut fated) = (ticket.split(0), Vec::new());
            for p in batch.drain(..) {
                let one = ticket.split(1);
                let extra = match ch.packet_fate(from, to, 1, can_delay) {
                    Fault::Drop => continue,
                    Fault::Deliver => 0,
                    Fault::Duplicate => {
                        kept.merge(one.mint_copy());
                        fated.push(p.clone());
                        delays.push(0);
                        0
                    }
                    Fault::Delay(extra) => extra,
                };
                kept.merge(one);
                fated.push(p);
                delays.push(extra);
            }
            batch.append(&mut fated);
            ticket = kept;
        }
        // Traffic to or from a dead endpoint is dropped before the stats
        // count it: they reflect traffic the fabric carried, not what dead
        // nodes attempted.
        if batch.is_empty() || self.endpoint_dead(from, to) {
            batch.clear();
            return;
        }
        let n = batch.len() as u64;
        debug_assert_eq!(ticket.count(), n, "one ticket share per packet");
        let total: u64 = batch.iter().map(|b| b.len() as u64).sum();
        self.stats.packets.fetch_add(n, Ordering::Relaxed);
        self.stats.bytes.fetch_add(total, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let mut packets = batch.drain(..).map(|p| (p, ticket.split(1)));
        if self.immediate {
            let mut kick = None;
            {
                let routes = self.routes.read();
                if let Some(r) = routes.get(&to) {
                    if let Some(tx) = &r.tx {
                        let _ = tx.send_iter(packets.by_ref().map(|(p, t)| (from, p, t)));
                    }
                    kick = r.waker.clone();
                }
            }
            drop(packets);
            if let Some(w) = kick {
                w.wake();
            }
        } else {
            // Routes lock released first; the two locks are never held
            // together.
            let mut s = self.shared.lock();
            for (i, (p, t)) in packets.enumerate() {
                let extra = delays.get(i).copied().unwrap_or(0);
                s.schedule(from, to, p, extra, t);
            }
        }
    }
}

/// One destination's outgoing packets, each encoded once behind its TCP
/// frame header ([`codec::encode_framed_into`]). The transport writes the
/// buffer to a socket as it stands; the in-process fabric carries views
/// of its payloads. A send leaves it empty, and a buffer the transport
/// wrote keeps its allocation for the next flush.
#[derive(Default)]
pub struct Frames {
    buf: BytesMut,
    count: usize,
    /// Reusable scratch for the payload views.
    views: Vec<Bytes>,
}

impl Frames {
    /// Append `p`, framed from `from` to `to`. Returns the length of its
    /// encoding.
    pub fn push(&mut self, from: NodeId, to: NodeId, p: &Packet) -> usize {
        self.count += 1;
        codec::encode_framed_into(from, to, p, &mut self.buf)
    }

    /// Packets buffered.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The frames, as they go on the wire.
    pub fn wire(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the frames, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.count = 0;
    }

    /// The payloads, as views of the frozen buffer, in order; the frames
    /// go with them (the buffer's allocation too).
    pub fn payloads(&mut self) -> &mut Vec<Bytes> {
        let mut rest = std::mem::take(&mut self.buf).freeze();
        self.count = 0;
        while !rest.is_empty() {
            let len = rest[..4].try_into().expect("a whole frame header");
            let frame = rest.split_to(4 + u32::from_le_bytes(len) as usize);
            self.views.push(frame.slice(12..frame.len()));
        }
        &mut self.views
    }
}

/// The sending interface a daemon needs from "the network": the batched
/// per-link flush discipline. [`Fabric`] implements it in process;
/// the TCP transport's `NetHandle` implements it for
/// multi-process runs by routing frames for remote nodes onto sockets.
/// Extracting the trait keeps `Daemon` agnostic — the in-process paths
/// are byte-for-byte what they were before distribution existed.
pub trait PacketFabric: Send + Sync {
    /// Send a whole per-link backlog, draining `batch` (the allocation is
    /// kept for reuse); `ticket` covers its packets. Must preserve
    /// `batch` order on the link.
    fn send_batch(&self, from: NodeId, to: NodeId, batch: &mut Vec<Bytes>, ticket: Ticket);

    /// [`send_batch`](PacketFabric::send_batch) for a daemon's framed
    /// backlog, leaving `frames` empty. A carrier that writes frames as
    /// they are (the TCP transport) takes them without carving views.
    fn send_frames(&self, from: NodeId, to: NodeId, frames: &mut Frames, ticket: Ticket) {
        self.send_batch(from, to, frames.payloads(), ticket);
    }
}

impl PacketFabric for Fabric {
    fn send_batch(&self, from: NodeId, to: NodeId, batch: &mut Vec<Bytes>, ticket: Ticket) {
        Fabric::send_batch(self, from, to, batch, ticket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termination::TermCounters;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A ticket for `k` packets, on counters of their own.
    fn tickets(k: u64) -> Ticket {
        Ticket::mint(TermCounters::leak(), k)
    }

    #[test]
    fn ideal_mode_delivers_immediately() {
        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"hi"), tickets(1));
        let (from, payload, _) = rx.try_recv().expect("delivered");
        assert_eq!(from, n(0));
        assert_eq!(&payload[..], b"hi");
        assert_eq!(f.stats.packets.load(Ordering::Relaxed), 1);
        assert_eq!(f.stats.bytes.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn the_link_decides_delivery() {
        for link in [LinkProfile::ideal(), LinkProfile::myrinet()] {
            let f = Fabric::new(link);
            let rx = f.register_node(n(1));
            f.handle()
                .send(n(0), n(1), Bytes::from_static(b"hi"), tickets(1));
            assert_eq!(rx.try_recv().is_ok(), link.is_ideal(), "{link:?} at send");
            f.advance_to(1_000_000);
            assert_eq!(rx.try_recv().is_ok(), !link.is_ideal(), "{link:?} at 1 ms");
        }
    }

    #[test]
    fn virtual_mode_orders_by_latency() {
        let fast = Fabric::new(LinkProfile::myrinet());
        let slow = Fabric::new(LinkProfile::wan());
        let rx1 = fast.register_node(n(1));
        let rx2 = slow.register_node(n(1));
        slow.handle()
            .send(n(0), n(1), Bytes::from_static(b"slow"), tickets(1));
        fast.handle()
            .send(n(0), n(1), Bytes::from_static(b"fast"), tickets(1));
        // Nothing delivered until the clock advances.
        assert!(rx1.try_recv().is_err());
        // Advance past Myrinet latency but before WAN latency.
        assert_eq!(fast.advance_to(1_000_000), 1);
        assert_eq!(slow.advance_to(1_000_000), 0);
        assert!(rx1.try_recv().is_ok());
        assert!(rx2.try_recv().is_err());
        // Advance past WAN latency.
        slow.advance_to(100_000_000);
        assert!(rx2.try_recv().is_ok());
    }

    #[test]
    fn virtual_bandwidth_delays_large_payloads() {
        let f = Fabric::new(LinkProfile::fast_ethernet());
        let rx = f.register_node(n(1));
        let h = f.handle();
        h.send(n(0), n(1), Bytes::from(vec![0u8; 125_000]), tickets(1)); // 10 ms at 100 Mb/s
        assert!(
            f.next_event_ns().unwrap() > 9_000_000,
            "{:?}",
            f.next_event_ns()
        );
        f.advance_to(20_000_000);
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn dead_nodes_drop_traffic_without_counting_it() {
        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        f.kill_node(n(1));
        let term = TermCounters::leak();
        let h = f.handle();
        h.send(
            n(0),
            n(1),
            Bytes::from_static(b"lost"),
            Ticket::mint(term, 1),
        );
        let mut batch = vec![Bytes::from_static(b"also lost")];
        h.send_batch(n(0), n(1), &mut batch, Ticket::mint(term, 1));
        assert!(rx.try_recv().is_err());
        // Dropped traffic is not counted (it was never carried), but it
        // is consumed: nothing waits for it.
        assert_eq!(f.stats.packets.load(Ordering::Relaxed), 0);
        assert_eq!(f.stats.bytes.load(Ordering::Relaxed), 0);
        assert!(batch.is_empty(), "dropped batches are still drained");
        assert_eq!((term.injected(), term.in_flight()), (2, 0));
    }

    #[test]
    fn dead_sources_drop_traffic_too() {
        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        f.kill_node(n(0)); // n(0) never registered: killed by upsert
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"lost"), tickets(1));
        assert!(rx.try_recv().is_err());
        assert_eq!(f.stats.packets.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batched_send_preserves_order_and_counts_occupancy() {
        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        let h = f.handle();
        let mut batch: Vec<Bytes> = (0u8..5).map(|i| Bytes::from(vec![i])).collect();
        h.send_batch(n(0), n(1), &mut batch, tickets(5));
        assert!(batch.is_empty(), "batch is drained (allocation reusable)");
        let got: Vec<u8> = rx.try_iter().map(|(_, b, _)| b[0]).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(f.stats.packets.load(Ordering::Relaxed), 5);
        assert_eq!(f.stats.batches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chaos_drops_and_duplicates_on_the_fabric() {
        use crate::chaos::{ChaosPlan, ChaosSpec, ChaosState};

        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        let term = TermCounters::leak();
        // Drop everything.
        let all_drop = ChaosSpec {
            seed: 1,
            drop_per_mille: 1000,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
        };
        f.set_chaos(Some(ChaosState::new(ChaosPlan::new(all_drop))));
        let h = f.handle();
        h.send(
            n(0),
            n(1),
            Bytes::from_static(b"gone"),
            Ticket::mint(term, 1),
        );
        let mut batch = vec![Bytes::from_static(b"also"), Bytes::from_static(b"gone")];
        h.send_batch(n(0), n(1), &mut batch, Ticket::mint(term, 2));
        assert!(batch.is_empty());
        assert!(rx.try_recv().is_err());
        // Chaos drops, like dead-node drops, never reach the stats.
        assert_eq!(f.stats.packets.load(Ordering::Relaxed), 0);
        assert_eq!(term.consumed(), 3);

        // Duplicate everything: the copy is minted.
        let all_dup = ChaosSpec {
            seed: 1,
            drop_per_mille: 0,
            dup_per_mille: 1000,
            delay_per_mille: 0,
            delay_ns: 0,
        };
        let term2 = TermCounters::leak();
        f.set_chaos(Some(ChaosState::new(ChaosPlan::new(all_dup))));
        h.send(
            n(0),
            n(1),
            Bytes::from_static(b"twice"),
            Ticket::mint(term2, 1),
        );
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(term2.injected(), 2);
        drop(got);
        assert_eq!(term2.in_flight(), 0);

        // Clearing the plan restores the fast path.
        f.set_chaos(None);
        h.send(n(0), n(1), Bytes::from_static(b"clean"), tickets(1));
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn chaos_partition_blocks_edges_until_heal() {
        use crate::chaos::{ChaosEvent, ChaosPlan, ChaosState};

        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        let plan = ChaosPlan::default()
            .at(
                0,
                ChaosEvent::Partition {
                    a: vec![n(0)],
                    b: vec![n(1)],
                },
            )
            .at(100, ChaosEvent::Heal);
        let state = ChaosState::new(plan);
        f.set_chaos(Some(state.clone()));
        state.apply_due(0);
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"cut"), tickets(1));
        assert!(rx.try_recv().is_err());
        state.apply_due(100);
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"healed"), tickets(1));
        assert!(rx.try_recv().is_ok());
        assert_eq!(state.report().partition_drops, 1);
    }

    #[test]
    fn revive_node_restores_traffic() {
        let f = Fabric::new(LinkProfile::ideal());
        let rx = f.register_node(n(1));
        f.kill_node(n(1));
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"lost"), tickets(1));
        assert!(rx.try_recv().is_err());
        f.revive_node(n(1));
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"back"), tickets(1));
        assert!(rx.try_recv().is_ok(), "revived node receives again");
    }

    #[test]
    fn profiles_transfer_times() {
        let m = LinkProfile::myrinet();
        let e = LinkProfile::fast_ethernet();
        // Latency dominates small messages; Myrinet is ~8x faster.
        assert!(m.transfer_ns(64) * 5 < e.transfer_ns(64));
        // Bandwidth dominates large ones.
        assert!(m.transfer_ns(1_000_000) * 5 < e.transfer_ns(1_000_000));
        assert_eq!(LinkProfile::ideal().transfer_ns(1 << 20), 0);
    }

    #[test]
    fn degenerate_bandwidth_saturates_instead_of_overflowing() {
        // Regression: zero/denormal bandwidth is finite, so the division
        // used to yield inf/huge, the cast saturated, and latency + ser
        // overflowed (debug panic, release clock wrap).
        let zero = LinkProfile {
            latency_ns: 5,
            bandwidth_bps: 0.0,
        };
        assert_eq!(zero.transfer_ns(1), u64::MAX);
        let denormal = LinkProfile {
            latency_ns: u64::MAX - 1,
            bandwidth_bps: f64::MIN_POSITIVE / 4.0,
        };
        assert_eq!(denormal.transfer_ns(1024), u64::MAX);
        let nan = LinkProfile {
            latency_ns: 0,
            bandwidth_bps: f64::NAN,
        };
        assert_eq!(nan.transfer_ns(1), u64::MAX);
        let negative = LinkProfile {
            latency_ns: 0,
            bandwidth_bps: -1.0,
        };
        assert_eq!(negative.transfer_ns(1), u64::MAX);
        // And the event scheduler survives such a profile: due times
        // saturate rather than panicking in debug builds.
        let f = Fabric::new(zero);
        let _rx = f.register_node(n(1));
        f.handle()
            .send(n(0), n(1), Bytes::from_static(b"x"), tickets(1));
        assert_eq!(f.next_event_ns(), Some(u64::MAX));
    }

    #[test]
    fn profile_construction_is_validated() {
        assert!(LinkProfile::new(10, 1e9).is_ok());
        assert!(LinkProfile::new(10, f64::INFINITY).is_ok());
        assert!(LinkProfile::new(10, 0.0).is_err());
        assert!(LinkProfile::new(10, -3.0).is_err());
        assert!(LinkProfile::new(10, f64::NAN).is_err());
        assert!(LinkProfile::new(10, f64::MIN_POSITIVE / 2.0).is_err());
        for p in [
            LinkProfile::myrinet(),
            LinkProfile::fast_ethernet(),
            LinkProfile::wan(),
            LinkProfile::ideal(),
        ] {
            assert!(p.validate().is_ok());
        }
    }
}
