//! Termination detection (§7, future work: *"we need to introduce
//! fault-tolerance and termination detection into the system … to try to
//! terminate computations cleanly"*).
//!
//! We implement Mattern's four-counter scheme adapted to the DiTyCO
//! architecture. Every process keeps two packet counters
//! ([`TermCounters`]): `injected` (every packet a site, the name service
//! or a daemon puts into the system) and `consumed` (every packet that
//! left it). The detector takes repeated snapshots of
//! `(injected, consumed, any_site_active)`: computation has terminated
//! when two *consecutive* snapshots are equal, balanced
//! (`injected == consumed`) and inactive — the first snapshot plays the
//! role of Mattern's first wave, the second confirms that no message was
//! in flight between the waves.
//!
//! ## One ticket per packet
//!
//! The counters are sound only if every packet is counted in once and
//! out once, so only a [`Ticket`] writes them: [`Ticket::mint`] counts a
//! packet injected where it is made, and dropping the ticket counts it
//! consumed. The ticket travels with its packet through every queue and
//! holding place and is dropped where the packet ends — when the site's
//! [`RtPort`](crate::site::RtPort) polls it for the VM, when its handler
//! returns, or wherever a carrier discards it — so no loss path can
//! forget the count. A reply takes over its request's ticket; a handler
//! that mints replies holds the request's ticket until it returns, so
//! they are injected before the request is consumed.
//!
//! A remote send is injected in one process and consumed in another, so
//! across processes the snapshot is a *sum*: a [`Wave`] adds the
//! initiator's own snapshot to one report from every other member
//! process, and only a complete wave is fed to the detector. That is the
//! same rule with the same proof — each process's counters only grow, so
//! two equal quiet sums mean no process sent, received or ran anything
//! between the waves — and it assumes nothing a single process could not
//! observe: each counts only what it sent and consumed. A packet leaves
//! its process once its frame is written to the socket
//! ([`Ticket::forward`]) and is taken in, uncounted, by the process that
//! reads it ([`Ticket::adopt`]). A member that has left for good
//! (departed, or unreachable past its retry budget) is excluded: every
//! process then leaves out the packets it exchanged with that node
//! ([`Snapshot::take_excluding`]), because the excluded node's own counts
//! left with it.

use std::sync::atomic::{AtomicU64, Ordering};
use tyco_vm::word::NodeId;

/// One process's packet-conservation counters. Only a [`Ticket`] moves
/// them; everyone else reads.
#[derive(Debug, Default)]
pub struct TermCounters {
    injected: AtomicU64,
    consumed: AtomicU64,
}

impl TermCounters {
    /// Fresh counters, kept for the life of the process: 16 bytes per
    /// cluster or transport built. A ticket may outlive whatever minted it
    /// (a queue dropped after its cluster), and a plain reference keeps
    /// minting and dropping tickets — once per packet — free of reference
    /// counting.
    pub fn leak() -> &'static TermCounters {
        Box::leak(Box::default())
    }

    /// Packets put into the system so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Packets that left the system so far.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::SeqCst)
    }

    /// Packets injected and not yet consumed: still held by a queue, a
    /// carrier or a parking lot. Negative if more left than came in.
    pub fn in_flight(&self) -> i64 {
        let consumed = self.consumed();
        self.injected().wrapping_sub(consumed) as i64
    }
}

/// What one packet — or a buffer of [`count`](Ticket::count) packets
/// travelling together — holds against its process's [`TermCounters`].
/// Dropping the ticket counts its packets consumed.
#[must_use = "dropping a ticket counts its packets consumed"]
#[derive(Debug)]
pub struct Ticket {
    term: &'static TermCounters,
    n: u64,
}

impl Ticket {
    /// `n` packets made here: counted injected.
    pub fn mint(term: &'static TermCounters, n: u64) -> Ticket {
        term.injected.fetch_add(n, Ordering::SeqCst);
        Ticket::adopt(term, n)
    }

    /// `n` packets read off a socket: the sending process counted them
    /// injected, so they are held here, and consumed here, uncounted in.
    pub fn adopt(term: &'static TermCounters, n: u64) -> Ticket {
        Ticket { term, n }
    }

    /// A ticket for a copy of these packets (a chaos duplicate): minted.
    pub fn mint_copy(&self) -> Ticket {
        Ticket::mint(self.term, self.n)
    }

    /// How many packets the ticket covers.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Move `k` of the packets onto a ticket of their own.
    pub fn split(&mut self, k: u64) -> Ticket {
        assert!(k <= self.n, "split {k} of {}", self.n);
        self.n -= k;
        Ticket::adopt(self.term, k)
    }

    /// Move `other`'s packets onto this ticket.
    pub fn merge(&mut self, other: Ticket) {
        debug_assert!(std::ptr::eq(self.term, other.term), "two processes");
        self.n += other.forward();
    }

    /// The packets left this process unconsumed: their frame is on the
    /// socket, and the receiving process consumes them. Returns how many
    /// they were.
    pub fn forward(mut self) -> u64 {
        std::mem::take(&mut self.n)
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.n > 0 {
            self.term.consumed.fetch_add(self.n, Ordering::SeqCst);
        }
    }
}

/// One snapshot of activity: one process's, or a wave's sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub injected: u64,
    pub consumed: u64,
    pub any_active: bool,
}

impl Snapshot {
    /// Take a snapshot from the shared counters plus a site-activity scan.
    pub fn take(counters: &TermCounters, any_active: bool) -> Snapshot {
        Snapshot::take_excluding(counters, any_active, || (0, 0))
    }

    /// [`take`](Snapshot::take), less the data packets this process
    /// exchanged with excluded nodes: `exchanged()` returns how many it
    /// sent to them and received from them.
    pub fn take_excluding(
        counters: &TermCounters,
        any_active: bool,
        exchanged: impl FnOnce() -> (u64, u64),
    ) -> Snapshot {
        // Read consumed first and injected last: a packet counted while
        // the snapshot is taken can then only overshoot `injected`, which
        // makes the balance check fail (the safe direction). The
        // exchange counts sit between the two for the same reason: a
        // packet is tallied as received before it is consumed, and
        // injected before it is tallied as sent.
        let consumed = counters.consumed();
        let (sent, received) = exchanged();
        let injected = counters.injected();
        Snapshot {
            injected: injected.wrapping_sub(sent),
            consumed: consumed.wrapping_sub(received),
            any_active,
        }
    }

    /// Is the system balanced and idle in this snapshot?
    pub fn quiet(&self) -> bool {
        !self.any_active && self.injected == self.consumed
    }

    /// Two processes' snapshots as one.
    fn plus(self, other: Snapshot) -> Snapshot {
        Snapshot {
            injected: self.injected.wrapping_add(other.injected),
            consumed: self.consumed.wrapping_add(other.consumed),
            any_active: self.any_active || other.any_active,
        }
    }
}

/// The two-wave (four-counter) termination detector.
#[derive(Debug, Default)]
pub struct TerminationDetector {
    prev: Option<Snapshot>,
    /// Number of probes performed (reported in experiment C8).
    pub probes: u64,
}

impl TerminationDetector {
    pub fn new() -> TerminationDetector {
        TerminationDetector::default()
    }

    /// Feed a snapshot; returns `true` when termination is detected.
    ///
    /// Safety: only answers `true` when two consecutive snapshots are
    /// quiet and identical, which implies no packet was produced, consumed
    /// or in flight between them.
    pub fn probe(&mut self, snap: Snapshot) -> bool {
        self.probes += 1;
        let done = snap.quiet() && self.prev == Some(snap);
        self.prev = Some(snap);
        done
    }

    /// Forget history (e.g. after a failover re-injection, or when a
    /// wave's exclusion set changed and its sums stopped being
    /// comparable).
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

/// One wave across processes: the initiator's own snapshot, plus one
/// report from the process hosting each member node it still owes.
#[derive(Debug, Clone)]
pub struct Wave {
    pub round: u64,
    owed: Vec<NodeId>,
    sum: Snapshot,
}

impl Wave {
    /// A wave numbered `round` that needs a report covering every node of
    /// `owed` on top of the initiator's `own` snapshot.
    pub fn new(round: u64, own: Snapshot, owed: Vec<NodeId>) -> Wave {
        Wave {
            round,
            owed,
            sum: own,
        }
    }

    /// Count the report of the process hosting `nodes`. A report from an
    /// older round, or from a process whose nodes were already covered,
    /// is ignored.
    pub fn report(&mut self, round: u64, nodes: &[NodeId], part: Snapshot) {
        if round != self.round || !self.owed.iter().any(|n| nodes.contains(n)) {
            return;
        }
        self.owed.retain(|n| !nodes.contains(n));
        self.sum = self.sum.plus(part);
    }

    /// The summed snapshot, once every owed node has reported: a missing
    /// report blocks the verdict.
    pub fn sum(&self) -> Option<Snapshot> {
        self.owed.is_empty().then_some(self.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(i: u64, c: u64, a: bool) -> Snapshot {
        Snapshot {
            injected: i,
            consumed: c,
            any_active: a,
        }
    }

    #[test]
    fn needs_two_identical_quiet_snapshots() {
        let mut d = TerminationDetector::new();
        assert!(
            !d.probe(snap(5, 5, false)),
            "first quiet snapshot is not enough"
        );
        assert!(
            d.probe(snap(5, 5, false)),
            "second identical quiet snapshot confirms"
        );
    }

    #[test]
    fn activity_between_waves_resets() {
        let mut d = TerminationDetector::new();
        assert!(!d.probe(snap(5, 5, false)));
        // A message was sent and consumed between probes: counters moved.
        assert!(!d.probe(snap(6, 6, false)));
        assert!(d.probe(snap(6, 6, false)));
    }

    #[test]
    fn never_fires_while_unbalanced_or_active() {
        let mut d = TerminationDetector::new();
        assert!(!d.probe(snap(5, 4, false)));
        assert!(
            !d.probe(snap(5, 4, false)),
            "in-flight packet blocks detection"
        );
        assert!(!d.probe(snap(5, 5, true)));
        assert!(!d.probe(snap(5, 5, true)), "active site blocks detection");
    }

    #[test]
    fn reset_discards_history() {
        let mut d = TerminationDetector::new();
        assert!(!d.probe(snap(5, 5, false)));
        d.reset();
        assert!(
            !d.probe(snap(5, 5, false)),
            "reset forces a fresh first wave"
        );
        assert!(d.probe(snap(5, 5, false)));
    }

    #[test]
    fn snapshot_take_reads_counters() {
        let c = TermCounters::leak();
        drop(Ticket::mint(c, 3));
        assert!(Snapshot::take(c, false).quiet());
        let held = Ticket::mint(c, 1);
        assert!(!Snapshot::take(c, false).quiet());
        drop(held);
        assert!(Snapshot::take(c, false).quiet());
    }

    #[test]
    fn a_ticket_counts_its_packets_once_however_it_is_split_or_merged() {
        let c = TermCounters::leak();
        let mut batch = Ticket::mint(c, 5);
        let one = batch.split(1);
        let mut rest = Ticket::mint(c, 2);
        rest.merge(batch);
        assert_eq!((c.injected(), c.consumed(), rest.count()), (7, 0, 6));
        drop(one);
        assert_eq!(c.in_flight(), 6);
        // A copy is minted; forwarded packets leave uncounted, and the
        // process that reads them adopts and consumes them.
        let copy = rest.mint_copy();
        assert_eq!(rest.forward(), 6);
        drop(copy);
        assert_eq!((c.injected(), c.consumed(), c.in_flight()), (13, 7, 6));
        drop(Ticket::adopt(c, 6));
        assert_eq!(c.in_flight(), 0);
    }

    /// Two waves with the same reports, fed to a fresh detector.
    fn two_waves(own: Snapshot, owed: &[NodeId], reports: &[(&[NodeId], Snapshot)]) -> bool {
        let mut d = TerminationDetector::new();
        (1..=2).fold(false, |_, round| {
            let mut w = Wave::new(round, own, owed.to_vec());
            for (nodes, part) in reports {
                w.report(round, nodes, *part);
            }
            w.sum().is_some_and(|s| d.probe(s))
        })
    }

    #[test]
    fn a_member_that_never_reported_blocks_the_verdict() {
        let (a, b, idle) = (NodeId(1), NodeId(2), snap(0, 0, false));
        let mut w = Wave::new(1, idle, vec![a, b]);
        w.report(1, &[a], idle);
        w.report(0, &[b], idle); // an older wave's answer stands in for nothing
        assert_eq!(w.sum(), None, "b owes its report");
        assert!(!two_waves(idle, &[a, b], &[(&[a], idle)]));
        // One process reports once for all of its nodes, and only once.
        assert!(two_waves(
            idle,
            &[a, b],
            &[(&[a, b], idle), (&[a, b], snap(1, 0, false))]
        ));
    }

    #[test]
    fn a_packet_in_flight_between_processes_blocks_it() {
        // The initiator sent 3 packets and consumed the 2 replies; the
        // peer sent the replies but has read only 2 of the 3.
        let (peer, own) = (NodeId(1), snap(3, 2, false));
        assert!(!two_waves(own, &[peer], &[(&[peer], snap(2, 2, false))]));
        assert!(two_waves(own, &[peer], &[(&[peer], snap(2, 3, false))]));
        assert!(!two_waves(own, &[peer], &[(&[peer], snap(2, 3, true))]));
    }

    #[test]
    fn an_excluded_node_is_subtracted_by_each_process() {
        // P sent departed X 4 packets and got 1 back, Q sent X 1 and got
        // 2, and P sent Q 5. X's own counts left with it, so the raw sum
        // is off; each survivor leaving out its exchange with X balances.
        let (p, q) = (TermCounters::leak(), TermCounters::leak());
        Ticket::mint(p, 4 + 5).forward();
        drop(Ticket::adopt(p, 1));
        Ticket::mint(q, 1).forward();
        drop(Ticket::adopt(q, 2 + 5));
        let raw = Snapshot::take(p, false).plus(Snapshot::take(q, false));
        assert!(!raw.quiet(), "{raw:?}");
        let own = Snapshot::take_excluding(p, false, || (4, 1));
        let part = Snapshot::take_excluding(q, false, || (1, 2));
        assert!(two_waves(own, &[NodeId(1)], &[(&[NodeId(1)], part)]));
    }

    #[test]
    fn chaos_drops_and_duplicates_keep_the_sum_balanced() {
        use crate::chaos::{ChaosPlan, ChaosSpec, ChaosState, Fault};
        // P's carrier obeys each fate with the packet's ticket — a drop
        // discards it, a duplicate mints one for the copy — and Q adopts
        // and consumes every copy that arrives.
        let (p, q) = (TermCounters::leak(), TermCounters::leak());
        let mut spec = ChaosSpec::quiet(7);
        (spec.drop_per_mille, spec.dup_per_mille) = (300, 300);
        let chaos = ChaosState::new(ChaosPlan::new(spec));
        for _ in 0..200 {
            let t = Ticket::mint(p, 1);
            let sent = match chaos.packet_fate(NodeId(0), NodeId(1), 1, false) {
                Fault::Drop => vec![],
                Fault::Duplicate => vec![t.mint_copy(), t],
                Fault::Deliver | Fault::Delay(_) => vec![t],
            };
            for t in sent {
                drop(Ticket::adopt(q, t.forward()));
            }
        }
        let r = chaos.report();
        assert!(r.dropped > 0 && r.duplicated > 0, "{r:?}");
        let part = Snapshot::take(q, false);
        assert!(two_waves(
            Snapshot::take(p, false),
            &[NodeId(1)],
            &[(&[NodeId(1)], part)]
        ));
    }
}
