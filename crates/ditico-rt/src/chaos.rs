//! Seeded, deterministic fault injection for the fabric and the TCP
//! transport (ROADMAP open item 4: failure & churn experiments).
//!
//! A [`ChaosPlan`] has two halves:
//!
//! * a [`ChaosSpec`] of *per-packet* faults — drop / duplicate / delay
//!   probabilities (per mille) decided by a splitmix64 hash of
//!   `(seed, edge, per-edge packet counter)`, so the k-th packet on a
//!   given directed edge always meets the same fate for the same seed,
//!   regardless of how sends on *other* edges interleave;
//! * a list of *timed* [`ChaosEvent`]s — partition/heal of node sets and
//!   kill/restart of nodes — indexed by nanoseconds on whichever clock
//!   the embedding run uses (virtual time in `run_deterministic`, wall
//!   time since start in the threaded/distributed loops).
//!
//! The carriers ([`crate::fabric::FabricHandle`] and the TCP transport's
//! outbound queue) consult one shared [`ChaosState`] per run and obey
//! each [`Fault`] with the packet's [`crate::termination::Ticket`]: a
//! drop discards it, a duplicate mints one for the copy. Every injected
//! fault is counted in a [`ChaosReport`] that lands in `RunReport.chaos`.

use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tyco_vm::word::NodeId;

/// Per-packet fault rates, applied identically (same seed ⇒ same
/// schedule) on every carrier that honors chaos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed for the per-packet fate hash.
    pub seed: u64,
    /// Probability of dropping a packet, in 1/1000.
    pub drop_per_mille: u32,
    /// Probability of duplicating a packet, in 1/1000.
    pub dup_per_mille: u32,
    /// Probability of delaying a packet, in 1/1000.
    pub delay_per_mille: u32,
    /// Extra delay applied to delayed packets, beyond what the link
    /// profile already charges.
    pub delay_ns: u64,
}

impl ChaosSpec {
    /// A spec with the given seed and no faults (useful as a base).
    pub fn quiet(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
        }
    }

    /// The three rates must fit in one die roll.
    pub fn validate(&self) -> Result<(), String> {
        let total = self.drop_per_mille + self.dup_per_mille + self.delay_per_mille;
        if total > 1000 {
            return Err(format!(
                "chaos fault rates sum to {total}‰ (> 1000‰): drop {} + dup {} + delay {}",
                self.drop_per_mille, self.dup_per_mille, self.delay_per_mille
            ));
        }
        Ok(())
    }
}

/// A structural fault applied at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Cut every edge between the two node sets (both directions). Stacks
    /// with previously applied partitions until the next [`ChaosEvent::Heal`].
    Partition { a: Vec<NodeId>, b: Vec<NodeId> },
    /// Remove every active partition.
    Heal,
    /// Mark the node dead (drops all of its traffic, both directions).
    KillNode(NodeId),
    /// Revive the node. In deterministic runs the embedding cluster also
    /// bounces the node's daemon (cache and heartbeat state lost), which
    /// is what makes this a *restart* rather than a mere un-kill.
    RestartNode(NodeId),
}

/// Schedule of faults for one run. `events` pairs are
/// `(at_ns, event)`; they are applied once `at_ns` is reached on the
/// embedding run's clock and need not be pre-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    pub spec: Option<ChaosSpec>,
    pub events: Vec<(u64, ChaosEvent)>,
}

impl ChaosPlan {
    pub fn new(spec: ChaosSpec) -> ChaosPlan {
        ChaosPlan {
            spec: Some(spec),
            events: Vec::new(),
        }
    }

    pub fn at(mut self, at_ns: u64, event: ChaosEvent) -> ChaosPlan {
        self.events.push((at_ns, event));
        self
    }

    pub fn validate(&self) -> Result<(), String> {
        if let Some(spec) = &self.spec {
            spec.validate()?;
        }
        Ok(())
    }
}

/// Counters of every fault the plan actually injected. Snapshot lands in
/// `RunReport.chaos`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Packets dropped by the per-packet fault die.
    pub dropped: u64,
    /// Packets duplicated (one extra copy each).
    pub duplicated: u64,
    /// Packets held back by `delay_ns`.
    pub delayed: u64,
    /// Packets (and heartbeat frames) dropped because an active
    /// partition cuts their edge.
    pub partition_drops: u64,
    /// Timed events applied, by kind.
    pub partitions: u64,
    pub heals: u64,
    pub kills: u64,
    pub restarts: u64,
}

impl ChaosReport {
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.partition_drops
    }
}

/// What the carrier should do with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Deliver,
    Drop,
    Duplicate,
    /// Deliver after this many extra nanoseconds.
    Delay(u64),
}

/// splitmix64 finalizer: cheap, well-mixed, and stable across platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shared, thread-safe state of one chaos plan in flight. Carriers hold
/// an `Arc<ChaosState>`; the embedding run loop drives timed events via
/// [`ChaosState::apply_due`].
pub struct ChaosState {
    spec: Option<ChaosSpec>,
    /// Timed events sorted by `at_ns` (stable, so equal times keep plan
    /// order); `next_event` indexes the first not-yet-applied one.
    events: Vec<(u64, ChaosEvent)>,
    next_event: AtomicUsize,
    /// Active partitions: each entry cuts all edges between the two sets.
    partitions: RwLock<Vec<(HashSet<NodeId>, HashSet<NodeId>)>>,
    /// Per-directed-edge packet counter feeding the fate hash.
    edge_seq: Mutex<HashMap<(u32, u32), u64>>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    partition_drops: AtomicU64,
    partitions_applied: AtomicU64,
    heals: AtomicU64,
    kills: AtomicU64,
    restarts: AtomicU64,
}

impl ChaosState {
    pub fn new(plan: ChaosPlan) -> Arc<ChaosState> {
        let mut events = plan.events;
        events.sort_by_key(|(at, _)| *at);
        Arc::new(ChaosState {
            spec: plan.spec,
            events,
            next_event: AtomicUsize::new(0),
            partitions: RwLock::new(Vec::new()),
            edge_seq: Mutex::new(HashMap::new()),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            partition_drops: AtomicU64::new(0),
            partitions_applied: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        })
    }

    /// The time of the next unapplied timed event, if any — the run
    /// loop's idle clock target alongside `Fabric::next_event_ns`.
    pub fn next_event_ns(&self) -> Option<u64> {
        self.events
            .get(self.next_event.load(Ordering::Acquire))
            .map(|(at, _)| *at)
    }

    /// Apply every timed event due at or before `now_ns`. Partitions and
    /// heals take effect here; kill/restart events are returned for the
    /// embedding run to act on (it owns the fabric and the daemons).
    pub fn apply_due(&self, now_ns: u64) -> Vec<ChaosEvent> {
        let mut out = Vec::new();
        // Single-consumer in practice (one run loop); the CAS-free
        // increment is fine because apply_due is never called
        // concurrently with itself.
        let mut idx = self.next_event.load(Ordering::Acquire);
        while let Some((at, ev)) = self.events.get(idx) {
            if *at > now_ns {
                break;
            }
            idx += 1;
            match ev {
                ChaosEvent::Partition { a, b } => {
                    let a: HashSet<NodeId> = a.iter().copied().collect();
                    let b: HashSet<NodeId> = b.iter().copied().collect();
                    self.partitions.write().push((a, b));
                    self.partitions_applied.fetch_add(1, Ordering::Relaxed);
                }
                ChaosEvent::Heal => {
                    self.partitions.write().clear();
                    self.heals.fetch_add(1, Ordering::Relaxed);
                }
                ChaosEvent::KillNode(_) => {
                    self.kills.fetch_add(1, Ordering::Relaxed);
                }
                ChaosEvent::RestartNode(_) => {
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                }
            }
            out.push(ev.clone());
        }
        self.next_event.store(idx, Ordering::Release);
        out
    }

    /// Is the directed edge cut by an active partition?
    pub fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        let parts = self.partitions.read();
        parts.iter().any(|(a, b)| {
            (a.contains(&from) && b.contains(&to)) || (b.contains(&from) && a.contains(&to))
        })
    }

    /// Decide the fate of `n` packets travelling together on
    /// `(from, to)` (n > 1 for a coalesced transport buffer). Counts the
    /// fault; the caller obeys the returned [`Fault`]. `can_delay` is false on carriers
    /// that cannot hold a packet back (the Ideal fabric), in which case a
    /// rolled delay degrades to `Deliver`, uncounted.
    pub fn packet_fate(&self, from: NodeId, to: NodeId, n: u64, can_delay: bool) -> Fault {
        if self.blocked(from, to) {
            self.partition_drops.fetch_add(n, Ordering::Relaxed);
            return Fault::Drop;
        }
        let Some(spec) = &self.spec else {
            return Fault::Deliver;
        };
        let budget = spec.drop_per_mille + spec.dup_per_mille + spec.delay_per_mille;
        if budget == 0 {
            return Fault::Deliver;
        }
        let k = {
            let mut seqs = self.edge_seq.lock();
            let c = seqs.entry((from.0, to.0)).or_insert(0);
            *c += 1;
            *c
        };
        let edge = (u64::from(from.0) << 32) | u64::from(to.0);
        let roll = (splitmix64(spec.seed ^ splitmix64(edge).wrapping_add(k)) % 1000) as u32;
        if roll < spec.drop_per_mille {
            self.dropped.fetch_add(n, Ordering::Relaxed);
            Fault::Drop
        } else if roll < spec.drop_per_mille + spec.dup_per_mille {
            self.duplicated.fetch_add(n, Ordering::Relaxed);
            Fault::Duplicate
        } else if can_delay && roll < budget {
            self.delayed.fetch_add(n, Ordering::Relaxed);
            Fault::Delay(self.spec.map(|s| s.delay_ns).unwrap_or(0))
        } else {
            Fault::Deliver
        }
    }

    /// Partition check for transport heartbeat frames (which never enter
    /// the termination counters): the frame from local node `from` to the
    /// peer process is dropped only if *every* node the peer announced is
    /// cut off — if any edge survives, the process still hears the beacon.
    pub fn hb_blocked(&self, from: NodeId, peers: &[NodeId]) -> bool {
        if peers.is_empty() {
            return false;
        }
        let cut = peers.iter().all(|m| self.blocked(from, *m));
        if cut {
            self.partition_drops.fetch_add(1, Ordering::Relaxed);
        }
        cut
    }

    /// Snapshot of everything injected so far.
    pub fn report(&self) -> ChaosReport {
        ChaosReport {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            partition_drops: self.partition_drops.load(Ordering::Relaxed),
            partitions: self.partitions_applied.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            kills: self.kills.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termination::{TermCounters, Ticket};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn same_seed_same_fate_schedule() {
        let spec = ChaosSpec {
            seed: 42,
            drop_per_mille: 100,
            dup_per_mille: 50,
            delay_per_mille: 200,
            delay_ns: 1_000,
        };
        let a = ChaosState::new(ChaosPlan::new(spec));
        let b = ChaosState::new(ChaosPlan::new(spec));
        let fates_a: Vec<Fault> = (0..500)
            .map(|_| a.packet_fate(n(0), n(1), 1, true))
            .collect();
        // Interleave sends on another edge: the (0,1) schedule must not move.
        let fates_b: Vec<Fault> = (0..500)
            .map(|_| {
                let _ = b.packet_fate(n(2), n(3), 1, true);
                b.packet_fate(n(0), n(1), 1, true)
            })
            .collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&Fault::Drop));
        assert!(fates_a.contains(&Fault::Delay(1_000)));
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| ChaosSpec {
            seed,
            drop_per_mille: 300,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
        };
        let a = ChaosState::new(ChaosPlan::new(mk(1)));
        let b = ChaosState::new(ChaosPlan::new(mk(2)));
        let fa: Vec<Fault> = (0..200)
            .map(|_| a.packet_fate(n(0), n(1), 1, true))
            .collect();
        let fb: Vec<Fault> = (0..200)
            .map(|_| b.packet_fate(n(0), n(1), 1, true))
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let spec = ChaosSpec {
            seed: 7,
            drop_per_mille: 250,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
        };
        let s = ChaosState::new(ChaosPlan::new(spec));
        let total = 10_000u64;
        for _ in 0..total {
            let _ = s.packet_fate(n(0), n(1), 1, true);
        }
        let dropped = s.report().dropped;
        // 25% ± generous slack; the hash is not adversarial.
        assert!((1_500..3_500).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn duplication_compensates_injected() {
        let spec = ChaosSpec {
            seed: 9,
            drop_per_mille: 0,
            dup_per_mille: 500,
            delay_per_mille: 0,
            delay_ns: 0,
        };
        // The carrier mints a ticket for each copy, so copies are counted
        // in as well as out.
        let s = ChaosState::new(ChaosPlan::new(spec));
        let term = TermCounters::leak();
        let mut arrived = Vec::new();
        for _ in 0..1_000 {
            let t = Ticket::mint(term, 1);
            if s.packet_fate(n(0), n(1), 1, true) == Fault::Duplicate {
                arrived.push(t.mint_copy());
            }
            arrived.push(t);
        }
        let dups = s.report().duplicated;
        assert!(dups > 0);
        assert_eq!(term.injected(), 1_000 + dups);
        drop(arrived);
        assert_eq!(term.in_flight(), 0);
    }

    #[test]
    fn timed_events_apply_in_order_and_once() {
        let plan = ChaosPlan::default()
            .at(
                200,
                ChaosEvent::Partition {
                    a: vec![n(0)],
                    b: vec![n(1)],
                },
            )
            .at(100, ChaosEvent::KillNode(n(2)))
            .at(300, ChaosEvent::Heal);
        let s = ChaosState::new(plan);
        assert_eq!(s.next_event_ns(), Some(100));
        let first = s.apply_due(150);
        assert_eq!(first, vec![ChaosEvent::KillNode(n(2))]);
        assert!(!s.blocked(n(0), n(1)), "partition not due yet");
        let second = s.apply_due(250);
        assert_eq!(second.len(), 1);
        assert!(s.blocked(n(0), n(1)));
        assert!(s.blocked(n(1), n(0)), "partitions cut both directions");
        assert!(!s.blocked(n(0), n(2)));
        let third = s.apply_due(1_000);
        assert_eq!(third, vec![ChaosEvent::Heal]);
        assert!(!s.blocked(n(0), n(1)), "healed");
        assert!(s.apply_due(2_000).is_empty(), "events apply once");
        assert_eq!(s.next_event_ns(), None);
        let r = s.report();
        assert_eq!((r.partitions, r.heals, r.kills, r.restarts), (1, 1, 1, 0));
    }

    #[test]
    fn partition_drops_count_and_compensate() {
        let plan = ChaosPlan::default().at(
            0,
            ChaosEvent::Partition {
                a: vec![n(0)],
                b: vec![n(1), n(2)],
            },
        );
        let s = ChaosState::new(plan);
        s.apply_due(0);
        let term = TermCounters::leak();
        let buffer = Ticket::mint(term, 3);
        assert_eq!(s.packet_fate(n(0), n(1), 3, true), Fault::Drop);
        drop(buffer); // the carrier discards the dropped buffer
        assert_eq!(s.packet_fate(n(1), n(2), 1, true), Fault::Deliver);
        assert_eq!(s.report().partition_drops, 3);
        assert_eq!(term.consumed(), 3);
        // Heartbeat screening: cut only when every peer edge is cut.
        assert!(s.hb_blocked(n(0), &[n(1), n(2)]));
        assert!(!s.hb_blocked(n(0), &[n(1), n(3)]));
        assert!(!s.hb_blocked(n(0), &[]));
    }

    #[test]
    fn delay_degrades_to_deliver_when_carrier_cannot_hold() {
        let spec = ChaosSpec {
            seed: 3,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 1000,
            delay_ns: 5,
        };
        let s = ChaosState::new(ChaosPlan::new(spec));
        assert_eq!(s.packet_fate(n(0), n(1), 1, false), Fault::Deliver);
        assert_eq!(s.report().delayed, 0, "unapplied delays are not counted");
        assert_eq!(s.packet_fate(n(0), n(1), 1, true), Fault::Delay(5));
        assert_eq!(s.report().delayed, 1);
    }

    #[test]
    fn spec_validation_rejects_overfull_budget() {
        let mut spec = ChaosSpec::quiet(1);
        spec.drop_per_mille = 600;
        spec.dup_per_mille = 500;
        assert!(spec.validate().is_err());
        spec.dup_per_mille = 400;
        assert!(spec.validate().is_ok());
        assert!(ChaosPlan::new(spec).validate().is_ok());
    }
}
