//! Failure detection and name-service failover (§7, future work: *"We
//! want to be able to detect site failures, reconfigure the computation
//! topology …"*; §5: a distributed name service is "a fundamental
//! development for reasons of both redundancy (for failure recovery) and
//! performance").
//!
//! Every node's TyCOd emits [`Packet::Heartbeat`](tyco_vm::codec::Packet::Heartbeat) beacons to the
//! name-service ring nodes. The [`FailureMonitor`] tracks the latest
//! sequence number observed per node; a node whose sequence has not
//! advanced for `stale_rounds` observation rounds is *suspected*. When the
//! suspected node owns a shard of the name service, the environment marks
//! it down in the shard map ([`crate::nameservice::NsShardMap`]), which
//! routes its keys to its ring successor, and asks every site to re-issue
//! its in-flight imports (requests parked at the dead owner are lost;
//! re-execution is idempotent because the successor holds the owner's
//! replicated registrations).

use std::collections::HashMap;
use tyco_vm::word::NodeId;

/// Heartbeat bookkeeping: who was heard from, and when.
#[derive(Debug, Default)]
pub struct FailureMonitor {
    /// node → (latest sequence, round in which it first appeared).
    last: HashMap<NodeId, (u64, u64)>,
    /// node → round in which the monitor first learned the node exists
    /// (topology membership or transport handshake). A node that has
    /// never produced a heartbeat gets its grace window measured from
    /// here, not from round 0 — otherwise any node joining after round
    /// `stale_rounds` would be suspected the instant it appears.
    first_known: HashMap<NodeId, u64>,
    /// Rounds without progress before a node is suspected.
    pub stale_rounds: u64,
}

impl FailureMonitor {
    pub fn new(stale_rounds: u64) -> FailureMonitor {
        FailureMonitor {
            last: HashMap::new(),
            first_known: HashMap::new(),
            stale_rounds,
        }
    }

    /// Record that `node` exists as of `round` without having heard a
    /// heartbeat from it yet (e.g. it completed a transport handshake or
    /// was added to the topology). Idempotent: the earliest round wins.
    pub fn note_known(&mut self, node: NodeId, round: u64) {
        self.first_known.entry(node).or_insert(round);
    }

    /// Record the latest heartbeat sequence observed for `node` during
    /// observation round `round`.
    pub fn observe(&mut self, node: NodeId, seq: u64, round: u64) {
        self.note_known(node, round);
        match self.last.get_mut(&node) {
            Some((s, r)) => {
                // An advancing sequence is the node making progress. A
                // *regressed* sequence means the node restarted (its
                // beacon counter re-starts from 1) — that is also proof
                // of life, and without treating it as such a restarted
                // node could never shed suspicion. Only an *equal*
                // sequence is stale (same beacon re-observed).
                if seq != *s {
                    *s = seq;
                    *r = round;
                }
            }
            None => {
                self.last.insert(node, (seq, round));
            }
        }
    }

    /// The transport re-established a connection to `node` at `round`:
    /// forget its heartbeat history and restart the grace window. Without
    /// this, a restarted peer whose beacon sequence re-starts below the
    /// recorded one stays suspected forever — which leaves the
    /// all-remotes-down termination cut satisfiable while a live peer is
    /// attached, so runs could terminate under the reconnecting peer.
    pub fn reconnected(&mut self, node: NodeId, round: u64) {
        self.last.remove(&node);
        self.first_known.insert(node, round);
    }

    /// Is `node` suspected dead as of `round`?
    pub fn suspected(&self, node: NodeId, round: u64) -> bool {
        match self.last.get(&node) {
            Some((_, last_round)) => round.saturating_sub(*last_round) > self.stale_rounds,
            // Never heard from: the grace window runs from the round the
            // node first became known, so late joiners are not suspected
            // on arrival.
            None => {
                let known = self.first_known.get(&node).copied().unwrap_or(0);
                round.saturating_sub(known) > self.stale_rounds
            }
        }
    }

    /// All currently suspected nodes among `known`.
    pub fn suspects(&self, known: &[NodeId], round: u64) -> Vec<NodeId> {
        known
            .iter()
            .copied()
            .filter(|n| self.suspected(*n, round))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn fresh_heartbeats_keep_node_alive() {
        let mut m = FailureMonitor::new(3);
        m.observe(n(0), 1, 0);
        m.observe(n(0), 2, 2);
        assert!(!m.suspected(n(0), 5));
        assert!(m.suspected(n(0), 6));
    }

    #[test]
    fn stale_sequence_leads_to_suspicion() {
        let mut m = FailureMonitor::new(2);
        m.observe(n(1), 7, 0);
        // Same sequence re-observed later does not refresh liveness.
        m.observe(n(1), 7, 10);
        assert!(m.suspected(n(1), 10));
    }

    #[test]
    fn unknown_node_gets_grace_window() {
        let m = FailureMonitor::new(4);
        assert!(!m.suspected(n(2), 4));
        assert!(m.suspected(n(2), 5));
    }

    #[test]
    fn late_joiner_gets_full_grace_window() {
        // Regression: a node first known at round 10 used to be suspected
        // instantly because the grace window was measured from round 0.
        let mut m = FailureMonitor::new(4);
        m.note_known(n(3), 10);
        assert!(!m.suspected(n(3), 10));
        assert!(!m.suspected(n(3), 14)); // known_round + stale_rounds
        assert!(m.suspected(n(3), 15));
        // A heartbeat then refreshes liveness as usual.
        m.observe(n(3), 1, 15);
        assert!(!m.suspected(n(3), 19));
        assert!(m.suspected(n(3), 20));
    }

    #[test]
    fn note_known_keeps_earliest_round() {
        let mut m = FailureMonitor::new(2);
        m.note_known(n(4), 5);
        m.note_known(n(4), 50);
        assert!(m.suspected(n(4), 8));
    }

    #[test]
    fn heal_after_suspect_clears_on_reconnect() {
        // Regression: a suspected peer that reconnects (transport
        // handshake) must not stay suspected because its restarted
        // heartbeat sequence (1, 2, …) is below the recorded one.
        let mut m = FailureMonitor::new(2);
        m.observe(n(0), 9, 0);
        assert!(m.suspected(n(0), 5), "silent node becomes suspect");
        m.reconnected(n(0), 5);
        assert!(!m.suspected(n(0), 5), "reconnect clears suspicion");
        assert!(!m.suspected(n(0), 7), "grace window re-runs from reconnect");
        // The restarted peer's low sequence counts as progress.
        m.observe(n(0), 1, 7);
        m.observe(n(0), 2, 9);
        assert!(!m.suspected(n(0), 11));
        // But a *stuck* restarted peer is still caught.
        assert!(m.suspected(n(0), 12));
    }

    #[test]
    fn sequence_regression_counts_as_progress() {
        let mut m = FailureMonitor::new(2);
        m.observe(n(1), 100, 0);
        // Restarted node re-beacons from 1 without a reconnect call
        // (e.g. in-process restart on the virtual fabric).
        m.observe(n(1), 1, 10);
        assert!(!m.suspected(n(1), 12), "regressed seq refreshed liveness");
        // Equal sequence still does not refresh.
        m.observe(n(1), 1, 20);
        assert!(m.suspected(n(1), 20));
    }

    #[test]
    fn suspects_filters() {
        let mut m = FailureMonitor::new(1);
        m.observe(n(0), 5, 9);
        m.observe(n(1), 5, 0);
        let known = [n(0), n(1)];
        assert_eq!(m.suspects(&known, 10), vec![n(1)]);
    }
}
