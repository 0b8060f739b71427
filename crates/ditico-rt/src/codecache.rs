//! Node-level content-addressed store for mobile code.
//!
//! Byte-code is immutable once packaged (§5 of the paper), so a node
//! never needs to hold — or receive — two copies of the same image. An
//! image ([`WireCode`]) is its canonical bytes and their digest, fixed
//! when it was made; the store is keyed by that digest, and what a
//! deduplicated shipment saves is the length of those bytes. The TyCOd
//! daemon keeps one [`CodeCache`] and uses it in three ways:
//!
//! * **receive-side cache** — every full code-carrying packet that passes
//!   the verifier and whose bytes hash to the digest it carries is
//!   inserted, decoded parts and all, with a copy of its bytes of its own
//!   (a decoded image's bytes are a view into the frame it came in);
//!   digest-only packets
//!   ([`Packet::ObjRef`](tyco_vm::codec::Packet::ObjRef) /
//!   [`Packet::FetchReplyRef`](tyco_vm::codec::Packet::FetchReplyRef))
//!   rehydrate from it without re-verification (verify-once);
//! * **send-side dedup** — the cache remembers which peer nodes were
//!   already shipped each digest, so repeat shipments go out digest-only;
//! * **negotiation backstop** — a `NeedCode` for a digest this node still
//!   holds is answered with `HaveCode` (the sender keeps its own outbound
//!   images in the same store, inserted before the dedup decision, so a
//!   digest it advertises is always answerable while cached). An
//!   outbound image holds its bytes only: the exporter never decodes what
//!   it packed.
//!
//! Capacity 0 is a store that holds nothing, not a mode: the daemon never
//! asks for the capacity, so at 0 every shipment is a full image — still
//! digest-checked on arrival — and concurrent fetches still coalesce.
//!
//! Eviction is FIFO by insertion order with a configurable capacity; an
//! evicted digest also forgets its shipped-to set, which downgrades the
//! next send to a full shipment (correct, just not deduplicated). A
//! receiver that evicted an image a peer still advertises recovers through
//! the `NeedCode`/`HaveCode` round trip.

use std::collections::{HashMap, HashSet, VecDeque};
use tyco_vm::word::NodeId;
use tyco_vm::{Digest, WireCode};

struct Entry {
    code: WireCode,
    /// Peer nodes this node has already shipped the full image to.
    shipped: HashSet<NodeId>,
}

/// A bounded content-addressed store of verified code images.
pub struct CodeCache {
    entries: HashMap<Digest, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Digest>,
    capacity: usize,
    /// Total insertions (diagnostics).
    pub insertions: u64,
    /// Entries dropped to honor the capacity bound.
    pub evictions: u64,
}

impl CodeCache {
    /// A cache holding at most `capacity` images. Zero is a store that
    /// holds nothing: every insert is a no-op and every lookup misses, so
    /// the daemon — which never asks for the capacity — ships and receives
    /// full images every time, digest-checking each one on arrival.
    pub fn new(capacity: usize) -> CodeCache {
        CodeCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            insertions: 0,
            evictions: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shrinking below the current population evicts oldest-first.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_to_capacity();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, d: &Digest) -> bool {
        self.entries.contains_key(d)
    }

    /// The stored image for `d`, if present.
    pub fn get(&self, d: &Digest) -> Option<&WireCode> {
        self.entries.get(d).map(|e| &e.code)
    }

    /// Wire size of the stored image (0 when absent): the length of its
    /// bytes, what a deduplicated shipment saves besides the digest it
    /// still carries.
    pub fn wire_len(&self, d: &Digest) -> u64 {
        self.get(d).map_or(0, |code| code.bytes().len() as u64)
    }

    /// Insert a *verified* image under its digest. The caller is the
    /// trust boundary: nothing in here re-checks the code. Re-inserting
    /// an existing digest is a cheap no-op that keeps its shipped-to
    /// history.
    pub fn insert(&mut self, code: &WireCode) {
        let d = code.digest();
        if self.capacity == 0 || self.entries.contains_key(&d) {
            return;
        }
        self.insertions += 1;
        self.entries.insert(
            d,
            Entry {
                code: code.clone(),
                shipped: HashSet::new(),
            },
        );
        self.order.push_back(d);
        self.evict_to_capacity();
    }

    /// Has the full image for `d` already been shipped to `node`?
    pub fn was_shipped(&self, d: &Digest, node: NodeId) -> bool {
        self.entries
            .get(d)
            .is_some_and(|e| e.shipped.contains(&node))
    }

    /// Record that `node` received the full image for `d`.
    pub fn mark_shipped(&mut self, d: &Digest, node: NodeId) {
        if let Some(e) = self.entries.get_mut(d) {
            e.shipped.insert(node);
        }
    }

    fn evict_to_capacity(&mut self) {
        while self.entries.len() > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&old);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An image of one empty method, labelled `l{tag}`.
    fn code(tag: u32) -> (Digest, WireCode) {
        let asm = format!(".block 0 \"m\" free=0 params=0 locals=0\n.table 0\n    l{tag} -> 0\n");
        let code = tyco_vm::pack(&tyco_vm::parse_asm(&asm).unwrap(), &[0]).code;
        (code.digest(), code)
    }

    #[test]
    fn insert_get_roundtrip_and_idempotence() {
        let mut c = CodeCache::new(4);
        let (d, w) = code(1);
        c.insert(&w);
        assert!(c.contains(&d));
        assert_eq!(c.get(&d), Some(&w));
        c.mark_shipped(&d, NodeId(7));
        // Re-insert keeps the entry and its shipped set.
        c.insert(&w);
        assert_eq!(c.len(), 1);
        assert_eq!(c.insertions, 1);
        assert!(c.was_shipped(&d, NodeId(7)));
        assert!(!c.was_shipped(&d, NodeId(8)));
    }

    #[test]
    fn wire_len_is_the_stored_bytes_length() {
        let mut c = CodeCache::new(4);
        let (d, w) = code(1);
        c.insert(&w);
        assert_eq!(c.wire_len(&d), w.bytes().len() as u64);
        let (absent, _) = code(2);
        assert_eq!(c.wire_len(&absent), 0);
    }

    #[test]
    fn capacity_bound_is_honored_fifo() {
        let mut c = CodeCache::new(3);
        let items: Vec<_> = (0..5).map(code).collect();
        for (_, w) in &items {
            c.insert(w);
        }
        assert_eq!(c.len(), 3, "never exceeds capacity");
        assert_eq!(c.evictions, 2);
        // Oldest two are gone, newest three remain.
        assert!(!c.contains(&items[0].0));
        assert!(!c.contains(&items[1].0));
        for (d, _) in &items[2..] {
            assert!(c.contains(d));
        }
    }

    #[test]
    fn eviction_forgets_shipped_history() {
        let mut c = CodeCache::new(1);
        let (d1, w1) = code(1);
        let (_, w2) = code(2);
        c.insert(&w1);
        c.mark_shipped(&d1, NodeId(3));
        c.insert(&w2);
        assert!(!c.contains(&d1));
        assert!(
            !c.was_shipped(&d1, NodeId(3)),
            "evicted digest has no shipped history"
        );
        // Re-inserting after eviction starts fresh.
        c.insert(&w1);
        assert!(!c.was_shipped(&d1, NodeId(3)));
    }

    #[test]
    fn zero_capacity_disables_the_store() {
        let mut c = CodeCache::new(0);
        let (d, w) = code(1);
        c.insert(&w);
        assert!(c.is_empty());
        assert!(!c.contains(&d));
        assert_eq!(c.insertions, 0);
        c.mark_shipped(&d, NodeId(0));
        assert!(!c.was_shipped(&d, NodeId(0)));
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut c = CodeCache::new(4);
        let items: Vec<_> = (0..4).map(code).collect();
        for (_, w) in &items {
            c.insert(w);
        }
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&items[0].0));
        assert!(!c.contains(&items[1].0));
        assert!(c.contains(&items[2].0));
        assert!(c.contains(&items[3].0));
    }
}
