//! Lease-based cache of resolved name bindings, one per node daemon.
//!
//! With a positive lease TTL the name service (see `crate::nameservice`)
//! answers lookups with [`tyco_vm::codec::Packet::NsLease`] grants: the
//! binding plus its re-export epoch, good for the configured TTL. The importing daemon
//! stores the grant here, and any later import of the same `(site, name)`
//! from any site on the node is answered locally — zero wire round-trips
//! — until the lease expires or the owning shard broadcasts an epoch-bump
//! invalidation. This is the naming analogue of the content-addressed
//! `CodeCache`: together they make a warm repeat import fully local.
//!
//! A TTL of zero disables the cache the same way a `CodeCache` capacity
//! of zero does: inserts are dropped and every lookup misses, so call
//! sites never special-case "caching off".

use std::collections::HashMap;
use tyco_vm::codec::TypeStamp;
use tyco_vm::wire::WireWord;

/// A cached binding with its lease deadline.
#[derive(Debug, Clone)]
struct Lease {
    value: WireWord,
    stamp: Option<TypeStamp>,
    epoch: u64,
    expires_ns: u64,
}

/// Counters mirrored into the daemon's [`crate::nameservice::NsStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameCacheStats {
    /// Lookups answered from a live lease.
    pub hits: u64,
    /// Lookups with no cached entry.
    pub misses: u64,
    /// Lookups that found an entry whose lease had run out.
    pub expired: u64,
    /// Entries dropped by an owner's epoch-bump invalidation.
    pub invalidations: u64,
}

/// Per-node cache of leased name bindings.
#[derive(Debug, Default)]
pub struct NameCache {
    entries: HashMap<(String, String), Lease>,
    /// Lease TTL; 0 disables the cache entirely.
    lease_ns: u64,
    pub stats: NameCacheStats,
}

impl NameCache {
    pub fn new(lease_ns: u64) -> NameCache {
        NameCache {
            lease_ns,
            ..NameCache::default()
        }
    }

    /// Is caching enabled at all?
    pub fn enabled(&self) -> bool {
        self.lease_ns > 0
    }

    /// Live entries (diagnostics; expired entries linger until probed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Store a lease granted at `now_ns`. A grant from an older epoch
    /// never replaces a newer one (replies can race an invalidation).
    pub fn insert(
        &mut self,
        site: &str,
        name: &str,
        value: WireWord,
        stamp: Option<TypeStamp>,
        epoch: u64,
        now_ns: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let key = (site.to_string(), name.to_string());
        if let Some(old) = self.entries.get(&key) {
            if old.epoch > epoch {
                return;
            }
        }
        self.entries.insert(
            key,
            Lease {
                value,
                stamp,
                epoch,
                expires_ns: now_ns.saturating_add(self.lease_ns),
            },
        );
    }

    /// Look up a binding at `now_ns`. A hit returns the value, its stamp
    /// and epoch; an expired entry is dropped and counted separately from
    /// a plain miss (the run report surfaces the distinction).
    pub fn get(
        &mut self,
        site: &str,
        name: &str,
        now_ns: u64,
    ) -> Option<(WireWord, Option<TypeStamp>, u64)> {
        let key = (site.to_string(), name.to_string());
        match self.entries.get(&key) {
            None => {
                self.stats.misses += 1;
                None
            }
            Some(l) if now_ns >= l.expires_ns => {
                self.entries.remove(&key);
                self.stats.expired += 1;
                None
            }
            Some(l) => {
                self.stats.hits += 1;
                Some((l.value.clone(), l.stamp.clone(), l.epoch))
            }
        }
    }

    /// Owner bumped the binding's epoch: drop the entry unless we already
    /// hold a lease from that epoch or newer (packets can reorder across
    /// different senders). Returns whether an entry was dropped.
    pub fn invalidate(&mut self, site: &str, name: &str, epoch: u64) -> bool {
        let key = (site.to_string(), name.to_string());
        if let Some(l) = self.entries.get(&key) {
            if l.epoch < epoch {
                self.entries.remove(&key);
                self.stats.invalidations += 1;
                return true;
            }
        }
        false
    }

    /// Drop everything (node restart: leases do not survive a crash).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_vm::word::{NetRef, NodeId, SiteId};

    fn chan(h: u64) -> WireWord {
        WireWord::Chan(NetRef {
            heap_id: h,
            site: SiteId(0),
            node: NodeId(0),
        })
    }

    #[test]
    fn hit_until_ttl_then_expired_then_miss() {
        let mut c = NameCache::new(100);
        c.insert("s", "p", chan(1), None, 1, 1_000);
        assert!(c.get("s", "p", 1_050).is_some());
        assert!(c.get("s", "p", 1_099).is_some());
        // Deadline reached: the entry is dropped and counted as expired…
        assert!(c.get("s", "p", 1_100).is_none());
        // …and the next probe is a plain miss (entry gone).
        assert!(c.get("s", "p", 1_100).is_none());
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.expired, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn invalidation_respects_epochs() {
        let mut c = NameCache::new(1_000);
        c.insert("s", "p", chan(1), None, 2, 0);
        // A stale invalidation (epoch ≤ held) is a no-op.
        assert!(!c.invalidate("s", "p", 2));
        assert!(c.get("s", "p", 1).is_some());
        // A newer epoch drops the lease.
        assert!(c.invalidate("s", "p", 3));
        assert!(c.get("s", "p", 1).is_none());
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn older_epoch_never_replaces_newer() {
        let mut c = NameCache::new(1_000);
        c.insert("s", "p", chan(2), None, 5, 0);
        c.insert("s", "p", chan(1), None, 4, 0);
        match c.get("s", "p", 1) {
            Some((WireWord::Chan(r), _, 5)) => assert_eq!(r.heap_id, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_ttl_disables_everything() {
        let mut c = NameCache::new(0);
        assert!(!c.enabled());
        c.insert("s", "p", chan(1), None, 1, 0);
        assert!(c.is_empty());
        assert!(c.get("s", "p", 0).is_none());
        assert_eq!(c.stats.misses, 1);
    }
}
