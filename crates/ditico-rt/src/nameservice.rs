//! The Network Name Service (§5, "NETWORKS").
//!
//! Conceptually two tables, exactly as in the paper:
//!
//! ```text
//! SiteTable: SiteName → SiteId × IpAddress
//! IdTable:   SiteName × IdName → HeapId
//! ```
//!
//! (Our `IdTable` stores the full network reference — heap id, site id,
//! node — because that is what the paper composes out of the two tables
//! when answering a lookup.)
//!
//! The service is a pure state machine driven by [`Packet`]s, so it can be
//! hosted by any node's daemon, replicated (see [`crate::failure`]) and
//! unit-tested in isolation. Lookups for identifiers not yet exported are
//! parked and answered when the export arrives — this is what makes
//! `import` block until the corresponding `export` executes.
//!
//! There is one service, and [`NsShardMap`] is the only place that decides
//! which node serves a key. The `IdTable` is placed by consistent hashing
//! over the interned `(site, name)` key onto a ring of the first `ring`
//! nodes; registrations and lookups route to the key's owner. The default
//! ring is 1 with lease 0: every key lands on node 0, nothing replicates,
//! every lookup is answered with a plain reply — packet for packet the
//! paper's central service ("all sites know its location in advance"),
//! and still its one scalability bottleneck. A larger ring divides the
//! table: each owner asynchronously ships an epoch-numbered log of applied
//! registrations to its successor on the ring, which serves reads (and
//! takes writes) while the owner is suspected dead. A positive lease TTL
//! additionally grants the importing node a *lease* on every answered
//! binding (see `crate::namecache`); a re-export bumps the binding's epoch
//! and invalidates outstanding lessees. The `SiteTable` stays fully
//! replicated — site names are registered at build time.

use crate::counters::NsStats;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use tyco_vm::codec::{Packet, TypeStamp};
use tyco_vm::digest::Digest;
use tyco_vm::program::ImportKind;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NodeId, SiteId};

/// The shard map: which node owns which slice of the `(site, name)` key
/// space, and which owners are currently believed dead. Shared (`Arc`)
/// between every daemon and the cluster driver; membership is fixed for
/// the duration of a run (nodes `0..ring` own shards), only the down-set
/// mutates, so routing is a hash plus one read-locked set probe. A ring
/// of one is the paper's central service: node 0 owns every key and has
/// no follower to fail over to.
#[derive(Debug)]
pub struct NsShardMap {
    ring: usize,
    lease_ns: u64,
    down: RwLock<HashSet<NodeId>>,
    /// Reads served by a follower because the owner was suspected.
    failovers: AtomicU64,
}

impl NsShardMap {
    pub fn new(ring: usize, lease_ns: u64) -> NsShardMap {
        NsShardMap {
            ring: ring.max(1),
            lease_ns,
            down: RwLock::new(HashSet::new()),
            failovers: AtomicU64::new(0),
        }
    }

    /// Number of shard owners (ring size).
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Lease TTL in nanoseconds (virtual ns under the deterministic
    /// fabric, wall-clock ns under threads).
    pub fn lease_ns(&self) -> u64 {
        self.lease_ns
    }

    /// Position of a key on the ring: 128-bit Murmur3 over the interned
    /// `(site, name)` pair. Membership is fixed per run, so reducing the
    /// digest onto `ring` equal arcs *is* the consistent-hash placement.
    pub fn key_owner(site: &str, name: &str, ring: usize) -> NodeId {
        let mut bytes = Vec::with_capacity(site.len() + name.len() + 1);
        bytes.extend_from_slice(site.as_bytes());
        bytes.push(0); // unambiguous (site, name) framing
        bytes.extend_from_slice(name.as_bytes());
        let d = Digest::of(&bytes);
        NodeId((d.0 % ring.max(1) as u128) as u32)
    }

    /// The node that owns a key's shard.
    pub fn owner(&self, site: &str, name: &str) -> NodeId {
        Self::key_owner(site, name, self.ring)
    }

    /// The shard's replica: the owner's successor on the ring.
    pub fn follower(&self, owner: NodeId) -> NodeId {
        NodeId((owner.0 + 1) % self.ring as u32)
    }

    /// Where to send a register/import for this key *right now*: the
    /// owner, unless it is suspected dead, in which case the follower
    /// (best effort — a doubly-dead pair still routes to the follower).
    /// A ring of one has no follower: the owner it is, dead or not.
    /// Returns the target and whether a failover was taken.
    pub fn route(&self, site: &str, name: &str) -> (NodeId, bool) {
        let owner = self.owner(site, name);
        if self.ring >= 2 && self.is_down(owner) {
            self.failovers.fetch_add(1, Ordering::Relaxed);
            (self.follower(owner), true)
        } else {
            (owner, false)
        }
    }

    /// Replication partner for a node that just applied a registration
    /// for this key: owner ships to follower, follower (acting for a dead
    /// owner) ships back to the owner for when it heals. `None` when the
    /// ring is too small to replicate or the node holds neither role.
    pub fn partner_of(&self, me: NodeId, site: &str, name: &str) -> Option<NodeId> {
        if self.ring < 2 {
            return None;
        }
        let owner = self.owner(site, name);
        let follower = self.follower(owner);
        if me == owner {
            Some(follower)
        } else if me == follower {
            Some(owner)
        } else {
            None
        }
    }

    /// Mark a node suspected dead. Returns true when that moved some
    /// key's route — the node is newly marked, owns a shard and has a
    /// follower — so lookups parked at it are worth re-issuing.
    pub fn mark_down(&self, n: NodeId) -> bool {
        self.down.write().unwrap().insert(n) && self.ring >= 2 && (n.0 as usize) < self.ring
    }

    /// Clear a suspicion (heal). Returns true when it was marked.
    pub fn mark_up(&self, n: NodeId) -> bool {
        self.down.write().unwrap().remove(&n)
    }

    pub fn is_down(&self, n: NodeId) -> bool {
        self.down.read().unwrap().contains(&n)
    }

    /// Failovers taken by `route` so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }
}

/// A parked lookup waiting for its export to arrive. The (site, name)
/// pair it waits on is the key of the `pending` index, not a field.
#[derive(Debug, Clone)]
struct PendingImport {
    req: u64,
    kind: ImportKind,
    reply_to: Identity,
    expect: Option<TypeStamp>,
}

/// The name-service state.
#[derive(Debug, Default, Clone)]
pub struct NameService {
    /// `SiteTable`: site lexeme → (site id, node).
    site_table: HashMap<String, Identity>,
    /// `IdTable`: (site lexeme, identifier) → exported value, its type
    /// stamp (when the exporting site was statically checked), and the
    /// re-export epoch (1 on first export, bumped on every re-export).
    id_table: HashMap<(String, String), (WireWord, Option<TypeStamp>, u64)>,
    /// Lookups waiting for an export, indexed by the (site lexeme,
    /// identifier) they wait on: a register touches exactly its own
    /// waiters instead of scanning every parked lookup in the network.
    pending: HashMap<(String, String), Vec<PendingImport>>,
    /// Lease TTL > 0: answer lookups with lease grants ([`Packet::NsLease`])
    /// instead of plain replies, and track lessees for invalidation.
    lease_mode: bool,
    /// Nodes holding a lease on each key; a re-export drains the set into
    /// [`Packet::NsInvalidate`] packets.
    lessees: HashMap<(String, String), HashSet<NodeId>>,
    /// Replication: this shard ships every applied registration to its
    /// ring successor (or, when acting for a dead owner, back to it).
    /// `None` disables shipping (ring of one).
    repl_partner: Option<NodeId>,
    /// Log position of the last record shipped.
    repl_seq: u64,
    /// Highest log position applied per shipper — links are FIFO, so a
    /// simple per-sender watermark drops duplicates and stale records.
    repl_seen: HashMap<NodeId, u64>,
    /// Structured counters (see [`NsStats`]); the daemon mirrors these
    /// into its own stats after every operation.
    pub stats: NsStats,
}

/// Kind-check an exported value against the requested import kind.
pub fn kind_ok(kind: ImportKind, w: &WireWord) -> bool {
    matches!(
        (kind, w),
        (ImportKind::Name, WireWord::Chan(_)) | (ImportKind::Class, WireWord::Class(_))
    )
}

/// Bind-time type compatibility: refuse the import when both sides carry a
/// stamp and the stamps provably disagree. Fingerprint equality is the
/// fast path; a miss falls back to the structural `compatible` check
/// (canonical forms with *open* rows can differ textually yet unify).
/// Either side unstamped → no static evidence → defer to dynamic checks.
pub fn stamp_ok(expect: &Option<TypeStamp>, actual: &Option<TypeStamp>) -> Result<(), String> {
    let (Some(e), Some(a)) = (expect.as_ref(), actual.as_ref()) else {
        return Ok(());
    };
    if e.fingerprint == a.fingerprint {
        return Ok(());
    }
    if let (Some(et), Some(at)) = (
        tyco_types::parse_canonical(&e.canonical),
        tyco_types::parse_canonical(&a.canonical),
    ) {
        if tyco_types::compatible(&et, &at) {
            return Ok(());
        }
    }
    Err(format!(
        "type mismatch at bind time: importer expects `{}`, exporter provides `{}`",
        e.canonical, a.canonical
    ))
}

impl NameService {
    pub fn new() -> NameService {
        NameService::default()
    }

    /// Register a site (done by the environment when the site is created;
    /// the paper: "site names are registered in a Network Name Service").
    pub fn register_site(&mut self, lexeme: &str, identity: Identity) {
        self.site_table.insert(lexeme.to_string(), identity);
    }

    /// Pending (blocked) lookups.
    pub fn pending_count(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Answer lookups with lease grants and track lessees.
    pub fn set_lease_mode(&mut self, on: bool) {
        self.lease_mode = on;
    }

    /// Set (or clear) the node this shard ships its registration log to.
    pub fn set_repl_partner(&mut self, partner: Option<NodeId>) {
        self.repl_partner = partner;
    }

    /// Current re-export epoch of a binding (0 = never exported).
    pub fn epoch_of(&self, site: &str, name: &str) -> u64 {
        self.id_table
            .get(&(site.to_string(), name.to_string()))
            .map(|(_, _, e)| *e)
            .unwrap_or(0)
    }

    /// Answer a lookup for a key known to be in the `IdTable`, counting
    /// the outcome by reason. In lease mode a successful answer is a
    /// [`Packet::NsLease`] and the requester's node is recorded as a
    /// lessee; failures never grant leases.
    fn answer(
        &mut self,
        req: u64,
        key: &(String, String),
        kind: ImportKind,
        reply_to: Identity,
        expect: &Option<TypeStamp>,
    ) -> Packet {
        let (w, stamp, epoch) = self.id_table.get(key).cloned().expect("answer: known key");
        let (site, name) = (&key.0, &key.1);
        let err = if !kind_ok(kind, &w) {
            self.stats.kind_mismatch += 1;
            Some(format!("`{site}.{name}` has the wrong kind"))
        } else if let Err(e) = stamp_ok(expect, &stamp) {
            self.stats.stamp_mismatch += 1;
            Some(format!("`{site}.{name}`: {e}"))
        } else {
            None
        };
        if let Some(e) = err {
            return Packet::NsImportReply {
                to: reply_to,
                req,
                result: Err(e),
            };
        }
        self.stats.resolved += 1;
        if self.lease_mode {
            self.lessees
                .entry(key.clone())
                .or_default()
                .insert(reply_to.node);
            Packet::NsLease {
                to: reply_to,
                req,
                site: site.clone(),
                name: name.clone(),
                value: w,
                stamp,
                epoch,
            }
        } else {
            Packet::NsImportReply {
                to: reply_to,
                req,
                result: Ok(w),
            }
        }
    }

    /// Handle an `export` registration. Returns reply packets for every
    /// parked lookup this export satisfies, plus invalidations for every
    /// lessee of a re-exported binding and, when the ring has one, the
    /// asynchronous replication record for the ring partner.
    pub fn handle_register(
        &mut self,
        from_site: SiteId,
        site_lexeme: &str,
        name: &str,
        value: WireWord,
        stamp: Option<TypeStamp>,
    ) -> Vec<Packet> {
        self.stats.registers += 1;
        let key = (site_lexeme.to_string(), name.to_string());
        let epoch = self.epoch_of(site_lexeme, name) + 1;
        self.id_table
            .insert(key.clone(), (value.clone(), stamp.clone(), epoch));
        let mut out = Vec::new();
        // A *re*-export revokes outstanding leases: every lessee node is
        // told the epoch moved so its next import misses the cache.
        if epoch > 1 {
            if let Some(nodes) = self.lessees.remove(&key) {
                for n in nodes {
                    self.stats.invalidations += 1;
                    out.push(Packet::NsInvalidate {
                        to: n,
                        site: site_lexeme.to_string(),
                        name: name.to_string(),
                        epoch,
                    });
                }
            }
        }
        // Ship the applied registration to the ring partner (async,
        // epoch-numbered — the partner applies in order and can serve
        // reads if this shard dies).
        if let Some(partner) = self.repl_partner {
            self.repl_seq += 1;
            self.stats.repl_shipped += 1;
            out.push(Packet::NsRepl {
                to: partner,
                seq: self.repl_seq,
                from_site,
                site_lexeme: site_lexeme.to_string(),
                name: name.to_string(),
                value: value.clone(),
                stamp: stamp.clone(),
                epoch,
            });
        }
        for p in self.pending.remove(&key).unwrap_or_default() {
            let reply = self.answer(p.req, &key, p.kind, p.reply_to, &p.expect);
            out.push(reply);
        }
        out
    }

    /// Handle an `import` lookup. Returns the reply packet when the
    /// identifier is known (or known-bad); parks the request otherwise.
    pub fn handle_import(
        &mut self,
        req: u64,
        site: &str,
        name: &str,
        kind: ImportKind,
        reply_to: Identity,
        expect: Option<TypeStamp>,
    ) -> Option<Packet> {
        self.stats.imports += 1;
        // Unknown site lexeme is a permanent error (sites are registered
        // at creation, before any program runs).
        if !self.site_table.contains_key(site) {
            self.stats.unknown_site += 1;
            return Some(Packet::NsImportReply {
                to: reply_to,
                req,
                result: Err(format!("unknown site `{site}`")),
            });
        }
        let key = (site.to_string(), name.to_string());
        if self.id_table.contains_key(&key) {
            Some(self.answer(req, &key, kind, reply_to, &expect))
        } else {
            self.stats.parked += 1;
            self.pending.entry(key).or_default().push(PendingImport {
                req,
                kind,
                reply_to,
                expect,
            });
            None
        }
    }

    /// Apply a replication record shipped by a ring partner. Stale or
    /// duplicate records (per-sender watermark) are dropped; an applied
    /// record also answers any lookups parked *here* for the key — an
    /// import that failed over to this replica unblocks as soon as the
    /// write it is waiting for replicates. Replication never re-ships and
    /// never invalidates: lessees are tracked where the register landed.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_repl(
        &mut self,
        from: NodeId,
        seq: u64,
        _from_site: SiteId,
        site_lexeme: &str,
        name: &str,
        value: WireWord,
        stamp: Option<TypeStamp>,
        epoch: u64,
    ) -> Vec<Packet> {
        let seen = self.repl_seen.entry(from).or_insert(0);
        if seq <= *seen {
            return Vec::new();
        }
        *seen = seq;
        self.stats.repl_applied += 1;
        let key = (site_lexeme.to_string(), name.to_string());
        // Last-writer-wins by epoch: never regress a newer local entry
        // (the owner may have re-exported after the record was shipped).
        if epoch >= self.epoch_of(site_lexeme, name) {
            self.id_table.insert(key.clone(), (value, stamp, epoch));
        }
        let mut out = Vec::new();
        for p in self.pending.remove(&key).unwrap_or_default() {
            let reply = self.answer(p.req, &key, p.kind, p.reply_to, &p.expect);
            out.push(reply);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_vm::word::{NetRef, NodeId};

    fn ident(s: u32, n: u32) -> Identity {
        Identity {
            site: SiteId(s),
            node: NodeId(n),
        }
    }

    fn chan(h: u64) -> WireWord {
        WireWord::Chan(NetRef {
            heap_id: h,
            site: SiteId(0),
            node: NodeId(0),
        })
    }

    #[test]
    fn lookup_after_register() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(7), None)
            .is_empty());
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        match reply {
            Packet::NsImportReply {
                req: 1,
                result: Ok(WireWord::Chan(r)),
                ..
            } => {
                assert_eq!(r.heap_id, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lookup_blocks_until_register() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        assert!(ns
            .handle_import(1, "server", "p", ImportKind::Name, ident(1, 1), None)
            .is_none());
        assert_eq!(ns.pending_count(), 1);
        let replies = ns.handle_register(SiteId(0), "server", "p", chan(3), None);
        assert_eq!(replies.len(), 1);
        assert_eq!(ns.pending_count(), 0);
        match &replies[0] {
            Packet::NsImportReply {
                req: 1,
                result: Ok(_),
                to,
            } => {
                assert_eq!(*to, ident(1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_site_is_permanent_error() {
        let mut ns = NameService::new();
        let reply = ns
            .handle_import(1, "mars", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        assert!(matches!(
            reply,
            Packet::NsImportReply { result: Err(_), .. }
        ));
    }

    #[test]
    fn kind_mismatch_is_error() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(0), None);
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Class, ident(1, 1), None)
            .unwrap();
        assert!(matches!(
            reply,
            Packet::NsImportReply { result: Err(_), .. }
        ));
        // And the parked-then-registered path checks kinds too.
        assert!(ns
            .handle_import(2, "server", "k", ImportKind::Class, ident(1, 1), None)
            .is_none());
        let replies = ns.handle_register(SiteId(0), "server", "k", chan(1), None);
        assert!(matches!(
            &replies[0],
            Packet::NsImportReply { result: Err(_), .. }
        ));
    }

    #[test]
    fn multiple_waiters_all_answered() {
        let mut ns = NameService::new();
        ns.register_site("s", ident(0, 0));
        for req in 0..5 {
            assert!(ns
                .handle_import(req, "s", "x", ImportKind::Name, ident(req as u32, 0), None)
                .is_none());
        }
        let replies = ns.handle_register(SiteId(0), "s", "x", chan(9), None);
        assert_eq!(replies.len(), 5);
    }

    fn stamp_of(src: &str) -> TypeStamp {
        // Build a stamp the way the environment does: canonicalize + hash.
        let t = tyco_types::parse_canonical(src).expect("canonical parses");
        TypeStamp {
            fingerprint: tyco_types::fingerprint(&t),
            canonical: tyco_types::canonical(&t),
        }
    }

    #[test]
    fn stamp_mismatch_is_refused_at_bind_time() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        ns.handle_register(
            SiteId(0),
            "server",
            "p",
            chan(0),
            Some(stamp_of("^{val(int)}")),
        );
        // An importer expecting a bool-channel is refused with a typed
        // error naming both protocols.
        let reply = ns
            .handle_import(
                1,
                "server",
                "p",
                ImportKind::Name,
                ident(1, 1),
                Some(stamp_of("^{val(bool)}")),
            )
            .unwrap();
        match reply {
            Packet::NsImportReply {
                result: Err(e),
                req: 1,
                ..
            } => {
                assert!(e.contains("type mismatch at bind time"), "{e}");
                assert!(
                    e.contains("^{val(bool)}") && e.contains("^{val(int)}"),
                    "{e}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // A matching expectation succeeds.
        let reply = ns
            .handle_import(
                2,
                "server",
                "p",
                ImportKind::Name,
                ident(1, 1),
                Some(stamp_of("^{val(int)}")),
            )
            .unwrap();
        assert!(matches!(reply, Packet::NsImportReply { result: Ok(_), .. }));
        // An unstamped importer is let through (no static evidence).
        let reply = ns
            .handle_import(3, "server", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        assert!(matches!(reply, Packet::NsImportReply { result: Ok(_), .. }));
    }

    #[test]
    fn stamp_open_row_falls_back_to_structural_check() {
        // Fingerprints differ (one row is open) but the types unify:
        // the structural fallback must accept.
        let e = stamp_of("^{val(int)|r0}");
        let a = stamp_of("^{val(int)}");
        assert_ne!(e.fingerprint, a.fingerprint);
        assert!(stamp_ok(&Some(e), &Some(a)).is_ok());
    }

    #[test]
    fn stamp_mismatch_on_parked_lookup() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        assert!(ns
            .handle_import(
                7,
                "server",
                "late",
                ImportKind::Name,
                ident(1, 1),
                Some(stamp_of("^{val(string)}")),
            )
            .is_none());
        let replies = ns.handle_register(
            SiteId(0),
            "server",
            "late",
            chan(4),
            Some(stamp_of("^{val(float)}")),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            &replies[0],
            Packet::NsImportReply { result: Err(_), .. }
        ));
        assert_eq!(ns.stats.stamp_mismatch, 1);
    }

    #[test]
    fn failure_reasons_are_counted_distinctly() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(0), None);
        ns.handle_import(1, "mars", "p", ImportKind::Name, ident(1, 1), None);
        ns.handle_import(2, "server", "p", ImportKind::Class, ident(1, 1), None);
        ns.handle_import(3, "server", "p", ImportKind::Name, ident(1, 1), None);
        ns.handle_import(4, "server", "ghost", ImportKind::Name, ident(1, 1), None);
        assert_eq!(ns.stats.imports, 4);
        assert_eq!(ns.stats.unknown_site, 1);
        assert_eq!(ns.stats.kind_mismatch, 1);
        assert_eq!(ns.stats.resolved, 1);
        assert_eq!(ns.stats.parked, 1);
    }

    #[test]
    fn lease_mode_grants_and_reexport_invalidates_lessees() {
        let mut ns = NameService::new();
        ns.set_lease_mode(true);
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(7), None);
        assert_eq!(ns.epoch_of("server", "p"), 1);
        // Two importing nodes take leases; a third request from an
        // already-leased node does not duplicate the lessee entry.
        for (req, node) in [(1, 1), (2, 2), (3, 1)] {
            let reply = ns
                .handle_import(req, "server", "p", ImportKind::Name, ident(9, node), None)
                .unwrap();
            match reply {
                Packet::NsLease { epoch: 1, to, .. } => assert_eq!(to.node, NodeId(node)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Re-export: epoch bumps and both lessee nodes are invalidated.
        let out = ns.handle_register(SiteId(0), "server", "p", chan(8), None);
        assert_eq!(ns.epoch_of("server", "p"), 2);
        let mut invalidated: Vec<u32> = out
            .iter()
            .map(|p| match p {
                Packet::NsInvalidate {
                    to, epoch: 2, name, ..
                } => {
                    assert_eq!(name, "p");
                    to.0
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        invalidated.sort_unstable();
        assert_eq!(invalidated, vec![1, 2]);
        assert_eq!(ns.stats.invalidations, 2);
        // Lessee set drained: a third export invalidates nobody.
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(9), None)
            .is_empty());
    }

    #[test]
    fn errors_never_grant_leases() {
        let mut ns = NameService::new();
        ns.set_lease_mode(true);
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(0), None);
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Class, ident(1, 3), None)
            .unwrap();
        assert!(matches!(
            reply,
            Packet::NsImportReply { result: Err(_), .. }
        ));
        // The refused node is not a lessee: re-export invalidates nobody.
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(1), None)
            .is_empty());
    }

    #[test]
    fn registrations_ship_to_partner_and_apply_in_order() {
        let mut owner = NameService::new();
        let mut follower = NameService::new();
        owner.register_site("server", ident(0, 0));
        follower.register_site("server", ident(0, 0));
        owner.set_repl_partner(Some(NodeId(1)));
        let out = owner.handle_register(SiteId(0), "server", "p", chan(7), None);
        assert_eq!(out.len(), 1);
        let Packet::NsRepl {
            to: NodeId(1),
            seq,
            from_site,
            site_lexeme,
            name,
            value,
            stamp,
            epoch,
        } = out[0].clone()
        else {
            panic!("unexpected {:?}", out[0]);
        };
        assert_eq!((seq, epoch), (1, 1));
        // A lookup parked at the follower is answered by the record.
        assert!(follower
            .handle_import(5, "server", "p", ImportKind::Name, ident(1, 2), None)
            .is_none());
        let replies = follower.apply_repl(
            NodeId(0),
            seq,
            from_site,
            &site_lexeme,
            &name,
            value.clone(),
            stamp.clone(),
            epoch,
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            &replies[0],
            Packet::NsImportReply { result: Ok(_), .. }
        ));
        assert_eq!(follower.epoch_of("server", "p"), 1);
        // A duplicate delivery of the same record is dropped.
        assert!(follower
            .apply_repl(
                NodeId(0),
                seq,
                from_site,
                &site_lexeme,
                &name,
                value,
                stamp,
                epoch
            )
            .is_empty());
        assert_eq!(follower.stats.repl_applied, 1);
    }

    #[test]
    fn stale_repl_never_regresses_a_newer_epoch() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        // Local state is already at epoch 3...
        for h in [1, 2, 3] {
            ns.handle_register(SiteId(0), "server", "p", chan(h), None);
        }
        // ...and a late record carrying epoch 1 must not clobber it (it
        // advances the watermark but leaves the table alone).
        ns.apply_repl(NodeId(9), 1, SiteId(0), "server", "p", chan(99), None, 1);
        assert_eq!(ns.epoch_of("server", "p"), 3);
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        match reply {
            Packet::NsImportReply {
                result: Ok(WireWord::Chan(r)),
                ..
            } => assert_eq!(r.heap_id, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_map_routes_to_owner_and_fails_over() {
        let map = NsShardMap::new(4, 1_000_000);
        let owner = map.owner("server", "p");
        assert!(owner.0 < 4);
        assert_eq!(map.route("server", "p"), (owner, false));
        // Placement is deterministic and spreads keys: with 64 keys and
        // 4 shards every shard should own at least one.
        let mut seen = HashSet::new();
        for i in 0..64 {
            seen.insert(NsShardMap::key_owner("site", &format!("n{i}"), 4));
        }
        assert_eq!(seen.len(), 4);
        // Down owner → reads route to the ring successor.
        map.mark_down(owner);
        let follower = map.follower(owner);
        assert_eq!(map.route("server", "p"), (follower, true));
        assert_eq!(map.failovers(), 1);
        // Partner roles: owner ships to follower and vice versa.
        assert_eq!(map.partner_of(owner, "server", "p"), Some(follower));
        assert_eq!(map.partner_of(follower, "server", "p"), Some(owner));
        // Heal restores owner routing.
        map.mark_up(owner);
        assert_eq!(map.route("server", "p"), (owner, false));
    }

    #[test]
    fn ring_of_one_is_the_central_service_and_cannot_fail_over() {
        let solo = NsShardMap::new(1, 0);
        assert_eq!(solo.route("s", "n"), (NodeId(0), false));
        assert_eq!(solo.partner_of(NodeId(0), "s", "n"), None);
        // The follower of the only owner is that owner: a downed node 0
        // moves no route and counts no failover.
        assert!(!solo.mark_down(NodeId(0)), "no key moved");
        assert_eq!(solo.route("s", "n"), (NodeId(0), false));
        assert_eq!(solo.failovers(), 0);
    }

    #[test]
    #[should_panic(expected = "ring of 3 does not fit a topology of 2 node(s)")]
    fn ring_larger_than_the_topology_is_refused() {
        use crate::{Cluster, LinkProfile, RunLimits};
        let mut c = Cluster::new(LinkProfile::ideal(), 3);
        c.add_node();
        c.add_node();
        c.run_deterministic(RunLimits::default());
    }
}
