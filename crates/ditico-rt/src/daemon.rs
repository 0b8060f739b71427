//! TyCOd — the per-node communication daemon (§5, Fig. 4).
//!
//! *"The TyCOd daemon is responsible for all the data exchange between
//! sites in the network. Interactions between sites may be local, when
//! sites belong to the same node, or remote when the sites belong to
//! different nodes. Local interactions are optimized using shared
//! memory."*
//!
//! The remote path is the paper's 3-step protocol: (1) the site places a
//! packaged process on its outgoing queue; (2) the local TyCOd reads the
//! destination from the network reference and forwards the bytes through
//! the fabric to the remote TyCOd; (3) the remote TyCOd places it on the
//! destination site's incoming queue. The local path skips the fabric and
//! the byte codec entirely — packets move by reference.
//!
//! A daemon on the name-service ring (see [`NsShardMap`]) also hosts its
//! shard of the name service and answers `export`/`import` traffic.
//!
//! Code mobility rides through here too: the daemon keeps the node's
//! content-addressed [`CodeCache`] and uses it to (a) fingerprint-check
//! and cache every full code image that crosses the fabric, (b) downgrade
//! repeat shipments of a cached image to digest-only packets
//! (`ObjRef`/`FetchReplyRef`, with a `NeedCode`/`HaveCode` refill round
//! trip as the backstop), and (c) fold concurrent `FetchReq`s for the
//! same remote class into one in-flight request whose reply is fanned
//! back out to every coalesced waiter (single-flight).

use crate::codecache::CodeCache;
use crate::counters::{DaemonStats, NsStats};
use crate::fabric::{Clock, Fabric, Frames, PacketFabric};
use crate::namecache::NameCache;
use crate::nameservice::{kind_ok, stamp_ok, NameService, NsShardMap};
use crate::site::RtIncoming;
use crate::termination::{TermCounters, Ticket};
use crate::wake::Wake;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tyco_vm::codec::{self, Class, Packet};
use tyco_vm::port::Incoming;
use tyco_vm::wire::{WireCode, WireGroup, WireObj};
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};
use tyco_vm::Digest;

/// Default capacity of the per-node code store, in images (not bytes).
pub const DEFAULT_CODE_CACHE: usize = 256;

/// Ticks of the refill clock between `NeedCode` re-asks. The run loop
/// ticks it (`Cluster::run`): on the virtual clock once per idle round,
/// on the wall clock once per elapsed millisecond while refills are
/// parked, so there a re-ask comes every 100 ms.
pub const REFILL_RETRY_TICKS: u32 = 100;

/// Total `NeedCode` attempts per missing digest before the parked
/// packets are rejected. Bounds the park/retry loop: a peer that lost
/// the image (or a link that eats every ask) costs at most
/// `REFILL_MAX_ASKS × REFILL_RETRY_TICKS` idle ticks, never a hang.
pub const REFILL_MAX_ASKS: u32 = 4;

/// Digest-only packets parked behind one missing code image, plus the
/// retry bookkeeping that bounds the refill protocol (see
/// [`Daemon::tick_refills`]).
struct ParkedCode {
    pkts: Vec<(Packet, Ticket)>,
    /// Whom to (re-)ask: the most recent sender of a ref for this digest
    /// provably holds the image (or held it moments ago).
    from: NodeId,
    /// Idle ticks since the last `NeedCode` went out.
    ticks: u32,
    /// `NeedCode` attempts so far (the first ask counts).
    asks: u32,
}

/// An outgoing batch for one destination node: each packet is encoded
/// once, framed, into a buffer the next flush reuses ([`Frames`]).
#[derive(Default)]
struct OutBuf {
    frames: Frames,
    /// The buffered packets' tickets, as one.
    ticket: Option<Ticket>,
}

/// Destinations below this node id have their batch in a dense vector;
/// a topology's ids count up from 0, so beyond it is only an id a peer
/// made up, which a map holds instead.
const DENSE_NODES: usize = 1024;

/// A local site as its daemon sees it: the inbox, the deliveries the
/// pump buffered for it, plus the site's delivery wakeup (its scheduler
/// [`crate::sched::ReadyHandle`]) once a real-thread run has bound one.
struct LocalSite {
    inbox: Sender<(RtIncoming, Ticket)>,
    /// Flushed to the inbox once per pump (one inbox lock + one wakeup
    /// per site per pump).
    buf: Vec<(RtIncoming, Ticket)>,
    waker: Option<Arc<dyn Wake>>,
}

/// Site wakeups taken out of a daemon ([`Daemon::take_woken`]), to fire
/// once it is unlocked. The first few are held in place, so a pump that
/// readied a site or two allocates nothing; `woken` keeps its buffer.
#[derive(Default)]
pub struct Woken {
    few: [Option<Arc<dyn Wake>>; 4],
    more: Vec<Arc<dyn Wake>>,
}

impl Woken {
    /// Wake every site, in delivery order.
    pub fn fire(self) {
        for w in self.few.into_iter().flatten().chain(self.more) {
            w.wake();
        }
    }
}

/// The per-node communication daemon.
pub struct Daemon {
    pub node: NodeId,
    /// The node's sites, by site id.
    sites: Vec<Option<LocalSite>>,
    /// Wakeups of the sites the last pumps delivered to, not yet fired:
    /// whoever pumped fires them once it has let go of the daemon (see
    /// [`Daemon::take_woken`]).
    woken: Vec<Arc<dyn Wake>>,
    /// Shared outgoing queue of all local sites.
    from_sites: Receiver<(SiteId, Packet, Ticket)>,
    /// Inbound packets from other nodes.
    from_fabric: Receiver<(NodeId, Bytes, Ticket)>,
    /// The outbound network: the in-process fabric, or (in distributed
    /// runs) the TCP transport's handle, swapped in via [`Daemon::set_fabric`].
    fabric: Arc<dyn PacketFabric>,
    /// Outgoing frames per destination node, by node id, flushed to the
    /// fabric once per pump (per-link FIFO; buffers keep their
    /// allocation). Ids from [`DENSE_NODES`] on go in `far_out_bufs`.
    out_bufs: Vec<OutBuf>,
    far_out_bufs: HashMap<NodeId, OutBuf>,
    /// Reusable drain buffers for the two inbound queues.
    scratch_pkts: Vec<(SiteId, Packet, Ticket)>,
    scratch_bytes: Vec<(NodeId, Bytes, Ticket)>,
    /// This node's shard of the name service, when it is on the ring.
    pub ns: Option<NameService>,
    /// The cluster-shared shard map: which node serves which key.
    shard: Arc<NsShardMap>,
    /// Leased bindings held by this node (consulted when the map's lease
    /// TTL is positive).
    name_cache: NameCache,
    /// Daemon-side name-service counters: shard hops plus imports this
    /// daemon answered from its lease cache (the name service and the
    /// cache keep their own; [`Daemon::sync_ns_stats`] folds all three
    /// into `stats.ns`).
    ns_local: NsStats,
    /// What lease TTLs and the modeled resolver are timed by: the
    /// fabric's virtual clock for a bare daemon; a run sets its own
    /// ([`Daemon::set_clock`]).
    clock: Clock,
    /// Modeled per-request service time of the hosted name service, in
    /// clock ns. 0 (the default) serves requests instantaneously; a
    /// positive value queues `NsRegister`/`NsImport` behind a single
    /// modeled resolver — the discrete-event analogue of the serial CPU
    /// cost the paper's central server pays per bind, which is what the
    /// sharded service divides across owners.
    ns_service_ns: u64,
    /// Completion time of the request the modeled resolver is serving.
    ns_busy_until: u64,
    /// Requests waiting for the modeled resolver, FIFO with arrival time.
    ns_backlog: std::collections::VecDeque<(u64, Packet, Ticket)>,
    /// Liveness info gathered from heartbeats: node → latest sequence.
    pub heartbeats: HashMap<NodeId, u64>,
    pub stats: DaemonStats,
    term: &'static TermCounters,
    hb_seq: u64,
    /// The node's content-addressed store of verified code images.
    store: CodeCache,
    /// Digest-only packets parked until a `HaveCode` refill arrives (or a
    /// tombstone reports the image gone, which rejects them), with
    /// bounded-retry bookkeeping per digest.
    awaiting_code: HashMap<Digest, ParkedCode>,
    /// Single-flight: remote class → the coalesced fetches waiting on the
    /// one request in flight, each holding its request's ticket for the
    /// reply it will get.
    inflight: HashMap<NetRef, Vec<(Identity, u64, Ticket)>>,
    /// Reverse index: the in-flight leader's reply key `(to, req)` → the
    /// class it fetched, so the reply can be fanned out to the waiters.
    inflight_leader: HashMap<(Identity, u64), NetRef>,
}

impl Daemon {
    /// A daemon for `node`. It hosts a name service iff the node is on
    /// `shard`'s ring (the cluster replays site registrations into it),
    /// lease-granting iff the map's TTL is positive.
    pub fn new(
        node: NodeId,
        from_sites: Receiver<(SiteId, Packet, Ticket)>,
        from_fabric: Receiver<(NodeId, Bytes, Ticket)>,
        fabric: Fabric,
        shard: Arc<NsShardMap>,
        term: &'static TermCounters,
    ) -> Daemon {
        let ns = ((node.0 as usize) < shard.ring()).then(|| {
            let mut ns = NameService::new();
            ns.set_lease_mode(shard.lease_ns() > 0);
            ns
        });
        Daemon {
            node,
            clock: Clock::Virtual(fabric.clone()),
            sites: Vec::new(),
            woken: Vec::new(),
            from_sites,
            from_fabric,
            fabric: Arc::new(fabric),
            out_bufs: Vec::new(),
            far_out_bufs: HashMap::new(),
            scratch_pkts: Vec::new(),
            scratch_bytes: Vec::new(),
            ns,
            name_cache: NameCache::new(shard.lease_ns()),
            shard,
            ns_local: NsStats::default(),
            ns_service_ns: 0,
            ns_busy_until: 0,
            ns_backlog: std::collections::VecDeque::new(),
            heartbeats: HashMap::new(),
            stats: DaemonStats::default(),
            term,
            hb_seq: 0,
            store: CodeCache::new(DEFAULT_CODE_CACHE),
            awaiting_code: HashMap::new(),
            inflight: HashMap::new(),
            inflight_leader: HashMap::new(),
        }
    }

    /// Resize the content-addressed code store. Zero is a store that
    /// holds nothing: every shipment from and to this node is a full
    /// image, still digest-checked on arrival.
    pub fn set_code_cache(&mut self, capacity: usize) {
        self.store.set_capacity(capacity);
        self.stats.cache.evictions = self.store.evictions;
    }

    /// Images currently held by the code store.
    pub fn code_cache_len(&self) -> usize {
        self.store.len()
    }

    /// Attach a local site's inbox. Until [`set_site_waker`](Daemon::set_site_waker)
    /// binds it to a scheduler, delivery wakes nobody: deterministic runs
    /// pump every site round-robin.
    pub fn attach_site(&mut self, site: SiteId, inbox: Sender<(RtIncoming, Ticket)>) {
        let i = site.0 as usize;
        if i >= self.sites.len() {
            self.sites.resize_with(i + 1, || None);
        }
        self.sites[i] = Some(LocalSite {
            inbox,
            buf: Vec::new(),
            waker: None,
        });
    }

    /// Bind a site's delivery wakeup to the scheduler's readiness
    /// protocol (real-thread runs, before the workers start).
    pub fn set_site_waker(&mut self, site: SiteId, waker: Arc<dyn Wake>) {
        if let Some(Some(entry)) = self.sites.get_mut(site.0 as usize) {
            entry.waker = Some(waker);
        }
    }

    /// The wakeups of every site the pumps since the last call delivered
    /// to, in delivery order. A pump never fires them itself: a woken
    /// worker runs at once, and its slice ends by kicking this daemon —
    /// which it must find unlocked. The pumper fires them after releasing
    /// the daemon ([`DaemonCell`] does). Empty in deterministic runs,
    /// where no site has a wakeup bound.
    pub fn take_woken(&mut self) -> Woken {
        let mut out = Woken::default();
        if self.woken.len() > out.few.len() {
            out.more = std::mem::take(&mut self.woken);
        } else {
            for (slot, w) in out.few.iter_mut().zip(self.woken.drain(..)) {
                *slot = Some(w);
            }
        }
        out
    }

    /// Replace the outbound network. Distributed runs rebind each local
    /// daemon to the TCP transport's handle so packets addressed to
    /// remote nodes leave the process; in-process runs never call this.
    pub fn set_fabric(&mut self, fabric: Arc<dyn PacketFabric>) {
        self.fabric = fabric;
    }

    /// Read lease TTLs and the modeled resolver on `clock`.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Set the modeled name-service resolver cost (see `ns_service_ns`).
    pub fn set_ns_service_ns(&mut self, service_ns: u64) {
        self.ns_service_ns = service_ns;
    }

    /// When the modeled resolver holds queued requests, the clock time at
    /// which the next one finishes service — the deterministic runner
    /// folds this into its idle advance so a backlog is always drained.
    pub fn ns_backlog_next_due(&self) -> Option<u64> {
        self.ns_backlog.front().map(|&(arrival, ..)| {
            self.ns_busy_until
                .max(arrival)
                .saturating_add(self.ns_service_ns)
        })
    }

    /// Serve backlogged requests the modeled resolver has had time to
    /// finish: each occupies it for `ns_service_ns`, so a burst drains
    /// one service quantum at a time as the clock passes completions.
    fn drain_ns_backlog(&mut self) -> bool {
        if self.ns_backlog.is_empty() {
            return false;
        }
        let now = self.clock.now_ns();
        let mut progress = false;
        while let Some(&(arrival, ..)) = self.ns_backlog.front() {
            let done = self
                .ns_busy_until
                .max(arrival)
                .saturating_add(self.ns_service_ns);
            if done > now {
                break;
            }
            self.ns_busy_until = done;
            let (_, p, ticket) = self.ns_backlog.pop_front().expect("peeked");
            self.serve_ns_request(p, ticket);
            progress = true;
        }
        progress
    }

    /// Fold the three name-service counter sources — the hosted shard's
    /// service, the node's lease cache, and the daemon's own routing
    /// counters — into the reportable `stats.ns`.
    fn sync_ns_stats(&mut self) {
        let served = self.ns.as_ref().map(|ns| ns.stats).unwrap_or_default();
        let leased = self.name_cache.stats.into();
        self.stats.ns = [self.ns_local, served, leased].into_iter().sum();
    }

    /// Drain both queues once (each backlog moves under a single queue
    /// lock), then flush the per-site and per-destination outgoing
    /// batches. Returns whether anything was processed. Sites delivered
    /// to are not woken here; their wakeups wait in
    /// [`take_woken`](Daemon::take_woken).
    pub fn pump(&mut self) -> bool {
        let mut progress = self.drain_ns_backlog();
        let mut pkts = std::mem::take(&mut self.scratch_pkts);
        if self.from_sites.drain_into(&mut pkts) > 0 {
            progress = true;
            for (_, packet, ticket) in pkts.drain(..) {
                self.route(packet, ticket);
            }
        }
        self.scratch_pkts = pkts;
        let mut raw = std::mem::take(&mut self.scratch_bytes);
        if self.from_fabric.drain_into(&mut raw) > 0 {
            progress = true;
            for (from, bytes, ticket) in raw.drain(..) {
                self.stats.remote_recvs += 1;
                match codec::decode(bytes) {
                    Ok(packet) if Self::screen(&packet).is_none() => {
                        self.ingest(from, packet, ticket);
                    }
                    // Undecodable bytes and code the verifier refuses are
                    // dropped and counted; the daemon (and the node's
                    // sites) stay up.
                    _ => self.reject(ticket),
                }
            }
        }
        self.scratch_bytes = raw;
        self.flush_local();
        self.flush_remote();
        if progress {
            self.sync_ns_stats();
        }
        progress
    }

    /// Drop a fabric packet at the trust boundary, or one that can never
    /// be completed: counted, and consumed with its ticket.
    fn reject(&mut self, ticket: Ticket) {
        self.stats.rejected += 1;
        drop(ticket);
    }

    /// A ticket for one packet this daemon makes.
    fn mint(&self) -> Ticket {
        Ticket::mint(self.term, 1)
    }

    /// Static screening of mobile code arriving from the fabric (§6: the
    /// receiver cannot trust that shipped byte-code was produced by our
    /// compiler). Returns a reason to reject, or `None` to admit. Packets
    /// without code images pass through; their field-level validation
    /// happened in the codec. [`pump`](Daemon::pump) is the only caller:
    /// bytes read off a TCP socket reach it unopened, so this is where
    /// the process boundary is screened too.
    fn screen(p: &Packet) -> Option<String> {
        let (code, table) = match p {
            Packet::Obj { obj, .. } => (&obj.code, obj.table),
            Packet::FetchReply { group, .. } => (&group.code, group.table),
            // A cache refill ships a whole image with no entry table;
            // verify the code alone (the entry-table bound is re-checked
            // when a parked digest-only packet is rehydrated against it).
            Packet::HaveCode { code, .. } => {
                return tyco_vm::verify_wire(code).err().map(|e| e.to_string());
            }
            // Digest-only packets (`ObjRef`/`FetchReplyRef`) carry no code
            // to screen: they resolve against images that were verified
            // when the store admitted them.
            _ => return None,
        };
        if let Err(e) = tyco_vm::verify_wire(code) {
            return Some(e.to_string());
        }
        if table as usize >= code.view().tables.len() {
            return Some(format!(
                "entry table {table} out of range ({} tables shipped)",
                code.view().tables.len()
            ));
        }
        None
    }

    /// Admit a screened fabric packet. Full code images are
    /// fingerprint-checked against their carried digest and cached;
    /// digest-only packets are rehydrated from the store or parked behind
    /// a `NeedCode` round trip; cache-protocol packets are handled here;
    /// everything else goes straight to local delivery.
    fn ingest(&mut self, from: NodeId, p: Packet, ticket: Ticket) {
        match p {
            Packet::Obj { dest, digest, obj } => {
                if !self.admit_code(from, digest, &obj.code) {
                    return self.reject(ticket);
                }
                self.deliver_local(Packet::Obj { dest, digest, obj }, ticket);
            }
            Packet::FetchReply {
                to,
                req,
                digest,
                group,
                index,
            } => {
                if !self.admit_code(from, digest, &group.code) {
                    return self.reject(ticket);
                }
                let reply = Packet::FetchReply {
                    to,
                    req,
                    digest,
                    group,
                    index,
                };
                self.deliver_local(reply, ticket);
            }
            Packet::ObjRef { digest, .. } | Packet::FetchReplyRef { digest, .. } => {
                match self.store.get(&digest).cloned() {
                    Some(code) => self.rehydrate(code, p, ticket),
                    None => {
                        self.stats.cache.misses += 1;
                        self.park(from, digest, p, ticket);
                    }
                }
            }
            Packet::NeedCode {
                from: needy,
                digest,
            } => {
                // Evicted since it was advertised: answer with an empty
                // tombstone (its bytes cannot hash to `digest`) so the
                // requester releases its parked packets instead of
                // waiting forever.
                let code = self.store.get(&digest).cloned().unwrap_or_default();
                // The answer takes over the request's ticket.
                let answer = Packet::HaveCode {
                    to: needy,
                    digest,
                    code,
                };
                self.send_remote(needy, &answer, ticket);
            }
            Packet::HaveCode { digest, code, .. } => {
                let parked = self
                    .awaiting_code
                    .remove(&digest)
                    .map(|e| e.pkts)
                    .unwrap_or_default();
                if code.digest() != digest {
                    // A tampered refill — or the sender's tombstone for an
                    // image it no longer holds. The parked packets can
                    // never be completed.
                    if !code.view().blocks.is_empty() || !code.view().tables.is_empty() {
                        self.stats.cache.digest_mismatches += 1;
                    }
                    for (_, t) in parked {
                        self.reject(t);
                    }
                    return;
                }
                self.store_received(&code);
                self.store.mark_shipped(&digest, from);
                for (p, t) in parked {
                    self.rehydrate(code.clone(), p, t);
                }
            }
            // Replication needs the sender for its per-shipper watermark,
            // so it is applied here where the fabric still knows `from`.
            Packet::NsRepl {
                to: _,
                seq,
                from_site,
                site_lexeme,
                name,
                value,
                stamp,
                epoch,
            } => {
                self.stats.ns_ops += 1;
                if let Some(ns) = &mut self.ns {
                    let replies = ns.apply_repl(
                        from,
                        seq,
                        from_site,
                        &site_lexeme,
                        &name,
                        value,
                        stamp,
                        epoch,
                    );
                    for r in replies {
                        let t = self.mint();
                        self.route(r, t);
                    }
                }
            }
            other => self.deliver_local(other, ticket),
        }
    }

    /// Fingerprint-check a full code image from the fabric and cache it.
    /// Returns `false` when the bytes that arrived do not hash to the
    /// carried digest (the caller rejects the packet as tampered) — at
    /// every capacity: a store that holds nothing still checks what it is
    /// handed.
    fn admit_code(&mut self, from: NodeId, digest: Digest, code: &WireCode) -> bool {
        if code.digest() != digest {
            self.stats.cache.digest_mismatches += 1;
            return false;
        }
        self.store_received(code);
        // The sender provably holds this image (it just shipped it), so
        // this node's own future shipments back to it can go digest-only.
        self.store.mark_shipped(&digest, from);
        true
    }

    /// Cache a received image under the digest of the bytes that arrived.
    /// The store keeps it [`WireCode::detached`], so a cached image pins
    /// only itself: a view into the frame it was decoded from is copied
    /// out, and bytes the decoder already copied out are kept as they are.
    fn store_received(&mut self, code: &WireCode) {
        if !self.store.contains(&code.digest()) {
            self.cache_insert(&code.detached());
        }
    }

    /// Insert into the store and mirror its lifetime counters into the
    /// per-daemon stats.
    fn cache_insert(&mut self, code: &WireCode) {
        self.store.insert(code);
        self.stats.cache.insertions = self.store.insertions;
        self.stats.cache.evictions = self.store.evictions;
    }

    /// Park a digest-only packet whose image is not in the store; the
    /// first miss for a digest asks the sender to refill it (later asks
    /// are driven by the bounded retry clock, [`Daemon::tick_refills`]).
    fn park(&mut self, from: NodeId, digest: Digest, p: Packet, ticket: Ticket) {
        let entry = self.awaiting_code.entry(digest).or_insert(ParkedCode {
            pkts: Vec::new(),
            from,
            ticks: 0,
            asks: 0,
        });
        entry.pkts.push((p, ticket));
        // Refresh the refill target: the latest sender is the most likely
        // to still hold the image.
        entry.from = from;
        let first = entry.asks == 0;
        if first {
            entry.asks = 1;
            self.ask_for_code(from, digest);
        }
    }

    /// Send `to` a `NeedCode` for `digest`.
    fn ask_for_code(&mut self, to: NodeId, digest: Digest) {
        let ask = Packet::NeedCode {
            from: self.node,
            digest,
        };
        let t = self.mint();
        self.send_remote(to, &ask, t);
    }

    /// Are any digest-only packets parked waiting for a code refill? The
    /// embedding uses this to keep scheduling idle ticks until the refill
    /// protocol converges (or gives up) instead of declaring the run over.
    pub fn has_pending_refills(&self) -> bool {
        !self.awaiting_code.is_empty()
    }

    /// One idle tick of the refill retry clock: re-ask for digests whose
    /// `NeedCode` (or its `HaveCode` answer) was lost, and after
    /// [`REFILL_MAX_ASKS`] fruitless attempts reject the parked packets.
    /// The previous protocol asked exactly once per digest, so
    /// a single lost refill packet parked its waiters forever — an
    /// unbounded park that chaos drop plans (and restarted peers) hit
    /// immediately. Returns whether anything was sent or dropped.
    pub fn tick_refills(&mut self) -> bool {
        if self.awaiting_code.is_empty() {
            return false;
        }
        let mut asks: Vec<(NodeId, Digest)> = Vec::new();
        let mut give_up: Vec<Digest> = Vec::new();
        for (digest, e) in self.awaiting_code.iter_mut() {
            e.ticks += 1;
            if e.ticks < REFILL_RETRY_TICKS {
                continue;
            }
            e.ticks = 0;
            if e.asks >= REFILL_MAX_ASKS {
                give_up.push(*digest);
            } else {
                e.asks += 1;
                asks.push((e.from, *digest));
            }
        }
        let acted = !asks.is_empty() || !give_up.is_empty();
        for (to, digest) in asks {
            self.ask_for_code(to, digest);
        }
        for digest in give_up {
            if let Some(e) = self.awaiting_code.remove(&digest) {
                for (_, t) in e.pkts {
                    self.reject(t);
                }
            }
        }
        if acted {
            // Retries happen outside the pump loop; don't leave them
            // sitting in the batch buffers.
            self.flush_remote();
        }
        acted
    }

    /// Model a daemon process bounce: the in-memory code cache, parked
    /// refills, single-flight bookkeeping, heartbeat state and any
    /// queued-but-unprocessed inbound packets are gone; the beacon
    /// sequence restarts from 1. Sites and the name service survive (the
    /// chaos `RestartNode` event models a TyCOd restart, not node loss —
    /// [`crate::fabric::Fabric::kill_node`] models that). The packets it
    /// held are lost, and their tickets with them.
    pub fn simulate_restart(&mut self) {
        self.store = CodeCache::new(self.store.capacity());
        // Leases do not survive a daemon bounce (counters do: they are
        // lifetime totals).
        self.name_cache.clear();
        self.awaiting_code.clear();
        self.inflight.clear();
        self.inflight_leader.clear();
        self.heartbeats.clear();
        self.hb_seq = 0;
        self.from_fabric.drain_into(&mut self.scratch_bytes);
        self.scratch_bytes.clear();
        self.from_sites.drain_into(&mut self.scratch_pkts);
        self.scratch_pkts.clear();
    }

    /// Rebuild the full packet a digest-only ref stands for and deliver
    /// it. Re-applies the entry-table bound check the screen performs on
    /// full shipments (the ref's table index is attacker-controllable
    /// even though the cached image is verified).
    fn rehydrate(&mut self, code: WireCode, p: Packet, ticket: Ticket) {
        let p = match p {
            Packet::ObjRef {
                dest,
                digest,
                table,
                captured,
            } if (table as usize) < code.view().tables.len() => Packet::Obj {
                dest,
                digest,
                obj: WireObj {
                    code,
                    table,
                    captured,
                },
            },
            Packet::FetchReplyRef {
                to,
                req,
                digest,
                table,
                captured,
                index,
            } if (table as usize) < code.view().tables.len() => Packet::FetchReply {
                to,
                req,
                digest,
                group: WireGroup {
                    code,
                    table,
                    captured,
                },
                index,
            },
            // Only refs are ever parked or rehydrated, and a ref's table
            // index must fit the image.
            _ => return self.reject(ticket),
        };
        self.stats.cache.hits += 1;
        self.deliver_local(p, ticket);
    }

    /// Hand each site its buffered backlog: one inbox lock and one
    /// (deferred) wakeup per site per pump, order per site preserved.
    fn flush_local(&mut self) {
        for site in self.sites.iter_mut().flatten() {
            if site.buf.is_empty() {
                continue;
            }
            // Delivery first, wake second: the scheduler's readiness
            // protocol relies on the inbox being populated before
            // `mark_ready` runs — and the wake waits until the pumper has
            // unlocked the daemon. A failed send means the site is gone
            // (program exited): the batch is dropped, like the paper's
            // freed sites.
            if site.inbox.send_iter(site.buf.drain(..)).is_ok() {
                if let Some(w) = &site.waker {
                    self.woken.push(w.clone());
                }
            }
        }
    }

    /// Hand every buffered per-destination backlog to the fabric in one
    /// batched send each (per-link FIFO preserved; see
    /// [`PacketFabric::send_frames`]).
    fn flush_remote(&mut self) {
        let node = self.node;
        let dense = self.out_bufs.iter_mut().enumerate();
        let dense = dense.map(|(i, ob)| (NodeId(i as u32), ob));
        let far = self.far_out_bufs.iter_mut().map(|(to, ob)| (*to, ob));
        for (to, ob) in dense.chain(far) {
            let Some(ticket) = ob.ticket.take() else {
                continue;
            };
            self.stats.remote_batches += 1;
            self.fabric.send_frames(node, to, &mut ob.frames, ticket);
        }
    }

    /// Emit a liveness beacon to every ring node, so any live shard can
    /// act as the failure monitor's observation point.
    pub fn send_heartbeat(&mut self) {
        self.hb_seq += 1;
        let seq = self.hb_seq;
        for ns_node in (0..self.shard.ring() as u32).map(NodeId) {
            let p = Packet::Heartbeat {
                node: self.node,
                seq,
            };
            let t = self.mint();
            if ns_node == self.node {
                self.deliver_local(p, t);
            } else {
                self.send_remote(ns_node, &p, t);
            }
        }
        // Heartbeats are emitted outside the pump loop (scheduler rounds);
        // don't leave them sitting in the batch buffers.
        self.flush_remote();
    }

    fn send_remote(&mut self, to: NodeId, p: &Packet, ticket: Ticket) {
        let i = to.0 as usize;
        let ob = if i < DENSE_NODES {
            if i >= self.out_bufs.len() {
                self.out_bufs.resize_with(i + 1, OutBuf::default);
            }
            &mut self.out_bufs[i]
        } else {
            self.far_out_bufs.entry(to).or_default()
        };
        let len = ob.frames.push(self.node, to, p);
        match &mut ob.ticket {
            Some(held) => held.merge(ticket),
            None => ob.ticket = Some(ticket),
        }
        self.stats.remote_sends += 1;
        self.stats.bytes_out += len as u64;
    }

    /// Route a packet by its destination, local or remote. Name-service
    /// requests go to their key's shard — the owner, or its follower
    /// while the owner is suspected: one copy, replication covers the
    /// redundancy — unless a live lease answers the import right here.
    pub fn route(&mut self, p: Packet, ticket: Ticket) {
        let target: NodeId = match &p {
            Packet::Msg { dest, .. } | Packet::Obj { dest, .. } => dest.node,
            Packet::FetchReq { class, .. } => class.node,
            Packet::FetchReply { to, .. }
            | Packet::NsImportReply { to, .. }
            | Packet::Release { to, .. } => to.node,
            Packet::NsLease { to, .. } => to.node,
            Packet::NsInvalidate { to, .. } | Packet::NsRepl { to, .. } => *to,
            Packet::NsRegister {
                site_lexeme, name, ..
            } => self.shard.route(site_lexeme, name).0,
            Packet::NsImport { site, name, .. } => {
                if let Some(reply) = self.answer_from_lease(&p) {
                    // The reply takes over the import's ticket: no wire
                    // round trip.
                    return self.deliver_local(reply, ticket);
                }
                let (target, _) = self.shard.route(site, name);
                if target != self.node {
                    self.ns_local.shard_hops += 1;
                }
                target
            }
            // Control frames live on the transport (beacons go
            // point-to-point from `send_heartbeat`), and the cache
            // protocol's digest-only kinds are made at send and resolved
            // at ingest; any reaching the routing layer is consumed and
            // ignored.
            other => {
                debug_assert_ne!(other.class(), Class::Data, "unrouted {other:?}");
                self.node
            }
        };
        if target == self.node {
            self.deliver_local(p, ticket);
        } else {
            self.send_remote_coded(target, p, ticket);
        }
    }

    /// Answer an import from this node's lease cache, re-running the kind
    /// and type-stamp checks against the cached stamp: zero wire traffic.
    /// Returns the reply, if the cache answers. With a lease TTL of 0 no
    /// lease is ever granted and the cache is not consulted.
    fn answer_from_lease(&mut self, p: &Packet) -> Option<Packet> {
        let Packet::NsImport {
            req,
            site,
            name,
            kind,
            reply_to,
            expect,
        } = p
        else {
            return None;
        };
        if self.shard.lease_ns() == 0 {
            return None;
        }
        let (w, stamp, _epoch) = self.name_cache.get(site, name, self.clock.now_ns())?;
        self.ns_local.imports += 1;
        let result = if !kind_ok(*kind, &w) {
            self.ns_local.kind_mismatch += 1;
            Err(format!("`{site}.{name}` has the wrong kind"))
        } else if let Err(e) = stamp_ok(expect, &stamp) {
            self.ns_local.stamp_mismatch += 1;
            Err(format!("`{site}.{name}`: {e}"))
        } else {
            self.ns_local.resolved += 1;
            Ok(w)
        };
        Some(Packet::NsImportReply {
            to: *reply_to,
            req: *req,
            result,
        })
    }

    /// Remote send with the code-mobility optimizations: repeat shipments
    /// of a cached image go out digest-only, and a fetch of a class
    /// already being fetched is folded into the in-flight request. The
    /// store first takes an image this node ships or advertises by digest,
    /// so a later `NeedCode` from the receiver is answerable; outbound
    /// images come from the local packager and are trusted, so there is
    /// no fingerprint check, and the store shares the packager's bytes.
    fn send_remote_coded(&mut self, target: NodeId, p: Packet, ticket: Ticket) {
        let p = match p {
            Packet::Obj { dest, digest, obj } => {
                self.cache_insert(&obj.code);
                if self.store.was_shipped(&digest, target) {
                    self.count_dedup(digest);
                    Packet::ObjRef {
                        dest,
                        digest,
                        table: obj.table,
                        captured: obj.captured,
                    }
                } else {
                    self.store.mark_shipped(&digest, target);
                    Packet::Obj { dest, digest, obj }
                }
            }
            Packet::FetchReply {
                to,
                req,
                digest,
                group,
                index,
            } => {
                self.cache_insert(&group.code);
                if self.store.was_shipped(&digest, target) {
                    self.count_dedup(digest);
                    Packet::FetchReplyRef {
                        to,
                        req,
                        digest,
                        table: group.table,
                        captured: group.captured,
                        index,
                    }
                } else {
                    self.store.mark_shipped(&digest, target);
                    Packet::FetchReply {
                        to,
                        req,
                        digest,
                        group,
                        index,
                    }
                }
            }
            Packet::FetchReq {
                class,
                req,
                reply_to,
            } => {
                if let Some(waiters) = self.inflight.get_mut(&class) {
                    // Single-flight: this request stops here, holding its
                    // ticket for the reply synthesized from the leader's.
                    waiters.push((reply_to, req, ticket));
                    self.stats.cache.coalesced += 1;
                    return;
                }
                self.inflight.insert(class, Vec::new());
                self.inflight_leader.insert((reply_to, req), class);
                Packet::FetchReq {
                    class,
                    req,
                    reply_to,
                }
            }
            other => other,
        };
        self.send_remote(target, &p, ticket);
    }

    fn count_dedup(&mut self, digest: Digest) {
        self.stats.cache.dedup_sends += 1;
        self.stats.cache.bytes_saved += self
            .store
            .wire_len(&digest)
            .saturating_sub(Digest::SIZE as u64);
    }

    /// Handle one name-service request at this node's hosted service —
    /// the shard-owner side of a bind or lookup. The replies are minted
    /// before the request's ticket drops at return: the opposite order
    /// has a window where the counters look balanced while a reply is
    /// still pending, which could falsely satisfy the detector.
    fn serve_ns_request(&mut self, p: Packet, _ticket: Ticket) {
        match p {
            Packet::NsRegister {
                from_site,
                site_lexeme,
                name,
                value,
                stamp,
            } => {
                self.stats.ns_ops += 1;
                // This registration replicates to the ring partner for
                // its key — the successor when this node owns the key,
                // the owner itself when this node is the follower acting
                // for a suspected owner; nobody on a ring of one.
                let partner = self.shard.partner_of(self.node, &site_lexeme, &name);
                if let Some(ns) = &mut self.ns {
                    ns.set_repl_partner(partner);
                    let replies = ns.handle_register(from_site, &site_lexeme, &name, value, stamp);
                    for r in replies {
                        let t = self.mint();
                        self.route(r, t);
                    }
                }
            }
            Packet::NsImport {
                req,
                site,
                name,
                kind,
                reply_to,
                expect,
            } => {
                self.stats.ns_ops += 1;
                if let Some(ns) = &mut self.ns {
                    if let Some(reply) = ns.handle_import(req, &site, &name, kind, reply_to, expect)
                    {
                        let t = self.mint();
                        self.route(reply, t);
                    }
                }
            }
            other => unreachable!("not a name-service request: {other:?}"),
        }
    }

    /// Deliver a packet whose destination is on this node (the
    /// shared-memory path) or handle it in the local name service.
    fn deliver_local(&mut self, p: Packet, ticket: Ticket) {
        let (site, item) = match p {
            Packet::Msg { dest, label, args } => {
                let msg = Incoming::Msg {
                    dest: dest.heap_id,
                    label,
                    args,
                };
                (dest.site, RtIncoming::Vm(msg))
            }
            Packet::Obj { dest, obj, .. } => {
                let obj = Incoming::Obj {
                    dest: dest.heap_id,
                    obj,
                };
                (dest.site, RtIncoming::Vm(obj))
            }
            Packet::FetchReq {
                class,
                req,
                reply_to,
            } => {
                let fetch = Incoming::FetchReq {
                    dest: class.heap_id,
                    req,
                    reply_to,
                };
                (class.site, RtIncoming::Vm(fetch))
            }
            Packet::FetchReply {
                to,
                req,
                group,
                index,
                ..
            } => {
                // Single-flight fan-out: if this reply answers an
                // in-flight leader fetch, every waiter coalesced behind it
                // gets a copy, on its own request's ticket.
                if let Some(class) = self.inflight_leader.remove(&(to, req)) {
                    let waiters = self.inflight.remove(&class).unwrap_or_default();
                    for (w_to, w_req, w_ticket) in waiters {
                        let reply = Incoming::FetchReply {
                            req: w_req,
                            group: group.clone(),
                            index,
                        };
                        self.deliver_to_site(w_to.site, RtIncoming::Vm(reply), w_ticket);
                    }
                }
                let reply = Incoming::FetchReply { req, group, index };
                (to.site, RtIncoming::Vm(reply))
            }
            Packet::NsImportReply { to, req, result } => {
                (to.site, RtIncoming::ImportResolved { req, result })
            }
            Packet::Release {
                to,
                from_site,
                seq,
                runs,
            } => {
                let release = Incoming::Release {
                    from_site,
                    seq,
                    runs,
                };
                (to.site, RtIncoming::Vm(release))
            }
            Packet::NsRegister { .. } | Packet::NsImport { .. } => {
                if self.ns_service_ns > 0 {
                    // Modeled resolver cost: the request queues behind
                    // the shard's single server; `drain_ns_backlog`
                    // serves it once the clock passes its completion.
                    self.ns_backlog.push_back((self.clock.now_ns(), p, ticket));
                } else {
                    self.serve_ns_request(p, ticket);
                }
                return;
            }
            Packet::NsLease {
                to,
                req,
                site,
                name,
                value,
                stamp,
                epoch,
            } => {
                // A lease grant: cache the binding for the whole node,
                // then resolve the waiting site's import, exactly like a
                // plain NsImportReply.
                let now = self.clock.now_ns();
                self.name_cache
                    .insert(&site, &name, value.clone(), stamp, epoch, now);
                let result = Ok(value);
                (to.site, RtIncoming::ImportResolved { req, result })
            }
            Packet::NsInvalidate {
                to: _,
                site,
                name,
                epoch,
            } => {
                self.name_cache.invalidate(&site, &name, epoch);
                // Sites hold their own resolved-binding caches; tell each
                // one to forget the key so its next import re-resolves.
                // Every forwarded notice is minted, so the balance holds
                // even if the invalidation itself was chaos-dropped
                // upstream.
                for i in 0..self.sites.len() {
                    if self.sites[i].is_none() {
                        continue;
                    }
                    let notice = RtIncoming::NsInvalidated {
                        site: site.clone(),
                        name: name.clone(),
                    };
                    let t = self.mint();
                    self.deliver_to_site(SiteId(i as u32), notice, t);
                }
                return;
            }
            Packet::Heartbeat { node, seq } => {
                let e = self.heartbeats.entry(node).or_insert(0);
                *e = (*e).max(seq);
                return;
            }
            // Replication needs the sender's id, so ingest applies it;
            // control frames are the transport's, and the cache protocol
            // is resolved at ingest too. Any reaching here is accepted and
            // ignored.
            Packet::NsRepl { .. } => return,
            other => {
                debug_assert_ne!(other.class(), Class::Data, "undelivered {other:?}");
                return;
            }
        };
        self.deliver_to_site(site, item, ticket);
    }

    fn deliver_to_site(&mut self, site: SiteId, item: RtIncoming, ticket: Ticket) {
        self.stats.local_deliveries += 1;
        // No such site on this node (it was destroyed, or a peer named
        // one that never was): the item is dropped, its ticket consumed.
        if let Some(Some(s)) = self.sites.get_mut(site.0 as usize) {
            s.buf.push((item, ticket));
        }
    }
}

/// A node's daemon: one **combining cell** that, on the wall clock, every
/// producer kicks and whoever holds the lock serves. On the virtual clock
/// the run loop pumps it ([`DaemonCell::live`]) and nobody kicks it. The
/// daemon has no thread of its own.
///
/// The paper's 3-step protocol says which party is *responsible* for
/// queue → forward → queue, not that each step be a hand-off to another
/// OS thread. So the cell is the [`Wake`] that sites
/// ([`crate::site::RtPort::flush`]) and the fabric's routes hold: a kick
/// raises `pending`, tries the lock, and if it wins pumps the daemon on
/// the kicking thread until `pending` stays clear — a worker's slice ends
/// by routing and encoding its own sends, the net thread decodes and
/// delivers what it just read. A kick that loses the lock leaves
/// `pending` raised for the holder. Every holder — a kicker, or the run
/// loop in [`with`](DaemonCell::with) or [`live`](DaemonCell::live) —
/// re-checks it *after* unlocking and pumps again, so no kick is
/// stranded. The run loop keeps the daemon's one timer, the `NeedCode`
/// retry clock ([`Daemon::tick_refills`]).
///
/// Site wakeups collected by the pumps ([`Daemon::take_woken`]) fire only
/// after the lock is released. Fired under it, the woken worker preempts
/// the holder and ends its slice with a kick that loses the lock, leaving
/// its sends to the holder (measured in DESIGN.md §10).
pub struct DaemonCell {
    /// `None` once [`retire`](DaemonCell::retire)d.
    daemon: Mutex<Option<Daemon>>,
    /// A producer queued work no pump has looked at yet.
    pending: AtomicBool,
    /// The node is killed: nobody pumps the daemon, and the node's sites,
    /// which share the flag, run nothing ([`DaemonCell::set_down`]).
    down: Arc<AtomicBool>,
    inline_pumps: AtomicU64,
}

impl DaemonCell {
    /// Wrap `daemon`. A cell's kickers are threads, so the daemon reads
    /// the wall clock until a run hands it the run's own.
    pub fn new(mut daemon: Daemon) -> Arc<DaemonCell> {
        daemon.set_clock(Clock::Wall(Instant::now()));
        Arc::new(DaemonCell {
            daemon: Mutex::new(Some(daemon)),
            pending: AtomicBool::new(false),
            down: Arc::new(AtomicBool::new(false)),
            inline_pumps: AtomicU64::new(0),
        })
    }

    /// Stop (a chaos kill) or resume (a restart) the node: while down,
    /// nothing pumps the daemon, and the sites holding
    /// [`down_flag`](DaemonCell::down_flag) run nothing. A resumed node
    /// serves the kicks that found it down.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
        self.serve();
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// The flag [`set_down`](DaemonCell::set_down) raises.
    pub fn down_flag(&self) -> Arc<AtomicBool> {
        self.down.clone()
    }

    /// Run `f` on the daemon, down or not, unless the cell is retired;
    /// then serve the kicks that lost the lock to it.
    pub fn with<R>(&self, f: impl FnOnce(&mut Daemon) -> R) -> Option<R> {
        let mut guard = self.daemon.lock();
        let r = guard.as_mut().map(f);
        Self::release(guard);
        self.serve();
        r
    }

    /// [`with`](DaemonCell::with), unless the node is down.
    pub fn live<R>(&self, f: impl FnOnce(&mut Daemon) -> R) -> Option<R> {
        if self.is_down() {
            return None;
        }
        self.with(f)
    }

    /// Let go of the daemon, *then* wake the sites its pumps delivered to
    /// — in that order, whoever held it (see the type's docs).
    fn release(mut guard: MutexGuard<'_, Option<Daemon>>) {
        let woken = guard.as_mut().map(Daemon::take_woken).unwrap_or_default();
        drop(guard);
        woken.fire();
    }

    /// Pump while a kick is pending and the lock is free. The fence pairs
    /// a holder's look at `pending` after unlocking with a kicker's
    /// `try_lock` after raising it: of the two, at least one sees the
    /// other, so a kick that loses the lock is served by the thread it
    /// lost to. A down node or a retired cell leaves `pending` raised.
    fn serve(&self) {
        loop {
            fence(Ordering::SeqCst);
            if !self.pending.load(Ordering::SeqCst) {
                return;
            }
            let Some(mut guard) = self.daemon.try_lock() else {
                return;
            };
            let Some(d) = guard.as_mut().filter(|_| !self.is_down()) else {
                return;
            };
            while self.pending.swap(false, Ordering::SeqCst) {
                d.pump();
                self.inline_pumps.fetch_add(1, Ordering::Relaxed);
            }
            Self::release(guard);
        }
    }

    /// Take the daemon out for its final statistics. The cell stays where
    /// its producers can reach it but every later kick is a no-op, and
    /// the reference cycle cell → daemon → fabric routes → cell is cut.
    pub fn retire(&self) -> Option<Daemon> {
        self.daemon.lock().take()
    }

    /// Pumps run by a kicking thread or a holder serving kicks.
    pub fn pumps(&self) -> u64 {
        self.inline_pumps.load(Ordering::Relaxed)
    }
}

impl Wake for DaemonCell {
    fn wake(&self) {
        self.pending.store(true, Ordering::SeqCst);
        self.serve();
    }
}
