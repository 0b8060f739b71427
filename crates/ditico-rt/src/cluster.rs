//! The cluster environment: nodes, sites, fabric and the two execution
//! modes (deterministic virtual-time and threaded real-time).
//!
//! This is the programmatic face of Fig. 2 of the paper: a static IP
//! topology of nodes, each running a pool of sites plus a TyCOd, with the
//! name service hosted on the first node(s) and sites communicating
//! point-to-point through the fabric. The TyCOi/TyCOsh user-level flow
//! ("users submit new programs for execution in a node") corresponds to
//! [`Cluster::add_site`].

use crate::chaos::{ChaosEvent, ChaosPlan, ChaosReport, ChaosState};
use crate::daemon::{CodeCacheStats, Daemon, DaemonCell, DaemonStats, DEFAULT_CODE_CACHE};
use crate::fabric::{Fabric, FabricMode, LinkProfile};
use crate::failure::FailureMonitor;
use crate::nameservice::{NsShardMap, NsStats};
use crate::sched::{SchedConfig, SchedStats, Shared, Worker};
use crate::site::{RtPort, Site, SiteInterface};
use crate::termination::{Snapshot, TermCounters, TerminationDetector, Ticket};
use crate::transport::{Transport, TransportConfig, TransportReport};
use crate::wake::Notify;
use crossbeam::channel::{unbounded, Sender};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::Packet;
use tyco_vm::stats::ExecStats;
use tyco_vm::word::{Identity, NodeId, SiteId};
use tyco_vm::{Program, VmError};

/// One node: its daemon, its sites, and the shared outgoing queue end
/// that new sites clone.
struct NodeCell {
    id: NodeId,
    daemon: Daemon,
    sites: Vec<Site>,
    out_tx: Sender<(SiteId, Packet, Ticket)>,
    dead: bool,
}

/// Everything a finished run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// I/O-port lines per site lexeme.
    pub outputs: HashMap<String, Vec<String>>,
    /// VM statistics per site lexeme.
    pub stats: HashMap<String, ExecStats>,
    /// Runtime errors per site lexeme.
    pub errors: Vec<(String, VmError)>,
    /// Final virtual time (deterministic mode; 0 otherwise).
    pub virtual_ns: u64,
    /// Fabric traffic.
    pub fabric_packets: u64,
    pub fabric_bytes: u64,
    /// Per-node daemon statistics.
    pub daemon_stats: Vec<DaemonStats>,
    /// True when the run ended with nothing runnable anywhere.
    pub quiescent: bool,
    /// Import requests still unresolved at the end.
    pub blocked_imports: usize,
    /// Probes the termination detector performed (threaded mode); in a
    /// distributed run, the snapshots this process took for its own waves
    /// and its peers'.
    pub detector_probes: u64,
    /// Total byte-code instructions executed across all sites.
    pub total_instrs: u64,
    /// Work-stealing scheduler counters (threaded mode; zero elsewhere).
    pub sched: SchedStats,
    /// Remote nodes considered dead at the end of a distributed run
    /// (heartbeat silence or exhausted reconnects).
    pub suspects: Vec<NodeId>,
    /// Wire-level counters (distributed runs only).
    pub transport: Option<TransportReport>,
    /// Runtime-thread failures survived during the run: a worker, site or
    /// daemon thread that panicked. The run completes and reports instead
    /// of aborting; each entry names what was lost.
    pub aborts: Vec<String>,
    /// Fault-injection tallies (`None` unless the run had a chaos plan
    /// installed). Every injected event — drop, duplicate, delay,
    /// partition block, kill, restart — is counted here.
    pub chaos: Option<ChaosReport>,
    /// Shard-map failovers: requests routed to a follower because the
    /// owning shard was suspected down (rings of two or more).
    pub ns_failovers: u64,
    /// Who did the waking (real-thread runs; zero elsewhere).
    pub wakes: WakeStats,
    /// Packets this process injected and did not consume by the end of
    /// the run: still held by a queue, a carrier or a parking lot. 0 for
    /// a run that ended with nothing stranded.
    pub in_flight: i64,
}

/// Wake-chain counters of a real-thread run: how often each party that
/// can be woken per message actually was. Carried for regression tests
/// (`tests/wake_chain.rs`); the CLI's `--stats` report does not print
/// them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WakeStats {
    /// Daemon pumps run on the thread that kicked the daemon (a worker
    /// ending its slice, the net thread after a read, another daemon's
    /// pump), summed over nodes.
    pub inline_pumps: u64,
    /// Turns in which a daemon's fallback thread found a kick nobody had
    /// served, summed over nodes.
    pub fallback_pumps: u64,
    /// Times the environment loop evaluated its exit test.
    pub env_evals: u64,
}

impl RunReport {
    /// Output lines of one site (empty slice if unknown).
    pub fn output(&self, lexeme: &str) -> &[String] {
        self.outputs.get(lexeme).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summed VM statistics across sites.
    pub fn total_comm(&self) -> u64 {
        self.stats.values().map(|s| s.comm).sum()
    }

    /// Code-cache counters summed across every node's daemon.
    pub fn cache_totals(&self) -> CodeCacheStats {
        let mut t = CodeCacheStats::default();
        for d in &self.daemon_stats {
            t.hits += d.cache.hits;
            t.misses += d.cache.misses;
            t.coalesced += d.cache.coalesced;
            t.dedup_sends += d.cache.dedup_sends;
            t.bytes_saved += d.cache.bytes_saved;
            t.insertions += d.cache.insertions;
            t.evictions += d.cache.evictions;
            t.digest_mismatches += d.cache.digest_mismatches;
        }
        t
    }

    /// Name-service counters summed across every node's daemon: shard
    /// routing, lease-cache traffic, invalidations and replication.
    pub fn ns_totals(&self) -> NsStats {
        let mut t = NsStats::default();
        for d in &self.daemon_stats {
            t.add(&d.ns);
        }
        t
    }

    /// Duplicate/late fetch replies dropped by sites (idempotency guard).
    pub fn total_dup_fetch_replies(&self) -> u64 {
        self.stats.values().map(|s| s.dup_fetch_replies).sum()
    }

    pub fn total_shipped(&self) -> u64 {
        self.stats
            .values()
            .map(|s| s.msgs_sent + s.objs_sent + s.fetches)
            .sum()
    }
}

/// Limits for a deterministic run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Stop after this many byte-code instructions (across all sites).
    pub max_instrs: u64,
    /// Instructions per site slice (context-switch granularity between
    /// sites in the deterministic scheduler).
    pub fuel_per_slice: u64,
    /// When the deterministic loop goes idle and advances virtual time
    /// to the next due event, overshoot the target by this much so a
    /// whole *wave* of nearby deliveries lands in one advance. 0 (the
    /// default) advances exactly event-by-event; large fan-out scenarios
    /// (100k+ sites) set ~1ms to avoid O(events × sites) idle rounds.
    /// Purely a batching knob: deliveries stay FIFO per link and the
    /// schedule stays deterministic for a given value.
    pub idle_advance_ns: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_instrs: 100_000_000,
            fuel_per_slice: 4096,
            idle_advance_ns: 0,
        }
    }
}

/// A DiTyCO cluster.
pub struct Cluster {
    fabric: Fabric,
    mode: FabricMode,
    nodes: Vec<NodeCell>,
    term: &'static TermCounters,
    site_lexemes: Vec<String>,
    /// The node of every site, local or declared remote, by `SiteId`.
    site_nodes: Vec<NodeId>,
    /// Heartbeat cadence in scheduler rounds (deterministic mode);
    /// `None` disables heartbeats.
    pub heartbeat_every: Option<u64>,
    /// Staleness threshold for the failure monitor, in heartbeat periods.
    pub stale_periods: u64,
    /// Worker-pool configuration for threaded runs (M:N scheduler).
    pub sched: SchedConfig,
    /// Per-node code-cache capacity in images (0: a store that holds
    /// nothing, so every shipment is a full image).
    code_cache: usize,
    /// Installed fault-injection plan (see [`Cluster::set_chaos`]).
    chaos: Option<Arc<ChaosState>>,
    /// The name service's shard map, shared with every daemon:
    /// consistent-hash ownership over the first `ring` nodes plus the
    /// live down-set routing requests to followers.
    shard_map: Arc<NsShardMap>,
    /// Modeled per-request resolver cost at name-service hosts (clock
    /// ns; 0 = instantaneous). See [`Cluster::set_ns_service`].
    ns_service_ns: u64,
}

impl Cluster {
    /// A cluster with the given fabric mode and default link profile.
    /// The name service is a ring of the first `ns_replicas` ≥ 1 nodes
    /// added, each owning a consistent-hash slice of the export table and
    /// replicating it to its ring successor, with no lease caching. The
    /// default of 1 is the paper's central service on node 0.
    pub fn new(mode: FabricMode, link: LinkProfile, ns_replicas: usize) -> Cluster {
        Cluster {
            fabric: Fabric::new(mode, link),
            mode,
            nodes: Vec::new(),
            term: TermCounters::leak(),
            site_lexemes: Vec::new(),
            site_nodes: Vec::new(),
            heartbeat_every: None,
            stale_periods: 3,
            sched: SchedConfig::default(),
            code_cache: DEFAULT_CODE_CACHE,
            chaos: None,
            shard_map: Arc::new(NsShardMap::new(ns_replicas, 0)),
            ns_service_ns: 0,
        }
    }

    /// Replace the name service's ring size and lease TTL: the first
    /// `shards` nodes own the export table, and importing nodes are
    /// granted `lease_ns`-TTL cached bindings (0 disables caching). Every
    /// daemon is built around the map, so call this before adding nodes.
    pub fn set_ns_sharding(&mut self, shards: usize, lease_ns: u64) {
        assert!(
            self.nodes.is_empty(),
            "set_ns_sharding must precede add_node"
        );
        self.shard_map = Arc::new(NsShardMap::new(shards, lease_ns));
    }

    /// Model a per-request resolver cost at every name-service host:
    /// each `NsRegister`/`NsImport` occupies the serving daemon for
    /// `service_ns` of virtual time (0, the default, serves instantly).
    /// Meaningful in deterministic virtual-time runs, where it makes a
    /// ring-of-one server's serial bind cost — the paper's bottleneck —
    /// visible in the makespan. Applies to existing and future nodes.
    pub fn set_ns_service(&mut self, service_ns: u64) {
        self.ns_service_ns = service_ns;
        for cell in &mut self.nodes {
            cell.daemon.set_ns_service_ns(service_ns);
        }
    }

    /// Set every node's code-cache capacity (existing and future nodes).
    pub fn set_code_cache(&mut self, capacity: usize) {
        self.code_cache = capacity;
        for cell in &mut self.nodes {
            cell.daemon.set_code_cache(capacity);
        }
    }

    /// The configured per-node code-cache capacity.
    pub fn code_cache(&self) -> usize {
        self.code_cache
    }

    /// A single-node, ideal-fabric cluster (functional testing).
    pub fn local() -> Cluster {
        let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
        c.add_node();
        c
    }

    /// Override one link's profile.
    pub fn set_link(&self, a: NodeId, b: NodeId, profile: LinkProfile) {
        self.fabric.set_link(a, b, profile);
    }

    /// Add a node (an "IP node" of Fig. 2) and its TyCOd.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let (out_tx, out_rx) = unbounded();
        let fabric_rx = self.fabric.register_node(id);
        let mut daemon = Daemon::new(
            id,
            out_rx,
            fabric_rx,
            self.fabric.handle(),
            self.shard_map.clone(),
            self.term,
        );
        daemon.set_code_cache(self.code_cache);
        daemon.set_ns_service_ns(self.ns_service_ns);
        // Deliveries into this node's fabric inbox kick the daemon's waker
        // (re-pointed at its combining cell when a real-thread run starts).
        self.fabric.set_waker(id, daemon.waker().clone());
        self.nodes.push(NodeCell {
            id,
            daemon,
            sites: Vec::new(),
            out_tx,
            dead: false,
        });
        id
    }

    /// Create a site running `program` on `node`, under `lexeme`
    /// (the TyCOsh "submit a program" operation).
    pub fn add_site(&mut self, node: NodeId, lexeme: &str, program: Program) -> SiteId {
        self.add_site_with_interface(node, lexeme, program, SiteInterface::default())
    }

    /// Like [`add_site`](Cluster::add_site), with the site's statically
    /// inferred interface attached: its exports register with type stamps
    /// and its imports ship expectation stamps, so protocol mismatches
    /// between sites are refused at bind time by the name service.
    pub fn add_site_with_interface(
        &mut self,
        node: NodeId,
        lexeme: &str,
        program: Program,
        interface: SiteInterface,
    ) -> SiteId {
        let site_id = SiteId(self.site_lexemes.len() as u32);
        self.site_lexemes.push(lexeme.to_string());
        self.site_nodes.push(node);
        let identity = Identity {
            site: site_id,
            node,
        };
        // Register the site in every name-service host up front — the
        // paper: "site names are registered in a Network Name Service"
        // and "all sites know its location in advance". The hosts are
        // the ring nodes.
        for cell in self.nodes.iter_mut() {
            if let Some(ns) = &mut cell.daemon.ns {
                ns.register_site(lexeme, identity);
            }
        }
        let (in_tx, in_rx) = unbounded();
        let cell = &mut self.nodes[node.0 as usize];
        let mut port = RtPort::new(
            identity,
            lexeme.to_string(),
            cell.out_tx.clone(),
            in_rx,
            cell.daemon.waker().clone(),
            self.term,
        );
        port.set_interface(interface);
        let site = Site::new(lexeme, identity, program, port);
        cell.daemon.attach_site(site_id, in_tx);
        cell.sites.push(site);
        site_id
    }

    /// Compile source and add the site (convenience).
    pub fn add_site_src(
        &mut self,
        node: NodeId,
        lexeme: &str,
        src: &str,
    ) -> Result<SiteId, String> {
        let ast = tyco_syntax::parse_core(src).map_err(|e| e.to_string())?;
        let prog = tyco_vm::compile(&ast).map_err(|e| e.to_string())?;
        Ok(self.add_site(node, lexeme, prog))
    }

    /// Declare a site that lives on `node` in *another process* of a
    /// multi-process run. No VM is created here; the site's identity is
    /// registered in the local name-service hosts so imports of its
    /// exports resolve, and a [`SiteId`] is consumed so every process that
    /// builds the same topology in the same order assigns identical ids —
    /// the invariant the wire protocol relies on.
    pub fn add_remote_site(&mut self, lexeme: &str, node: NodeId) -> SiteId {
        let site_id = SiteId(self.site_lexemes.len() as u32);
        self.site_lexemes.push(lexeme.to_string());
        self.site_nodes.push(node);
        let identity = Identity {
            site: site_id,
            node,
        };
        for cell in self.nodes.iter_mut() {
            if let Some(ns) = &mut cell.daemon.ns {
                ns.register_site(lexeme, identity);
            }
        }
        site_id
    }

    /// Kill a node: its traffic is dropped and its daemon and sites stop
    /// (failure injection for the §7 experiments).
    pub fn kill_node(&mut self, node: NodeId) {
        self.fabric.kill_node(node);
        if let Some(cell) = self.nodes.get_mut(node.0 as usize) {
            cell.dead = true;
        }
        // Route the dead owner's keys to its follower at once, and
        // re-issue imports parked at the corpse.
        if self.shard_map.mark_down(node) {
            self.resend_all_pending_imports();
        }
    }

    /// Restart a killed node, modelling a daemon process bounce: fabric
    /// delivery resumes, sites pump again, but the node's TyCOd comes
    /// back *empty* — code cache cleared, parked and queued traffic lost
    /// (consumed with its tickets, so termination still balances),
    /// heartbeat history reset. In-flight shipments to the node converge again via
    /// the daemon's bounded NeedCode refill retries.
    pub fn restart_node(&mut self, node: NodeId) {
        self.fabric.revive_node(node);
        if let Some(cell) = self.nodes.get_mut(node.0 as usize) {
            cell.dead = false;
            cell.daemon.simulate_restart();
        }
        // A healed owner serves its shard again. Writes it missed arrive
        // via the follower's symmetric replication stream.
        self.shard_map.mark_up(node);
    }

    /// Re-issue every live site's unresolved imports: they may be parked
    /// at a node that just died or changed shard role.
    fn resend_all_pending_imports(&mut self) {
        for cell in &mut self.nodes {
            if cell.dead {
                continue;
            }
            for site in &mut cell.sites {
                site.machine.port.resend_pending_imports();
            }
        }
    }

    /// Install a seeded fault-injection plan on the cluster's fabric.
    /// Every packet crossing a node boundary then rolls for a fate
    /// (drop / duplicate / delay within the link's profile) from a
    /// deterministic per-edge stream, and the plan's timed events
    /// (partition, heal, kill, restart) fire as virtual or wall time
    /// passes them. Same seed + same plan ⇒ same injected schedule.
    pub fn set_chaos(&mut self, plan: ChaosPlan) -> Result<(), String> {
        plan.validate()?;
        let st = ChaosState::new(plan);
        self.fabric.set_chaos(Some(st.clone()));
        self.chaos = Some(st);
        Ok(())
    }

    /// Fire every chaos event due at `now_ns`, acting on the ones that
    /// need the cluster (kill/restart); partitions and heals were already
    /// applied inside the chaos state.
    fn apply_chaos_due(&mut self, now_ns: u64) {
        let Some(ch) = self.chaos.clone() else {
            return;
        };
        for ev in ch.apply_due(now_ns) {
            match ev {
                ChaosEvent::KillNode(n) => self.kill_node(n),
                ChaosEvent::RestartNode(n) => self.restart_node(n),
                ChaosEvent::Partition { .. } | ChaosEvent::Heal => {}
            }
        }
    }

    /// One heartbeat round: beacons from live nodes, observation from a
    /// live ring node's view, and the shard map following the monitor's
    /// verdicts — a suspected owner's keys fail over to its ring
    /// successor, a healed owner takes them back.
    fn heartbeat_cycle(&mut self, monitor: &mut FailureMonitor, hb_round: u64) {
        for cell in &mut self.nodes {
            if !cell.dead {
                cell.daemon.send_heartbeat();
            }
        }
        let ring = self.shard_map.ring();
        if let Some(obs) = self.nodes.iter().take(ring).find(|c| !c.dead) {
            for (n, s) in &obs.daemon.heartbeats {
                monitor.observe(*n, *s, hb_round);
            }
        }
        for i in 0..ring {
            let n = NodeId(i as u32);
            let dead = self.nodes.get(i).is_none_or(|c| c.dead);
            if dead || monitor.suspected(n, hb_round) {
                if self.shard_map.mark_down(n) {
                    // Imports parked at the suspect re-issue and route
                    // to the follower.
                    self.resend_all_pending_imports();
                }
            } else {
                self.shard_map.mark_up(n);
            }
        }
    }

    /// A ring larger than the topology would send keys to nodes that do
    /// not exist, and their imports would hang.
    fn check_ring(&self) -> Result<(), String> {
        let (ring, nodes) = (self.shard_map.ring(), self.nodes.len());
        if ring > nodes {
            return Err(format!(
                "the name service's ring of {ring} does not fit a topology of {nodes} node(s)"
            ));
        }
        Ok(())
    }

    /// Run deterministically: round-robin pumping of daemons and sites,
    /// advancing the virtual clock when nothing is runnable.
    pub fn run_deterministic(&mut self, limits: RunLimits) -> RunReport {
        self.check_ring().unwrap_or_else(|e| panic!("{e}"));
        let mut round: u64 = 0;
        let mut hb_round: u64 = 0;
        let mut forced_hb: u64 = 0;
        let mut monitor = FailureMonitor::new(self.stale_periods);
        loop {
            round += 1;
            let mut progress = false;
            // Chaos events scheduled at or before the current virtual
            // time fire first, so a partition cuts this round's traffic
            // and a restart's daemon is pumpable this round.
            self.apply_chaos_due(self.fabric.now_ns());
            // Heartbeats + failure detection (when enabled).
            if let Some(every) = self.heartbeat_every {
                if round.is_multiple_of(every) {
                    hb_round += 1;
                    self.heartbeat_cycle(&mut monitor, hb_round);
                }
            }
            // Lease TTLs and the modeled resolver run on the fabric's
            // virtual clock here.
            if self.nodes.iter().any(|c| c.daemon.needs_clock()) {
                let now = self.fabric.now_ns();
                for cell in &mut self.nodes {
                    cell.daemon.set_now_ns(now);
                }
            }
            for cell in &mut self.nodes {
                if !cell.dead {
                    progress |= cell.daemon.pump();
                }
            }
            let mut site_progress = false;
            for cell in &mut self.nodes {
                if cell.dead {
                    continue;
                }
                for site in &mut cell.sites {
                    site_progress |= site.pump(limits.fuel_per_slice);
                }
            }
            progress |= site_progress;
            if site_progress {
                forced_hb = 0;
            }
            if !progress {
                // Nothing runnable: advance virtual time to the next due
                // event — a fabric delivery or a scheduled chaos event,
                // whichever is earlier — optionally overshooting by
                // `idle_advance_ns` to land a whole wave at once.
                let mut next = self.fabric.next_event_ns();
                if let Some(c) = self.chaos.as_ref().and_then(|ch| ch.next_event_ns()) {
                    next = Some(next.map_or(c, |f| f.min(c)));
                }
                // A modeled resolver with a backlog finishes its current
                // request at a known clock time; jump there so queued
                // binds are always served.
                for cell in &self.nodes {
                    if cell.dead {
                        continue;
                    }
                    if let Some(d) = cell.daemon.ns_backlog_next_due() {
                        next = Some(next.map_or(d, |f| f.min(d)));
                    }
                }
                if let Some(t) = next {
                    self.fabric
                        .advance_to(t.saturating_add(limits.idle_advance_ns));
                    continue;
                }
                // A daemon waiting on a code refill gets its retry clock
                // ticked only on idle rounds like this one: each tick is
                // a unit of "nothing else happened", so the bounded
                // re-ask/give-up ladder runs the same way on every
                // fabric and never races real deliveries.
                let mut ticked = false;
                for cell in &mut self.nodes {
                    if !cell.dead && cell.daemon.has_pending_refills() {
                        cell.daemon.tick_refills();
                        ticked = true;
                    }
                }
                if ticked {
                    continue;
                }
                // Otherwise, when failure detection is on, keep the
                // heartbeat protocol alive for a bounded number of idle
                // cycles so a dead shard owner is noticed and failover
                // (which re-injects imports) can happen.
                if self.heartbeat_every.is_some()
                    && forced_hb < self.stale_periods + self.shard_map.ring() as u64 + 2
                {
                    forced_hb += 1;
                    hb_round += 1;
                    self.heartbeat_cycle(&mut monitor, hb_round);
                    continue;
                }
                break;
            }
            let total: u64 = self
                .nodes
                .iter()
                .flat_map(|c| &c.sites)
                .map(|s| s.machine.stats.instrs)
                .sum();
            if total > limits.max_instrs {
                break;
            }
        }
        let mut report = self.report();
        // Surface the failure monitor's verdict like distributed runs do:
        // a node that stopped beaconing (killed and never restarted) is
        // reported suspected. Only meaningful when the deterministic
        // heartbeat protocol ran at all.
        if self.heartbeat_every.is_some() && hb_round > 0 {
            let known: Vec<NodeId> = (0..self.nodes.len() as u32).map(NodeId).collect();
            report.suspects = monitor.suspects(&known, hb_round);
            report.suspects.sort_by_key(|n| n.0);
        }
        report
    }

    /// Run with real threads: sites are multiplexed over a fixed worker
    /// pool by the M:N work-stealing scheduler (`self.sched`; default
    /// worker count is the available parallelism), daemons keep dedicated
    /// threads, and termination detection runs on the caller's thread,
    /// woken by the scheduler's idle transitions. Consumes the cluster and
    /// returns the report.
    pub fn run_threaded(self, wall_limit: Duration) -> RunReport {
        assert!(
            self.mode == FabricMode::Ideal,
            "threaded runs require the Ideal fabric"
        );
        self.check_ring().unwrap_or_else(|e| panic!("{e}"));
        self.run_pooled(None, wall_limit)
    }

    /// Run as **one process of a multi-process cluster**: local nodes'
    /// sites execute on the M:N scheduler exactly as in
    /// [`run_threaded`](Cluster::run_threaded), but every daemon's fabric
    /// handle is replaced by the TCP transport's [`crate::NetHandle`] —
    /// node-local traffic stays on the in-process fabric, traffic for
    /// nodes hosted by peer processes is framed onto sockets, and inbound
    /// frames are injected back into the local fabric unopened, to be
    /// decoded and verifier-screened by the daemon's pump like any other
    /// fabric packet. Every process must build the *same topology in the same
    /// order* (remote sites via [`add_remote_site`](Cluster::add_remote_site))
    /// so site/node ids agree across the wire.
    ///
    /// Termination is [`run_threaded`](Cluster::run_threaded)'s detector
    /// over the sum of every member process's counters, gathered by the
    /// transport's waves: the run ends quiescent on the verdict, reached
    /// here or received from a peer. It is cut short, reporting its
    /// suspects, when every remote node is suspected, departed or
    /// permanently unreachable. `wall_limit` backstops both.
    ///
    /// Once the listener (if any) is bound, one line
    /// `listening on {addr}, hosting node(s) {list}` goes to stderr with
    /// the *bound* address, so a process started on port 0 can be dialled
    /// by whoever reads it.
    pub fn run_distributed(
        self,
        cfg: TransportConfig,
        wall_limit: Duration,
    ) -> Result<RunReport, String> {
        if self.mode != FabricMode::Ideal {
            return Err(
                "distributed runs require the Ideal fabric mode: link latency is supplied \
                 by the real network, not the simulator"
                    .to_string(),
            );
        }
        self.check_ring()?;
        if cfg.local_nodes.is_empty() {
            return Err("distributed run with no local nodes".to_string());
        }
        for n in &cfg.local_nodes {
            if n.0 as usize >= self.nodes.len() {
                return Err(format!(
                    "local node {} is outside the topology ({} nodes)",
                    n.0,
                    self.nodes.len()
                ));
            }
        }
        let hosted: Vec<String> = cfg.local_nodes.iter().map(|n| n.0.to_string()).collect();
        let transport = Transport::start(cfg, self.fabric.handle(), self.term)?;
        if let Some(addr) = transport.local_addr() {
            eprintln!("listening on {addr}, hosting node(s) {}", hosted.join(","));
        }
        if let Some(ch) = &self.chaos {
            // Chaos moves from the node-local fabric to the wire: an
            // inbound frame that already survived the sender's dice must
            // not be rolled again when the transport injects it locally.
            transport.set_chaos(Some(ch.clone()));
            self.fabric.set_chaos(None);
        }
        Ok(self.run_pooled(Some(transport), wall_limit))
    }

    /// The nodes a termination wave must hear from: every node that hosts
    /// a site, here or in a peer process, or a name-service shard.
    fn members(&self) -> Vec<NodeId> {
        let ring = (0..self.shard_map.ring() as u32).map(NodeId);
        let mut members: Vec<NodeId> = self.site_nodes.iter().copied().chain(ring).collect();
        members.sort_by_key(|n| n.0);
        members.dedup();
        members
    }

    /// The one real-thread driver behind [`run_threaded`](Cluster::run_threaded)
    /// and [`run_distributed`](Cluster::run_distributed): sites on the
    /// worker pool, every live daemon behind a [`DaemonCell`], and the
    /// caller's thread as the environment loop.
    ///
    /// Nobody is woken to move a message. The cell is what sites and the
    /// fabric kick, and a kick pumps the daemon on the kicking thread: a
    /// worker's slice ends by routing and encoding its own sends, the net
    /// thread delivers what it just read. Each daemon keeps a thread, but
    /// only as its timer and backstop ([`DaemonCell::run_fallback`]).
    ///
    /// The two callers differ only in the carrier. Without a transport,
    /// the environment loop feeds Mattern's detector this process's
    /// counters on the pool's idle edges. With one (`Some` rebinds every
    /// local daemon to the wire and drops the cells of nodes hosted by
    /// peer processes), the transport's waves feed the same detector
    /// every member process's summed counters on the heartbeat tick, and
    /// the loop parks until the transport pings it with the verdict or a
    /// topology edge. `wall_limit` backstops both.
    fn run_pooled(mut self, mut transport: Option<Transport>, wall_limit: Duration) -> RunReport {
        let workers_n = self.sched.effective_workers();
        let slice_fuel = self.sched.slice_fuel;

        // Flatten nodes into daemon cells + a site pool, remembering
        // which cell owns each site so its delivery wakeup can be bound
        // to the scheduler's readiness protocol. Every producer's kick
        // moves from the daemon's bare `Notify` to its cell here: the
        // sites' flushes and the fabric's deliveries. A node that is
        // already dead gets no cell — its daemon is dropped, so its
        // sites' sends fail and count as consumed.
        let mut cells: Vec<Arc<DaemonCell>> = Vec::new();
        let mut sites: Vec<Site> = Vec::new();
        let mut owner_of_slot: Vec<Option<usize>> = Vec::new();
        for cell in self.nodes.drain(..) {
            let NodeCell {
                id,
                mut daemon,
                sites: node_sites,
                dead,
                ..
            } = cell;
            if let Some(t) = &transport {
                // Nodes that live in peer processes have no sites here
                // (see `add_remote_site`); their cells are dropped.
                if !t.is_local(id) {
                    continue;
                }
                daemon.set_fabric(Arc::new(t.handle()));
            }
            let owner = (!dead).then(|| {
                let cell = DaemonCell::new(daemon);
                self.fabric.set_waker(id, cell.clone());
                cells.push(cell);
                cells.len() - 1
            });
            for mut site in node_sites {
                if let Some(ci) = owner {
                    site.machine.port.set_daemon_waker(cells[ci].clone());
                }
                owner_of_slot.push(owner);
                sites.push(site);
            }
        }
        let slot_ids: Vec<SiteId> = sites.iter().map(|s| s.identity.site).collect();
        let shared = Shared::new(sites, workers_n);
        for (slot, (owner, id)) in owner_of_slot.iter().zip(&slot_ids).enumerate() {
            if let Some(ci) = owner {
                cells[*ci].set_site_waker(*id, Arc::new(shared.handle(slot as u32)));
            }
        }
        // What the environment loop parks on (see the doc comment).
        let env_park = match &transport {
            Some(t) => {
                let edges = Arc::new(Notify::new());
                let pool = shared.clone();
                t.attach(
                    &self.members(),
                    move || pool.active_sites() > 0,
                    edges.clone(),
                );
                edges
            }
            None => shared.idle.clone(),
        };

        let mut daemon_threads = Vec::new();
        for cell in &cells {
            let cell = cell.clone();
            daemon_threads.push(
                std::thread::Builder::new()
                    .name("tycod".into())
                    .spawn(move || cell.run_fallback())
                    .expect("spawn daemon fallback thread"),
            );
        }

        let mut worker_threads = Vec::new();
        for i in 0..workers_n {
            let worker = Worker::new(shared.clone(), i, slice_fuel);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("ditico-worker-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            );
        }

        let t0 = Instant::now();
        let chaos = self.chaos.clone();
        let mut env_evals = 0u64;
        let mut detector = TerminationDetector::new();
        let quiescent = loop {
            // Chaos events fire against the wall clock here; kills and
            // restarts act at the locally hosted nodes' fabric endpoints
            // (traffic blackholed/revived) — the daemons themselves stay
            // in their cells, and peer processes under chaos run their
            // own plan against their own clock.
            if let Some(ch) = &chaos {
                for ev in ch.apply_due(t0.elapsed().as_nanos() as u64) {
                    match ev {
                        ChaosEvent::KillNode(n) => {
                            self.fabric.kill_node(n);
                            self.shard_map.mark_down(n);
                        }
                        ChaosEvent::RestartNode(n) => {
                            self.fabric.revive_node(n);
                            self.shard_map.mark_up(n);
                        }
                        ChaosEvent::Partition { .. } | ChaosEvent::Heal => {}
                    }
                }
            }
            env_evals += 1;
            let park = match &transport {
                None => {
                    let snap = Snapshot::take(self.term, shared.active_sites() > 0);
                    if detector.probe(snap) {
                        break true;
                    }
                    // A first quiet wave is confirmed after a token wait:
                    // once the run has truly terminated no idle edge fires
                    // again. Busy, the timeout only bounds the wall check.
                    let quiet = snap.quiet();
                    Duration::from_micros(if quiet { 200 } else { 20_000 })
                }
                Some(t) => {
                    if t.concluded() {
                        break true;
                    }
                    // The wire's failure verdicts steer shard failover the
                    // same way the in-process monitor does.
                    let suspects = t.suspects();
                    for &n in &suspects {
                        self.shard_map.mark_down(n);
                    }
                    if t.all_remotes_down() {
                        // Every peer is dead, departed or unreachable:
                        // whatever this process is computing or waiting
                        // for, the run is over. A clean cascade — local
                        // sites idle, nobody suspected, no dialer
                        // exhausted — is the peers finishing and leaving;
                        // anything else is a cut, reported with its suspects.
                        break shared.active_sites() == 0
                            && suspects.is_empty()
                            && t.report().peers_failed == 0;
                    }
                    // Suspicion ripens by the heartbeat clock, not by an
                    // edge: look again every tick.
                    t.hb_period()
                }
            };
            if t0.elapsed() > wall_limit {
                break false;
            }
            env_park.wait_timeout(park);
        };
        // Capture liveness verdicts *before* tearing the wire down.
        let suspects = transport
            .as_ref()
            .map_or_else(Vec::new, Transport::suspects);
        shared.stop();

        let worker_aborts = join_workers(&shared, worker_threads);
        let mut report = RunReport {
            sched: shared.stats(),
            aborts: worker_aborts,
            suspects,
            // Quiescent iff the exit test concluded it (as opposed to
            // hitting the wall-clock limit or a wire cut).
            quiescent,
            // Taken while the daemons still hold what they hold.
            in_flight: self.term.in_flight(),
            ..Default::default()
        };
        shared.for_each_site(|site| collect_site(&mut report, site));
        report.wakes.env_evals = env_evals;
        // Retiring a cell takes its daemon out (later kicks, e.g. from a
        // net thread still reading, find nothing to pump) and signals the
        // fallback thread, which returns at once instead of sleeping out
        // its park.
        for cell in &cells {
            let (inline, fallback) = cell.pumps();
            report.wakes.inline_pumps += inline;
            report.wakes.fallback_pumps += fallback;
            if let Some(daemon) = cell.retire() {
                report.daemon_stats.push(daemon.stats);
            }
        }
        for h in daemon_threads {
            if h.join().is_err() {
                report
                    .aborts
                    .push("a daemon's fallback thread panicked".to_string());
            }
        }
        report.fabric_packets = self.fabric.stats.packets.load(Ordering::Relaxed);
        report.fabric_bytes = self.fabric.stats.bytes.load(Ordering::Relaxed);
        report.chaos = chaos.as_ref().map(|c| c.report());
        report.ns_failovers = self.shard_map.failovers();
        report.transport = transport.as_mut().map(|t| {
            t.shutdown();
            t.report()
        });
        report.detector_probes = report
            .transport
            .map_or(detector.probes, |wire| wire.detector_probes);
        report
    }

    /// A site of this process, for inspection after a deterministic run.
    pub fn site(&self, lexeme: &str) -> Option<&Site> {
        self.nodes
            .iter()
            .flat_map(|c| &c.sites)
            .find(|s| s.lexeme == lexeme)
    }

    /// Current virtual time (deterministic Virtual mode).
    pub fn virtual_ns(&self) -> u64 {
        self.fabric.now_ns()
    }

    fn report(&self) -> RunReport {
        let mut report = RunReport {
            virtual_ns: self.fabric.now_ns(),
            fabric_packets: self.fabric.stats.packets.load(Ordering::Relaxed),
            fabric_bytes: self.fabric.stats.bytes.load(Ordering::Relaxed),
            chaos: self.chaos.as_ref().map(|c| c.report()),
            ns_failovers: self.shard_map.failovers(),
            in_flight: self.term.in_flight(),
            ..Default::default()
        };
        let mut quiescent = true;
        for cell in &self.nodes {
            debug_assert_eq!(cell.id.0 as usize, report.daemon_stats.len());
            report.daemon_stats.push(cell.daemon.stats);
            for site in &cell.sites {
                collect_site(&mut report, site);
                if site.machine.runnable() {
                    quiescent = false;
                }
            }
        }
        report.quiescent = quiescent;
        report
    }
}

/// Join the worker pool, surviving panicked workers. A worker that died
/// mid-slice abandoned its slot in state `RUNNING`; the site it was
/// pumping is marked errored and its inbox drained (the errored-site
/// discipline) so the run reports instead of aborting. Sound because this
/// runs after `Shared::stop`, when no live worker can re-enter the slot.
fn join_workers(shared: &Arc<Shared>, workers: Vec<std::thread::JoinHandle<()>>) -> Vec<String> {
    let mut aborts = Vec::new();
    for (i, h) in workers.into_iter().enumerate() {
        if h.join().is_err() {
            match shared.take_running(i) {
                Some(slot) => {
                    shared.mark_errored(
                        slot,
                        VmError::Internal(format!("worker thread {i} panicked mid-slice")),
                    );
                    aborts.push(format!(
                        "worker thread {i} panicked while pumping site slot {slot}; \
                         the site is reported errored"
                    ));
                }
                None => aborts.push(format!("worker thread {i} panicked between slices")),
            }
        }
    }
    aborts
}

fn collect_site(report: &mut RunReport, site: &Site) {
    report
        .outputs
        .insert(site.lexeme.clone(), site.machine.io.clone());
    report
        .stats
        .insert(site.lexeme.clone(), site.machine.stats.clone());
    report.total_instrs += site.machine.stats.instrs;
    report.blocked_imports += site.machine.port.pending_imports();
    if let Some(e) = &site.error {
        report.errors.push((site.lexeme.clone(), e.clone()));
    }
}
