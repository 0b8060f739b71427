//! The cluster environment: nodes, sites, fabric, and the one run loop
//! that drives them on a virtual or a wall clock.
//!
//! This is the programmatic face of Fig. 2 of the paper: a static IP
//! topology of nodes, each running a pool of sites plus a TyCOd, with the
//! name service hosted on the first node(s) and sites communicating
//! point-to-point through the fabric. The TyCOi/TyCOsh user-level flow
//! ("users submit new programs for execution in a node") corresponds to
//! [`Cluster::add_site`].
//!
//! A run mode is a clock plus a carrier driving one loop (DESIGN.md §10):
//! [`Cluster::run_deterministic`] is the virtual clock over the fabric,
//! [`Cluster::run_threaded`] the wall clock over it, and
//! [`Cluster::run_distributed`] the wall clock over the TCP transport.

use crate::chaos::{ChaosEvent, ChaosPlan, ChaosState};
use crate::counters::{
    self, ChaosReport, CodeCacheStats, Counters, DaemonStats, NsStats, SchedStats, TransportReport,
    WakeStats,
};
use crate::daemon::{Daemon, DaemonCell, DEFAULT_CODE_CACHE};
use crate::fabric::{Clock, Fabric, LinkProfile};
use crate::failure::FailureMonitor;
use crate::nameservice::NsShardMap;
use crate::sched::{SchedConfig, Shared, Worker};
use crate::site::{RtPort, Site, SiteInterface};
use crate::termination::{Snapshot, TermCounters, TerminationDetector, Ticket};
use crate::transport::{Transport, TransportConfig};
use crate::wake::{NoWake, Notify, Wake};
use crossbeam::channel::{unbounded, Sender};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tyco_vm::codec::Packet;
use tyco_vm::stats::ExecStats;
use tyco_vm::word::{Identity, NodeId, SiteId};
use tyco_vm::{Program, VmError};

/// One node: its daemon (its cell [down](DaemonCell::is_down) while the
/// node is killed), its sites (in the scheduler's pool during a run), and
/// the shared outgoing queue end that new sites clone.
struct NodeCell {
    id: NodeId,
    daemon: Arc<DaemonCell>,
    sites: Vec<Site>,
    out_tx: Sender<(SiteId, Packet, Ticket)>,
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
    /// The fabric's virtual time at the end: where a virtual-clock run
    /// stopped; 0 on the wall clock, which never moves it.
    pub virtual_ns: u64,
    /// Fabric traffic.
    pub fabric_packets: u64,
    pub fabric_bytes: u64,
    /// Per-node daemon statistics.
    pub daemon_stats: Vec<DaemonStats>,
    /// True when the run ended with nothing runnable anywhere: on the
    /// termination detector's verdict, or on the virtual clock at its
    /// limit with no site runnable (never at the wall limit or a cut).
    pub quiescent: bool,
    /// Import requests still unresolved at the end.
    pub blocked_imports: usize,
    /// Probes the termination detector performed: one per exit test in
    /// process, on either clock; in a distributed run, the snapshots
    /// this process took for its own waves and its peers'.
    pub detector_probes: u64,
    /// Total byte-code instructions executed across all sites.
    pub total_instrs: u64,
    /// Work-stealing scheduler counters (wall clock; zero on the
    /// virtual clock, which has no workers).
    pub sched: SchedStats,
    /// Nodes considered dead at the end (heartbeat silence, or in a
    /// distributed run exhausted reconnects).
    pub suspects: Vec<NodeId>,
    /// Wire-level counters (distributed runs only).
    pub transport: Option<TransportReport>,
    /// Runtime-thread failures survived during the run: a worker thread,
    /// or a slice the net thread ran, that panicked. The run completes
    /// and reports instead of aborting; each entry names what was lost.
    pub aborts: Vec<String>,
    /// Fault-injection tallies (`None` unless the run had a chaos plan
    /// installed). Every injected event — drop, duplicate, delay,
    /// partition block, kill, restart — is counted here.
    pub chaos: Option<ChaosReport>,
    /// Shard-map failovers: requests routed to a follower because the
    /// owning shard was suspected down (rings of two or more).
    pub ns_failovers: u64,
    /// Who did the waking (pumps are zero on the virtual clock, where
    /// nobody is woken).
    pub wakes: WakeStats,
    /// Packets this process injected and did not consume by the end of
    /// the run: still held by a queue, a carrier or a parking lot. 0 for
    /// a run that ended with nothing stranded.
    pub in_flight: i64,
}

impl RunReport {
    /// Output lines of one site (empty slice if unknown).
    pub fn output(&self, lexeme: &str) -> &[String] {
        self.outputs.get(lexeme).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Code-cache counters summed across every node's daemon.
    pub fn cache_totals(&self) -> CodeCacheStats {
        self.daemon_stats.iter().map(|d| d.cache).sum()
    }

    /// Name-service counters summed across every node's daemon: shard
    /// routing, lease-cache traffic, invalidations and replication.
    pub fn ns_totals(&self) -> NsStats {
        self.daemon_stats.iter().map(|d| d.ns).sum()
    }

    /// Duplicate/late fetch replies dropped by sites (idempotency guard).
    pub fn total_dup_fetch_replies(&self) -> u64 {
        self.stats.values().map(|s| s.dup_fetch_replies).sum()
    }
}

/// The run's counters by name (`cache.hits`, `wire.dropped`, …): the
/// groups daemons summed, and the run's own totals.
impl Counters for RunReport {
    fn get(&self, path: &str) -> Option<u64> {
        let (head, rest) = counters::split(path);
        let daemons = || self.daemon_stats.iter().copied().sum::<DaemonStats>();
        match head {
            "cache" | "ns" => daemons().get(path),
            "daemon" => daemons().get(rest),
            "wire" => self.transport?.get(rest),
            "chaos" => self.chaos?.get(rest),
            "sched" => self.sched.get(rest),
            "dup_fetch_replies" => self.total_dup_fetch_replies().get(rest),
            "ns_failovers" => self.ns_failovers.get(rest),
            "detector_probes" => self.detector_probes.get(rest),
            _ => None,
        }
    }
}

/// Limits for a virtual-clock run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Stop after this many byte-code instructions (across all sites).
    pub max_instrs: u64,
    /// Instructions per site slice (context-switch granularity between
    /// sites on the virtual clock).
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
    nodes: Vec<NodeCell>,
    term: &'static TermCounters,
    site_lexemes: Vec<String>,
    /// The node of every site, local or declared remote, by `SiteId`.
    site_nodes: Vec<NodeId>,
    /// Heartbeat cadence of an in-process run, in loop rounds (scheduler
    /// rounds on the virtual clock); `None` disables heartbeats.
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
    /// The sites, while a run holds them.
    pool: Option<Arc<Shared>>,
    /// The name service's shard map, shared with every daemon:
    /// consistent-hash ownership over the first `ring` nodes plus the
    /// live down-set routing requests to followers.
    shard_map: Arc<NsShardMap>,
    /// Modeled per-request resolver cost at name-service hosts (clock
    /// ns; 0 = instantaneous). See [`Cluster::set_ns_service`].
    ns_service_ns: u64,
}

impl Cluster {
    /// A cluster whose nodes share one link profile: an
    /// [ideal](LinkProfile::is_ideal) link delivers at send time, any
    /// other on the virtual clock.
    /// The name service is a ring of the first `ns_replicas` ≥ 1 nodes
    /// added, each owning a consistent-hash slice of the export table and
    /// replicating it to its ring successor, with no lease caching. The
    /// default of 1 is the paper's central service on node 0.
    pub fn new(link: LinkProfile, ns_replicas: usize) -> Cluster {
        Cluster {
            fabric: Fabric::new(link),
            nodes: Vec::new(),
            term: TermCounters::leak(),
            site_lexemes: Vec::new(),
            site_nodes: Vec::new(),
            heartbeat_every: None,
            stale_periods: 3,
            sched: SchedConfig::default(),
            code_cache: DEFAULT_CODE_CACHE,
            chaos: None,
            pool: None,
            shard_map: Arc::new(NsShardMap::new(ns_replicas, 0)),
            ns_service_ns: 0,
        }
    }

    /// Grant importing nodes `lease_ns`-TTL cached bindings (0, the
    /// default, disables caching). Every daemon is built around the
    /// name service's map, so call this before adding nodes.
    pub fn set_ns_lease(&mut self, lease_ns: u64) {
        assert!(self.nodes.is_empty(), "set_ns_lease must precede add_node");
        self.shard_map = Arc::new(NsShardMap::new(self.shard_map.ring(), lease_ns));
    }

    /// Model a per-request resolver cost at every name-service host:
    /// each `NsRegister`/`NsImport` occupies the serving daemon for
    /// `service_ns` of virtual time (0, the default, serves instantly).
    /// A virtual-clock model only: it makes a ring-of-one server's serial
    /// bind cost — the paper's bottleneck — visible in the makespan, and
    /// the wall-clock runs refuse a non-zero cost. Applies to existing
    /// and future nodes.
    pub fn set_ns_service(&mut self, service_ns: u64) {
        self.ns_service_ns = service_ns;
        for cell in &self.nodes {
            cell.daemon.with(|d| d.set_ns_service_ns(service_ns));
        }
    }

    /// Set every node's code-cache capacity (existing and future nodes).
    pub fn set_code_cache(&mut self, capacity: usize) {
        self.code_cache = capacity;
        for cell in &self.nodes {
            cell.daemon.with(|d| d.set_code_cache(capacity));
        }
    }

    /// The configured per-node code-cache capacity.
    pub fn code_cache(&self) -> usize {
        self.code_cache
    }

    /// A single-node, ideal-fabric cluster (functional testing).
    pub fn local() -> Cluster {
        let mut c = Cluster::new(LinkProfile::ideal(), 1);
        c.add_node();
        c
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
        self.nodes.push(NodeCell {
            id,
            daemon: DaemonCell::new(daemon),
            sites: Vec::new(),
            out_tx,
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
        let identity = self.register_site(lexeme, node);
        let (in_tx, in_rx) = unbounded();
        let cell = &mut self.nodes[node.0 as usize];
        cell.daemon.with(|d| d.attach_site(identity.site, in_tx));
        let mut port = RtPort::new(
            identity,
            lexeme.to_string(),
            cell.out_tx.clone(),
            in_rx,
            Arc::new(NoWake),
            self.term,
        );
        port.set_interface(interface);
        let site = Site::new(program, port, cell.daemon.down_flag());
        cell.sites.push(site);
        identity.site
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
        self.register_site(lexeme, node).site
    }

    /// The next [`SiteId`], on `node`, registered in every name-service
    /// host (the ring nodes) up front — the paper: "site names are
    /// registered in a Network Name Service" and "all sites know its
    /// location in advance".
    fn register_site(&mut self, lexeme: &str, node: NodeId) -> Identity {
        let identity = Identity {
            site: SiteId(self.site_lexemes.len() as u32),
            node,
        };
        self.site_lexemes.push(lexeme.to_string());
        self.site_nodes.push(node);
        for cell in &self.nodes {
            cell.daemon.with(|d| {
                if let Some(ns) = &mut d.ns {
                    ns.register_site(lexeme, identity);
                }
            });
        }
        identity
    }

    /// Kill a node (failure injection, §7; a chaos `KillNode` on either
    /// clock): its traffic is dropped, its daemon and sites stop, keeping
    /// what they hold, its keys route to the follower at once, and
    /// imports parked at the corpse are re-issued.
    pub fn kill_node(&mut self, node: NodeId) {
        self.fabric.kill_node(node);
        if let Some(cell) = self.nodes.get(node.0 as usize) {
            cell.daemon.set_down(true);
        }
        if self.shard_map.mark_down(node) {
            self.resend_all_pending_imports();
        }
    }

    /// Restart a killed node, modelling a daemon process bounce: its TyCOd
    /// comes back *empty* — code cache cleared, parked and queued traffic
    /// lost (consumed with its tickets), heartbeat history reset — and
    /// its sites and fabric delivery resume. In-flight shipments converge
    /// again via the daemon's bounded NeedCode refill retries.
    pub fn restart_node(&mut self, node: NodeId) {
        if let Some(cell) = self.nodes.get(node.0 as usize) {
            cell.daemon.with(Daemon::simulate_restart);
            // Resuming serves the kicks that found the node down.
            cell.daemon.set_down(false);
        }
        self.fabric.revive_node(node);
        // A healed owner serves its shard again. Writes it missed arrive
        // via the follower's symmetric replication stream.
        self.shard_map.mark_up(node);
        // Sites with work left when the node died are queued again.
        if let Some(pool) = &self.pool {
            pool.for_each_site(|slot, site| {
                if site.identity.node == node {
                    pool.handle(slot).wake();
                }
            });
        }
    }

    /// Deliver `packet` to `to` over the fabric as if `from` had sent it,
    /// on a ticket of the cluster's own counters: fault injection, like
    /// [`kill_node`](Cluster::kill_node), for a packet no site here sends
    /// (a forged or orphaned shipment).
    pub fn inject(&self, from: NodeId, to: NodeId, packet: &Packet) {
        let bytes = tyco_vm::codec::encode(packet);
        let ticket = Ticket::mint(self.term, 1);
        self.fabric.handle().send(from, to, bytes, ticket);
    }

    /// Every site in node-major order, wherever it is.
    fn for_each_site(&mut self, mut f: impl FnMut(&mut Site)) {
        for site in self.nodes.iter_mut().flat_map(|c| &mut c.sites) {
            f(site);
        }
        if let Some(pool) = &self.pool {
            pool.for_each_site(|_, site| f(site));
        }
    }

    /// Re-issue every live site's unresolved imports: they may be parked
    /// at a node that just died or changed shard role.
    fn resend_all_pending_imports(&mut self) {
        self.for_each_site(|site| {
            if !site.is_down() {
                site.machine.port.resend_pending_imports();
            }
        });
    }

    /// Install a seeded fault-injection plan on the cluster's fabric.
    /// Every packet crossing a node boundary then rolls for a fate
    /// (drop / duplicate / delay within the link's profile) from a
    /// deterministic per-edge stream, and the plan's timed events
    /// (partition, heal, kill, restart) fire as the run's clock passes
    /// them. Same seed + same plan ⇒ same injected schedule.
    pub fn set_chaos(&mut self, plan: ChaosPlan) -> Result<(), String> {
        plan.validate()?;
        let st = ChaosState::new(plan);
        self.fabric.set_chaos(Some(st.clone()));
        self.chaos = Some(st);
        Ok(())
    }

    /// One heartbeat round: beacons from live nodes, observation from a
    /// live ring node's view, and the shard map following the monitor's
    /// verdicts — a suspected owner's keys fail over to its ring
    /// successor, a healed owner takes them back.
    fn heartbeat_round(&mut self, beats: &mut Beats) {
        beats.round += 1;
        let round = beats.round;
        for cell in &self.nodes {
            cell.daemon.live(Daemon::send_heartbeat);
        }
        let ring = self.shard_map.ring();
        // The first live ring node's view.
        let mut ring_nodes = self.nodes.iter().take(ring);
        let seen = ring_nodes.find_map(|c| c.daemon.live(|d| d.heartbeats.clone()));
        for (n, s) in seen.unwrap_or_default() {
            beats.monitor.observe(n, s, round);
        }
        for i in 0..ring {
            let n = NodeId(i as u32);
            let dead = self.nodes.get(i).is_none_or(|c| c.daemon.is_down());
            if dead || beats.monitor.suspected(n, round) {
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
    /// not exist, and their imports would hang. The wall clock also
    /// refuses what only the virtual clock models: a link that takes
    /// time, and a resolver cost.
    fn check(&self, wall: bool) -> Result<(), String> {
        let (ring, nodes) = (self.shard_map.ring(), self.nodes.len());
        if ring > nodes {
            return Err(format!(
                "the name service's ring of {ring} does not fit a topology of {nodes} node(s)"
            ));
        }
        if wall && !self.fabric.is_immediate() {
            return Err("a wall-clock run needs link=ideal: \
                 only a deterministic run models link latency"
                .to_string());
        }
        if wall && self.ns_service_ns != 0 {
            return Err("a wall-clock run needs a resolver cost of 0: \
                 only a deterministic run models the name service's service time"
                .to_string());
        }
        Ok(())
    }

    /// Run on the virtual clock, round by round, until nothing is left to
    /// happen; the cluster can then be inspected and run again.
    pub fn run_deterministic(&mut self, limits: RunLimits) -> RunReport {
        self.check(false).unwrap_or_else(|e| panic!("{e}"));
        let rounds = Rounds {
            limits,
            idle_beats: 0,
            last: Step::Idled,
            instrs: 0,
            runnable: true,
        };
        self.run(Engine::Virtual(rounds), None)
    }

    /// Run with real threads: sites are multiplexed over a fixed worker
    /// pool by the M:N work-stealing scheduler (`self.sched`; default
    /// worker count is the available parallelism), daemons are pumped by
    /// whoever kicks them, and termination detection runs on the caller's
    /// thread, woken by the scheduler's idle transitions. Consumes the
    /// cluster and returns the report.
    pub fn run_threaded(mut self, wall_limit: Duration) -> RunReport {
        self.check(true).unwrap_or_else(|e| panic!("{e}"));
        self.run(Engine::Wall(wall_limit, None), None)
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
        mut self,
        cfg: TransportConfig,
        wall_limit: Duration,
    ) -> Result<RunReport, String> {
        self.check(true)?;
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
        Ok(self.run(Engine::Wall(wall_limit, None), Some(transport)))
    }

    /// The one driver of every run mode: a clock (`engine`) plus a carrier,
    /// the fabric or `transport` (DESIGN.md §10). The exit test follows
    /// the advance, so a run that has just ended fires no further event.
    fn run(&mut self, mut engine: Engine, mut transport: Option<Transport>) -> RunReport {
        let (clock, workers_n) = match engine {
            Engine::Virtual(_) => (Clock::Virtual(self.fabric.handle()), 0),
            Engine::Wall(..) => (Clock::Wall(Instant::now()), self.sched.effective_workers()),
        };
        let wall = matches!(engine, Engine::Wall(..));
        for cell in &mut self.nodes {
            if transport.as_ref().is_some_and(|t| !t.is_local(cell.id)) {
                // A node of a peer process has no sites here (see
                // `add_remote_site`), and its daemon goes.
                cell.daemon.retire();
                continue;
            }
            cell.daemon.with(|d| {
                d.set_clock(clock.clone());
                if let Some(t) = &transport {
                    d.set_fabric(Arc::new(t.handle()));
                }
            });
            if wall {
                // Deliveries and flushes kick the cell: it pumps inline.
                self.fabric.set_waker(cell.id, cell.daemon.clone());
            }
        }
        let sites = self.nodes.iter_mut().flat_map(|c| c.sites.drain(..));
        let pool = Shared::new(sites.collect(), workers_n, self.sched.slice_fuel);
        if wall {
            pool.for_each_site(|slot, site| {
                let (ready, id) = (Arc::new(pool.handle(slot)), site.identity);
                let cell = &self.nodes[id.node.0 as usize].daemon;
                site.machine.port.set_daemon_waker(cell.clone());
                cell.with(|d| d.set_site_waker(id.site, ready));
            });
        }
        self.pool = Some(pool.clone());
        // What a wall-clock advance parks on.
        let env_park = match &transport {
            Some(t) => {
                // A termination wave must hear from every node that hosts
                // a site, here or in a peer process, or a shard.
                let ring = (0..self.shard_map.ring() as u32).map(NodeId);
                let mut members: Vec<NodeId> =
                    self.site_nodes.iter().copied().chain(ring).collect();
                members.sort_by_key(|n| n.0);
                members.dedup();
                let (edges, pool) = (Arc::new(Notify::new()), pool.clone());
                t.attach(&members, move || pool.active_sites() > 0, edges.clone());
                edges
            }
            None => pool.idle.clone(),
        };
        let mut beats = Beats {
            monitor: FailureMonitor::new(self.stale_periods),
            round: 0,
        };
        let mut detector = TerminationDetector::new();
        let (mut round, mut env_evals, mut park) = (0u64, 0u64, Duration::ZERO);
        // The wall clock's refill retry clock: whether a daemon had parked
        // refills at the last look, and the millisecond it looked in.
        let (mut refilling, mut refilled_ms) = (false, 0u64);
        let quiescent = loop {
            // 1. Chaos events due now: partitions and heals act inside
            // the chaos state, kills and restarts here.
            if let Some(ch) = self.chaos.clone() {
                for ev in ch.apply_due(clock.now_ns()) {
                    match ev {
                        ChaosEvent::KillNode(n) => self.kill_node(n),
                        ChaosEvent::RestartNode(n) => self.restart_node(n),
                        ChaosEvent::Partition { .. } | ChaosEvent::Heal => {}
                    }
                }
            }
            // 2. A heartbeat round, when due: in-process runs only (the
            // transport beats on its own tick), and a dry clock has none.
            round += 1;
            let due = self.heartbeat_every.is_some_and(|e| round % e == 0);
            let dry = matches!(&engine, Engine::Virtual(r) if r.dry());
            if due && transport.is_none() && !dry {
                self.heartbeat_round(&mut beats);
            }
            // 3. Advance the clock. The wall clock's first advance starts
            // the workers, after the chaos events due at 0 have fired; while
            // refills are parked it wakes every millisecond to tick them.
            match &mut engine {
                Engine::Virtual(r) => r.last = self.virtual_round(&pool, r, &mut beats),
                Engine::Wall(_, workers) => {
                    if workers.is_none() {
                        *workers = Some(spawn_workers(&pool, workers_n));
                    }
                    let tick = Duration::from_millis(1);
                    env_park.wait_timeout(if refilling { park.min(tick) } else { park });
                    let ms = clock.now_ns() / 1_000_000;
                    refilling = self.tick_refills(if refilling { ms - refilled_ms } else { 0 });
                    refilled_ms = ms;
                }
            }
            // 4. The exit test.
            env_evals += 1;
            match &transport {
                Some(t) => {
                    if t.concluded() {
                        break true;
                    }
                    // The wire's failure verdicts steer shard failover the
                    // same way the in-process monitor does. They are read
                    // after the cut is judged: a peer the cut found
                    // suspected stays so until it beacons again.
                    let down = t.all_remotes_down();
                    let suspects = t.suspects();
                    for &n in &suspects {
                        self.shard_map.mark_down(n);
                    }
                    if down {
                        // Every peer is dead, departed or unreachable:
                        // whatever this process is computing or waiting
                        // for, the run is over. A clean cascade — local
                        // sites idle, nobody suspected, no dialer
                        // exhausted — is the peers finishing and leaving;
                        // anything else is a cut, reported with its suspects.
                        break pool.active_sites() == 0
                            && suspects.is_empty()
                            && t.report().peers_failed == 0;
                    }
                    // Suspicion ripens by the heartbeat clock, not by an
                    // edge: look again every tick.
                    park = t.hb_period();
                }
                None => {
                    // Time the clock can still advance to is work the
                    // counters cannot see (a timed kill or restart, a
                    // heartbeat that fails a shard over): it counts as
                    // activity.
                    let busy = match &engine {
                        Engine::Virtual(r) => !r.dry() || r.runnable,
                        Engine::Wall(..) => {
                            let timed = self.chaos.as_ref().and_then(|ch| ch.next_event_ns());
                            pool.active_sites() > 0 || timed.is_some()
                        }
                    };
                    let snap = Snapshot::take(self.term, busy);
                    if detector.probe(snap) {
                        break true;
                    }
                    // A first quiet wave is confirmed after a token wait:
                    // once the run has truly terminated no idle edge fires
                    // again. Busy, the timeout only bounds the wall check.
                    park = Duration::from_micros(if snap.quiet() { 200 } else { 20_000 });
                }
            }
            // The limit. On the virtual clock: out of fuel, or dry after
            // the detector's second look (packets stranded at a dead
            // node, or a dead node's site left runnable).
            match &engine {
                Engine::Virtual(r) => {
                    let fuel = r.last == Step::Ran && r.instrs > r.limits.max_instrs;
                    if fuel || r.last == Step::StillDry {
                        break !r.runnable;
                    }
                }
                Engine::Wall(limit, _) => {
                    if Duration::from_nanos(clock.now_ns()) > *limit {
                        break false;
                    }
                }
            }
        };
        // Liveness verdicts are captured *before* the wire is torn down.
        // In process, a node that stopped beaconing is suspected.
        let known: Vec<NodeId> = self.nodes.iter().map(|c| c.id).collect();
        let suspects = transport.as_ref().map_or_else(
            || beats.monitor.suspects(&known, beats.round),
            Transport::suspects,
        );
        pool.stop();
        let workers = match engine {
            Engine::Wall(_, workers) => workers.unwrap_or_default(),
            Engine::Virtual(_) => Vec::new(),
        };
        let mut report = RunReport {
            virtual_ns: self.fabric.now_ns(),
            sched: if wall {
                pool.stats()
            } else {
                SchedStats::default()
            },
            aborts: join_workers(&pool, workers),
            suspects,
            quiescent,
            // Taken while the daemons still hold what they hold.
            in_flight: self.term.in_flight(),
            detector_probes: detector.probes,
            ..Default::default()
        };
        report.wakes.env_evals = env_evals;
        self.for_each_site(|site| collect_site(&mut report, site));
        for cell in &self.nodes {
            report.wakes.inline_pumps += cell.daemon.pumps();
            report.daemon_stats.extend(cell.daemon.with(|d| d.stats));
            if wall {
                // Retiring a cell takes its daemon out: later kicks, e.g.
                // from a net thread still reading, find nothing to pump.
                cell.daemon.retire();
            }
        }
        report.fabric_packets = self.fabric.stats.packets.load(Ordering::Relaxed);
        report.fabric_bytes = self.fabric.stats.bytes.load(Ordering::Relaxed);
        report.chaos = self.chaos.as_ref().map(|c| c.report());
        report.ns_failovers = self.shard_map.failovers();
        report.transport = transport.as_mut().map(|t| {
            t.shutdown();
            t.report()
        });
        if let Some(wire) = &report.transport {
            report.detector_probes = wire.detector_probes;
        }
        // The sites go back to their nodes, where a virtual-clock run
        // finds them again and `site` inspects them.
        self.pool = None;
        if !wall {
            for site in pool.into_sites() {
                self.nodes[site.identity.node.0 as usize].sites.push(site);
            }
        }
        report
    }

    /// One round of the virtual clock: pump every live daemon in node
    /// order, then give every site a slice in slot order. When nothing
    /// ran, move time to the next event (plus `idle_advance_ns`), tick
    /// the refill clocks, or beat an idle heartbeat; else it is dry.
    fn virtual_round(&mut self, pool: &Shared, r: &mut Rounds, beats: &mut Beats) -> Step {
        if r.dry() {
            return Step::StillDry;
        }
        let mut progress = false;
        for cell in &self.nodes {
            progress |= cell.daemon.live(Daemon::pump).unwrap_or(false);
        }
        let (mut site_progress, mut instrs, mut runnable) = (false, 0, false);
        pool.for_each_site(|_, site| {
            site_progress |= site.pump_slice(r.limits.fuel_per_slice).ran;
            instrs += site.machine.stats.instrs;
            runnable |= site.machine.runnable();
        });
        (r.instrs, r.runnable) = (instrs, runnable);
        if site_progress {
            r.idle_beats = 0;
        }
        if progress || site_progress {
            return Step::Ran;
        }
        // A modeled resolver with a backlog finishes its current request
        // at a known clock time; jump there so queued binds are served.
        let resolvers = self
            .nodes
            .iter()
            .filter_map(|c| c.daemon.live(|d| d.ns_backlog_next_due()).flatten());
        let chaos = self.chaos.as_ref().and_then(|ch| ch.next_event_ns());
        if let Some(t) = resolvers
            .chain(chaos)
            .chain(self.fabric.next_event_ns())
            .min()
        {
            self.fabric
                .advance_to(t.saturating_add(r.limits.idle_advance_ns));
            return Step::Idled;
        }
        // Refill retry clocks tick only on idle rounds like this one, so
        // the bounded re-ask/give-up ladder never races real deliveries.
        if self.tick_refills(1) {
            return Step::Idled;
        }
        // With failure detection on, a bounded number of idle heartbeat
        // rounds lets a dead shard owner be noticed and failed over.
        let bound = self.stale_periods + self.shard_map.ring() as u64 + 2;
        if self.heartbeat_every.is_some() && r.idle_beats < bound {
            r.idle_beats += 1;
            self.heartbeat_round(beats);
            return Step::Idled;
        }
        Step::Dry
    }

    /// Tick the `NeedCode` retry clock `ticks` times at every live
    /// daemon with parked refills; whether there was one.
    fn tick_refills(&self, ticks: u64) -> bool {
        let mut parked = false;
        for cell in &self.nodes {
            cell.daemon.live(|d| {
                if d.has_pending_refills() {
                    parked = true;
                    for _ in 0..ticks {
                        d.tick_refills();
                    }
                }
            });
        }
        parked
    }

    /// A site of this process, for inspection after a deterministic run.
    pub fn site(&self, lexeme: &str) -> Option<&Site> {
        self.nodes
            .iter()
            .flat_map(|c| &c.sites)
            .find(|s| s.lexeme == lexeme)
    }

    /// Current virtual time (a deterministic run over a link that takes
    /// time).
    pub fn virtual_ns(&self) -> u64 {
        self.fabric.now_ns()
    }
}

/// A run's clock, as step 3 of the loop advances it.
enum Engine {
    /// Virtual time: the loop runs every round itself, up to a fuel limit.
    Virtual(Rounds),
    /// Wall time up to a limit: the workers run, the loop parks.
    Wall(Duration, Option<Vec<JoinHandle<()>>>),
}

/// The virtual clock's state across rounds.
struct Rounds {
    limits: RunLimits,
    /// Idle heartbeat rounds since a site last ran.
    idle_beats: u64,
    last: Step,
    /// Instructions run by every site (earlier runs too), and whether any
    /// site, dead or alive, can run: as the last stepping round left them.
    instrs: u64,
    runnable: bool,
}

impl Rounds {
    /// Nothing left to run or advance to.
    fn dry(&self) -> bool {
        matches!(self.last, Step::Dry | Step::StillDry)
    }
}

/// What one virtual round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A daemon or a site made progress.
    Ran,
    /// Nothing ran; time moved, or a refill or heartbeat ticked.
    Idled,
    /// Nothing ran and nothing is left to happen.
    Dry,
    /// Dry for a second round: the detector has looked twice.
    StillDry,
}

/// The in-process failure monitor and its round count.
struct Beats {
    monitor: FailureMonitor,
    round: u64,
}

/// Start a wall-clock run's worker pool: its only threads, with the net
/// thread when it has a transport.
fn spawn_workers(pool: &Arc<Shared>, workers: usize) -> Vec<JoinHandle<()>> {
    (0..workers)
        .map(|i| {
            let worker = Worker::new(pool.clone(), i);
            let thread = std::thread::Builder::new().name(format!("ditico-worker-{i}"));
            thread
                .spawn(move || worker.run())
                .expect("spawn a runtime thread")
        })
        .collect()
}

/// Join the worker pool, surviving panicked workers. A worker that died
/// mid-slice abandoned its slot in state `RUNNING`; the site it was
/// pumping is marked errored and its inbox drained (the errored-site
/// discipline) so the run reports instead of aborting. Sound because this
/// runs after `Shared::stop`, when no live worker can re-enter the slot.
/// The net thread's slices that panicked were reported as they happened;
/// their abort lines come first.
fn join_workers(shared: &Arc<Shared>, workers: Vec<JoinHandle<()>>) -> Vec<String> {
    let mut aborts = shared.take_aborts();
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
