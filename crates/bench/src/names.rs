//! Name-service benchmark: the sharded, lease-cached, replicated service
//! against the paper's centralized server.
//!
//!   storm    — bind/import storm on the virtual fabric with a modeled
//!              per-request resolver cost (`Cluster::set_ns_service`):
//!              K exporter sites register S names each while K importer
//!              sites look them all up. Centralized, every request
//!              serializes through one resolver; sharded over 4 owners
//!              the busy time divides, and the deterministic virtual-time
//!              makespan shows the aggregate throughput ratio directly.
//!   warm     — a chain of importers on one node resolving the same
//!              binding: the first pays the wire, the rest must be
//!              answered from the node's lease cache (zero wire traffic),
//!              proved by an A/B against the same run with leases off.
//!   latency  — cold single-import resolve latency (virtual ns) across
//!              placements and key hashes, p50/p99, sharded vs central.
//!
//! The storm's resolver cost (5 µs per bind/lookup) stands in for the
//! serial CPU the paper's central TyCOd name server pays per request —
//! the bottleneck this service exists to kill. All three scenarios run
//! on the deterministic virtual fabric, so every number here but the
//! wall clock is machine-independent and replayable, and the whole run
//! takes a fraction of a second: the smoke is the full run.

use std::time::Instant;

use ditico_rt::{Cluster, LinkProfile, NsShardMap, RunLimits, RunReport};
use tyco_vm::word::NodeId;

use crate::json::Json;
use crate::{point, round, vals};

/// Never expires within a run.
const LEASE_NS: u64 = 120_000_000_000;
/// Modeled resolver cost per NsRegister/NsImport (see module docs).
const SERVICE_NS: u64 = 5_000;
/// Nodes in the storm cluster; shards own the first 4.
const STORM_NODES: usize = 8;
const SHARDS: usize = 4;
/// Storm size: exporter/importer site pairs, names per exporter.
const PAIRS: usize = 1024;
const NAMES: usize = 4;
/// Sites in the warm import chain.
const CHAIN: usize = 64;
/// Cold resolves per latency placement sweep.
const REPS: usize = 64;

fn no_errors(report: &RunReport, scenario: &str) {
    assert!(
        report.errors.is_empty(),
        "{scenario}: no site may fail: {:?}",
        report.errors
    );
}

// -- bind/import storm -------------------------------------------------------

/// `PAIRS` exporters each register `NAMES` channels; as many importers
/// resolve all of them. `shards == 0` keeps the default ring of one: the
/// central service. Returns (ops, virtual ns, wall s).
fn run_storm(shards: usize) -> (u64, u64, f64) {
    let mut c = Cluster::new(LinkProfile::myrinet(), shards.max(1));
    if shards > 0 {
        c.set_ns_lease(LEASE_NS);
    }
    c.set_ns_service(SERVICE_NS);
    for _ in 0..STORM_NODES {
        c.add_node();
    }
    let binders: Vec<String> = (0..NAMES).map(|k| format!("x{k}")).collect();
    let export_src = format!("export new {} in 0", binders.join(", "));
    let export_prog = tyco_vm::compile(&tyco_syntax::parse_core(&export_src).expect("parse"))
        .expect("compile exporter");
    for j in 0..PAIRS {
        c.add_site(
            NodeId((j % STORM_NODES) as u32),
            &format!("e{j}"),
            export_prog.clone(),
        );
    }
    for j in 0..PAIRS {
        let mut src = String::new();
        for k in 0..NAMES {
            src.push_str(&format!("import x{k} from e{j} in\n"));
        }
        src.push('0');
        c.add_site_src(
            NodeId(((j + 3) % STORM_NODES) as u32),
            &format!("i{j}"),
            &src,
        )
        .expect("importer compiles");
    }
    let start = Instant::now();
    let report = c.run_deterministic(RunLimits {
        max_instrs: 4_000_000_000,
        idle_advance_ns: 20 * SERVICE_NS,
        ..RunLimits::default()
    });
    let wall_s = start.elapsed().as_secs_f64();
    no_errors(&report, "storm");
    assert!(report.quiescent, "storm: every import must resolve");
    let ns = report.ns_totals();
    let expected = (PAIRS * NAMES) as u64;
    assert_eq!(ns.registers, expected, "storm: every export registered");
    assert!(
        ns.resolved >= expected,
        "storm: every import answered: {ns:?}"
    );
    (2 * expected, report.virtual_ns, wall_s)
}

/// The storm, central then sharded; sharding must at least double the
/// aggregate bind throughput.
fn storm() -> [Json; 2] {
    let (ops, central_ns, central_wall) = run_storm(0);
    let (_, sharded_ns, sharded_wall) = run_storm(SHARDS);
    let per_virtual_sec = |ns: u64| ops as f64 / (ns as f64 / 1e9);
    let speedup = per_virtual_sec(sharded_ns) / per_virtual_sec(central_ns);
    eprintln!("   storm: {ops} ops in {central_ns} vs {sharded_ns} virtual ns: {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "sharding must at least double aggregate bind throughput, got {speedup:.2}x"
    );
    [
        point(
            "storm central",
            true,
            vals! {
                "pairs" => PAIRS,
                "names_per_site" => NAMES,
                "service_ns" => SERVICE_NS,
                "ops" => ops,
                "virtual_ns" => central_ns,
                "ops_per_virtual_sec" => per_virtual_sec(central_ns).round(),
            },
            vals! {"wall_s" => round(central_wall, 3)},
        ),
        point(
            "storm sharded",
            true,
            vals! {
                "pairs" => PAIRS,
                "names_per_site" => NAMES,
                "service_ns" => SERVICE_NS,
                "shards" => SHARDS,
                "ops" => ops,
                "virtual_ns" => sharded_ns,
                "ops_per_virtual_sec" => per_virtual_sec(sharded_ns).round(),
                "bind_throughput_speedup" => round(speedup, 2),
            },
            vals! {"wall_s" => round(sharded_wall, 3)},
        ),
    ]
}

// -- warm lease-cache chain --------------------------------------------------

/// `g` sites on one node resolve the same `(server, p)` binding strictly
/// one after another (each rings the next when done). With leases on,
/// only the first import crosses the wire.
fn chain_cluster(g: usize, lease_ns: u64) -> Cluster {
    let mut c = Cluster::new(LinkProfile::myrinet(), SHARDS);
    c.set_ns_lease(lease_ns);
    for _ in 0..SHARDS {
        c.add_node();
    }
    // Keep the importing node off the key's owner shard so a cache miss
    // genuinely crosses the wire.
    let owner = NsShardMap::key_owner("server", "p", SHARDS);
    let srv_node = NodeId((owner.0 + 1) % SHARDS as u32);
    let chain_node = NodeId((owner.0 + 2) % SHARDS as u32);
    c.add_site_src(
        srv_node,
        "server",
        "def Srv(s) = s?{ val(x, r) = r![x] | Srv[s] } in export new p in Srv[p]",
    )
    .expect("server compiles");
    for i in 0..g {
        let call = format!(
            "new r (p!val[{i}, r] | r?(x) = {})",
            if i + 1 < g {
                format!("import t from c{} in t![]", i + 1)
            } else {
                "print(x)".to_string()
            }
        );
        let src = if i == 0 {
            format!("import p from server in {call}")
        } else {
            format!("export new t in t?() = import p from server in {call}")
        };
        c.add_site_src(chain_node, &format!("c{i}"), &src)
            .expect("chain site compiles");
    }
    c
}

fn run_warm(g: usize) -> Json {
    let leased = chain_cluster(g, LEASE_NS).run_deterministic(RunLimits::default());
    no_errors(&leased, "warm(lease)");
    assert!(leased.quiescent, "warm: chain must complete");
    let ns = leased.ns_totals();
    assert_eq!(
        ns.lease_hits,
        (g - 1) as u64,
        "warm: every repeat import of the binding is a node-cache hit: {ns:?}"
    );
    // The same chain with leases disabled pays the wire for every import.
    let cold = chain_cluster(g, 0).run_deterministic(RunLimits::default());
    no_errors(&cold, "warm(nolease)");
    assert!(cold.quiescent, "warm: no-lease chain must complete");
    let wire_saved = cold.fabric_packets.saturating_sub(leased.fabric_packets);
    assert!(
        wire_saved >= (g - 1) as u64,
        "warm: a cache hit is zero-wire, so leases must save at least one \
         round trip per repeat import: saved {wire_saved} over {g}-chain"
    );
    let hit_rate = ns.lease_hits as f64 / (ns.lease_hits + ns.lease_misses).max(1) as f64;
    assert!(
        hit_rate >= 0.4,
        "warm: cache-hit rate too low: {hit_rate:.2}"
    );
    eprintln!(
        "   warm: {} lease hits, {wire_saved} wire packets saved",
        ns.lease_hits
    );
    point(
        "warm",
        true,
        vals! {
            "chain" => g,
            "lease_hits" => ns.lease_hits,
            "lease_misses" => ns.lease_misses,
            "hit_rate" => round(hit_rate, 3),
            "packets_lease" => leased.fabric_packets,
            "packets_nolease" => cold.fabric_packets,
            "wire_packets_saved" => wire_saved,
        },
        vals! {},
    )
}

// -- cold-resolve latency ----------------------------------------------------

/// One cold resolve: exporter and importer placed by `rep`, key name
/// varied so the owning shard varies too. Returns the run's virtual ns.
fn latency_once(rep: usize, shards: usize) -> u64 {
    let mut c = Cluster::new(LinkProfile::myrinet(), shards.max(1));
    if shards > 0 {
        c.set_ns_lease(LEASE_NS);
    }
    c.set_ns_service(SERVICE_NS);
    for _ in 0..STORM_NODES {
        c.add_node();
    }
    c.add_site_src(
        NodeId((rep % STORM_NODES) as u32),
        "e",
        &format!("export new x{rep} in 0"),
    )
    .expect("exporter compiles");
    c.add_site_src(
        NodeId(((rep * 5 + 3) % STORM_NODES) as u32),
        "i",
        &format!("import x{rep} from e in 0"),
    )
    .expect("importer compiles");
    let report = c.run_deterministic(RunLimits::default());
    no_errors(&report, "latency");
    assert!(report.quiescent, "latency: the import must resolve");
    report.virtual_ns
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

fn run_latency(reps: usize, shards: usize) -> Json {
    let mut samples: Vec<u64> = (0..reps).map(|r| latency_once(r, shards)).collect();
    samples.sort_unstable();
    let (p50, p99) = (
        quantile(&samples, 0.50) / 1e3,
        quantile(&samples, 0.99) / 1e3,
    );
    eprintln!("   latency, {shards} shards: p50 {p50:.1} us / p99 {p99:.1} us");
    point(
        if shards == 0 {
            "latency central"
        } else {
            "latency sharded"
        },
        true,
        vals! {
            "reps" => reps,
            "shards" => shards,
            "p50_us" => round(p50, 1),
            "p99_us" => round(p99, 1),
        },
        vals! {},
    )
}

pub fn run(_smoke: bool) -> Vec<Json> {
    let mut points = Vec::from(storm());
    points.push(run_warm(CHAIN));
    points.push(run_latency(REPS, 0));
    points.push(run_latency(REPS, SHARDS));
    points
}
