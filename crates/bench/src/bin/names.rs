//! Name-service benchmark: the sharded, lease-cached, replicated service
//! against the paper's centralized server, recorded to `BENCH_names.json`
//! (`BENCH_names_smoke.json` under `--smoke`).
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
//! ```sh
//! cargo run --release -p ditico-bench --bin names             # full, BENCH_names.json
//! cargo run --release -p ditico-bench --bin names -- --smoke  # CI size + assertions
//! ```
//!
//! The storm's resolver cost (5 µs per bind/lookup) stands in for the
//! serial CPU the paper's central TyCOd name server pays per request —
//! the bottleneck this service exists to kill. All three scenarios run
//! on the deterministic virtual fabric, so every number here is
//! machine-independent and replayable.

use std::time::Instant;

use ditico_rt::{Cluster, FabricMode, LinkProfile, NsShardMap, RunLimits, RunReport};
use tyco_vm::word::NodeId;

/// Never expires within a run.
const LEASE_NS: u64 = 120_000_000_000;
/// Modeled resolver cost per NsRegister/NsImport (see module docs).
const SERVICE_NS: u64 = 5_000;
/// Nodes in the storm cluster; shards own the first 4.
const STORM_NODES: usize = 8;
const SHARDS: usize = 4;

fn no_errors(report: &RunReport, scenario: &str) {
    assert!(
        report.errors.is_empty(),
        "{scenario}: no site may fail: {:?}",
        report.errors
    );
}

// -- bind/import storm -------------------------------------------------------

struct StormSample {
    ops: u64,
    virtual_ms: f64,
    ops_per_virtual_sec: f64,
    wall_s: f64,
}

/// K exporters each register `names` channels; K importers resolve all of
/// them. `shards == 0` keeps the default ring of one: the central service.
fn run_storm(pairs: usize, names: usize, shards: usize) -> StormSample {
    let mut c = Cluster::new(FabricMode::Virtual, LinkProfile::myrinet(), 1);
    if shards > 0 {
        c.set_ns_sharding(shards, LEASE_NS);
    }
    c.set_ns_service(SERVICE_NS);
    for _ in 0..STORM_NODES {
        c.add_node();
    }
    let binders: Vec<String> = (0..names).map(|k| format!("x{k}")).collect();
    let export_src = format!("export new {} in 0", binders.join(", "));
    let export_prog = tyco_vm::compile(&tyco_syntax::parse_core(&export_src).expect("parse"))
        .expect("compile exporter");
    for j in 0..pairs {
        c.add_site(
            NodeId((j % STORM_NODES) as u32),
            &format!("e{j}"),
            export_prog.clone(),
        );
    }
    for j in 0..pairs {
        let mut src = String::new();
        for k in 0..names {
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
    let expected = (pairs * names) as u64;
    assert_eq!(ns.registers, expected, "storm: every export registered");
    assert!(
        ns.resolved >= expected,
        "storm: every import answered: {ns:?}"
    );
    let ops = 2 * expected;
    let virtual_s = report.virtual_ns as f64 / 1e9;
    StormSample {
        ops,
        virtual_ms: report.virtual_ns as f64 / 1e6,
        ops_per_virtual_sec: ops as f64 / virtual_s,
        wall_s,
    }
}

// -- warm lease-cache chain --------------------------------------------------

struct WarmSample {
    chain: usize,
    lease_hits: u64,
    lease_misses: u64,
    hit_rate: f64,
    packets_lease: u64,
    packets_nolease: u64,
    wire_saved: u64,
}

/// `g` sites on one node resolve the same `(server, p)` binding strictly
/// one after another (each rings the next when done). With leases on,
/// only the first import crosses the wire.
fn chain_cluster(g: usize, lease_ns: u64) -> Cluster {
    let mut c = Cluster::new(FabricMode::Virtual, LinkProfile::myrinet(), 1);
    c.set_ns_sharding(SHARDS, lease_ns);
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

fn run_warm(g: usize) -> WarmSample {
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
    WarmSample {
        chain: g,
        lease_hits: ns.lease_hits,
        lease_misses: ns.lease_misses,
        hit_rate,
        packets_lease: leased.fabric_packets,
        packets_nolease: cold.fabric_packets,
        wire_saved,
    }
}

// -- cold-resolve latency ----------------------------------------------------

struct LatencySample {
    reps: usize,
    p50_us: f64,
    p99_us: f64,
}

/// One cold resolve: exporter and importer placed by `rep`, key name
/// varied so the owning shard varies too. Returns the run's virtual ns.
fn latency_once(rep: usize, shards: usize) -> u64 {
    let mut c = Cluster::new(FabricMode::Virtual, LinkProfile::myrinet(), 1);
    if shards > 0 {
        c.set_ns_sharding(shards, LEASE_NS);
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

fn run_latency(reps: usize, shards: usize) -> LatencySample {
    let mut samples: Vec<u64> = (0..reps).map(|r| latency_once(r, shards)).collect();
    samples.sort_unstable();
    LatencySample {
        reps,
        p50_us: quantile(&samples, 0.50) / 1e3,
        p99_us: quantile(&samples, 0.99) / 1e3,
    }
}

// -- main --------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (pairs, names, chain, reps) = if smoke {
        (128, 2, 16, 12)
    } else {
        (1024, 4, 64, 64)
    };

    eprintln!("bind/import storm (centralized)...");
    let central = run_storm(pairs, names, 0);
    eprintln!(
        "  {} ops in {:.2} virtual ms ({:.0} ops/vs, {:.2}s wall)",
        central.ops, central.virtual_ms, central.ops_per_virtual_sec, central.wall_s
    );
    eprintln!("bind/import storm ({SHARDS} shards)...");
    let sharded = run_storm(pairs, names, SHARDS);
    eprintln!(
        "  {} ops in {:.2} virtual ms ({:.0} ops/vs, {:.2}s wall)",
        sharded.ops, sharded.virtual_ms, sharded.ops_per_virtual_sec, sharded.wall_s
    );
    let speedup = sharded.ops_per_virtual_sec / central.ops_per_virtual_sec;
    eprintln!("  aggregate bind throughput: {speedup:.2}x sharded over central");
    assert!(
        speedup >= 2.0,
        "sharding must at least double aggregate bind throughput, got {speedup:.2}x"
    );

    eprintln!("warm lease-cache chain...");
    let warm = run_warm(chain);
    eprintln!(
        "  {} repeat imports: {} lease hits / {} misses (rate {:.2}), \
         {} wire packets saved ({} vs {})",
        warm.chain - 1,
        warm.lease_hits,
        warm.lease_misses,
        warm.hit_rate,
        warm.wire_saved,
        warm.packets_lease,
        warm.packets_nolease
    );
    assert!(
        warm.hit_rate >= 0.4,
        "warm: cache-hit rate too low: {:.2}",
        warm.hit_rate
    );

    eprintln!("cold-resolve latency...");
    let lat_central = run_latency(reps, 0);
    let lat_sharded = run_latency(reps, SHARDS);
    eprintln!(
        "  central p50 {:.1} µs / p99 {:.1} µs; sharded p50 {:.1} µs / p99 {:.1} µs",
        lat_central.p50_us, lat_central.p99_us, lat_sharded.p50_us, lat_sharded.p99_us
    );

    let json = format!(
        "{{\n  \"bench\": \"names{}\",\n  \
         \"config\": {{ \"pairs\": {}, \"names_per_site\": {}, \"shards\": {}, \
         \"service_ns\": {}, \"chain\": {}, \"latency_reps\": {} }},\n  \
         \"storm\": {{\n    \
         \"central\": {{ \"ops\": {}, \"virtual_ms\": {:.3}, \"ops_per_virtual_sec\": {:.0}, \"wall_s\": {:.3} }},\n    \
         \"sharded\": {{ \"ops\": {}, \"virtual_ms\": {:.3}, \"ops_per_virtual_sec\": {:.0}, \"wall_s\": {:.3} }},\n    \
         \"bind_throughput_speedup\": {:.2}\n  }},\n  \
         \"warm\": {{ \"chain\": {}, \"lease_hits\": {}, \"lease_misses\": {}, \
         \"hit_rate\": {:.3}, \"packets_lease\": {}, \"packets_nolease\": {}, \
         \"wire_packets_saved\": {} }},\n  \
         \"latency\": {{\n    \
         \"central\": {{ \"reps\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1} }},\n    \
         \"sharded\": {{ \"reps\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1} }}\n  }}\n}}\n",
        if smoke { "_smoke" } else { "" },
        pairs,
        names,
        SHARDS,
        SERVICE_NS,
        chain,
        reps,
        central.ops,
        central.virtual_ms,
        central.ops_per_virtual_sec,
        central.wall_s,
        sharded.ops,
        sharded.virtual_ms,
        sharded.ops_per_virtual_sec,
        sharded.wall_s,
        speedup,
        warm.chain,
        warm.lease_hits,
        warm.lease_misses,
        warm.hit_rate,
        warm.packets_lease,
        warm.packets_nolease,
        warm.wire_saved,
        lat_central.reps,
        lat_central.p50_us,
        lat_central.p99_us,
        lat_sharded.reps,
        lat_sharded.p50_us,
        lat_sharded.p99_us
    );
    ditico_bench::assert_json_wellformed(&json);
    let path = if smoke {
        "BENCH_names_smoke.json"
    } else {
        "BENCH_names.json"
    };
    std::fs::write(path, &json).expect("write json");
    println!(
        "wrote {path}: sharded bind throughput {speedup:.2}x central, \
         warm hit rate {:.2}",
        warm.hit_rate
    );
}
