//! Production-shaped chaos scenarios (the macro family riding on the
//! seeded fault-injection harness in `ditico_rt::chaos`):
//!
//!   pubsub   — fan-out: one hub site answers `sub` requests from 100k+
//!              subscriber sites spread over 8 nodes of the virtual
//!              fabric, under packet drop/dup/delay chaos. The run must
//!              stay deterministic, terminate, and deliver to the
//!              overwhelming majority despite the injected loss.
//!   herd     — RPC thundering herd: K sites on one node import the same
//!              remote def at once, hammering the per-node single-flight
//!              fetch path (quiet plan: exactly one FetchReq on the wire,
//!              K−1 coalesced), then again under drop chaos where the
//!              bounded NeedCode refill retries must reconverge.
//!   restart  — rolling restart of a serving peer over real loopback TCP:
//!              the peer bounces (down window ≫ the stale threshold,
//!              heartbeat sequence restarting from 1 like a restarted
//!              daemon's); every bounce must be survived, reconnected,
//!              and healed — the final report carries no suspects.
//!   soak     — partition/heal + daemon-restart churn across ≥150 seeds
//!              on the virtual fabric, every seed replayed: byte-identical
//!              reports per seed, zero panics, zero site errors, and the
//!              deterministic failure monitor driven through the
//!              partition windows.
//!
//! The smoke runs every scenario at CI size (2 000 subscribers, a herd of
//! 256, one restart cycle, 150 soak seeds).

use std::io::Write as _;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use ditico_rt::{
    ChaosEvent, ChaosPlan, ChaosSpec, Cluster, LinkProfile, RunLimits, RunReport, TransportConfig,
};
use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
use tyco_vm::word::NodeId;

use crate::json::Json;
use crate::{point, round, vals};

// The raw-socket stand-in for a member process the transport tests use.
#[path = "../../ditico-rt/tests/support/passive_peer.rs"]
mod passive_peer;
use passive_peer::PassivePeer;

fn faulty_spec(seed: u64) -> ChaosSpec {
    let mut spec = ChaosSpec::quiet(seed);
    spec.drop_per_mille = 20;
    spec.dup_per_mille = 10;
    spec.delay_per_mille = 10;
    spec.delay_ns = 1_000_000;
    spec
}

fn no_errors(report: &RunReport, scenario: &str) {
    assert!(
        report.errors.is_empty(),
        "{scenario}: chaos must degrade, never crash a site: {:?}",
        report.errors
    );
}

// -- pubsub ------------------------------------------------------------------

const HUB: &str = "def Hub(t) = t?{ sub(r) = r![7] | Hub[t] } in export new t in Hub[t]";
const SUB: &str = r#"import t from hub in new me (t!sub[me] | me?(v) = println("got", v))"#;

fn scenario_pubsub(smoke: bool, subs: usize) -> Json {
    let sub_nodes = 8usize;
    let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
    let hub_node = c.add_node();
    let nodes: Vec<NodeId> = (0..sub_nodes).map(|_| c.add_node()).collect();
    c.add_site_src(hub_node, "hub", HUB).expect("hub compiles");
    // Every subscriber runs the same program; compile once, clone cheaply.
    let sub_prog =
        tyco_vm::compile(&tyco_syntax::parse_core(SUB).expect("parse")).expect("compile");
    for i in 0..subs {
        c.add_site(nodes[i % sub_nodes], &format!("sub{i}"), sub_prog.clone());
    }
    c.set_chaos(ChaosPlan::new(faulty_spec(9))).expect("plan");
    let start = Instant::now();
    let report = c.run_deterministic(RunLimits {
        max_instrs: 4_000_000_000,
        // Batch delivery waves: without overshoot the idle advance wakes
        // the O(subs) site scan once per packet deadline.
        idle_advance_ns: 1_000_000,
        ..RunLimits::default()
    });
    let wall_s = start.elapsed().as_secs_f64();
    no_errors(&report, "pubsub");
    let delivered = (0..subs)
        .filter(|i| {
            report
                .output(&format!("sub{i}"))
                .iter()
                .any(|l| l == "got 7")
        })
        .count();
    let chaos = report.chaos.expect("chaos report");
    assert!(
        delivered * 2 > subs,
        "pubsub: fan-out mostly survives 2% drop: {delivered}/{subs}"
    );
    eprintln!("   pubsub: {delivered}/{subs} delivered in {wall_s:.2}s");
    point(
        &format!("pubsub {subs} subs"),
        smoke,
        vals! {
            "subs" => subs,
            "delivered" => delivered,
            "packets" => report.fabric_packets,
            "dropped" => chaos.dropped,
            "duplicated" => chaos.duplicated,
            "delayed" => chaos.delayed,
        },
        vals! {"wall_s" => round(wall_s, 3)},
    )
}

// -- thundering herd ---------------------------------------------------------

const HERD_SRV: &str = r#"export def Applet(r) = r![1] in 0"#;
const HERD_CLIENT: &str =
    r#"import Applet from server in new a (Applet[a] | a?(x) = println("ran"))"#;

fn herd_cluster(k: usize) -> Cluster {
    let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
    let srv = c.add_node();
    let cli = c.add_node();
    c.add_site_src(srv, "server", HERD_SRV).expect("server");
    let prog =
        tyco_vm::compile(&tyco_syntax::parse_core(HERD_CLIENT).expect("parse")).expect("compile");
    for i in 0..k {
        c.add_site(cli, &format!("c{i}"), prog.clone());
    }
    c
}

fn scenario_herd(smoke: bool, k: usize) -> Json {
    // Quiet plan first: the herd must collapse onto one wire fetch.
    let mut c = herd_cluster(k);
    let start = Instant::now();
    let report = c.run_deterministic(RunLimits {
        max_instrs: 2_000_000_000,
        ..RunLimits::default()
    });
    let wall_s = start.elapsed().as_secs_f64();
    no_errors(&report, "herd");
    let cache = report.cache_totals();
    assert_eq!(
        report.stats["server"].fetches_served, 1,
        "herd: single-flight puts exactly one FetchReq on the wire"
    );
    assert_eq!(
        cache.coalesced,
        (k as u64) - 1,
        "herd: every other fetch coalesces onto the leader"
    );

    // Same herd under drop chaos: the refill retries must still converge
    // for most of the herd, and nothing may panic or hang.
    let mut c = herd_cluster(k);
    c.set_chaos(ChaosPlan::new(faulty_spec(17))).expect("plan");
    let chaotic = c.run_deterministic(RunLimits {
        max_instrs: 2_000_000_000,
        idle_advance_ns: 1_000_000,
        ..RunLimits::default()
    });
    no_errors(&chaotic, "herd(chaotic)");
    let chaotic_delivered = (0..k)
        .filter(|i| chaotic.output(&format!("c{i}")).iter().any(|l| l == "ran"))
        .count();
    let chaos = chaotic.chaos.expect("chaos report");
    eprintln!("   herd: {k} onto 1 fetch in {wall_s:.2}s; {chaotic_delivered} ran under chaos");
    point(
        &format!("herd {k}"),
        smoke,
        vals! {
            "k" => k,
            "coalesced" => cache.coalesced,
            "fetches_served" => report.stats["server"].fetches_served,
            "chaotic_delivered" => chaotic_delivered,
            "chaotic_dropped" => chaos.dropped,
        },
        vals! {"wall_s" => round(wall_s, 3)},
    )
}

// -- rolling restart over real TCP -------------------------------------------

fn hello_frame(node: NodeId) -> bytes::Bytes {
    codec::encode_frame(
        node,
        CONTROL_NODE,
        &codec::encode(&Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![node],
        }),
    )
}

fn scenario_restart(smoke: bool, cycles: u32) -> Json {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // A steady second peer keeps the run from terminating via
    // all-remotes-down while the serving peer is inside a down window.
    let steady_l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let steady_addr = steady_l.local_addr().expect("addr");
    let steady = std::thread::spawn(move || {
        let (mut sock, _) = steady_l.accept().expect("accept");
        sock.write_all(&hello_frame(NodeId(2))).expect("hello");
        PassivePeer::new(NodeId(2)).beat(&mut sock, 1, 3_000, Duration::from_millis(20));
    });

    // The "serve process": accepts, heartbeats, dies, comes back on the
    // same port with its beacon sequence restarted — `cycles` times, then
    // stays up until the client disconnects. It withholds its reports
    // until the last comeback, so no wave can end the run before the
    // client has ridden out every reconnect.
    let server = std::thread::spawn(move || {
        let mut listener = listener;
        for _ in 0..cycles {
            let (mut sock, _) = listener.accept().expect("accept");
            drop(listener);
            sock.write_all(&hello_frame(NodeId(0))).expect("hello");
            // Alive past the stale threshold, then gone past the
            // immediate-redial window so the comeback is a true
            // reconnect.
            let mut peer = PassivePeer::new(NodeId(0));
            peer.answers = false;
            peer.beat(&mut sock, 1, 20, Duration::from_millis(20));
            drop(sock);
            std::thread::sleep(Duration::from_millis(150));
            listener = TcpListener::bind(addr).expect("rebind");
        }
        let (mut sock, _) = listener.accept().expect("final accept");
        sock.write_all(&hello_frame(NodeId(0))).expect("hello");
        PassivePeer::new(NodeId(0)).beat(&mut sock, 1, 600, Duration::from_millis(20));
    });

    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    c.add_remote_site("bystander", NodeId(2));
    c.add_site_src(NodeId(1), "client", "print(1)")
        .expect("client");
    let start = Instant::now();
    let report = c
        .run_distributed(
            TransportConfig {
                local_nodes: vec![NodeId(1)],
                peers: vec![addr, steady_addr],
                hb_period: Duration::from_millis(20),
                stale_periods: 3,
                max_retries: 100,
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(50),
                ..TransportConfig::default()
            },
            Duration::from_secs(60),
        )
        .expect("client run");
    let wall_s = start.elapsed().as_secs_f64();
    no_errors(&report, "restart");
    assert!(report.quiescent, "restart: the run ends on the verdict");
    let wire = report.transport.expect("wire counters");
    assert!(
        wire.reconnects >= u64::from(cycles),
        "restart: every bounce reconnects: {} < {cycles} ({wire:?})",
        wire.reconnects
    );
    assert!(
        report.suspects.is_empty(),
        "restart: the healed peer must shed suspicion: {:?}",
        report.suspects
    );
    server.join().expect("server thread");
    steady.join().expect("steady thread");
    eprintln!(
        "   restart: {cycles} cycle(s), {} reconnects in {wall_s:.2}s",
        wire.reconnects
    );
    point(
        &format!("restart x{cycles}"),
        smoke,
        vals! {"cycles" => cycles, "suspects_final" => report.suspects.len()},
        vals! {
            "reconnects" => wire.reconnects,
            "heartbeats_in" => wire.heartbeats_in,
            "wall_s" => round(wall_s, 3),
        },
    )
}

// -- partition/heal soak -----------------------------------------------------

const SOAK_SRV: &str = "def Srv(p) = p?{ val(x, a) = a![x] | Srv[p] } in export new p in Srv[p]";
const SOAK_CLIENT: &str = r#"
    import p from server in
    def Loop(n) =
        if n > 0 then new a (p!val[n, a] | a?(v) = Loop[n - 1]) else println("done")
    in Loop[12]
"#;

fn soak_cluster() -> Cluster {
    let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    // Deterministic heartbeats so the partition windows drive the
    // failure monitor, not just the packet counters.
    c.heartbeat_every = Some(64);
    c.stale_periods = 2;
    c.add_site_src(n0, "server", SOAK_SRV).expect("server");
    c.add_site_src(n1, "client", SOAK_CLIENT).expect("client");
    c
}

fn soak_fingerprint(report: &RunReport) -> String {
    let c = report.chaos.as_ref().expect("chaos report");
    format!(
        "out={:?} suspects={:?} instrs={} pkts={} vns={} q={} d={} u={} l={} p={} P={} H={} K={} R={}",
        report.output("client"),
        report.suspects,
        report.total_instrs,
        report.fabric_packets,
        report.virtual_ns,
        report.quiescent,
        c.dropped,
        c.duplicated,
        c.delayed,
        c.partition_drops,
        c.partitions,
        c.heals,
        c.kills,
        c.restarts
    )
}

fn scenario_soak(smoke: bool, iterations: u64) -> Json {
    // One quiet run fixes the virtual-time scale the events hang off.
    let baseline = soak_cluster().run_deterministic(RunLimits::default());
    let v = baseline.virtual_ns.max(1);

    let run = |seed: u64| -> RunReport {
        let mut c = soak_cluster();
        let mut spec = faulty_spec(seed);
        spec.drop_per_mille = 40;
        let mut plan = ChaosPlan::new(spec)
            .at(
                v / 3,
                ChaosEvent::Partition {
                    a: vec![NodeId(0)],
                    b: vec![NodeId(1)],
                },
            )
            .at(v / 2, ChaosEvent::Heal)
            .at(2 * v / 3, ChaosEvent::RestartNode(NodeId(1)));
        if seed.is_multiple_of(3) {
            // Every third seed also loses the server node for good near
            // the end, so the failure monitor's terminal verdict (a
            // suspect in the final report) is exercised, not only the
            // heal path.
            plan = plan.at(5 * v / 6, ChaosEvent::KillNode(NodeId(0)));
        }
        c.set_chaos(plan).expect("plan");
        c.run_deterministic(RunLimits::default())
    };

    let start = Instant::now();
    let mut replay_mismatches = 0u64;
    let mut suspect_runs = 0u64;
    let mut total_faults = 0u64;
    for seed in 0..iterations {
        let first = run(seed);
        no_errors(&first, "soak");
        let second = run(seed);
        if soak_fingerprint(&first) != soak_fingerprint(&second) {
            eprintln!(
                "soak: seed {seed} replay diverged:\n  {}\n  {}",
                soak_fingerprint(&first),
                soak_fingerprint(&second)
            );
            replay_mismatches += 1;
        }
        if !first.suspects.is_empty() {
            suspect_runs += 1;
        }
        let c = first.chaos.expect("chaos report");
        total_faults += c.total_faults();
    }
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(replay_mismatches, 0, "soak: every seed must replay exactly");
    assert!(total_faults > 0, "soak: the plans injected real faults");
    assert!(
        suspect_runs > 0,
        "soak: the kill seeds must drive the failure monitor to suspicion"
    );
    eprintln!(
        "   soak: {iterations} seeds replayed, {total_faults} faults, {suspect_runs} suspect runs"
    );
    point(
        &format!("soak {iterations} seeds"),
        smoke,
        vals! {
            "iterations" => iterations,
            "replay_mismatches" => replay_mismatches,
            "suspect_runs" => suspect_runs,
            "total_faults" => total_faults,
        },
        vals! {"wall_s" => round(wall_s, 3)},
    )
}

// -- the scenario ------------------------------------------------------------

pub fn run(smoke: bool) -> Vec<Json> {
    let mut points = vec![
        scenario_pubsub(true, 2_000),
        scenario_herd(true, 256),
        scenario_restart(true, 1),
        scenario_soak(true, 150),
    ];
    if !smoke {
        points.push(scenario_pubsub(false, 100_000));
        points.push(scenario_herd(false, 8192));
        points.push(scenario_restart(false, 3));
        points.push(scenario_soak(false, 250));
    }
    points
}
