//! Experiment C8 — the §7 future-work features, built and measured:
//! Mattern-style termination detection and name-service failover over a
//! replicated ring.
//!
//! * Detector: probes needed and wall-clock overhead on a busy threaded
//!   cluster (the detector runs concurrently with real work).
//! * Failover: virtual time from the death of a key's owner to a
//!   recovered import, and the replication cost on the register path.

use criterion::{criterion_group, criterion_main, Criterion};
use ditico::{Cluster, FabricMode, LinkProfile, RunLimits};
use ditico_rt::termination::{Snapshot, TerminationDetector};
use ditico_rt::{NsShardMap, TermCounters};

fn failover_table() {
    println!("\n=== C8: name-service failover (virtual time) ===");
    for replicas in [2usize, 3] {
        let mut c = Cluster::new(FabricMode::Virtual, LinkProfile::myrinet(), replicas);
        let nodes: Vec<_> = (0..replicas + 1).map(|_| c.add_node()).collect();
        let worker = nodes[replicas];
        c.heartbeat_every = Some(64);
        c.stale_periods = 2;
        c.add_site_src(
            worker,
            "server",
            "def S(p) = p?{ v(x, r) = r![x] | S[p] } in export new p in S[p]",
        )
        .unwrap();
        // Let the export reach its owner and replicate to the successor.
        c.run_deterministic(RunLimits {
            max_instrs: 1_000_000,
            fuel_per_slice: 256,
            ..RunLimits::default()
        });
        let before = c.virtual_ns();
        // Kill the key's owner, then submit a client that needs the NS.
        c.kill_node(NsShardMap::key_owner("server", "p", replicas));
        c.add_site_src(
            worker,
            "client",
            "import p from server in new a (p!v[1, a] | a?(x) = print(x))",
        )
        .unwrap();
        let report = c.run_deterministic(RunLimits {
            max_instrs: 10_000_000,
            fuel_per_slice: 256,
            ..RunLimits::default()
        });
        assert_eq!(
            report.output("client"),
            ["1".to_string()],
            "import survived failover"
        );
        println!(
            "ring of {}: recovery completed {} µs of virtual time after the owner's kill; \
             {} fabric packets in total",
            replicas,
            (report.virtual_ns - before) / 1_000,
            report.fabric_packets
        );
    }
    println!("(each export is applied by its owner and shipped to the ring successor)");
}

fn detection_overhead() {
    println!("\n--- C8: termination-detector probes on a threaded run ---");
    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.add_site_src(
        n0,
        "server",
        "def S(p) = p?{ v(x, r) = r![x + 1] | S[p] } in export new p in S[p]",
    )
    .unwrap();
    c.add_site_src(
        n1,
        "client",
        r#"
        import p from server in
        def Loop(n) = if n > 0 then new a (p!v[n, a] | a?(x) = Loop[n - 1]) else println("done")
        in Loop[500]
        "#,
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    let report = c.run_threaded(std::time::Duration::from_secs(60));
    let wall = t0.elapsed();
    assert_eq!(report.output("client"), ["done".to_string()]);
    println!(
        "500 RPCs in {:?}; detector probed {} times (1ms cadence) before confirming",
        wall, report.detector_probes
    );
}

fn bench_future_work(c: &mut Criterion) {
    failover_table();
    detection_overhead();

    // Criterion: the detector's probe itself (pure overhead per cycle).
    let mut group = c.benchmark_group("c8_detector");
    group.bench_function("probe", |b| {
        let counters = TermCounters::default();
        let mut det = TerminationDetector::new();
        b.iter(|| {
            let snap = Snapshot::take(&counters, true);
            det.probe(snap)
        });
    });
    group.finish();

    // Criterion: register path on a ring of 1 vs 3 (replication cost).
    let mut group = c.benchmark_group("c8_replication");
    group.sample_size(15);
    for replicas in [1usize, 3] {
        group.bench_function(format!("exports_with_{replicas}_replicas"), |b| {
            b.iter(|| {
                let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), replicas);
                let nodes: Vec<_> = (0..replicas.max(2)).map(|_| c.add_node()).collect();
                let mut src = String::from("export new e0 in ");
                for i in 1..32 {
                    src.push_str(&format!("export new e{i} in "));
                }
                src.push_str("println(\"x\")");
                c.add_site_src(*nodes.last().unwrap(), "exporter", &src)
                    .unwrap();
                let report = c.run_deterministic(RunLimits::default());
                assert!(report.errors.is_empty());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_future_work);
criterion_main!(benches);
