//! End-to-end coverage for the sharded, lease-cached, replicated name
//! service: cross-shard resolution, warm repeat imports answered from the
//! node lease cache, re-export epoch invalidation, and owner-kill
//! failover to the ring-successor follower.

use ditico_rt::NsShardMap;
use ditico_rt::{ChaosEvent, ChaosPlan, ChaosSpec, Cluster, LinkProfile, RunLimits};
use tyco_vm::word::NodeId;

const LEASE_NS: u64 = 1_000_000_000; // 1 s: never expires inside a test run

fn sharded_cluster(nodes: usize, shards: usize) -> Cluster {
    let mut c = Cluster::new(LinkProfile::myrinet(), shards);
    c.set_ns_lease(LEASE_NS);
    for _ in 0..nodes {
        c.add_node();
    }
    c
}

#[test]
fn import_resolves_across_shards_and_replicates() {
    let mut c = sharded_cluster(4, 4);
    c.add_site_src(
        NodeId(0),
        "server",
        "def Srv(s) = s?{ val(x, r) = r![x * 2] | Srv[s] } in export new p in Srv[p]",
    )
    .unwrap();
    c.add_site_src(
        NodeId(3),
        "client",
        "import p from server in new a (p!val[21, a] | a?(y) = print(y))",
    )
    .unwrap();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.output("client"), ["42".to_string()]);
    assert!(report.quiescent);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    let ns = report.ns_totals();
    assert_eq!(ns.registers, 1, "{ns:?}");
    assert!(ns.resolved >= 1, "{ns:?}");
    // The owner shipped the binding to its ring successor, which applied it.
    assert_eq!(ns.repl_shipped, 1, "{ns:?}");
    assert_eq!(ns.repl_applied, 1, "{ns:?}");
    assert_eq!(report.ns_failovers, 0);
}

#[test]
fn warm_repeat_import_hits_the_node_lease_cache() {
    // Two importers on the same node, strictly sequenced: `a` resolves
    // `p` over the wire (the node caches the lease), signals `b`, and
    // `b`'s import of the same binding is answered locally.
    let mut c = sharded_cluster(2, 2);
    c.add_site_src(
        NodeId(0),
        "server",
        "def Srv(s) = s?{ val(x, r) = r![x * 2] | Srv[s] } in export new p in Srv[p]",
    )
    .unwrap();
    c.add_site_src(
        NodeId(1),
        "a",
        r#"
        import go from b in
        import p from server in
        new r (p!val[4, r] | r?(x) = (print(x) | go![]))
        "#,
    )
    .unwrap();
    c.add_site_src(
        NodeId(1),
        "b",
        r#"
        export new go in
        go?() = import p from server in
                new r (p!val[5, r] | r?(y) = print(y))
        "#,
    )
    .unwrap();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.output("a"), ["8".to_string()]);
    assert_eq!(report.output("b"), ["10".to_string()]);
    assert!(report.quiescent);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    let ns = report.ns_totals();
    assert_eq!(ns.lease_hits, 1, "b's repeat import was local: {ns:?}");
    assert!(ns.lease_misses >= 2, "{ns:?}");
    assert_eq!(ns.lease_expired, 0, "{ns:?}");
}

#[test]
fn reexport_invalidates_cached_bindings() {
    // The importer resolves `p` (epoch 1) and holds it in both the site
    // and node caches; the owner re-exports `p` (epoch 2), which emits an
    // invalidation to every lessee node; the importer's next import must
    // miss its caches and resolve the *new* binding.
    //
    // Placing the exporter on the key's owner shard makes the schedule
    // airtight: the re-export registers locally, so its invalidation
    // enters the owner→importer link *before* the `ack` message that
    // unblocks the importer's second import (FIFO links).
    let owner = NsShardMap::key_owner("server", "p", 2);
    let other = NodeId(1 - owner.0);
    let mut c = sharded_cluster(2, 2);
    c.add_site_src(
        owner,
        "server",
        r#"
        import ack from client in
        export new kick in
        export new p in (
            (p?(r) = r![1])
            | (kick?() = export new p in (ack![] | (p?(r2) = r2![2])))
        )
        "#,
    )
    .unwrap();
    c.add_site_src(
        other,
        "client",
        r#"
        export new ack in
        import p from server in
        import kick from server in
        new a (p![a] | a?(x) = (
            print(x)
            | kick![]
            | ack?() = import p from server in new b (p![b] | b?(y) = print(y))
        ))
        "#,
    )
    .unwrap();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.output("client"),
        ["1".to_string(), "2".to_string()],
        "second import saw the re-exported binding"
    );
    assert!(report.quiescent);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    let ns = report.ns_totals();
    assert!(ns.invalidations >= 1, "{ns:?}");
    assert_eq!(ns.registers, 4, "kick, ack, p, and the re-exported p");
}

#[test]
fn owner_kill_fails_over_to_follower() {
    // The shard owning `(server, p)` is killed mid-run, after the binding
    // replicated to its ring successor; a fresh importer must still
    // resolve via the follower, with zero aborts.
    let owner = NsShardMap::key_owner("server", "p", 4);
    let spare: Vec<NodeId> = (0..4u32).map(NodeId).filter(|n| *n != owner).collect();
    let (srv_n, c1_n, c2_n) = (spare[0], spare[1], spare[2]);
    let mut c = sharded_cluster(4, 4);
    c.set_chaos(ChaosPlan::new(ChaosSpec::quiet(7)).at(40_000, ChaosEvent::KillNode(owner)))
        .unwrap();
    c.add_site_src(
        srv_n,
        "server",
        "def Srv(s) = s?{ val(x, r) = r![x] | Srv[s] } in export new p in Srv[p]",
    )
    .unwrap();
    // c1 burns ~6 RPC round-trips (≫ 40 µs of virtual time) before
    // triggering c2, so c2's import strictly follows the owner's death.
    c.add_site_src(
        c1_n,
        "c1",
        r#"
        import p from server in
        import go2 from c2 in
        def Loop(n) =
            if n > 0 then new a (p!val[n, a] | a?(v) = Loop[n - 1]) else go2![]
        in Loop[6]
        "#,
    )
    .unwrap();
    c.add_site_src(
        c2_n,
        "c2",
        r#"
        export new go2 in
        go2?() = import p from server in new a (p!val[7, a] | a?(v) = print(v))
        "#,
    )
    .unwrap();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.aborts.is_empty(), "{:?}", report.aborts);
    assert_eq!(report.output("c2"), ["7".to_string()]);
    assert!(report.quiescent, "imports kept resolving via the follower");
    assert!(report.ns_failovers >= 1, "reads failed over");
    let ns = report.ns_totals();
    assert!(ns.repl_applied >= 1, "{ns:?}");
    assert_eq!(report.chaos.as_ref().unwrap().kills, 1);
}
