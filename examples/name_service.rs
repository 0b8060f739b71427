//! Cross-shard name resolution on the sharded, lease-cached name service.
//!
//! Four nodes, the name space consistent-hashed over four shard owners:
//! two servers export channels from different nodes, three clients spread
//! over the cluster import and call them. The two clients that share a
//! node demonstrate the lease cache — the second resolve of `clock` never
//! leaves the node.
//!
//! ```sh
//! cargo run --example name_service
//! ```

use ditico::{Env, LinkProfile, Topology};

fn main() {
    let report = Env::new(Topology {
        nodes: 4,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    })
    // Shard the name service across all four nodes; importers hold
    // resolved bindings under a 50 ms lease.
    .ns_shards(4, 50)
    .site_on(
        0,
        "registry",
        r#"
        def Reg(s) = s?{ get(k, r) = r![k * 10] | Reg[s] }
        in export new lookup in Reg[lookup]
        "#,
    )
    .expect("registry compiles")
    .site_on(
        1,
        "timesvc",
        r#"
        def Clk(s, t) = s?{ now(r) = (r![t] | Clk[s, t + 1]) }
        in export new clock in Clk[clock, 100]
        "#,
    )
    .expect("timesvc compiles")
    .site_on(
        2,
        "alpha",
        r#"
        import lookup from registry in
        new r (lookup!get[4, r] | r?(v) = println("alpha got", v))
        "#,
    )
    .expect("alpha compiles")
    .site_on(
        3,
        "beta",
        r#"
        import clock from timesvc in
        new r (clock!now[r] | r?(t) = (println("beta t =", t) | import go from gamma in go![]))
        "#,
    )
    .expect("beta compiles")
    // Gamma shares beta's node and resolves the same binding after beta
    // (beta rings gamma's trigger when done): a node-cache lease hit.
    .site_on(
        3,
        "gamma",
        r#"
        export new go in
        go?() = import clock from timesvc in
                new r (clock!now[r] | r?(t) = println("gamma t =", t))
        "#,
    )
    .expect("gamma compiles")
    .run()
    .expect("runs");

    for site in ["alpha", "beta", "gamma"] {
        for line in report.output(site) {
            println!("[{site}] {line}");
        }
    }
    let ns = report.ns_totals();
    println!(
        "\nname service: {} registers, {} resolved, {} lease hits / {} misses, \
         repl {} shipped / {} applied",
        ns.registers, ns.resolved, ns.lease_hits, ns.lease_misses, ns.repl_shipped, ns.repl_applied
    );
    assert!(ns.lease_hits >= 1, "gamma's repeat resolve stays on-node");
    assert!(ns.repl_shipped >= 1, "every bind replicates to a follower");
    println!("gamma's repeat import of `clock` was served from its node's lease cache.");
}
