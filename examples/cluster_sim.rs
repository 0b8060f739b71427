//! Figure 1 of the paper as a running configuration: four dual-processor
//! nodes (two sites each) behind a switch. The same workload is run on
//! three link profiles — the 1 Gb/s Myrinet the paper bought, the
//! 100 Mb/s Fast Ethernet it compares against, and an ideal fabric — to
//! show why the paper insists on a low-latency switch for fine-grained
//! traffic.
//!
//! ```sh
//! cargo run --example cluster_sim
//! ```

use ditico::{Env, LinkProfile, Topology};

/// One coordinator + seven workers hammering it with small requests: the
/// grain of traffic the paper's model generates.
fn build(link: LinkProfile) -> Env {
    let mut env = Env::new(Topology {
        nodes: 4, // four PCs
        link,
        ns_replicas: 1,
    })
    .site_on(
        0,
        "coord",
        r#"
        def Coord(self, n) =
            self ? { work(x, r) = r![x + n] | Coord[self, n + 1] }
        in export new coord in Coord[coord, 0]
        "#,
    )
    .expect("coordinator compiles");

    // Two sites per node (dual processors), minus the coordinator slot.
    let mut w = 0;
    for node in 0..4usize {
        for _cpu in 0..2 {
            if node == 0 && w == 0 {
                w += 1;
                continue;
            }
            env = env
                .site_on(
                    node,
                    &format!("w{w}"),
                    r#"
                    import coord from coord in
                    def Loop(n) =
                        if n > 0 then new a (coord!work[n, a] | a?(v) = Loop[n - 1])
                        else println("done")
                    in Loop[25]
                    "#,
                )
                .expect("worker compiles");
            w += 1;
        }
    }
    env
}

fn main() {
    println!("Fig. 1 platform: 4 nodes x 2 sites, 7 workers x 25 RPCs to one coordinator\n");
    println!(
        "{:<16} {:>14} {:>12} {:>12}",
        "link", "virtual time", "packets", "bytes"
    );
    for (name, link) in [
        ("ideal", LinkProfile::ideal()),
        ("myrinet 1Gb/s", LinkProfile::myrinet()),
        ("ethernet 100Mb/s", LinkProfile::fast_ethernet()),
        ("wan 10Mb/s", LinkProfile::wan()),
    ] {
        let report = build(link).run().expect("runs");
        let done = report
            .outputs
            .iter()
            .filter(|(k, v)| k.starts_with('w') && v.iter().any(|l| l == "done"))
            .count();
        assert_eq!(done, 7, "all workers must finish");
        println!(
            "{:<16} {:>11} µs {:>12} {:>12}",
            name,
            report.virtual_ns / 1_000,
            report.fabric_packets,
            report.fabric_bytes
        );
    }
    println!("\nLatency dominates this fine-grained workload: the Myrinet-class");
    println!("switch tracks the ideal fabric far more closely than Ethernet/WAN,");
    println!("which is exactly the paper's rationale for the hardware platform.");
}
