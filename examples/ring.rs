//! A token ring across the sites of a multi-node cluster: classic stress
//! of point-to-point switching (§5: "switches are quite efficient at
//! point-to-point communication").
//!
//! Each site exports a channel, imports its successor's channel, and
//! forwards a decrementing token; the site holding the token when it hits
//! zero reports.
//!
//! ```sh
//! cargo run --example ring             # 4 sites, 100 hops
//! cargo run --example ring -- 8 1000  # 8 sites, 1000 hops
//! ```

use ditico::{Env, LinkProfile, Topology};

fn main() {
    let sites: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let hops: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);

    let mut env = Env::new(Topology {
        nodes: sites,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    });

    for i in 0..sites {
        let me = format!("s{i}");
        let next = format!("s{}", (i + 1) % sites);
        // DiTyCO imports are by the exporter's name (no renaming), so each
        // site exports a uniquely named slot and imports its successor's.
        let my_slot = format!("slot{i}");
        let next_slot = format!("slot{}", (i + 1) % sites);
        // Site 0 additionally injects the initial token.
        let inject = if i == 0 {
            format!("| {my_slot}!token[{hops}]")
        } else {
            String::new()
        };
        let src = format!(
            r#"
            export new {my_slot} in
            import {next_slot} from {next} in (
                def Fwd(self) =
                    self ? {{
                        token(n) =
                            (if n > 0 then {next_slot}!token[n - 1]
                             else println("token died here after {hops} hops"))
                            | Fwd[self]
                    }}
                in Fwd[{my_slot}]
                {inject}
            )
            "#
        );
        env = env.site_on(i, &me, &src).expect("site compiles");
    }

    let report = env.run().expect("ring runs");
    for i in 0..sites {
        let lines = report.output(&format!("s{i}"));
        if !lines.is_empty() {
            println!("site s{i}: {}", lines.join("; "));
        }
    }
    let shipped: u64 = report.stats.values().map(|s| s.msgs_sent).sum();
    println!();
    println!("hops shipped over the fabric: {shipped}");
    println!(
        "virtual time: {} µs  (≈ {} µs/hop on a 9 µs-latency switch)",
        report.virtual_ns / 1_000,
        report.virtual_ns / 1_000 / hops.max(1)
    );
}
