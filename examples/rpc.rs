//! The remote procedure call of §3, run across two nodes of a virtual
//! Myrinet cluster. Demonstrates the paper's central structural claim:
//! *"a remote communication involves two reduction steps"* — one SHIPM to
//! move the invocation, one local rendez-vous to consume it.
//!
//! ```sh
//! cargo run --example rpc
//! ```

use ditico::{Env, LinkProfile, Topology};

fn main() {
    let env = Env::new(Topology {
        nodes: 2,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    })
    // The procedure p at site r (§3): accepts a request plus a reply
    // channel, answers on the reply channel.
    .site(
        "r",
        r#"
        def Proc(p) = p?{ val(x, replyto) = replyto![x * x] | Proc[p] }
        in export new p in Proc[p]
        "#,
    )
    .expect("server compiles")
    // The client at site s: invokes p with a local argument, waits for
    // the reply, continues.
    .site(
        "s",
        r#"
        import p from r in
        let y = p!val[12] in println("12 squared remotely is", y)
        "#,
    )
    .expect("client compiles");

    let report = env.run().expect("network runs");

    for line in report.output("s") {
        println!("{line}");
    }

    let client = &report.stats["s"];
    let server = &report.stats["r"];
    println!();
    println!(
        "client shipped {} message(s) (SHIPM: the invocation)",
        client.msgs_sent
    );
    println!(
        "server shipped {} message(s) (SHIPM: the reply)",
        server.msgs_sent
    );
    println!(
        "local rendez-vous reductions: server {} + client {} (one per shipped message)",
        server.comm, client.comm
    );
    println!(
        "fabric: {} packets, {} bytes, {} µs of virtual time on a {} µs-latency link",
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns / 1_000,
        LinkProfile::myrinet().latency_ns / 1_000
    );
}
