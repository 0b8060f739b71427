//! The applet server of §4, in both variants the paper gives:
//!
//! * **fetch** — the server exports applet *classes*; the client's
//!   instantiation triggers FETCH: the byte-code downloads once and every
//!   instantiation afterwards is local;
//! * **ship**  — the server exports an object whose methods *ship* an
//!   applet object to a client-allocated name (SHIPO).
//!
//! ```sh
//! cargo run --example applet_server -- fetch
//! cargo run --example applet_server -- ship
//! ```

use ditico::{Env, LinkProfile, Topology};

fn topology() -> Topology {
    Topology {
        nodes: 2,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    }
}

fn run_fetch() {
    println!("=== code-fetching applet server (classes download to the client) ===");
    let env = Env::new(topology())
        .site(
            "server",
            r#"
            export def Applet1(v) = println("applet1 computes", v + 1)
            and Applet2(v) = println("applet2 computes", v * 2)
            in 0
            "#,
        )
        .expect("server compiles")
        .site(
            "client",
            r#"
            import Applet1 from server in
            import Applet2 from server in
            Applet1[10] | Applet2[10] | Applet1[20]
            "#,
        )
        .expect("client compiles");
    let report = env.run().expect("runs");
    for line in report.output("client") {
        println!("  client: {line}");
    }
    let c = &report.stats["client"];
    println!(
        "  downloads (FETCH): {}; cache hits: {}; local instantiations: {}",
        c.fetches, c.fetch_cache_hits, c.inst
    );
    println!(
        "  => the applets ran AT THE CLIENT; the server did {} instantiations",
        report.stats["server"].inst
    );
}

fn run_ship() {
    println!("=== code-shipping applet server (objects migrate to the client) ===");
    let env = Env::new(topology())
        .site(
            "server",
            r#"
            def AppletServer(self) =
                self ? {
                    applet1(p) = (p?(x) = println("shipped applet1 got", x)) | AppletServer[self],
                    applet2(p) = (p?(x) = println("shipped applet2 got", x)) | AppletServer[self]
                }
            in export new appletserver in AppletServer[appletserver]
            "#,
        )
        .expect("server compiles")
        .site(
            "client",
            r#"
            import appletserver from server in
            new p (appletserver!applet1[p] | p![7])
          | new q (appletserver!applet2[q] | q![8])
            "#,
        )
        .expect("client compiles");
    let report = env.run().expect("runs");
    for line in report.output("client") {
        println!("  client: {line}");
    }
    let s = &report.stats["server"];
    let c = &report.stats["client"];
    println!(
        "  objects shipped (SHIPO): {}; received at client: {}; requests shipped (SHIPM): {}",
        s.objs_sent, c.objs_recv, c.msgs_sent
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("fetch") => run_fetch(),
        Some("ship") => run_ship(),
        _ => {
            run_fetch();
            println!();
            run_ship();
        }
    }
}
