//! Every worked example in the paper, end-to-end on the public API,
//! with the structural claims of §3–§5 asserted.

use ditico::{Env, LinkProfile, RunLimits, Topology};

fn paper_topology() -> Topology {
    Topology::paper_cluster()
}

/// §2 — the polymorphic cell (one class at `int` and at `bool`).
#[test]
fn section2_polymorphic_cell() {
    let report = Env::local()
        .site(
            "main",
            r#"
            def Cell(self, v) =
                self ? {
                    read(r)  = r![v] | Cell[self, v],
                    write(u) = Cell[self, u]
                }
            in
            new x (Cell[x, 9]    | new z (x!read[z] | z?(w) = print(w)))
          | new y (Cell[y, true] | y!write[false] | new z (y!read[z] | z?(w) = print(w)))
            "#,
        )
        .unwrap()
        .run()
        .unwrap();
    let mut out = report.output("main").to_vec();
    out.sort();
    assert_eq!(
        out,
        ["9", "false"].map(String::from),
        "int cell read 9, bool cell read false"
    );
}

/// §3 — the remote procedure call, with the two-reduction-steps claim.
#[test]
fn section3_rpc_two_steps() {
    let env = Env::new(paper_topology())
        .site(
            "r",
            "def P(p) = p?{ val(x, a) = a![x + 100] | P[p] } in export new p in P[p]",
        )
        .unwrap()
        .site("s", "import p from r in let y = p!val[1] in print(y)")
        .unwrap();
    let report = env.run().unwrap();
    assert_eq!(report.output("s"), ["101".to_string()]);
    // Two SHIPM steps total (request, reply), each followed by exactly one
    // local rendez-vous at the receiving site.
    let s = &report.stats["s"];
    let r = &report.stats["r"];
    assert_eq!(
        s.msgs_sent + r.msgs_sent,
        2,
        "invocation + reply each ship once"
    );
    assert_eq!(s.msgs_recv + r.msgs_recv, 2);
    assert_eq!(s.comm + r.comm, 2, "one rendez-vous per shipped message");
}

/// §4 — applet server, code-fetching variant: the byte-code moves to the
/// client, all instantiation is local afterwards.
#[test]
fn section4_applet_fetch() {
    let report = Env::new(paper_topology())
        .site(
            "server",
            r#"
            export def Applet1(v) = println("a1", v)
            and Applet2(v) = println("a2", v)
            in 0
            "#,
        )
        .unwrap()
        .site(
            "client",
            "import Applet1 from server in (Applet1[1] | Applet1[2] | Applet1[3])",
        )
        .unwrap()
        .run()
        .unwrap();
    let mut lines = report.output("client").to_vec();
    lines.sort();
    assert_eq!(lines, ["a1 1", "a1 2", "a1 3"].map(String::from));
    let client = &report.stats["client"];
    assert_eq!(client.inst, 3, "all instantiations local");
    assert_eq!(report.stats["server"].inst, 0);
    // The three concurrent instantiations may race to fetch before the
    // code is linked, but at least one download and at most three happen,
    // and later instantiation would hit the cache.
    assert!(
        client.fetches >= 1 && client.fetches <= 3,
        "{}",
        client.fetches
    );
}

/// §4 — applet server, code-shipping variant: the object migrates to the
/// client-allocated name and runs there.
#[test]
fn section4_applet_ship() {
    let report = Env::new(paper_topology())
        .site(
            "server",
            r#"
            def AppletServer(self) =
                self ? { applet(p) = (p?(x) = println("ran at client", x)) | AppletServer[self] }
            in export new appletserver in AppletServer[appletserver]
            "#,
        )
        .unwrap()
        .site(
            "client",
            "import appletserver from server in new p (appletserver!applet[p] | p![9])",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.output("client"), ["ran at client 9".to_string()]);
    assert_eq!(report.stats["server"].objs_sent, 1, "SHIPO happened once");
    assert_eq!(report.stats["client"].objs_recv, 1);
}

/// §4 — the SETI example: install once, crunch forever at the client.
#[test]
fn section4_seti() {
    let mut built = Env::new(paper_topology())
        .site(
            "seti",
            r#"
            new database (
                export def Install() = println("installed") | Go[]
                and Go() = let data = database!newChunk[] in (println(data) | Go[])
                in
                def Database(self, n) =
                    self ? { newChunk(r) = r![n] | Database[self, n + 1] }
                in Database[database, 0]
            )
            "#,
        )
        .unwrap()
        .site("client", "import Install from seti in Install[]")
        .unwrap()
        .build()
        .unwrap();
    let report = built.run_deterministic(RunLimits {
        max_instrs: 100_000,
        fuel_per_slice: 512,
        ..RunLimits::default()
    });
    let out = report.output("client");
    assert_eq!(out.first().map(String::as_str), Some("installed"));
    // Chunks arrive in order at the single client.
    assert!(out.len() > 3, "{out:?}");
    assert_eq!(out[1], "0");
    assert_eq!(out[2], "1");
    assert_eq!(
        report.stats["seti"].fetches_served, 1,
        "Install+Go downloaded once"
    );
}

/// §5 — local (same node) interactions avoid the network entirely, remote
/// ones pay for it: the shared-memory optimization claim.
#[test]
fn section5_local_vs_remote_paths() {
    let server = "def Srv(p) = p?{ val(x, a) = a![x] | Srv[p] } in export new p in Srv[p]";
    let client = r#"
        import p from server in
        def Loop(n) =
            if n > 0 then new a (p!val[n, a] | a?(v) = Loop[n - 1]) else println("done")
        in Loop[10]
    "#;
    // Same node.
    let local = Env::new(Topology {
        nodes: 1,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    })
    .site("server", server)
    .unwrap()
    .site("client", client)
    .unwrap()
    .run()
    .unwrap();
    // Different nodes.
    let remote = Env::new(Topology {
        nodes: 2,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    })
    .site("server", server)
    .unwrap()
    .site("client", client)
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(local.output("client"), ["done".to_string()]);
    assert_eq!(remote.output("client"), ["done".to_string()]);
    assert_eq!(
        local.fabric_packets, 0,
        "same-node traffic is shared-memory only"
    );
    assert!(remote.fabric_packets >= 20, "{}", remote.fabric_packets);
    assert_eq!(local.virtual_ns, 0);
    assert!(remote.virtual_ns > 0);
}

/// §5 — fine granularity: across the paper's programs, threads average a
/// few tens of byte-code instructions.
#[test]
fn section5_thread_granularity() {
    let report = Env::local()
        .site(
            "main",
            r#"
            def Cell(self, v) =
                self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
            and Driver(cell, n) =
                if n > 0 then
                    (cell!write[n] | new z (cell!read[z] | z?(w) = Driver[cell, n - 1]))
                else println("finished")
            in new x (Cell[x, 0] | Driver[x, 50])
            "#,
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.output("main"), ["finished".to_string()]);
    let g = &report.stats["main"].thread_len;
    assert!(g.count > 100, "many threads: {}", g.count);
    assert!(
        g.mean() < 48.0,
        "a few tens of instructions per thread, got {}",
        g.mean()
    );
}

/// The translation of export/import given in §4 (lexical scoping through
/// located identifiers): a pretty-printed, σ-translated program still runs
/// and produces the same result as the import-based original.
#[test]
fn section4_translation_semantics() {
    // Direct located identifiers instead of import.
    let report = Env::new(paper_topology())
        .site(
            "server",
            "def S(p) = p?{ go(n, a) = a![n * 7] | S[p] } in export new p in S[p]",
        )
        .unwrap()
        .site("client", "new a (server.p!go[6, a] | a?(v) = print(v))")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.output("client"), ["42".to_string()]);
}
