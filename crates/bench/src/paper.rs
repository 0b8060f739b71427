//! Regenerate every table of the experiment suite in one run: the
//! deterministic, host-independent virtual-time numbers recorded in
//! EXPERIMENTS.md, and the wall-clock figures (F3, C7, verify overhead) as
//! plain timed loops. The tables are printed, not recorded; the gate is
//! the scenario's own assertions, so the smoke is the full run.

use crate::json::Json;
use crate::*;
use ditico::{Cluster, Env, LinkProfile, RunLimits, Topology};
use ditico_rt::NsShardMap;
use std::hint::black_box;
use std::time::Instant;
use tyco_calculus::Network;
use tyco_vm::wire::{Label, WireWord};
use tyco_vm::word::{NetRef, NodeId, SiteId, Word};
use tyco_vm::{compile, LoopbackPort, Machine, NetPort, Program};

pub fn run(_smoke: bool) -> Vec<Json> {
    f1_link_profiles();
    f2_architecture();
    f3_site_vm();
    f4_local_vs_remote();
    c1_granularity();
    c2_latency_hiding();
    c3_remote_steps();
    c5_fetch_vs_ship();
    c6_mobility_vs_rmi();
    c7_vm_vs_interp();
    c8_failover();
    verify_overhead();
    println!("\nAll experiment tables regenerated.");
    Vec::new()
}

/// Verify-time overhead on the FETCH path (DESIGN.md §9). A fetched image
/// is verified once, by the daemon's trust-boundary screen (`wire::link`
/// runs on the verified image), so the per-fetch cost is one `verify_wire`
/// pass. It is timed on the small applet image and on a class the size of
/// the end-to-end benchmark's mean catalogue entry; the applet's cost is
/// compared against (a) the wall-clock of the whole deterministic R=1
/// fetch run (compile, name service, fetch, link, execute) and (b) the
/// modelled end-to-end FETCH latency per link profile.
fn verify_overhead() {
    /// Mean wall-clock nanoseconds of one `verify_wire` pass over every
    /// table of `src`, and the instruction count of that image.
    fn time_verify(src: &str, reps: u32) -> (u64, usize) {
        let prog = program(src);
        let roots: Vec<u32> = (0..prog.tables.len() as u32).collect();
        let packed = tyco_vm::pack(&prog, &roots);
        let instrs = packed.code.view().code.len();
        let ns = time_ns(reps, || {
            tyco_vm::verify_wire(black_box(&packed.code)).unwrap()
        });
        (ns as u64, instrs)
    }

    println!("\n=== Verify overhead on the FETCH path ===");
    // The exact image the C5 applet server serves.
    let (verify_ns, instrs) = time_verify(FETCH_SERVER, 20_000);
    println!(
        "verify_wire on the shipped applet image ({instrs} instrs): {verify_ns} ns, once per fetch ({:.1} ns/instr)",
        verify_ns as f64 / instrs as f64
    );
    // A straight-line class body of ≈ 600 instructions, the shape and
    // mean size of `benchmark`'s `fetch_catalog` classes.
    let terms: String = (0..298).map(|i| format!(" + {}", i % 10)).collect();
    let catalogue = format!("export def C(v, r) = r![v{terms}] in 0");
    let (cat_ns, cat_instrs) = time_verify(&catalogue, 20_000);
    println!(
        "verify_wire on a catalogue-sized image ({cat_instrs} instrs): {cat_ns} ns ({:.1} ns/instr)",
        cat_ns as f64 / cat_instrs as f64
    );

    let wall0 = Instant::now();
    let rep = run_two_node(
        LinkProfile::myrinet(),
        FETCH_SERVER,
        &fetch_client(1),
        100_000_000,
    );
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    assert_done(&rep);
    println!(
        "R=1 fetch run: wall {} µs → verify share {:.2}% of wall clock",
        wall_ns / 1_000,
        verify_ns as f64 * 100.0 / wall_ns as f64
    );
    for (name, link) in [
        ("myrinet", LinkProfile::myrinet()),
        ("ethernet", LinkProfile::fast_ethernet()),
        ("wan", LinkProfile::wan()),
    ] {
        let rep = run_two_node(link, FETCH_SERVER, &fetch_client(1), 100_000_000);
        assert_done(&rep);
        println!(
            "{name:>9}: modelled end-to-end {} µs → verify CPU = {:.2}% of the fetch latency",
            rep.virtual_ns / 1_000,
            verify_ns as f64 * 100.0 / rep.virtual_ns as f64
        );
    }
}

fn program(src: &str) -> Program {
    compile(&tyco_syntax::parse_core(src).unwrap()).unwrap()
}

/// Mean wall-clock nanoseconds of one call of `f`, over `reps` calls after
/// one warm-up call.
fn time_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// Mean wall-clock nanoseconds of booting a machine on `prog` and running
/// it to quiescence.
fn time_run<P: NetPort>(reps: u32, prog: &Program, port: impl Fn() -> P) -> f64 {
    time_ns(reps, || {
        let mut m = Machine::new(prog.clone(), port());
        m.run_to_quiescence(u64::MAX).expect("runs");
        m.stats.instrs
    })
}

fn f1_link_profiles() {
    println!("=== F1 (Fig. 1): modelled one-way transfer time (µs) per link profile ===");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "size (B)", "myrinet", "ethernet", "wan"
    );
    for size in [16usize, 256, 4096, 65536, 1 << 20] {
        println!(
            "{size:>10} {:>12.1} {:>12.1} {:>12.1}",
            LinkProfile::myrinet().transfer_ns(size) as f64 / 1e3,
            LinkProfile::fast_ethernet().transfer_ns(size) as f64 / 1e3,
            LinkProfile::wan().transfer_ns(size) as f64 / 1e3
        );
    }
}

fn f2_architecture() {
    println!("\n=== F2 (Fig. 2): 4 nodes x 2 sites, 8 workers x 20 pings to one hub ===");
    let mut c = Cluster::new(LinkProfile::myrinet(), 1);
    let nodes: Vec<_> = (0..4).map(|_| c.add_node()).collect();
    c.add_site_src(
        nodes[0],
        "hub",
        "def Hub(self, n) = self?{ ping(r) = r![n] | Hub[self, n + 1] } in export new hub in Hub[hub, 0]",
    )
    .unwrap();
    for (i, node) in nodes.iter().enumerate() {
        for j in 0..2 {
            if i == 0 && j == 0 {
                continue;
            }
            c.add_site_src(
                *node,
                &format!("w{i}{j}"),
                r#"
                import hub from hub in
                def Loop(k) = if k > 0 then new a (hub!ping[a] | a?(v) = Loop[k - 1]) else println("done")
                in Loop[20]
                "#,
            )
            .unwrap();
        }
    }
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty());
    println!(
        "local deliveries: {}; remote sends: {}; fabric bytes: {}; virtual time: {} µs",
        report
            .daemon_stats
            .iter()
            .map(|d| d.local_deliveries)
            .sum::<u64>(),
        report
            .daemon_stats
            .iter()
            .map(|d| d.remote_sends)
            .sum::<u64>(),
        report.fabric_bytes,
        report.virtual_ns / 1_000
    );
}

/// A port that resolves every import to a channel on a fictitious remote
/// site and swallows all outbound traffic — isolates the sender-side cost
/// of the SHIPM path.
struct BlackholePort;

impl NetPort for BlackholePort {
    fn identity(&self) -> tyco_vm::Identity {
        tyco_vm::Identity::default()
    }
    fn register(&mut self, _name: &str, _value: WireWord) {}
    fn import(&mut self, _: &str, _: &str, _: tyco_vm::ImportKind) -> tyco_vm::ImportReply {
        tyco_vm::ImportReply::Ready(WireWord::Chan(NetRef {
            heap_id: 0,
            site: SiteId(999),
            node: NodeId(999),
        }))
    }
    fn send_msg(&mut self, _dest: NetRef, _label: Label, _args: Vec<WireWord>) {}
    fn send_obj(&mut self, _dest: NetRef, _digest: tyco_vm::Digest, _obj: tyco_vm::WireObj) {}
    fn fetch(&mut self, class: NetRef) -> tyco_vm::FetchReplyNow {
        tyco_vm::FetchReplyNow::Failed(format!("blackhole cannot fetch {class}"))
    }
    fn fetch_reply(
        &mut self,
        _to: tyco_vm::Identity,
        _req: u64,
        _digest: tyco_vm::Digest,
        _group: tyco_vm::WireGroup,
        _index: u8,
    ) {
    }
    fn poll(&mut self) -> Option<tyco_vm::Incoming> {
        None
    }
}

/// Wall-clock cost of the VM's primitives (Fig. 3) and of the fabric's
/// batched send. Codec and raw dispatch rates are the `dispatch` scenario's
/// and the end-to-end benchmark's per-layer metrics.
fn f3_site_vm() {
    println!("\n=== F3 (Fig. 3): site VM primitives (wall clock, ns) ===");
    let main = || LoopbackPort::new("main");
    let row = |what: &str, ns: f64| println!("{what:<58} {ns:>10.1}");

    // Two COMM + two INST per iteration of the cell-churn driver.
    let ns = time_run(200, &program(&cell_churn(1000)), main);
    row("cell transaction (2 COMM + 2 INST, GC amortized)", ns / 1e3);
    let inst = "def L(n) = if n > 0 then L[n - 1] else println(\"x\") in L[1000]";
    row(
        "class instantiation",
        time_run(500, &program(inst), main) / 1e3,
    );
    let forks: Vec<String> = (0..512).map(|i| format!("print({i})")).collect();
    let ns = time_run(500, &program(&forks.join(" | ")), main);
    row("thread fork + context switch", ns / 512.0);

    // The same 500 sends, once on a local channel and once on a network
    // reference (translate, package, enqueue: the SHIPM path).
    let local = r#"
        def L(ch, n) = if n > 0 then (ch![n] | L[ch, n - 1]) else println("x")
        in new sink (sink?{ } | 0) | new c L[c, 500]
    "#;
    let ns = time_run(500, &program(local), main);
    row(
        "trmsg on a local channel (per send, incl. driver)",
        ns / 500.0,
    );
    let remote = r#"
        import c from elsewhere in
        def L(ch, n) = if n > 0 then (ch![n] | L[ch, n - 1]) else println("x")
        in L[c, 500]
    "#;
    let ns = time_run(500, &program(remote), || BlackholePort);
    row(
        "trmsg on a network reference (per send, incl. driver)",
        ns / 500.0,
    );

    // A1: the export-table translation in isolation.
    let mut m = Machine::new(program("new c (c![1] | c?(x) = 0)"), main());
    m.run_to_quiescence(u64::MAX).unwrap();
    let ns = time_ns(1_000_000, || {
        m.outgoing(black_box(Word::Chan(0)), SiteId(1), false)
    });
    row("A1: export-table translation of a channel word", ns);
    let ns = time_ns(1_000_000, || {
        m.outgoing(black_box(Word::Int(42)), SiteId(1), false)
    });
    row("A1: export-table translation of an int word", ns);

    // One lock and one wakeup amortized over a whole backlog.
    let payload = tyco_vm::codec::encode(&tyco_vm::codec::Packet::Msg {
        dest: NetRef {
            heap_id: 7,
            site: SiteId(3),
            node: NodeId(1),
        },
        label: "ping".into(),
        args: vec![WireWord::Int(42), WireWord::Str("payload".into())],
    });
    for batch in [1usize, 64, 1024] {
        let fabric = ditico_rt::Fabric::new(LinkProfile::ideal());
        let rx = fabric.register_node(NodeId(1));
        let h = fabric.handle();
        let term = ditico_rt::TermCounters::leak();
        let mut scratch = Vec::with_capacity(batch);
        let ns = time_ns(200_000 / batch as u32, || {
            scratch.extend(std::iter::repeat_n(payload.clone(), batch));
            let ticket = ditico_rt::Ticket::mint(term, batch as u64);
            h.send_batch(NodeId(0), NodeId(1), &mut scratch, ticket);
            assert_eq!(rx.try_iter().count(), batch);
        });
        row(
            &format!("fabric send_batch of {batch} (per packet)"),
            ns / batch as f64,
        );
    }
}

fn f4_local_vs_remote() {
    println!("\n=== F4/C4 (Fig. 4): 100 sequential RPCs, same node vs two nodes ===");
    for same in [true, false] {
        let mut c = Cluster::new(LinkProfile::myrinet(), 1);
        let n0 = c.add_node();
        let n1 = if same { n0 } else { c.add_node() };
        c.add_site_src(n0, "server", ECHO_SERVER).unwrap();
        c.add_site_src(n1, "client", &sequential_client(100))
            .unwrap();
        let r = c.run_deterministic(RunLimits::default());
        println!(
            "{}: virtual {} µs, fabric packets {}, fabric bytes {}",
            if same { "same node " } else { "two nodes " },
            r.virtual_ns / 1_000,
            r.fabric_packets,
            r.fabric_bytes
        );
    }
}

fn c1_granularity() {
    println!("\n=== C1: byte-code instructions per thread ===");
    println!(
        "{:<20} {:>9} {:>7} {:>6} {:>6} {:>6}",
        "program", "threads", "mean", "min", "p90≤", "max"
    );
    let programs: Vec<(&str, String)> = vec![
        ("cell_churn_200", cell_churn(200)),
        (
            "rpc_chain_100",
            r#"
            def Srv(s) = s?{ v(x, r) = r![x + 1] | Srv[s] }
            and Loop(s, n) = if n > 0 then new a (s!v[n, a] | a?(x) = Loop[s, n - 1]) else println("x")
            in new s (Srv[s] | Loop[s, 100])
            "#
            .to_string(),
        ),
        ("fanout_500", (0..500).map(|i| format!("print({i})")).collect::<Vec<_>>().join(" | ")),
    ];
    for (name, src) in &programs {
        let prog = program(src);
        let mut m = Machine::new(prog, LoopbackPort::new("main"));
        m.run_to_quiescence(u64::MAX).unwrap();
        let h = &m.stats.thread_len;
        println!(
            "{:<20} {:>9} {:>7.1} {:>6} {:>6} {:>6}",
            name,
            h.count,
            h.mean(),
            h.min,
            h.percentile(0.9),
            h.max
        );
    }
}

fn c2_latency_hiding() {
    println!("\n=== C2: virtual time (µs) of 96 RPCs vs client concurrency ===");
    println!(
        "{:>18} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "link \\ width", 1, 2, 4, 8, 16
    );
    for (name, link) in [
        ("myrinet (9µs)", LinkProfile::myrinet()),
        ("ethernet (70µs)", LinkProfile::fast_ethernet()),
        ("wan (20ms)", LinkProfile::wan()),
    ] {
        let mut row = format!("{name:>18}");
        for width in [1u64, 2, 4, 8, 16] {
            let mut built = Env::new(Topology {
                nodes: 2,
                link,
                ns_replicas: 1,
            })
            .site_on(0, "server", ECHO_SERVER)
            .unwrap()
            .site_on(1, "client", &pipelined_client(96, width))
            .unwrap()
            .build()
            .unwrap();
            let r = built.run_deterministic(RunLimits::default());
            assert!(r.errors.is_empty());
            row.push_str(&format!(" {:>9}", r.virtual_ns / 1_000));
        }
        println!("{row}");
    }
}

fn c3_remote_steps() {
    println!("\n=== C3: reduction steps per remote interaction (calculus counters) ===");
    let cases: [(&str, &str, &str); 3] = [
        (
            "remote message",
            "export new p in p?{ go(n) = 0 }",
            "import p from server in p!go[1]",
        ),
        (
            "object migration",
            "def S(p) = p?{ go(q) = (q?(x) = 0) | S[p] } in export new p in S[p]",
            "import p from server in new q (p!go[q] | q![1])",
        ),
        (
            "class fetch",
            "export def K(v) = 0 in 0",
            "import K from server in K[1]",
        ),
    ];
    println!(
        "{:<20} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "interaction", "shipm", "shipo", "fetch", "comm", "inst"
    );
    for (name, server, client) in cases {
        let mut net = Network::new();
        net.add_site_src("server", server).unwrap();
        net.add_site_src("client", client).unwrap();
        let out = net.run(100_000).unwrap();
        let c = out.counters;
        println!(
            "{:<20} {:>6} {:>6} {:>6} {:>6} {:>6}",
            name, c.shipm, c.shipo, c.fetch, c.comm, c.inst
        );
    }
}

fn c5_fetch_vs_ship() {
    println!("\n=== C5: fetch vs ship (ethernet) — virtual µs and fabric bytes vs R ===");
    println!(
        "{:>5} {:>10} {:>10} {:>12} {:>12}",
        "R", "fetch µs", "ship µs", "fetch bytes", "ship bytes"
    );
    for r in [1u64, 2, 4, 8, 16, 32, 64] {
        let fetch = run_two_node(
            LinkProfile::fast_ethernet(),
            FETCH_SERVER,
            &fetch_client(r),
            100_000_000,
        );
        let ship = run_two_node(
            LinkProfile::fast_ethernet(),
            SHIP_SERVER,
            &ship_client(r),
            100_000_000,
        );
        assert_done(&fetch);
        assert_done(&ship);
        println!(
            "{:>5} {:>10} {:>10} {:>12} {:>12}",
            r,
            fetch.virtual_ns / 1_000,
            ship.virtual_ns / 1_000,
            fetch.fabric_bytes,
            ship.fabric_bytes
        );
    }
}

fn c6_mobility_vs_rmi() {
    println!("\n=== C6: mobility vs RMI (ethernet) — virtual µs, 4 objects x C calls ===");
    println!("{:>6} {:>10} {:>12}", "C", "rmi µs", "mobility µs");
    for calls in [1u64, 2, 4, 8, 16, 32] {
        let rmi = run_two_node(
            LinkProfile::fast_ethernet(),
            RMI_SERVER,
            &rmi_client(4, calls),
            200_000_000,
        );
        let mobility = run_two_node(
            LinkProfile::fast_ethernet(),
            MOBILITY_SERVER,
            &mobility_client(4, calls),
            200_000_000,
        );
        assert_done(&rmi);
        assert_done(&mobility);
        println!(
            "{:>6} {:>10} {:>12}",
            calls,
            rmi.virtual_ns / 1_000,
            mobility.virtual_ns / 1_000
        );
    }
}

fn c7_vm_vs_interp() {
    println!("\n=== C7: byte-code VM vs tree-walking interpreter (size; wall clock, µs) ===");
    println!(
        "{:<16} {:>6} {:>7} {:>7} {:>10} {:>12} {:>8}",
        "program", "ast", "blocks", "instrs", "vm", "interpreter", "speedup"
    );
    let programs: Vec<(&str, String)> = vec![
        ("cell_churn", cell_churn(300)),
        (
            "counter",
            "def L(n) = if n > 0 then L[n - 1] else println(\"x\") in L[2000]".to_string(),
        ),
        (
            "rpc_chain",
            r#"
            def Srv(s) = s?{ v(x, r) = r![x + 1] | Srv[s] }
            and Loop(s, n) =
                if n > 0 then new a (s!v[n, a] | a?(x) = Loop[s, n - 1]) else println("x")
            in new s (Srv[s] | Loop[s, 300])
            "#
            .to_string(),
        ),
        (
            "fib_processes",
            r#"
            def Fib(n, r) =
                if n < 2 then r![n]
                else new a new b (Fib[n - 1, a] | Fib[n - 2, b]
                                  | a?(x) = b?(y) = r![x + y])
            in new out (Fib[15, out] | out?(v) = print(v))
            "#
            .to_string(),
        ),
    ];
    for (name, src) in &programs {
        let ast = tyco_syntax::parse_core(src).unwrap();
        let prog = compile(&ast).unwrap();
        // Identical observables first, then the clock.
        let mut m = Machine::new(prog.clone(), LoopbackPort::new("main"));
        m.run_to_quiescence(u64::MAX).unwrap();
        m.io.sort();
        let interp = || {
            let mut net = Network::new();
            net.add_site("main", ast.clone());
            net.run(u64::MAX).expect("interp runs")
        };
        assert_eq!(
            m.io,
            interp().line_multiset(),
            "observable mismatch in {name}"
        );
        let vm_ns = time_run(30, &prog, || LoopbackPort::new("main"));
        let interp_ns = time_ns(10, interp);
        println!(
            "{:<16} {:>6} {:>7} {:>7} {:>10.0} {:>12.0} {:>7.1}x",
            name,
            ast.size(),
            prog.blocks.len(),
            prog.instr_count(),
            vm_ns / 1e3,
            interp_ns / 1e3,
            interp_ns / vm_ns
        );
    }
}

fn c8_failover() {
    println!("\n=== C8: name-service failover (virtual time) ===");
    for replicas in [2usize, 3] {
        let mut c = Cluster::new(LinkProfile::myrinet(), replicas);
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
        c.run_deterministic(RunLimits {
            max_instrs: 1_000_000,
            fuel_per_slice: 256,
            ..RunLimits::default()
        });
        let before = c.virtual_ns();
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
        assert_eq!(report.output("client"), ["1".to_string()]);
        println!(
            "ring of {replicas}: recovery {} µs after the owner's kill; {} fabric packets in total",
            (report.virtual_ns - before) / 1_000,
            report.fabric_packets
        );
    }
}
