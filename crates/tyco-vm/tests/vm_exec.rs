//! Execution tests for the TyCO virtual machine: single-machine programs
//! on a loopback port, and a minimal two-machine harness that exercises the
//! mobility instructions (SHIPM / SHIPO / FETCH) without the full
//! distributed runtime.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use tyco_vm::port::{FetchReplyNow, ImportReply, Incoming, NetPort};
use tyco_vm::program::ImportKind;
use tyco_vm::wire::{Label, ReleaseRun, WireGroup, WireObj, WireWord};
use tyco_vm::word::{Identity, NetRef, SiteId};
use tyco_vm::{LoopbackPort, Machine};

fn run(src: &str) -> Machine<LoopbackPort> {
    let mut m = Machine::from_source(src, LoopbackPort::new("main")).expect("compile");
    m.run_to_quiescence(1_000_000).expect("run");
    m
}

#[test]
fn prints_literals_and_arithmetic() {
    let m = run("print(1 + 2 * 3) | println(\"a\" ^ \"b\", true)");
    let mut io = m.io.clone();
    io.sort();
    assert_eq!(io, vec!["7".to_string(), "ab true".to_string()]);
}

#[test]
fn cell_example_runs() {
    let m = run(r#"
        def Cell(self, v) =
            self ? {
                read(r)  = r![v] | Cell[self, v],
                write(u) = Cell[self, u]
            }
        in new x (
            Cell[x, 9]
          | new z (x!read[z] | z?(w) = print(w))
        )
    "#);
    assert_eq!(m.io, vec!["9".to_string()]);
    assert_eq!(m.stats.comm, 2);
    assert_eq!(m.stats.inst, 2);
}

#[test]
fn cell_write_read_fifo() {
    let m = run(r#"
        def Cell(self, v) =
            self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
        in new x (
            Cell[x, 1]
          | x!write[42]
          | new z (x!read[z] | z?(w) = print(w))
        )
    "#);
    assert_eq!(m.io, vec!["42".to_string()]);
}

#[test]
fn conditionals_and_recursion() {
    let m = run(r#"
        def Count(n) = if n > 0 then print(n) | Count[n - 1] else println("liftoff")
        in Count[3]
    "#);
    assert_eq!(m.io, vec!["3", "2", "1", "liftoff"]);
    assert_eq!(m.stats.inst, 4);
}

#[test]
fn mutual_recursion_across_group() {
    let m = run(r#"
        def Even(n) = if n == 0 then println("even") else Odd[n - 1]
        and Odd(n)  = if n == 0 then println("odd") else Even[n - 1]
        in Even[5]
    "#);
    assert_eq!(m.io, vec!["odd"]);
}

#[test]
fn fine_grained_threads() {
    // The paper: "typically a few tens of byte-code instructions per
    // thread" — check the granularity histogram on a busy program.
    let m = run(r#"
        def Ring(n) = if n > 0 then new c (c![n] | c?(v) = Ring[v - 1]) else println("done")
        in Ring[50]
    "#);
    assert_eq!(m.io, vec!["done"]);
    assert!(
        m.stats.thread_len.mean() < 64.0,
        "mean {}",
        m.stats.thread_len.mean()
    );
    assert!(m.stats.threads > 100);
}

#[test]
fn export_import_loopback() {
    let m = run(r#"
        export new srv in (
            srv?{ ping(r) = r!pong[] }
          | import srv from main in new a (srv!ping[a] | a?{ pong() = println("got pong") })
        )
    "#);
    assert_eq!(m.io, vec!["got pong"]);
    assert!(m.port.registered("srv").is_some());
}

#[test]
fn import_unknown_site_fails() {
    let mut m =
        Machine::from_source("import p from mars in p![1]", LoopbackPort::new("main")).unwrap();
    let err = m.run_to_quiescence(10_000).unwrap_err();
    assert!(matches!(err, tyco_vm::VmError::ImportFailed(_)), "{err}");
}

#[test]
fn protocol_error_no_method() {
    let mut m = Machine::from_source(
        "new x (x!bad[] | x?{ good() = 0 })",
        LoopbackPort::new("main"),
    )
    .unwrap();
    let err = m.run_to_quiescence(10_000).unwrap_err();
    assert!(matches!(err, tyco_vm::VmError::NoMethod { .. }), "{err}");
}

#[test]
fn gc_reclaims_reply_channels() {
    // Each iteration allocates a reply channel that dies immediately; the
    // collector must keep the live set bounded.
    let mut m = Machine::from_source(
        r#"
        def Server(s) = s?{ get(r) = r![1] | Server[s] }
        and Loop(s, n) =
            if n > 0 then new r (s!get[r] | r?(v) = Loop[s, n - v]) else println("end")
        in new s (Server[s] | Loop[s, 20000])
        "#,
        LoopbackPort::new("main"),
    )
    .unwrap();
    m.run_to_quiescence(100_000_000).unwrap();
    assert_eq!(m.io, vec!["end"]);
    assert!(m.stats.gcs > 0, "GC never ran");
    assert!(m.stats.chans_collected > 10_000);
    assert!(m.live_channels() < 10_000, "live {}", m.live_channels());
}

// ---------------------------------------------------------------------------
// Two-machine harness: a shared "ether" that routes packets and resolves
// imports, exercising the machine's mobility paths directly.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Ether {
    registry: HashMap<(String, String), WireWord>,
    queues: HashMap<SiteId, VecDeque<Incoming>>,
    next_req: u64,
    /// Pending imports: req → (site, waiting site).
    pending: Vec<(u64, String, String, ImportKind, SiteId)>,
    /// Releases sent so far.
    releases: usize,
}

struct EtherPort {
    me: Identity,
    lexeme: String,
    ether: Rc<RefCell<Ether>>,
}

impl NetPort for EtherPort {
    fn identity(&self) -> Identity {
        self.me
    }

    fn register(&mut self, name: &str, value: WireWord) {
        let mut e = self.ether.borrow_mut();
        e.registry
            .insert((self.lexeme.clone(), name.to_string()), value);
        // Wake pending imports that now resolve.
        let ready: Vec<(u64, SiteId)> = e
            .pending
            .iter()
            .filter(|(_, s, n, _, _)| s == &self.lexeme && n == name)
            .map(|(req, _, _, _, from)| (*req, *from))
            .collect();
        e.pending
            .retain(|(_, s, n, _, _)| !(s == &self.lexeme && n == name));
        for (req, from) in ready {
            e.queues
                .entry(from)
                .or_default()
                .push_back(Incoming::ImportReady { req });
        }
    }

    fn import(&mut self, site: &str, name: &str, kind: ImportKind) -> ImportReply {
        let mut e = self.ether.borrow_mut();
        if let Some(w) = e.registry.get(&(site.to_string(), name.to_string())) {
            return ImportReply::Ready(w.clone());
        }
        e.next_req += 1;
        let req = e.next_req;
        e.pending
            .push((req, site.to_string(), name.to_string(), kind, self.me.site));
        ImportReply::Pending(req)
    }

    fn send_msg(&mut self, dest: NetRef, label: Label, args: Vec<WireWord>) {
        self.ether
            .borrow_mut()
            .queues
            .entry(dest.site)
            .or_default()
            .push_back(Incoming::Msg {
                dest: dest.heap_id,
                label,
                args,
            });
    }

    fn send_obj(&mut self, dest: NetRef, _digest: tyco_vm::Digest, obj: WireObj) {
        self.ether
            .borrow_mut()
            .queues
            .entry(dest.site)
            .or_default()
            .push_back(Incoming::Obj {
                dest: dest.heap_id,
                obj,
            });
    }

    fn fetch(&mut self, class: NetRef) -> FetchReplyNow {
        let mut e = self.ether.borrow_mut();
        e.next_req += 1;
        let req = e.next_req;
        e.queues
            .entry(class.site)
            .or_default()
            .push_back(Incoming::FetchReq {
                dest: class.heap_id,
                req,
                reply_to: self.me,
            });
        FetchReplyNow::Pending(req)
    }

    fn fetch_reply(
        &mut self,
        to: Identity,
        req: u64,
        _digest: tyco_vm::Digest,
        group: WireGroup,
        index: u8,
    ) {
        self.ether
            .borrow_mut()
            .queues
            .entry(to.site)
            .or_default()
            .push_back(Incoming::FetchReply { req, group, index });
    }

    fn poll(&mut self) -> Option<Incoming> {
        self.ether
            .borrow_mut()
            .queues
            .entry(self.me.site)
            .or_default()
            .pop_front()
    }

    fn release(&mut self, owner: Identity, seq: u64, runs: Vec<ReleaseRun>) {
        let mut e = self.ether.borrow_mut();
        e.releases += 1;
        e.queues
            .entry(owner.site)
            .or_default()
            .push_back(Incoming::Release {
                from_site: self.me.site,
                seq,
                runs,
            });
    }
}

/// Machines on one ether: site `i` runs the `i`-th `(lexeme, source)`.
fn sites(specs: &[(&str, &str)]) -> Vec<Machine<EtherPort>> {
    let ether = Rc::new(RefCell::new(Ether::default()));
    specs
        .iter()
        .enumerate()
        .map(|(i, (lexeme, src))| {
            let port = EtherPort {
                me: Identity {
                    site: SiteId(i as u32),
                    node: Default::default(),
                },
                lexeme: lexeme.to_string(),
                ether: ether.clone(),
            };
            Machine::from_source(src, port).expect("compiles")
        })
        .collect()
}

fn duo(server_src: &str, client_src: &str) -> (Machine<EtherPort>, Machine<EtherPort>) {
    let mut ms = sites(&[("server", server_src), ("client", client_src)]);
    let client = ms.pop().expect("two sites");
    (ms.pop().expect("two sites"), client)
}

fn run_duo(server: &mut Machine<EtherPort>, client: &mut Machine<EtherPort>) {
    // Alternate slices until both are idle and queues are drained.
    for _ in 0..1000 {
        let a = server.run_slice(100_000).expect("server slice");
        let b = client.run_slice(100_000).expect("client slice");
        if !a.runnable && !b.runnable && a.instrs == 0 && b.instrs == 0 {
            break;
        }
    }
}

#[test]
fn remote_message_ships_and_reduces() {
    let (mut server, mut client) = duo(
        "export new p in p?{ go(n) = print(n * 2) }",
        "import p from server in p!go[21]",
    );
    run_duo(&mut server, &mut client);
    assert_eq!(server.io, vec!["42"]);
    assert_eq!(client.stats.msgs_sent, 1);
    assert_eq!(server.stats.msgs_recv, 1);
    assert_eq!(server.stats.comm, 1);
}

#[test]
fn rpc_round_trip_between_machines() {
    let (mut server, mut client) = duo(
        "export new p in p?{ val(x, r) = r![x + 1] }",
        "import p from server in new a (p!val[41, a] | a?(y) = print(y))",
    );
    run_duo(&mut server, &mut client);
    assert_eq!(client.io, vec!["42"]);
    // Request ships client→server; reply ships server→client.
    assert_eq!(client.stats.msgs_sent, 1);
    assert_eq!(server.stats.msgs_sent, 1);
}

#[test]
fn object_migrates_to_remote_name() {
    // The applet-server shipping pattern: the server receives a
    // client-allocated name and ships an object to it.
    let (mut server, mut client) = duo(
        r#"
        def Srv(s) = s?{ applet(p) = (p?(x) = print(x * 10)) | Srv[s] }
        in export new appletserver in Srv[appletserver]
        "#,
        r#"
        import appletserver from server in
        new p (appletserver!applet[p] | p![7])
        "#,
    );
    run_duo(&mut server, &mut client);
    // The applet body ran at the CLIENT.
    assert_eq!(client.io, vec!["70"]);
    assert_eq!(server.stats.objs_sent, 1);
    assert_eq!(client.stats.objs_recv, 1);
}

#[test]
fn class_fetch_downloads_and_instantiates_locally() {
    let (mut server, mut client) = duo(
        r#"export def Applet(v) = println("applet", v) in 0"#,
        "import Applet from server in Applet[5]",
    );
    run_duo(&mut server, &mut client);
    assert_eq!(client.io, vec!["applet 5"]);
    assert_eq!(client.stats.fetches, 1);
    assert_eq!(server.stats.fetches_served, 1);
    assert_eq!(client.stats.inst, 1, "instantiation happened at the client");
    assert_eq!(server.stats.inst, 0);
}

#[test]
fn fetched_recursion_runs_locally_with_cache() {
    let (mut server, mut client) = duo(
        "export def Loop(n) = if n > 0 then print(n) | Loop[n - 1] else println(\"done\") in 0",
        "import Loop from server in Loop[3]",
    );
    run_duo(&mut server, &mut client);
    assert_eq!(client.io, vec!["3", "2", "1", "done"]);
    assert_eq!(server.stats.fetches_served, 1, "downloaded once");
    assert_eq!(client.stats.inst, 4, "recursion local after download");
}

#[test]
fn import_blocks_then_resumes() {
    // Client starts first; its import parks until the server exports.
    let (mut server, mut client) = duo(
        "export new p in p?{ go(n) = print(n) }",
        "import p from server in p!go[5]",
    );
    // Run the CLIENT first: the import must park.
    let st = client.run_slice(100_000).unwrap();
    assert_eq!(st.parked, 1);
    run_duo(&mut server, &mut client);
    assert_eq!(server.io, vec!["5"]);
    assert_eq!(client.parked_count(), 0);
}

#[test]
fn seti_pattern_install_go_loop() {
    let ether = Rc::new(RefCell::new(Ether::default()));
    let seti_port = EtherPort {
        me: Identity {
            site: SiteId(0),
            node: Default::default(),
        },
        lexeme: "seti".to_string(),
        ether: ether.clone(),
    };
    let client_port = EtherPort {
        me: Identity {
            site: SiteId(1),
            node: Default::default(),
        },
        lexeme: "client".to_string(),
        ether,
    };
    let mut seti = Machine::from_source(
        r#"
        new database (
            export def Install() = println("installed") | Go[]
            and Go() = let data = database!newChunk[] in (println(data) | Go[])
            in database ? { newChunk(replyTo) = replyTo![17] }
        )
        "#,
        seti_port,
    )
    .unwrap();
    let mut client =
        Machine::from_source("import Install from seti in Install[]", client_port).unwrap();
    // The Go loop never terminates; run a bounded number of alternating
    // slices.
    for _ in 0..50 {
        seti.run_slice(2_000).unwrap();
        client.run_slice(2_000).unwrap();
    }
    assert_eq!(client.io.first().map(String::as_str), Some("installed"));
    assert!(client.io.contains(&"17".to_string()), "{:?}", client.io);
    assert_eq!(seti.stats.fetches_served, 1);
    // The chunk requests ship from client to seti.
    assert!(client.stats.msgs_sent >= 1);
}

#[test]
fn duplicate_fetch_reply_is_dropped_not_relinked() {
    // A FetchReply for a request the machine is not waiting on (late or
    // duplicated delivery) must be dropped and counted — linking it again
    // would instantiate a second disjoint copy of the class.
    let prog =
        tyco_vm::compile(&tyco_syntax::parse_core("def K(a) = print(a) in K[1]").expect("parses"))
            .expect("compiles");
    let packed = tyco_vm::pack(&prog, &[0]);
    let group = WireGroup {
        code: packed.code,
        table: 0,
        captured: vec![],
    };

    let mut m = Machine::from_source("print(0)", LoopbackPort::new("main")).unwrap();
    m.run_to_quiescence(10_000).unwrap();
    let blocks_before = m.program.blocks.len();

    m.port.inject(Incoming::FetchReply {
        req: 999, // never issued
        group,
        index: 0,
    });
    m.run_to_quiescence(10_000).expect("drop, not error");
    assert_eq!(m.stats.dup_fetch_replies, 1);
    assert_eq!(
        m.program.blocks.len(),
        blocks_before,
        "nothing was linked for the orphan reply"
    );
}

/// A port offering one remote class: `import` resolves it and `fetch`
/// answers at once, so the thread that instantiates the class links it
/// inside its own dispatch loop.
struct FetchNowPort {
    class: NetRef,
    group: WireGroup,
}

impl NetPort for FetchNowPort {
    fn identity(&self) -> Identity {
        Identity::default()
    }
    fn register(&mut self, _: &str, _: WireWord) {}
    fn import(&mut self, _: &str, _: &str, _: ImportKind) -> ImportReply {
        ImportReply::Ready(WireWord::Class(self.class))
    }
    fn send_msg(&mut self, _: NetRef, _: Label, _: Vec<WireWord>) {}
    fn send_obj(&mut self, _: NetRef, _: tyco_vm::Digest, _: WireObj) {}
    fn fetch(&mut self, class: NetRef) -> FetchReplyNow {
        assert_eq!(class, self.class);
        FetchReplyNow::Ready(self.group.clone(), 0)
    }
    fn fetch_reply(&mut self, _: Identity, _: u64, _: tyco_vm::Digest, _: WireGroup, _: u8) {}
    fn poll(&mut self) -> Option<Incoming> {
        None
    }
}

/// A thread links fetched code and then runs on through the rest of its
/// own block, read from the code slice it pinned before the link (the
/// SAFETY argument of `exec_thread_inner`): linking appends blocks it
/// has already relocated and fused, and rewrites none in place. A
/// rewrite of the running block frees that slice, which AddressSanitizer
/// reports here.
#[test]
fn a_thread_runs_on_in_its_block_after_linking_fetched_code() {
    let lib =
        tyco_vm::compile(&tyco_syntax::parse_core("def K(a) = print(a) in K[1]").expect("parses"))
            .expect("compiles");
    let group = WireGroup {
        code: tyco_vm::pack(&lib, &[0]).code,
        table: 0,
        captured: vec![],
    };
    // The compiler puts nothing after an `instof` but `halt`; by hand,
    // the instantiating thread has two prints left to run.
    let prog = tyco_vm::parse_asm(
        r#".entry 0
.block 0 "entry" free=0 params=0 locals=1
    import 0 "lib" "K" class
    pushint 5
    pushlocal 0
    instof 1
    pushint 7
    print 1 raw
    pushint 8
    print 1 raw
    halt
"#,
    )
    .expect("assembles");
    let class = NetRef {
        heap_id: 0,
        site: SiteId(1),
        node: Default::default(),
    };
    let mut m = Machine::new(prog, FetchNowPort { class, group });
    let before = m.program.blocks.len();
    m.run_to_quiescence(10_000).expect("runs");
    assert_eq!(m.stats.fetches, 1);
    assert!(m.program.blocks.len() > before, "the class was linked");
    // 7 and 8 come from the linking thread, 5 from the instance after it.
    assert_eq!(m.io, vec!["7", "8", "5"]);
}

#[test]
fn trace_buffer_records_last_instructions() {
    let mut m = Machine::from_source(
        "new x (x!bad[] | x?{ good() = 0 })",
        LoopbackPort::new("main"),
    )
    .unwrap();
    m.set_trace(4);
    let err = m.run_to_quiescence(10_000).unwrap_err();
    assert!(matches!(err, tyco_vm::VmError::NoMethod { .. }));
    let trace = m.render_trace();
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(
        lines.len(),
        4,
        "ring buffer holds exactly its capacity:\n{trace}"
    );
    assert!(
        trace.contains("TrObj") || trace.contains("TrMsg"),
        "{trace}"
    );
    // Disabling clears it.
    m.set_trace(0);
    assert!(m.render_trace().is_empty());
}

// ---------------------------------------------------------------------------
// Reclaiming exported channels (DESIGN.md §20): the server holds the
// client's channels, the client owns them. Packets are held back or
// reordered in the ether to play out what a faulty carrier can do.
// ---------------------------------------------------------------------------

const SERVER: SiteId = SiteId(0);
const CLIENT: SiteId = SiteId(1);

/// A server that takes channels and drops them.
const DROPPER: &str = "def Srv(p) = p?{ take(r) = Srv[p] } in export new p in Srv[p]";

fn slice(m: &mut Machine<EtherPort>) {
    m.run_slice(100_000).expect("slice");
}

/// Take item `i` out of `site`'s queue.
fn take(m: &Machine<EtherPort>, site: SiteId, i: usize) -> Incoming {
    let mut e = m.port.ether.borrow_mut();
    e.queues
        .get_mut(&site)
        .and_then(|q| q.remove(i))
        .expect("queued")
}

/// Queue `item` for `site` again, last.
fn put(m: &Machine<EtherPort>, site: SiteId, item: Incoming) {
    let mut e = m.port.ether.borrow_mut();
    e.queues.entry(site).or_default().push_back(item);
}

fn releases(m: &Machine<EtherPort>) -> usize {
    m.port.ether.borrow().releases
}

#[test]
fn an_entry_sent_twice_survives_the_first_release() {
    let (mut server, mut client) = duo(
        DROPPER,
        "import p from server in new r (p!take[r] | p!take[r])",
    );
    slice(&mut server);
    slice(&mut client);
    let second = take(&server, SERVER, 1);
    slice(&mut server);
    server.gc();
    slice(&mut client);
    assert_eq!(client.exports.len(), 1, "one receipt of two was released");
    put(&server, SERVER, second);
    slice(&mut server);
    server.gc();
    slice(&mut client);
    assert_eq!(releases(&server), 2);
    assert!(client.exports.is_empty(), "both receipts released");
    client.gc();
    assert_eq!(client.live_channels(), 0, "no longer a root");
}

#[test]
fn a_forwarded_channel_is_never_released() {
    let mut ms = sites(&[
        (
            "server",
            "import t from third in export new p in p?(r) = t![r]",
        ),
        ("client", "import p from server in new r p![r]"),
        ("third", "export new t in t?(r) = 0"),
    ]);
    for _ in 0..2 {
        for _ in 0..10 {
            for m in ms.iter_mut() {
                slice(m);
            }
        }
        for m in ms.iter_mut() {
            m.gc();
        }
    }
    assert_eq!(ms[2].stats.msgs_recv, 1, "the third site got the channel");
    assert_eq!(
        releases(&ms[0]),
        0,
        "neither the forwarder nor the third releases"
    );
    assert_eq!(ms[1].exports.len(), 1, "the owner keeps the entry");
}

#[test]
fn a_release_that_overtakes_the_reply_waits_for_it() {
    let (mut server, mut client) = duo(
        "def Srv(p) = p?{ val(x, r) = (r![x + 1] | Srv[p]) } in export new p in Srv[p]",
        "import p from server in new a (p!val[41, a] | a?(y) = print(y))",
    );
    slice(&mut server);
    slice(&mut client);
    slice(&mut server);
    server.gc();
    // The client's queue holds the reply, then the release: swap them.
    let reply = take(&client, CLIENT, 0);
    slice(&mut client);
    assert_eq!(client.exports.len(), 1, "the reply is still owed");
    put(&client, CLIENT, reply);
    slice(&mut client);
    assert_eq!(client.io, vec!["42"]);
    assert!(client.exports.is_empty(), "reclaimed once the reply landed");
    assert_eq!(client.stats.stale_deliveries, 0);
}

#[test]
fn a_duplicated_or_older_release_is_ignored() {
    let (mut server, mut client) = duo(
        DROPPER,
        "import p from server in new r (p!take[r] | p!take[r] | p!take[r])",
    );
    slice(&mut server);
    slice(&mut client);
    let third = take(&server, SERVER, 2);
    let second = take(&server, SERVER, 1);
    slice(&mut server);
    server.gc();
    put(&server, SERVER, second);
    slice(&mut server);
    server.gc();
    // Releases 1 and 2 are queued in order: deliver 2, then 1 twice.
    let r1 = take(&client, CLIENT, 0);
    let r2 = take(&client, CLIENT, 0);
    for r in [r2, r1.clone(), r1] {
        put(&client, CLIENT, r);
    }
    slice(&mut client);
    assert_eq!(client.exports.len(), 1, "two of three receipts still count");
    put(&server, SERVER, third);
    slice(&mut server);
    server.gc();
    slice(&mut client);
    assert_eq!(releases(&server), 3);
    // The ignored release leaks one receipt: the entry stays for good.
    assert_eq!(client.exports.len(), 1, "leak, never free early");
}

#[test]
fn an_exported_name_is_never_reclaimed() {
    let (mut server, mut client) = duo(
        "export new q in q?(x) = 0",
        "export new p in import q from server in q![p]",
    );
    slice(&mut server);
    slice(&mut client);
    slice(&mut server);
    server.gc();
    slice(&mut client);
    assert_eq!(releases(&server), 1, "the server released p");
    assert_eq!(client.exports.len(), 1, "p stays exported");
    client.gc();
    assert_eq!(client.live_channels(), 1, "and stays a root");
}

#[test]
fn a_channel_carried_back_to_its_owner_is_owed_like_a_message_to_it() {
    let (mut server, mut client) = duo(
        "import q from client in export new p in p?(r) = q![r]",
        "export new q in import p from server in \
         new r (p![r] | q?(x) = x![5] | r?(v) = print(v))",
    );
    slice(&mut client);
    slice(&mut server);
    slice(&mut client);
    slice(&mut server);
    server.gc();
    // The client's queue holds `q![r]`, then the release: swap them.
    let carrier = take(&client, CLIENT, 0);
    slice(&mut client);
    assert_eq!(client.exports.len(), 2, "q, and r until its carrier lands");
    put(&client, CLIENT, carrier);
    slice(&mut client);
    assert_eq!(client.io, vec!["5"]);
    assert_eq!(client.exports.len(), 1, "r reclaimed, q pinned");
    assert_eq!(client.stats.stale_deliveries, 0);
}
