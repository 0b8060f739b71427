//! The content-addressed code cache, end to end: wire-level dedup of
//! repeat shipments, single-flight coalescing of concurrent fetches,
//! tamper detection at the fingerprint boundary, the `NeedCode`/`HaveCode`
//! refill round trip, and the capacity bound — exercised both through
//! whole clusters and by driving a daemon directly over the fabric.

use bytes::Bytes;
use crossbeam::channel::unbounded;
use ditico_rt::{
    Cluster, Daemon, Fabric, LinkProfile, NsShardMap, RtIncoming, RunLimits, TermCounters, Ticket,
};
use std::sync::Arc;
use tyco_vm::codec::{self, Packet};
use tyco_vm::port::Incoming;
use tyco_vm::word::{NetRef, NodeId, SiteId};
use tyco_vm::{Digest, WireObj};

/// Server that ships an object (`Shipped`) to the requesting site, then
/// signals completion on a caller-provided channel — so a client can
/// sequence a *second* request causally after the first shipment landed.
const SHIP_SERVER: &str = r#"
    def Shipped(p, d) = p?(v) = (println("shipped", v) | d![])
    in def Srv(c) = c?{ applet(p, d) = (Shipped[p, d] | Srv[c]) }
    in export new s in Srv[s]
"#;

/// Requests the same object twice, strictly one after the other.
const SHIP_TWICE_CLIENT: &str = r#"
    import s from server in
    new d1 (new p (s!applet[p, d1] | p![1]) |
    d1?() = new d2 (new q (s!applet[q, d2] | q![2]) |
    d2?() = println("done")))
"#;

fn ship_twice_cluster() -> Cluster {
    let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.add_site_src(n0, "server", SHIP_SERVER).unwrap();
    c.add_site_src(n1, "client", SHIP_TWICE_CLIENT).unwrap();
    c
}

#[test]
fn repeat_shipment_to_the_same_node_goes_digest_only() {
    let mut c = ship_twice_cluster();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    assert_eq!(
        report.output("client"),
        ["shipped 1", "shipped 2", "done"].map(String::from)
    );
    let cache = report.cache_totals();
    assert_eq!(cache.dedup_sends, 1, "second shipment is digest-only");
    assert_eq!(cache.hits, 1, "receiver rehydrates it from its store");
    assert!(
        cache.bytes_saved > Digest::SIZE as u64,
        "saved more than a digest: {}",
        cache.bytes_saved
    );
    assert_eq!(cache.misses, 0, "no refill round trip was needed");
    assert_eq!(cache.digest_mismatches, 0);
}

#[test]
fn disabling_the_cache_restores_full_shipments() {
    let mut c = ship_twice_cluster();
    c.set_code_cache(0);
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    assert_eq!(
        report.output("client"),
        ["shipped 1", "shipped 2", "done"].map(String::from)
    );
    let cache = report.cache_totals();
    assert_eq!(cache.dedup_sends, 0);
    assert_eq!(cache.hits, 0);
    assert_eq!(cache.insertions, 0);
}

#[test]
fn concurrent_fetches_of_one_class_are_coalesced() {
    // Two sites on the same node race to fetch the same remote class; the
    // node's daemon must put exactly one FetchReq on the wire and fan the
    // reply out to both — single-flight is not a cache setting, so a
    // store that holds nothing coalesces as the default one does.
    for capacity in [ditico_rt::daemon::DEFAULT_CODE_CACHE, 0] {
        concurrent_fetches_are_coalesced_at(capacity);
    }
}

fn concurrent_fetches_are_coalesced_at(capacity: usize) {
    let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
    c.set_code_cache(capacity);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.add_site_src(
        n0,
        "server",
        r#"export def Applet(v) = println("applet", v) in 0"#,
    )
    .unwrap();
    c.add_site_src(n1, "a", "import Applet from server in Applet[1]")
        .unwrap();
    c.add_site_src(n1, "b", "import Applet from server in Applet[2]")
        .unwrap();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    assert_eq!(report.output("a"), ["applet 1".to_string()]);
    assert_eq!(report.output("b"), ["applet 2".to_string()]);
    let cache = report.cache_totals();
    assert_eq!(cache.coalesced, 1, "one of the two fetches was folded");
    assert_eq!(
        report.stats["server"].fetches_served, 1,
        "the server saw a single FetchReq"
    );
    assert_eq!(
        report.stats["a"].fetches + report.stats["b"].fetches,
        2,
        "both sites issued a fetch"
    );
    assert!(report.quiescent, "fan-out kept the packet balance");
}

#[test]
fn sequential_fetches_from_one_node_get_a_digest_only_reply() {
    // Site `a` fetches, then kicks `b` (over an exported channel), which
    // fetches the same class: the second FetchReply to node 1 must ship
    // digest-only and rehydrate from the node's store.
    let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.add_site_src(
        n0,
        "server",
        r#"export def Applet(v) = println("applet", v) in 0"#,
    )
    .unwrap();
    c.add_site_src(
        n1,
        "a",
        "import Applet from server in (Applet[1] | import kick from b in kick![])",
    )
    .unwrap();
    c.add_site_src(
        n1,
        "b",
        "export new kick in kick?() = import Applet from server in Applet[2]",
    )
    .unwrap();
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.in_flight, 0, "every packet was consumed");
    assert_eq!(report.output("a"), ["applet 1".to_string()]);
    assert_eq!(report.output("b"), ["applet 2".to_string()]);
    let cache = report.cache_totals();
    assert_eq!(cache.coalesced, 0, "fetches were sequential, not folded");
    assert_eq!(cache.dedup_sends, 1, "second reply went digest-only");
    assert_eq!(cache.hits, 1);
    assert_eq!(report.stats["server"].fetches_served, 2);
}

#[test]
fn a_site_on_the_exporters_node_links_what_it_fetched_and_was_shipped() {
    // The exporter keeps the bytes of what it packed; a site on its own
    // node decodes them when it links, whether or not the store holds
    // anything.
    for capacity in [256, 0] {
        let mut c = Cluster::new(LinkProfile::fast_ethernet(), 1);
        c.set_code_cache(capacity);
        let n0 = c.add_node();
        c.add_site_src(n0, "server", SHIP_SERVER).unwrap();
        c.add_site_src(
            n0,
            "classes",
            r#"export def Applet(v) = println("applet", v) in 0"#,
        )
        .unwrap();
        c.add_site_src(n0, "client", SHIP_TWICE_CLIENT).unwrap();
        c.add_site_src(n0, "a", "import Applet from classes in Applet[1]")
            .unwrap();
        let report = c.run_deterministic(RunLimits::default());
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.in_flight, 0, "every packet was consumed");
        assert_eq!(
            report.output("client"),
            ["shipped 1", "shipped 2", "done"].map(String::from)
        );
        assert_eq!(report.output("a"), ["applet 1".to_string()]);
        assert_eq!(report.stats["client"].objs_recv, 2);
        assert_eq!(report.stats["classes"].fetches_served, 1);
    }
}

// -- daemon-level: fingerprint boundary and the refill protocol --------------

/// A daemon on node 0 wired to a real (ideal) fabric, plus the receiver
/// end of node 1 so the test can observe what the daemon sends back.
struct Rig {
    fabric: Fabric,
    daemon: Daemon,
    peer_rx: crossbeam::channel::Receiver<(NodeId, Bytes, Ticket)>,
    site_rx: crossbeam::channel::Receiver<(RtIncoming, Ticket)>,
    term: &'static TermCounters,
}

fn rig() -> Rig {
    let fabric = Fabric::new(LinkProfile::ideal());
    let daemon_rx = fabric.register_node(NodeId(0));
    let peer_rx = fabric.register_node(NodeId(1));
    let (_out_tx, out_rx) = unbounded();
    let term = TermCounters::leak();
    let mut daemon = Daemon::new(
        NodeId(0),
        out_rx,
        daemon_rx,
        fabric.handle(),
        Arc::new(NsShardMap::new(1, 0)),
        term,
    );
    let (site_tx, site_rx) = unbounded();
    daemon.attach_site(SiteId(0), site_tx);
    Rig {
        fabric,
        daemon,
        peer_rx,
        site_rx,
        term,
    }
}

/// A small verified image with its digest, shaped like a SHIPO payload.
fn shipped_obj() -> (Digest, WireObj) {
    let prog = tyco_vm::compile(&tyco_syntax::parse_core("new x x?{ go(n) = print(n) }").unwrap())
        .unwrap();
    let packed = tyco_vm::pack(&prog, &[0]);
    (
        packed.code.digest(),
        WireObj {
            code: packed.code,
            table: 0,
            captured: vec![],
        },
    )
}

fn dest() -> NetRef {
    NetRef {
        heap_id: 1,
        site: SiteId(0),
        node: NodeId(0),
    }
}

fn inject(rig: &Rig, p: &Packet) {
    let ticket = Ticket::mint(rig.term, 1);
    rig.fabric
        .handle()
        .send(NodeId(1), NodeId(0), codec::encode(p), ticket);
}

#[test]
fn tampered_image_is_rejected_and_counted() {
    // The carried digest is checked at every capacity, a store that holds
    // nothing included, and for both packets that carry a full image.
    for capacity in [ditico_rt::daemon::DEFAULT_CODE_CACHE, 0] {
        let (digest, obj) = shipped_obj();
        let as_obj = |digest| Packet::Obj {
            dest: dest(),
            digest,
            obj: obj.clone(),
        };
        let as_fetch_reply = |digest| Packet::FetchReply {
            to: tyco_vm::word::Identity {
                site: SiteId(0),
                node: NodeId(0),
            },
            req: 7,
            digest,
            group: tyco_vm::WireGroup {
                code: obj.code.clone(),
                table: obj.table,
                captured: vec![],
            },
            index: 0,
        };
        tampered_image_is_rejected_at(capacity, digest, &as_obj);
        tampered_image_is_rejected_at(capacity, digest, &as_fetch_reply);
    }
}

fn tampered_image_is_rejected_at(
    capacity: usize,
    digest: Digest,
    packet: &dyn Fn(Digest) -> Packet,
) {
    let mut r = rig();
    r.daemon.set_code_cache(capacity);
    // Bytes that no longer hash to the digest they travel under.
    inject(&r, &packet(Digest(digest.0 ^ 1)));
    r.daemon.pump();
    assert_eq!(r.daemon.stats.cache.digest_mismatches, 1);
    assert_eq!(r.daemon.stats.rejected, 1);
    assert_eq!(r.daemon.code_cache_len(), 0, "tampered code is not cached");
    assert!(r.site_rx.try_recv().is_err(), "nothing was delivered");

    // The honest shipment is admitted, cached (if anything is) and
    // delivered.
    inject(&r, &packet(digest));
    r.daemon.pump();
    assert_eq!(r.daemon.stats.cache.digest_mismatches, 1);
    assert_eq!(r.daemon.code_cache_len(), capacity.min(1));
    assert!(matches!(
        r.site_rx.try_recv(),
        Ok((
            RtIncoming::Vm(Incoming::Obj { .. } | Incoming::FetchReply { .. }),
            _
        ))
    ));
}

/// `p` encoded, with one operand byte of its image changed: the literal
/// 7 of `print(n + 7)` reads 6. The image still decodes and verifies,
/// but its bytes no longer hash to the digest `p` carries.
fn with_one_operand_flipped(p: &Packet, code: &tyco_vm::WireCode) -> Bytes {
    let honest = codec::encode(p).to_vec();
    let pushint_7 = [1, 7, 0, 0, 0, 0, 0, 0, 0];
    let in_code = code
        .bytes()
        .windows(pushint_7.len())
        .position(|w| w == pushint_7)
        .expect("the image pushes 7");
    let code_at = honest
        .windows(code.bytes().len())
        .position(|w| w == &code.bytes()[..])
        .expect("the packet carries the image");
    let mut flipped = honest;
    flipped[code_at + in_code + 1] ^= 1;
    let flipped = Bytes::from(flipped);
    let code = match codec::decode(flipped.clone()).expect("still decodes") {
        Packet::Obj { obj, .. } => obj.code,
        Packet::FetchReply { group, .. } => group.code,
        Packet::HaveCode { code, .. } => code,
        other => panic!("not a code-carrying packet: {other:?}"),
    };
    assert!(tyco_vm::verify_wire(&code).is_ok(), "and still verifies");
    flipped
}

#[test]
fn the_digest_is_checked_against_the_bytes_that_arrived() {
    let prog =
        tyco_vm::compile(&tyco_syntax::parse_core("new x x?{ go(n) = print(n + 7) }").unwrap())
            .unwrap();
    let code = tyco_vm::pack(&prog, &[0]).code;
    let digest = code.digest();
    let obj = Packet::Obj {
        dest: dest(),
        digest,
        obj: WireObj {
            code: code.clone(),
            table: 0,
            captured: vec![],
        },
    };
    let fetch_reply = Packet::FetchReply {
        to: tyco_vm::word::Identity {
            site: SiteId(0),
            node: NodeId(0),
        },
        req: 7,
        digest,
        group: tyco_vm::WireGroup {
            code: code.clone(),
            table: 0,
            captured: vec![],
        },
        index: 0,
    };
    let refill = Packet::HaveCode {
        to: NodeId(0),
        digest,
        code: code.clone(),
    };
    for capacity in [ditico_rt::daemon::DEFAULT_CODE_CACHE, 0] {
        for p in [&obj, &fetch_reply, &refill] {
            let mut r = rig();
            r.daemon.set_code_cache(capacity);
            if matches!(p, Packet::HaveCode { .. }) {
                // A refill answers a digest-only packet parked for it.
                inject(
                    &r,
                    &Packet::ObjRef {
                        dest: dest(),
                        digest,
                        table: 0,
                        captured: vec![],
                    },
                );
                r.daemon.pump();
                assert!(r.daemon.has_pending_refills());
            }
            let ticket = Ticket::mint(r.term, 1);
            let flipped = with_one_operand_flipped(p, &code);
            r.fabric
                .handle()
                .send(NodeId(1), NodeId(0), flipped, ticket);
            r.daemon.pump();
            assert_eq!(r.daemon.stats.cache.digest_mismatches, 1, "{p:?}");
            assert_eq!(r.daemon.stats.rejected, 1, "{p:?}");
            assert_eq!(r.daemon.code_cache_len(), 0, "not cached: {p:?}");
            assert!(r.site_rx.try_recv().is_err(), "not delivered: {p:?}");
            assert!(!r.daemon.has_pending_refills());
        }
    }
}

#[test]
fn missing_digest_negotiates_a_refill_then_delivers() {
    let mut r = rig();
    let (digest, obj) = shipped_obj();
    // A digest-only packet for an image this node never saw.
    inject(
        &r,
        &Packet::ObjRef {
            dest: dest(),
            digest,
            table: 0,
            captured: vec![],
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.stats.cache.misses, 1);
    assert!(r.site_rx.try_recv().is_err(), "parked, not delivered");
    // The daemon asked the sender for the bytes.
    let (_, bytes, _) = r.peer_rx.try_recv().expect("a NeedCode went out");
    match codec::decode(bytes).unwrap() {
        Packet::NeedCode { from, digest: d } => {
            assert_eq!(from, NodeId(0));
            assert_eq!(d, digest);
        }
        other => panic!("expected NeedCode, got {other:?}"),
    }
    // Refill: the parked packet is rehydrated and delivered.
    inject(
        &r,
        &Packet::HaveCode {
            to: NodeId(0),
            digest,
            code: obj.code.clone(),
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.stats.cache.hits, 1);
    assert_eq!(r.daemon.code_cache_len(), 1);
    assert!(matches!(
        r.site_rx.try_recv(),
        Ok((RtIncoming::Vm(Incoming::Obj { .. }), _))
    ));
}

#[test]
fn capacity_bound_is_honored_with_eviction() {
    let mut r = rig();
    r.daemon.set_code_cache(1);
    let (d1, o1) = shipped_obj();
    let prog2 = tyco_vm::compile(
        &tyco_syntax::parse_core(r#"new y y?{ put(a, b) = println("two", a, b) }"#).unwrap(),
    )
    .unwrap();
    let packed2 = tyco_vm::pack(&prog2, &[0]);
    let (d2, o2) = (
        packed2.code.digest(),
        WireObj {
            code: packed2.code,
            table: 0,
            captured: vec![],
        },
    );
    assert_ne!(d1, d2);
    inject(
        &r,
        &Packet::Obj {
            dest: dest(),
            digest: d1,
            obj: o1,
        },
    );
    inject(
        &r,
        &Packet::Obj {
            dest: dest(),
            digest: d2,
            obj: o2,
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.code_cache_len(), 1, "capacity 1 holds one image");
    assert_eq!(r.daemon.stats.cache.insertions, 2);
    assert_eq!(r.daemon.stats.cache.evictions, 1);
}

// -- refill retries and the restart hole -------------------------------------

use ditico_rt::daemon::{REFILL_MAX_ASKS, REFILL_RETRY_TICKS};
use ditico_rt::{ChaosEvent, ChaosPlan, ChaosSpec};

/// Drain every frame the rig's peer has received, decoded.
fn drain_peer(r: &Rig) -> Vec<Packet> {
    let mut out = Vec::new();
    while let Ok((_, bytes, _)) = r.peer_rx.try_recv() {
        out.push(codec::decode(bytes).unwrap());
    }
    out
}

#[test]
fn lost_refill_is_retried_on_idle_ticks() {
    let mut r = rig();
    let (digest, obj) = shipped_obj();
    inject(
        &r,
        &Packet::ObjRef {
            dest: dest(),
            digest,
            table: 0,
            captured: vec![],
        },
    );
    r.daemon.pump();
    assert_eq!(drain_peer(&r).len(), 1, "first NeedCode goes out eagerly");
    // The answer is lost. The old protocol never asked again; the retry
    // clock must re-ask after REFILL_RETRY_TICKS idle ticks — not before.
    for _ in 0..REFILL_RETRY_TICKS - 1 {
        r.daemon.tick_refills();
    }
    assert!(drain_peer(&r).is_empty(), "no premature re-ask");
    assert!(r.daemon.tick_refills(), "the retry fires on tick N");
    let resent = drain_peer(&r);
    assert_eq!(resent.len(), 1);
    assert!(matches!(resent[0], Packet::NeedCode { .. }));
    // The second ask is answered; the parked packet is delivered.
    inject(
        &r,
        &Packet::HaveCode {
            to: NodeId(0),
            digest,
            code: obj.code.clone(),
        },
    );
    r.daemon.pump();
    assert!(!r.daemon.has_pending_refills());
    assert!(matches!(
        r.site_rx.try_recv(),
        Ok((RtIncoming::Vm(Incoming::Obj { .. }), _))
    ));
}

#[test]
fn refill_gives_up_after_bounded_asks_and_compensates() {
    let mut r = rig();
    let (digest, _) = shipped_obj();
    inject(
        &r,
        &Packet::ObjRef {
            dest: dest(),
            digest,
            table: 0,
            captured: vec![],
        },
    );
    r.daemon.pump();
    drain_peer(&r);
    // Nobody ever answers. After REFILL_MAX_ASKS fruitless asks the
    // parked packet must be rejected, not parked forever.
    let mut reasks = 0;
    for _ in 0..REFILL_MAX_ASKS * REFILL_RETRY_TICKS + REFILL_RETRY_TICKS {
        r.daemon.tick_refills();
        reasks += drain_peer(&r).len();
        if !r.daemon.has_pending_refills() {
            break;
        }
    }
    assert_eq!(
        reasks as u32,
        REFILL_MAX_ASKS - 1,
        "bounded re-asks on top of the eager first one"
    );
    assert!(!r.daemon.has_pending_refills(), "gave up, nothing parked");
    assert_eq!(r.daemon.stats.rejected, 1, "the parked packet was dropped");
    assert!(r.site_rx.try_recv().is_err(), "nothing was delivered");
}

#[test]
fn restarted_daemon_reconverges_on_digest_only_shipment() {
    let mut r = rig();
    let (digest, obj) = shipped_obj();
    // First shipment lands in full and is cached.
    inject(
        &r,
        &Packet::Obj {
            dest: dest(),
            digest,
            obj: obj.clone(),
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.code_cache_len(), 1);
    let _ = r.site_rx.try_recv().expect("first delivery");

    // The daemon process bounces: cache gone, but the sender's dedup
    // bookkeeping still believes this node holds the digest.
    r.daemon.simulate_restart();
    assert_eq!(r.daemon.code_cache_len(), 0, "restart empties the store");

    // The stale sender ships digest-only. Pre-fix this was rejected or
    // parked forever; now it must negotiate a refill and converge.
    inject(
        &r,
        &Packet::ObjRef {
            dest: dest(),
            digest,
            table: 0,
            captured: vec![],
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.stats.cache.misses, 1, "restart hole detected");
    let asks = drain_peer(&r);
    assert!(
        asks.iter().any(|p| matches!(p, Packet::NeedCode { .. })),
        "the restarted node asks for the bytes back: {asks:?}"
    );
    inject(
        &r,
        &Packet::HaveCode {
            to: NodeId(0),
            digest,
            code: obj.code,
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.code_cache_len(), 1, "cache repopulated");
    assert!(matches!(
        r.site_rx.try_recv(),
        Ok((RtIncoming::Vm(Incoming::Obj { .. }), _))
    ));
}

#[test]
fn restart_between_shipments_converges_at_cluster_level() {
    // Baseline: how long does the undisturbed SHIP_TWICE run take?
    let baseline = ship_twice_cluster().run_deterministic(RunLimits::default());
    assert!(baseline.quiescent);
    let v = baseline.virtual_ns;
    assert!(v > 0);

    // Bounce the client's daemon at some point mid-run. The exact
    // fraction that lands between the two shipments depends on link
    // timing, so probe a few; the regression holds if at least one
    // placement yields a complete run that needed a refill (misses > 0 ⇒
    // the restart emptied the cache between the dedup'd shipments).
    let mut converged_with_refill = false;
    for num in [3u64, 4, 5, 6] {
        let mut c = ship_twice_cluster();
        let plan =
            ChaosPlan::new(ChaosSpec::quiet(1)).at(v * num / 8, ChaosEvent::RestartNode(NodeId(1)));
        c.set_chaos(plan).unwrap();
        let report = c.run_deterministic(RunLimits::default());
        let chaos = report.chaos.expect("chaos report present");
        assert_eq!(chaos.restarts, 1, "the restart fired");
        assert!(
            report.errors.is_empty(),
            "restart must never crash a site: {:?}",
            report.errors
        );
        let done = report.output("client").last().map(String::as_str) == Some("done");
        if done && report.cache_totals().misses > 0 {
            converged_with_refill = true;
        }
    }
    assert!(
        converged_with_refill,
        "no restart placement reconverged via a NeedCode refill"
    );
}
