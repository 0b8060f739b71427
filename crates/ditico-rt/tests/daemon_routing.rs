//! Unit-level tests of the TyCOd daemon's routing logic: shared-memory
//! local delivery, remote forwarding through the fabric, name-service
//! hosting, and the conservation accounting the termination detector
//! relies on.

use crossbeam::channel::unbounded;
use ditico_rt::daemon::Daemon;
use ditico_rt::fabric::{Fabric, FabricHandle, FabricMode, LinkProfile};
use ditico_rt::nameservice::NsShardMap;
use ditico_rt::site::RtIncoming;
use ditico_rt::termination::{TermCounters, Ticket};
use std::sync::Arc;
use tyco_vm::codec::{decode, encode, Class, Packet, WIRE_VERSION};
use tyco_vm::port::Incoming;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};

struct Rig {
    daemon: Daemon,
    site_rx: crossbeam::channel::Receiver<(RtIncoming, Ticket)>,
    fabric_rx_other: crossbeam::channel::Receiver<(NodeId, bytes::Bytes, Ticket)>,
    to_daemon: crossbeam::channel::Sender<(SiteId, Packet, Ticket)>,
    term: &'static TermCounters,
    /// Sends onto the fabric, as node 1's daemon would.
    net: FabricHandle,
}

/// A daemon on node 0 hosting the NS, with one local site (SiteId 0) and a
/// second node (NodeId 1) observable through the fabric.
fn rig() -> Rig {
    let fabric = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
    let fabric_rx_self = fabric.register_node(NodeId(0));
    let fabric_rx_other = fabric.register_node(NodeId(1));
    let (out_tx, out_rx) = unbounded();
    let term = TermCounters::leak();
    let mut daemon = Daemon::new(
        NodeId(0),
        out_rx,
        fabric_rx_self,
        fabric.handle(),
        Arc::new(NsShardMap::new(1, 0)),
        term,
    );
    if let Some(ns) = &mut daemon.ns {
        ns.register_site(
            "local",
            Identity {
                site: SiteId(0),
                node: NodeId(0),
            },
        );
        ns.register_site(
            "far",
            Identity {
                site: SiteId(7),
                node: NodeId(1),
            },
        );
    }
    let (in_tx, site_rx) = unbounded();
    daemon.attach_site(SiteId(0), in_tx);
    let net = fabric.handle();
    // Keep the fabric alive for the rig's lifetime by leaking it (tests
    // are short-lived); shutting it down would close the channels.
    std::mem::forget(fabric);
    Rig {
        daemon,
        site_rx,
        fabric_rx_other,
        to_daemon: out_tx,
        term,
        net,
    }
}

impl Rig {
    /// A ticket for one packet, minted on the rig's counters.
    fn ticket(&self) -> Ticket {
        Ticket::mint(self.term, 1)
    }
}

fn msg_to(site: u32, node: u32) -> Packet {
    Packet::Msg {
        dest: NetRef {
            heap_id: 5,
            site: SiteId(site),
            node: NodeId(node),
        },
        label: "go".into(),
        args: vec![WireWord::Int(1)],
    }
}

#[test]
fn local_destination_is_delivered_by_reference() {
    let mut r = rig();
    r.to_daemon
        .send((SiteId(0), msg_to(0, 0), r.ticket()))
        .unwrap();
    assert!(r.daemon.pump());
    match r.site_rx.try_recv().expect("delivered").0 {
        RtIncoming::Vm(Incoming::Msg { dest, label, .. }) => {
            assert_eq!(dest, 5);
            assert_eq!(label, "go");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.daemon.stats.local_deliveries, 1);
    assert_eq!(r.daemon.stats.remote_sends, 0);
}

#[test]
fn remote_destination_is_encoded_and_forwarded() {
    let mut r = rig();
    r.to_daemon
        .send((SiteId(0), msg_to(7, 1), r.ticket()))
        .unwrap();
    assert!(r.daemon.pump());
    let (from, bytes, _) = r.fabric_rx_other.try_recv().expect("forwarded");
    assert_eq!(from, NodeId(0));
    // The payload decodes back to the same packet.
    match decode(bytes).expect("decodes") {
        Packet::Msg { dest, .. } => assert_eq!(dest.site, SiteId(7)),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.daemon.stats.remote_sends, 1);
    assert!(r.daemon.stats.bytes_out > 0);
}

#[test]
fn ns_register_then_import_answers_locally() {
    let mut r = rig();
    let value = WireWord::Chan(NetRef {
        heap_id: 1,
        site: SiteId(0),
        node: NodeId(0),
    });
    r.to_daemon
        .send((
            SiteId(0),
            Packet::NsRegister {
                from_site: SiteId(0),
                site_lexeme: "local".into(),
                name: "p".into(),
                value: value.clone(),
                stamp: None,
            },
            r.ticket(),
        ))
        .unwrap();
    r.to_daemon
        .send((
            SiteId(0),
            Packet::NsImport {
                req: 9,
                site: "local".into(),
                name: "p".into(),
                kind: tyco_vm::ImportKind::Name,
                reply_to: Identity {
                    site: SiteId(0),
                    node: NodeId(0),
                },
                expect: None,
            },
            r.ticket(),
        ))
        .unwrap();
    assert!(r.daemon.pump());
    match r.site_rx.try_recv().expect("reply").0 {
        RtIncoming::ImportResolved {
            req: 9,
            result: Ok(w),
        } => assert_eq!(w, value),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.daemon.stats.ns_ops, 2);
}

#[test]
fn conservation_accounting_balances() {
    let mut r = rig();
    // Two NS ops and one local delivery: everything injected must be
    // consumable. (Site-side tickets are minted in RtPort; here the rig
    // mints them so the balance is observable.)
    r.to_daemon
        .send((
            SiteId(0),
            Packet::NsRegister {
                from_site: SiteId(0),
                site_lexeme: "local".into(),
                name: "q".into(),
                value: WireWord::Chan(NetRef {
                    heap_id: 2,
                    site: SiteId(0),
                    node: NodeId(0),
                }),
                stamp: None,
            },
            r.ticket(),
        ))
        .unwrap();
    r.to_daemon
        .send((
            SiteId(0),
            Packet::NsImport {
                req: 1,
                site: "local".into(),
                name: "q".into(),
                kind: tyco_vm::ImportKind::Name,
                reply_to: Identity {
                    site: SiteId(0),
                    node: NodeId(0),
                },
                expect: None,
            },
            r.ticket(),
        ))
        .unwrap();
    r.daemon.pump();
    // Both NS ops consumed; the generated reply (+1 injected) sits in the
    // site inbox, not yet consumed.
    assert_eq!((r.term.injected(), r.term.consumed()), (3, 2));
    assert_eq!(r.site_rx.len(), 1, "the reply is in flight");
}

#[test]
fn heartbeats_update_liveness_map() {
    let mut r = rig();
    r.daemon.send_heartbeat();
    r.daemon.pump();
    assert_eq!(r.daemon.heartbeats.get(&NodeId(0)), Some(&1));
    r.daemon.send_heartbeat();
    r.daemon.pump();
    assert_eq!(r.daemon.heartbeats.get(&NodeId(0)), Some(&2));
}

#[test]
fn unknown_local_site_drops_and_consumes() {
    let mut r = rig();
    let before = r.term.consumed();
    r.to_daemon
        .send((SiteId(0), msg_to(42, 0), r.ticket()))
        .unwrap(); // site 42: nobody
    r.daemon.pump();
    assert!(r.site_rx.try_recv().is_err());
    assert_eq!(r.term.consumed(), before + 1, "dropped = consumed");
}

#[test]
fn control_packets_from_the_fabric_are_consumed_once_and_reach_no_site() {
    let mut r = rig();
    let control = [
        Packet::TermVerdict,
        Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![NodeId(1)],
        },
    ];
    for p in &control {
        assert_eq!(p.class(), Class::Control);
        // Minted by the sender, as a site's send would be.
        r.net.send(NodeId(1), NodeId(0), encode(p), r.ticket());
    }
    assert!(r.daemon.pump());
    assert_eq!((r.term.injected(), r.term.consumed()), (2, 2));
    assert!(r.site_rx.try_recv().is_err());
    assert_eq!(r.daemon.stats.rejected, 0);
}
