//! Unit tests of the site-side network port (RtPort): packet shapes,
//! import caching and re-issue, and conservation accounting.

use crossbeam::channel::unbounded;
use ditico_rt::site::{RtIncoming, RtPort};
use ditico_rt::termination::{TermCounters, Ticket};
use ditico_rt::wake::{Notify, Wake};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tyco_vm::codec::Packet;
use tyco_vm::port::{ImportReply, Incoming, NetPort};
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};
use tyco_vm::ImportKind;

struct Rig {
    port: RtPort,
    out_rx: crossbeam::channel::Receiver<(SiteId, Packet, Ticket)>,
    in_tx: crossbeam::channel::Sender<(RtIncoming, Ticket)>,
    term: &'static TermCounters,
}

fn rig() -> Rig {
    let (out_tx, out_rx) = unbounded();
    let (in_tx, in_rx) = unbounded();
    let term = TermCounters::leak();
    let port = RtPort::new(
        Identity {
            site: SiteId(3),
            node: NodeId(1),
        },
        "me".to_string(),
        out_tx,
        in_rx,
        Arc::new(Notify::new()),
        term,
    );
    Rig {
        port,
        out_rx,
        in_tx,
        term,
    }
}

impl Rig {
    /// The ticket of an item the daemon delivers: it arrived from
    /// elsewhere, so it is consumed here but was not injected here.
    fn arrival(&self) -> Ticket {
        Ticket::adopt(self.term, 1)
    }
}

fn some_ref() -> NetRef {
    NetRef {
        heap_id: 4,
        site: SiteId(0),
        node: NodeId(0),
    }
}

#[test]
fn register_emits_ns_packet_with_lexeme() {
    let mut r = rig();
    r.port.register("p", WireWord::Chan(some_ref()));
    r.port.flush();
    match r.out_rx.try_recv().unwrap() {
        (
            SiteId(3),
            Packet::NsRegister {
                from_site,
                site_lexeme,
                name,
                ..
            },
            _,
        ) => {
            assert_eq!(from_site, SiteId(3));
            assert_eq!(site_lexeme, "me");
            assert_eq!(name, "p");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.term.injected(), 1);
}

#[test]
fn import_pends_then_caches_then_ready() {
    let mut r = rig();
    // First import: pending, emits a lookup.
    let reply = r.port.import("srv", "p", ImportKind::Name);
    let req = match reply {
        ImportReply::Pending(req) => req,
        other => panic!("unexpected {other:?}"),
    };
    r.port.flush();
    assert!(matches!(
        r.out_rx.try_recv().unwrap().1,
        Packet::NsImport { .. }
    ));
    assert_eq!(r.port.pending_imports(), 1);

    // The resolution arrives; poll surfaces ImportReady and fills the cache.
    let value = WireWord::Chan(some_ref());
    r.in_tx
        .send((
            RtIncoming::ImportResolved {
                req,
                result: Ok(value.clone()),
            },
            r.arrival(),
        ))
        .unwrap();
    assert_eq!(r.port.inbox_len(), 1);
    match r.port.poll() {
        Some(Incoming::ImportReady { req: got }) => assert_eq!(got, req),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.port.pending_imports(), 0);

    // Re-executed import answers Ready from the cache; no new packet.
    match r.port.import("srv", "p", ImportKind::Name) {
        ImportReply::Ready(w) => assert_eq!(w, value),
        other => panic!("unexpected {other:?}"),
    }
    r.port.flush();
    assert!(r.out_rx.try_recv().is_err());
    // The cache is kind-sensitive: a CLASS import of the same name asks
    // the name service again.
    assert!(matches!(
        r.port.import("srv", "p", ImportKind::Class),
        ImportReply::Pending(_)
    ));
}

#[test]
fn failed_import_surfaces_reason() {
    let mut r = rig();
    let ImportReply::Pending(req) = r.port.import("srv", "ghost", ImportKind::Name) else {
        panic!("expected pending");
    };
    r.in_tx
        .send((
            RtIncoming::ImportResolved {
                req,
                result: Err("no such identifier".into()),
            },
            r.arrival(),
        ))
        .unwrap();
    match r.port.poll() {
        Some(Incoming::ImportFailed { req: got, reason }) => {
            assert_eq!(got, req);
            assert!(reason.contains("no such"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn resend_pending_reissues_lookups_after_failover() {
    let mut r = rig();
    let _ = r.port.import("srv", "a", ImportKind::Name);
    let _ = r.port.import("srv", "b", ImportKind::Class);
    r.port.flush();
    // Drain the two original lookups.
    assert_eq!(r.out_rx.try_iter().count(), 2);
    r.port.resend_pending_imports();
    let reissued: Vec<Packet> = r.out_rx.try_iter().map(|(_, p, _)| p).collect();
    assert_eq!(reissued.len(), 2);
    for p in reissued {
        assert!(matches!(p, Packet::NsImport { .. }));
    }
    assert_eq!(
        r.port.pending_imports(),
        2,
        "pending set unchanged by resend"
    );
}

#[test]
fn ship_operations_produce_correctly_addressed_packets() {
    let mut r = rig();
    let dest = NetRef {
        heap_id: 8,
        site: SiteId(5),
        node: NodeId(2),
    };
    r.port.send_msg(dest, "go", vec![WireWord::Int(1)]);
    r.port.flush();
    match r.out_rx.try_recv().unwrap().1 {
        Packet::Msg {
            dest: d,
            label,
            args,
        } => {
            assert_eq!(d, dest);
            assert_eq!(label, "go");
            assert_eq!(args, vec![WireWord::Int(1)]);
        }
        other => panic!("unexpected {other:?}"),
    }
    match r.port.fetch(dest) {
        tyco_vm::FetchReplyNow::Pending(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    r.port.flush();
    match r.out_rx.try_recv().unwrap().1 {
        Packet::FetchReq {
            class, reply_to, ..
        } => {
            assert_eq!(class, dest);
            assert_eq!(reply_to, r.port.identity());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn conservation_counts_poll_and_send() {
    let mut r = rig();
    r.port.send_msg(some_ref(), "x", vec![]);
    r.port.flush();
    assert_eq!(r.term.injected(), 1);
    r.in_tx
        .send((
            RtIncoming::Vm(Incoming::Msg {
                dest: 0,
                label: "x".into(),
                args: vec![],
            }),
            r.arrival(),
        ))
        .unwrap();
    assert!(r.port.poll().is_some());
    assert_eq!(r.term.consumed(), 1);
    assert!(
        r.port.poll().is_none(),
        "empty inbox polls None without counting"
    );
    assert_eq!(r.term.consumed(), 1);
}

/// Counts kicks, and how many packets each one found queued.
struct CountingWaker {
    out_rx: crossbeam::channel::Receiver<(SiteId, Packet, Ticket)>,
    kicks: AtomicUsize,
    found: AtomicUsize,
}

impl Wake for CountingWaker {
    fn wake(&self) {
        self.kicks.fetch_add(1, Ordering::SeqCst);
        self.found
            .fetch_add(self.out_rx.try_iter().count(), Ordering::SeqCst);
    }
}

/// The port's daemon waker is any [`Wake`], and a flush kicks it once per
/// backlog, after the backlog is on the queue — what lets the kick be the
/// daemon's pump itself.
#[test]
fn flush_queues_the_backlog_then_kicks_the_daemon_waker_once() {
    let mut r = rig();
    let waker = Arc::new(CountingWaker {
        out_rx: r.out_rx.clone(),
        kicks: AtomicUsize::new(0),
        found: AtomicUsize::new(0),
    });
    r.port.set_daemon_waker(waker.clone());
    r.port.flush();
    assert_eq!(
        waker.kicks.load(Ordering::SeqCst),
        0,
        "nothing to hand over"
    );
    r.port.send_msg(some_ref(), "a", vec![]);
    r.port.send_msg(some_ref(), "b", vec![]);
    r.port.send_msg(some_ref(), "c", vec![]);
    r.port.flush();
    assert_eq!(waker.kicks.load(Ordering::SeqCst), 1);
    assert_eq!(
        waker.found.load(Ordering::SeqCst),
        3,
        "queued before the kick"
    );
}
