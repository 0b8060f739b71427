//! The daemon's combining cell ([`DaemonCell`]): producers pump the daemon
//! they kick, nothing is stranded when a kick loses the lock — the holder
//! it lost to serves it, whoever that is — and site wakeups fire only
//! once the cell is unlocked. A daemon has no thread of its own: the cell
//! alone must get every packet through.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use ditico_rt::daemon::{Daemon, DaemonCell};
use ditico_rt::fabric::{Fabric, LinkProfile, PacketFabric};
use ditico_rt::nameservice::NsShardMap;
use ditico_rt::site::RtIncoming;
use ditico_rt::termination::{TermCounters, Ticket};
use ditico_rt::wake::Wake;
use ditico_rt::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier, OnceLock, Weak};
use std::time::Duration;
use tyco_vm::codec::{self, Packet};
use tyco_vm::port::Incoming;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{NetRef, NodeId, SiteId};

struct Rig {
    /// Node 0's daemon, one local site (SiteId 0) attached.
    daemon: Daemon,
    fabric: Fabric,
    site_rx: Receiver<(RtIncoming, Ticket)>,
    to_daemon: Sender<(SiteId, Packet, Ticket)>,
    term: &'static TermCounters,
}

fn rig() -> Rig {
    let fabric = Fabric::new(LinkProfile::ideal());
    let fabric_rx = fabric.register_node(NodeId(0));
    let (to_daemon, from_sites) = unbounded();
    let term = TermCounters::leak();
    let mut daemon = Daemon::new(
        NodeId(0),
        from_sites,
        fabric_rx,
        fabric.handle(),
        Arc::new(NsShardMap::new(1, 0)),
        term,
    );
    let (in_tx, site_rx) = unbounded();
    daemon.attach_site(SiteId(0), in_tx);
    Rig {
        daemon,
        fabric,
        site_rx,
        to_daemon,
        term,
    }
}

/// A message for the local site, tagged with who sent it and its place
/// in that producer's stream.
fn tagged(producer: i64, seq: i64) -> Packet {
    Packet::Msg {
        dest: NetRef {
            heap_id: 5,
            site: SiteId(0),
            node: NodeId(0),
        },
        label: "go".into(),
        args: vec![WireWord::Int(producer), WireWord::Int(seq)],
    }
}

fn tags(rx: &Receiver<(RtIncoming, Ticket)>) -> Vec<(i64, i64)> {
    rx.try_iter()
        .map(|(item, _)| match item {
            RtIncoming::Vm(Incoming::Msg { args, .. }) => match args[..] {
                [WireWord::Int(p), WireWord::Int(s)] => (p, s),
                _ => panic!("untagged message"),
            },
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

/// N producers × M packets through one cell, nobody else pumping: every
/// packet is delivered exactly once and in its producer's order, and
/// once the producers are done nothing is left behind a raised `pending`.
/// Half the producers come in as sites (outgoing queue + kick), half
/// through the fabric (whose route holds the cell as its waker).
#[test]
fn producers_pump_the_cell_exactly_once_and_in_order() {
    const PRODUCERS: i64 = 4;
    const PACKETS: i64 = 40;
    for round in 0..200 {
        let Rig {
            daemon,
            fabric,
            site_rx,
            to_daemon,
            term,
        } = rig();
        let cell = DaemonCell::new(daemon);
        fabric.set_waker(NodeId(0), cell.clone());
        let start = Arc::new(Barrier::new(PRODUCERS as usize));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (cell, start, term) = (cell.clone(), start.clone(), term);
                let (to_daemon, wire) = (to_daemon.clone(), fabric.handle());
                std::thread::spawn(move || {
                    start.wait();
                    for seq in 0..PACKETS {
                        if p % 2 == 0 {
                            to_daemon
                                .send((SiteId(0), tagged(p, seq), Ticket::mint(term, 1)))
                                .unwrap();
                            cell.wake();
                        } else {
                            wire.send(
                                NodeId(1),
                                NodeId(0),
                                codec::encode(&tagged(p, seq)),
                                Ticket::mint(term, 1),
                            );
                        }
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        // No final kick from here: the producers' own kicks must have
        // covered everything.
        let got = tags(&site_rx);
        assert_eq!(
            got.len() as i64,
            PRODUCERS * PACKETS,
            "round {round}: lost or duplicated"
        );
        for p in 0..PRODUCERS {
            let seqs: Vec<i64> = got.iter().filter(|t| t.0 == p).map(|t| t.1).collect();
            assert_eq!(
                seqs,
                (0..PACKETS).collect::<Vec<_>>(),
                "round {round}: producer {p} out of order"
            );
        }
        assert!(cell.pumps() > 0, "the producers pumped");
        let daemon = cell.retire().expect("first retire yields the daemon");
        assert_eq!(
            daemon.stats.local_deliveries,
            (PRODUCERS * PACKETS) as u64,
            "round {round}"
        );
    }
}

/// The race the re-check after unlocking exists for: a kick that raises
/// `pending` after the holder's last look at it and fails `try_lock`
/// before the holder lets go. Two threads kick at the same moment, once
/// per round, and nobody kicks again until the round is checked — so a
/// stranded kick has no later one to rescue it and shows as a missing
/// packet. The window is a few instructions wide and nothing outside the
/// cell can hold it open, so this is a soak, not a forced interleaving:
/// it passing does not prove the protocol (the fences in `wake` are
/// argued in its comments), it failing disproves it.
#[test]
fn two_simultaneous_kicks_never_strand_one() {
    const ROUNDS: usize = 5_000;
    let Rig {
        daemon,
        fabric: _fabric,
        site_rx,
        to_daemon,
        term,
    } = rig();
    let cell = DaemonCell::new(daemon);
    let round = Arc::new(AtomicUsize::new(0));
    let other_done = Arc::new(AtomicUsize::new(0));
    let other = {
        let (cell, to_daemon, term) = (cell.clone(), to_daemon.clone(), term);
        let (round, other_done) = (round.clone(), other_done.clone());
        std::thread::spawn(move || {
            for r in 1..=ROUNDS {
                while round.load(Ordering::SeqCst) < r {
                    std::thread::yield_now();
                }
                to_daemon
                    .send((SiteId(0), tagged(1, r as i64), Ticket::mint(term, 1)))
                    .unwrap();
                cell.wake();
                other_done.store(r, Ordering::SeqCst);
            }
        })
    };
    let mut delivered = 0;
    for r in 1..=ROUNDS {
        round.store(r, Ordering::SeqCst);
        to_daemon
            .send((SiteId(0), tagged(0, r as i64), Ticket::mint(term, 1)))
            .unwrap();
        cell.wake();
        while other_done.load(Ordering::SeqCst) < r {
            std::thread::yield_now();
        }
        delivered += site_rx.try_iter().count();
        assert_eq!(delivered, 2 * r, "round {r}: a kick was stranded");
    }
    other.join().unwrap();
}

/// A network whose every batch comes straight back as one more packet on
/// the daemon's own outgoing queue plus a kick of the daemon's own cell —
/// a `wake()` issued from inside that daemon's `pump`. The cell owns
/// its daemon and so this fabric; holding the cell weakly keeps the pair
/// from leaking.
struct Echo {
    cell: OnceLock<Weak<DaemonCell>>,
    to_daemon: Sender<(SiteId, Packet, Ticket)>,
    echoed: AtomicUsize,
}

impl PacketFabric for Echo {
    fn send_batch(&self, _from: NodeId, _to: NodeId, batch: &mut Vec<Bytes>, mut ticket: Ticket) {
        for _ in batch.drain(..) {
            let n = self.echoed.fetch_add(1, Ordering::SeqCst) as i64;
            let echo = (SiteId(0), tagged(9, n), ticket.split(1));
            self.to_daemon.send(echo).unwrap();
        }
        let cell = self.cell.get().and_then(Weak::upgrade);
        cell.expect("cell installed").wake();
    }
}

#[test]
fn a_kick_from_inside_the_daemons_own_pump_is_neither_deadlock_nor_lost() {
    let Rig {
        mut daemon,
        fabric: _fabric,
        site_rx,
        to_daemon,
        term,
    } = rig();
    let echo = Arc::new(Echo {
        cell: OnceLock::new(),
        to_daemon: to_daemon.clone(),
        echoed: AtomicUsize::new(0),
    });
    daemon.set_fabric(echo.clone());
    let cell = DaemonCell::new(daemon);
    assert!(echo.cell.set(Arc::downgrade(&cell)).is_ok());

    // One message for a remote node: the pump hands it to `Echo`, which
    // queues a local message and kicks the (locked) cell from inside.
    let mut remote = tagged(0, 0);
    if let Packet::Msg { dest, .. } = &mut remote {
        dest.node = NodeId(1);
    }
    to_daemon
        .send((SiteId(0), remote, Ticket::mint(term, 1)))
        .unwrap();
    cell.wake(); // would hang here on a re-entrant lock

    assert_eq!(echo.echoed.load(Ordering::SeqCst), 1);
    assert_eq!(
        tags(&site_rx),
        vec![(9, 0)],
        "the holder served the inner kick before returning"
    );
    assert_eq!(cell.pumps(), 2);
}

/// Stands in for a site's scheduler handle and checks the rule the cell
/// exists to keep: whenever a site wakeup fires, the cell is unlocked.
/// It checks the way a woken worker would find out — by ending its slice
/// with a kick of its own, which must win the lock and pump inline.
/// Held by the daemon as a site waker, it holds the cell weakly.
struct UnlockedProbe {
    cell: OnceLock<Weak<DaemonCell>>,
    fired: AtomicUsize,
    fired_under_lock: AtomicUsize,
}

impl Wake for UnlockedProbe {
    fn wake(&self) {
        let cell = self.cell.get().and_then(Weak::upgrade);
        let cell = cell.expect("cell installed");
        let inline_before = cell.pumps();
        cell.wake();
        if cell.pumps() == inline_before {
            self.fired_under_lock.fetch_add(1, Ordering::SeqCst);
        }
        self.fired.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn site_wakeups_fire_only_after_the_cell_is_unlocked() {
    let Rig {
        mut daemon,
        fabric: _fabric,
        site_rx,
        to_daemon,
        term,
    } = rig();
    let probe = Arc::new(UnlockedProbe {
        cell: OnceLock::new(),
        fired: AtomicUsize::new(0),
        fired_under_lock: AtomicUsize::new(0),
    });
    daemon.set_site_waker(SiteId(0), probe.clone());
    let cell = DaemonCell::new(daemon);
    assert!(probe.cell.set(Arc::downgrade(&cell)).is_ok());

    // The producer path: kick, pump inline, unlock, then wake the site.
    to_daemon
        .send((SiteId(0), tagged(0, 0), Ticket::mint(term, 1)))
        .unwrap();
    cell.wake();
    assert_eq!(probe.fired.load(Ordering::SeqCst), 1);
    assert_eq!(tags(&site_rx), vec![(0, 0)]);
    assert_eq!(probe.fired_under_lock.load(Ordering::SeqCst), 0);
}

/// Counts the wakeups of the site it stands in for.
#[derive(Default)]
struct Woken(AtomicUsize);

impl Wake for Woken {
    fn wake(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A kick that loses the lock to a holder that is not pumping — the run
/// loop inside `with` or `live` (a heartbeat round, a kill, a restart,
/// teardown) — is served by that holder as it lets go. No other thread
/// runs: the kicker has returned, and there is no daemon thread.
#[test]
fn a_holder_in_with_serves_the_kick_it_beat() {
    let Rig {
        mut daemon,
        fabric: _fabric,
        site_rx,
        to_daemon,
        term,
    } = rig();
    let woken = Arc::new(Woken::default());
    daemon.set_site_waker(SiteId(0), woken.clone());
    let cell = DaemonCell::new(daemon);
    let (holding, held) = channel();
    let (kicked, kick_done) = channel();
    let holder = {
        let cell = cell.clone();
        std::thread::spawn(move || {
            cell.with(|_| {
                holding.send(()).unwrap();
                kick_done.recv().unwrap();
            })
        })
    };
    held.recv().unwrap();
    to_daemon
        .send((SiteId(0), tagged(0, 0), Ticket::mint(term, 1)))
        .unwrap();
    cell.wake(); // loses `try_lock` and returns
    assert!(tags(&site_rx).is_empty(), "the kicker pumped nothing");
    assert_eq!(cell.pumps(), 0);
    kicked.send(()).unwrap();
    holder.join().unwrap().expect("the cell is not retired");
    assert_eq!(tags(&site_rx), vec![(0, 0)], "delivered as `with` returned");
    assert_eq!(woken.0.load(Ordering::SeqCst), 1, "the site woken once");
    assert_eq!(cell.pumps(), 1);
}

/// The modeled resolver is a virtual-clock model: a wall-clock run
/// refuses a resolver cost, as it refuses a link that takes time.
#[test]
#[should_panic(expected = "resolver cost of 0")]
fn a_threaded_run_refuses_a_resolver_cost() {
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.set_ns_service(1);
    c.run_threaded(Duration::from_secs(5));
}

#[test]
fn a_retired_cell_is_a_no_op_to_kick() {
    let Rig {
        daemon,
        fabric,
        site_rx,
        to_daemon,
        term,
    } = rig();
    let cell = DaemonCell::new(daemon);
    fabric.set_waker(NodeId(0), cell.clone());
    to_daemon
        .send((SiteId(0), tagged(0, 0), Ticket::mint(term, 1)))
        .unwrap();
    cell.wake();
    let daemon = cell.retire().expect("the daemon comes out once");
    assert_eq!(daemon.stats.local_deliveries, 1);
    drop(daemon);
    assert!(cell.retire().is_none());

    // Kicks from a site and from the fabric find nothing to pump — and
    // nothing to panic or block on.
    let _ = to_daemon.send((SiteId(0), tagged(0, 1), Ticket::mint(term, 1)));
    cell.wake();
    fabric.handle().send(
        NodeId(1),
        NodeId(0),
        codec::encode(&tagged(0, 2)),
        Ticket::mint(term, 1),
    );
    assert_eq!(tags(&site_rx), vec![(0, 0)]);
    assert_eq!(cell.pumps(), 1);
}
