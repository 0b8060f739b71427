//! Property tests of the fabric: exactly-once, in-order-per-link delivery
//! under random topologies, sizes and link profiles, in virtual time.

use bytes::Bytes;
use crossbeam::channel::Receiver;
use ditico_rt::chaos::{ChaosPlan, ChaosSpec, ChaosState};
use ditico_rt::fabric::{Fabric, LinkProfile};
use ditico_rt::termination::{TermCounters, Ticket};
use ditico_rt::wake::Wake;
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Mutex};
use tyco_vm::word::NodeId;

/// A ticket for `n` packets, on counters of their own.
fn tickets(n: usize) -> Ticket {
    Ticket::mint(TermCounters::leak(), n as u64)
}

/// Send `flushes` on the link `from → to`, numbering the payloads from
/// 0: each entry is one flush, 0 = a single `send`, n > 0 = a
/// `send_batch` of n. Returns how many payloads went out.
fn send_flushes(fabric: &Fabric, from: NodeId, to: NodeId, flushes: &[usize]) -> u8 {
    let h = fabric.handle();
    let mut seq: u8 = 0;
    for batch_len in flushes {
        if *batch_len == 0 {
            h.send(from, to, Bytes::from(vec![seq]), tickets(1));
            seq += 1;
        } else {
            let mut batch: Vec<Bytes> = (0..*batch_len)
                .map(|i| Bytes::from(vec![seq + i as u8]))
                .collect();
            seq += *batch_len as u8;
            h.send_batch(from, to, &mut batch, tickets(*batch_len));
            assert!(batch.is_empty(), "send_batch drains its input");
        }
    }
    seq
}

/// A destination waker that does what a daemon's cell does when kicked:
/// drains the node's inbox, on the kicking thread.
struct DrainOnKick {
    inbox: Receiver<(NodeId, Bytes, Ticket)>,
    log: Mutex<Vec<(NodeId, u8)>>,
}

impl Wake for DrainOnKick {
    fn wake(&self) {
        let mut log = self.log.lock().unwrap();
        log.extend(self.inbox.try_iter().map(|(from, b, _)| (from, b[0])));
    }
}

/// The batched-flush ordering contract with the kick in the picture: two
/// threads flush their own links into one node at once, every flush
/// kicks the node's waker from the flushing thread (after the routing
/// table is released — the kick sends through the same fabric in real
/// runs), and each link still arrives whole and in send order.
#[test]
fn fifo_across_batched_flushes_from_two_kicking_threads() {
    let flushes: [&[usize]; 2] = [
        &[3, 0, 0, 7, 1, 0, 5, 2, 0, 4],
        &[0, 6, 0, 2, 2, 0, 7, 0, 3, 1],
    ];
    for _ in 0..200 {
        let fabric = Arc::new(Fabric::new(LinkProfile::ideal()));
        let node = Arc::new(DrainOnKick {
            inbox: fabric.register_node(NodeId(2)),
            log: Mutex::new(Vec::new()),
        });
        fabric.set_waker(NodeId(2), node.clone());
        let start = Arc::new(Barrier::new(2));
        let senders: Vec<_> = (0..2u32)
            .map(|i| {
                let (fabric, start) = (fabric.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    send_flushes(&fabric, NodeId(i), NodeId(2), flushes[i as usize])
                })
            })
            .collect();
        let sent: Vec<u8> = senders.into_iter().map(|h| h.join().unwrap()).collect();
        // Every flush was followed by its kick, so nothing is left over.
        assert!(node.inbox.is_empty());
        let log = node.log.lock().unwrap();
        for (i, n) in sent.iter().enumerate() {
            let link: Vec<u8> = log
                .iter()
                .filter(|(from, _)| *from == NodeId(i as u32))
                .map(|(_, seq)| *seq)
                .collect();
            assert_eq!(link, (0..*n).collect::<Vec<_>>(), "link {i} → 2");
        }
    }
}

fn arb_profile() -> impl Strategy<Value = LinkProfile> {
    prop_oneof![
        Just(LinkProfile::ideal()),
        Just(LinkProfile::myrinet()),
        Just(LinkProfile::fast_ethernet()),
        Just(LinkProfile::wan()),
        (0u64..1_000_000, 1.0e6f64..1.0e9).prop_map(|(latency_ns, bandwidth_bps)| LinkProfile {
            latency_ns,
            bandwidth_bps,
        }),
    ]
}

/// A link that takes time: the fabric puts every packet on it into the
/// event heap, where chaos can delay it.
fn arb_timed_profile() -> impl Strategy<Value = LinkProfile> {
    prop_oneof![
        Just(LinkProfile::myrinet()),
        Just(LinkProfile::fast_ethernet()),
        Just(LinkProfile::wan()),
        (1u64..1_000_000).prop_map(|latency_ns| LinkProfile {
            latency_ns,
            bandwidth_bps: f64::INFINITY,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-link FIFO holds under chaos on a timed link: a delayed packet
    /// holds back every later packet on its link (each due time is at
    /// least the link's previous one plus 1), so nothing overtakes it,
    /// and a duplicate arrives right behind its original. Each
    /// destination hears its links in send order.
    #[test]
    fn fifo_per_link_under_chaos_delay_and_duplication(
        profile in arb_timed_profile(),
        seed in 0u64..1_000,
        dup_per_mille in 0u32..400,
        delay_per_mille in 1u32..600,
        delay_ns in 1u64..50_000_000,
        flushes in proptest::collection::vec(0usize..6, 2..24),
    ) {
        let fabric = Fabric::new(profile);
        let spec = ChaosSpec { dup_per_mille, delay_per_mille, delay_ns, ..ChaosSpec::quiet(seed) };
        let chaos = ChaosState::new(ChaosPlan::new(spec));
        fabric.set_chaos(Some(chaos.clone()));
        let rxs: Vec<_> = (2..4).map(|n| fabric.register_node(NodeId(n))).collect();
        // Two sources into two destinations: four links, sent in turn.
        let mut sent = Vec::new();
        for from in 0..2 {
            for to in 2..4 {
                sent.push(((from, to), send_flushes(&fabric, NodeId(from), NodeId(to), &flushes)));
            }
        }
        while let Some(t) = fabric.next_event_ns() {
            fabric.advance_to(t);
        }
        let heard: Vec<Vec<(u32, u8)>> =
            rxs.iter().map(|rx| rx.try_iter().map(|(f, b, _)| (f.0, b[0])).collect()).collect();
        let mut dups = 0;
        for ((from, to), n) in sent {
            let got: Vec<u8> =
                heard[to as usize - 2].iter().filter(|(f, _)| *f == from).map(|(_, p)| *p).collect();
            let mut order = got.clone();
            order.dedup();
            prop_assert_eq!(&order, &(0..n).collect::<Vec<_>>(), "{}→{}: {:?}", from, to, got);
            dups += got.len() - order.len();
        }
        let report = chaos.report();
        prop_assert_eq!(dups as u64, report.duplicated);
        prop_assert_eq!(report.dropped, 0);
    }

    /// Every packet sent is delivered exactly once, to the right node,
    /// with the right payload — regardless of profile or send order.
    #[test]
    fn exactly_once_delivery(
        nodes in 2u32..6,
        profile in arb_profile(),
        sends in proptest::collection::vec((0u32..6, 0u32..6, 1usize..2048), 1..64),
    ) {
        let fabric = Fabric::new(profile);
        let rxs: Vec<_> = (0..nodes).map(|i| fabric.register_node(NodeId(i))).collect();
        let h = fabric.handle();
        let mut expected: Vec<Vec<(u32, usize)>> = vec![Vec::new(); nodes as usize];
        for (i, (from, to, size)) in sends.iter().enumerate() {
            let from = from % nodes;
            let to = to % nodes;
            if from == to {
                continue;
            }
            // Tag each payload with its sequence number.
            let mut payload = vec![0u8; *size];
            payload[0] = i as u8;
            h.send(NodeId(from), NodeId(to), Bytes::from(payload), tickets(1));
            expected[to as usize].push((from, *size));
        }
        // Drain the event queue completely.
        while let Some(t) = fabric.next_event_ns() {
            fabric.advance_to(t);
        }
        for (node, rx) in rxs.iter().enumerate() {
            let got: Vec<(u32, usize)> =
                rx.try_iter().map(|(from, bytes, _)| (from.0, bytes.len())).collect();
            // Multiset equality: deliveries may legally interleave across
            // *different* links by modelled time.
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            let mut want = expected[node].clone();
            want.sort_unstable();
            prop_assert_eq!(got_sorted, want, "node {}", node);
        }
    }

    /// Per-link FIFO: packets on the SAME directed link arrive in send
    /// order even when a small packet follows a large one (links are
    /// non-overtaking, like the paper's switch links).
    #[test]
    fn per_link_fifo(
        profile in arb_profile(),
        sizes in proptest::collection::vec(1usize..4096, 2..32),
    ) {
        let fabric = Fabric::new(profile);
        let rx = fabric.register_node(NodeId(1));
        let h = fabric.handle();
        for (i, size) in sizes.iter().enumerate() {
            let mut payload = vec![0u8; *size];
            payload[0] = i as u8;
            h.send(NodeId(0), NodeId(1), Bytes::from(payload), tickets(1));
        }
        while let Some(t) = fabric.next_event_ns() {
            fabric.advance_to(t);
        }
        let received: Vec<u8> = rx.try_iter().map(|(_, b, _)| b[0]).collect();
        prop_assert_eq!(received, (0..sizes.len() as u8).collect::<Vec<_>>());
    }

    /// Per-link FIFO survives batched flushing: interleaving single
    /// `send`s with `send_batch` flushes of arbitrary sizes on the same
    /// directed link must preserve the overall send order. This is the
    /// ordering contract the daemon's per-destination outgoing buffers
    /// rely on — a whole pump's worth of packets goes out as one batch,
    /// racing with nothing on that link.
    #[test]
    fn fifo_across_batched_flushes(
        profile in arb_profile(),
        // Each entry is one flush: 0 = single send, n>0 = batch of n.
        flushes in proptest::collection::vec(0usize..8, 2..24),
    ) {
        let fabric = Fabric::new(profile);
        let rx = fabric.register_node(NodeId(1));
        let seq = send_flushes(&fabric, NodeId(0), NodeId(1), &flushes);
        while let Some(t) = fabric.next_event_ns() {
            fabric.advance_to(t);
        }
        let received: Vec<u8> = rx.try_iter().map(|(_, b, _)| b[0]).collect();
        prop_assert_eq!(received, (0..seq).collect::<Vec<_>>());
    }
}
