//! Transport-layer integration tests that stay inside one OS process:
//! two `Cluster` partitions wired over real loopback TCP, and a
//! hand-rolled fake peer that goes silent after its handshake.
//!
//! The true multi-process coverage (child `ditico serve`, kill -9 mid
//! run) lives in the workspace-level `tests/net_loopback.rs`; these tests
//! keep the same machinery honest under `cargo test -p ditico-rt`.

use ditico_rt::{Cluster, FabricMode, LinkProfile, TransportConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;
use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
use tyco_vm::word::NodeId;

/// Reserve a free loopback port by binding port 0 and dropping the
/// listener. Racy in principle; fine for a test that runs in isolation.
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("local_addr")
}

/// Both partitions must build the same two-node topology in the same
/// order; `local` selects which node gets real VMs.
fn partition(local: u32) -> Cluster {
    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    c.add_node(); // node 0: server + the name service
    c.add_node(); // node 1: client
    let server_src = "export def Adder(x, r) = r![x + 40] in 0";
    let client_src = "import Adder from server in new r (Adder[2, r] | r?(y) = print(y))";
    if local == 0 {
        c.add_site_src(NodeId(0), "server", server_src).unwrap();
        c.add_remote_site("client", NodeId(1));
    } else {
        c.add_remote_site("server", NodeId(0));
        c.add_site_src(NodeId(1), "client", client_src).unwrap();
    }
    c
}

fn cfg(local: u32, listen: Option<SocketAddr>, peers: Vec<SocketAddr>) -> TransportConfig {
    TransportConfig {
        local_nodes: vec![NodeId(local)],
        listen,
        peers,
        serve: local == 0,
        hb_period: Duration::from_millis(25),
        stale_periods: 4,
        idle_grace: Duration::from_millis(400),
        ..TransportConfig::default()
    }
}

/// A remote FETCH over real sockets: the client imports a def exported by
/// a site hosted in the *other* partition, instantiates it locally and
/// prints the result. Exercises the whole path — NS lookup over the wire,
/// code image screened by the verifier at the trust boundary, replies
/// routed back, and both partitions terminating cleanly.
#[test]
fn two_partitions_fetch_over_loopback() {
    let addr = free_addr();
    let server = std::thread::spawn(move || {
        partition(0)
            .run_distributed(cfg(0, Some(addr), Vec::new()), Duration::from_secs(30))
            .expect("server run")
    });
    // The client dials with reconnect/backoff, so it tolerates starting
    // before the server's listener is up.
    let client = partition(1)
        .run_distributed(cfg(1, None, vec![addr]), Duration::from_secs(30))
        .expect("client run");
    let server = server.join().expect("server thread");

    assert_eq!(client.output("client"), ["42".to_string()]);
    assert!(client.errors.is_empty(), "{:?}", client.errors);
    assert!(server.errors.is_empty(), "{:?}", server.errors);
    assert!(
        client.quiescent,
        "client should exit by idling, not by wall"
    );
    assert!(server.quiescent, "server should exit once the peer is gone");
    assert!(client.suspects.is_empty(), "{:?}", client.suspects);
    let cw = client.transport.expect("client wire counters");
    let sw = server.transport.expect("server wire counters");
    assert!(cw.data_out > 0 && cw.data_in > 0, "{cw:?}");
    assert!(sw.data_in > 0 && sw.data_out > 0, "{sw:?}");
    assert_eq!(cw.rejected, 0, "{cw:?}");
    assert!(cw.heartbeats_in > 0, "liveness must flow on the wire");
}

/// A peer that completes the handshake and then falls silent: no
/// heartbeats ever arrive, so its announced node must become suspected
/// and a client with nothing else to wait for must terminate on its own
/// (within the wall bound) reporting the suspicion.
#[test]
fn silent_peer_is_suspected_and_run_terminates() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        // Speak just enough protocol: a valid Hello announcing node 0,
        // then nothing, ever. Keep draining so the client's writer never
        // blocks; keep the socket open so only heartbeat silence — not a
        // disconnect — can kill the peer.
        let hello = Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![NodeId(0)],
        };
        let frame = codec::encode_frame(NodeId(0), CONTROL_NODE, &codec::encode(&hello));
        sock.write_all(&frame).expect("write hello");
        let mut sink = [0u8; 4096];
        loop {
            match sock.read(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });

    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    // The local site finishes immediately; the run should then end via
    // all-remotes-down, not sit out the (long) idle grace.
    c.add_site_src(NodeId(1), "client", "print(1)").unwrap();
    let report = c
        .run_distributed(
            TransportConfig {
                local_nodes: vec![NodeId(1)],
                peers: vec![addr],
                hb_period: Duration::from_millis(20),
                stale_periods: 3,
                // Long on purpose: terminating before it elapses proves
                // the exit came from the failure detector.
                idle_grace: Duration::from_secs(20),
                ..TransportConfig::default()
            },
            Duration::from_secs(30),
        )
        .expect("client run");

    assert_eq!(report.suspects, vec![NodeId(0)]);
    assert!(
        !report.quiescent,
        "a run cut short by dead peers is not quiescent"
    );
    fake.join().expect("fake peer thread");
}

/// An outbound peer that never answers at all: the connector's retry
/// budget runs out and the run terminates instead of waiting forever.
#[test]
fn unreachable_peer_exhausts_retries_and_terminates() {
    let addr = free_addr(); // nothing is listening here
    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    c.add_site_src(NodeId(1), "client", "print(1)").unwrap();
    let report = c
        .run_distributed(
            TransportConfig {
                local_nodes: vec![NodeId(1)],
                peers: vec![addr],
                max_retries: 2,
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(40),
                idle_grace: Duration::from_secs(20),
                ..TransportConfig::default()
            },
            Duration::from_secs(30),
        )
        .expect("client run");
    assert_eq!(report.output("client"), ["1".to_string()]);
    let wire = report.transport.expect("wire counters");
    assert_eq!(wire.peers_failed, 1, "{wire:?}");
    assert!(!report.quiescent);
}

/// Spawn a fake peer that serves `node` on `listener`: accepts once, does
/// the Hello handshake, then runs `script` with the socket.
fn fake_peer(
    listener: TcpListener,
    node: NodeId,
    script: impl FnOnce(std::net::TcpStream) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        drop(listener);
        let hello = Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![node],
        };
        let frame = codec::encode_frame(node, CONTROL_NODE, &codec::encode(&hello));
        sock.write_all(&frame).expect("write hello");
        script(sock);
    })
}

fn heartbeat_frame(node: NodeId, seq: u64) -> bytes::Bytes {
    let hb = Packet::Heartbeat { node, seq };
    codec::encode_frame(node, CONTROL_NODE, &codec::encode(&hb))
}

/// Keep a socket readable (so the local writer never blocks) while
/// sending `n` heartbeats at `every`, then return the socket.
fn beat(
    mut sock: std::net::TcpStream,
    node: NodeId,
    from_seq: u64,
    n: u64,
    every: Duration,
) -> std::net::TcpStream {
    sock.set_nonblocking(true).expect("nonblocking");
    let mut sink = [0u8; 4096];
    for seq in from_seq..from_seq + n {
        sock.write_all(&heartbeat_frame(node, seq))
            .expect("write hb");
        let deadline = std::time::Instant::now() + every;
        while std::time::Instant::now() < deadline {
            match sock.read(&mut sink) {
                Ok(0) => return sock,
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
    sock
}

/// The heal-after-suspect regression: a peer that goes silent long enough
/// to be suspected, then *reconnects* (fresh socket, heartbeat sequence
/// restarting from 1) must have its suspicion cleared — the final report
/// carries no suspects. Before the fix the monitor kept the stale
/// last-seen sequence across the reconnect, so the healed peer stayed
/// suspected forever and a healed cluster reported phantom failures.
#[test]
fn suspected_peer_that_reconnects_is_healed() {
    // Node 0: the bouncing peer. Node 1: a steady peer whose liveness
    // keeps the run from terminating early via all-remotes-down while
    // node 0 is in its silent window.
    let bounce_l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let bounce_addr = bounce_l.local_addr().expect("addr");
    let steady_l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let steady_addr = steady_l.local_addr().expect("addr");

    let bounce = fake_peer(bounce_l, NodeId(0), move |sock| {
        // Heartbeat briefly, then go silent past the stale threshold
        // (3 × 20 ms) while holding the socket open, then hang up.
        let sock = beat(sock, NodeId(0), 1, 5, Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(400));
        drop(sock);
        // Stay down briefly so the transport's immediate redial fails and
        // the comeback is a *counted* reconnect, not a same-instant
        // re-dial (the event loop only counts retried dials).
        std::thread::sleep(Duration::from_millis(150));
        // The transport redials; this is the reconnect under test. The
        // heartbeat sequence starts over, as a restarted daemon's would.
        let l = TcpListener::bind(bounce_addr).expect("rebind");
        let (mut sock, _) = l.accept().expect("re-accept");
        let hello = Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![NodeId(0)],
        };
        let frame = codec::encode_frame(NodeId(0), CONTROL_NODE, &codec::encode(&hello));
        sock.write_all(&frame).expect("write hello");
        beat(sock, NodeId(0), 1, 300, Duration::from_millis(20));
    });
    let steady = fake_peer(steady_l, NodeId(1), |sock| {
        beat(sock, NodeId(1), 1, 300, Duration::from_millis(20));
    });

    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_node();
    c.add_remote_site("a", NodeId(0));
    c.add_remote_site("b", NodeId(1));
    c.add_site_src(NodeId(2), "client", "print(1)").unwrap();
    let report = c
        .run_distributed(
            TransportConfig {
                local_nodes: vec![NodeId(2)],
                peers: vec![bounce_addr, steady_addr],
                hb_period: Duration::from_millis(20),
                stale_periods: 3,
                max_retries: 50,
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(50),
                // Long enough for the whole bounce to play out before the
                // idle exit; short enough to keep the test quick.
                idle_grace: Duration::from_secs(2),
                ..TransportConfig::default()
            },
            Duration::from_secs(30),
        )
        .expect("client run");

    assert_eq!(report.output("client"), ["1".to_string()]);
    let wire = report.transport.expect("wire counters");
    assert!(wire.reconnects >= 1, "the bounce really dropped: {wire:?}");
    assert!(
        report.suspects.is_empty(),
        "reconnected peer must not stay suspected: {:?}",
        report.suspects
    );
    bounce.join().expect("bounce peer");
    steady.join().expect("steady peer");
}

/// The read path's three shapes, against a bare transport whose local
/// fabric is watched directly: a frame split across two writes (and so
/// two reads), a frame several times the loop's read chunk, and a burst
/// of frames arriving in one read. Every payload reaches the node's inbox
/// whole and in wire order, and each readable event's frames go in as
/// one batch — never one fabric send per frame.
#[test]
fn split_oversized_and_bursty_frames_arrive_whole_in_order_and_batched() {
    use ditico_rt::{Fabric, Transport};
    use tyco_vm::wire::WireWord;
    use tyco_vm::word::{NetRef, SiteId};

    let msg = |label: &str, text: String| {
        let p = Packet::Msg {
            dest: NetRef {
                heap_id: 1,
                site: SiteId(0),
                node: NodeId(1),
            },
            label: label.to_string(),
            args: vec![WireWord::Str(text)],
        };
        codec::encode_frame(NodeId(0), NodeId(1), &codec::encode(&p))
    };
    let big = "x".repeat(300 * 1024);
    let frames = [
        msg("split", "a".into()),
        msg("big", big.clone()),
        msg("burst0", "b".into()),
        msg("burst1", "c".into()),
        msg("burst2", "d".into()),
    ];

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let peer = fake_peer(listener, NodeId(0), move |mut sock| {
        let pause = || std::thread::sleep(Duration::from_millis(30));
        let (head, tail) = frames[0].split_at(frames[0].len() / 2);
        sock.write_all(head).expect("first half");
        pause();
        sock.write_all(tail).expect("second half");
        pause();
        sock.write_all(&frames[1]).expect("big frame");
        pause();
        let burst: Vec<u8> = frames[2..].iter().flat_map(|f| f.to_vec()).collect();
        sock.write_all(&burst).expect("burst");
        // Hold the connection until everything was seen to arrive.
        let _ = done_rx.recv();
    });

    let fabric = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
    let inbox = fabric.register_node(NodeId(1));
    let transport = Transport::start(
        TransportConfig {
            local_nodes: vec![NodeId(1)],
            peers: vec![addr],
            ..TransportConfig::default()
        },
        fabric.handle(),
    )
    .expect("transport");

    let mut got = Vec::new();
    while got.len() < 5 {
        let (from, payload) = inbox
            .recv_timeout(Duration::from_secs(10))
            .expect("all five frames arrive");
        assert_eq!(from, NodeId(0));
        match codec::decode(payload).expect("payload decodes") {
            Packet::Msg { label, args, .. } => match &args[..] {
                [WireWord::Str(text)] => got.push((label, text.len())),
                other => panic!("unexpected args {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
    let want = [
        ("split", 1),
        ("big", big.len()),
        ("burst0", 1),
        ("burst1", 1),
        ("burst2", 1),
    ];
    assert_eq!(
        got,
        want.map(|(label, len)| (label.to_string(), len)).to_vec()
    );
    let wire = transport.report();
    assert_eq!((wire.data_in, wire.rejected), (5, 0), "{wire:?}");
    use std::sync::atomic::Ordering;
    assert_eq!(fabric.stats.packets.load(Ordering::Relaxed), 5);
    assert_eq!(
        fabric.stats.batched_packets.load(Ordering::Relaxed),
        5,
        "all injected as batches"
    );
    let batches = fabric.stats.batches.load(Ordering::Relaxed);
    assert!(
        (1..=4).contains(&batches),
        "the burst's three frames shared a batch: {batches} batches"
    );
    done_tx.send(()).expect("peer still there");
    peer.join().expect("fake peer");
    drop(transport);
}
