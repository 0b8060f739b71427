//! Transport-layer integration tests that stay inside one OS process:
//! two `Cluster` partitions wired over real loopback TCP, and a
//! hand-rolled fake peer that goes silent after its handshake.
//!
//! The true multi-process coverage (child `ditico serve`, kill -9 mid
//! run) lives in the workspace-level `tests/net_loopback.rs`; these tests
//! keep the same machinery honest under `cargo test -p ditico-rt`.

use ditico_rt::{
    ChaosPlan, ChaosSpec, Cluster, LinkProfile, NetHandle, RunReport, TermCounters, Ticket,
    TransportConfig,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
use tyco_vm::word::NodeId;

#[path = "support/passive_peer.rs"]
mod passive_peer;
use passive_peer::PassivePeer;

/// Reserve a free loopback port by binding port 0 and dropping the
/// listener. Racy in principle; fine for a test that runs in isolation.
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("local_addr")
}

/// Both partitions must build the same two-node topology in the same
/// order; `local` selects which node gets real VMs.
fn partition(local: u32) -> Cluster {
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
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

/// Packets the run's daemons refused at the trust boundary.
fn rejected(report: &RunReport) -> u64 {
    report.daemon_stats.iter().map(|d| d.rejected).sum()
}

fn cfg(local: u32, listen: Option<SocketAddr>, peers: Vec<SocketAddr>) -> TransportConfig {
    TransportConfig {
        local_nodes: vec![NodeId(local)],
        listen,
        peers,
        hb_period: Duration::from_millis(25),
        stale_periods: 4,
        ..TransportConfig::default()
    }
}

/// Both sides of a finished run ended on the verdict.
fn on_the_verdict(who: &str, report: &RunReport) {
    assert!(report.quiescent, "{who} ends on the verdict, not the wall");
    assert!(
        report.detector_probes >= 2,
        "{who} took part in two waves: {}",
        report.detector_probes
    );
}

/// A remote FETCH over real sockets: the client imports a def exported by
/// a site hosted in the *other* partition, instantiates it locally and
/// prints the result. Exercises the whole path — NS lookup over the wire,
/// code image screened by the verifier at the trust boundary, replies
/// routed back, and both partitions terminating cleanly.
///
/// A run may end inside one heartbeat period: the termination waves ride
/// on the tick, and a quiet wave starts its confirming wave at once. So
/// for liveness to be seen flowing, the server beats every millisecond
/// (patient enough for the client's slower beacon) and the client at the
/// default 100 ms. The server's waves end the run, each behind a beacon
/// on the same connection; the client's first tick, and so its first
/// wave, comes 100 ms after it starts, long after the server's.
#[test]
fn two_partitions_fetch_over_loopback() {
    let addr = free_addr();
    let server_cfg = TransportConfig {
        hb_period: Duration::from_millis(1),
        stale_periods: 2500,
        ..cfg(0, Some(addr), Vec::new())
    };
    let server = std::thread::spawn(move || {
        partition(0)
            .run_distributed(server_cfg, Duration::from_secs(30))
            .expect("server run")
    });
    // The client dials with reconnect/backoff, so it tolerates starting
    // before the server's listener is up.
    let client_cfg = TransportConfig {
        local_nodes: vec![NodeId(1)],
        peers: vec![addr],
        ..TransportConfig::default()
    };
    let client = partition(1)
        .run_distributed(client_cfg, Duration::from_secs(30))
        .expect("client run");
    let server = server.join().expect("server thread");

    assert_eq!(client.output("client"), ["42".to_string()]);
    assert!(client.errors.is_empty(), "{:?}", client.errors);
    assert!(server.errors.is_empty(), "{:?}", server.errors);
    on_the_verdict("client", &client);
    on_the_verdict("server", &server);
    assert!(client.suspects.is_empty(), "{:?}", client.suspects);
    let cw = client.transport.expect("client wire counters");
    let sw = server.transport.expect("server wire counters");
    assert!(cw.data_out > 0 && cw.data_in > 0, "{cw:?}");
    assert!(sw.data_in > 0 && sw.data_out > 0, "{sw:?}");
    assert_eq!(rejected(&client) + rejected(&server), 0);
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
        sock.write_all(&hello_frame(NodeId(0)))
            .expect("write hello");
        let mut sink = [0u8; 4096];
        loop {
            match sock.read(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });

    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    // The local site finishes immediately; the silent member never
    // reports, so the run can only end via all-remotes-down.
    c.add_site_src(NodeId(1), "client", "print(1)").unwrap();
    let report = c
        .run_distributed(
            TransportConfig {
                local_nodes: vec![NodeId(1)],
                peers: vec![addr],
                hb_period: Duration::from_millis(20),
                stale_periods: 3,
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
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
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

fn hello_frame(node: NodeId) -> bytes::Bytes {
    let hello = Packet::Hello {
        version: WIRE_VERSION,
        nodes: vec![node],
    };
    codec::encode_frame(node, CONTROL_NODE, &codec::encode(&hello))
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
        sock.write_all(&hello_frame(node)).expect("write hello");
        script(sock);
    })
}

fn heartbeat_frame(node: NodeId, seq: u64) -> bytes::Bytes {
    let hb = Packet::Heartbeat { node, seq };
    codec::encode_frame(node, CONTROL_NODE, &codec::encode(&hb))
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

    let bounce = fake_peer(bounce_l, NodeId(0), move |mut sock| {
        // Heartbeat briefly, then go silent past the stale threshold
        // (3 × 20 ms) while holding the socket open, then hang up. Until
        // the comeback it withholds its reports, so no wave ends the run
        // before the bounce has played out.
        let mut withholding = PassivePeer::new(NodeId(0));
        withholding.answers = false;
        withholding.beat(&mut sock, 1, 5, Duration::from_millis(20));
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
        sock.write_all(&hello_frame(NodeId(0)))
            .expect("write hello");
        PassivePeer::new(NodeId(0)).beat(&mut sock, 1, 300, Duration::from_millis(20));
    });
    let steady = fake_peer(steady_l, NodeId(1), |mut sock| {
        PassivePeer::new(NodeId(1)).beat(&mut sock, 1, 300, Duration::from_millis(20));
    });

    let mut c = Cluster::new(LinkProfile::ideal(), 1);
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
                ..TransportConfig::default()
            },
            Duration::from_secs(30),
        )
        .expect("client run");

    assert_eq!(report.output("client"), ["1".to_string()]);
    on_the_verdict("client", &report);
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

/// A fabric waker that parks whoever kicks it — the transport's event
/// loop, delivering a data frame — until the test lets it go.
struct Gate {
    entered: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl ditico_rt::Wake for Gate {
    fn wake(&self) {
        self.entered.lock().unwrap().send(()).expect("test waits");
        let _ = self.release.lock().unwrap().recv();
    }
}

/// The failure monitor counts silence in heartbeat ticks the event loop
/// has executed, not in wall time. While the loop is not running (here:
/// parked inside a delivery; in the field: a stopped or starved process)
/// no amount of wall time condemns a peer, because whatever the peer
/// sent meanwhile is still unread; once the loop ticks again, a peer
/// that stays silent is suspected after `stale_periods` ticks as before.
#[test]
fn silence_is_counted_in_executed_ticks_not_wall_time() {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    const STALE: u64 = 3;
    let hb = Duration::from_millis(10);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fabric = ditico_rt::Fabric::new(LinkProfile::ideal());
    let _inbox = fabric.register_node(NodeId(1));
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    fabric.set_waker(
        NodeId(1),
        std::sync::Arc::new(Gate {
            entered: entered_tx.into(),
            release: release_rx.into(),
        }),
    );
    let transport = ditico_rt::Transport::start(
        TransportConfig {
            local_nodes: vec![NodeId(1)],
            peers: vec![addr],
            hb_period: hb,
            stale_periods: STALE,
            ..TransportConfig::default()
        },
        fabric.handle(),
        TermCounters::leak(),
    )
    .expect("transport");
    // Declared after the transport, so dropped before it: if an
    // assertion below fails with the loop still parked in the gate, the
    // gate opens before `Transport::drop` joins the loop's thread.
    let release = release;

    let (stall, stall_rx) = channel::<()>();
    let (done, done_rx) = channel::<()>();
    let peer = fake_peer(listener, NodeId(0), move |mut sock| {
        // Alive and beaconing until told otherwise.
        let mut seq = 0;
        loop {
            seq += 1;
            sock.write_all(&heartbeat_frame(NodeId(0), seq))
                .expect("write hb");
            match stall_rx.recv_timeout(hb) {
                Err(RecvTimeoutError::Timeout) => {}
                _ => break,
            }
        }
        // A last beacon and, in the same segment, a data frame whose
        // delivery parks the loop in the gate. Then silence, socket open.
        let mut last = heartbeat_frame(NodeId(0), seq + 1).to_vec();
        last.extend_from_slice(&codec::encode_frame(NodeId(0), NodeId(1), b"stall"));
        sock.write_all(&last).expect("write stall");
        let _ = done_rx.recv();
    });

    eventually("beacons observed", || transport.report().heartbeats_in >= 3);
    assert!(transport.suspects().is_empty());
    stall.send(()).expect("peer listens");
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the loop delivers the data frame");
    // The loop is parked: no tick runs, nothing is read. Let many
    // `stale_periods` of wall time go by.
    let ticks_at_gate = transport.report().frames_out;
    std::thread::sleep(hb * (4 * STALE as u32 + 8));
    assert_eq!(
        transport.suspects(),
        [],
        "wall time alone must not condemn a peer"
    );
    assert!(!transport.all_remotes_down());
    assert_eq!(transport.report().frames_out, ticks_at_gate, "no tick ran");

    // Ticking again, and the peer really is silent now: suspected once
    // more than `stale_periods` ticks (one beacon out each) have run
    // since its last beacon, which arrived with the stalling frame.
    release.send(()).expect("gate waits");
    eventually("suspected", || transport.suspects() == [NodeId(0)]);
    assert!(transport.all_remotes_down());
    let ticks = transport.report().frames_out - ticks_at_gate;
    assert!(ticks > STALE, "suspected after only {ticks} ticks");

    drop(done);
    peer.join().expect("fake peer");
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

    let fabric = Fabric::new(LinkProfile::ideal());
    let inbox = fabric.register_node(NodeId(1));
    let transport = Transport::start(
        TransportConfig {
            local_nodes: vec![NodeId(1)],
            peers: vec![addr],
            ..TransportConfig::default()
        },
        fabric.handle(),
        TermCounters::leak(),
    )
    .expect("transport");

    let mut got = Vec::new();
    while got.len() < 5 {
        let (from, payload, _) = inbox
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
    assert_eq!(wire.data_in, 5, "{wire:?}");
    use std::sync::atomic::Ordering;
    assert_eq!(fabric.stats.packets.load(Ordering::Relaxed), 5);
    let batches = fabric.stats.batches.load(Ordering::Relaxed);
    assert!(
        (1..=4).contains(&batches),
        "the burst's three frames shared a batch: {batches} batches"
    );
    done_tx.send(()).expect("peer still there");
    peer.join().expect("fake peer");
    drop(transport);
}

/// Whole frames off a raw socket, the way a peer's reader sees them.
struct FrameReader {
    sock: std::net::TcpStream,
    pending: Vec<u8>,
    ready: std::collections::VecDeque<codec::Frame>,
    chunk: Vec<u8>,
}

impl FrameReader {
    fn new(sock: std::net::TcpStream) -> FrameReader {
        FrameReader {
            sock,
            pending: Vec::new(),
            ready: std::collections::VecDeque::new(),
            chunk: vec![0; 64 * 1024],
        }
    }

    /// The next whole frame, sleeping `nap` before every read it takes;
    /// `None` once the other side closed. A frame that does not parse
    /// (bytes of two frames interleaved, say) panics.
    fn next(&mut self, nap: Duration) -> Option<codec::Frame> {
        use bytes::Buf as _;
        loop {
            if let Some(f) = self.ready.pop_front() {
                return Some(f);
            }
            std::thread::sleep(nap);
            let n = match self.sock.read(&mut self.chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => n,
            };
            self.pending.extend_from_slice(&self.chunk[..n]);
            let mut cur = bytes::Bytes::from(std::mem::take(&mut self.pending));
            while let Some((frame, used)) = codec::decode_frame_view(&cur).expect("frame parses") {
                cur.advance(used);
                self.ready.push_back(frame);
            }
            self.pending = cur.to_vec();
        }
    }

    /// The next data frame's payload (handshake and beacons skipped).
    fn next_data(&mut self, nap: Duration) -> Option<bytes::Bytes> {
        loop {
            let f = self.next(nap)?;
            if f.to != CONTROL_NODE {
                return Some(f.payload);
            }
        }
    }
}

/// The trust boundary, over a real socket. After a valid handshake a
/// peer sends bytes that do not decode, an object whose image fails the
/// verifier, a fetch reply whose image does not hash to its digest and a
/// cache refill that fails the verifier — then one honest message. Each
/// of the four is refused exactly once and counted, none reaches the site
/// or the code cache, the connection survives all four, and the honest
/// message is delivered.
#[test]
fn hostile_input_over_tcp_is_refused_once_each_and_the_connection_stays_up() {
    use tyco_vm::wire::{WireGroup, WireObj, WireWord};
    use tyco_vm::word::Identity;

    let prog = tyco_vm::compile(&tyco_syntax::parse_core("new x x?{ go(n) = print(n) }").unwrap())
        .unwrap();
    let good = tyco_vm::pack(&prog, &[0]);
    let mut bad_parts = tyco_vm::CodeParts::clone(&good.code);
    bad_parts.tables[0].push((0, 9_999)); // a method in a block nobody shipped
    let bad_code = tyco_vm::WireCode::new(bad_parts);
    assert!(tyco_vm::verify_wire(&good.code).is_ok());
    assert!(tyco_vm::verify_wire(&bad_code).is_err());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = fake_peer(listener, NodeId(0), move |mut sock| {
        // Node 0 is the name service's node: the client's export arrives
        // here as a registration and tells us the channel to aim at.
        let mut rd = FrameReader::new(sock.try_clone().expect("clone"));
        let p = loop {
            let payload = rd.next_data(Duration::ZERO).expect("the export registers");
            if let Ok(Packet::NsRegister {
                value: WireWord::Chan(p),
                ..
            }) = codec::decode(payload)
            {
                break p;
            }
        };
        let to = Identity {
            site: p.site,
            node: p.node,
        };
        let hostile = [
            Packet::Obj {
                dest: p,
                digest: good.code.digest(),
                obj: WireObj {
                    code: bad_code.clone(),
                    table: 0,
                    captured: vec![],
                },
            },
            Packet::FetchReply {
                to,
                req: 1,
                digest: tyco_vm::Digest(good.code.digest().0 ^ 1),
                group: WireGroup {
                    code: good.code.clone(),
                    table: 0,
                    captured: vec![],
                },
                index: 0,
            },
            Packet::HaveCode {
                to: NodeId(1),
                digest: good.code.digest(),
                code: bad_code,
            },
        ];
        let mut wire = codec::encode_frame(NodeId(0), NodeId(1), &[0xff; 9]).to_vec();
        for p in &hostile {
            let bytes = codec::encode(p);
            assert!(codec::decode(bytes.clone()).is_ok(), "only (i) is garbage");
            wire.extend_from_slice(&codec::encode_frame(NodeId(0), NodeId(1), &bytes));
        }
        let honest = Packet::Msg {
            dest: p,
            label: "val".to_string(),
            args: vec![WireWord::Int(7)],
        };
        wire.extend_from_slice(&codec::encode_frame(
            NodeId(0),
            NodeId(1),
            &codec::encode(&honest),
        ));
        sock.write_all(&wire)
            .expect("same connection takes all five");
        // It read the registration and sent the five: that is what its
        // reports count, and the client's sum balances against them.
        let mut peer = PassivePeer::new(NodeId(0));
        (peer.sent, peer.recv) = (5, 1);
        peer.beat(&mut sock, 1, 500, Duration::from_millis(20));
    });

    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    c.add_site_src(
        NodeId(1),
        "client",
        "export new p in p?{ val(x) = print(x) }",
    )
    .unwrap();
    let report = c
        .run_distributed(cfg(1, None, vec![addr]), Duration::from_secs(30))
        .expect("client run");
    peer.join().expect("fake peer");

    assert_eq!(report.output("client"), ["7".to_string()], "(v) arrived");
    on_the_verdict("client", &report);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(rejected(&report), 4, "{:?}", report.daemon_stats);
    let cache = report.cache_totals();
    assert_eq!(cache.digest_mismatches, 1, "(iii) was caught by its digest");
    assert_eq!(cache.insertions, 0, "nothing hostile was cached");
    let wire = report.transport.expect("wire counters");
    assert_eq!((wire.reconnects, wire.dropped), (0, 0), "{wire:?}");
}

/// A transport on node 1 dialling `addr`, with nothing else attached:
/// beacons are pushed out of the picture so `frames_out` counts only the
/// handshake and what the test sends.
fn bare_transport(
    addr: SocketAddr,
    outbound_cap: usize,
) -> (
    ditico_rt::Fabric,
    ditico_rt::Transport,
    &'static TermCounters,
) {
    let fabric = ditico_rt::Fabric::new(LinkProfile::ideal());
    let term = TermCounters::leak();
    let transport = ditico_rt::Transport::start(
        TransportConfig {
            local_nodes: vec![NodeId(1)],
            peers: vec![addr],
            hb_period: Duration::from_secs(60),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(40),
            max_retries: 100,
            outbound_cap,
            ..TransportConfig::default()
        },
        fabric.handle(),
        term,
    )
    .expect("transport");
    (fabric, transport, term)
}

/// Send one payload from node 1 to node 0, minted on `term` as a site's
/// send would be.
fn send_one(net: &NetHandle, term: &&'static TermCounters, payload: bytes::Bytes) {
    use ditico_rt::PacketFabric as _;
    net.send_batch(
        NodeId(1),
        NodeId(0),
        &mut vec![payload],
        Ticket::mint(term, 1),
    );
}

/// Poll `cond` until it holds; panics with `what` after ten seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = std::time::Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A data kind framed to the control node is no control frame: after the
/// handshake, the transport refuses it by its class and closes the
/// connection, and neither a Mattern counter nor a drop count moves.
#[test]
fn a_data_packet_framed_as_control_closes_the_connection_uncounted() {
    use tyco_vm::codec::Class;
    use tyco_vm::word::{NetRef, SiteId};

    let msg = Packet::Msg {
        dest: NetRef {
            heap_id: 0,
            site: SiteId(0),
            node: NodeId(1),
        },
        label: "go".into(),
        args: vec![],
    };
    assert_eq!(msg.class(), Class::Data);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = fake_peer(listener, NodeId(0), move |mut sock| {
        let frame = codec::encode_frame(NodeId(0), CONTROL_NODE, &codec::encode(&msg));
        sock.write_all(&frame).expect("write");
        // Read until the transport hangs up.
        let mut rd = FrameReader::new(sock);
        while rd.next(Duration::ZERO).is_some() {}
    });
    let (_fabric, transport, term) = bare_transport(addr, 4096);
    peer.join().expect("the transport closed the connection");
    let wire = transport.report();
    assert_eq!(wire.frames_in, 2, "the hello and the refused frame");
    assert_eq!((wire.data_in, wire.dropped), (0, 0), "{wire:?}");
    assert_eq!((term.injected(), term.consumed()), (0, 0));
}

/// A coalesced batch parked before the handshake is k packets, not one:
/// `frames_out` grows by k when the route appears and the stash flushes.
#[test]
fn a_batch_stashed_before_the_handshake_counts_every_packet() {
    use ditico_rt::PacketFabric as _;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (_fabric, transport, term) = bare_transport(addr, 4096);
    // Connected (the kernel's accept queue took it) but not handshaken:
    // only our own Hello has gone out.
    eventually("our hello", || transport.report().frames_out == 1);
    let mut batch: Vec<bytes::Bytes> = (0..3u8).map(|i| bytes::Bytes::from(vec![i; 16])).collect();
    transport
        .handle()
        .send_batch(NodeId(1), NodeId(0), &mut batch, Ticket::mint(term, 3));
    assert_eq!(transport.report().frames_out, 1, "no route yet: stashed");

    let (got_tx, got_rx) = std::sync::mpsc::channel();
    let peer = fake_peer(listener, NodeId(0), move |sock| {
        let mut rd = FrameReader::new(sock);
        for _ in 0..3 {
            got_tx
                .send(rd.next_data(Duration::ZERO))
                .expect("test waits");
        }
    });
    for i in 0..3u8 {
        let payload = got_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("stash flushed")
            .expect("connection up");
        assert_eq!(&payload[..], &[i; 16][..]);
    }
    let wire = transport.report();
    assert_eq!((wire.frames_out, wire.dropped), (1 + 3, 0), "{wire:?}");
    peer.join().expect("fake peer");
}

/// Senders racing the handshake, over many handshakes: four threads send
/// while the peer's Hello arrives and the route goes in. A frame that
/// found no route, then was stashed after the handshake drained the stash,
/// would never leave; every frame counted out must reach the peer.
#[test]
fn frames_sent_during_the_handshake_all_arrive() {
    use std::sync::atomic::{AtomicBool, AtomicU64};
    const ROUNDS: usize = 300;
    const SENDERS: usize = 4;
    // Under the stash's bound even if the handshake is slow.
    const MAX_SENDS: u32 = 2_000;

    for round in 0..ROUNDS {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let arrived = Arc::new(AtomicU64::new(0));
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let peer = {
            let arrived = arrived.clone();
            std::thread::spawn(move || {
                let (mut sock, _) = listener.accept().expect("accept");
                go_rx.recv().expect("test says go");
                sock.write_all(&hello_frame(NodeId(0)))
                    .expect("write hello");
                let mut rd = FrameReader::new(sock);
                while rd.next_data(Duration::ZERO).is_some() {
                    arrived.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        let (_fabric, mut transport, term) = bare_transport(addr, 1 << 16);
        let routed = AtomicBool::new(false);
        std::thread::scope(|s| {
            for who in 0..SENDERS {
                let (net, routed, term) = (transport.handle(), &routed, &term);
                s.spawn(move || {
                    // Keep sending until a little after the route is in.
                    let mut after = 0;
                    for seq in 0..MAX_SENDS {
                        let payload = bytes::Bytes::from(vec![who as u8; 8 + seq as usize % 8]);
                        send_one(&net, term, payload);
                        if routed.load(Ordering::Acquire) {
                            after += 1;
                            if after == 32 {
                                break;
                            }
                        }
                    }
                });
            }
            go_tx.send(()).expect("peer waits");
            eventually("route to node 0", || transport.report().topology_edges >= 1);
            routed.store(true, Ordering::Release);
        });
        let wire = transport.report();
        assert_eq!(wire.dropped, 0, "round {round}: {wire:?}");
        let t0 = Instant::now();
        while arrived.load(Ordering::SeqCst) < wire.data_out {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "round {round}: {} of {} frames arrived",
                arrived.load(Ordering::SeqCst),
                wire.data_out
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        transport.shutdown();
        peer.join().expect("fake peer");
        assert_eq!(
            arrived.load(Ordering::SeqCst),
            wire.data_out,
            "round {round}"
        );
    }
}

/// Payload of producer `who`'s `seq`-th frame: a header naming both, then
/// filler derived from them up to a length that cycles through small,
/// 20 KB and 200 KB frames.
fn contention_payload(who: u8, seq: u32) -> bytes::Bytes {
    let len = match seq {
        s if s % 25 == 24 => 200_000,
        s if s % 7 == 6 => 20_000,
        s => 8 + (s as usize * 37) % 900,
    };
    let mut v = vec![who ^ seq as u8; len];
    v[0] = who;
    v[1..5].copy_from_slice(&seq.to_le_bytes());
    bytes::Bytes::from(v)
}

/// The shared write half under contention: four threads push 500 frames
/// each (8 B … 200 KB, singly and in batches) at a reader that dawdles, so
/// the socket fills, producers leave partial frames behind and the event
/// loop finishes them. Every frame arrives whole, each producer's frames
/// arrive in order, the backlog stalled at least once and drained fully.
#[test]
fn contended_writers_never_interleave_or_reorder_and_a_stalled_backlog_drains() {
    use ditico_rt::PacketFabric as _;
    const PRODUCERS: u8 = 4;
    const FRAMES: u32 = 500;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let (drained_tx, drained_rx) = std::sync::mpsc::channel::<()>();
    let peer = fake_peer(listener, NodeId(0), move |sock| {
        let mut rd = FrameReader::new(sock);
        let mut next = [0u32; PRODUCERS as usize];
        let mut seen = 0u32;
        while seen < u32::from(PRODUCERS) * FRAMES {
            // Dawdle for the first half, then catch up.
            let nap = if seen < u32::from(PRODUCERS) * FRAMES / 2 {
                Duration::from_micros(300)
            } else {
                Duration::ZERO
            };
            let payload = rd.next_data(nap).expect("stream stays up");
            let who = payload[0];
            let seq = u32::from_le_bytes(payload[1..5].try_into().unwrap());
            assert_eq!(seq, next[who as usize], "producer {who} out of order");
            assert_eq!(
                payload,
                contention_payload(who, seq),
                "frame {who}/{seq} torn"
            );
            next[who as usize] += 1;
            seen += 1;
        }
        drained_tx.send(()).expect("test waits");
        let _ = done_rx.recv();
    });

    let (_fabric, transport, term) = bare_transport(addr, 4096);
    eventually("route to node 0", || transport.report().topology_edges >= 1);
    std::thread::scope(|s| {
        for who in 0..PRODUCERS {
            let (net, term) = (transport.handle(), &term);
            s.spawn(move || {
                let mut seq = 0;
                while seq < FRAMES {
                    // Every fifth send is a batch of three.
                    if seq % 5 == 0 && seq + 3 <= FRAMES {
                        let mut batch: Vec<_> =
                            (seq..seq + 3).map(|q| contention_payload(who, q)).collect();
                        net.send_batch(NodeId(1), NodeId(0), &mut batch, Ticket::mint(term, 3));
                        seq += 3;
                    } else {
                        send_one(&net, term, contention_payload(who, seq));
                        seq += 1;
                    }
                }
            });
        }
    });
    let all = u64::from(PRODUCERS) * u64::from(FRAMES);
    let wire = transport.report();
    assert_eq!((wire.frames_out, wire.dropped), (1 + all, 0), "{wire:?}");
    assert!(wire.flush_stalls > 0, "the reader was slow: {wire:?}");
    drained_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the stalled backlog drains once the reader catches up");
    done_tx.send(()).expect("peer still there");
    peer.join().expect("fake peer");
}

/// Backpressure with nobody reading: once the socket and the backlog are
/// full, further frames are dropped and counted, the backlog never grows
/// past `outbound_cap`, and shutdown does not wait on the wedged peer.
#[test]
fn a_reader_that_never_reads_bounds_the_backlog_and_cannot_hang_shutdown() {
    const CAP: usize = 32;
    const PUSHED: u64 = 600;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let peer = fake_peer(listener, NodeId(0), move |sock| {
        let _ = done_rx.recv();
        drop(sock);
    });
    let (_fabric, mut transport, term) = bare_transport(addr, CAP);
    eventually("route to node 0", || transport.report().topology_edges >= 1);
    let net = transport.handle();
    let frame = bytes::Bytes::from(vec![7u8; 64 * 1024]);
    for _ in 0..PUSHED {
        send_one(&net, &term, frame.clone());
    }
    let wire = transport.report();
    assert!(wire.dropped > 0, "600 × 64 KB fit nowhere: {wire:?}");
    assert_eq!(wire.frames_out + wire.dropped, 1 + PUSHED, "{wire:?}");
    assert!(wire.outq_hwm <= CAP as u64, "backlog is bounded: {wire:?}");
    assert!(wire.flush_stalls >= 1, "{wire:?}");
    assert_eq!(
        term.consumed(),
        wire.dropped,
        "every dropped packet is consumed for Mattern's balance"
    );

    let t0 = std::time::Instant::now();
    transport.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown waited {:?} on a peer that never reads",
        t0.elapsed()
    );
    done_tx.send(()).expect("peer still there");
    peer.join().expect("fake peer");
}

/// The peer hangs up in the middle of a burst. Whichever thread meets the
/// broken socket first — a producer's `write` or the loop's read — nothing
/// panics, the loop tears the connection down and redials, and the
/// connection that comes back carries traffic again.
#[test]
fn a_peer_closing_mid_burst_is_killed_and_redialled_by_the_loop() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (back_tx, back_rx) = std::sync::mpsc::channel::<bytes::Bytes>();
    let peer = fake_peer(listener, NodeId(0), move |sock| {
        // Take a little, then hang up on unread data (the kernel answers
        // what follows with a reset) and stay away long enough that the
        // immediate redial fails: the comeback is a counted reconnect.
        let mut rd = FrameReader::new(sock);
        for _ in 0..4 {
            rd.next_data(Duration::ZERO).expect("burst under way");
        }
        drop(rd);
        std::thread::sleep(Duration::from_millis(100));
        let l = TcpListener::bind(addr).expect("rebind");
        let (mut sock, _) = l.accept().expect("redial");
        sock.write_all(&hello_frame(NodeId(0)))
            .expect("write hello");
        let mut rd = FrameReader::new(sock);
        while let Some(payload) = rd.next_data(Duration::ZERO) {
            if payload.len() == 5 {
                back_tx.send(payload).expect("test waits");
                return;
            }
        }
        panic!("the redialled connection closed before the marker arrived");
    });

    let (_fabric, transport, term) = bare_transport(addr, 4096);
    eventually("route to node 0", || transport.report().topology_edges >= 1);
    let net = transport.handle();
    let frame = bytes::Bytes::from(vec![9u8; 16 * 1024]);
    // Burst until the transport has been through the reconnect; frames
    // sent into the gap are dropped, lost with the old socket or stashed
    // for the new one — all fine, none may panic.
    eventually("the loop redials", || {
        for _ in 0..8 {
            send_one(&net, &term, frame.clone());
        }
        transport.report().reconnects >= 1
    });
    eventually("the new connection carries traffic", || {
        send_one(&net, &term, bytes::Bytes::from_static(b"again"));
        back_rx.try_recv().is_ok()
    });
    peer.join().expect("fake peer");
}

/// A packet for a node that is gone for good is dropped where it is sent,
/// and consumed there: with nobody left to receive it, the sender's own
/// counters balance.
#[test]
fn a_send_to_a_perma_down_node_keeps_the_counters_balanced() {
    use ditico_rt::PacketFabric as _;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Node 0 shakes hands and leaves; nothing listens there again.
    let peer = fake_peer(listener, NodeId(0), |sock| {
        FrameReader::new(sock)
            .next(Duration::ZERO)
            .expect("our hello");
    });
    let fabric = ditico_rt::Fabric::new(LinkProfile::ideal());
    let term = TermCounters::leak();
    let transport = ditico_rt::Transport::start(
        TransportConfig {
            local_nodes: vec![NodeId(1)],
            peers: vec![addr],
            hb_period: Duration::from_secs(60),
            max_retries: 1,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(10),
            ..TransportConfig::default()
        },
        fabric.handle(),
        term,
    )
    .expect("transport");
    peer.join().expect("fake peer");
    eventually("node 0 down for good", || {
        transport.report().peers_failed == 1
    });

    // Four packets, minted as a site's sends would be.
    let net = transport.handle();
    let mut batch: Vec<bytes::Bytes> = (0..3u8).map(|i| bytes::Bytes::from(vec![i; 8])).collect();
    net.send_batch(NodeId(1), NodeId(0), &mut batch, Ticket::mint(term, 3));
    send_one(&net, &term, bytes::Bytes::from_static(b"one"));
    assert_eq!(transport.report().dropped_perma, 4);
    let s = ditico_rt::Snapshot::take(term, false);
    assert!(s.quiet(), "{s:?}");
}

/// A member that withholds its report blocks every wave — the client,
/// idle from the start, cannot conclude — until that member's own verdict
/// arrives, which ends the client's run quiescent: the verdict is global.
#[test]
fn a_silent_member_blocks_the_verdict_until_its_own_arrives() {
    const WITHHELD: Duration = Duration::from_millis(400);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = fake_peer(listener, NodeId(0), |mut sock| {
        let mut peer = PassivePeer::new(NodeId(0));
        peer.answers = false;
        peer.beat(&mut sock, 1, 20, WITHHELD / 20);
        let verdict = codec::encode(&Packet::TermVerdict);
        sock.write_all(&codec::encode_frame(NodeId(0), CONTROL_NODE, &verdict))
            .expect("write verdict");
        peer.beat(&mut sock, 21, 500, Duration::from_millis(20));
    });

    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    c.add_site_src(NodeId(1), "client", "print(1)").unwrap();
    let t0 = Instant::now();
    let report = c
        .run_distributed(cfg(1, None, vec![addr]), Duration::from_secs(30))
        .expect("client run");
    peer.join().expect("fake peer");

    assert!(t0.elapsed() >= WITHHELD, "concluded without the member");
    assert!(report.quiescent, "the received verdict ends the run");
    assert!(report.suspects.is_empty(), "{:?}", report.suspects);
    assert!(report.detector_probes >= 1, "the client did start a wave");
    assert_eq!(report.output("client"), ["1".to_string()]);
}

/// A packet one process has sent and the other has not yet read keeps
/// the summed counters unbalanced: the member here reports it as sent for
/// a while before it writes it, and the verdict waits for the client to
/// have consumed it.
#[test]
fn a_frame_not_yet_read_blocks_the_verdict() {
    use tyco_vm::wire::WireWord;
    const IN_FLIGHT: Duration = Duration::from_millis(300);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = fake_peer(listener, NodeId(0), |mut sock| {
        let mut rd = FrameReader::new(sock.try_clone().expect("clone"));
        let dest = loop {
            let payload = rd.next_data(Duration::ZERO).expect("the export registers");
            if let Ok(Packet::NsRegister {
                value: WireWord::Chan(p),
                ..
            }) = codec::decode(payload)
            {
                break p;
            }
        };
        let msg = Packet::Msg {
            dest,
            label: "val".to_string(),
            args: vec![WireWord::Int(7)],
        };
        let mut peer = PassivePeer::new(NodeId(0));
        (peer.sent, peer.recv) = (1, 1);
        peer.beat(&mut sock, 1, 15, IN_FLIGHT / 15);
        sock.write_all(&codec::encode_frame(
            NodeId(0),
            NodeId(1),
            &codec::encode(&msg),
        ))
        .expect("write msg");
        peer.beat(&mut sock, 16, 500, Duration::from_millis(20));
    });

    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    c.add_remote_site("server", NodeId(0));
    c.add_site_src(
        NodeId(1),
        "client",
        "export new p in p?{ val(x) = print(x) }",
    )
    .unwrap();
    let t0 = Instant::now();
    let report = c
        .run_distributed(cfg(1, None, vec![addr]), Duration::from_secs(30))
        .expect("client run");
    peer.join().expect("fake peer");

    assert!(
        t0.elapsed() >= IN_FLIGHT,
        "concluded over a packet in flight"
    );
    on_the_verdict("client", &report);
    assert_eq!(report.output("client"), ["7".to_string()]);
}

/// Packets the wire's chaos dice drop or duplicate are discarded or
/// minted where the dice roll, so the two processes' sums still balance: both end on
/// the verdict, even when a dropped call leaves its chain unfinished.
#[test]
fn chaos_drops_and_duplicates_on_the_wire_still_end_on_the_verdict() {
    let rpc = |local: u32| {
        let server = "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]";
        let client = "import p from server in \
                      def Chain(k) = if k > 0 then new a (p!val[k, a] | a?(v) = Chain[k - 1]) \
                      else print(0) in Chain[40]";
        let mut c = Cluster::new(LinkProfile::ideal(), 1);
        c.add_node();
        c.add_node();
        for (node, lexeme, src) in [(0, "server", server), (1, "client", client)] {
            if node == local {
                c.add_site_src(NodeId(node), lexeme, src).unwrap();
            } else {
                c.add_remote_site(lexeme, NodeId(node));
            }
        }
        let mut spec = ChaosSpec::quiet(5);
        (spec.drop_per_mille, spec.dup_per_mille) = (20, 100);
        c.set_chaos(ChaosPlan::new(spec)).expect("plan");
        c
    };
    let addr = free_addr();
    let server = std::thread::spawn(move || {
        rpc(0)
            .run_distributed(cfg(0, Some(addr), Vec::new()), Duration::from_secs(30))
            .expect("server run")
    });
    let client = rpc(1)
        .run_distributed(cfg(1, None, vec![addr]), Duration::from_secs(30))
        .expect("client run");
    let server = server.join().expect("server thread");

    on_the_verdict("client", &client);
    on_the_verdict("server", &server);
    let faults: u64 = [&client, &server]
        .iter()
        .filter_map(|r| r.chaos)
        .map(|c| c.dropped + c.duplicated)
        .sum();
    assert!(faults > 0, "the dice did roll faults");
}
