//! Connection-scaling benchmark for the TCP transport (ISSUE 8).
//!
//! Topology: one *hub* process-half runs a real `Transport` hosting
//! `NodeId(0)`; an echo thread drains node 0's fabric inbox and sends
//! every payload straight back to its sender. The other half is a swarm
//! of N raw-protocol loopback clients — each speaks the real wire format
//! (Hello handshake, then pipelined data frames carrying Heartbeat
//! packets, which pass the daemon's verifier screen as data) — all
//! driven from a single bench thread on its own `Poller`, so the
//! client side never becomes the thread-count confound being measured.
//!
//! Each client keeps a window of 8 round-trips in flight until it has
//! completed its quota; RTT is measured per echo (same-connection FIFO
//! ordering makes a timestamp queue exact). The sweep quadruples peers
//! 4 → 1024; the smoke runs 4 and 64 peers. A point counts only if every
//! client got every echo back before the deadline.

#[cfg(not(target_os = "linux"))]
pub fn run(_smoke: bool) -> Vec<crate::json::Json> {
    panic!("the transport scenario drives the Linux poller");
}

#[cfg(target_os = "linux")]
pub use unix_bench::run;

#[cfg(target_os = "linux")]
mod unix_bench {
    use bytes::{Buf, BytesMut};
    use ditico_rt::poller::{connect_start, ConnectStart, Interest, PendingConnect, Poller};
    use ditico_rt::{
        Fabric, FabricMode, LinkProfile, PacketFabric, TermCounters, Ticket, Transport,
        TransportConfig,
    };
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};
    use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
    use tyco_vm::word::NodeId;

    use crate::json::Json;
    use crate::{point, round, vals};

    /// Round-trips each client keeps in flight.
    const WINDOW: u64 = 8;
    /// Dials in flight *as the hub sees them*: started but not yet
    /// acknowledged by the hub's Hello. Gating on our own connect
    /// completion is not enough — the kernel finishes handshakes into
    /// the hub's accept queue long before the hub accept()s them, so an
    /// unpaced swarm overflows the listener backlog (128) and every
    /// subsequent SYN is silently dropped and retried after a ~1s RTO,
    /// which reads as a mysterious throughput collapse.
    const MAX_DIAL: usize = 64;
    const READ_CHUNK: usize = 64 * 1024;

    /// First remote node id; clients are `CLIENT_BASE + i`.
    const CLIENT_BASE: u32 = 1000;

    enum ClientState {
        Idle,
        Dialing(PendingConnect),
        Up(TcpStream),
    }

    struct Client {
        state: ClientState,
        node: NodeId,
        rbuf: BytesMut,
        wbuf: Vec<u8>,
        woff: usize,
        want_write: bool,
        sent: u64,
        recvd: u64,
        inflight: std::collections::VecDeque<Instant>,
        dial_retries: u32,
        saw_hello: bool,
        done: bool,
    }

    impl Client {
        fn new(i: usize) -> Client {
            Client {
                state: ClientState::Idle,
                node: NodeId(CLIENT_BASE + i as u32),
                rbuf: BytesMut::new(),
                wbuf: Vec::new(),
                woff: 0,
                want_write: false,
                sent: 0,
                recvd: 0,
                inflight: std::collections::VecDeque::new(),
                dial_retries: 0,
                saw_hello: false,
                done: false,
            }
        }

        fn queue_msg(&mut self, now: Instant) {
            let p = Packet::Heartbeat {
                node: self.node,
                seq: self.sent,
            };
            let frame = codec::encode_frame(self.node, NodeId(0), &codec::encode(&p));
            self.wbuf.extend_from_slice(&frame);
            self.inflight.push_back(now);
            self.sent += 1;
        }
    }

    struct Swarm {
        poller: Poller,
        clients: Vec<Client>,
        /// One read buffer for every client: the swarm's thread is being
        /// timed with the hub, so it must not allocate per readable event.
        chunk: Box<[u8]>,
        addr: SocketAddr,
        next_dial: usize,
        hellos_seen: usize,
        done_count: usize,
        msgs_per_client: u64,
        rtts_us: Vec<u64>,
        first_send: Option<Instant>,
        last_echo: Option<Instant>,
        failed: Option<String>,
    }

    impl Swarm {
        /// Start dials until `MAX_DIAL` are outstanding (started, no hub
        /// Hello yet) — the pacing that keeps the hub's accept queue
        /// bounded below its backlog.
        fn fill_dials(&mut self) {
            while self.failed.is_none()
                && self.next_dial < self.clients.len()
                && self.next_dial - self.hellos_seen < MAX_DIAL
            {
                let i = self.next_dial;
                self.next_dial += 1;
                self.start_dial(i);
            }
        }

        fn start_dial(&mut self, i: usize) {
            match connect_start(&self.addr) {
                Ok(ConnectStart::Connected(s)) => self.install(i, s, false),
                Ok(ConnectStart::Pending(p)) => {
                    if let Err(e) = self.poller.register(p.raw_fd(), i, Interest::WRITE) {
                        self.failed = Some(format!("register dial {i}: {e}"));
                        return;
                    }
                    self.clients[i].state = ClientState::Dialing(p);
                }
                Err(e) => self.dial_failed(i, e.to_string()),
            }
        }

        fn dial_failed(&mut self, i: usize, why: String) {
            self.clients[i].dial_retries += 1;
            if self.clients[i].dial_retries > 3 {
                self.failed = Some(format!("client {i} cannot connect: {why}"));
            } else {
                self.start_dial(i);
            }
        }

        /// A connected socket: prime hello + first window, register.
        fn install(&mut self, i: usize, sock: TcpStream, registered: bool) {
            let _ = sock.set_nodelay(true);
            let _ = sock.set_nonblocking(true);
            let now = Instant::now();
            if self.first_send.is_none() {
                self.first_send = Some(now);
            }
            {
                let c = &mut self.clients[i];
                let hello = Packet::Hello {
                    version: WIRE_VERSION,
                    nodes: vec![c.node],
                };
                let frame = codec::encode_frame(c.node, CONTROL_NODE, &codec::encode(&hello));
                c.wbuf.extend_from_slice(&frame);
                for _ in 0..WINDOW.min(self.msgs_per_client) {
                    c.queue_msg(now);
                }
                c.want_write = true;
            }
            let fd = sock.as_raw_fd();
            let r = if registered {
                self.poller.modify(fd, i, Interest::BOTH)
            } else {
                self.poller.register(fd, i, Interest::BOTH)
            };
            if let Err(e) = r {
                self.failed = Some(format!("register client {i}: {e}"));
                return;
            }
            self.clients[i].state = ClientState::Up(sock);
            self.flush(i);
        }

        fn event(&mut self, i: usize, readable: bool, writable: bool, closed: bool) {
            if i >= self.clients.len() || self.failed.is_some() {
                return;
            }
            match std::mem::replace(&mut self.clients[i].state, ClientState::Idle) {
                ClientState::Idle => {}
                ClientState::Dialing(p) => {
                    let fd = p.raw_fd();
                    match p.finish() {
                        Ok(s) => self.install(i, s, true),
                        Err(e) => {
                            let _ = self.poller.deregister(fd);
                            self.dial_failed(i, e.to_string());
                        }
                    }
                }
                ClientState::Up(sock) => {
                    self.clients[i].state = ClientState::Up(sock);
                    if closed && !self.clients[i].done {
                        self.failed = Some(format!("client {i}: connection closed by hub"));
                        return;
                    }
                    if readable {
                        self.read(i);
                    }
                    if writable && self.failed.is_none() {
                        self.flush(i);
                    }
                }
            }
        }

        fn read(&mut self, i: usize) {
            // Bounded per event; level-triggered polling re-fires for the rest.
            for _ in 0..4 {
                let ClientState::Up(sock) = &mut self.clients[i].state else {
                    return;
                };
                match sock.read(&mut self.chunk) {
                    Ok(0) => {
                        if !self.clients[i].done {
                            self.failed = Some(format!("client {i}: EOF from hub"));
                        }
                        return;
                    }
                    Ok(n) => self.clients[i].rbuf.extend_from_slice(&self.chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        self.failed = Some(format!("client {i}: read: {e}"));
                        return;
                    }
                }
            }
            self.parse(i);
        }

        fn parse(&mut self, i: usize) {
            let now = Instant::now();
            let mut new_msgs = 0u64;
            {
                let c = &mut self.clients[i];
                // Frames are carved off the frozen accumulator as views;
                // the partial tail, if any, starts the next accumulator.
                let mut cur = std::mem::take(&mut c.rbuf).freeze();
                loop {
                    match codec::decode_frame_view(&cur) {
                        Ok(Some((frame, used))) => {
                            cur.advance(used);
                            if frame.to == CONTROL_NODE {
                                // First control frame on a connection is
                                // the hub's Hello: its acceptance ack,
                                // and our cue to start more dials.
                                if !c.saw_hello {
                                    c.saw_hello = true;
                                    self.hellos_seen += 1;
                                }
                                continue;
                            }
                            // An echo of one of our pipelined messages.
                            c.recvd += 1;
                            if let Some(t) = c.inflight.pop_front() {
                                self.rtts_us.push(now.duration_since(t).as_micros() as u64);
                            }
                            self.last_echo = Some(now);
                            if c.sent < self.msgs_per_client {
                                c.queue_msg(now);
                                new_msgs += 1;
                            } else if c.recvd == self.msgs_per_client && !c.done {
                                c.done = true;
                                self.done_count += 1;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            self.failed = Some(format!("client {i}: corrupt frame: {e}"));
                            return;
                        }
                    }
                }
                c.rbuf.extend_from_slice(&cur);
            }
            if new_msgs > 0 {
                self.flush(i);
            }
            self.fill_dials();
        }

        fn flush(&mut self, i: usize) {
            let mut stalled = false;
            let mut dead: Option<String> = None;
            {
                let c = &mut self.clients[i];
                let ClientState::Up(sock) = &mut c.state else {
                    return;
                };
                while c.woff < c.wbuf.len() {
                    match sock.write(&c.wbuf[c.woff..]) {
                        Ok(n) => c.woff += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            stalled = true;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            dead = Some(format!("client {i}: write: {e}"));
                            break;
                        }
                    }
                }
                if c.woff == c.wbuf.len() {
                    c.wbuf.clear();
                    c.woff = 0;
                }
            }
            if let Some(why) = dead {
                self.failed = Some(why);
                return;
            }
            // Toggle write interest only on stall edges.
            let want = stalled;
            if want != self.clients[i].want_write {
                self.clients[i].want_write = want;
                let interest = if want { Interest::BOTH } else { Interest::READ };
                if let ClientState::Up(sock) = &self.clients[i].state {
                    let fd = sock.as_raw_fd();
                    if let Err(e) = self.poller.modify(fd, i, interest) {
                        self.failed = Some(format!("client {i}: modify: {e}"));
                    }
                }
            }
        }
    }

    /// One measured point: a hub, `peers` echo clients, `msgs`
    /// round-trips each; panics unless every echo is back by `deadline`.
    fn run_point(name: &str, smoke: bool, peers: usize, msgs: u64, deadline: Duration) -> Json {
        let fabric = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
        let inbox = fabric.register_node(NodeId(0));
        let mut hub = Transport::start(
            TransportConfig {
                local_nodes: vec![NodeId(0)],
                listen: Some("127.0.0.1:0".parse().unwrap()),
                hb_period: Duration::from_secs(1),
                // Clients send Heartbeat packets as *data*, so the
                // failure monitor never observes them; park suspicion
                // far beyond any point deadline.
                stale_periods: 10_000,
                ..TransportConfig::default()
            },
            fabric.handle(),
            TermCounters::leak(),
        )
        .expect("hub transport");
        let addr = hub.local_addr().expect("hub addr");

        let net = hub.handle();
        let echo = std::thread::Builder::new()
            .name("bench-echo".into())
            .spawn(move || {
                while let Ok((from, payload, ticket)) = inbox.recv() {
                    if from == NodeId(0) {
                        return; // shutdown sentinel (hub echoes never originate locally)
                    }
                    // The echo takes over the request's ticket.
                    net.send_batch(NodeId(0), from, &mut vec![payload], ticket);
                }
            })
            .expect("spawn echo");

        let mut swarm = Swarm {
            poller: Poller::new().expect("poller"),
            clients: (0..peers).map(Client::new).collect(),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            addr,
            next_dial: 0,
            hellos_seen: 0,
            done_count: 0,
            msgs_per_client: msgs,
            rtts_us: Vec::with_capacity(peers * msgs as usize),
            first_send: None,
            last_echo: None,
            failed: None,
        };
        swarm.fill_dials();

        let t_end = Instant::now() + deadline;
        let mut events = Vec::new();
        while swarm.done_count < peers && swarm.failed.is_none() && Instant::now() < t_end {
            swarm
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("poller wait");
            for ev in &events {
                swarm.event(ev.token, ev.readable, ev.writable, ev.closed);
            }
        }
        let echoes: u64 = swarm.clients.iter().map(|c| c.recvd).sum();
        assert!(swarm.failed.is_none(), "{name}: {:?}", swarm.failed);
        assert_eq!(
            echoes,
            msgs * peers as u64,
            "{name}: echoes missing at the {deadline:?} deadline"
        );
        let first = swarm.first_send.expect("clients connected");
        let last = swarm.last_echo.expect("echoes came back");
        let elapsed = last.duration_since(first).as_secs_f64();
        let mut rtts = std::mem::take(&mut swarm.rtts_us);
        rtts.sort_unstable();
        let p99_us = rtts[(rtts.len() - 1).min(rtts.len() * 99 / 100)];

        // Teardown: sockets first, then the hub, then unblock the echo
        // thread with a local sentinel (its fabric sender outlives the
        // transport, so a plain drop would leave it parked forever).
        drop(swarm);
        hub.shutdown();
        let bye = Ticket::mint(TermCounters::leak(), 1);
        fabric
            .handle()
            .send(NodeId(0), NodeId(0), bytes::Bytes::from_static(b"bye"), bye);
        echo.join().expect("echo thread");

        let msgs_per_sec = echoes as f64 / elapsed;
        eprintln!("   {name}: {msgs_per_sec:.0} msg/s, p99 {p99_us} us");
        point(
            name,
            smoke,
            vals! {"peers" => peers, "msgs_per_peer" => msgs, "echoes" => echoes},
            vals! {
                "elapsed_s" => round(elapsed, 3),
                "msgs_per_sec" => msgs_per_sec.round(),
                "p99_us" => p99_us,
            },
        )
    }

    pub fn run(smoke: bool) -> Vec<Json> {
        let mut points = Vec::new();
        for peers in [4, 64] {
            let name = format!("{peers} peers x 50");
            points.push(run_point(&name, true, peers, 50, Duration::from_secs(30)));
        }
        if !smoke {
            for peers in [4, 16, 64, 256, 1024] {
                let name = format!("{peers} peers x 100");
                points.push(run_point(&name, false, peers, 100, Duration::from_secs(60)));
            }
        }
        points
    }
}
