//! The wire tap: a transparent loopback forwarder between the client and
//! the server process, and the matcher that turns the frames it sees
//! into spans.
//!
//! The transport routes by the `Hello` handshake and never by address,
//! so a forwarder in the middle is invisible to both sides. Each chunk is
//! forwarded first and parsed after, so the tap adds a hop but no
//! parsing ahead of the frame it is timing. Two spans per request:
//!
//! * `server_turn` — request frame seen → its reply frame seen (network
//!   hop, server netloop, daemon, scheduler, VM slice, and back);
//! * `client_turn` — reply frame seen → the same chain's next request
//!   seen (the same layers on the client side).
//!
//! Spans stay in memory until the run is over.

use crate::gen::CHAIN_SHIFT;
use bytes::{Buf, Bytes, BytesMut};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tyco_vm::codec::{self, Packet};
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NetRef};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    ToServer,
    ToClient,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    ServerTurn,
    ClientTurn,
}

/// What the request of a span asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    Rpc,
    Import,
    Fetch,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    pub what: What,
    /// Index of the workload op the span belongs to, in the order the
    /// ops' requests were first seen; an import shares the index of the
    /// fetch it precedes.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// An RPC, by the reply channel its request carries.
    Reply(NetRef),
    Import(Identity, u64),
    Fetch(Identity, u64),
}

struct Pending {
    sent_ns: u64,
    op: u64,
    chain: u64,
    what: What,
}

/// Pairs requests with replies. Pure: fed decoded packets and times.
#[derive(Default)]
pub struct Matcher {
    pending: HashMap<Key, Pending>,
    /// Per chain: when its last reply was seen.
    last_reply: HashMap<u64, u64>,
    next_op: u64,
    pub spans: Vec<Span>,
    /// Replies that answered no request the tap saw.
    pub unmatched: u64,
}

impl Matcher {
    pub fn on_packet(&mut self, dir: Dir, t_ns: u64, p: &Packet) {
        match (dir, p) {
            (Dir::ToServer, Packet::Msg { args, .. }) => {
                let reply = args.iter().find_map(|a| match a {
                    WireWord::Chan(r) => Some(*r),
                    _ => None,
                });
                let chain = args.iter().find_map(|a| match a {
                    WireWord::Int(x) => Some((*x >> CHAIN_SHIFT) as u64),
                    _ => None,
                });
                if let Some(reply) = reply {
                    self.request(Key::Reply(reply), chain.unwrap_or(0), What::Rpc, t_ns);
                }
            }
            (Dir::ToServer, Packet::NsImport { req, reply_to, .. }) => {
                self.request(Key::Import(*reply_to, *req), 0, What::Import, t_ns);
            }
            (Dir::ToServer, Packet::FetchReq { req, reply_to, .. }) => {
                self.request(Key::Fetch(*reply_to, *req), 0, What::Fetch, t_ns);
            }
            (Dir::ToClient, Packet::Msg { dest, .. }) => self.reply(Key::Reply(*dest), t_ns),
            (Dir::ToClient, Packet::NsImportReply { to, req, .. }) => {
                self.reply(Key::Import(*to, *req), t_ns)
            }
            (
                Dir::ToClient,
                Packet::FetchReply { to, req, .. } | Packet::FetchReplyRef { to, req, .. },
            ) => self.reply(Key::Fetch(*to, *req), t_ns),
            // Registrations, heartbeats, the handshake: no reply to wait for.
            _ => {}
        }
    }

    fn request(&mut self, key: Key, chain: u64, what: What, t_ns: u64) {
        let op = self.next_op;
        if what != What::Import {
            self.next_op += 1;
        }
        if let Some(start_ns) = self.last_reply.remove(&chain) {
            self.spans.push(Span {
                kind: SpanKind::ClientTurn,
                what,
                op,
                start_ns,
                end_ns: t_ns,
            });
        }
        self.pending.insert(
            key,
            Pending {
                sent_ns: t_ns,
                op,
                chain,
                what,
            },
        );
    }

    fn reply(&mut self, key: Key, t_ns: u64) {
        match self.pending.remove(&key) {
            Some(p) => {
                self.spans.push(Span {
                    kind: SpanKind::ServerTurn,
                    what: p.what,
                    op: p.op,
                    start_ns: p.sent_ns,
                    end_ns: t_ns,
                });
                self.last_reply.insert(p.chain, t_ns);
            }
            None => self.unmatched += 1,
        }
    }

    /// Requests still waiting for their reply.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// Cuts one direction's byte stream into frames, however the reads fell.
#[derive(Default)]
pub struct Splitter {
    partial: BytesMut,
}

impl Splitter {
    /// Feed one read's bytes; calls `on_payload` per complete frame and
    /// returns how many there were.
    pub fn feed(&mut self, chunk: &[u8], mut on_payload: impl FnMut(Bytes)) -> Result<u64, String> {
        self.partial.extend_from_slice(chunk);
        let mut cur = std::mem::take(&mut self.partial).freeze();
        let mut frames = 0;
        while let Some((frame, used)) =
            codec::decode_frame_view(&cur).map_err(|e| format!("tap: corrupt stream: {e}"))?
        {
            cur.advance(used);
            frames += 1;
            on_payload(frame.payload);
        }
        self.partial.extend_from_slice(&cur);
        Ok(frames)
    }
}

/// Frames kept verbatim for the isolated codec timing.
const PAYLOAD_SAMPLE: usize = 8192;

/// Everything the tap saw in one run.
#[derive(Default)]
pub struct TapLog {
    pub matcher: Matcher,
    pub frames: u64,
    pub reads: u64,
    /// The first [`PAYLOAD_SAMPLE`] data payloads, both directions.
    pub payloads: Vec<Bytes>,
    /// Every full code image that crossed (`FetchReply` packets).
    pub code_packets: Vec<Packet>,
    pub error: Option<String>,
}

impl TapLog {
    fn on_chunk(&mut self, dir: Dir, splitter: &mut Splitter, t_ns: u64, chunk: &[u8]) {
        self.reads += 1;
        let mut payloads = Vec::new();
        match splitter.feed(chunk, |p| payloads.push(p)) {
            Ok(n) => self.frames += n,
            Err(e) => self.error = Some(e),
        }
        for payload in payloads {
            match codec::decode(payload.clone()) {
                Ok(p) => {
                    self.matcher.on_packet(dir, t_ns, &p);
                    let control = matches!(p, Packet::Hello { .. } | Packet::Heartbeat { .. });
                    if !control && self.payloads.len() < PAYLOAD_SAMPLE {
                        self.payloads.push(payload);
                    }
                    if matches!(p, Packet::FetchReply { .. }) {
                        self.code_packets.push(p);
                    }
                }
                Err(e) => self.error = Some(format!("tap: undecodable payload: {}", e.0)),
            }
        }
    }
}

/// A running forwarder. The client dials [`Tap::port`]; the tap dials
/// the server.
pub struct Tap {
    pub port: u16,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<TapLog>,
}

impl Tap {
    pub fn start(server_port: u16) -> Result<Tap, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("tap: bind: {e}"))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("tap: {e}"))?
            .port();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = stop.clone();
        let thread = std::thread::spawn(move || {
            let log = Arc::new(Mutex::new(TapLog::default()));
            if let Err(e) = forward(&listener, server_port, &stop_seen, &log) {
                log.lock().expect("tap log").error = Some(e);
            }
            let mut log = log.lock().expect("tap log");
            std::mem::take(&mut *log)
        });
        Ok(Tap { port, stop, thread })
    }

    /// Stop accepting, wait for both pumps to drain, return the log.
    pub fn finish(self) -> Result<TapLog, String> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblocks an `accept` no client ever reached.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        let log = self.thread.join().map_err(|_| "tap thread panicked")?;
        match log.error {
            Some(e) => Err(e),
            None => Ok(log),
        }
    }
}

fn forward(
    listener: &TcpListener,
    server_port: u16,
    stop: &AtomicBool,
    log: &Arc<Mutex<TapLog>>,
) -> Result<(), String> {
    let (client, _) = listener.accept().map_err(|e| format!("tap: accept: {e}"))?;
    if stop.load(Ordering::SeqCst) {
        return Ok(());
    }
    let server = TcpStream::connect(("127.0.0.1", server_port))
        .map_err(|e| format!("tap: connect to server: {e}"))?;
    for s in [&client, &server] {
        s.set_nodelay(true).map_err(|e| format!("tap: {e}"))?;
    }
    let epoch = Instant::now();
    let clone = |s: &TcpStream| s.try_clone().map_err(|e| format!("tap: {e}"));
    let up = pump(
        Dir::ToServer,
        clone(&client)?,
        clone(&server)?,
        epoch,
        log.clone(),
    );
    let down = pump(Dir::ToClient, server, client, epoch, log.clone());
    for t in [up, down] {
        t.join().map_err(|_| "tap pump panicked")?;
    }
    Ok(())
}

fn pump(
    dir: Dir,
    mut from: TcpStream,
    mut to: TcpStream,
    epoch: Instant,
    log: Arc<Mutex<TapLog>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = vec![0u8; 256 << 10];
        let mut splitter = Splitter::default();
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            let t_ns = epoch.elapsed().as_nanos() as u64;
            // Forward first, parse after — both under the lock, so that
            // the other pump cannot log a reply before this one has
            // logged the request it answers.
            let mut log = log.lock().expect("tap log");
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
            log.on_chunk(dir, &mut splitter, t_ns, &buf[..n]);
        }
        // Pass the close on, so the other side sees what it would have
        // seen without the tap.
        let _ = to.shutdown(Shutdown::Write);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_vm::word::{NodeId, SiteId};
    use tyco_vm::Digest;

    fn chan(heap_id: u64, node: u32) -> NetRef {
        NetRef {
            heap_id,
            site: SiteId(node),
            node: NodeId(node),
        }
    }

    fn call(x: i64, reply: NetRef) -> Packet {
        Packet::Msg {
            dest: chan(0, 0),
            label: "val".into(),
            args: vec![WireWord::Int(x), WireWord::Chan(reply)],
        }
    }

    fn answer(reply: NetRef, v: i64) -> Packet {
        Packet::Msg {
            dest: reply,
            label: "val".into(),
            args: vec![WireWord::Int(v)],
        }
    }

    fn turns(m: &Matcher, kind: SpanKind) -> Vec<(u64, u64, u64)> {
        m.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.op, s.start_ns, s.end_ns))
            .collect()
    }

    #[test]
    fn sequential_rpcs_match_in_order() {
        let mut m = Matcher::default();
        for k in 0..3u64 {
            let r = chan(10 + k, 1);
            m.on_packet(Dir::ToServer, 100 * k, &call(k as i64, r));
            m.on_packet(Dir::ToClient, 100 * k + 60, &answer(r, k as i64 + 1));
        }
        assert_eq!(
            turns(&m, SpanKind::ServerTurn),
            [(0, 0, 60), (1, 100, 160), (2, 200, 260)]
        );
        assert_eq!(
            turns(&m, SpanKind::ClientTurn),
            [(1, 60, 100), (2, 160, 200)]
        );
        assert_eq!((m.unmatched, m.outstanding()), (0, 0));
    }

    #[test]
    fn out_of_order_replies_match_by_reply_channel_and_chain() {
        let mut m = Matcher::default();
        let (ra, rb) = (chan(1, 1), chan(2, 1));
        let chain_b = 1i64 << CHAIN_SHIFT;
        m.on_packet(Dir::ToServer, 0, &call(5, ra));
        m.on_packet(Dir::ToServer, 10, &call(chain_b + 5, rb));
        // b is answered first.
        m.on_packet(Dir::ToClient, 50, &answer(rb, chain_b + 6));
        m.on_packet(Dir::ToClient, 70, &answer(ra, 6));
        // Chain a's next request comes before chain b's.
        let (ra2, rb2) = (chan(3, 1), chan(4, 1));
        m.on_packet(Dir::ToServer, 90, &call(4, ra2));
        m.on_packet(Dir::ToServer, 95, &call(chain_b + 4, rb2));
        assert_eq!(turns(&m, SpanKind::ServerTurn), [(1, 10, 50), (0, 0, 70)]);
        assert_eq!(turns(&m, SpanKind::ClientTurn), [(2, 70, 90), (3, 50, 95)]);
        assert_eq!(m.outstanding(), 2);
    }

    #[test]
    fn digest_only_replies_and_imports_match_by_request_id() {
        let mut m = Matcher::default();
        let me = Identity {
            site: SiteId(4),
            node: NodeId(1),
        };
        let import = |req| Packet::NsImport {
            req,
            site: "s0".into(),
            name: "C1".into(),
            kind: tyco_vm::ImportKind::Class,
            reply_to: me,
            expect: None,
        };
        let fetch = |req| Packet::FetchReq {
            class: chan(9, 0),
            req,
            reply_to: me,
        };
        m.on_packet(Dir::ToServer, 0, &import(1));
        m.on_packet(
            Dir::ToClient,
            20,
            &Packet::NsImportReply {
                to: me,
                req: 1,
                result: Ok(WireWord::Class(chan(9, 0))),
            },
        );
        m.on_packet(Dir::ToServer, 30, &fetch(2));
        m.on_packet(
            Dir::ToClient,
            80,
            &Packet::FetchReplyRef {
                to: me,
                req: 2,
                digest: Digest(7),
                table: 0,
                captured: vec![],
                index: 0,
            },
        );
        m.on_packet(Dir::ToServer, 200, &import(3));
        // A reply nobody asked for is counted, not matched.
        m.on_packet(
            Dir::ToClient,
            210,
            &Packet::NsImportReply {
                to: me,
                req: 99,
                result: Err("no".into()),
            },
        );
        let got: Vec<_> = m
            .spans
            .iter()
            .map(|s| (s.kind, s.what, s.op, s.micros()))
            .collect();
        assert_eq!(
            got,
            [
                (SpanKind::ServerTurn, What::Import, 0, 0.02),
                (SpanKind::ClientTurn, What::Fetch, 0, 0.01),
                (SpanKind::ServerTurn, What::Fetch, 0, 0.05),
                (SpanKind::ClientTurn, What::Import, 1, 0.12),
            ]
        );
        assert_eq!((m.unmatched, m.outstanding()), (1, 1));
    }

    #[test]
    fn frames_split_across_reads_are_reassembled() {
        let packets = [
            call(1, chan(1, 1)),
            Packet::Heartbeat {
                node: NodeId(1),
                seq: 3,
            },
            answer(chan(1, 1), 2),
        ];
        let mut stream = Vec::new();
        for p in &packets {
            stream.extend_from_slice(&codec::encode_frame(
                NodeId(1),
                NodeId(0),
                &codec::encode(p),
            ));
        }
        // Every cut position, including inside a length prefix.
        for cut in 0..=stream.len() {
            let mut s = Splitter::default();
            let mut got = Vec::new();
            let mut frames = 0;
            for chunk in [&stream[..cut], &stream[cut..]] {
                frames += s
                    .feed(chunk, |p| got.push(codec::decode(p).unwrap()))
                    .unwrap();
            }
            assert_eq!(frames, 3, "cut at {cut}");
            assert_eq!(got, packets, "cut at {cut}");
        }
        let mut s = Splitter::default();
        assert!(s.feed(&[1, 0, 0, 0, 9, 9, 9, 9, 9], |_| {}).is_err());
    }
}
