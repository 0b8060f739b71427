//! A raw socket standing in for a member process of a distributed run,
//! shared by the transport tests and the `bench chaos` restart scenario.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Packet, CONTROL_NODE};
use tyco_vm::word::NodeId;

/// A member process with nothing of its own to run (its `Hello` already
/// written): it beacons as `node` and answers every termination probe
/// with a passive report of the data packets it sent and received. It
/// counts the data frames it reads as received; the caller adds what it
/// sent, or read some other way.
pub struct PassivePeer {
    node: NodeId,
    pub sent: u64,
    pub recv: u64,
    /// Whether probes are answered at all: a member that withholds its
    /// report blocks every wave.
    pub answers: bool,
    pending: Vec<u8>,
}

impl PassivePeer {
    pub fn new(node: NodeId) -> PassivePeer {
        PassivePeer {
            node,
            sent: 0,
            recv: 0,
            answers: true,
            pending: Vec::new(),
        }
    }

    /// Send `n` heartbeats numbered from `from_seq`, one every `every`,
    /// answering the probes read in between. Returns false as soon as the
    /// other side hung up.
    pub fn beat(&mut self, sock: &mut TcpStream, from_seq: u64, n: u64, every: Duration) -> bool {
        sock.set_nonblocking(true).expect("nonblocking");
        let mut buf = [0u8; 4096];
        for seq in from_seq..from_seq + n {
            let mut out = vec![Packet::Heartbeat {
                node: self.node,
                seq,
            }];
            let deadline = Instant::now() + every;
            loop {
                for p in out.drain(..) {
                    let frame = codec::encode_frame(self.node, CONTROL_NODE, &codec::encode(&p));
                    if sock.write_all(&frame).is_err() {
                        return false;
                    }
                }
                if Instant::now() >= deadline {
                    break;
                }
                match sock.read(&mut buf) {
                    Ok(0) => return false,
                    Ok(k) => out = self.answer(&buf[..k]),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        }
        true
    }

    /// The reports owed for the probes in `bytes`, the next chunk of the
    /// peer's stream.
    fn answer(&mut self, bytes: &[u8]) -> Vec<Packet> {
        self.pending.extend_from_slice(bytes);
        let mut cur = bytes::Bytes::from(std::mem::take(&mut self.pending));
        let mut out = Vec::new();
        while let Ok(Some((frame, used))) = codec::decode_frame_view(&cur) {
            bytes::Buf::advance(&mut cur, used);
            if frame.to != CONTROL_NODE {
                self.recv += 1;
            } else if let Ok(Packet::TermProbe { round, .. }) = codec::decode(frame.payload) {
                out.extend(self.answers.then_some(Packet::TermReport {
                    round,
                    sent: self.sent,
                    recv: self.recv,
                    active: false,
                }));
            }
        }
        self.pending = cur.to_vec();
        out
    }
}
