//! Hardware-independent byte encoding of packets and mobile byte-code.
//!
//! §1 of the paper: *"we provide inter-platform support in heterogeneous
//! networks by using emulated byte-code for implementation technology"*.
//! Everything that crosses a node boundary is serialized with this codec:
//! shipped messages and objects, fetched class groups, and the name-service
//! protocol. All integers are little-endian; strings are length-prefixed
//! UTF-8; floats are IEEE-754 bit patterns.

use crate::digest::Digest;
use crate::program::{Block, ImportKind, Instr, Operand, BINOPS, IMPORT_KINDS, UNOPS};
use crate::wire::{ReleaseRun, WireCode, WireGroup, WireObj, WireWord};
use crate::word::{Identity, NetRef, NodeId, SiteId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// A decoding failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type R<T> = Result<T, CodecError>;

fn err<T>(msg: impl Into<String>) -> R<T> {
    Err(CodecError(msg.into()))
}

/// A hash of an exported identifier's canonical type, shipped alongside
/// name-service traffic so the importer can be refused *at bind time* when
/// the two sites disagree about a protocol (§7: static checks across
/// sites). The canonical string rides along so that a fingerprint miss can
/// fall back to a structural compatibility check (open rows widen).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeStamp {
    /// FNV-1a hash of `canonical`.
    pub fingerprint: u64,
    /// The α-renamed canonical form of the type (see `tyco_types::canonical`).
    pub canonical: String,
}

/// Version of the TCP wire protocol (frame layout + packet encodings).
/// Each side announces it in the [`Packet::Hello`] handshake; a mismatch
/// closes the connection instead of misinterpreting bytes.
///
/// v2: code-carrying packets ([`Packet::Obj`], [`Packet::FetchReply`])
/// carry a content digest, and the digest-only dedup variants
/// ([`Packet::ObjRef`], [`Packet::FetchReplyRef`], [`Packet::NeedCode`],
/// [`Packet::HaveCode`]) exist.
///
/// v3: sharded name service — the lease-granting answer
/// ([`Packet::NsLease`]), the re-export epoch invalidation
/// ([`Packet::NsInvalidate`]), and the shard replication record
/// ([`Packet::NsRepl`]) exist.
///
/// v4: cross-process termination — [`Packet::TermProbe`] names the nodes
/// its wave excludes, and [`Packet::TermVerdict`] exists.
///
/// v5: reclaiming exported channels — [`Packet::Release`] and the
/// forwarded word tag ([`WireWord::FwdChan`]) exist.
pub const WIRE_VERSION: u32 = 5;

/// Upper bound on a frame body. A length prefix beyond this is treated as
/// a corrupt or hostile stream and the connection is dropped — the bound
/// exists so a single bad length cannot make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Sentinel node id for transport-level control frames (handshake,
/// heartbeats, termination waves): they are consumed by the connection
/// actor and never enter a node's packet queue.
pub const CONTROL_NODE: NodeId = NodeId(u32::MAX);

/// Everything a TyCOd daemon routes between nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// A shipped asynchronous message (SHIPM).
    Msg {
        dest: NetRef,
        label: String,
        args: Vec<WireWord>,
    },
    /// A migrating object (SHIPO). Carries the content digest of
    /// `obj.code` so receivers can cache the image and senders can switch
    /// to [`Packet::ObjRef`] for later shipments of the same code.
    Obj {
        dest: NetRef,
        digest: Digest,
        obj: WireObj,
    },
    /// Request for the byte-code of an exported class (FETCH, step 1).
    FetchReq {
        class: NetRef,
        req: u64,
        reply_to: Identity,
    },
    /// The packaged byte-code (FETCH, step 2), stamped with the content
    /// digest of `group.code`.
    FetchReply {
        to: Identity,
        req: u64,
        digest: Digest,
        group: WireGroup,
        index: u8,
    },
    /// Name-service registration of an exported identifier.
    NsRegister {
        from_site: SiteId,
        site_lexeme: String,
        name: String,
        value: WireWord,
        /// Type stamp of the export; `None` for untyped registrations.
        stamp: Option<TypeStamp>,
    },
    /// Name-service lookup.
    NsImport {
        req: u64,
        site: String,
        name: String,
        kind: ImportKind,
        reply_to: Identity,
        /// What the importer expects the name's type to be; `None` skips
        /// the bind-time compatibility check.
        expect: Option<TypeStamp>,
    },
    /// Name-service answer.
    NsImportReply {
        to: Identity,
        req: u64,
        result: Result<WireWord, String>,
    },
    /// Node liveness beacon (failure detection, §7 future work).
    Heartbeat { node: NodeId, seq: u64 },
    /// Termination-detection probe (initiator → member processes). The
    /// answering process leaves out the packets it exchanged with the
    /// `excluded` nodes (departed or permanently down).
    TermProbe { round: u64, excluded: Vec<NodeId> },
    /// Termination-detection report (member process → initiator), for
    /// every node the reporting process hosts.
    TermReport {
        round: u64,
        sent: u64,
        recv: u64,
        active: bool,
    },
    /// The initiator's two-wave verdict: the distributed computation has
    /// terminated.
    TermVerdict,
    /// Transport handshake: the first frame on every TCP connection. It
    /// announces the sender's wire-protocol version and the node ids the
    /// sending process hosts, so the receiver can route outbound packets
    /// for those nodes over this connection.
    Hello { version: u32, nodes: Vec<NodeId> },
    /// Deduplicated [`Packet::Obj`]: the code image is replaced by its
    /// digest because the sender believes the receiving node already
    /// holds it. The per-shipment state (`table`, `captured`) still
    /// rides along in full.
    ObjRef {
        dest: NetRef,
        digest: Digest,
        table: u32,
        captured: Vec<WireWord>,
    },
    /// Deduplicated [`Packet::FetchReply`]: digest instead of code.
    FetchReplyRef {
        to: Identity,
        req: u64,
        digest: Digest,
        table: u32,
        captured: Vec<WireWord>,
        index: u8,
    },
    /// Cache-miss negotiation: a node received a digest-only packet for
    /// code it does not hold and asks the sender to ship the bytes.
    NeedCode { from: NodeId, digest: Digest },
    /// Answer to [`Packet::NeedCode`]: the full code image for `digest`.
    HaveCode {
        to: NodeId,
        digest: Digest,
        code: WireCode,
    },
    /// Name-service answer that also grants the importing *node* a lease
    /// on the binding (sharded mode). The receiving daemon caches
    /// `(site, name) → (value, stamp, epoch)` in its `NameCache` until
    /// the lease TTL runs out or a [`Packet::NsInvalidate`] arrives, then
    /// hands the resolved value to the waiting site exactly like a
    /// [`Packet::NsImportReply`]. Errors never grant leases and keep
    /// using `NsImportReply`.
    NsLease {
        to: Identity,
        req: u64,
        site: String,
        name: String,
        value: WireWord,
        stamp: Option<TypeStamp>,
        /// Re-export epoch of the binding at the owning shard. A later
        /// invalidation only applies if it carries a higher epoch.
        epoch: u64,
    },
    /// Re-export notification: the owning shard bumped the binding's
    /// epoch, so every lessee node must drop its cached entry (and tell
    /// its sites to forget the resolved binding) before the next import.
    NsInvalidate {
        to: NodeId,
        site: String,
        name: String,
        epoch: u64,
    },
    /// Asynchronous shard replication: a registration applied by the
    /// shard that accepted it, shipped to its replica partner. `seq` is
    /// the shipper's log position; links are FIFO so the partner applies
    /// records in order and drops stale re-deliveries.
    NsRepl {
        to: NodeId,
        seq: u64,
        from_site: SiteId,
        site_lexeme: String,
        name: String,
        value: WireWord,
        stamp: Option<TypeStamp>,
        epoch: u64,
    },
    /// A holder site gives back the channels its collector found
    /// unreachable, to the site `to` that exported them (DESIGN.md §20).
    /// The owner applies it only if `seq` is above the last one it applied
    /// from `from_site`.
    Release {
        to: Identity,
        from_site: SiteId,
        seq: u64,
        runs: Vec<ReleaseRun>,
    },
}

// -- primitive writers -------------------------------------------------------

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> R<String> {
    if buf.remaining() < 4 {
        return err("truncated string length");
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return err("truncated string body");
    }
    let s = std::str::from_utf8(&buf.chunk()[..n])
        .map_err(|e| CodecError(format!("bad utf8: {e}")))?
        .to_owned();
    buf.advance(n);
    Ok(s)
}

fn put_stamp(buf: &mut BytesMut, s: &Option<TypeStamp>) {
    match s {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            buf.put_u64_le(t.fingerprint);
            put_str(buf, &t.canonical);
        }
    }
}

fn get_stamp(buf: &mut Bytes) -> R<Option<TypeStamp>> {
    if !buf.has_remaining() {
        return err("truncated stamp flag");
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            if buf.remaining() < 8 {
                return err("truncated stamp fingerprint");
            }
            let fingerprint = buf.get_u64_le();
            let canonical = get_str(buf)?;
            Ok(Some(TypeStamp {
                fingerprint,
                canonical,
            }))
        }
        f => err(format!("bad stamp flag {f}")),
    }
}

fn put_netref(buf: &mut BytesMut, r: &NetRef) {
    buf.put_u64_le(r.heap_id);
    buf.put_u32_le(r.site.0);
    buf.put_u32_le(r.node.0);
}

fn get_netref(buf: &mut Bytes) -> R<NetRef> {
    if buf.remaining() < 16 {
        return err("truncated netref");
    }
    Ok(NetRef {
        heap_id: buf.get_u64_le(),
        site: SiteId(buf.get_u32_le()),
        node: NodeId(buf.get_u32_le()),
    })
}

fn put_digest(buf: &mut BytesMut, d: &Digest) {
    buf.put_u128_le(d.0);
}

fn get_digest(buf: &mut Bytes) -> R<Digest> {
    if buf.remaining() < Digest::SIZE {
        return err("truncated digest");
    }
    Ok(Digest(buf.get_u128_le()))
}

fn put_identity(buf: &mut BytesMut, i: &Identity) {
    buf.put_u32_le(i.site.0);
    buf.put_u32_le(i.node.0);
}

fn get_identity(buf: &mut Bytes) -> R<Identity> {
    if buf.remaining() < 8 {
        return err("truncated identity");
    }
    Ok(Identity {
        site: SiteId(buf.get_u32_le()),
        node: NodeId(buf.get_u32_le()),
    })
}

// -- wire words ---------------------------------------------------------------

fn put_word(buf: &mut BytesMut, w: &WireWord) {
    match w {
        WireWord::Unit => buf.put_u8(0),
        WireWord::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        WireWord::Bool(b) => {
            buf.put_u8(2);
            buf.put_u8(*b as u8);
        }
        WireWord::Float(x) => {
            buf.put_u8(3);
            buf.put_u64_le(x.to_bits());
        }
        WireWord::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        WireWord::Chan(r) => {
            buf.put_u8(5);
            put_netref(buf, r);
        }
        WireWord::Class(r) => {
            buf.put_u8(6);
            put_netref(buf, r);
        }
        WireWord::FwdChan(r) => {
            buf.put_u8(7);
            put_netref(buf, r);
        }
    }
}

fn get_word(buf: &mut Bytes) -> R<WireWord> {
    if !buf.has_remaining() {
        return err("truncated word tag");
    }
    Ok(match buf.get_u8() {
        0 => WireWord::Unit,
        1 => {
            if buf.remaining() < 8 {
                return err("truncated int");
            }
            WireWord::Int(buf.get_i64_le())
        }
        2 => {
            if !buf.has_remaining() {
                return err("truncated bool");
            }
            WireWord::Bool(buf.get_u8() != 0)
        }
        3 => {
            if buf.remaining() < 8 {
                return err("truncated float");
            }
            WireWord::Float(f64::from_bits(buf.get_u64_le()))
        }
        4 => WireWord::Str(get_str(buf)?),
        5 => WireWord::Chan(get_netref(buf)?),
        6 => WireWord::Class(get_netref(buf)?),
        7 => WireWord::FwdChan(get_netref(buf)?),
        t => return err(format!("bad word tag {t}")),
    })
}

fn put_words(buf: &mut BytesMut, ws: &[WireWord]) {
    buf.put_u32_le(ws.len() as u32);
    for w in ws {
        put_word(buf, w);
    }
}

fn get_words(buf: &mut Bytes) -> R<Vec<WireWord>> {
    if buf.remaining() < 4 {
        return err("truncated word list");
    }
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(get_word(buf)?);
    }
    Ok(out)
}

// -- instructions ----------------------------------------------------------------

/// An instruction is its wire opcode, then its operands in declared order
/// (see [`crate::program`]), each encoded by its kind alone. A fused form
/// has no wire code: callers normalize first.
fn put_instr(buf: &mut BytesMut, ins: &Instr) {
    debug_assert!(!ins.is_fused(), "fused forms have no encoding: {ins:?}");
    let mut ins = *ins;
    buf.put_u8(ins.op_index() as u8);
    ins.each_operand(|o| match o {
        Operand::Slot(v) | Operand::U16(v) => buf.put_u16_le(*v),
        Operand::U8(v) | Operand::Sibling(v) => buf.put_u8(*v),
        Operand::Int(v) => buf.put_i64_le(*v),
        Operand::Imm(v) => buf.put_slice(&v.to_le_bytes()),
        Operand::Float(v) => buf.put_u64_le(v.to_bits()),
        Operand::Bool(v) | Operand::Newline(v) => buf.put_u8(*v as u8),
        Operand::Str(v)
        | Operand::Label(v)
        | Operand::Block(v)
        | Operand::Table(v)
        | Operand::Target(v) => buf.put_u32_le(*v),
        Operand::BinOp(v) => buf.put_u8(*v as u8),
        Operand::UnOp(v) => buf.put_u8(*v as u8),
        Operand::ImportKind(v) => buf.put_u8(*v as u8),
    });
}

/// The next `N` bytes of an operand.
#[inline(always)]
fn operand_bytes<const N: usize>(buf: &mut Bytes) -> R<[u8; N]> {
    let Some(&b) = buf.chunk().first_chunk::<N>() else {
        return err("truncated operand");
    };
    buf.advance(N);
    Ok(b)
}

/// Decode one instruction into `ins`. Decoding in place, not into a
/// value the caller then copies, saves a store-forwarding stall per
/// instruction: the operands are stored piecewise, the copy reads them
/// back whole.
fn get_instr(buf: &mut Bytes, ins: &mut Instr) -> R<()> {
    if !buf.has_remaining() {
        return err("truncated instruction");
    }
    let opcode = buf.get_u8();
    *ins = match Instr::base(opcode) {
        Some(template) => template,
        None => return err(format!("bad opcode {opcode}")),
    };
    ins.operands(|o| {
        match o {
            Operand::Slot(v) | Operand::U16(v) => *v = u16::from_le_bytes(operand_bytes(buf)?),
            Operand::U8(v) | Operand::Sibling(v) => *v = operand_bytes::<1>(buf)?[0],
            Operand::Int(v) => *v = i64::from_le_bytes(operand_bytes(buf)?),
            Operand::Imm(v) => *v = i32::from_le_bytes(operand_bytes(buf)?),
            Operand::Float(v) => *v = f64::from_le_bytes(operand_bytes(buf)?),
            Operand::Bool(v) | Operand::Newline(v) => *v = operand_bytes::<1>(buf)?[0] != 0,
            Operand::Str(v)
            | Operand::Label(v)
            | Operand::Block(v)
            | Operand::Table(v)
            | Operand::Target(v) => *v = u32::from_le_bytes(operand_bytes(buf)?),
            Operand::BinOp(v) => {
                let [code] = operand_bytes(buf)?;
                *v = match BINOPS.get(code as usize) {
                    Some(&(op, _)) => op,
                    None => return err(format!("bad binop {code}")),
                };
            }
            Operand::UnOp(v) => *v = UNOPS[(operand_bytes::<1>(buf)?[0] != 0) as usize].0,
            Operand::ImportKind(v) => {
                *v = IMPORT_KINDS[(operand_bytes::<1>(buf)?[0] != 0) as usize].0
            }
        }
        Ok(())
    })
}

// -- code bundles -------------------------------------------------------------------

pub(crate) fn put_code(buf: &mut BytesMut, code: &WireCode) {
    buf.put_u32_le(code.blocks.len() as u32);
    for b in &code.blocks {
        put_str(buf, &b.name);
        buf.put_u16_le(b.nfree);
        buf.put_u16_le(b.nparams);
        buf.put_u16_le(b.nlocals);
        buf.put_u8(b.is_class_body as u8);
        buf.put_u32_le(b.code.len() as u32);
        for ins in b.code.iter() {
            put_instr(buf, ins);
        }
    }
    buf.put_u32_le(code.tables.len() as u32);
    for t in &code.tables {
        buf.put_u32_le(t.len() as u32);
        for (l, b) in t {
            buf.put_u32_le(*l);
            buf.put_u32_le(*b);
        }
    }
    buf.put_u32_le(code.labels.len() as u32);
    for l in &code.labels {
        put_str(buf, l);
    }
    buf.put_u32_le(code.strings.len() as u32);
    for s in &code.strings {
        put_str(buf, s);
    }
}

/// The canonical byte serialization of a code bundle — exactly the bytes
/// `put_code` emits inside [`Packet::Obj`] / [`Packet::FetchReply`] /
/// [`Packet::HaveCode`]. This is the input to content fingerprinting: any
/// two sites that would ship identical bytes agree on the digest.
pub fn code_bytes(code: &WireCode) -> Bytes {
    let mut buf = BytesMut::with_capacity(code.approx_size());
    put_code(&mut buf, code);
    buf.freeze()
}

/// Content digest of a code bundle over its canonical codec bytes.
pub fn code_digest(code: &WireCode) -> Digest {
    Digest::of(&code_bytes(code))
}

pub(crate) fn get_code(buf: &mut Bytes) -> R<WireCode> {
    macro_rules! count {
        () => {{
            if buf.remaining() < 4 {
                return err("truncated count");
            }
            buf.get_u32_le() as usize
        }};
    }
    let nblocks = count!();
    let mut blocks = Vec::with_capacity(nblocks.min(4096));
    for _ in 0..nblocks {
        let name = get_str(buf)?;
        if buf.remaining() < 7 {
            return err("truncated block header");
        }
        let nfree = buf.get_u16_le();
        let nparams = buf.get_u16_le();
        let nlocals = buf.get_u16_le();
        let is_class_body = buf.get_u8() != 0;
        let ninstrs = count!();
        let mut code = Vec::with_capacity(ninstrs.min(65536));
        for _ in 0..ninstrs {
            code.push(Instr::Halt);
            get_instr(buf, code.last_mut().expect("just pushed"))?;
        }
        blocks.push(Block {
            name,
            nfree,
            nparams,
            nlocals,
            is_class_body,
            code: code.into(),
        });
    }
    let ntables = count!();
    let mut tables = Vec::with_capacity(ntables.min(4096));
    for _ in 0..ntables {
        let n = count!();
        let mut t = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            if buf.remaining() < 8 {
                return err("truncated table entry");
            }
            t.push((buf.get_u32_le(), buf.get_u32_le()));
        }
        tables.push(t);
    }
    let nlabels = count!();
    let mut labels = Vec::with_capacity(nlabels.min(4096));
    for _ in 0..nlabels {
        labels.push(get_str(buf)?);
    }
    let nstrings = count!();
    let mut strings = Vec::with_capacity(nstrings.min(4096));
    for _ in 0..nstrings {
        strings.push(get_str(buf)?);
    }
    Ok(WireCode {
        blocks,
        tables,
        labels,
        strings,
    })
}

// -- packets -------------------------------------------------------------------------

/// Encode a packet to bytes.
pub fn encode(p: &Packet) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_into(p, &mut buf);
    buf.freeze()
}

/// Append a packet's encoding to an existing buffer. Batching many
/// packets into one buffer (then freezing once and slicing) costs one
/// allocation per batch instead of one per packet.
pub fn encode_into(p: &Packet, buf: &mut BytesMut) {
    match p {
        Packet::Msg { dest, label, args } => {
            buf.put_u8(0);
            put_netref(buf, dest);
            put_str(buf, label);
            put_words(buf, args);
        }
        Packet::Obj { dest, digest, obj } => {
            buf.put_u8(1);
            put_netref(buf, dest);
            put_digest(buf, digest);
            put_code(buf, &obj.code);
            buf.put_u32_le(obj.table);
            put_words(buf, &obj.captured);
        }
        Packet::FetchReq {
            class,
            req,
            reply_to,
        } => {
            buf.put_u8(2);
            put_netref(buf, class);
            buf.put_u64_le(*req);
            put_identity(buf, reply_to);
        }
        Packet::FetchReply {
            to,
            req,
            digest,
            group,
            index,
        } => {
            buf.put_u8(3);
            put_identity(buf, to);
            buf.put_u64_le(*req);
            put_digest(buf, digest);
            put_code(buf, &group.code);
            buf.put_u32_le(group.table);
            put_words(buf, &group.captured);
            buf.put_u8(*index);
        }
        Packet::NsRegister {
            from_site,
            site_lexeme,
            name,
            value,
            stamp,
        } => {
            buf.put_u8(4);
            buf.put_u32_le(from_site.0);
            put_str(buf, site_lexeme);
            put_str(buf, name);
            put_word(buf, value);
            put_stamp(buf, stamp);
        }
        Packet::NsImport {
            req,
            site,
            name,
            kind,
            reply_to,
            expect,
        } => {
            buf.put_u8(5);
            buf.put_u64_le(*req);
            put_str(buf, site);
            put_str(buf, name);
            buf.put_u8(matches!(kind, ImportKind::Class) as u8);
            put_identity(buf, reply_to);
            put_stamp(buf, expect);
        }
        Packet::NsImportReply { to, req, result } => {
            buf.put_u8(6);
            put_identity(buf, to);
            buf.put_u64_le(*req);
            match result {
                Ok(w) => {
                    buf.put_u8(1);
                    put_word(buf, w);
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(buf, e);
                }
            }
        }
        Packet::Heartbeat { node, seq } => {
            buf.put_u8(7);
            buf.put_u32_le(node.0);
            buf.put_u64_le(*seq);
        }
        Packet::TermProbe { round, excluded } => {
            buf.put_u8(8);
            buf.put_u64_le(*round);
            put_nodes(buf, excluded);
        }
        Packet::TermReport {
            round,
            sent,
            recv,
            active,
        } => {
            buf.put_u8(9);
            buf.put_u64_le(*round);
            buf.put_u64_le(*sent);
            buf.put_u64_le(*recv);
            buf.put_u8(*active as u8);
        }
        Packet::Hello { version, nodes } => {
            buf.put_u8(10);
            buf.put_u32_le(*version);
            put_nodes(buf, nodes);
        }
        Packet::ObjRef {
            dest,
            digest,
            table,
            captured,
        } => {
            buf.put_u8(11);
            put_netref(buf, dest);
            put_digest(buf, digest);
            buf.put_u32_le(*table);
            put_words(buf, captured);
        }
        Packet::FetchReplyRef {
            to,
            req,
            digest,
            table,
            captured,
            index,
        } => {
            buf.put_u8(12);
            put_identity(buf, to);
            buf.put_u64_le(*req);
            put_digest(buf, digest);
            buf.put_u32_le(*table);
            put_words(buf, captured);
            buf.put_u8(*index);
        }
        Packet::NeedCode { from, digest } => {
            buf.put_u8(13);
            buf.put_u32_le(from.0);
            put_digest(buf, digest);
        }
        Packet::HaveCode { to, digest, code } => {
            buf.put_u8(14);
            buf.put_u32_le(to.0);
            put_digest(buf, digest);
            put_code(buf, code);
        }
        Packet::NsLease {
            to,
            req,
            site,
            name,
            value,
            stamp,
            epoch,
        } => {
            buf.put_u8(15);
            put_identity(buf, to);
            buf.put_u64_le(*req);
            put_str(buf, site);
            put_str(buf, name);
            put_word(buf, value);
            put_stamp(buf, stamp);
            buf.put_u64_le(*epoch);
        }
        Packet::NsInvalidate {
            to,
            site,
            name,
            epoch,
        } => {
            buf.put_u8(16);
            buf.put_u32_le(to.0);
            put_str(buf, site);
            put_str(buf, name);
            buf.put_u64_le(*epoch);
        }
        Packet::NsRepl {
            to,
            seq,
            from_site,
            site_lexeme,
            name,
            value,
            stamp,
            epoch,
        } => {
            buf.put_u8(17);
            buf.put_u32_le(to.0);
            buf.put_u64_le(*seq);
            buf.put_u32_le(from_site.0);
            put_str(buf, site_lexeme);
            put_str(buf, name);
            put_word(buf, value);
            put_stamp(buf, stamp);
            buf.put_u64_le(*epoch);
        }
        Packet::TermVerdict => buf.put_u8(18),
        Packet::Release {
            to,
            from_site,
            seq,
            runs,
        } => {
            buf.put_u8(19);
            put_identity(buf, to);
            buf.put_u32_le(from_site.0);
            buf.put_u64_le(*seq);
            buf.put_u32_le(runs.len() as u32);
            for r in runs {
                buf.put_u64_le(r.first);
                buf.put_u32_le(r.len);
                buf.put_u64_le(r.recv);
                buf.put_u64_le(r.sent);
            }
        }
    }
}

/// Encoded size of one [`ReleaseRun`].
const RELEASE_RUN_BYTES: usize = 28;

fn put_nodes(buf: &mut BytesMut, nodes: &[NodeId]) {
    buf.put_u32_le(nodes.len() as u32);
    for n in nodes {
        buf.put_u32_le(n.0);
    }
}

fn get_nodes(buf: &mut Bytes, what: &str) -> R<Vec<NodeId>> {
    if buf.remaining() < 4 {
        return err(format!("truncated {what}"));
    }
    let n = buf.get_u32_le() as usize;
    let mut nodes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        if buf.remaining() < 4 {
            return err(format!("truncated {what} node list"));
        }
        nodes.push(NodeId(buf.get_u32_le()));
    }
    Ok(nodes)
}

/// Decode a packet from bytes.
pub fn decode(mut buf: Bytes) -> R<Packet> {
    if !buf.has_remaining() {
        return err("empty packet");
    }
    let tag = buf.get_u8();
    let p = match tag {
        0 => Packet::Msg {
            dest: get_netref(&mut buf)?,
            label: get_str(&mut buf)?,
            args: get_words(&mut buf)?,
        },
        1 => {
            let dest = get_netref(&mut buf)?;
            let digest = get_digest(&mut buf)?;
            let code = get_code(&mut buf)?;
            if buf.remaining() < 4 {
                return err("truncated obj table");
            }
            let table = buf.get_u32_le();
            let captured = get_words(&mut buf)?;
            Packet::Obj {
                dest,
                digest,
                obj: WireObj {
                    code,
                    table,
                    captured,
                },
            }
        }
        2 => {
            let class = get_netref(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated req");
            }
            let req = buf.get_u64_le();
            let reply_to = get_identity(&mut buf)?;
            Packet::FetchReq {
                class,
                req,
                reply_to,
            }
        }
        3 => {
            let to = get_identity(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated req");
            }
            let req = buf.get_u64_le();
            let digest = get_digest(&mut buf)?;
            let code = get_code(&mut buf)?;
            if buf.remaining() < 4 {
                return err("truncated group table");
            }
            let table = buf.get_u32_le();
            let captured = get_words(&mut buf)?;
            if !buf.has_remaining() {
                return err("truncated index");
            }
            let index = buf.get_u8();
            Packet::FetchReply {
                to,
                req,
                digest,
                group: WireGroup {
                    code,
                    table,
                    captured,
                },
                index,
            }
        }
        4 => {
            if buf.remaining() < 4 {
                return err("truncated site id");
            }
            let from_site = SiteId(buf.get_u32_le());
            let site_lexeme = get_str(&mut buf)?;
            let name = get_str(&mut buf)?;
            let value = get_word(&mut buf)?;
            let stamp = get_stamp(&mut buf)?;
            Packet::NsRegister {
                from_site,
                site_lexeme,
                name,
                value,
                stamp,
            }
        }
        5 => {
            if buf.remaining() < 8 {
                return err("truncated req");
            }
            let req = buf.get_u64_le();
            let site = get_str(&mut buf)?;
            let name = get_str(&mut buf)?;
            if !buf.has_remaining() {
                return err("truncated kind");
            }
            let kind = if buf.get_u8() != 0 {
                ImportKind::Class
            } else {
                ImportKind::Name
            };
            let reply_to = get_identity(&mut buf)?;
            let expect = get_stamp(&mut buf)?;
            Packet::NsImport {
                req,
                site,
                name,
                kind,
                reply_to,
                expect,
            }
        }
        6 => {
            let to = get_identity(&mut buf)?;
            if buf.remaining() < 9 {
                return err("truncated reply");
            }
            let req = buf.get_u64_le();
            let ok = buf.get_u8() != 0;
            let result = if ok {
                Ok(get_word(&mut buf)?)
            } else {
                Err(get_str(&mut buf)?)
            };
            Packet::NsImportReply { to, req, result }
        }
        7 => {
            if buf.remaining() < 12 {
                return err("truncated heartbeat");
            }
            Packet::Heartbeat {
                node: NodeId(buf.get_u32_le()),
                seq: buf.get_u64_le(),
            }
        }
        8 => {
            if buf.remaining() < 8 {
                return err("truncated probe");
            }
            let round = buf.get_u64_le();
            let excluded = get_nodes(&mut buf, "probe")?;
            Packet::TermProbe { round, excluded }
        }
        9 => {
            if buf.remaining() < 25 {
                return err("truncated report");
            }
            Packet::TermReport {
                round: buf.get_u64_le(),
                sent: buf.get_u64_le(),
                recv: buf.get_u64_le(),
                active: buf.get_u8() != 0,
            }
        }
        10 => {
            if buf.remaining() < 4 {
                return err("truncated hello");
            }
            let version = buf.get_u32_le();
            let nodes = get_nodes(&mut buf, "hello")?;
            Packet::Hello { version, nodes }
        }
        11 => {
            let dest = get_netref(&mut buf)?;
            let digest = get_digest(&mut buf)?;
            if buf.remaining() < 4 {
                return err("truncated objref table");
            }
            let table = buf.get_u32_le();
            let captured = get_words(&mut buf)?;
            Packet::ObjRef {
                dest,
                digest,
                table,
                captured,
            }
        }
        12 => {
            let to = get_identity(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated req");
            }
            let req = buf.get_u64_le();
            let digest = get_digest(&mut buf)?;
            if buf.remaining() < 4 {
                return err("truncated replyref table");
            }
            let table = buf.get_u32_le();
            let captured = get_words(&mut buf)?;
            if !buf.has_remaining() {
                return err("truncated index");
            }
            let index = buf.get_u8();
            Packet::FetchReplyRef {
                to,
                req,
                digest,
                table,
                captured,
                index,
            }
        }
        13 => {
            if buf.remaining() < 4 {
                return err("truncated needcode node");
            }
            let from = NodeId(buf.get_u32_le());
            let digest = get_digest(&mut buf)?;
            Packet::NeedCode { from, digest }
        }
        14 => {
            if buf.remaining() < 4 {
                return err("truncated havecode node");
            }
            let to = NodeId(buf.get_u32_le());
            let digest = get_digest(&mut buf)?;
            let code = get_code(&mut buf)?;
            Packet::HaveCode { to, digest, code }
        }
        15 => {
            let to = get_identity(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated lease req");
            }
            let req = buf.get_u64_le();
            let site = get_str(&mut buf)?;
            let name = get_str(&mut buf)?;
            let value = get_word(&mut buf)?;
            let stamp = get_stamp(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated lease epoch");
            }
            let epoch = buf.get_u64_le();
            Packet::NsLease {
                to,
                req,
                site,
                name,
                value,
                stamp,
                epoch,
            }
        }
        16 => {
            if buf.remaining() < 4 {
                return err("truncated invalidate node");
            }
            let to = NodeId(buf.get_u32_le());
            let site = get_str(&mut buf)?;
            let name = get_str(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated invalidate epoch");
            }
            let epoch = buf.get_u64_le();
            Packet::NsInvalidate {
                to,
                site,
                name,
                epoch,
            }
        }
        17 => {
            if buf.remaining() < 16 {
                return err("truncated repl header");
            }
            let to = NodeId(buf.get_u32_le());
            let seq = buf.get_u64_le();
            let from_site = SiteId(buf.get_u32_le());
            let site_lexeme = get_str(&mut buf)?;
            let name = get_str(&mut buf)?;
            let value = get_word(&mut buf)?;
            let stamp = get_stamp(&mut buf)?;
            if buf.remaining() < 8 {
                return err("truncated repl epoch");
            }
            let epoch = buf.get_u64_le();
            Packet::NsRepl {
                to,
                seq,
                from_site,
                site_lexeme,
                name,
                value,
                stamp,
                epoch,
            }
        }
        18 => Packet::TermVerdict,
        19 => {
            let to = get_identity(&mut buf)?;
            if buf.remaining() < 16 {
                return err("truncated release header");
            }
            let from_site = SiteId(buf.get_u32_le());
            let seq = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            // The count is checked against the bytes present before any
            // allocation: a forged count cannot reserve more than the frame.
            if n.checked_mul(RELEASE_RUN_BYTES)
                .is_none_or(|bytes| bytes > buf.remaining())
            {
                return err("truncated release runs");
            }
            let runs = (0..n)
                .map(|_| ReleaseRun {
                    first: buf.get_u64_le(),
                    len: buf.get_u32_le(),
                    recv: buf.get_u64_le(),
                    sent: buf.get_u64_le(),
                })
                .collect();
            Packet::Release {
                to,
                from_site,
                seq,
                runs,
            }
        }
        t => return err(format!("bad packet tag {t}")),
    };
    if buf.has_remaining() {
        return err(format!("{} trailing bytes", buf.remaining()));
    }
    Ok(p)
}

// -- TCP frames ---------------------------------------------------------------------

/// One length-prefixed unit on a TCP connection between two TyCOd
/// processes. Layout on the wire:
///
/// ```text
/// u32le body_len | u32le from_node | u32le to_node | packet bytes
/// ```
///
/// The `from`/`to` header exists because a packet's encoding does not
/// always name its destination node (e.g. `NsRegister` is broadcast) and
/// one OS process may host several nodes. Control traffic (handshake,
/// heartbeats, termination waves) uses [`CONTROL_NODE`] as `to` and is
/// consumed by the connection actor instead of being routed to a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub from: NodeId,
    pub to: NodeId,
    pub payload: Bytes,
}

/// Append the wire encoding of a frame carrying `payload` to `buf`.
pub fn encode_frame_into(from: NodeId, to: NodeId, payload: &[u8], buf: &mut BytesMut) {
    buf.put_u32_le((payload.len() + 8) as u32);
    buf.put_u32_le(from.0);
    buf.put_u32_le(to.0);
    buf.put_slice(payload);
}

/// Encode a single frame to its own buffer.
pub fn encode_frame(from: NodeId, to: NodeId, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + 12);
    encode_frame_into(from, to, payload, &mut buf);
    buf.freeze()
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a partial frame (read
/// more bytes and retry), `Ok(Some((frame, consumed)))` when a complete
/// frame was parsed (`consumed` bytes should be drained from the front),
/// and `Err` when the stream is corrupt (undersized body or a length
/// prefix beyond [`MAX_FRAME_LEN`]) and the connection must be dropped.
///
/// Zero-copy: the payload is a [`Bytes`] view sharing `buf`'s allocation.
/// The event-loop transport accumulates socket reads into a `BytesMut`,
/// freezes it once at least one complete frame is present, and hands
/// each payload onward as a slice of that frozen buffer — the only copy
/// between the kernel and the daemon is the `read(2)` itself.
pub fn decode_frame_view(buf: &Bytes) -> R<Option<(Frame, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if body_len < 8 {
        return err(format!("frame body too short: {body_len} bytes"));
    }
    if body_len > MAX_FRAME_LEN {
        return err(format!("frame body too long: {body_len} bytes"));
    }
    if buf.len() < 4 + body_len {
        return Ok(None);
    }
    let from = NodeId(u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]));
    let to = NodeId(u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]));
    let payload = buf.slice(12..4 + body_len);
    Ok(Some((Frame { from, to, payload }, 4 + body_len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::wire;
    use tyco_syntax::ast::{BinOp, UnOp};
    use tyco_syntax::parse_core;

    fn roundtrip(p: Packet) {
        let bytes = encode(&p);
        let q = decode(bytes).expect("decode");
        assert_eq!(p, q);
    }

    fn nref(h: u64) -> NetRef {
        NetRef {
            heap_id: h,
            site: SiteId(3),
            node: NodeId(1),
        }
    }

    #[test]
    fn msg_roundtrip() {
        roundtrip(Packet::Msg {
            dest: nref(42),
            label: "read".into(),
            args: vec![
                WireWord::Int(-7),
                WireWord::Bool(true),
                WireWord::Str("héllo".into()),
                WireWord::Float(2.5),
                WireWord::Unit,
                WireWord::Chan(nref(9)),
                WireWord::Class(nref(10)),
            ],
        });
    }

    #[test]
    fn obj_with_real_code_roundtrip() {
        let prog = compile(
            &parse_core(
                r#"new x x?{ go(n) = if n > 0 then (print(n) | x!go[n - 1]) else println("done") }"#,
            )
            .unwrap(),
        )
        .unwrap();
        let packed = wire::pack(&prog, &[0]);
        roundtrip(Packet::Obj {
            dest: nref(1),
            digest: code_digest(&packed.code),
            obj: WireObj {
                code: packed.code.clone(),
                table: 0,
                captured: vec![WireWord::Chan(nref(5))],
            },
        });
    }

    #[test]
    fn fetch_roundtrips() {
        roundtrip(Packet::FetchReq {
            class: nref(2),
            req: 77,
            reply_to: Identity {
                site: SiteId(1),
                node: NodeId(0),
            },
        });
        let prog = compile(&parse_core("def K(a) = print(a) in K[1]").unwrap()).unwrap();
        let packed = wire::pack(&prog, &[0]);
        roundtrip(Packet::FetchReply {
            to: Identity {
                site: SiteId(1),
                node: NodeId(0),
            },
            req: 77,
            digest: code_digest(&packed.code),
            group: WireGroup {
                code: packed.code,
                table: 0,
                captured: vec![],
            },
            index: 0,
        });
    }

    #[test]
    fn dedup_variants_roundtrip() {
        roundtrip(Packet::ObjRef {
            dest: nref(1),
            digest: Digest(0x0123456789abcdef_fedcba9876543210),
            table: 4,
            captured: vec![WireWord::Chan(nref(5)), WireWord::Int(12)],
        });
        roundtrip(Packet::FetchReplyRef {
            to: Identity {
                site: SiteId(1),
                node: NodeId(0),
            },
            req: 78,
            digest: Digest(u128::MAX),
            table: 0,
            captured: vec![],
            index: 2,
        });
        roundtrip(Packet::NeedCode {
            from: NodeId(3),
            digest: Digest(1),
        });
        let prog = compile(&parse_core("def K(a) = print(a) in K[1]").unwrap()).unwrap();
        let packed = wire::pack(&prog, &[0]);
        roundtrip(Packet::HaveCode {
            to: NodeId(2),
            digest: code_digest(&packed.code),
            code: packed.code,
        });
    }

    #[test]
    fn code_digest_is_stable_across_reencoding() {
        // Encode → decode → digest must agree with the digest of the
        // original: the digest is over canonical bytes, so a re-shipped
        // image keeps its identity.
        let prog = compile(&parse_core("def K(a) = print(a) in K[1]").unwrap()).unwrap();
        let packed = wire::pack(&prog, &[0]);
        let d = code_digest(&packed.code);
        let p = Packet::HaveCode {
            to: NodeId(0),
            digest: d,
            code: packed.code,
        };
        match decode(encode(&p)).unwrap() {
            Packet::HaveCode { code, .. } => assert_eq!(code_digest(&code), d),
            other => panic!("unexpected {other:?}"),
        }
        // And a different program gets a different digest.
        let other = compile(&parse_core("def K(a) = print(a + 1) in K[2]").unwrap()).unwrap();
        assert_ne!(code_digest(&wire::pack(&other, &[0]).code), d);
    }

    #[test]
    fn nameservice_roundtrips() {
        roundtrip(Packet::NsRegister {
            from_site: SiteId(2),
            site_lexeme: "server".into(),
            name: "appletserver".into(),
            value: WireWord::Chan(nref(0)),
            stamp: None,
        });
        roundtrip(Packet::NsRegister {
            from_site: SiteId(2),
            site_lexeme: "server".into(),
            name: "appletserver".into(),
            value: WireWord::Chan(nref(0)),
            stamp: Some(TypeStamp {
                fingerprint: 0xdeadbeef,
                canonical: "^{val(int)|r0}".into(),
            }),
        });
        roundtrip(Packet::NsImport {
            req: 5,
            site: "server".into(),
            name: "p".into(),
            kind: ImportKind::Class,
            reply_to: Identity {
                site: SiteId(9),
                node: NodeId(2),
            },
            expect: None,
        });
        roundtrip(Packet::NsImport {
            req: 5,
            site: "server".into(),
            name: "p".into(),
            kind: ImportKind::Class,
            reply_to: Identity {
                site: SiteId(9),
                node: NodeId(2),
            },
            expect: Some(TypeStamp {
                fingerprint: 1,
                canonical: "^{val(bool)}".into(),
            }),
        });
        roundtrip(Packet::NsImportReply {
            to: Identity {
                site: SiteId(9),
                node: NodeId(2),
            },
            req: 5,
            result: Ok(WireWord::Class(nref(3))),
        });
        roundtrip(Packet::NsImportReply {
            to: Identity {
                site: SiteId(9),
                node: NodeId(2),
            },
            req: 6,
            result: Err("no such identifier".into()),
        });
    }

    #[test]
    fn sharded_nameservice_roundtrips() {
        roundtrip(Packet::NsLease {
            to: Identity {
                site: SiteId(9),
                node: NodeId(2),
            },
            req: 5,
            site: "server".into(),
            name: "p".into(),
            value: WireWord::Chan(nref(3)),
            stamp: Some(TypeStamp {
                fingerprint: 0xfeed,
                canonical: "^{val(int)|r0}".into(),
            }),
            epoch: 7,
        });
        roundtrip(Packet::NsLease {
            to: Identity {
                site: SiteId(0),
                node: NodeId(0),
            },
            req: 0,
            site: "s".into(),
            name: "n".into(),
            value: WireWord::Class(nref(1)),
            stamp: None,
            epoch: 1,
        });
        roundtrip(Packet::NsInvalidate {
            to: NodeId(3),
            site: "server".into(),
            name: "p".into(),
            epoch: 8,
        });
        roundtrip(Packet::NsRepl {
            to: NodeId(1),
            seq: 42,
            from_site: SiteId(2),
            site_lexeme: "server".into(),
            name: "p".into(),
            value: WireWord::Chan(nref(9)),
            stamp: Some(TypeStamp {
                fingerprint: 1,
                canonical: "^{val(bool)}".into(),
            }),
            epoch: 3,
        });
    }

    #[test]
    fn control_packets_roundtrip() {
        roundtrip(Packet::Heartbeat {
            node: NodeId(4),
            seq: 123,
        });
        roundtrip(Packet::TermProbe {
            round: 2,
            excluded: vec![],
        });
        roundtrip(Packet::TermProbe {
            round: 3,
            excluded: vec![NodeId(2), NodeId(7)],
        });
        roundtrip(Packet::TermReport {
            round: 2,
            sent: 100,
            recv: 99,
            active: false,
        });
        roundtrip(Packet::TermVerdict);
        let probe = encode(&Packet::TermProbe {
            round: 1,
            excluded: vec![NodeId(5)],
        });
        for cut in 1..probe.len() {
            assert!(decode(probe.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    /// The instruction set's encodings, assembly and decoder messages,
    /// pinned on one hand-made program with every base opcode, every
    /// enumerated operand value and the extreme numeric operands.
    #[test]
    fn golden_instruction_set() {
        use crate::program::{MethodTable, Program, NUM_OPS, OP_NAMES};
        use BinOp::*;
        let mut code = vec![
            Instr::PushLocal(u16::MAX),
            Instr::PushInt(i64::MIN),
            Instr::PushBool(true),
            Instr::PushBool(false),
            Instr::PushFloat(f64::from_bits(0x7ff8_dead_beef_0001)),
            Instr::PushStr(0),
            Instr::PushUnit,
            Instr::PushSibling(3),
            Instr::Store(7),
        ];
        let ops = [
            Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Concat,
        ];
        code.extend(ops.map(Instr::Bin));
        code.extend([
            Instr::Un(UnOp::Neg),
            Instr::Un(UnOp::Not),
            Instr::Jump(u32::MAX),
            Instr::JumpIfFalse(2),
            Instr::Halt,
            Instr::NewChan(1),
            Instr::Fork { block: 1, nfree: 2 },
            Instr::TrMsg { label: 0, argc: 3 },
            Instr::TrObj { table: 0, nfree: 1 },
            Instr::InstOf { argc: 255 },
            Instr::MkGroup {
                table: 1,
                dst: 4,
                count: 2,
                nfree: 513,
            },
            Instr::ExportName { slot: 5, name: 1 },
            Instr::ExportClass { slot: 6, name: 1 },
            Instr::Import {
                dst: 8,
                site: 2,
                name: 1,
                kind: ImportKind::Name,
            },
            Instr::Import {
                dst: 9,
                site: 2,
                name: 1,
                kind: ImportKind::Class,
            },
            Instr::Print {
                argc: 2,
                newline: true,
            },
            Instr::Print {
                argc: 0,
                newline: false,
            },
        ]);
        let mut prog = Program::default();
        prog.labels.intern("go");
        for s in ["a;b\"c", "name", "site"] {
            prog.strings.intern(s);
        }
        prog.tables.push(MethodTable {
            entries: vec![(0, 0)],
        });
        prog.blocks.push(Block {
            name: "all".into(),
            nfree: 1,
            nparams: 2,
            nlocals: 3,
            is_class_body: true,
            code: code.clone().into(),
        });
        let image = crate::image::to_bytes(&prog);
        // Decoding inverts encoding, bit for bit (the 12-byte header is
        // the image's own).
        let code_part = image.slice(12..image.len());
        let decoded = get_code(&mut code_part.clone()).expect("decodes");
        assert_eq!(code_bytes(&decoded), code_part);
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "5459434f01000000000000000100000003000000616c6c010002000300012800000000ffff010000",
                "00000000008002010200030100efbeaddef87f040000000005060307070008000801080208030804",
                "08050806080708080809080a080b080c080d090009010affffffff0b020000000c0d01000e010000",
                "0002000f00000000031000000000010011ff12010000000400020102130500010000001406000100",
                "00001508000200000001000000001509000200000001000000011602011600000100000001000000",
                "00000000000000000100000002000000676f0300000005000000613b622263040000006e616d6504",
                "00000073697465",
            )
        );
        assert_eq!(
            crate::asm::emit(&prog),
            r#".entry 0
.block 0 "all" free=1 params=2 locals=3 class
    pushlocal 65535
    pushint -9223372036854775808
    pushbool true
    pushbool false
    pushfloat 9221365074855133185
    pushstr "a;b\"c"
    pushunit
    pushsibling 3
    store 7
    bin add
    bin sub
    bin mul
    bin div
    bin mod
    bin eq
    bin ne
    bin lt
    bin le
    bin gt
    bin ge
    bin and
    bin or
    bin concat
    un neg
    un not
    jump 4294967295
    jumpiffalse 2
    halt
    newchan 1
    fork 1 2
    trmsg go 3
    trobj 0 1
    instof 255
    mkgroup 1 4 2 513
    exportname 5 "name"
    exportclass 6 "name"
    import 8 "site" "name" name
    import 9 "site" "name" class
    print 2 nl
    print 0 raw
.table 0
    go -> 0
"#
        );
        assert_eq!(NUM_OPS, 32);
        assert_eq!(
            OP_NAMES.join(" "),
            "pushlocal pushint pushbool pushfloat pushstr pushunit pushsibling store bin un \
             jump jumpiffalse halt newchan fork trmsg trobj instof mkgroup exportname \
             exportclass import print pushlocal2 pushlocalint pushintbin binjumpiffalse \
             pushlocaltrmsg pushlocaltrobj pushlocalinstof pushsiblinginstof pushsiblinglocal"
        );
        // The empty prefix lacks the opcode; every other proper prefix of
        // an instruction lacks (part of) an operand.
        for ins in &code {
            let mut buf = BytesMut::new();
            put_instr(&mut buf, ins);
            let bytes = buf.freeze();
            for cut in 0..bytes.len() {
                let got = get_instr(&mut bytes.slice(0..cut), &mut Instr::Halt)
                    .unwrap_err()
                    .0;
                let want = ["truncated operand", "truncated instruction"][(cut == 0) as usize];
                assert_eq!(got, want, "{ins:?} cut at {cut}");
            }
        }
    }

    fn run(first: u64, len: u32, recv: u64, sent: u64) -> ReleaseRun {
        ReleaseRun {
            first,
            len,
            recv,
            sent,
        }
    }

    #[test]
    fn release_roundtrip_and_truncation() {
        let to = Identity {
            site: SiteId(3),
            node: NodeId(1),
        };
        roundtrip(Packet::Release {
            to,
            from_site: SiteId(2),
            seq: u64::MAX,
            runs: vec![],
        });
        let p = Packet::Release {
            to,
            from_site: SiteId(2),
            seq: 7,
            runs: vec![run(10, 2, 1, 1), run(u64::MAX, u32::MAX, u64::MAX, 0)],
        };
        roundtrip(p.clone());
        let bytes = encode(&p);
        for cut in 1..bytes.len() {
            assert!(decode(bytes.slice(0..cut)).is_err(), "cut at {cut}");
        }
        // A forged run count is refused against the bytes present, before
        // anything is reserved for it.
        let mut forged = encode(&Packet::Release {
            to,
            from_site: SiteId(2),
            seq: 7,
            runs: vec![],
        })
        .to_vec();
        let at = forged.len() - 4;
        forged[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = decode(Bytes::from(forged)).unwrap_err();
        assert_eq!(e.0, "truncated release runs");
        roundtrip(Packet::Msg {
            dest: nref(1),
            label: "fwd".into(),
            args: vec![WireWord::FwdChan(nref(9))],
        });
    }

    /// Frames pinned byte for byte. `Msg` is as v4 wrote it, and `Hello`
    /// differs from v4's only in its version; the forwarded tag and
    /// `Release` are v5's.
    #[test]
    fn golden_frames() {
        let hex = |p: &Packet| -> String {
            encode_frame(NodeId(1), NodeId(2), &encode(p))
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect()
        };
        let msg = |w: WireWord| Packet::Msg {
            dest: nref(42),
            label: "val".into(),
            args: vec![WireWord::Int(7), w],
        };
        let cases = [
            (
                Packet::Hello {
                    version: WIRE_VERSION,
                    nodes: vec![NodeId(0), NodeId(3)],
                },
                "1900000001000000020000000a05000000020000000000000003000000",
            ),
            (
                msg(WireWord::Chan(nref(9))),
                concat!(
                    "3e000000010000000200000000",
                    "2a000000000000000300000001000000",
                    "0300000076616c0200000001070000000000000005",
                    "09000000000000000300000001000000",
                ),
            ),
            (
                msg(WireWord::FwdChan(nref(9))),
                concat!(
                    "3e000000010000000200000000",
                    "2a000000000000000300000001000000",
                    "0300000076616c0200000001070000000000000007",
                    "09000000000000000300000001000000",
                ),
            ),
            (
                Packet::Release {
                    to: Identity {
                        site: SiteId(3),
                        node: NodeId(1),
                    },
                    from_site: SiteId(2),
                    seq: 5,
                    runs: vec![run(10, 2, 1, 1), run(13, 1, 2, 0)],
                },
                concat!(
                    "59000000010000000200000013",
                    "0300000001000000020000000500000000000000",
                    "02000000",
                    "0a00000000000000020000000100000000000000",
                    "0100000000000000",
                    "0d00000000000000010000000200000000000000",
                    "0000000000000000",
                ),
            ),
        ];
        for (p, want) in cases {
            assert_eq!(hex(&p), want, "{p:?}");
        }
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![NodeId(0), NodeId(3)],
        });
        roundtrip(Packet::Hello {
            version: 99,
            nodes: vec![],
        });
    }

    #[test]
    fn frame_roundtrip_and_partial_reads() {
        let p = encode(&Packet::Heartbeat {
            node: NodeId(2),
            seq: 9,
        });
        let mut buf = BytesMut::new();
        encode_frame_into(NodeId(2), CONTROL_NODE, &p, &mut buf);
        encode_frame_into(NodeId(0), NodeId(1), b"xyz", &mut buf);
        let bytes = buf.freeze();

        // Every prefix shorter than the first frame is "incomplete",
        // never an error.
        let first_len = 4 + 8 + p.len();
        for cut in 0..first_len {
            assert_eq!(
                decode_frame_view(&bytes.slice(0..cut)).unwrap(),
                None,
                "prefix {cut}"
            );
        }
        let (f1, used1) = decode_frame_view(&bytes).unwrap().unwrap();
        assert_eq!(f1.from, NodeId(2));
        assert_eq!(f1.to, CONTROL_NODE);
        assert_eq!(
            decode(f1.payload).unwrap(),
            Packet::Heartbeat {
                node: NodeId(2),
                seq: 9
            }
        );
        let rest = bytes.slice(used1..bytes.len());
        let (f2, used2) = decode_frame_view(&rest).unwrap().unwrap();
        assert_eq!(f2.to, NodeId(1));
        assert_eq!(f2.payload.as_ref(), b"xyz");
        assert_eq!(used1 + used2, bytes.len());
        // Nothing left over reads as "incomplete", not as an error.
        let end = bytes.slice(bytes.len()..bytes.len());
        assert_eq!(decode_frame_view(&end).unwrap(), None);
    }

    #[test]
    fn frame_rejects_bad_lengths() {
        // Body length below the 8-byte from/to header is corrupt.
        let short = Bytes::from(4u32.to_le_bytes().to_vec());
        assert!(decode_frame_view(&short).is_err());
        // A length prefix beyond MAX_FRAME_LEN is rejected before any
        // allocation of that size happens.
        let huge = Bytes::from(((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec());
        assert!(decode_frame_view(&huge).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(Bytes::from_static(b"")).is_err());
        assert!(decode(Bytes::from_static(b"\xff")).is_err());
        assert!(decode(Bytes::from_static(b"\x00\x01")).is_err());
        // Trailing bytes are an error too.
        let mut ok = encode(&Packet::TermVerdict).to_vec();
        ok.push(0);
        assert!(decode(Bytes::from(ok)).is_err());
    }
}
