//! Hardware-independent byte encoding of packets and mobile byte-code.
//!
//! §1 of the paper: *"we provide inter-platform support in heterogeneous
//! networks by using emulated byte-code for implementation technology"*.
//! Everything that crosses a node boundary is serialized with this codec:
//! shipped messages and objects, fetched class groups, and the name-service
//! protocol. All integers are little-endian; strings are length-prefixed
//! UTF-8; floats are IEEE-754 bit patterns.
//!
//! Every packet kind is one row of `packet_set!` (DESIGN.md §21): its wire
//! tag, its [`Class`] and its fields in wire order. The [`Packet`] enum,
//! [`encode_into`], [`decode`] and [`Packet::class`] are generated from
//! the table, and each field is written and read by its type's `Field`
//! codec. [`Class::Control`] kinds are the transport's own frames, sent
//! to [`CONTROL_NODE`] and never Mattern-counted.

use crate::digest::Digest;
use crate::program::{Block, ImportKind, Instr, Operand, Refers, BINOPS, IMPORT_KINDS, UNOPS};
use crate::wire::{
    BlockHead, CodeView, Label, ReleaseRun, Span, WireCode, WireGroup, WireObj, WireWord,
};
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

/// Sentinel node id for transport-level control frames, the
/// [`Class::Control`] kinds: they are consumed by the connection actor and
/// never enter a node's packet queue.
pub const CONTROL_NODE: NodeId = NodeId(u32::MAX);

/// What the runtime does with a packet kind, declared by its row of the
/// packet table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A transport frame between processes (handshake, beacons,
    /// termination waves), framed to [`CONTROL_NODE`] and never
    /// Mattern-counted. The transport refuses any other kind there.
    Control,
    /// Carries or names a code image, and is resolved through the
    /// receiving daemon's code cache at ingest.
    Code,
    /// Routed to a site or a name-service shard, and Mattern-counted.
    Data,
}

/// Declares [`Packet`] from one table, with [`Packet::class`],
/// [`encode_into`] and [`decode`]. A row is a variant's doc comment, its
/// class, its name, its wire tag, then its fields in wire order; a field's
/// type is its kind, written and read by its `Field` codec.
macro_rules! packet_set {
    ($(#[$doc:meta])* pub enum Packet { $(
        $(#[$vdoc:meta])* $class:ident $var:ident = $tag:literal
        $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* })?,
    )* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum Packet {
            $($(#[$vdoc])* $var $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
        }

        impl Packet {
            /// The kind's class, from its row of the packet table.
            pub fn class(&self) -> Class {
                match self {
                    $(Packet::$var { .. } => Class::$class,)*
                }
            }
        }

        /// Append a packet's encoding to an existing buffer. Batching many
        /// packets into one buffer (then freezing once and slicing) costs
        /// one allocation per batch instead of one per packet.
        pub fn encode_into(p: &Packet, buf: &mut BytesMut) {
            match p {
                $(Packet::$var $({ $($field),* })? => {
                    buf.put_u8($tag);
                    $($(Field::put($field, buf);)*)?
                })*
            }
        }

        /// Decode a packet from bytes. An error names the field it hit.
        pub fn decode(mut buf: Bytes) -> R<Packet> {
            if !buf.has_remaining() {
                return err("empty packet");
            }
            let p = match buf.get_u8() {
                $($tag => Packet::$var $({ $(
                    $field: field(&mut buf, concat!(stringify!($var), ".", stringify!($field)))?,
                )* })?,)*
                t => return err(format!("bad packet tag {t}")),
            };
            if buf.has_remaining() {
                return err(format!("{} trailing bytes", buf.remaining()));
            }
            Ok(p)
        }
    };
}

packet_set! {
    /// Everything a TyCOd daemon routes between nodes.
    pub enum Packet {
        /// A shipped asynchronous message (SHIPM).
        Data Msg = 0 {
            dest: NetRef,
            label: Label,
            args: Vec<WireWord>,
        },
        /// A migrating object (SHIPO). Carries the content digest of
        /// `obj.code` so receivers can cache the image and senders can switch
        /// to [`Packet::ObjRef`] for later shipments of the same code.
        Code Obj = 1 {
            dest: NetRef,
            digest: Digest,
            obj: WireObj,
        },
        /// Request for the byte-code of an exported class (FETCH, step 1).
        Data FetchReq = 2 {
            class: NetRef,
            req: u64,
            reply_to: Identity,
        },
        /// The packaged byte-code (FETCH, step 2), stamped with the content
        /// digest of `group.code`.
        Code FetchReply = 3 {
            to: Identity,
            req: u64,
            digest: Digest,
            group: WireGroup,
            index: u8,
        },
        /// Name-service registration of an exported identifier.
        Data NsRegister = 4 {
            from_site: SiteId,
            site_lexeme: String,
            name: String,
            value: WireWord,
            /// Type stamp of the export; `None` for untyped registrations.
            stamp: Option<TypeStamp>,
        },
        /// Name-service lookup.
        Data NsImport = 5 {
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
        Data NsImportReply = 6 {
            to: Identity,
            req: u64,
            result: Result<WireWord, String>,
        },
        /// Node liveness beacon (failure detection, §7 future work).
        Control Heartbeat = 7 {
            node: NodeId,
            seq: u64,
        },
        /// Termination-detection probe (initiator → member processes). The
        /// answering process leaves out the packets it exchanged with the
        /// `excluded` nodes (departed or permanently down).
        Control TermProbe = 8 {
            round: u64,
            excluded: Vec<NodeId>,
        },
        /// Termination-detection report (member process → initiator), for
        /// every node the reporting process hosts.
        Control TermReport = 9 {
            round: u64,
            sent: u64,
            recv: u64,
            active: bool,
        },
        /// Transport handshake: the first frame on every TCP connection. It
        /// announces the sender's wire-protocol version and the node ids the
        /// sending process hosts, so the receiver can route outbound packets
        /// for those nodes over this connection.
        Control Hello = 10 {
            version: u32,
            nodes: Vec<NodeId>,
        },
        /// Deduplicated [`Packet::Obj`]: the code image is replaced by its
        /// digest because the sender believes the receiving node already
        /// holds it. The per-shipment state (`table`, `captured`) still
        /// rides along in full.
        Code ObjRef = 11 {
            dest: NetRef,
            digest: Digest,
            table: u32,
            captured: Vec<WireWord>,
        },
        /// Deduplicated [`Packet::FetchReply`]: digest instead of code.
        Code FetchReplyRef = 12 {
            to: Identity,
            req: u64,
            digest: Digest,
            table: u32,
            captured: Vec<WireWord>,
            index: u8,
        },
        /// Cache-miss negotiation: a node received a digest-only packet for
        /// code it does not hold and asks the sender to ship the bytes.
        Code NeedCode = 13 {
            from: NodeId,
            digest: Digest,
        },
        /// Answer to [`Packet::NeedCode`]: the full code image for `digest`.
        Code HaveCode = 14 {
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
        Data NsLease = 15 {
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
        Data NsInvalidate = 16 {
            to: NodeId,
            site: String,
            name: String,
            epoch: u64,
        },
        /// Asynchronous shard replication: a registration applied by the
        /// shard that accepted it, shipped to its replica partner. `seq` is
        /// the shipper's log position; links are FIFO so the partner applies
        /// records in order and drops stale re-deliveries.
        Data NsRepl = 17 {
            to: NodeId,
            seq: u64,
            from_site: SiteId,
            site_lexeme: String,
            name: String,
            value: WireWord,
            stamp: Option<TypeStamp>,
            epoch: u64,
        },
        /// The initiator's two-wave verdict: the distributed computation has
        /// terminated.
        Control TermVerdict = 18,
        /// A holder site gives back the channels its collector found
        /// unreachable, to the site `to` that exported them (DESIGN.md §20).
        /// The owner applies it only if `seq` is above the last one it applied
        /// from `from_site`.
        Data Release = 19 {
            to: Identity,
            from_site: SiteId,
            seq: u64,
            runs: Vec<ReleaseRun>,
        },
    }
}

/// Encode a packet to bytes.
pub fn encode(p: &Packet) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_into(p, &mut buf);
    buf.freeze()
}

// -- field kinds -------------------------------------------------------------

/// A field kind of the packet table: its wire form, and the fewest bytes
/// that form takes, which a counted list's length is checked against.
/// Every `get` is `#[inline]`: without the hints `decode` ran ~10 % slower
/// than the hand-written decoder (DESIGN.md §21).
trait Field: Sized {
    /// Every kind's encoding takes at least one byte.
    const MIN: usize = 1;
    fn put(&self, buf: &mut BytesMut);
    fn get(buf: &mut Bytes) -> R<Self>;
}

/// Read the field `name` of a packet, naming it in the error.
#[inline]
fn field<T: Field>(buf: &mut Bytes, name: &str) -> R<T> {
    T::get(buf).map_err(|e| CodecError(format!("{name}: {}", e.0)))
}

/// Fixed-width numbers, little-endian; a float is its IEEE-754 bits.
macro_rules! number_fields {
    ($($ty:ty = $put:ident, $get:ident;)*) => {$(
        impl Field for $ty {
            const MIN: usize = std::mem::size_of::<$ty>();
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn get(buf: &mut Bytes) -> R<Self> {
                if buf.remaining() < <$ty as Field>::MIN {
                    return err(concat!("truncated ", stringify!($ty)));
                }
                Ok(buf.$get())
            }
        }
    )*};
}

number_fields! {
    u8 = put_u8, get_u8;
    u32 = put_u32_le, get_u32_le;
    u64 = put_u64_le, get_u64_le;
    u128 = put_u128_le, get_u128_le;
    i64 = put_i64_le, get_i64_le;
    f64 = put_f64_le, get_f64_le;
}

/// Newtypes, encoded as the integer they wrap.
macro_rules! newtype_fields {
    ($($ty:ident($inner:ty),)*) => {$(
        impl Field for $ty {
            const MIN: usize = <$inner as Field>::MIN;
            fn put(&self, buf: &mut BytesMut) {
                self.0.put(buf);
            }
            #[inline]
            fn get(buf: &mut Bytes) -> R<Self> {
                <$inner>::get(buf).map($ty)
            }
        }
    )*};
}

newtype_fields! {
    NodeId(u32),
    SiteId(u32),
    Digest(u128),
}

/// The value a one-byte wire code names in `table`, which lists the
/// values by code. Only the code the encoder writes is accepted, so
/// decoding stays canonical: `encode(decode(b)) == b`.
#[inline]
fn by_code<T: Copy>(code: u8, table: &[(T, &str)], what: &str) -> R<T> {
    match table.get(code as usize) {
        Some(&(v, _)) => Ok(v),
        None => err(format!("bad {what} {code}")),
    }
}

const BOOLS: [(bool, &str); 2] = [(false, "false"), (true, "true")];

/// One byte, 0 or 1.
impl Field for bool {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        by_code(u8::get(buf)?, &BOOLS, "bool")
    }
}

/// One byte, by [`IMPORT_KINDS`].
impl Field for ImportKind {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        by_code(u8::get(buf)?, &IMPORT_KINDS, "import kind")
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string and make `T` of it.
#[inline]
fn get_str_as<T>(buf: &mut impl Buf, make: impl FnOnce(&str) -> T) -> R<T> {
    if buf.remaining() < 4 {
        return err("truncated string length");
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return err("truncated string body");
    }
    let s =
        std::str::from_utf8(&buf.chunk()[..n]).map_err(|e| CodecError(format!("bad utf8: {e}")))?;
    let v = make(s);
    buf.advance(n);
    Ok(v)
}

impl Field for String {
    const MIN: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        get_str_as(buf, str::to_owned)
    }
}

/// A string, like [`String`]; a short one decodes in place.
impl Field for Label {
    const MIN: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        get_str_as(buf, |s| Label::from(s))
    }
}

/// A tag byte, then the payload.
fn tagged(buf: &mut BytesMut, tag: u8, payload: &impl Field) {
    buf.put_u8(tag);
    payload.put(buf);
}

/// Flag 1 and the value, or flag 0.
impl<T: Field> Field for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Some(x) => tagged(buf, 1, x),
            None => buf.put_u8(0),
        }
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => T::get(buf).map(Some),
            f => err(format!("bad option flag {f}")),
        }
    }
}

/// Flag 1 and the value, or flag 0 and the error.
impl<T: Field, E: Field> Field for Result<T, E> {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Ok(x) => tagged(buf, 1, x),
            Err(e) => tagged(buf, 0, e),
        }
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        Ok(match bool::get(buf)? {
            true => Ok(T::get(buf)?),
            false => Err(E::get(buf)?),
        })
    }
}

/// A tag byte, then the word's payload.
impl Field for WireWord {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            WireWord::Unit => buf.put_u8(0),
            WireWord::Int(i) => tagged(buf, 1, i),
            WireWord::Bool(b) => tagged(buf, 2, b),
            WireWord::Float(x) => tagged(buf, 3, x),
            WireWord::Str(s) => tagged(buf, 4, s),
            WireWord::Chan(r) => tagged(buf, 5, r),
            WireWord::Class(r) => tagged(buf, 6, r),
            WireWord::FwdChan(r) => tagged(buf, 7, r),
        }
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        Ok(match u8::get(buf)? {
            0 => WireWord::Unit,
            1 => WireWord::Int(Field::get(buf)?),
            2 => WireWord::Bool(Field::get(buf)?),
            3 => WireWord::Float(Field::get(buf)?),
            4 => WireWord::Str(Field::get(buf)?),
            5 => WireWord::Chan(Field::get(buf)?),
            6 => WireWord::Class(Field::get(buf)?),
            7 => WireWord::FwdChan(Field::get(buf)?),
            t => return err(format!("bad word tag {t}")),
        })
    }
}

/// A `u32` count, then the elements. The count is checked against the
/// bytes left before anything is reserved, at the element kind's `MIN`
/// bytes each: a forged count cannot make the decoder allocate more than
/// its frame could hold.
impl<T: Field> Field for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for x in self {
            x.put(buf);
        }
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        let n = u32::get(buf)? as usize;
        if n.saturating_mul(T::MIN) > buf.remaining() {
            return err(format!("truncated list of {n}"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

/// Four counted sections: blocks, tables, labels, strings. An image
/// writes its stored bytes.
impl Field for WireCode {
    const MIN: usize = 16;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(self.bytes());
    }
    #[inline]
    fn get(buf: &mut Bytes) -> R<Self> {
        get_code(buf)
    }
}

/// Structs, encoded as their fields in declared order.
macro_rules! struct_fields {
    ($($ty:ident { $($f:ident: $fty:ty),* })*) => {$(
        impl Field for $ty {
            const MIN: usize = 0 $(+ <$fty as Field>::MIN)*;
            fn put(&self, buf: &mut BytesMut) {
                $(<$fty as Field>::put(&self.$f, buf);)*
            }
            #[inline]
            fn get(buf: &mut Bytes) -> R<Self> {
                Ok($ty { $($f: <$fty as Field>::get(buf)?),* })
            }
        }
    )*};
}

struct_fields! {
    NetRef { heap_id: u64, site: SiteId, node: NodeId }
    Identity { site: SiteId, node: NodeId }
    TypeStamp { fingerprint: u64, canonical: String }
    ReleaseRun { first: u64, len: u32, recv: u64, sent: u64 }
    WireObj { code: WireCode, table: u32, captured: Vec<WireWord> }
    WireGroup { code: WireCode, table: u32, captured: Vec<WireWord> }
}

// -- instructions ----------------------------------------------------------------

/// An instruction is its wire opcode, then its operands in declared order
/// (see [`crate::program`]), each encoded by its kind alone. A fused form
/// has no wire code: callers expand it first ([`crate::fuse::expand`]).
#[inline]
pub(crate) fn put_instr(buf: &mut BytesMut, ins: &Instr) {
    debug_assert!(!ins.is_fused(), "fused forms have no encoding: {ins:?}");
    let mut ins = *ins;
    buf.put_u8(ins.op_index() as u8);
    ins.each_operand(
        #[inline(always)]
        |o| match o {
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
        },
    );
}

/// The next `N` bytes of an operand.
#[inline(always)]
fn operand_bytes<const N: usize>(buf: &mut &[u8]) -> R<[u8; N]> {
    let Some((&b, rest)) = buf.split_first_chunk::<N>() else {
        return err("truncated operand");
    };
    *buf = rest;
    Ok(b)
}

/// Decode one instruction into `ins`. Decoding in place, not into a
/// value the caller then copies, saves a store-forwarding stall per
/// instruction: the operands are stored piecewise, the copy reads them
/// back whole.
#[inline]
fn get_instr(buf: &mut &[u8], ins: &mut Instr) -> R<()> {
    let Some((&opcode, rest)) = buf.split_first() else {
        return err("truncated instruction");
    };
    *buf = rest;
    *ins = match Instr::base(opcode) {
        Some(template) => template,
        None => return err(format!("bad opcode {opcode}")),
    };
    ins.operands(
        #[inline(always)]
        |o| {
            match o {
                Operand::Slot(v) | Operand::U16(v) => *v = u16::from_le_bytes(operand_bytes(buf)?),
                Operand::U8(v) | Operand::Sibling(v) => *v = operand_bytes::<1>(buf)?[0],
                Operand::Int(v) => *v = i64::from_le_bytes(operand_bytes(buf)?),
                Operand::Imm(v) => *v = i32::from_le_bytes(operand_bytes(buf)?),
                Operand::Float(v) => *v = f64::from_le_bytes(operand_bytes(buf)?),
                Operand::Bool(v) | Operand::Newline(v) => {
                    *v = by_code(operand_bytes::<1>(buf)?[0], &BOOLS, "bool")?
                }
                Operand::Str(v)
                | Operand::Label(v)
                | Operand::Block(v)
                | Operand::Table(v)
                | Operand::Target(v) => *v = u32::from_le_bytes(operand_bytes(buf)?),
                Operand::BinOp(v) => *v = by_code(operand_bytes::<1>(buf)?[0], &BINOPS, "binop")?,
                Operand::UnOp(v) => *v = by_code(operand_bytes::<1>(buf)?[0], &UNOPS, "unop")?,
                Operand::ImportKind(v) => {
                    *v = by_code(operand_bytes::<1>(buf)?[0], &IMPORT_KINDS, "import kind")?
                }
            }
            Ok(())
        },
    )
}

// -- code bundles -------------------------------------------------------------------

/// Write `b` as a block of a code bundle (four counted sections: blocks,
/// tables, labels, strings): each fused form as the base pair it stands
/// for, jump targets moved to match, every id operand through `id`.
#[inline]
pub(crate) fn put_block(
    buf: &mut BytesMut,
    b: &Block,
    old_to_new: &mut Vec<u32>,
    mut id: impl FnMut(Operand<'_>),
) {
    let len = wire_len(&b.code);
    put_str(buf, &b.name);
    for n in [b.nfree, b.nparams, b.nlocals] {
        buf.put_u16_le(n);
    }
    buf.put_u8(b.is_class_body as u8);
    buf.put_u32_le(len as u32);
    let fused = len != b.code.len();
    if fused {
        old_to_new.clear();
        let mut at = 0;
        for ins in b.code.iter() {
            old_to_new.push(at);
            at += 1 + ins.is_fused() as u32;
        }
    }
    for ins in b.code.iter() {
        let pair = crate::fuse::expand(ins);
        for &(mut ins) in pair.as_ref().map_or(std::slice::from_ref(ins), |p| &p[..]) {
            if ins.refers(Refers::Id) || fused && ins.refers(Refers::Target) {
                ins.each_operand(
                    #[inline(always)]
                    |o| match o {
                        Operand::Target(t) if fused => {
                            *t = crate::fuse::remap_target(old_to_new, *t, len as u32)
                        }
                        o => id(o),
                    },
                );
            }
            put_instr(buf, &ins);
        }
    }
}

/// How many wire instructions `code` is written as: a fused form is two.
pub(crate) fn wire_len(code: &[Instr]) -> usize {
    code.len() + code.iter().filter(|i| i.is_fused()).count()
}

/// A method table: its count, then (label, block) per entry.
pub(crate) fn put_table(buf: &mut BytesMut, entries: impl ExactSizeIterator<Item = (u32, u32)>) {
    buf.put_u32_le(entries.len() as u32);
    for (l, b) in entries {
        buf.put_u32_le(l);
        buf.put_u32_le(b);
    }
}

/// A symbol section: its count, then each string.
pub(crate) fn put_strs<'a>(buf: &mut BytesMut, items: impl ExactSizeIterator<Item = &'a str>) {
    buf.put_u32_le(items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

/// The canonical byte serialization of a code bundle — exactly the bytes
/// [`Packet::Obj`] / [`Packet::FetchReply`] / [`Packet::HaveCode`] carry,
/// fixed when the image was made. This is the input to content
/// fingerprinting: any two sites that would ship identical bytes agree on
/// the digest.
pub fn code_bytes(code: &WireCode) -> Bytes {
    code.bytes().clone()
}

/// Content digest of a code bundle over its canonical codec bytes.
pub fn code_digest(code: &WireCode) -> Digest {
    code.digest()
}

/// Pin-amplification bound for views of a read buffer that outlive the
/// readable event that filled it. A transport reader hands payloads on
/// as [`Bytes`] views of its accumulator, and almost every packet is
/// decoded into owned values there and then: its view is gone before
/// the reader reclaims the buffer. The one view a decoded packet keeps
/// is the span a code image keeps as its bytes (`get_code`); it is
/// copied out if it is smaller than `1/PIN_DENOM` of the allocation
/// behind it (its capacity, which freezing keeps, not merely the bytes
/// in use). A kept view then pins at most `PIN_DENOM`× its own size,
/// never a whole multi-frame read buffer on behalf of one small
/// long-lived image; a large one stays zero-copy, since it already *is*
/// most of the buffer it pins. (Frames the transport holds back on the
/// way out — a stash, a backlog, a chaos delay — are exact-size copies,
/// which pin only themselves.)
pub const PIN_DENOM: usize = 8;

/// `view`, or a copy of it if keeping it would pin more than
/// [`PIN_DENOM`]× its size.
fn unpinned(view: Bytes) -> Bytes {
    if view.len() * PIN_DENOM < view.backing_capacity() {
        Bytes::copy_from_slice(&view)
    } else {
        view
    }
}

/// Decode an image, keeping the span of `buf` it was decoded from as its
/// bytes and hashing that span: decoding is canonical, so the span is the
/// image's canonical encoding. The image may be kept long after its
/// frame, so the span is [`unpinned`].
pub(crate) fn get_code(buf: &mut Bytes) -> R<WireCode> {
    let mut rest: &[u8] = buf;
    let view = get_view(&mut rest)?;
    let span = buf.split_to(buf.len() - rest.len());
    Ok(WireCode::from_bytes(unpinned(span), Some(view)))
}

/// Decode a code bundle from the front of `buf`, a plain slice cursor,
/// into its view; spans are offsets from where `buf` starts. Each vector
/// is reserved once for all the bytes left could hold, code and table
/// entries then trimmed to fit.
pub(crate) fn get_view(buf: &mut &[u8]) -> R<CodeView> {
    let len = buf.len();
    if u32::try_from(len).is_err() {
        return err(format!("image of {len} bytes"));
    }
    macro_rules! count {
        () => {{
            if buf.remaining() < 4 {
                return err("truncated count");
            }
            buf.get_u32_le() as usize
        }};
    }
    macro_rules! span {
        () => {{
            let n = get_str_as(buf, str::len)?;
            let end = (len - buf.len()) as u32;
            let start = end - n as u32;
            Span { start, end }
        }};
    }
    let nblocks = count!();
    // An instruction is at least its opcode byte, a block header 15 bytes.
    let mut v = CodeView {
        code: Vec::with_capacity(buf.len()),
        blocks: Vec::with_capacity(nblocks.min(buf.len() / 15)),
        ..CodeView::default()
    };
    for _ in 0..nblocks {
        let name = span!();
        if buf.remaining() < 7 {
            return err("truncated block header");
        }
        let start = v.code.len() as u32;
        let mut b = BlockHead {
            name,
            nfree: buf.get_u16_le(),
            nparams: buf.get_u16_le(),
            nlocals: buf.get_u16_le(),
            is_class_body: by_code(buf.get_u8(), &BOOLS, "bool")?,
            code: Span { start, end: start },
        };
        for _ in 0..count!() {
            v.code.push(Instr::Halt);
            get_instr(buf, v.code.last_mut().expect("just pushed"))?;
        }
        b.code.end = v.code.len() as u32;
        v.blocks.push(b);
    }
    v.code.shrink_to_fit();
    let ntables = count!();
    v.tables = Vec::with_capacity(ntables.min(buf.len() / 4));
    v.entries = Vec::with_capacity(buf.len() / 8);
    for _ in 0..ntables {
        let start = v.entries.len() as u32;
        for _ in 0..count!() {
            if buf.remaining() < 8 {
                return err("truncated table entry");
            }
            v.entries.push((buf.get_u32_le(), buf.get_u32_le()));
        }
        let end = v.entries.len() as u32;
        v.tables.push(Span { start, end });
    }
    v.entries.shrink_to_fit();
    for spans in [&mut v.labels, &mut v.strings] {
        let n = count!();
        *spans = Vec::with_capacity(n.min(buf.len() / 4));
        for _ in 0..n {
            spans.push(span!());
        }
    }
    Ok(v)
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

/// Append `p` to `buf` as one whole frame from `from` to `to`: the
/// header, then the packet encoded once in place behind it, with no
/// payload buffer in between. Returns the payload's length.
pub fn encode_framed_into(from: NodeId, to: NodeId, p: &Packet, buf: &mut BytesMut) -> usize {
    let at = buf.len();
    buf.put_u32_le(0);
    buf.put_u32_le(from.0);
    buf.put_u32_le(to.0);
    encode_into(p, buf);
    let payload = buf.len() - at - 12;
    buf[at..at + 4].copy_from_slice(&((payload + 8) as u32).to_le_bytes());
    payload
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

    fn id(site: u32, node: u32) -> Identity {
        Identity {
            site: SiteId(site),
            node: NodeId(node),
        }
    }

    fn stamp(fingerprint: u64, canonical: &str) -> Option<TypeStamp> {
        Some(TypeStamp {
            fingerprint,
            canonical: canonical.into(),
        })
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

    /// A label is held in place up to 22 bytes and shared beyond; both
    /// round-trip, and the two ways of making one agree.
    #[test]
    fn labels_on_both_sides_of_the_inline_limit_round_trip() {
        for len in [0, 1, 22, 23, 64] {
            let text = "é".repeat(len / 2) + &"l".repeat(len % 2);
            let shared = Label::shared(&std::sync::Arc::from(text.as_str()));
            assert_eq!(shared, Label::from(text.as_str()));
            assert_eq!(&*shared, text);
            let p = Packet::Msg {
                dest: nref(1),
                label: shared,
                args: vec![WireWord::Int(1)],
            };
            roundtrip(p);
        }
    }

    /// A code image is the one view of a read buffer a decoded packet
    /// keeps: a small one kept past its readable event is copied out of
    /// the accumulator it arrived in, so it pins at most `PIN_DENOM`× its
    /// size; one that is most of the accumulator stays a view of it.
    #[test]
    fn a_small_kept_image_does_not_pin_its_read_accumulator() {
        let (small, digest, _) = kept_image(256 * 1024);
        let bytes = small.bytes();
        assert!(
            bytes.backing_capacity() <= PIN_DENOM * bytes.len(),
            "{} bytes kept pin {}",
            bytes.len(),
            bytes.backing_capacity()
        );
        assert_eq!(code_digest(&small), digest);
        let (whole, _, framed) = kept_image(0);
        assert_eq!(
            whole.bytes().backing_capacity(),
            framed,
            "zero-copy when the image is most of its buffer"
        );
    }

    /// A small image, decoded out of a read accumulator of `capacity`
    /// bytes (at least its own frame) as a transport reader decodes it;
    /// with the digest it was shipped under and the frame's length.
    fn kept_image(capacity: usize) -> (WireCode, Digest, usize) {
        let prog = compile(&parse_core("def K(a) = print(a) in K[1]").unwrap()).unwrap();
        let code = wire::pack(&prog, &[0]).code;
        let digest = code_digest(&code);
        let p = Packet::HaveCode {
            to: NodeId(0),
            digest,
            code,
        };
        let framed = encode(&p).len() + 12;
        let mut acc = BytesMut::with_capacity(capacity.max(framed));
        encode_framed_into(NodeId(1), NodeId(0), &p, &mut acc);
        let acc = acc.freeze();
        let (frame, _) = decode_frame_view(&acc).unwrap().unwrap();
        match decode(frame.payload).unwrap() {
            Packet::HaveCode { code, .. } => (code, digest, framed),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A daemon stores a received image `detached`, and that copies it
    /// out of its frame once at most: an image the decoder already
    /// copied out is stored as it is, one kept as a view into a bigger
    /// buffer is copied into an allocation of its own.
    #[test]
    fn a_stored_image_is_copied_out_of_its_frame_once() {
        let (small, _, _) = kept_image(256 * 1024);
        assert_eq!(small.bytes().backing_capacity(), small.bytes().len());
        let stored = small.detached();
        assert_eq!(
            stored.bytes().as_ptr(),
            small.bytes().as_ptr(),
            "no second copy"
        );

        let (view, _, framed) = kept_image(0);
        assert!(view.bytes().len() < framed, "a view into its frame");
        let stored = view.detached();
        assert_ne!(stored.bytes().as_ptr(), view.bytes().as_ptr(), "copied out");
        assert_eq!(stored.bytes().backing_capacity(), stored.bytes().len());
        assert_eq!(stored, view);
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
                let got = get_instr(&mut &bytes[..cut], &mut Instr::Halt)
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
        roundtrip(Packet::Release {
            to: id(3, 1),
            from_site: SiteId(2),
            seq: 7,
            runs: vec![run(10, 2, 1, 1), run(u64::MAX, u32::MAX, u64::MAX, 0)],
        });
        // A forged run count is refused against the bytes present, before
        // anything is reserved for it.
        let forged = forged_count(&Packet::Release {
            to: id(3, 1),
            from_site: SiteId(2),
            seq: 7,
            runs: vec![],
        });
        assert_eq!(forged, "Release.runs: truncated list of 4294967295");
    }

    /// The decoder's error for `p` with its last four bytes, a list's
    /// count, forged to `u32::MAX`.
    fn forged_count(p: &Packet) -> String {
        let mut forged = encode(p).to_vec();
        let at = forged.len() - 4;
        forged[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        decode(Bytes::from(forged)).unwrap_err().0
    }

    /// The other counted lists follow the same rule: a count of
    /// `u32::MAX` is refused as truncated, naming its field.
    #[test]
    fn forged_counts_are_refused_as_truncated() {
        let empty = [
            Packet::Msg {
                dest: nref(1),
                label: "l".into(),
                args: vec![],
            },
            Packet::ObjRef {
                dest: nref(1),
                digest: Digest(1),
                table: 0,
                captured: vec![],
            },
            Packet::Hello {
                version: WIRE_VERSION,
                nodes: vec![],
            },
            Packet::TermProbe {
                round: 1,
                excluded: vec![],
            },
        ];
        let fields = [
            "Msg.args",
            "ObjRef.captured",
            "Hello.nodes",
            "TermProbe.excluded",
        ];
        for (p, field) in empty.iter().zip(fields) {
            let want = format!("{field}: truncated list of 4294967295");
            assert_eq!(forged_count(p), want);
        }
    }

    /// Every packet kind, with the value cases its fields can take, and
    /// its frame from node 1 to node 2 as the hand-written v5 encoder
    /// wrote it. `Msg` is as v4 wrote it, and `Hello` differs from v4's
    /// only in its version.
    fn golden() -> Vec<(Packet, &'static str)> {
        let prog = compile(&parse_core("def K(a) = print(a) in K[1]").unwrap()).unwrap();
        let code = wire::pack(&prog, &[0]).code;
        // Its digest, then the image.
        macro_rules! image {
            () => {
                concat!(
                    "174de78dd86b400e59661f65ce8189f5",
                    "01000000010000004b00000100000001030000000001001601000c01000000",
                    "01000000000000000000000001000000010000004b00000000",
                )
            };
        }
        let msg = |w: WireWord| Packet::Msg {
            dest: nref(42),
            label: "val".into(),
            args: vec![WireWord::Int(7), w],
        };
        vec![
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
                    to: id(3, 1),
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
            (
                Packet::Release {
                    to: id(3, 1),
                    from_site: SiteId(2),
                    seq: u64::MAX,
                    runs: vec![],
                },
                "21000000010000000200000013030000000100000002000000ffffffffffffffff00000000",
            ),
            (
                Packet::Msg {
                    dest: nref(42),
                    label: "read".into(),
                    args: vec![
                        WireWord::Unit,
                        WireWord::Int(-7),
                        WireWord::Bool(true),
                        WireWord::Float(2.5),
                        WireWord::Str("héllo".into()),
                        WireWord::Chan(nref(9)),
                        WireWord::Class(nref(10)),
                        WireWord::FwdChan(nref(11)),
                    ],
                },
                concat!(
                    "78000000010000000200000000",
                    "2a0000000000000003000000010000000400000072656164080000000001f9ffffffffff",
                    "ffff0201030000000000000440040600000068c3a96c6c6f050900000000000000030000",
                    "0001000000060a000000000000000300000001000000070b000000000000000300000001",
                    "000000",
                ),
            ),
            (
                Packet::Obj {
                    dest: nref(1),
                    digest: code_digest(&code),
                    obj: WireObj {
                        code: code.clone(),
                        table: 0,
                        captured: vec![WireWord::Chan(nref(5))],
                    },
                },
                concat!(
                    "7a000000010000000200000001",
                    "01000000000000000300000001000000",
                    image!(),
                    "00000000010000000505000000000000000300000001000000",
                ),
            ),
            (
                Packet::FetchReq {
                    class: nref(2),
                    req: 77,
                    reply_to: id(1, 0),
                },
                concat!(
                    "29000000010000000200000002",
                    "020000000000000003000000010000004d000000000000000100000000000000",
                ),
            ),
            (
                Packet::FetchReply {
                    to: id(1, 0),
                    req: 77,
                    digest: code_digest(&code),
                    group: WireGroup {
                        code: code.clone(),
                        table: 0,
                        captured: vec![],
                    },
                    index: 1,
                },
                concat!(
                    "6a000000010000000200000003",
                    "01000000000000004d00000000000000",
                    image!(),
                    "000000000000000001",
                ),
            ),
            (
                Packet::NsRegister {
                    from_site: SiteId(2),
                    site_lexeme: "server".into(),
                    name: "appletserver".into(),
                    value: WireWord::Chan(nref(0)),
                    stamp: None,
                },
                concat!(
                    "39000000010000000200000004",
                    "02000000060000007365727665720c0000006170706c6574736572766572050000000000",
                    "000000030000000100000000",
                ),
            ),
            (
                Packet::NsImport {
                    req: 5,
                    site: "server".into(),
                    name: "p".into(),
                    kind: ImportKind::Class,
                    reply_to: id(9, 2),
                    expect: stamp(1, "^{val(bool)}"),
                },
                concat!(
                    "42000000010000000200000005",
                    "050000000000000006000000736572766572010000007001090000000200000001010000",
                    "00000000000c0000005e7b76616c28626f6f6c297d",
                ),
            ),
            (
                Packet::NsImportReply {
                    to: id(9, 2),
                    req: 5,
                    result: Ok(WireWord::Class(nref(3))),
                },
                concat!(
                    "2b000000010000000200000006",
                    "09000000020000000500000000000000010603000000000000000300000001000000",
                ),
            ),
            (
                Packet::NsImportReply {
                    to: id(9, 2),
                    req: 6,
                    result: Err("no such identifier".into()),
                },
                concat!(
                    "30000000010000000200000006",
                    "0900000002000000060000000000000000120000006e6f2073756368206964656e746966",
                    "696572",
                ),
            ),
            (
                Packet::Heartbeat {
                    node: NodeId(4),
                    seq: 123,
                },
                "15000000010000000200000007040000007b00000000000000",
            ),
            (
                Packet::TermProbe {
                    round: 2,
                    excluded: vec![],
                },
                "15000000010000000200000008020000000000000000000000",
            ),
            (
                Packet::TermReport {
                    round: 2,
                    sent: 100,
                    recv: 99,
                    active: true,
                },
                "2200000001000000020000000902000000000000006400000000000000630000000000000001",
            ),
            (Packet::TermVerdict, "09000000010000000200000012"),
            (
                Packet::ObjRef {
                    dest: nref(1),
                    digest: Digest(0x0123456789abcdef_fedcba9876543210),
                    table: 4,
                    captured: vec![WireWord::Chan(nref(5)), WireWord::Int(12)],
                },
                concat!(
                    "4b00000001000000020000000b",
                    "010000000000000003000000010000001032547698badcfeefcdab896745230104000000",
                    "020000000505000000000000000300000001000000010c00000000000000",
                ),
            ),
            (
                Packet::FetchReplyRef {
                    to: id(1, 0),
                    req: 78,
                    digest: Digest(u128::MAX),
                    table: 0,
                    captured: vec![],
                    index: 2,
                },
                concat!(
                    "3200000001000000020000000c",
                    "01000000000000004e00000000000000ffffffffffffffffffffffffffffffff00000000",
                    "0000000002",
                ),
            ),
            (
                Packet::NeedCode {
                    from: NodeId(3),
                    digest: Digest(1),
                },
                "1d00000001000000020000000d0300000001000000000000000000000000000000",
            ),
            (
                Packet::HaveCode {
                    to: NodeId(2),
                    digest: code_digest(&code),
                    code,
                },
                concat!("5500000001000000020000000e", "02000000", image!(),),
            ),
            (
                Packet::NsLease {
                    to: id(9, 2),
                    req: 5,
                    site: "server".into(),
                    name: "p".into(),
                    value: WireWord::Chan(nref(3)),
                    stamp: stamp(0xfeed, "^{val(int)|r0}"),
                    epoch: 7,
                },
                concat!(
                    "5c00000001000000020000000f",
                    "090000000200000005000000000000000600000073657276657201000000700503000000",
                    "00000000030000000100000001edfe0000000000000e0000005e7b76616c28696e74297c",
                    "72307d0700000000000000",
                ),
            ),
            (
                Packet::NsInvalidate {
                    to: NodeId(3),
                    site: "server".into(),
                    name: "p".into(),
                    epoch: 8,
                },
                "24000000010000000200000010030000000600000073657276657201000000700800000000000000",
            ),
            (
                Packet::NsRepl {
                    to: NodeId(1),
                    seq: 42,
                    from_site: SiteId(2),
                    site_lexeme: "server".into(),
                    name: "p".into(),
                    value: WireWord::Chan(nref(9)),
                    stamp: None,
                    epoch: 3,
                },
                concat!(
                    "42000000010000000200000011",
                    "010000002a00000000000000020000000600000073657276657201000000700509000000",
                    "000000000300000001000000000300000000000000",
                ),
            ),
        ]
    }

    /// Each golden row encodes to its frame, its frame decodes to the
    /// packet, and every proper prefix of the packet fails to decode.
    #[test]
    fn golden_frames() {
        for (p, want) in golden() {
            let frame = encode_frame(NodeId(1), NodeId(2), &encode(&p));
            let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{p:?}");
            let (f, _) = decode_frame_view(&frame).unwrap().unwrap();
            assert_eq!(decode(f.payload.clone()).as_ref(), Ok(&p));
            for cut in 0..f.payload.len() {
                assert!(
                    decode(f.payload.slice(0..cut)).is_err(),
                    "{p:?} cut at {cut}"
                );
            }
        }
    }

    /// Framing while encoding writes every golden row's frame byte for
    /// byte, back to back in one buffer, as the daemon batches them.
    #[test]
    fn encoding_in_place_behind_the_header_writes_the_golden_frames() {
        let mut buf = BytesMut::new();
        let mut want = String::new();
        for (p, frame) in golden() {
            let len = encode_framed_into(NodeId(1), NodeId(2), &p, &mut buf);
            assert_eq!(len, encode(&p).len(), "{p:?}");
            want.push_str(frame);
        }
        let got: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, want);
    }

    /// Seeded single-byte flips of every golden row never panic the
    /// decoder, and a mutant that decodes re-encodes to exactly its own
    /// bytes: decoding is canonical, and none of its lists holds more
    /// elements than its bytes can encode, whatever a count claimed.
    #[test]
    fn packet_byte_flips_never_panic_and_stay_bounded() {
        let mut state = 0x5eed_0004_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut rejected, mut accepted) = (0, 0);
        for (p, _) in golden() {
            let bytes = encode(&p);
            for _ in 0..300 {
                let mut m = bytes.to_vec();
                let at = rng() as usize % m.len();
                m[at] ^= (rng() % 255 + 1) as u8;
                match decode(Bytes::from(m.clone())) {
                    Ok(q) => {
                        assert_eq!(encode(&q), m, "{q:?}");
                        accepted += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(rejected > 0 && accepted > 0, "{rejected} vs {accepted}");
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
