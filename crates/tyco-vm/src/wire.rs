//! Wire representation of mobile code and values, with packaging
//! (transitive block closure) and dynamic linking (relocation into the
//! receiving site's program area).
//!
//! §5 of the paper: *"The byte-code for the object and the bindings for the
//! free variables (after having been translated) are packaged into a buffer
//! and placed on the outgoing-queue addressed to the remote site"* (SHIPO);
//! *"the reply message with the packaged byte-code is received … The code
//! is then dynamically linked to the local program and the reduction
//! proceeds locally"* (FETCH).
//!
//! All identifiers inside a packet are *packet-relative*: block and table
//! ids index the packet's own vectors, and labels/strings are carried
//! symbolically so heterogeneous sites can re-intern them.

use crate::digest::Digest;
use crate::program::*;
use crate::word::NetRef;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A value on the wire (hardware-independent).
#[derive(Debug, Clone, PartialEq)]
pub enum WireWord {
    Unit,
    Int(i64),
    Bool(bool),
    Float(f64),
    Str(String),
    /// A channel, always as a network reference (senders translate local
    /// references through their export table before shipping).
    Chan(NetRef),
    /// A channel sent on by a site that is not its owner, to a site that
    /// is not its owner either. Its receiver does not count it and never
    /// releases it (DESIGN.md §20).
    FwdChan(NetRef),
    /// A class, always as a network reference.
    Class(NetRef),
}

/// A message label on the wire ([`crate::codec::Packet::Msg`]): a
/// string that costs no allocation when it is short, which nearly every
/// label is. A sender shares a longer label from its program's pool
/// ([`Label::shared`]); a receiver decodes a short one in place and
/// resolves it against its own pool without building a `String`.
#[derive(Clone)]
pub struct Label(LabelRepr);

#[derive(Clone)]
enum LabelRepr {
    /// The first `len` bytes of `bytes`, valid UTF-8.
    Inline {
        len: u8,
        bytes: [u8; Label::INLINE],
    },
    Shared(Arc<str>),
}

impl Label {
    /// Longest label kept in place (the whole fits in 24 bytes).
    const INLINE: usize = 22;

    /// `s` as a label: copied in place when short, otherwise the pool
    /// entry itself, shared by a refcount bump.
    pub fn shared(s: &Arc<str>) -> Label {
        Label::inline(s).unwrap_or_else(|| Label(LabelRepr::Shared(s.clone())))
    }

    fn inline(s: &str) -> Option<Label> {
        let len = s.len();
        (len <= Label::INLINE).then(|| {
            let mut bytes = [0; Label::INLINE];
            bytes[..len].copy_from_slice(s.as_bytes());
            Label(LabelRepr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }

    pub fn as_str(&self) -> &str {
        match &self.0 {
            LabelRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline label holds the bytes of a `&str`"),
            LabelRepr::Shared(s) => s,
        }
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::inline(s).unwrap_or_else(|| Label(LabelRepr::Shared(s.into())))
    }
}

impl Deref for Label {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Consecutive export ids `first .. first + len` that a holder site
/// releases with the same counts: it received each `recv` times from the
/// owner and sent `sent` packets to or carrying each (DESIGN.md §20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseRun {
    pub first: u64,
    pub len: u32,
    pub recv: u64,
    pub sent: u64,
}

/// The decoded form of a code image, read through [`WireCode::view`]:
/// flat, so decoding allocates per section, never per block or symbol.
/// Names, labels and strings are [`Span`]s of the image's bytes; all ids
/// are packet-relative.
#[derive(Debug, Default)]
pub struct CodeView {
    /// Every block's code, block after block.
    pub code: Vec<Instr>,
    pub blocks: Vec<BlockHead>,
    /// Every table's (label, block) entries, table after table.
    pub entries: Vec<(u32, u32)>,
    /// Each table's span of `entries`.
    pub tables: Vec<Span>,
    pub labels: Vec<Span>,
    pub strings: Vec<Span>,
}

/// A block of a [`CodeView`]: its name's span of the image's bytes, its
/// frame layout and its span of [`CodeView::code`].
pub type BlockHead = Block<Span, Span>;

/// `start..end` of an image's bytes or of a [`CodeView`] vector.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub fn of<T>(self, items: &[T]) -> &[T] {
        &items[self.start as usize..self.end as usize]
    }

    /// The string this span of an image's bytes holds.
    pub fn str(self, bytes: &[u8]) -> &str {
        std::str::from_utf8(self.of(bytes)).expect("the decoder checked an image's strings")
    }
}

/// A self-contained bundle of byte-code: its canonical codec bytes, the
/// digest of those bytes, and their decoded [`CodeView`].
///
/// An image is immutable: its bytes and digest are fixed when it is made,
/// and every shipment writes those bytes as they are. It is made by
/// [`pack`] (which keeps the bytes only) or by the codec's decoder (which
/// keeps the span of the frame it decoded, hashes it, and keeps the view
/// it filled in the same walk). An image packed on this node is decoded
/// the first time its view is read.
#[derive(Clone)]
pub struct WireCode {
    bytes: Bytes,
    digest: Digest,
    view: OnceLock<Arc<CodeView>>,
}

impl WireCode {
    /// The image of `bytes`, holding their view if it is at hand.
    pub(crate) fn from_bytes(bytes: Bytes, view: Option<CodeView>) -> WireCode {
        WireCode {
            digest: Digest::of(&bytes),
            bytes,
            view: view.map_or_else(OnceLock::new, |v| OnceLock::from(Arc::new(v))),
        }
    }

    /// Decode the image whose canonical bytes are all of `bytes`.
    pub fn decode(mut bytes: Bytes) -> Result<WireCode, crate::codec::CodecError> {
        let code = crate::codec::get_code(&mut bytes)?;
        match bytes.len() {
            0 => Ok(code),
            n => Err(crate::codec::CodecError(format!("{n} trailing bytes"))),
        }
    }

    /// The canonical codec bytes, as every shipment writes them.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// The content digest: the hash of [`bytes`](WireCode::bytes).
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The decoded form of the image, its spans of [`WireCode::bytes`].
    pub fn view(&self) -> &CodeView {
        self.view.get_or_init(|| {
            let view = crate::codec::get_view(&mut &self.bytes[..]);
            Arc::new(view.expect("an image's own bytes decode"))
        })
    }

    /// The same image pinning only its own bytes. A decoded image's
    /// bytes may be a view into the frame it arrived in; such a view is
    /// copied out, so a copy kept for long pins only itself. Bytes that
    /// already fill their allocation (the decoder's own copy of a small
    /// span, see `codec::get_code`) are shared, not copied again.
    pub fn detached(&self) -> WireCode {
        let bytes = if self.bytes.len() < self.bytes.backing_capacity() {
            Bytes::copy_from_slice(&self.bytes)
        } else {
            self.bytes.clone()
        };
        WireCode {
            bytes,
            digest: self.digest,
            view: self.view.clone(),
        }
    }
}

/// The empty image, four zero counts: a daemon's tombstone for an image
/// it no longer holds.
impl Default for WireCode {
    fn default() -> WireCode {
        WireCode::from_bytes(Bytes::from_static(&[0; 16]), Some(CodeView::default()))
    }
}

/// Two images are equal when their canonical bytes are.
impl PartialEq for WireCode {
    fn eq(&self, other: &WireCode) -> bool {
        self.digest == other.digest && self.bytes == other.bytes
    }
}

impl fmt::Debug for WireCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireCode")
            .field("digest", &format_args!("{}", self.digest))
            .field("len", &self.bytes.len())
            .finish()
    }
}

/// A migrating object: its method table (packet-relative), the closed code
/// and the translated captured environment.
#[derive(Debug, Clone, PartialEq)]
pub struct WireObj {
    pub code: WireCode,
    pub table: u32,
    pub captured: Vec<WireWord>,
}

/// A downloaded class group (FETCH payload).
#[derive(Debug, Clone, PartialEq)]
pub struct WireGroup {
    pub code: WireCode,
    pub table: u32,
    pub captured: Vec<WireWord>,
}

/// Result of packaging: the wire code and the packet id of each root
/// table, in the order given (callers translate the root table reference
/// with it). `code` holds its bytes and digest only, fixed once here so
/// every shipment of this image reuses them; a site on the same node
/// that links it decodes its view.
pub struct Packed {
    pub code: WireCode,
    pub roots: Vec<u32>,
}

/// Package the transitive closure of `root_tables` from `prog`, writing
/// the image's bytes in one pass over its blocks.
///
/// Packet-relative ids: a block or table is numbered by its place in the
/// sorted closure, a label or string by its first use (blocks in order,
/// then tables). Fused superinstructions (see [`crate::fuse`]) never go
/// on the wire: each is written as the base pair it stands for, so the
/// bytes and their digest are those of the unfused program.
pub fn pack(prog: &Program, root_tables: &[TableId]) -> Packed {
    const NONE: u32 = u32::MAX;
    let closure = prog.closure(root_tables);
    let packet_id = |ids: &[u32], id: u32| {
        ids.binary_search(&id)
            .expect("the closure holds every id its code names") as u32
    };
    // Pool id → packet id, and the pool ids in packet order.
    let mut pool_map = vec![NONE; prog.labels.len() + prog.strings.len()];
    let (label_map, string_map) = pool_map.split_at_mut(prog.labels.len());
    let (mut labels, mut strings) = (Vec::new(), Vec::new());
    fn first_use(map: &mut [u32], order: &mut Vec<u32>, id: u32) -> u32 {
        let slot = &mut map[id as usize];
        if *slot == NONE {
            *slot = order.len() as u32;
            order.push(id);
        }
        *slot
    }

    let size: usize = (closure.blocks.iter())
        .map(|&b| {
            let b = &prog.blocks[b as usize];
            crate::codec::wire_len(&b.code) * 6 + b.name.len() + 8
        })
        .sum();
    let mut buf = BytesMut::with_capacity(size + 64);
    let mut old_to_new: Vec<u32> = Vec::new();
    buf.put_u32_le(closure.blocks.len() as u32);
    for &bid in &closure.blocks {
        crate::codec::put_block(
            &mut buf,
            &prog.blocks[bid as usize],
            &mut old_to_new,
            #[inline(always)]
            |o| match o {
                Operand::Block(b) => *b = packet_id(&closure.blocks, *b),
                Operand::Table(t) => *t = packet_id(&closure.tables, *t),
                Operand::Label(l) => *l = first_use(label_map, &mut labels, *l),
                Operand::Str(s) => *s = first_use(string_map, &mut strings, *s),
                _ => {}
            },
        );
    }
    buf.put_u32_le(closure.tables.len() as u32);
    for &tid in &closure.tables {
        let entries = prog.tables[tid as usize].entries.iter().map(|&(l, b)| {
            (
                first_use(label_map, &mut labels, l),
                packet_id(&closure.blocks, b),
            )
        });
        crate::codec::put_table(&mut buf, entries);
    }
    crate::codec::put_strs(&mut buf, labels.iter().map(|&l| prog.labels.get(l)));
    crate::codec::put_strs(&mut buf, strings.iter().map(|&s| prog.strings.get(s)));
    Packed {
        code: WireCode::from_bytes(buf.freeze(), None),
        roots: (root_tables.iter())
            .map(|&t| packet_id(&closure.tables, t))
            .collect(),
    }
}

/// The relocation produced by linking a packet into a program.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkMap {
    pub blocks: Vec<BlockId>,
    pub tables: Vec<TableId>,
}

/// Dynamically link wire code into a program area: append blocks and
/// tables, re-intern symbols, and rewrite packet-relative ids.
///
/// The bundle is first run through the static verifier
/// ([`crate::verify::verify_wire`]): an unverifiable image — dangling
/// packet-relative ids, stack underflows, frame-layout lies, duplicate
/// method registrations — is refused with a typed error *before* anything
/// is appended, so a rejected packet leaves `prog` untouched.
pub fn link(prog: &mut Program, code: &WireCode) -> Result<LinkMap, crate::verify::VerifyError> {
    crate::verify::verify_wire(code)?;
    Ok(link_trusted(prog, code))
}

/// [`link`] without the verifier pass, for images that were already
/// screened — a daemon verifies every code-carrying packet once at its
/// node boundary (and re-verification of a content-addressed cache hit
/// would be pure overhead), and same-process deliveries never crossed a
/// trust boundary at all. Callers holding bytes of unknown provenance
/// must use [`link`]. The blocks are appended as they were shipped,
/// unfused: [`link_into`] with `fuse` off.
pub fn link_trusted(prog: &mut Program, code: &WireCode) -> LinkMap {
    link_into(prog, code, false)
}

/// [`link_trusted`], fusing each appended block as it is relocated when
/// `fuse` is set, so mobile code gets the same superinstructions as boot
/// code (see [`crate::fuse`]). One pass per block: each instruction is
/// relocated and paired into one reused buffer, and the block's code is
/// its one allocation.
pub fn link_into(prog: &mut Program, code: &WireCode, fuse: bool) -> LinkMap {
    let (view, bytes) = (code.view(), code.bytes());
    let reloc = Relocation {
        blocks: prog.blocks.len() as BlockId,
        tables: prog.tables.len() as TableId,
        labels: (view.labels.iter())
            .map(|l| prog.labels.intern(l.str(bytes)))
            .collect(),
        strings: (view.strings.iter())
            .map(|s| prog.strings.intern(s.str(bytes)))
            .collect(),
    };
    let mut scratch = crate::fuse::Scratch::default();
    prog.blocks.reserve(view.blocks.len());
    for b in &view.blocks {
        let src = b.code.of(&view.code);
        let code: Arc<[Instr]> = if fuse {
            crate::fuse::map_and_fuse(
                src,
                #[inline(always)]
                |i| reloc.apply(i),
                &mut scratch,
            );
            scratch.out[..].into()
        } else {
            src.iter()
                .map(
                    #[inline(always)]
                    |&i| reloc.apply(i),
                )
                .collect()
        };
        prog.blocks
            .push(b.with([b.name.str(bytes), "'"].concat(), code));
    }
    for t in &view.tables {
        let mut entries: Vec<(LabelId, BlockId)> = (t.of(&view.entries).iter())
            .map(|&(l, b)| (reloc.labels[l as usize], reloc.blocks + b))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        prog.tables.push(MethodTable { entries });
    }

    LinkMap {
        blocks: (reloc.blocks..prog.blocks.len() as BlockId).collect(),
        tables: (reloc.tables..prog.tables.len() as TableId).collect(),
    }
}

/// Packet-relative ids to the ids of the program an image is linked
/// into: blocks and tables are appended after `blocks` and `tables`, and
/// symbols are re-interned into its pools.
struct Relocation {
    blocks: BlockId,
    tables: TableId,
    labels: Vec<LabelId>,
    strings: Vec<StrId>,
}

impl Relocation {
    /// `ins` with its ids relocated; only an opcode that carries an id
    /// visits its operands.
    #[inline(always)]
    fn apply(&self, mut ins: Instr) -> Instr {
        if ins.refers(Refers::Id) {
            ins.each_operand(
                #[inline(always)]
                |o| match o {
                    Operand::Block(b) => *b += self.blocks,
                    Operand::Table(t) => *t += self.tables,
                    Operand::Label(l) => *l = self.labels[*l as usize],
                    Operand::Str(s) => *s = self.strings[*s as usize],
                    _ => {}
                },
            );
        }
        ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use tyco_syntax::parse_core;

    fn prog(src: &str) -> Program {
        compile(&parse_core(src).unwrap()).unwrap()
    }

    #[test]
    fn pack_then_link_preserves_structure() {
        // An object whose method forks and sends: exercises every remapped
        // instruction family.
        let p = prog(
            r#"new x x?{ go(n) = (print(n) | x!go[n - 1] | x?{ go(m) = println("deep", m) }) }"#,
        );
        assert_eq!(p.tables.len(), 2);
        let packed = pack(&p, &[0, 1]);
        let (view, bytes) = (packed.code.view(), packed.code.bytes());
        // The packet must contain both tables and all reachable blocks.
        assert_eq!(view.tables.len(), 2);
        assert!(!view.blocks.is_empty());
        assert!(view.labels.iter().any(|l| l.str(bytes) == "go"));
        assert!(view.strings.iter().any(|s| s.str(bytes) == "deep"));

        // Link into an empty destination program.
        let mut dest = Program::default();
        let lm = link(&mut dest, &packed.code).unwrap();
        assert_eq!(dest.blocks.len(), view.blocks.len());
        assert_eq!(dest.tables.len(), 2);
        // Every table entry's block id is in range.
        for t in &dest.tables {
            for (_, b) in &t.entries {
                assert!((*b as usize) < dest.blocks.len());
            }
        }
        // LinkMap covers everything.
        assert_eq!(lm.blocks.len(), dest.blocks.len());
    }

    #[test]
    fn packet_ids_are_dense_and_self_contained() {
        let p = prog("new x (x?{ a() = 0, b(u) = print(u) } | x!a[])");
        let packed = pack(&p, &[0]);
        let view = packed.code.view();
        for ins in &view.code {
            match ins {
                Instr::Fork { block, .. } => {
                    assert!((*block as usize) < view.blocks.len());
                }
                Instr::TrMsg { label, .. } => {
                    assert!((*label as usize) < view.labels.len());
                }
                Instr::TrObj { table, .. } | Instr::MkGroup { table, .. } => {
                    assert!((*table as usize) < view.tables.len());
                }
                Instr::PushStr(s) => {
                    assert!((*s as usize) < view.strings.len());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn linking_twice_appends_disjoint_copies() {
        let p = prog("new x x?{ ping() = println(\"pong\") }");
        let packed = pack(&p, &[0]);
        let mut dest = Program::default();
        let lm1 = link(&mut dest, &packed.code).unwrap();
        let lm2 = link(&mut dest, &packed.code).unwrap();
        assert_ne!(lm1.blocks, lm2.blocks);
        assert_eq!(dest.blocks.len(), 2 * packed.code.view().blocks.len());
        // Interned symbols are shared, not duplicated.
        assert_eq!(dest.labels.len(), packed.code.view().labels.len());
    }

    #[test]
    fn pack_stamps_the_canonical_digest() {
        let p = prog("def Loop(n) = if n > 0 then Loop[n - 1] else println(\"done\") in Loop[3]");
        let packed = pack(&p, &[0]);
        let bytes = crate::codec::code_bytes(&packed.code);
        assert_eq!(packed.code.digest(), crate::digest::Digest::of(&bytes));
        // Re-packing the same program yields the same identity.
        assert_eq!(pack(&p, &[0]).code.digest(), packed.code.digest());
    }

    #[test]
    fn class_group_packs_with_recursion() {
        let p = prog("def Loop(n) = if n > 0 then Loop[n - 1] else println(\"done\") in Loop[3]");
        // Find the group table (positional, with Loop's body).
        let packed = pack(&p, &[0]);
        let view = packed.code.view();
        assert_eq!(view.tables.len(), 1);
        let loop_block = &view.blocks[view.tables[0].of(&view.entries)[0].1 as usize];
        assert!(loop_block.is_class_body);
        assert!((loop_block.code.of(&view.code).iter()).any(|i| matches!(i, Instr::PushSibling(0))));
    }
}
