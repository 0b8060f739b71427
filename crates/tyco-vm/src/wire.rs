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
use bytes::{Bytes, BytesMut};
use std::collections::HashMap;
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

/// The decoded parts of a code image: blocks, method tables and symbol
/// pools, all packet-relative.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeParts {
    pub blocks: Vec<Block>,
    /// Each table is a vec of (label index into `labels`, packet block id).
    pub tables: Vec<Vec<(u32, u32)>>,
    pub labels: Vec<String>,
    pub strings: Vec<String>,
}

impl CodeParts {
    /// Approximate encoded size in bytes (the encoder's first reserve).
    pub fn approx_size(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.code.len() * 6 + b.name.len() + 8)
            .sum::<usize>()
            + self.tables.iter().map(|t| t.len() * 8).sum::<usize>()
            + self.labels.iter().map(|s| s.len() + 4).sum::<usize>()
            + self.strings.iter().map(|s| s.len() + 4).sum::<usize>()
    }
}

/// A self-contained bundle of byte-code: its canonical codec bytes, the
/// digest of those bytes, and its [`CodeParts`] (read through `Deref`).
///
/// An image is immutable: its bytes and digest are fixed when it is made,
/// and every shipment writes those bytes as they are. It is made by
/// [`WireCode::new`] from parts, by [`pack`] (which keeps the bytes
/// only), or by the codec's decoder (which keeps the span of the frame it
/// decoded, hashes it, and keeps the parts). Parts an image does not hold
/// are decoded from its bytes the first time they are read.
#[derive(Clone)]
pub struct WireCode {
    bytes: Bytes,
    digest: Digest,
    parts: OnceLock<Arc<CodeParts>>,
}

impl WireCode {
    /// Encode `parts` once and hash the bytes.
    pub fn new(parts: CodeParts) -> WireCode {
        WireCode::from_bytes(encode_parts(&parts), Some(parts))
    }

    /// The image whose canonical bytes are `bytes`, holding `parts` if
    /// they are at hand.
    pub(crate) fn from_bytes(bytes: Bytes, parts: Option<CodeParts>) -> WireCode {
        WireCode {
            digest: Digest::of(&bytes),
            bytes,
            parts: parts.map_or_else(OnceLock::new, |p| OnceLock::from(Arc::new(p))),
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

    /// The same image holding its own copy of its bytes. A decoded
    /// image's bytes are a view into the frame it arrived in; a copy kept
    /// for long pins only itself.
    pub fn detached(&self) -> WireCode {
        WireCode {
            bytes: Bytes::copy_from_slice(&self.bytes),
            digest: self.digest,
            parts: self.parts.clone(),
        }
    }
}

fn encode_parts(parts: &CodeParts) -> Bytes {
    let mut buf = BytesMut::with_capacity(parts.approx_size());
    crate::codec::put_parts(&mut buf, parts);
    buf.freeze()
}

impl Deref for WireCode {
    type Target = CodeParts;

    fn deref(&self) -> &CodeParts {
        self.parts.get_or_init(|| {
            let parts = crate::codec::get_parts(&mut self.bytes.clone());
            Arc::new(parts.expect("an image's own bytes decode"))
        })
    }
}

impl Default for WireCode {
    fn default() -> WireCode {
        WireCode::new(CodeParts::default())
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

/// Result of packaging: the wire code plus the mapping from program ids to
/// packet ids (callers need it to translate the root table reference).
/// `code` holds its bytes and digest only, fixed once here so every
/// shipment of this image reuses them; a site on the same node that
/// links it decodes its own copy.
pub struct Packed {
    pub code: WireCode,
    pub table_map: HashMap<TableId, u32>,
}

/// Package the transitive closure of `root_tables` from `prog`.
pub fn pack(prog: &Program, root_tables: &[TableId]) -> Packed {
    let closure = prog.closure(&[], root_tables);
    let mut block_map: HashMap<BlockId, u32> = HashMap::new();
    for (i, b) in closure.blocks.iter().enumerate() {
        block_map.insert(*b, i as u32);
    }
    let mut table_map: HashMap<TableId, u32> = HashMap::new();
    for (i, t) in closure.tables.iter().enumerate() {
        table_map.insert(*t, i as u32);
    }
    let mut labels: Vec<String> = Vec::new();
    let mut label_map: HashMap<LabelId, u32> = HashMap::new();
    let mut strings: Vec<String> = Vec::new();
    let mut string_map: HashMap<StrId, u32> = HashMap::new();
    // Packet-relative symbol ids, in order of first use.
    fn remap(pool: &Pool, out: &mut Vec<String>, map: &mut HashMap<u32, u32>, id: u32) -> u32 {
        *map.entry(id).or_insert_with(|| {
            out.push(pool.get(id).to_string());
            (out.len() - 1) as u32
        })
    }

    let mut blocks = Vec::with_capacity(closure.blocks.len());
    for &bid in &closure.blocks {
        let src = &prog.blocks[bid as usize];
        // Fused superinstructions (see `crate::fuse`) never go on the wire:
        // ship the normalized form so the frozen opcode set and the content
        // digests computed from these bytes stay fusion-independent.
        let normalized = crate::fuse::unfuse_code(&src.code);
        let src_code: &[Instr] = normalized.as_deref().unwrap_or(&src.code);
        let code = src_code
            .iter()
            .copied()
            .map(|mut ins| {
                ins.each_operand(|o| match o {
                    // By value: a key borrowed from `ins` would keep it
                    // in memory for every instruction.
                    Operand::Block(b) => *b = block_map[&{ *b }],
                    Operand::Table(t) => *t = table_map[&{ *t }],
                    Operand::Label(l) => *l = remap(&prog.labels, &mut labels, &mut label_map, *l),
                    Operand::Str(s) => *s = remap(&prog.strings, &mut strings, &mut string_map, *s),
                    _ => {}
                });
                ins
            })
            .collect();
        blocks.push(Block {
            name: src.name.clone(),
            nfree: src.nfree,
            nparams: src.nparams,
            nlocals: src.nlocals,
            is_class_body: src.is_class_body,
            code,
        });
    }

    let tables = closure
        .tables
        .iter()
        .map(|&tid| {
            prog.tables[tid as usize]
                .entries
                .iter()
                .map(|(l, b)| {
                    let l = remap(&prog.labels, &mut labels, &mut label_map, *l);
                    (l, block_map[b])
                })
                .collect()
        })
        .collect();

    let parts = CodeParts {
        blocks,
        tables,
        labels,
        strings,
    };
    Packed {
        code: WireCode::from_bytes(encode_parts(&parts), None),
        table_map,
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
/// must use [`link`].
pub fn link_trusted(prog: &mut Program, code: &WireCode) -> LinkMap {
    let label_ids: Vec<LabelId> = code.labels.iter().map(|l| prog.labels.intern(l)).collect();
    let string_ids: Vec<StrId> = code
        .strings
        .iter()
        .map(|s| prog.strings.intern(s))
        .collect();
    let base_block = prog.blocks.len() as BlockId;
    let block_ids: Vec<BlockId> = (0..code.blocks.len() as u32)
        .map(|i| base_block + i)
        .collect();
    let base_table = prog.tables.len() as TableId;
    let table_ids: Vec<TableId> = (0..code.tables.len() as u32)
        .map(|i| base_table + i)
        .collect();

    for b in &code.blocks {
        let code = b
            .code
            .iter()
            .copied()
            .map(|mut ins| {
                ins.each_operand(|o| match o {
                    Operand::Block(b) => *b += base_block,
                    Operand::Table(t) => *t += base_table,
                    Operand::Label(l) => *l = label_ids[*l as usize],
                    Operand::Str(s) => *s = string_ids[*s as usize],
                    _ => {}
                });
                ins
            })
            .collect();
        prog.blocks.push(Block {
            name: format!("{}'", b.name),
            nfree: b.nfree,
            nparams: b.nparams,
            nlocals: b.nlocals,
            is_class_body: b.is_class_body,
            code,
        });
    }
    for t in &code.tables {
        let mut entries: Vec<(LabelId, BlockId)> = t
            .iter()
            .map(|(l, b)| (label_ids[*l as usize], block_ids[*b as usize]))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        prog.tables.push(MethodTable { entries });
    }

    LinkMap {
        blocks: block_ids,
        tables: table_ids,
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
        // The packet must contain both tables and all reachable blocks.
        assert_eq!(packed.code.tables.len(), 2);
        assert!(!packed.code.blocks.is_empty());
        assert!(packed.code.labels.iter().any(|l| l == "go"));
        assert!(packed.code.strings.iter().any(|s| s == "deep"));

        // Link into an empty destination program.
        let mut dest = Program::default();
        let lm = link(&mut dest, &packed.code).unwrap();
        assert_eq!(dest.blocks.len(), packed.code.blocks.len());
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
        for b in &packed.code.blocks {
            for ins in b.code.iter() {
                match ins {
                    Instr::Fork { block, .. } => {
                        assert!((*block as usize) < packed.code.blocks.len());
                    }
                    Instr::TrMsg { label, .. } => {
                        assert!((*label as usize) < packed.code.labels.len());
                    }
                    Instr::TrObj { table, .. } | Instr::MkGroup { table, .. } => {
                        assert!((*table as usize) < packed.code.tables.len());
                    }
                    Instr::PushStr(s) => {
                        assert!((*s as usize) < packed.code.strings.len());
                    }
                    _ => {}
                }
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
        assert_eq!(dest.blocks.len(), 2 * packed.code.blocks.len());
        // Interned symbols are shared, not duplicated.
        assert_eq!(dest.labels.len(), packed.code.labels.len());
    }

    #[test]
    fn pack_stamps_the_canonical_digest() {
        let p = prog("def Loop(n) = if n > 0 then Loop[n - 1] else println(\"done\") in Loop[3]");
        let packed = pack(&p, &[0]);
        let bytes = crate::codec::code_bytes(&packed.code);
        assert_eq!(packed.code.digest(), crate::digest::Digest::of(&bytes));
        // The parts decoded from those bytes encode back to them.
        assert_eq!(
            WireCode::new(CodeParts::clone(&packed.code)).bytes(),
            &bytes
        );
        // Re-packing the same program yields the same identity.
        assert_eq!(pack(&p, &[0]).code.digest(), packed.code.digest());
    }

    #[test]
    fn class_group_packs_with_recursion() {
        let p = prog("def Loop(n) = if n > 0 then Loop[n - 1] else println(\"done\") in Loop[3]");
        // Find the group table (positional, with Loop's body).
        let packed = pack(&p, &[0]);
        assert_eq!(packed.code.tables.len(), 1);
        let loop_block = &packed.code.blocks[packed.code.tables[0][0].1 as usize];
        assert!(loop_block.is_class_body);
        assert!(loop_block
            .code
            .iter()
            .any(|i| matches!(i, Instr::PushSibling(0))));
    }
}
