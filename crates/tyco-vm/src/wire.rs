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

use crate::program::*;
use crate::word::NetRef;
use std::collections::HashMap;

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

/// A self-contained bundle of byte-code: blocks, method tables and symbol
/// pools, all packet-relative.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireCode {
    pub blocks: Vec<Block>,
    /// Each table is a vec of (label index into `labels`, packet block id).
    pub tables: Vec<Vec<(u32, u32)>>,
    pub labels: Vec<String>,
    pub strings: Vec<String>,
}

impl WireCode {
    /// Approximate payload size in bytes (used for bandwidth accounting
    /// before actual encoding).
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
pub struct Packed {
    pub code: WireCode,
    pub table_map: HashMap<TableId, u32>,
    /// Content digest of `code` over its canonical codec bytes, computed
    /// once at packaging time so every shipment of this image reuses it.
    pub digest: crate::digest::Digest,
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

    let code = WireCode {
        blocks,
        tables,
        labels,
        strings,
    };
    let digest = crate::codec::code_digest(&code);
    Packed {
        code,
        table_map,
        digest,
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
        assert_eq!(packed.digest, crate::codec::code_digest(&packed.code));
        // Re-packing the same program yields the same identity.
        assert_eq!(pack(&p, &[0]).digest, packed.digest);
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
