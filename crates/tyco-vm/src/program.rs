//! Program representation: byte-code blocks, method tables and interned
//! symbol pools.
//!
//! §5 of the paper: *"Programs are compiled into an intermediate virtual
//! machine assembly. This in turn is compiled into hardware independent
//! byte-code. … The nested structure of the source program is preserved in
//! the final byte-code. This allows the efficient dynamic selection of
//! byte-code blocks that have to be moved between sites."*
//!
//! A **block** is the unit of code selection and mobility: each method
//! body, class body and forked parallel component compiles to its own
//! block. Shipping an object or fetching a class serializes the transitive
//! closure of the blocks it references (see [`crate::wire`]).

use std::collections::HashMap;
use std::sync::Arc;
use tyco_syntax::ast::{BinOp, UnOp};

/// Index of a block in [`Program::blocks`].
pub type BlockId = u32;
/// Index of a method table in [`Program::tables`].
pub type TableId = u32;
/// Interned method label.
pub type LabelId = u32;
/// Interned string literal.
pub type StrId = u32;

/// Import kind operand for the `Import` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImportKind {
    Name,
    Class,
}

// The values of the enumerated operand kinds, each at its wire code, with
// its assembly word.
pub(crate) const BINOPS: [(BinOp, &str); 14] = [
    (BinOp::Add, "add"),
    (BinOp::Sub, "sub"),
    (BinOp::Mul, "mul"),
    (BinOp::Div, "div"),
    (BinOp::Mod, "mod"),
    (BinOp::Eq, "eq"),
    (BinOp::Ne, "ne"),
    (BinOp::Lt, "lt"),
    (BinOp::Le, "le"),
    (BinOp::Gt, "gt"),
    (BinOp::Ge, "ge"),
    (BinOp::And, "and"),
    (BinOp::Or, "or"),
    (BinOp::Concat, "concat"),
];
pub(crate) const UNOPS: [(UnOp, &str); 2] = [(UnOp::Neg, "neg"), (UnOp::Not, "not")];
pub(crate) const IMPORT_KINDS: [(ImportKind, &str); 2] =
    [(ImportKind::Name, "name"), (ImportKind::Class, "class")];
pub(crate) const NEWLINES: [(bool, &str); 2] = [(false, "raw"), (true, "nl")];

// A value's wire code is its discriminant, so the codec encodes with `as`.
const _: () = {
    let mut i = 0;
    while i < BINOPS.len() {
        assert!(BINOPS[i].0 as usize == i);
        i += 1;
    }
    assert!(UNOPS[1].0 as usize == 1 && IMPORT_KINDS[1].0 as usize == 1);
};

/// Declares [`Operand`] from one table of kinds, each with its Rust type
/// and the value a decoder starts from, and the two mappings from a kind
/// to those that `instruction_set!` uses.
macro_rules! operand_kinds {
    ($($(#[$doc:meta])* $kind:ident($ty:ty) = $zero:expr,)*) => {
        /// One operand of an instruction, by kind, borrowed from it by
        /// [`Instr::operands`]. The kind says how the codec encodes the
        /// operand, how assembly spells it, and what it refers to.
        pub(crate) enum Operand<'a> {
            $($(#[$doc])* $kind(&'a mut $ty),)*
        }

        macro_rules! operand_ty {
            $(($kind) => { $ty };)*
        }

        macro_rules! operand_zero {
            $(($kind) => { $zero };)*
        }
    };
}

operand_kinds! {
    /// A frame slot: inside the block's register window.
    Slot(u16) = 0,
    U8(u8) = 0,
    U16(u16) = 0,
    Int(i64) = 0,
    /// A fused form's narrowed integer immediate.
    Imm(i32) = 0,
    /// Encoded and spelled as its IEEE-754 bits.
    Float(f64) = 0.0,
    Bool(bool) = false,
    /// A string-pool id, spelled as the quoted string.
    Str(StrId) = 0,
    /// A label-pool id, spelled as the bare label.
    Label(LabelId) = 0,
    /// A block of the same image.
    Block(BlockId) = 0,
    /// A method table of the same image.
    Table(TableId) = 0,
    /// A jump target: an instruction index within the block.
    Target(u32) = 0,
    /// An index into the executing class's group.
    Sibling(u8) = 0,
    /// Encoded and spelled by [`BINOPS`].
    BinOp(BinOp) = BinOp::Add,
    /// Encoded and spelled by [`UNOPS`].
    UnOp(UnOp) = UnOp::Neg,
    /// Encoded and spelled by [`IMPORT_KINDS`].
    ImportKind(ImportKind) = ImportKind::Name,
    /// Encoded and spelled by [`NEWLINES`].
    Newline(bool) = false,
}

/// Declares [`Instr`] from one table. A row is a variant with its
/// operands' kinds, in wire and assembly order, then its mnemonic. The
/// `base` rows are the wire opcodes: a row's position is its wire code.
/// The `fused` rows follow and have no wire code.
macro_rules! instruction_set {
    ($(#[$doc:meta])* base { $($base:tt)* } fused { $($fused:tt)* }) => {
        instruction_set!(@all [$(#[$doc])*] $($base)* $($fused)*);
        instruction_set!(@base $($base)*);
    };
    (@all [$(#[$doc:meta])*] $(
        $(#[$vdoc:meta])* $var:ident $(($op:ident: $kind:ident))?
        $({ $($field:ident: $fkind:ident),* })? = $name:literal,
    )*) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Instr {
            $($(#[$vdoc])* $var $((operand_ty!($kind)))? $({ $($field: operand_ty!($fkind)),* })?,)*
        }

        /// Opcode positions in the table.
        enum Op {
            $($var,)*
        }

        /// Number of distinct opcodes (base instruction set plus fused
        /// superinstructions) — the dimension of [`crate::stats::OpStats`].
        pub const NUM_OPS: usize = [$(Op::$var),*].len();

        /// Opcode names, indexed by [`Instr::op_index`].
        pub const OP_NAMES: [&str; NUM_OPS] = [$($name),*];

        impl Instr {
            /// Dense opcode index for telemetry tables, stable across
            /// runs. For a base form it is the wire opcode.
            pub fn op_index(&self) -> usize {
                match self {
                    $(Instr::$var { .. } => Op::$var as usize,)*
                }
            }

            /// Visit the operands in declared order, stopping at the
            /// first error.
            #[inline(always)]
            pub(crate) fn operands<E>(
                &mut self,
                mut f: impl FnMut(Operand<'_>) -> Result<(), E>,
            ) -> Result<(), E> {
                match self {
                    $(Instr::$var $(($op))? $({ $($field),* })? => {
                        $(f(Operand::$kind($op))?;)?
                        $($(f(Operand::$fkind($field))?;)*)?
                    })*
                }
                Ok(())
            }
        }
    };
    (@base $(
        $(#[$vdoc:meta])* $var:ident $(($op:ident: $kind:ident))?
        $({ $($field:ident: $fkind:ident),* })? = $name:literal,
    )*) => {
        /// One instruction per wire code, its operands still to be decoded.
        const BASE: &[Instr] = &[
            $(Instr::$var $((operand_zero!($kind)))? $({ $($field: operand_zero!($fkind)),* })?,)*
        ];

        /// Number of wire opcodes: the base forms.
        pub(crate) const NUM_BASE: usize = BASE.len();
    };
}

instruction_set! {
    /// The TyCO virtual machine instruction set.
    ///
    /// All value traffic goes through the per-thread operand stack; frames are
    /// addressed by slot. `TrMsg` / `TrObj` / `InstOf` are the three
    /// communication instructions of the original TyCOVM, re-implemented per
    /// §5 to dispatch on local vs. network references.
    base {
        // -- operand stack -------------------------------------------------
        /// Push frame slot.
        PushLocal(slot: Slot) = "pushlocal",
        PushInt(value: Int) = "pushint",
        PushBool(value: Bool) = "pushbool",
        PushFloat(value: Float) = "pushfloat",
        PushStr(string: Str) = "pushstr",
        PushUnit = "pushunit",
        /// Push the class word for sibling `index` of the current class frame
        /// (frame slot 0 holds the executing class's own class word).
        PushSibling(index: Sibling) = "pushsibling",
        /// Pop into frame slot.
        Store(slot: Slot) = "store",
        /// Binary builtin: pops rhs then lhs, pushes result.
        Bin(op: BinOp) = "bin",
        /// Unary builtin.
        Un(op: UnOp) = "un",

        // -- control -------------------------------------------------------
        /// Unconditional jump to absolute instruction index within the block.
        Jump(target: Target) = "jump",
        /// Pop a bool; jump when false.
        JumpIfFalse(target: Target) = "jumpiffalse",
        /// Finish the thread.
        Halt = "halt",

        // -- processes -----------------------------------------------------
        /// Allocate a fresh channel into a frame slot (`new`).
        NewChan(slot: Slot) = "newchan",
        /// Spawn a parallel component: pops `nfree` captured words (last pushed
        /// = slot 0 of the new frame... see compiler), enqueues a thread for
        /// `block`.
        Fork { block: Block, nfree: U16 } = "fork",
        /// Try-reduce a message: pops the channel word, then `argc` argument
        /// words. Local channel ⇒ COMM-or-enqueue; network reference ⇒ package
        /// and ship (SHIPM).
        TrMsg { label: Label, argc: U8 } = "trmsg",
        /// Try-reduce an object: pops the channel word, then `nfree` captured
        /// words. Local ⇒ COMM-or-enqueue; network ⇒ migrate (SHIPO).
        TrObj { table: Table, nfree: U16 } = "trobj",
        /// Instantiate: pops the class word, then `argc` arguments. Local class
        /// ⇒ INST; network class ⇒ FETCH then INST.
        InstOf { argc: U8 } = "instof",
        /// Create a (possibly mutually recursive) class group: pops `nfree`
        /// captured words; stores the `count` class words into consecutive
        /// frame slots starting at `dst`.
        MkGroup { table: Table, dst: U16, count: U8, nfree: U16 } = "mkgroup",

        // -- network (the two new instructions of §5) -----------------------
        /// Register the channel in frame slot `slot` with the network name
        /// service under `name`.
        ExportName { slot: Slot, name: Str } = "exportname",
        /// Register the class in frame slot `slot` under `name`.
        ExportClass { slot: Slot, name: Str } = "exportclass",
        /// Resolve `name` at `site` through the name service into slot `dst`.
        /// May suspend the thread until the reply arrives.
        Import { dst: Slot, site: Str, name: Str, kind: ImportKind } = "import",

        // -- I/O port --------------------------------------------------------
        /// Pop `argc` words, write them (space-joined) to the site's I/O port.
        Print { argc: U8, newline: Newline } = "print",
    }
    // Machine-internal rewrites of hot opcode digrams (see [`crate::fuse`]
    // for the pass and the telemetry that chose them). They never appear in
    // compiler output, on the wire, in images, or in assembly — every
    // serialization and verification path sees the normalized (de-sugared)
    // form, so the wire format and content digests are fusion-independent.
    fused {
        /// `PushLocal(a); PushLocal(b)`.
        PushLocal2 { a: Slot, b: Slot } = "pushlocal2",
        /// `PushLocal(slot); PushInt(imm)` (immediate narrowed to `i32`; wider
        /// literals stay unfused).
        PushLocalInt { slot: Slot, imm: Imm } = "pushlocalint",
        /// `PushInt(imm); Bin(op)`: apply `op` with an immediate right operand
        /// to the top of the stack.
        PushIntBin { imm: Imm, op: BinOp } = "pushintbin",
        /// `Bin(op); JumpIfFalse(target)`: compare-and-branch.
        BinJumpIfFalse { op: BinOp, target: Target } = "binjumpiffalse",
        /// `PushLocal(slot); TrMsg { label, argc }`: send on a channel read
        /// straight from the frame, skipping the push/pop round trip.
        PushLocalTrMsg { slot: Slot, label: Label, argc: U8 } = "pushlocaltrmsg",
        /// `PushLocal(slot); TrObj { table, nfree }`.
        PushLocalTrObj { slot: Slot, table: Table, nfree: U16 } = "pushlocaltrobj",
        /// `PushLocal(slot); InstOf { argc }`: instantiate a class read from
        /// the frame. A FETCH suspension re-executes the whole fused form (the
        /// class word is still in the frame, unlike the stack-discipline of the
        /// base `InstOf`).
        PushLocalInstOf { slot: Slot, argc: U8 } = "pushlocalinstof",
        /// `PushSibling(index); InstOf { argc }`: sibling recursion — the class
        /// word is always local, so this form can never suspend.
        PushSiblingInstOf { sib: Sibling, argc: U8 } = "pushsiblinginstof",
        /// `PushSibling(index); PushLocal(slot)`: a sibling class word followed
        /// by its first argument — every class-recursion site starts this way
        /// (telemetry ranks it ~4.5% of executed instructions).
        PushSiblingLocal { sib: Sibling, slot: Slot } = "pushsiblinglocal",
    }
}

impl Instr {
    /// The instruction a wire opcode stands for, with zero operands; `None`
    /// for a byte that is no base opcode.
    pub(crate) fn base(opcode: u8) -> Option<Instr> {
        BASE.get(opcode as usize).copied()
    }

    /// True for the machine-internal fused forms, which have no wire code.
    pub(crate) fn is_fused(&self) -> bool {
        self.op_index() >= NUM_BASE
    }

    /// [`Instr::operands`] for a visitor that cannot fail.
    #[inline(always)]
    pub(crate) fn each_operand(&mut self, mut f: impl FnMut(Operand<'_>)) {
        let Ok(()) = self.operands::<std::convert::Infallible>(|o| {
            f(o);
            Ok(())
        });
    }

    /// Human-readable opcode name for a telemetry index.
    pub fn op_name(i: usize) -> &'static str {
        OP_NAMES.get(i).copied().unwrap_or("?")
    }
}

/// A compiled code block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Diagnostic name (`"Cell.read"`, `"fork@3"`, …).
    pub name: String,
    /// Captured environment size (filled by Fork/TrObj/InstOf spawn).
    pub nfree: u16,
    /// Parameter count (method or class arguments).
    pub nparams: u16,
    /// Additional local slots.
    pub nlocals: u16,
    /// True for class bodies: frame slot 0 holds the class's own class
    /// word (captured/params shift up by one).
    pub is_class_body: bool,
    /// Shared so the interpreter can pin the executing block's code for a
    /// whole thread slice with one refcount bump (blocks are immutable
    /// once built), and so cloning a `Program` never copies byte-code.
    pub code: Arc<[Instr]>,
}

impl Block {
    /// Total frame size in words.
    pub fn frame_size(&self) -> usize {
        (self.is_class_body as usize)
            + self.nfree as usize
            + self.nparams as usize
            + self.nlocals as usize
    }
}

/// A method table: association of label → block. Object tables are looked
/// up by label; class-group tables are indexed positionally (def order).
/// Tables are a handful of entries, so lookup is a linear scan — no
/// ordering invariant to maintain across re-interning (linking, assembly).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MethodTable {
    pub entries: Vec<(LabelId, BlockId)>,
}

impl MethodTable {
    pub fn lookup(&self, label: LabelId) -> Option<BlockId> {
        self.entries.iter().find(|e| e.0 == label).map(|e| e.1)
    }
}

/// An interned symbol pool (labels, strings). Entries are refcounted so
/// the hot path (`PushStr`) can hand out a [`crate::word::Word::Str`] with
/// a refcount bump instead of allocating a fresh string per execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pool {
    items: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Pool {
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.items.len() as u32;
        let entry: Arc<str> = Arc::from(s);
        self.items.push(entry.clone());
        self.index.insert(entry, i);
        i
    }

    pub fn get(&self, i: u32) -> &str {
        &self.items[i as usize]
    }

    /// The interned entry itself — cloning is a refcount bump.
    pub fn get_arc(&self, i: u32) -> Arc<str> {
        self.items[i as usize].clone()
    }

    pub fn find(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A complete compiled program (a site's program area).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub blocks: Vec<Block>,
    pub tables: Vec<MethodTable>,
    pub labels: Pool,
    pub strings: Pool,
    /// The block where execution starts (nfree = nparams = 0).
    pub entry: BlockId,
}

impl Program {
    /// Number of instructions across all blocks (code-size metric for
    /// experiment C7's compactness comparison).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.code.len()).sum()
    }

    /// The block ids directly referenced by a block's code.
    pub fn direct_refs(&self, block: BlockId) -> (Vec<BlockId>, Vec<TableId>) {
        let mut blocks = Vec::new();
        let mut tables = Vec::new();
        for mut ins in self.blocks[block as usize].code.iter().copied() {
            ins.each_operand(|o| match o {
                Operand::Block(b) => blocks.push(*b),
                Operand::Table(t) => tables.push(*t),
                _ => {}
            });
        }
        (blocks, tables)
    }

    /// Transitive closure of blocks and tables reachable from `roots`
    /// (the unit shipped by SHIPO/FETCH).
    pub fn closure(&self, root_blocks: &[BlockId], root_tables: &[TableId]) -> Closure {
        let mut blocks: Vec<BlockId> = Vec::new();
        let mut tables: Vec<TableId> = Vec::new();
        let mut stack_b: Vec<BlockId> = root_blocks.to_vec();
        let mut stack_t: Vec<TableId> = root_tables.to_vec();
        while !stack_b.is_empty() || !stack_t.is_empty() {
            while let Some(b) = stack_b.pop() {
                if blocks.contains(&b) {
                    continue;
                }
                blocks.push(b);
                let (bs, ts) = self.direct_refs(b);
                stack_b.extend(bs);
                stack_t.extend(ts);
            }
            while let Some(t) = stack_t.pop() {
                if tables.contains(&t) {
                    continue;
                }
                tables.push(t);
                for (_, b) in &self.tables[t as usize].entries {
                    stack_b.push(*b);
                }
            }
        }
        blocks.sort_unstable();
        tables.sort_unstable();
        Closure { blocks, tables }
    }
}

/// The reachable code of a mobility unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    pub blocks: Vec<BlockId>,
    pub tables: Vec<TableId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &str, code: Vec<Instr>) -> Block {
        Block {
            name: name.into(),
            nfree: 0,
            nparams: 0,
            nlocals: 0,
            is_class_body: false,
            code: code.into(),
        }
    }

    #[test]
    fn instr_stays_two_words() {
        // The dispatch loop streams instructions from an `Arc<[Instr]>`;
        // fused variants must not widen the enum past tag + 8-byte payload
        // (`PushInt`/`PushFloat` set the floor).
        assert_eq!(std::mem::size_of::<Instr>(), 16);
    }

    #[test]
    fn op_index_is_dense_and_named() {
        let samples = [
            Instr::PushLocal(0),
            Instr::Print {
                argc: 0,
                newline: false,
            },
            Instr::PushLocal2 { a: 0, b: 1 },
            Instr::PushSiblingLocal { sib: 0, slot: 0 },
        ];
        for s in samples {
            assert!(s.op_index() < NUM_OPS);
            assert_ne!(Instr::op_name(s.op_index()), "?");
        }
        assert_eq!(Instr::op_name(NUM_OPS), "?");
        assert_eq!(
            Instr::PushSiblingLocal { sib: 0, slot: 0 }.op_index(),
            NUM_OPS - 1
        );
    }

    #[test]
    fn pool_interning_is_idempotent() {
        let mut p = Pool::default();
        let a = p.intern("read");
        let b = p.intern("write");
        assert_ne!(a, b);
        assert_eq!(p.intern("read"), a);
        assert_eq!(p.get(a), "read");
        assert_eq!(p.find("write"), Some(b));
        assert_eq!(p.find("absent"), None);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn method_table_lookup() {
        let t = MethodTable {
            entries: vec![(0, 10), (2, 11), (5, 12)],
        };
        assert_eq!(t.lookup(2), Some(11));
        assert_eq!(t.lookup(3), None);
    }

    #[test]
    fn closure_follows_forks_and_tables() {
        let mut prog = Program::default();
        // b0 forks b1; b1 uses table t0 which points at b2; b2 is a leaf.
        prog.blocks.push(block(
            "b0",
            vec![Instr::Fork { block: 1, nfree: 0 }, Instr::Halt],
        ));
        prog.blocks.push(block(
            "b1",
            vec![Instr::TrObj { table: 0, nfree: 0 }, Instr::Halt],
        ));
        prog.blocks.push(block("b2", vec![Instr::Halt]));
        prog.blocks.push(block("b3", vec![Instr::Halt])); // unreachable
        prog.tables.push(MethodTable {
            entries: vec![(0, 2)],
        });
        let c = prog.closure(&[0], &[]);
        assert_eq!(c.blocks, vec![0, 1, 2]);
        assert_eq!(c.tables, vec![0]);
    }

    #[test]
    fn frame_size_accounts_for_class_slot() {
        let mut b = block("k", vec![]);
        b.nfree = 2;
        b.nparams = 1;
        b.nlocals = 3;
        assert_eq!(b.frame_size(), 6);
        b.is_class_body = true;
        assert_eq!(b.frame_size(), 7);
    }
}
