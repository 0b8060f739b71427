//! Static byte-code verifier: abstract interpretation of code images
//! *before* they are linked into a program area.
//!
//! DiTyCO ships emulated byte-code between sites (SHIPO / FETCH, §5 of the
//! paper) and dynamically links it into the receiver's program area. A
//! corrupt or adversarial packet could therefore make the emulator index
//! out of bounds or misinterpret a heap word. This module is the static
//! gate: every [`WireCode`] bundle (and every whole [`Program`] image) is
//! checked once, after decode and before link, so the dispatch loop in
//! `machine.rs` never has to re-validate ids or stack depths.
//!
//! The design follows the JVM-verifier shape, specialised to the TyCO
//! instruction set:
//!
//! * **Referential integrity** — every block, method-table, label and
//!   string id referenced by an instruction or a table entry indexes into
//!   the image's own vectors.
//! * **Register-window bounds** — every frame slot access (`pushloc`,
//!   `store`, `newc`, `mkgroup`, `export*`, `import`) stays inside the
//!   block's declared frame (`frame_size()`).
//! * **Operand-stack simulation** — per block, a worklist pass computes
//!   the stack depth and an abstract word kind (`unit`, `int`, `bool`,
//!   `float`, `str`, `chan`, `class`/code-ref, or `⊤`) for every program
//!   point. Underflow, depth disagreement at join points, and *provable*
//!   kind misuse (e.g. `instof` on an integer) are rejected.
//! * **Frame-layout consistency** — a `fork` target must expect exactly
//!   the captured words the spawner pushes; method-table entries reached
//!   by `trobj` must be plain method bodies with matching capture counts;
//!   `mkgroup` tables must contain class bodies (slot 0 holds the
//!   self-class word).
//!
//! Kind checking is deliberately *lenient where the emulator is already
//! safe*: the machine raises clean `VmError`s for dynamically-detected
//! type confusion (`NotAChannel`, `BadOperands`, …), so the verifier only
//! rejects kind errors it can prove, and never rejects any image the
//! compiler produces from a well-typed source (the soundness property
//! tested in `tests/verify_props.rs`).

use crate::program::{Block, Operand, Pool, Program, NUM_BASE};
use crate::wire::{Span, WireCode};
use crate::Instr;
use std::borrow::Cow;
use std::fmt;

/// A static well-formedness violation found in a code image.
///
/// Every variant carries enough context (block index, program counter) to
/// point at the offending instruction of the *image*, i.e. packet-relative
/// ids for [`verify_wire`] and program ids for [`verify_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program's entry block is missing or expects captures/params.
    BadEntry(String),
    /// An instruction references an id outside the image (`what` is one of
    /// `"block"`, `"table"`, `"label"`, `"string"`).
    BadRef {
        block: u32,
        pc: u32,
        what: &'static str,
        id: u32,
        limit: u32,
    },
    /// A frame-slot access outside the block's register window.
    BadSlot {
        block: u32,
        pc: u32,
        slot: u32,
        frame: u32,
    },
    /// The operand stack would underflow.
    Underflow {
        block: u32,
        pc: u32,
        need: u32,
        have: u32,
    },
    /// Two control-flow paths reach the same point with different depths.
    DepthMismatch { block: u32, pc: u32, a: u32, b: u32 },
    /// A provable abstract-kind misuse (e.g. `instof` on an int).
    KindMismatch {
        block: u32,
        pc: u32,
        expected: &'static str,
        found: &'static str,
    },
    /// A jump target outside the block (`target == len` is the legal
    /// fall-off-the-end halt).
    BadJump {
        block: u32,
        pc: u32,
        target: u32,
        len: u32,
    },
    /// A closure-layout disagreement between a spawn site and its target
    /// block (fork capture count, class-body flag, …).
    FrameLayout { block: u32, pc: u32, detail: String },
    /// A method table entry with an out-of-range label or block id.
    BadTable { table: u32, detail: String },
    /// The same label (method or class id) registered twice in one table:
    /// linking would silently shadow the earlier block.
    DuplicateMethod { table: u32, label: String },
    /// `pushsib` outside a class body (slot 0 holds no class word there).
    SiblingOutsideClass { block: u32, pc: u32 },
    /// A block declares a register window larger than [`MAX_FRAME`]: a
    /// mobile image must not be able to demand an arbitrarily large
    /// allocation per activation.
    FrameTooLarge { block: u32, size: u32, limit: u32 },
}

/// Resource bound on a block's register window (`nfree + nparams +
/// nlocals`, plus the self-class slot). The compiler emits frames of at
/// most a few dozen slots; a fetched image declaring more is either
/// corrupt or a memory bomb — every instantiation would allocate the
/// declared size up front.
pub const MAX_FRAME: u32 = 4096;

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadEntry(d) => write!(f, "bad entry block: {d}"),
            VerifyError::BadRef {
                block,
                pc,
                what,
                id,
                limit,
            } => write!(
                f,
                "block {block} pc {pc}: {what} id {id} out of range (< {limit})"
            ),
            VerifyError::BadSlot {
                block,
                pc,
                slot,
                frame,
            } => write!(
                f,
                "block {block} pc {pc}: frame slot {slot} outside window (frame size {frame})"
            ),
            VerifyError::Underflow {
                block,
                pc,
                need,
                have,
            } => write!(
                f,
                "block {block} pc {pc}: operand stack underflow (need {need}, have {have})"
            ),
            VerifyError::DepthMismatch { block, pc, a, b } => write!(
                f,
                "block {block} pc {pc}: inconsistent stack depth at join ({a} vs {b})"
            ),
            VerifyError::KindMismatch {
                block,
                pc,
                expected,
                found,
            } => write!(
                f,
                "block {block} pc {pc}: expected {expected} on stack, found {found}"
            ),
            VerifyError::BadJump {
                block,
                pc,
                target,
                len,
            } => write!(
                f,
                "block {block} pc {pc}: jump target {target} outside block (len {len})"
            ),
            VerifyError::FrameLayout { block, pc, detail } => {
                write!(f, "block {block} pc {pc}: frame layout mismatch: {detail}")
            }
            VerifyError::BadTable { table, detail } => {
                write!(f, "method table {table}: {detail}")
            }
            VerifyError::DuplicateMethod { table, label } => write!(
                f,
                "method table {table}: duplicate registration for label `{label}`"
            ),
            VerifyError::SiblingOutsideClass { block, pc } => {
                write!(f, "block {block} pc {pc}: pushsib outside a class body")
            }
            VerifyError::FrameTooLarge { block, size, limit } => {
                write!(
                    f,
                    "block {block}: frame of {size} slots exceeds the {limit}-slot limit"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Abstract word kind — the verifier's value lattice. `Top` (⊤) is
/// "any word"; everything else is an exactly-known kind. The paper's
/// "code-ref" words are `Class` (a class/group reference is the only word
/// that carries code identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Top,
    Unit,
    Int,
    Bool,
    Float,
    Str,
    Chan,
    Class,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Top => "any",
            Kind::Unit => "unit",
            Kind::Int => "int",
            Kind::Bool => "bool",
            Kind::Float => "float",
            Kind::Str => "string",
            Kind::Chan => "channel",
            Kind::Class => "class",
        }
    }

    fn join(self, other: Kind) -> Kind {
        if self == other {
            self
        } else {
            Kind::Top
        }
    }
}

/// Where the image's label names live (for error messages only).
enum Labels<'a> {
    Pool(&'a Pool),
    Spans(&'a [Span], &'a [u8]),
}

impl Labels<'_> {
    fn name(&self, l: u32) -> &str {
        match self {
            Labels::Pool(p) => p.get(l),
            Labels::Spans(spans, bytes) => spans[l as usize].str(bytes),
        }
    }
}

/// A borrowed, representation-agnostic view of a code image: whole
/// programs and packet-relative wire bundles verify identically.
struct View<'a> {
    /// Each block's frame layout and code.
    blocks: Vec<Block<(), &'a [Instr]>>,
    tables: Vec<&'a [(u32, u32)]>,
    labels: Labels<'a>,
    nlabels: u32,
    nstrings: u32,
    /// Upper bound on any valid `pushsib` index. A class group's members
    /// are the entries of one method table from the image that shipped
    /// the group's code (`MkGroup` locally, `link_group` for fetched
    /// code), so no sibling index can reach past the image's widest
    /// table.
    max_sibling: u32,
}

/// An abstract machine state: the kinds of the block's frame slots (a
/// prefix of fixed width `frame_size()`), then the kinds on the operand
/// stack. Two states of one block have the same stack depth exactly when
/// they have the same length.
type State = Vec<Kind>;

/// Marks, in [`Joins::at`], a program point that keeps no state.
const CARRIED: u32 = u32::MAX;

/// A program point whose in-state is kept: a jump target (a join — it
/// may have several predecessors) or the fall-through of a conditional
/// jump (interpreted after the jump's target, so its state must wait).
#[derive(Clone, Copy, Default)]
struct Kept {
    /// The state is `Joins::states[off..off + len]` once `seen`.
    off: u32,
    len: u32,
    seen: bool,
    /// The state changed since this point was last interpreted.
    dirty: bool,
}

/// The states kept for one block.
#[derive(Default)]
struct Joins {
    /// Per program point: an index into `kept`, or [`CARRIED`].
    at: Vec<u32>,
    kept: Vec<Kept>,
    /// Backing store of every kept state.
    states: Vec<Kind>,
}

impl Joins {
    /// Start a block: mark every jump target inside it, and what follows
    /// each conditional jump.
    fn mark(&mut self, code: &[Instr]) {
        self.at.clear();
        self.at.resize(code.len(), CARRIED);
        self.kept.clear();
        self.states.clear();
        for (pc, ins) in code.iter().enumerate() {
            match *ins {
                Instr::Jump(t) => self.keep(t as usize),
                Instr::JumpIfFalse(t) => {
                    self.keep(pc + 1);
                    self.keep(t as usize);
                }
                _ => {}
            }
        }
    }

    fn keep(&mut self, pc: usize) {
        if let Some(at) = self.at.get_mut(pc) {
            if *at == CARRIED {
                *at = self.kept.len() as u32;
                self.kept.push(Kept::default());
            }
        }
    }

    fn is_kept(&self, pc: u32) -> bool {
        self.at[pc as usize] != CARRIED
    }

    /// Merge `src` into the state kept at `pc`. Returns `Ok(true)` if
    /// that changed it, `Err((a, b))` if the two states differ in length.
    /// `pc` one past the end keeps nothing: falling off the end of the
    /// block halts the thread.
    fn flow(&mut self, pc: u32, src: &[Kind]) -> Result<bool, (u32, u32)> {
        let Some(&at) = self.at.get(pc as usize) else {
            return Ok(false);
        };
        let k = &mut self.kept[at as usize];
        if !k.seen {
            *k = Kept {
                off: self.states.len() as u32,
                len: src.len() as u32,
                seen: true,
                dirty: true,
            };
            self.states.extend_from_slice(src);
            return Ok(true);
        }
        if k.len as usize != src.len() {
            return Err((k.len, src.len() as u32));
        }
        let mut changed = false;
        let cur = &mut self.states[k.off as usize..(k.off + k.len) as usize];
        for (c, s) in cur.iter_mut().zip(src) {
            let j = c.join(*s);
            changed |= j != *c;
            *c = j;
        }
        k.dirty |= changed;
        Ok(changed)
    }

    /// Take the state kept at `pc` for interpretation; `None` if it has
    /// not changed since it was last taken.
    fn take(&mut self, pc: u32) -> Option<&[Kind]> {
        let k = &mut self.kept[self.at[pc as usize] as usize];
        let dirty = std::mem::take(&mut k.dirty);
        dirty.then(|| &self.states[k.off as usize..(k.off + k.len) as usize])
    }
}

/// The driver's working memory, reused across the blocks of an image so
/// that verifying straight-line code allocates nothing per instruction.
#[derive(Default)]
struct Scratch {
    /// The running state, carried from one instruction to the next.
    run: State,
    joins: Joins,
    /// Kept points whose state changed, most recent last.
    work: Vec<u32>,
}

impl<'a> View<'a> {
    fn of_wire(code: &'a WireCode) -> Self {
        let v = code.view();
        let blocks = v.blocks.iter().map(|b| b.with((), b.code.of(&v.code)));
        View::new(
            blocks.collect(),
            v.tables.iter().map(|t| t.of(&v.entries)).collect(),
            Labels::Spans(&v.labels, code.bytes()),
            v.labels.len(),
            v.strings.len(),
        )
    }

    fn of_program(prog: &'a Program) -> Self {
        View::new(
            prog.blocks
                .iter()
                .map(|b| b.with((), &b.code[..]))
                .collect(),
            prog.tables.iter().map(|t| t.entries.as_slice()).collect(),
            Labels::Pool(&prog.labels),
            prog.labels.len(),
            prog.strings.len(),
        )
    }

    fn new(
        blocks: Vec<Block<(), &'a [Instr]>>,
        tables: Vec<&'a [(u32, u32)]>,
        labels: Labels<'a>,
        nlabels: usize,
        nstrings: usize,
    ) -> Self {
        let max_sibling = tables.iter().map(|t| t.len()).max().unwrap_or(0) as u32;
        View {
            blocks,
            tables,
            labels,
            nlabels: nlabels as u32,
            nstrings: nstrings as u32,
            max_sibling,
        }
    }

    fn check(&self) -> Result<(), VerifyError> {
        self.check_tables()?;
        let mut scratch = Scratch::default();
        for bi in 0..self.blocks.len() as u32 {
            self.check_block(bi, &mut scratch)?;
        }
        Ok(())
    }

    /// [`View::check`] through the reference driver.
    #[cfg(test)]
    fn check_reference(&self) -> Result<(), VerifyError> {
        self.check_tables()?;
        (0..self.blocks.len() as u32).try_for_each(|bi| self.check_block_reference(bi))
    }

    /// Label-table referential integrity: every entry indexes a real
    /// label and a real block, and no label is registered twice (method
    /// dispatch and positional class lookup both take the *first* match,
    /// so a duplicate would silently shadow the earlier block).
    fn check_tables(&self) -> Result<(), VerifyError> {
        let mut seen: Vec<u32> = Vec::with_capacity(self.max_sibling as usize);
        for (ti, entries) in self.tables.iter().enumerate() {
            seen.clear();
            for &(l, b) in entries.iter() {
                if l >= self.nlabels {
                    return Err(VerifyError::BadTable {
                        table: ti as u32,
                        detail: format!("label id {l} out of range (< {})", self.nlabels),
                    });
                }
                if b as usize >= self.blocks.len() {
                    return Err(VerifyError::BadTable {
                        table: ti as u32,
                        detail: format!("block id {b} out of range (< {})", self.blocks.len()),
                    });
                }
                if seen.contains(&l) {
                    return Err(VerifyError::DuplicateMethod {
                        table: ti as u32,
                        label: self.labels.name(l).to_owned(),
                    });
                }
                seen.push(l);
            }
        }
        Ok(())
    }

    /// The frame-size bound, then the block's code as the transfer
    /// function models it and the state its spawner builds (in `entry`).
    ///
    /// Fused superinstructions (machine-internal, see `crate::fuse`) are
    /// verified through their normalized two-instruction expansion, so
    /// the abstract interpreter models only the base instruction set and
    /// fusion can never change a verification verdict. (Error `pc`s for
    /// a fused block refer to the normalized code.)
    fn enter_block(&self, bi: u32, entry: &mut State) -> Result<Cow<'a, [Instr]>, VerifyError> {
        let b = &self.blocks[bi as usize];
        if b.frame_size() as u32 > MAX_FRAME {
            return Err(VerifyError::FrameTooLarge {
                block: bi,
                size: b.frame_size() as u32,
                limit: MAX_FRAME,
            });
        }
        // The self-class word (class bodies only), then captures and
        // parameters of unknown kind, then locals — which the machine
        // zero-fills with `unit` words. The operand stack starts empty.
        entry.clear();
        if b.is_class_body {
            entry.push(Kind::Class);
        }
        entry.extend(std::iter::repeat_n(
            Kind::Top,
            b.nfree as usize + b.nparams as usize,
        ));
        entry.extend(std::iter::repeat_n(Kind::Unit, b.nlocals as usize));
        Ok(match crate::fuse::unfuse_code(b.code) {
            Some(code) => Cow::Owned(code),
            None => Cow::Borrowed(b.code),
        })
    }

    /// Abstract interpretation of one block, in *runs*. A program point
    /// that no jump targets has one predecessor, the instruction before
    /// it, so its in-state is that instruction's out-state: it is carried
    /// in `scratch.run` and never stored. States are kept, and merged,
    /// only at the [`Kept`] points. A run ends at a `Halt` or a jump, at
    /// the end of the block, or on reaching a kept point that the
    /// arriving state does not change; the next run starts at the most
    /// recently changed kept point. Program points are visited in the
    /// order of a depth-first worklist over *every* point
    /// (`check_block_reference`, which the tests compare against), so
    /// this reaches the same fixpoint and reports the same first error.
    fn check_block(&self, bi: u32, scratch: &mut Scratch) -> Result<(), VerifyError> {
        let Scratch { run, joins, work } = scratch;
        let code = self.enter_block(bi, run)?;
        let code = &code[..];
        let len = code.len() as u32;
        if len == 0 {
            return Ok(());
        }
        let b = &self.blocks[bi as usize];
        joins.mark(code);
        work.clear();
        let frame = b.frame_size() as u32;
        let flow = |joins: &mut Joins, to: u32, run: &State| {
            joins
                .flow(to, run)
                .map_err(|(a, b)| VerifyError::DepthMismatch {
                    block: bi,
                    pc: to,
                    a: a - frame,
                    b: b - frame,
                })
        };
        // The entry is a join like any other when a jump targets it: the
        // spawner's state is only the first to arrive there.
        if joins.is_kept(0) {
            flow(joins, 0, run)?;
            joins.take(0);
        }
        let mut pc = 0;
        loop {
            // One run; `run` is the in-state of `pc`.
            loop {
                match self.step(bi, b, code, pc, run)? {
                    Succ::Fall => {
                        pc += 1;
                        if pc == len {
                            break;
                        }
                        if joins.is_kept(pc) {
                            if !flow(joins, pc, run)? {
                                break;
                            }
                            let merged = joins.take(pc).expect("just changed");
                            run.copy_from_slice(merged);
                        }
                    }
                    Succ::Jump(t) => {
                        if flow(joins, t, run)? {
                            work.push(t);
                        }
                        break;
                    }
                    Succ::Branch(t) => {
                        if flow(joins, pc + 1, run)? {
                            work.push(pc + 1);
                        }
                        if flow(joins, t, run)? {
                            work.push(t);
                        }
                        break;
                    }
                    Succ::Halt => break,
                }
            }
            // A point queued more than once is interpreted once, in its
            // latest state: the older entries find nothing to take.
            pc = loop {
                let Some(next) = work.pop() else {
                    return Ok(());
                };
                if let Some(state) = joins.take(next) {
                    run.clear();
                    run.extend_from_slice(state);
                    break next;
                }
            };
        }
    }

    /// The per-`pc` worklist `check_block` replaced, kept as the
    /// reference the equivalence tests compare it against: one optional
    /// state per program point, every step clones its in-state out of
    /// the table and merges its out-state into each successor's.
    #[cfg(test)]
    fn check_block_reference(&self, bi: u32) -> Result<(), VerifyError> {
        let mut entry = State::new();
        let code = self.enter_block(bi, &mut entry)?;
        let code = &code[..];
        let len = code.len() as u32;
        if len == 0 {
            return Ok(());
        }
        let b = &self.blocks[bi as usize];
        let frame = b.frame_size() as u32;
        let mut states: Vec<Option<State>> = vec![None; code.len()];
        states[0] = Some(entry);
        let mut work: Vec<u32> = vec![0];
        while let Some(pc) = work.pop() {
            let mut st = states[pc as usize].clone().expect("queued pc has a state");
            let succ = self.step(bi, b, code, pc, &mut st)?;
            let mut flow = |target: u32| -> Result<(), VerifyError> {
                if target == len {
                    return Ok(()); // falling off the end halts the thread
                }
                let changed = match &mut states[target as usize] {
                    slot @ None => {
                        *slot = Some(st.clone());
                        true
                    }
                    Some(cur) if cur.len() != st.len() => {
                        return Err(VerifyError::DepthMismatch {
                            block: bi,
                            pc: target,
                            a: cur.len() as u32 - frame,
                            b: st.len() as u32 - frame,
                        })
                    }
                    Some(cur) => {
                        let mut changed = false;
                        for (c, s) in cur.iter_mut().zip(&st) {
                            let j = c.join(*s);
                            changed |= j != *c;
                            *c = j;
                        }
                        changed
                    }
                };
                if changed {
                    work.push(target);
                }
                Ok(())
            };
            match succ {
                Succ::Fall => flow(pc + 1)?,
                Succ::Jump(t) => flow(t)?,
                Succ::Branch(t) => {
                    flow(pc + 1)?;
                    flow(t)?;
                }
                Succ::Halt => {}
            }
        }
        Ok(())
    }

    /// Transfer function for a single instruction. Mutates `st` into the
    /// out-state and reports the control-flow successors.
    fn step(
        &self,
        bi: u32,
        b: &Block<(), &[Instr]>,
        code: &[Instr],
        pc: u32,
        st: &mut State,
    ) -> Result<Succ, VerifyError> {
        let frame = b.frame_size() as u32;
        let len = code.len() as u32;
        let jump_ok = |target: u32| -> Result<(), VerifyError> {
            if target > len {
                Err(VerifyError::BadJump {
                    block: bi,
                    pc,
                    target,
                    len,
                })
            } else {
                Ok(())
            }
        };
        macro_rules! pop {
            ($n:expr) => {{
                let n = $n as usize;
                let have = st.len() - frame as usize;
                if have < n {
                    return Err(VerifyError::Underflow {
                        block: bi,
                        pc,
                        need: n as u32,
                        have: have as u32,
                    });
                }
                st.truncate(st.len() - n);
            }};
        }
        /// Pop the top word of the operand stack (never a frame slot).
        macro_rules! pop_word {
            () => {{
                if st.len() == frame as usize {
                    return Err(VerifyError::Underflow {
                        block: bi,
                        pc,
                        need: 1,
                        have: 0,
                    });
                }
                st.pop().expect("the stack is not empty")
            }};
        }
        /// Pop the top word, requiring a kind (Top always passes).
        macro_rules! pop_kind {
            ($ok:pat, $expected:expr) => {{
                match pop_word!() {
                    Kind::Top | $ok => {}
                    found => {
                        return Err(VerifyError::KindMismatch {
                            block: bi,
                            pc,
                            expected: $expected,
                            found: found.name(),
                        })
                    }
                }
            }};
        }
        /// Require the kind held in a (bounds-checked) frame slot.
        macro_rules! slot_kind {
            ($slot:expr, $ok:pat, $expected:expr) => {{
                match st[$slot as usize] {
                    Kind::Top | $ok => {}
                    found => {
                        return Err(VerifyError::KindMismatch {
                            block: bi,
                            pc,
                            expected: $expected,
                            found: found.name(),
                        })
                    }
                }
            }};
        }

        let mut ins = code[pc as usize];
        // Every operand that names something must name something that
        // exists, checked in declared order before the stack rules run.
        if let Instr::PushSibling(_) = ins {
            if !b.is_class_body {
                return Err(VerifyError::SiblingOutsideClass { block: bi, pc });
            }
        }
        let bad_ref = |what, id, limit| VerifyError::BadRef {
            block: bi,
            pc,
            what,
            id,
            limit,
        };
        let (nblocks, ntables) = (self.blocks.len() as u32, self.tables.len() as u32);
        ins.operands(|o| match o {
            Operand::Slot(&mut s) if s as u32 >= frame => Err(VerifyError::BadSlot {
                block: bi,
                pc,
                slot: s as u32,
                frame,
            }),
            Operand::Str(&mut id) if id >= self.nstrings => {
                Err(bad_ref("string", id, self.nstrings))
            }
            Operand::Label(&mut id) if id >= self.nlabels => {
                Err(bad_ref("label", id, self.nlabels))
            }
            Operand::Block(&mut id) if id >= nblocks => Err(bad_ref("block", id, nblocks)),
            Operand::Table(&mut id) if id >= ntables => Err(bad_ref("table", id, ntables)),
            Operand::Sibling(&mut i) if i as u32 >= self.max_sibling => {
                Err(bad_ref("sibling", i as u32, self.max_sibling))
            }
            _ => Ok(()),
        })?;

        match ins {
            Instr::PushLocal(s) => st.push(st[s as usize]),
            Instr::PushInt(_) => st.push(Kind::Int),
            Instr::PushBool(_) => st.push(Kind::Bool),
            Instr::PushFloat(_) => st.push(Kind::Float),
            Instr::PushUnit => st.push(Kind::Unit),
            Instr::PushStr(_) => st.push(Kind::Str),
            Instr::PushSibling(_) => st.push(Kind::Class),
            Instr::Store(s) => st[s as usize] = pop_word!(),
            Instr::Bin(_) => {
                pop!(2);
                st.push(Kind::Top);
            }
            Instr::Un(_) => {
                pop!(1);
                st.push(Kind::Top);
            }
            Instr::Jump(t) => {
                jump_ok(t)?;
                return Ok(Succ::Jump(t));
            }
            Instr::JumpIfFalse(t) => {
                pop_kind!(Kind::Bool, "bool");
                jump_ok(t)?;
                return Ok(Succ::Branch(t));
            }
            Instr::Halt => return Ok(Succ::Halt),
            Instr::NewChan(s) => st[s as usize] = Kind::Chan,
            Instr::Fork { block, nfree } => {
                pop!(nfree);
                let tb = &self.blocks[block as usize];
                if tb.nfree != nfree || tb.nparams != 0 || tb.is_class_body {
                    return Err(VerifyError::FrameLayout {
                        block: bi,
                        pc,
                        detail: format!(
                            "fork of block {block} (free={} params={}{}) with {nfree} captures",
                            tb.nfree,
                            tb.nparams,
                            if tb.is_class_body { " class" } else { "" },
                        ),
                    });
                }
            }
            Instr::TrMsg { argc, .. } => {
                pop_kind!(Kind::Chan, "channel");
                pop!(argc);
            }
            Instr::TrObj { table, nfree } => {
                pop_kind!(Kind::Chan, "channel");
                pop!(nfree);
                for &(_, blk) in self.tables[table as usize] {
                    let eb = &self.blocks[blk as usize];
                    if eb.nfree != nfree || eb.is_class_body {
                        return Err(VerifyError::FrameLayout {
                            block: bi,
                            pc,
                            detail: format!(
                                "trobj table {table} entry block {blk} (free={}{}) \
                                 with {nfree} captures",
                                eb.nfree,
                                if eb.is_class_body { " class" } else { "" },
                            ),
                        });
                    }
                }
            }
            Instr::InstOf { argc } => {
                pop_kind!(Kind::Class, "class");
                pop!(argc);
            }
            Instr::MkGroup {
                table,
                dst,
                count,
                nfree,
            } => {
                pop!(nfree);
                let end = dst as u32 + count as u32;
                if end > frame {
                    return Err(VerifyError::BadSlot {
                        block: bi,
                        pc,
                        slot: end.saturating_sub(1),
                        frame,
                    });
                }
                for slot in dst..dst + count as u16 {
                    st[slot as usize] = Kind::Class;
                }
                for &(_, blk) in self.tables[table as usize] {
                    let eb = &self.blocks[blk as usize];
                    if eb.nfree != nfree || !eb.is_class_body {
                        return Err(VerifyError::FrameLayout {
                            block: bi,
                            pc,
                            detail: format!(
                                "mkgroup table {table} entry block {blk} (free={}{}) \
                                 with {nfree} captures",
                                eb.nfree,
                                if eb.is_class_body {
                                    " class"
                                } else {
                                    " not-class"
                                },
                            ),
                        });
                    }
                }
            }
            Instr::ExportName { slot, .. } => slot_kind!(slot, Kind::Chan, "channel"),
            Instr::ExportClass { slot, .. } => slot_kind!(slot, Kind::Class, "class"),
            Instr::Import { dst, .. } => {
                // The resolved word (channel or class) is written into
                // `dst` asynchronously — unknown kind from here on.
                st[dst as usize] = Kind::Top;
            }
            Instr::Print { argc, .. } => pop!(argc),
            // The transfer function models the base forms only: fused
            // forms have no wire code, and `enter_block` normalizes them.
            fused => {
                return Err(bad_ref("opcode", fused.op_index() as u32, NUM_BASE as u32));
            }
        }
        Ok(Succ::Fall)
    }
}

/// Control-flow successors of one instruction.
enum Succ {
    Fall,
    Jump(u32),
    Branch(u32),
    Halt,
}

/// Verify a packet-relative wire bundle before linking it (the SHIPO /
/// FETCH receive path). All ids are checked against the packet's own
/// vectors, so a verified bundle can be linked without bounds checks.
pub fn verify_wire(code: &WireCode) -> Result<(), VerifyError> {
    View::of_wire(code).check()
}

/// Verify a whole program image (the compile / image-load path). On top
/// of the per-block checks this validates the entry block: it must exist
/// and take neither captures nor parameters (it is spawned with an empty
/// frame prefix).
pub fn verify_program(prog: &Program) -> Result<(), VerifyError> {
    View::of_program(prog).check()?;
    let Some(entry) = prog.blocks.get(prog.entry as usize) else {
        return Err(VerifyError::BadEntry(format!(
            "entry block {} out of range (< {})",
            prog.entry,
            prog.blocks.len()
        )));
    };
    if entry.nfree != 0 || entry.nparams != 0 || entry.is_class_body {
        return Err(VerifyError::BadEntry(format!(
            "entry block {} expects free={} params={}{}",
            prog.entry,
            entry.nfree,
            entry.nparams,
            if entry.is_class_body { " class" } else { "" },
        )));
    }
    Ok(())
}

#[cfg(test)]
mod equiv;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::program::MethodTable;
    use tyco_syntax::parse_core;

    fn prog(src: &str) -> Program {
        compile(&parse_core(src).unwrap()).unwrap()
    }

    fn block(code: Vec<Instr>) -> Block {
        Block {
            name: "t".into(),
            nfree: 0,
            nparams: 0,
            nlocals: 2,
            is_class_body: false,
            code: code.into(),
        }
    }

    fn one_block_prog(code: Vec<Instr>) -> Program {
        Program {
            blocks: vec![block(code)],
            ..Program::default()
        }
    }

    #[test]
    fn accepts_compiler_output() {
        for src in [
            "new x x!go[1, true]",
            "new x (x?{ read(r) = r![1], write(u) = 0 } | x!read[x])",
            "def X(a) = Y[a] and Y(b) = print(b) in X[1]",
            "if 1 < 2 then print(1) else print(2)",
            "new v new x (x?{ get(r) = r![v] } | let u = x!get[] in print(u))",
            "export new srv in import q from other in (srv?{ go() = 0 } | q![1])",
        ] {
            let p = prog(src);
            verify_program(&p).unwrap_or_else(|e| panic!("{src:?}: {e}"));
            if !p.tables.is_empty() {
                let roots: Vec<u32> = (0..p.tables.len() as u32).collect();
                let packed = crate::wire::pack(&p, &roots);
                verify_wire(&packed.code).unwrap_or_else(|e| panic!("wire {src:?}: {e}"));
            }
        }
    }

    #[test]
    fn rejects_oversized_frame() {
        let mut p = one_block_prog(vec![Instr::Halt]);
        p.blocks[0].nlocals = (MAX_FRAME + 1) as u16;
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::FrameTooLarge { block: 0, .. })
        ));
    }

    #[test]
    fn rejects_sibling_index_beyond_any_table() {
        // `def X(a) = Y[a] and Y(b) = print(b)` compiles to a two-entry
        // class table, so sibling indices 0 and 1 are the only ones any
        // group built from this image can resolve.
        let mut p = prog("def X(a) = Y[a] and Y(b) = print(b) in X[1]");
        assert!(verify_program(&p).is_ok());
        for b in p.blocks.iter_mut() {
            let rewritten: Vec<Instr> = b
                .code
                .iter()
                .map(|i| match i {
                    Instr::PushSibling(_) => Instr::PushSibling(9),
                    other => *other,
                })
                .collect();
            b.code = rewritten.into();
        }
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::BadRef {
                what: "sibling",
                id: 9,
                ..
            })
        ));
    }

    #[test]
    fn rejects_stack_underflow() {
        let p = one_block_prog(vec![Instr::Store(0)]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::Underflow { .. })
        ));
    }

    #[test]
    fn rejects_out_of_window_slot() {
        let p = one_block_prog(vec![Instr::PushLocal(99)]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::BadSlot { slot: 99, .. })
        ));
    }

    #[test]
    fn rejects_wild_jump() {
        let p = one_block_prog(vec![Instr::Jump(7)]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::BadJump { target: 7, .. })
        ));
    }

    #[test]
    fn fall_off_end_target_is_legal() {
        let p = one_block_prog(vec![Instr::Jump(1)]);
        verify_program(&p).unwrap();
    }

    #[test]
    fn rejects_depth_mismatch_at_join() {
        // Branch pushes on one path only, then both paths join at pc 3.
        let p = one_block_prog(vec![
            Instr::PushBool(true),
            Instr::JumpIfFalse(3),
            Instr::PushInt(1),
            Instr::Halt,
        ]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::DepthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_instof_on_int() {
        let p = one_block_prog(vec![Instr::PushInt(3), Instr::InstOf { argc: 0 }]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::KindMismatch {
                expected: "class",
                ..
            })
        ));
    }

    #[test]
    fn rejects_sibling_outside_class_body() {
        let p = one_block_prog(vec![
            Instr::PushSibling(0),
            Instr::Print {
                argc: 1,
                newline: false,
            },
        ]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::SiblingOutsideClass { .. })
        ));
    }

    #[test]
    fn rejects_fork_layout_mismatch() {
        let mut p = one_block_prog(vec![Instr::Fork { block: 1, nfree: 0 }]);
        p.blocks.push(Block {
            name: "kid".into(),
            nfree: 2, // expects two captures, fork pushes none
            nparams: 0,
            nlocals: 0,
            is_class_body: false,
            code: vec![Instr::Halt].into(),
        });
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::FrameLayout { .. })
        ));
    }

    #[test]
    fn tracks_frame_kinds_through_slots() {
        // newc makes slot 0 a channel; exporting it as a class is a
        // provable kind error.
        let p = one_block_prog(vec![
            Instr::NewChan(0),
            Instr::ExportClass { slot: 0, name: 0 },
        ]);
        let mut p = p;
        p.strings.intern("s");
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::KindMismatch {
                expected: "class",
                found: "channel",
                ..
            })
        ));
    }

    #[test]
    fn rejects_trmsg_on_provable_class_slot() {
        // An uninitialised local is a unit word — sending on it can never
        // fire COMM.
        let p = one_block_prog(vec![
            Instr::PushLocal(0),
            Instr::TrMsg { label: 0, argc: 0 },
        ]);
        let mut p = p;
        p.labels.intern("go");
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::KindMismatch {
                expected: "channel",
                found: "unit",
                ..
            })
        ));
    }

    #[test]
    fn rejects_dangling_table_entry() {
        let mut p = one_block_prog(vec![Instr::Halt]);
        let l = p.labels.intern("go");
        p.tables.push(MethodTable {
            entries: vec![(l, 42)],
        });
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::BadTable { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_table_label() {
        let mut p = one_block_prog(vec![Instr::Halt]);
        let l = p.labels.intern("go");
        p.tables.push(MethodTable {
            entries: vec![(l, 0), (l, 0)],
        });
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::DuplicateMethod { .. })
        ));
    }

    #[test]
    fn rejects_bad_entry() {
        let mut p = prog("print(1)");
        p.entry = 99;
        assert!(matches!(verify_program(&p), Err(VerifyError::BadEntry(_))));
    }

    #[test]
    fn rejects_wire_bundle_with_dangling_string() {
        let mut p = prog("new x x?{ go(n) = println(\"hi\", n) }");
        p.strings = Pool::default(); // every PushStr id now dangles
                                     // After its 12-byte header, an image is a bundle.
        let image = crate::image::to_bytes(&p);
        let bad = WireCode::decode(image.slice(12..image.len())).unwrap();
        assert!(matches!(
            verify_wire(&bad),
            Err(VerifyError::BadRef { what: "string", .. })
        ));
    }
}
