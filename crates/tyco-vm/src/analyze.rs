//! Whole-program byte-code analysis: interprocedural reachability over the
//! call/instantiation graph with per-block constant dataflow.
//!
//! The verifier ([`crate::verify`]) answers *"is this image well-formed?"*;
//! this module answers *"which parts of it can ever run?"*. It walks the
//! same worklist shape as the verifier's abstract interpreter, but instead
//! of word *kinds* it tracks word *values* over a three-point lattice
//! (unknown ⊤, an exact constant, or a statically-identified class), which
//! buys three things the kind lattice cannot:
//!
//! * **Constant branch folding** — a `jmpf` whose condition is a provable
//!   constant has exactly one successor, so the untaken arm (and everything
//!   reachable only through it) is dead.
//! * **Class provenance** — `mkgroup` and `pushsib` produce values tagged
//!   with their (table, index) origin, so the analysis knows *which* class
//!   an `instof` instantiates, and which classes are never instantiated and
//!   never escape (sent, captured, exported) — their bodies cannot run.
//! * **Method-label liveness** — in a closed world (no reachable `import`/
//!   `export*`), a method whose label is never the subject of a reachable
//!   `trmsg` can never be selected, so its body is dead weight.
//!
//! The interprocedural part is a fixpoint over blocks: a block's facts are
//! computed once when it first becomes reachable, and the labels/classes it
//! uses may retroactively enliven method bodies parked on a not-yet-sent
//! label. Openness is monotone too: the first reachable network instruction
//! permanently promotes every object method to live (a remote peer may send
//! any label to an escaped channel).
//!
//! Soundness of the escape rule: a class value can only reach `instof` as
//! an unknown word by first flowing through a point the analysis marks —
//! a capture (`fork`/`trobj`/`mkgroup`), a message argument (`trmsg`),
//! an export, or a lattice join that widened it away. Each of those points
//! marks the class *used*, so "never used" really means "no execution can
//! instantiate it", locally or at any receiving site.
//!
//! The one consumer is [`Analysis::findings`] — the `ditico check
//! --analyze` diagnostics. Nothing transforms code from these facts: what
//! ships is selected by the program's lexical structure alone
//! ([`crate::wire::pack`]).

use crate::machine::binop;
use crate::program::{Block, BlockId, Instr, LabelId, Program, TableId};
use crate::word::Word;
use std::collections::{HashMap, HashSet};

/// Abstract value: the analysis lattice ⊥ < {Const, Class} < ⊤, with ⊥
/// represented by the absence of a state (unreached program point).
#[derive(Debug, Clone, PartialEq)]
enum AVal {
    /// Any word.
    Any,
    /// An exact base value (`Unit`/`Int`/`Bool`/`Float`/`Str` only —
    /// channel and class references never use this arm).
    Const(Word),
    /// A class word of known origin: entry `index` of `table`.
    Class { table: TableId, index: u8 },
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
struct AState {
    stack: Vec<AVal>,
    frame: Vec<AVal>,
}

/// What one block's reachable code touches (the analysis' call-graph
/// edges), accumulated while interpreting it.
#[derive(Debug, Default)]
struct Effects {
    blocks: Vec<BlockId>,
    obj_tables: Vec<TableId>,
    class_tables: Vec<TableId>,
    sent: Vec<LabelId>,
    /// Classes instantiated or escaped (captured, sent, exported, joined
    /// away) — each may run.
    used_classes: Vec<(TableId, u8)>,
    /// A reachable `import`/`export*`: the program talks to the network.
    open: bool,
    /// Precision lost (a `pushsib` whose owning table is ambiguous):
    /// every class of every reachable table must be considered used.
    all_classes_used: bool,
}

/// The result of a whole-program analysis.
#[derive(Debug)]
pub struct Analysis {
    /// True when a reachable instruction imports or exports through the
    /// name service: unknown peer code may interact with every escaped
    /// channel and class.
    pub open: bool,
    /// Per block: is its code reachable (as executable code, not merely
    /// referenced by a table entry)?
    pub block_live: Vec<bool>,
    /// Per table: referenced by reachable code?
    pub table_live: Vec<bool>,
    /// Per table: reached through `trobj` (object dispatch)?
    pub table_is_object: Vec<bool>,
    /// Per table: reached through `mkgroup` (class group)?
    pub table_is_class: Vec<bool>,
    /// Per class table: which entries are instantiated or escape. Empty
    /// vec until the table is reached as a class table.
    pub class_used: Vec<Vec<bool>>,
    /// Labels selected by reachable `trmsg` instructions.
    pub sent_labels: HashSet<LabelId>,
}

/// For each class-body block, the unique `(table, index)` that lists it —
/// the origin of the class word `pushsib` builds inside it. `None` when
/// ambiguous (listed by several tables: hand-written assembly only).
fn body_owners(prog: &Program) -> HashMap<BlockId, Option<(TableId, u8)>> {
    let mut owners: HashMap<BlockId, Option<(TableId, u8)>> = HashMap::new();
    for (ti, t) in prog.tables.iter().enumerate() {
        for (i, (_, b)) in t.entries.iter().enumerate() {
            if !prog
                .blocks
                .get(*b as usize)
                .is_some_and(|blk| blk.is_class_body)
            {
                continue;
            }
            let tag = (ti as TableId, i.min(u8::MAX as usize) as u8);
            owners
                .entry(*b)
                .and_modify(|o| {
                    if *o != Some(tag) {
                        *o = None;
                    }
                })
                .or_insert(Some(tag));
        }
    }
    owners
}

fn is_const_word(w: &Word) -> bool {
    matches!(
        w,
        Word::Unit | Word::Int(_) | Word::Bool(_) | Word::Float(_) | Word::Str(_)
    )
}

/// Join two abstract values. A class value widened away may later reach
/// `instof` as ⊤, so it must be marked used at the point of the join.
fn join(a: &AVal, b: &AVal, fx: &mut Effects) -> AVal {
    if a == b {
        return a.clone();
    }
    for v in [a, b] {
        if let AVal::Class { table, index } = v {
            fx.used_classes.push((*table, *index));
        }
    }
    AVal::Any
}

/// Pop `n` values, routing any class value to the escape set (`why` is
/// documentation only). Returns `false` on underflow (unverified input).
fn pop_escaping(st: &mut AState, n: usize, fx: &mut Effects) -> bool {
    if st.stack.len() < n {
        return false;
    }
    for v in st.stack.drain(st.stack.len() - n..) {
        if let AVal::Class { table, index } = v {
            fx.used_classes.push((table, index));
        }
    }
    true
}

enum Succ {
    Fall,
    Jump(u32),
    Branch(u32),
    Halt,
}

/// Abstractly interpret one block to a fixpoint over its pcs under
/// constant branch folding, accumulating what its reachable code touches
/// (graph edges, sent labels, class uses) into `fx`.
///
/// The interpreter assumes verified code; on any structural anomaly it
/// degrades to the conservative answer (everything live, every reference
/// an edge) rather than erroring.
fn analyze_block(
    prog: &Program,
    owner: Option<(TableId, u8)>,
    block: &Block,
    code: &[Instr],
    fx: &mut Effects,
) {
    if try_analyze_block(prog, owner, block, code, fx).is_none() {
        conservative_effects(code, fx);
    }
}

/// Everything-is-live fallback for code the interpreter could not walk.
fn conservative_effects(code: &[Instr], fx: &mut Effects) {
    for ins in code {
        match ins {
            Instr::Fork { block, .. } => fx.blocks.push(*block),
            Instr::TrObj { table, .. } => fx.obj_tables.push(*table),
            Instr::MkGroup { table, .. } => fx.class_tables.push(*table),
            Instr::TrMsg { label, .. } => fx.sent.push(*label),
            Instr::InstOf { .. } | Instr::PushSibling(_) => fx.all_classes_used = true,
            Instr::Import { .. } | Instr::ExportName { .. } | Instr::ExportClass { .. } => {
                fx.open = true
            }
            _ => {}
        }
    }
}

fn try_analyze_block(
    prog: &Program,
    owner: Option<(TableId, u8)>,
    block: &Block,
    code: &[Instr],
    fx: &mut Effects,
) -> Option<()> {
    let len = code.len() as u32;
    if len == 0 {
        return Some(());
    }
    let frame_size = block.frame_size();
    // The frame a spawner builds: self-class word (class bodies), then
    // captures and parameters of unknown value, then unit-filled locals.
    let mut frame0: Vec<AVal> = Vec::with_capacity(frame_size);
    if block.is_class_body {
        frame0.push(match owner {
            Some((table, index)) => AVal::Class { table, index },
            None => AVal::Any,
        });
    }
    frame0.extend(
        std::iter::repeat_with(|| AVal::Any).take(block.nfree as usize + block.nparams as usize),
    );
    frame0.extend(std::iter::repeat_with(|| AVal::Const(Word::Unit)).take(block.nlocals as usize));

    let mut states: Vec<Option<AState>> = vec![None; code.len()];
    states[0] = Some(AState {
        stack: Vec::new(),
        frame: frame0,
    });
    let mut work: Vec<u32> = vec![0];
    // Fixpoint bound: each visit either widens a lattice point or stops.
    let mut fuel: u64 = (code.len() as u64 + 4) * (frame_size as u64 + 8) * 64;
    while let Some(pc) = work.pop() {
        fuel = fuel.checked_sub(1)?;
        let mut st = states[pc as usize].clone()?;
        let succ = step(prog, owner, block, code, pc, &mut st, fx)?;
        let mut flow = |target: u32, work: &mut Vec<u32>, fx: &mut Effects| -> Option<()> {
            if target == len {
                return Some(()); // falling off the end halts the thread
            }
            if target > len {
                return None;
            }
            if merge(&mut states[target as usize], &st, fx)? {
                work.push(target);
            }
            Some(())
        };
        match succ {
            Succ::Fall => flow(pc + 1, &mut work, fx)?,
            Succ::Jump(t) => flow(t, &mut work, fx)?,
            Succ::Branch(t) => {
                flow(pc + 1, &mut work, fx)?;
                flow(t, &mut work, fx)?;
            }
            Succ::Halt => {}
        }
    }
    Some(())
}

/// Merge `src` into a program point. `Ok(true)` = changed (re-queue).
/// `None` = depth disagreement (unverified input).
fn merge(dst: &mut Option<AState>, src: &AState, fx: &mut Effects) -> Option<bool> {
    match dst {
        None => {
            *dst = Some(src.clone());
            Some(true)
        }
        Some(cur) => {
            if cur.stack.len() != src.stack.len() || cur.frame.len() != src.frame.len() {
                return None;
            }
            let mut changed = false;
            let pairs = cur
                .stack
                .iter_mut()
                .zip(&src.stack)
                .chain(cur.frame.iter_mut().zip(&src.frame));
            for (c, s) in pairs {
                let j = join(c, s, fx);
                if j != *c {
                    *c = j;
                    changed = true;
                }
            }
            Some(changed)
        }
    }
}

/// Transfer function: abstract execution of one instruction. `None` means
/// the code is not verifier-clean; the caller falls back to conservative.
fn step(
    prog: &Program,
    owner: Option<(TableId, u8)>,
    block: &Block,
    code: &[Instr],
    pc: u32,
    st: &mut AState,
    fx: &mut Effects,
) -> Option<Succ> {
    let frame = block.frame_size();
    let len = code.len() as u32;
    macro_rules! slot {
        ($s:expr) => {{
            let s = $s as usize;
            if s >= frame {
                return None;
            }
            s
        }};
    }
    match code[pc as usize] {
        Instr::PushLocal(s) => {
            let s = slot!(s);
            let v = st.frame[s].clone();
            st.stack.push(v);
        }
        Instr::PushInt(i) => st.stack.push(AVal::Const(Word::Int(i))),
        Instr::PushBool(b) => st.stack.push(AVal::Const(Word::Bool(b))),
        Instr::PushFloat(f) => st.stack.push(AVal::Const(Word::Float(f))),
        Instr::PushUnit => st.stack.push(AVal::Const(Word::Unit)),
        Instr::PushStr(s) => {
            // An out-of-pool id is unverified input: treat as ⊤.
            if (s as usize) < prog.strings.len() {
                st.stack
                    .push(AVal::Const(Word::Str(prog.strings.get_arc(s))));
            } else {
                st.stack.push(AVal::Any);
            }
        }
        Instr::PushSibling(i) => {
            match owner {
                // A sibling of this body's group: same table, index `i`.
                Some((table, _)) => st.stack.push(AVal::Class { table, index: i }),
                None => {
                    // Ambiguous owner: any class anywhere might be meant.
                    fx.all_classes_used = true;
                    st.stack.push(AVal::Any);
                }
            }
        }
        Instr::Store(s) => {
            let s = slot!(s);
            let v = st.stack.pop()?;
            st.frame[s] = v;
        }
        Instr::Bin(op) => {
            let b = st.stack.pop()?;
            let a = st.stack.pop()?;
            let folded = match (&a, &b) {
                (AVal::Const(x), AVal::Const(y)) => binop(op, x.clone(), y.clone()).ok(),
                _ => None,
            };
            match folded {
                // Never fold an operation the machine would fault on
                // (division by zero, mixed operands): the fault is the
                // observable behaviour and must stay.
                Some(w) if is_const_word(&w) => st.stack.push(AVal::Const(w)),
                _ => {
                    // Comparing class words (`==`) consumes them without
                    // leaking instantiation capability: no escape.
                    st.stack.push(AVal::Any);
                }
            }
        }
        Instr::Un(op) => {
            let a = st.stack.pop()?;
            let folded = match &a {
                AVal::Const(x) => crate::machine::unop(op, x.clone()).ok(),
                _ => None,
            };
            match folded {
                Some(w) if is_const_word(&w) => st.stack.push(AVal::Const(w)),
                _ => st.stack.push(AVal::Any),
            }
        }
        Instr::Jump(t) => {
            if t > len {
                return None;
            }
            return Some(Succ::Jump(t));
        }
        Instr::JumpIfFalse(t) => {
            if t > len {
                return None;
            }
            let c = st.stack.pop()?;
            return Some(match c {
                // A constant condition has exactly one successor: the
                // untaken arm is unreachable from this point.
                AVal::Const(Word::Bool(true)) => Succ::Fall,
                AVal::Const(Word::Bool(false)) => Succ::Jump(t),
                _ => Succ::Branch(t),
            });
        }
        Instr::Halt => return Some(Succ::Halt),
        Instr::NewChan(s) => {
            let s = slot!(s);
            st.frame[s] = AVal::Any;
        }
        Instr::Fork { block, nfree } => {
            // Captures become the child's frame, where tracking ends.
            if !pop_escaping(st, nfree as usize, fx) {
                return None;
            }
            fx.blocks.push(block);
        }
        Instr::TrMsg { label, argc } => {
            let _chan = st.stack.pop()?;
            if !pop_escaping(st, argc as usize, fx) {
                return None;
            }
            fx.sent.push(label);
        }
        Instr::TrObj { table, nfree } => {
            let _chan = st.stack.pop()?;
            if !pop_escaping(st, nfree as usize, fx) {
                return None;
            }
            fx.obj_tables.push(table);
        }
        Instr::InstOf { argc } => {
            let class = st.stack.pop()?;
            if !pop_escaping(st, argc as usize, fx) {
                return None;
            }
            if let AVal::Class { table, index } = class {
                fx.used_classes.push((table, index));
            }
            // `instof` of ⊤: whatever class that word holds already passed
            // an escape point (capture/send/export/join) which marked it.
        }
        Instr::MkGroup {
            table,
            dst,
            count,
            nfree,
        } => {
            if !pop_escaping(st, nfree as usize, fx) {
                return None;
            }
            let end = dst as usize + count as usize;
            if end > frame {
                return None;
            }
            for (i, s) in (dst as usize..end).enumerate() {
                st.frame[s] = AVal::Class {
                    table,
                    index: i.min(u8::MAX as usize) as u8,
                };
            }
            fx.class_tables.push(table);
        }
        Instr::ExportName { slot, .. } => {
            let _ = slot!(slot);
            fx.open = true;
        }
        Instr::ExportClass { slot, .. } => {
            let s = slot!(slot);
            if let AVal::Class { table, index } = &st.frame[s] {
                fx.used_classes.push((*table, *index));
            }
            fx.open = true;
        }
        Instr::Import { dst, .. } => {
            let s = slot!(dst);
            st.frame[s] = AVal::Any;
            fx.open = true;
        }
        Instr::Print { argc, .. } => {
            // Printing renders a word; it cannot leak instantiation
            // capability, so no escape.
            if st.stack.len() < argc as usize {
                return None;
            }
            st.stack.truncate(st.stack.len() - argc as usize);
        }
        // Analysis runs on normalized code only (see `analyze`).
        Instr::PushLocal2 { .. }
        | Instr::PushLocalInt { .. }
        | Instr::PushIntBin { .. }
        | Instr::BinJumpIfFalse { .. }
        | Instr::PushLocalTrMsg { .. }
        | Instr::PushLocalTrObj { .. }
        | Instr::PushLocalInstOf { .. }
        | Instr::PushSiblingInstOf { .. }
        | Instr::PushSiblingLocal { .. } => return None,
    }
    Some(Succ::Fall)
}

/// The interprocedural fixpoint engine.
struct Walker<'p> {
    prog: &'p Program,
    owners: HashMap<BlockId, Option<(TableId, u8)>>,
    a: Analysis,
    queue: Vec<BlockId>,
    /// Object-method bodies waiting for their label to be sent.
    pending: HashMap<LabelId, Vec<BlockId>>,
    all_classes_used: bool,
}

impl Walker<'_> {
    fn mark_block(&mut self, b: BlockId) {
        let Some(live) = self.a.block_live.get_mut(b as usize) else {
            return;
        };
        if !*live {
            *live = true;
            self.queue.push(b);
        }
    }

    fn entries(&self, t: TableId) -> &[(LabelId, BlockId)] {
        self.prog
            .tables
            .get(t as usize)
            .map(|mt| mt.entries.as_slice())
            .unwrap_or(&[])
    }

    fn mark_obj_table(&mut self, t: TableId) {
        let ti = t as usize;
        if ti >= self.a.table_live.len() || self.a.table_is_object[ti] {
            return;
        }
        self.a.table_live[ti] = true;
        self.a.table_is_object[ti] = true;
        for (l, b) in self.entries(t).to_vec() {
            if self.a.open || self.a.sent_labels.contains(&l) {
                self.mark_block(b);
            } else {
                self.pending.entry(l).or_default().push(b);
            }
        }
        if self.a.table_is_class[ti] {
            // Mixed use (object dispatch *and* class group): give up on
            // per-entry precision for this table.
            self.use_whole_table(t);
        }
    }

    fn mark_class_table(&mut self, t: TableId) {
        let ti = t as usize;
        if ti >= self.a.table_live.len() || self.a.table_is_class[ti] {
            return;
        }
        self.a.table_live[ti] = true;
        self.a.table_is_class[ti] = true;
        self.a.class_used[ti] = vec![false; self.entries(t).len()];
        if self.all_classes_used || self.a.table_is_object[ti] {
            self.use_whole_table(t);
        }
    }

    fn use_whole_table(&mut self, t: TableId) {
        for i in 0..self.entries(t).len() {
            self.mark_class_used(t, i.min(u8::MAX as usize) as u8);
        }
        for (_, b) in self.entries(t).to_vec() {
            self.mark_block(b);
        }
    }

    fn mark_class_used(&mut self, t: TableId, i: u8) {
        let ti = t as usize;
        if ti >= self.a.table_live.len() {
            return;
        }
        let entries_len = self.entries(t).len();
        let used = &mut self.a.class_used[ti];
        if used.len() < entries_len {
            used.resize(entries_len, false);
        }
        let Some(flag) = used.get_mut(i as usize) else {
            return; // sibling index past the table: runtime error, not code
        };
        if !*flag {
            *flag = true;
            let b = self.entries(t)[i as usize].1;
            self.mark_block(b);
        }
    }

    fn mark_sent(&mut self, l: LabelId) {
        if self.a.sent_labels.insert(l) {
            if let Some(parked) = self.pending.remove(&l) {
                for b in parked {
                    self.mark_block(b);
                }
            }
        }
    }

    fn set_open(&mut self) {
        if self.a.open {
            return;
        }
        self.a.open = true;
        // Unknown peers may send any label: every parked method runs.
        let parked: Vec<BlockId> = self.pending.drain().flat_map(|(_, bs)| bs).collect();
        for b in parked {
            self.mark_block(b);
        }
    }

    fn set_all_classes_used(&mut self) {
        if self.all_classes_used {
            return;
        }
        self.all_classes_used = true;
        for t in 0..self.a.table_live.len() as TableId {
            if self.a.table_is_class[t as usize] {
                self.use_whole_table(t);
            }
        }
    }

    fn absorb(&mut self, fx: Effects) {
        if fx.open {
            self.set_open();
        }
        if fx.all_classes_used {
            self.set_all_classes_used();
        }
        for l in fx.sent {
            self.mark_sent(l);
        }
        for b in fx.blocks {
            self.mark_block(b);
        }
        for t in fx.obj_tables {
            self.mark_obj_table(t);
        }
        for t in fx.class_tables {
            self.mark_class_table(t);
        }
        for (t, i) in fx.used_classes {
            // A class use implies its group was (or will be) created by a
            // reachable `mkgroup`; register the table either way.
            self.mark_class_table(t);
            self.mark_class_used(t, i);
        }
    }

    fn run(&mut self) {
        while let Some(b) = self.queue.pop() {
            let block = &self.prog.blocks[b as usize];
            let normalized = crate::fuse::unfuse_code(&block.code);
            let code: &[Instr] = normalized.as_deref().unwrap_or(&block.code);
            let owner = self.owners.get(&b).copied().flatten();
            let mut fx = Effects::default();
            analyze_block(self.prog, owner, block, code, &mut fx);
            self.absorb(fx);
        }
    }
}

/// Analyze `prog` from its entry block to a fixpoint. The world is closed
/// unless a reachable instruction touches the network.
///
/// The program is expected to be verifier-clean (compiler output, a loaded
/// image, or a linked packet); on malformed code the analysis degrades to
/// "everything reachable" rather than failing.
pub fn analyze(prog: &Program) -> Analysis {
    let nb = prog.blocks.len();
    let nt = prog.tables.len();
    let mut w = Walker {
        prog,
        owners: body_owners(prog),
        a: Analysis {
            open: false,
            block_live: vec![false; nb],
            table_live: vec![false; nt],
            table_is_object: vec![false; nt],
            table_is_class: vec![false; nt],
            class_used: vec![Vec::new(); nt],
            sent_labels: HashSet::new(),
        },
        queue: Vec::new(),
        pending: HashMap::new(),
        all_classes_used: false,
    };
    if (prog.entry as usize) < nb {
        w.mark_block(prog.entry);
    }
    w.run();
    w.a
}

// -- diagnostics --------------------------------------------------------------------

/// What a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// An object method whose label is never the subject of any reachable
    /// send (closed world only).
    UnreachableMethod,
    /// A class that is created but never instantiated and never escapes.
    NeverInstantiatedClass,
    /// A label that is sent but that no reachable object table defines
    /// (closed world only).
    OrphanSend,
}

impl FindingKind {
    /// Stable machine-readable tag (`--json` output, CI gating).
    pub fn tag(self) -> &'static str {
        match self {
            FindingKind::UnreachableMethod => "unreachable-method",
            FindingKind::NeverInstantiatedClass => "never-instantiated-class",
            FindingKind::OrphanSend => "orphan-send",
        }
    }
}

/// One static diagnostic over the byte-code.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: FindingKind,
    /// What it is about: a block name (`Cell.write`) or a label.
    pub subject: String,
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: `{}`: {}",
            self.kind.tag(),
            self.subject,
            self.detail
        )
    }
}

impl Analysis {
    /// Byte-code-level liveness diagnostics. Label findings are only
    /// reported for closed programs: once code or channels may escape to
    /// unknown peers, any label can arrive and any method can fire.
    pub fn findings(&self, prog: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        let block_name = |b: BlockId| -> String {
            prog.blocks
                .get(b as usize)
                .map(|blk| blk.name.clone())
                .unwrap_or_else(|| format!("block {b}"))
        };
        for t in 0..prog.tables.len() {
            if !self.table_live[t] {
                continue;
            }
            let entries = &prog.tables[t].entries;
            let mixed = self.table_is_object[t] && self.table_is_class[t];
            if self.table_is_object[t] && !mixed && !self.open {
                for (l, b) in entries {
                    if !self.sent_labels.contains(l) {
                        out.push(Finding {
                            kind: FindingKind::UnreachableMethod,
                            subject: block_name(*b),
                            detail: format!(
                                "method label `{}` of table {t} is never sent by any \
                                 reachable code",
                                prog.labels.get(*l)
                            ),
                        });
                    }
                }
            }
            if self.table_is_class[t] && !mixed {
                for (i, (_, b)) in entries.iter().enumerate() {
                    if !self.class_used[t].get(i).copied().unwrap_or(true) {
                        out.push(Finding {
                            kind: FindingKind::NeverInstantiatedClass,
                            subject: block_name(*b),
                            detail: format!(
                                "class {i} of group table {t} is never instantiated and \
                                 never escapes"
                            ),
                        });
                    }
                }
            }
        }
        if !self.open {
            let defined: HashSet<LabelId> = (0..prog.tables.len())
                .filter(|&t| self.table_live[t] && self.table_is_object[t])
                .flat_map(|t| prog.tables[t].entries.iter().map(|(l, _)| *l))
                .collect();
            let mut orphans: Vec<LabelId> = self
                .sent_labels
                .iter()
                .copied()
                .filter(|l| !defined.contains(l))
                .collect();
            orphans.sort_unstable();
            for l in orphans {
                out.push(Finding {
                    kind: FindingKind::OrphanSend,
                    subject: prog.labels.get(l).to_string(),
                    detail: "label is sent but no reachable object table defines it".to_string(),
                });
            }
        }
        out.sort_by(|a, b| (a.kind.tag(), &a.subject).cmp(&(b.kind.tag(), &b.subject)));
        out
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
    fn closed_world_finds_dead_method() {
        // `write` is never sent: its body is parked forever.
        let p = prog(
            r#"
            new x (x?{ read(r) = r![1], write(u) = print(u) }
                   | new z (x!read[z] | z?(w) = print(w)))
            "#,
        );
        let a = analyze(&p);
        assert!(!a.open);
        let fs = a.findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, FindingKind::UnreachableMethod);
        assert!(fs[0].subject.contains("write"), "{}", fs[0].subject);
    }

    #[test]
    fn closed_world_finds_orphan_send() {
        let p = prog("new x (x?{ go(n) = print(n) } | x!stop[])");
        let a = analyze(&p);
        let fs = a.findings(&p);
        assert!(
            fs.iter()
                .any(|f| f.kind == FindingKind::OrphanSend && f.subject == "stop"),
            "{fs:?}"
        );
        // `go` is defined but never sent: also a dead method.
        assert!(
            fs.iter().any(|f| f.kind == FindingKind::UnreachableMethod),
            "{fs:?}"
        );
    }

    #[test]
    fn finds_never_instantiated_class() {
        let p = prog("def Ghost(n) = print(n) in print(0)");
        let a = analyze(&p);
        let fs = a.findings(&p);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, FindingKind::NeverInstantiatedClass);
        assert!(fs[0].subject.contains("Ghost"));
    }

    #[test]
    fn instantiated_class_is_clean() {
        let p = prog("def L(n) = if n > 0 then L[n - 1] else print(n) in L[2]");
        let a = analyze(&p);
        assert!(a.findings(&p).is_empty(), "{:?}", a.findings(&p));
    }

    #[test]
    fn open_world_suppresses_label_findings() {
        // The channel escapes through the name service: a peer may send
        // any label, so `write` must stay live.
        let p = prog("export new x in x?{ read(r) = r![1], write(u) = print(u) }");
        let a = analyze(&p);
        assert!(a.open);
        assert!(a.findings(&p).is_empty(), "{:?}", a.findings(&p));
        // And the method bodies are all reachable.
        for (ti, t) in p.tables.iter().enumerate() {
            if a.table_is_object[ti] {
                for (_, b) in &t.entries {
                    assert!(a.block_live[*b as usize]);
                }
            }
        }
    }

    #[test]
    fn escaping_class_counts_as_used() {
        // The class word is exported: a peer can fetch and instantiate it.
        let p = prog("export def Srv(r) = r![1] in print(0)");
        let a = analyze(&p);
        assert!(a.findings(&p).is_empty(), "{:?}", a.findings(&p));
    }

    #[test]
    fn constant_branch_hides_untaken_arm() {
        let p = prog(r#"if 1 < 2 then print(1) else new t (t?{ go() = print(9) } | t!go[])"#);
        let a = analyze(&p);
        // The `else` arm's object table is dead: never reached.
        assert!(
            (0..p.tables.len()).all(|t| !a.table_live[t]),
            "dead-branch tables must not be live"
        );
        // And no findings: dead code is not reported, only live-but-inert
        // methods and classes.
        assert!(a.findings(&p).is_empty(), "{:?}", a.findings(&p));
    }
}
