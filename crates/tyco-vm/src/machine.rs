//! The extended TyCO virtual machine (§5, Fig. 3).
//!
//! Architecture, matching the paper's description of a site:
//!
//! * **program area** — [`Program`]: byte-code blocks and method tables;
//!   grows at run time when mobile code is dynamically linked;
//! * **heap** — channels (with message *or* object queues) and class-group
//!   objects, garbage-collected by a mark–sweep pass;
//! * **run-queue** — runnable threads `(block, pc, frame)`; threads are a
//!   few tens of instructions long, and a context switch is a queue pop;
//! * **export table** — maps `HeapId`s to local heap references for every
//!   identifier that left the site, and counts who holds each channel so
//!   that a released one stops being a root (DESIGN.md §20); a channel's
//!   own heap slot remembers its id;
//! * **holder table** — counts, per channel another site exported to this
//!   one, what was received from its owner and what was sent to it, for
//!   the release the collector sends once it is unreachable;
//! * **incoming/outgoing queues + I/O port** — behind the [`NetPort`]
//!   trait, so the same machine runs standalone (loopback) or inside a
//!   `ditico-rt` node.
//!
//! The three communication instructions (`trmsg`, `trobj`, `instof`)
//! dispatch on local vs. network references exactly as §5 prescribes.

use crate::compile::compile;
use crate::port::{FetchReplyNow, ImportReply, Incoming, NetPort};
use crate::program::*;
use crate::stats::ExecStats;
use crate::wire::{self, Label, LinkMap, ReleaseRun, WireGroup, WireObj, WireWord};
use crate::word::*;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use tyco_syntax::ast::{BinOp, UnOp};

/// A virtual-machine runtime error (the dynamic half of the hybrid type
/// check: statically checked single-site programs never raise these).
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    NotAChannel(String),
    NotAClass(String),
    NoMethod {
        label: String,
    },
    Arity {
        what: String,
        expected: usize,
        found: usize,
    },
    BadOperands(String),
    ImportFailed(String),
    /// A network reference's heap id is unknown to the export table.
    BadHeapId(u64),
    /// Frame slot 0 of a class body did not hold a class word.
    CorruptClassFrame,
    StackUnderflow,
    /// An incoming code image failed static verification and was refused
    /// before linking (SHIPO / FETCH receive path).
    CodeRejected(String),
    /// The hosting runtime lost the site's execution context (e.g. the
    /// worker thread pumping it panicked). Not a fault in the site's own
    /// program.
    Internal(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NotAChannel(w) => write!(f, "not a channel: {w}"),
            VmError::NotAClass(w) => write!(f, "not a class: {w}"),
            VmError::NoMethod { label } => write!(f, "protocol error: no method `{label}`"),
            VmError::Arity {
                what,
                expected,
                found,
            } => {
                write!(f, "{what} expects {expected} argument(s), got {found}")
            }
            VmError::BadOperands(op) => write!(f, "bad operands for `{op}`"),
            VmError::ImportFailed(e) => write!(f, "import failed: {e}"),
            VmError::BadHeapId(id) => write!(f, "unknown heap id {id}"),
            VmError::CorruptClassFrame => write!(f, "corrupt class frame"),
            VmError::StackUnderflow => write!(f, "operand stack underflow"),
            VmError::CodeRejected(e) => write!(f, "mobile code rejected by verifier: {e}"),
            VmError::Internal(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

/// A message parked in a channel.
#[derive(Debug, Clone)]
pub struct MsgFrame {
    pub label: LabelId,
    pub args: Vec<Word>,
}

/// An object parked in a channel.
#[derive(Debug, Clone)]
pub struct ObjFrame {
    pub table: TableId,
    pub captured: Vec<Word>,
}

/// Channel state (§5): empty, pending messages *or* pending objects — the
/// reduction rules never leave both sides waiting. The first waiter is
/// held in the slot itself; a FIFO is boxed only when a second waiter of
/// the same side arrives, and goes when its last waiter leaves. A channel
/// that never holds two waiters allocates nothing, and an empty one holds
/// no allocation at all.
#[derive(Debug, Clone, Default)]
#[expect(
    clippy::box_collection,
    reason = "an unboxed VecDeque would widen every slot by 8 bytes to serve the rare second waiter"
)]
enum ChanState {
    #[default]
    Empty,
    Msg {
        label: LabelId,
        args: Vec<Word>,
    },
    Obj {
        table: TableId,
        captured: Vec<Word>,
    },
    /// Waiting messages, oldest first; never empty.
    Msgs(Box<VecDeque<MsgFrame>>),
    /// Waiting objects, oldest first; never empty.
    Objs(Box<VecDeque<ObjFrame>>),
}

impl ChanState {
    /// Take the oldest waiting message, if messages wait.
    #[inline]
    fn pop_msg(&mut self) -> Option<MsgFrame> {
        match std::mem::take(self) {
            ChanState::Msg { label, args } => Some(MsgFrame { label, args }),
            ChanState::Msgs(mut q) => {
                let msg = q.pop_front();
                if !q.is_empty() {
                    *self = ChanState::Msgs(q);
                }
                msg
            }
            other => {
                *self = other;
                None
            }
        }
    }

    /// Take the oldest waiting object, if objects wait.
    #[inline]
    fn pop_obj(&mut self) -> Option<ObjFrame> {
        match std::mem::take(self) {
            ChanState::Obj { table, captured } => Some(ObjFrame { table, captured }),
            ChanState::Objs(mut q) => {
                let obj = q.pop_front();
                if !q.is_empty() {
                    *self = ChanState::Objs(q);
                }
                obj
            }
            other => {
                *self = other;
                None
            }
        }
    }

    /// Park a message behind the waiting ones; no object may be waiting.
    #[inline]
    fn push_msg(&mut self, msg: MsgFrame) {
        *self = match std::mem::take(self) {
            ChanState::Empty => ChanState::Msg {
                label: msg.label,
                args: msg.args,
            },
            ChanState::Msg { label, args } => {
                ChanState::Msgs(Box::new(VecDeque::from([MsgFrame { label, args }, msg])))
            }
            ChanState::Msgs(mut q) => {
                q.push_back(msg);
                ChanState::Msgs(q)
            }
            ChanState::Obj { .. } | ChanState::Objs(_) => {
                unreachable!("a message parked beside a waiting object")
            }
        };
    }

    /// Park an object behind the waiting ones; no message may be waiting.
    #[inline]
    fn push_obj(&mut self, obj: ObjFrame) {
        *self = match std::mem::take(self) {
            ChanState::Empty => ChanState::Obj {
                table: obj.table,
                captured: obj.captured,
            },
            ChanState::Obj { table, captured } => ChanState::Objs(Box::new(VecDeque::from([
                ObjFrame { table, captured },
                obj,
            ]))),
            ChanState::Objs(mut q) => {
                q.push_back(obj);
                ChanState::Objs(q)
            }
            ChanState::Msg { .. } | ChanState::Msgs(_) => {
                unreachable!("an object parked beside a waiting message")
            }
        };
    }

    /// Every word the waiting side holds: the GC's edges out of a channel.
    fn for_each_word(&self, f: impl FnMut(&Word)) {
        match self {
            ChanState::Empty => {}
            ChanState::Msg { args: words, .. }
            | ChanState::Obj {
                captured: words, ..
            } => words.iter().for_each(f),
            ChanState::Msgs(q) => q.iter().flat_map(|m| &m.args).for_each(f),
            ChanState::Objs(q) => q.iter().flat_map(|o| &o.captured).for_each(f),
        }
    }
}

#[derive(Debug, Clone)]
struct ChanSlot {
    /// Heap id of the channel's export entry, [`NO_EXPORT`], or [`FREE`]
    /// for a slot on the free list (one word for both facts keeps the
    /// slot as small as it was before channels had ids).
    export: u64,
    state: ChanState,
}

impl ChanSlot {
    fn used(&self) -> bool {
        self.export != FREE
    }
}

/// [`ChanSlot::export`] of a live channel that has no export entry.
const NO_EXPORT: u64 = u64::MAX - 1;
/// [`ChanSlot::export`] of a free slot.
const FREE: u64 = u64::MAX;

/// A class group heap object: the shared captured environment of a `def`.
#[derive(Debug, Clone)]
pub struct GroupObj {
    pub table: TableId,
    pub captured: Vec<Word>,
}

/// A (possibly suspended) thread.
#[derive(Debug, Clone)]
pub struct Thread {
    pub block: BlockId,
    pub pc: u32,
    pub frame: Vec<Word>,
    pub stack: Vec<Word>,
    /// Instructions executed so far by this thread (granularity stat).
    pub ticks: u64,
}

/// What a thread did when the executor left it.
enum ThreadExit {
    Halted,
    Parked,
}

/// The export table: `HeapId → local reference` for identifiers that left
/// the site. Classes stay for good. A channel's entry goes once nobody
/// can name it any more (DESIGN.md §20); heap ids are never reused, so a
/// late packet naming a reclaimed id cannot reach another channel.
///
/// Channel entries live in a dense window indexed by `id - base`: ids are
/// issued in order and most entries go soon after (a reply channel, once
/// its answer is in and its holder released it), so the window stays
/// short and a lookup is an index. An entry that outlives the ids issued
/// after it — a name registered for good, a channel a holder keeps —
/// moves to `old` once the window is mostly holes, so it never holds the
/// window open.
#[derive(Debug, Default)]
pub struct ExportTable {
    next: u64,
    /// The channel entry of id `base + i`, if it is live.
    window: VecDeque<Option<ChanExport>>,
    base: u64,
    /// Entries in `window`.
    live: usize,
    /// Entries older than the window.
    old: HashMap<u64, ChanExport>,
    classes: HashMap<u64, ClassRefW>,
    class_rev: HashMap<(u32, u8), u64>,
    /// The last release sequence number applied, per holder site.
    applied: HashMap<SiteId, u64>,
}

/// The window is compacted only beyond this many slots.
const WINDOW_SLACK: usize = 64;

/// One exported channel's entry.
#[derive(Debug)]
struct ChanExport {
    chan: ChanRef,
    /// Registered by name, or shipped in a class environment (which its
    /// receiver keeps for good): never reclaimed.
    pinned: bool,
    holders: Holders,
    /// Packets that released holders reported sending to or carrying
    /// the channel.
    owed: u64,
    /// Remote packets delivered to or carrying the channel.
    delivered: u64,
}

impl ChanExport {
    fn reclaimable(&self) -> bool {
        !self.pinned && self.holders.is_empty() && self.delivered >= self.owed
    }
}

/// Times a channel's reference was sent to each holder site, less the
/// receipts that site released. The first holder is kept in place: a
/// reply channel has exactly one, so exporting it allocates nothing.
#[derive(Debug, Default)]
struct Holders {
    first: Option<(SiteId, u64)>,
    /// Any further holders; empty while `first` is.
    rest: Vec<(SiteId, u64)>,
}

impl Holders {
    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The reference leaves for `to` once more.
    fn add(&mut self, to: SiteId) {
        let Some(first) = &mut self.first else {
            self.first = Some((to, 1));
            return;
        };
        let mut all = std::iter::once(first).chain(&mut self.rest);
        match all.find(|(s, _)| *s == to) {
            Some((_, n)) => *n += 1,
            None => self.rest.push((to, 1)),
        }
    }

    /// Holder `from` released `recv` receipts; it is no holder once it
    /// has released all it was sent.
    fn release(&mut self, from: SiteId, recv: u64) {
        if let Some((s, n)) = &mut self.first {
            if *s == from {
                *n = n.saturating_sub(recv);
                if *n == 0 {
                    self.first = self.rest.pop();
                }
                return;
            }
        }
        if let Some(i) = self.rest.iter().position(|(s, _)| *s == from) {
            let n = &mut self.rest[i].1;
            *n = n.saturating_sub(recv);
            if *n == 0 {
                self.rest.swap_remove(i);
            }
        }
    }
}

impl ExportTable {
    /// A new heap id for a channel leaving the site for the first time
    /// (the machine keeps it in the channel's slot for later departures).
    fn add_chan(&mut self, c: ChanRef) -> u64 {
        let id = self.next;
        self.next += 1;
        if self.window.is_empty() {
            self.base = id;
        }
        // Ids issued to classes in between are holes.
        let at = (id - self.base) as usize;
        self.window.resize_with(at, || None);
        self.window.push_back(Some(ChanExport {
            chan: c,
            pinned: false,
            holders: Holders::default(),
            owed: 0,
            delivered: 0,
        }));
        self.live += 1;
        self.compact();
        id
    }

    pub fn export_class(&mut self, c: ClassRefW) -> u64 {
        if let Some(&id) = self.class_rev.get(&(c.group, c.index)) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.classes.insert(id, c);
        self.class_rev.insert((c.group, c.index), id);
        id
    }

    fn get(&self, id: u64) -> Option<&ChanExport> {
        match id.checked_sub(self.base) {
            Some(i) => self.window.get(i as usize)?.as_ref(),
            None => self.old.get(&id),
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut ChanExport> {
        match id.checked_sub(self.base) {
            Some(i) => self.window.get_mut(i as usize)?.as_mut(),
            None => self.old.get_mut(&id),
        }
    }

    /// Drop `id`'s entry, which is live.
    fn remove(&mut self, id: u64) {
        match id.checked_sub(self.base) {
            Some(i) => {
                self.window[i as usize] = None;
                self.live -= 1;
                self.compact();
            }
            None => {
                self.old.remove(&id);
            }
        }
    }

    /// Shed the window's leading holes, and move its oldest entries to
    /// `old` while it is mostly holes. Each entry moves at most once.
    fn compact(&mut self) {
        loop {
            match self.window.front() {
                Some(None) => {}
                Some(Some(_))
                    if self.window.len() > WINDOW_SLACK && self.live * 2 < self.window.len() =>
                {
                    let e = self.window.pop_front().flatten().expect("a live entry");
                    self.old.insert(self.base, e);
                    self.live -= 1;
                    self.base += 1;
                    continue;
                }
                _ => return,
            }
            self.window.pop_front();
            self.base += 1;
        }
    }

    pub fn resolve_chan(&self, id: u64) -> Option<ChanRef> {
        self.get(id).map(|e| e.chan)
    }

    /// Was `id` ever handed out (a reclaimed id was, a forged one not)?
    fn issued(&self, id: u64) -> bool {
        id < self.next
    }

    fn entry(&mut self, id: u64) -> &mut ChanExport {
        self.get_mut(id).expect("a slot's export id names an entry")
    }

    /// Keep `id`'s entry for good.
    fn pin(&mut self, id: u64) {
        self.entry(id).pinned = true;
    }

    /// The reference to `id` leaves for holder site `to`.
    fn sent_to(&mut self, id: u64, to: SiteId) {
        self.entry(id).holders.add(to);
    }

    /// A remote packet arrived addressed to or carrying `id`: its channel,
    /// and whether that was the packet the entry still waited for.
    fn deliver(&mut self, id: u64) -> Option<(ChanRef, bool)> {
        let e = self.get_mut(id)?;
        e.delivered += 1;
        let (c, done) = (e.chan, e.reclaimable());
        if done {
            self.remove(id);
        }
        Some((c, done))
    }

    /// Apply holder `from`'s release number `seq`, unless one at least as
    /// recent was applied already. Returns the channels it frees.
    fn release(&mut self, from: SiteId, seq: u64, runs: &[ReleaseRun]) -> Vec<ChanRef> {
        let mut freed = Vec::new();
        let last = self.applied.entry(from).or_insert(0);
        if seq <= *last {
            return freed;
        }
        *last = seq;
        for run in runs {
            // Ids never issued cannot name an entry: a forged run costs at
            // most the table's id range.
            let end = run.first.saturating_add(run.len.into()).min(self.next);
            for id in run.first..end {
                let Some(e) = self.get_mut(id) else {
                    continue;
                };
                e.holders.release(from, run.recv);
                e.owed = e.owed.saturating_add(run.sent);
                if e.reclaimable() {
                    freed.push(e.chan);
                    self.remove(id);
                }
            }
        }
        freed
    }

    pub fn resolve_class(&self, id: u64) -> Option<ClassRefW> {
        self.classes.get(&id).copied()
    }

    /// Channels remote references may still name (GC roots).
    pub fn chan_roots(&self) -> impl Iterator<Item = ChanRef> + '_ {
        let window = self.window.iter().flatten();
        window.chain(self.old.values()).map(|e| e.chan)
    }

    pub fn len(&self) -> usize {
        self.live + self.old.len() + self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of one execution slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceStatus {
    /// Instructions executed in this slice.
    pub instrs: u64,
    /// Threads still runnable after the slice.
    pub runnable: bool,
    /// Threads suspended on imports/fetches.
    pub parked: usize,
}

/// The extended TyCO virtual machine.
pub struct Machine<P: NetPort> {
    pub program: Program,
    channels: Vec<ChanSlot>,
    free_chans: Vec<u32>,
    live_chans: usize,
    gc_threshold: usize,
    groups: Vec<GroupObj>,
    run_queue: VecDeque<Thread>,
    parked: HashMap<u64, Thread>,
    pending_fetch: HashMap<u64, NetRef>,
    fetch_cache: HashMap<NetRef, ClassRefW>,
    pack_cache: HashMap<TableId, std::sync::Arc<wire::Packed>>,
    /// Method-lookup inline cache: 2-way set-associative `(table, label)` →
    /// `(block, nparams)`, fronting the linear [`MethodTable::lookup`] scan
    /// on the COMM path. Never invalidated: method tables are append-only
    /// (dynamic linking only adds tables) and label interning is stable for
    /// the life of the machine, so an entry can go cold but never wrong.
    ic: Box<[IcEntry]>,
    /// Whether dynamically linked blocks get the superinstruction pass —
    /// tracks how the machine was constructed ([`Machine::new`] vs
    /// [`Machine::new_unfused`]) so A/B comparisons stay honest for mobile
    /// code too.
    fuse_enabled: bool,
    pub exports: ExportTable,
    /// Channels other sites exported and sent here directly (DESIGN.md
    /// §20). Empty on a site that only uses names it imported.
    held: HashMap<NetRef, Held>,
    /// Collect when `held` outgrows this (the channel heap's rule).
    held_threshold: usize,
    /// Sequence number of the last release this site sent.
    release_seq: u64,
    pub port: P,
    /// The site's I/O port: lines written by `print`/`println`.
    pub io: Vec<String>,
    pub stats: ExecStats,
    /// Instruction trace ring buffer capacity; 0 disables tracing.
    trace_cap: usize,
    trace: VecDeque<(BlockId, u32)>,
    /// Recycled `Vec<Word>` buffers (frames, stacks, argument vectors):
    /// spawning a thread in steady state reuses a retired allocation
    /// instead of hitting the allocator.
    vec_pool: Vec<Vec<Word>>,
}

/// Retired word-vector buffers kept for reuse beyond this count are freed.
const VEC_POOL_CAP: usize = 1024;

/// The smallest collection threshold, for the channel heap and the holder
/// table alike; each grows to twice what survived the last collection.
const GC_MIN: usize = 4096;

/// This site's counts for one channel another site exported to it.
#[derive(Debug, Clone, Copy, Default)]
struct Held {
    /// Times the owner sent it here.
    recv: u64,
    /// Packets this site sent to it, or carrying it back to its owner.
    sent: u64,
    /// Sent on to a third site: never released.
    sticky: bool,
    /// Reached by the collection in progress.
    reached: bool,
}

/// One way of the method-lookup inline cache.
#[derive(Clone, Copy)]
struct IcEntry {
    /// `(table << 32) | label`, or [`IC_EMPTY`].
    key: u64,
    block: BlockId,
    nparams: u16,
}

/// Sentinel key for an unfilled way. Collides with a real key only for
/// `table == u32::MAX && label == u32::MAX`, which would need 2³² method
/// tables — unreachable in practice (and a false miss would merely re-scan).
const IC_EMPTY: u64 = u64::MAX;

/// Sets in the inline cache (×2 ways). 256 sets cover every distinct
/// `(table, label)` pair of realistic programs with essentially no
/// conflict; the whole cache is 8 KiB.
const IC_SETS: usize = 256;

#[inline(always)]
fn ic_set(table: TableId, label: LabelId) -> usize {
    (table as usize)
        .wrapping_mul(31)
        .wrapping_add(label as usize)
        & (IC_SETS - 1)
}

/// Move `src[at..]` onto the end of `dst`, leaving `src` truncated to
/// `at`. Semantically identical to `dst.extend(src.drain(at..))` but a
/// single bulk copy, the same way `Vec::append` moves its elements — the
/// generic extend path costs a non-inlined call plus per-element writes,
/// which dominates the COMM hot path where 1–3 words move per reduction.
#[inline]
fn move_tail(src: &mut Vec<Word>, at: usize, dst: &mut Vec<Word>) {
    let n = src.len() - at;
    dst.reserve(n);
    // SAFETY: `src` and `dst` are distinct vectors (two `&mut`), `src[at..]`
    // holds `n` initialized words, and `dst` has capacity for them after the
    // reserve. Truncating `src` first means the words are owned by exactly
    // one vector at every observable point; the bit-copy is a move, and
    // moved-from storage in `src` is never dropped or read.
    unsafe {
        src.set_len(at);
        std::ptr::copy_nonoverlapping(src.as_ptr().add(at), dst.as_mut_ptr().add(dst.len()), n);
        dst.set_len(dst.len() + n);
    }
}

impl<P: NetPort> Machine<P> {
    /// Create a machine for a compiled program and start its entry thread.
    /// The byte-code is rewritten by superinstruction fusion on the way in
    /// ([`crate::fuse`]) — semantics and observable `ExecStats` are
    /// unchanged, dispatches per reduction drop.
    pub fn new(program: Program, port: P) -> Machine<P> {
        let mut program = program;
        crate::fuse::fuse_program(&mut program);
        Self::boot(program, port, true)
    }

    /// Create a machine that executes the byte-code exactly as given, with
    /// no fusion pass — the A/B baseline for the dispatch benchmarks and
    /// the mode `--no-fuse --opstats` telemetry runs use so digram counts
    /// reflect base opcodes.
    pub fn new_unfused(program: Program, port: P) -> Machine<P> {
        Self::boot(program, port, false)
    }

    fn boot(program: Program, port: P, fuse_enabled: bool) -> Machine<P> {
        let mut m = Machine {
            program,
            channels: Vec::new(),
            free_chans: Vec::new(),
            live_chans: 0,
            gc_threshold: GC_MIN,
            groups: Vec::new(),
            run_queue: VecDeque::new(),
            parked: HashMap::new(),
            pending_fetch: HashMap::new(),
            fetch_cache: HashMap::new(),
            pack_cache: HashMap::new(),
            ic: vec![
                IcEntry {
                    key: IC_EMPTY,
                    block: 0,
                    nparams: 0,
                };
                IC_SETS * 2
            ]
            .into_boxed_slice(),
            fuse_enabled,
            exports: ExportTable::default(),
            held: HashMap::new(),
            held_threshold: GC_MIN,
            release_seq: 0,
            port,
            io: Vec::new(),
            stats: ExecStats::default(),
            trace_cap: 0,
            trace: VecDeque::new(),
            vec_pool: Vec::new(),
        };
        let entry = m.program.entry;
        m.spawn(entry, Vec::new());
        m
    }

    /// Convenience: compile source (parse + desugar) and boot a machine.
    pub fn from_source(src: &str, port: P) -> Result<Machine<P>, String> {
        let ast = tyco_syntax::parse_core(src).map_err(|e| e.to_string())?;
        let prog = compile(&ast).map_err(|e| e.to_string())?;
        Ok(Machine::new(prog, port))
    }

    /// Enable an instruction trace ring buffer holding the last `cap`
    /// executed instructions (0 disables). Costs a few ns per instruction;
    /// meant for debugging, not benchmarking.
    pub fn set_trace(&mut self, cap: usize) {
        self.trace_cap = cap;
        self.trace.clear();
        if cap > 0 {
            self.trace.reserve(cap);
        }
    }

    /// Turn on per-opcode/digram telemetry (see [`crate::stats::OpStats`]).
    /// The counters land in `stats.ops` and ride along wherever the
    /// `ExecStats` go (CLI reports, `RunReport`).
    pub fn enable_opstats(&mut self) {
        if self.stats.ops.is_none() {
            self.stats.ops = Some(Box::default());
        }
    }

    /// Render the trace buffer, oldest first, one line per instruction.
    pub fn render_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (block, pc) in &self.trace {
            let b = &self.program.blocks[*block as usize];
            let ins = b
                .code
                .get(*pc as usize)
                .map(|i| format!("{i:?}"))
                .unwrap_or_else(|| "<end>".to_string());
            let _ = writeln!(out, "{}[{block}]+{pc}: {ins}", b.name);
        }
        out
    }

    /// Does the machine have runnable threads?
    pub fn runnable(&self) -> bool {
        !self.run_queue.is_empty()
    }

    /// Number of threads suspended on network operations.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Live channels in the heap (diagnostics).
    pub fn live_channels(&self) -> usize {
        self.live_chans
    }

    /// Drain the incoming queue, then execute up to `fuel` instructions.
    pub fn run_slice(&mut self, fuel: u64) -> Result<SliceStatus, VmError> {
        self.drain_incoming()?;
        let mut used: u64 = 0;
        while used < fuel {
            let Some(thread) = self.run_queue.pop_front() else {
                break;
            };
            self.stats.threads += 1;
            let before = self.stats.instrs;
            let exit = self.exec_thread(thread)?;
            used += self.stats.instrs - before;
            if matches!(exit, ThreadExit::Halted)
                && (self.live_chans > self.gc_threshold || self.held.len() > self.held_threshold)
            {
                self.gc();
            }
        }
        Ok(SliceStatus {
            instrs: used,
            runnable: !self.run_queue.is_empty(),
            parked: self.parked.len(),
        })
    }

    /// Run until there is nothing runnable and the incoming queue is dry.
    /// Returns the total number of instructions executed.
    pub fn run_to_quiescence(&mut self, max_instrs: u64) -> Result<u64, VmError> {
        let mut total = 0;
        while total < max_instrs {
            let st = self.run_slice(max_instrs - total)?;
            total += st.instrs;
            if !st.runnable {
                // One more poll: the port may have buffered items.
                self.drain_incoming()?;
                if self.run_queue.is_empty() {
                    break;
                }
            }
        }
        Ok(total)
    }

    // -- threads -------------------------------------------------------------

    /// An empty word buffer, reusing a retired frame/stack when available.
    fn take_vec(&mut self) -> Vec<Word> {
        self.vec_pool.pop().unwrap_or_default()
    }

    /// Retire a word buffer into the pool (its contents are dropped).
    fn recycle(&mut self, mut v: Vec<Word>) {
        if v.capacity() > 0 && self.vec_pool.len() < VEC_POOL_CAP {
            v.clear();
            self.vec_pool.push(v);
        }
    }

    fn spawn(&mut self, block: BlockId, prefix: Vec<Word>) {
        let size = self.program.blocks[block as usize].frame_size();
        let mut frame = prefix;
        debug_assert!(frame.len() <= size, "frame prefix exceeds block frame");
        if frame.len() < size {
            frame.resize(size, Word::Unit);
        }
        let stack = self.take_vec();
        self.run_queue.push_back(Thread {
            block,
            pc: 0,
            frame,
            stack,
            ticks: 0,
        });
    }

    fn exec_thread(&mut self, t: Thread) -> Result<ThreadExit, VmError> {
        // Monomorphize the dispatch loop: the common path carries no
        // tracing or telemetry code at all — not even the disabled-flag
        // branches — while `--trace` / `--opstats` runs take the
        // instrumented copy of the same source.
        if self.trace_cap > 0 || self.stats.ops.is_some() {
            self.exec_thread_inner::<true>(t)
        } else {
            self.exec_thread_inner::<false>(t)
        }
    }

    fn exec_thread_inner<const INSTRUMENT: bool>(
        &mut self,
        mut t: Thread,
    ) -> Result<ThreadExit, VmError> {
        // A thread never leaves its block (jumps are intra-block), so pin
        // the code slice once instead of a bounds-checked block lookup per
        // instruction. The raw-slice borrow skips even the `Arc` refcount
        // round-trip the previous version paid per thread.
        //
        // SAFETY: the slice stays valid for the whole loop because nothing
        // can free its allocation while this thread runs:
        // * blocks are never removed, and `program.blocks` growing (dynamic
        //   linking inside this very loop) moves the `Block` structs, not
        //   the heap data their `Arc<[Instr]>`s point to;
        // * no block's code is rewritten once it is in the program: dynamic
        //   linking (`wire::link_into`) relocates and fuses a block before
        //   it appends it.
        let code: &[Instr] = {
            let c = &self.program.blocks[t.block as usize].code;
            unsafe { std::slice::from_raw_parts(c.as_ptr(), c.len()) }
        };
        // `stats.instrs` is settled from the tick delta at the exits below
        // rather than bumped per instruction, keeping the counter out of
        // the dispatch loop. (A thread that errors loses its last slice's
        // ticks — the machine is dead at that point.)
        let ticks_in = t.ticks;
        // Digram telemetry: the previous opcode index, seeded with the
        // thread-entry pseudo-row. Pairs never span threads.
        let mut prev_op = NUM_OPS;
        loop {
            // Single bounds check per dispatch: `get` both fetches and
            // detects falling off the end of the block.
            let Some(&ins) = code.get(t.pc as usize) else {
                self.stats.instrs += t.ticks - ticks_in;
                self.stats.thread_len.record(t.ticks);
                self.recycle(t.frame);
                self.recycle(t.stack);
                return Ok(ThreadExit::Halted);
            };
            if INSTRUMENT {
                if self.trace_cap > 0 {
                    if self.trace.len() == self.trace_cap {
                        self.trace.pop_front();
                    }
                    self.trace.push_back((t.block, t.pc));
                }
                if let Some(ops) = self.stats.ops.as_deref_mut() {
                    let i = ins.op_index();
                    ops.counts[i] += 1;
                    ops.digrams[prev_op][i] += 1;
                    prev_op = i;
                }
            }
            t.ticks += 1;
            t.pc += 1;
            match ins {
                Instr::PushLocal(s) => t.stack.push(t.frame[s as usize].clone()),
                Instr::PushInt(i) => t.stack.push(Word::Int(i)),
                Instr::PushBool(b) => t.stack.push(Word::Bool(b)),
                Instr::PushFloat(x) => t.stack.push(Word::Float(x)),
                Instr::PushUnit => t.stack.push(Word::Unit),
                Instr::PushStr(s) => {
                    t.stack.push(Word::Str(self.program.strings.get_arc(s)));
                }
                Instr::PushSibling(i) => match t.frame.first() {
                    Some(Word::Class(cr)) => {
                        t.stack.push(Word::Class(ClassRefW {
                            group: cr.group,
                            index: i,
                        }));
                    }
                    _ => return Err(VmError::CorruptClassFrame),
                },
                Instr::Store(s) => {
                    let w = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    t.frame[s as usize] = w;
                }
                Instr::Bin(op) => {
                    let b = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    let a = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    t.stack.push(binop(op, a, b)?);
                }
                Instr::Un(op) => {
                    let a = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    t.stack.push(unop(op, a)?);
                }
                Instr::Jump(target) => t.pc = target,
                Instr::JumpIfFalse(target) => {
                    match t.stack.pop().ok_or(VmError::StackUnderflow)? {
                        Word::Bool(true) => {}
                        Word::Bool(false) => t.pc = target,
                        other => return Err(VmError::BadOperands(other.type_name().into())),
                    }
                }
                Instr::Halt => {
                    self.stats.instrs += t.ticks - ticks_in;
                    self.stats.thread_len.record(t.ticks);
                    self.recycle(t.frame);
                    self.recycle(t.stack);
                    return Ok(ThreadExit::Halted);
                }
                Instr::NewChan(s) => {
                    let c = self.alloc_chan();
                    t.frame[s as usize] = Word::Chan(c);
                }
                Instr::Fork { block, nfree } => {
                    let at = t.stack.len() - nfree as usize;
                    let mut captured = self.take_vec();
                    move_tail(&mut t.stack, at, &mut captured);
                    self.spawn(block, captured);
                }
                Instr::TrMsg { label, argc } => {
                    let chan = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    self.do_trmsg(&mut t.stack, chan, label, argc)?;
                }
                Instr::TrObj { table, nfree } => {
                    let chan = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    self.do_trobj(&mut t.stack, chan, table, nfree)?;
                }
                Instr::InstOf { argc } => {
                    let class = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    match class {
                        Word::Class(cr) => {
                            let at = t.stack.len() - argc as usize;
                            self.instantiate_stack(cr, &mut t.stack, at)?;
                        }
                        Word::NetClass(r) if r.site == self.port.identity().site => {
                            let cr = self
                                .exports
                                .resolve_class(r.heap_id)
                                .ok_or(VmError::BadHeapId(r.heap_id))?;
                            let at = t.stack.len() - argc as usize;
                            self.instantiate_stack(cr, &mut t.stack, at)?;
                        }
                        Word::NetClass(r) => {
                            if let Some(&cr) = self.fetch_cache.get(&r) {
                                // Previously downloaded and linked.
                                self.stats.fetch_cache_hits += 1;
                                let at = t.stack.len() - argc as usize;
                                self.instantiate_stack(cr, &mut t.stack, at)?;
                            } else {
                                match self.port.fetch(r) {
                                    FetchReplyNow::Ready(group, index) => {
                                        self.stats.fetches += 1;
                                        let cr = self.link_group(&group, index)?;
                                        self.fetch_cache.insert(r, cr);
                                        let at = t.stack.len() - argc as usize;
                                        self.instantiate_stack(cr, &mut t.stack, at)?;
                                    }
                                    FetchReplyNow::Pending(req) => {
                                        // Suspend: restore the stack and
                                        // re-execute this instruction when
                                        // the byte-code arrives. The
                                        // overlap with other threads is the
                                        // latency-hiding of §5.
                                        self.stats.fetches += 1;
                                        t.stack.push(Word::NetClass(r));
                                        t.pc -= 1;
                                        self.stats.instrs += t.ticks - ticks_in;
                                        self.pending_fetch.insert(req, r);
                                        self.parked.insert(req, t);
                                        return Ok(ThreadExit::Parked);
                                    }
                                    FetchReplyNow::Failed(e) => {
                                        return Err(VmError::ImportFailed(e));
                                    }
                                }
                            }
                        }
                        other => return Err(VmError::NotAClass(other.display())),
                    }
                }
                Instr::MkGroup {
                    table,
                    dst,
                    count,
                    nfree,
                } => {
                    let at = t.stack.len() - nfree as usize;
                    let captured: Vec<Word> = t.stack.drain(at..).collect();
                    let group = self.groups.len() as u32;
                    self.groups.push(GroupObj { table, captured });
                    for i in 0..count {
                        t.frame[(dst + i as u16) as usize] =
                            Word::Class(ClassRefW { group, index: i });
                    }
                }
                Instr::ExportName { slot, name } => {
                    let Word::Chan(c) = t.frame[slot as usize] else {
                        return Err(VmError::NotAChannel(t.frame[slot as usize].display()));
                    };
                    // A registered name can be imported by anyone, at any
                    // time: its entry stays.
                    let heap_id = self.export_chan(c);
                    self.exports.pin(heap_id);
                    let ident = self.port.identity();
                    let name_str = self.program.strings.get(name).to_string();
                    self.port.register(
                        &name_str,
                        WireWord::Chan(NetRef {
                            heap_id,
                            site: ident.site,
                            node: ident.node,
                        }),
                    );
                }
                Instr::ExportClass { slot, name } => {
                    let Word::Class(cr) = t.frame[slot as usize] else {
                        return Err(VmError::NotAClass(t.frame[slot as usize].display()));
                    };
                    let heap_id = self.exports.export_class(cr);
                    let ident = self.port.identity();
                    let name_str = self.program.strings.get(name).to_string();
                    self.port.register(
                        &name_str,
                        WireWord::Class(NetRef {
                            heap_id,
                            site: ident.site,
                            node: ident.node,
                        }),
                    );
                }
                Instr::Import {
                    dst,
                    site,
                    name,
                    kind,
                } => {
                    self.stats.imports += 1;
                    let site_str = self.program.strings.get(site).to_string();
                    let name_str = self.program.strings.get(name).to_string();
                    match self.port.import(&site_str, &name_str, kind) {
                        ImportReply::Ready(w) => {
                            t.frame[dst as usize] = self.incoming_word(w, false)?;
                        }
                        ImportReply::Pending(req) => {
                            t.pc -= 1;
                            self.stats.instrs += t.ticks - ticks_in;
                            self.parked.insert(req, t);
                            return Ok(ThreadExit::Parked);
                        }
                        ImportReply::Failed(e) => return Err(VmError::ImportFailed(e)),
                    }
                }
                Instr::Print { argc, newline: _ } => {
                    let at = t.stack.len() - argc as usize;
                    let parts: Vec<String> = t.stack.drain(at..).map(|w| w.display()).collect();
                    self.io.push(parts.join(" "));
                }

                // -- fused superinstructions (see `crate::fuse`) -------------
                // Each arm charges one extra tick so `stats.instrs` keeps
                // counting *original* instructions: fused and unfused runs of
                // the same program report identical ExecStats.
                Instr::PushLocal2 { a, b } => {
                    t.ticks += 1;
                    t.stack.push(t.frame[a as usize].clone());
                    t.stack.push(t.frame[b as usize].clone());
                }
                Instr::PushLocalInt { slot, imm } => {
                    t.ticks += 1;
                    t.stack.push(t.frame[slot as usize].clone());
                    t.stack.push(Word::Int(imm as i64));
                }
                Instr::PushIntBin { imm, op } => {
                    // The immediate skips the stack entirely: pop the left
                    // operand, apply, push the result.
                    t.ticks += 1;
                    let a = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    t.stack.push(binop(op, a, Word::Int(imm as i64))?);
                }
                Instr::BinJumpIfFalse { op, target } => {
                    t.ticks += 1;
                    let b = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    let a = t.stack.pop().ok_or(VmError::StackUnderflow)?;
                    match binop(op, a, b)? {
                        Word::Bool(true) => {}
                        Word::Bool(false) => t.pc = target,
                        other => return Err(VmError::BadOperands(other.type_name().into())),
                    }
                }
                Instr::PushLocalTrMsg { slot, label, argc } => {
                    // The channel is read straight from the frame — it never
                    // visits the operand stack.
                    t.ticks += 1;
                    let chan = t.frame[slot as usize].clone();
                    self.do_trmsg(&mut t.stack, chan, label, argc)?;
                }
                Instr::PushLocalTrObj { slot, table, nfree } => {
                    t.ticks += 1;
                    let chan = t.frame[slot as usize].clone();
                    self.do_trobj(&mut t.stack, chan, table, nfree)?;
                }
                Instr::PushLocalInstOf { slot, argc } => {
                    t.ticks += 1;
                    match t.frame[slot as usize].clone() {
                        Word::Class(cr) => {
                            let at = t.stack.len() - argc as usize;
                            self.instantiate_stack(cr, &mut t.stack, at)?;
                        }
                        Word::NetClass(r) if r.site == self.port.identity().site => {
                            let cr = self
                                .exports
                                .resolve_class(r.heap_id)
                                .ok_or(VmError::BadHeapId(r.heap_id))?;
                            let at = t.stack.len() - argc as usize;
                            self.instantiate_stack(cr, &mut t.stack, at)?;
                        }
                        Word::NetClass(r) => {
                            if let Some(&cr) = self.fetch_cache.get(&r) {
                                self.stats.fetch_cache_hits += 1;
                                let at = t.stack.len() - argc as usize;
                                self.instantiate_stack(cr, &mut t.stack, at)?;
                            } else {
                                match self.port.fetch(r) {
                                    FetchReplyNow::Ready(group, index) => {
                                        self.stats.fetches += 1;
                                        let cr = self.link_group(&group, index)?;
                                        self.fetch_cache.insert(r, cr);
                                        let at = t.stack.len() - argc as usize;
                                        self.instantiate_stack(cr, &mut t.stack, at)?;
                                    }
                                    FetchReplyNow::Pending(req) => {
                                        // Suspend and re-execute the whole
                                        // fused form on resume: the class
                                        // word is still in the frame (nothing
                                        // to restore to the stack, unlike the
                                        // base `InstOf`), and the resume run
                                        // will hit `fetch_cache`. Give back
                                        // this arm's extra tick so the
                                        // re-execution charges the pair
                                        // exactly like the unfused machine
                                        // (PushLocal once + InstOf twice).
                                        self.stats.fetches += 1;
                                        t.ticks -= 1;
                                        t.pc -= 1;
                                        self.stats.instrs += t.ticks - ticks_in;
                                        self.pending_fetch.insert(req, r);
                                        self.parked.insert(req, t);
                                        return Ok(ThreadExit::Parked);
                                    }
                                    FetchReplyNow::Failed(e) => {
                                        return Err(VmError::ImportFailed(e));
                                    }
                                }
                            }
                        }
                        other => return Err(VmError::NotAClass(other.display())),
                    }
                }
                Instr::PushSiblingLocal { sib, slot } => {
                    t.ticks += 1;
                    match t.frame.first() {
                        Some(Word::Class(cr)) => {
                            let group = cr.group;
                            t.stack.push(Word::Class(ClassRefW { group, index: sib }));
                        }
                        _ => return Err(VmError::CorruptClassFrame),
                    }
                    t.stack.push(t.frame[slot as usize].clone());
                }
                Instr::PushSiblingInstOf { sib, argc } => {
                    // Sibling class words are always local (`Word::Class`),
                    // so this form can never suspend.
                    t.ticks += 1;
                    let cr = match t.frame.first() {
                        Some(Word::Class(cr)) => ClassRefW {
                            group: cr.group,
                            index: sib,
                        },
                        _ => return Err(VmError::CorruptClassFrame),
                    };
                    let at = t.stack.len() - argc as usize;
                    self.instantiate_stack(cr, &mut t.stack, at)?;
                }
            }
        }
    }

    /// The `trmsg` dispatch on local vs. network references (§5), shared by
    /// the base arm (channel popped from the stack) and the fused
    /// `PushLocalTrMsg` arm (channel read from the frame).
    #[inline(always)]
    fn do_trmsg(
        &mut self,
        stack: &mut Vec<Word>,
        chan: Word,
        label: LabelId,
        argc: u8,
    ) -> Result<(), VmError> {
        let at = stack.len() - argc as usize;
        match chan {
            Word::Chan(c) => self.local_msg_stack(c, label, stack, at),
            Word::NetChan(r) if r.site == self.port.identity().site => {
                let c = self
                    .exports
                    .resolve_chan(r.heap_id)
                    .ok_or(VmError::BadHeapId(r.heap_id))?;
                self.local_msg_stack(c, label, stack, at)
            }
            Word::NetChan(r) => {
                // SHIPM: package and place on the outgoing queue.
                self.stats.msgs_sent += 1;
                self.count_sent(&r);
                let label = Label::shared(self.program.labels.entry(label));
                let wire_args: Vec<WireWord> = stack
                    .drain(at..)
                    .map(|w| self.outgoing(w, r.site, false))
                    .collect();
                self.port.send_msg(r, label, wire_args);
                Ok(())
            }
            other => Err(VmError::NotAChannel(other.display())),
        }
    }

    /// The `trobj` dispatch on local vs. network references (§5), shared by
    /// the base arm and the fused `PushLocalTrObj` arm.
    #[inline(always)]
    fn do_trobj(
        &mut self,
        stack: &mut Vec<Word>,
        chan: Word,
        table: TableId,
        nfree: u16,
    ) -> Result<(), VmError> {
        let at = stack.len() - nfree as usize;
        match chan {
            Word::Chan(c) => self.local_obj_stack(c, table, stack, at),
            Word::NetChan(r) if r.site == self.port.identity().site => {
                let c = self
                    .exports
                    .resolve_chan(r.heap_id)
                    .ok_or(VmError::BadHeapId(r.heap_id))?;
                self.local_obj_stack(c, table, stack, at)
            }
            Word::NetChan(r) => {
                // SHIPO: the object (code + translated free variables)
                // migrates to the prefix's site.
                self.stats.objs_sent += 1;
                self.count_sent(&r);
                let packed = self.pack_table(table);
                let wire_captured: Vec<WireWord> = stack
                    .drain(at..)
                    .map(|w| self.outgoing(w, r.site, false))
                    .collect();
                let obj = WireObj {
                    code: packed.code.clone(),
                    table: packed.roots[0],
                    captured: wire_captured,
                };
                self.port.send_obj(r, packed.code.digest(), obj);
                Ok(())
            }
            other => Err(VmError::NotAChannel(other.display())),
        }
    }

    // -- heap -----------------------------------------------------------------

    fn alloc_chan(&mut self) -> ChanRef {
        self.stats.chans_allocated += 1;
        self.live_chans += 1;
        if let Some(c) = self.free_chans.pop() {
            // The collector left the previous tenant's state empty.
            let slot = &mut self.channels[c as usize];
            debug_assert!(!slot.used(), "free list entry in use");
            slot.export = NO_EXPORT;
            c
        } else {
            self.channels.push(ChanSlot {
                export: NO_EXPORT,
                state: ChanState::default(),
            });
            (self.channels.len() - 1) as u32
        }
    }

    fn chan_mut(&mut self, c: ChanRef) -> &mut ChanState {
        let slot = &mut self.channels[c as usize];
        debug_assert!(slot.used(), "dangling channel reference {c}");
        &mut slot.state
    }

    /// Local `trmsg` from the operand stack: on COMM the method fires with
    /// its arguments moved straight from the stack into the new frame — no
    /// intermediate argument buffer. Only a message that has to wait is
    /// copied out into a (pooled) vector.
    fn local_msg_stack(
        &mut self,
        c: ChanRef,
        label: LabelId,
        stack: &mut Vec<Word>,
        at: usize,
    ) -> Result<(), VmError> {
        if let Some(obj) = self.chan_mut(c).pop_obj() {
            return self.fire_method_stack(obj, label, stack, at);
        }
        let mut args = self.take_vec();
        move_tail(stack, at, &mut args);
        self.chan_mut(c).push_msg(MsgFrame { label, args });
        Ok(())
    }

    /// Local `trobj` from the operand stack: on COMM the frame is built
    /// directly from the stacked captures plus the waiting message's
    /// arguments; otherwise the captures move into a (pooled) vector.
    fn local_obj_stack(
        &mut self,
        c: ChanRef,
        table: TableId,
        stack: &mut Vec<Word>,
        at: usize,
    ) -> Result<(), VmError> {
        if let Some(msg) = self.chan_mut(c).pop_msg() {
            let mut frame = self.take_vec();
            move_tail(stack, at, &mut frame);
            return self.fire_method_frame(table, msg.label, frame, msg.args);
        }
        let mut captured = self.take_vec();
        move_tail(stack, at, &mut captured);
        self.chan_mut(c).push_obj(ObjFrame { table, captured });
        Ok(())
    }

    /// Local `trmsg` with an owned argument buffer (COMM or enqueue).
    fn local_msg(&mut self, c: ChanRef, label: LabelId, args: Vec<Word>) -> Result<(), VmError> {
        match self.chan_mut(c).pop_obj() {
            Some(obj) => self.fire_method(obj, label, args),
            None => {
                self.chan_mut(c).push_msg(MsgFrame { label, args });
                Ok(())
            }
        }
    }

    /// Local `trobj` with an owned capture buffer (COMM or enqueue).
    fn local_obj(
        &mut self,
        c: ChanRef,
        table: TableId,
        captured: Vec<Word>,
    ) -> Result<(), VmError> {
        match self.chan_mut(c).pop_msg() {
            Some(msg) => self.fire_method_frame(table, msg.label, captured, msg.args),
            None => {
                self.chan_mut(c).push_obj(ObjFrame { table, captured });
                Ok(())
            }
        }
    }

    /// Fire a method whose arguments are the top `len - at` stack words:
    /// they move straight into the new thread's frame.
    fn fire_method_stack(
        &mut self,
        obj: ObjFrame,
        label: LabelId,
        stack: &mut Vec<Word>,
        at: usize,
    ) -> Result<(), VmError> {
        let block = self.method_block(obj.table, label, stack.len() - at)?;
        self.stats.comm += 1;
        let mut frame = obj.captured;
        move_tail(stack, at, &mut frame);
        self.spawn(block, frame);
        Ok(())
    }

    /// Fire a method: `frame` already holds the captured environment; the
    /// (pooled) argument buffer is appended wholesale and recycled.
    fn fire_method_frame(
        &mut self,
        table: TableId,
        label: LabelId,
        mut frame: Vec<Word>,
        mut args: Vec<Word>,
    ) -> Result<(), VmError> {
        let block = self.method_block(table, label, args.len())?;
        self.stats.comm += 1;
        frame.append(&mut args);
        self.recycle(args);
        self.spawn(block, frame);
        Ok(())
    }

    /// Resolve `label` in `table` and check the argument count, through the
    /// method-lookup inline cache. A hit answers from 16 bytes of hot cache
    /// state (block id *and* arity — no table scan, no block deref); a miss
    /// falls back to the linear [`MethodTable::lookup`] and fills the MRU
    /// way. Monomorphic sends pin way 0; a second label hashing to the same
    /// set (polymorphic send site or set collision) survives in way 1.
    #[inline(always)]
    fn method_block(
        &mut self,
        table: TableId,
        label: LabelId,
        found: usize,
    ) -> Result<BlockId, VmError> {
        let key = ((table as u64) << 32) | label as u64;
        let base = ic_set(table, label) * 2;
        let e0 = self.ic[base];
        if e0.key == key {
            self.stats.ic_hits += 1;
            return self.check_arity(e0.block, e0.nparams, label, found);
        }
        let e1 = self.ic[base + 1];
        if e1.key == key {
            // Promote the hit to the MRU way.
            self.ic[base] = e1;
            self.ic[base + 1] = e0;
            self.stats.ic_hits += 1;
            return self.check_arity(e1.block, e1.nparams, label, found);
        }
        self.stats.ic_misses += 1;
        let block = self.program.tables[table as usize]
            .lookup(label)
            .ok_or_else(|| VmError::NoMethod {
                label: self.program.labels.get(label).to_string(),
            })?;
        let nparams = self.program.blocks[block as usize].nparams;
        self.ic[base + 1] = e0;
        self.ic[base] = IcEntry {
            key,
            block,
            nparams,
        };
        self.check_arity(block, nparams, label, found)
    }

    #[inline(always)]
    fn check_arity(
        &self,
        block: BlockId,
        nparams: u16,
        label: LabelId,
        found: usize,
    ) -> Result<BlockId, VmError> {
        if nparams as usize != found {
            return Err(VmError::Arity {
                what: format!("method `{}`", self.program.labels.get(label)),
                expected: nparams as usize,
                found,
            });
        }
        Ok(block)
    }

    fn fire_method(
        &mut self,
        obj: ObjFrame,
        label: LabelId,
        args: Vec<Word>,
    ) -> Result<(), VmError> {
        self.fire_method_frame(obj.table, label, obj.captured, args)
    }

    /// Local `instof` (INST) with the arguments taken from the top
    /// `len - at` words of the operand stack.
    fn instantiate_stack(
        &mut self,
        cr: ClassRefW,
        stack: &mut Vec<Word>,
        at: usize,
    ) -> Result<(), VmError> {
        let mut frame = self.take_vec();
        let g = &self.groups[cr.group as usize];
        let entries = &self.program.tables[g.table as usize].entries;
        let Some(&(label, block)) = entries.get(cr.index as usize) else {
            return Err(VmError::NotAClass(format!(
                "group {} index {}",
                cr.group, cr.index
            )));
        };
        let b = &self.program.blocks[block as usize];
        let found = stack.len() - at;
        if b.nparams as usize != found {
            return Err(VmError::Arity {
                what: format!("class `{}`", self.program.labels.get(label)),
                expected: b.nparams as usize,
                found,
            });
        }
        self.stats.inst += 1;
        frame.reserve(b.frame_size());
        frame.push(Word::Class(cr));
        frame.extend(g.captured.iter().cloned());
        move_tail(stack, at, &mut frame);
        self.spawn(block, frame);
        Ok(())
    }

    // -- mobility ----------------------------------------------------------------

    fn pack_table(&mut self, table: TableId) -> std::sync::Arc<wire::Packed> {
        if let Some(p) = self.pack_cache.get(&table) {
            return p.clone();
        }
        let packed = std::sync::Arc::new(wire::pack(&self.program, &[table]));
        self.pack_cache.insert(table, packed.clone());
        packed
    }

    /// Link a fetched class group into the program area. Verify-once: the
    /// image was screened where it entered the node (daemon ingest /
    /// transport reader), or never crossed a trust boundary (same-process
    /// delivery), so linking skips the verifier pass.
    fn link_group(&mut self, group: &WireGroup, index: u8) -> Result<ClassRefW, VmError> {
        // Mobile code gets the same superinstruction pass as boot code.
        let lm: LinkMap = wire::link_into(&mut self.program, &group.code, self.fuse_enabled);
        let table = *lm
            .tables
            .get(group.table as usize)
            .ok_or_else(|| VmError::CodeRejected(format!("group table {} dangles", group.table)))?;
        let captured: Vec<Word> = group
            .captured
            .iter()
            .map(|w| self.incoming_word(w.clone(), false))
            .collect::<Result<_, _>>()?;
        let gid = self.groups.len() as u32;
        self.groups.push(GroupObj { table, captured });
        Ok(ClassRefW { group: gid, index })
    }

    /// The heap id of a local channel's export entry, made on its first
    /// departure.
    fn export_chan(&mut self, c: ChanRef) -> u64 {
        let slot = &mut self.channels[c as usize];
        if slot.export == NO_EXPORT {
            slot.export = self.exports.add_chan(c);
        }
        slot.export
    }

    /// This site's counts for a channel it holds from another site, if it
    /// counts it at all. The table is empty unless an owner sent this site
    /// one of its channels: the lookup is skipped then.
    fn held_mut(&mut self, r: &NetRef) -> Option<&mut Held> {
        if self.held.is_empty() {
            None
        } else {
            self.held.get_mut(r)
        }
    }

    /// A `Msg` or `Obj` leaves for the held channel `r`.
    fn count_sent(&mut self, r: &NetRef) {
        if let Some(h) = self.held_mut(r) {
            h.sent += 1;
        }
    }

    /// Translate a word leaving the site for site `to` (local references
    /// become network references through the export table — §5's first
    /// translation step). The export entry of a local channel counts it as
    /// sent to `to`, or with `pin` keeps it for good: a class environment
    /// is kept by whoever fetched it. A channel held from another site
    /// goes back to its owner as itself and to anyone else as a forwarded
    /// reference, which this site then never releases (DESIGN.md §20).
    pub fn outgoing(&mut self, w: Word, to: SiteId, pin: bool) -> WireWord {
        let ident = self.port.identity();
        match w {
            Word::Unit => WireWord::Unit,
            Word::Int(i) => WireWord::Int(i),
            Word::Bool(b) => WireWord::Bool(b),
            Word::Float(x) => WireWord::Float(x),
            Word::Str(s) => WireWord::Str(s.to_string()),
            Word::Chan(c) => {
                let heap_id = self.export_chan(c);
                if pin {
                    self.exports.pin(heap_id);
                } else {
                    self.exports.sent_to(heap_id, to);
                }
                WireWord::Chan(NetRef {
                    heap_id,
                    site: ident.site,
                    node: ident.node,
                })
            }
            Word::NetChan(r) if r.site == to => {
                self.count_sent(&r);
                WireWord::Chan(r)
            }
            Word::NetChan(r) => {
                if let Some(h) = self.held_mut(&r) {
                    h.sticky = true;
                }
                WireWord::FwdChan(r)
            }
            Word::Class(cr) => WireWord::Class(NetRef {
                heap_id: self.exports.export_class(cr),
                site: ident.site,
                node: ident.node,
            }),
            Word::NetClass(r) => WireWord::Class(r),
        }
    }

    /// Translate an arriving wire word (references bound to this site
    /// become local pointers — §5's second translation step). A `direct`
    /// word arrived as an argument of a `Msg` or a capture of an `Obj`: a
    /// channel in one came from its owner, and this site counts it.
    pub fn incoming_word(&mut self, w: WireWord, direct: bool) -> Result<Word, VmError> {
        let me = self.port.identity().site;
        Ok(match w {
            WireWord::Unit => Word::Unit,
            WireWord::Int(i) => Word::Int(i),
            WireWord::Bool(b) => Word::Bool(b),
            WireWord::Float(x) => Word::Float(x),
            WireWord::Str(s) => Word::Str(s.into()),
            WireWord::Chan(r) | WireWord::FwdChan(r) if r.site == me => {
                Word::Chan(self.arrived(r.heap_id)?)
            }
            WireWord::Chan(r) => {
                if direct {
                    self.held.entry(r).or_default().recv += 1;
                }
                Word::NetChan(r)
            }
            WireWord::FwdChan(r) => Word::NetChan(r),
            WireWord::Class(r) if r.site == me => Word::Class(
                self.exports
                    .resolve_class(r.heap_id)
                    .ok_or(VmError::BadHeapId(r.heap_id))?,
            ),
            WireWord::Class(r) => Word::NetClass(r),
        })
    }

    // -- incoming queue ------------------------------------------------------------

    fn drain_incoming(&mut self) -> Result<(), VmError> {
        while let Some(item) = self.port.poll() {
            match item {
                Incoming::Msg { dest, label, args } => {
                    self.stats.msgs_recv += 1;
                    let delivered = self.deliver_msg(dest, &label, args);
                    self.drop_stale(delivered)?;
                }
                Incoming::Obj { dest, obj } => {
                    self.stats.objs_recv += 1;
                    let delivered = self.deliver_obj(dest, obj);
                    self.drop_stale(delivered)?;
                }
                Incoming::FetchReq {
                    dest,
                    req,
                    reply_to,
                } => {
                    self.stats.fetches_served += 1;
                    let cr = self
                        .exports
                        .resolve_class(dest)
                        .ok_or(VmError::BadHeapId(dest))?;
                    let g = &self.groups[cr.group as usize];
                    let table = g.table;
                    let captured = g.captured.clone();
                    let packed = self.pack_table(table);
                    let wire_captured: Vec<WireWord> = captured
                        .into_iter()
                        .map(|w| self.outgoing(w, reply_to.site, true))
                        .collect();
                    let group = WireGroup {
                        code: packed.code.clone(),
                        table: packed.roots[0],
                        captured: wire_captured,
                    };
                    self.port
                        .fetch_reply(reply_to, req, packed.code.digest(), group, cr.index);
                }
                Incoming::FetchReply { req, group, index } => {
                    // Idempotence: a reply for a request this machine is
                    // not waiting on (duplicate delivery, or a late reply
                    // after the first already resolved) must not link and
                    // instantiate a second copy of the class.
                    let Some(netref) = self.pending_fetch.remove(&req) else {
                        self.stats.dup_fetch_replies += 1;
                        continue;
                    };
                    let cr = self.link_group(&group, index)?;
                    self.fetch_cache.insert(netref, cr);
                    if let Some(t) = self.parked.remove(&req) {
                        self.run_queue.push_back(t);
                    }
                }
                Incoming::ImportReady { req } => {
                    if let Some(t) = self.parked.remove(&req) {
                        self.run_queue.push_back(t);
                    }
                }
                Incoming::ImportFailed { req, reason } => {
                    self.parked.remove(&req);
                    return Err(VmError::ImportFailed(reason));
                }
                Incoming::Release {
                    from_site,
                    seq,
                    runs,
                } => {
                    for c in self.exports.release(from_site, seq, &runs) {
                        self.channels[c as usize].export = NO_EXPORT;
                    }
                }
            }
        }
        Ok(())
    }

    /// A remote packet addressed to or carrying this site's channel export
    /// `id`.
    fn arrived(&mut self, id: u64) -> Result<ChanRef, VmError> {
        let (c, reclaimed) = self.exports.deliver(id).ok_or(VmError::BadHeapId(id))?;
        if reclaimed {
            self.channels[c as usize].export = NO_EXPORT;
        }
        Ok(c)
    }

    fn deliver_msg(&mut self, dest: u64, label: &str, args: Vec<WireWord>) -> Result<(), VmError> {
        let c = self.arrived(dest)?;
        let label = self.program.labels.intern(label);
        // The words go into a pooled buffer and the decoded vector is
        // freed: pooled, its exact-size allocation would come back as a
        // frame or stack too small to hold one.
        let mut words = self.take_vec();
        for w in args {
            words.push(self.incoming_word(w, true)?);
        }
        self.local_msg(c, label, words)
    }

    fn deliver_obj(&mut self, dest: u64, obj: WireObj) -> Result<(), VmError> {
        let c = self.arrived(dest)?;
        // Verify-once: screened at the node boundary (see `link_group`).
        let lm = wire::link_into(&mut self.program, &obj.code, self.fuse_enabled);
        let table = *lm
            .tables
            .get(obj.table as usize)
            .ok_or_else(|| VmError::CodeRejected(format!("object table {} dangles", obj.table)))?;
        let captured: Vec<Word> = obj
            .captured
            .into_iter()
            .map(|w| self.incoming_word(w, true))
            .collect::<Result<_, _>>()?;
        self.local_obj(c, table, captured)
    }

    /// A remote `Msg` or `Obj` that names a channel export this site issued
    /// and has since reclaimed is stale, a late or duplicated delivery
    /// (DESIGN.md §20): it is dropped and counted. An id never issued
    /// stays a protocol error.
    fn drop_stale(&mut self, delivered: Result<(), VmError>) -> Result<(), VmError> {
        match delivered {
            Err(VmError::BadHeapId(id)) if self.exports.issued(id) => {
                self.stats.stale_deliveries += 1;
                Ok(())
            }
            other => other,
        }
    }

    // -- garbage collection -------------------------------------------------------

    /// Mark–sweep over the channel heap. Roots: run-queue and parked
    /// thread frames/stacks, class-group captured environments, and the
    /// export table (channels that remote references may still name). The
    /// same marking finds which held channels are still reachable; the
    /// others go back to their owners.
    pub fn gc(&mut self) {
        self.stats.gcs += 1;
        let mut marked = vec![false; self.channels.len()];
        let mut work: Vec<ChanRef> = Vec::new();

        let track = !self.held.is_empty();
        let held = &mut self.held;
        let mut scan = |w: &Word, work: &mut Vec<ChanRef>| match w {
            Word::Chan(c) => work.push(*c),
            Word::NetChan(r) if track => {
                if let Some(h) = held.get_mut(r) {
                    h.reached = true;
                }
            }
            _ => {}
        };
        for t in self.run_queue.iter().chain(self.parked.values()) {
            for w in t.frame.iter().chain(t.stack.iter()) {
                scan(w, &mut work);
            }
        }
        for g in &self.groups {
            for w in &g.captured {
                scan(w, &mut work);
            }
        }
        work.extend(self.exports.chan_roots());

        while let Some(c) = work.pop() {
            let i = c as usize;
            if marked[i] {
                continue;
            }
            marked[i] = true;
            let slot = &self.channels[i];
            if slot.used() {
                slot.state.for_each_word(|w| scan(w, &mut work));
            }
        }

        for (i, slot) in self.channels.iter_mut().enumerate() {
            if !marked[i] && slot.used() {
                // Drop what waits on an unreachable channel, its boxed
                // queue included: a free slot holds no allocation.
                slot.export = FREE;
                slot.state = ChanState::Empty;
                self.free_chans.push(i as u32);
                self.live_chans -= 1;
                self.stats.chans_collected += 1;
            }
        }
        // Adaptive threshold: at least GC_MIN, else twice the surviving set.
        self.gc_threshold = (self.live_chans * 2).max(GC_MIN);
        if track {
            self.release_unreached();
        }
    }

    /// Give every held channel the collection did not reach back to its
    /// owner: one release per owner site, ids with equal counts folded into
    /// runs. A forwarded channel stays held for good.
    fn release_unreached(&mut self) {
        let mut gone: Vec<(NetRef, Held)> = Vec::new();
        self.held.retain(|r, h| {
            let keep = std::mem::take(&mut h.reached) || h.sticky;
            if !keep {
                gone.push((*r, *h));
            }
            keep
        });
        self.held_threshold = (self.held.len() * 2).max(GC_MIN);
        gone.sort_unstable_by_key(|(r, _)| (r.site, r.heap_id));
        for owner in gone.chunk_by(|a, b| a.0.site == b.0.site) {
            let mut runs: Vec<ReleaseRun> = Vec::new();
            for (r, h) in owner {
                match runs.last_mut() {
                    Some(run)
                        if run.first.checked_add(run.len.into()) == Some(r.heap_id)
                            && (run.recv, run.sent) == (h.recv, h.sent) =>
                    {
                        run.len += 1;
                    }
                    _ => runs.push(ReleaseRun {
                        first: r.heap_id,
                        len: 1,
                        recv: h.recv,
                        sent: h.sent,
                    }),
                }
            }
            self.release_seq += 1;
            let r = owner[0].0;
            let owner = Identity {
                site: r.site,
                node: r.node,
            };
            self.port.release(owner, self.release_seq, runs);
        }
    }
}

/// Builtin binary operators over machine words.
pub fn binop(op: BinOp, a: Word, b: Word) -> Result<Word, VmError> {
    use BinOp::*;
    use Word::*;
    Ok(match (op, a, b) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(x), Int(y)) => {
            if y == 0 {
                return Err(VmError::BadOperands("division by zero".into()));
            }
            Int(x.wrapping_div(y))
        }
        (Mod, Int(x), Int(y)) => {
            if y == 0 {
                return Err(VmError::BadOperands("modulo by zero".into()));
            }
            Int(x.wrapping_rem(y))
        }
        (Add, Float(x), Float(y)) => Float(x + y),
        (Sub, Float(x), Float(y)) => Float(x - y),
        (Mul, Float(x), Float(y)) => Float(x * y),
        (Div, Float(x), Float(y)) => Float(x / y),
        (Lt, Int(x), Int(y)) => Bool(x < y),
        (Le, Int(x), Int(y)) => Bool(x <= y),
        (Gt, Int(x), Int(y)) => Bool(x > y),
        (Ge, Int(x), Int(y)) => Bool(x >= y),
        (Lt, Float(x), Float(y)) => Bool(x < y),
        (Le, Float(x), Float(y)) => Bool(x <= y),
        (Gt, Float(x), Float(y)) => Bool(x > y),
        (Ge, Float(x), Float(y)) => Bool(x >= y),
        (Eq, x, y) => Bool(x == y),
        (Ne, x, y) => Bool(x != y),
        (And, Bool(x), Bool(y)) => Bool(x && y),
        (Or, Bool(x), Bool(y)) => Bool(x || y),
        (Concat, Str(x), Str(y)) => {
            let mut s = String::with_capacity(x.len() + y.len());
            s.push_str(&x);
            s.push_str(&y);
            Str(s.into())
        }
        (op, _, _) => return Err(VmError::BadOperands(op.symbol().to_string())),
    })
}

/// Builtin unary operators over machine words.
pub fn unop(op: UnOp, a: Word) -> Result<Word, VmError> {
    match (op, a) {
        (UnOp::Neg, Word::Int(i)) => Ok(Word::Int(i.wrapping_neg())),
        (UnOp::Neg, Word::Float(x)) => Ok(Word::Float(-x)),
        (UnOp::Not, Word::Bool(b)) => Ok(Word::Bool(!b)),
        (op, _) => Err(VmError::BadOperands(op.symbol().to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::LoopbackPort;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

    fn machine(src: &str) -> Machine<LoopbackPort> {
        Machine::from_source(src, LoopbackPort::new("main")).expect("compiles")
    }

    #[test]
    fn export_table_is_stable_and_bijective() {
        // A channel's heap id lives in its slot: a second departure
        // reuses it.
        let mut m = machine("new a new b (a![1] | b![2])");
        m.run_to_quiescence(10_000).unwrap();
        let a = m.export_chan(0);
        let b = m.export_chan(1);
        assert_ne!(a, b);
        assert_eq!(m.export_chan(0), a, "re-export returns the same heap id");
        let t = &mut m.exports;
        assert_eq!(t.resolve_chan(a), Some(0));
        assert_eq!(t.resolve_chan(b), Some(1));
        assert_eq!(t.resolve_chan(999), None);
        let c = t.export_class(ClassRefW { group: 1, index: 0 });
        assert_eq!(t.resolve_class(c), Some(ClassRefW { group: 1, index: 0 }));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    /// A pinned entry among short-lived ones moves out of the dense
    /// window once the window is mostly holes, so the window stays short
    /// while every id still resolves.
    #[test]
    fn a_long_lived_entry_leaves_the_export_window_for_the_map() {
        let mut t = ExportTable::default();
        let kept = t.add_chan(0);
        t.pin(kept);
        let mut gone = Vec::new();
        for c in 1..=1000 {
            let id = t.add_chan(c);
            t.sent_to(id, SiteId(1));
            t.sent_to(id, SiteId(2));
            let runs = [ReleaseRun {
                first: id,
                len: 1,
                recv: 1,
                sent: 0,
            }];
            assert!(t.release(SiteId(1), c.into(), &runs).is_empty());
            assert_eq!(t.release(SiteId(2), c.into(), &runs), [c]);
            gone.push(id);
        }
        assert!(t.window.len() <= WINDOW_SLACK, "{} slots", t.window.len());
        assert_eq!(t.old.len(), 1);
        assert_eq!(t.resolve_chan(kept), Some(0));
        assert!(gone.iter().all(|&id| t.resolve_chan(id).is_none()));
        assert_eq!(t.chan_roots().collect::<Vec<_>>(), [0]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_channel_slot_is_one_word_more_than_its_queues() {
        // A site that churns channels keeps thousands of slots.
        assert_eq!(
            std::mem::size_of::<ChanSlot>(),
            std::mem::size_of::<ChanState>() + 8
        );
    }

    #[test]
    fn a_channel_slot_is_at_most_forty_bytes() {
        // The first waiter is held in place and a queue is boxed: the
        // slot is its export word and a 32-byte state.
        let size = std::mem::size_of::<ChanSlot>();
        assert!(size <= 40, "a channel slot is {size} bytes");
    }

    /// Which side waits on a channel, and how many wait there.
    fn waiting(state: &ChanState) -> (usize, usize) {
        match state {
            ChanState::Empty => (0, 0),
            ChanState::Msg { .. } => (1, 0),
            ChanState::Obj { .. } => (0, 1),
            ChanState::Msgs(q) => (q.len(), 0),
            ChanState::Objs(q) => (0, q.len()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Messages and objects arriving on one channel in any order,
        /// through all four entry points, fire the same methods with the
        /// same frames in the same order as the two FIFO queues they
        /// replace; at most one side ever waits, and a channel that never
        /// held two waiters since it was last empty holds no box.
        #[test]
        fn one_waiting_side_fires_like_two_fifo_queues(
            ops in proptest::collection::vec((0u8..4, 0usize..2), 0..48)
        ) {
            let mut m = machine("new y new x x?{ a(u) = y![u], b(u, v) = y![u, v] }");
            m.run_to_quiescence(10_000).unwrap();
            let (table, ncap) = m
                .channels
                .iter()
                .find_map(|s| match &s.state {
                    ChanState::Obj { table, captured } => Some((*table, captured.len())),
                    _ => None,
                })
                .expect("the object waits on x");
            prop_assert!(ncap > 0, "the object captures y");
            let methods: Vec<(LabelId, BlockId, usize)> = m.program.tables[table as usize]
                .entries
                .iter()
                .map(|&(l, b)| (l, b, m.program.blocks[b as usize].nparams as usize))
                .collect();
            let c = m.alloc_chan();
            let mut msgs: VecDeque<(LabelId, Vec<Word>)> = VecDeque::new();
            let mut objs: VecDeque<Vec<Word>> = VecDeque::new();
            let mut peak = 0;
            let mut next = 0;
            let mut fresh = |n: usize| -> Vec<Word> {
                (0..n)
                    .map(|_| {
                        next += 1;
                        Word::Int(next)
                    })
                    .collect()
            };
            for (op, which) in ops {
                let queued = m.run_queue.len();
                let fired = if op < 2 {
                    let (label, _, nparams) = methods[which];
                    let args = fresh(nparams);
                    let fired = objs
                        .pop_front()
                        .map(|cap| (label, [cap, args.clone()].concat()));
                    if fired.is_none() {
                        msgs.push_back((label, args.clone()));
                    }
                    if op == 0 {
                        let mut stack = vec![Word::Unit];
                        stack.extend(args);
                        m.local_msg_stack(c, label, &mut stack, 1).unwrap();
                        prop_assert_eq!(stack, vec![Word::Unit]);
                    } else {
                        m.local_msg(c, label, args).unwrap();
                    }
                    fired
                } else {
                    let cap = fresh(ncap);
                    let fired = msgs
                        .pop_front()
                        .map(|(label, args)| (label, [cap.clone(), args].concat()));
                    if fired.is_none() {
                        objs.push_back(cap.clone());
                    }
                    if op == 2 {
                        let mut stack = vec![Word::Unit];
                        stack.extend(cap);
                        m.local_obj_stack(c, table, &mut stack, 1).unwrap();
                        prop_assert_eq!(stack, vec![Word::Unit]);
                    } else {
                        m.local_obj(c, table, cap).unwrap();
                    }
                    fired
                };
                match fired {
                    Some((label, frame)) => {
                        prop_assert_eq!(m.run_queue.len(), queued + 1);
                        let t = m.run_queue.back().unwrap();
                        let block = methods.iter().find(|&&(l, ..)| l == label).unwrap().1;
                        prop_assert_eq!(t.block, block);
                        prop_assert_eq!(&t.frame[..frame.len()], &frame[..]);
                    }
                    None => prop_assert_eq!(m.run_queue.len(), queued),
                }
                prop_assert!(msgs.is_empty() || objs.is_empty());
                let state = &m.channels[c as usize].state;
                prop_assert_eq!(waiting(state), (msgs.len(), objs.len()));
                peak = if msgs.is_empty() && objs.is_empty() {
                    0
                } else {
                    peak.max(msgs.len() + objs.len())
                };
                if peak < 2 {
                    prop_assert!(!matches!(state, ChanState::Msgs(_) | ChanState::Objs(_)));
                }
            }
        }
    }

    #[test]
    fn a_released_channel_is_reclaimed_and_late_packets_to_it_are_stale() {
        let mut m = machine("new x (x![1] | x?(v) = 0)");
        m.run_to_quiescence(10_000).unwrap();
        let holder = SiteId(5);
        let WireWord::Chan(r) = m.outgoing(Word::Chan(0), holder, false) else {
            panic!("a channel leaves as a channel");
        };
        m.port.inject(Incoming::Release {
            from_site: holder,
            seq: 1,
            runs: vec![ReleaseRun {
                first: r.heap_id,
                len: 1,
                recv: 1,
                sent: 0,
            }],
        });
        m.run_to_quiescence(10_000).unwrap();
        assert!(m.exports.is_empty(), "released with nothing owed");
        m.port.inject(Incoming::Msg {
            dest: r.heap_id,
            label: "ping".into(),
            args: vec![WireWord::Int(1)],
        });
        m.run_to_quiescence(10_000)
            .expect("a late packet to a reclaimed id is not a protocol error");
        assert_eq!(m.stats.stale_deliveries, 1);
        // Ids are never reused: leaving again, the channel gets a new one.
        let WireWord::Chan(again) = m.outgoing(Word::Chan(0), holder, false) else {
            panic!("a channel leaves as a channel");
        };
        assert_ne!(again.heap_id, r.heap_id);
        assert_eq!(m.exports.resolve_chan(again.heap_id), Some(0));
    }

    #[test]
    fn gc_releases_unreachable_held_channels_in_runs() {
        let mut m = machine(
            "export new hold in \
             def Srv(p) = p?{ drop(r) = (r![] | Srv[p]), keep(r) = (hold![r] | Srv[p]) } in \
             export new p in Srv[p]",
        );
        m.run_to_quiescence(10_000).unwrap();
        let Some(WireWord::Chan(p)) = m.port.registered("p").cloned() else {
            panic!("p is registered");
        };
        let held = |site: u32, heap_id: u64| NetRef {
            heap_id,
            site: SiteId(site),
            node: NodeId(site),
        };
        for (label, r) in [
            ("drop", held(7, 10)),
            ("drop", held(7, 11)),
            ("keep", held(7, 12)),
            ("drop", held(7, 13)),
            ("drop", held(8, 3)),
        ] {
            m.port.inject(Incoming::Msg {
                dest: p.heap_id,
                label: label.into(),
                args: vec![WireWord::Chan(r)],
            });
        }
        m.run_to_quiescence(10_000).unwrap();
        m.gc();
        let run = |first, len| ReleaseRun {
            first,
            len,
            recv: 1,
            sent: 1,
        };
        let owner = |site| Identity {
            site: SiteId(site),
            node: NodeId(site),
        };
        assert_eq!(
            m.port.released,
            vec![
                (owner(7), 1, vec![run(10, 2), run(13, 1)]),
                (owner(8), 2, vec![run(3, 1)]),
            ],
            "one release per owner, equal neighbours folded, the parked one kept"
        );
        m.gc();
        assert_eq!(m.port.released.len(), 2, "a reachable channel stays held");
    }

    #[test]
    fn stale_export_id_in_delivered_msg_is_bad_heap_id() {
        // A message addressed to a heap id this site never exported (e.g.
        // a peer holding a reference from a previous incarnation) must
        // surface as a protocol error, not a silent drop or a panic.
        let mut m = machine("new x (x![1] | x?(v) = 0)");
        m.run_to_quiescence(10_000).unwrap();
        m.port.inject(Incoming::Msg {
            dest: 777,
            label: "ping".into(),
            args: vec![WireWord::Int(1)],
        });
        assert!(matches!(
            m.run_to_quiescence(10_000),
            Err(VmError::BadHeapId(777))
        ));
    }

    #[test]
    fn outgoing_incoming_translation_roundtrip() {
        let mut m = machine("new x (x![1] | x?(v) = 0)");
        m.run_to_quiescence(10_000).unwrap();
        // A local channel leaves as a NetChan with our identity and comes
        // back as the same local channel.
        let w = m.outgoing(Word::Chan(0), SiteId(1), false);
        match &w {
            WireWord::Chan(r) => assert_eq!(r.site, m.port.identity().site),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.incoming_word(w, true).unwrap(), Word::Chan(0));
        // Foreign references pass through untranslated.
        let foreign = NetRef {
            heap_id: 7,
            site: SiteId(42),
            node: NodeId(42),
        };
        assert_eq!(
            m.incoming_word(WireWord::Chan(foreign), false).unwrap(),
            Word::NetChan(foreign)
        );
        // Unknown heap ids are protocol errors.
        let bogus = NetRef {
            heap_id: 1234,
            site: m.port.identity().site,
            node: NodeId(0),
        };
        assert!(matches!(
            m.incoming_word(WireWord::Chan(bogus), false),
            Err(VmError::BadHeapId(1234))
        ));
    }

    #[test]
    fn gc_keeps_exported_channels_alive() {
        let mut m = machine("export new p in 0");
        m.run_to_quiescence(10_000).unwrap();
        let live_before = m.live_channels();
        m.gc();
        assert_eq!(
            m.live_channels(),
            live_before,
            "exported channel is a GC root even with no local references"
        );
    }

    #[test]
    fn gc_scans_channel_queues_transitively() {
        // An EXPORTED holder channel parks a message whose argument is the
        // only reference to another channel: reachability flows export →
        // holder → queued message → keep, so both survive.
        let mut m = machine("new keep (export new holder in (holder![keep] | keep?(v) = 0))");
        m.run_to_quiescence(10_000).unwrap();
        assert_eq!(m.live_channels(), 2);
        m.gc();
        assert_eq!(m.live_channels(), 2);

        // Without any root, the same configuration is unreachable: the
        // parked message can never be consumed, so both channels are
        // garbage.
        let mut m = machine("new keep new holder (holder![keep] | keep?(v) = 0)");
        m.run_to_quiescence(10_000).unwrap();
        assert_eq!(m.live_channels(), 2);
        m.gc();
        assert_eq!(m.live_channels(), 0);

        // The only reference sits in the *second* waiter of a boxed
        // queue: the scan walks the whole queue, so `keep` survives.
        let mut m =
            machine("new keep (export new holder in (holder![0] | holder![keep] | keep?(v) = 0))");
        m.run_to_quiescence(10_000).unwrap();
        let queued = |m: &Machine<LoopbackPort>| {
            m.channels.iter().any(|s| match &s.state {
                ChanState::Msgs(q) => q.len() == 2 && matches!(q[1].args[..], [Word::Chan(_)]),
                _ => false,
            })
        };
        assert!(queued(&m), "two messages wait on holder");
        m.gc();
        assert_eq!(m.live_channels(), 2);
        assert!(queued(&m));

        // Unreachable, the queue goes with its channel: the swept slot
        // holds no box, and its next tenant parks its first waiter in
        // place.
        let mut m = machine("new keep new holder (holder![keep] | holder![keep] | keep?(v) = 0)");
        m.run_to_quiescence(10_000).unwrap();
        assert!(queued(&m));
        m.gc();
        assert_eq!(m.live_channels(), 0);
        assert!(m
            .channels
            .iter()
            .all(|s| matches!(s.state, ChanState::Empty)));
        let c = m.alloc_chan();
        m.local_msg(c, 0, vec![Word::Int(1)]).unwrap();
        assert!(matches!(
            m.channels[c as usize].state,
            ChanState::Msg { ref args, .. } if args[..] == [Word::Int(1)]
        ));
    }

    #[test]
    fn remote_message_with_wrong_arity_is_dynamic_error() {
        // Deliver a malformed incoming message directly (as a buggy or
        // malicious peer would): the dynamic check fires at rendez-vous.
        let mut m = machine("export new p in p?{ go(a, b) = 0 }");
        m.run_to_quiescence(10_000).unwrap();
        m.port.inject(crate::port::Incoming::Msg {
            dest: 0,
            label: "go".into(),
            args: vec![WireWord::Int(1)], // expects two
        });
        let err = m.run_to_quiescence(10_000).unwrap_err();
        assert!(matches!(err, VmError::Arity { .. }), "{err}");
    }

    #[test]
    fn binop_string_and_mixed_errors() {
        assert!(binop(BinOp::Add, Word::Int(1), Word::Bool(true)).is_err());
        assert!(binop(BinOp::Concat, Word::Int(1), Word::Str("x".into())).is_err());
        assert!(binop(BinOp::Lt, Word::Str("a".into()), Word::Str("b".into())).is_err());
        assert_eq!(
            binop(
                BinOp::Concat,
                Word::Str("ab".into()),
                Word::Str("cd".into())
            )
            .unwrap(),
            Word::Str("abcd".into())
        );
        assert_eq!(
            binop(BinOp::Eq, Word::Unit, Word::Unit).unwrap(),
            Word::Bool(true)
        );
    }

    #[test]
    fn frame_slot_zero_holds_class_word_in_class_bodies() {
        let mut m = machine("def K(n) = if n > 0 then K[n - 1] else print(n) in K[2]");
        m.run_to_quiescence(10_000).unwrap();
        assert_eq!(m.io, vec!["0".to_string()]);
        assert_eq!(m.stats.inst, 3);
    }
}
