//! M:N cooperative site scheduler: thousands of sites multiplexed over a
//! fixed worker pool.
//!
//! The paper makes the *site* the basic sequential unit ("threads each
//! running an extended TyCO virtual machine", §5) and the seed runtime
//! took that literally — one OS thread per site. That is the scaling wall
//! for many-site nodes: beyond a few hundred sites the node drowns in
//! context switches and idle-poll wakeups. This module multiplexes any
//! number of sites over `workers` OS threads (default: available
//! parallelism), following the executor-pool design of the Mob abstract
//! machine:
//!
//! * **Edge-triggered readiness.** A site enters a run queue only when the
//!   daemon delivers into its inbox ([`ReadyHandle::mark_ready`]) or its
//!   own pump slice reports runnable threads / a non-empty inbox. An idle
//!   site costs nothing: no parked OS thread, no timeout polls.
//! * **Per-worker LIFO run queues with randomized stealing.** A worker
//!   pops its own queue from the back (the site it just ran is hot), takes
//!   from the global injector next, and finally steals half of a random
//!   victim's queue from the front (the coldest entries).
//! * **Pool-level parking.** A worker that finds every queue empty
//!   registers itself on a parked stack, re-checks, and parks on its own
//!   [`Notify`]; any enqueue pops one parked worker and wakes it. The
//!   register-then-recheck / publish-then-wake ordering makes the handoff
//!   race-free (see the comments in [`Worker::run`]).
//!
//! ## Interaction with the termination detector
//!
//! Site activity is scheduler-owned: a site is *active* iff its state is
//! `QUEUED`, `RUNNING` or `DIRTY`; the pool keeps a global count of
//! active sites (`Shared::active`). A false termination needs the
//! detector to see balanced counters and zero active sites while an
//! effect is still pending. Pending effects are:
//!
//! 1. *A packet in flight* (site outgoing buffer, daemon queue, fabric, or
//!    site inbox): its ticket was minted at `RtPort::send` time and is
//!    dropped only when the packet is drained, so the counters are
//!    unbalanced — the detector cannot fire, active or not.
//! 2. *A site mid-slice*: consuming a packet (`consumed` moves) and
//!    reacting to it (`injected` moves) happen strictly inside a slice,
//!    and a slice runs only in state `RUNNING` — the active count is
//!    positive for the whole window. The worker enters `RUNNING` (SeqCst)
//!    before the slice's first poll and leaves it only after the slice's
//!    sends are flushed (hence counted).
//! 3. *A delivery racing with retirement*: the daemon pushes to the inbox
//!    *before* calling `mark_ready`. If the worker's retire check already
//!    saw the item, it requeues. If `mark_ready` finds the state
//!    `RUNNING`, it CASes to `DIRTY` and the retire CAS `RUNNING→IDLE`
//!    fails — requeue. If the retire CAS won first, `mark_ready` finds
//!    `IDLE` and enqueues. In every interleaving the site ends up queued
//!    (active) or the packet is still uncounted-consumed (unbalanced).
//!
//! The last worker to retire a site (active count hits zero) signals
//! [`Shared::idle`], which drives the threaded environment loop's
//! termination probes event-style instead of on a 1 ms poll quantum. (A
//! distributed run probes on the transport's heartbeat tick instead, and
//! reads [`Shared::active_sites`] there.)

use crate::site::Site;
use crate::wake::{Notify, Wake};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tyco_vm::VmError;

/// Sentinel for [`Shared::running`]: the worker is not pumping any slot.
const NO_SLOT: u32 = u32::MAX;

/// Site scheduling states (stored in [`Slot::state`]).
const IDLE: u8 = 0;
/// In exactly one run queue (local or injector).
const QUEUED: u8 = 1;
/// A worker is pumping it.
const RUNNING: u8 = 2;
/// Running, and new work arrived during the slice: requeue on retire.
const DIRTY: u8 = 3;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Worker pool size; 0 means available parallelism.
    pub workers: usize,
    /// Byte-code instructions per pump slice (context-switch granularity
    /// between sites sharing a worker).
    pub slice_fuel: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 0,
            slice_fuel: 8192,
        }
    }
}

impl SchedConfig {
    /// The effective worker count (resolves 0 to available parallelism).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Aggregated scheduler counters, reported in
/// [`crate::cluster::RunReport`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker pool size of the run.
    pub workers: u64,
    /// Batches stolen from another worker's queue.
    pub steals: u64,
    /// Sites pushed onto the global injector (edge-triggered wakeups).
    pub injector_pushes: u64,
    /// Times a worker parked with every queue empty.
    pub parks: u64,
    /// Wakeups issued to parked workers.
    pub unparks: u64,
    /// Deepest any ready queue (injector or local) ever got.
    pub max_ready_depth: u64,
    /// Total pump slices executed.
    pub slices: u64,
    /// Most slices any single site consumed.
    pub max_site_slices: u64,
}

/// One scheduled site: the site itself plus its scheduling state. The
/// state machine guarantees at most one worker holds the mutex at a time
/// (a site is popped from exactly one queue), so the lock is always
/// uncontended — it exists to keep the slot `Sync` safely.
struct Slot {
    site: Mutex<Site>,
    state: AtomicU8,
    slices: AtomicU64,
}

/// State shared by the workers, the daemons' [`ReadyHandle`]s and the
/// environment thread.
pub struct Shared {
    slots: Vec<Slot>,
    /// Global FIFO injector: newly readied sites land here.
    injector: Mutex<VecDeque<u32>>,
    /// Per-worker run queues (owner pops back, thieves steal front).
    locals: Vec<Mutex<VecDeque<u32>>>,
    /// Stack of parked worker indices (LIFO keeps hot workers busy).
    parked: Mutex<Vec<usize>>,
    n_parked: AtomicUsize,
    /// One wakeup flag per worker.
    wakers: Vec<Notify>,
    /// The slot each worker is currently pumping ([`NO_SLOT`] if none).
    /// Consulted after a worker thread dies to identify the site it
    /// abandoned mid-slice.
    running: Vec<AtomicU32>,
    /// Sites in state QUEUED/RUNNING/DIRTY. The transition to zero is the
    /// pool's idle edge.
    active: AtomicUsize,
    /// Signaled on the active-count zero edge (and on stop): what the
    /// threaded environment loop parks on between Mattern probes.
    pub idle: Arc<Notify>,
    stop: AtomicBool,
    // Counters.
    steals: AtomicU64,
    injector_pushes: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    max_ready_depth: AtomicU64,
}

impl Shared {
    /// Build the pool state over `sites`, all initially runnable (every
    /// site starts with its program's initial thread).
    pub fn new(sites: Vec<Site>, workers: usize) -> Arc<Shared> {
        let n = sites.len();
        let slots: Vec<Slot> = sites
            .into_iter()
            .map(|s| Slot {
                site: Mutex::new(s),
                state: AtomicU8::new(QUEUED),
                slices: AtomicU64::new(0),
            })
            .collect();
        let shared = Shared {
            slots,
            injector: Mutex::new((0..n as u32).collect()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            parked: Mutex::new(Vec::new()),
            n_parked: AtomicUsize::new(0),
            wakers: (0..workers).map(|_| Notify::new()).collect(),
            running: (0..workers).map(|_| AtomicU32::new(NO_SLOT)).collect(),
            active: AtomicUsize::new(n),
            idle: Arc::new(Notify::new()),
            stop: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            injector_pushes: AtomicU64::new(n as u64),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            max_ready_depth: AtomicU64::new(n as u64),
        };
        if n == 0 {
            // Nothing will ever retire; report the idle edge immediately.
            shared.idle.notify();
        }
        Arc::new(shared)
    }

    /// A readiness handle for one site (handed to its node's daemon).
    pub fn handle(self: &Arc<Shared>, slot: u32) -> ReadyHandle {
        ReadyHandle {
            shared: self.clone(),
            slot,
        }
    }

    /// Number of currently active (queued or running) sites.
    pub fn active_sites(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Ask every worker to exit and wake them all.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.notify();
        }
        self.idle.notify();
    }

    /// Push a ready site onto the global injector and wake one parked
    /// worker. The push happens *before* the parked-list check: a worker
    /// registers itself as parked *before* its final queue re-check, so
    /// either it sees this push or we see its registration.
    fn inject(&self, slot: u32) {
        let depth = {
            let mut inj = self.injector.lock();
            inj.push_back(slot);
            inj.len() as u64
        };
        self.injector_pushes.fetch_add(1, Ordering::Relaxed);
        self.max_ready_depth.fetch_max(depth, Ordering::Relaxed);
        self.unpark_one();
    }

    fn unpark_one(&self) {
        if self.n_parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let popped = self.parked.lock().pop();
        if let Some(w) = popped {
            self.n_parked.fetch_sub(1, Ordering::SeqCst);
            self.unparks.fetch_add(1, Ordering::Relaxed);
            self.wakers[w].notify();
        }
    }

    /// Snapshot the pool counters (plus per-site slice totals).
    pub fn stats(&self) -> SchedStats {
        let mut slices = 0;
        let mut max_site = 0;
        for slot in &self.slots {
            let s = slot.slices.load(Ordering::Relaxed);
            slices += s;
            max_site = max_site.max(s);
        }
        SchedStats {
            workers: self.locals.len() as u64,
            steals: self.steals.load(Ordering::Relaxed),
            injector_pushes: self.injector_pushes.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            max_ready_depth: self.max_ready_depth.load(Ordering::Relaxed),
            slices,
            max_site_slices: max_site,
        }
    }

    /// Visit every site after the workers have stopped (report
    /// collection). Locks are uncontended then.
    pub fn for_each_site<F: FnMut(&Site)>(&self, mut f: F) {
        for slot in &self.slots {
            f(&slot.site.lock());
        }
    }

    /// The slot `worker` was pumping when it last checked in, cleared as a
    /// side effect. Used after joining a panicked worker thread: the slot
    /// it abandoned never retires (its state stays `RUNNING`), so the
    /// environment marks it errored via [`Shared::mark_errored`] instead.
    pub fn take_running(&self, worker: usize) -> Option<u32> {
        match self.running[worker].swap(NO_SLOT, Ordering::SeqCst) {
            NO_SLOT => None,
            s => Some(s),
        }
    }

    /// Record a runtime-level failure on `slot`'s site: set its error (if
    /// the slice didn't already record one) and drop its inbox so pending
    /// deliveries are counted consumed (the errored-site draining
    /// discipline). Only sound after every worker has stopped — the site
    /// mutex may be poisoned by the panic, which our `parking_lot` shim's
    /// `lock()` recovers from, but no live worker may still be inside it.
    pub fn mark_errored(&self, slot: u32, err: VmError) {
        let cell = &self.slots[slot as usize];
        let mut site = cell.site.lock();
        if site.error.is_none() {
            site.error = Some(err);
        }
        site.machine.port.drop_inbox();
    }
}

/// The daemon-side readiness handle of one site: delivery into the site's
/// inbox is followed by `mark_ready`, which queues the site unless it is
/// already queued or running (edge-triggered, at most one queue entry per
/// site).
pub struct ReadyHandle {
    shared: Arc<Shared>,
    slot: u32,
}

impl Wake for ReadyHandle {
    fn wake(&self) {
        self.mark_ready();
    }
}

impl ReadyHandle {
    pub fn mark_ready(&self) {
        let st = &self.shared.slots[self.slot as usize].state;
        loop {
            match st.load(Ordering::SeqCst) {
                IDLE => {
                    if st
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.shared.active.fetch_add(1, Ordering::SeqCst);
                        self.shared.inject(self.slot);
                        return;
                    }
                }
                RUNNING => {
                    // The slice may already have checked its inbox; DIRTY
                    // forces the worker to requeue instead of retiring.
                    if st
                        .compare_exchange(RUNNING, DIRTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued (or already marked dirty): the pending
                // wakeup covers this delivery too.
                _ => return,
            }
        }
    }
}

/// Longest park of a thread whose wakeups are all explicit (workers,
/// the daemons' fallback threads): bounds how late it notices the stop
/// flag if a teardown signal were ever missed, nothing else.
pub(crate) const STOP_LATENCY: Duration = Duration::from_millis(100);

/// How many injector entries a worker moves to its local queue per grab.
const INJECTOR_BATCH: usize = 32;

/// One pool worker. Runs on its own OS thread via [`Worker::run`].
pub struct Worker {
    shared: Arc<Shared>,
    index: usize,
    slice_fuel: u64,
    /// xorshift state for randomized victim selection.
    rng: u64,
}

impl Worker {
    pub fn new(shared: Arc<Shared>, index: usize, slice_fuel: u64) -> Worker {
        Worker {
            shared,
            index,
            slice_fuel,
            rng: 0x9e3779b97f4a7c15 ^ (index as u64 + 1).wrapping_mul(0xbf58476d1ce4e5b9),
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The worker loop: find a ready site, pump one slice, requeue or
    /// retire it; park when every queue is empty.
    pub fn run(mut self) {
        loop {
            if self.shared.stop.load(Ordering::Relaxed) {
                return;
            }
            match self.find_work() {
                Some(slot) => self.run_slot(slot),
                None => {
                    // Register as parked BEFORE the final re-check: any
                    // producer pushes work before checking the parked
                    // list, so either our re-check sees the work or the
                    // producer sees us and wakes us.
                    self.shared.parked.lock().push(self.index);
                    self.shared.n_parked.fetch_add(1, Ordering::SeqCst);
                    self.shared.parks.fetch_add(1, Ordering::Relaxed);
                    if self.any_work() || self.shared.stop.load(Ordering::Relaxed) {
                        self.unregister_parked();
                        continue;
                    }
                    // The timeout only bounds worst-case stop latency; the
                    // normal path is an explicit unpark.
                    self.shared.wakers[self.index].wait_timeout(STOP_LATENCY);
                    self.unregister_parked();
                }
            }
        }
    }

    /// Remove this worker from the parked stack if a producer did not
    /// already pop it.
    fn unregister_parked(&self) {
        let mut parked = self.shared.parked.lock();
        if let Some(pos) = parked.iter().position(|&w| w == self.index) {
            parked.remove(pos);
            self.shared.n_parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Is there anything anywhere (injector or any local queue)?
    fn any_work(&self) -> bool {
        if !self.shared.injector.lock().is_empty() {
            return true;
        }
        self.shared.locals.iter().any(|q| !q.lock().is_empty())
    }

    /// Local LIFO pop → injector grab (batched) → randomized steal.
    fn find_work(&mut self) -> Option<u32> {
        if let Some(s) = self.shared.locals[self.index].lock().pop_back() {
            return Some(s);
        }
        {
            let mut inj = self.shared.injector.lock();
            if let Some(s) = inj.pop_front() {
                // Move a batch into the local queue to amortize the
                // injector lock; surplus is stealable there.
                let extra: Vec<u32> = (1..INJECTOR_BATCH).map_while(|_| inj.pop_front()).collect();
                drop(inj);
                if !extra.is_empty() {
                    let mut local = self.shared.locals[self.index].lock();
                    local.extend(extra);
                    let depth = local.len() as u64;
                    drop(local);
                    self.shared
                        .max_ready_depth
                        .fetch_max(depth, Ordering::Relaxed);
                    self.shared.unpark_one();
                }
                return Some(s);
            }
        }
        let n = self.shared.locals.len();
        if n <= 1 {
            return None;
        }
        // One randomized sweep over the other workers; steal half of the
        // first non-empty victim queue, coldest entries first.
        let start = (self.next_rand() as usize) % n;
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == self.index {
                continue;
            }
            let mut v = self.shared.locals[victim].lock();
            if v.is_empty() {
                continue;
            }
            let take = v.len().div_ceil(2);
            let stolen: Vec<u32> = v.drain(..take).collect();
            drop(v);
            self.shared.steals.fetch_add(1, Ordering::Relaxed);
            let (first, rest) = stolen.split_first().expect("take >= 1");
            if !rest.is_empty() {
                self.shared.locals[self.index].lock().extend(rest);
            }
            return Some(*first);
        }
        None
    }

    /// Pump one slice of `slot` and requeue or retire it.
    fn run_slot(&mut self, slot: u32) {
        let cell = &self.shared.slots[slot as usize];
        // The slot came out of exactly one queue, so no other worker can
        // hold it: the only possible concurrent transition is
        // QUEUED→QUEUED no-ops from mark_ready. Entering RUNNING before
        // the first poll keeps the active count covering every consumed
        // packet (termination-safety point 2 in the module docs).
        cell.state.store(RUNNING, Ordering::SeqCst);
        cell.slices.fetch_add(1, Ordering::Relaxed);
        self.shared.running[self.index].store(slot, Ordering::SeqCst);
        let outcome = {
            let mut site = cell.site.lock();
            site.pump_slice(self.slice_fuel)
        };
        self.shared.running[self.index].store(NO_SLOT, Ordering::SeqCst);
        if outcome.runnable || outcome.inbox_nonempty {
            // Still work to do: back of the local queue (hot site runs
            // next). Overwrites DIRTY, which is fine — requeueing is what
            // DIRTY asks for.
            cell.state.store(QUEUED, Ordering::SeqCst);
            let mut local = self.shared.locals[self.index].lock();
            local.push_back(slot);
            let depth = local.len() as u64;
            let surplus = local.len() > 1;
            drop(local);
            self.shared
                .max_ready_depth
                .fetch_max(depth, Ordering::Relaxed);
            if surplus {
                // More than this worker can run next: offer it to a
                // parked worker.
                self.shared.unpark_one();
            }
            return;
        }
        // Retire: nothing runnable, inbox empty at the check. A delivery
        // that raced in since then flipped the state to DIRTY and the CAS
        // fails — requeue instead (termination-safety point 3).
        match cell
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                if self.shared.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // Pool idle edge: let the environment thread probe.
                    self.shared.idle.notify();
                }
            }
            Err(_) => {
                cell.state.store(QUEUED, Ordering::SeqCst);
                let mut local = self.shared.locals[self.index].lock();
                local.push_back(slot);
                drop(local);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolves_workers() {
        let c = SchedConfig::default();
        assert!(c.effective_workers() >= 1);
        let c = SchedConfig {
            workers: 3,
            ..SchedConfig::default()
        };
        assert_eq!(c.effective_workers(), 3);
    }

    #[test]
    fn empty_pool_signals_idle_immediately() {
        let shared = Shared::new(Vec::new(), 2);
        assert_eq!(shared.active_sites(), 0);
        // The idle notification is already pending.
        let t0 = std::time::Instant::now();
        shared.idle.wait_timeout(std::time::Duration::from_secs(5));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }
}
