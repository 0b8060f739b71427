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
//!   daemon delivers into its inbox (its [`ReadyHandle`]) or its
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
//! * **The net thread runs the site it just readied.** A readable event
//!   on the transport's `tyco-net` thread is decoded, delivered and its
//!   sites marked ready on that thread ([`inject_and_run`]). The first
//!   site the event moves `IDLE→QUEUED` is *caught*: it goes to no queue,
//!   no worker is unparked, and once the injection has returned (no lock
//!   held) the net thread runs one slice of it itself — the one OS-thread
//!   hand-off a remote call used to pay on each side. Every other site
//!   the event readies, and every site the caught slice readies (the
//!   catch is disarmed before the slice runs, so runners never nest),
//!   goes to the injector as before, and so does the caught site if it is
//!   still runnable after its slice. Workers and the runner share one
//!   slice body, `Shared::run_slice`; only where a requeued slot goes
//!   differs (a worker's local queue, or the injector).
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
//!    positive for the whole window. The worker (or the net thread's
//!    runner) enters `RUNNING` (SeqCst) before the slice's first poll and
//!    leaves it only after the slice's sends are flushed (hence counted).
//!    A caught site is counted active at the catch, exactly where a
//!    queued one is counted at its push.
//! 3. *A delivery racing with retirement*: the daemon pushes to the inbox
//!    *before* calling `mark_ready`. If the worker's retire check already
//!    saw the item, it requeues. If `mark_ready` finds the state
//!    `RUNNING`, it CASes to `DIRTY` and the retire CAS `RUNNING→IDLE`
//!    fails — requeue. If the retire CAS won first, `mark_ready` finds
//!    `IDLE` and enqueues. In every interleaving the site ends up queued
//!    (active) or the packet is still uncounted-consumed (unbalanced).
//!
//! The last thread to retire a site (active count hits zero) signals
//! [`Shared::idle`], which drives the threaded environment loop's
//! termination probes event-style instead of on a 1 ms poll quantum. (A
//! distributed run probes on the transport's heartbeat tick instead, and
//! reads [`Shared::active_sites`] there.)

use crate::counters::{SchedStats, SchedTally};
use crate::site::Site;
use crate::wake::{Notify, Wake};
use parking_lot::Mutex;
use std::cell::Cell;
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

thread_local! {
    /// Set on the net thread for the length of one readable event's
    /// injection, until the first site it readies is caught.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The caught site: counted active, in state `QUEUED`, in no queue.
    static CAUGHT: Cell<Option<(Arc<Shared>, u32)>> = const { Cell::new(None) };
}

/// Run `inject` — one readable event's injection on the transport's net
/// thread — with the catch armed, then one slice of the first site it
/// readied, here, after it has returned and while this thread holds no
/// lock (module docs). A site it readied goes to the injector as usual
/// if the pool has been stopped.
pub fn inject_and_run(inject: impl FnOnce()) {
    ARMED.set(true);
    inject();
    ARMED.set(false);
    if let Some((shared, slot)) = CAUGHT.take() {
        shared.run_caught(slot);
    }
}

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

/// One scheduled site: the site itself plus its scheduling state. The
/// state machine guarantees at most one thread holds the mutex at a time
/// (a site is popped from exactly one queue, or caught), so the lock is
/// always uncontended — it exists to keep the slot `Sync` safely.
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
    /// Byte-code instructions per pump slice.
    slice_fuel: u64,
    /// What the net thread's runner reports of a slice that panicked
    /// (a worker's panic is reported when its thread is joined).
    aborts: Mutex<Vec<String>>,
    /// Signaled on the active-count zero edge (and on stop): what the
    /// threaded environment loop parks on between Mattern probes.
    pub idle: Arc<Notify>,
    stop: AtomicBool,
    tally: SchedTally,
}

impl Shared {
    /// Build the pool state over `sites`, all initially runnable (every
    /// site starts with its program's initial thread), pumped `slice_fuel`
    /// instructions at a time.
    pub fn new(sites: Vec<Site>, workers: usize, slice_fuel: u64) -> Arc<Shared> {
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
            slice_fuel,
            aborts: Mutex::new(Vec::new()),
            idle: Arc::new(Notify::new()),
            stop: AtomicBool::new(false),
            tally: SchedTally {
                injector_pushes: AtomicU64::new(n as u64),
                max_ready_depth: AtomicU64::new(n as u64),
                ..SchedTally::default()
            },
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

    /// The sites, in slot order, once no worker or handle is left.
    pub fn into_sites(self: Arc<Shared>) -> Vec<Site> {
        let slots = Arc::into_inner(self).expect("an unshared pool").slots;
        slots.into_iter().map(|s| s.site.into_inner()).collect()
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
        self.tally.injector_pushes.fetch_add(1, Ordering::Relaxed);
        self.tally
            .max_ready_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.unpark_one();
    }

    fn unpark_one(&self) {
        if self.n_parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let popped = self.parked.lock().pop();
        if let Some(w) = popped {
            self.n_parked.fetch_sub(1, Ordering::SeqCst);
            self.tally.unparks.fetch_add(1, Ordering::Relaxed);
            self.wakers[w].notify();
        }
    }

    /// Snapshot the pool counters (plus per-site slice totals).
    pub fn stats(&self) -> SchedStats {
        let slices = self.slots.iter().map(|s| s.slices.load(Ordering::Relaxed));
        SchedStats {
            workers: self.locals.len() as u64,
            slices: slices.clone().sum(),
            max_site_slices: slices.max().unwrap_or(0),
            ..self.tally.snapshot()
        }
    }

    /// Visit every site with its slot, in slot order, each under its lock
    /// (a worker pumping one finishes its slice first).
    pub fn for_each_site<F: FnMut(u32, &mut Site)>(&self, mut f: F) {
        for (i, slot) in self.slots.iter().enumerate() {
            f(i as u32, &mut slot.site.lock());
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
    /// discipline). Only sound when no other thread can enter the slot:
    /// after every worker has stopped, or on the thread that holds it
    /// `RUNNING` — the site mutex may be poisoned by the panic, which our
    /// `parking_lot` shim's `lock()` recovers from.
    pub fn mark_errored(&self, slot: u32, err: VmError) {
        let cell = &self.slots[slot as usize];
        let mut site = cell.site.lock();
        if site.error.is_none() {
            site.error = Some(err);
        }
        site.machine.port.drop_inbox();
    }

    /// The abort lines of net-thread slices that panicked, taken.
    pub fn take_aborts(&self) -> Vec<String> {
        std::mem::take(&mut self.aborts.lock())
    }

    /// One slice of `slot`, which its caller took out of exactly one
    /// queue or caught, so no other thread can hold it: the only possible
    /// concurrent transition is QUEUED→QUEUED no-ops from `mark_ready`.
    /// Entering RUNNING before the first poll keeps the active count
    /// covering every consumed packet (termination-safety point 2 in the
    /// module docs).
    fn run_slice(&self, slot: u32) -> Settled {
        let cell = &self.slots[slot as usize];
        cell.state.store(RUNNING, Ordering::SeqCst);
        cell.slices.fetch_add(1, Ordering::Relaxed);
        let outcome = cell.site.lock().pump_slice(self.slice_fuel);
        self.settle(slot, outcome.runnable || outcome.inbox_nonempty)
    }

    /// Requeue (`more` work) or retire a slot leaving `RUNNING`.
    fn settle(&self, slot: u32, more: bool) -> Settled {
        let cell = &self.slots[slot as usize];
        if more {
            // Overwrites DIRTY, which is fine — requeueing is what DIRTY
            // asks for.
            cell.state.store(QUEUED, Ordering::SeqCst);
            return Settled::Runnable;
        }
        // Retire: nothing runnable, inbox empty at the check. A delivery
        // that raced in since then flipped the state to DIRTY and the CAS
        // fails — requeue instead (termination-safety point 3).
        match cell
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // Pool idle edge: let the environment thread probe.
                    self.idle.notify();
                }
                Settled::Retired
            }
            Err(_) => {
                cell.state.store(QUEUED, Ordering::SeqCst);
                Settled::Dirty
            }
        }
    }

    /// The net thread's runner: one slice of the caught `slot`, a requeue
    /// onto the injector. A panic in the slice ends the way a worker's
    /// does when its thread is joined — the site is reported errored,
    /// with an abort line — except that the net thread lives on and
    /// retires the slot, so the run still ends on its verdict.
    fn run_caught(&self, slot: u32) {
        if self.stop.load(Ordering::SeqCst) {
            self.inject(slot);
            return;
        }
        self.tally.net_slices.fetch_add(1, Ordering::Relaxed);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_slice(slot)));
        let settled = ran.unwrap_or_else(|_| {
            self.mark_errored(
                slot,
                VmError::Internal("the net thread panicked mid-slice".into()),
            );
            self.aborts.lock().push(format!(
                "the net thread panicked while pumping site slot {slot}; \
                 the site is reported errored"
            ));
            self.settle(slot, false)
        });
        if settled != Settled::Retired {
            self.inject(slot);
        }
    }
}

/// How a slice left its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// `IDLE`, out of the active count.
    Retired,
    /// `QUEUED` for the caller to push: the site has more to do.
    Runnable,
    /// `QUEUED` for the caller to push: a delivery raced the retire.
    Dirty,
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
        self.shared.mark_ready(self.slot);
    }
}

impl Shared {
    fn mark_ready(self: &Arc<Self>, slot: u32) {
        let st = &self.slots[slot as usize].state;
        loop {
            match st.load(Ordering::SeqCst) {
                IDLE => {
                    if st
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.active.fetch_add(1, Ordering::SeqCst);
                        if !self.catch(slot) {
                            self.inject(slot);
                        }
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

    /// Hand a slot just moved `IDLE→QUEUED` to this thread's catch, if it
    /// is armed; the first catch disarms it.
    fn catch(self: &Arc<Self>, slot: u32) -> bool {
        if !ARMED.get() {
            return false;
        }
        ARMED.set(false);
        CAUGHT.set(Some((self.clone(), slot)));
        true
    }
}

/// Longest park of a worker, whose wakeups are all explicit: bounds how
/// late it notices the stop flag if a teardown signal were ever missed,
/// nothing else.
const STOP_LATENCY: Duration = Duration::from_millis(100);

/// How many injector entries a worker moves to its local queue per grab.
const INJECTOR_BATCH: usize = 32;

/// One pool worker. Runs on its own OS thread via [`Worker::run`].
pub struct Worker {
    shared: Arc<Shared>,
    index: usize,
    /// xorshift state for randomized victim selection.
    rng: u64,
}

impl Worker {
    pub fn new(shared: Arc<Shared>, index: usize) -> Worker {
        Worker {
            shared,
            index,
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
                    self.shared.tally.parks.fetch_add(1, Ordering::Relaxed);
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
                        .tally
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
            self.shared.tally.steals.fetch_add(1, Ordering::Relaxed);
            let (first, rest) = stolen.split_first().expect("take >= 1");
            if !rest.is_empty() {
                self.shared.locals[self.index].lock().extend(rest);
            }
            return Some(*first);
        }
        None
    }

    /// Pump one slice of `slot`; a requeued slot goes to the back of the
    /// local queue (the hot site runs next).
    fn run_slot(&mut self, slot: u32) {
        let running = &self.shared.running[self.index];
        running.store(slot, Ordering::SeqCst);
        let settled = self.shared.run_slice(slot);
        running.store(NO_SLOT, Ordering::SeqCst);
        match settled {
            Settled::Retired => {}
            Settled::Runnable => {
                let mut local = self.shared.locals[self.index].lock();
                local.push_back(slot);
                let depth = local.len() as u64;
                let surplus = local.len() > 1;
                drop(local);
                self.shared
                    .tally
                    .max_ready_depth
                    .fetch_max(depth, Ordering::Relaxed);
                if surplus {
                    // More than this worker can run next: offer it to a
                    // parked worker.
                    self.shared.unpark_one();
                }
            }
            Settled::Dirty => self.shared.locals[self.index].lock().push_back(slot),
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
        let shared = Shared::new(Vec::new(), 2, 8192);
        assert_eq!(shared.active_sites(), 0);
        // The idle notification is already pending.
        let t0 = std::time::Instant::now();
        shared.idle.wait_timeout(std::time::Duration::from_secs(5));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    // --- the net thread's runner -------------------------------------

    use crate::site::{RtIncoming, RtPort};
    use crate::termination::{TermCounters, Ticket};
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use std::sync::Weak;
    use tyco_vm::codec::Packet;
    use tyco_vm::word::{Identity, NodeId, SiteId};

    /// A test site's flush kick: what its slice's sends do, set once the
    /// pool exists (in a real run, the daemon's combining cell).
    #[derive(Default)]
    struct Hook(Mutex<Option<Box<dyn Fn() + Send + Sync>>>);

    impl Wake for Hook {
        fn wake(&self) {
            if let Some(f) = &*self.0.lock() {
                f();
            }
        }
    }

    impl Hook {
        fn set(&self, f: impl Fn() + Send + Sync + 'static) {
            *self.0.lock() = Some(Box::new(f));
        }
    }

    /// Both ends of a test site's queues, kept open for the test.
    type Ends = (
        Receiver<(SiteId, Packet, Ticket)>,
        Sender<(RtIncoming, Ticket)>,
    );

    fn site(i: u32, src: &str, hook: Arc<Hook>) -> (Site, Ends) {
        let ast = tyco_syntax::parse_core(src).expect("test program parses");
        let program = tyco_vm::compile(&ast).expect("test program compiles");
        let identity = Identity {
            site: SiteId(i),
            node: NodeId(0),
        };
        let (out_tx, out_rx) = unbounded();
        let (in_tx, in_rx) = unbounded();
        let port = RtPort::new(
            identity,
            format!("s{i}"),
            out_tx,
            in_rx,
            hook,
            TermCounters::leak(),
        );
        let down = Arc::new(AtomicBool::new(false));
        (Site::new(program, port, down), (out_rx, in_tx))
    }

    /// A one-worker pool over `sites` with every site idle: no queue
    /// entry, nothing active, as if each had run and retired.
    fn idle_pool(sites: Vec<Site>, slice_fuel: u64) -> Arc<Shared> {
        let pool = Shared::new(sites, 1, slice_fuel);
        pool.injector.lock().clear();
        for slot in &pool.slots {
            slot.state.store(IDLE, Ordering::SeqCst);
        }
        pool.active.store(0, Ordering::SeqCst);
        pool
    }

    fn state(pool: &Shared, slot: u32) -> u8 {
        pool.slots[slot as usize].state.load(Ordering::SeqCst)
    }

    fn slices(pool: &Shared, slot: u32) -> u64 {
        pool.slots[slot as usize].slices.load(Ordering::Relaxed)
    }

    /// A program whose only effect is one send on its first slice
    /// (the registration of its export), which kicks its [`Hook`].
    const SENDER: &str = "export new p in 0";

    #[test]
    fn a_caught_site_still_runnable_goes_to_the_injector_and_a_worker_finishes_it() {
        let long = "def L(n) = if n > 0 then L[n - 1] else println(n) in L[5000]";
        let (s0, _ends) = site(0, long, Arc::default());
        let pool = idle_pool(vec![s0], 64);
        inject_and_run(|| pool.handle(0).wake());
        assert_eq!(pool.stats().net_slices, 1);
        assert_eq!(slices(&pool, 0), 1);
        assert_eq!(state(&pool, 0), QUEUED);
        assert_eq!(*pool.injector.lock(), [0]);
        assert_eq!(pool.active_sites(), 1);

        let worker = Worker::new(pool.clone(), 0);
        let t = std::thread::spawn(move || worker.run());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.active_sites() > 0 && std::time::Instant::now() < deadline {
            pool.idle.wait_timeout(Duration::from_millis(100));
        }
        pool.stop();
        t.join().expect("worker");
        assert_eq!(pool.active_sites(), 0, "the worker retires the site");
        assert_eq!(state(&pool, 0), IDLE);
        assert!(slices(&pool, 0) > 1);
        assert_eq!(pool.stats().net_slices, 1, "the worker ran the rest");
        pool.for_each_site(|_, s| assert_eq!(s.machine.io, ["0"]));
    }

    #[test]
    fn only_the_first_site_an_event_readies_is_caught() {
        let (s0, _e0) = site(0, "0", Arc::default());
        let (s1, _e1) = site(1, "0", Arc::default());
        let pool = idle_pool(vec![s0, s1], 8192);
        inject_and_run(|| {
            pool.handle(0).wake();
            pool.handle(1).wake();
        });
        assert_eq!(pool.stats().net_slices, 1);
        assert_eq!((slices(&pool, 0), state(&pool, 0)), (1, IDLE));
        assert_eq!((slices(&pool, 1), state(&pool, 1)), (0, QUEUED));
        assert_eq!(*pool.injector.lock(), [1]);
        assert_eq!(pool.active_sites(), 1);
    }

    #[test]
    fn a_delivery_during_the_runners_slice_requeues_instead_of_retiring() {
        let hook = Arc::new(Hook::default());
        let (s0, _ends) = site(0, SENDER, hook.clone());
        let pool = idle_pool(vec![s0], 8192);
        let kicks = Arc::new(AtomicUsize::new(0));
        let (weak, k) = (Arc::downgrade(&pool), kicks.clone());
        hook.set(move || {
            // A delivery to the running site: RUNNING→DIRTY.
            let pool = weak.upgrade().expect("pool");
            assert_eq!(state(&pool, 0), RUNNING);
            pool.handle(0).wake();
            assert_eq!(state(&pool, 0), DIRTY);
            k.fetch_add(1, Ordering::SeqCst);
        });
        inject_and_run(|| pool.handle(0).wake());
        assert_eq!(kicks.load(Ordering::SeqCst), 1);
        assert_eq!(state(&pool, 0), QUEUED, "requeued, not retired");
        assert_eq!(*pool.injector.lock(), [0]);
        assert_eq!(pool.active_sites(), 1);
        assert_eq!(slices(&pool, 0), 1);
    }

    #[test]
    fn a_site_readied_by_the_runners_own_slice_goes_to_the_injector() {
        let hook = Arc::new(Hook::default());
        let (s0, _e0) = site(0, SENDER, hook.clone());
        let (s1, _e1) = site(1, "0", Arc::default());
        let pool = idle_pool(vec![s0, s1], 8192);
        let weak: Weak<Shared> = Arc::downgrade(&pool);
        hook.set(move || weak.upgrade().expect("pool").handle(1).wake());
        inject_and_run(|| pool.handle(0).wake());
        assert_eq!(pool.stats().net_slices, 1, "no nested run");
        assert_eq!(slices(&pool, 0), 1);
        assert_eq!(slices(&pool, 1), 0);
        assert_eq!(state(&pool, 0), IDLE, "the caught site retired");
        assert_eq!(state(&pool, 1), QUEUED);
        assert_eq!(*pool.injector.lock(), [1]);
        assert_eq!(pool.active_sites(), 1);
    }

    #[test]
    fn a_caught_site_is_active_from_the_catch_to_the_retire() {
        let hook = Arc::new(Hook::default());
        let (s0, _ends) = site(0, SENDER, hook.clone());
        let pool = idle_pool(vec![s0], 8192);
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let (weak, sn) = (Arc::downgrade(&pool), seen.clone());
        hook.set(move || {
            let active = weak.upgrade().expect("pool").active_sites();
            sn.store(active, Ordering::SeqCst);
        });
        inject_and_run(|| {
            pool.handle(0).wake();
            // Caught: in no queue, and counted.
            assert_eq!(state(&pool, 0), QUEUED);
            assert!(pool.injector.lock().is_empty());
            assert_eq!(pool.active_sites(), 1);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 1, "active during the slice");
        assert_eq!(pool.active_sites(), 0);
        assert_eq!(state(&pool, 0), IDLE);
        // The retire was the idle edge.
        let t0 = std::time::Instant::now();
        pool.idle.wait_timeout(Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_panic_in_the_runners_slice_reports_the_site_errored_and_retires_it() {
        let hook = Arc::new(Hook::default());
        let (s0, _ends) = site(0, SENDER, hook.clone());
        let pool = idle_pool(vec![s0], 8192);
        hook.set(|| panic!("test: a slice that panics"));
        inject_and_run(|| pool.handle(0).wake());
        assert_eq!(state(&pool, 0), IDLE);
        assert_eq!(pool.active_sites(), 0);
        let aborts = pool.take_aborts();
        assert_eq!(aborts.len(), 1, "{aborts:?}");
        assert!(aborts[0].contains("slot 0"), "{aborts:?}");
        pool.for_each_site(|_, s| {
            assert!(
                matches!(s.error, Some(VmError::Internal(_))),
                "{:?}",
                s.error
            )
        });
    }
}
