//! A channel costs its slot and nothing more until a second waiter of
//! one side arrives. The `cell_churn` driver — each transaction a fresh
//! reply channel, one waiter on it at a time — runs on one `Machine`
//! under a counting allocator that tracks calls and live bytes.
//!
//! Allocator calls per transaction are the difference between two runs
//! over the extra transactions, so compiling, booting and the printout
//! cancel out. The live-heap peak is taken over the whole run, so it
//! holds the channel heap at its widest, just before a collection.
//!
//! Only one `#[test]` lives in this binary, so nothing runs beside it
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use tyco_vm::{LoopbackPort, Machine};

/// Counts allocator calls and live bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are static atomics, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `iters` local cell transactions (the `cell_churn` benchmark driver).
fn cell_churn(iters: u64) -> String {
    format!(
        r#"
        def Cell(self, v) =
            self ? {{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }}
        and Driver(cell, n) =
            if n > 0 then
                (cell!write[n] | new z (cell!read[z] | z?(w) = Driver[cell, n - 1]))
            else println("finished")
        in new x (Cell[x, 0] | Driver[x, {iters}])
        "#
    )
}

/// Allocator calls and peak live-heap growth, in bytes, of booting and
/// running `iters` transactions; compiling the source is not counted.
fn run(iters: u64) -> (u64, usize) {
    let program = tyco_vm::compile(&tyco_syntax::parse_core(&cell_churn(iters)).unwrap()).unwrap();
    let calls = CALLS.load(Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut m = Machine::new(program, LoopbackPort::new("main"));
    m.run_to_quiescence(u64::MAX).expect("runs");
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(m.io, ["finished"]);
    assert_eq!(m.stats.comm, 3 * iters, "three COMMs per transaction");
    (calls, peak)
}

#[test]
fn a_channel_allocates_nothing_until_a_second_waiter() {
    let (small, _) = run(1_000);
    let (large, _) = run(4_000);
    let per_tx = large.saturating_sub(small) as f64 / 3_000.0;
    let (_, peak) = run(50_000);
    println!(
        "channel_heap: {small} allocs at 1000 transactions, {large} at 4000: {per_tx:.4} per \
         transaction; peak live heap at 50000: {} KB",
        peak / 1024
    );
    assert!(
        per_tx <= 0.01,
        "{per_tx:.4} allocations per transaction (at most 0.01)"
    );
    assert!(
        peak <= 450 * 1024,
        "peak live heap grew {} KB (at most 450 KB)",
        peak / 1024
    );
}
