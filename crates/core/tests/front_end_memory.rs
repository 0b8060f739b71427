//! Declaring a site keeps what the link-time check and `build` need of it
//! and frees its AST before the next declaration. A process that does not
//! host a site never compiles it, so declaring four copies of a large
//! remote site peaks barely above declaring one, and nothing of the front
//! end outlives `build`.

use ditico::{Env, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the live heap bytes of the calling thread and their high-water
/// mark, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-locals without destructors, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Restart the high-water mark at the current live bytes.
fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// A catalogue server: 128 nested `export def`s of long operator chains,
/// about 300 KB of source. What a partition's declaration keeps of it —
/// the interface, ~750 B per exported class, and no source — is ~3 % of
/// the front end's peak, whose bulk is the AST.
fn catalogue() -> String {
    let mut src = String::new();
    for class in 0..128 {
        src.push_str(&format!("export def C{class}(v, r) = r![v"));
        for term in 0..580 {
            src.push_str(&format!(" + {}", term % 10));
        }
        src.push_str("] in\n");
    }
    src.push_str("0\n");
    src
}

/// Declare `copies` of `src` on node 0 of a process that hosts only
/// node 1, then build. Returns the peak live bytes while declaring and the
/// live bytes after `build`, both above what was live before.
fn declare_remote(src: &str, copies: usize) -> (i64, i64) {
    let base = live();
    reset_peak();
    let mut env = Env::new(Topology {
        nodes: 2,
        ..Topology::default()
    })
    .hosting(&[1]);
    for k in 0..copies {
        env = env.site_on(0, &format!("s{k}"), src).expect("declares");
    }
    let declaring = peak() - base;
    let built = env.build().expect("builds");
    let after = live() - base;
    drop(built);
    (declaring, after)
}

#[test]
fn each_remote_site_frees_its_ast_and_build_keeps_none() {
    // Deep nesting needs more than a test thread's stack in a debug build.
    let run = || {
        let src = catalogue();
        assert!(src.len() > 290_000, "{} bytes", src.len());
        let base = live();
        let ast = tyco_syntax::parse_core(&src).expect("parses");
        let ast_bytes = live() - base;
        drop(ast);

        let (one, _) = declare_remote(&src, 1);
        let (four, after) = declare_remote(&src, 4);
        assert!(
            4 * four <= 5 * one,
            "four copies peaked at {four} B, one at {one} B: ASTs pile up"
        );
        assert!(
            after < ast_bytes / 20,
            "{after} B live after build, one AST is {ast_bytes} B"
        );
    };
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("assertions hold");
}
