//! An arriving code image allocates per section, not per block: decoding
//! fills one flat view (one vector of code, one of block headers, one of
//! table entries, spans for names and symbols), and verifying reads it
//! with a fixed set of buffers. Only linking pays per block, for the
//! block's code and its name in the program it joins.
//!
//! A process-wide counting allocator measures each stage on two images
//! of one object, with one method and with 64, shipped as a `HaveCode`
//! packet and decoded as a daemon decodes it.
//!
//! Only one `#[test]` lives in this binary, so nothing runs beside it
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tyco_vm::codec::{self, Packet};
use tyco_vm::word::NodeId;
use tyco_vm::{Program, WireCode};

/// Counts every allocation and reallocation of the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a static atomic, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocator calls made by `f`, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Allocator calls per stage for an object of `methods` methods.
struct Stages {
    decode: u64,
    verify: u64,
    warm_link: u64,
}

fn stages(methods: usize) -> Stages {
    let body: Vec<String> = (0..methods).map(|i| format!("m{i}() = 0")).collect();
    let src = format!("new x x?{{ {} }}", body.join(", "));
    let prog = tyco_vm::compile(&tyco_syntax::parse_core(&src).unwrap()).unwrap();
    let packed = tyco_vm::pack(&prog, &[0]);
    let frame = codec::encode(&Packet::HaveCode {
        to: NodeId(0),
        digest: packed.code.digest(),
        code: packed.code,
    });

    let (decode, packet) = counted(|| codec::decode(frame.clone()).expect("decodes"));
    let code: WireCode = match packet {
        Packet::HaveCode { code, .. } => code,
        p => panic!("decoded {p:?}"),
    };
    assert_eq!(code.view().blocks.len(), methods);
    let (verify, verdict) = counted(|| tyco_vm::verify_wire(&code));
    verdict.expect("verifies");
    let mut dest = Program::default();
    let (cold_link, _) = counted(|| tyco_vm::wire::link_into(&mut dest, &code, true));
    // A program's block vector grows by doubling, so whether one link
    // lands on a growth depends on the program, not on the image: give
    // it room, so the warm link counts what the image costs.
    dest.blocks.reserve(methods);
    let (warm_link, _) = counted(|| tyco_vm::wire::link_into(&mut dest, &code, true));
    println!(
        "image_allocs: {methods} block(s): decode {decode}, verify {verify}, \
         cold link {cold_link}, warm link {warm_link}"
    );
    Stages {
        decode,
        verify,
        warm_link,
    }
}

#[test]
fn an_arriving_image_allocates_per_section_and_links_per_block() {
    let one = stages(1);
    let many = stages(64);
    assert_eq!(
        one.decode + one.verify,
        many.decode + many.verify,
        "decode and verify cost the same for 1 block and for 64"
    );
    assert!(
        many.warm_link <= one.warm_link + 2 * 63,
        "a warm link costs at most 2 allocator calls per extra block: {} vs {}",
        many.warm_link,
        one.warm_link
    );
}
