//! The front end — parse, type-check, compile — does work linear in its
//! input. Allocations per class of a def group and per level of an
//! object nest stay below a small constant, and doubling the input at
//! most doubles the count (2.5× is allowed); an operator chain's count
//! does not grow with its length at all.
//! Both quadratics the compiler once had fail here: every class body
//! re-binding its whole group, and free variables recomputed at every
//! nested closure. So does desugaring that rescans the body of every
//! `let` for the names its reply name must avoid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the calling thread, so tests running in
/// parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by parsing, checking and compiling `src`.
fn front_end_allocs(src: &str) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let ast = tyco_syntax::parse_core(src).expect("parses");
    tyco_types::check(&ast).expect("type-checks");
    let prog = tyco_vm::compile(&ast).expect("compiles");
    let allocs = ALLOCS.with(Cell::get) - before;
    drop((ast, prog));
    allocs
}

/// `shape(n)` costs fewer than `per_unit` allocations per unit, and at
/// most 2.5 times what `shape(n / 2)` costs.
fn assert_linear(name: &'static str, shape: fn(usize) -> String, n: usize, per_unit: f64) {
    // A 2 MiB test thread is too small for the deepest shapes in a debug
    // build; the CLI runs on the same 256 MiB.
    let run = move || {
        let full = front_end_allocs(&shape(n));
        let half = front_end_allocs(&shape(n / 2));
        assert!(
            (full as f64) < per_unit * n as f64,
            "{name}: {full} allocations for {n}, {per_unit} each allowed"
        );
        assert!(
            2 * full <= 5 * half,
            "{name}: {full} allocations for {n} but {half} for {}: not linear",
            n / 2
        );
    };
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("assertions hold");
}

/// `def K0(x) = K1[x] and … and K{n-1}(x) = K0[x] in K0[1]`: every body
/// refers to a sibling.
fn def_group(n: usize) -> String {
    let classes: Vec<String> = (0..n)
        .map(|i| format!("K{i}(x) = K{}[x]", (i + 1) % n))
        .collect();
    format!("def {} in K0[1]", classes.join(" and "))
}

/// `new a a?(y) = (a![y] | a?(y) = (… | 0))`: `n` nested objects, each a
/// closure inside the last.
fn object_nest(n: usize) -> String {
    format!("new a {}0{}", "a?(y) = (a![y] | ".repeat(n), ")".repeat(n))
}

/// `new a (let x0 = a!f[0] in let x1 = a!f[x0] in … print(x{n-1}))`:
/// `n` nested calls, each desugared against the names free in the rest.
fn let_chain(n: usize) -> String {
    let lets: String = (0..n)
        .map(|i| match i {
            0 => "let x0 = a!f[0] in ".to_string(),
            _ => format!("let x{i} = a!f[x{}] in ", i - 1),
        })
        .collect();
    format!("new a ({lets}print(x{}))", n - 1)
}

/// A catalogue class: `export def C(v, r) = r![v + 1 + … ] in 0`.
fn operator_chain(n: usize) -> String {
    format!("export def C(v, r) = r![v{}] in 0", " + 1".repeat(n - 1))
}

#[test]
fn a_def_group_costs_the_same_per_class() {
    assert_linear("def group", def_group, 255, 40.0);
}

#[test]
fn an_object_nest_costs_the_same_per_level() {
    assert_linear("object nest", object_nest, 1350, 100.0);
}

#[test]
fn a_let_chain_costs_the_same_per_let() {
    assert_linear("let chain", let_chain, 1000, 100.0);
}

/// An expression is one post-order array and no pass recurses down it:
/// a chain's allocations do not grow with its length, and it needs no
/// more than a test thread's stack.
#[test]
fn an_operator_chain_allocates_nothing_per_term() {
    let n = 4000;
    let full = front_end_allocs(&operator_chain(n));
    let half = front_end_allocs(&operator_chain(n / 2));
    assert!(
        (full as f64) < 0.1 * n as f64,
        "{full} allocations for {n} terms"
    );
    assert!(
        full <= half + 16,
        "{full} allocations for {n} terms but {half} for {}",
        n / 2
    );
}
