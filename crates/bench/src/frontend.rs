//! The front end — parse, type-check, compile — over the sources the
//! end-to-end benchmark runs (its four workloads at seed 3, full size:
//! 40 sources) and over `examples/dity/*.dity`.
//!
//! The `exact` values are a byte-identity gate on the compiler: per
//! workload, the instruction count, the bytes of the whole-program images
//! (`ditico compile`'s output) and the code cache's 128-bit digest over
//! them as four 32-bit words. Any change to any emitted image moves the
//! digest, and `bench all --smoke` fails. The `timed` values are the
//! three stages' wall clock, best of `REPS` (one pass under `--smoke`).

use std::path::Path;
use std::time::Instant;

use tyco_vm::Digest;

use crate::json::Json;
use crate::{point, round, vals};

#[path = "../../../benchmark/src/gen.rs"]
#[allow(dead_code)]
mod gen;

/// The seed the end-to-end benchmark's recipes use.
const SEED: u64 = 3;
/// Timed passes over one set of sources; the fastest counts.
const REPS: usize = 5;

/// Compile every source `reps` times; one point.
fn measure(name: &str, sources: &[String], reps: usize) -> Json {
    let (mut parse, mut check, mut compile) = (f64::MAX, f64::MAX, f64::MAX);
    let mut images = Vec::new();
    let mut instrs = 0;
    for _ in 0..reps {
        let (mut p, mut t, mut c) = (0.0, 0.0, 0.0);
        images.clear();
        instrs = 0;
        for src in sources {
            let start = Instant::now();
            let ast = tyco_syntax::parse_core(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            p += start.elapsed().as_secs_f64();
            let start = Instant::now();
            tyco_types::check(&ast).unwrap_or_else(|e| panic!("{name}: {e}"));
            t += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let prog = tyco_vm::compile(&ast).unwrap_or_else(|e| panic!("{name}: {e}"));
            c += start.elapsed().as_secs_f64();
            instrs += prog.instr_count();
            images.extend_from_slice(&tyco_vm::image_to_bytes(&prog));
        }
        (parse, check, compile) = (parse.min(p), check.min(t), compile.min(c));
    }
    let d = Digest::of(&images).0;
    let word = |i: u32| (d >> (32 * i)) as u32;
    eprintln!(
        "   {name}: {} sources, parse {:.1} ms, check {:.1} ms, compile {:.1} ms",
        sources.len(),
        parse * 1e3,
        check * 1e3,
        compile * 1e3
    );
    point(
        name,
        true,
        vals! {
            "sources" => sources.len(),
            "instrs" => instrs,
            "image_bytes" => images.len(),
            "digest0" => word(0),
            "digest1" => word(1),
            "digest2" => word(2),
            "digest3" => word(3),
        },
        vals! {
            "parse_ms" => round(parse * 1e3, 2),
            "check_ms" => round(check * 1e3, 2),
            "compile_ms" => round(compile * 1e3, 2),
        },
    )
}

/// The sources the front end is measured on, by set: each workload's
/// `.dity` files at `SEED`, full size, then the examples.
pub fn corpus() -> Vec<(&'static str, Vec<String>)> {
    let mut sets = Vec::new();
    for name in gen::WORKLOADS {
        let w = gen::generate(name, SEED, &gen::Sizes::FULL, false).expect("a workload");
        let sources: Vec<String> = w
            .files
            .into_iter()
            .filter(|(file, _)| file.ends_with(".dity"))
            .map(|(_, text)| text)
            .collect();
        sets.push((name, sources));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/dity");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "dity"))
        .collect();
    files.sort();
    let sources: Vec<String> = files
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("readable example"))
        .collect();
    sets.push(("examples", sources));
    sets
}

pub fn run(smoke: bool) -> Vec<Json> {
    let reps = if smoke { 1 } else { REPS };
    corpus()
        .iter()
        .map(|(name, sources)| measure(name, sources, reps))
        .collect()
}
