//! Repeated remote instantiation with and without the content-addressed
//! code cache. Every value is virtual time or a count, and the whole
//! sweep takes milliseconds, so the smoke is the full run.
//!
//! The workload is the paper's applet pattern at its worst: one server
//! exports a large class (a ~`TERMS`-term arithmetic body, so the packed
//! image is kilobytes, not the usual tens of bytes), and `K` client sites
//! on a second node fetch and instantiate it one after another — each
//! site kicks the next only after its own import completed, so every
//! fetch is a separate round trip and none can coalesce. Over a slow WAN
//! link the uncached protocol pays the full image serialization `K`
//! times; the cached protocol pays it once and ships a 16-byte digest
//! thereafter. Time is deterministic virtual time, so the speedup is a
//! property of the protocol, not of the host machine.
//!
//! A second sweep instantiates the same class from `K` sites
//! *concurrently* to measure single-flight coalescing: the client node
//! folds the simultaneous FetchReqs into one, so the server serves one
//! request and the image crosses the wire once, regardless of `K`.
//!
//! The `image bytes` points pin the exact bytes of two shipped images
//! (instruction count, length, digest) and time each stage a code image
//! passes through, per wire instruction: pack on the exporter, then
//! decode, verify and link (with fusion, as a machine links) on the
//! importer. Any change to an image's bytes fails `bench all --smoke`.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use ditico_rt::{Cluster, LinkProfile, RunLimits, RunReport};
use tyco_vm::codec::{self, Packet};
use tyco_vm::{Digest, NodeId, Program, TableId, WireCode};

use crate::json::Json;
use crate::{point, round, vals};

/// Terms in the applet body; sets the shipped image size (~10 KB packed).
const TERMS: usize = 1200;
/// Client-site counts swept.
const SIZES: [usize; 4] = [2, 4, 8, 16];
/// A slow WAN-ish link: 100 µs one-way latency, 1 MB/s — code shipment
/// cost is dominated by image serialization, exactly where dedup pays.
fn wan() -> LinkProfile {
    LinkProfile::new(100_000, 1_000_000.0).expect("valid link")
}

/// `export def Applet(v) = println("applet", v + 1 + 2 + ... ) in 0`
fn server_src() -> String {
    format!("export {} in 0", applet_def(TERMS))
}

/// `def Applet(v) = println("applet", v + 1 + 2 + ... )` with `terms` terms.
fn applet_def(terms: usize) -> String {
    let mut sum = String::from("v");
    for i in 1..=terms {
        sum.push_str(&format!(" + {}", i % 7));
    }
    format!(r#"def Applet(v) = println("applet", {sum})"#)
}

/// The chain: site `c0` fetches immediately; each later site waits for
/// its predecessor's kick, which is sent from inside the predecessor's
/// import continuation — i.e. causally after its FetchReply landed.
fn chain_site_src(i: usize, k: usize) -> String {
    let fetch_and_use = format!("import Applet from server in (Applet[{i}] | KICKNEXT)");
    let next = i + 1;
    let kick_next = if next < k {
        format!("import kick{next} from c{next} in kick{next}![]")
    } else {
        "0".to_string()
    };
    let body = fetch_and_use.replace("KICKNEXT", &kick_next);
    if i == 0 {
        body
    } else {
        format!("export new kick{i} in kick{i}?() = {body}")
    }
}

fn build_chain(k: usize, code_cache: usize) -> Cluster {
    let mut c = Cluster::new(wan(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.set_code_cache(code_cache);
    c.add_site_src(n0, "server", &server_src())
        .expect("server compiles");
    for i in 0..k {
        c.add_site_src(n1, &format!("c{i}"), &chain_site_src(i, k))
            .expect("chain site compiles");
    }
    c
}

fn build_concurrent(k: usize, code_cache: usize) -> Cluster {
    let mut c = Cluster::new(wan(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.set_code_cache(code_cache);
    c.add_site_src(n0, "server", &server_src())
        .expect("server compiles");
    for i in 0..k {
        c.add_site_src(
            n1,
            &format!("c{i}"),
            &format!("import Applet from server in Applet[{i}]"),
        )
        .expect("client compiles");
    }
    c
}

/// Run to quiescence; every client site must have printed once.
fn run_once(mut c: Cluster, k: usize) -> RunReport {
    let report = c.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "VM errors: {:?}", report.errors);
    assert!(report.quiescent, "run did not terminate");
    for i in 0..k {
        let out = report.output(&format!("c{i}"));
        assert_eq!(out.len(), 1, "site c{i} must print once, got {out:?}");
    }
    report
}

/// Terms of the class the `image bytes` point ships.
const IMAGE_TERMS: usize = 300;

/// An object whose method forks, sends, prints a string and builds a
/// class group: every kind of id an image relocates (block, table, label,
/// string), and fused forms on the exporter.
const SHIPPED_OBJECT: &str = r#"new x x?{ go(n) = (println("go", n) | x!go[n - 1] | def Loop(k) = if k > 0 then Loop[k - 1] else x!done[k] in Loop[n] | x?{ done(m) = println("deep", m) }) }"#;

/// The timed stages run this many times per repetition, best of
/// `IMAGE_REPS` (one repetition under `--smoke`).
const IMAGE_ITERS: usize = 200;
const IMAGE_REPS: usize = 5;

/// Best-of-`reps` ns per call of `f`, over `IMAGE_ITERS` calls each.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..IMAGE_ITERS {
                f();
            }
            t.elapsed().as_nanos() as f64 / IMAGE_ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Pin the bytes of `table`'s image out of `src` (fused, as a machine
/// holds its program), and time each stage per wire instruction.
fn image_point(name: &str, src: &str, table: impl Fn(&Program) -> TableId, reps: usize) -> Json {
    let mut prog =
        tyco_vm::compile(&tyco_syntax::parse_core(src).expect("parses")).expect("compiles");
    tyco_vm::fuse_program(&mut prog);
    let root = table(&prog);
    let code = tyco_vm::pack(&prog, &[root]).code;
    let instrs = code.view().code.len();
    let frame = {
        let mut buf = BytesMut::new();
        codec::encode_into(
            &Packet::HaveCode {
                to: NodeId(0),
                digest: code.digest(),
                code: code.clone(),
            },
            &mut buf,
        );
        buf.freeze()
    };
    let per_instr = |ns: f64| round(ns / instrs as f64, 2);
    let pack = best_ns(reps, || {
        black_box(tyco_vm::pack(black_box(&prog), &[root]));
    });
    let decode = best_ns(reps, || {
        black_box(codec::decode(black_box(frame.clone())).expect("decodes"));
    });
    let received: WireCode = match codec::decode(frame.clone()).expect("decodes") {
        Packet::HaveCode { code, .. } => code,
        p => panic!("decoded {p:?}"),
    };
    let verify = best_ns(reps, || {
        tyco_vm::verify_wire(black_box(&received)).expect("verifies");
    });
    let link = best_ns(reps, || {
        let mut dest = Program::default();
        black_box(tyco_vm::wire::link_into(
            &mut dest,
            black_box(&received),
            true,
        ));
        black_box(dest);
    });
    eprintln!(
        "   {name}: {instrs} instrs, {} B, ns/instr pack {:.1} decode {:.1} verify {:.1} link {:.1}",
        code.bytes().len(),
        pack / instrs as f64,
        decode / instrs as f64,
        verify / instrs as f64,
        link / instrs as f64
    );
    point(
        name,
        true,
        Json::Obj(vec![
            ("instrs".into(), Json::Num(instrs as f64)),
            ("bytes".into(), Json::Num(code.bytes().len() as f64)),
            ("digest".into(), Json::Str(code.digest().to_string())),
        ]),
        vals! {
            "pack_ns_per_instr" => per_instr(pack),
            "decode_ns_per_instr" => per_instr(decode),
            "verify_ns_per_instr" => per_instr(verify),
            "link_ns_per_instr" => per_instr(link),
        },
    )
}

/// The table whose entries bind `label`.
fn table_of(prog: &Program, label: &str) -> TableId {
    let l = prog.labels.find(label).expect("label interned");
    (0..prog.tables.len() as TableId)
        .find(|&t| prog.tables[t as usize].lookup(l).is_some())
        .expect("a table binds the label")
}

pub fn run(smoke: bool) -> Vec<Json> {
    let reps = if smoke { 1 } else { IMAGE_REPS };
    let mut points = vec![
        image_point(
            "image bytes: class",
            &format!("{} in 0", applet_def(IMAGE_TERMS)),
            |_| 0,
            reps,
        ),
        image_point(
            "image bytes: object",
            SHIPPED_OBJECT,
            |p| table_of(p, "go"),
            reps,
        ),
    ];
    let mut image_wire_bytes = 0;
    for k in SIZES {
        let base = run_once(build_chain(k, 0), k);
        let cached = run_once(build_chain(k, 256), k);
        let (bc, cc) = (base.cache_totals(), cached.cache_totals());
        assert_eq!(bc.dedup_sends, 0, "an empty store must not dedup");
        assert_eq!(
            cc.dedup_sends,
            (k - 1) as u64,
            "all but the first reply go digest-only"
        );
        assert_eq!(cc.hits, (k - 1) as u64);
        assert!(
            cached.fabric_bytes < base.fabric_bytes,
            "dedup must shrink wire traffic: {} vs {}",
            cached.fabric_bytes,
            base.fabric_bytes
        );
        let speedup = base.virtual_ns as f64 / cached.virtual_ns as f64;
        assert!(
            speedup > 1.5,
            "cached chain should be clearly faster, got {speedup:.2}x"
        );
        // bytes_saved counts (full image - digest) per dedup send.
        image_wire_bytes = cc.bytes_saved / cc.dedup_sends + Digest::SIZE as u64;
        eprintln!(
            "   chain x{k}: uncached {} B, cached {} B ({} dedup sends): {speedup:.2}x",
            base.fabric_bytes, cached.fabric_bytes, cc.dedup_sends
        );
        points.push(point(
            &format!("chain x{k}"),
            true,
            vals! {
                "k" => k,
                "uncached_virtual_ns" => base.virtual_ns,
                "uncached_fabric_bytes" => base.fabric_bytes,
                "cached_virtual_ns" => cached.virtual_ns,
                "cached_fabric_bytes" => cached.fabric_bytes,
                "cache_hits" => cc.hits,
                "dedup_sends" => cc.dedup_sends,
                "bytes_saved" => cc.bytes_saved,
                "speedup" => round(speedup, 2),
            },
            vals! {},
        ));

        let conc = run_once(build_concurrent(k, 256), k);
        let cf = conc.cache_totals();
        let served = conc.stats["server"].fetches_served;
        assert_eq!(
            cf.coalesced,
            (k - 1) as u64,
            "concurrent fetches fold into one FetchReq"
        );
        assert_eq!(served, 1);
        eprintln!(
            "   concurrent x{k}: {} coalesced, {served} served, {} B",
            cf.coalesced, conc.fabric_bytes
        );
        points.push(point(
            &format!("concurrent x{k}"),
            true,
            vals! {
                "k" => k,
                "virtual_ns" => conc.virtual_ns,
                "fabric_bytes" => conc.fabric_bytes,
                "coalesced" => cf.coalesced,
                "server_fetches_served" => served,
            },
            vals! {},
        ));
    }
    points.push(point(
        "image",
        true,
        vals! {"image_wire_bytes" => image_wire_bytes, "digest_wire_bytes" => Digest::SIZE},
        vals! {},
    ));
    points
}
