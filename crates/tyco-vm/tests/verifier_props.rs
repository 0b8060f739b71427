//! Verifier soundness and adversarial robustness.
//!
//! Soundness (no false rejects): every image the compiler produces from an
//! arbitrary well-typed program passes the verifier, both as a stored
//! image and after pack → ship → verify on the wire form.
//!
//! Robustness (mutation testing): flipping bytes in a code image must be
//! caught by the decoder or the verifier for the overwhelming majority of
//! mutants, and the few that slip through (e.g. a flipped integer
//! constant, which is a *valid* different program) must still execute
//! without a VM panic — dynamic checks raise clean `VmError`s.

use proptest::prelude::*;
use tyco_syntax::arbitrary::arb_closed_program;
use tyco_vm::{
    compile, image_from_bytes, image_to_bytes, verify_program, verify_wire, LoopbackPort, Machine,
    Program,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The verifier accepts 100% of compiler-produced images.
    #[test]
    fn compiler_output_always_verifies(p in arb_closed_program()) {
        let prog = compile(&p).expect("compiles");
        prop_assert!(verify_program(&prog).is_ok(), "{:?}", verify_program(&prog));
    }

    /// The wire form of every packaged method table verifies too (the
    /// SHIPO / FETCH path never produces a rejectable image).
    #[test]
    fn packed_code_always_verifies(p in arb_closed_program()) {
        let prog = compile(&p).expect("compiles");
        if prog.tables.is_empty() {
            return Ok(());
        }
        let roots: Vec<u32> = (0..prog.tables.len() as u32).collect();
        let packed = tyco_vm::pack(&prog, &roots);
        prop_assert!(verify_wire(&packed.code).is_ok(), "{:?}", verify_wire(&packed.code));
    }

    /// Superinstruction fusion is transparent: the fused machine executes
    /// the exact same abstract instruction stream as the unfused one —
    /// every `ExecStats` counter (instrs, threads, comm/inst reductions,
    /// inline-cache hits, thread-length histogram) and every line of
    /// output matches. Threads always run to completion inside one
    /// dispatch call, so fused-pair atomicity cannot perturb scheduling.
    #[test]
    fn fusion_preserves_execution(p in arb_closed_program()) {
        let prog = compile(&p).expect("compiles");
        let mut fused = Machine::new(prog.clone(), LoopbackPort::new("probe"));
        let mut plain = Machine::new_unfused(prog, LoopbackPort::new("probe"));
        let rf = fused.run_to_quiescence(200_000);
        let rp = plain.run_to_quiescence(200_000);
        prop_assert_eq!(format!("{rf:?}"), format!("{rp:?}"));
        prop_assert_eq!(&fused.stats, &plain.stats);
        prop_assert_eq!(&fused.io, &plain.io);
    }

    /// Fused code never escapes the machine: a fused program still passes
    /// the verifier (which normalizes internally), serializes to the same
    /// image bytes as the original (digests are fusion-independent), and
    /// `unfuse ∘ fuse` is the identity on every compiled block.
    #[test]
    fn fusion_roundtrips_and_verifies(p in arb_closed_program()) {
        let prog = compile(&p).expect("compiles");
        let mut fused = prog.clone();
        tyco_vm::fuse_program(&mut fused);
        prop_assert!(verify_program(&fused).is_ok(), "{:?}", verify_program(&fused));
        prop_assert_eq!(image_to_bytes(&fused), image_to_bytes(&prog));
        for (orig, f) in prog.blocks.iter().zip(&fused.blocks) {
            let back = match tyco_vm::unfuse_code(&f.code) {
                Some(code) => code,
                None => f.code.to_vec(),
            };
            prop_assert_eq!(&back[..], &orig.code[..]);
        }
    }
}

// -- mutation testing ---------------------------------------------------------

/// Deterministic splitmix64 (the test must not depend on ambient entropy).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SEEDS: &[&str] = &[
    // The cell: objects, instantiation, recursion.
    r#"def Cell(self, v) =
        self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
       in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print(w)))"#,
    // Control flow, arithmetic, forked threads.
    r#"def L(ch, n) = if n > 0 then (ch![n] | L[ch, n - 1]) else println("x")
       in new sink ((sink?(v) = print(v)) | new c L[c, 4])"#,
    // Mobility surface: exports and a class group.
    r#"def K(a) = print(a) and M(b) = K[b + 1] in export new p in
       (p?{ go(n) = M[n] } | K[0])"#,
];

/// Outcome counts over one mutation corpus.
#[derive(Default, Debug)]
struct Tally {
    rejected: u64,
    accepted: u64,
    /// Mutants whose image differs only in constant payloads, pool
    /// strings or diagnostic names: valid *different* programs, not
    /// corrupted ones. The verifier accepts them by design.
    benign: u64,
    identity: u64,
}

/// Structural equality modulo data the verifier does not — and must not —
/// constrain. A mutant that is shape-equal to the original is a valid
/// *different* program, not a corrupted one:
///
/// * `PushInt`/`PushBool`/`PushFloat`/`PushStr` payloads and pool or
///   diagnostic-name contents — flipped constants;
/// * a `TrMsg` label id (the label pool itself is compared) and the
///   `Print` newline flag — protocol/formatting changes caught by the
///   *dynamic* half of the hybrid check, by design;
/// * `nparams`/`nlocals` within the verifier's frame cap — a method with
///   a different arity (dynamic arity error, not a crash) or extra
///   scratch slots. `nfree` stays strict: every spawn site's capture
///   count is statically checked against it, so a mutated value must be
///   rejected.
fn shape_eq(a: &Program, b: &Program) -> bool {
    use tyco_vm::Instr;
    if a.blocks.len() != b.blocks.len()
        || a.tables.len() != b.tables.len()
        || a.entry != b.entry
        || a.labels.len() != b.labels.len()
        || a.strings.len() != b.strings.len()
    {
        return false;
    }
    for (ta, tb) in a.tables.iter().zip(&b.tables) {
        if ta.entries != tb.entries {
            return false;
        }
    }
    for (ba, bb) in a.blocks.iter().zip(&b.blocks) {
        if ba.nfree != bb.nfree
            || ba.is_class_body != bb.is_class_body
            || ba.code.len() != bb.code.len()
        {
            return false;
        }
        for (ia, ib) in ba.code.iter().zip(bb.code.iter()) {
            let same = match (ia, ib) {
                (Instr::PushInt(_), Instr::PushInt(_))
                | (Instr::PushBool(_), Instr::PushBool(_))
                | (Instr::PushFloat(_), Instr::PushFloat(_))
                | (Instr::PushStr(_), Instr::PushStr(_)) => true,
                (Instr::TrMsg { argc: x, .. }, Instr::TrMsg { argc: y, .. }) => x == y,
                (Instr::Print { argc: x, .. }, Instr::Print { argc: y, .. }) => x == y,
                _ => ia == ib,
            };
            if !same {
                return false;
            }
        }
    }
    true
}

/// Flip one byte of the stored image and push it through the load path
/// (decode + verify). Accepted mutants are executed briefly: they must
/// fail cleanly (a typed `VmError`) or run — never panic. Each verdict is
/// appended to `verdicts` (the loaded code, or the error).
fn mutate_image(src: &str, rounds: u64, rng: &mut Rng, verdicts: &mut String) -> Tally {
    let prog = compile(&tyco_syntax::parse_core(src).unwrap()).unwrap();
    let bytes = image_to_bytes(&prog).to_vec();
    let mut tally = Tally::default();
    for _ in 0..rounds {
        let mut m = bytes.clone();
        let pos = rng.below(m.len());
        let flip = (rng.next() % 255 + 1) as u8; // non-zero xor: always a byte change
        m[pos] ^= flip;
        let verdict = image_from_bytes(bytes_from(m));
        // A `Pool`'s index is a `HashMap`, so its `Debug` is not stable.
        let loaded = verdict.as_ref().map(|p| (p.entry, &p.blocks, &p.tables));
        *verdicts += &format!("{loaded:?}\n");
        match verdict {
            Err(_) => tally.rejected += 1,
            Ok(p) if p == prog => tally.identity += 1,
            Ok(p) => {
                if shape_eq(&p, &prog) {
                    tally.benign += 1;
                } else {
                    tally.accepted += 1;
                    if std::env::var("MUTATION_DEBUG").is_ok() {
                        describe_diff(&prog, &p);
                    }
                }
                run_must_not_panic(p);
            }
        }
    }
    tally
}

fn bytes_from(v: Vec<u8>) -> bytes::Bytes {
    bytes::Bytes::from(v)
}

/// Debug aid (set MUTATION_DEBUG=1): print the first structural difference
/// between the original and an accepted mutant.
fn describe_diff(a: &Program, b: &Program) {
    if a.blocks.len() != b.blocks.len() {
        println!("DIFF blocks.len {} -> {}", a.blocks.len(), b.blocks.len());
        return;
    }
    if a.tables != b.tables {
        println!("DIFF tables {:?} -> {:?}", a.tables, b.tables);
        return;
    }
    if a.entry != b.entry {
        println!("DIFF entry {:?} -> {:?}", a.entry, b.entry);
        return;
    }
    if a.labels.len() != b.labels.len() {
        println!("DIFF labels.len {} -> {}", a.labels.len(), b.labels.len());
        return;
    }
    if a.strings.len() != b.strings.len() {
        println!(
            "DIFF strings.len {} -> {}",
            a.strings.len(),
            b.strings.len()
        );
        return;
    }
    for (i, (ba, bb)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        if ba.nfree != bb.nfree
            || ba.nparams != bb.nparams
            || ba.nlocals != bb.nlocals
            || ba.is_class_body != bb.is_class_body
        {
            println!(
                "DIFF block {i} layout free {}->{} params {}->{} locals {}->{} class {}->{}",
                ba.nfree,
                bb.nfree,
                ba.nparams,
                bb.nparams,
                ba.nlocals,
                bb.nlocals,
                ba.is_class_body,
                bb.is_class_body
            );
            return;
        }
        if ba.code.len() != bb.code.len() {
            println!(
                "DIFF block {i} code.len {} -> {}",
                ba.code.len(),
                bb.code.len()
            );
            return;
        }
        for (j, (ia, ib)) in ba.code.iter().zip(bb.code.iter()).enumerate() {
            if ia != ib {
                println!("DIFF block {i} instr {j}: {ia:?} -> {ib:?}");
                return;
            }
        }
    }
    println!("DIFF none found (?)");
}

fn run_must_not_panic(p: Program) {
    let outcome = std::panic::catch_unwind(|| {
        let mut m = Machine::new(p, LoopbackPort::new("mutant"));
        // Errors are fine — they are the dynamic half of the check.
        let _ = m.run_to_quiescence(100_000);
    });
    assert!(outcome.is_ok(), "VM panicked on a verifier-accepted mutant");
}

#[test]
fn image_byte_flips_are_rejected_without_panic() {
    let mut rng = Rng(0x5eed_0001);
    let mut total = Tally::default();
    let mut verdicts = String::new();
    for src in SEEDS {
        let t = mutate_image(src, 1500, &mut rng, &mut verdicts);
        total.rejected += t.rejected;
        total.accepted += t.accepted;
        total.benign += t.benign;
        total.identity += t.identity;
    }
    // ≥95% of structural (non-identity, non-benign) mutants must be caught
    // by the decoder or the verifier.
    let structural = total.rejected + total.accepted;
    assert!(structural > 0);
    let rate = total.rejected as f64 / structural as f64;
    println!(
        "mutation tally: {total:?}, structural rejection rate {:.2}%",
        rate * 100.0
    );
    assert!(
        rate >= 0.95,
        "structural rejection rate {:.2}% below 95% ({total:?})",
        rate * 100.0
    );
    // The decoder's messages and the verifier's first error, pinned.
    assert_eq!(
        tyco_vm::Digest::of(verdicts.as_bytes()),
        tyco_vm::Digest(0x7947d1c8d574c6e9add0801e79ac7ab8)
    );
}

/// The shipped form: flip bytes in an encoded `Obj` packet and push it
/// through the daemon's path (codec decode, then wire verification of any
/// code it carries). Nothing may panic; undecodable or unverifiable
/// mutants are the rejected ones.
#[test]
fn shipped_packet_byte_flips_never_panic() {
    use tyco_vm::codec::{decode, encode, Packet};
    use tyco_vm::word::{NetRef, NodeId, SiteId};

    let prog = compile(
        &tyco_syntax::parse_core(
            "new x x?{ go(n) = if n > 0 then (print(n) | x!go[n - 1]) else println(\"d\") }",
        )
        .unwrap(),
    )
    .unwrap();
    let packed = tyco_vm::pack(&prog, &[0]);
    let pkt = Packet::Obj {
        dest: NetRef {
            heap_id: 0,
            site: SiteId(1),
            node: NodeId(1),
        },
        digest: packed.digest,
        obj: tyco_vm::WireObj {
            code: packed.code,
            table: 0,
            captured: vec![],
        },
    };
    let bytes = encode(&pkt).to_vec();
    let mut rng = Rng(0x5eed_0002);
    let mut rejected = 0u64;
    let mut accepted = 0u64;
    for _ in 0..3000 {
        let mut m = bytes.clone();
        let pos = rng.below(m.len());
        m[pos] ^= (rng.next() % 255 + 1) as u8;
        let outcome = std::panic::catch_unwind(|| match decode(bytes_from(m)) {
            Err(_) => false,
            Ok(Packet::Obj { obj, .. }) => {
                verify_wire(&obj.code).is_ok() && (obj.table as usize) < obj.code.tables.len()
            }
            Ok(_) => true, // mutated into a code-free packet: nothing to verify
        });
        match outcome {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("decode/verify panicked on a byte flip"),
        }
    }
    println!("packet tally: rejected {rejected}, accepted {accepted}");
    // The corpus is dominated by the code section; the decoder and
    // verifier must catch the vast majority.
    assert!(
        rejected > accepted,
        "rejected {rejected} vs accepted {accepted}"
    );
}

/// The same adversary over every seed program, one step further: a
/// mutant that decodes and verifies is linked into a fresh program area
/// and run. Every mutant is either rejected or survives a brief run with
/// clean `VmError`s only.
#[test]
fn accepted_packet_mutants_link_and_run_without_panic() {
    use tyco_vm::codec::{decode, encode, Packet};
    use tyco_vm::word::{NetRef, NodeId, SiteId};

    let mut rng = Rng(0x5eed_0003);
    let mut rejected = 0u64;
    let mut accepted = 0u64;
    for src in SEEDS {
        let prog = compile(&tyco_syntax::parse_core(src).unwrap()).unwrap();
        if prog.tables.is_empty() {
            continue;
        }
        let packed = tyco_vm::pack(&prog, &[0]);
        assert!(
            verify_wire(&packed.code).is_ok(),
            "unmutated pack must verify"
        );
        let pkt = Packet::Obj {
            dest: NetRef {
                heap_id: 0,
                site: SiteId(1),
                node: NodeId(1),
            },
            digest: packed.digest,
            obj: tyco_vm::WireObj {
                code: packed.code,
                table: packed.table_map[&0],
                captured: vec![],
            },
        };
        let bytes = encode(&pkt).to_vec();
        for _ in 0..1500 {
            let mut m = bytes.clone();
            let pos = rng.below(m.len());
            m[pos] ^= (rng.next() % 255 + 1) as u8;
            let outcome = std::panic::catch_unwind(|| match decode(bytes_from(m)) {
                Err(_) => false,
                Ok(Packet::Obj { obj, .. }) => {
                    if verify_wire(&obj.code).is_err()
                        || (obj.table as usize) >= obj.code.tables.len()
                    {
                        return false;
                    }
                    // Link the verified mutant into a fresh area and run it:
                    // accepted mutants must execute without a VM panic.
                    let mut dest = Program::default();
                    if tyco_vm::link(&mut dest, &obj.code).is_ok() {
                        let mut mach = Machine::new(dest, LoopbackPort::new("mutant"));
                        let _ = mach.run_to_quiescence(100_000);
                    }
                    true
                }
                Ok(_) => true, // mutated into a code-free packet
            });
            match outcome {
                Ok(true) => accepted += 1,
                Ok(false) => rejected += 1,
                Err(_) => panic!("decode/verify/run panicked on a byte flip"),
            }
        }
    }
    println!("linked packet tally: rejected {rejected}, accepted {accepted}");
    assert!(
        rejected > accepted,
        "rejected {rejected} vs accepted {accepted}"
    );
}
