//! The run-based driver is the per-`pc` worklist's fixpoint: on compiler
//! output, on instruction-level mutants of it and on hand-written joins,
//! `View::check` and `View::check_reference` return the same verdict and
//! the same error. (Every mutant carries a single fault, and the two
//! drivers visit program points in the same order, so the comparison is
//! on the whole `Result`, not only on accept/reject.)

use super::*;
use crate::compile::compile;
use crate::program::Block;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use tyco_syntax::arbitrary::arb_closed_program;
use tyco_syntax::ast::BinOp;
use tyco_syntax::parse_core;

/// Both drivers on one program image, fused and unfused; returns the
/// (agreed) verdict on the image as given.
fn agree(p: &Program) -> Result<(), VerifyError> {
    let verdict = View::of_program(p).check();
    assert_eq!(verdict, View::of_program(p).check_reference(), "{p:?}");
    let mut fused = p.clone();
    crate::fuse::fuse_program(&mut fused);
    assert_eq!(
        View::of_program(&fused).check(),
        View::of_program(&fused).check_reference(),
        "fused {p:?}"
    );
    verdict
}

/// Hand-written programs that exercise objects, class groups, branches,
/// forks and the mobility instructions.
const SOURCES: &[&str] = &[
    r#"def Cell(self, v) =
        self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
       in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print(w)))"#,
    r#"def L(ch, n) = if n > 0 then (ch![n] | L[ch, n - 1]) else println("x")
       in new sink ((sink?(v) = print(v)) | new c L[c, 4])"#,
    r#"def K(a) = print(a) and M(b) = K[b + 1] in export new p in
       (p?{ go(n) = M[n] } | K[0])"#,
    r#"def F(a, b) = if a < b then (if a + 1 < b then print(a) else print(b))
                     else (if b > 0 then F[b, a] else println("z"))
       in import q from other in (F[1, 2] | q![3])"#,
];

/// The compiler outputs the mutation corpus is grown from.
fn corpus() -> Vec<Program> {
    let mut rng = TestRng::from_name("tyco_vm::verify::equiv::corpus");
    let generated = (0..160).map(|_| arb_closed_program().generate(&mut rng));
    SOURCES
        .iter()
        .map(|src| parse_core(src).unwrap())
        .chain(generated)
        .map(|p| compile(&p).expect("compiles"))
        .collect()
}

#[test]
fn compiler_output_agrees() {
    for p in corpus() {
        assert_eq!(agree(&p), Ok(()));
        // The wire form of everything it can ship.
        let roots: Vec<u32> = (0..p.tables.len() as u32).collect();
        let code = crate::wire::pack(&p, &roots).code;
        assert_eq!(View::of_wire(&code).check(), Ok(()), "{code:?}");
        assert_eq!(View::of_wire(&code).check_reference(), Ok(()));
    }
}

/// One instruction-level fault. Returns false if the pick did not apply
/// to this block (the caller draws again).
fn mutate(p: &mut Program, rng: &mut TestRng) -> bool {
    let bi = rng.below(p.blocks.len());
    let ntables = p.tables.len() as u32;
    let nblocks = p.blocks.len() as u32;
    let b = &mut p.blocks[bi];
    let mut code = b.code.to_vec();
    if code.is_empty() {
        return false;
    }
    let len = code.len() as u32;
    let at = rng.below(code.len());
    let target = match rng.below(5) {
        0 => 0,
        1 => len,
        2 => len + 1 + rng.below(3) as u32,
        _ => rng.below(code.len()) as u32, // the middle of straight-line code
    };
    let is_push = |i: &Instr| {
        matches!(
            i,
            Instr::PushLocal(_)
                | Instr::PushInt(_)
                | Instr::PushBool(_)
                | Instr::PushUnit
                | Instr::PushStr(_)
                | Instr::PushSibling(_)
        )
    };
    match rng.below(10) {
        // Retarget an existing jump, or plant one.
        0 | 1 => {
            let jumps: Vec<usize> = (0..code.len())
                .filter(|&i| matches!(code[i], Instr::Jump(_) | Instr::JumpIfFalse(_)))
                .collect();
            if jumps.is_empty() {
                return false;
            }
            let j = jumps[rng.below(jumps.len())];
            code[j] = match code[j] {
                Instr::Jump(_) => Instr::Jump(target),
                _ => Instr::JumpIfFalse(target),
            };
        }
        2 => code[at] = Instr::Jump(target),
        3 => {
            code[at] = Instr::JumpIfFalse(target);
            code.insert(at, Instr::PushBool(true));
        }
        // Drop or duplicate a push.
        4 | 5 => {
            let pushes: Vec<usize> = (0..code.len()).filter(|&i| is_push(&code[i])).collect();
            if pushes.is_empty() {
                return false;
            }
            let i = pushes[rng.below(pushes.len())];
            if rng.below(2) == 0 {
                code.remove(i);
            } else {
                code.insert(i, code[i]);
            }
        }
        // Swap a slot, table or block id.
        6 | 7 => {
            let slot = rng.below(b.frame_size() + 2) as u16;
            code[at] = match code[at] {
                Instr::PushLocal(_) => Instr::PushLocal(slot),
                Instr::Store(_) => Instr::Store(slot),
                Instr::NewChan(_) => Instr::NewChan(slot),
                Instr::ExportName { name, .. } => Instr::ExportName { slot, name },
                Instr::ExportClass { name, .. } => Instr::ExportClass { slot, name },
                Instr::TrObj { nfree, .. } => Instr::TrObj {
                    table: rng.below(ntables as usize + 1) as u32,
                    nfree,
                },
                Instr::MkGroup {
                    dst, count, nfree, ..
                } => Instr::MkGroup {
                    table: rng.below(ntables as usize + 1) as u32,
                    dst,
                    count,
                    nfree,
                },
                Instr::Fork { nfree, .. } => Instr::Fork {
                    block: rng.below(nblocks as usize + 1) as u32,
                    nfree,
                },
                Instr::PushInt(_) => Instr::Store(slot),
                _ => return false,
            };
        }
        // Flip the block's layout header.
        8 => b.is_class_body = !b.is_class_body,
        _ => {
            b.nfree = if rng.below(2) == 0 {
                b.nfree + 1
            } else {
                b.nfree.saturating_sub(1)
            }
        }
    }
    b.code = code.into();
    true
}

#[test]
fn mutants_agree() {
    let corpus = corpus();
    let mut rng = TestRng::from_name("tyco_vm::verify::equiv::mutants");
    let (mut mutants, mut accepted) = (0u32, 0u32);
    let mut seen = std::collections::BTreeSet::new();
    let mut verdicts = String::new();
    while mutants < 24_000 {
        let mut p = corpus[rng.below(corpus.len())].clone();
        if !mutate(&mut p, &mut rng) {
            continue;
        }
        mutants += 1;
        let verdict = agree(&p);
        verdicts += &format!("{verdict:?}\n");
        match verdict {
            Ok(()) => accepted += 1,
            Err(e) => {
                let text = format!("{e:?}");
                seen.insert(text[..text.find([' ', '(']).unwrap()].to_string());
            }
        }
    }
    // The corpus reaches both verdicts and every error the drivers (not
    // only the table pre-pass) can raise.
    assert!(accepted > 1_000 && accepted < 23_000, "{accepted}");
    // Both drivers share `step`, so agreement cannot see a change in which
    // error comes first; the verdicts themselves are pinned.
    assert_eq!(
        crate::digest::Digest::of(verdicts.as_bytes()),
        crate::digest::Digest(0xc0483c1b9b293d7a91f23d154dba95e2)
    );
    for kind in [
        "BadRef",
        "BadSlot",
        "Underflow",
        "DepthMismatch",
        "KindMismatch",
        "BadJump",
        "FrameLayout",
        "SiblingOutsideClass",
    ] {
        assert!(
            seen.contains(kind),
            "no mutant was rejected with {kind}: {seen:?}"
        );
    }
}

fn block(nlocals: u16, code: Vec<Instr>) -> Program {
    Program {
        blocks: vec![Block {
            name: "t".into(),
            nfree: 0,
            nparams: 0,
            nlocals,
            is_class_body: false,
            code: code.into(),
        }],
        ..Program::default()
    }
}

#[test]
fn loop_head_at_pc_0() {
    // The back edge arrives one word deeper than the spawner's state:
    // the entry state must have been kept for the comparison.
    let p = block(0, vec![Instr::PushInt(1), Instr::Jump(0)]);
    assert_eq!(
        agree(&p),
        Err(VerifyError::DepthMismatch {
            block: 0,
            pc: 0,
            a: 0,
            b: 1
        })
    );
    // A balanced loop at 0, left by the branch.
    let p = block(
        0,
        vec![
            Instr::PushBool(true),
            Instr::JumpIfFalse(3),
            Instr::Jump(0),
            Instr::Halt,
        ],
    );
    assert_eq!(agree(&p), Ok(()));
    // The back edge changes a frame slot's kind, so pc 0 is interpreted
    // a second time, with slot 0 at `unit ⊔ int = ⊤`.
    let p = block(
        1,
        vec![
            Instr::PushBool(true),
            Instr::JumpIfFalse(5),
            Instr::PushInt(1),
            Instr::Store(0),
            Instr::Jump(0),
            Instr::PushLocal(0),
            Instr::Print {
                argc: 1,
                newline: false,
            },
        ],
    );
    assert_eq!(agree(&p), Ok(()));
}

#[test]
fn nested_loops() {
    let nested = |inner_push: bool| {
        block(
            1,
            vec![
                Instr::PushInt(0), // 0
                Instr::Store(0),   // 1: outer head
                Instr::PushInt(1), // 2: inner head
                Instr::PushLocal(0),
                Instr::Bin(BinOp::Lt),
                Instr::JumpIfFalse(9),
                if inner_push {
                    Instr::PushInt(7)
                } else {
                    Instr::NewChan(0)
                },
                Instr::Jump(2), // 7: inner back edge
                Instr::Halt,    // 8: unreachable
                Instr::PushBool(false),
                Instr::JumpIfFalse(13),
                Instr::PushStr(0),
                Instr::Jump(1), // 12: outer back edge, one word to store
                Instr::Halt,
            ],
        )
    };
    let mut p = nested(false);
    p.strings.intern("s");
    assert_eq!(agree(&p), Ok(()));
    let mut p = nested(true);
    p.strings.intern("s");
    assert!(matches!(
        agree(&p),
        Err(VerifyError::DepthMismatch { pc: 2, .. })
    ));
}

#[test]
fn branch_arms_meet() {
    // if … then push a else push b; then use the word.
    let arms = |then: Vec<Instr>, els: Vec<Instr>, last: Instr| {
        let mut code = vec![Instr::PushBool(true), Instr::JumpIfFalse(0)];
        code.extend(then);
        code.push(Instr::Jump(0));
        let else_at = code.len() as u32;
        code.extend(els);
        let end = code.len() as u32;
        code[1] = Instr::JumpIfFalse(else_at);
        code[else_at as usize - 1] = Instr::Jump(end);
        code.push(last);
        block(0, code)
    };
    let print = Instr::Print {
        argc: 1,
        newline: false,
    };
    // The arms disagree on depth.
    assert!(matches!(
        agree(&arms(
            vec![Instr::PushInt(1), Instr::PushInt(2)],
            vec![Instr::PushInt(3)],
            print
        )),
        Err(VerifyError::DepthMismatch {
            pc: 6,
            a: 1,
            b: 2,
            ..
        })
    ));
    // Same depth, two kinds. The else arm arrives first and its bool
    // passes the conditional jump at the join; the then arm's int makes
    // the kept state ⊤, which passes every check (the machine raises the
    // dynamic error if that path is ever taken).
    let test = Instr::JumpIfFalse(6);
    assert_eq!(
        agree(&arms(
            vec![Instr::PushInt(1)],
            vec![Instr::PushBool(false)],
            test
        )),
        Ok(())
    );
    // Same depth, same kind: the join keeps it, and it is provably not a
    // bool.
    assert!(matches!(
        agree(&arms(
            vec![Instr::PushInt(1)],
            vec![Instr::PushInt(2)],
            test
        )),
        Err(VerifyError::KindMismatch {
            pc: 5,
            expected: "bool",
            found: "int",
            ..
        })
    ));
}

#[test]
fn unreachable_code_is_not_interpreted() {
    let p = block(
        0,
        vec![
            Instr::Halt,
            Instr::Store(99),
            Instr::Jump(1_000),
            Instr::InstOf { argc: 200 },
        ],
    );
    assert_eq!(agree(&p), Ok(()));
    // … unless a jump reaches it.
    let p = block(0, vec![Instr::Jump(2), Instr::Halt, Instr::Store(99)]);
    assert!(matches!(agree(&p), Err(VerifyError::BadSlot { pc: 2, .. })));
}
