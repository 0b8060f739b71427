//! Superinstruction fusion: a post-compile peephole pass that rewrites the
//! dominant opcode *digrams* (measured with `ditico run --no-fuse --opstats`,
//! see `stats::OpStats`) into single fused [`Instr`] variants executed by one
//! match arm in the dispatch loop.
//!
//! Invariants (load-bearing — the wire format and content digests depend on
//! them):
//!
//! * Fused forms are **machine-internal**. [`fuse_program`] runs inside
//!   `Machine::new`, and [`crate::wire::link_into`] fuses dynamically
//!   linked blocks as it relocates them, *after* any compilation,
//!   verification, packing, imaging or digesting. [`crate::wire::pack`]
//!   and [`crate::image::to_bytes`] write each fused pair as the base pair
//!   [`expand`] gives, with the block's jump targets moved to match;
//!   [`crate::asm::emit`] and the verifier ([`crate::verify`]) normalize
//!   with [`unfuse_code`] first. The codec has no encoding for fused
//!   opcodes, so a fused instruction can never escape a machine.
//! * `unfuse(fuse(code))` is observationally identity: the normalized form
//!   is instruction-for-instruction the original program (jump targets are
//!   remapped back), so digests computed from normalized code are
//!   fusion-independent.
//! * Fusion never changes observable behaviour *or* [`crate::ExecStats`]:
//!   the interpreter charges fused arms one tick per *original* instruction,
//!   so `stats.instrs` is a workload metric, not a dispatch metric.
//!
//! Safety rules of the greedy left-to-right pairing:
//!
//! * A pair is only fused when its *second* instruction is not a jump
//!   target — otherwise an incoming edge would land mid-superinstruction.
//!   (Targets equal to `code.len()` — the "fall off the end" halt — don't
//!   constrain anything.)
//! * Jump targets are remapped through the old→new index map; targets that
//!   point past the end (legal: the machine halts the thread) are clamped
//!   to the new length. Wild targets in *unverified* code are also clamped
//!   rather than panicking — the machine bounds-checks anyway.
//! * The pass is idempotent: fused opcodes never start or end a new pair.

use crate::program::{Block, Instr, Operand, Program, Refers};
use std::sync::Arc;

/// The two base instructions a fused variant stands for, or `None` for base
/// instructions. Jump targets inside the expansion are the *fused-space*
/// target; [`unfuse_code`] remaps them.
pub fn expand(ins: &Instr) -> Option<[Instr; 2]> {
    Some(match *ins {
        Instr::PushLocal2 { a, b } => [Instr::PushLocal(a), Instr::PushLocal(b)],
        Instr::PushLocalInt { slot, imm } => [Instr::PushLocal(slot), Instr::PushInt(imm as i64)],
        Instr::PushIntBin { imm, op } => [Instr::PushInt(imm as i64), Instr::Bin(op)],
        Instr::BinJumpIfFalse { op, target } => [Instr::Bin(op), Instr::JumpIfFalse(target)],
        Instr::PushLocalTrMsg { slot, label, argc } => {
            [Instr::PushLocal(slot), Instr::TrMsg { label, argc }]
        }
        Instr::PushLocalTrObj { slot, table, nfree } => {
            [Instr::PushLocal(slot), Instr::TrObj { table, nfree }]
        }
        Instr::PushLocalInstOf { slot, argc } => [Instr::PushLocal(slot), Instr::InstOf { argc }],
        Instr::PushSiblingInstOf { sib, argc } => [Instr::PushSibling(sib), Instr::InstOf { argc }],
        Instr::PushSiblingLocal { sib, slot } => [Instr::PushSibling(sib), Instr::PushLocal(slot)],
        _ => return None,
    })
}

/// Fuse one adjacent pair, if it matches a profitable digram.
#[inline(always)]
fn try_fuse(a: &Instr, b: &Instr) -> Option<Instr> {
    Some(match (a, b) {
        (Instr::PushLocal(a), Instr::PushLocal(b)) => Instr::PushLocal2 { a: *a, b: *b },
        (Instr::PushLocal(slot), Instr::PushInt(i)) => {
            let imm = i32::try_from(*i).ok()?;
            Instr::PushLocalInt { slot: *slot, imm }
        }
        (Instr::PushInt(i), Instr::Bin(op)) => {
            let imm = i32::try_from(*i).ok()?;
            Instr::PushIntBin { imm, op: *op }
        }
        (Instr::Bin(op), Instr::JumpIfFalse(target)) => Instr::BinJumpIfFalse {
            op: *op,
            target: *target,
        },
        (Instr::PushLocal(slot), Instr::TrMsg { label, argc }) => Instr::PushLocalTrMsg {
            slot: *slot,
            label: *label,
            argc: *argc,
        },
        (Instr::PushLocal(slot), Instr::TrObj { table, nfree }) => Instr::PushLocalTrObj {
            slot: *slot,
            table: *table,
            nfree: *nfree,
        },
        (Instr::PushLocal(slot), Instr::InstOf { argc }) => Instr::PushLocalInstOf {
            slot: *slot,
            argc: *argc,
        },
        (Instr::PushSibling(sib), Instr::InstOf { argc }) => Instr::PushSiblingInstOf {
            sib: *sib,
            argc: *argc,
        },
        (Instr::PushSibling(sib), Instr::PushLocal(slot)) => Instr::PushSiblingLocal {
            sib: *sib,
            slot: *slot,
        },
        _ => return None,
    })
}

/// Fuse a block's code. Returns `None` when nothing fused (keep the
/// original `Arc` — no copy).
pub fn fuse_code(code: &[Instr]) -> Option<Arc<[Instr]>> {
    let mut scratch = Scratch::default();
    map_and_fuse(code, |ins| ins, &mut scratch).then(|| scratch.out[..].into())
}

/// Buffers a fusing pass reuses from one block to the next.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Per instruction of the input block: does a jump land on it?
    is_target: Vec<bool>,
    /// Per instruction of the input block, then its end: the index in
    /// `out` of the instruction that starts there.
    old_to_new: Vec<u32>,
    /// The pass's output.
    pub(crate) out: Vec<Instr>,
}

/// One pass over `code`: instructions are paired greedily left to right
/// into `scratch.out`, each output instruction through `map` (a linker's
/// relocation: fusion reads no id, so relocating a fused form is fusing
/// the relocated pair). Returns whether anything fused; jump targets are
/// remapped only then, so code that does not fuse comes out as `map` left
/// it.
#[inline]
pub(crate) fn map_and_fuse(
    code: &[Instr],
    mut map: impl FnMut(Instr) -> Instr,
    scratch: &mut Scratch,
) -> bool {
    let Scratch {
        is_target,
        old_to_new,
        out,
    } = scratch;
    // Incoming-edge map: an instruction that is a jump target must start an
    // instruction (can't be swallowed as the second half of a pair). A
    // block without jumps leaves it empty and needs no target remap; the
    // test for jumps has no early exit, so it costs no branch per
    // instruction.
    is_target.clear();
    let jumps = code.iter().fold(false, |j, i| j | i.refers(Refers::Target));
    if jumps {
        is_target.resize(code.len(), false);
        for mut ins in code.iter().copied().filter(|i| i.refers(Refers::Target)) {
            ins.each_operand(|o| {
                if let Operand::Target(t) = o {
                    if let Some(target) = is_target.get_mut(*t as usize) {
                        *target = true;
                    }
                }
            });
        }
    }

    // Greedy left-to-right pairing. old_to_new[i] = index in the fused
    // stream of the instruction that *starts at* old pc i (second halves
    // map to the fused instruction containing them, which is fine: nothing
    // may jump there).
    out.clear();
    out.reserve(code.len());
    old_to_new.clear();
    let mut fused_any = false;
    let mut i = 0;
    while i < code.len() {
        if jumps {
            old_to_new.push(out.len() as u32);
        }
        let pair = (code.get(i + 1))
            .filter(|_| is_target.get(i + 1) != Some(&true))
            .and_then(|b| try_fuse(&code[i], b));
        if let Some(f) = pair {
            if jumps {
                old_to_new.push(out.len() as u32);
            }
            out.push(map(f));
            fused_any = true;
            i += 2;
        } else {
            out.push(map(code[i]));
            i += 1;
        }
    }
    if fused_any && jumps {
        old_to_new.push(out.len() as u32);
        remap_targets(out, old_to_new);
    }
    fused_any
}

/// Remap jump targets into the new index space through `old_to_new`
/// (one entry per old instruction, then the old end). Out-of-range
/// targets (≥ len: legal halt-by-falling-off, or garbage in unverified
/// code) clamp to the new end — same halt behaviour, no panic.
fn remap_targets(code: &mut [Instr], old_to_new: &[u32]) {
    let new_len = code.len() as u32;
    for ins in code.iter_mut().filter(|i| i.refers(Refers::Target)) {
        ins.each_operand(|o| {
            if let Operand::Target(t) = o {
                *t = remap_target(old_to_new, *t, new_len);
            }
        });
    }
}

/// `t` through `old_to_new`, clamped to `new_len` when out of range.
pub(crate) fn remap_target(old_to_new: &[u32], t: u32, new_len: u32) -> u32 {
    old_to_new.get(t as usize).copied().unwrap_or(new_len)
}

/// Normalize: expand every fused instruction back to its base pair and
/// remap jump targets into the expanded index space. Returns `None` when
/// the code contains no fused forms (already normal).
pub fn unfuse_code(code: &[Instr]) -> Option<Vec<Instr>> {
    if !code.iter().any(Instr::is_fused) {
        return None;
    }
    let len = code.len();
    let mut out: Vec<Instr> = Vec::with_capacity(len + len / 2);
    let mut old_to_new = vec![0u32; len + 1];
    for (i, ins) in code.iter().enumerate() {
        old_to_new[i] = out.len() as u32;
        match expand(ins) {
            Some([a, b]) => {
                out.push(a);
                out.push(b);
            }
            None => out.push(*ins),
        }
    }
    old_to_new[len] = out.len() as u32;
    remap_targets(&mut out, &old_to_new);
    Some(out)
}

fn fuse_block(b: &mut Block) {
    if let Some(fused) = fuse_code(&b.code) {
        b.code = fused;
    }
}

/// Fuse every block of a program in place (idempotent).
pub fn fuse_program(p: &mut Program) {
    for b in &mut p.blocks {
        fuse_block(b);
    }
}

/// Fuse only blocks appended at or after index `from`: linking and then
/// fusing in two steps, the oracle [`crate::wire::link_into`]'s one pass
/// is tested against.
pub fn fuse_blocks_from(p: &mut Program, from: usize) {
    for b in p.blocks.iter_mut().skip(from) {
        fuse_block(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_syntax::ast::BinOp;

    fn roundtrip(code: Vec<Instr>) {
        let fused = fuse_code(&code);
        let back = match &fused {
            Some(f) => unfuse_code(f).expect("fused code must normalize"),
            None => {
                assert!(unfuse_code(&code).is_none(), "unfused code is normal");
                return;
            }
        };
        assert_eq!(back, code, "unfuse(fuse(code)) must be identity");
    }

    #[test]
    fn fuses_push_pairs_and_roundtrips() {
        let code = vec![
            Instr::PushLocal(1),
            Instr::PushLocal(2),
            Instr::PushLocal(3),
            Instr::TrMsg { label: 0, argc: 1 },
            Instr::Halt,
        ];
        let fused = fuse_code(&code).unwrap();
        assert_eq!(
            &fused[..],
            &[
                Instr::PushLocal2 { a: 1, b: 2 },
                Instr::PushLocalTrMsg {
                    slot: 3,
                    label: 0,
                    argc: 1
                },
                Instr::Halt,
            ]
        );
        roundtrip(code);
    }

    #[test]
    fn respects_jump_targets() {
        // Jump lands on the PushLocal(2): it must not be swallowed as the
        // second half of a PushLocal2.
        let code = vec![
            Instr::PushLocal(1),
            Instr::PushLocal(2),
            Instr::PushInt(1),
            Instr::Bin(BinOp::Sub),
            Instr::JumpIfFalse(6),
            Instr::Jump(1),
            Instr::Halt,
        ];
        let fused = fuse_code(&code).unwrap();
        // PushLocal(1) stands alone; PushLocal(2)+PushInt(1) fuse;
        // Bin+JumpIfFalse fuse; Jump target remaps 1 → 1, JumpIfFalse 6 → 4.
        assert_eq!(
            &fused[..],
            &[
                Instr::PushLocal(1),
                Instr::PushLocalInt { slot: 2, imm: 1 },
                Instr::BinJumpIfFalse {
                    op: BinOp::Sub,
                    target: 4
                },
                Instr::Jump(1),
                Instr::Halt,
            ]
        );
        roundtrip(code);
    }

    #[test]
    fn clamps_past_end_targets() {
        // Target == len is the legal fall-off-the-end halt; wild targets in
        // unverified code clamp the same way.
        let code = vec![
            Instr::PushLocal(0),
            Instr::PushLocal(1),
            Instr::Jump(2),
            Instr::Jump(900),
        ];
        let fused = fuse_code(&code).unwrap();
        assert_eq!(
            &fused[..],
            &[
                Instr::PushLocal2 { a: 0, b: 1 },
                // In-range target (the self-jump) remaps through the index
                // map; the wild 900 clamps to the new end.
                Instr::Jump(1),
                Instr::Jump(3),
            ]
        );
    }

    #[test]
    fn wide_int_literals_stay_unfused() {
        let code = vec![
            Instr::PushLocal(0),
            Instr::PushInt(i64::MAX),
            Instr::PushInt(7),
            Instr::Bin(BinOp::Add),
        ];
        let fused = fuse_code(&code).unwrap();
        assert_eq!(
            &fused[..],
            &[
                Instr::PushLocal(0),
                Instr::PushInt(i64::MAX),
                Instr::PushIntBin {
                    imm: 7,
                    op: BinOp::Add
                },
            ]
        );
        roundtrip(code);
    }

    #[test]
    fn fusion_is_idempotent() {
        let code = vec![
            Instr::PushLocal(0),
            Instr::PushLocal(1),
            Instr::InstOf { argc: 2 },
            Instr::Halt,
        ];
        let once = fuse_code(&code).unwrap();
        assert!(fuse_code(&once).is_none(), "second pass must be a no-op");
    }

    #[test]
    fn sibling_instof_fuses() {
        let code = vec![
            Instr::PushLocal(1),
            Instr::PushSibling(0),
            Instr::InstOf { argc: 1 },
        ];
        let fused = fuse_code(&code).unwrap();
        assert_eq!(
            &fused[..],
            &[
                Instr::PushLocal(1),
                Instr::PushSiblingInstOf { sib: 0, argc: 1 },
            ]
        );
        roundtrip(code);
    }
}
