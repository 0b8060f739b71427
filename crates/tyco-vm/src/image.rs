//! Whole-program byte-code images: the on-disk form of a compiled DiTyCO
//! program ("the final byte-code" of §5, as one hardware-independent
//! artifact a TyCOsh can submit to any node).
//!
//! Layout: magic `TYCO`, format version, entry block id, then the complete
//! code bundle (blocks, tables, symbol pools) in the packet codec's
//! encoding.

use crate::codec::{self, CodecError};
use crate::program::{MethodTable, Program};
use crate::wire::CodeParts;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"TYCO";
const VERSION: u32 = 1;

/// Serialize a program to a self-contained byte-code image.
pub fn to_bytes(prog: &Program) -> Bytes {
    // A Program's pools are already dense, so the conversion to the wire
    // bundle is the identity on all ids.
    let code = CodeParts {
        // Images always carry the normalized (unfused) form: the codec's
        // opcode set is frozen at the base instructions, and fusion is a
        // machine-internal rewrite (see `crate::fuse`).
        blocks: prog
            .blocks
            .iter()
            .map(|b| match crate::fuse::unfuse_code(&b.code) {
                Some(code) => crate::program::Block {
                    code: code.into(),
                    ..b.clone()
                },
                None => b.clone(),
            })
            .collect(),
        tables: prog
            .tables
            .iter()
            .map(|t| t.entries.iter().map(|(l, b)| (*l, *b)).collect())
            .collect(),
        labels: (0..prog.labels.len() as u32)
            .map(|i| prog.labels.get(i).to_string())
            .collect(),
        strings: (0..prog.strings.len() as u32)
            .map(|i| prog.strings.get(i).to_string())
            .collect(),
    };
    let mut buf = BytesMut::with_capacity(256);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(prog.entry);
    codec::put_parts(&mut buf, &code);
    buf.freeze()
}

/// Load a program from a byte-code image.
pub fn from_bytes(mut bytes: Bytes) -> Result<Program, CodecError> {
    if bytes.remaining() < 12 {
        return Err(CodecError("truncated image header".to_string()));
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError(format!("bad magic {magic:?}")));
    }
    let version = bytes.get_u32_le();
    if version != VERSION {
        return Err(CodecError(format!("unsupported image version {version}")));
    }
    let entry = bytes.get_u32_le();
    let mut rest: &[u8] = &bytes;
    let code = codec::get_parts(&mut rest)?;
    if !rest.is_empty() {
        return Err(CodecError(format!("{} trailing bytes", rest.len())));
    }
    let mut prog = Program {
        entry,
        ..Program::default()
    };
    // Re-intern pools in order: ids are preserved because the emitting side
    // wrote them densely in order.
    for l in &code.labels {
        prog.labels.intern(l);
    }
    for s in &code.strings {
        prog.strings.intern(s);
    }
    prog.blocks = code.blocks;
    prog.tables = code
        .tables
        .into_iter()
        .map(|t| MethodTable {
            entries: t.into_iter().collect(),
        })
        .collect();
    if (prog.entry as usize) >= prog.blocks.len() && !prog.blocks.is_empty() {
        return Err(CodecError(format!(
            "entry block {} out of range",
            prog.entry
        )));
    }
    // Static gate: a decoded image is untrusted until the verifier has
    // walked every block (referential integrity, stack simulation, frame
    // windows). See `verify.rs`.
    if !prog.blocks.is_empty() {
        crate::verify::verify_program(&prog)
            .map_err(|e| CodecError(format!("image failed verification: {e}")))?;
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::{LoopbackPort, Machine};
    use tyco_syntax::parse_core;

    fn program(src: &str) -> Program {
        compile(&parse_core(src).unwrap()).unwrap()
    }

    #[test]
    fn image_roundtrip_exact() {
        for src in [
            "print(1)",
            r#"
            def Cell(self, v) =
                self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
            in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print(w)))
            "#,
            "export new p in import q from s in (p?{ go() = println(\"hi\") } | q![1.5])",
        ] {
            let prog = program(src);
            let bytes = to_bytes(&prog);
            let back = from_bytes(bytes).unwrap();
            assert_eq!(prog, back, "image round-trip must be exact for {src}");
        }
    }

    #[test]
    fn loaded_image_runs() {
        let prog =
            program("def L(n) = if n > 0 then print(n) | L[n - 1] else println(\"off\") in L[3]");
        let back = from_bytes(to_bytes(&prog)).unwrap();
        let mut m = Machine::new(back, LoopbackPort::new("main"));
        m.run_to_quiescence(100_000).unwrap();
        assert_eq!(m.io, vec!["3", "2", "1", "off"]);
    }

    #[test]
    fn rejects_corrupt_images() {
        assert!(from_bytes(Bytes::from_static(b"")).is_err());
        assert!(from_bytes(Bytes::from_static(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00")).is_err());
        let mut good = to_bytes(&program("print(1)")).to_vec();
        good[4] = 99; // future version
        assert!(from_bytes(Bytes::from(good.clone())).is_err());
        let mut trailing = to_bytes(&program("print(1)")).to_vec();
        trailing.push(0);
        assert!(from_bytes(Bytes::from(trailing)).is_err());
    }

    #[test]
    fn image_size_is_compact() {
        // The cell program: a handful of blocks should stay comfortably
        // under a kilobyte — the paper's compactness claim in bytes.
        let prog = program(
            r#"
            def Cell(self, v) =
                self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
            in new x Cell[x, 9]
            "#,
        );
        let bytes = to_bytes(&prog);
        assert!(bytes.len() < 1024, "image is {} bytes", bytes.len());
    }
}
