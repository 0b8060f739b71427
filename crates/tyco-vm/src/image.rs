//! Whole-program byte-code images: the on-disk form of a compiled DiTyCO
//! program ("the final byte-code" of §5, as one hardware-independent
//! artifact a TyCOsh can submit to any node).
//!
//! Layout: magic `TYCO`, format version, entry block id, then the complete
//! code bundle (blocks, tables, symbol pools) in the packet codec's
//! encoding.

use crate::codec::{self, CodecError};
use crate::program::{MethodTable, Program};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"TYCO";
const VERSION: u32 = 1;

/// Serialize a program to a self-contained byte-code image. A program's
/// pools are already dense, so every id is written as it is; blocks are
/// written as [`crate::wire::pack`] writes them, fused forms expanded.
pub fn to_bytes(prog: &Program) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(prog.entry);
    buf.put_u32_le(prog.blocks.len() as u32);
    let mut old_to_new = Vec::new();
    for b in &prog.blocks {
        codec::put_block(&mut buf, b, &mut old_to_new, |_| {});
    }
    buf.put_u32_le(prog.tables.len() as u32);
    for t in &prog.tables {
        codec::put_table(&mut buf, t.entries.iter().copied());
    }
    for pool in [&prog.labels, &prog.strings] {
        codec::put_strs(&mut buf, (0..pool.len() as u32).map(|i| pool.get(i)));
    }
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
    let code = crate::wire::WireCode::decode(bytes)?;
    let (view, bytes) = (code.view(), code.bytes());
    let mut prog = Program {
        entry,
        ..Program::default()
    };
    // Re-intern pools in order: ids are preserved because the emitting side
    // wrote them densely in order.
    for l in &view.labels {
        prog.labels.intern(l.str(bytes));
    }
    for s in &view.strings {
        prog.strings.intern(s.str(bytes));
    }
    prog.blocks = (view.blocks.iter())
        .map(|b| b.with(b.name.str(bytes).to_owned(), b.code.of(&view.code).into()))
        .collect();
    prog.tables = (view.tables.iter())
        .map(|t| MethodTable {
            entries: t.of(&view.entries).to_vec(),
        })
        .collect();
    if (prog.entry as usize) >= prog.blocks.len() {
        return Err(CodecError(format!(
            "entry block {} out of range",
            prog.entry
        )));
    }
    // Static gate: a decoded image is untrusted until the verifier has
    // walked every block (referential integrity, stack simulation, frame
    // windows). See `verify.rs`.
    crate::verify::verify_program(&prog)
        .map_err(|e| CodecError(format!("image failed verification: {e}")))?;
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
        // No block for entry 7 to name: four zero counts, or one table
        // `x -> 9`.
        let head = b"TYCO\x01\0\0\0\x07\0\0\0\0\0\0\0";
        let tables = b"\x01\0\0\0\x01\0\0\0\0\0\0\0\x09\0\0\0\x01\0\0\0\x01\0\0\0x\0\0\0\0";
        for rest in [&[0; 12][..], tables] {
            let err = from_bytes(Bytes::from([&head[..], rest].concat())).unwrap_err();
            assert_eq!(err.0, "entry block 7 out of range");
        }
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
