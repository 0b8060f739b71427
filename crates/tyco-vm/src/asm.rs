//! The intermediate virtual-machine assembly (§5: *"Programs are compiled
//! into an intermediate virtual machine assembly. This in turn is compiled
//! into hardware independent byte-code. The mapping between the assembly
//! and the final byte-code is almost one-to-one."*).
//!
//! [`emit`] renders a [`Program`] as assembly text; [`parse`] assembles
//! text back into a `Program`. The mapping is exactly one-to-one: `parse ∘
//! emit = id` (property-tested). Labels and strings appear symbolically and
//! are re-interned on assembly. An instruction is its mnemonic, then its
//! operands in declared order, each spelled by its kind alone (see
//! [`crate::program`]).
//!
//! Format:
//!
//! ```text
//! .entry 0
//! .block 0 "entry" free=0 params=0 locals=2
//!     newchan 0
//!     pushint 42
//!     pushlocal 0
//!     trmsg val 1
//!     halt
//! .block 1 "cell.read" free=2 params=1 locals=0 class
//!     ...
//! .table 0
//!     read -> 1
//!     write -> 2
//! ```

use crate::program::*;
use std::borrow::Cow;
use std::fmt::Write as _;
use tyco_syntax::pretty::escape_str;

/// An assembly syntax error.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "asm error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Render a program as assembly text.
pub fn emit(prog: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".entry {}", prog.entry);
    for (i, b) in prog.blocks.iter().enumerate() {
        let _ = writeln!(
            out,
            ".block {i} {} free={} params={} locals={}{}",
            escape_str(&b.name),
            b.nfree,
            b.nparams,
            b.nlocals,
            if b.is_class_body { " class" } else { "" },
        );
        // Assembly is a serialization format: emit the normalized form so
        // `parse(emit(p))` round-trips without fused mnemonics (fused
        // superinstructions are machine-internal, see `crate::fuse`).
        let normalized = crate::fuse::unfuse_code(&b.code);
        let code: &[Instr] = normalized.as_deref().unwrap_or(&b.code);
        for mut ins in code.iter().copied() {
            out.push_str("    ");
            out.push_str(OP_NAMES[ins.op_index()]);
            ins.each_operand(|o| {
                let text: Cow<'_, str> = match o {
                    Operand::Slot(v) | Operand::U16(v) => v.to_string().into(),
                    Operand::U8(v) | Operand::Sibling(v) => v.to_string().into(),
                    Operand::Int(v) => v.to_string().into(),
                    Operand::Imm(v) => v.to_string().into(),
                    Operand::Float(v) => v.to_bits().to_string().into(),
                    Operand::Bool(v) => v.to_string().into(),
                    Operand::Block(v) | Operand::Table(v) | Operand::Target(v) => {
                        v.to_string().into()
                    }
                    Operand::Str(s) => escape_str(prog.strings.get(*s)).into(),
                    Operand::Label(l) => prog.labels.get(*l).into(),
                    Operand::BinOp(op) => BINOPS[*op as usize].1.into(),
                    Operand::UnOp(op) => UNOPS[*op as usize].1.into(),
                    Operand::ImportKind(k) => IMPORT_KINDS[*k as usize].1.into(),
                    Operand::Newline(nl) => NEWLINES[*nl as usize].1.into(),
                };
                out.push(' ');
                out.push_str(&text);
            });
            out.push('\n');
        }
    }
    for (i, t) in prog.tables.iter().enumerate() {
        let _ = writeln!(out, ".table {i}");
        for (l, b) in &t.entries {
            let _ = writeln!(out, "    {} -> {b}", prog.labels.get(*l));
        }
    }
    out
}

/// A lexed assembly token stream for one line.
struct LineCx<'a> {
    line_no: usize,
    words: Vec<&'a str>,
    src: &'a str,
}

impl<'a> LineCx<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, AsmError> {
        Err(AsmError {
            line: self.line_no,
            message: msg.into(),
        })
    }

    fn arg(&self, i: usize) -> Result<&'a str, AsmError> {
        self.words.get(i).copied().ok_or_else(|| AsmError {
            line: self.line_no,
            message: format!("missing operand {i} in `{}`", self.src.trim()),
        })
    }

    fn num<T: std::str::FromStr>(&self, i: usize) -> Result<T, AsmError> {
        self.arg(i)?.parse().map_err(|_| AsmError {
            line: self.line_no,
            message: format!("bad operand `{}`", self.words[i]),
        })
    }

    /// The value whose word in `table` is operand `i`.
    fn word<T: Copy>(&self, i: usize, table: &[(T, &str)], what: &str) -> Result<T, AsmError> {
        let w = self.arg(i)?;
        match table.iter().find(|e| e.1 == w) {
            Some(e) => Ok(e.0),
            None => self.err(format!("unknown {what} `{w}`")),
        }
    }
}

/// Split a line into words, keeping quoted strings (with escapes) as single
/// words including their quotes. A `;` outside quotes starts a comment.
fn split_words(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == b';' {
            break;
        }
        let start = i;
        if bytes[i] == b'"' {
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
        } else {
            while i < bytes.len() && !(bytes[i] as char).is_whitespace() && bytes[i] != b';' {
                i += 1;
            }
        }
        out.push(&line[start..i.min(bytes.len())]);
    }
    out
}

/// Unquote a string operand using the lexer's escape rules.
fn unquote(line_no: usize, w: &str) -> Result<String, AsmError> {
    let toks = tyco_syntax::lexer::lex(w).map_err(|e| AsmError {
        line: line_no,
        message: format!("bad string operand: {e}"),
    })?;
    match toks.first().map(|t| &t.tok) {
        Some(tyco_syntax::token::Tok::Str(s)) => Ok(tyco_syntax::lexer::unescape(s)),
        _ => Err(AsmError {
            line: line_no,
            message: format!("expected string, got `{w}`"),
        }),
    }
}

/// Assemble text into a program.
pub fn parse(src: &str) -> Result<Program, AsmError> {
    let mut prog = Program::default();
    #[derive(PartialEq)]
    enum Section {
        None,
        Block,
        Table(usize),
    }
    let mut section = Section::None;
    // Instructions of the block currently being assembled; sealed into the
    // block's shared code slice when the next section starts (or at EOF).
    let mut pending: Vec<Instr> = Vec::new();
    fn seal(prog: &mut Program, pending: &mut Vec<Instr>) {
        if !pending.is_empty() {
            let block = prog
                .blocks
                .last_mut()
                .expect("pending code implies a block");
            block.code = std::mem::take(pending).into();
        }
    }

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let words = split_words(raw);
        if words.is_empty() {
            continue;
        }
        let cx = LineCx {
            line_no,
            words,
            src: raw,
        };
        let head = cx.arg(0)?;
        match head {
            ".entry" => {
                seal(&mut prog, &mut pending);
                prog.entry = cx.num(1)?;
                section = Section::None;
            }
            ".block" => {
                seal(&mut prog, &mut pending);
                let id: usize = cx.num(1)?;
                if id != prog.blocks.len() {
                    return cx.err(format!(
                        "blocks must be declared in order (expected {}, got {id})",
                        prog.blocks.len()
                    ));
                }
                let name = unquote(line_no, cx.arg(2)?)?;
                let mut nfree = 0u16;
                let mut nparams = 0u16;
                let mut nlocals = 0u16;
                let mut is_class_body = false;
                for w in &cx.words[3..] {
                    if let Some(v) = w.strip_prefix("free=") {
                        nfree = v.parse().map_err(|_| AsmError {
                            line: line_no,
                            message: format!("bad free= value `{v}`"),
                        })?;
                    } else if let Some(v) = w.strip_prefix("params=") {
                        nparams = v.parse().map_err(|_| AsmError {
                            line: line_no,
                            message: format!("bad params= value `{v}`"),
                        })?;
                    } else if let Some(v) = w.strip_prefix("locals=") {
                        nlocals = v.parse().map_err(|_| AsmError {
                            line: line_no,
                            message: format!("bad locals= value `{v}`"),
                        })?;
                    } else if *w == "class" {
                        is_class_body = true;
                    } else {
                        return cx.err(format!("unknown block attribute `{w}`"));
                    }
                }
                prog.blocks.push(Block {
                    name,
                    nfree,
                    nparams,
                    nlocals,
                    is_class_body,
                    code: Vec::new().into(),
                });
                section = Section::Block;
            }
            ".table" => {
                seal(&mut prog, &mut pending);
                let id: usize = cx.num(1)?;
                if id != prog.tables.len() {
                    return cx.err(format!(
                        "tables must be declared in order (expected {}, got {id})",
                        prog.tables.len()
                    ));
                }
                prog.tables.push(MethodTable::default());
                section = Section::Table(id);
            }
            _ => match &section {
                Section::None => return cx.err(format!("instruction `{head}` outside a section")),
                Section::Table(id) => {
                    // `label -> block`
                    if cx.arg(1)? != "->" {
                        return cx.err("expected `label -> block`");
                    }
                    let label = prog.labels.intern(head);
                    let block: BlockId = cx.num(2)?;
                    prog.tables[*id].entries.push((label, block));
                }
                Section::Block => {
                    let ins = parse_instr(&cx, &mut prog)?;
                    pending.push(ins);
                }
            },
        }
    }
    seal(&mut prog, &mut pending);
    // Method tables must be sorted for lookup; group tables are positional
    // but emitted in def order, which `emit` preserves — only re-sort when
    // already sorted-by-label input is expected. We preserve input order to
    // keep parse∘emit = id; the compiler emits object tables sorted.
    Ok(prog)
}

fn parse_instr(cx: &LineCx<'_>, prog: &mut Program) -> Result<Instr, AsmError> {
    let head = cx.arg(0)?;
    let opcode = OP_NAMES.iter().position(|n| *n == head);
    let Some(mut ins) = opcode.and_then(|op| Instr::base(op as u8)) else {
        return cx.err(format!("unknown mnemonic `{head}`"));
    };
    let mut i = 0;
    ins.operands(|o| {
        i += 1;
        match o {
            Operand::Slot(v) | Operand::U16(v) => *v = cx.num(i)?,
            Operand::U8(v) | Operand::Sibling(v) => *v = cx.num(i)?,
            Operand::Int(v) => *v = cx.num(i)?,
            Operand::Imm(v) => *v = cx.num(i)?,
            Operand::Float(v) => *v = f64::from_bits(cx.num(i)?),
            Operand::Bool(v) => *v = cx.num(i)?,
            Operand::Block(v) | Operand::Table(v) | Operand::Target(v) => *v = cx.num(i)?,
            Operand::Str(v) => *v = prog.strings.intern(&unquote(cx.line_no, cx.arg(i)?)?),
            Operand::Label(v) => *v = prog.labels.intern(cx.arg(i)?),
            Operand::BinOp(v) => *v = cx.word(i, &BINOPS, "binop")?,
            Operand::UnOp(v) => *v = cx.word(i, &UNOPS, "unop")?,
            Operand::ImportKind(v) => *v = cx.word(i, &IMPORT_KINDS, "import kind")?,
            Operand::Newline(v) => *v = cx.word(i, &NEWLINES, "print mode")?,
        }
        Ok(())
    })?;
    if let Some(extra) = cx.words.get(i + 1) {
        return cx.err(format!(
            "unexpected operand `{extra}` in `{}`",
            cx.src.trim()
        ));
    }
    Ok(ins)
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

    /// Compare programs modulo symbol-pool numbering by re-emitting.
    fn assert_equivalent(a: &Program, b: &Program) {
        assert_eq!(emit(a), emit(b));
    }

    #[test]
    fn emit_parse_roundtrip_paper_examples() {
        for src in [
            "print(1 + 2)",
            r#"
            def Cell(self, v) =
                self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
            in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print(w)))
            "#,
            "export new p in import q from s in (p?{ go() = println(\"hi\") } | q![1.5, true, unit])",
            "def E(n) = if n == 0 then print(not false) else O[n - 1] and O(n) = E[n - 1] in E[4]",
            "new x (x![-3] | x?(y) = print(-y))",
        ] {
            let prog = program(src);
            let text = emit(&prog);
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_equivalent(&prog, &back);
        }
    }

    #[test]
    fn assembled_program_runs_identically() {
        let src = r#"
            def Cell(self, v) =
                self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
            in new x (Cell[x, 9] | x!write[5] | new z (x!read[z] | z?(w) = print(w)))
        "#;
        let prog = program(src);
        let reassembled = parse(&emit(&prog)).unwrap();
        let mut m1 = Machine::new(prog, LoopbackPort::new("main"));
        m1.run_to_quiescence(u64::MAX).unwrap();
        let mut m2 = Machine::new(reassembled, LoopbackPort::new("main"));
        m2.run_to_quiescence(u64::MAX).unwrap();
        assert_eq!(m1.io, m2.io);
        assert_eq!(m1.io, vec!["5".to_string()]);
    }

    #[test]
    fn hand_written_assembly_runs() {
        // print(40 + 2) by hand.
        let text = r#"
            .entry 0
            .block 0 "entry" free=0 params=0 locals=0
                pushint 40
                pushint 2
                bin add
                print 1 nl
                halt
        "#;
        let prog = parse(text).unwrap();
        let mut m = Machine::new(prog, LoopbackPort::new("main"));
        m.run_to_quiescence(1000).unwrap();
        assert_eq!(m.io, vec!["42".to_string()]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n; leading comment\n.entry 0\n.block 0 \"e\" free=0 params=0 locals=0\n    pushunit ; trailing\n    print 1 nl\n    halt\n";
        let prog = parse(text).unwrap();
        let mut m = Machine::new(prog, LoopbackPort::new("main"));
        m.run_to_quiescence(1000).unwrap();
        assert_eq!(m.io, vec!["unit".to_string()]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse(".entry 0\n.block 0 \"e\" free=0 params=0 locals=0\n    frobnicate 1\n")
            .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
        let e = parse("pushint 1").unwrap_err();
        assert!(e.message.contains("outside a section"));
        let e = parse(".block 5 \"x\" free=0 params=0 locals=0").unwrap_err();
        assert!(e.message.contains("in order"));
        let e = parse(".entry 0\n.block 0 \"e\" free=0 params=0 locals=0\n  pushint 1 2 3\n")
            .unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.message, "unexpected operand `2` in `pushint 1 2 3`");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let prog = program(r#"print("a\nb\"c\\d", "tab\there", "a;b")"#);
        let back = parse(&emit(&prog)).unwrap();
        let mut m = Machine::new(back, LoopbackPort::new("main"));
        m.run_to_quiescence(1000).unwrap();
        assert_eq!(m.io, vec!["a\nb\"c\\d tab\there a;b".to_string()]);
    }

    #[test]
    fn float_bits_are_exact() {
        let prog = program("print(0.1 + 0.2)");
        let back = parse(&emit(&prog)).unwrap();
        let mut m1 = Machine::new(prog, LoopbackPort::new("main"));
        m1.run_to_quiescence(1000).unwrap();
        let mut m2 = Machine::new(back, LoopbackPort::new("main"));
        m2.run_to_quiescence(1000).unwrap();
        assert_eq!(m1.io, m2.io);
    }
}
