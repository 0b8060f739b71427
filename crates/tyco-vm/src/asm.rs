//! The intermediate virtual-machine assembly (§5: *"Programs are compiled
//! into an intermediate virtual machine assembly. This in turn is compiled
//! into hardware independent byte-code. The mapping between the assembly
//! and the final byte-code is almost one-to-one."*).
//!
//! [`emit`] renders a [`Program`] as assembly text; [`parse`] assembles
//! text back into a `Program`. The mapping is exactly one-to-one: `parse ∘
//! emit = id` (property-tested). Labels and strings appear symbolically and
//! are re-interned on assembly.
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
use std::fmt::Write as _;
use tyco_syntax::ast::{BinOp, UnOp};
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

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Mod => "mod",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Concat => "concat",
    }
}

fn binop_by_name(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "mod" => BinOp::Mod,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "concat" => BinOp::Concat,
        _ => return None,
    })
}

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
        for ins in code {
            let line = match ins {
                Instr::PushLocal(s) => format!("pushlocal {s}"),
                Instr::PushInt(i) => format!("pushint {i}"),
                Instr::PushBool(v) => format!("pushbool {v}"),
                Instr::PushFloat(x) => format!("pushfloat {}", x.to_bits()),
                Instr::PushStr(s) => format!("pushstr {}", escape_str(prog.strings.get(*s))),
                Instr::PushUnit => "pushunit".to_string(),
                Instr::PushSibling(i) => format!("pushsibling {i}"),
                Instr::Store(s) => format!("store {s}"),
                Instr::Bin(op) => format!("bin {}", binop_name(*op)),
                Instr::Un(UnOp::Neg) => "un neg".to_string(),
                Instr::Un(UnOp::Not) => "un not".to_string(),
                Instr::Jump(t) => format!("jump {t}"),
                Instr::JumpIfFalse(t) => format!("jumpiffalse {t}"),
                Instr::Halt => "halt".to_string(),
                Instr::NewChan(s) => format!("newchan {s}"),
                Instr::Fork { block, nfree } => format!("fork {block} {nfree}"),
                Instr::TrMsg { label, argc } => {
                    format!("trmsg {} {argc}", prog.labels.get(*label))
                }
                Instr::TrObj { table, nfree } => format!("trobj {table} {nfree}"),
                Instr::InstOf { argc } => format!("instof {argc}"),
                Instr::MkGroup {
                    table,
                    dst,
                    count,
                    nfree,
                } => {
                    format!("mkgroup {table} {dst} {count} {nfree}")
                }
                Instr::ExportName { slot, name } => {
                    format!("exportname {slot} {}", escape_str(prog.strings.get(*name)))
                }
                Instr::ExportClass { slot, name } => {
                    format!("exportclass {slot} {}", escape_str(prog.strings.get(*name)))
                }
                Instr::Import {
                    dst,
                    site,
                    name,
                    kind,
                } => format!(
                    "import {dst} {} {} {}",
                    escape_str(prog.strings.get(*site)),
                    escape_str(prog.strings.get(*name)),
                    match kind {
                        ImportKind::Name => "name",
                        ImportKind::Class => "class",
                    }
                ),
                Instr::Print { argc, newline } => {
                    format!("print {argc} {}", if *newline { "nl" } else { "raw" })
                }
                // Normalized away just above.
                Instr::PushLocal2 { .. }
                | Instr::PushLocalInt { .. }
                | Instr::PushIntBin { .. }
                | Instr::BinJumpIfFalse { .. }
                | Instr::PushLocalTrMsg { .. }
                | Instr::PushLocalTrObj { .. }
                | Instr::PushLocalInstOf { .. }
                | Instr::PushSiblingInstOf { .. }
                | Instr::PushSiblingLocal { .. } => {
                    unreachable!("fused superinstruction survived normalization")
                }
            };
            let _ = writeln!(out, "    {line}");
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
            message: format!("bad numeric operand `{}`", self.words[i]),
        })
    }
}

/// Split a line into words, keeping quoted strings (with escapes) as single
/// words including their quotes.
fn split_words(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
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
            while i < bytes.len() && !(bytes[i] as char).is_whitespace() {
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
        let line = raw.split(';').next().unwrap_or("");
        if line.trim().is_empty() {
            continue;
        }
        let words = split_words(line);
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
    Ok(match head {
        "pushlocal" => Instr::PushLocal(cx.num(1)?),
        "pushint" => Instr::PushInt(cx.num(1)?),
        "pushbool" => match cx.arg(1)? {
            "true" => Instr::PushBool(true),
            "false" => Instr::PushBool(false),
            other => return cx.err(format!("bad bool `{other}`")),
        },
        "pushfloat" => Instr::PushFloat(f64::from_bits(cx.num(1)?)),
        "pushstr" => {
            let s = unquote(cx.line_no, cx.arg(1)?)?;
            Instr::PushStr(prog.strings.intern(&s))
        }
        "pushunit" => Instr::PushUnit,
        "pushsibling" => Instr::PushSibling(cx.num(1)?),
        "store" => Instr::Store(cx.num(1)?),
        "bin" => {
            let name = cx.arg(1)?;
            Instr::Bin(binop_by_name(name).ok_or_else(|| AsmError {
                line: cx.line_no,
                message: format!("unknown binop `{name}`"),
            })?)
        }
        "un" => match cx.arg(1)? {
            "neg" => Instr::Un(UnOp::Neg),
            "not" => Instr::Un(UnOp::Not),
            other => return cx.err(format!("unknown unop `{other}`")),
        },
        "jump" => Instr::Jump(cx.num(1)?),
        "jumpiffalse" => Instr::JumpIfFalse(cx.num(1)?),
        "halt" => Instr::Halt,
        "newchan" => Instr::NewChan(cx.num(1)?),
        "fork" => Instr::Fork {
            block: cx.num(1)?,
            nfree: cx.num(2)?,
        },
        "trmsg" => {
            let label = prog.labels.intern(cx.arg(1)?);
            Instr::TrMsg {
                label,
                argc: cx.num(2)?,
            }
        }
        "trobj" => Instr::TrObj {
            table: cx.num(1)?,
            nfree: cx.num(2)?,
        },
        "instof" => Instr::InstOf { argc: cx.num(1)? },
        "mkgroup" => Instr::MkGroup {
            table: cx.num(1)?,
            dst: cx.num(2)?,
            count: cx.num(3)?,
            nfree: cx.num(4)?,
        },
        "exportname" => {
            let slot = cx.num(1)?;
            let name = unquote(cx.line_no, cx.arg(2)?)?;
            Instr::ExportName {
                slot,
                name: prog.strings.intern(&name),
            }
        }
        "exportclass" => {
            let slot = cx.num(1)?;
            let name = unquote(cx.line_no, cx.arg(2)?)?;
            Instr::ExportClass {
                slot,
                name: prog.strings.intern(&name),
            }
        }
        "import" => {
            let dst = cx.num(1)?;
            let site = unquote(cx.line_no, cx.arg(2)?)?;
            let name = unquote(cx.line_no, cx.arg(3)?)?;
            let kind = match cx.arg(4)? {
                "name" => ImportKind::Name,
                "class" => ImportKind::Class,
                other => return cx.err(format!("unknown import kind `{other}`")),
            };
            Instr::Import {
                dst,
                site: prog.strings.intern(&site),
                name: prog.strings.intern(&name),
                kind,
            }
        }
        "print" => {
            let argc = cx.num(1)?;
            let newline = match cx.arg(2)? {
                "nl" => true,
                "raw" => false,
                other => return cx.err(format!("unknown print mode `{other}`")),
            };
            Instr::Print { argc, newline }
        }
        other => return cx.err(format!("unknown mnemonic `{other}`")),
    })
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
    }

    #[test]
    fn string_escapes_roundtrip() {
        let prog = program(r#"print("a\nb\"c\\d", "tab\there")"#);
        let back = parse(&emit(&prog)).unwrap();
        let mut m = Machine::new(back, LoopbackPort::new("main"));
        m.run_to_quiescence(1000).unwrap();
        assert_eq!(m.io, vec!["a\nb\"c\\d tab\there".to_string()]);
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
