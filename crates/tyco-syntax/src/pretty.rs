//! Canonical pretty-printer for DiTyCO processes.
//!
//! The output always re-parses to the same AST (`parse ∘ pretty = id` on
//! desugared terms), which the property tests rely on. To guarantee this:
//!
//! * objects are always printed in the delimited braces form
//!   `x?{ l(ỹ) = P, … }` (never the greedy `x?(ỹ) = P` sugar);
//! * a non-final component of a parallel composition is parenthesized
//!   unless it is a *closed* form (`0`, message, instantiation, `print`,
//!   braces object) that cannot swallow the following `| …`;
//! * `new` is printed with an explicit `in` and a parenthesized body when
//!   the body is a parallel composition.

use crate::ast::*;
use std::fmt::Write as _;

/// Render a process to its canonical concrete syntax (single line).
pub fn pretty(p: &Proc) -> String {
    let mut out = String::new();
    write_proc(&mut out, p);
    out
}

/// Render an expression to concrete syntax.
pub fn pretty_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// True for forms that cannot accidentally capture a following `| …` when
/// printed: they end with a closing delimiter.
fn is_closed(p: &Proc) -> bool {
    matches!(
        p,
        Proc::Nil | Proc::Msg { .. } | Proc::Inst { .. } | Proc::Print { .. } | Proc::Obj { .. }
    )
}

fn write_proc(out: &mut String, p: &Proc) {
    match p {
        Proc::Nil => out.push('0'),
        Proc::Par(ps) => {
            let last = ps.len().saturating_sub(1);
            for (i, q) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                if i != last && !is_closed(q) {
                    out.push('(');
                    write_proc(out, q);
                    out.push(')');
                } else if matches!(q, Proc::Par(_)) {
                    // Nested Par should not occur (Proc::par flattens), but
                    // stay safe for hand-built trees.
                    out.push('(');
                    write_proc(out, q);
                    out.push(')');
                } else {
                    write_proc(out, q);
                }
            }
        }
        Proc::New { binders, body, .. } | Proc::ExportNew { binders, body, .. } => {
            if matches!(p, Proc::ExportNew { .. }) {
                out.push_str("export ");
            }
            out.push_str("new ");
            for (i, b) in binders.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(b);
            }
            out.push_str(" in ");
            write_proc(out, body);
        }
        Proc::Msg {
            target,
            label,
            args,
            ..
        } => {
            let _ = write!(out, "{target}!{label}");
            write_args(out, args);
        }
        Proc::Obj {
            target, methods, ..
        } => {
            let _ = write!(out, "{target}?{{");
            for (i, m) in methods.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&m.label);
                out.push('(');
                for (j, param) in m.params.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(param);
                }
                out.push_str(") = ");
                write_proc(out, &m.body);
            }
            out.push('}');
        }
        Proc::Inst { class, args, .. } => {
            let _ = write!(out, "{class}");
            write_args(out, args);
        }
        Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
            if matches!(p, Proc::ExportDef { .. }) {
                out.push_str("export ");
            }
            out.push_str("def ");
            for (i, d) in defs.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                out.push_str(&d.name);
                out.push('(');
                for (j, param) in d.params.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(param);
                }
                out.push_str(") = ");
                write_proc(out, &d.body);
            }
            out.push_str(" in ");
            write_proc(out, body);
        }
        Proc::ImportName {
            name, site, body, ..
        } => {
            let _ = write!(out, "import {name} from {site} in ");
            write_proc(out, body);
        }
        Proc::ImportClass {
            class, site, body, ..
        } => {
            let _ = write!(out, "import {class} from {site} in ");
            write_proc(out, body);
        }
        Proc::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            out.push_str("if ");
            write_expr(out, cond);
            out.push_str(" then ");
            // The then-branch must not swallow the `else`; `parse_par` stops
            // at any non-`|` token, so a bare print is fine, but a trailing
            // open form inside a Par would be parenthesized by the Par rule.
            write_proc(out, then_branch);
            out.push_str(" else ");
            write_proc(out, else_branch);
        }
        Proc::Print { args, newline, .. } => {
            out.push_str(if *newline { "println" } else { "print" });
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        Proc::Let {
            binder,
            target,
            label,
            args,
            body,
            ..
        } => {
            let _ = write!(out, "let {binder} = {target}!{label}");
            write_args(out, args);
            out.push_str(" in ");
            write_proc(out, body);
        }
    }
}

fn write_args(out: &mut String, args: &[Expr]) {
    out.push('[');
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, a);
    }
    out.push(']');
}

/// Escape a string literal using only the escapes the lexer understands.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// Print an expression in infix, bracketing an operand only where the
/// precedences need it. The nodes are in post-order, so the subtree of
/// each is found first (`start`); the in-order walk over them keeps its
/// own stack and does not recurse.
fn write_expr(out: &mut String, e: &Expr) {
    if let Some(t) = e.atom() {
        return write_operand(out, t);
    }
    let terms: Vec<Term> = e.terms().collect();
    // start[i]: the first node of the subtree that node i roots.
    let mut start: Vec<usize> = Vec::with_capacity(terms.len());
    for (i, t) in terms.iter().enumerate() {
        let s = match t {
            Term::Bin(_) => start[start[i - 1] - 1],
            Term::Un(_) => start[i - 1],
            _ => i,
        };
        start.push(s);
    }
    enum Task {
        /// Print the subtree rooted at a node, bracketed if its operator
        /// binds looser than the given precedence.
        Node(usize, u8),
        Text(&'static str),
    }
    let mut todo = vec![Task::Node(terms.len() - 1, 0)];
    while let Some(task) = todo.pop() {
        let (i, min_prec) = match task {
            Task::Text(s) => {
                out.push_str(s);
                continue;
            }
            Task::Node(i, min_prec) => (i, min_prec),
        };
        match terms[i] {
            Term::Bin(op) => {
                let (a, b) = (start[i - 1] - 1, i - 1);
                let prec = op.precedence();
                let need = prec < min_prec;
                if need {
                    todo.push(Task::Text(")"));
                }
                todo.push(Task::Node(b, prec + 1));
                todo.push(Task::Text(" "));
                todo.push(Task::Text(op.symbol()));
                todo.push(Task::Text(" "));
                todo.push(Task::Node(a, prec));
                if need {
                    todo.push(Task::Text("("));
                }
            }
            Term::Un(op) => {
                out.push_str(op.symbol());
                if matches!(op, UnOp::Not) {
                    out.push(' ');
                }
                // Atoms only after unary: an operator below is bracketed.
                todo.push(Task::Node(i - 1, u8::MAX));
            }
            t => write_operand(out, t),
        }
    }
}

fn write_operand(out: &mut String, t: Term) {
    match t {
        Term::Name(r) => {
            let _ = write!(out, "{r}");
        }
        Term::Unit => out.push_str("unit"),
        Term::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Term::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Term::Str(s) => out.push_str(&escape_str(s)),
        Term::Float(x) => {
            let _ = write!(out, "{x:?}");
        }
        Term::Bin(_) | Term::Un(_) => unreachable!("an operand"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn roundtrip(src: &str) {
        let a = parse_program(src).expect("first parse");
        let printed = pretty(&a);
        let b = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(strip(a), strip(b), "round-trip mismatch via {printed:?}");
    }

    /// Spans differ between original and re-parsed trees; compare via the
    /// printer itself, which ignores spans.
    fn strip(p: Proc) -> String {
        pretty(&p)
    }

    #[test]
    fn roundtrips_core_forms() {
        roundtrip("0");
        roundtrip("x!read[r]");
        roundtrip("x![1, true, \"hi\"]");
        roundtrip("new x in x![1] | y![2]");
        roundtrip("x?{ read(r) = r![v], write(u) = 0 }");
        roundtrip(
            "def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v] } in new x Cell[x, 9]",
        );
        roundtrip("export new a in import b from s in a![s.x]");
        roundtrip("import Applet from server in Applet[v]");
        roundtrip("if 1 < 2 then print(1) else println(\"no\")");
        roundtrip("let d = db!chunk[] in print(d)");
        roundtrip("server.p!val[v, a]");
        roundtrip("s.Applet[v] | x?{}");
    }

    #[test]
    fn par_parenthesizes_open_forms() {
        let src = "(new x in x![1]) | y![2]";
        let a = parse_program(src).unwrap();
        match &a {
            Proc::Par(ps) => assert_eq!(ps.len(), 2),
            other => panic!("unexpected: {other:?}"),
        }
        let printed = pretty(&a);
        let b = parse_program(&printed).unwrap();
        assert_eq!(pretty(&b), printed);
        match b {
            Proc::Par(ps) => assert_eq!(ps.len(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn expr_parenthesization() {
        roundtrip("print((1 + 2) * 3, 1 + 2 * 3, not (a && b), -x)");
    }

    #[test]
    fn escape_round_trip() {
        roundtrip("print(\"a\\nb\\t\\\"c\\\\d\")");
    }
}
