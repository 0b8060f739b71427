//! Desugaring pass.
//!
//! The parser already normalizes `x![ẽ]` and `x?(ỹ)=P` to the explicit
//! `val`-labelled forms; the only remaining sugar is the synchronous-call
//! form from §4 of the paper:
//!
//! ```text
//! let z = a!l[ẽ] in P   ⇒   new r in (a!l[ẽ, r] | r?{ val(z) = P })
//! ```
//!
//! where `r` is fresh: it must not occur free in `P`, in the arguments, or
//! equal the subject of the call.

use crate::ast::*;
use crate::pos::Span;
use std::collections::BTreeSet;

/// Eliminate all `let` sugar from a process, recursively. The tree is
/// rewritten in place: only `let` nodes, and compositions that hold a `0`
/// or a nested composition, are rebuilt.
pub fn desugar(mut p: Proc) -> Proc {
    desugar_in_place(&mut p);
    p
}

fn desugar_in_place(p: &mut Proc) {
    match p {
        Proc::Nil | Proc::Msg { .. } | Proc::Inst { .. } | Proc::Print { .. } => {}
        Proc::Par(ps) => {
            ps.iter_mut().for_each(desugar_in_place);
            if ps.len() < 2 || ps.iter().any(|q| matches!(q, Proc::Nil | Proc::Par(_))) {
                *p = Proc::par(std::mem::take(ps));
            }
        }
        Proc::New { body, .. }
        | Proc::ExportNew { body, .. }
        | Proc::ImportName { body, .. }
        | Proc::ImportClass { body, .. } => desugar_in_place(body),
        Proc::Obj { methods, .. } => {
            for m in methods {
                desugar_in_place(&mut m.body);
            }
        }
        Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
            for d in defs {
                desugar_in_place(&mut d.body);
            }
            desugar_in_place(body);
        }
        Proc::If {
            then_branch,
            else_branch,
            ..
        } => {
            desugar_in_place(then_branch);
            desugar_in_place(else_branch);
        }
        Proc::Let { .. } => {
            let Proc::Let {
                binder,
                target,
                label,
                mut args,
                mut body,
                span,
            } = std::mem::replace(p, Proc::Nil)
            else {
                unreachable!("matched a `let`")
            };
            desugar_in_place(&mut body);
            // Compute the set of names the fresh reply channel must avoid.
            let mut avoid: BTreeSet<Ident> = body.free_names();
            avoid.insert(binder.clone());
            for a in &args {
                a.free_names_into(&mut avoid);
            }
            if let NameRef::Plain(x) = &target {
                avoid.insert(x.clone());
            }
            let reply = fresh_name("reply", &avoid);
            args.push(Expr::name(reply.clone()));
            let call = Proc::Msg {
                target,
                label,
                args,
                span,
            };
            let receiver = Proc::Obj {
                target: NameRef::Plain(reply.clone()),
                methods: vec![Method {
                    label: VAL_LABEL.to_string(),
                    params: vec![binder],
                    body: *body,
                    span: Span::synthetic(),
                }],
                span: Span::synthetic(),
            };
            *p = Proc::New {
                binders: vec![reply],
                body: Box::new(Proc::par([call, receiver])),
                span,
            };
        }
    }
}

/// Produce an identifier based on `base` that is not in `avoid`.
pub fn fresh_name(base: &str, avoid: &BTreeSet<Ident>) -> Ident {
    if !avoid.contains(base) {
        return base.to_string();
    }
    for n in 0u64.. {
        let candidate = format!("{base}'{n}");
        if !avoid.contains(&candidate) {
            return candidate;
        }
    }
    unreachable!("u64 exhausted while generating fresh names")
}

/// True when the process contains no remaining sugar.
pub fn is_core(p: &Proc) -> bool {
    match p {
        Proc::Nil | Proc::Msg { .. } | Proc::Inst { .. } | Proc::Print { .. } => true,
        Proc::Par(ps) => ps.iter().all(is_core),
        Proc::New { body, .. }
        | Proc::ExportNew { body, .. }
        | Proc::ImportName { body, .. }
        | Proc::ImportClass { body, .. } => is_core(body),
        Proc::Obj { methods, .. } => methods.iter().all(|m| is_core(&m.body)),
        Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
            defs.iter().all(|d| is_core(&d.body)) && is_core(body)
        }
        Proc::If {
            then_branch,
            else_branch,
            ..
        } => is_core(then_branch) && is_core(else_branch),
        Proc::Let { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::pretty;

    #[test]
    fn let_becomes_new_par() {
        let p = parse_program("let data = db!chunk[1] in print(data)").unwrap();
        let d = desugar(p);
        assert!(is_core(&d));
        match &d {
            Proc::New { binders, body, .. } => {
                assert_eq!(binders.len(), 1);
                match &**body {
                    Proc::Par(ps) => {
                        assert_eq!(ps.len(), 2);
                        match &ps[0] {
                            Proc::Msg { label, args, .. } => {
                                assert_eq!(label, "chunk");
                                // Original arg plus the appended reply name.
                                assert_eq!(args.len(), 2);
                                assert_eq!(args[1], Expr::name(binders[0].clone()));
                            }
                            other => panic!("unexpected: {other:?}"),
                        }
                        assert!(matches!(&ps[1], Proc::Obj { .. }));
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let p = parse_program("let v = reply!get[] in print(v, reply)").unwrap();
        let d = desugar(p);
        match &d {
            Proc::New { binders, .. } => {
                assert_ne!(binders[0], "reply");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The desugared form still re-parses.
        let printed = pretty(&d);
        assert_eq!(pretty(&parse_program(&printed).unwrap()), printed);
    }

    #[test]
    fn nested_lets() {
        let p = parse_program("let a = x!f[] in let b = y!g[a] in print(a + b)").unwrap();
        let d = desugar(p);
        assert!(is_core(&d));
    }

    #[test]
    fn desugar_is_identity_on_core() {
        let src = "def C(s) = s?{ m(r) = r![1] } in new x C[x] | x!m[x]";
        let p = parse_program(src).unwrap();
        assert!(is_core(&p));
        assert_eq!(desugar(p.clone()), p);
    }

    #[test]
    fn fresh_name_generator() {
        let mut avoid = BTreeSet::new();
        assert_eq!(fresh_name("r", &avoid), "r");
        avoid.insert("r".to_string());
        assert_eq!(fresh_name("r", &avoid), "r'0");
        avoid.insert("r'0".to_string());
        assert_eq!(fresh_name("r", &avoid), "r'1");
    }
}
