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

/// The spelling a `let`'s reply name starts from.
const REPLY: &str = "reply";

/// Eliminate all `let` sugar from a process, recursively. The tree is
/// rewritten in place: only `let` nodes, and compositions that hold a `0`
/// or a nested composition, are rebuilt.
pub fn desugar(mut p: Proc) -> Proc {
    desugar_in_place(&mut p);
    p
}

/// Rewrite the `let`s of `p`, innermost first, in one pass. Returns the
/// names free in the result that could clash with a reply name, built
/// bottom-up: against these a `let`'s reply name comes out as against
/// every free name of its body.
fn desugar_in_place(p: &mut Proc) -> BTreeSet<Ident> {
    let mut free = BTreeSet::new();
    // The clashing names bound around the sub-process at hand.
    let mut bound: Vec<Ident> = Vec::new();
    p.parts_mut(&mut |part| match part {
        PartMut::Name(r) => note(r, &mut free),
        PartMut::Bind(Binder::Names(xs)) => bound.extend(xs.iter().filter(|x| clashes(x)).cloned()),
        PartMut::Unbind(Binder::Names(xs)) => {
            bound.truncate(bound.len() - xs.iter().filter(|x| clashes(x)).count())
        }
        PartMut::Sub(q) => {
            let mut sub = desugar_in_place(q);
            sub.retain(|x| !bound.contains(x));
            if sub.len() > free.len() {
                std::mem::swap(&mut sub, &mut free);
            }
            free.extend(sub);
        }
        PartMut::Class(_) | PartMut::Bind(_) | PartMut::Unbind(_) => {}
    });
    match p {
        Proc::Let { .. } => {
            let Proc::Let {
                binder,
                target,
                label,
                mut args,
                body,
                span,
            } = std::mem::replace(p, Proc::Nil)
            else {
                unreachable!("matched a `let`")
            };
            // The reply name avoids the free names of the body, the
            // arguments and the target (`free`), and the binder.
            let with_binder = clashes(&binder) && free.insert(binder.clone());
            let reply = fresh_name(REPLY, &free);
            if with_binder {
                free.remove(&binder);
            }
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
        Proc::Par(ps)
            if ps.len() < 2 || ps.iter().any(|q| matches!(q, Proc::Nil | Proc::Par(_))) =>
        {
            *p = Proc::par(std::mem::take(ps));
        }
        _ => {}
    }
    free
}

/// Could `x` be a reply name? [`fresh_name`] reads no names but those
/// that start with its base.
fn clashes(x: &str) -> bool {
    x.starts_with(REPLY)
}

fn note(r: &NameRef, free: &mut BTreeSet<Ident>) {
    if let NameRef::Plain(x) = r {
        if clashes(x) {
            free.insert(x.clone());
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
    let mut core = !matches!(p, Proc::Let { .. });
    p.parts(&mut |part| {
        if let Part::Sub(q) = part {
            core = core && is_core(q);
        }
    });
    core
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
