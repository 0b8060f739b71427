//! The identifier-translation function σ and syntactic helpers for the
//! structural congruence of networks (§3 of the paper).
//!
//! When a prefixed process moves from site `r` to site `s` (rules SHIPM,
//! SHIPO, FETCH), its free identifiers are translated by the total function
//! σᵣˢ ("sigma from r, arriving at s"):
//!
//! ```text
//! σ(x)    = r.x      a plain name was implicitly located at the origin
//! σ(s.x)  = x        a name located at the destination becomes plain
//! σ(s'.x) = s'.x     other located names are untouched
//! ```
//!
//! and identically for class variables.

use tyco_syntax::ast::*;

/// Translate a name reference moving from site `from` to site `to`.
pub fn sigma_name(r: &NameRef, from: &str, to: &str) -> NameRef {
    match r {
        NameRef::Plain(x) => NameRef::located(from, x.clone()),
        NameRef::Located(sx) if sx.0 == to => NameRef::Plain(sx.1.clone()),
        NameRef::Located(_) => r.clone(),
    }
}

/// Translate a class reference moving from site `from` to site `to`.
pub fn sigma_class(r: &ClassRef, from: &str, to: &str) -> ClassRef {
    match r {
        ClassRef::Plain(x) => ClassRef::Located(from.to_string(), x.clone()),
        ClassRef::Located(s, x) if s == to => ClassRef::Plain(x.clone()),
        ClassRef::Located(s, x) => ClassRef::Located(s.clone(), x.clone()),
    }
}

/// Apply σ to every *free* identifier of a process moving from `from` to
/// `to`. Bound occurrences (under `new`, method/class parameters, `def`
/// class names, `import` binders) are untouched, exactly as in the paper's
/// `Mσr` / `Dσr`.
pub fn sigma_proc(p: &Proc, from: &str, to: &str) -> Proc {
    let mut bound_names: Vec<String> = Vec::new();
    let mut bound_classes: Vec<String> = Vec::new();
    sigma_rec(p, from, to, &mut bound_names, &mut bound_classes)
}

fn name_is_bound(bound: &[String], r: &NameRef) -> bool {
    matches!(r, NameRef::Plain(x) if bound.iter().any(|b| b == x))
}

fn sigma_name_in(r: &NameRef, from: &str, to: &str, bound: &[String]) -> NameRef {
    if name_is_bound(bound, r) {
        r.clone()
    } else {
        sigma_name(r, from, to)
    }
}

fn sigma_expr(e: &Expr, from: &str, to: &str, bound: &[String]) -> Expr {
    e.map_names(|r| sigma_name_in(r, from, to, bound))
}

fn sigma_rec(p: &Proc, from: &str, to: &str, bn: &mut Vec<String>, bc: &mut Vec<String>) -> Proc {
    match p {
        Proc::Nil => Proc::Nil,
        Proc::Par(ps) => Proc::Par(ps.iter().map(|q| sigma_rec(q, from, to, bn, bc)).collect()),
        Proc::New {
            binders,
            body,
            span,
        } => {
            let n = bn.len();
            bn.extend(binders.iter().cloned());
            let body = Box::new(sigma_rec(body, from, to, bn, bc));
            bn.truncate(n);
            Proc::New {
                binders: binders.clone(),
                body,
                span: *span,
            }
        }
        Proc::ExportNew {
            binders,
            body,
            span,
        } => {
            let n = bn.len();
            bn.extend(binders.iter().cloned());
            let body = Box::new(sigma_rec(body, from, to, bn, bc));
            bn.truncate(n);
            Proc::ExportNew {
                binders: binders.clone(),
                body,
                span: *span,
            }
        }
        Proc::Msg {
            target,
            label,
            args,
            span,
        } => Proc::Msg {
            target: sigma_name_in(target, from, to, bn),
            label: label.clone(),
            args: args.iter().map(|a| sigma_expr(a, from, to, bn)).collect(),
            span: *span,
        },
        Proc::Obj {
            target,
            methods,
            span,
        } => Proc::Obj {
            target: sigma_name_in(target, from, to, bn),
            methods: methods
                .iter()
                .map(|m| {
                    let n = bn.len();
                    bn.extend(m.params.iter().cloned());
                    let body = sigma_rec(&m.body, from, to, bn, bc);
                    bn.truncate(n);
                    Method {
                        label: m.label.clone(),
                        params: m.params.clone(),
                        body,
                        span: m.span,
                    }
                })
                .collect(),
            span: *span,
        },
        Proc::Inst { class, args, span } => {
            let class = match class {
                ClassRef::Plain(x) if bc.iter().any(|b| b == x) => class.clone(),
                other => sigma_class(other, from, to),
            };
            Proc::Inst {
                class,
                args: args.iter().map(|a| sigma_expr(a, from, to, bn)).collect(),
                span: *span,
            }
        }
        Proc::Def { defs, body, span } | Proc::ExportDef { defs, body, span } => {
            let c = bc.len();
            bc.extend(defs.iter().map(|d| d.name.clone()));
            let defs2: Vec<ClassDef> = defs
                .iter()
                .map(|d| {
                    let n = bn.len();
                    bn.extend(d.params.iter().cloned());
                    let body = sigma_rec(&d.body, from, to, bn, bc);
                    bn.truncate(n);
                    ClassDef {
                        name: d.name.clone(),
                        params: d.params.clone(),
                        body,
                        span: d.span,
                    }
                })
                .collect();
            let body2 = Box::new(sigma_rec(body, from, to, bn, bc));
            bc.truncate(c);
            if matches!(p, Proc::ExportDef { .. }) {
                Proc::ExportDef {
                    defs: defs2,
                    body: body2,
                    span: *span,
                }
            } else {
                Proc::Def {
                    defs: defs2,
                    body: body2,
                    span: *span,
                }
            }
        }
        Proc::ImportName {
            name,
            site,
            body,
            span,
        } => {
            let n = bn.len();
            bn.push(name.clone());
            let body = Box::new(sigma_rec(body, from, to, bn, bc));
            bn.truncate(n);
            Proc::ImportName {
                name: name.clone(),
                site: site.clone(),
                body,
                span: *span,
            }
        }
        Proc::ImportClass {
            class,
            site,
            body,
            span,
        } => {
            let c = bc.len();
            bc.push(class.clone());
            let body = Box::new(sigma_rec(body, from, to, bn, bc));
            bc.truncate(c);
            Proc::ImportClass {
                class: class.clone(),
                site: site.clone(),
                body,
                span: *span,
            }
        }
        Proc::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => Proc::If {
            cond: sigma_expr(cond, from, to, bn),
            then_branch: Box::new(sigma_rec(then_branch, from, to, bn, bc)),
            else_branch: Box::new(sigma_rec(else_branch, from, to, bn, bc)),
            span: *span,
        },
        Proc::Print {
            args,
            newline,
            span,
        } => Proc::Print {
            args: args.iter().map(|a| sigma_expr(a, from, to, bn)).collect(),
            newline: *newline,
            span: *span,
        },
        Proc::Let {
            binder,
            target,
            label,
            args,
            body,
            span,
        } => {
            let target = sigma_name_in(target, from, to, bn);
            let args = args.iter().map(|a| sigma_expr(a, from, to, bn)).collect();
            let n = bn.len();
            bn.push(binder.clone());
            let body = Box::new(sigma_rec(body, from, to, bn, bc));
            bn.truncate(n);
            Proc::Let {
                binder: binder.clone(),
                target,
                label: label.clone(),
                args,
                body,
                span: *span,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_syntax::parse_program;
    use tyco_syntax::pretty::pretty;

    fn sig(src: &str, from: &str, to: &str) -> String {
        pretty(&sigma_proc(&parse_program(src).unwrap(), from, to))
    }

    #[test]
    fn plain_free_names_get_origin_prefix() {
        assert_eq!(sig("x!go[v]", "r", "s"), "r.x!go[r.v]");
    }

    #[test]
    fn destination_located_names_become_plain() {
        assert_eq!(sig("s.x!go[s.v]", "r", "s"), "x!go[v]");
    }

    #[test]
    fn third_party_names_untouched() {
        assert_eq!(sig("t.x!go[t.v]", "r", "s"), "t.x!go[t.v]");
    }

    #[test]
    fn bound_names_untouched() {
        assert_eq!(sig("new x in x![y]", "r", "s"), "new x in x!val[r.y]");
        assert_eq!(
            sig("a?{ m(p) = p![q] }", "r", "s"),
            "r.a?{m(p) = p!val[r.q]}"
        );
    }

    #[test]
    fn classes_translate_like_names() {
        assert_eq!(sig("X[v]", "r", "s"), "r.X[r.v]");
        assert_eq!(sig("s.X[1]", "r", "s"), "X[1]");
        assert_eq!(
            sig("def X(a) = X[a] in X[b]", "r", "s"),
            "def X(a) = X[a] in X[r.b]"
        );
    }

    #[test]
    fn paper_rpc_message_translation() {
        // Shipping `p!val[v, a]` from s to r where p is r-located at the
        // sender: r[p!l[s.v s.a]] — the argument names pick up `s.`.
        assert_eq!(sig("r.p!val[v, a]", "s", "r"), "p!val[s.v, s.a]");
    }

    #[test]
    fn sigma_round_trip_is_identity() {
        // σ_{s→r} ∘ σ_{r→s} = id on processes free over plain/r/s names.
        for src in [
            "x!go[v]",
            "s.x!go[w]",
            "new a (x![a] | a?(y) = print(y))",
            "def X(a) = Y[a] and Y(b) = 0 in X[u] | s.Z[2]",
            "import q from t in q![x]",
        ] {
            let p = parse_program(src).unwrap();
            let there = sigma_proc(&p, "r", "s");
            let back = sigma_proc(&there, "s", "r");
            assert_eq!(pretty(&back), pretty(&p), "failed for {src}");
        }
    }
}
