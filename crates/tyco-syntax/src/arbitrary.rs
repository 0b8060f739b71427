//! Proptest generators for random (well-scoped) DiTyCO processes.
//!
//! Enabled with the `arbitrary` feature. Used by the syntax round-trip
//! tests and by the differential tests between the calculus interpreter and
//! the virtual machine.
//!
//! Two flavours are provided:
//!
//! * [`arb_proc`] — arbitrary *syntactically valid* processes (may refer to
//!   free names and free classes; useful for parser/printer round-trips);
//! * [`arb_closed_program`] — *closed, well-typed-by-construction* programs
//!   over a monomorphic protocol, suitable for actually running on both
//!   semantics (every channel carries a single `val(int)` method, classes
//!   take a bounded list of int parameters, no dangling references).

use crate::ast::*;
use crate::pos::Span;
use proptest::prelude::*;

const NAME_POOL: &[&str] = &["a", "b", "c", "x", "y", "z", "u", "v", "w"];
const LABEL_POOL: &[&str] = &["val", "get", "set", "ping", "ack"];
const CLASS_POOL: &[&str] = &["A", "B", "C", "K", "Loop"];

fn arb_name() -> impl Strategy<Value = String> {
    proptest::sample::select(NAME_POOL).prop_map(str::to_string)
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::sample::select(LABEL_POOL).prop_map(str::to_string)
}

fn arb_class_name() -> impl Strategy<Value = String> {
    proptest::sample::select(CLASS_POOL).prop_map(str::to_string)
}

/// Literals restricted to forms whose printing round-trips exactly.
fn arb_lit() -> impl Strategy<Value = Lit> {
    prop_oneof![
        (0i64..1000).prop_map(Lit::Int),
        any::<bool>().prop_map(Lit::Bool),
        "[ -~&&[^\"\\\\]]{0,8}".prop_map(Lit::Str),
        Just(Lit::Unit),
    ]
}

/// Expressions (depth-bounded). Avoids `Un(Neg, Lit)` which the parser
/// constant-folds.
pub fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit().prop_map(Expr::lit),
        arb_name().prop_map(Expr::name),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            inner
                .clone()
                .prop_filter("no neg of literal", |e| {
                    e.atom().is_none_or(|t| matches!(t, Term::Name(_)))
                })
                .prop_map(|e| Expr::un(UnOp::Neg, e)),
            inner.prop_map(|e| Expr::un(UnOp::Not, e)),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Concat),
    ]
}

fn sp() -> Span {
    Span::synthetic()
}

/// Arbitrary syntactically valid (possibly open) processes, for round-trip
/// testing of the printer and parser.
pub fn arb_proc() -> impl Strategy<Value = Proc> {
    let leaf = prop_oneof![
        Just(Proc::Nil),
        (
            arb_name(),
            arb_label(),
            proptest::collection::vec(arb_expr(), 0..3)
        )
            .prop_map(|(x, l, args)| Proc::Msg {
                target: NameRef::Plain(x),
                label: l,
                args,
                span: sp()
            }),
        (
            arb_class_name(),
            proptest::collection::vec(arb_expr(), 0..3)
        )
            .prop_map(|(c, args)| Proc::Inst {
                class: ClassRef::Plain(c),
                args,
                span: sp()
            }),
        (proptest::collection::vec(arb_expr(), 0..3), any::<bool>()).prop_map(|(args, newline)| {
            Proc::Print {
                args,
                newline,
                span: sp(),
            }
        }),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Proc::par),
            (proptest::collection::vec(arb_name(), 1..3), inner.clone()).prop_map(
                |(binders, body)| {
                    let mut binders = binders;
                    binders.dedup();
                    Proc::New {
                        binders,
                        body: Box::new(body),
                        span: sp(),
                    }
                }
            ),
            (arb_name(), arb_methods(inner.clone())).prop_map(|(x, methods)| Proc::Obj {
                target: NameRef::Plain(x),
                methods,
                span: sp()
            }),
            (arb_defs(inner.clone()), inner.clone()).prop_map(|(defs, body)| Proc::Def {
                defs,
                body: Box::new(body),
                span: sp()
            }),
            (arb_name(), arb_name(), inner.clone()).prop_map(|(n, s, body)| {
                Proc::ImportName {
                    name: n,
                    site: s,
                    body: Box::new(body),
                    span: sp(),
                }
            }),
            (arb_class_name(), arb_name(), inner.clone()).prop_map(|(c, s, body)| {
                Proc::ImportClass {
                    class: c,
                    site: s,
                    body: Box::new(body),
                    span: sp(),
                }
            }),
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Proc::If {
                cond: c,
                then_branch: Box::new(t),
                else_branch: Box::new(e),
                span: sp()
            }),
        ]
    })
}

fn arb_methods(body: impl Strategy<Value = Proc> + Clone) -> impl Strategy<Value = Vec<Method>> {
    proptest::collection::vec(
        (
            arb_label(),
            proptest::collection::vec(arb_name(), 0..3),
            body,
        ),
        0..3,
    )
    .prop_map(|ms| {
        let mut seen = std::collections::BTreeSet::new();
        ms.into_iter()
            .filter(|(l, _, _)| seen.insert(l.clone()))
            .map(|(label, mut params, body)| {
                params.dedup();
                Method {
                    label,
                    params,
                    body,
                    span: sp(),
                }
            })
            .collect()
    })
}

fn arb_defs(body: impl Strategy<Value = Proc> + Clone) -> impl Strategy<Value = Vec<ClassDef>> {
    proptest::collection::vec(
        (
            arb_class_name(),
            proptest::collection::vec(arb_name(), 0..3),
            body,
        ),
        1..3,
    )
    .prop_map(|ds| {
        let mut seen = std::collections::BTreeSet::new();
        ds.into_iter()
            .filter(|(n, _, _)| seen.insert(n.clone()))
            .map(|(name, mut params, body)| {
                params.dedup();
                ClassDef {
                    name,
                    params,
                    body,
                    span: sp(),
                }
            })
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Closed, runnable, CONFLUENT programs for differential semantics testing.
// ---------------------------------------------------------------------------

/// A program skeleton. The build pass turns it into a process in which
/// **every channel has exactly one sender and at most one receiver**, so
/// the multiset of printed lines is independent of scheduling — the
/// property the differential VM-vs-calculus tests rely on.
#[derive(Debug, Clone)]
pub enum Skel {
    /// `print(<const>)`
    Print(i64),
    /// `print(a <op> b)` over safe operands.
    PrintExpr(i64, i64, u8),
    /// Parallel composition of independent subtrees.
    Par(Vec<Skel>),
    /// `new c (c!val[v] | c?(m) = [print(m + bias) |] <then>)` — a fresh
    /// channel per node: exactly one sender, one receiver.
    Comm {
        value: i64,
        print_param: bool,
        bias: i64,
        then: Box<Skel>,
    },
    /// Print an *enclosing* receiver's parameter, `hops` binders up
    /// (exercises deep closure capture); degrades to a constant print when
    /// there is no enclosing parameter.
    UseOuter { hops: u8, add: i64 },
    /// `if <cond> then <t> else <e>` with a constant condition.
    If {
        cond: bool,
        then: Box<Skel>,
        els: Box<Skel>,
    },
    /// Instantiate generated class `K<i mod nclasses>` (a constant print of
    /// `p + 1000*(i+1)`); degrades to a print when no classes exist.
    Inst { class: u8, value: i64 },
    /// A channel with only one side (a parked message or a parked object):
    /// quiescent, prints nothing, exercises channel-state paths.
    Orphan { send: bool, value: i64 },
}

fn arb_skel() -> impl Strategy<Value = Skel> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(Skel::Print),
        (1i64..50, 1i64..50, 0u8..5).prop_map(|(a, b, op)| Skel::PrintExpr(a, b, op)),
        (0u8..3, 0i64..10).prop_map(|(hops, add)| Skel::UseOuter { hops, add }),
        (0u8..4, 0i64..100).prop_map(|(class, value)| Skel::Inst { class, value }),
        (any::<bool>(), 0i64..100).prop_map(|(send, value)| Skel::Orphan { send, value }),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Skel::Par),
            (0i64..100, any::<bool>(), 0i64..10, inner.clone()).prop_map(
                |(value, print_param, bias, then)| Skel::Comm {
                    value,
                    print_param,
                    bias,
                    then: Box::new(then)
                }
            ),
            (any::<bool>(), inner.clone(), inner).prop_map(|(cond, then, els)| Skel::If {
                cond,
                then: Box::new(then),
                els: Box::new(els)
            }),
        ]
    })
}

/// Deterministically assemble a skeleton into a closed process.
pub fn build_skel(skel: &Skel, nclasses: usize) -> Proc {
    let mut counter = 0u32;
    let mut params: Vec<String> = Vec::new();
    let body = build(skel, nclasses, &mut counter, &mut params);
    if nclasses == 0 {
        return body;
    }
    Proc::Def {
        defs: (0..nclasses)
            .map(|i| ClassDef {
                name: format!("K{i}"),
                params: vec!["p".to_string()],
                body: Proc::Print {
                    args: vec![Expr::bin(
                        BinOp::Add,
                        Expr::name("p"),
                        Expr::int(1000 * (i as i64 + 1)),
                    )],
                    newline: true,
                    span: sp(),
                },
                span: sp(),
            })
            .collect(),
        body: Box::new(body),
        span: sp(),
    }
}

fn build(skel: &Skel, nclasses: usize, counter: &mut u32, params: &mut Vec<String>) -> Proc {
    match skel {
        Skel::Print(v) => Proc::Print {
            args: vec![Expr::int(*v)],
            newline: true,
            span: sp(),
        },
        Skel::PrintExpr(a, b, op) => {
            let op = match op % 5 {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div, // b ∈ 1..50, never zero
                _ => BinOp::Mod,
            };
            Proc::Print {
                args: vec![Expr::bin(op, Expr::int(*a), Expr::int(*b))],
                newline: true,
                span: sp(),
            }
        }
        Skel::Par(children) => {
            Proc::par(children.iter().map(|c| build(c, nclasses, counter, params)))
        }
        Skel::Comm {
            value,
            print_param,
            bias,
            then,
        } => {
            let chan = format!("c{}", *counter);
            let param = format!("m{}", *counter);
            *counter += 1;
            params.push(param.clone());
            let inner = build(then, nclasses, counter, params);
            params.pop();
            let mut body_parts = Vec::new();
            if *print_param {
                body_parts.push(Proc::Print {
                    args: vec![Expr::bin(
                        BinOp::Add,
                        Expr::name(param.clone()),
                        Expr::int(*bias),
                    )],
                    newline: true,
                    span: sp(),
                });
            }
            body_parts.push(inner);
            let msg = Proc::Msg {
                target: NameRef::Plain(chan.clone()),
                label: VAL_LABEL.to_string(),
                args: vec![Expr::int(*value)],
                span: sp(),
            };
            let obj = Proc::Obj {
                target: NameRef::Plain(chan.clone()),
                methods: vec![Method {
                    label: VAL_LABEL.to_string(),
                    params: vec![param],
                    body: Proc::par(body_parts),
                    span: sp(),
                }],
                span: sp(),
            };
            Proc::New {
                binders: vec![chan],
                body: Box::new(Proc::par([msg, obj])),
                span: sp(),
            }
        }
        Skel::UseOuter { hops, add } => {
            if params.is_empty() {
                return Proc::Print {
                    args: vec![Expr::int(*add)],
                    newline: true,
                    span: sp(),
                };
            }
            let idx = params
                .len()
                .saturating_sub(1 + *hops as usize % params.len());
            Proc::Print {
                args: vec![Expr::bin(
                    BinOp::Add,
                    Expr::name(params[idx].clone()),
                    Expr::int(*add + 500),
                )],
                newline: true,
                span: sp(),
            }
        }
        Skel::If { cond, then, els } => Proc::If {
            cond: Expr::boolean(*cond),
            then_branch: Box::new(build(then, nclasses, counter, params)),
            else_branch: Box::new(build(els, nclasses, counter, params)),
            span: sp(),
        },
        Skel::Inst { class, value } => {
            if nclasses == 0 {
                return Proc::Print {
                    args: vec![Expr::int(*value)],
                    newline: true,
                    span: sp(),
                };
            }
            Proc::Inst {
                class: ClassRef::Plain(format!("K{}", *class as usize % nclasses)),
                args: vec![Expr::int(*value)],
                span: sp(),
            }
        }
        Skel::Orphan { send, value } => {
            let chan = format!("c{}", *counter);
            *counter += 1;
            let side = if *send {
                Proc::Msg {
                    target: NameRef::Plain(chan.clone()),
                    label: VAL_LABEL.to_string(),
                    args: vec![Expr::int(*value)],
                    span: sp(),
                }
            } else {
                Proc::Obj {
                    target: NameRef::Plain(chan.clone()),
                    methods: vec![Method {
                        label: VAL_LABEL.to_string(),
                        params: vec!["never".to_string()],
                        body: Proc::Print {
                            args: vec![Expr::name("never")],
                            newline: true,
                            span: sp(),
                        },
                        span: sp(),
                    }],
                    span: sp(),
                }
            };
            Proc::New {
                binders: vec![chan],
                body: Box::new(side),
                span: sp(),
            }
        }
    }
}

/// A closed, terminating, **confluent** program: every channel is used by
/// exactly one sender and at most one receiver, all conditions are
/// constants, and classes are non-recursive — so every fair schedule
/// prints the same multiset of lines.
pub fn arb_closed_program() -> impl Strategy<Value = Proc> {
    (arb_skel(), 0usize..3).prop_map(|(skel, nclasses)| build_skel(&skel, nclasses))
}
