//! Property tests: the canonical printer and the parser are mutually
//! inverse on desugared terms, desugaring is idempotent, and the
//! scope-aware walk renames exactly the free occurrences of a name.

use proptest::prelude::*;
use tyco_syntax::arbitrary::{arb_closed_program, arb_expr, arb_proc};
use tyco_syntax::ast::{Expr, NameRef, PartMut, Proc};
use tyco_syntax::desugar::{desugar, fresh_name, is_core};
use tyco_syntax::parser::{parse_expr, parse_program};
use tyco_syntax::pretty::{pretty, pretty_expr};

/// Names no generator draws: its pools hold no `'`.
const FRESH: &str = "fresh'0";
const SUBJECT: &str = "subject'0";

fn arb_name() -> impl Strategy<Value = String> {
    let pool = vec!["a", "b", "c", "x", "y", "z", "u", "v", "w"];
    proptest::sample::select(pool).prop_map(str::to_string)
}

/// Processes with `let`s whose names come from a pool that holds reply
/// names, so a reply name has free and bound names to avoid.
fn arb_lets() -> impl Strategy<Value = Proc> {
    let name = || {
        proptest::sample::select(vec!["a", "reply", "reply'0", "reply'1"]).prop_map(str::to_string)
    };
    let parse = |src: String| parse_program(&src).unwrap();
    let leaf = (name(), name()).prop_map(move |(x, y)| parse(format!("{x}![{y}]")));
    leaf.prop_recursive(4, 24, 2, move |inner| {
        let p = move |q: &Proc| pretty(q);
        prop_oneof![
            (name(), name(), name(), inner.clone()).prop_map(move |(z, a, e, q)| parse(format!(
                "let {z} = {a}!l[{e}] in ({})",
                p(&q)
            ))),
            (name(), inner.clone()).prop_map(move |(x, q)| parse(format!("new {x} ({})", p(&q)))),
            (name(), name(), inner.clone())
                .prop_map(move |(x, y, q)| parse(format!("{x}?({y}) = ({})", p(&q)))),
            (inner.clone(), inner).prop_map(move |(q, r)| parse(format!(
                "({}) | ({})",
                p(&q),
                p(&r)
            ))),
        ]
    })
}

/// Desugar `p` a node at a time, inside out, checking each `let`'s reply
/// name against the one its whole desugared body, rescanned, allows.
fn desugar_rescanning(p: &mut Proc) {
    p.parts_mut(&mut |part| {
        if let PartMut::Sub(q) = part {
            desugar_rescanning(q);
        }
    });
    let expected = match &*p {
        Proc::Let {
            binder,
            target,
            args,
            body,
            ..
        } => {
            let mut avoid = body.free_names();
            avoid.insert(binder.clone());
            for r in args.iter().flat_map(Expr::names).chain([target]) {
                if let NameRef::Plain(x) = r {
                    avoid.insert(x.clone());
                }
            }
            Some(fresh_name("reply", &avoid))
        }
        Proc::Par(_) => None,
        _ => return,
    };
    *p = desugar(std::mem::replace(p, Proc::Nil));
    if let (Some(expected), Proc::New { binders, .. }) = (expected, &*p) {
        assert_eq!(binders[0], expected, "reply name of {}", pretty(p));
    }
}

/// `p` with its free plain occurrences of `from` renamed to `to`.
fn rename(p: &Proc, from: &str, to: &str) -> Proc {
    let mut q = p.clone();
    let plain = |r: &mut NameRef| match r {
        NameRef::Plain(x) if x == from => *x = to.to_string(),
        _ => {}
    };
    q.free_occurrences_mut(plain, |_| {});
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ pretty = id on generated (desugared) processes, up to spans —
    /// compared by printing both sides.
    #[test]
    fn proc_print_parse_roundtrip(p in arb_proc()) {
        let printed = pretty(&p);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for {printed:?}: {e}"));
        prop_assert_eq!(pretty(&reparsed), printed);
    }

    #[test]
    fn expr_print_parse_roundtrip(e in arb_expr()) {
        let printed = pretty_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse failed for {printed:?}: {err}"));
        prop_assert_eq!(pretty_expr(&reparsed), printed);
    }

    /// Desugaring always yields core syntax and is idempotent.
    #[test]
    fn desugar_idempotent(p in arb_proc()) {
        let d = desugar(p);
        prop_assert!(is_core(&d));
        prop_assert_eq!(desugar(d.clone()), d);
    }

    /// Desugaring in one pass picks every reply name that desugaring a
    /// `let` at a time, rescanning its body, picks.
    #[test]
    fn desugaring_in_one_pass_picks_the_reply_names_rescanning_would(p in arb_lets()) {
        let mut expected = p.clone();
        desugar_rescanning(&mut expected);
        prop_assert_eq!(desugar(p), expected);
    }

    /// Generated closed programs really are closed.
    #[test]
    fn closed_programs_are_closed(p in arb_closed_program()) {
        prop_assert!(p.free_names().is_empty(), "free names: {:?}", p.free_names());
        prop_assert!(p.free_classes().is_empty(), "free classes: {:?}", p.free_classes());
        // And they print/parse stably too.
        let printed = pretty(&p);
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(pretty(&reparsed), printed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Renaming a free name to a fresh one and back gives the same
    /// printed form, and the free names change by exactly that name.
    #[test]
    fn renaming_a_free_name_to_a_fresh_one_is_undone_by_renaming_back(
        p in arb_proc(),
        x in arb_name(),
    ) {
        let there = rename(&p, &x, FRESH);
        prop_assert_eq!(pretty(&rename(&there, FRESH, &x)), pretty(&p));
        let mut expected = p.free_names();
        if expected.remove(&x) {
            expected.insert(FRESH.to_string());
        }
        prop_assert_eq!(there.free_names(), expected);
    }

    /// Bound occurrences never change: under each construct that binds
    /// `x`, renaming `x` leaves the whole term as it was.
    #[test]
    fn renaming_leaves_bound_occurrences_alone(p in arb_proc(), x in arb_name()) {
        let body = pretty(&p);
        for src in [
            format!("new {x} ({body})"),
            format!("{SUBJECT}?{{m({x}) = {body}}}"),
            format!("def K({x}) = {body} in 0"),
            format!("import {x} from s in {body}"),
            format!("let {x} = {SUBJECT}!l[] in {body}"),
        ] {
            let bound = parse_program(&src).unwrap();
            prop_assert_eq!(rename(&bound, &x, FRESH), bound.clone(), "{}", src);
        }
    }
}
