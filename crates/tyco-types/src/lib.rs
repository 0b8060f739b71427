//! # tyco-types
//!
//! The Damas–Milner polymorphic type system of TyCO (§2 of the paper) with
//! row-typed channels, plus the dynamic-check machinery for remote
//! interactions (§7: "combines both static and dynamic type checking").
//!
//! * [`types`] — the type language: base types, channel rows, schemes.
//! * [`unify`] — unification with open rows and level-based generalization.
//! * [`infer`] — inference over DiTyCO processes; produces a
//!   [`infer::TypeSummary`] with the site's exported interface and its
//!   expectations about imported identifiers.
//! * [`fingerprint()`] — canonical type hashes and the link-time
//!   compatibility check.
//! * [`usage`] — the one static analysis: how each name, class and label
//!   is used, and what can never take part in a reduction (`check
//!   --lint`).

pub mod fingerprint;
pub mod infer;
pub mod types;
pub mod unify;
pub mod usage;

pub use fingerprint::{canonical, compatible, fingerprint, parse_canonical};
pub use infer::{check, ImportKind, TypeSummary};
pub use types::{Label, Row, RvId, Scheme, TvId, Type};
pub use unify::{TypeError, Unifier};
pub use usage::{findings, Finding, FindingKind};

/// The distinguished label introduced by the `x![ẽ]` / `x?(ỹ)=P` sugar.
pub const VAL: &str = tyco_syntax::VAL_LABEL;

/// Runs [`usage`] on `src` and compares its findings, in source order, with
/// `want` as `(tag, subject, line:col)`.
#[cfg(test)]
fn assert_usage(src: &str, want: &[(&str, &str, &str)]) {
    let p = tyco_syntax::parse_core(src).expect("parses");
    let got: Vec<(&str, String, String)> = findings(&p)
        .into_iter()
        .map(|f| (f.kind.tag(), f.subject, f.at.to_string()))
        .collect();
    let want: Vec<(&str, String, String)> = want
        .iter()
        .map(|&(tag, subject, at)| (tag, subject.to_string(), at.to_string()))
        .collect();
    assert_eq!(got, want, "{src}");
}

/// The unit cases of [`usage`] as one table: each row is a named test, a
/// source and its findings. `lint` holds the rows about `new` binders,
/// `analyze` those about labels, classes, the open world and conditions.
#[cfg(test)]
macro_rules! usage_cases {
    ($($group:ident { $($name:ident: $src:expr => [$($want:expr),*],)* })*) => {$(
        mod $group {
            mod tests {$(
                #[test]
                fn $name() {
                    crate::assert_usage($src, &[$($want),*]);
                }
            )*}
        }
    )*};
}

#[cfg(test)]
usage_cases! {
    lint {
        communicating_pair_is_clean: "new x (x!go[1] | x?{ go(n) = print(n) })" => [],
        orphan_message_is_flagged: "new x x!go[1]" =>
            [("orphan-message", "x", "1:1"), ("orphan-send", "go", "1:7")],
        orphan_object_is_flagged: "new sink (sink?{ go() = 0 } | print(1))" =>
            [("orphan-object", "sink", "1:1"), ("unreachable-method", "sink.go", "1:18")],
        // `r` is only sent on, but it escapes as an argument.
        escaping_name_is_not_flagged:
            "new x new r (x!ask[r] | x?{ ask(reply) = reply![1] } | r?(v) = print(v))" => [],
        exported_names_are_never_orphans: "export new p in p?{ go(n) = print(n) }" => [],
        imported_names_are_not_linted: "import p from server in p!go[1]" => [],
        // The inner `x` communicates, the outer only receives.
        shadowing_resolves_to_the_inner_binder:
            "new x (x?{ go() = 0 } | new x (x!go[] | x?{ go() = print(1) }))" =>
            [("orphan-object", "x", "1:1")],
        // `c` is received on inside the class body and sent on outside.
        capture_inside_class_body_counts:
            "new c def K() = c?{ go(n) = print(n) } in (K[] | c!go[7])" => [],
        unused_binder_is_not_reported: "new x print(1)" => [],
        // `let` sugar is a send plus a reply channel that escapes.
        let_sugar_counts_as_send: "new a let z = a!ask[] in print(z)" => [
            ("orphan-message", "a", "1:1"),
            ("unreachable-method", "reply.val", "1:7"),
            ("orphan-send", "ask", "1:7")
        ],
    }
    analyze {
        closed_world_finds_dead_method: "new x (x?{ read(r) = r![1], write(u) = print(u) }
                    | new z (x!read[z] | z?(w) = print(w)))" =>
            [("unreachable-method", "x.write", "1:29")],
        closed_world_finds_orphan_send: "new x (x?{ go(n) = print(n) } | x!stop[])" =>
            [("unreachable-method", "x.go", "1:12"), ("orphan-send", "stop", "1:33")],
        finds_never_instantiated_class: "def Ghost(n) = print(n) in print(0)" =>
            [("never-instantiated-class", "Ghost", "1:5")],
        instantiated_class_is_clean:
            "def L(n) = if n > 0 then L[n - 1] else print(n) in L[2]" => [],
        // Exports, imports and located names open the world.
        open_world_suppresses_label_findings:
            "export new x in x?{ read(r) = r![1], write(u) = print(u) }" => [],
        located_name_opens_the_world:
            "new x (x?{ go() = 0, stop() = 0 } | x!go[] | srv.p!go[])" => [],
        // A class escapes when exported, or when a live closure names it.
        escaping_class_counts_as_used: "export def Srv(r) = r![1] in print(0)" => [],
        captured_class_counts_as_used: "def K() = 0 in (print(0) | new x x?{ go() = K[] })" =>
            [("orphan-object", "x", "1:28"), ("unreachable-method", "x.go", "1:38")],
        // A literal condition has one live arm; any other has two.
        constant_branch_hides_untaken_arm:
            "new x (x?{ go() = 0 } | if false then x!stop[] else x!go[])" => [],
        constant_branch_hides_instantiation: "def K() = 0 in if false then K[] else print(0)" =>
            [("never-instantiated-class", "K", "1:5")],
        other_conditions_keep_both_arms:
            "new x (x?{ go() = 0 } | if 1 > 2 then x!stop[] else x!go[])" =>
            [("orphan-send", "stop", "1:39")],
    }
}
