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
//! and identically for class variables. A process is translated by
//! rewriting its free occurrences in place, found by the one scope-aware
//! walk of `tyco_syntax::ast`.

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
/// `Mσr` / `Dσr`: which occurrences are free is
/// [`Proc::free_occurrences_mut`]'s to say.
pub fn sigma_proc(p: &Proc, from: &str, to: &str) -> Proc {
    let mut q = p.clone();
    q.free_occurrences_mut(
        |r| *r = sigma_name(r, from, to),
        |c| *c = sigma_class(c, from, to),
    );
    q
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
