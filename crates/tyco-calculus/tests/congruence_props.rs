//! Property tests for the formal layer: structural-congruence laws of the
//! network syntax and the σ-translation laws of §3.

use proptest::prelude::*;
use tyco_calculus::network_syntax::{normalize, Net};
use tyco_calculus::sigma::sigma_proc;
use tyco_syntax::arbitrary::{arb_closed_program, arb_proc};
use tyco_syntax::ast::{NameRef, Proc};
use tyco_syntax::parse_core;
use tyco_syntax::pretty::pretty;

const SITES: [&str; 3] = ["s", "t", "u"];

fn arb_site_name() -> impl Strategy<Value = String> {
    proptest::sample::select(SITES.to_vec()).prop_map(str::to_string)
}

/// A mention `site.name!val[k]` of a restriction, made at the `other`th
/// other site, alone or under a process binder spelled `name`:
/// `new name (site.name!val[k] | name!val[k])`.
fn mention(site: &str, name: &str, other: usize, shadowed: bool, k: u8) -> Net {
    let at = SITES.iter().filter(|&&s| s != site).nth(other).unwrap();
    let src = match shadowed {
        true => format!("new {name} ({site}.{name}!val[{k}] | {name}!val[{k}])"),
        false => format!("{site}.{name}!val[{k}]"),
    };
    Net::Site(at.to_string(), parse_core(&src).unwrap())
}

fn arb_restricted_name() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["x", "y"])
}

fn arb_net() -> impl Strategy<Value = Net> {
    let leaf = prop_oneof![
        Just(Net::Nil),
        (arb_site_name(), arb_closed_program()).prop_map(|(s, p)| Net::Site(s, p)),
        // A located mention on its own: beside a restriction of its name
        // it sits outside that restriction's scope, free in the network.
        (
            arb_site_name(),
            arb_restricted_name(),
            0..SITES.len() - 1,
            any::<bool>(),
            any::<u8>()
        )
            .prop_map(|(site, name, other, shadowed, k)| mention(&site, name, other, shadowed, k)),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Net::par(a, b)),
            (arb_site_name(), arb_restricted_name(), inner.clone()).prop_map(
                |(site, name, body)| Net::New {
                    site,
                    name: name.to_string(),
                    body: Box::new(body)
                }
            ),
            // The same, with a located mention of the restricted name in
            // its scope.
            (
                arb_site_name(),
                arb_restricted_name(),
                inner.clone(),
                0..SITES.len() - 1,
                any::<bool>(),
                any::<u8>()
            )
                .prop_map(|(site, name, body, other, shadowed, k)| Net::New {
                    body: Box::new(Net::par(body, mention(&site, name, other, shadowed, k))),
                    site,
                    name: name.to_string(),
                }),
        ]
    })
}

/// The located name occurrences of a process.
fn located(p: &Proc) -> usize {
    let mut n = 0;
    p.free_occurrences(|r| n += matches!(r, NameRef::Located(_)) as usize, |_| {});
    n
}

/// The located name occurrences of every site body of a network.
fn located_in(net: &Net) -> usize {
    match net {
        Net::Nil => 0,
        Net::Site(_, p) => located(p),
        Net::Par(a, b) => located_in(a) + located_in(b),
        Net::New { body, .. } | Net::Def { body, .. } => located_in(body),
    }
}

/// A located mention `s.x` is a constant: the process binder spelled `x`
/// at `t` does not capture it, so canonical renaming of the restriction
/// `s.x` reaches it, and it stays apart from a plain `x`.
#[test]
fn renaming_a_restriction_reaches_a_located_mention_under_a_binder_of_its_spelling() {
    let net = |mention: &str| Net::New {
        site: "s".into(),
        name: "x".into(),
        body: Box::new(Net::par(
            Net::Site("s".into(), parse_core("x!a[1]").unwrap()),
            Net::Site(
                "t".into(),
                parse_core(&format!("y?(z) = new x ({mention}!b[2] | x!c[3])")).unwrap(),
            ),
        )),
    };
    let canon = normalize(&net("s.x"));
    assert_ne!(canon, normalize(&net("x")));
    assert_eq!(
        canon.sites["t"],
        ["y?{val(z) = new x in s.n0!b[2] | x!c[3]}"]
    );
}

fn new_sx(body: Net) -> Net {
    Net::New {
        site: "s".into(),
        name: "x".into(),
        body: Box::new(body),
    }
}

fn at(site: &str, src: &str) -> Net {
    Net::Site(site.into(), parse_core(src).unwrap())
}

/// Rule ExN extrudes `new s.x` over `N1` only if `s.x ∉ fn(N1)`: a free
/// mention of `s.x` beside the restriction is not captured by it.
#[test]
fn extrusion_does_not_capture_a_free_located_mention() {
    let apart = Net::par(at("t", "s.x!a[1]"), new_sx(at("s", "x!b[2]")));
    let captured = new_sx(Net::par(at("t", "s.x!a[1]"), at("s", "x!b[2]")));
    assert_ne!(normalize(&apart), normalize(&captured));
    // A process binder extruded from `s` is renamed apart from it too.
    let apart = Net::par(at("t", "s.x!a[1]"), at("s", "new x x!b[2]"));
    assert_ne!(normalize(&apart), normalize(&captured));
}

/// Two restrictions of `s.x` beside a free mention of `s.x`: the mention
/// belongs to neither, whichever is walked first.
#[test]
fn par_commutes_beside_a_free_mention_of_two_restricted_names() {
    let one = new_sx(at("s", "x!a[1]"));
    let two = new_sx(at("s", "x!b[2]"));
    let free = at("t", "s.x!c[3]");
    let n1 = Net::par(Net::par(one.clone(), two.clone()), free.clone());
    let n2 = Net::par(free, Net::par(two, one));
    assert_eq!(normalize(&n1), normalize(&n2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ‖ is a commutative monoid with unit 0 under ≡ (Nil + monoid laws).
    #[test]
    fn par_monoid_laws(a in arb_net(), b in arb_net(), c in arb_net()) {
        let ab_c = Net::par(Net::par(a.clone(), b.clone()), c.clone());
        let a_bc = Net::par(a.clone(), Net::par(b.clone(), c.clone()));
        prop_assert_eq!(normalize(&ab_c), normalize(&a_bc), "associativity");
        let ab = Net::par(a.clone(), b.clone());
        let ba = Net::par(b, a.clone());
        prop_assert_eq!(normalize(&ab), normalize(&ba), "commutativity");
        let a0 = Net::par(a.clone(), Net::Nil);
        prop_assert_eq!(normalize(&a0), normalize(&a), "unit");
    }

    /// Normalization is idempotent on the site decomposition: gathering a
    /// site's components back into one located process re-normalizes to
    /// the same canonical form (rule Split used in both directions).
    #[test]
    fn split_round_trip(n in arb_net()) {
        let canon = normalize(&n);
        // Rebuild `s[P1 | … | Pk]` per site from the canonical components.
        let mut rebuilt = Net::Nil;
        for (site, comps) in &canon.sites {
            let procs: Vec<_> = comps
                .iter()
                .map(|src| parse_core(src).expect("canonical form re-parses"))
                .collect();
            rebuilt = Net::par(
                rebuilt,
                Net::Site(site.clone(), Proc::par(procs)),
            );
        }
        // Restrictions must be re-attached for names to stay alive.
        for (site, name) in canon.restrictions.iter().rev() {
            rebuilt = Net::New { site: site.clone(), name: name.clone(), body: Box::new(rebuilt) };
        }
        let again = normalize(&rebuilt);
        prop_assert_eq!(canon.sites, again.sites);
    }

    /// Normalization renames restrictions apart and canonically, but never
    /// turns a located mention into a plain one: every site body's located
    /// occurrences are in the canonical components.
    #[test]
    fn normalization_keeps_located_mentions(n in arb_net()) {
        let canon = normalize(&n);
        let kept: usize = (canon.sites.values().flatten())
            .map(|src| located(&parse_core(src).expect("canonical form re-parses")))
            .sum();
        prop_assert_eq!(kept, located_in(&n));
    }

    /// σ_{s→r} ∘ σ_{r→s} = id on processes whose free located names are at
    /// r or s only (the generator produces plain names, so this holds).
    #[test]
    fn sigma_involution(p in arb_proc()) {
        let there = sigma_proc(&p, "r", "s");
        let back = sigma_proc(&there, "s", "r");
        prop_assert_eq!(pretty(&back), pretty(&p));
    }

    /// σ preserves the program's binding structure: bound names are
    /// untouched, so free-name *count* at plain position maps exactly to
    /// located occurrences.
    #[test]
    fn sigma_translates_exactly_free_names(p in arb_proc()) {
        let free_before = p.free_names();
        let there = sigma_proc(&p, "r", "s");
        // After translating away, no plain free names may remain.
        prop_assert!(there.free_names().is_empty(),
            "plain frees remain: {:?} of {}", there.free_names(), pretty(&p));
        // And translating back restores them.
        let back = sigma_proc(&there, "s", "r");
        prop_assert_eq!(back.free_names(), free_before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural congruence is observationally sound: composing a site's
    /// components in any order (Split both ways + monoid laws) yields the
    /// same printed multiset under the reduction semantics.
    #[test]
    fn congruent_nets_have_equal_observables(
        parts in proptest::collection::vec(arb_closed_program(), 1..4)
    ) {
        use tyco_calculus::Network;

        let forward = Proc::par(parts.clone());
        let mut reversed_parts = parts.clone();
        reversed_parts.reverse();
        let reversed = Proc::par(reversed_parts);

        let run = |p: Proc| {
            let mut net = Network::new();
            net.add_site("main", p);
            let out = net.run(10_000_000).expect("reduces");
            prop_assert!(out.quiescent);
            Ok(out.line_multiset())
        };
        prop_assert_eq!(run(forward)?, run(reversed)?);
    }
}
