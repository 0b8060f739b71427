//! The syntactic *networks* layer of §3 and its structural congruence.
//!
//! ```text
//! N ::= 0 | s[P] | N ‖ N | new s.x N | def s.D in N
//! ```
//!
//! with the congruence rules
//!
//! ```text
//! (Nil)   s[0] ≡ 0                 (Split) s[P1] ‖ s[P2] ≡ s[P1 | P2]
//! (New)   s[new x P] ≡ new s.x s[P]  (Def)  s[def D in P] ≡ def s.D in s[P]
//! (GcN)   new s.x 0 ≡ 0            (GcD)   def s.D in 0 ≡ 0
//! (ExN)   N1 ‖ new s.x N2 ≡ new s.x (N1 ‖ N2)   if s.x ∉ fn(N1)
//! (ExD)   N1 ‖ def s.D in N2 ≡ def s.D in (N1 ‖ N2)  if bt(D) ∩ ft(N1) = ∅
//! ```
//!
//! [`normalize`] computes a canonical form: all restrictions and
//! definitions extruded to the outside (α-renamed apart to make ExN/ExD
//! side conditions vacuous), sites gathered with Split, garbage collected
//! with Nil/GcN/GcD, and parallel components sorted. Two networks are
//! structurally congruent iff their canonical forms are equal (up to the
//! α-renaming the normal form fixes) — which the property tests check
//! against hand-derived congruent pairs, and which the interpreter respects
//! observationally.
//!
//! Which occurrences are free — for GcN, for the located mentions that
//! keep a restriction alive, and for α-renaming — is decided by the one
//! scope-aware walk of `tyco_syntax::ast` ([`Proc::free_occurrences`]).
//! Renaming the restriction `s.x` rewrites the plain `x` free at `s` and
//! every located mention `s.x` elsewhere: a located name is a constant,
//! so a process binder spelled `x` does not capture it.

use std::collections::{BTreeMap, BTreeSet};
use tyco_syntax::ast::{ClassDef, NameRef, Proc};
use tyco_syntax::desugar::fresh_name;
use tyco_syntax::pretty::pretty;

/// A syntactic network term.
#[derive(Debug, Clone, PartialEq)]
pub enum Net {
    /// The terminated network `0`.
    Nil,
    /// A located process `s[P]`.
    Site(String, Proc),
    /// `N1 ‖ N2`.
    Par(Box<Net>, Box<Net>),
    /// `new s.x N`.
    New {
        site: String,
        name: String,
        body: Box<Net>,
    },
    /// `def s.D in N`.
    Def {
        site: String,
        defs: Vec<ClassDef>,
        body: Box<Net>,
    },
}

impl Net {
    pub fn par(a: Net, b: Net) -> Net {
        Net::Par(Box::new(a), Box::new(b))
    }
}

/// The canonical form: `new s1.x1 … def s.D … ( s1[P1] ‖ … ‖ sk[Pk] )`
/// with all binders extruded, sites merged and components sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonNet {
    /// Extruded restrictions, α-renamed in order of extrusion.
    pub restrictions: Vec<(String, String)>,
    /// Extruded definition groups (rendered canonically, sorted — the
    /// canonical form treats same-site groups as a multiset; rule ExD's
    /// side condition is approximated, so networks that *shadow* a class
    /// variable across groups at one site are outside this checker's
    /// domain — the interpreter's environment-based scoping still handles
    /// them correctly).
    pub defs: Vec<(String, String)>,
    /// Per-site parallel components, each pretty-printed canonically and
    /// sorted (the monoid laws for ‖ and |).
    pub sites: BTreeMap<String, Vec<String>>,
}

impl CanonNet {
    /// Is this the terminated network?
    pub fn is_nil(&self) -> bool {
        self.sites.is_empty()
    }
}

/// Compute the canonical form of a network.
pub fn normalize(net: &Net) -> CanonNet {
    let mut cx = Norm::default();
    // Rule ExN extrudes `new s.x` over `N1` only if `s.x ∉ fn(N1)`. Every
    // binder the walk extrudes is renamed apart from `used`, so seeding
    // it with every name the site bodies mention free makes the side
    // condition hold. A name that turns out bound is renamed needlessly,
    // which the canonical renaming undoes.
    mentions(net, &mut cx.used);
    cx.walk(net);
    cx.finish()
}

/// The names of every free occurrence in a network's site bodies and
/// definitions, plain and located, whatever network binder holds them.
fn mentions(net: &Net, out: &mut BTreeSet<String>) {
    let mut name = |r: &NameRef| {
        let x = match r {
            NameRef::Plain(x) => x,
            NameRef::Located(sx) => &sx.1,
        };
        out.insert(x.clone());
    };
    match net {
        Net::Nil => {}
        Net::Site(_, p) => p.free_occurrences(&mut name, |_| {}),
        Net::Par(a, b) => {
            mentions(a, out);
            mentions(b, out);
        }
        Net::New { body, .. } => mentions(body, out),
        Net::Def { defs, body, .. } => {
            for d in defs {
                d.body.free_occurrences(&mut name, |_| {});
            }
            mentions(body, out);
        }
    }
}

#[derive(Default)]
struct Norm {
    restrictions: Vec<(String, String)>,
    defs: Vec<(String, Vec<ClassDef>)>,
    sites: BTreeMap<String, Vec<Proc>>,
    /// Names already used (for α-renaming extruded binders apart).
    used: BTreeSet<String>,
}

impl Norm {
    fn walk(&mut self, net: &Net) {
        match net {
            Net::Nil => {}
            Net::Par(a, b) => {
                self.walk(a);
                self.walk(b);
            }
            Net::New { site, name, body } => {
                // α-rename the extruded binder apart so rule ExN's side
                // condition can never fail.
                let fresh = fresh_name(name, &self.used);
                self.used.insert(fresh.clone());
                let mut body = (**body).clone();
                if fresh != *name {
                    rename_net(&mut body, site, name, &fresh);
                }
                self.restrictions.push((site.clone(), fresh));
                self.walk(&body);
            }
            Net::Def { site, defs, body } => {
                self.defs.push((site.clone(), defs.clone()));
                self.walk(body);
            }
            Net::Site(s, p) => {
                // Rule New/Def: hoist top-level process binders to the
                // network level before gathering (Split).
                match p {
                    Proc::Nil => {} // rule Nil
                    Proc::Par(ps) => {
                        for q in ps {
                            self.walk(&Net::Site(s.clone(), q.clone()));
                        }
                    }
                    Proc::New { binders, body, .. } | Proc::ExportNew { binders, body, .. } => {
                        // s[new x̃ P] ≡ new s.x̃ s[P], renaming apart.
                        let mut body = (**body).clone();
                        for b in binders {
                            let fresh = fresh_name(b, &self.used);
                            self.used.insert(fresh.clone());
                            if fresh != *b {
                                rename_proc(&mut body, b, &fresh);
                            }
                            self.restrictions.push((s.clone(), fresh));
                        }
                        self.walk(&Net::Site(s.clone(), body));
                    }
                    Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                        self.defs.push((s.clone(), defs.clone()));
                        self.walk(&Net::Site(s.clone(), (**body).clone()));
                    }
                    other => {
                        self.sites.entry(s.clone()).or_default().push(other.clone());
                    }
                }
            }
        }
    }

    fn finish(mut self) -> CanonNet {
        self.alpha_canonicalize();
        let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
        // Free names of the gathered body, for GcN.
        let mut body_free: BTreeSet<(String, String)> = Default::default();
        for (s, ps) in &self.sites {
            let mut rendered: Vec<String> = ps.iter().map(pretty).collect();
            rendered.sort();
            for p in ps {
                for x in p.free_names() {
                    body_free.insert((s.clone(), x));
                }
            }
            if !rendered.is_empty() {
                sites.insert(s.clone(), rendered);
            }
        }
        // GcN: drop restrictions for names free nowhere. (A name is "used"
        // when it occurs free in some component of its site; cross-site
        // located occurrences keep their own spelling `s.x` and are
        // conservatively retained by treating any located mention as use.)
        let mut located_mentions: BTreeSet<(String, String)> = Default::default();
        for ps in self.sites.values() {
            for p in ps {
                collect_located(p, &mut located_mentions);
            }
        }
        let restrictions: Vec<(String, String)> = self
            .restrictions
            .into_iter()
            .filter(|(s, x)| {
                body_free.contains(&(s.clone(), x.clone()))
                    || located_mentions.contains(&(s.clone(), x.clone()))
            })
            .collect();
        // GcD: drop definition groups whose classes are never used.
        let mut class_uses: BTreeSet<String> = Default::default();
        for ps in self.sites.values() {
            for p in ps {
                class_uses.extend(p.free_classes());
            }
        }
        let defs: Vec<(String, String)> = self
            .defs
            .into_iter()
            .filter(|(_, d)| d.iter().any(|cd| class_uses.contains(&cd.name)))
            .map(|(s, d)| {
                let rendered = d
                    .iter()
                    .map(|cd| {
                        format!(
                            "{}({}) = {}",
                            cd.name,
                            cd.params.join(", "),
                            pretty(&cd.body)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" and ");
                (s, rendered)
            })
            .collect();
        let mut defs = defs;
        defs.sort();
        CanonNet {
            restrictions,
            defs,
            sites,
        }
    }
}

impl Norm {
    /// Rename the extruded restrictions to canonical names derived from
    /// *content* rather than traversal order, so congruent networks get
    /// identical canonical forms. Each restriction's key is the sorted
    /// multiset of renderings of the components that use it, with every
    /// restricted name masked — so the key is independent of the
    /// α-spellings. Truly symmetric restrictions (identical keys and
    /// mutually symmetric cross-references) remain interchangeable, which
    /// is exactly when either assignment yields the same form.
    fn alpha_canonicalize(&mut self) {
        if self.restrictions.is_empty() {
            return;
        }
        // Mask every restricted name in every component.
        let mask = "rho'masked";
        let mut masked: BTreeMap<String, Vec<(Proc, String)>> = BTreeMap::new();
        for (site, ps) in &self.sites {
            let entry: Vec<(Proc, String)> = ps
                .iter()
                .map(|p| {
                    let mut m = p.clone();
                    for (rs, rx) in &self.restrictions {
                        if rs == site {
                            rename_proc(&mut m, rx, mask);
                        }
                        rename_located(&mut m, rs, rx, mask);
                    }
                    (p.clone(), pretty(&m))
                })
                .collect();
            masked.insert(site.clone(), entry);
        }
        // Key per restriction: sorted masked renderings of using components
        // (both plain uses at the owning site and located uses elsewhere).
        let mut keyed: Vec<((String, Vec<String>), usize)> = Vec::new();
        for (i, (rs, rx)) in self.restrictions.iter().enumerate() {
            let mut uses: Vec<String> = Vec::new();
            for (site, entries) in &masked {
                for (orig, masked_render) in entries {
                    let used = if site == rs {
                        orig.free_names().contains(rx)
                    } else {
                        let mut located = BTreeSet::new();
                        collect_located(orig, &mut located);
                        located.contains(&(rs.clone(), rx.clone()))
                    };
                    if used {
                        uses.push(format!("{site}:{masked_render}"));
                    }
                }
            }
            uses.sort();
            keyed.push(((rs.clone(), uses), i));
        }
        // GcN, applied here so dead restrictions do not consume canonical
        // ranks: a restriction with no using component is garbage.
        keyed.retain(|((_, uses), _)| !uses.is_empty());
        keyed.sort();
        // Assign canonical names in key order and apply the renaming. The
        // names to avoid are the *genuinely free* plain names per site —
        // occurrences of the restricted names themselves are about to be
        // replaced and must not block their canonical spelling.
        let mut avoid: BTreeSet<String> = Default::default();
        for (site, ps) in &self.sites {
            let restricted_here: BTreeSet<&String> = self
                .restrictions
                .iter()
                .filter(|(rs, _)| rs == site)
                .map(|(_, rx)| rx)
                .collect();
            for p in ps {
                for x in p.free_names() {
                    if !restricted_here.contains(&x) {
                        avoid.insert(x);
                    }
                }
            }
        }
        let mut renames: Vec<(String, String, String)> = Vec::new(); // (site, old, new)
        let mut new_restrictions = vec![(String::new(), String::new()); keyed.len()];
        for (rank, ((_, _), i)) in keyed.iter().enumerate() {
            let (rs, rx) = self.restrictions[*i].clone();
            let fresh = fresh_name(&format!("n{rank}"), &avoid);
            avoid.insert(fresh.clone());
            renames.push((rs.clone(), rx, fresh.clone()));
            new_restrictions[rank] = (rs, fresh);
        }
        for (site, ps) in self.sites.iter_mut() {
            for p in ps.iter_mut() {
                for (rs, old, new) in &renames {
                    if rs == site {
                        rename_proc(p, old, new);
                    }
                    rename_located(p, rs, old, new);
                }
            }
        }
        self.restrictions = new_restrictions;
    }
}

/// Collect `s.x` mentions (free located names) of a process.
fn collect_located(p: &Proc, out: &mut BTreeSet<(String, String)>) {
    let located = |r: &NameRef| {
        if let NameRef::Located(sx) = r {
            out.insert((**sx).clone());
        }
    };
    p.free_occurrences(located, |_| {});
}

/// Rename the free plain name `from` to `to` in a process (capture is
/// impossible because `to` is globally fresh).
fn rename_proc(p: &mut Proc, from: &str, to: &str) {
    let plain = |r: &mut NameRef| match r {
        NameRef::Plain(x) if x == from => *x = to.to_string(),
        _ => {}
    };
    p.free_occurrences_mut(plain, |_| {});
}

/// Rename a network-level restricted name `site.from` to `site.to`
/// throughout a network body, in place.
fn rename_net(net: &mut Net, site: &str, from: &str, to: &str) {
    match net {
        Net::Nil => {}
        Net::Par(a, b) => {
            rename_net(a, site, from, to);
            rename_net(b, site, from, to);
        }
        // Shadowed: stop.
        Net::New { site: s2, name, .. } if s2 == site && name == from => {}
        Net::New { body, .. } | Net::Def { body, .. } => rename_net(body, site, from, to),
        // Plain occurrences at the owning site.
        Net::Site(s2, p) if s2 == site => rename_proc(p, from, to),
        // Located occurrences `site.from` at other sites.
        Net::Site(_, p) => rename_located(p, site, from, to),
    }
}

/// Rename located occurrences `site.from` → `site.to` in a process. A
/// located name is a constant, so no process binder captures it.
fn rename_located(p: &mut Proc, site: &str, from: &str, to: &str) {
    let located = |r: &mut NameRef| match r {
        NameRef::Located(sx) if sx.0 == site && sx.1 == from => sx.1 = to.to_string(),
        _ => {}
    };
    p.free_occurrences_mut(located, |_| {});
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_syntax::parse_core;

    fn site(s: &str, src: &str) -> Net {
        Net::Site(s.to_string(), parse_core(src).unwrap())
    }

    #[test]
    fn nil_and_split() {
        // s[0] ‖ s[P] ‖ s[Q] ≡ s[P | Q]
        let lhs = Net::par(
            site("s", "0"),
            Net::par(site("s", "x!a[]"), site("s", "x!b[]")),
        );
        let rhs = site("s", "x!a[] | x!b[]");
        assert_eq!(normalize(&lhs), normalize(&rhs));
    }

    #[test]
    fn par_is_commutative_and_associative() {
        let a = site("s", "x!a[]");
        let b = site("t", "y!b[]");
        let c = site("s", "z!c[]");
        let n1 = Net::par(a.clone(), Net::par(b.clone(), c.clone()));
        let n2 = Net::par(Net::par(c, a), b);
        assert_eq!(normalize(&n1), normalize(&n2));
    }

    #[test]
    fn new_rule_hoists_process_restriction() {
        // s[new x (x![] | y![])] ≡ new s.x s[x![] | y![]]
        let lhs = site("s", "new x (x![1] | y![2])");
        let rhs = Net::New {
            site: "s".to_string(),
            name: "x".to_string(),
            body: Box::new(site("s", "x![1] | y![2]")),
        };
        assert_eq!(normalize(&lhs), normalize(&rhs));
    }

    #[test]
    fn extrusion_renames_apart() {
        // Two sites each restrict their own `x`; the canonical form keeps
        // them distinct.
        let n = Net::par(site("s", "new x x![1]"), site("t", "new x x![2]"));
        let canon = normalize(&n);
        assert_eq!(canon.restrictions.len(), 2);
        assert_ne!(canon.restrictions[0].1, canon.restrictions[1].1);
    }

    #[test]
    fn gc_rules_drop_garbage() {
        // new s.x 0 ≡ 0; def s.D in 0 ≡ 0; unused defs dropped.
        let n = Net::New {
            site: "s".to_string(),
            name: "x".to_string(),
            body: Box::new(Net::Nil),
        };
        assert!(normalize(&n).is_nil());
        let d = Net::Def {
            site: "s".to_string(),
            defs: parse_defs("def K(a) = print(a) in 0"),
            body: Box::new(site("s", "y![1]")),
        };
        let canon = normalize(&d);
        assert!(canon.defs.is_empty(), "unused def must be collected");
        // Used defs are kept.
        let d2 = Net::Def {
            site: "s".to_string(),
            defs: parse_defs("def K(a) = print(a) in 0"),
            body: Box::new(site("s", "K[1]")),
        };
        assert_eq!(normalize(&d2).defs.len(), 1);
    }

    #[test]
    fn exn_side_condition_is_vacuous_after_renaming() {
        // N1 ‖ new s.x N2 where N1 also mentions a DIFFERENT x of its own.
        let n1 = site("s", "new x x![1]");
        let inner = Net::New {
            site: "s".to_string(),
            name: "x".to_string(),
            body: Box::new(site("s", "x![2]")),
        };
        let both = Net::par(n1, inner);
        let canon = normalize(&both);
        assert_eq!(canon.restrictions.len(), 2);
        // The two components kept their distinct payloads.
        let comps = &canon.sites["s"];
        assert!(comps.iter().any(|c| c.contains("[1]")), "{comps:?}");
        assert!(comps.iter().any(|c| c.contains("[2]")), "{comps:?}");
    }

    #[test]
    fn located_mentions_keep_restrictions_alive() {
        // new s.x (t[s.x!go[]]) — the only use is located at another site.
        let n = Net::New {
            site: "s".to_string(),
            name: "x".to_string(),
            body: Box::new(site("t", "s.x!go[1]")),
        };
        let canon = normalize(&n);
        assert_eq!(canon.restrictions.len(), 1);
    }

    fn parse_defs(src: &str) -> Vec<ClassDef> {
        match parse_core(src).unwrap() {
            Proc::Def { defs, .. } => defs,
            other => panic!("expected def, got {other:?}"),
        }
    }
}
