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

use std::collections::BTreeMap;
use tyco_syntax::ast::{ClassDef, Proc};
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
    cx.walk(net);
    cx.finish()
}

#[derive(Default)]
struct Norm {
    restrictions: Vec<(String, String)>,
    defs: Vec<(String, Vec<ClassDef>)>,
    sites: BTreeMap<String, Vec<Proc>>,
    /// Names already used (for α-renaming extruded binders apart).
    used: std::collections::BTreeSet<String>,
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
                let body = if fresh == *name {
                    (**body).clone()
                } else {
                    rename_net(body, site, name, &fresh)
                };
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
                                body = rename_proc(&body, b, &fresh);
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
        let mut body_free: std::collections::BTreeSet<(String, String)> = Default::default();
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
        let mut located_mentions: std::collections::BTreeSet<(String, String)> = Default::default();
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
        let mut class_uses: std::collections::BTreeSet<String> = Default::default();
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
                            m = rename_proc(&m, rx, mask);
                        }
                        m = rename_located(&m, rs, rx, mask);
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
                        let mut located = std::collections::BTreeSet::new();
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
        let mut avoid: std::collections::BTreeSet<String> = Default::default();
        for (site, ps) in &self.sites {
            let restricted_here: std::collections::BTreeSet<&String> = self
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
                        *p = rename_proc(p, old, new);
                    }
                    *p = rename_located(p, rs, old, new);
                }
            }
        }
        self.restrictions = new_restrictions;
    }
}

/// Collect `s.x` mentions (free located names) of a process.
fn collect_located(p: &Proc, out: &mut std::collections::BTreeSet<(String, String)>) {
    use tyco_syntax::ast::{Expr, NameRef};
    fn expr(e: &Expr, out: &mut std::collections::BTreeSet<(String, String)>) {
        match e {
            Expr::Name(NameRef::Located(sx)) => {
                out.insert((**sx).clone());
            }
            Expr::Name(_) | Expr::Lit(_) => {}
            Expr::Bin(_, ab) => {
                expr(&ab.0, out);
                expr(&ab.1, out);
            }
            Expr::Un(_, a) => expr(a, out),
        }
    }
    match p {
        Proc::Nil => {}
        Proc::Par(ps) => ps.iter().for_each(|q| collect_located(q, out)),
        Proc::New { body, .. }
        | Proc::ExportNew { body, .. }
        | Proc::ImportName { body, .. }
        | Proc::ImportClass { body, .. } => collect_located(body, out),
        Proc::Msg { target, args, .. } => {
            if let NameRef::Located(sx) = target {
                out.insert((**sx).clone());
            }
            args.iter().for_each(|a| expr(a, out));
        }
        Proc::Obj {
            target, methods, ..
        } => {
            if let NameRef::Located(sx) = target {
                out.insert((**sx).clone());
            }
            methods.iter().for_each(|m| collect_located(&m.body, out));
        }
        Proc::Inst { args, .. } => args.iter().for_each(|a| expr(a, out)),
        Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
            defs.iter().for_each(|d| collect_located(&d.body, out));
            collect_located(body, out);
        }
        Proc::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            expr(cond, out);
            collect_located(then_branch, out);
            collect_located(else_branch, out);
        }
        Proc::Print { args, .. } => args.iter().for_each(|a| expr(a, out)),
        Proc::Let {
            target, args, body, ..
        } => {
            if let NameRef::Located(sx) = target {
                out.insert((**sx).clone());
            }
            args.iter().for_each(|a| expr(a, out));
            collect_located(body, out);
        }
    }
}

/// Rename the free plain name `from` to `to` in a process (capture is
/// impossible because `to` is globally fresh).
fn rename_proc(p: &Proc, from: &str, to: &str) -> Proc {
    // Reuse σ machinery through a tiny detour: rename by substituting via
    // parse of the pretty form would be fragile; walk directly instead.
    use tyco_syntax::ast::*;
    fn nref(r: &NameRef, from: &str, to: &str, bound: &[String]) -> NameRef {
        match r {
            NameRef::Plain(x) if x == from && !bound.iter().any(|b| b == x) => {
                NameRef::Plain(to.to_string())
            }
            other => other.clone(),
        }
    }
    fn expr(e: &Expr, from: &str, to: &str, bound: &[String]) -> Expr {
        match e {
            Expr::Name(r) => Expr::Name(nref(r, from, to, bound)),
            Expr::Lit(_) => e.clone(),
            Expr::Bin(op, ab) => Expr::bin(
                *op,
                expr(&ab.0, from, to, bound),
                expr(&ab.1, from, to, bound),
            ),
            Expr::Un(op, a) => Expr::Un(*op, Box::new(expr(a, from, to, bound))),
        }
    }
    fn walk(p: &Proc, from: &str, to: &str, bound: &mut Vec<String>) -> Proc {
        if bound.iter().any(|b| b == from) {
            return p.clone();
        }
        match p {
            Proc::Nil => Proc::Nil,
            Proc::Par(ps) => Proc::Par(ps.iter().map(|q| walk(q, from, to, bound)).collect()),
            Proc::New {
                binders,
                body,
                span,
            } => {
                let n = bound.len();
                bound.extend(binders.iter().cloned());
                let body = Box::new(walk(body, from, to, bound));
                bound.truncate(n);
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
                let n = bound.len();
                bound.extend(binders.iter().cloned());
                let body = Box::new(walk(body, from, to, bound));
                bound.truncate(n);
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
                target: nref(target, from, to, bound),
                label: label.clone(),
                args: args.iter().map(|a| expr(a, from, to, bound)).collect(),
                span: *span,
            },
            Proc::Obj {
                target,
                methods,
                span,
            } => Proc::Obj {
                target: nref(target, from, to, bound),
                methods: methods
                    .iter()
                    .map(|m| {
                        let n = bound.len();
                        bound.extend(m.params.iter().cloned());
                        let body = walk(&m.body, from, to, bound);
                        bound.truncate(n);
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
            Proc::Inst { class, args, span } => Proc::Inst {
                class: class.clone(),
                args: args.iter().map(|a| expr(a, from, to, bound)).collect(),
                span: *span,
            },
            Proc::Def { defs, body, span } => Proc::Def {
                defs: defs
                    .iter()
                    .map(|d| {
                        let n = bound.len();
                        bound.extend(d.params.iter().cloned());
                        let b = walk(&d.body, from, to, bound);
                        bound.truncate(n);
                        ClassDef {
                            name: d.name.clone(),
                            params: d.params.clone(),
                            body: b,
                            span: d.span,
                        }
                    })
                    .collect(),
                body: Box::new(walk(body, from, to, bound)),
                span: *span,
            },
            Proc::ExportDef { defs, body, span } => Proc::ExportDef {
                defs: defs
                    .iter()
                    .map(|d| {
                        let n = bound.len();
                        bound.extend(d.params.iter().cloned());
                        let b = walk(&d.body, from, to, bound);
                        bound.truncate(n);
                        ClassDef {
                            name: d.name.clone(),
                            params: d.params.clone(),
                            body: b,
                            span: d.span,
                        }
                    })
                    .collect(),
                body: Box::new(walk(body, from, to, bound)),
                span: *span,
            },
            Proc::ImportName {
                name,
                site,
                body,
                span,
            } => {
                let n = bound.len();
                bound.push(name.clone());
                let body = Box::new(walk(body, from, to, bound));
                bound.truncate(n);
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
            } => Proc::ImportClass {
                class: class.clone(),
                site: site.clone(),
                body: Box::new(walk(body, from, to, bound)),
                span: *span,
            },
            Proc::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => Proc::If {
                cond: expr(cond, from, to, bound),
                then_branch: Box::new(walk(then_branch, from, to, bound)),
                else_branch: Box::new(walk(else_branch, from, to, bound)),
                span: *span,
            },
            Proc::Print {
                args,
                newline,
                span,
            } => Proc::Print {
                args: args.iter().map(|a| expr(a, from, to, bound)).collect(),
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
                let target = nref(target, from, to, bound);
                let args = args.iter().map(|a| expr(a, from, to, bound)).collect();
                let n = bound.len();
                bound.push(binder.clone());
                let body = Box::new(walk(body, from, to, bound));
                bound.truncate(n);
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
    walk(p, from, to, &mut Vec::new())
}

/// Rename a network-level restricted name `site.from` to `site.to`
/// throughout a network body.
fn rename_net(net: &Net, site: &str, from: &str, to: &str) -> Net {
    match net {
        Net::Nil => Net::Nil,
        Net::Par(a, b) => Net::par(rename_net(a, site, from, to), rename_net(b, site, from, to)),
        Net::New {
            site: s2,
            name,
            body,
        } => {
            if s2 == site && name == from {
                // Shadowed: stop.
                net.clone()
            } else {
                Net::New {
                    site: s2.clone(),
                    name: name.clone(),
                    body: Box::new(rename_net(body, site, from, to)),
                }
            }
        }
        Net::Def {
            site: s2,
            defs,
            body,
        } => Net::Def {
            site: s2.clone(),
            defs: defs.clone(),
            body: Box::new(rename_net(body, site, from, to)),
        },
        Net::Site(s2, p) => {
            if s2 == site {
                // Plain occurrences at the owning site.
                Net::Site(s2.clone(), rename_proc(p, from, to))
            } else {
                // Located occurrences `site.from` at other sites.
                Net::Site(s2.clone(), rename_located(p, site, from, to))
            }
        }
    }
}

/// Rename located occurrences `site.from` → `site.to` in a process.
fn rename_located(p: &Proc, site: &str, from: &str, to: &str) -> Proc {
    // Round-trip through σ: translate so the located name becomes plain at
    // `site`, rename there, translate back. Simpler: direct walk on the
    // printed form would be fragile; reuse sigma twice.
    let here = "\u{1}renaming\u{1}"; // a site lexeme that cannot occur
    let at_site = crate::sigma::sigma_proc(p, here, site);
    let renamed = rename_proc(&at_site, from, to);
    crate::sigma::sigma_proc(&renamed, site, here)
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
