//! Unification with open rows and level-based generalization (Rémy levels).

use crate::types::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A unification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// Two types cannot be made equal.
    Mismatch(String, String),
    /// A method was invoked with the wrong number of arguments.
    Arity {
        label: Label,
        expected: usize,
        found: usize,
    },
    /// A message selects a label the channel's (closed) type does not offer.
    MissingLabel { label: Label, chan: String },
    /// Infinite type (e.g. a channel sent over itself).
    Occurs(String),
    /// A class was instantiated with the wrong number of arguments.
    ClassArity {
        class: String,
        expected: usize,
        found: usize,
    },
    /// An identifier is unbound.
    Unbound(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Mismatch(a, b) => write!(f, "type mismatch: `{a}` vs `{b}`"),
            TypeError::Arity {
                label,
                expected,
                found,
            } => write!(
                f,
                "method `{label}` expects {expected} argument(s) but got {found}"
            ),
            TypeError::MissingLabel { label, chan } => {
                write!(f, "channel of type `{chan}` has no method `{label}`")
            }
            TypeError::Occurs(t) => write!(f, "infinite type arising from `{t}`"),
            TypeError::ClassArity {
                class,
                expected,
                found,
            } => write!(
                f,
                "class `{class}` expects {expected} argument(s) but got {found}"
            ),
            TypeError::Unbound(x) => write!(f, "unbound identifier `{x}`"),
        }
    }
}

impl std::error::Error for TypeError {}

/// The unifier: fresh-variable supply, substitution and levels.
///
/// Variables are dense ids, so the substitution is indexed by them. A
/// chain of bindings — `'t1 := 't2 := 't3 …`, or a row tail bound to a row
/// whose tail is bound in turn — is collapsed the first time it is walked,
/// so each later walk takes one step: nested processes that refine one
/// channel level after level cost linear, not quadratic, time.
#[derive(Debug, Default)]
pub struct Unifier {
    tv_sub: Vec<Option<Type>>,
    rv_sub: Vec<Option<Row>>,
    tv_level: Vec<u32>,
    rv_level: Vec<u32>,
    /// Current generalization level (incremented inside `def` right-hand
    /// sides).
    pub level: u32,
}

impl Unifier {
    pub fn new() -> Self {
        Unifier::default()
    }

    /// A fresh type variable at the current level.
    pub fn fresh(&mut self) -> Type {
        let id = TvId(self.tv_level.len() as u32);
        self.tv_level.push(self.level);
        self.tv_sub.push(None);
        Type::Var(id)
    }

    /// A fresh row variable at the current level.
    pub fn fresh_row(&mut self) -> RvId {
        let id = RvId(self.rv_level.len() as u32);
        self.rv_level.push(self.level);
        self.rv_sub.push(None);
        id
    }

    /// A fresh *open* channel type `^{ | ρ }`.
    pub fn fresh_chan(&mut self) -> Type {
        let r = self.fresh_row();
        Type::Chan(Row::open([], r))
    }

    fn tv_lvl(&self, v: TvId) -> u32 {
        self.tv_level[v.0 as usize]
    }

    fn rv_lvl(&self, v: RvId) -> u32 {
        self.rv_level[v.0 as usize]
    }

    /// Chase the substitution at the root, pointing every variable passed
    /// straight at the last one.
    pub fn resolve_shallow(&mut self, t: Type) -> Type {
        let Type::Var(v) = t else { return t };
        let mut last = v;
        while let Some(Type::Var(next)) = &self.tv_sub[last.0 as usize] {
            last = *next;
        }
        let mut u = v;
        while u != last {
            match self.tv_sub[u.0 as usize].replace(Type::Var(last)) {
                Some(Type::Var(next)) => u = next,
                _ => unreachable!("a variable chain ends in `last`"),
            }
        }
        self.tv_sub[last.0 as usize]
            .clone()
            .unwrap_or(Type::Var(last))
    }

    /// Fully resolve a row: merge fields reachable through bound tail
    /// variables.
    pub fn resolve_row(&mut self, row: &Row) -> Row {
        let mut fields = row.fields.clone();
        let mut rest = row.rest;
        if let Some(head) = rest {
            let tail = self.resolve_tail(head);
            for (l, args) in tail.fields {
                fields.entry(l).or_insert(args);
            }
            rest = tail.rest;
        }
        Row { fields, rest }
    }

    /// The row a tail variable stands for: the fields along its chain of
    /// bindings and the chain's unbound end. A chain of more than one
    /// binding is collapsed into one.
    fn resolve_tail(&mut self, head: RvId) -> Row {
        let mut fields = BTreeMap::new();
        let mut rest = Some(head);
        let mut hops = 0;
        while let Some(Some(next)) = rest.map(|rv| &self.rv_sub[rv.0 as usize]) {
            for (l, args) in &next.fields {
                fields.entry(l.clone()).or_insert_with(|| args.clone());
            }
            rest = next.rest;
            hops += 1;
        }
        let row = Row { fields, rest };
        if hops > 1 {
            self.rv_sub[head.0 as usize] = Some(row.clone());
        }
        row
    }

    /// Fully resolve a type (deep).
    pub fn zonk(&mut self, t: &Type) -> Type {
        match self.resolve_shallow(t.clone()) {
            Type::Chan(row) => {
                let row = self.resolve_row(&row);
                Type::Chan(Row {
                    fields: row
                        .fields
                        .into_iter()
                        .map(|(l, args)| (l, args.iter().map(|a| self.zonk(a)).collect()))
                        .collect(),
                    rest: row.rest,
                })
            }
            other => other,
        }
    }

    fn occurs_in(&mut self, v: TvId, t: &Type) -> bool {
        match self.resolve_shallow(t.clone()) {
            Type::Var(u) => u == v,
            Type::Chan(row) => {
                let row = self.resolve_row(&row);
                row.fields.values().flatten().any(|a| self.occurs_in(v, a))
            }
            _ => false,
        }
    }

    fn row_occurs_in(&mut self, v: RvId, row: &Row) -> bool {
        let row = self.resolve_row(row);
        if row.rest == Some(v) {
            return true;
        }
        row.fields
            .values()
            .flatten()
            .any(|t| self.row_occurs_in_type(v, t))
    }

    fn row_occurs_in_type(&mut self, v: RvId, t: &Type) -> bool {
        match self.resolve_shallow(t.clone()) {
            Type::Chan(row) => self.row_occurs_in(v, &row),
            _ => false,
        }
    }

    /// Lower the levels of all variables in `t` to at most `lvl` (standard
    /// level adjustment when binding an older variable to a newer type).
    fn adjust_levels(&mut self, t: &Type, lvl: u32) {
        match self.resolve_shallow(t.clone()) {
            Type::Var(u) => {
                let l = self.tv_lvl(u).min(lvl);
                self.tv_level[u.0 as usize] = l;
            }
            Type::Chan(row) => {
                let row = self.resolve_row(&row);
                if let Some(r) = row.rest {
                    let l = self.rv_lvl(r).min(lvl);
                    self.rv_level[r.0 as usize] = l;
                }
                for args in row.fields.values() {
                    for a in args {
                        self.adjust_levels(a, lvl);
                    }
                }
            }
            _ => {}
        }
    }

    /// Make `a` and `b` equal, extending the substitution.
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), TypeError> {
        let a = self.resolve_shallow(a.clone());
        let b = self.resolve_shallow(b.clone());
        match (a, b) {
            (Type::Var(v), Type::Var(u)) if v == u => Ok(()),
            (Type::Var(v), t) | (t, Type::Var(v)) => {
                if self.occurs_in(v, &t) {
                    return Err(TypeError::Occurs(self.zonk(&t).to_string()));
                }
                self.adjust_levels(&t, self.tv_lvl(v));
                self.tv_sub[v.0 as usize] = Some(t);
                Ok(())
            }
            (Type::Unit, Type::Unit)
            | (Type::Int, Type::Int)
            | (Type::Bool, Type::Bool)
            | (Type::Str, Type::Str)
            | (Type::Float, Type::Float) => Ok(()),
            (Type::Chan(r1), Type::Chan(r2)) => self.unify_rows(&r1, &r2),
            (a, b) => Err(TypeError::Mismatch(
                self.zonk(&a).to_string(),
                self.zonk(&b).to_string(),
            )),
        }
    }

    fn unify_rows(&mut self, r1: &Row, r2: &Row) -> Result<(), TypeError> {
        let r1 = self.resolve_row(r1);
        let r2 = self.resolve_row(r2);

        // Unify common labels.
        for (l, args1) in &r1.fields {
            if let Some(args2) = r2.fields.get(l) {
                if args1.len() != args2.len() {
                    return Err(TypeError::Arity {
                        label: l.clone(),
                        expected: args1.len(),
                        found: args2.len(),
                    });
                }
                for (a, b) in args1.iter().zip(args2) {
                    self.unify(a, b)?;
                }
            }
        }

        let only1: Vec<(Label, Vec<Type>)> = r1
            .fields
            .iter()
            .filter(|(l, _)| !r2.fields.contains_key(*l))
            .map(|(l, a)| (l.clone(), a.clone()))
            .collect();
        let only2: Vec<(Label, Vec<Type>)> = r2
            .fields
            .iter()
            .filter(|(l, _)| !r1.fields.contains_key(*l))
            .map(|(l, a)| (l.clone(), a.clone()))
            .collect();

        match (r1.rest, r2.rest) {
            (None, None) => {
                if let Some((l, _)) = only2.first() {
                    return Err(TypeError::MissingLabel {
                        label: l.clone(),
                        chan: self.zonk(&Type::Chan(r1.clone())).to_string(),
                    });
                }
                if let Some((l, _)) = only1.first() {
                    return Err(TypeError::MissingLabel {
                        label: l.clone(),
                        chan: self.zonk(&Type::Chan(r2.clone())).to_string(),
                    });
                }
                Ok(())
            }
            (Some(v1), None) => {
                // r1's tail must provide exactly r2's extra labels; r1 may
                // not have labels missing from the closed r2.
                if let Some((l, _)) = only1.first() {
                    return Err(TypeError::MissingLabel {
                        label: l.clone(),
                        chan: self.zonk(&Type::Chan(r2.clone())).to_string(),
                    });
                }
                self.bind_row(v1, Row::closed(only2))
            }
            (None, Some(v2)) => {
                if let Some((l, _)) = only2.first() {
                    return Err(TypeError::MissingLabel {
                        label: l.clone(),
                        chan: self.zonk(&Type::Chan(r1.clone())).to_string(),
                    });
                }
                self.bind_row(v2, Row::closed(only1))
            }
            (Some(v1), Some(v2)) => {
                if v1 == v2 {
                    // Same tail: field sets must already agree.
                    if !only1.is_empty() || !only2.is_empty() {
                        return Err(TypeError::Mismatch(
                            self.zonk(&Type::Chan(r1.clone())).to_string(),
                            self.zonk(&Type::Chan(r2.clone())).to_string(),
                        ));
                    }
                    return Ok(());
                }
                let tail = self.fresh_row();
                // Lower the fresh tail to the older of the two levels.
                let lvl = self.rv_lvl(v1).min(self.rv_lvl(v2));
                self.rv_level[tail.0 as usize] = lvl;
                self.bind_row(v1, Row::open(only2, tail))?;
                self.bind_row(v2, Row::open(only1, tail))
            }
        }
    }

    fn bind_row(&mut self, v: RvId, row: Row) -> Result<(), TypeError> {
        if self.row_occurs_in(v, &row) {
            return Err(TypeError::Occurs(self.zonk(&Type::Chan(row)).to_string()));
        }
        let lvl = self.rv_lvl(v);
        for args in row.fields.values() {
            for a in args.clone() {
                self.adjust_levels(&a, lvl);
            }
        }
        if let Some(r) = row.rest {
            let l = self.rv_lvl(r).min(lvl);
            self.rv_level[r.0 as usize] = l;
        }
        self.rv_sub[v.0 as usize] = Some(row);
        Ok(())
    }

    /// Generalize the given parameter types at the current level: quantify
    /// every variable whose level is strictly greater than `self.level`.
    pub fn generalize(&mut self, params: &[Type]) -> Scheme {
        let mut tvs = Vec::new();
        let mut rvs = Vec::new();
        let params: Vec<Type> = params.iter().map(|t| self.zonk(t)).collect();
        for t in &params {
            t.free_vars(&mut tvs, &mut rvs);
        }
        let tvars: Vec<TvId> = tvs
            .into_iter()
            .filter(|v| self.tv_lvl(*v) > self.level)
            .collect();
        let rvars: Vec<RvId> = rvs
            .into_iter()
            .filter(|v| self.rv_lvl(*v) > self.level)
            .collect();
        Scheme {
            tvars,
            rvars,
            params,
        }
    }

    /// Instantiate a scheme with fresh variables at the current level.
    pub fn instantiate(&mut self, scheme: &Scheme) -> Vec<Type> {
        let tmap: HashMap<TvId, Type> = scheme.tvars.iter().map(|v| (*v, self.fresh())).collect();
        let rmap: HashMap<RvId, RvId> = scheme
            .rvars
            .iter()
            .map(|v| (*v, self.fresh_row()))
            .collect();
        scheme
            .params
            .iter()
            .map(|t| self.subst_type(t, &tmap, &rmap))
            .collect()
    }

    fn subst_type(
        &mut self,
        t: &Type,
        tmap: &HashMap<TvId, Type>,
        rmap: &HashMap<RvId, RvId>,
    ) -> Type {
        match self.resolve_shallow(t.clone()) {
            Type::Var(v) => tmap.get(&v).cloned().unwrap_or(Type::Var(v)),
            Type::Chan(row) => {
                let row = self.resolve_row(&row);
                Type::Chan(Row {
                    fields: row
                        .fields
                        .iter()
                        .map(|(l, args)| {
                            (
                                l.clone(),
                                args.iter()
                                    .map(|a| self.subst_type(a, tmap, rmap))
                                    .collect(),
                            )
                        })
                        .collect(),
                    rest: row.rest.map(|r| rmap.get(&r).copied().unwrap_or(r)),
                })
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_base_types() {
        let mut u = Unifier::new();
        assert!(u.unify(&Type::Int, &Type::Int).is_ok());
        assert!(u.unify(&Type::Int, &Type::Bool).is_err());
    }

    #[test]
    fn var_binding_and_zonk() {
        let mut u = Unifier::new();
        let a = u.fresh();
        u.unify(&a, &Type::Int).unwrap();
        assert_eq!(u.zonk(&a), Type::Int);
        // Transitive: b := a := int.
        let b = u.fresh();
        u.unify(&b, &a).unwrap();
        assert_eq!(u.zonk(&b), Type::Int);
    }

    #[test]
    fn occurs_check_fires() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let chan = Type::Chan(Row::closed([("val".to_string(), vec![a.clone()])]));
        assert!(matches!(u.unify(&a, &chan), Err(TypeError::Occurs(_))));
    }

    #[test]
    fn open_rows_merge() {
        let mut u = Unifier::new();
        // x used as ^{a(int) | ρ1} and ^{b(bool) | ρ2} ⇒ both methods.
        let r1 = u.fresh_row();
        let r2 = u.fresh_row();
        let t1 = Type::Chan(Row::open([("a".to_string(), vec![Type::Int])], r1));
        let t2 = Type::Chan(Row::open([("b".to_string(), vec![Type::Bool])], r2));
        u.unify(&t1, &t2).unwrap();
        let z = u.zonk(&t1);
        match z {
            Type::Chan(row) => {
                assert!(row.fields.contains_key("a"));
                assert!(row.fields.contains_key("b"));
                assert!(row.rest.is_some());
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn closed_row_rejects_missing_label() {
        let mut u = Unifier::new();
        let closed = Type::Chan(Row::closed([("read".to_string(), vec![])]));
        let r = u.fresh_row();
        let open = Type::Chan(Row::open([("write".to_string(), vec![Type::Int])], r));
        match u.unify(&closed, &open) {
            Err(TypeError::MissingLabel { label, .. }) => assert_eq!(label, "write"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn closed_row_arity_mismatch() {
        let mut u = Unifier::new();
        let a = Type::Chan(Row::closed([("m".to_string(), vec![Type::Int])]));
        let b = Type::Chan(Row::closed([("m".to_string(), vec![Type::Int, Type::Int])]));
        assert!(matches!(u.unify(&a, &b), Err(TypeError::Arity { .. })));
    }

    #[test]
    fn generalize_and_instantiate() {
        let mut u = Unifier::new();
        u.level = 0;
        // Simulate entering a def RHS.
        u.level = 1;
        let v = u.fresh(); // level 1 ⇒ generalizable at level 0
        u.level = 0;
        let scheme = u.generalize(std::slice::from_ref(&v));
        assert_eq!(scheme.tvars.len(), 1);
        // Two instantiations are independent.
        let i1 = u.instantiate(&scheme);
        let i2 = u.instantiate(&scheme);
        u.unify(&i1[0], &Type::Int).unwrap();
        u.unify(&i2[0], &Type::Bool).unwrap();
        assert_eq!(u.zonk(&i1[0]), Type::Int);
        assert_eq!(u.zonk(&i2[0]), Type::Bool);
    }

    #[test]
    fn monomorphic_var_not_generalized() {
        let mut u = Unifier::new();
        let v = u.fresh(); // level 0
        let scheme = u.generalize(std::slice::from_ref(&v));
        assert!(scheme.tvars.is_empty());
    }

    #[test]
    fn same_row_var_same_fields_ok() {
        let mut u = Unifier::new();
        let r = u.fresh_row();
        let t1 = Type::Chan(Row::open([("l".to_string(), vec![])], r));
        let t2 = Type::Chan(Row::open([("l".to_string(), vec![])], r));
        assert!(u.unify(&t1, &t2).is_ok());
    }
}
