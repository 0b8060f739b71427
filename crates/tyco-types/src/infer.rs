//! Type inference for DiTyCO processes (Algorithm W adapted to processes).
//!
//! Processes do not have types themselves; inference produces constraints on
//! the types of the names and classes they use. Class definitions are
//! generalized Damas–Milner style (so the paper's polymorphic `Cell` can be
//! instantiated at `int` and at `bool`), message sends constrain channels
//! with *open* rows, and objects constrain them with *closed* rows.
//!
//! Identifiers bound by `import` get fresh types: their protocols belong to
//! the exporting site and are re-checked *dynamically* at link time using
//! type fingerprints (the paper's "combines both static and dynamic type
//! checking" scheme — see [`mod@crate::fingerprint`]).

use crate::types::*;
use crate::unify::{TypeError, Unifier};
use std::collections::{BTreeMap, HashMap, HashSet};
use tyco_syntax::ast::*;

/// What kind of identifier an `import` refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportKind {
    Name,
    Class,
}

/// The result of checking a site's program.
#[derive(Debug, Default, Clone)]
pub struct TypeSummary {
    /// Names made visible with `export new`, with their inferred (zonked)
    /// types — the site's external interface.
    pub exported_names: BTreeMap<String, Type>,
    /// Classes made visible with `export def`.
    pub exported_classes: BTreeMap<String, Scheme>,
    /// Every `import` the program performs: `(site, identifier, kind)`.
    pub imports: Vec<(String, String, ImportKind)>,
    /// Inferred types for imported names (the *expected* remote protocol,
    /// from local usage): checked against the exporter at link time.
    pub import_expectations: BTreeMap<(String, String), Type>,
}

/// Check a (desugared) process in an empty environment.
pub fn check(p: &Proc) -> Result<TypeSummary, TypeError> {
    let core = if tyco_syntax::desugar::is_core(p) {
        None
    } else {
        Some(tyco_syntax::desugar::desugar(p.clone()))
    };
    let mut cx = Checker::new();
    cx.infer_proc(core.as_ref().unwrap_or(p))?;
    cx.finish()
}

/// A class binding: locally defined (possibly polymorphic) or imported with
/// an arity fixed at first instantiation.
#[derive(Debug, Clone)]
enum ClassSig {
    Known(Scheme),
    /// Index into `Checker::flexible`.
    Flexible(usize),
}

/// Scopes are keyed by identifiers borrowed from the checked tree, and
/// an entry stays when its last binding goes, so binding a name allocates
/// nothing once the name has been seen.
struct Checker<'a> {
    u: Unifier,
    names: HashMap<&'a str, Vec<Type>>,
    classes: HashMap<&'a str, Vec<ClassSig>>,
    /// Parameter types of imported classes, fixed at first instantiation.
    flexible: Vec<Option<Vec<Type>>>,
    /// Deferred numeric constraints: each type must resolve to `int` or
    /// `float` (defaulting unresolved variables to `int`).
    numeric: Vec<Type>,
    /// Types of located identifiers `s.x` used directly.
    remote_names: HashMap<(&'a str, &'a str), Type>,
    summary: TypeSummary,
    /// Scratch for [`Checker::distinct`].
    seen: HashSet<&'a str>,
    /// Scratch for [`Checker::infer_expr`]: the operand types.
    operands: Vec<Type>,
}

impl<'a> Checker<'a> {
    fn new() -> Self {
        Checker {
            u: Unifier::new(),
            names: HashMap::new(),
            classes: HashMap::new(),
            flexible: Vec::new(),
            numeric: Vec::new(),
            remote_names: HashMap::new(),
            summary: TypeSummary::default(),
            seen: HashSet::new(),
            operands: Vec::new(),
        }
    }

    fn bind_name(&mut self, x: &'a str, t: Type) {
        self.names.entry(x).or_default().push(t);
    }

    fn unbind_name(&mut self, x: &str) {
        if let Some(stack) = self.names.get_mut(x) {
            stack.pop();
        }
    }

    fn bind_class(&mut self, x: &'a str, s: ClassSig) {
        self.classes.entry(x).or_default().push(s);
    }

    fn unbind_class(&mut self, x: &str) {
        if let Some(stack) = self.classes.get_mut(x) {
            stack.pop();
        }
    }

    fn name_type(&mut self, r: &'a NameRef) -> Result<Type, TypeError> {
        match r {
            NameRef::Plain(x) => match self.names.get(x.as_str()).and_then(|s| s.last()) {
                Some(t) => Ok(t.clone()),
                None => Err(TypeError::Unbound(x.clone())),
            },
            NameRef::Located(sx) => {
                let key = (sx.0.as_str(), sx.1.as_str());
                if let Some(t) = self.remote_names.get(&key) {
                    return Ok(t.clone());
                }
                let t = self.u.fresh_chan();
                self.remote_names.insert(key, t.clone());
                Ok(t)
            }
        }
    }

    /// Reject a second binding of one identifier in a pattern or a def
    /// group: the paper's `x̃` is a sequence of distinct names.
    fn distinct(
        &mut self,
        binders: impl IntoIterator<Item = &'a Ident>,
        what: &str,
        place: &str,
    ) -> Result<(), TypeError> {
        self.seen.clear();
        for x in binders {
            if !self.seen.insert(x) {
                return Err(TypeError::Mismatch(
                    format!("duplicate {what} `{x}`"),
                    place.to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Require `t` to be `int` or `float` by the end of the check, and
    /// return it. A type already known to be one needs no record.
    fn numeric(&mut self, t: Type) -> Type {
        let t = self.u.resolve_shallow(t);
        if !matches!(t, Type::Int | Type::Float) {
            self.numeric.push(t.clone());
        }
        t
    }

    /// Unify the two operands of an operator. Operands of one numeric
    /// base type, as in every link of a sum of literals, have nothing to
    /// unify.
    fn unify_operands(&mut self, ta: &Type, tb: &Type) -> Result<(), TypeError> {
        match (ta, tb) {
            (Type::Int, Type::Int) | (Type::Float, Type::Float) => Ok(()),
            _ => self.u.unify(ta, tb),
        }
    }

    /// The type of `e`, from a stack of operand types run over its nodes
    /// in post-order: the unifications and numeric records come in the
    /// order a recursive walk, left operand first, would make them.
    fn infer_expr(&mut self, e: &'a Expr) -> Result<Type, TypeError> {
        self.operands.clear();
        for t in e.terms() {
            let ty = match t {
                Term::Name(r) => self.name_type(r)?,
                Term::Unit => Type::Unit,
                Term::Int(_) => Type::Int,
                Term::Bool(_) => Type::Bool,
                Term::Str(_) => Type::Str,
                Term::Float(_) => Type::Float,
                Term::Bin(op) => {
                    let tb = self.operands.pop().expect("a well-formed expression");
                    let ta = self.operands.pop().expect("a well-formed expression");
                    match op {
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                            self.unify_operands(&ta, &tb)?;
                            self.numeric(ta)
                        }
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                            self.unify_operands(&ta, &tb)?;
                            self.numeric(ta);
                            Type::Bool
                        }
                        BinOp::Eq | BinOp::Ne => {
                            self.u.unify(&ta, &tb)?;
                            Type::Bool
                        }
                        BinOp::And | BinOp::Or => {
                            self.u.unify(&ta, &Type::Bool)?;
                            self.u.unify(&tb, &Type::Bool)?;
                            Type::Bool
                        }
                        BinOp::Concat => {
                            self.u.unify(&ta, &Type::Str)?;
                            self.u.unify(&tb, &Type::Str)?;
                            Type::Str
                        }
                    }
                }
                Term::Un(op) => {
                    let ta = self.operands.pop().expect("a well-formed expression");
                    match op {
                        UnOp::Neg => self.numeric(ta),
                        UnOp::Not => {
                            self.u.unify(&ta, &Type::Bool)?;
                            Type::Bool
                        }
                    }
                }
            };
            self.operands.push(ty);
        }
        Ok(self.operands.pop().expect("a well-formed expression"))
    }

    fn infer_proc(&mut self, p: &'a Proc) -> Result<(), TypeError> {
        match p {
            Proc::Nil => Ok(()),
            Proc::Par(ps) => {
                for q in ps {
                    self.infer_proc(q)?;
                }
                Ok(())
            }
            Proc::New { binders, body, .. } => {
                for b in binders {
                    let t = self.u.fresh_chan();
                    self.bind_name(b, t);
                }
                let r = self.infer_proc(body);
                for b in binders {
                    self.unbind_name(b);
                }
                r
            }
            Proc::ExportNew { binders, body, .. } => {
                for b in binders {
                    let t = self.u.fresh_chan();
                    self.bind_name(b, t.clone());
                    self.summary.exported_names.insert(b.clone(), t);
                }
                let r = self.infer_proc(body);
                for b in binders {
                    self.unbind_name(b);
                }
                r
            }
            Proc::Msg {
                target,
                label,
                args,
                ..
            } => {
                let chan = self.name_type(target)?;
                let arg_types: Vec<Type> = args
                    .iter()
                    .map(|a| self.infer_expr(a))
                    .collect::<Result<_, _>>()?;
                let row = self.u.fresh_row();
                let want = Type::Chan(Row::open([(label.clone(), arg_types)], row));
                self.u.unify(&chan, &want)
            }
            Proc::Obj {
                target, methods, ..
            } => {
                let chan = self.name_type(target)?;
                let mut fields = BTreeMap::new();
                for m in methods {
                    self.distinct(&m.params, "parameter", "pattern")?;
                    let params: Vec<Type> = m.params.iter().map(|_| self.u.fresh()).collect();
                    for (x, t) in m.params.iter().zip(&params) {
                        self.bind_name(x, t.clone());
                    }
                    self.infer_proc(&m.body)?;
                    for x in &m.params {
                        self.unbind_name(x);
                    }
                    if fields.insert(m.label.clone(), params).is_some() {
                        return Err(TypeError::Mismatch(
                            format!("duplicate method `{}`", m.label),
                            "object".to_string(),
                        ));
                    }
                }
                // Objects offer an exact (closed) method collection.
                self.u.unify(&chan, &Type::Chan(Row { fields, rest: None }))
            }
            Proc::Inst { class, args, .. } => {
                let arg_types: Vec<Type> = args
                    .iter()
                    .map(|a| self.infer_expr(a))
                    .collect::<Result<_, _>>()?;
                match class {
                    ClassRef::Plain(x) => {
                        let sig = self
                            .classes
                            .get(x.as_str())
                            .and_then(|s| s.last())
                            .cloned()
                            .ok_or_else(|| TypeError::Unbound(x.clone()))?;
                        match sig {
                            ClassSig::Known(scheme) => {
                                let params = self.u.instantiate(&scheme);
                                if params.len() != arg_types.len() {
                                    return Err(TypeError::ClassArity {
                                        class: x.clone(),
                                        expected: params.len(),
                                        found: arg_types.len(),
                                    });
                                }
                                for (pt, at) in params.iter().zip(&arg_types) {
                                    self.u.unify(pt, at)?;
                                }
                                Ok(())
                            }
                            ClassSig::Flexible(slot) => self.unify_flexible(slot, x, arg_types),
                        }
                    }
                    ClassRef::Located(_, _) => {
                        // Direct use of a located class: arity checked
                        // dynamically at fetch time; argument types are
                        // unconstrained locally.
                        Ok(())
                    }
                }
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                let export = matches!(p, Proc::ExportDef { .. });
                self.distinct(defs.iter().map(|d| &d.name), "class", "def group")?;
                // Check RHSs one level up so their fresh vars generalize.
                self.u.level += 1;
                let mono: Vec<Vec<Type>> = defs
                    .iter()
                    .map(|d| d.params.iter().map(|_| self.u.fresh()).collect())
                    .collect();
                // Bind all classes monomorphically for mutual recursion.
                for (d, params) in defs.iter().zip(&mono) {
                    self.bind_class(&d.name, ClassSig::Known(Scheme::mono(params.clone())));
                }
                for (d, params) in defs.iter().zip(&mono) {
                    self.distinct(&d.params, "parameter", "pattern")?;
                    for (x, t) in d.params.iter().zip(params) {
                        self.bind_name(x, t.clone());
                    }
                    self.infer_proc(&d.body)?;
                    for x in &d.params {
                        self.unbind_name(x);
                    }
                }
                for d in defs {
                    self.unbind_class(&d.name);
                }
                self.u.level -= 1;
                // Generalize and bind for the body.
                for (d, params) in defs.iter().zip(&mono) {
                    let scheme = self.u.generalize(params);
                    if export {
                        self.summary
                            .exported_classes
                            .insert(d.name.clone(), scheme.clone());
                    }
                    self.bind_class(&d.name, ClassSig::Known(scheme));
                }
                self.infer_proc(body)?;
                for d in defs {
                    self.unbind_class(&d.name);
                }
                Ok(())
            }
            Proc::ImportName {
                name, site, body, ..
            } => {
                self.summary
                    .imports
                    .push((site.clone(), name.clone(), ImportKind::Name));
                let t = self.u.fresh_chan();
                self.bind_name(name, t.clone());
                let r = self.infer_proc(body);
                self.unbind_name(name);
                // Record what this site expects of the remote name.
                self.summary
                    .import_expectations
                    .insert((site.clone(), name.clone()), t);
                r
            }
            Proc::ImportClass {
                class, site, body, ..
            } => {
                self.summary
                    .imports
                    .push((site.clone(), class.clone(), ImportKind::Class));
                let slot = self.flexible.len();
                self.flexible.push(None);
                self.bind_class(class, ClassSig::Flexible(slot));
                let r = self.infer_proc(body);
                self.unbind_class(class);
                r
            }
            Proc::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let t = self.infer_expr(cond)?;
                self.u.unify(&t, &Type::Bool)?;
                self.infer_proc(then_branch)?;
                self.infer_proc(else_branch)
            }
            Proc::Print { args, .. } => {
                for a in args {
                    self.infer_expr(a)?;
                }
                Ok(())
            }
            Proc::Let { .. } => unreachable!("`check` desugars first"),
        }
    }

    fn unify_flexible(
        &mut self,
        slot: usize,
        class: &str,
        arg_types: Vec<Type>,
    ) -> Result<(), TypeError> {
        match self.flexible[slot].clone() {
            None => {
                self.flexible[slot] = Some(arg_types);
                Ok(())
            }
            Some(params) => {
                if params.len() != arg_types.len() {
                    return Err(TypeError::ClassArity {
                        class: class.to_string(),
                        expected: params.len(),
                        found: arg_types.len(),
                    });
                }
                for (pt, at) in params.iter().zip(&arg_types) {
                    self.u.unify(pt, at)?;
                }
                Ok(())
            }
        }
    }

    fn finish(mut self) -> Result<TypeSummary, TypeError> {
        // Discharge numeric constraints, defaulting free vars to int.
        for t in std::mem::take(&mut self.numeric) {
            match self.u.zonk(&t) {
                Type::Int | Type::Float => {}
                Type::Var(_) => self.u.unify(&t, &Type::Int)?,
                other => {
                    return Err(TypeError::Mismatch(
                        other.to_string(),
                        "int or float".to_string(),
                    ));
                }
            }
        }
        // Zonk everything in the summary.
        let exported_names = self
            .summary
            .exported_names
            .iter()
            .map(|(k, t)| (k.clone(), self.u.zonk(t)))
            .collect();
        let import_expectations = self
            .summary
            .import_expectations
            .iter()
            .map(|(k, t)| (k.clone(), self.u.zonk(t)))
            .collect();
        let exported_classes = self
            .summary
            .exported_classes
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Scheme {
                        tvars: s.tvars.clone(),
                        rvars: s.rvars.clone(),
                        params: s.params.iter().map(|t| self.u.zonk(t)).collect(),
                    },
                )
            })
            .collect();
        Ok(TypeSummary {
            exported_names,
            exported_classes,
            imports: self.summary.imports,
            import_expectations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_syntax::parse_core;

    fn ok(src: &str) -> TypeSummary {
        let p = parse_core(src).expect("parse");
        check(&p).unwrap_or_else(|e| panic!("type error in {src:?}: {e}"))
    }

    fn fails(src: &str) -> TypeError {
        let p = parse_core(src).expect("parse");
        check(&p).expect_err(&format!("expected type error in {src:?}"))
    }

    #[test]
    fn cell_is_polymorphic() {
        // The paper's headline example: one Cell class instantiated at int
        // and at bool.
        ok(r#"
            def Cell(self, v) =
                self ? {
                    read(r)  = r![v] | Cell[self, v],
                    write(u) = Cell[self, u]
                }
            in new x Cell[x, 9] | new y Cell[y, true]
        "#);
    }

    #[test]
    fn monomorphic_channel_rejects_mixed_use() {
        fails("new x (x![1] | x![true])");
    }

    #[test]
    fn message_constrains_object() {
        ok("new x (x!go[1] | x?{ go(n) = print(n + 1) })");
        fails("new x (x!go[true] | x?{ go(n) = print(n + 1) })");
    }

    #[test]
    fn missing_method_is_rejected() {
        fails("new x (x!stop[] | x?{ go(n) = 0 })");
    }

    #[test]
    fn method_arity_is_checked() {
        fails("new x (x!go[1, 2] | x?{ go(n) = 0 })");
    }

    #[test]
    fn class_arity_is_checked() {
        fails("def K(a) = 0 in K[1, 2]");
    }

    #[test]
    fn unbound_name_is_rejected() {
        assert!(matches!(fails("x![1]"), TypeError::Unbound(_)));
        assert!(matches!(fails("K[1]"), TypeError::Unbound(_)));
    }

    #[test]
    fn duplicate_class_parameters_are_rejected() {
        let e = fails("def X(a, a) = println(a) in X[1, 2]");
        assert_eq!(
            e.to_string(),
            "type mismatch: `duplicate parameter `a`` vs `pattern`"
        );
        ok("def X(a, b) = println(a) in X[1, 2]");
    }

    #[test]
    fn duplicate_method_parameters_are_rejected() {
        let e = fails("new x (x![1, 2] | x?(a, a) = println(a))");
        assert_eq!(
            e.to_string(),
            "type mismatch: `duplicate parameter `a`` vs `pattern`"
        );
        // Distinct patterns may reuse a name, and a method's parameter may
        // shadow a class's.
        ok("def K(a) = new x (x!l[1] | x?{ l(a) = print(a), m(a, b) = 0 }) in K[0]");
    }

    #[test]
    fn duplicate_classes_in_one_group_are_rejected() {
        let e = fails("def X(a) = println(1) and X(b) = println(2) in X[0]");
        assert_eq!(
            e.to_string(),
            "type mismatch: `duplicate class `X`` vs `def group`"
        );
        // Nested groups may shadow an outer class.
        ok("def X(a) = println(1) in def X(b) = println(2) in X[0]");
    }

    #[test]
    fn rpc_example_from_paper() {
        // Client invokes remote p with a local argument and a reply channel.
        ok(r#"
            import p from server in
            new a (p!val[42, a] | a?(y) = print(y))
        "#);
    }

    #[test]
    fn applet_server_fetch_types() {
        ok(r#"
            export def Applet(x) = print(x)
            in 0
        "#);
        let s = ok("export def Applet(x) = print(x) in 0");
        assert!(s.exported_classes.contains_key("Applet"));
    }

    #[test]
    fn imported_class_arity_fixed_at_first_use() {
        ok("import Applet from server in Applet[1] | Applet[2]");
        fails("import Applet from server in Applet[1] | Applet[1, 2]");
        fails("import Applet from server in Applet[1] | Applet[true]");
    }

    #[test]
    fn conditional_requires_bool() {
        ok("if 1 < 2 then print(1) else 0");
        fails("if 1 + 2 then 0 else 0");
    }

    #[test]
    fn arithmetic_defaults_and_rejects() {
        ok("print(1 + 2 * 3)");
        ok("print(1.5 + 2.5)");
        fails("print(1 + true)");
        fails("print(\"a\" + \"b\")");
        ok("print(\"a\" ^ \"b\")");
    }

    #[test]
    fn occurs_check_rejects_self_application() {
        // x carries itself: infinite type.
        fails("new x x![x]");
    }

    #[test]
    fn let_sugar_types() {
        ok(r#"
            new db (
                db?{ chunk(r) = r![7] }
              | let d = db!chunk[] in print(d + 1)
            )
        "#);
    }

    #[test]
    fn export_interface_recorded() {
        let s = ok("export new srv in srv?{ ping(r) = r![0] }");
        let t = s.exported_names.get("srv").expect("exported");
        let shown = t.to_string();
        assert!(shown.contains("ping"), "{shown}");
    }

    #[test]
    fn import_expectation_recorded() {
        let s = ok("import p from server in p!go[1]");
        let t = s
            .import_expectations
            .get(&("server".to_string(), "p".to_string()))
            .unwrap();
        assert!(t.to_string().contains("go"));
        assert_eq!(s.imports.len(), 1);
    }

    #[test]
    fn seti_example_types() {
        ok(r#"
            new database
            export def Install() = println("installed") | Go[]
            and Go() = let data = database!newChunk[] in (println(data) | Go[])
            in database ? {
                newData(d) = 0,
                newChunk(replyTo) = replyTo![17]
            }
        "#);
    }

    #[test]
    fn located_identifiers_are_dynamic() {
        ok("server.p!go[1] | server.Applet[2]");
    }
}
