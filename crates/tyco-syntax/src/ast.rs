//! Abstract syntax of the DiTyCO source language.
//!
//! The grammar follows §2–§4 of the paper:
//!
//! ```text
//! P ::= 0                                   terminated process
//!     | P | P                               concurrent composition
//!     | new x1 … xn [in] P                  local channel declaration
//!     | x!l[e1,…,en]                        asynchronous message
//!     | x?{ l1(ỹ) = P1, …, lk(ỹ) = Pk }     object
//!     | X[e1,…,en]                          instance of class
//!     | def X1(x̃) = P1 and … in P           definition of classes
//!     | export new x̃ [in] P                 make names network-visible
//!     | export def D in P                   make classes network-visible
//!     | import x from s in P                bind a remote name
//!     | import X from s in P                bind a remote class
//!     | if e then P else P                  builtin conditional (impl. ext.)
//!     | print(e,…) / println(e,…)           I/O-port output (impl. ext.)
//!     | let x = a!l[ẽ] in P                 synchronous-call sugar
//! ```
//!
//! Sugared forms accepted by the parser and eliminated by
//! [`crate::desugar`]:
//! * `x![ẽ]`       ⇒ `x!val[ẽ]`
//! * `x?(ỹ) = P`   ⇒ `x?{ val(ỹ) = P }`
//! * `let z = a!l[ẽ] in P` ⇒ `new r (a!l[ẽ,r] | r?(z) = P)`
//!
//! Located identifiers (`s.x`, `s.X`) never appear in source programs; they
//! are produced by the `import` translation (§4 of the paper) and live in
//! [`NameRef::Located`] / [`ClassRef::Located`].

use crate::pos::Span;
use std::collections::BTreeSet;
use std::fmt;

/// An interned-by-value identifier. Lower-case initial for names, labels and
/// sites; upper-case initial for class variables.
pub type Ident = String;

/// A reference to a channel name: either plain (bound locally or free) or
/// located at a remote site (`s.x`), as introduced by `import`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NameRef {
    /// A plain name `x`, implicitly located at the enclosing site.
    Plain(Ident),
    /// A located name `s.x`: `(s, x)`. Boxed, because it is rare and an
    /// expression is as large as its largest operand.
    Located(Box<(Ident, Ident)>),
}

impl NameRef {
    pub fn located(site: impl Into<Ident>, x: impl Into<Ident>) -> NameRef {
        NameRef::Located(Box::new((site.into(), x.into())))
    }

    /// The bare identifier part (without the site qualifier).
    pub fn ident(&self) -> &str {
        match self {
            NameRef::Plain(x) => x,
            NameRef::Located(sx) => &sx.1,
        }
    }

    /// The site qualifier, if any.
    pub fn site(&self) -> Option<&str> {
        match self {
            NameRef::Plain(_) => None,
            NameRef::Located(sx) => Some(&sx.0),
        }
    }
}

impl fmt::Display for NameRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameRef::Plain(x) => write!(f, "{x}"),
            NameRef::Located(sx) => write!(f, "{}.{}", sx.0, sx.1),
        }
    }
}

/// A reference to a class variable: plain `X` or located `s.X`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClassRef {
    Plain(Ident),
    Located(Ident, Ident),
}

impl ClassRef {
    pub fn ident(&self) -> &str {
        match self {
            ClassRef::Plain(x) | ClassRef::Located(_, x) => x,
        }
    }

    pub fn site(&self) -> Option<&str> {
        match self {
            ClassRef::Plain(_) => None,
            ClassRef::Located(s, _) => Some(s),
        }
    }
}

impl fmt::Display for ClassRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassRef::Plain(x) => write!(f, "{x}"),
            ClassRef::Located(s, x) => write!(f, "{s}.{x}"),
        }
    }
}

/// Literal constants of the builtin base types.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Unit,
    Int(i64),
    Bool(bool),
    Str(String),
    Float(f64),
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Unit => write!(f, "unit"),
            Lit::Int(i) => write!(f, "{i}"),
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Str(s) => write!(f, "{s:?}"),
            Lit::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// Builtin binary operators over base-type expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

impl BinOp {
    /// The concrete-syntax symbol for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Concat => "^",
        }
    }

    /// Binding strength; larger binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Concat => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }
}

/// Builtin unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

impl UnOp {
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "not",
        }
    }
}

/// Expressions occur as message arguments and in builtin positions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A channel name used as a first-class value.
    Name(NameRef),
    /// A literal constant.
    Lit(Lit),
    /// Builtin binary operation over base values (both operands share one
    /// allocation: a long operator chain is one node per operator).
    Bin(BinOp, Box<(Expr, Expr)>),
    /// Builtin unary operation.
    Un(UnOp, Box<Expr>),
}

impl Expr {
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Lit::Int(i))
    }

    pub fn boolean(b: bool) -> Expr {
        Expr::Lit(Lit::Bool(b))
    }

    pub fn name(x: impl Into<String>) -> Expr {
        Expr::Name(NameRef::Plain(x.into()))
    }

    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new((a, b)))
    }

    /// Free (plain) names of the expression, accumulated into `out`.
    pub fn free_names_into(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Expr::Name(NameRef::Plain(x)) => {
                out.insert(x.clone());
            }
            Expr::Name(NameRef::Located(..)) | Expr::Lit(_) => {}
            Expr::Bin(_, ab) => {
                ab.0.free_names_into(out);
                ab.1.free_names_into(out);
            }
            Expr::Un(_, a) => a.free_names_into(out),
        }
    }
}

/// One method of an object: `l(x1,…,xn) = P`.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    pub label: Ident,
    pub params: Vec<Ident>,
    pub body: Proc,
    pub span: Span,
}

/// One class of a definition block: `X(x1,…,xn) = P`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    pub name: Ident,
    pub params: Vec<Ident>,
    pub body: Proc,
    pub span: Span,
}

/// The label used by the `x![ẽ]` / `x?(ỹ)=P` sugar.
pub const VAL_LABEL: &str = "val";

/// A DiTyCO process.
#[derive(Debug, Clone, PartialEq)]
pub enum Proc {
    /// `0` — the terminated process.
    Nil,
    /// `P | Q` — concurrent composition (flattened n-ary).
    Par(Vec<Proc>),
    /// `new x1 … xn in P` — channel declaration.
    New {
        binders: Vec<Ident>,
        body: Box<Proc>,
        span: Span,
    },
    /// `x!l[e1,…,en]` — asynchronous message.
    Msg {
        target: NameRef,
        label: Ident,
        args: Vec<Expr>,
        span: Span,
    },
    /// `x?{…}` — object offering a collection of methods.
    Obj {
        target: NameRef,
        methods: Vec<Method>,
        span: Span,
    },
    /// `X[e1,…,en]` — instantiation of a class.
    Inst {
        class: ClassRef,
        args: Vec<Expr>,
        span: Span,
    },
    /// `def X1(x̃)=P1 and … in P`.
    Def {
        defs: Vec<ClassDef>,
        body: Box<Proc>,
        span: Span,
    },
    /// `export new x1 … xn in P` — declare names and publish them.
    ExportNew {
        binders: Vec<Ident>,
        body: Box<Proc>,
        span: Span,
    },
    /// `export def D in P` — define classes and publish them.
    ExportDef {
        defs: Vec<ClassDef>,
        body: Box<Proc>,
        span: Span,
    },
    /// `import x from s in P` — bind a remote name (code-shipping semantics).
    ImportName {
        name: Ident,
        site: Ident,
        body: Box<Proc>,
        span: Span,
    },
    /// `import X from s in P` — bind a remote class (code-fetching semantics).
    ImportClass {
        class: Ident,
        site: Ident,
        body: Box<Proc>,
        span: Span,
    },
    /// `if e then P else Q` — builtin conditional (implementation extension).
    If {
        cond: Expr,
        then_branch: Box<Proc>,
        else_branch: Box<Proc>,
        span: Span,
    },
    /// `print(ẽ)` / `println(ẽ)` — write to the site's I/O port.
    Print {
        args: Vec<Expr>,
        newline: bool,
        span: Span,
    },
    /// `let z = a!l[ẽ] in P` — synchronous-call sugar (§4 of the paper);
    /// eliminated by [`crate::desugar::desugar`].
    Let {
        binder: Ident,
        target: NameRef,
        label: Ident,
        args: Vec<Expr>,
        body: Box<Proc>,
        span: Span,
    },
}

impl Proc {
    /// Build an n-ary parallel composition, flattening nested `Par`s and
    /// dropping `Nil` components (structural-congruence monoid laws).
    pub fn par(procs: impl IntoIterator<Item = Proc>) -> Proc {
        let mut out = Vec::new();
        for p in procs {
            match p {
                Proc::Nil => {}
                Proc::Par(ps) => out.extend(ps),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Proc::Nil,
            1 => out.pop().expect("len checked"),
            _ => Proc::Par(out),
        }
    }

    /// The source span of the process (synthetic for `Nil`/`Par`).
    pub fn span(&self) -> Span {
        match self {
            Proc::Nil | Proc::Par(_) => Span::synthetic(),
            Proc::New { span, .. }
            | Proc::Msg { span, .. }
            | Proc::Obj { span, .. }
            | Proc::Inst { span, .. }
            | Proc::Def { span, .. }
            | Proc::ExportNew { span, .. }
            | Proc::ExportDef { span, .. }
            | Proc::ImportName { span, .. }
            | Proc::ImportClass { span, .. }
            | Proc::If { span, .. }
            | Proc::Print { span, .. }
            | Proc::Let { span, .. } => *span,
        }
    }

    /// Free plain names of the process (located names are constants and are
    /// not collected). Follows the binding structure of §2/§4.
    pub fn free_names(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        self.free_names_into(&mut out);
        out
    }

    fn free_names_into(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Proc::Nil => {}
            Proc::Par(ps) => {
                for p in ps {
                    p.free_names_into(out);
                }
            }
            Proc::New { binders, body, .. } | Proc::ExportNew { binders, body, .. } => {
                let mut inner = BTreeSet::new();
                body.free_names_into(&mut inner);
                for b in binders {
                    inner.remove(b);
                }
                out.extend(inner);
            }
            Proc::Msg { target, args, .. } => {
                if let NameRef::Plain(x) = target {
                    out.insert(x.clone());
                }
                for a in args {
                    a.free_names_into(out);
                }
            }
            Proc::Obj {
                target, methods, ..
            } => {
                if let NameRef::Plain(x) = target {
                    out.insert(x.clone());
                }
                for m in methods {
                    let mut inner = BTreeSet::new();
                    m.body.free_names_into(&mut inner);
                    for p in &m.params {
                        inner.remove(p);
                    }
                    out.extend(inner);
                }
            }
            Proc::Inst { args, .. } => {
                for a in args {
                    a.free_names_into(out);
                }
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                for d in defs {
                    let mut inner = BTreeSet::new();
                    d.body.free_names_into(&mut inner);
                    for p in &d.params {
                        inner.remove(p);
                    }
                    out.extend(inner);
                }
                body.free_names_into(out);
            }
            Proc::ImportName { name, body, .. } => {
                // `import x from s in P` binds x within P (to s.x).
                let mut inner = BTreeSet::new();
                body.free_names_into(&mut inner);
                inner.remove(name);
                out.extend(inner);
            }
            Proc::ImportClass { body, .. } => body.free_names_into(out),
            Proc::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                cond.free_names_into(out);
                then_branch.free_names_into(out);
                else_branch.free_names_into(out);
            }
            Proc::Print { args, .. } => {
                for a in args {
                    a.free_names_into(out);
                }
            }
            Proc::Let {
                binder,
                target,
                args,
                body,
                ..
            } => {
                if let NameRef::Plain(x) = target {
                    out.insert(x.clone());
                }
                for a in args {
                    a.free_names_into(out);
                }
                let mut inner = BTreeSet::new();
                body.free_names_into(&mut inner);
                inner.remove(binder);
                out.extend(inner);
            }
        }
    }

    /// Free class variables (plain only), following `def` binding structure.
    pub fn free_classes(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        self.free_classes_into(&mut out);
        out
    }

    fn free_classes_into(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Proc::Nil | Proc::Msg { .. } | Proc::Print { .. } => {}
            Proc::Par(ps) => {
                for p in ps {
                    p.free_classes_into(out);
                }
            }
            Proc::New { body, .. } | Proc::ExportNew { body, .. } => body.free_classes_into(out),
            Proc::Obj { methods, .. } => {
                for m in methods {
                    m.body.free_classes_into(out);
                }
            }
            Proc::Inst { class, .. } => {
                if let ClassRef::Plain(x) = class {
                    out.insert(x.clone());
                }
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                // All Xi are in scope in every body (mutual recursion) and in P.
                let mut inner = BTreeSet::new();
                for d in defs {
                    d.body.free_classes_into(&mut inner);
                }
                body.free_classes_into(&mut inner);
                for d in defs {
                    inner.remove(&d.name);
                }
                out.extend(inner);
            }
            Proc::ImportName { body, .. } => body.free_classes_into(out),
            Proc::ImportClass { class, body, .. } => {
                let mut inner = BTreeSet::new();
                body.free_classes_into(&mut inner);
                inner.remove(class);
                out.extend(inner);
            }
            Proc::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.free_classes_into(out);
                else_branch.free_classes_into(out);
            }
            Proc::Let { body, .. } => body.free_classes_into(out),
        }
    }

    /// Number of AST nodes (for statistics and fuzz budgeting).
    pub fn size(&self) -> usize {
        match self {
            Proc::Nil => 1,
            Proc::Par(ps) => 1 + ps.iter().map(Proc::size).sum::<usize>(),
            Proc::New { body, .. }
            | Proc::ExportNew { body, .. }
            | Proc::ImportName { body, .. }
            | Proc::ImportClass { body, .. } => 1 + body.size(),
            Proc::Msg { .. } | Proc::Inst { .. } | Proc::Print { .. } => 1,
            Proc::Obj { methods, .. } => 1 + methods.iter().map(|m| m.body.size()).sum::<usize>(),
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                1 + defs.iter().map(|d| d.body.size()).sum::<usize>() + body.size()
            }
            Proc::If {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.size() + else_branch.size(),
            Proc::Let { body, .. } => 1 + body.size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(x: &str) -> Proc {
        Proc::Msg {
            target: NameRef::Plain(x.into()),
            label: "val".into(),
            args: vec![],
            span: Span::synthetic(),
        }
    }

    #[test]
    fn par_flattens_and_drops_nil() {
        let p = Proc::par([
            Proc::Nil,
            msg("a"),
            Proc::par([msg("b"), Proc::Nil]),
            Proc::Nil,
        ]);
        match &p {
            Proc::Par(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected Par, got {other:?}"),
        }
        assert_eq!(Proc::par([Proc::Nil, Proc::Nil]), Proc::Nil);
        assert_eq!(Proc::par([msg("a")]), msg("a"));
    }

    #[test]
    fn free_names_respects_new_binding() {
        // new x (x!val[] | y!val[])  — only y is free.
        let p = Proc::New {
            binders: vec!["x".into()],
            body: Box::new(Proc::par([msg("x"), msg("y")])),
            span: Span::synthetic(),
        };
        let fns = p.free_names();
        assert!(fns.contains("y"));
        assert!(!fns.contains("x"));
    }

    #[test]
    fn free_names_of_object_methods() {
        // x?{ l(a) = a!val[] | b!val[] } — x and b free, a bound.
        let p = Proc::Obj {
            target: NameRef::Plain("x".into()),
            methods: vec![Method {
                label: "l".into(),
                params: vec!["a".into()],
                body: Proc::par([msg("a"), msg("b")]),
                span: Span::synthetic(),
            }],
            span: Span::synthetic(),
        };
        let fns = p.free_names();
        assert_eq!(
            fns.into_iter().collect::<Vec<_>>(),
            vec!["b".to_string(), "x".to_string()]
        );
    }

    #[test]
    fn free_classes_mutual_recursion() {
        // def X() = Y[] and Y() = X[] in Z[]  — only Z free.
        let inst = |c: &str| Proc::Inst {
            class: ClassRef::Plain(c.into()),
            args: vec![],
            span: Span::synthetic(),
        };
        let p = Proc::Def {
            defs: vec![
                ClassDef {
                    name: "X".into(),
                    params: vec![],
                    body: inst("Y"),
                    span: Span::synthetic(),
                },
                ClassDef {
                    name: "Y".into(),
                    params: vec![],
                    body: inst("X"),
                    span: Span::synthetic(),
                },
            ],
            body: Box::new(inst("Z")),
            span: Span::synthetic(),
        };
        let fcs = p.free_classes();
        assert_eq!(fcs.into_iter().collect::<Vec<_>>(), vec!["Z".to_string()]);
    }

    #[test]
    fn import_name_binds_in_body() {
        let p = Proc::ImportName {
            name: "x".into(),
            site: "server".into(),
            body: Box::new(msg("x")),
            span: Span::synthetic(),
        };
        assert!(p.free_names().is_empty());
    }

    #[test]
    fn located_names_are_constants() {
        let p = Proc::Msg {
            target: NameRef::located("s", "x"),
            label: "l".into(),
            args: vec![Expr::name("v")],
            span: Span::synthetic(),
        };
        let fns = p.free_names();
        assert!(fns.contains("v"));
        assert!(!fns.contains("x"));
    }
}
