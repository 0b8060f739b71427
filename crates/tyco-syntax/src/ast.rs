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
use std::borrow::Borrow;
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
    /// A located name `s.x`: `(s, x)`. Boxed, because it is rare: a
    /// `NameRef` is the size of the `String` of a plain one.
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
///
/// An expression is its nodes in post-order, operands before their
/// operator — the order the VM's operand stack evaluates them in — in
/// one allocation, so every pass over it is a forward (or, for names in
/// right-operand-first order, a backward) scan that neither recurses nor
/// chases a pointer per operator. A lone operand, which most arguments
/// are, is held inline and allocates nothing of its own. Build one with
/// the constructors below or an [`ExprBuilder`]; read it with
/// [`Expr::terms`].
#[derive(Debug, Clone, PartialEq)]
pub struct Expr(Repr);

/// How an [`Expr`] is held. A lone operand is always `Name` or `Lit` and
/// anything longer `Flat` — [`ExprBuilder::finish`] decides — so one
/// expression has one representation and the derived equality is
/// structural.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// A lone name.
    Name(NameRef),
    /// A lone literal.
    Lit(Lit),
    /// Two or more nodes: at least one operator.
    Flat {
        nodes: Box<[Node]>,
        /// The names and string literals the `Leaf` nodes index, in
        /// node order.
        leaves: Box<[Leaf]>,
    },
}

/// One node of a compound expression: 16 bytes (checked below). A name
/// or a string literal owns heap text, so it sits in the expression's
/// side table and the node holds its index there.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Unit,
    Int(i64),
    Bool(bool),
    Float(f64),
    Leaf(u32),
    Bin(BinOp),
    Un(UnOp),
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// A name or a string literal of a compound expression.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Name(NameRef),
    Str(String),
}

/// One node of an expression as the passes read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Term<'a> {
    /// A channel name used as a first-class value.
    Name(&'a NameRef),
    Unit,
    Int(i64),
    Bool(bool),
    Float(f64),
    Str(&'a str),
    /// A builtin binary operator over the two values below it.
    Bin(BinOp),
    /// A builtin unary operator over the value below it.
    Un(UnOp),
}

impl Expr {
    pub fn int(i: i64) -> Expr {
        Expr::lit(Lit::Int(i))
    }

    pub fn boolean(b: bool) -> Expr {
        Expr::lit(Lit::Bool(b))
    }

    pub fn lit(l: Lit) -> Expr {
        Expr(Repr::Lit(l))
    }

    pub fn name(x: impl Into<String>) -> Expr {
        Expr(Repr::Name(NameRef::Plain(x.into())))
    }

    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        let mut e = ExprBuilder::default();
        e.extend(&a);
        e.extend(&b);
        e.bin(op);
        e.finish()
    }

    pub fn un(op: UnOp, a: Expr) -> Expr {
        let mut e = ExprBuilder::default();
        e.extend(&a);
        e.un(op);
        e.finish()
    }

    /// The nodes in post-order: operands before their operator. Read
    /// backwards, the names come right operand first.
    pub fn terms(&self) -> Terms<'_> {
        match &self.0 {
            Repr::Name(r) => Terms::one(Term::Name(r)),
            Repr::Lit(l) => Terms::one(lit_term(l)),
            Repr::Flat { nodes, leaves } => Terms {
                lone: None,
                nodes: nodes.iter(),
                leaves,
            },
        }
    }

    /// The expression's only node, if it is a lone operand.
    pub fn atom(&self) -> Option<Term<'_>> {
        match &self.0 {
            Repr::Name(r) => Some(Term::Name(r)),
            Repr::Lit(l) => Some(lit_term(l)),
            Repr::Flat { .. } => None,
        }
    }

    /// The same expression with every name `r` replaced by `f(r)`.
    pub fn map_names(&self, mut f: impl FnMut(&NameRef) -> NameRef) -> Expr {
        let mut e = self.clone();
        e.names_mut().for_each(|r| *r = f(r));
        e
    }

    /// The names of the expression, in node order, read off its side
    /// table: no scan of the operators.
    pub fn names(&self) -> impl Iterator<Item = &NameRef> {
        let (lone, leaves): (_, &[Leaf]) = match &self.0 {
            Repr::Name(r) => (Some(r), &[]),
            Repr::Lit(_) => (None, &[]),
            Repr::Flat { leaves, .. } => (None, leaves),
        };
        let named = leaves.iter().filter_map(|leaf| match leaf {
            Leaf::Name(r) => Some(r),
            Leaf::Str(_) => None,
        });
        lone.into_iter().chain(named)
    }

    /// [`Expr::names`], to rewrite in place.
    pub fn names_mut(&mut self) -> impl Iterator<Item = &mut NameRef> {
        let (lone, leaves): (_, &mut [Leaf]) = match &mut self.0 {
            Repr::Name(r) => (Some(r), &mut []),
            Repr::Lit(_) => (None, &mut []),
            Repr::Flat { leaves, .. } => (None, leaves),
        };
        let named = leaves.iter_mut().filter_map(|leaf| match leaf {
            Leaf::Name(r) => Some(r),
            Leaf::Str(_) => None,
        });
        lone.into_iter().chain(named)
    }
}

fn lit_term(l: &Lit) -> Term<'_> {
    match l {
        Lit::Unit => Term::Unit,
        Lit::Int(i) => Term::Int(*i),
        Lit::Bool(b) => Term::Bool(*b),
        Lit::Float(x) => Term::Float(*x),
        Lit::Str(s) => Term::Str(s),
    }
}

/// The nodes of an [`Expr`], from [`Expr::terms`].
#[derive(Debug, Clone)]
pub struct Terms<'a> {
    /// The node of a lone operand, until it is read.
    lone: Option<Term<'a>>,
    nodes: std::slice::Iter<'a, Node>,
    leaves: &'a [Leaf],
}

impl<'a> Terms<'a> {
    fn one(t: Term<'a>) -> Terms<'a> {
        Terms {
            lone: Some(t),
            nodes: [].iter(),
            leaves: &[],
        }
    }

    fn term(&self, n: &Node) -> Term<'a> {
        match *n {
            Node::Unit => Term::Unit,
            Node::Int(i) => Term::Int(i),
            Node::Bool(b) => Term::Bool(b),
            Node::Float(x) => Term::Float(x),
            Node::Leaf(i) => match &self.leaves[i as usize] {
                Leaf::Name(r) => Term::Name(r),
                Leaf::Str(s) => Term::Str(s),
            },
            Node::Bin(op) => Term::Bin(op),
            Node::Un(op) => Term::Un(op),
        }
    }
}

impl<'a> Iterator for Terms<'a> {
    type Item = Term<'a>;

    #[inline]
    fn next(&mut self) -> Option<Term<'a>> {
        if let Some(t) = self.lone.take() {
            return Some(t);
        }
        self.nodes.next().map(|n| self.term(n))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.lone.is_some() as usize + self.nodes.len();
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Terms<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        if let Some(t) = self.lone.take() {
            return Some(t);
        }
        self.nodes.next_back().map(|n| self.term(n))
    }
}

/// Builds an [`Expr`] node by node in post-order: push the operands,
/// then their operator. The parser emits straight into one as it climbs
/// precedence, so an expression's nodes are written once, into the
/// buffer that becomes the expression. A lone operand stays inline.
#[derive(Debug, Default)]
pub struct ExprBuilder {
    /// The first node, while it is the only one.
    lone: Option<Repr>,
    nodes: Vec<Node>,
    leaves: Vec<Leaf>,
    /// Values an evaluation of the nodes so far would leave on a stack.
    depth: usize,
}

impl ExprBuilder {
    pub fn name(&mut self, r: NameRef) {
        self.operand(Repr::Name(r));
    }

    pub fn lit(&mut self, l: Lit) {
        self.operand(Repr::Lit(l));
    }

    /// # Panics
    /// Unless two operands are waiting for it.
    pub fn bin(&mut self, op: BinOp) {
        assert!(self.depth >= 2, "`{}` needs two operands", op.symbol());
        self.depth -= 1;
        self.spill();
        self.nodes.push(Node::Bin(op));
    }

    /// # Panics
    /// Unless an operand is waiting for it.
    pub fn un(&mut self, op: UnOp) {
        assert!(self.depth >= 1, "`{}` needs an operand", op.symbol());
        self.spill();
        self.nodes.push(Node::Un(op));
    }

    /// Push every node of `e`.
    fn extend(&mut self, e: &Expr) {
        for t in e.terms() {
            match t {
                Term::Name(r) => self.name(r.clone()),
                Term::Unit => self.lit(Lit::Unit),
                Term::Int(i) => self.lit(Lit::Int(i)),
                Term::Bool(b) => self.lit(Lit::Bool(b)),
                Term::Float(x) => self.lit(Lit::Float(x)),
                Term::Str(s) => self.lit(Lit::Str(s.to_string())),
                Term::Bin(op) => self.bin(op),
                Term::Un(op) => self.un(op),
            }
        }
    }

    /// # Panics
    /// Unless the nodes pushed make exactly one value.
    pub fn finish(self) -> Expr {
        assert_eq!(self.depth, 1, "an expression is one value");
        Expr(match self.lone {
            Some(lone) => lone,
            None => Repr::Flat {
                nodes: self.nodes.into_boxed_slice(),
                leaves: self.leaves.into_boxed_slice(),
            },
        })
    }

    fn operand(&mut self, a: Repr) {
        self.depth += 1;
        if self.lone.is_none() && self.nodes.is_empty() {
            self.lone = Some(a);
        } else {
            self.spill();
            let n = self.node(a);
            self.nodes.push(n);
        }
    }

    /// Move a lone first operand into the node array: a second node came.
    fn spill(&mut self) {
        if let Some(a) = self.lone.take() {
            let n = self.node(a);
            self.nodes.push(n);
        }
    }

    fn node(&mut self, a: Repr) -> Node {
        let leaf = match a {
            Repr::Lit(Lit::Unit) => return Node::Unit,
            Repr::Lit(Lit::Int(i)) => return Node::Int(i),
            Repr::Lit(Lit::Bool(b)) => return Node::Bool(b),
            Repr::Lit(Lit::Float(x)) => return Node::Float(x),
            Repr::Lit(Lit::Str(s)) => Leaf::Str(s),
            Repr::Name(r) => Leaf::Name(r),
            Repr::Flat { .. } => unreachable!("an operand is one node"),
        };
        let i = u32::try_from(self.leaves.len()).expect("fewer than 2^32 names in one expression");
        self.leaves.push(leaf);
        Node::Leaf(i)
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
        let plain = |r: &NameRef| {
            if let NameRef::Plain(x) = r {
                out.insert(x.clone());
            }
        };
        self.free_occurrences(plain, |_| {});
        out
    }

    /// Free class variables (plain only), following `def` binding structure.
    pub fn free_classes(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        let plain = |c: &ClassRef| {
            if let ClassRef::Plain(x) = c {
                out.insert(x.clone());
            }
        };
        self.free_occurrences(|_| {}, plain);
        out
    }

    /// Number of AST nodes (for statistics and fuzz budgeting).
    pub fn size(&self) -> usize {
        let mut n = 1;
        self.parts(&mut |part| {
            if let Part::Sub(q) = part {
                n += q.size();
            }
        });
        n
    }
}

/// What a construct binds around some of its sub-processes.
#[derive(Debug, Clone, Copy)]
pub enum Binder<'a> {
    /// Names: `new x̃`, a method's or a class's parameters, an imported
    /// name, a `let`'s result.
    Names(&'a [Ident]),
    /// A `def` group's classes: in every body of the group (mutual
    /// recursion) and in the continuation.
    Classes(&'a [ClassDef]),
    /// An imported class.
    Class(&'a Ident),
}

/// The binders in scope at a point of a walk, innermost last: one stack
/// of names and one of classes, pushed at a `Bind` and cut back at its
/// `Unbind`; no set per scope. A `&` walk keeps `&str`s into the tree, a
/// `&mut` walk copies, as it cannot borrow the tree it rewrites.
#[derive(Default)]
struct Scope<K> {
    names: Vec<K>,
    classes: Vec<K>,
}

impl<K: Borrow<str>> Scope<K> {
    fn bind<'b>(&mut self, b: Binder<'b>, key: impl Fn(&'b Ident) -> K) {
        match b {
            Binder::Names(xs) => self.names.extend(xs.iter().map(key)),
            Binder::Classes(ds) => self.classes.extend(ds.iter().map(|d| key(&d.name))),
            Binder::Class(x) => self.classes.push(key(x)),
        }
    }

    fn unbind(&mut self, b: Binder<'_>) {
        let (stack, n) = match b {
            Binder::Names(xs) => (&mut self.names, xs.len()),
            Binder::Classes(ds) => (&mut self.classes, ds.len()),
            Binder::Class(_) => (&mut self.classes, 1),
        };
        stack.truncate(stack.len() - n);
    }

    fn binds_name(&self, r: &NameRef) -> bool {
        matches!(r, NameRef::Plain(x) if self.names.iter().rev().any(|b| b.borrow() == x.as_str()))
    }

    fn binds_class(&self, c: &ClassRef) -> bool {
        matches!(c, ClassRef::Plain(x) if self.classes.iter().rev().any(|b| b.borrow() == x.as_str()))
    }
}

/// `Bind(b)`, `Sub(q)`, `Unbind(b)`: the sub-process `q` under what `b`
/// binds.
macro_rules! under {
    ($f:ident, $b:expr, $q:expr) => {{
        let b = $b;
        $f(Bind(b));
        $f(Sub($q));
        $f(Unbind(b));
    }};
}

/// States the binding structure of every [`Proc`] construct — the one
/// `match` over its constructors that knows what each binds — and builds
/// the scope-aware walk on it. Invoked once for `&` and once, with `mut`,
/// for `&mut`, so the two cannot drift apart.
macro_rules! binding_structure {
    (
        $(#[$part_doc:meta])* enum $Part:ident<$l:lifetime>;
        $(#[$parts_doc:meta])* fn $parts:ident $(<$a:lifetime>)?;
        $(#[$walk_doc:meta])* fn $walk:ident;
        names: $names:ident, scope: $K:ty = $key:path $(, $mut:ident)?
    ) => {
        $(#[$part_doc])*
        #[derive(Debug)]
        pub enum $Part<'a> {
            /// A name the construct holds: a subject, or a name of an
            /// expression.
            Name(&'a $($mut)? NameRef),
            /// A class the construct instantiates.
            Class(&'a $($mut)? ClassRef),
            /// A binder: in scope from here up to the `Unbind` of the same
            /// binder.
            Bind(Binder<'a>),
            /// A sub-process.
            Sub(&'a $($mut)? Proc),
            /// The end of a `Bind`'s scope.
            Unbind(Binder<'a>),
        }

        impl Proc {
            $(#[$parts_doc])*
            pub fn $parts $(<$a>)? (&$($a)? $($mut)? self, f: &mut impl FnMut($Part<$l>)) {
                use $Part::{Bind, Class, Name, Sub, Unbind};
                use std::slice::from_ref;
                match self {
                    Proc::Nil => {}
                    Proc::Par(ps) => {
                        for q in ps {
                            f(Sub(q));
                        }
                    }
                    Proc::New { binders, body, .. } | Proc::ExportNew { binders, body, .. } => {
                        under!(f, Binder::Names(binders), body)
                    }
                    Proc::Msg { target, args, .. } => {
                        f(Name(target));
                        args.into_iter().flat_map(Expr::$names).for_each(|r| f(Name(r)));
                    }
                    Proc::Obj { target, methods, .. } => {
                        f(Name(target));
                        for m in methods {
                            under!(f, Binder::Names(&m.params), &$($mut)? m.body);
                        }
                    }
                    Proc::Inst { class, args, .. } => {
                        f(Class(class));
                        args.into_iter().flat_map(Expr::$names).for_each(|r| f(Name(r)));
                    }
                    Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                        f(Bind(Binder::Classes(defs)));
                        for d in &$($mut)? *defs {
                            under!(f, Binder::Names(&d.params), &$($mut)? d.body);
                        }
                        f(Sub(body));
                        f(Unbind(Binder::Classes(defs)));
                    }
                    Proc::ImportName { name, body, .. } => {
                        under!(f, Binder::Names(from_ref(name)), body)
                    }
                    Proc::ImportClass { class, body, .. } => under!(f, Binder::Class(class), body),
                    Proc::If { cond, then_branch, else_branch, .. } => {
                        cond.$names().for_each(|r| f(Name(r)));
                        f(Sub(then_branch));
                        f(Sub(else_branch));
                    }
                    Proc::Print { args, .. } => {
                        args.into_iter().flat_map(Expr::$names).for_each(|r| f(Name(r)))
                    }
                    Proc::Let { binder, target, args, body, .. } => {
                        f(Name(target));
                        args.into_iter().flat_map(Expr::$names).for_each(|r| f(Name(r)));
                        under!(f, Binder::Names(from_ref(binder)), body)
                    }
                }
            }

            $(#[$walk_doc])*
            pub fn $walk $(<$a>)? (
                &$($a)? $($mut)? self,
                mut name: impl FnMut(&$l $($mut)? NameRef),
                mut class: impl FnMut(&$l $($mut)? ClassRef),
            ) {
                fn walk $(<$a>)? (
                    p: &$($a)? $($mut)? Proc,
                    scope: &mut Scope<$K>,
                    name: &mut impl FnMut(&$l $($mut)? NameRef),
                    class: &mut impl FnMut(&$l $($mut)? ClassRef),
                ) {
                    p.$parts(&mut |part| match part {
                        $Part::Name(r) => {
                            if !scope.binds_name(r) {
                                name(r)
                            }
                        }
                        $Part::Class(c) => {
                            if !scope.binds_class(c) {
                                class(c)
                            }
                        }
                        $Part::Bind(b) => scope.bind(b, $key),
                        $Part::Sub(q) => walk(q, scope, name, class),
                        $Part::Unbind(b) => scope.unbind(b),
                    })
                }
                walk(self, &mut Scope::default(), &mut name, &mut class)
            }
        }
    };
}

binding_structure! {
    /// One part of a process construct, as [`Proc::parts`] lists it.
    enum Part<'a>;
    /// The construct's parts in source order: the occurrences it holds,
    /// and each sub-process between a `Bind` and an `Unbind` of what the
    /// construct binds there (nothing, for `|` and `if`). This is the one
    /// statement of the binding structure of §2–§4.
    fn parts<'a>;
    /// Calls `name` on every free name occurrence and `class` on every
    /// free class occurrence, in source order, in one pass: a plain
    /// identifier no binder in scope captures, or a located one (`s.x`
    /// is a constant, never bound).
    fn free_occurrences;
    names: names, scope: &'a str = String::as_str
}

binding_structure! {
    /// [`Part`] through `&mut`, from [`Proc::parts_mut`].
    enum PartMut<'_>;
    /// [`Proc::parts`], to rewrite in place.
    fn parts_mut;
    /// [`Proc::free_occurrences`], to rewrite each in place.
    fn free_occurrences_mut;
    names: names_mut, scope: Ident = Ident::clone, mut
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
    fn an_expression_is_its_nodes_in_post_order() {
        // (a + 1) * -b
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::name("a"), Expr::int(1)),
            Expr::un(UnOp::Neg, Expr::name("b")),
        );
        let (a, b) = (NameRef::Plain("a".into()), NameRef::Plain("b".into()));
        assert!(e.terms().eq([
            Term::Name(&a),
            Term::Int(1),
            Term::Bin(BinOp::Add),
            Term::Name(&b),
            Term::Un(UnOp::Neg),
            Term::Bin(BinOp::Mul),
        ]));
        assert_eq!(e.atom(), None);
        // Backwards, the names come right operand first.
        let names: Vec<&str> = (e.terms().rev())
            .filter_map(|t| match t {
                Term::Name(r) => Some(r.ident()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["b", "a"]);
        let located = e.map_names(|r| NameRef::located("s", r.ident()));
        assert_eq!(crate::pretty::pretty_expr(&located), "(s.a + 1) * -s.b");
        // A lone operand is held inline, however it was built.
        let mut one = ExprBuilder::default();
        one.name(a.clone());
        assert_eq!(one.finish(), Expr::name("a"));
        assert_eq!(Expr::name("a").atom(), Some(Term::Name(&a)));
    }

    #[test]
    #[should_panic(expected = "needs two operands")]
    fn an_operator_needs_its_operands() {
        let mut e = ExprBuilder::default();
        e.lit(Lit::Int(1));
        e.bin(BinOp::Add);
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
