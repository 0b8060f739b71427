//! The usage pass: one walk over the desugared source that records how
//! every `new` name, class and method label is used, then one worklist
//! that decides which code is live. What can never take part in a
//! reduction is reported with its source position (`ditico check
//! --lint`).
//!
//! **Binders.** A `new`-bound name that is only ever a message target, is
//! never the subject of an object and never escapes denotes messages no
//! object can receive (COMM can never fire); dually for a name that only
//! an object waits on. A name escapes when it occurs as a value (an
//! argument, a condition, a printed operand): a method parameter
//! elsewhere may alias it, so nothing is said about it. Method and class
//! parameters and `import`/`export` binders are never reported. These
//! facts are about the text of the binder's scope, dead code included.
//!
//! **Liveness.** The top-level body is live. A class body is live once
//! live code instantiates the class, exports it, or creates a closure (a
//! forked component, an object, a class group) that names it: that is
//! where its class word escapes. A method body is live once live code
//! sends its label, or once the world is open: live code imports,
//! exports or names a located `s.x`, so a peer may send any label. Of an
//! `if` on a boolean literal only the taken arm is live. Over live code
//! the pass reports classes never used, and in a closed world methods
//! whose label is never sent and labels no live object defines.
//!
//! Its unit cases are the `usage_cases!` table in `lib.rs`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use tyco_syntax::ast::{ClassRef, Expr, Ident, NameRef, Proc, Term};
use tyco_syntax::{Pos, Span};

/// What a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// Messages are sent on a `new` name no object listens on, and it
    /// never escapes.
    OrphanMessage,
    /// An object waits on a `new` name no message targets, and it never
    /// escapes.
    OrphanObject,
    /// A live object's method whose label live code never sends (closed
    /// world only).
    UnreachableMethod,
    /// A class created by live code that is never instantiated, captured
    /// or exported.
    NeverInstantiatedClass,
    /// A label live code sends that no live object defines (closed world
    /// only).
    OrphanSend,
}

impl FindingKind {
    /// Stable machine-readable tag (`--json` output, CI gating).
    pub fn tag(self) -> &'static str {
        match self {
            FindingKind::OrphanMessage => "orphan-message",
            FindingKind::OrphanObject => "orphan-object",
            FindingKind::UnreachableMethod => "unreachable-method",
            FindingKind::NeverInstantiatedClass => "never-instantiated-class",
            FindingKind::OrphanSend => "orphan-send",
        }
    }
}

/// One finding: a binder, method, class or send that can never take part
/// in a reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub kind: FindingKind,
    /// A binder or class name, `target.label` for a method, or a label.
    pub subject: String,
    pub detail: String,
    /// Where the binder, method, class or first send is (`0:0` when the
    /// tree was not parsed from text).
    pub at: Pos,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: `{}`: {}",
            self.at.line,
            self.at.col,
            self.kind.tag(),
            self.subject,
            self.detail
        )
    }
}

/// The findings for a program, in source order.
pub fn findings(p: &Proc) -> Vec<Finding> {
    let core = if tyco_syntax::desugar::is_core(p) {
        None
    } else {
        Some(tyco_syntax::desugar::desugar(p.clone()))
    };
    let mut w = Walk {
        here: Span::synthetic().start,
        ..Walk::default()
    };
    w.units.push(Vec::new());
    w.walk(core.as_ref().unwrap_or(p), 0);
    let mut out = w.solve();
    out.sort_by(|a, b| (a.at, a.kind, &a.subject).cmp(&(b.at, b.kind, &b.subject)));
    out
}

/// The code of the top-level body, of one method body or of one class
/// body, with its forked components: it runs as soon as it is live.
type Unit = u32;
/// Where the untaken arm of an `if` on a literal records its facts: no
/// one reads them.
const DEAD: Unit = Unit::MAX;

/// What a unit does once it runs.
enum Fact<'a> {
    Send(&'a str, Pos),
    /// An object is created, with methods `methods[from..to]`.
    Object(u32, u32),
    /// A class group is created, classes `classes[from..to]`.
    Group(u32, u32),
    /// A class is instantiated or escapes.
    Use(u32),
    /// Network code: a peer may send any label.
    Open,
}

struct MethodInfo<'a> {
    target: &'a str,
    label: &'a str,
    body: Unit,
    at: Pos,
}

struct ClassInfo<'a> {
    name: &'a str,
    body: Unit,
    at: Pos,
}

/// How a tracked `new` name occurs in its scope.
#[derive(Default, Clone, Copy)]
struct Binder {
    sent: bool,
    received: bool,
    escaped: bool,
}

/// Scopes are keyed by identifiers borrowed from the tree; `None` binds a
/// name the pass does not track (a parameter, an import, an export).
#[derive(Default)]
struct Walk<'a> {
    units: Vec<Vec<Fact<'a>>>,
    methods: Vec<MethodInfo<'a>>,
    classes: Vec<ClassInfo<'a>>,
    names: HashMap<&'a str, Vec<Option<usize>>>,
    class_scope: HashMap<&'a str, Vec<Option<u32>>>,
    /// The `new` names in scope, innermost last.
    binders: Vec<Binder>,
    /// Classes named since the innermost enclosing closure began, in any
    /// order and possibly repeated; a closure's captures are those of
    /// them bound outside it (ids are allocated in walk order).
    free: Vec<u32>,
    /// The position of the innermost enclosing node read from text.
    here: Pos,
    findings: Vec<Finding>,
}

impl<'a> Walk<'a> {
    fn unit(&mut self) -> Unit {
        self.units.push(Vec::new());
        (self.units.len() - 1) as Unit
    }

    fn fact(&mut self, unit: Unit, f: Fact<'a>) {
        if let Some(facts) = self.units.get_mut(unit as usize) {
            facts.push(f);
        }
    }

    fn bind<T>(scope: &mut HashMap<&'a str, Vec<Option<T>>>, x: &'a str, v: Option<T>) {
        scope.entry(x).or_default().push(v);
    }

    fn unbind<T>(scope: &mut HashMap<&'a str, Vec<Option<T>>>, x: &str) {
        if let Some(stack) = scope.get_mut(x) {
            stack.pop();
        }
    }

    /// Walk with `xs` bound to names the pass does not track.
    fn untracked(&mut self, xs: &'a [Ident], f: impl FnOnce(&mut Self)) {
        for x in xs {
            Self::bind(&mut self.names, x, None);
        }
        f(self);
        for x in xs.iter().rev() {
            Self::unbind(&mut self.names, x);
        }
    }

    /// Where a node starts; a desugared node is where its source is.
    fn at(&self, span: Span) -> Pos {
        if span.is_synthetic() {
            self.here
        } else {
            span.start
        }
    }

    fn mark(&mut self, x: &str, f: impl FnOnce(&mut Binder)) {
        if let Some(&Some(b)) = self.names.get(x).and_then(|s| s.last()) {
            f(&mut self.binders[b]);
        }
    }

    fn target(&mut self, r: &NameRef, unit: Unit, f: impl FnOnce(&mut Binder)) {
        match r {
            NameRef::Plain(x) => self.mark(x, f),
            NameRef::Located(_) => self.fact(unit, Fact::Open),
        }
    }

    /// Every plain name in an expression escapes as a value. Names are
    /// visited right operand first, in reverse post-order.
    fn expr(&mut self, e: &Expr, unit: Unit) {
        for t in e.terms().rev() {
            if let Term::Name(r) = t {
                self.target(r, unit, |b| b.escaped = true);
            }
        }
    }

    /// Make `free[from..]` a set of the classes bound before class `start`.
    fn settle(&mut self, from: usize, start: u32) {
        let mut tail = self.free.split_off(from);
        tail.retain(|&c| c < start);
        tail.sort_unstable();
        tail.dedup();
        self.free.append(&mut tail);
    }

    /// Walk the body of a closure created in `unit` with `f`: every class
    /// bound before class `start` that the body names is captured.
    fn closure(&mut self, unit: Unit, start: u32, f: impl FnOnce(&mut Self)) {
        let from = self.free.len();
        f(self);
        self.settle(from, start);
        for i in from..self.free.len() {
            let c = self.free[i];
            self.fact(unit, Fact::Use(c));
        }
    }

    fn walk(&mut self, p: &'a Proc, unit: Unit) {
        let outer = self.here;
        self.here = self.at(p.span());
        match p {
            Proc::Nil => {}
            Proc::Par(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    if i == 0 {
                        self.walk(q, unit);
                    } else {
                        let start = self.classes.len() as u32;
                        self.closure(unit, start, |w| w.walk(q, unit));
                    }
                }
            }
            Proc::New { binders, body, .. } => {
                let first = self.binders.len();
                for (i, b) in binders.iter().enumerate() {
                    self.binders.push(Binder::default());
                    Self::bind(&mut self.names, b, Some(first + i));
                }
                self.walk(body, unit);
                for b in binders.iter().rev() {
                    Self::unbind(&mut self.names, b);
                }
                let at = self.here;
                for (name, u) in binders.iter().zip(self.binders.drain(first..)) {
                    let (kind, detail) = match (u.sent, u.received, u.escaped) {
                        (true, false, false) => (
                            FindingKind::OrphanMessage,
                            "messages can never be received: no object listens on it and it never escapes",
                        ),
                        (false, true, false) => (
                            FindingKind::OrphanObject,
                            "the object can never run: no message targets it and it never escapes",
                        ),
                        _ => continue,
                    };
                    self.findings.push(Finding {
                        kind,
                        subject: name.clone(),
                        detail: detail.to_string(),
                        at,
                    });
                }
            }
            Proc::ExportNew { binders, body, .. } => {
                self.fact(unit, Fact::Open);
                self.untracked(binders, |w| w.walk(body, unit));
            }
            Proc::Msg {
                target,
                label,
                args,
                ..
            } => {
                self.target(target, unit, |b| b.sent = true);
                self.fact(unit, Fact::Send(label, self.here));
                for a in args {
                    self.expr(a, unit);
                }
            }
            Proc::Obj {
                target, methods, ..
            } => {
                self.target(target, unit, |b| b.received = true);
                let from = self.methods.len() as u32;
                let start = self.classes.len() as u32;
                self.closure(unit, start, |w| {
                    for m in methods {
                        let body = w.unit();
                        w.methods.push(MethodInfo {
                            target: target.ident(),
                            label: &m.label,
                            body,
                            at: w.at(m.span),
                        });
                        w.untracked(&m.params, |w| w.walk(&m.body, body));
                    }
                });
                self.fact(unit, Fact::Object(from, self.methods.len() as u32));
            }
            Proc::Inst { class, args, .. } => {
                for a in args {
                    self.expr(a, unit);
                }
                match class {
                    ClassRef::Plain(x) => {
                        if let Some(&Some(c)) =
                            self.class_scope.get(x.as_str()).and_then(|s| s.last())
                        {
                            self.free.push(c);
                            self.fact(unit, Fact::Use(c));
                        }
                    }
                    ClassRef::Located(..) => self.fact(unit, Fact::Open),
                }
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                let from = self.free.len();
                let start = self.classes.len() as u32;
                for (d, id) in defs.iter().zip(start..) {
                    let body = self.unit();
                    let at = self.at(d.span);
                    self.classes.push(ClassInfo {
                        name: &d.name,
                        body,
                        at,
                    });
                    Self::bind(&mut self.class_scope, &d.name, Some(id));
                }
                let end = self.classes.len() as u32;
                self.closure(unit, start, |w| {
                    for (d, id) in defs.iter().zip(start..) {
                        let body = w.classes[id as usize].body;
                        w.untracked(&d.params, |w| w.walk(&d.body, body));
                    }
                });
                self.fact(unit, Fact::Group(start, end));
                if matches!(p, Proc::ExportDef { .. }) {
                    self.fact(unit, Fact::Open);
                    for c in start..end {
                        self.fact(unit, Fact::Use(c));
                    }
                }
                self.walk(body, unit);
                for d in defs.iter().rev() {
                    Self::unbind(&mut self.class_scope, &d.name);
                }
                self.settle(from, start);
            }
            Proc::ImportName { name, body, .. } => {
                self.fact(unit, Fact::Open);
                self.untracked(std::slice::from_ref(name), |w| w.walk(body, unit));
            }
            Proc::ImportClass { class, body, .. } => {
                self.fact(unit, Fact::Open);
                Self::bind(&mut self.class_scope, class, None);
                self.walk(body, unit);
                Self::unbind(&mut self.class_scope, class);
            }
            Proc::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.expr(cond, unit);
                let (then_unit, else_unit) = match cond.atom() {
                    Some(Term::Bool(true)) => (unit, DEAD),
                    Some(Term::Bool(false)) => (DEAD, unit),
                    _ => (unit, unit),
                };
                self.walk(then_branch, then_unit);
                self.walk(else_branch, else_unit);
            }
            Proc::Print { args, .. } => {
                for a in args {
                    self.expr(a, unit);
                }
            }
            Proc::Let { .. } => unreachable!("`findings` desugars first"),
        }
        self.here = outer;
    }

    /// Run the live units to a fixpoint and report over what they reach.
    fn solve(mut self) -> Vec<Finding> {
        let mut live = vec![false; self.units.len()];
        let mut queue: Vec<Unit> = vec![0];
        live[0] = true;
        let mut enliven = |u: Unit, queue: &mut Vec<Unit>| {
            if !std::mem::replace(&mut live[u as usize], true) {
                queue.push(u);
            }
        };
        let mut open = false;
        let mut sent: HashMap<&str, Pos> = HashMap::new();
        // Method bodies waiting for their label to be sent.
        let mut parked: HashMap<&str, Vec<Unit>> = HashMap::new();
        let mut objects: Vec<(u32, u32)> = Vec::new();
        let mut created = vec![false; self.classes.len()];
        let mut used = vec![false; self.classes.len()];
        while let Some(u) = queue.pop() {
            for f in std::mem::take(&mut self.units[u as usize]) {
                match f {
                    Fact::Send(l, at) => {
                        if let Some(first) = sent.get_mut(l) {
                            *first = (*first).min(at);
                            continue;
                        }
                        sent.insert(l, at);
                        for m in parked.remove(l).unwrap_or_default() {
                            enliven(m, &mut queue);
                        }
                    }
                    Fact::Object(from, to) => {
                        objects.push((from, to));
                        for m in &self.methods[from as usize..to as usize] {
                            if open || sent.contains_key(m.label) {
                                enliven(m.body, &mut queue);
                            } else {
                                parked.entry(m.label).or_default().push(m.body);
                            }
                        }
                    }
                    Fact::Group(from, to) => created[from as usize..to as usize].fill(true),
                    Fact::Use(c) => {
                        if !std::mem::replace(&mut used[c as usize], true) {
                            enliven(self.classes[c as usize].body, &mut queue);
                        }
                    }
                    Fact::Open => {
                        if !std::mem::replace(&mut open, true) {
                            for m in parked.drain().flat_map(|(_, ms)| ms) {
                                enliven(m, &mut queue);
                            }
                        }
                    }
                }
            }
        }
        let mut out = self.findings;
        for (c, class) in self.classes.iter().enumerate() {
            if created[c] && !used[c] {
                out.push(Finding {
                    kind: FindingKind::NeverInstantiatedClass,
                    subject: class.name.to_string(),
                    detail: "live code never instantiates, captures or exports it".to_string(),
                    at: class.at,
                });
            }
        }
        if open {
            return out;
        }
        let methods = || {
            objects
                .iter()
                .flat_map(|&(from, to)| &self.methods[from as usize..to as usize])
        };
        for m in methods().filter(|m| !sent.contains_key(m.label)) {
            out.push(Finding {
                kind: FindingKind::UnreachableMethod,
                subject: format!("{}.{}", m.target, m.label),
                detail: format!("live code never sends `{}`", m.label),
                at: m.at,
            });
        }
        let defined: HashSet<&str> = methods().map(|m| m.label).collect();
        for (l, at) in sent {
            if !defined.contains(l) {
                out.push(Finding {
                    kind: FindingKind::OrphanSend,
                    subject: l.to_string(),
                    detail: "no live object defines the label".to_string(),
                    at,
                });
            }
        }
        out
    }
}
