//! Compiler from (desugared) DiTyCO source to TyCO virtual-machine
//! byte-code.
//!
//! The translation preserves the nested structure of the source program as
//! a tree of blocks (§5 of the paper): every method body, class body and
//! forked parallel component becomes its own block, so the "byte-code
//! blocks that have to be moved between sites" can be selected in O(1)
//! and shipped with their transitive closure.
//!
//! Frame layout of a block (slot indices):
//!
//! ```text
//! [self-class]? [captured…] [params…] [locals…]
//!  only for        nfree      nparams
//!  class bodies
//! ```

use crate::program::*;
use std::collections::HashMap;
use std::fmt;
use tyco_syntax::ast::*;

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A plain identifier is not in scope.
    Unbound(String),
    /// More than 255 arguments in a message/instantiation.
    TooManyArgs(usize),
    /// Frame exceeded 65535 slots.
    FrameOverflow(String),
    /// More than 255 classes in one `def` group.
    GroupTooLarge(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unbound(x) => write!(f, "unbound identifier `{x}`"),
            CompileError::TooManyArgs(n) => write!(f, "too many arguments ({n} > 255)"),
            CompileError::FrameOverflow(b) => write!(f, "frame overflow in block `{b}`"),
            CompileError::GroupTooLarge(n) => write!(f, "def group too large ({n} > 255)"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile a desugared process into a program.
pub fn compile(p: &Proc) -> Result<Program, CompileError> {
    let core = if tyco_syntax::desugar::is_core(p) {
        None
    } else {
        Some(tyco_syntax::desugar::desugar(p.clone()))
    };
    let p = core.as_ref().unwrap_or(p);
    let mut c = Compiler {
        prog: Program::default(),
        scope: HashMap::new(),
        frees: Frees::of(p),
        buffers: Vec::new(),
    };
    let mut cx = BlockCx::new("entry", Vec::new(), 0, 0, false);
    c.proc_(p, &mut cx)?;
    cx.emit(Instr::Halt);
    let entry = c.finish_block(cx);
    let mut prog = c.prog;
    prog.entry = entry;
    Ok(prog)
}

/// Where an in-scope identifier lives.
#[derive(Debug, Clone, Copy)]
enum Storage {
    Slot(u16),
    /// Class `index` of the group whose class word sits in frame slot 0.
    Sibling(u8),
}

struct BlockCx {
    name: String,
    code: Vec<Instr>,
    nfree: u16,
    nparams: u16,
    is_class_body: bool,
    next_slot: u32,
}

impl BlockCx {
    /// `code` is an empty buffer, perhaps with room from an earlier block.
    fn new(name: &str, code: Vec<Instr>, nfree: u16, nparams: u16, is_class_body: bool) -> BlockCx {
        let base = (is_class_body as u32) + nfree as u32 + nparams as u32;
        BlockCx {
            name: name.to_string(),
            code,
            nfree,
            nparams,
            is_class_body,
            next_slot: base,
        }
    }

    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    fn alloc(&mut self) -> Result<u16, CompileError> {
        let s = self.next_slot;
        self.next_slot += 1;
        u16::try_from(s).map_err(|_| CompileError::FrameOverflow(self.name.clone()))
    }
}

/// A closure the compiler builds, named by the node that builds it:
/// `(q, true)` forks the parallel component `q`; `(p, false)` is the
/// environment the methods of object `p`, or the classes of group `p`,
/// share.
type Closure = (*const Proc, bool);

/// What a closure captures is every identifier free in its body that is
/// in scope where the closure is built. The free identifiers of every
/// closure body are found here, in one bottom-up walk before code is
/// generated, so no subtree is walked twice however deeply closures nest.
#[derive(Default)]
struct Frees<'a> {
    /// Free names and classes of each closure body, sorted, each once.
    /// Names and classes share the list: they never collide, names are
    /// lower-case and classes upper-case.
    at: HashMap<Closure, Vec<&'a str>>,
    /// `walk` leaves the free identifiers of its node on top, in any
    /// order and possibly repeated.
    stack: Vec<&'a str>,
    /// Scratch for [`Frees::settle`]: the binders, sorted.
    bound: Vec<&'a str>,
}

impl<'a> Frees<'a> {
    fn of(p: &'a Proc) -> HashMap<Closure, Vec<&'a str>> {
        let mut f = Frees::default();
        f.walk(p);
        f.at
    }

    /// Make `stack[from..]` a set without `binders`: sorted, each once.
    fn settle(&mut self, from: usize, binders: impl IntoIterator<Item = &'a Ident>) {
        self.bound.clear();
        self.bound.extend(binders.into_iter().map(String::as_str));
        self.bound.sort_unstable();
        self.stack[from..].sort_unstable();
        let mut kept = from;
        for i in from..self.stack.len() {
            let x = self.stack[i];
            let repeated = kept > from && self.stack[kept - 1] == x;
            if !repeated && self.bound.binary_search(&x).is_err() {
                self.stack[kept] = x;
                kept += 1;
            }
        }
        self.stack.truncate(kept);
    }

    /// Settle `stack[from..]` and record it as the free set of `closure`.
    fn record(
        &mut self,
        closure: Closure,
        from: usize,
        binders: impl IntoIterator<Item = &'a Ident>,
    ) {
        self.settle(from, binders);
        self.at.insert(closure, self.stack[from..].to_vec());
    }

    fn name(&mut self, r: &'a NameRef) {
        if let NameRef::Plain(x) = r {
            self.stack.push(x);
        }
    }

    fn expr(&mut self, mut e: &'a Expr) {
        // Down the left spine of an operator chain by a loop.
        loop {
            match e {
                Expr::Name(r) => return self.name(r),
                Expr::Lit(_) => return,
                Expr::Bin(_, ab) => {
                    self.expr(&ab.1);
                    e = &ab.0;
                }
                Expr::Un(_, a) => e = a,
            }
        }
    }

    fn walk(&mut self, p: &'a Proc) {
        let from = self.stack.len();
        match p {
            Proc::Nil => {}
            Proc::Par(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    let at = self.stack.len();
                    self.walk(q);
                    if i > 0 {
                        self.record((q, true), at, []);
                    }
                }
            }
            Proc::New { binders, body, .. } | Proc::ExportNew { binders, body, .. } => {
                self.walk(body);
                self.settle(from, binders);
            }
            Proc::Msg { target, args, .. } => {
                args.iter().for_each(|a| self.expr(a));
                self.name(target);
            }
            Proc::Obj {
                target, methods, ..
            } => {
                for m in methods {
                    let at = self.stack.len();
                    self.walk(&m.body);
                    self.settle(at, &m.params);
                }
                self.record((p, false), from, []);
                self.name(target);
            }
            Proc::Inst { class, args, .. } => {
                args.iter().for_each(|a| self.expr(a));
                if let ClassRef::Plain(x) = class {
                    self.stack.push(x);
                }
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                for d in defs {
                    let at = self.stack.len();
                    self.walk(&d.body);
                    self.settle(at, &d.params);
                }
                self.record((p, false), from, defs.iter().map(|d| &d.name));
                self.walk(body);
                self.settle(from, defs.iter().map(|d| &d.name));
            }
            Proc::ImportName { name: x, body, .. } | Proc::ImportClass { class: x, body, .. } => {
                self.walk(body);
                self.settle(from, [x]);
            }
            Proc::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.expr(cond);
                self.walk(then_branch);
                self.walk(else_branch);
            }
            Proc::Print { args, .. } => args.iter().for_each(|a| self.expr(a)),
            Proc::Let { .. } => unreachable!("`compile` desugars first"),
        }
    }
}

struct Compiler<'a> {
    prog: Program,
    /// In-scope identifiers, innermost binding last. An entry is kept
    /// when its last binding goes, so rebinding the name allocates
    /// nothing.
    scope: HashMap<&'a str, Vec<Storage>>,
    frees: HashMap<Closure, Vec<&'a str>>,
    /// Code buffers of finished blocks, for the next blocks to fill: a
    /// block's code grows once per nesting depth, not once per block.
    buffers: Vec<Vec<Instr>>,
}

impl<'a> Compiler<'a> {
    fn bind(&mut self, x: &'a str, s: Storage) {
        self.scope.entry(x).or_default().push(s);
    }

    fn unbind(&mut self, x: &str) {
        if let Some(v) = self.scope.get_mut(x) {
            v.pop();
        }
    }

    fn lookup(&self, x: &str) -> Option<Storage> {
        self.scope.get(x).and_then(|v| v.last()).copied()
    }

    fn finish_block(&mut self, mut cx: BlockCx) -> BlockId {
        let base = (cx.is_class_body as u32) + cx.nfree as u32 + cx.nparams as u32;
        let id = self.prog.blocks.len() as BlockId;
        self.prog.blocks.push(Block {
            name: cx.name,
            nfree: cx.nfree,
            nparams: cx.nparams,
            nlocals: (cx.next_slot - base) as u16,
            is_class_body: cx.is_class_body,
            code: cx.code[..].into(),
        });
        cx.code.clear();
        self.buffers.push(cx.code);
        id
    }

    // -- identifier access -------------------------------------------------

    /// Emit a push of the word for an in-scope identifier.
    fn push_ident(&mut self, x: &str, cx: &mut BlockCx) -> Result<(), CompileError> {
        match self.lookup(x) {
            Some(Storage::Slot(s)) => {
                cx.emit(Instr::PushLocal(s));
                Ok(())
            }
            Some(Storage::Sibling(i)) => {
                cx.emit(Instr::PushSibling(i));
                Ok(())
            }
            None => Err(CompileError::Unbound(x.to_string())),
        }
    }

    /// Push the channel word for a name reference. A located reference is
    /// resolved through the name service into a scratch slot first.
    fn push_name(&mut self, r: &NameRef, cx: &mut BlockCx) -> Result<(), CompileError> {
        match r {
            NameRef::Plain(x) => self.push_ident(x, cx),
            NameRef::Located(sx) => {
                let dst = cx.alloc()?;
                let site = self.prog.strings.intern(&sx.0);
                let name = self.prog.strings.intern(&sx.1);
                cx.emit(Instr::Import {
                    dst,
                    site,
                    name,
                    kind: ImportKind::Name,
                });
                cx.emit(Instr::PushLocal(dst));
                Ok(())
            }
        }
    }

    // -- expressions ---------------------------------------------------------

    fn expr(&mut self, e: &Expr, cx: &mut BlockCx) -> Result<(), CompileError> {
        match e {
            Expr::Name(r) => self.push_name(r, cx)?,
            Expr::Lit(Lit::Unit) => cx.emit(Instr::PushUnit),
            Expr::Lit(Lit::Int(i)) => cx.emit(Instr::PushInt(*i)),
            Expr::Lit(Lit::Bool(b)) => cx.emit(Instr::PushBool(*b)),
            Expr::Lit(Lit::Float(x)) => cx.emit(Instr::PushFloat(*x)),
            Expr::Lit(Lit::Str(s)) => {
                let id = self.prog.strings.intern(s);
                cx.emit(Instr::PushStr(id));
            }
            Expr::Bin(op, ab) => {
                self.expr(&ab.0, cx)?;
                self.expr(&ab.1, cx)?;
                cx.emit(Instr::Bin(*op));
            }
            Expr::Un(op, a) => {
                self.expr(a, cx)?;
                cx.emit(Instr::Un(*op));
            }
        }
        Ok(())
    }

    // -- captures -------------------------------------------------------------

    /// The ordered capture list of a closure: every free identifier of its
    /// body that is currently in scope.
    fn captures_for(&self, closure: Closure) -> Vec<&'a str> {
        self.frees[&closure]
            .iter()
            .copied()
            .filter(|x| self.lookup(x).is_some())
            .collect()
    }

    /// Emit pushes for each captured identifier (in order).
    fn push_captures(&mut self, captured: &[&str], cx: &mut BlockCx) -> Result<(), CompileError> {
        for x in captured {
            self.push_ident(x, cx)?;
        }
        Ok(())
    }

    /// Compile `body` into a fresh block whose frame starts with the given
    /// captures and params. (A class body also sees its group's classes,
    /// which the caller binds once for the whole group.)
    fn closure_block(
        &mut self,
        name: &str,
        captured: &[&'a str],
        params: &'a [Ident],
        is_class_body: bool,
        body: &'a Proc,
    ) -> Result<BlockId, CompileError> {
        let mut cx = BlockCx::new(
            name,
            self.buffers.pop().unwrap_or_default(),
            captured.len() as u16,
            params.len() as u16,
            is_class_body,
        );
        let base = is_class_body as u16;
        for (i, x) in captured.iter().enumerate() {
            self.bind(x, Storage::Slot(base + i as u16));
        }
        for (j, x) in params.iter().enumerate() {
            self.bind(x, Storage::Slot(base + captured.len() as u16 + j as u16));
        }
        self.proc_(body, &mut cx)?;
        for x in params.iter().rev() {
            self.unbind(x);
        }
        for x in captured.iter().rev() {
            self.unbind(x);
        }
        cx.emit(Instr::Halt);
        Ok(self.finish_block(cx))
    }

    // -- processes --------------------------------------------------------------

    /// An error leaves the scope as it stands: it ends the compilation.
    fn proc_(&mut self, p: &'a Proc, cx: &mut BlockCx) -> Result<(), CompileError> {
        match p {
            Proc::Nil => Ok(()),
            Proc::Par(ps) => {
                // Fork all but the first component; compile the first
                // inline (it continues on the current thread).
                for q in &ps[1..] {
                    let captured = self.captures_for((q, true));
                    let block = self.closure_block("fork", &captured, &[], false, q)?;
                    self.push_captures(&captured, cx)?;
                    cx.emit(Instr::Fork {
                        block,
                        nfree: captured.len() as u16,
                    });
                }
                if let Some(first) = ps.first() {
                    self.proc_(first, cx)?;
                }
                Ok(())
            }
            Proc::New { binders, body, .. } | Proc::ExportNew { binders, body, .. } => {
                let export = matches!(p, Proc::ExportNew { .. });
                for b in binders {
                    let s = cx.alloc()?;
                    cx.emit(Instr::NewChan(s));
                    if export {
                        let name = self.prog.strings.intern(b);
                        cx.emit(Instr::ExportName { slot: s, name });
                    }
                    self.bind(b, Storage::Slot(s));
                }
                self.proc_(body, cx)?;
                for b in binders.iter().rev() {
                    self.unbind(b);
                }
                Ok(())
            }
            Proc::Msg {
                target,
                label,
                args,
                ..
            } => {
                if args.len() > u8::MAX as usize {
                    return Err(CompileError::TooManyArgs(args.len()));
                }
                for a in args {
                    self.expr(a, cx)?;
                }
                self.push_name(target, cx)?;
                let label = self.prog.labels.intern(label);
                cx.emit(Instr::TrMsg {
                    label,
                    argc: args.len() as u8,
                });
                Ok(())
            }
            Proc::Obj {
                target, methods, ..
            } => {
                // Shared captured environment across all methods.
                let captured = self.captures_for((p, false));
                let mut entries = Vec::with_capacity(methods.len());
                for m in methods {
                    let bname = format!("{}.{}", target.ident(), m.label);
                    let block = self.closure_block(&bname, &captured, &m.params, false, &m.body)?;
                    let label = self.prog.labels.intern(&m.label);
                    entries.push((label, block));
                }
                entries.sort_unstable_by_key(|e| e.0);
                let table = self.prog.tables.len() as TableId;
                self.prog.tables.push(MethodTable { entries });
                self.push_captures(&captured, cx)?;
                self.push_name(target, cx)?;
                cx.emit(Instr::TrObj {
                    table,
                    nfree: captured.len() as u16,
                });
                Ok(())
            }
            Proc::Inst { class, args, .. } => {
                if args.len() > u8::MAX as usize {
                    return Err(CompileError::TooManyArgs(args.len()));
                }
                for a in args {
                    self.expr(a, cx)?;
                }
                match class {
                    ClassRef::Plain(x) => self.push_ident(x, cx)?,
                    ClassRef::Located(site, x) => {
                        let dst = cx.alloc()?;
                        let site = self.prog.strings.intern(site);
                        let name = self.prog.strings.intern(x);
                        cx.emit(Instr::Import {
                            dst,
                            site,
                            name,
                            kind: ImportKind::Class,
                        });
                        cx.emit(Instr::PushLocal(dst));
                    }
                }
                cx.emit(Instr::InstOf {
                    argc: args.len() as u8,
                });
                Ok(())
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                if defs.len() > u8::MAX as usize {
                    return Err(CompileError::GroupTooLarge(defs.len()));
                }
                let export = matches!(p, Proc::ExportDef { .. });
                // Group-shared captures: free idents of all bodies, minus
                // params and the group's own class names.
                let captured = self.captures_for((p, false));
                // Compile each class body with siblings visible, bound
                // once for the whole group.
                for (i, d) in defs.iter().enumerate() {
                    self.bind(&d.name, Storage::Sibling(i as u8));
                }
                let mut entries = Vec::with_capacity(defs.len());
                for d in defs {
                    let block = self.closure_block(&d.name, &captured, &d.params, true, &d.body)?;
                    let label = self.prog.labels.intern(&d.name);
                    entries.push((label, block));
                }
                for d in defs.iter().rev() {
                    self.unbind(&d.name);
                }
                // Group tables are indexed positionally (def order).
                let table = self.prog.tables.len() as TableId;
                self.prog.tables.push(MethodTable { entries });
                // Allocate consecutive slots for the class words.
                let dst = cx.alloc()?;
                for _ in 1..defs.len() {
                    cx.alloc()?;
                }
                self.push_captures(&captured, cx)?;
                cx.emit(Instr::MkGroup {
                    table,
                    dst,
                    count: defs.len() as u8,
                    nfree: captured.len() as u16,
                });
                for (i, d) in defs.iter().enumerate() {
                    let slot = dst + i as u16;
                    if export {
                        let name = self.prog.strings.intern(&d.name);
                        cx.emit(Instr::ExportClass { slot, name });
                    }
                    self.bind(&d.name, Storage::Slot(slot));
                }
                self.proc_(body, cx)?;
                for d in defs.iter().rev() {
                    self.unbind(&d.name);
                }
                Ok(())
            }
            Proc::ImportName {
                name: x,
                site,
                body,
                ..
            }
            | Proc::ImportClass {
                class: x,
                site,
                body,
                ..
            } => {
                let kind = if matches!(p, Proc::ImportName { .. }) {
                    ImportKind::Name
                } else {
                    ImportKind::Class
                };
                let dst = cx.alloc()?;
                let site = self.prog.strings.intern(site);
                let name = self.prog.strings.intern(x);
                cx.emit(Instr::Import {
                    dst,
                    site,
                    name,
                    kind,
                });
                self.bind(x, Storage::Slot(dst));
                self.proc_(body, cx)?;
                self.unbind(x);
                Ok(())
            }
            Proc::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.expr(cond, cx)?;
                let jif = cx.code.len();
                cx.emit(Instr::JumpIfFalse(0)); // patched below
                self.proc_(then_branch, cx)?;
                let jend = cx.code.len();
                cx.emit(Instr::Jump(0)); // patched below
                let else_at = cx.code.len() as u32;
                cx.code[jif] = Instr::JumpIfFalse(else_at);
                self.proc_(else_branch, cx)?;
                let end_at = cx.code.len() as u32;
                cx.code[jend] = Instr::Jump(end_at);
                Ok(())
            }
            Proc::Print { args, newline, .. } => {
                if args.len() > u8::MAX as usize {
                    return Err(CompileError::TooManyArgs(args.len()));
                }
                for a in args {
                    self.expr(a, cx)?;
                }
                cx.emit(Instr::Print {
                    argc: args.len() as u8,
                    newline: *newline,
                });
                Ok(())
            }
            Proc::Let { .. } => unreachable!("`compile` desugars first"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_syntax::parse_core;

    fn comp(src: &str) -> Program {
        compile(&parse_core(src).unwrap()).unwrap_or_else(|e| panic!("compile {src:?}: {e}"))
    }

    #[test]
    fn compiles_message() {
        let p = comp("new x x!go[1, true]");
        let entry = &p.blocks[p.entry as usize];
        assert!(entry.code.iter().any(|i| matches!(i, Instr::NewChan(_))));
        assert!(entry
            .code
            .iter()
            .any(|i| matches!(i, Instr::TrMsg { argc: 2, .. })));
    }

    #[test]
    fn object_methods_get_blocks_and_table() {
        let p = comp("new x x?{ read(r) = r![1], write(u) = 0 }");
        assert_eq!(p.tables.len(), 1);
        assert_eq!(p.tables[0].entries.len(), 2);
        // entry + 2 method blocks
        assert_eq!(p.blocks.len(), 3);
    }

    #[test]
    fn object_captures_enclosing_names() {
        let p = comp("new v new x x?{ get(r) = r![v] }");
        // The method block must have one captured slot for v.
        let method = p.blocks.iter().find(|b| b.name.contains("get")).unwrap();
        assert_eq!(method.nfree, 1);
        assert_eq!(method.nparams, 1);
    }

    #[test]
    fn par_forks_all_but_first() {
        let p = comp("new x (x![1] | x![2] | x![3])");
        let entry = &p.blocks[p.entry as usize];
        let forks = entry
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Fork { .. }))
            .count();
        assert_eq!(forks, 2);
    }

    #[test]
    fn def_group_compiles_with_siblings() {
        let p = comp("def X(a) = Y[a] and Y(b) = print(b) in X[1]");
        let entry = &p.blocks[p.entry as usize];
        assert!(entry
            .code
            .iter()
            .any(|i| matches!(i, Instr::MkGroup { count: 2, .. })));
        // X's body instantiates sibling Y via PushSibling.
        let xb = p.blocks.iter().find(|b| b.name == "X").unwrap();
        assert!(xb.is_class_body);
        assert!(xb.code.iter().any(|i| matches!(i, Instr::PushSibling(1))));
    }

    #[test]
    fn recursive_class_self_sibling() {
        let p = comp("def Loop(n) = Loop[n] in Loop[0]");
        let lb = p.blocks.iter().find(|b| b.name == "Loop").unwrap();
        assert!(lb.code.iter().any(|i| matches!(i, Instr::PushSibling(0))));
    }

    #[test]
    fn unbound_name_fails() {
        let e = compile(&parse_core("x![1]").unwrap()).unwrap_err();
        assert_eq!(e, CompileError::Unbound("x".to_string()));
    }

    #[test]
    fn if_branches_patch_jumps() {
        let p = comp("if 1 < 2 then print(1) else print(2)");
        let entry = &p.blocks[p.entry as usize];
        let jif = entry
            .code
            .iter()
            .find_map(|i| match i {
                Instr::JumpIfFalse(t) => Some(*t),
                _ => None,
            })
            .expect("has JumpIfFalse");
        // The else target must be inside the block and after the then code.
        assert!((jif as usize) < entry.code.len());
        let jmp = entry
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Jump(t) => Some(*t),
                _ => None,
            })
            .expect("has Jump");
        assert!(jmp >= jif);
    }

    #[test]
    fn import_and_export_instructions() {
        let p = comp("export new srv in import q from other in (srv?{ go() = 0 } | q![1])");
        let entry = &p.blocks[p.entry as usize];
        assert!(entry
            .code
            .iter()
            .any(|i| matches!(i, Instr::ExportName { .. })));
        assert!(entry.code.iter().any(|i| matches!(
            i,
            Instr::Import {
                kind: ImportKind::Name,
                ..
            }
        )));
    }

    #[test]
    fn located_refs_compile_to_imports() {
        let p = comp("server.p!go[1] | server.Applet[2]");
        let all: Vec<&Instr> = p.blocks.iter().flat_map(|b| b.code.iter()).collect();
        assert!(all.iter().any(|i| matches!(
            i,
            Instr::Import {
                kind: ImportKind::Name,
                ..
            }
        )));
        assert!(all.iter().any(|i| matches!(
            i,
            Instr::Import {
                kind: ImportKind::Class,
                ..
            }
        )));
    }

    #[test]
    fn disassembly_mentions_labels() {
        let p = comp("new x (x!ping[] | x?{ ping() = println(\"pong\") })");
        let d = crate::asm::emit(&p);
        assert!(d.contains("trmsg ping"), "{d}");
        assert!(d.contains("entry"), "{d}");
    }

    #[test]
    fn let_sugar_compiles() {
        let p = comp("new db (db?{ get(r) = r![1] } | let v = db!get[] in print(v))");
        assert!(p.instr_count() > 0);
    }
}
