//! A fair small-step interpreter for DiTyCO networks — the executable form
//! of the reduction relation of §2–§3 of the paper.
//!
//! The interpreter operates on configurations that correspond to networks
//! normalized by structural congruence: every `new`-bound name has been
//! extruded to the network level as a global [`ChanId`] (rules NEW/EXN),
//! and every `def` has been hoisted to a network-level class-group arena
//! (rules DEF/EXD). The reduction axioms map onto interpreter actions:
//!
//! | Axiom  | Interpreter action                                          |
//! |--------|-------------------------------------------------------------|
//! | COMM   | message meets object in a channel, method body is spawned   |
//! | INST   | class body spawned with arguments                           |
//! | SHIPM  | message whose channel lives on another site is moved there  |
//! | SHIPO  | object whose channel lives on another site is moved there   |
//! | FETCH  | class group copied from its defining site, rebound locally  |
//!
//! Because values are *global* channel identities, the σ translation is
//! implicit (σ exists precisely to preserve global identity across
//! syntactic moves; see [`crate::sigma`] for the syntactic version).
//!
//! This is also the tree-walking **baseline** for experiment C7: it is the
//! semantics the byte-code VM must agree with (differential tests) and the
//! comparator the VM's speedup is measured against.

use crate::trace::{Counters, Rule};
use crate::value::{Binding, ChanId, Env, SiteId, Val};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use tyco_syntax::ast::*;

/// A runtime error (the dynamic half of the hybrid checking scheme; a
/// statically checked program only raises these across sites with
/// mismatched interfaces).
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    UnboundName(String),
    UnboundClass(String),
    UnknownSite(String),
    NotAChannel(String),
    NotAClass(String),
    /// Protocol error: message label not offered by the receiving object.
    NoMethod {
        label: String,
    },
    /// Method/class arity mismatch discovered at reduction time.
    Arity {
        what: String,
        expected: usize,
        found: usize,
    },
    /// Builtin applied to operands of the wrong shape.
    BadOperands(String),
    /// An exported identifier was re-exported under the same key.
    DuplicateExport(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::UnboundName(x) => write!(f, "unbound name `{x}`"),
            RtError::UnboundClass(x) => write!(f, "unbound class `{x}`"),
            RtError::UnknownSite(s) => write!(f, "unknown site `{s}`"),
            RtError::NotAChannel(x) => write!(f, "`{x}` is not a channel"),
            RtError::NotAClass(x) => write!(f, "`{x}` is not a class"),
            RtError::NoMethod { label } => write!(f, "protocol error: no method `{label}`"),
            RtError::Arity {
                what,
                expected,
                found,
            } => {
                write!(f, "{what} expects {expected} argument(s), got {found}")
            }
            RtError::BadOperands(op) => write!(f, "bad operands for `{op}`"),
            RtError::DuplicateExport(x) => write!(f, "duplicate export `{x}`"),
        }
    }
}

impl std::error::Error for RtError {}

/// Evaluation can also *stall* on an unresolved located identifier (the
/// exporting site has not registered it yet); stalled work is parked and
/// retried after the next export.
enum EvalErr {
    Stall,
    Rt(RtError),
}

/// An object closure parked in a channel or in flight between sites.
#[derive(Clone)]
struct ObjClosure {
    methods: Rc<Vec<Method>>,
    env: Env,
}

/// The state of a channel: a queue of pending messages *or* a queue of
/// pending objects, never both (reduction fires as soon as both ends meet).
enum ChanState {
    Empty,
    Msgs(VecDeque<(String, Vec<Val>)>),
    Objs(VecDeque<ObjClosure>),
}

/// A unit of schedulable work at a site.
enum Work {
    /// A process term under an environment.
    Proc(Rc<Proc>, Env),
    /// A message that arrived from another site (post-SHIPM).
    DeliverMsg {
        chan: ChanId,
        label: String,
        args: Vec<Val>,
    },
    /// An object that migrated from another site (post-SHIPO).
    DeliverObj { chan: ChanId, obj: ObjClosure },
    /// An instantiation whose arguments are already evaluated.
    Inst {
        group: usize,
        class: String,
        args: Vec<Val>,
    },
}

struct SiteState {
    name: String,
    queue: VecDeque<Work>,
    blocked: Vec<Work>,
    channels: HashMap<u64, ChanState>,
    output: Vec<String>,
}

struct ClassClause {
    params: Vec<String>,
    body: Rc<Proc>,
}

struct ClassGroup {
    site: SiteId,
    defs: Rc<HashMap<String, ClassClause>>,
    env: Env,
}

enum ExportEntry {
    Name(Val),
    Class { group: usize, name: String },
}

/// How the interpreter picks the next site/work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Deterministic round-robin over sites, FIFO within a site.
    RoundRobin,
    /// Uniformly random site and FIFO within it, from a seeded RNG.
    Random(u64),
}

/// The result of running a network to quiescence (or to the step limit).
#[derive(Debug)]
pub struct Outcome {
    /// Lines printed on each site's I/O port, in order.
    pub outputs: Vec<Vec<String>>,
    /// Reduction-rule counters.
    pub counters: Counters,
    /// True when every queue drained (no runnable work left).
    pub quiescent: bool,
    /// Number of work items permanently parked on unresolved imports.
    pub blocked: usize,
    /// Total scheduler steps taken.
    pub steps: u64,
}

impl Outcome {
    /// All output lines across sites, as (site, line) pairs.
    pub fn all_lines(&self) -> Vec<(usize, &str)> {
        self.outputs
            .iter()
            .enumerate()
            .flat_map(|(i, ls)| ls.iter().map(move |l| (i, l.as_str())))
            .collect()
    }

    /// Sorted multiset of all printed lines (site-insensitive observable
    /// used by the differential tests).
    pub fn line_multiset(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .outputs
            .iter()
            .flat_map(|ls| ls.iter().cloned())
            .collect();
        v.sort();
        v
    }
}

/// A network of named sites, each running a DiTyCO process.
pub struct Network {
    site_ids: HashMap<String, SiteId>,
    sites: Vec<SiteState>,
    groups: Vec<ClassGroup>,
    exports: HashMap<(SiteId, String), ExportEntry>,
    /// Cache of fetched class groups: (destination site, source group) →
    /// local group. Configurable for the C5 fetch-vs-ship experiment.
    fetch_cache: HashMap<(SiteId, usize), usize>,
    pub cache_fetched_classes: bool,
    next_chan: u64,
    counters: Counters,
    scheduler: Scheduler,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    pub fn new() -> Network {
        Network {
            site_ids: HashMap::new(),
            sites: Vec::new(),
            groups: Vec::new(),
            exports: HashMap::new(),
            fetch_cache: HashMap::new(),
            cache_fetched_classes: true,
            next_chan: 0,
            counters: Counters::default(),
            scheduler: Scheduler::RoundRobin,
        }
    }

    pub fn with_scheduler(mut self, s: Scheduler) -> Network {
        self.scheduler = s;
        self
    }

    /// Register a site running the given (core, desugared) process.
    pub fn add_site(&mut self, name: &str, program: Proc) -> SiteId {
        let id = SiteId(self.sites.len() as u32);
        self.site_ids.insert(name.to_string(), id);
        let mut queue = VecDeque::new();
        queue.push_back(Work::Proc(Rc::new(program), Env::empty()));
        self.sites.push(SiteState {
            name: name.to_string(),
            queue,
            blocked: Vec::new(),
            channels: HashMap::new(),
            output: Vec::new(),
        });
        id
    }

    /// Parse, desugar and register a site program.
    pub fn add_site_src(
        &mut self,
        name: &str,
        src: &str,
    ) -> Result<SiteId, tyco_syntax::ParseError> {
        Ok(self.add_site(name, tyco_syntax::parse_core(src)?))
    }

    /// The printed output of a site.
    pub fn output(&self, site: SiteId) -> &[String] {
        &self.sites[site.0 as usize].output
    }

    pub fn site_id(&self, name: &str) -> Option<SiteId> {
        self.site_ids.get(name).copied()
    }

    /// The lexeme a site was registered under.
    pub fn site_name(&self, site: SiteId) -> &str {
        &self.sites[site.0 as usize].name
    }

    pub fn counters(&self) -> Counters {
        self.counters
    }

    fn alloc_chan(&mut self, site: SiteId) -> ChanId {
        let uid = self.next_chan;
        self.next_chan += 1;
        self.sites[site.0 as usize]
            .channels
            .insert(uid, ChanState::Empty);
        ChanId { site, uid }
    }

    /// Run until quiescence or `max_steps`, returning the outcome.
    pub fn run(&mut self, max_steps: u64) -> Result<Outcome, RtError> {
        let mut steps: u64 = 0;
        let mut rng = match self.scheduler {
            Scheduler::Random(seed) => Some(StdRng::seed_from_u64(seed)),
            Scheduler::RoundRobin => None,
        };
        let mut rr = 0usize;
        while steps < max_steps {
            // Pick a site with runnable work.
            let nsites = self.sites.len();
            let chosen = match &mut rng {
                Some(rng) => {
                    let runnable: Vec<usize> = (0..nsites)
                        .filter(|&i| !self.sites[i].queue.is_empty())
                        .collect();
                    if runnable.is_empty() {
                        None
                    } else {
                        Some(runnable[rng.gen_range(0..runnable.len())])
                    }
                }
                None => {
                    let mut found = None;
                    for k in 0..nsites {
                        let i = (rr + k) % nsites;
                        if !self.sites[i].queue.is_empty() {
                            found = Some(i);
                            break;
                        }
                    }
                    if let Some(i) = found {
                        rr = (i + 1) % nsites;
                    }
                    found
                }
            };
            let Some(i) = chosen else { break };
            steps += 1;
            self.step_site(SiteId(i as u32))?;
        }
        let quiescent = self.sites.iter().all(|s| s.queue.is_empty());
        Ok(Outcome {
            outputs: self.sites.iter().map(|s| s.output.clone()).collect(),
            counters: self.counters,
            quiescent,
            blocked: self.sites.iter().map(|s| s.blocked.len()).sum(),
            steps,
        })
    }

    fn step_site(&mut self, sid: SiteId) -> Result<(), RtError> {
        let work = self.sites[sid.0 as usize]
            .queue
            .pop_front()
            .expect("step_site called on empty queue");
        match work {
            Work::Proc(p, env) => self.exec(sid, p, env),
            Work::DeliverMsg { chan, label, args } => {
                debug_assert_eq!(chan.site, sid);
                self.comm_msg(sid, chan, label, args)
            }
            Work::DeliverObj { chan, obj } => {
                debug_assert_eq!(chan.site, sid);
                self.comm_obj(sid, chan, obj)
            }
            Work::Inst { group, class, args } => self.instantiate(sid, group, &class, args),
        }
    }

    fn push(&mut self, sid: SiteId, w: Work) {
        self.sites[sid.0 as usize].queue.push_back(w);
    }

    /// Park a work item on an unresolved import/located identifier.
    fn park(&mut self, sid: SiteId, w: Work) {
        self.sites[sid.0 as usize].blocked.push(w);
    }

    /// After a new export, every parked item may be runnable again.
    fn unpark_all(&mut self) {
        for s in &mut self.sites {
            while let Some(w) = s.blocked.pop() {
                s.queue.push_back(w);
            }
        }
    }

    fn exec(&mut self, sid: SiteId, p: Rc<Proc>, env: Env) -> Result<(), RtError> {
        match &*p {
            Proc::Nil => {
                self.counters.structural += 1;
                Ok(())
            }
            Proc::Par(ps) => {
                self.counters.structural += 1;
                for q in ps {
                    self.push(sid, Work::Proc(Rc::new(q.clone()), env.clone()));
                }
                Ok(())
            }
            Proc::New { binders, body, .. } => {
                self.counters.structural += 1;
                let mut env = env;
                for b in binders {
                    let c = self.alloc_chan(sid);
                    env = env.bind(b.clone(), Binding::Val(Val::Chan(c)));
                }
                self.push(sid, Work::Proc(Rc::new((**body).clone()), env));
                Ok(())
            }
            Proc::ExportNew { binders, body, .. } => {
                self.counters.structural += 1;
                let mut env = env;
                for b in binders {
                    let c = self.alloc_chan(sid);
                    env = env.bind(b.clone(), Binding::Val(Val::Chan(c)));
                    let key = (sid, b.clone());
                    if self.exports.contains_key(&key) {
                        return Err(RtError::DuplicateExport(b.clone()));
                    }
                    self.exports.insert(key, ExportEntry::Name(Val::Chan(c)));
                }
                self.unpark_all();
                self.push(sid, Work::Proc(Rc::new((**body).clone()), env));
                Ok(())
            }
            Proc::Def { defs, body, .. } | Proc::ExportDef { defs, body, .. } => {
                self.counters.structural += 1;
                let export = matches!(&*p, Proc::ExportDef { .. });
                let group_idx = self.groups.len();
                let mut genv = env.clone();
                for d in defs {
                    genv = genv.bind(
                        d.name.clone(),
                        Binding::Class {
                            group: group_idx,
                            name: d.name.clone(),
                        },
                    );
                }
                let defs_map: HashMap<String, ClassClause> = defs
                    .iter()
                    .map(|d| {
                        (
                            d.name.clone(),
                            ClassClause {
                                params: d.params.clone(),
                                body: Rc::new(d.body.clone()),
                            },
                        )
                    })
                    .collect();
                self.groups.push(ClassGroup {
                    site: sid,
                    defs: Rc::new(defs_map),
                    env: genv.clone(),
                });
                if export {
                    for d in defs {
                        let key = (sid, d.name.clone());
                        if self.exports.contains_key(&key) {
                            return Err(RtError::DuplicateExport(d.name.clone()));
                        }
                        self.exports.insert(
                            key,
                            ExportEntry::Class {
                                group: group_idx,
                                name: d.name.clone(),
                            },
                        );
                    }
                    self.unpark_all();
                }
                self.push(sid, Work::Proc(Rc::new((**body).clone()), genv));
                Ok(())
            }
            Proc::ImportName {
                name, site, body, ..
            } => {
                let remote = self.resolve_site(site)?;
                match self.exports.get(&(remote, name.clone())) {
                    Some(ExportEntry::Name(v)) => {
                        self.counters.structural += 1;
                        let env = env.bind(name.clone(), Binding::Val(v.clone()));
                        self.push(sid, Work::Proc(Rc::new((**body).clone()), env));
                        Ok(())
                    }
                    Some(ExportEntry::Class { .. }) => Err(RtError::NotAChannel(name.clone())),
                    None => {
                        self.park(sid, Work::Proc(p.clone(), env));
                        Ok(())
                    }
                }
            }
            Proc::ImportClass {
                class, site, body, ..
            } => {
                let remote = self.resolve_site(site)?;
                match self.exports.get(&(remote, class.clone())) {
                    Some(ExportEntry::Class { group, name }) => {
                        self.counters.structural += 1;
                        let env = env.bind(
                            class.clone(),
                            Binding::Class {
                                group: *group,
                                name: name.clone(),
                            },
                        );
                        self.push(sid, Work::Proc(Rc::new((**body).clone()), env));
                        Ok(())
                    }
                    Some(ExportEntry::Name(_)) => Err(RtError::NotAClass(class.clone())),
                    None => {
                        self.park(sid, Work::Proc(p.clone(), env));
                        Ok(())
                    }
                }
            }
            Proc::Msg {
                target,
                label,
                args,
                ..
            } => {
                let tv = match self.eval_name(target, &env) {
                    Ok(v) => v,
                    Err(EvalErr::Stall) => {
                        self.park(sid, Work::Proc(p.clone(), env));
                        return Ok(());
                    }
                    Err(EvalErr::Rt(e)) => return Err(e),
                };
                let chan = match tv {
                    Val::Chan(c) => c,
                    _ => return Err(RtError::NotAChannel(target.to_string())),
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval_expr(a, &env) {
                        Ok(v) => argv.push(v),
                        Err(EvalErr::Stall) => {
                            self.park(sid, Work::Proc(p.clone(), env));
                            return Ok(());
                        }
                        Err(EvalErr::Rt(e)) => return Err(e),
                    }
                }
                if chan.site == sid {
                    self.comm_msg(sid, chan, label.clone(), argv)
                } else {
                    // SHIPM: the message moves to the site its prefix is
                    // lexically bound to.
                    self.counters.record(Rule::ShipM);
                    self.push(
                        chan.site,
                        Work::DeliverMsg {
                            chan,
                            label: label.clone(),
                            args: argv,
                        },
                    );
                    Ok(())
                }
            }
            Proc::Obj {
                target, methods, ..
            } => {
                let tv = match self.eval_name(target, &env) {
                    Ok(v) => v,
                    Err(EvalErr::Stall) => {
                        self.park(sid, Work::Proc(p.clone(), env));
                        return Ok(());
                    }
                    Err(EvalErr::Rt(e)) => return Err(e),
                };
                let chan = match tv {
                    Val::Chan(c) => c,
                    _ => return Err(RtError::NotAChannel(target.to_string())),
                };
                let obj = ObjClosure {
                    methods: Rc::new(methods.clone()),
                    env,
                };
                if chan.site == sid {
                    self.comm_obj(sid, chan, obj)
                } else {
                    // SHIPO: the object migrates to the prefix's site.
                    self.counters.record(Rule::ShipO);
                    self.push(chan.site, Work::DeliverObj { chan, obj });
                    Ok(())
                }
            }
            Proc::Inst { class, args, .. } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval_expr(a, &env) {
                        Ok(v) => argv.push(v),
                        Err(EvalErr::Stall) => {
                            self.park(sid, Work::Proc(p.clone(), env));
                            return Ok(());
                        }
                        Err(EvalErr::Rt(e)) => return Err(e),
                    }
                }
                let (group, cname) = match class {
                    ClassRef::Plain(x) => match env.lookup(x) {
                        Some(Binding::Class { group, name }) => (*group, name.clone()),
                        Some(Binding::Val(_)) => return Err(RtError::NotAClass(x.clone())),
                        None => return Err(RtError::UnboundClass(x.clone())),
                    },
                    ClassRef::Located(s, x) => {
                        let remote = self.resolve_site(s)?;
                        match self.exports.get(&(remote, x.clone())) {
                            Some(ExportEntry::Class { group, name }) => (*group, name.clone()),
                            Some(ExportEntry::Name(_)) => {
                                return Err(RtError::NotAClass(x.clone()))
                            }
                            None => {
                                self.park(sid, Work::Proc(p.clone(), env));
                                return Ok(());
                            }
                        }
                    }
                };
                if self.groups[group].site == sid {
                    self.instantiate(sid, group, &cname, argv)
                } else {
                    // FETCH: download the whole definition group (the paper
                    // downloads D, not just X, for mutual recursion), rebind
                    // its classes locally, then instantiate locally. A
                    // cached group was already downloaded: no FETCH step.
                    let (local, was_cached) = self.fetch_group(sid, group);
                    if !was_cached {
                        self.counters.record(Rule::Fetch);
                    }
                    self.push(
                        sid,
                        Work::Inst {
                            group: local,
                            class: cname,
                            args: argv,
                        },
                    );
                    Ok(())
                }
            }
            Proc::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let c = match self.eval_expr(cond, &env) {
                    Ok(v) => v,
                    Err(EvalErr::Stall) => {
                        self.park(sid, Work::Proc(p.clone(), env));
                        return Ok(());
                    }
                    Err(EvalErr::Rt(e)) => return Err(e),
                };
                self.counters.record(Rule::Builtin);
                match c {
                    Val::Bool(true) => {
                        self.push(sid, Work::Proc(Rc::new((**then_branch).clone()), env));
                        Ok(())
                    }
                    Val::Bool(false) => {
                        self.push(sid, Work::Proc(Rc::new((**else_branch).clone()), env));
                        Ok(())
                    }
                    _ => Err(RtError::BadOperands("if".to_string())),
                }
            }
            Proc::Print { args, newline, .. } => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval_expr(a, &env) {
                        Ok(v) => parts.push(v.display()),
                        Err(EvalErr::Stall) => {
                            self.park(sid, Work::Proc(p.clone(), env));
                            return Ok(());
                        }
                        Err(EvalErr::Rt(e)) => return Err(e),
                    }
                }
                self.counters.record(Rule::Builtin);
                let line = parts.join(" ");
                let _ = newline; // both forms record one output line
                self.sites[sid.0 as usize].output.push(line);
                Ok(())
            }
            Proc::Let { .. } => {
                // Defensive: accept sugared input by desugaring on the fly.
                let core = tyco_syntax::desugar::desugar((*p).clone());
                self.exec(sid, Rc::new(core), env)
            }
        }
    }

    /// Local rendez-vous for an arriving message (rule COMM, message side).
    fn comm_msg(
        &mut self,
        sid: SiteId,
        chan: ChanId,
        label: String,
        args: Vec<Val>,
    ) -> Result<(), RtError> {
        let state = self.sites[sid.0 as usize]
            .channels
            .entry(chan.uid)
            .or_insert(ChanState::Empty);
        match state {
            ChanState::Objs(q) => {
                let obj = q.pop_front().expect("Objs state is nonempty");
                if q.is_empty() {
                    *state = ChanState::Empty;
                }
                self.fire_method(sid, obj, &label, args)
            }
            ChanState::Msgs(q) => {
                q.push_back((label, args));
                Ok(())
            }
            ChanState::Empty => {
                let mut q = VecDeque::with_capacity(1);
                q.push_back((label, args));
                *state = ChanState::Msgs(q);
                Ok(())
            }
        }
    }

    /// Local rendez-vous for an arriving object (rule COMM, object side).
    fn comm_obj(&mut self, sid: SiteId, chan: ChanId, obj: ObjClosure) -> Result<(), RtError> {
        let state = self.sites[sid.0 as usize]
            .channels
            .entry(chan.uid)
            .or_insert(ChanState::Empty);
        match state {
            ChanState::Msgs(q) => {
                let (label, args) = q.pop_front().expect("Msgs state is nonempty");
                if q.is_empty() {
                    *state = ChanState::Empty;
                }
                self.fire_method(sid, obj, &label, args)
            }
            ChanState::Objs(q) => {
                q.push_back(obj);
                Ok(())
            }
            ChanState::Empty => {
                let mut q = VecDeque::with_capacity(1);
                q.push_back(obj);
                *state = ChanState::Objs(q);
                Ok(())
            }
        }
    }

    /// Select a method and spawn its body (the substitution Pi{ṽ/x̃}).
    fn fire_method(
        &mut self,
        sid: SiteId,
        obj: ObjClosure,
        label: &str,
        args: Vec<Val>,
    ) -> Result<(), RtError> {
        let m = obj
            .methods
            .iter()
            .find(|m| m.label == label)
            .ok_or_else(|| RtError::NoMethod {
                label: label.to_string(),
            })?;
        if m.params.len() != args.len() {
            return Err(RtError::Arity {
                what: format!("method `{label}`"),
                expected: m.params.len(),
                found: args.len(),
            });
        }
        self.counters.record(Rule::Comm);
        let mut env = obj.env.clone();
        for (x, v) in m.params.iter().zip(args) {
            env = env.bind(x.clone(), Binding::Val(v));
        }
        self.push(sid, Work::Proc(Rc::new(m.body.clone()), env));
        Ok(())
    }

    /// Spawn a class body (rule INST).
    fn instantiate(
        &mut self,
        sid: SiteId,
        group: usize,
        class: &str,
        args: Vec<Val>,
    ) -> Result<(), RtError> {
        let g = &self.groups[group];
        debug_assert_eq!(g.site, sid, "instantiate must run at the group's site");
        let clause = g
            .defs
            .get(class)
            .ok_or_else(|| RtError::UnboundClass(class.to_string()))?;
        if clause.params.len() != args.len() {
            return Err(RtError::Arity {
                what: format!("class `{class}`"),
                expected: clause.params.len(),
                found: args.len(),
            });
        }
        self.counters.record(Rule::Inst);
        let body = clause.body.clone();
        let mut env = g.env.clone();
        for (x, v) in clause.params.iter().zip(args) {
            env = env.bind(x.clone(), Binding::Val(v));
        }
        self.push(sid, Work::Proc(body, env));
        Ok(())
    }

    /// Copy a class group to `sid` (rule FETCH): the copy's classes are
    /// rebound to the copy so recursion inside downloaded code is local.
    /// Returns the local group and whether it came from the cache.
    fn fetch_group(&mut self, sid: SiteId, group: usize) -> (usize, bool) {
        if self.cache_fetched_classes {
            if let Some(&local) = self.fetch_cache.get(&(sid, group)) {
                return (local, true);
            }
        }
        let local_idx = self.groups.len();
        let src = &self.groups[group];
        let mut env = src.env.clone();
        for name in src.defs.keys() {
            env = env.bind(
                name.clone(),
                Binding::Class {
                    group: local_idx,
                    name: name.clone(),
                },
            );
        }
        let defs = src.defs.clone();
        self.groups.push(ClassGroup {
            site: sid,
            defs,
            env,
        });
        if self.cache_fetched_classes {
            self.fetch_cache.insert((sid, group), local_idx);
        }
        (local_idx, false)
    }

    fn resolve_site(&self, name: &str) -> Result<SiteId, RtError> {
        self.site_ids
            .get(name)
            .copied()
            .ok_or_else(|| RtError::UnknownSite(name.to_string()))
    }

    fn eval_name(&self, r: &NameRef, env: &Env) -> Result<Val, EvalErr> {
        match r {
            NameRef::Plain(x) => match env.lookup(x) {
                Some(Binding::Val(v)) => Ok(v.clone()),
                Some(Binding::Class { .. }) => Err(EvalErr::Rt(RtError::NotAChannel(x.clone()))),
                None => Err(EvalErr::Rt(RtError::UnboundName(x.clone()))),
            },
            NameRef::Located(sx) => {
                let (s, x) = &**sx;
                let remote = self
                    .site_ids
                    .get(s)
                    .copied()
                    .ok_or(EvalErr::Rt(RtError::UnknownSite(s.clone())))?;
                match self.exports.get(&(remote, x.clone())) {
                    Some(ExportEntry::Name(v)) => Ok(v.clone()),
                    Some(ExportEntry::Class { .. }) => {
                        Err(EvalErr::Rt(RtError::NotAChannel(x.clone())))
                    }
                    None => Err(EvalErr::Stall),
                }
            }
        }
    }

    /// Evaluate `e` on a value stack, its nodes in post-order: the left
    /// operand, then the right, then the operator.
    fn eval_expr(&self, e: &Expr, env: &Env) -> Result<Val, EvalErr> {
        if let Some(t) = e.atom() {
            return self.eval_operand(t, env);
        }
        let mut stack: Vec<Val> = Vec::new();
        for t in e.terms() {
            let v = match t {
                Term::Bin(op) => {
                    let vb = stack.pop().expect("a well-formed expression");
                    let va = stack.pop().expect("a well-formed expression");
                    eval_binop(op, va, vb).map_err(EvalErr::Rt)?
                }
                Term::Un(op) => match (op, stack.pop().expect("a well-formed expression")) {
                    (UnOp::Neg, Val::Int(i)) => Val::Int(-i),
                    (UnOp::Neg, Val::Float(x)) => Val::Float(-x),
                    (UnOp::Not, Val::Bool(b)) => Val::Bool(!b),
                    _ => return Err(EvalErr::Rt(RtError::BadOperands(op.symbol().to_string()))),
                },
                operand => self.eval_operand(operand, env)?,
            };
            stack.push(v);
        }
        Ok(stack.pop().expect("a well-formed expression"))
    }

    fn eval_operand(&self, t: Term, env: &Env) -> Result<Val, EvalErr> {
        match t {
            Term::Name(r) => self.eval_name(r, env),
            Term::Unit => Ok(Val::Unit),
            Term::Int(i) => Ok(Val::Int(i)),
            Term::Bool(b) => Ok(Val::Bool(b)),
            Term::Str(s) => Ok(Val::Str(s.into())),
            Term::Float(x) => Ok(Val::Float(x)),
            Term::Bin(_) | Term::Un(_) => unreachable!("an operand"),
        }
    }
}

/// Builtin binary operators over values (shared semantics with the VM).
pub fn eval_binop(op: BinOp, a: Val, b: Val) -> Result<Val, RtError> {
    use BinOp::*;
    use Val::*;
    let bad = || RtError::BadOperands(op.symbol().to_string());
    Ok(match (op, a, b) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(x), Int(y)) => {
            if y == 0 {
                return Err(RtError::BadOperands("division by zero".to_string()));
            }
            Int(x.wrapping_div(y))
        }
        (Mod, Int(x), Int(y)) => {
            if y == 0 {
                return Err(RtError::BadOperands("modulo by zero".to_string()));
            }
            Int(x.wrapping_rem(y))
        }
        (Add, Float(x), Float(y)) => Float(x + y),
        (Sub, Float(x), Float(y)) => Float(x - y),
        (Mul, Float(x), Float(y)) => Float(x * y),
        (Div, Float(x), Float(y)) => Float(x / y),
        (Lt, Int(x), Int(y)) => Bool(x < y),
        (Le, Int(x), Int(y)) => Bool(x <= y),
        (Gt, Int(x), Int(y)) => Bool(x > y),
        (Ge, Int(x), Int(y)) => Bool(x >= y),
        (Lt, Float(x), Float(y)) => Bool(x < y),
        (Le, Float(x), Float(y)) => Bool(x <= y),
        (Gt, Float(x), Float(y)) => Bool(x > y),
        (Ge, Float(x), Float(y)) => Bool(x >= y),
        (Eq, x, y) => Bool(x == y),
        (Ne, x, y) => Bool(x != y),
        (And, Bool(x), Bool(y)) => Bool(x && y),
        (Or, Bool(x), Bool(y)) => Bool(x || y),
        (Concat, Str(x), Str(y)) => {
            let mut s = String::with_capacity(x.len() + y.len());
            s.push_str(&x);
            s.push_str(&y);
            Str(s.into())
        }
        _ => return Err(bad()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(src: &str) -> (Network, Outcome) {
        let mut net = Network::new();
        net.add_site_src("main", src).expect("parse");
        let out = net.run(100_000).expect("run");
        (net, out)
    }

    #[test]
    fn nil_is_quiescent_immediately() {
        let (_, out) = single("0");
        assert!(out.quiescent);
        assert_eq!(out.counters.reductions(), 0);
        assert_eq!(out.counters.structural, 1);
    }

    #[test]
    fn channel_allocation_is_per_site() {
        let mut net = Network::new();
        net.add_site_src("a", "new x x![1]").unwrap();
        net.add_site_src("b", "new y y![2]").unwrap();
        net.run(10_000).unwrap();
        // Each site holds exactly its own parked message.
        assert_eq!(net.site_name(SiteId(0)), "a");
        assert_eq!(net.site_name(SiteId(1)), "b");
    }

    #[test]
    fn eval_binop_division_guards() {
        assert!(eval_binop(BinOp::Div, Val::Int(1), Val::Int(0)).is_err());
        assert!(eval_binop(BinOp::Mod, Val::Int(1), Val::Int(0)).is_err());
        assert_eq!(
            eval_binop(BinOp::Div, Val::Int(7), Val::Int(2)),
            Ok(Val::Int(3))
        );
    }

    #[test]
    fn eval_binop_equality_on_channels() {
        let c1 = Val::Chan(ChanId {
            site: SiteId(0),
            uid: 1,
        });
        let c2 = Val::Chan(ChanId {
            site: SiteId(0),
            uid: 2,
        });
        assert_eq!(
            eval_binop(BinOp::Eq, c1.clone(), c1.clone()),
            Ok(Val::Bool(true))
        );
        assert_eq!(eval_binop(BinOp::Eq, c1, c2), Ok(Val::Bool(false)));
    }

    #[test]
    fn fetch_cache_can_be_disabled() {
        // With caching off, every remote instantiation re-downloads.
        let run = |cache: bool| {
            let mut net = Network::new();
            net.cache_fetched_classes = cache;
            net.add_site_src("server", "export def K(v) = print(v) in 0")
                .unwrap();
            net.add_site_src("client", "import K from server in (K[1] | K[2] | K[3])")
                .unwrap();
            let out = net.run(100_000).unwrap();
            out.counters.fetch
        };
        assert_eq!(run(true), 1);
        assert_eq!(run(false), 3);
    }

    #[test]
    fn class_arity_checked_dynamically() {
        // Bypass static checking by driving the interpreter directly on a
        // program the type checker would reject.
        let mut net = Network::new();
        net.add_site_src("main", "def K(a, b) = 0 in K[1]").unwrap();
        let err = net.run(10_000).unwrap_err();
        assert!(matches!(err, RtError::Arity { .. }), "{err}");
    }

    #[test]
    fn duplicate_export_is_an_error() {
        let mut net = Network::new();
        net.add_site_src("main", "export new p in export new p in 0")
            .unwrap();
        let err = net.run(10_000).unwrap_err();
        assert!(matches!(err, RtError::DuplicateExport(_)), "{err}");
    }

    #[test]
    fn outputs_accessible_per_site_and_combined() {
        let mut net = Network::new();
        net.add_site_src("a", "print(1)").unwrap();
        net.add_site_src("b", "print(2)").unwrap();
        let out = net.run(10_000).unwrap();
        assert_eq!(out.outputs[0], vec!["1".to_string()]);
        assert_eq!(out.outputs[1], vec!["2".to_string()]);
        assert_eq!(out.line_multiset(), vec!["1".to_string(), "2".to_string()]);
        assert_eq!(out.all_lines(), vec![(0, "1"), (1, "2")]);
    }

    #[test]
    fn step_limit_is_respected() {
        let mut net = Network::new();
        net.add_site_src("main", "def Spin() = Spin[] in Spin[]")
            .unwrap();
        let out = net.run(500).unwrap();
        assert_eq!(out.steps, 500);
        assert!(!out.quiescent);
    }

    #[test]
    fn objects_queue_when_no_message() {
        let (_, out) = single("new x ((x?(a) = print(a)) | (x?(b) = print(b)) | x![1])");
        // Two objects queued; one message consumes the first (FIFO).
        assert_eq!(out.counters.comm, 1);
        assert_eq!(out.outputs[0], vec!["1".to_string()]);
    }
}
