//! Sites: the basic sequential units of the implementation (§5, Fig. 3).
//!
//! A site is an extended TyCO virtual machine plus its incoming/outgoing
//! queues. The [`RtPort`] implements the VM's [`NetPort`] by translating
//! port operations into [`Packet`]s on the outgoing queue (towards the
//! node's TyCOd daemon) and by draining the incoming queue the daemon
//! fills.

use crate::termination::{TermCounters, Ticket};
use crate::wake::Wake;
use crossbeam::channel::{Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tyco_vm::codec::{Packet, TypeStamp};
use tyco_vm::port::{FetchReplyNow, ImportReply, Incoming, NetPort};
use tyco_vm::program::ImportKind;
use tyco_vm::wire::{ReleaseRun, WireGroup, WireObj, WireWord};
use tyco_vm::word::{Identity, NetRef, SiteId};
use tyco_vm::{Digest, Machine, Program, SliceStatus, VmError};

/// What the daemon puts on a site's incoming queue.
#[derive(Debug)]
pub enum RtIncoming {
    /// Plain VM traffic (messages, objects, fetch requests/replies).
    Vm(Incoming),
    /// A name-service reply for one of this site's import requests.
    ImportResolved {
        req: u64,
        result: Result<WireWord, String>,
    },
    /// The owning shard re-exported `(site, name)`: forget the resolved
    /// binding so the next `import` misses the cache and re-resolves
    /// instead of using the stale value.
    NsInvalidated { site: String, name: String },
}

/// The statically inferred interface of a site: type stamps for the names
/// it exports and for the names it imports. Derived from the type
/// checker's [`tyco_types::TypeSummary`] by the builder; empty when the
/// program bypassed the checker (then the dynamic checks stand alone).
#[derive(Debug, Clone, Default)]
pub struct SiteInterface {
    /// Exported identifier → stamp of its inferred type.
    pub exports: HashMap<String, TypeStamp>,
    /// `(exporter site lexeme, name)` → stamp of the type this site
    /// expects the import to have.
    pub imports: HashMap<(String, String), TypeStamp>,
}

/// The queue-backed [`NetPort`] of a site.
pub struct RtPort {
    identity: Identity,
    lexeme: String,
    out: Sender<(SiteId, Packet, Ticket)>,
    inbox: Receiver<(RtIncoming, Ticket)>,
    /// Incoming batch buffer: `poll` refills it from the inbox with one
    /// queue lock per backlog instead of one per item.
    pending_in: VecDeque<(RtIncoming, Ticket)>,
    /// Outgoing batch buffer: port operations append here, each packet
    /// with the ticket minted for it; [`flush`] pushes the whole backlog
    /// to the daemon under one queue lock, once per pump slice. FIFO
    /// order is that of the port calls.
    outgoing: Vec<(Packet, Ticket)>,
    /// Kicked when a flush hands the daemon packets. In real-thread runs
    /// this is the daemon's [`crate::daemon::DaemonCell`], so the flushing
    /// worker routes and encodes its own sends before the slice returns;
    /// in deterministic runs nobody answers it (the run loop pumps).
    daemon_waker: Arc<dyn Wake>,
    /// Resolved imports: (site, name, kind) → value; filled when replies
    /// arrive so re-executed `import` instructions answer `Ready`.
    cache: HashMap<(String, String, ImportKind), WireWord>,
    /// In-flight import requests: req → key.
    pending: HashMap<u64, (String, String, ImportKind)>,
    next_req: u64,
    term: &'static TermCounters,
    /// Type stamps attached to outgoing registrations and lookups.
    interface: SiteInterface,
}

impl RtPort {
    pub fn new(
        identity: Identity,
        lexeme: String,
        out: Sender<(SiteId, Packet, Ticket)>,
        inbox: Receiver<(RtIncoming, Ticket)>,
        daemon_waker: Arc<dyn Wake>,
        term: &'static TermCounters,
    ) -> RtPort {
        RtPort {
            identity,
            lexeme,
            out,
            inbox,
            pending_in: VecDeque::new(),
            outgoing: Vec::new(),
            daemon_waker,
            cache: HashMap::new(),
            pending: HashMap::new(),
            next_req: 0,
            term,
            interface: SiteInterface::default(),
        }
    }

    /// Re-point the flush kick (real-thread runs bind it to the daemon's
    /// combining cell before the workers start).
    pub fn set_daemon_waker(&mut self, waker: Arc<dyn Wake>) {
        self.daemon_waker = waker;
    }

    /// Attach the site's statically inferred interface; subsequent
    /// registrations and imports carry the matching type stamps.
    pub fn set_interface(&mut self, interface: SiteInterface) {
        self.interface = interface;
    }

    fn send(&mut self, p: Packet) {
        self.outgoing.push((p, Ticket::mint(self.term, 1)));
    }

    /// Flush the outgoing batch to the daemon: one queue lock for the
    /// whole backlog, then one kick. Called at the end of every
    /// [`Site::pump_slice`] slice (and after import re-issue). A failed send
    /// means the daemon is gone (node shut down): the packets are
    /// dropped, which is the behaviour of a dead node.
    pub fn flush(&mut self) {
        if self.outgoing.is_empty() {
            return;
        }
        let site = self.identity.site;
        let batch = self.outgoing.drain(..).map(|(p, t)| (site, p, t));
        if self.out.send_iter(batch).is_ok() {
            self.daemon_waker.wake();
        }
    }

    /// Re-issue every in-flight import request (called after a
    /// name-service failover: requests parked at the dead owner are
    /// lost).
    pub fn resend_pending_imports(&mut self) {
        let pending: Vec<(u64, (String, String, ImportKind))> =
            self.pending.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (req, (site, name, kind)) in pending {
            let expect = self
                .interface
                .imports
                .get(&(site.clone(), name.clone()))
                .cloned();
            self.send(Packet::NsImport {
                req,
                site,
                name,
                kind,
                reply_to: self.identity,
                expect,
            });
        }
        // Failover recovery happens outside the pump loop; hand the
        // re-issued lookups to the daemon right away.
        self.flush();
    }

    /// Number of in-flight import requests.
    pub fn pending_imports(&self) -> usize {
        self.pending.len()
    }

    /// Items waiting in the incoming queue (activity signal for the
    /// termination detector).
    pub fn inbox_len(&self) -> usize {
        self.pending_in.len() + self.inbox.len()
    }

    /// Drain and drop everything in the incoming queue, tickets and all.
    /// Used when the site can no longer react (runtime error): like a
    /// dead node's sites, its traffic is absorbed so the rest of the
    /// computation can still be detected as terminated.
    pub fn drop_inbox(&mut self) {
        self.inbox.drain_into(&mut self.pending_in);
        self.pending_in.clear();
    }
}

impl NetPort for RtPort {
    fn identity(&self) -> Identity {
        self.identity
    }

    fn register(&mut self, name: &str, value: WireWord) {
        let stamp = self.interface.exports.get(name).cloned();
        self.send(Packet::NsRegister {
            from_site: self.identity.site,
            site_lexeme: self.lexeme.clone(),
            name: name.to_string(),
            value,
            stamp,
        });
    }

    fn import(&mut self, site: &str, name: &str, kind: ImportKind) -> ImportReply {
        let key = (site.to_string(), name.to_string(), kind);
        if let Some(w) = self.cache.get(&key) {
            return ImportReply::Ready(w.clone());
        }
        self.next_req += 1;
        let req = self.next_req;
        self.pending.insert(req, key);
        let expect = self
            .interface
            .imports
            .get(&(site.to_string(), name.to_string()))
            .cloned();
        self.send(Packet::NsImport {
            req,
            site: site.to_string(),
            name: name.to_string(),
            kind,
            reply_to: self.identity,
            expect,
        });
        ImportReply::Pending(req)
    }

    fn send_msg(&mut self, dest: NetRef, label: &str, args: Vec<WireWord>) {
        self.send(Packet::Msg {
            dest,
            label: label.to_string(),
            args,
        });
    }

    fn send_obj(&mut self, dest: NetRef, digest: Digest, obj: WireObj) {
        self.send(Packet::Obj { dest, digest, obj });
    }

    fn fetch(&mut self, class: NetRef) -> FetchReplyNow {
        self.next_req += 1;
        let req = self.next_req;
        self.send(Packet::FetchReq {
            class,
            req,
            reply_to: self.identity,
        });
        FetchReplyNow::Pending(req)
    }

    fn fetch_reply(&mut self, to: Identity, req: u64, digest: Digest, group: WireGroup, index: u8) {
        self.send(Packet::FetchReply {
            to,
            req,
            digest,
            group,
            index,
        });
    }

    fn release(&mut self, owner: Identity, seq: u64, runs: Vec<ReleaseRun>) {
        self.send(Packet::Release {
            to: owner,
            from_site: self.identity.site,
            seq,
            runs,
        });
    }

    fn poll(&mut self) -> Option<Incoming> {
        loop {
            if self.pending_in.is_empty() && self.inbox.drain_into(&mut self.pending_in) == 0 {
                return None;
            }
            let (item, ticket) = self.pending_in.pop_front()?;
            // Handing the item over consumes it.
            drop(ticket);
            match item {
                RtIncoming::Vm(i) => return Some(i),
                RtIncoming::ImportResolved { req, result } => {
                    let key = self.pending.remove(&req);
                    return match result {
                        Ok(w) => {
                            if let Some(key) = key {
                                self.cache.insert(key, w);
                            }
                            Some(Incoming::ImportReady { req })
                        }
                        Err(reason) => Some(Incoming::ImportFailed { req, reason }),
                    };
                }
                RtIncoming::NsInvalidated { site, name } => {
                    // Handled entirely inside the port: drop the resolved
                    // binding (both kinds — the notice doesn't say which)
                    // and keep polling for something the VM can act on.
                    self.cache
                        .remove(&(site.clone(), name.clone(), ImportKind::Name));
                    self.cache
                        .remove(&(site.clone(), name.clone(), ImportKind::Class));
                }
            }
        }
    }
}

/// What one pump slice left behind — everything a scheduler worker needs
/// to requeue or retire the site without re-locking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOutcome {
    /// At least one byte-code instruction ran.
    pub ran: bool,
    /// The VM still has runnable threads.
    pub runnable: bool,
    /// Items were waiting in the inbox when the slice ended.
    pub inbox_nonempty: bool,
}

impl SliceOutcome {
    /// A site with nothing left: retire it.
    pub const RETIRED: SliceOutcome = SliceOutcome {
        ran: false,
        runnable: false,
        inbox_nonempty: false,
    };
}

/// A site: lexeme + identity + its virtual machine.
pub struct Site {
    pub lexeme: String,
    pub identity: Identity,
    pub machine: Machine<RtPort>,
    /// Set when the site's program raised a runtime error.
    pub error: Option<VmError>,
    /// Its node's [`crate::DaemonCell::down_flag`]: raised, the site is
    /// frozen, inbox and runnable threads kept.
    down: Arc<AtomicBool>,
}

impl Site {
    /// A site running `program` behind `port`, frozen while `down` is.
    pub fn new(program: Program, port: RtPort, down: Arc<AtomicBool>) -> Site {
        Site {
            lexeme: port.lexeme.clone(),
            identity: port.identity,
            machine: Machine::new(program, port),
            error: None,
            down,
        }
    }

    /// Is the site's node killed?
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Re-entrant pump slice: drain incoming, run up to `fuel`
    /// instructions, flush the outgoing batch, and report what is left.
    /// The outcome lets a scheduler worker decide to requeue or retire
    /// the site without taking its lock again.
    ///
    /// A site on a killed node runs nothing and retires. An errored
    /// site's inbox is drained and dropped (consumed with its tickets) and
    /// it always retires, so messages to it cannot wedge the termination
    /// detector.
    pub fn pump_slice(&mut self, fuel: u64) -> SliceOutcome {
        if self.is_down() {
            return SliceOutcome::RETIRED;
        }
        if self.error.is_some() {
            self.machine.port.drop_inbox();
            return SliceOutcome::RETIRED;
        }
        match self.machine.run_slice(fuel) {
            Ok(SliceStatus {
                instrs, runnable, ..
            }) => {
                self.machine.port.flush();
                SliceOutcome {
                    ran: instrs > 0,
                    runnable,
                    inbox_nonempty: self.machine.port.inbox_len() > 0,
                }
            }
            Err(e) => {
                self.error = Some(e);
                // Sends buffered before the error still count as injected;
                // hand them over rather than stranding them.
                self.machine.port.flush();
                self.machine.port.drop_inbox();
                SliceOutcome::RETIRED
            }
        }
    }
}
