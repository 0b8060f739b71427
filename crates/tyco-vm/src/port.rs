//! The network port: how an extended TyCOVM site talks to the rest of the
//! world (its node's TyCOd daemon and, through it, the name service and
//! other sites).
//!
//! The VM is transport-agnostic: `ditico-rt` provides the real
//! queue-and-daemon implementation, while [`LoopbackPort`] provides an
//! in-process one for single-site programs and tests.

use crate::digest::Digest;
use crate::program::ImportKind;
use crate::wire::{Label, ReleaseRun, WireGroup, WireObj, WireWord};
use crate::word::{Identity, NetRef, SiteId};
use std::collections::HashMap;

/// Reply to an `import` instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportReply {
    /// The identifier resolved immediately.
    Ready(WireWord),
    /// The name service was asked; the thread must suspend until an
    /// [`Incoming::ImportReady`] for this request id arrives.
    Pending(u64),
    /// The identifier cannot resolve (unknown site, wrong kind, …).
    Failed(String),
}

/// Reply to a class fetch.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchReplyNow {
    Ready(WireGroup, u8),
    Pending(u64),
    Failed(String),
}

/// Something that arrived on the site's incoming queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A shipped message (post-SHIPM): deliver to the channel exported
    /// under `dest` in this site's export table.
    Msg {
        dest: u64,
        label: Label,
        args: Vec<WireWord>,
    },
    /// A migrated object (post-SHIPO).
    Obj { dest: u64, obj: WireObj },
    /// Another site asks for the class group exported under `dest`.
    FetchReq {
        dest: u64,
        req: u64,
        reply_to: Identity,
    },
    /// The byte-code for a previously requested class arrived.
    FetchReply {
        req: u64,
        group: WireGroup,
        index: u8,
    },
    /// A pending import resolved; re-execute the suspended instruction
    /// (the port now answers `Ready`).
    ImportReady { req: u64 },
    /// A pending import failed permanently.
    ImportFailed { req: u64, reason: String },
    /// Site `from_site` released channels this site exported to it.
    Release {
        from_site: SiteId,
        seq: u64,
        runs: Vec<ReleaseRun>,
    },
}

/// The extended-VM ↔ daemon interface (§5: outgoing/incoming queues, the
/// `export`/`import` instructions, and FETCH traffic).
pub trait NetPort {
    /// This site's network identity.
    fn identity(&self) -> Identity;

    /// Register an exported identifier with the network name service.
    fn register(&mut self, name: &str, value: WireWord);

    /// Resolve `site.name` through the name service.
    fn import(&mut self, site: &str, name: &str, kind: ImportKind) -> ImportReply;

    /// Ship a message to a remote channel (SHIPM).
    fn send_msg(&mut self, dest: NetRef, label: Label, args: Vec<WireWord>);

    /// Migrate an object to a remote channel's site (SHIPO). `digest` is
    /// the content fingerprint of `obj.code` (computed once at packaging
    /// time) — the runtime uses it for wire-level code dedup.
    fn send_obj(&mut self, dest: NetRef, digest: Digest, obj: WireObj);

    /// Request the byte-code of a remote class (FETCH).
    fn fetch(&mut self, class: NetRef) -> FetchReplyNow;

    /// Answer a fetch request addressed to this site. `digest`
    /// fingerprints `group.code`.
    fn fetch_reply(&mut self, to: Identity, req: u64, digest: Digest, group: WireGroup, index: u8);

    /// Drain one item from the incoming queue.
    fn poll(&mut self) -> Option<Incoming>;

    /// Give the channels in `runs` back to `owner`, the site that exported
    /// them (DESIGN.md §20). A port that cannot reach other sites drops
    /// the release: the owner's entries then stay, which is safe.
    fn release(&mut self, _owner: Identity, _seq: u64, _runs: Vec<ReleaseRun>) {}
}

/// An in-process port for a single, isolated site.
///
/// `export` registers into a local registry; `import` resolves only
/// against identifiers this same site exported under its own site lexeme
/// (useful for tests and single-site programs). All ship operations are
/// recorded so tests can assert on them; nothing actually leaves.
#[derive(Debug, Default)]
pub struct LoopbackPort {
    /// The lexeme this site answers to in `import … from <site>`.
    pub site_lexeme: String,
    identity: Identity,
    registry: HashMap<String, WireWord>,
    /// Messages that would have left the site (none should, in loopback
    /// use; retained for assertions).
    pub sent_msgs: Vec<(NetRef, Label, Vec<WireWord>)>,
    pub sent_objs: Vec<(NetRef, Digest, WireObj)>,
    pub released: Vec<(Identity, u64, Vec<ReleaseRun>)>,
    queue: std::collections::VecDeque<Incoming>,
}

impl LoopbackPort {
    pub fn new(site_lexeme: &str) -> LoopbackPort {
        LoopbackPort {
            site_lexeme: site_lexeme.to_string(),
            ..Default::default()
        }
    }

    /// Inject an incoming item (tests).
    pub fn inject(&mut self, item: Incoming) {
        self.queue.push_back(item);
    }

    /// Look at the local registry (tests).
    pub fn registered(&self, name: &str) -> Option<&WireWord> {
        self.registry.get(name)
    }
}

impl NetPort for LoopbackPort {
    fn identity(&self) -> Identity {
        self.identity
    }

    fn register(&mut self, name: &str, value: WireWord) {
        self.registry.insert(name.to_string(), value);
    }

    fn import(&mut self, site: &str, name: &str, kind: ImportKind) -> ImportReply {
        if site != self.site_lexeme {
            return ImportReply::Failed(format!(
                "loopback site `{}` cannot reach site `{site}`",
                self.site_lexeme
            ));
        }
        match (kind, self.registry.get(name)) {
            (ImportKind::Name, Some(w @ WireWord::Chan(_)))
            | (ImportKind::Class, Some(w @ WireWord::Class(_))) => ImportReply::Ready(w.clone()),
            (_, Some(_)) => ImportReply::Failed(format!("`{name}` has the wrong kind")),
            (_, None) => ImportReply::Failed(format!("`{name}` is not exported")),
        }
    }

    fn send_msg(&mut self, dest: NetRef, label: Label, args: Vec<WireWord>) {
        self.sent_msgs.push((dest, label, args));
    }

    fn send_obj(&mut self, dest: NetRef, digest: Digest, obj: WireObj) {
        self.sent_objs.push((dest, digest, obj));
    }

    fn fetch(&mut self, class: NetRef) -> FetchReplyNow {
        FetchReplyNow::Failed(format!("loopback cannot fetch {class}"))
    }

    fn fetch_reply(
        &mut self,
        _to: Identity,
        _req: u64,
        _digest: Digest,
        _group: WireGroup,
        _index: u8,
    ) {
    }

    fn poll(&mut self) -> Option<Incoming> {
        self.queue.pop_front()
    }

    fn release(&mut self, owner: Identity, seq: u64, runs: Vec<ReleaseRun>) {
        self.released.push((owner, seq, runs));
    }
}
