//! # ditico-rt
//!
//! The DiTyCO distributed runtime (§5 of the paper): sites, nodes and
//! networks.
//!
//! * [`site`] — sites as extended TyCO virtual machines with
//!   incoming/outgoing queues ([`site::RtPort`] implements the VM's
//!   network port);
//! * [`daemon`] — TyCOd, the per-node communication daemon: shared-memory
//!   local delivery, byte-encoded remote forwarding, name-service hosting;
//!   and the combining cell ([`daemon::DaemonCell`]) that lets whoever
//!   hands a daemon work pump it, instead of waking a thread to;
//! * [`codecache`] — the node-level content-addressed store for mobile
//!   code backing single-flight fetch coalescing, wire-level dedup and
//!   verify-once linking;
//! * [`nameservice`] — the Network Name Service (SiteTable + IdTable),
//!   with blocking lookups; one service placed by a shard map — a ring
//!   of one is the paper's central registry, larger rings shard it by
//!   consistent hashing with per-shard follower replication;
//! * [`namecache`] — the node-level lease cache of resolved bindings
//!   granted when the name service's lease TTL is positive (warm repeat
//!   imports are zero-wire);
//! * [`fabric`] — the simulated interconnect (Myrinet / Fast Ethernet /
//!   WAN link profiles; ideal and virtual-time delivery);
//! * [`counters`] — every counter a run reports, declared once, and the
//!   renderer of the report lines that name them;
//! * [`cluster`] — the environment tying it together, with deterministic
//!   and threaded execution;
//! * [`sched`] — the M:N work-stealing scheduler threaded execution runs
//!   on: thousands of sites multiplexed over a fixed worker pool with
//!   edge-triggered readiness;
//! * [`termination`] — Mattern-style four-counter termination detection
//!   (§7 future work), summed across processes by the transport's waves;
//!   every packet carries the [`Ticket`] that counts it in and out;
//! * [`failure`] — heartbeat failure detection feeding the shard map's
//!   failover (§5/§7 future work);
//! * [`transport`] — the real TCP transport: length-prefixed frames over
//!   sockets, read by one epoll event loop (Linux) and written by the
//!   sending thread, with reconnect/backoff and wire heartbeats feeding
//!   the failure monitor; inbound payloads reach the daemon's verifier
//!   screen unopened.

pub mod chaos;
pub mod cluster;
pub mod codecache;
pub mod counters;
pub mod daemon;
pub mod fabric;
pub mod failure;
pub mod namecache;
pub mod nameservice;
// Linux-only: the module's hand-declared syscall constants and sockaddr
// layouts are Linux's (see its module docs). Only the TCP transport needs
// it; `Transport::start` is where other targets are told so.
#[cfg(target_os = "linux")]
pub mod poller;
pub mod sched;
pub mod site;
pub mod termination;
pub mod transport;
pub mod wake;

pub use chaos::{ChaosEvent, ChaosPlan, ChaosSpec, ChaosState};
pub use cluster::{Cluster, RunLimits, RunReport};
pub use codecache::CodeCache;
pub use counters::{
    ChaosReport, CodeCacheStats, Counters, DaemonStats, NameCacheStats, NsStats, SchedStats,
    TransportReport, WakeStats,
};
pub use daemon::{Daemon, DaemonCell};
pub use fabric::{Clock, Fabric, FabricStats, LinkProfile, PacketFabric};
pub use failure::FailureMonitor;
pub use namecache::NameCache;
pub use nameservice::{NameService, NsShardMap};
pub use sched::SchedConfig;
pub use site::{RtIncoming, RtPort, Site, SiteInterface, SliceOutcome};
pub use termination::{Snapshot, TermCounters, TerminationDetector, Ticket};
pub use transport::{parse_peer_list, NetHandle, Transport, TransportConfig};
pub use wake::{Notify, Wake};
