//! Every runtime counter a run reports, declared once (DESIGN.md §22).
//!
//! A group is one entry of `counters!`: a name, a doc and its fields.
//! From it the macro makes the plain `Copy` report struct, a field-wise
//! `+=` and `Sum`, the field names ([`Counters::get`] reads a counter by
//! its dotted path) and, for a group counted from several threads, its
//! tally: one `AtomicU64` per field, each bumped with a `Relaxed` op on
//! the hot path, and `snapshot()`. Names are read only at report time:
//! the CLI's `--stats` lines are templates filled by [`render`].

use std::iter::Sum;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters read by name.
pub trait Counters {
    /// The counter at `path`: a field name, dotted into a nested group
    /// (`cache.hits`). A plain number is the counter at the empty path.
    fn get(&self, path: &str) -> Option<u64>;
}

impl Counters for u64 {
    fn get(&self, path: &str) -> Option<u64> {
        path.is_empty().then_some(*self)
    }
}

/// Split a counter path at its first dot: the head names a field, the
/// rest is read from it.
pub fn split(path: &str) -> (&str, &str) {
    path.split_once('.').unwrap_or((path, ""))
}

/// Fill every `{path}` of `template` with the counter `counters` reads
/// at that path. An unknown name is an error, never a zero.
pub fn render(template: &str, counters: &dyn Counters) -> Result<String, String> {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some((text, tail)) = rest.split_once('{') {
        let (path, tail) = tail.split_once('}').ok_or("unclosed `{` in a template")?;
        let value = counters
            .get(path)
            .ok_or_else(|| format!("unknown counter `{path}`"))?;
        out.push_str(text);
        out.push_str(&value.to_string());
        rest = tail;
    }
    out.push_str(rest);
    Ok(out)
}

/// Declares counter groups. A group is `pub struct Name` with an
/// optional `/ Tally` (the atomic twin) and an optional `into Other`
/// (fields marked `=> other_field` carry into `Other` by `From`); a
/// field is a `u64` unless it names a nested group's type.
macro_rules! counters {
    (@ty) => { u64 };
    (@ty $ty:ty) => { $ty };
    (@tally $group:ident [] $($field:ident)*) => {};
    (@tally $group:ident [$tally:ident] $($field:ident)*) => {
        #[doc = concat!("[`", stringify!($group), "`] counted from several threads.")]
        #[derive(Debug, Default)]
        pub struct $tally {
            $(pub $field: AtomicU64,)*
        }

        impl $tally {
            /// What every counter reads now.
            pub fn snapshot(&self) -> $group {
                $group { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }
    };
    (@into $group:ident [] $($rest:tt)*) => {};
    (@into $group:ident [$other:ident] $($field:ident [$($to:ident)?])*) => {
        impl From<$group> for $other {
            fn from(s: $group) -> $other {
                $other { $($($to: s.$field,)?)* ..$other::default() }
            }
        }
    };
    ($(
        $(#[$doc:meta])*
        pub struct $group:ident $(/ $tally:ident)? $(into $other:ident)? {
            $($(#[$fdoc:meta])* $field:ident $(: $ty:ty)? $(=> $to:ident)?,)*
        }
    )*) => {$(
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $group {
            $($(#[$fdoc])* pub $field: counters!(@ty $($ty)?),)*
        }

        impl $group {
            /// The group's counter names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];
        }

        impl Counters for $group {
            fn get(&self, path: &str) -> Option<u64> {
                let (head, rest) = split(path);
                match head {
                    $(stringify!($field) => self.$field.get(rest),)*
                    _ => None,
                }
            }
        }

        impl AddAssign for $group {
            fn add_assign(&mut self, o: $group) {
                $(self.$field += o.$field;)*
            }
        }

        impl Sum for $group {
            fn sum<I: Iterator<Item = $group>>(groups: I) -> $group {
                let mut total = $group::default();
                groups.for_each(|g| total += g);
                total
            }
        }

        counters!(@tally $group [$($tally)?] $($field)*);
        counters!(@into $group [$($other)?] $($field [$($to)?])*);
    )*};
}

counters! {
    /// Wire-level counters, snapshotted into the final `RunReport`.
    pub struct TransportReport / TransportTally {
        /// Frames queued for the wire (data + control).
        frames_out,
        /// Frames parsed off the wire (data + control).
        frames_in,
        bytes_out,
        bytes_in,
        /// Data packets routed onto sockets / injected from sockets.
        data_out,
        data_in,
        heartbeats_in,
        /// Outbound frames dropped on a full or dead queue, plus inbound
        /// frames addressed to nodes this process does not host.
        dropped,
        /// Successful re-establishments of an outbound connection.
        reconnects,
        /// Outbound peers declared permanently down (retry cap exhausted).
        peers_failed,
        /// Connections dropped during handshake over a wire-version mismatch.
        version_mismatches,
        /// High-water mark of any per-connection outbound queue — how deep
        /// backpressure ever got.
        outq_hwm,
        /// Flushes parked on `writable` readiness (the socket buffer was
        /// full and the event loop had to wait to finish writing).
        flush_stalls,
        /// Outbound packets dropped because every route to the destination
        /// was declared permanently down or departed (subset of `dropped`).
        dropped_perma,
        /// Topology edges signalled to the environment loop: routes
        /// installed, connections dropped, dialers exhausted.
        topology_edges,
        /// Termination snapshots this process took: one per wave it started
        /// and one per probe it answered.
        detector_probes,
    }

    /// Counters of every fault the plan actually injected. Snapshot lands in
    /// `RunReport.chaos`.
    pub struct ChaosReport / ChaosTally {
        /// Packets dropped by the per-packet fault die.
        dropped,
        /// Packets duplicated (one extra copy each).
        duplicated,
        /// Packets held back by `delay_ns`.
        delayed,
        /// Packets (and heartbeat frames) dropped because an active
        /// partition cuts their edge.
        partition_drops,
        /// Timed events applied, by kind.
        partitions,
        heals,
        kills,
        restarts,
    }

    /// Aggregated scheduler counters, reported in
    /// [`crate::cluster::RunReport`]. The pool size and the slice totals
    /// are read from the pool and its slots, not tallied.
    pub struct SchedStats / SchedTally {
        /// Worker pool size of the run.
        workers,
        /// Batches stolen from another worker's queue.
        steals,
        /// Sites pushed onto the global injector (edge-triggered wakeups).
        injector_pushes,
        /// Times a worker parked with every queue empty.
        parks,
        /// Wakeups issued to parked workers.
        unparks,
        /// Deepest any ready queue (injector or local) ever got.
        max_ready_depth,
        /// Total pump slices executed, by workers and the net thread alike.
        slices,
        /// Slices the transport's net thread ran of a site its readable
        /// event readied ([`crate::sched::inject_and_run`]).
        net_slices,
        /// Most slices any single site consumed.
        max_site_slices,
    }

    /// Per-daemon traffic statistics.
    pub struct DaemonStats {
        /// Packets delivered through shared memory (same node).
        local_deliveries,
        /// Packets serialized and pushed into the fabric.
        remote_sends,
        /// Fabric flushes those packets went out in; mean batch occupancy is
        /// `remote_sends / remote_batches`.
        remote_batches,
        /// Bytes serialized for remote sends.
        bytes_out,
        /// Packets received from the fabric.
        remote_recvs,
        /// Name-service operations handled locally.
        ns_ops,
        /// Fabric packets dropped at the trust boundary: undecodable bytes,
        /// or mobile code that failed static verification before link.
        rejected,
        /// Content-addressed code-cache counters.
        cache: CodeCacheStats,
        /// Name-service counters: shard routing, lease cache, failure
        /// reasons by kind (see [`NsStats`]).
        ns: NsStats,
    }

    /// Counters for the content-addressed code store and the fetch protocol
    /// built on it.
    pub struct CodeCacheStats {
        /// Digest-only packets rehydrated from the local store (including
        /// ones completed by a `HaveCode` refill).
        hits,
        /// Digest-only packets whose image was missing on arrival; each
        /// distinct missing digest costs one `NeedCode` round trip.
        misses,
        /// `FetchReq`s folded into an already-in-flight fetch of the same
        /// class (single-flight coalescing).
        coalesced,
        /// Code-carrying packets sent digest-only instead of with full bytes.
        dedup_sends,
        /// Wire bytes those digest-only sends avoided (stored image size
        /// minus the digest still carried).
        bytes_saved,
        /// Images inserted into the store.
        insertions,
        /// Images evicted to honor the capacity bound.
        evictions,
        /// Code packets whose bytes did not hash to their carried digest
        /// (tampered in flight; dropped before they reach the store).
        digest_mismatches,
    }

    /// Structured name-service counters, kept per daemon and summed into the
    /// run report. Import failures are counted by *reason* (unknown site vs
    /// kind vs type-stamp refusal vs lease expiry) instead of one flat
    /// `ImportFailed` bucket.
    pub struct NsStats {
        /// Registrations applied (exports).
        registers,
        /// Lookups received (imports).
        imports,
        /// Lookups answered with a binding.
        resolved,
        /// Lookups parked waiting for an export.
        parked,
        /// Lookups refused: unknown site lexeme (permanent error).
        unknown_site,
        /// Lookups refused: export exists but has the wrong kind.
        kind_mismatch,
        /// Lookups refused: bind-time type-stamp mismatch.
        stamp_mismatch,
        /// Node-cache lease hits (import answered with zero wire traffic).
        lease_hits,
        /// Node-cache misses (no lease held; routed to the owning shard).
        lease_misses,
        /// Node-cache entries that had expired when consulted.
        lease_expired,
        /// Invalidations emitted by owners on re-export epoch bumps.
        invalidations,
        /// Imports that left the importing node for a remote shard owner.
        shard_hops,
        /// Replication records shipped to the shard's ring successor.
        repl_shipped,
        /// Replication records applied from a ring partner.
        repl_applied,
    }

    /// Wake-chain counters of a real-thread run: how often each party that
    /// can be woken per message actually was. Carried for regression tests
    /// (`tests/wake_chain.rs`); the CLI's `--stats` report does not print
    /// them.
    pub struct WakeStats {
        /// Daemon pumps, each run by the thread that kicked the daemon (a
        /// worker ending its slice, the net thread after a read, another
        /// daemon's pump) or by the holder the kick lost the lock to, summed
        /// over nodes.
        inline_pumps,
        /// Times the environment loop evaluated its exit test (either clock).
        env_evals,
    }

    /// Counters of a node's lease cache; the lookups carry into the
    /// daemon's [`NsStats`] as its `lease_*` counters.
    pub struct NameCacheStats into NsStats {
        /// Lookups answered from a live lease.
        hits => lease_hits,
        /// Lookups with no cached entry.
        misses => lease_misses,
        /// Lookups that found an entry whose lease had run out.
        expired => lease_expired,
        /// Entries dropped by an owner's epoch-bump invalidation.
        invalidations,
    }
}
