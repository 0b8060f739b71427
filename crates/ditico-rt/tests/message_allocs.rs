//! A remote message allocates almost nothing of its own. The §3 RPC runs
//! as two partitions of this process over loopback TCP — the server
//! echoes `val(x, r)` as `r![x + 1]`, the client runs chains of calls —
//! and a process-wide counting allocator measures both sides at once.
//!
//! Allocations per RPC are the difference between two call counts over
//! the extra calls, so start-up, the handshake, the import and the
//! termination waves cancel out. Heartbeats do not: they come per unit
//! of time, and the larger run takes longer, the more so on a slow
//! build. So they beat every 250 ms here. At 25 ms, an AddressSanitizer
//! build read 4.6–4.8 allocations per sequential RPC where a release
//! build read 4.1; at 250 ms both read 4.0–4.1.
//!
//! Pipelined (64 chains in flight on one connection) and sequential
//! (one chain, one call in flight) are measured separately: a
//! sequential call pays every batch, flush and wake alone.
//!
//! Only one `#[test]` lives in this binary, so nothing runs beside it
//! while it counts.

use ditico_rt::{Cluster, LinkProfile, TransportConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tyco_vm::word::NodeId;

/// Counts every allocation of the process, on every thread: both
/// partitions, their net threads and their workers.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a static atomic, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const SERVER: &str = "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]";

/// `chains` chains of `calls` sequential calls each; chain `c` prints
/// the sum of its replies.
fn client(chains: u64, calls: u64) -> String {
    let mut src = String::from(
        "import p from server in \
         def Chain(c, k, acc) = \
         if k > 0 then new a (p!val[k, a] | a?(v) = Chain[c, k - 1, acc + v]) \
         else println(\"chain\", c, acc) \
         in (0",
    );
    for c in 0..chains {
        src.push_str(&format!(" | Chain[{c}, {calls}, 0]"));
    }
    src.push(')');
    src
}

/// Both partitions build the same two-node topology; `local` selects
/// which node gets its VM.
fn partition(local: u32, chains: u64, calls: u64) -> Cluster {
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node(); // node 0: server + the name service
    c.add_node(); // node 1: client
    if local == 0 {
        c.add_site_src(NodeId(0), "server", SERVER).unwrap();
        c.add_remote_site("client", NodeId(1));
    } else {
        c.add_remote_site("server", NodeId(0));
        c.add_site_src(NodeId(1), "client", &client(chains, calls))
            .unwrap();
    }
    c
}

/// Allocations made by one two-partition run of `chains × calls` RPCs,
/// from building the clusters to both reports.
fn run_allocs(chains: u64, calls: u64) -> u64 {
    let addr: SocketAddr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port");
    let before = ALLOCS.load(Ordering::Relaxed);
    let server_cfg = TransportConfig {
        local_nodes: vec![NodeId(0)],
        listen: Some(addr),
        hb_period: Duration::from_millis(250),
        ..TransportConfig::default()
    };
    let server = std::thread::spawn(move || {
        partition(0, chains, calls)
            .run_distributed(server_cfg, Duration::from_secs(120))
            .expect("server run")
    });
    let client_cfg = TransportConfig {
        local_nodes: vec![NodeId(1)],
        peers: vec![addr],
        hb_period: Duration::from_millis(250),
        ..TransportConfig::default()
    };
    let client = partition(1, chains, calls)
        .run_distributed(client_cfg, Duration::from_secs(120))
        .expect("client run");
    let server = server.join().expect("server thread");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let sum = calls * (calls + 1) / 2 + calls;
    let mut want: Vec<String> = (0..chains).map(|c| format!("chain {c} {sum}")).collect();
    let mut got = client.output("client").to_vec();
    want.sort();
    got.sort();
    assert_eq!(got, want, "every chain adds up its replies");
    assert!(client.errors.is_empty(), "{:?}", client.errors);
    assert!(server.errors.is_empty(), "{:?}", server.errors);
    assert!(
        client.quiescent && server.quiescent,
        "both end on the verdict"
    );
    allocs
}

/// Allocator calls per RPC of `chains` chains, between `calls.0` and
/// `calls.1` calls per chain.
fn per_rpc(chains: u64, calls: (u64, u64)) -> f64 {
    let small = run_allocs(chains, calls.0);
    let large = run_allocs(chains, calls.1);
    let extra = chains * (calls.1 - calls.0);
    let per = large.saturating_sub(small) as f64 / extra as f64;
    println!(
        "message_allocs: {chains} chain(s): {small} allocs at {} calls, {large} at {}: {per:.2} per RPC",
        chains * calls.0,
        chains * calls.1,
    );
    per
}

#[test]
fn a_remote_message_allocates_almost_nothing() {
    let pipelined = per_rpc(64, (40, 160));
    let sequential = per_rpc(1, (400, 1600));
    assert!(
        pipelined <= 4.5,
        "{pipelined:.2} allocations per pipelined RPC (at most 4.5)"
    );
    assert!(
        sequential <= 4.5,
        "{sequential:.2} allocations per sequential RPC (at most 4.5)"
    );
}
