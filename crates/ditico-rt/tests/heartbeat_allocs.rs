//! The heartbeat tick allocates nothing. Two partitions of this process
//! stay connected over loopback TCP with nothing to compute: a third
//! member node of their topology never comes up (a server waiting for a
//! client that has not started), so neither reaches the verdict and both
//! run until their wall limit, beaconing every 2 ms. Each tick beacons,
//! tries a termination wave (blocked on the missing member) and runs the
//! environment loop's exit test.
//!
//! A process-wide counting allocator measures both partitions. Allocator
//! calls per tick are the difference between a short and a long run over
//! the extra ticks (the beacons each side heard), so start-up and
//! teardown cancel out.
//!
//! Only one `#[test]` lives in this binary, so nothing runs beside it
//! while it counts.

use ditico_rt::{Cluster, LinkProfile, RunReport, TransportConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tyco_vm::word::NodeId;

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

/// Node `local`'s partition of a three-node topology: an exporter on
/// node 0, its importer on node 1, and a site on node 2 nobody runs.
fn partition(local: u32) -> Cluster {
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    for _ in 0..3 {
        c.add_node();
    }
    if local == 0 {
        c.add_site_src(NodeId(0), "server", "export new p in 0")
            .unwrap();
        c.add_remote_site("client", NodeId(1));
    } else {
        c.add_remote_site("server", NodeId(0));
        c.add_site_src(NodeId(1), "client", "import p from server in 0")
            .unwrap();
    }
    c.add_remote_site("absent", NodeId(2));
    c
}

fn run(local: u32, cfg: TransportConfig, wall: Duration) -> RunReport {
    partition(local)
        .run_distributed(cfg, wall)
        .expect("distributed run")
}

/// Spin (yielding the CPU, which the server needs) until the kernel's
/// socket table shows `addr` listening, so the client's first dial finds
/// it. The table is read rather than the port dialed, which the server
/// would count, and into `table`, reserved beforehand, so that the wait
/// allocates nothing while the allocator is counting.
fn wait_listening(addr: SocketAddr, table: &mut String) {
    let needle = format!(" 0100007F:{:04X} 00000000:0000 0A ", addr.port());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        table.clear();
        std::fs::File::open("/proc/net/tcp")
            .and_then(|mut f| f.read_to_string(table))
            .expect("/proc/net/tcp");
        if table.contains(&needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "nothing listens on {addr} after 10 s"
        );
        std::thread::yield_now();
    }
}

/// Allocations and heartbeat ticks of one pair run for `wall`.
fn run_pair(wall: Duration) -> (u64, u64) {
    let addr: SocketAddr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port");
    let hb_period = Duration::from_millis(2);
    let mut table = String::with_capacity(1 << 20);
    let before = ALLOCS.load(Ordering::Relaxed);
    let server_cfg = TransportConfig {
        local_nodes: vec![NodeId(0)],
        listen: Some(addr),
        hb_period,
        ..TransportConfig::default()
    };
    let server = std::thread::spawn(move || run(0, server_cfg, wall));
    wait_listening(addr, &mut table);
    let client_cfg = TransportConfig {
        local_nodes: vec![NodeId(1)],
        peers: vec![addr],
        hb_period,
        ..TransportConfig::default()
    };
    let client = run(1, client_cfg, wall);
    let server = server.join().expect("server thread");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let mut ticks = 0;
    for r in [&client, &server] {
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!(!r.quiescent, "the absent member holds off the verdict");
        let wire = r.transport.expect("wire counters");
        assert_eq!(wire.reconnects + wire.peers_failed, 0, "{wire:?}");
        ticks += wire.heartbeats_in;
    }
    (allocs, ticks)
}

#[test]
fn an_idle_tick_allocates_nothing() {
    let (short, short_ticks) = run_pair(Duration::from_millis(300));
    let (long, long_ticks) = run_pair(Duration::from_millis(1200));
    assert!(
        long_ticks >= short_ticks + 100,
        "ticks: {short_ticks} then {long_ticks}"
    );
    let per_tick = long.saturating_sub(short) as f64 / (long_ticks - short_ticks) as f64;
    println!(
        "heartbeat_allocs: {short} allocs over {short_ticks} ticks, {long} over {long_ticks}: \
         {per_tick:.3} per tick per process"
    );
    assert!(
        per_tick <= 0.1,
        "{per_tick:.3} allocations per heartbeat tick per process (at most 0.1)"
    );
}
