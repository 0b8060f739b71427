//! Regression gate on the wake chain of one remote call.
//!
//! Two `run_distributed` processes-in-threads run a sequential RPC chain
//! over loopback TCP, and the counters they report — none of which the
//! CLI's `--stats` prints — must show that a message is carried by the
//! thread that already holds it: the kicking threads pump the daemons,
//! the environment loops look on their tick and on topology edges but
//! not per call, and the net thread runs the slice of the site a
//! readable event readied, so no worker is woken or parked per call.
//! (At the commit before the combining cell, the daemon threads' pumps
//! and the exit tests ran at 2 per call or more; before the net thread
//! ran slices, the worker parked once per call.) `scripts/wake_chain.sh`
//! is the same check from outside, in context switches.

use ditico_rt::{Cluster, LinkProfile, RunReport, TransportConfig};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use tyco_vm::word::NodeId;

const CALLS: u64 = 2000;
const HB: Duration = Duration::from_millis(25);

/// The topology both sides build: the echo server on node 0, the chain
/// on node 1; `local` picks which of them really runs here.
fn partition(local: u32) -> Cluster {
    let server = "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]";
    let client = format!(
        "import p from server in \
         def Chain(k, acc) = \
             if k > 0 then new a (p!val[k, a] | a?(v) = Chain[k - 1, acc + v]) \
             else println(acc) \
         in Chain[{CALLS}, 0]"
    );
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    c.add_node();
    c.add_node();
    // One worker: a call handed to a worker would be one park of it.
    c.sched.workers = 1;
    for (node, lexeme, src) in [(0, "server", server), (1, "client", client.as_str())] {
        if node == local {
            c.add_site_src(NodeId(node), lexeme, src).unwrap();
        } else {
            c.add_remote_site(lexeme, NodeId(node));
        }
    }
    c
}

fn cfg(local: u32, listen: Option<SocketAddr>, peers: Vec<SocketAddr>) -> TransportConfig {
    TransportConfig {
        local_nodes: vec![NodeId(local)],
        listen,
        peers,
        hb_period: HB,
        ..TransportConfig::default()
    }
}

fn check(who: &str, report: &RunReport, wall: Duration) {
    assert!(
        report.quiescent && report.detector_probes > 0,
        "{who} ends on the verdict"
    );
    assert!(report.errors.is_empty(), "{who}: {:?}", report.errors);
    let wire = report.transport.expect("wire counters");
    let wakes = report.wakes;

    // Producers pump: at least one inline pump per packet sent and per
    // packet received.
    assert!(wakes.inline_pumps >= 2 * CALLS, "{who}: {wakes:?}");

    // The environment loop looks once per heartbeat period, once per
    // topology edge, once on the verdict and a handful of times around
    // start and exit — never per call.
    let ticks = (wall.as_millis() / HB.as_millis()) as u64;
    let env_budget = ticks + wire.topology_edges + 8;
    assert!(
        wakes.env_evals <= env_budget,
        "{who}: {} exit-test evaluations, budget {env_budget} over {wall:?} ({wire:?})",
        wakes.env_evals
    );

    // Senders write their own frames: a 57-byte call never fills a
    // socket buffer, so no writer handed a connection to the net loop —
    // the only thing that rings its wake pipe on the data path.
    assert_eq!(wire.flush_stalls, 0, "{who}: {wire:?}");
    assert!(
        wire.outq_hwm <= 2,
        "{who}: frames waited to be written: {wire:?}"
    );

    // A call is one delivery to an idle site, and the net thread that
    // read it runs the site's slice: the worker is neither woken nor
    // parked per call.
    let sched = report.sched;
    assert!(
        sched.net_slices * 10 >= CALLS * 9,
        "{who}: the net thread ran {} slices for {CALLS} calls: {sched:?}",
        sched.net_slices
    );
    assert!(
        sched.parks * 20 <= CALLS,
        "{who}: {} worker parks for {CALLS} calls: {sched:?}",
        sched.parks
    );
}

#[test]
fn a_sequential_rpc_chain_wakes_nobody_it_does_not_need() {
    // Bind-then-drop is fine for one listener: nothing else in this
    // process dials out between the drop and the server's own bind.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("probe port");
        l.local_addr().expect("addr")
    };
    let t0 = Instant::now();
    let server = std::thread::spawn(move || {
        partition(0)
            .run_distributed(cfg(0, Some(addr), vec![]), Duration::from_secs(60))
            .expect("server run")
    });
    let client = partition(1)
        .run_distributed(cfg(1, None, vec![addr]), Duration::from_secs(60))
        .expect("client run");
    let client_wall = t0.elapsed();
    let server = server.join().expect("server thread");
    let server_wall = t0.elapsed();

    let sum = CALLS * (CALLS + 1) / 2 + CALLS;
    assert_eq!(client.output("client"), [sum.to_string()]);
    check("client", &client, client_wall);
    check("server", &server, server_wall);
}
