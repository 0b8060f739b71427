//! Hot-path throughput: single-site VM dispatch (instrs/sec) and
//! cross-site fabric messaging (messages/sec).
//!
//! The single-site measurement is an A/B pair over *byte-identical*
//! programs (compiled once, cloned into each machine): the default fused
//! machine and a `Machine::new_unfused` control. The recorded
//! `instrs_per_sec` is the fused number; the unfused control and the ratio
//! land next to it so a fusion regression is visible in the record.
//! Method inline-cache hit rate and the dominant opcode digrams (from an
//! instrumented telemetry run, never from the timed runs) are recorded
//! too. The smoke runs both measurements at 1% scale, once.

use std::time::{Duration, Instant};

use ditico::{Cluster, FabricMode, LinkProfile};
use tyco_vm::{compile, LoopbackPort, Machine, Program};

use crate::json::Json;
use crate::{cell_churn, point, round, str_churn, vals};

/// Cell transactions for the single-site dispatch workload.
const CHURN_ITERS: u64 = 500_000;
/// Same shape, but shuttling string payloads (exercises `PushStr`).
const STR_ITERS: u64 = 350_000;
/// Repetitions per single-site workload; best run is recorded.
const REPS: usize = 3;
/// Messages streamed to the hub per cross-site client.
const MSGS_PER_CLIENT: u64 = 96_000;
/// Flow-control window: after every `BURST` pings the client waits for a
/// sync ack, bounding in-flight traffic without idling the wires.
const BURST: u64 = 1_000;
/// Client sites per worker node.
const CLIENTS_PER_NODE: usize = 2;
/// Worker nodes (plus one hub node).
const WORKER_NODES: usize = 3;
/// Hard cap on the threaded run.
const WALL_LIMIT: Duration = Duration::from_secs(60);

fn compile_src(src: &str) -> Program {
    compile(&tyco_syntax::parse_core(src).expect("parses")).expect("compiles")
}

/// Best-of-`reps` wall-clock execution of a pre-compiled single-site
/// program; returns (instructions, ic hit rate, best elapsed). Both A/B
/// arms clone the same `Program`, so they execute byte-identical inputs.
fn time_single_site(prog: &Program, fused: bool, reps: usize) -> (u64, f64, Duration) {
    let mut best = Duration::MAX;
    let mut instrs = 0;
    let mut ic_rate = 0.0;
    for _ in 0..reps {
        let port = LoopbackPort::new("main");
        let mut m = if fused {
            Machine::new(prog.clone(), port)
        } else {
            Machine::new_unfused(prog.clone(), port)
        };
        let start = Instant::now();
        m.run_to_quiescence(u64::MAX).expect("runs");
        let elapsed = start.elapsed();
        instrs = m.stats.instrs;
        ic_rate = m.stats.ic_hit_rate().unwrap_or(0.0);
        if elapsed < best {
            best = elapsed;
        }
    }
    (instrs, ic_rate, best)
}

fn single_site(name: &str, smoke: bool, churn_iters: u64, str_iters: u64, reps: usize) -> Json {
    let cell = compile_src(&cell_churn(churn_iters));
    let strp = compile_src(&str_churn(str_iters));
    let mut ips = [0.0f64; 2];
    let mut ic = 0.0;
    let mut instrs = 0;
    for (slot, fused) in [(0, false), (1, true)] {
        let (i1, r1, t1) = time_single_site(&cell, fused, reps);
        let (i2, _r2, t2) = time_single_site(&strp, fused, reps);
        instrs = i1 + i2;
        ips[slot] = instrs as f64 / (t1 + t2).as_secs_f64();
        if fused {
            ic = r1;
        }
    }
    eprintln!(
        "   {name}: {instrs} instrs, fused {:.0} / unfused {:.0} instrs/sec, ic hit rate {:.1}%",
        ips[1],
        ips[0],
        ic * 100.0
    );
    point(
        name,
        smoke,
        vals! {"instrs" => instrs, "ic_hit_rate" => round(ic, 4)},
        vals! {
            "instrs_per_sec" => ips[1].round(),
            "unfused_instrs_per_sec" => ips[0].round(),
            "fusion_speedup" => round(ips[1] / ips[0], 3),
        },
    )
}

/// Dominant dynamic opcode digrams, from a dedicated `--opstats` telemetry
/// run over unfused base opcodes (a fraction of the timed workload; the
/// timed runs carry no instrumentation).
fn top_digrams(n: usize) -> Json {
    let prog = compile_src(&cell_churn(CHURN_ITERS / 100));
    let mut m = Machine::new_unfused(prog, LoopbackPort::new("main"));
    m.enable_opstats();
    m.run_to_quiescence(u64::MAX).expect("runs");
    let ops = m.stats.ops.as_ref().expect("opstats enabled");
    let digrams = ops
        .top_digrams(n)
        .into_iter()
        .map(|(a, b, count)| (format!("{a};{b}"), Json::Num(count as f64)))
        .collect();
    point("top digrams", true, Json::Obj(digrams), vals! {})
}

/// Threaded cluster: one hub node draining a message stream, `WORKER_NODES`
/// nodes of `CLIENTS_PER_NODE` sites each pushing `msgs_per_client` pings
/// in `BURST`-sized windows closed by a sync round-trip.
fn cross_site(name: &str, smoke: bool, msgs_per_client: u64) -> Json {
    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    let hub_node = c.add_node();
    c.add_site_src(
        hub_node,
        "hub",
        "def Hub(self) = self?{ ping(x) = Hub[self], sync(r) = (r![0] | Hub[self]) } \
         in export new hub in Hub[hub]",
    )
    .expect("hub compiles");
    let bursts = (msgs_per_client / BURST).max(1);
    for n in 0..WORKER_NODES {
        let node = c.add_node();
        for s in 0..CLIENTS_PER_NODE {
            c.add_site_src(
                node,
                &format!("w{n}{s}"),
                &format!(
                    r#"
                    import hub from hub in
                    def Outer(m) =
                        if m > 0 then new a (Burst[{BURST}, a] | a?(v) = Outer[m - 1])
                        else println("done")
                    and Burst(k, a) =
                        if k > 0 then (hub!ping[k] | Burst[k - 1, a])
                        else hub!sync[a]
                    in Outer[{bursts}]
                    "#
                ),
            )
            .expect("client compiles");
        }
    }
    let start = Instant::now();
    let report = c.run_threaded(WALL_LIMIT);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let clients = WORKER_NODES * CLIENTS_PER_NODE;
    let expected = clients as u64 * (bursts * BURST + 2 * bursts);
    assert!(
        report.fabric_packets >= expected,
        "run ended early: {} of {expected} packets carried",
        report.fabric_packets
    );
    let done = report
        .outputs
        .iter()
        .filter(|(site, lines)| site.starts_with('w') && lines.iter().any(|l| l == "done"))
        .count();
    assert_eq!(done, clients, "only {done} of {clients} clients finished");
    let mps = report.fabric_packets as f64 / elapsed;
    eprintln!(
        "   {name}: {} fabric packets in {elapsed:.3}s -> {mps:.0} msgs/sec",
        report.fabric_packets
    );
    point(
        name,
        smoke,
        vals! {
            "clients" => clients,
            "msgs_per_client" => bursts * BURST,
            "fabric_packets" => report.fabric_packets,
        },
        vals! {"messages_per_sec" => mps.round(), "elapsed_s" => round(elapsed, 3)},
    )
}

pub fn run(smoke: bool) -> Vec<Json> {
    let mut points = vec![
        single_site(
            "single-site 1%",
            true,
            CHURN_ITERS / 100,
            STR_ITERS / 100,
            1,
        ),
        cross_site("cross-site 1%", true, MSGS_PER_CLIENT / 100),
        top_digrams(4),
    ];
    if !smoke {
        points.push(single_site(
            "single-site",
            false,
            CHURN_ITERS,
            STR_ITERS,
            REPS,
        ));
        points.push(cross_site("cross-site", false, MSGS_PER_CLIENT));
    }
    points
}
