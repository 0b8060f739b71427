//! Stress tests for the M:N work-stealing scheduler: termination-detection
//! soundness under racing deliveries, slices and steals, and per-channel
//! FIFO ordering across worker migration.
//!
//! The soundness stress is the load-bearing test: a false termination
//! (detector fires while a token is still in flight) silently truncates a
//! run, and a missed termination hangs it. Both are timing bugs, so we run
//! many seeded iterations with deliberately small slice budgets to maximise
//! the number of RUNNING->IDLE retire edges racing against deliveries.

use std::collections::HashMap;
use std::time::Duration;

use ditico_rt::sched::SchedConfig;
use ditico_rt::{Cluster, LinkProfile};
use tyco_vm::word::NodeId;
use tyco_vm::Program;

/// Deterministic split-mix style generator so failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[(self.next() % choices.len() as u64) as usize]
    }
}

/// Compile once per distinct source; the stress loop re-uses programs
/// across iterations so 1000 iterations don't pay 1000 compiles.
struct ProgramCache(HashMap<String, Program>);

impl ProgramCache {
    fn get(&mut self, src: &str) -> Program {
        self.0
            .entry(src.to_string())
            .or_insert_with(|| {
                let ast = tyco_syntax::parse_core(src).expect("stress program parses");
                tyco_vm::compile(&ast).expect("stress program compiles")
            })
            .clone()
    }
}

/// Ring-forwarding site `i` of `n`: exports its own slot, imports its
/// successor's, forwards decrementing tokens. Site 0 injects `tokens`
/// tokens of `hops` hops each; whichever site holds a dying token reports.
fn ring_site_src(i: usize, n: usize, tokens: u64, hops: u64) -> String {
    let next = (i + 1) % n;
    let inject = if i == 0 {
        (0..tokens)
            .map(|_| format!("| slot0!token[{hops}]"))
            .collect::<String>()
    } else {
        String::new()
    };
    format!(
        r#"
        export new slot{i} in
        import slot{next} from s{next} in (
            def Fwd(self) =
                self ? {{
                    token(n) =
                        (if n > 0 then slot{next}!token[n - 1]
                         else println("token-died"))
                        | Fwd[self]
                }}
            in Fwd[slot{i}]
            {inject}
        )
        "#
    )
}

/// 1000 seeded iterations of a bursty token ring over 2 nodes with the
/// scheduler squeezed hard: 1-3 workers, tiny slice budgets (16-128
/// instructions, so sites park and migrate mid-burst constantly). Every
/// iteration must terminate (quiescent, not wall-limited), with zero
/// errors and exactly `tokens` death reports — i.e. the detector never
/// fired early (missing reports) and never hung (wall limit).
#[test]
fn termination_detection_is_sound_under_stress() {
    let mut cache = ProgramCache(HashMap::new());
    let iters: u64 = std::env::var("DITICO_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    for iter in 0..iters {
        let mut rng = Rng(0xd17c0 + iter);
        let workers = rng.pick(&[1usize, 2, 3]);
        let slice_fuel = rng.pick(&[16u64, 32, 64, 128]);
        let n = rng.pick(&[4usize, 5, 6, 7]);
        let tokens = rng.pick(&[1u64, 2, 4, 8]);
        let hops = rng.pick(&[1u64, 2, 4, 8, 16]);

        let mut c = Cluster::new(LinkProfile::ideal(), 1);
        let nodes: Vec<NodeId> = (0..2).map(|_| c.add_node()).collect();
        for i in 0..n {
            let prog = cache.get(&ring_site_src(i, n, tokens, hops));
            c.add_site(nodes[i % nodes.len()], &format!("s{i}"), prog);
        }
        c.sched = SchedConfig {
            workers,
            slice_fuel,
        };
        let report = c.run_threaded(Duration::from_secs(30));

        let ctx = format!(
            "iter {iter}: workers={workers} fuel={slice_fuel} sites={n} \
             tokens={tokens} hops={hops}"
        );
        assert!(report.errors.is_empty(), "{ctx}: {:?}", report.errors);
        assert!(
            report.quiescent,
            "{ctx}: missed termination (hit wall limit)"
        );
        let died: usize = report
            .outputs
            .values()
            .map(|lines| lines.iter().filter(|l| *l == "token-died").count())
            .sum();
        assert_eq!(
            died, tokens as usize,
            "{ctx}: false termination — {died} of {tokens} tokens reported"
        );
    }
}

/// Per-channel FIFO must survive worker migration: a producer streams
/// sequence-numbered messages cross-node to one consumer channel while a
/// tiny slice budget forces the consumer site to be suspended, requeued
/// and picked up by different workers mid-stream. The consumer echoes each
/// number; the echo order must be exactly the send order.
#[test]
fn channel_fifo_preserved_across_worker_migration() {
    const N: u64 = 400;
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    c.add_site_src(
        n0,
        "consumer",
        "def Recv(self) = self?{ item(j) = println(j) | Recv[self] } \
         in export new sink in Recv[sink]",
    )
    .unwrap();
    c.add_site_src(
        n1,
        "producer",
        &format!(
            "import sink from consumer in \
             def Send(j) = if j < {N} then (sink!item[j] | Send[j + 1]) else 0 \
             in Send[0]"
        ),
    )
    .unwrap();
    c.sched = SchedConfig {
        workers: 3,
        slice_fuel: 32,
    };
    let report = c.run_threaded(Duration::from_secs(30));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.quiescent, "stream did not drain");
    let expected: Vec<String> = (0..N).map(|j| j.to_string()).collect();
    assert_eq!(
        report.output("consumer"),
        expected,
        "per-channel FIFO violated across migration"
    );
    // The slice budget is far below the workload, so the consumer really
    // was suspended and resumed many times while the stream was in flight.
    assert!(
        report.sched.slices > 10,
        "workload ran in too few slices to exercise migration: {}",
        report.sched.slices
    );
}

/// Many more sites than workers: 64 sites ping-ponging on 2 workers must
/// drain and terminate. Guards the "sites idle at zero cost" property at a
/// size where any per-site busy-spin would starve the pool.
#[test]
fn many_sites_few_workers_smoke() {
    let sites = 64;
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    let nodes: Vec<NodeId> = (0..4).map(|_| c.add_node()).collect();
    let mut cache = ProgramCache(HashMap::new());
    for i in 0..sites {
        let prog = cache.get(&ring_site_src(i, sites, 2, 8));
        c.add_site(nodes[i % nodes.len()], &format!("s{i}"), prog);
    }
    c.sched = SchedConfig {
        workers: 2,
        slice_fuel: 256,
    };
    let report = c.run_threaded(Duration::from_secs(60));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.quiescent);
    let died: usize = report
        .outputs
        .values()
        .map(|lines| lines.iter().filter(|l| *l == "token-died").count())
        .sum();
    assert_eq!(died, 2);
    assert_eq!(report.sched.workers, 2);
}
