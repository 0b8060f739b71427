//! Determinism and soak coverage for the chaos harness: the same seed and
//! plan must replay the same fault schedule bit for bit on the virtual
//! fabric, and seeded partition/heal/kill/restart churn must never panic,
//! hang, or crash a site.

use ditico::tyco_vm::word::NodeId;
use ditico::{ChaosEvent, ChaosPlan, ChaosSpec, Env, LinkProfile, Topology};

const SRV: &str = "def Srv(p) = p?{ val(x, a) = a![x] | Srv[p] } in export new p in Srv[p]";
const CLIENT: &str = r#"
    import p from server in
    def Loop(n) =
        if n > 0 then new a (p!val[n, a] | a?(v) = Loop[n - 1]) else println("done")
    in Loop[40]
"#;

/// Every fingerprint below, as recorded before the deterministic run
/// became the pooled loop on a virtual clock: one `key<TAB>fingerprint`
/// per line. Replaying two runs inside one binary cannot see a schedule
/// that moved between commits; this file can.
const GOLDEN: &str = include_str!("chaos.golden");

/// Assert that `fp` is the recorded fingerprint of `key`, and return it.
fn pinned(key: &str, fp: String) -> String {
    let want = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('\t'))
        .unwrap_or_else(|| panic!("tests/chaos.golden has no line for {key:?}"));
    assert_eq!(fp, want, "{key}: the virtual schedule moved");
    fp
}

/// One chaotic client/server run, collapsed to a canonical fingerprint:
/// every observable the report carries, in a fixed order. Two runs with
/// the same plan must produce the same string, byte for byte, and the
/// string recorded under `key`.
fn fingerprint(key: &str, plan: ChaosPlan) -> String {
    let report = Env::new(Topology {
        nodes: 2,
        link: LinkProfile::fast_ethernet(),
        ns_replicas: 1,
    })
    .site("server", SRV)
    .expect("server compiles")
    .site("client", CLIENT)
    .expect("client compiles")
    .chaos(plan)
    .run()
    .expect("run starts");
    if let Some((site, err)) = report.errors.first() {
        panic!("chaos must degrade, not crash: [{site}] {err}");
    }
    assert_eq!(
        report.in_flight, 0,
        "a packet was neither consumed nor lost"
    );
    let c = report.chaos.expect("chaos report recorded");
    let fp = format!(
        "out={:?} instrs={} pkts={} bytes={} vns={} quiescent={} \
         dropped={} dup={} delayed={} pdrops={} parts={} heals={} kills={} restarts={}",
        report.output("client"),
        report.total_instrs,
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns,
        report.quiescent,
        c.dropped,
        c.duplicated,
        c.delayed,
        c.partition_drops,
        c.partitions,
        c.heals,
        c.kills,
        c.restarts
    );
    pinned(key, fp)
}

fn faulty_spec(seed: u64) -> ChaosSpec {
    let mut spec = ChaosSpec::quiet(seed);
    spec.drop_per_mille = 60;
    spec.dup_per_mille = 40;
    spec.delay_per_mille = 40;
    spec.delay_ns = 500_000;
    spec
}

/// The undisturbed run's length, used to place structural events at
/// meaningful fractions of the run instead of guessed absolute times.
fn baseline_ns() -> u64 {
    let quiet = fingerprint("baseline", ChaosPlan::new(ChaosSpec::quiet(0)));
    let vns: u64 = quiet
        .split(" vns=")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("fingerprint carries vns");
    assert!(vns > 0, "remote traffic takes virtual time");
    vns
}

#[test]
fn same_seed_and_plan_replay_identically() {
    let v = baseline_ns();
    let plan = || {
        ChaosPlan::new(faulty_spec(42))
            .at(
                v / 4,
                ChaosEvent::Partition {
                    a: vec![NodeId(0)],
                    b: vec![NodeId(1)],
                },
            )
            .at(v / 2, ChaosEvent::Heal)
    };
    let first = fingerprint("replay", plan());
    for i in 0..11 {
        assert_eq!(
            fingerprint("replay", plan()),
            first,
            "iteration {i} diverged"
        );
    }
    assert!(
        first.contains("parts=1") && first.contains("heals=1"),
        "the structural events fired: {first}"
    );
}

#[test]
fn different_seeds_draw_different_schedules() {
    let a = fingerprint("seed 1", ChaosPlan::new(faulty_spec(1)));
    let b = fingerprint("seed 2", ChaosPlan::new(faulty_spec(2)));
    assert_ne!(a, b, "independent seeds hit the same fault schedule");
}

#[test]
fn quiet_plan_is_a_no_op() {
    let quiet = fingerprint("quiet", ChaosPlan::new(ChaosSpec::quiet(7)));
    assert!(
        quiet.contains("out=[\"done\"]"),
        "no faults, full run: {quiet}"
    );
    assert!(
        quiet.ends_with("dropped=0 dup=0 delayed=0 pdrops=0 parts=0 heals=0 kills=0 restarts=0")
    );
}

/// Sharded-name-service programs for the drop regression below: the
/// server re-exports `p` after the client's kick, so a single run
/// exercises every name-service control packet — registers, imports,
/// lease grants, the epoch-bump invalidation, and follower replication.
const NS_SRV: &str = r#"
    import ack from nsclient in
    export new kick in
    export new q in (
        (q?(r) = r![1])
        | (kick?() = export new q in (ack![] | (q?(r2) = r2![2])))
    )
"#;
const NS_CLIENT: &str = r#"
    export new ack in
    import q from nsserver in
    import kick from nsserver in
    new a (q![a] | a?(x) = (
        print(x)
        | kick![]
        | ack?() = import q from nsserver in new b (q![b] | b?(y) = print(y))
    ))
"#;

/// Lease grants, invalidations, and replication records ride the same
/// chaotic fabric as application packets, so each chaos-dropped (or
/// duplicated) control packet must be consumed (or minted) where the dice
/// roll — otherwise the termination wave never balances and a run under
/// drop rates hangs instead of winding down. The run's ledger checks it:
/// nothing is left in flight. Every seed is also replayed once, keeping
/// the sharded path inside the determinism gate.
#[test]
fn sharded_name_service_drops_are_termination_compensated() {
    let run = |seed: u64| {
        let report = Env::new(Topology {
            nodes: 4,
            link: LinkProfile::fast_ethernet(),
            ns_replicas: 4,
        })
        .ns_lease(50)
        .site_on(0, "nsserver", NS_SRV)
        .expect("server compiles")
        .site_on(3, "nsclient", NS_CLIENT)
        .expect("client compiles")
        .chaos(ChaosPlan::new(faulty_spec(seed)))
        .run()
        .expect("run starts");
        if let Some((site, err)) = report.errors.first() {
            panic!("seed {seed}: chaos must degrade, not crash: [{site}] {err}");
        }
        assert_eq!(report.in_flight, 0, "seed {seed}: a packet went uncounted");
        let ns = report.ns_totals();
        let c = report.chaos.expect("chaos report recorded");
        let faults = c.dropped + c.duplicated;
        let fp = format!(
            "out={:?} pkts={} vns={} dropped={} dup={} delayed={} ns={ns:?}",
            report.output("nsclient"),
            report.fabric_packets,
            report.virtual_ns,
            c.dropped,
            c.duplicated,
            c.delayed,
        );
        (pinned(&format!("sharded {seed}"), fp), faults, ns)
    };
    let (mut faults, mut registers, mut misses) = (0, 0, 0);
    for seed in 0..10u64 {
        let (first, f, ns) = run(seed);
        let (second, _, _) = run(seed);
        assert_eq!(first, second, "seed {seed} did not replay");
        faults += f;
        registers += ns.registers;
        misses += ns.lease_misses;
    }
    assert!(faults > 0, "the fault die never fired across ten seeds");
    assert!(registers >= 30, "the sharded path was engaged: {registers}");
    assert!(misses > 0, "imports crossed the wire under chaos");
}

/// Seeded churn soak: partition, heal, and a daemon restart in every run,
/// across many seeds, each replayed once. No panics, no hangs, no site
/// crashes, and every replay is byte-identical. (The larger 100+ round
/// soak runs in `bench chaos --soak`; this keeps the same machinery
/// honest under plain `cargo test`.)
#[test]
fn seeded_churn_soak_replays_cleanly() {
    let v = baseline_ns();
    for seed in 0..20u64 {
        let plan = || {
            ChaosPlan::new(faulty_spec(seed))
                .at(
                    v / 3,
                    ChaosEvent::Partition {
                        a: vec![NodeId(0)],
                        b: vec![NodeId(1)],
                    },
                )
                .at(v / 2, ChaosEvent::Heal)
                .at(2 * v / 3, ChaosEvent::RestartNode(NodeId(1)))
        };
        let key = format!("churn {seed}");
        let first = fingerprint(&key, plan());
        let second = fingerprint(&key, plan());
        assert_eq!(first, second, "seed {seed} did not replay");
        assert!(first.contains("restarts=1"), "seed {seed}: {first}");
    }
}

/// Sixteen chains of RPCs, 20 000 calls in all: every reply channel is
/// released by the server and reclaimed by the client (DESIGN.md §20).
fn releasing_rpc_client() -> String {
    let chains: Vec<String> = (0..16).map(|c| format!("Chain[{c}, 1250, 0]")).collect();
    format!(
        "import p from server in \
         def Chain(c, k, acc) = \
             if k > 0 then new a (p!val[k, a] | a?(v) = Chain[c, k - 1, acc + v]) \
             else println(\"chain\", c, acc) \
         in ({})",
        chains.join(" | ")
    )
}

/// One run of the releasing RPC under `spec`: its fingerprint (checked
/// against the one recorded under `key`), its sorted output and the
/// client's stale deliveries.
fn releasing_rpc(key: &str, spec: ChaosSpec) -> (String, Vec<String>, u64) {
    let report = Env::new(Topology {
        nodes: 2,
        link: LinkProfile::fast_ethernet(),
        ns_replicas: 1,
    })
    .site("server", SRV)
    .expect("server compiles")
    .site("client", &releasing_rpc_client())
    .expect("client compiles")
    .chaos(ChaosPlan::new(spec))
    .run()
    .expect("run starts");
    if let Some((site, err)) = report.errors.first() {
        panic!("seed {}: [{site}] {err}", spec.seed);
    }
    assert_eq!(
        report.in_flight, 0,
        "seed {}: a packet went uncounted",
        spec.seed
    );
    let mut out = report.output("client").to_vec();
    out.sort();
    let c = report.chaos.expect("chaos report recorded");
    let stats = |s: &str| &report.stats[s];
    let (client, server) = (stats("client"), stats("server"));
    let fp = format!(
        "out={out:?} instrs={} pkts={} bytes={} vns={} dup={} delayed={} \
         collected={} gcs={} stale={}",
        report.total_instrs,
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns,
        c.duplicated,
        c.delayed,
        client.chans_collected,
        server.gcs,
        client.stale_deliveries,
    );
    (pinned(key, fp), out, client.stale_deliveries)
}

/// Ten seeds of `faults` on the releasing RPC: the output is the
/// fault-free run's, no site errs, and every seed replays byte for byte
/// the fingerprint recorded as `<label> <seed>`. Returns the stale
/// deliveries per seed.
fn releasing_rpc_seeds(label: &str, faults: impl Fn(u64) -> ChaosSpec) -> Vec<u64> {
    let (_, clean, stale) = releasing_rpc("releasing clean", ChaosSpec::quiet(0));
    assert_eq!(clean.len(), 16);
    assert_eq!(stale, 0);
    (0..10u64)
        .map(|seed| {
            let key = format!("{label} {seed}");
            let (first, out, stale) = releasing_rpc(&key, faults(seed));
            assert_eq!(out, clean, "seed {seed}: {first}");
            assert!(!first.contains(" dup=0 delayed=0 "), "seed {seed}: {first}");
            let (second, _, _) = releasing_rpc(&key, faults(seed));
            assert_eq!(first, second, "seed {seed} did not replay");
            stale
        })
        .collect()
}

fn delay_spec(seed: u64) -> ChaosSpec {
    let mut spec = ChaosSpec::quiet(seed);
    spec.delay_per_mille = 100;
    spec.delay_ns = 500_000;
    spec
}

/// Delays reorder a release ahead of the replies it counts; the client
/// waits for them, so no delivery is ever stale.
#[test]
fn releasing_rpc_survives_delays() {
    assert_eq!(releasing_rpc_seeds("delays", delay_spec), vec![0; 10]);
}

/// Duplicates make the counts over-report; a copy that lands after its
/// channel was reclaimed is dropped as stale, and the run is unharmed.
#[test]
fn releasing_rpc_survives_duplicates_and_delays() {
    releasing_rpc_seeds("duplicates", |seed| ChaosSpec {
        dup_per_mille: 40,
        ..delay_spec(seed)
    });
}
