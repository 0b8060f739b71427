//! Distribution-invariance properties: placing sites on different nodes or
//! changing link profiles must never change a program's observable
//! behaviour — only its timing. Plus conservation properties of the
//! runtime (exactly-once delivery) and the behaviour of the future-work
//! features under failure injection.

use ditico::{Env, LinkProfile, Topology};
use proptest::prelude::*;

/// A small family of two-site client/server programs parameterized by a
/// seed-ish tuple, all confluent.
fn client_server(ops: &[(i64, u8)]) -> (String, String) {
    let server = r#"
        def Srv(p) =
            p ? {
                add(x, r)  = r![x + 1]  | Srv[p],
                dbl(x, r)  = r![x * 2]  | Srv[p],
                neg(x, r)  = r![0 - x]  | Srv[p]
            }
        in export new p in Srv[p]
    "#
    .to_string();
    let mut calls = String::new();
    for (i, (v, op)) in ops.iter().enumerate() {
        let label = match op % 3 {
            0 => "add",
            1 => "dbl",
            _ => "neg",
        };
        calls.push_str(&format!(
            "| new a{i} (p!{label}[{v}, a{i}] | a{i}?(y) = print(y)) "
        ));
    }
    let client = format!("import p from server in (0 {calls})");
    (server, client)
}

fn observable(topology: Topology, server: &str, client: &str) -> Vec<String> {
    let report = Env::new(topology)
        .site("server", server)
        .unwrap()
        .site("client", client)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let mut lines = report.output("client").to_vec();
    lines.sort();
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same program, four placements/fabrics — identical observables.
    #[test]
    fn placement_and_links_do_not_change_observables(
        ops in proptest::collection::vec((0i64..100, 0u8..3), 1..6)
    ) {
        let (server, client) = client_server(&ops);
        let reference = observable(Topology::default(), &server, &client);
        prop_assert_eq!(ops.len(), reference.len());
        for topology in [
            Topology { nodes: 2, link: LinkProfile::myrinet(), ns_replicas: 1 },
            Topology { nodes: 2, link: LinkProfile::wan(), ns_replicas: 1 },
            Topology { nodes: 3, link: LinkProfile::fast_ethernet(), ns_replicas: 2 },
            Topology { nodes: 2, link: LinkProfile::ideal(), ns_replicas: 1 },
        ] {
            let got = observable(topology, &server, &client);
            prop_assert_eq!(&got, &reference);
        }
    }

    /// Exactly-once: every message shipped is received exactly once, and
    /// every reply printed corresponds to one request.
    #[test]
    fn shipped_equals_received(
        ops in proptest::collection::vec((0i64..100, 0u8..3), 1..6)
    ) {
        let (server, client) = client_server(&ops);
        let report = Env::new(Topology {
            nodes: 2,
            link: LinkProfile::myrinet(),
            ns_replicas: 1,
        })
        .site("server", &server).unwrap()
        .site("client", &client).unwrap()
        .run().unwrap();
        let c = &report.stats["client"];
        let s = &report.stats["server"];
        prop_assert_eq!(c.msgs_sent, s.msgs_recv);
        prop_assert_eq!(s.msgs_sent, c.msgs_recv);
        prop_assert_eq!(c.msgs_sent as usize, ops.len());
        prop_assert_eq!(report.output("client").len(), ops.len());
    }
}

/// The reference (calculus) semantics agrees with the distributed VM run
/// on multi-site programs, not just single-site ones.
#[test]
fn distributed_differential_against_calculus() {
    let cases: [(&str, &str); 3] = [
        (
            "def Srv(p) = p?{ val(x, a) = a![x * 5] | Srv[p] } in export new p in Srv[p]",
            "import p from server in new a (p!val[5, a] | a?(v) = print(v))",
        ),
        (
            "export def Work(v) = print(v + 1) in 0",
            "import Work from server in (Work[1] | Work[2])",
        ),
        (
            r#"
            def S(p) = p?{ go(r) = (r?(x) = print(x)) | S[p] }
            in export new p in S[p]
            "#,
            "import p from server in new r (p!go[r] | r![33])",
        ),
    ];
    for (server, client) in cases {
        let env = Env::new(Topology {
            nodes: 2,
            link: LinkProfile::myrinet(),
            ns_replicas: 1,
        })
        .site("server", server)
        .unwrap()
        .site("client", client)
        .unwrap();
        let reference = env.run_reference(1_000_000).unwrap();
        let report = env.run().unwrap();
        let mut vm_lines: Vec<String> = report
            .outputs
            .values()
            .flat_map(|l| l.iter().cloned())
            .collect();
        vm_lines.sort();
        assert_eq!(vm_lines, reference.line_multiset(), "case: {client}");
    }
}

/// Failure injection: killing a worker node leaves the rest of the
/// cluster's outputs intact.
#[test]
fn surviving_sites_unaffected_by_dead_node() {
    use ditico::{Cluster, RunLimits};
    let mut c = Cluster::new(LinkProfile::myrinet(), 1);
    let n0 = c.add_node();
    let n1 = c.add_node();
    let n2 = c.add_node();
    c.add_site_src(
        n0,
        "srv",
        "def S(p) = p?{ v(x, r) = r![x] | S[p] } in export new p in S[p]",
    )
    .unwrap();
    c.add_site_src(
        n1,
        "good",
        "import p from srv in new a (p!v[1, a] | a?(x) = print(x))",
    )
    .unwrap();
    c.add_site_src(
        n2,
        "doomed",
        "import p from srv in new a (p!v[2, a] | a?(x) = print(x))",
    )
    .unwrap();
    c.kill_node(n2);
    let report = c.run_deterministic(RunLimits::default());
    assert_eq!(report.output("good"), ["1".to_string()]);
    assert_eq!(report.output("doomed"), Vec::<String>::new().as_slice());
}

/// Termination detection (threaded): the detector stops a busy cluster
/// only after it is genuinely done.
#[test]
fn threaded_termination_detector_waits_for_work() {
    let report = Env::new(Topology {
        nodes: 2,
        link: LinkProfile::ideal(),
        ns_replicas: 1,
    })
    .site(
        "server",
        "def S(p) = p?{ v(x, r) = r![x + 1] | S[p] } in export new p in S[p]",
    )
    .unwrap()
    .site(
        "client",
        r#"
        import p from server in
        def Loop(n, acc) =
            if n > 0 then new a (p!v[acc, a] | a?(x) = Loop[n - 1, x])
            else println("acc", acc)
        in Loop[200, 0]
        "#,
    )
    .unwrap()
    .build()
    .unwrap()
    .run_threaded(std::time::Duration::from_secs(60));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.output("client"), ["acc 200".to_string()]);
}
