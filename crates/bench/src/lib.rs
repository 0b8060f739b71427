//! Shared workload builders for the benchmark harness.
//!
//! Every experiment in DESIGN.md §5 has a bench target in `benches/`; the
//! workloads here are the programs those benches run. Two kinds of numbers
//! come out of the harness:
//!
//! * **wall-clock** measurements (Criterion) — the real cost of the VM,
//!   codec and runtime primitives on the host machine;
//! * **virtual-time** measurements (printed tables) — the modelled
//!   behaviour of the paper's cluster under different link profiles,
//!   concurrency levels and mobility strategies. These are deterministic
//!   and host-independent, and are what EXPERIMENTS.md records.

use ditico::{Env, FabricMode, LinkProfile, RunLimits, RunReport, Topology};

/// A server answering `val(x, r)` with `x + 1`, forever.
pub const ECHO_SERVER: &str =
    "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]";

/// A client that performs `n` *sequential* RPCs (each waits for its reply).
pub fn sequential_client(n: u64) -> String {
    format!(
        r#"
        import p from server in
        def Loop(k) =
            if k > 0 then new a (p!val[k, a] | a?(v) = Loop[k - 1])
            else println("done")
        in Loop[{n}]
        "#
    )
}

/// A client with `width` independent sequential chains of `n / width`
/// RPCs each: `width` threads' worth of latency to hide.
pub fn pipelined_client(n: u64, width: u64) -> String {
    let per = (n / width.max(1)).max(1);
    let mut chains = String::new();
    for c in 0..width {
        chains.push_str(&format!(
            "| new d{c} (Chain[{per}, d{c}] | d{c}?(x) = println(\"chain\", {c}))"
        ));
    }
    format!(
        r#"
        import p from server in
        def Chain(k, done) =
            if k > 0 then new a (p!val[k, a] | a?(v) = Chain[k - 1, done])
            else done![0]
        in (0 {chains})
        "#
    )
}

/// Run a two-node client/server topology in virtual time.
pub fn run_two_node(link: LinkProfile, server: &str, client: &str, max_instrs: u64) -> RunReport {
    let mut built = Env::new(Topology {
        nodes: 2,
        mode: FabricMode::Virtual,
        link,
        ns_replicas: 1,
    })
    .site_on(0, "server", server)
    .expect("server compiles")
    .site_on(1, "client", client)
    .expect("client compiles")
    .build()
    .expect("links check");
    built.run_deterministic(RunLimits {
        max_instrs,
        fuel_per_slice: 2048,
        ..RunLimits::default()
    })
}

/// A compute-heavy single-site program: `iters` local cell transactions.
pub fn cell_churn(iters: u64) -> String {
    format!(
        r#"
        def Cell(self, v) =
            self ? {{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }}
        and Driver(cell, n) =
            if n > 0 then
                (cell!write[n] | new z (cell!read[z] | z?(w) = Driver[cell, n - 1]))
            else println("finished")
        in new x (Cell[x, 0] | Driver[x, {iters}])
        "#
    )
}

/// The `cell_churn` shape shuttling string payloads instead of integers
/// (exercises `PushStr` and `Word::Str` refcounting on the same reduction
/// pattern). Shared so every harness that A/B-compares dispatch variants
/// runs byte-identical programs.
pub fn str_churn(iters: u64) -> String {
    format!(
        r#"
        def Cell(self, v) =
            self ? {{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }}
        and Driver(cell, n) =
            if n > 0 then
                (cell!write["the-quick-brown-fox"] |
                 new z (cell!read[z] | z?(w) = Driver[cell, n - 1]))
            else println("finished")
        in new x (Cell[x, "seed"] | Driver[x, {iters}])
        "#
    )
}

/// The fetch-variant applet client: download once, then `reqs`
/// *sequential* local instantiations (each applet acks completion, so the
/// amortization of the single download is visible in virtual time).
pub fn fetch_client(reqs: u64) -> String {
    format!(
        r#"
        import Applet from server in
        def Drive(k) =
            if k > 0 then new d (Applet[k, d] | d?(x) = Drive[k - 1])
            else println("done")
        in Drive[{reqs}]
        "#
    )
}

pub const FETCH_SERVER: &str = r#"export def Applet(v, d) = print(v) | d![0] in 0"#;

/// The ship-variant applet client: one shipped object per request,
/// sequentially (each shipped applet acks completion).
pub fn ship_client(reqs: u64) -> String {
    format!(
        r#"
        import appletserver from server in
        def Drive(k) =
            if k > 0 then
                new q new d (appletserver!applet[q, d] | q![k] | d?(x) = Drive[k - 1])
            else println("done")
        in Drive[{reqs}]
        "#
    )
}

pub const SHIP_SERVER: &str = r#"
    def AppletServer(self) =
        self ? { applet(q, d) = (q?(x) = print(x) | d![0]) | AppletServer[self] }
    in export new appletserver in AppletServer[appletserver]
"#;

/// RMI-style baseline: the object stays at the server; every method call
/// is remote. `objects * calls` total remote invocations.
pub fn rmi_client(objects: u64, calls: u64) -> String {
    format!(
        r#"
        import factory from server in
        def UseObj(o, k, done) =
            if k > 0 then new a (o!get[a] | a?(v) = UseObj[o, k - 1, done])
            else done![0]
        and Drive(n, done) =
            if n > 0 then
                new h (factory!make[h] | h?(o) = (UseObj[o, {calls}, done] | Drive[n - 1, done]))
            else 0
        and Collect(left, done) =
            done?(x) = if left > 1 then Collect[left - 1, done] else println("done")
        in new done (Drive[{objects}, done] | Collect[{objects}, done])
        "#
    )
}

pub const RMI_SERVER: &str = r#"
    def Obj(self, n) = self?{ get(r) = r![n] | Obj[self, n] }
    and Factory(f, c) = f?{ make(h) = new o (Obj[o, c] | h![o]) | Factory[f, c + 1] }
    in export new factory in Factory[factory, 0]
"#;

/// Mobility version: the class is fetched once; objects are instantiated
/// and used locally at the client.
pub fn mobility_client(objects: u64, calls: u64) -> String {
    format!(
        r#"
        import Obj from server in
        def UseObj(o, k, done) =
            if k > 0 then new a (o!get[a] | a?(v) = UseObj[o, k - 1, done])
            else done![0]
        and Drive(n, done) =
            if n > 0 then new o (Obj[o, n] | UseObj[o, {calls}, done] | Drive[n - 1, done])
            else 0
        and Collect(left, done) =
            done?(x) = if left > 1 then Collect[left - 1, done] else println("done")
        in new done (Drive[{objects}, done] | Collect[{objects}, done])
        "#
    )
}

pub const MOBILITY_SERVER: &str =
    r#"export def Obj(self, n) = self?{ get(r) = r![n] | Obj[self, n] } in 0"#;

/// Assert a report finished cleanly and the client printed "done".
pub fn assert_done(report: &RunReport) {
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.output("client").iter().any(|l| l == "done"),
        "client did not finish: {:?}",
        report.output("client")
    );
}

/// Minimal well-formedness check for the emitted JSON (no parser dep):
/// balanced braces/brackets outside strings, terminated strings.
pub fn assert_json_wellformed(s: &str) {
    let mut stack = Vec::new();
    let mut in_str = false;
    let mut esc = false;
    for ch in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if ch == '\\' {
                esc = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' | '[' => stack.push(ch),
            '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced brace"),
            ']' => assert_eq!(stack.pop(), Some('['), "unbalanced bracket"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(stack.is_empty(), "unclosed {stack:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run() {
        let r = run_two_node(
            LinkProfile::myrinet(),
            ECHO_SERVER,
            &sequential_client(5),
            10_000_000,
        );
        assert_done(&r);
        let r = run_two_node(
            LinkProfile::myrinet(),
            ECHO_SERVER,
            &pipelined_client(8, 4),
            10_000_000,
        );
        assert!(r.errors.is_empty());
        let r = run_two_node(
            LinkProfile::myrinet(),
            FETCH_SERVER,
            &fetch_client(4),
            10_000_000,
        );
        assert_done(&r);
        let r = run_two_node(
            LinkProfile::myrinet(),
            SHIP_SERVER,
            &ship_client(4),
            10_000_000,
        );
        assert_done(&r);
        let r = run_two_node(
            LinkProfile::myrinet(),
            RMI_SERVER,
            &rmi_client(2, 3),
            10_000_000,
        );
        assert_done(&r);
        let r = run_two_node(
            LinkProfile::myrinet(),
            MOBILITY_SERVER,
            &mobility_client(2, 3),
            10_000_000,
        );
        assert_done(&r);
    }
}
