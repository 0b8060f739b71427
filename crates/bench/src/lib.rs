//! The benchmark harness: one driver, `bench <scenario>|all [--smoke]`,
//! over the scenarios registered in [`SCENARIOS`], plus the workload
//! builders the `paper` and `dispatch` scenarios share.
//!
//! `paper` prints every table of DESIGN.md §5 (F1–F4, C1–C8, verify
//! overhead) and records nothing. Every other scenario records
//! `BENCH_<scenario>.json` at the repo root in one schema,
//! `{bench, git_rev, cores, link, points[]}`, one point per line. A point
//! keeps its values in two groups:
//!
//! * `exact` — every value of a virtual-time run and every deterministic
//!   count; a rerun on any host reproduces them exactly;
//! * `timed` — wall-clock and real-TCP values, which vary run to run.
//!
//! A point that did not finish is not recorded: a scenario asserts every
//! point complete, and a failed run writes nothing. `--smoke` runs the
//! points tagged `smoke`, writes nothing, and fails unless every `exact`
//! value equals the committed one and every `timed` value is present and
//! finite ([`check_smoke`]); wall clock is recorded, never gated.

use std::path::{Path, PathBuf};

use ditico::{Env, FabricMode, LinkProfile, RunLimits, RunReport, Topology};
use json::{obj, Json};

#[path = "../../../benchmark/src/json.rs"]
pub mod json;

pub mod chaos;
pub mod dispatch;
pub mod fetch_cache;
pub mod frontend;
pub mod names;
pub mod paper;
pub mod scheduler;
pub mod transport;

/// One entry of the driver's table; `name` is its operand and its file.
pub struct Scenario {
    pub name: &'static str,
    /// The link profile stamped on the record.
    pub link: &'static str,
    /// Runs the smoke points, and the full set as well when `smoke` is
    /// false; panics when a point does not finish.
    pub run: fn(smoke: bool) -> Vec<Json>,
}

pub const SCENARIOS: [Scenario; 8] = [
    Scenario {
        name: "scheduler",
        link: "ideal",
        run: scheduler::run,
    },
    Scenario {
        name: "fetch_cache",
        link: "virtual, 100 us / 1 MB/s",
        run: fetch_cache::run,
    },
    Scenario {
        name: "dispatch",
        link: "ideal",
        run: dispatch::run,
    },
    Scenario {
        name: "transport",
        link: "loopback TCP",
        run: transport::run,
    },
    Scenario {
        name: "chaos",
        link: "virtual fast_ethernet; restart over loopback TCP",
        run: chaos::run,
    },
    Scenario {
        name: "names",
        link: "virtual myrinet",
        run: names::run,
    },
    Scenario {
        name: "frontend",
        link: "none: parse, check and compile only",
        run: frontend::run,
    },
    Scenario {
        name: "paper",
        link: "virtual myrinet / fast_ethernet / wan",
        run: paper::run,
    },
];

/// `vals!{"key" => value, ...}`: a JSON object of numbers (`value as f64`).
#[macro_export]
macro_rules! vals {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($k.to_string(), $crate::json::Json::Num($v as f64))),*])
    };
}

pub fn point(name: &str, smoke: bool, exact: Json, timed: Json) -> Json {
    obj([
        ("name", Json::Str(name.into())),
        ("smoke", Json::Bool(smoke)),
        ("exact", exact),
        ("timed", timed),
    ])
}

/// `x` rounded to `places` decimals, so a record carries the digits that
/// were measured and not the binary noise of a division.
pub fn round(x: f64, places: i32) -> f64 {
    let m = 10f64.powi(places);
    (x * m).round() / m
}

/// Where a scenario's record lives: the repo root of the checkout this
/// binary was built from, whatever the current directory.
pub fn bench_path(scenario: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/bench is two levels below the repo root")
        .join(format!("BENCH_{scenario}.json"))
}

/// A BENCH document, one point per line so diffs stay readable.
pub fn render(s: &Scenario, git_rev: &str, cores: usize, points: &[Json]) -> String {
    let head = obj([
        ("bench", Json::Str(s.name.into())),
        ("git_rev", Json::Str(git_rev.into())),
        ("cores", Json::Num(cores as f64)),
        ("link", Json::Str(s.link.into())),
    ])
    .to_line();
    let points: Vec<String> = points.iter().map(Json::to_line).collect();
    format!(
        "{},\"points\":[\n{}\n]}}\n",
        head.strip_suffix('}').expect("an object"),
        points.join(",\n")
    )
}

/// Check a smoke run against the committed document: the smoke points
/// run must be exactly the committed ones tagged `smoke`, each with every
/// `exact` value equal and every committed `timed` key present and finite.
pub fn check_smoke(committed: &Json, run: &[Json]) -> Result<(), String> {
    let name = |p: &Json| p.get("name").and_then(Json::str).unwrap_or("?").to_string();
    let field = |p: &Json, k: &str| p.get(k).cloned().unwrap_or(Json::Null);
    let smoke: Vec<&Json> = committed
        .get("points")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter(|p| p.get("smoke") == Some(&Json::Bool(true)))
        .collect();
    if let Some(c) = smoke
        .iter()
        .find(|c| !run.iter().any(|p| name(p) == name(c)))
    {
        return Err(format!("committed smoke point `{}` was not run", name(c)));
    }
    for p in run {
        let n = name(p);
        let c = smoke
            .iter()
            .find(|c| name(c) == n)
            .ok_or_else(|| format!("point `{n}` is not a committed smoke point"))?;
        let (want, got) = (field(c, "exact"), field(p, "exact"));
        for (k, w) in want.obj() {
            if got.get(k) != Some(w) {
                let got = got.get(k).map_or("missing".into(), Json::to_line);
                return Err(format!(
                    "point `{n}`: exact `{k}` is {got}, committed {}",
                    w.to_line()
                ));
            }
        }
        if let Some((k, _)) = got.obj().iter().find(|(k, _)| want.get(k).is_none()) {
            return Err(format!("point `{n}`: exact `{k}` is not committed"));
        }
        let timed = field(p, "timed");
        for (k, _) in field(c, "timed").obj() {
            match timed.get(k).and_then(Json::num) {
                Some(v) if v.is_finite() => {}
                _ => return Err(format!("point `{n}`: timed `{k}` is missing or not finite")),
            }
        }
    }
    Ok(())
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_records_follow_the_schema() {
        let root = bench_path("x").parent().expect("repo root").to_path_buf();
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let file = entry.expect("dir entry").file_name();
            let file = file.to_str().expect("utf-8 name");
            let Some(bench) = file
                .strip_prefix("BENCH_")
                .and_then(|f| f.strip_suffix(".json"))
            else {
                continue;
            };
            seen += 1;
            let text = std::fs::read_to_string(root.join(file)).expect("readable");
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let keys: Vec<&str> = doc.obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["bench", "git_rev", "cores", "link", "points"],
                "{file}"
            );
            assert_eq!(doc.get("bench").and_then(Json::str), Some(bench), "{file}");
            assert!(SCENARIOS.iter().any(|s| s.name == bench), "{file}");
            assert!(!doc.get("points").unwrap().arr().is_empty(), "{file}");
        }
        assert!(seen > 0, "no BENCH_*.json in {}", root.display());
    }

    #[test]
    fn smoke_gates_exact_values_and_only_presence_of_timed_ones() {
        let a = |wall_s: f64| {
            point(
                "a",
                true,
                vals! {"packets" => 40},
                vals! {"wall_s" => wall_s},
            )
        };
        let b = |ns: u64| point("b", true, vals! {"virtual_ns" => ns}, vals! {});
        let full = point("c", false, vals! {"sites" => 4096}, vals! {"wall_s" => 9.0});
        let committed = |points: &[Json]| {
            Json::parse(&render(&SCENARIOS[0], "abc1234", 2, points)).expect("parses")
        };
        let record = committed(&[a(0.5), b(123_456), full.clone()]);
        assert_eq!(check_smoke(&record, &[a(0.5), b(123_456)]), Ok(()));
        // Every timed value different: still the same record.
        assert_eq!(check_smoke(&record, &[a(7.25), b(123_456)]), Ok(()));
        // One exact value off by one: refused, and named.
        let off = committed(&[a(0.5), b(123_457), full]);
        let err = check_smoke(&off, &[a(0.5), b(123_456)]).unwrap_err();
        assert!(err.contains("`b`") && err.contains("virtual_ns"), "{err}");
        // A timed value not finite, a smoke point not run, or a point the
        // record does not hold: refused.
        assert!(check_smoke(&record, &[a(f64::NAN), b(123_456)]).is_err());
        assert!(check_smoke(&record, &[a(0.5)]).is_err());
        assert!(check_smoke(&committed(&[a(0.5)]), &[a(0.5), b(123_456)]).is_err());
    }

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
