//! Seeded workload generators and their closed-form oracles.
//!
//! Each workload is a set of `.dity` sources plus a `cluster.net` spec,
//! made from the seed alone: the same seed gives byte-identical files.
//! The expected output is computed here in closed form and never by
//! running DiTyCO, so a wrong answer from the system cannot vouch for
//! itself.

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rpc_seq", "rpc_pipe", "fetch_catalog", "local_churn"];

/// Chain `c` of an RPC client sends `k + (c << CHAIN_SHIFT) + offset_c`
/// with `offset_c < 2^16` and `k ≤` the chain's op count `< 2^16`, so
/// the wire tap can read the chain back from a request or a reply.
pub const CHAIN_SHIFT: u32 = 20;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `rpc_pipe`: independent chains, all in flight on one connection.
const PIPE_CHAINS: u64 = 64;
/// `fetch_catalog`: server sites on node 0.
const FETCH_SERVERS: usize = 4;
/// `local_churn`: sites on the one node.
const CHURN_SITES: u64 = 16;

/// Op counts of one run of the workload's processes. They are the same
/// on every commit; a measurement of `--seconds` repeats such runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `rpc_seq`: RPCs of the one sequential chain.
    pub rpc_seq_ops: u64,
    /// `rpc_pipe`: RPCs of each of the [`PIPE_CHAINS`] chains.
    pub pipe_ops_per_chain: u64,
    /// `fetch_catalog`: classes each of the [`FETCH_SERVERS`] server sites
    /// exports, and client sites.
    pub fetch_classes_per_server: usize,
    pub fetch_clients: usize,
    /// `local_churn`: cell transactions per site, token laps.
    pub churn_iters: u64,
    pub churn_laps: u64,
}

impl Sizes {
    /// A run of the processes takes 0.5–1.4 s: short on purpose. Noise on
    /// a shared guest comes in bursts, and the best of many short runs
    /// dodges them where the best of a few long ones cannot (the numbers
    /// are in the README, under "Sizing the runs").
    pub const FULL: Sizes = Sizes {
        rpc_seq_ops: 20_000,
        pipe_ops_per_chain: 4_000,
        fetch_classes_per_server: 256,
        fetch_clients: 16,
        churn_iters: 50_000,
        churn_laps: 50,
    };

    /// `--smoke`: op counts divided by 50 (the fetch catalogue shrinks
    /// with its op count so that its cache is still oversubscribed 4×).
    pub const SMOKE: Sizes = Sizes {
        rpc_seq_ops: 400,
        pipe_ops_per_chain: 80,
        fetch_classes_per_server: 10,
        fetch_clients: 8,
        churn_iters: 1_000,
        churn_laps: 1,
    };
}

/// A generated workload: what to run and what it must print.
pub struct Workload {
    /// `(file name, contents)`, `cluster.net` included.
    pub files: Vec<(String, String)>,
    /// Two processes over loopback TCP (server node 0, client node 1);
    /// otherwise one `ditico net --threaded` process.
    pub tcp: bool,
    /// Ops one run attempts (RPC replies, acked fetches, or COMM+INST
    /// reductions for `local_churn`).
    pub ops: u64,
    /// Ops in flight at once in the closed loop.
    pub in_flight: u64,
    /// `--code-cache` capacity both daemons run with (images).
    pub code_cache: usize,
    /// Source files of the sites whose classes other sites fetch.
    pub exporters: Vec<String>,
    /// Lines the client process must print, sorted.
    pub expected: Vec<String>,
}

/// Generate `name` from `seed`. With `null` the sources differ from the
/// real ones in one constant — the op count, or where the fetch chain is
/// entered — so that the client performs zero ops: the run that measures
/// boot, compile, handshake, import and exit grace alone.
pub fn generate(name: &str, seed: u64, sizes: &Sizes, null: bool) -> Result<Workload, String> {
    // One stream per workload, so adding a draw to one generator cannot
    // shift the inputs of another.
    let index = WORKLOADS
        .iter()
        .position(|w| *w == name)
        .ok_or_else(|| format!("unknown workload `{name}` (one of {WORKLOADS:?})"))?;
    let mut rng = Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut w = match index {
        0 => rpc(&mut rng, 1, if null { 0 } else { sizes.rpc_seq_ops }),
        1 => rpc(
            &mut rng,
            PIPE_CHAINS,
            if null { 0 } else { sizes.pipe_ops_per_chain },
        ),
        2 => fetch_catalog(&mut rng, sizes, null),
        _ => local_churn(&mut rng, sizes, null),
    };
    w.expected.sort();
    Ok(w)
}

const TCP_NET_HEADER: &str = "topology nodes=2 fabric=ideal link=ideal\n";

/// §3 RPC: `ECHO_SERVER` and `chains` sequential chains of `per_chain`
/// calls. Chain `c` sends `k + base_c` for `k = per_chain … 1` and adds
/// up the replies (`k + base_c + 1`); the oracle is that sum.
fn rpc(rng: &mut Rng, chains: u64, per_chain: u64) -> Workload {
    assert!(
        per_chain < 1 << 16,
        "chain id must stay readable off the wire"
    );
    let server = "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]\n";
    let mut client = String::from(
        "import p from server in\n\
         def Chain(c, k, base, acc) =\n\
         \x20   if k > 0 then new a (p!val[k + base, a] | a?(v) = Chain[c, k - 1, base, acc + v])\n\
         \x20   else println(\"chain\", c, acc)\n\
         in (0",
    );
    let mut expected = Vec::new();
    for c in 0..chains {
        let base = (c << CHAIN_SHIFT) + rng.below(1 << 16);
        client.push_str(&format!("\n  | Chain[{c}, {per_chain}, {base}, 0]"));
        let sum = per_chain * (per_chain + 1) / 2 + per_chain * (base + 1);
        expected.push(format!("[client] chain {c} {sum}"));
    }
    client.push_str(")\n");
    Workload {
        files: vec![
            (
                "cluster.net".into(),
                format!(
                    "{TCP_NET_HEADER}site server server.dity node=0\nsite client client.dity node=1\n"
                ),
            ),
            ("server.dity".into(), server.into()),
            ("client.dity".into(), client),
        ],
        tcp: true,
        ops: chains * per_chain,
        in_flight: chains,
        code_cache: 256,
        exporters: Vec::new(),
        expected,
    }
}

/// Each fetch client takes one class in `FETCH_SHARE` of the catalogue.
/// (With a half, as first sized, a client's own misses flush the FIFO
/// cache before it can hit anything: 5 % hits. An eighth leaves the two
/// previous clients' images in the cache.)
const FETCH_SHARE: usize = 8;

/// Classes per `def … and …` group of a fetch client; the compiler's
/// limit is 255.
const DEF_GROUP: usize = 200;

/// Terms of class `rank` of `n` by body size: log-uniform over 20–1200.
/// The multiset of sizes is the same for every seed (the seed only
/// decides which class gets which size), so total work does not drift
/// with the seed while the order and the mix each client sees do.
fn class_terms(rank: usize, n: usize) -> usize {
    let t = (rank as f64 + 0.5) / n as f64;
    (20.0 * 60f64.powf(t)).round() as usize
}

/// §4 applet server. [`FETCH_SERVERS`] sites on node 0 each `export def`
/// `fetch_classes_per_server` distinct classes `C<j>(v, r) = r![v + …]`;
/// `fetch_clients` sites on node 1 run strictly one after another (each
/// kicks the next from its last continuation), each fetching a seeded
/// eighth of the catalogue in seeded order, one fetch in flight, every
/// instantiation acked. The node code caches hold a quarter of the
/// catalogue, so cold ships and digest-only replies are mixed.
fn fetch_catalog(rng: &mut Rng, sizes: &Sizes, null: bool) -> Workload {
    let servers = FETCH_SERVERS;
    let n = servers * sizes.fetch_classes_per_server;
    assert!(
        n.is_multiple_of(FETCH_SHARE),
        "the catalogue is split in size-adjacent groups"
    );
    // ranks[j] = size rank of class j.
    let mut ranks: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ranks);
    let mut by_rank = vec![0usize; n];
    for (class, &rank) in ranks.iter().enumerate() {
        by_rank[rank] = class;
    }
    let mut consts = vec![0u64; n];
    let mut server_src: Vec<String> = vec![String::new(); servers];
    for class in 0..n {
        let src = &mut server_src[class % servers];
        src.push_str(&format!("export def C{class}(v, r) = r![v"));
        for _ in 0..class_terms(ranks[class], n) {
            let term = rng.below(10);
            consts[class] += term;
            src.push_str(&format!(" + {term}"));
        }
        src.push_str("] in\n");
    }
    let mut files = vec![(String::new(), String::new())];
    let mut net = String::from(TCP_NET_HEADER);
    for (s, mut src) in server_src.into_iter().enumerate() {
        src.push_str("0\n");
        net.push_str(&format!("site s{s} s{s}.dity node=0\n"));
        files.push((format!("s{s}.dity"), src));
    }
    let clients = sizes.fetch_clients;
    let mut expected = Vec::new();
    let mut ops = 0u64;
    for c in 0..clients {
        // One class of every group of size-adjacent classes: each client
        // sees the whole size range and its share of the catalogue.
        let mut picks: Vec<usize> = (0..n / FETCH_SHARE)
            .map(|g| by_rank[FETCH_SHARE * g + rng.below(FETCH_SHARE as u64) as usize])
            .collect();
        rng.shuffle(&mut picks);
        let mut src = String::new();
        if c > 0 {
            src.push_str(&format!("export new kick{c} in kick{c}?() =\n"));
        }
        // One class per fetch, chained by instantiation. A def group holds
        // at most 255 classes, so the chain is cut into groups, the last
        // links outermost: each group sees the one it continues into.
        let kick = if c + 1 < clients {
            format!(" | import kick{0} from c{0} in kick{0}![]", c + 1)
        } else {
            String::new()
        };
        let mut links: Vec<String> = picks
            .iter()
            .enumerate()
            .map(|(i, class)| {
                format!(
                    "F{i}(acc) = import C{class} from s{} in new a (C{class}[acc, a] | a?(y) = F{}[y])\n",
                    class % servers,
                    i + 1
                )
            })
            .collect();
        links.push(format!(
            "F{}(acc) = (println(\"sum\", acc){kick})\n",
            picks.len()
        ));
        for group in links.chunks(DEF_GROUP).rev() {
            src.push_str("def ");
            src.push_str(&group.join("and "));
            src.push_str("in\n");
        }
        // The null run compiles the same chain and enters it at its end.
        let (first, fetched) = if null {
            (picks.len(), &[][..])
        } else {
            (0, &picks[..])
        };
        src.push_str(&format!("F{first}[0]\n"));
        let sum: u64 = fetched.iter().map(|&class| consts[class]).sum();
        expected.push(format!("[c{c}] sum {sum}"));
        ops += fetched.len() as u64;
        net.push_str(&format!("site c{c} c{c}.dity node=1\n"));
        files.push((format!("c{c}.dity"), src));
    }
    files[0] = ("cluster.net".into(), net);
    Workload {
        files,
        tcp: true,
        ops,
        in_flight: 1,
        code_cache: n / 4,
        exporters: (0..servers).map(|s| format!("s{s}.dity")).collect(),
        expected,
    }
}

/// One node, [`CHURN_SITES`] sites: each runs the `cell_churn` driver
/// while a token circulates through names every site imports from its
/// neighbour (the intra-node by-reference path). No transport, no codec.
fn local_churn(rng: &mut Rng, sizes: &Sizes, null: bool) -> Workload {
    let sites = CHURN_SITES;
    let (iters, laps) = if null {
        (0, 0)
    } else {
        (sizes.churn_iters, sizes.churn_laps)
    };
    let hops = laps * sites;
    let mut net = String::from("topology nodes=1 fabric=ideal link=ideal\n");
    let mut files = vec![(String::new(), String::new())];
    let mut expected = Vec::new();
    // The seed sets each cell's first value; the drivers overwrite it,
    // so it changes the sources and not the work.
    for i in 0..sites {
        let next = (i + 1) % sites;
        let relay = if i == 0 {
            format!(
                "Relay(t) = t?(n) = if n >= {hops} then println(\"laps\", n / {sites}) \
                 else (tok{next}![n + 1] | Relay[t])"
            )
        } else {
            format!("Relay(t) = t?(n) = (tok{next}![n + 1] | Relay[t])")
        };
        let start = if i == 0 { "tok0![0] | " } else { "" };
        let src = format!(
            "export new tok{i} in\n\
             import tok{next} from l{next} in\n\
             def Cell(self, v) =\n\
             \x20   self ? {{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }}\n\
             and Driver(cell, n) =\n\
             \x20   if n > 0 then\n\
             \x20       (cell!write[n] | new z (cell!read[z] | z?(w) = Driver[cell, n - 1]))\n\
             \x20   else println(\"finished\")\n\
             and {relay}\n\
             in ({start}Relay[tok{i}] | new x (Cell[x, {}] | Driver[x, {iters}]))\n",
            rng.below(1000)
        );
        expected.push(format!("[l{i}] finished"));
        net.push_str(&format!("site l{i} l{i}.dity\n"));
        files.push((format!("l{i}.dity"), src));
    }
    expected.push(format!("[l0] laps {laps}"));
    files[0] = ("cluster.net".into(), net);
    Workload {
        files,
        tcp: false,
        ops: churn_reductions(sites, iters, hops),
        in_flight: sites,
        code_cache: 256,
        exporters: Vec::new(),
        expected,
    }
}

/// COMM + INST reductions of `local_churn`, in closed form. Per site:
/// the boot instantiates `Relay`, `Cell` and `Driver` (3 INST); every
/// transaction is write, read and reply (3 COMM) and re-instantiates the
/// cell twice and the driver once (3 INST). The token makes `hops + 1`
/// deliveries (COMM), each but the last followed by a `Relay` INST.
fn churn_reductions(sites: u64, iters: u64, hops: u64) -> u64 {
    sites * (3 + 6 * iters) + (hops + 1) + hops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_sources() {
        for name in WORKLOADS {
            let a = generate(name, 42, &Sizes::SMOKE, false).unwrap();
            let b = generate(name, 42, &Sizes::SMOKE, false).unwrap();
            assert_eq!(a.files, b.files, "{name}");
            assert_eq!(a.expected, b.expected, "{name}");
            let c = generate(name, 43, &Sizes::SMOKE, false).unwrap();
            assert_ne!(a.files, c.files, "{name}: the seed must reach the sources");
        }
    }

    #[test]
    fn the_null_variant_keeps_the_topology_and_drops_the_ops() {
        for name in WORKLOADS {
            let full = generate(name, 7, &Sizes::SMOKE, false).unwrap();
            let null = generate(name, 7, &Sizes::SMOKE, true).unwrap();
            assert_eq!(full.files[0], null.files[0], "{name}: same cluster.net");
            assert_eq!(full.files.len(), null.files.len(), "{name}");
            for ((_, a), (_, b)) in full.files.iter().zip(&null.files) {
                let letters = |s: &str| s.replace(|c: char| c.is_ascii_digit(), "");
                assert_eq!(
                    letters(a),
                    letters(b),
                    "{name}: same sources but for constants"
                );
            }
            assert!(null.ops * 10 < full.ops, "{name}: {} ops", null.ops);
        }
    }

    #[test]
    fn rpc_oracle_is_the_sum_of_replies() {
        let w = generate("rpc_seq", 1, &Sizes::SMOKE, false).unwrap();
        let line = &w.expected[0];
        let base: u64 = w.files[2]
            .1
            .rsplit("Chain[0, 400, ")
            .next()
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("base in the client source");
        let sum: u64 = (1..=400).map(|k| k + base + 1).sum();
        assert_eq!(line, &format!("[client] chain 0 {sum}"));
    }

    #[test]
    fn every_seed_has_the_same_catalogue_sizes() {
        let sizes = |seed| {
            let w = generate("fetch_catalog", seed, &Sizes::SMOKE, false).unwrap();
            let mut v: Vec<usize> = w
                .files
                .iter()
                .filter(|(f, _)| f.starts_with('s'))
                .flat_map(|(_, src)| src.lines().map(|l| l.matches(" + ").count()))
                .filter(|&terms| terms > 0)
                .collect();
            v.sort();
            v
        };
        let a = sizes(1);
        assert_eq!(a.len(), 40);
        assert_eq!(a, sizes(2));
        assert!(a[0] >= 20 && *a.last().unwrap() <= 1200);
    }
}
