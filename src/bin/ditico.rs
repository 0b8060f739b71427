//! The `ditico` command-line tool: compile, inspect and run DiTyCO
//! programs. `ditico help` prints every command with its flags (the text
//! is generated from [`COMMANDS`], the same table that rejects unknown
//! flags).
//!
//! A network description (for `ditico net` / `ditico serve`) is a
//! line-oriented file; `node=N` pins a site (multi-process runs require
//! every process to read the same spec so placements agree):
//!
//! ```text
//! topology nodes=2 link=myrinet
//! site server server.dity node=0
//! site client client.dity node=1
//! ```

use ditico::{parse_peer_list, Env, Program, Shell, Topology};
use ditico::{RunReport, TransportConfig};
use std::io::BufRead as _;
use std::net::ToSocketAddrs as _;
use std::path::Path;
use std::process::ExitCode;
use tyco_vm::word::NodeId;

// Flag lists are whitespace-separated words: `--flag` for a switch,
// `--flag=VALUE` for a flag that takes a value (`VALUE` is its placeholder
// in the usage text).

/// Flags of every cluster run (`net` in all its modes and `serve`).
const CLUSTER_FLAGS: &str = "--workers=N --wall=SECS --stats --code-cache=N \
     --ns-shards=N --ns-lease-ms=N --chaos-seed=N --chaos-drop=N --chaos-dup=N \
     --chaos-delay=N --chaos-delay-ns=N";

/// Flags of one process of a multi-process run over TCP.
const TCP_FLAGS: &str = "--node=LIST --peers=ADDRS --listen=ADDR --hb-ms=N --retries=N";

/// One subcommand: its operand, every flag it knows and its help text.
/// This table is the single source for dispatch, for rejecting unknown
/// flags and for the usage text.
struct Command {
    name: &'static str,
    operand: &'static str,
    flags: &'static [&'static str],
    about: &'static str,
    run: fn(&Command, &[String]) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "check",
        operand: "<file.dity>",
        flags: &["--verify --lint --json --opstats"],
        about: "type-check; --verify runs the byte-code verifier, --lint the usage pass\n\
                (orphan messages and objects, unreachable methods, never-instantiated\n\
                classes, orphan sends, each at its line:col); --json prints its findings\n\
                as one JSON document and implies --lint; any failing gate exits nonzero",
        run: cmd_check,
    },
    Command {
        name: "compile",
        operand: "<file.dity>",
        flags: &["-o=out.tyco"],
        about: "compile to a byte-code image",
        run: cmd_compile,
    },
    Command {
        name: "asm",
        operand: "<file.dity>",
        flags: &[],
        about: "show the VM assembly",
        run: cmd_asm,
    },
    Command {
        name: "disasm",
        operand: "<file.tyco>",
        flags: &[],
        about: "disassemble an image",
        run: cmd_disasm,
    },
    Command {
        name: "run",
        operand: "<file.dity|file.tyco>",
        flags: &["--stats --opstats --trace --no-fuse"],
        about: "run a single site to quiescence",
        run: cmd_run,
    },
    Command {
        name: "net",
        operand: "<spec.net>",
        flags: &["--threaded", CLUSTER_FLAGS, TCP_FLAGS],
        about: "run a network description: deterministic by default, --threaded on the\n\
                M:N worker-pool scheduler; --stats prints per-site SHIPM/SHIPO/FETCH and\n\
                scheduler counters; --code-cache sets the per-node code store capacity in\n\
                images (0: a store that holds nothing, so every shipment is a full image);\n\
                --chaos-* injects seeded packet faults, rates in per-mille, extra latency\n\
                via --chaos-delay-ns;\n\
                the name service is a ring of the spec's replicas=K first nodes (default 1:\n\
                the paper's central service), each owning a hash slice of the exports and\n\
                replicating it to its successor; --ns-shards N overrides K and turns on\n\
                lease caching at importing nodes (TTL --ns-lease-ms, default 50).\n\
                With --node LIST and --peers ADDRS and/or --listen ADDR: run one process\n\
                of a multi-process cluster over TCP (LIST: comma-separated node indices\n\
                this process hosts)",
        run: cmd_net,
    },
    Command {
        name: "serve",
        operand: "<spec.net>",
        flags: &[CLUSTER_FLAGS, TCP_FLAGS],
        about: "host this process's nodes (--node LIST, --listen ADDR) over TCP until the\n\
                distributed run terminates",
        run: |cmd, args| cmd_distributed(cmd, args, true),
    },
    Command {
        name: "shell",
        operand: "",
        flags: &[],
        about: "interactive TyCOsh",
        run: |_, _| cmd_shell(),
    },
];

impl Command {
    /// Every flag with its value placeholder (`""` for a switch).
    fn flags(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.flags
            .iter()
            .flat_map(|list| list.split_whitespace())
            .map(|f| f.split_once('=').unwrap_or((f, "")))
    }

    /// `usage: ditico <name> <operand> [--flag VALUE]…`, wrapped.
    fn usage(&self) -> String {
        let mut out = format!("usage: ditico {}", self.name);
        let mut width = out.len();
        let words = std::iter::once(self.operand.to_string())
            .filter(|w| !w.is_empty())
            .chain(self.flags().map(|(flag, value)| match value {
                "" => format!("[{flag}]"),
                v => format!("[{flag} {v}]"),
            }));
        for w in words {
            if width + 1 + w.len() > 78 {
                out.push_str("\n         ");
                width = 9;
            }
            out.push(' ');
            out.push_str(&w);
            width += 1 + w.len();
        }
        out
    }

    /// Refuse any `-flag` this command does not know (values of flags
    /// that take one are skipped, so `--wall -1` reaches the parser).
    fn reject_unknown_flags(&self, args: &[String]) -> Result<(), String> {
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            i += 1;
            if a.len() < 2 || !a.starts_with('-') {
                continue;
            }
            match self.flags().find(|(flag, _)| flag == a) {
                Some((_, value)) if !value.is_empty() => i += 1,
                Some(_) => {}
                None => {
                    return Err(format!(
                        "unknown flag `{a}` for `ditico {}` (try `ditico help`)",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Stack of the thread every command runs on. The front end, the usage pass
/// and the syntax tree's `Drop` recurse over the tree, whose depth the
/// parser bounds (`nesting too deep`); a program at that bound needs about
/// 12 MiB in a release build and 100 MiB in a debug build, more than a
/// main thread has. Only the pages a run touches are ever committed.
const STACK_BYTES: usize = 256 << 20;

fn main() -> ExitCode {
    std::thread::Builder::new()
        .name("ditico".to_string())
        .stack_size(STACK_BYTES)
        .spawn(run)
        .expect("spawn the command thread")
        .join()
        // The panic hook has already printed the message.
        .unwrap_or(ExitCode::from(101))
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(cmd) => cmd
                .reject_unknown_flags(&args[1..])
                .and_then(|()| (cmd.run)(cmd, &args[1..])),
            None => Err(format!("unknown command `{name}` (try `ditico help`)")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ditico: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("usage: ditico <command>\n\ncommands:");
    for cmd in COMMANDS {
        let usage = cmd.usage();
        println!(
            "  {}",
            usage.strip_prefix("usage: ditico ").unwrap_or(&usage)
        );
        for line in cmd.about.lines() {
            println!("          {line}");
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn compile_file(path: &str) -> Result<Program, String> {
    Program::compile(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Minimal JSON string escaping for `check --json` output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cmd_check(cmd: &Command, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| cmd.usage())?;
    let json = args.iter().any(|a| a == "--json");
    let p = compile_file(path)?;
    if !json {
        println!("{path}: ok ({} byte-code instructions)", p.instr_count());
        if !p.types.exported_names.is_empty() || !p.types.exported_classes.is_empty() {
            println!("exported interface:");
            for (name, t) in &p.types.exported_names {
                println!("  {name} : {t}");
            }
            for (name, s) in &p.types.exported_classes {
                println!("  {name} : {s}");
            }
        }
        for (site, name, kind) in &p.types.imports {
            println!("imports {name} ({kind:?}) from {site}");
        }
    }
    // Every requested gate runs — a verifier failure must not mask the
    // findings — and any failing gate fails the command, so `check` can
    // gate a build.
    let mut failures: Vec<String> = Vec::new();
    if args.iter().any(|a| a == "--verify") {
        match p.verify() {
            Ok(()) => {
                if !json {
                    println!("{path}: byte-code image verifies");
                }
            }
            Err(e) => {
                eprintln!("{path}: verifier rejected the image: {e}");
                failures.push("verify".to_string());
            }
        }
    }
    if args.iter().any(|a| a == "--opstats") && !json {
        // Static census: occurrence counts over the compiled image, a
        // preview of fusion opportunities (run with `ditico run --opstats`
        // for execution-weighted counts).
        print!("{}", tyco_vm::stats::OpStats::census(&p.code).render(12));
    }
    if json || args.iter().any(|a| a == "--lint") {
        let findings = p.findings();
        if json {
            // One JSON document on stdout for CI gating.
            let items: Vec<String> = findings
                .iter()
                .map(|f| {
                    format!(
                        r#"{{"kind":"{}","subject":"{}","detail":"{}","line":{},"col":{}}}"#,
                        f.kind.tag(),
                        json_escape(&f.subject),
                        json_escape(&f.detail),
                        f.at.line,
                        f.at.col
                    )
                })
                .collect();
            println!(
                r#"{{"file":"{}","findings":[{}]}}"#,
                json_escape(path),
                items.join(",")
            );
        } else {
            for f in &findings {
                println!("{path}:{f}");
            }
            if findings.is_empty() {
                println!("{path}: no liveness findings");
            }
        }
        if !findings.is_empty() {
            failures.push(format!("{} liveness finding(s)", findings.len()));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{path}: {}", failures.join(", ")))
    }
}

fn cmd_compile(cmd: &Command, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| cmd.usage())?;
    let out = match args.iter().position(|a| a == "-o") {
        Some(i) => args.get(i + 1).cloned().ok_or("missing output after -o")?,
        None => {
            let stem = Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("out");
            format!("{stem}.tyco")
        }
    };
    let bytes = tyco_vm::image_to_bytes(&compile_file(path)?.code);
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("{out}: {} bytes", bytes.len());
    Ok(())
}

fn cmd_asm(cmd: &Command, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| cmd.usage())?;
    let p = compile_file(path)?;
    print!("{}", tyco_vm::emit_asm(&p.code));
    Ok(())
}

fn cmd_disasm(cmd: &Command, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| cmd.usage())?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let prog = tyco_vm::image_from_bytes(bytes.into()).map_err(|e| e.to_string())?;
    print!("{}", tyco_vm::emit_asm(&prog));
    Ok(())
}

fn load_program(path: &str) -> Result<tyco_vm::Program, String> {
    if path.ends_with(".tyco") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        tyco_vm::image_from_bytes(bytes.into()).map_err(|e| e.to_string())
    } else {
        Ok(compile_file(path)?.code)
    }
}

fn cmd_run(cmd: &Command, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| cmd.usage())?;
    let prog = load_program(path)?;
    let port = tyco_vm::LoopbackPort::new("main");
    // --no-fuse executes the byte-code exactly as compiled; the default
    // applies superinstruction fusion. Telemetry for *choosing* fusions is
    // read from `--no-fuse --opstats` runs (base-opcode digrams).
    let mut m = if args.iter().any(|a| a == "--no-fuse") {
        tyco_vm::Machine::new_unfused(prog, port)
    } else {
        tyco_vm::Machine::new(prog, port)
    };
    let tracing = args.iter().any(|a| a == "--trace");
    if tracing {
        m.set_trace(64);
    }
    let opstats = args.iter().any(|a| a == "--opstats");
    if opstats {
        m.enable_opstats();
    }
    let result = m.run_to_quiescence(u64::MAX);
    for line in &m.io {
        println!("{line}");
    }
    if args.iter().any(|a| a == "--stats") {
        eprintln!("{}", m.stats);
    } else if opstats {
        if let Some(ops) = &m.stats.ops {
            eprint!("{}", ops.render(12));
        }
    }
    match result {
        Ok(_) => Ok(()),
        Err(e) => {
            if tracing {
                eprintln!("last instructions before the error:\n{}", m.render_trace());
            }
            Err(e.to_string())
        }
    }
}

/// One parsed `site` line of a network spec.
struct SiteSpec {
    lexeme: String,
    src: String,
    /// `node=N` pin, if any.
    pin: Option<usize>,
}

/// Parse a `.net` network description (shared by `net` and `serve`).
fn parse_net_spec(path: &str) -> Result<(Topology, Vec<SiteSpec>), String> {
    let spec = read(path)?;
    let dir = Path::new(path).parent().unwrap_or(Path::new("."));
    let mut topology = Topology::default();
    let mut sites: Vec<SiteSpec> = Vec::new();
    for (i, raw) in spec.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("topology") => {
                for kv in words {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("{path}:{}: expected key=value", i + 1))?;
                    topology
                        .set(k, v)
                        .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
                }
            }
            Some("site") => {
                let lexeme = words
                    .next()
                    .ok_or_else(|| format!("{path}:{}: site needs a lexeme", i + 1))?;
                let file = words
                    .next()
                    .ok_or_else(|| format!("{path}:{}: site needs a program file", i + 1))?;
                let mut pin = None;
                for extra in words {
                    match extra.split_once('=') {
                        Some(("node", v)) => {
                            pin = Some(v.parse().map_err(|e| format!("{path}:{}: {e}", i + 1))?);
                        }
                        _ => {
                            return Err(format!(
                                "{path}:{}: unknown site attribute `{extra}`",
                                i + 1
                            ));
                        }
                    }
                }
                let src = read(dir.join(file).to_str().unwrap_or(file))?;
                sites.push(SiteSpec {
                    lexeme: lexeme.to_string(),
                    src,
                    pin,
                });
            }
            Some(other) => return Err(format!("{path}:{}: unknown directive `{other}`", i + 1)),
            None => {}
        }
    }
    for s in &sites {
        if let Some(pin) = s.pin {
            if pin >= topology.nodes.max(1) {
                return Err(format!(
                    "site `{}` is pinned to node {pin}, but the topology has {} node(s)",
                    s.lexeme, topology.nodes
                ));
            }
        }
    }
    Ok((topology, sites))
}

/// Optional `--flag value` string lookup.
fn string_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
        None => Ok(None),
    }
}

/// Optional `--flag N` numeric lookup; a value that does not fit `T` is
/// refused, never wrapped.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match string_flag(args, name)? {
        Some(v) => v.parse().map(Some).map_err(|e| format!("{name}: {e}")),
        None => Ok(None),
    }
}

/// Apply the flags every cluster run shares to `env`, then declare the
/// spec's sites. `--ns-shards N` replaces the spec's name-service ring
/// (`replicas=K`, default 1: the paper's central service, no lease
/// caching) with N shard owners and a lease TTL from `--ns-lease-ms`
/// (default 50 ms).
fn cluster_env(mut env: Env, args: &[String], sites: Vec<SiteSpec>) -> Result<Env, String> {
    if let Some(w) = num_flag(args, "--workers")? {
        env = env.workers(w);
    }
    if let Some(c) = num_flag(args, "--code-cache")? {
        env = env.code_cache(c);
    }
    if let Some(s) = num_flag(args, "--ns-shards")?.filter(|&s| s > 0) {
        env = env.ns_shards(s, num_flag(args, "--ns-lease-ms")?.unwrap_or(50));
    }
    if let Some(plan) = chaos_from_args(args)? {
        env = env.chaos(plan);
    }
    for s in sites {
        env = match s.pin {
            Some(pin) => env.site_on(pin, &s.lexeme, &s.src),
            None => env.site(&s.lexeme, &s.src),
        }
        .map_err(|e| e.to_string())?;
    }
    Ok(env)
}

/// Parse the `--chaos-*` fault-injection flags into a plan, or `None` when
/// no chaos flag was given. Rates are per-mille of packets; structural
/// events (partitions, kills) are only reachable from the library API.
fn chaos_from_args(args: &[String]) -> Result<Option<ditico::ChaosPlan>, String> {
    let seed = num_flag(args, "--chaos-seed")?;
    let drop = num_flag(args, "--chaos-drop")?;
    let dup = num_flag(args, "--chaos-dup")?;
    let delay = num_flag(args, "--chaos-delay")?;
    let delay_ns = num_flag(args, "--chaos-delay-ns")?;
    if seed.is_none() && drop.is_none() && dup.is_none() && delay.is_none() && delay_ns.is_none() {
        return Ok(None);
    }
    let mut spec = ditico::ChaosSpec::quiet(seed.unwrap_or(0));
    spec.drop_per_mille = drop.unwrap_or(0);
    spec.dup_per_mille = dup.unwrap_or(0);
    spec.delay_per_mille = delay.unwrap_or(0);
    spec.delay_ns = delay_ns.unwrap_or(1_000_000);
    Ok(Some(ditico::ChaosPlan::new(spec)))
}

/// Print a finished run's outputs and summary; returns an error when any
/// site failed so the process exits non-zero.
fn print_report(report: &RunReport, show_stats: bool) -> Result<(), String> {
    let mut lexemes: Vec<&String> = report.outputs.keys().collect();
    lexemes.sort();
    for lexeme in lexemes {
        for line in &report.outputs[lexeme] {
            println!("[{lexeme}] {line}");
        }
    }
    for (site, err) in &report.errors {
        eprintln!("[{site}] error: {err}");
    }
    for a in &report.aborts {
        eprintln!("abort: {a}");
    }
    if !report.suspects.is_empty() {
        let list: Vec<String> = report.suspects.iter().map(|n| n.0.to_string()).collect();
        eprintln!("suspected dead nodes: {}", list.join(", "));
    }
    eprintln!(
        "-- {} instrs, {} fabric packets ({} bytes), virtual {} µs{}",
        report.total_instrs,
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns / 1_000,
        if report.quiescent { "" } else { " (limit hit)" }
    );
    let cache = report.cache_totals();
    if cache.insertions > 0 || cache.hits > 0 || cache.misses > 0 {
        eprintln!(
            "code cache: {} hits / {} misses, {} coalesced fetches, {} dedup sends \
             ({} B saved), {} insertions, {} evictions, {} digest mismatches, \
             {} dup replies dropped",
            cache.hits,
            cache.misses,
            cache.coalesced,
            cache.dedup_sends,
            cache.bytes_saved,
            cache.insertions,
            cache.evictions,
            cache.digest_mismatches,
            report.total_dup_fetch_replies()
        );
    }
    let ns = report.ns_totals();
    if ns.any() {
        eprintln!(
            "name service: {} registers, {} imports ({} resolved, {} parked), \
             {} lease hits / {} misses / {} expired, {} invalidations, \
             {} shard hops, repl {} shipped / {} applied, {} failovers; \
             refusals: {} unknown site, {} kind, {} stamp",
            ns.registers,
            ns.imports,
            ns.resolved,
            ns.parked,
            ns.lease_hits,
            ns.lease_misses,
            ns.lease_expired,
            ns.invalidations,
            ns.shard_hops,
            ns.repl_shipped,
            ns.repl_applied,
            report.ns_failovers,
            ns.unknown_site,
            ns.kind_mismatch,
            ns.stamp_mismatch
        );
    }
    if let Some(t) = &report.transport {
        eprintln!(
            "wire: {} data out / {} data in ({} B out, {} B in), {} heartbeats in, \
             {} rejected, {} dropped, {} reconnects, {} peers failed, \
             outq hwm {}, {} flush stalls, {} perma-down drops",
            t.data_out,
            t.data_in,
            t.bytes_out,
            t.bytes_in,
            t.heartbeats_in,
            report.daemon_stats.iter().map(|d| d.rejected).sum::<u64>(),
            t.dropped,
            t.reconnects,
            t.peers_failed,
            t.outq_hwm,
            t.flush_stalls,
            t.dropped_perma
        );
    }
    if let Some(c) = &report.chaos {
        eprintln!(
            "chaos: {} dropped, {} duplicated, {} delayed, {} partition drops; \
             {} partitions / {} heals, {} kills / {} restarts",
            c.dropped,
            c.duplicated,
            c.delayed,
            c.partition_drops,
            c.partitions,
            c.heals,
            c.kills,
            c.restarts
        );
    }
    if show_stats {
        let mut lexemes: Vec<&String> = report.stats.keys().collect();
        lexemes.sort();
        for lexeme in lexemes {
            eprintln!("[{lexeme}]\n{}", report.stats[lexeme]);
        }
        let s = report.sched;
        if s.workers > 0 {
            eprintln!(
                "scheduler: workers={} slices={} (max/site {}) steals={} injector={} \
                 parks={} unparks={} max-ready-depth={} detector-probes={}",
                s.workers,
                s.slices,
                s.max_site_slices,
                s.steals,
                s.injector_pushes,
                s.parks,
                s.unparks,
                s.max_ready_depth,
                report.detector_probes
            );
        }
    }
    if !report.errors.is_empty() {
        return Err(format!("{} site(s) failed", report.errors.len()));
    }
    Ok(())
}

fn cmd_net(cmd: &Command, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| cmd.usage())?;
    // Any transport flag switches to the multi-process runner.
    if ["--peers", "--listen", "--node"]
        .iter()
        .any(|f| args.iter().any(|a| a == f))
    {
        return cmd_distributed(cmd, args, false);
    }
    let threaded = args.iter().any(|a| a == "--threaded");
    let show_stats = args.iter().any(|a| a == "--stats");
    let wall = num_flag(args, "--wall")?.unwrap_or(60);
    let (topology, sites) = parse_net_spec(path)?;
    if threaded && !topology.link.is_ideal() {
        return Err("--threaded needs link=ideal in the spec".into());
    }
    let env = cluster_env(Env::new(topology), args, sites)?;
    let report = if threaded {
        env.build()
            .map_err(|e| e.to_string())?
            .run_threaded(std::time::Duration::from_secs(wall))
    } else {
        env.run().map_err(|e| e.to_string())?
    };
    print_report(&report, show_stats)
}

/// Run one process of a multi-process cluster over the TCP transport
/// (`ditico net --node/--peers/--listen` and `ditico serve`).
fn cmd_distributed(cmd: &Command, args: &[String], serve: bool) -> Result<(), String> {
    let usage = cmd.usage();
    let path = args.first().ok_or_else(|| usage.clone())?;
    let show_stats = args.iter().any(|a| a == "--stats");
    let node_list = string_flag(args, "--node")?
        .ok_or_else(|| format!("--node LIST is required for a multi-process run\n{usage}"))?;
    let mut local_nodes: Vec<usize> = Vec::new();
    for part in node_list.split(',') {
        let part = part.trim();
        local_nodes.push(
            part.parse()
                .map_err(|e| format!("--node: bad node index `{part}`: {e}"))?,
        );
    }
    let peers = match string_flag(args, "--peers")? {
        Some(s) => parse_peer_list(&s)?,
        None => Vec::new(),
    };
    let listen = match string_flag(args, "--listen")? {
        Some(s) => Some(
            s.to_socket_addrs()
                .map_err(|e| format!("--listen: bad address `{s}`: {e}"))?
                .next()
                .ok_or_else(|| format!("--listen: address `{s}` resolved to nothing"))?,
        ),
        None => None,
    };
    if serve && listen.is_none() {
        return Err(format!("serve needs --listen\n{usage}"));
    }
    if !serve && peers.is_empty() && listen.is_none() {
        return Err(format!(
            "a multi-process run needs --peers and/or --listen\n{usage}"
        ));
    }
    let wall = num_flag(args, "--wall")?.unwrap_or(60);
    let (topology, sites) = parse_net_spec(path)?;
    for &n in &local_nodes {
        if n >= topology.nodes.max(1) {
            return Err(format!(
                "--node: index {n} is outside the topology ({} node(s))",
                topology.nodes
            ));
        }
    }
    let mut cfg = TransportConfig {
        local_nodes: local_nodes.iter().map(|&n| NodeId(n as u32)).collect(),
        listen,
        peers,
        ..TransportConfig::default()
    };
    if let Some(ms) = num_flag::<u64>(args, "--hb-ms")? {
        cfg.hb_period = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(r) = num_flag(args, "--retries")? {
        cfg.max_retries = r;
    }
    let env = cluster_env(Env::new(topology).hosting(&local_nodes), args, sites)?;
    let built = env.build().map_err(|e| e.to_string())?;
    // `run_distributed` announces `listening on …` once the socket is bound.
    let report = built.run_distributed(cfg, std::time::Duration::from_secs(wall))?;
    print_report(&report, show_stats)
}

fn cmd_shell() -> Result<(), String> {
    let mut shell = Shell::new();
    let stdin = std::io::stdin();
    let mut lock = stdin.lock();
    let mut line = String::new();
    println!("TyCOsh — type `help` for commands, ctrl-D to exit.");
    loop {
        line.clear();
        match lock.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                if matches!(line.trim(), "exit" | "quit") {
                    return Ok(());
                }
                let reply = shell.exec(&line);
                if !reply.is_empty() {
                    println!("{reply}");
                }
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
}
