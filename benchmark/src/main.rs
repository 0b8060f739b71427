//! `e2e` — the repo's end-to-end benchmark (see `benchmark/README.md`).
//!
//! ```text
//! e2e --ditico BIN --work DIR --workload W --seed N --seconds S --trace 0|1
//!         one workload, one JSON result line (what BENCHMARK.json's command runs)
//! e2e --ditico BIN --work DIR --seed N [--seconds S] [--smoke] [--out FILE]
//!         every workload untraced, then traced: text, then one JSON document
//! e2e compare A.json… [-- B.json…]
//!         how much worse B is than A per workload × metric, against its bound
//! ```
//!
//! `run.sh` builds both binaries and supplies `--ditico`, `--work` and
//! `--git-rev`.

mod gen;
mod json;
mod layers;
mod proc;
mod report;
mod tap;

use gen::{Sizes, Workload};
use json::{obj, Json};
use layers::Samples;
use proc::{Exit, Proc};
use report::Report;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tap::{SpanKind, Tap, TapLog, What};
use tyco_vm::codec::Packet;

/// The contract this harness is written to, compiled in so that metric
/// names, units and bounds have one source.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Heartbeat period of every process; the exit grace is six of them.
const HB_MS: u64 = 25;
/// Length prefix, sender and receiver of a frame on the wire, bytes.
const FRAME_HEADER: u64 = 12;
/// `--wall` backstop of every child process, seconds.
const WALL_S: u64 = 60;

struct MetricDef {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn metric_defs(section: &str) -> Vec<MetricDef> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
    doc.get(section)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricDef {
            name: field(m, "name"),
            unit: field(m, "unit"),
            lower_is_better: field(m, "better") == "lower",
            bound: m.get("bound").and_then(Json::num).unwrap_or(0.0),
        })
        .collect()
}

/// Measured values by metric name, in the order they were computed.
type Values = Vec<(&'static str, f64)>;

/// Render `values` as the `metrics` object of `section`, insisting that
/// the harness measured exactly what `BENCHMARK.json` declares.
fn metrics_json(section: &str, values: &Values) -> Result<Json, String> {
    let defs = metric_defs(section);
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "metric `{stray}` is not declared under `{section}`"
        ));
    }
    let mut fields = Vec::new();
    for d in defs {
        let (_, v) = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .ok_or_else(|| format!("declared metric `{}` was not measured", d.name))?;
        fields.push((
            d.name,
            obj([("value", Json::Num(*v)), ("unit", Json::Str(d.unit))]),
        ));
    }
    Ok(Json::Obj(fields))
}

struct Ctx {
    ditico: PathBuf,
    work: PathBuf,
    sizes: Sizes,
    seed: u64,
    /// Distinguishes the run directories of one invocation.
    runs: u32,
    /// Smoke self-test: expect a wrong answer, to see the oracle refuse it.
    wrong_oracle: bool,
}

/// One run of a workload's processes, start to exit.
struct Round {
    setup_s: f64,
    client: Exit,
    server: Option<Exit>,
    reports: Vec<Report>,
    /// Why the run's ops do not count as verified; empty when they do.
    failures: Vec<String>,
    tap: Option<TapLog>,
    workload: Workload,
}

impl Round {
    fn cpu_s(&self) -> f64 {
        self.client.cpu_s + self.server.as_ref().map_or(0.0, |s| s.cpu_s)
    }

    fn peak_rss_mb(&self) -> f64 {
        self.client.peak_rss_mb + self.server.as_ref().map_or(0.0, |s| s.peak_rss_mb)
    }

    /// The client's report, then the server's.
    fn sum(&self, f: impl Fn(&Report) -> u64) -> u64 {
        self.reports.iter().map(f).sum()
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Set up and run `name` once. `Err` is a harness failure (cannot spawn,
/// cannot parse); a wrong answer from the system lands in `failures`.
fn run_round(ctx: &mut Ctx, name: &str, null: bool, tapped: bool) -> Result<Round, String> {
    ctx.runs += 1;
    let dir = ctx
        .work
        .join(format!("{}-{name}-{}", std::process::id(), ctx.runs));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // -- set-up: sources, front-end check, server until it listens --------
    let t_setup = Instant::now();
    let mut w = gen::generate(name, ctx.seed, &ctx.sizes, null)?;
    if ctx.wrong_oracle {
        w.expected[0].push('0');
    }
    for (file, text) in &w.files {
        std::fs::write(dir.join(file), text).map_err(|e| format!("{file}: {e}"))?;
    }
    // A zero-op run's set-up time is never reported: it skips the check.
    for (file, _) in w
        .files
        .iter()
        .filter(|(f, _)| !null && f.ends_with(".dity"))
    {
        let check = Proc::spawn(
            &ctx.ditico,
            &strings(&["check", file, "--verify"]),
            &dir,
            "check",
        )?
        .finish()?;
        if !check.success {
            return Err(format!(
                "`ditico check {file} --verify` failed in {}:\n{}",
                dir.display(),
                check.stderr
            ));
        }
    }
    let cache = w.code_cache.to_string();
    let (hb, wall) = (HB_MS.to_string(), WALL_S.to_string());
    let mut server = None;
    let mut tap = None;
    let mut client_args = strings(&["net", "cluster.net", "--stats", "--wall", &wall]);
    client_args.extend(strings(&["--code-cache", &cache]));
    if w.tcp {
        let port = proc::free_port()?;
        let listen = format!("127.0.0.1:{port}");
        let mut args = strings(&["serve", "cluster.net", "--node", "0", "--listen", &listen]);
        args.extend(strings(&["--hb-ms", &hb, "--stats", "--wall", &wall]));
        args.extend(strings(&["--code-cache", &cache]));
        let mut s = Proc::spawn(&ctx.ditico, &args, &dir, "server")?;
        s.wait_listening(port)?;
        server = Some(s);
        let mut dial = port;
        if tapped {
            let t = Tap::start(port)?;
            dial = t.port;
            tap = Some(t);
        }
        let peers = format!("127.0.0.1:{dial}");
        client_args.extend(strings(&["--node", "1", "--peers", &peers, "--hb-ms", &hb]));
    } else {
        client_args.push("--threaded".into());
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    // -- the measured section: client spawn → exit -------------------------
    let client = Proc::spawn(&ctx.ditico, &client_args, &dir, "client")?.finish()?;
    let server = match server {
        // A client that never connected leaves the server waiting for
        // its wall clock; dropping the handle kills it instead.
        Some(_) if !client.success => None,
        Some(s) => Some(s.finish()?),
        None => None,
    };
    let tap = tap.map(Tap::finish).transpose()?;

    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for (who, exit) in [("client", Some(&client)), ("server", server.as_ref())] {
        let Some(exit) = exit else { continue };
        if !exit.success {
            failures.push(format!("{who} exited with a failure"));
        }
        match report::parse(&exit.stderr) {
            Ok(r) => {
                if !r.quiescent {
                    failures.push(format!("{who} ended on its limit, not by quiescence"));
                }
                failures.extend(r.problems.iter().map(|p| format!("{who}: {p}")));
                if let Some(line) = &r.suspects {
                    eprintln!("{name}: note: {who} reported `{line}`");
                }
                if r.wire.dropped + r.wire.rejected + r.cache.digest_mismatches > 0 {
                    failures.push(format!("{who} dropped or rejected packets"));
                }
                reports.push(r);
            }
            Err(e) => failures.push(format!("{who}: {e}")),
        }
    }
    if w.tcp && server.is_none() {
        failures.push("server was killed after the client failed".into());
    }
    let mut printed: Vec<&str> = client.stdout.lines().collect();
    printed.sort();
    if printed != w.expected {
        failures.push(format!(
            "client output differs from the oracle: expected {:?}, got {:?}",
            w.expected, printed
        ));
    }
    // The ops the program itself counted must be the ops attempted.
    if let Some(c) = reports.first() {
        let counted = match name {
            "fetch_catalog" => c.site_sum(|s| s.fetch),
            "local_churn" => c.site_sum(|s| s.comm + s.inst),
            _ => c.site_sum(|s| s.msgs_recv),
        };
        if counted != w.ops {
            failures.push(format!("client counted {counted} ops, expected {}", w.ops));
        }
    }
    eprintln!(
        "{name}{}{}: setup {setup_s:.4} s, makespan {:.4} s, {} ops",
        if null { " (null)" } else { "" },
        if tapped { " (tapped)" } else { "" },
        client.wall_s,
        w.ops
    );
    if !failures.is_empty() {
        eprintln!("{name}: run NOT verified:");
        for f in &failures {
            eprintln!("  - {f}");
        }
    }
    // A failed run's files stay for the post-mortem (the self-test's
    // failure is the expected one).
    if !(failures.is_empty() || ctx.wrong_oracle) {
        eprintln!("{name}: files kept in {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(Round {
        setup_s,
        client,
        server,
        reports,
        failures,
        tap,
        workload: w,
    })
}

/// The best (lowest) value over the runs of one invocation. Noise on a
/// shared guest is one-sided — a neighbour's burst only ever slows a run —
/// so the fastest run is the steadiest estimate of what the code costs:
/// over the 25 s windows of one 400 s trace of 0.5 s runs the medians
/// spread by 4.0 %, the minima by 1.4 % (README, "Sizing the runs").
fn best(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).reduce(f64::min).unwrap_or(0.0)
}

/// The result of one invocation on one workload.
struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
}

impl Outcome {
    fn new<'a>(rounds: impl IntoIterator<Item = &'a Round>, values: Values) -> Outcome {
        let (mut attempted, mut failed) = (0, 0);
        for r in rounds {
            attempted += r.workload.ops;
            if !r.failures.is_empty() {
                failed += r.workload.ops;
            }
        }
        Outcome {
            attempted,
            failed,
            values,
        }
    }

    fn result_line(&self, section: &str) -> Result<String, String> {
        Ok(obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(section, &self.values)?),
        ])
        .to_line())
    }
}

/// Repeat `cycle` for as long as another one as slow as the slowest so
/// far still fits in `seconds`; at least once.
fn fill(seconds: f64, mut cycle: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    let mut slowest = 0f64;
    loop {
        let t = Instant::now();
        cycle()?;
        slowest = slowest.max(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + slowest > seconds {
            return Ok(());
        }
    }
}

/// A zero-op run has no ops to count as failed, so its failure is the
/// harness's.
fn null_runs_passed(name: &str, null: &[Round]) -> Result<(), String> {
    match null.iter().find(|r| !r.failures.is_empty()) {
        Some(r) => Err(format!("{name}: the zero-op run failed: {:?}", r.failures)),
        None => Ok(()),
    }
}

/// Tracing off: run the workload and its zero-op twin in turn for
/// `seconds` and report the best run, metric by metric.
fn measure_end_to_end(ctx: &mut Ctx, name: &str, seconds: f64) -> Result<Outcome, String> {
    let (mut rounds, mut null) = (Vec::new(), Vec::new());
    fill(seconds, || {
        rounds.push(run_round(ctx, name, false, false)?);
        null.push(run_round(ctx, name, true, false)?);
        Ok(())
    })?;
    null_runs_passed(name, &null)?;
    let makespan_s = best(&rounds, |r| r.client.wall_s);
    let ops = rounds[0].workload.ops as f64;
    // The two per-op metrics are net of the zero-op run: what the same
    // processes take to boot, compile, shake hands and leave is no op's
    // cost, and on short runs it would dilute a change in the op path.
    let op_s = makespan_s - best(&null, |r| r.client.wall_s);
    let op_cpu_s = best(&rounds, Round::cpu_s) - best(&null, Round::cpu_s);
    let values = vec![
        ("setup_s", best(&rounds, |r| r.setup_s)),
        ("makespan_s", makespan_s),
        ("ops_per_s", ops / op_s),
        ("cpu_us_per_op", op_cpu_s * 1e6 / ops),
        ("peak_rss_mb", best(&rounds, Round::peak_rss_mb)),
    ];
    Ok(Outcome::new(&rounds, values))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced measurement: untraced, tapped and zero-op runs and a VM
/// calibration in turn for 0.7 × `seconds`, then the isolated layer
/// timings on what the runs used and carried.
fn measure_layers(ctx: &mut Ctx, name: &str, seconds: f64) -> Result<Outcome, String> {
    let (mut plain, mut tapped, mut null) = (Vec::new(), Vec::new(), Vec::new());
    let mut instrs_per_s = 0f64;
    // The layer timings below need their share.
    fill(seconds * 0.7, || {
        plain.push(run_round(ctx, name, false, false)?);
        if plain[0].workload.tcp {
            tapped.push(run_round(ctx, name, false, true)?);
        }
        null.push(run_round(ctx, name, true, false)?);
        instrs_per_s = instrs_per_s.max(layers::machine_instrs_per_s()?);
        Ok(())
    })?;
    null_runs_passed(name, &null)?;
    let null_s = best(&null, |r| r.client.wall_s);

    // -- counters of the first untraced run -------------------------------
    let r = &plain[0];
    let ops = r.workload.ops as f64;
    let per_op = |n: u64| n as f64 / ops;
    let client = r.reports.first().cloned().unwrap_or_default();
    let server = r.reports.get(1).cloned().unwrap_or_default();
    let frames = client.wire.data_out + client.wire.data_in;
    // Heartbeats are timer-driven and their count differs run to run;
    // without them the byte counts repeat exactly for a seed.
    let heartbeat = tyco_vm::codec::encode(&Packet::Heartbeat {
        node: tyco_vm::NodeId(0),
        seq: 0,
    });
    let heartbeats = r.sum(|x| x.wire.heartbeats_in);
    let wire_bytes = (client.wire.bytes_out + client.wire.bytes_in)
        .saturating_sub(heartbeats * (heartbeat.len() as u64 + FRAME_HEADER));
    let total_instrs = r.sum(|x| x.instrs);
    let ic_hits = r.sum(|x| x.site_sum(|s| s.ic_hits));
    let ic_all = ic_hits + r.sum(|x| x.site_sum(|s| s.ic_misses));
    let fetches = client.site_sum(|s| s.fetch);

    // -- isolated layer timings -------------------------------------------
    let w = &r.workload;
    let sources: Vec<(&str, &str)> = w
        .files
        .iter()
        .filter(|(f, _)| f.ends_with(".dity"))
        .map(|(f, s)| (f.as_str(), s.as_str()))
        .collect();
    let texts: Vec<&str> = sources.iter().map(|(_, s)| *s).collect();
    let (fe, programs) = layers::front_end(&texts)?;
    let logs: Vec<&TapLog> = tapped.iter().filter_map(|t| t.tap.as_ref()).collect();
    let first_log = logs.first();
    let (digests, images): (HashSet<_>, Vec<&tyco_vm::WireCode>) = first_log
        .map(|l| {
            l.code_packets
                .iter()
                .filter_map(|p| match p {
                    Packet::FetchReply { digest, group, .. } => Some((*digest, &group.code)),
                    _ => None,
                })
                .unzip()
        })
        .unwrap_or_default();
    // Only sites whose classes are fetched ever pack.
    let exporters: Vec<&tyco_vm::Program> = sources
        .iter()
        .zip(&programs)
        .filter(|((f, _), _)| w.exporters.iter().any(|e| e == f))
        .map(|(_, p)| p)
        .collect();
    let packs = layers::pack_times(&exporters);
    let img = layers::image_times(&images)?;
    let codec = layers::codec_times(first_log.map_or(&[][..], |l| &l.payloads))?;

    // -- spans ---------------------------------------------------------------
    let spans = || logs.iter().flat_map(|l| l.matcher.spans.iter());
    let turn = |kind: SpanKind, what: Option<What>| {
        Samples::new(
            spans()
                .filter(|s| s.kind == kind && what.map_or(s.what != What::Import, |w| s.what == w))
                .map(|s| s.micros())
                .collect(),
        )
    };
    let server_turn = turn(SpanKind::ServerTurn, None);
    let client_turn = turn(SpanKind::ClientTurn, None);
    let import_rtt = turn(SpanKind::ServerTurn, Some(What::Import));
    let plain_s = best(&plain, |r| r.client.wall_s);
    let traced_s = best(&tapped, |r| r.client.wall_s);
    // Per traced run: time inside spans over the time there was to cover.
    let coverage = Samples::new(
        tapped
            .iter()
            .filter_map(|t| {
                let log = t.tap.as_ref()?;
                let covered: f64 = log.matcher.spans.iter().map(|s| s.micros()).sum();
                Some(ratio(
                    covered / 1e6,
                    w.in_flight as f64 * (t.client.wall_s - null_s),
                ))
            })
            .collect(),
    )
    .median();
    if let Some(log) = first_log {
        write_spans(&ctx.work.join(format!("{name}.spans.csv")), log)?;
    }

    // -- budget: isolated cost × counted calls over the untraced op time ---
    let op_time_s = plain_s - null_s;
    let vm_s = total_instrs as f64 / instrs_per_s;
    let codec_s = frames as f64 * (codec.encode_ns_per_frame + codec.decode_ns_per_frame) / 1e9;
    // A class is packed (and digested, inside `pack`) once, when it is
    // first served; a class shipped again after an eviction is not.
    let code_s = (packs.mean() * digests.len() as f64
        + img.digest_us.sum()
        + img.verify_us.sum()
        + img.link_trusted_us.mean() * fetches as f64)
        / 1e6;
    let share = |s: f64| ratio(s, op_time_s);

    let values = vec![
        ("syntax.parse_ms", fe.parse_ms),
        ("types.check_ms", fe.check_ms),
        ("compile.compile_ms", fe.compile_ms),
        ("compile.instrs", fe.instrs as f64),
        ("verify.program_ms", fe.verify_ms),
        ("wire.pack_us_p50", packs.median()),
        ("wire.link_us_p50", img.link_us.median()),
        ("wire.link_trusted_us_p50", img.link_trusted_us.median()),
        ("wire.image_bytes_p50", img.bytes.median()),
        ("digest.mb_per_s", img.digest_mb_per_s),
        ("verify.image_us_p50", img.verify_us.median()),
        ("verify.image_us_p99", img.verify_us.high()),
        (
            "codecache.hit_ratio",
            ratio(client.cache.hits as f64, fetches as f64),
        ),
        ("codecache.insertions", client.cache.insertions as f64),
        ("codecache.evictions", client.cache.evictions as f64),
        ("codecache.dedup_sends", server.cache.dedup_sends as f64),
        ("codecache.bytes_saved", server.cache.bytes_saved as f64),
        ("codec.encode_ns_per_frame", codec.encode_ns_per_frame),
        ("codec.decode_ns_per_frame", codec.decode_ns_per_frame),
        ("codec.frame_bytes_mean", codec.frame_bytes_mean),
        ("transport.frames_per_op", per_op(frames)),
        (
            "transport.bytes_per_frame",
            ratio(wire_bytes as f64, frames as f64),
        ),
        ("transport.wire_bytes_per_op", per_op(wire_bytes)),
        (
            "transport.outq_hwm",
            client.wire.outq_hwm.max(server.wire.outq_hwm) as f64,
        ),
        (
            "transport.flush_stalls",
            r.sum(|x| x.wire.flush_stalls) as f64,
        ),
        ("transport.dropped", r.sum(|x| x.wire.dropped) as f64),
        ("transport.reconnects", r.sum(|x| x.wire.reconnects) as f64),
        ("transport.heartbeats", heartbeats as f64),
        (
            "tap.frames_per_read",
            ratio(
                logs.iter().map(|l| l.frames).sum::<u64>() as f64,
                logs.iter().map(|l| l.reads).sum::<u64>() as f64,
            ),
        ),
        ("sched.slices_per_op", per_op(r.sum(|x| x.sched.slices))),
        ("sched.parks_per_op", per_op(r.sum(|x| x.sched.parks))),
        ("sched.unparks_per_op", per_op(r.sum(|x| x.sched.unparks))),
        ("sched.injector_per_op", per_op(r.sum(|x| x.sched.injector))),
        (
            "sched.max_ready_depth",
            client
                .sched
                .max_ready_depth
                .max(server.sched.max_ready_depth) as f64,
        ),
        ("sched.steals", r.sum(|x| x.sched.steals) as f64),
        (
            "daemon.fabric_packets_per_op",
            per_op(r.sum(|x| x.fabric_packets)),
        ),
        ("daemon.rejected", r.sum(|x| x.wire.rejected) as f64),
        ("machine.instrs_per_op", per_op(total_instrs)),
        (
            "machine.threads_per_op",
            per_op(r.sum(|x| x.site_sum(|s| s.threads))),
        ),
        ("machine.instrs_per_s", instrs_per_s),
        ("machine.ic_hit_ratio", ratio(ic_hits as f64, ic_all as f64)),
        ("machine.gcs", r.sum(|x| x.site_sum(|s| s.gcs)) as f64),
        (
            "machine.chans_allocated",
            r.sum(|x| x.site_sum(|s| s.chans_allocated)) as f64,
        ),
        ("nameservice.imports", r.sum(|x| x.ns_imports) as f64),
        ("nameservice.import_rtt_us_p50", import_rtt.median()),
        ("cluster.null_run_ms", null_s * 1e3),
        ("tap.server_turn_us_p50", server_turn.median()),
        ("tap.server_turn_us_p99", server_turn.high()),
        ("tap.client_turn_us_p50", client_turn.median()),
        ("tap.client_turn_us_p99", client_turn.high()),
        ("tap.samples", spans().count() as f64),
        (
            "tap.unmatched",
            logs.iter()
                .map(|l| l.matcher.unmatched + l.matcher.outstanding() as u64)
                .sum::<u64>() as f64,
        ),
        ("tap.coverage", coverage),
        ("tap.overhead_ratio", ratio(traced_s, plain_s)),
        ("budget.vm_share", share(vm_s)),
        ("budget.codec_share", share(codec_s)),
        ("budget.code_share", share(code_s)),
        (
            "budget.runtime_residual_share",
            1.0 - share(vm_s) - share(codec_s) - share(code_s),
        ),
    ];
    Ok(Outcome::new(plain.iter().chain(&tapped), values))
}

fn write_spans(path: &Path, log: &TapLog) -> Result<(), String> {
    let mut text = String::from("op,kind,what,start_ns,end_ns\n");
    for s in &log.matcher.spans {
        text.push_str(&format!(
            "{},{:?},{:?},{},{}\n",
            s.op, s.kind, s.what, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

// -- command line --------------------------------------------------------------

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
        None => Ok(None),
    }
}

fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| v.parse().map_err(|_| format!("{name}: bad value `{v}`")))
        .transpose()
}

/// Run this program again on one workload and return its result line.
///
/// Every measurement of the all-workloads mode is a fresh process — the
/// same one `BENCHMARK.json`'s command starts — so its numbers are the
/// driver's numbers. (It matters: a child's `ru_maxrss` starts from the
/// memory of the process that spawned it, and a harness that has held a
/// traced run's frames is bigger than the `ditico` it spawns.)
fn run_self(args: &[String], workload: &str, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .args(["--workload", workload, "--trace", &trace.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-run the harness: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} --trace {trace}: the harness failed"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().unwrap_or_default())
}

fn print_metrics(result: &Json) {
    for (name, m) in result.get("metrics").map(Json::obj).unwrap_or_default() {
        let value = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::str).unwrap_or_default();
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let nproc = proc::cpus_allowed();
    let cpu = proc::pin_to_one_cpu().map_err(|e| {
        // An unpinned run measures the hypervisor's cross-CPU wake-ups,
        // not DiTyCO: refuse to produce numbers.
        format!("unpinned: true — cannot pin to one CPU ({e})")
    })?;
    let mut ctx = Ctx {
        ditico: flag(args, "--ditico")?
            .ok_or("--ditico BIN is required")?
            .into(),
        work: flag(args, "--work")?
            .ok_or("--work DIR is required")?
            .into(),
        sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
        seed: num_flag(args, "--seed")?.ok_or("--seed N is required")?,
        runs: 0,
        wrong_oracle: false,
    };
    let contract = Json::parse(BENCHMARK_JSON)?;
    let run_seconds = contract
        .get("run_seconds")
        .and_then(Json::num)
        .unwrap_or(10.0);
    // A smoke run is one pass of everything, however short.
    let seconds = match num_flag(args, "--seconds")? {
        Some(s) => s,
        None if smoke => 0.0,
        None => run_seconds,
    };
    if let Some(name) = flag(args, "--workload")? {
        let line = match num_flag::<u8>(args, "--trace")?.unwrap_or(0) {
            0 => measure_end_to_end(&mut ctx, name, seconds)?.result_line("end_to_end")?,
            _ => measure_layers(&mut ctx, name, seconds)?.result_line("per_layer")?,
        };
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    // Every workload, untraced then traced.
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let stamp = obj([
        (
            "git_rev",
            Json::Str(flag(args, "--git-rev")?.unwrap_or("unknown").into()),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::Str(kernel.trim().into())),
        ("pinned_cpu", Json::Num(cpu as f64)),
        ("unpinned", Json::Bool(false)),
        ("seed", Json::Num(ctx.seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("seconds", Json::Num(seconds)),
        ("hb_ms", Json::Num(HB_MS as f64)),
        ("link", Json::Str("loopback TCP, one CPU".into())),
    ]);
    println!("stamp {}", stamp.to_line());
    let mut docs = Vec::new();
    let mut failed = 0.0;
    for name in gen::WORKLOADS {
        let e2e = run_self(args, name, 0)?;
        let traced = run_self(args, name, 1)?;
        let count = |k: &str| [&e2e, &traced].map(|r| r.get(k).and_then(Json::num).unwrap_or(0.0));
        let ([a0, a1], [f0, f1]) = (count("attempted"), count("failed"));
        println!(
            "\n== {name}: {} ops attempted, {} failed (failed_op_ratio {})",
            a0 + a1,
            f0 + f1,
            (f0 + f1) / (a0 + a1)
        );
        println!(" end to end (tracing off, best run)");
        print_metrics(&e2e);
        println!(" per layer (counters, wire tap, isolated timing)");
        print_metrics(&traced);
        failed += f0 + f1;
        let metrics = |r: &Json| r.get("metrics").cloned().unwrap_or(Json::Null);
        docs.push(obj([
            ("name", Json::Str(name.into())),
            ("attempted", Json::Num(a0 + a1)),
            ("failed", Json::Num(f0 + f1)),
            ("end_to_end", metrics(&e2e)),
            ("per_layer", metrics(&traced)),
        ]));
    }
    if smoke {
        // The oracle must be able to say no: a run held to a wrong
        // expected value has to come back unverified.
        eprintln!("oracle self-test: the next run is expected to be refused");
        ctx.wrong_oracle = true;
        if run_round(&mut ctx, "rpc_seq", false, false)?
            .failures
            .is_empty()
        {
            return Err("oracle self-test: a wrong expected value was accepted".into());
        }
    }
    let doc = obj([("stamp", stamp), ("workloads", Json::Arr(docs))]).to_line();
    // What was written must read back: the smoke run's well-formedness check.
    Json::parse(&doc)?;
    if let Some(out) = flag(args, "--out")? {
        std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("{out}: {e}"))?;
    }
    println!("\n{doc}");
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `setup_s` readings this close together differ by the scheduling noise
/// of a few process spawns, whatever share of 6 ms that is.
const SETUP_FLOOR_S: f64 = 0.05;

/// `compare` holds a metric to this bound when `BENCHMARK.json`'s is
/// wider. The contract's bound must never fire on identical code, whatever
/// phase the box is in when a single measurement is taken (ten-seed
/// spreads of 14–16 % were seen), so it is 25 % on the time-based metrics.
/// `compare` can afford the quiet-phase figure: given several runs a side
/// it sees a noisy phase for what it is and says UNRESOLVED.
const COMPARE_BOUND: f64 = 0.10;

/// `compare` also gates this per-layer metric (the contract gives those
/// no bound of their own) on the workloads that use the wire: the byte
/// count repeats exactly for a seed, so any growth is the code's.
const WIRE_BYTES: &str = "transport.wire_bytes_per_op";
const WIRE_BYTES_BOUND: f64 = 0.01;

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Breach,
    Unresolved,
}

/// One metric on one workload, side B's runs against side A's.
struct Judged {
    a: f64,
    b: f64,
    /// How much worse B's median is than A's, as a share of A's.
    worse: f64,
    /// Range of A's own runs over their median.
    spread: f64,
    verdict: Verdict,
}

/// A metric on which A's own runs spread by more than the bound is
/// unresolved — the box was in a noisy phase; measure again — unless
/// every run of B reads better than every run of A.
fn judge(d: &MetricDef, va: &[f64], vb: &[f64]) -> Judged {
    let (a, b) = (median(va), median(vb));
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let (worse, b_wins_every_pair) = if d.lower_is_better {
        ((b - a) / a, max(vb) < min(va))
    } else {
        ((a - b) / a, min(vb) > max(va))
    };
    let spread = (max(va) - min(va)) / a;
    let setup_noise =
        d.name == "setup_s" && max(va).max(max(vb)) - min(va).min(min(vb)) <= SETUP_FLOOR_S;
    let verdict = if setup_noise {
        Verdict::Within
    } else if spread > d.bound && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse > d.bound {
        Verdict::Breach
    } else {
        Verdict::Within
    };
    Judged {
        a,
        b,
        worse,
        spread,
        verdict,
    }
}

/// `compare A.json… [-- B.json…]`: side B (the change) against side A (the
/// parent), one or more full runs a side, per workload and gated metric.
/// Exit 1 on a breach, 3 if nothing worse than unresolved, else 0.
fn compare(files: &[String]) -> Result<ExitCode, String> {
    let mut sides = files.split(|f| f == "--");
    let (a_files, b_files) = match (sides.next(), sides.next(), sides.next()) {
        (Some([a, b]), None, _) => (std::slice::from_ref(a), std::slice::from_ref(b)),
        (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => (a, b),
        _ => return Err("usage: e2e compare A.json B.json | A.json… -- B.json…".into()),
    };
    // Per side, the workload entries of every file.
    let load = |files: &[String]| -> Result<Vec<Json>, String> {
        let mut entries = Vec::new();
        for p in files {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let doc = Json::parse(text.trim()).map_err(|e| format!("{p}: {e}"))?;
            entries.extend(
                doc.get("workloads")
                    .map(Json::arr)
                    .unwrap_or_default()
                    .to_vec(),
            );
        }
        Ok(entries)
    };
    let (a, b) = (load(a_files)?, load(b_files)?);
    let name_of = |w: &Json| {
        w.get("name")
            .and_then(Json::str)
            .unwrap_or_default()
            .to_string()
    };
    let mut gated: Vec<(&str, MetricDef)> = metric_defs("end_to_end")
        .into_iter()
        .map(|mut d| {
            d.bound = d.bound.min(COMPARE_BOUND);
            ("end_to_end", d)
        })
        .collect();
    gated.push((
        "per_layer",
        MetricDef {
            name: WIRE_BYTES.into(),
            unit: "B/op".into(),
            lower_is_better: true,
            bound: WIRE_BYTES_BOUND,
        },
    ));
    let (mut breaches, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>6} {:>9}",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound", "A spread"
    );
    for name in gen::WORKLOADS {
        let values = |side: &[Json], section: &str, metric: &str| -> Result<Vec<f64>, String> {
            side.iter()
                .filter(|w| name_of(w) == name)
                .map(|w| {
                    w.get(section)
                        .and_then(|s| s.get(metric))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::num)
                        .ok_or_else(|| format!("a `{name}` entry lacks metric `{metric}`"))
                })
                .collect()
        };
        for (section, d) in &gated {
            let (va, vb) = (values(&a, section, &d.name)?, values(&b, section, &d.name)?);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("a side has no workload `{name}`"));
            }
            // No wire, no bytes: `local_churn`.
            if va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue;
            }
            let j = judge(d, &va, &vb);
            match j.verdict {
                Verdict::Within => {}
                Verdict::Breach => breaches += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            println!(
                "{name:<14} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>5.0}% {:>8.2}%  {:?}",
                d.name,
                j.a,
                j.b,
                j.worse * 100.0,
                d.bound * 100.0,
                j.spread * 100.0,
                j.verdict
            );
        }
        let failed = |side: &[Json]| -> f64 {
            side.iter()
                .filter(|w| name_of(w) == name)
                .map(|w| w.get("failed").and_then(Json::num).unwrap_or(0.0))
                .sum()
        };
        if failed(&b) > failed(&a) {
            breaches += 1;
            println!(
                "{name:<14} failed ops rose from {} to {}  BREACH",
                failed(&a),
                failed(&b)
            );
        }
    }
    Ok(match (breaches, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_contract_requires() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(names, gen::WORKLOADS);
        let e2e = metric_defs("end_to_end");
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
        assert!(e2e.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup_bound = e2e.iter().find(|d| d.name == "setup_s").unwrap().bound;
        assert!(e2e.iter().all(|d| d.bound <= setup_bound));
        assert!(metric_defs("per_layer").len() <= 128);
    }

    #[test]
    fn compare_tells_a_breach_from_a_noisy_parent() {
        let def = |name: &str, lower| MetricDef {
            name: name.into(),
            unit: String::new(),
            lower_is_better: lower,
            bound: 0.1,
        };
        let time = def("makespan_s", true);
        assert_eq!(judge(&time, &[1.0], &[1.09]).verdict, Verdict::Within);
        assert_eq!(judge(&time, &[1.0], &[1.2]).verdict, Verdict::Breach);
        // Medians 1.01 and 1.2 over quiet parent runs: a breach.
        assert_eq!(
            judge(&time, &[1.0, 1.01, 1.02], &[1.19, 1.2, 1.21]).verdict,
            Verdict::Breach
        );
        // The parent's own runs differ by 30 %: nothing can be said …
        assert_eq!(
            judge(&time, &[1.0, 1.3], &[1.1, 1.2]).verdict,
            Verdict::Unresolved
        );
        // … unless the change wins every pair.
        assert_eq!(
            judge(&time, &[1.0, 1.3], &[0.8, 0.9]).verdict,
            Verdict::Within
        );
        let rate = def("ops_per_s", false);
        assert_eq!(judge(&rate, &[100.0], &[85.0]).verdict, Verdict::Breach);
        assert_eq!(judge(&rate, &[100.0], &[120.0]).verdict, Verdict::Within);
        // A few process spawns more or less are not a set-up regression.
        let setup = def("setup_s", true);
        assert_eq!(judge(&setup, &[0.006], &[0.009]).verdict, Verdict::Within);
        assert_eq!(
            judge(&setup, &[0.006, 0.008], &[0.007]).verdict,
            Verdict::Within
        );
        assert_eq!(judge(&setup, &[0.6], &[0.9]).verdict, Verdict::Breach);
    }

    #[test]
    fn undeclared_or_missing_metrics_are_refused() {
        let mut values: Values = metric_defs("end_to_end")
            .iter()
            .map(|d| {
                (
                    Box::leak(d.name.clone().into_boxed_str()) as &'static str,
                    1.5,
                )
            })
            .collect();
        assert!(metrics_json("end_to_end", &values).is_ok());
        values.push(("made_up", 1.0));
        assert!(metrics_json("end_to_end", &values)
            .unwrap_err()
            .contains("made_up"));
        values.truncate(2);
        assert!(metrics_json("end_to_end", &values)
            .unwrap_err()
            .contains("not measured"));
    }
}
