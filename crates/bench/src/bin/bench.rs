//! `bench <scenario>|all [--smoke]` — see the `ditico_bench` crate docs.
//!
//! Without `--smoke` it re-records `BENCH_<scenario>.json` at the repo
//! root for every scenario picked (after all of them finished); with it,
//! it writes nothing and exits non-zero unless every smoke point
//! reproduces the committed record.

use std::process::{Command, ExitCode};
use std::time::Instant;

use ditico_bench::json::Json;
use ditico_bench::{bench_path, check_smoke, render, Scenario, SCENARIOS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let operands: Vec<&String> = args.iter().filter(|a| *a != "--smoke").collect();
    let picked: Vec<&Scenario> = match operands[..] {
        [which] => SCENARIOS
            .iter()
            .filter(|s| which == "all" || s.name == which)
            .collect(),
        _ => Vec::new(),
    };
    if picked.is_empty() {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        eprintln!("usage: bench <{}>|all [--smoke]", names.join("|"));
        return ExitCode::from(2);
    }
    if smoke {
        let failed = picked.iter().filter(|s| !smoke_one(s)).count();
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let git_rev = git_rev();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut records = Vec::new();
    for s in picked {
        let start = Instant::now();
        let points = (s.run)(false);
        eprintln!(
            "{}: {} points in {:.1}s",
            s.name,
            points.len(),
            start.elapsed().as_secs_f64()
        );
        if !points.is_empty() {
            records.push((bench_path(s.name), render(s, &git_rev, cores, &points)));
        }
    }
    for (path, text) in records {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("recorded {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Run one scenario's smoke points and check them against its record.
fn smoke_one(s: &Scenario) -> bool {
    let start = Instant::now();
    let points = (s.run)(true);
    let path = bench_path(s.name);
    // `paper` records nothing; its assertions are its gate.
    let verdict = if points.is_empty() && !path.exists() {
        Ok(())
    } else {
        std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text))
            .and_then(|committed| check_smoke(&committed, &points))
    };
    let secs = start.elapsed().as_secs_f64();
    match verdict {
        Ok(()) => {
            println!("{}: ok, {} smoke points ({secs:.2}s)", s.name, points.len());
            true
        }
        Err(e) => {
            eprintln!("{}: FAILED: {e}", s.name);
            false
        }
    }
}

/// The commit the record was taken on, `-dirty` if the tree had changes.
fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
