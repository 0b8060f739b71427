//! The benchmark harness's strict `--stats` parser, fed by the real
//! binary: `benchmark/src/report.rs` (included as it is) must accept
//! the report of a threaded run and of both processes of a loopback
//! `serve` + `net` pair, scheduler and wire lines included. The parser
//! refuses any line it does not know, so none of these runs injects
//! chaos.

#[path = "../benchmark/src/report.rs"]
#[allow(dead_code)]
mod report;

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn ditico() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ditico"))
}

fn parsed(stderr: &[u8]) -> report::Report {
    let text = String::from_utf8_lossy(stderr);
    report::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"))
}

#[test]
fn a_threaded_report_parses_strictly() {
    let rpc = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dity/rpc.net");
    let out = ditico()
        .args(["net", rpc, "--threaded", "--workers", "2", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let r = parsed(&out.stderr);
    assert!(r.quiescent && r.problems.is_empty());
    assert_eq!(r.sched.workers, 2);
    assert!(r.sched.slices > 0);
    assert_eq!(r.ns_imports, 1);
    assert_eq!(r.sites.len(), 2);
}

#[test]
fn both_reports_of_a_loopback_pair_parse_strictly() {
    let dir = std::env::temp_dir().join(format!("ditico-parser-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let examples = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dity"));
    for file in ["rpc_server.dity", "rpc_client.dity"] {
        std::fs::copy(examples.join(file), dir.join(file)).unwrap();
    }
    let spec = dir.join("pair.net");
    std::fs::write(
        &spec,
        "topology nodes=2 link=ideal\nsite server rpc_server.dity node=0\n\
         site client rpc_client.dity node=1\n",
    )
    .unwrap();
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .port();
    let addr = format!("127.0.0.1:{port}");
    let spec = spec.to_str().unwrap();
    let server = ditico()
        .args(["serve", spec, "--node", "0", "--listen", &addr])
        .args(["--wall", "30", "--hb-ms", "25", "--stats"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let client = ditico()
        .args(["net", spec, "--node", "1", "--peers", &addr])
        .args(["--wall", "30", "--hb-ms", "25", "--stats"])
        .output()
        .unwrap();
    let server = server.wait_with_output().unwrap();
    assert!(client.status.success() && server.status.success());
    let (c, s) = (parsed(&client.stderr), parsed(&server.stderr));
    for r in [&c, &s] {
        assert!(r.quiescent && r.problems.is_empty());
        assert!(r.sched.workers > 0);
    }
    // The import and the call one way, their two replies the other.
    assert_eq!((c.wire.data_out, s.wire.data_in), (2, 2), "{c:?}\n{s:?}");
    assert_eq!((s.wire.data_out, c.wire.data_in), (2, 2), "{c:?}\n{s:?}");
    assert_eq!(s.ns_imports, 1);
    assert!(c.sites.contains_key("client") && s.sites.contains_key("server"));
}
