//! End-to-end tests of the `ditico` command-line tool: compile → image →
//! run → disassemble → network files, through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn ditico() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ditico"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ditico-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write");
    p
}

const CELL: &str = r#"
def Cell(self, v) =
    self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print(w)))
"#;

#[test]
fn check_run_compile_roundtrip() {
    let dir = tmpdir("roundtrip");
    let src = write(&dir, "cell.dity", CELL);

    let out = ditico().arg("check").arg(&src).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok ("));

    let out = ditico().arg("run").arg(&src).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "9");

    let img = dir.join("cell.tyco");
    let out = ditico()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            img.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(img.exists());

    // The image runs identically.
    let out = ditico().arg("run").arg(&img).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "9");

    // And disassembles to assembly mentioning the class blocks.
    let out = ditico().arg("disasm").arg(&img).output().unwrap();
    assert!(out.status.success());
    let asm = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(asm.contains(".entry"), "{asm}");
    assert!(asm.contains("trmsg read"), "{asm}");
}

#[test]
fn asm_output_reassembles() {
    let dir = tmpdir("asm");
    let src = write(&dir, "p.dity", "print(40 + 2)");
    let out = ditico().arg("asm").arg(&src).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let prog = tyco_vm::parse_asm(&text).expect("asm output reassembles");
    let mut m = tyco_vm::Machine::new(prog, tyco_vm::LoopbackPort::new("main"));
    m.run_to_quiescence(10_000).unwrap();
    assert_eq!(m.io, vec!["42".to_string()]);
}

#[test]
fn net_spec_runs_two_sites() {
    let dir = tmpdir("net");
    write(
        &dir,
        "server.dity",
        "def S(p) = p?{ val(x, r) = r![x + 1] | S[p] } in export new p in S[p]",
    );
    write(
        &dir,
        "client.dity",
        "import p from server in let y = p!val[41] in print(y)",
    );
    let spec = write(
        &dir,
        "demo.net",
        "# demo\ntopology nodes=2 fabric=virtual link=myrinet\nsite server server.dity\nsite client client.dity\n",
    );
    let out = ditico().arg("net").arg(&spec).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[client] 42"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fabric packets"), "{stderr}");
}

#[test]
fn type_errors_fail_with_message() {
    let dir = tmpdir("typeerr");
    let src = write(&dir, "bad.dity", "new x (x![1] | x![true])");
    let out = ditico().arg("check").arg(&src).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("type error"), "{stderr}");
}

#[test]
fn check_gates_fail_the_build() {
    let dir = tmpdir("gates");

    // A well-typed program with an orphan message: `check` alone passes,
    // `--lint` must exit nonzero so CI can gate on it.
    let orphan = write(&dir, "orphan.dity", "new x (x!go[1] | print(0))");
    let out = ditico().arg("check").arg(&orphan).output().unwrap();
    assert!(out.status.success(), "plain check passes");
    let out = ditico()
        .args(["check", orphan.to_str().unwrap(), "--lint"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "lint findings must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("liveness"), "{stderr}");

    // A dead method: `--lint` names the finding and its position.
    let dead = write(
        &dir,
        "dead.dity",
        "new x (x!go[1] | x?{ go(n) = print(n), dbg(n) = print(n) })",
    );
    let out = ditico()
        .args(["check", dead.to_str().unwrap(), "--lint"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "findings must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("dead.dity:1:40: unreachable-method: `x.dbg`"),
        "{stdout}"
    );

    // A clean program passes every gate, with an empty findings array.
    let clean = write(
        &dir,
        "clean.dity",
        "new x (x!go[1] | x?{ go(n) = print(n) })",
    );
    let out = ditico()
        .args([
            "check",
            clean.to_str().unwrap(),
            "--verify",
            "--lint",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        format!("{{\"file\":\"{}\",\"findings\":[]}}\n", clean.display())
    );
}

#[test]
fn lint_json_serializes_every_finding() {
    // One JSON document holds the binder finding and the label finding,
    // each with its position; the exit status still gates.
    let dir = tmpdir("lintjson");
    let orphan = write(&dir, "orphan.dity", "new x (x!go[1] | print(0))");
    let out = ditico()
        .args(["check", orphan.to_str().unwrap(), "--lint", "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        format!(
            "{{\"file\":\"{}\",\"findings\":[\
             {{\"kind\":\"orphan-message\",\"subject\":\"x\",\"detail\":\"messages can never \
             be received: no object listens on it and it never escapes\",\"line\":1,\"col\":1}},\
             {{\"kind\":\"orphan-send\",\"subject\":\"go\",\"detail\":\"no live object defines \
             the label\",\"line\":1,\"col\":8}}]}}\n",
            orphan.display()
        )
    );
}

#[test]
fn unknown_command_and_usage() {
    let out = ditico().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = ditico().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

/// A reader that leaves early (`ditico check f --verify | head -1`) ends
/// `ditico` quietly, with the status of a process killed by `SIGPIPE`:
/// no panic text, and not the 101 of a panic.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let dir = tmpdir("closed-stdout");
    let src = write(&dir, "cell.dity", CELL);
    for args in [&["check", "--verify"][..], &["run"], &["help"]] {
        // The pipe's only reader is gone before the child starts.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let mut cmd = ditico();
        cmd.arg(args[0]);
        if args[0] != "help" {
            cmd.arg(&src);
        }
        let out = cmd.args(&args[1..]).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // The retired flags are spelled in halves so a tree-wide grep for
    // them stays empty; to the CLI they are just unknown flags now.
    let retired_io = concat!("--io-", "threads");
    let retired_ns = concat!("--ns-", "central");
    let retired_shake = concat!("--sha", "ke");
    let retired_optimize = concat!("--opti", "mize");
    let retired_unchecked = concat!("--unche", "cked");
    let retired_analyze = concat!("--anal", "yze");
    let retired_shards = concat!("--ns-", "shards");
    let help = ditico().arg("help").output().unwrap();
    let help = String::from_utf8_lossy(&help.stdout);
    for flag in [
        retired_io,
        retired_ns,
        retired_shake,
        retired_optimize,
        retired_unchecked,
        retired_analyze,
        retired_shards,
    ] {
        assert!(!help.contains(flag), "usage text still names {flag}");
    }
    for (cmd, flag) in [
        ("net", "--io-threadz"),
        ("net", retired_io),
        ("serve", retired_io),
        ("net", retired_ns),
        ("run", retired_shake),
        ("run", retired_unchecked),
        ("net", retired_shake),
        ("serve", retired_shake),
        ("compile", retired_shake),
        ("compile", retired_optimize),
        ("check", "--verifi"),
        ("check", retired_analyze),
        ("run", "--threaded"),
        ("net", retired_shards),
        ("serve", retired_shards),
    ] {
        let out = ditico().args([cmd, "nowhere.net", flag]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd} {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("ditico: unknown flag `{flag}`")),
            "{cmd} {flag}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "one line: {err}");
    }
    // A value that looks like a flag is still a value.
    let out = ditico()
        .args(["net", "nowhere.net", "--wall", "-1"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("unknown flag"), "{err}");
}

/// The spec's `replicas=K` is the name-service ring and `--ns-lease-ms`
/// turns lease caching on by itself: an import from the ring's second
/// node misses its node cache and is granted a lease.
#[test]
fn ns_lease_ms_turns_on_leases_on_the_specs_ring() {
    let dir = tmpdir("nslease");
    write(
        &dir,
        "server.dity",
        "def S(p) = p?{ val(x, r) = r![x + 1] | S[p] } in export new p in S[p]",
    );
    write(
        &dir,
        "client.dity",
        "import p from server in let y = p!val[41] in print(y)",
    );
    let spec = write(
        &dir,
        "ring.net",
        "topology nodes=2 link=myrinet replicas=2\nsite server server.dity\nsite client client.dity\n",
    );
    let misses = |extra: &[&str]| {
        let out = ditico()
            .arg("net")
            .arg(&spec)
            .arg("--stats")
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("[client] 42"),
            "{stderr}"
        );
        let line = stderr
            .lines()
            .find(|l| l.starts_with("name service:"))
            .unwrap_or_else(|| panic!("no name-service line: {stderr}"));
        let tail = line.split(" lease hits / ").nth(1).expect("lease counts");
        tail.split(' ').next().unwrap().parse::<u64>().unwrap()
    };
    assert_eq!(misses(&[]), 0, "no lease without --ns-lease-ms");
    assert!(
        misses(&["--ns-lease-ms", "50"]) > 0,
        "leases on by themselves"
    );
}

/// A dialer that spends its retry budget says which peer it gave up on,
/// after how many attempts, and the last error: here the OS refusal of a
/// port nobody listens on.
#[test]
fn a_dialer_that_gives_up_names_its_last_error() {
    let dir = tmpdir("gaveup");
    write(&dir, "a.dity", "print(1)");
    write(&dir, "b.dity", "print(2)");
    let spec = write(
        &dir,
        "two.net",
        "topology nodes=2\nsite a a.dity node=0\nsite b b.dity node=1\n",
    );
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    // This host's own words for the refusal the dialer will meet.
    let refused = std::net::TcpStream::connect(addr).unwrap_err();
    let peer = addr.to_string();
    let out = ditico()
        .arg("net")
        .arg(&spec)
        .args(["--node", "0", "--peers", &peer, "--retries", "1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let gave_up: Vec<&str> = stderr.lines().filter(|l| l.contains("gave up")).collect();
    assert_eq!(
        gave_up,
        [format!("dial {addr}: gave up after 2 attempts: {refused}")],
        "{stderr}"
    );
    assert!(refused.raw_os_error().is_some(), "{refused}");
}

/// Run `ditico` with `args` and return its exit code and stderr.
fn refusal(args: &[&str]) -> (Option<i32>, String) {
    let out = ditico().args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The link decides delivery: a wall-clock run over a link that takes
/// time is refused before it starts, and the `fabric=` key older specs
/// write still parses (and is still checked) but selects nothing.
#[test]
fn the_link_decides_delivery() {
    let dir = tmpdir("link");
    write(&dir, "a.dity", "println(\"hi\")");
    let spec = |name: &str, topology: &str| {
        let p = write(
            &dir,
            name,
            &format!("topology {topology}\nsite a a.dity node=0\n"),
        );
        p.to_str().unwrap().to_string()
    };
    let myrinet = spec("myrinet.net", "nodes=1 link=myrinet");
    let listen = ["--node", "0", "--listen", "127.0.0.1:0"];
    for args in [
        vec!["net", &myrinet, "--threaded"],
        [&["serve", &myrinet][..], &listen].concat(),
        [&["net", &myrinet][..], &listen].concat(),
    ] {
        let (code, err) = refusal(&args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("ditico: ") && err.contains("link=ideal"),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "one line: {err}");
    }
    // Deterministically, the same spec runs.
    let out = ditico().args(["net", &myrinet]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for fabric in ["ideal", "virtual"] {
        let ideal = spec(
            &format!("{fabric}.net"),
            &format!("nodes=1 fabric={fabric} link=ideal"),
        );
        for threaded in [false, true] {
            let mut cmd = ditico();
            cmd.args(["net", &ideal]);
            if threaded {
                cmd.arg("--threaded");
            }
            let out = cmd.output().unwrap();
            assert!(
                out.status.success(),
                "fabric={fabric} threaded={threaded}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(String::from_utf8_lossy(&out.stdout), "[a] hi\n");
        }
    }
    let bogus = spec("bogus.net", "nodes=1 fabric=bogus link=ideal");
    let (code, err) = refusal(&["net", &bogus]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.ends_with(":1: bad fabric `bogus`\n"), "{err}");
}

/// Numeric flags are refused, never wrapped: a value that does not fit
/// its field, and chaos rates whose sum would overflow one (a wrapped sum
/// used to pass validation and inject nothing).
#[test]
fn out_of_range_numeric_flags_are_refused() {
    let rpc = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dity/rpc.net");
    let listen = [rpc, "--node", "0", "--listen", "127.0.0.1:0"];
    for (args, expect) in [
        (
            vec!["net", rpc, "--chaos-drop", "4294967295", "--chaos-dup", "1"],
            "ditico: chaos plan: chaos fault rates sum to 4294967296‰",
        ),
        (
            vec!["net", rpc, "--chaos-delay", "4294967296"],
            "ditico: --chaos-delay: number too large",
        ),
        (
            [&["net"][..], &listen, &["--retries", "4294967296"]].concat(),
            "ditico: --retries: number too large",
        ),
    ] {
        let (code, err) = refusal(&args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.starts_with(expect), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "one line: {err}");
    }
}

#[test]
fn shell_subcommand_batch() {
    use std::io::Write as _;
    let mut child = ditico()
        .arg("shell")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"site m println(\"from shell\")\nrun\noutput m\nexit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("from shell"));
}

/// `def K0() = 0 and … and K{n-1}() = 0 in 0`
fn def_group(n: usize) -> String {
    let classes: Vec<String> = (0..n).map(|i| format!("K{i}() = 0")).collect();
    format!("def {} in 0", classes.join(" and "))
}

/// Malformed sources, each with the exact stderr and exit code of
/// `ditico check <name>.dity`: lex errors, parse errors at several
/// positions, type errors and compile limits, so that a front-end rewrite
/// cannot change a message, a position, or which of two errors wins.
fn golden_diagnostics() -> Vec<(&'static str, String, &'static str, i32)> {
    let deep = format!("{}0{}", "(".repeat(5000), ")".repeat(5000));
    let wide = format!("print({})", vec!["1"; 256].join(","));
    vec![
        // Lex errors.
        ("bad_char", "new x x![1] # 2".into(), "parse error: parse error at 1:14: unexpected character `#`", 1),
        ("open_string", "println(\"abc".into(), "parse error: parse error at 1:13: unterminated string literal", 1),
        (
            "int_overflow",
            "print(99999999999999999999)".into(),
            "parse error: parse error at 1:27: bad int literal: number too large to fit in target type",
            1,
        ),
        (
            "open_comment",
            "print(1) /* never closed".into(),
            "parse error: parse error at 1:25: unterminated block comment",
            1,
        ),
        ("bad_escape", "print(\"a\\q\")".into(), "parse error: parse error at 1:11: unknown escape `\\q`", 1),
        ("lone_amp", "print(true & false)".into(), "parse error: parse error at 1:13: expected `&&`", 1),
        // Parse errors.
        (
            "new_no_name",
            "new".into(),
            "parse error: parse error at 1:4: expected at least one name after `new`, found end of input",
            1,
        ),
        (
            "msg_no_label",
            "new x x!".into(),
            "parse error: parse error at 1:9: expected method label, found end of input",
            1,
        ),
        (
            "def_no_in",
            "def X(a) = 0".into(),
            "parse error: parse error at 1:13: expected `in`, found end of input",
            1,
        ),
        (
            "obj_no_brace",
            "new x x?{ go(a) = 0".into(),
            "parse error: parse error at 1:20: expected `}`, found end of input",
            1,
        ),
        ("trailing", "0 0".into(), "parse error: parse error at 1:3: expected end of input, found integer `0`", 1),
        (
            "multiline",
            "new x (\n  x![1]\n  | x?(y) = \n)".into(),
            "parse error: parse error at 4:1: expected a process, found `)`",
            1,
        ),
        (
            "export_what",
            "export x".into(),
            "parse error: parse error at 1:8: expected `new` or `def` after `export`, found identifier `x`",
            1,
        ),
        ("deep", deep, "parse error: parse error at 1:4097: nesting too deep (more than 4096 levels)", 1),
        // An early parse error and a later lex error: the lexer reads the
        // whole file before the parser starts, so the lex error wins.
        (
            "parse_then_lex",
            "new x (x![1] |) # oops".into(),
            "parse error: parse error at 1:18: unexpected character `#`",
            1,
        ),
        // Type errors.
        ("mismatch", "new x (x![1] | x![true])".into(), "type error: type mismatch: `int` vs `bool`", 1),
        (
            "class_arity",
            "def K(a) = 0 in K[1, 2]".into(),
            "type error: class `K` expects 1 argument(s) but got 2",
            1,
        ),
        (
            "method_arity",
            "new x (x!go[1, 2] | x?{ go(n) = 0 })".into(),
            "type error: method `go` expects 2 argument(s) but got 1",
            1,
        ),
        ("unbound_name", "x![1]".into(), "type error: unbound identifier `x`", 1),
        ("unbound_class", "K[1]".into(), "type error: unbound identifier `K`", 1),
        (
            "dup_method",
            "new x x?{ a() = 0, a() = 0 }".into(),
            "type error: type mismatch: `duplicate method `a`` vs `object`",
            1,
        ),
        (
            "occurs",
            "new x x![x]".into(),
            "type error: infinite type arising from `^{val(^{| 'r0}) | 'r2}`",
            1,
        ),
        (
            "missing_label",
            "new x (x!stop[] | x?{ go(n) = 0 })".into(),
            "type error: channel of type `^{go('t0)}` has no method `stop`",
            1,
        ),
        (
            "not_numeric",
            "print(\"a\" + \"b\")".into(),
            "type error: type mismatch: `string` vs `int or float`",
            1,
        ),
        // Patterns and def groups bind each name once.
        (
            "dup_params_def",
            "def X(a, a) = println(a) in X[1,2]".into(),
            "type error: type mismatch: `duplicate parameter `a`` vs `pattern`",
            1,
        ),
        (
            "dup_params_obj",
            "new x (x![1,2] | x?(a, a) = println(a))".into(),
            "type error: type mismatch: `duplicate parameter `a`` vs `pattern`",
            1,
        ),
        (
            "dup_classes",
            "def X(a) = println(1) and X(b) = println(2) in X[0]".into(),
            "type error: type mismatch: `duplicate class `X`` vs `def group`",
            1,
        ),
        // Compile limits.
        ("group_too_large", def_group(256), "compile error: def group too large (256 > 255)", 1),
        ("too_many_args", wide, "compile error: too many arguments (256 > 255)", 1),
    ]
}

#[test]
fn diagnostics_are_golden() {
    let dir = tmpdir("golden");
    for (name, src, message, code) in golden_diagnostics() {
        let file = format!("{name}.dity");
        write(&dir, &file, &src);
        let out = ditico()
            .args(["check", &file])
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(code), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("ditico: {file}: {message}\n"),
            "{name}"
        );
    }
}

/// The three shapes of source text that used to overflow the stack
/// (SIGABRT, exit 134), each `n` levels deep: brackets, nested `def`s and
/// a left-deep operator chain.
fn deep_sources(n: usize) -> [(&'static str, String); 3] {
    [
        ("parens", format!("{}0{}", "(".repeat(n), ")".repeat(n))),
        ("defs", format!("{}0", "def K(x) = 0 in ".repeat(n))),
        ("chain", format!("print(0{})", " + 1".repeat(n - 1))),
    ]
}

/// The parser's depth bound (`tyco_syntax::parser`'s `MAX_DEPTH`).
const MAX_DEPTH: usize = 4096;

#[test]
fn nesting_past_the_bound_is_a_positioned_diagnostic() {
    let dir = tmpdir("too-deep");
    // The bound itself and the sizes that used to abort the process.
    for n in [MAX_DEPTH, 100_000] {
        for (shape, src) in deep_sources(n) {
            let file = write(&dir, &format!("{shape}.dity"), &src);
            let spec = write(
                &dir,
                "one.net",
                &format!("topology nodes=1 fabric=ideal link=ideal\nsite a {shape}.dity\n"),
            );
            for (cmd, operand) in [
                ("check", &file),
                ("run", &file),
                ("compile", &file),
                ("net", &spec),
            ] {
                let out = ditico()
                    .arg(cmd)
                    .arg(operand)
                    .current_dir(&dir)
                    .output()
                    .unwrap();
                assert_eq!(out.status.code(), Some(1), "{cmd} {shape} {n}");
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(
                    err.contains("parse error at 1:") && err.contains("nesting too deep"),
                    "{cmd} {shape} {n}: {err}"
                );
            }
        }
    }
}

#[test]
fn nesting_just_inside_the_bound_compiles_verifies_and_runs() {
    let dir = tmpdir("deep");
    for (shape, src) in deep_sources(MAX_DEPTH - 1) {
        let file = write(&dir, &format!("{shape}.dity"), &src);
        let out = ditico()
            .args(["check", file.to_str().unwrap(), "--verify"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("byte-code image verifies"),
            "check {shape}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = ditico().arg("run").arg(&file).output().unwrap();
        assert!(
            out.status.success(),
            "run {shape}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let want = if shape == "chain" {
            (MAX_DEPTH - 2).to_string()
        } else {
            String::new()
        };
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), want, "{shape}");
    }
}

/// An applet server on one node: an exported class that two sites on the
/// other node fetch at once (coalesced), and an object it ships twice to
/// a third site (the second shipment digest-only).
const APPLET_SERVER: &str = r#"
export def Applet(v) = println("applet", v) in
def Shipped(p, d) = p?(v) = (println("shipped", v) | d![])
in def Srv(c) = c?{ applet(p, d) = (Shipped[p, d] | Srv[c]) }
in export new s in Srv[s]
"#;

const SHIP_TWICE_CLIENT: &str = r#"
import s from server in
new d1 (new p (s!applet[p, d1] | p![1]) |
d1?() = new d2 (new q (s!applet[q, d2] | q![2]) |
d2?() = println("done")))
"#;

/// The whole `--stats` report of two virtual-clock runs, byte for byte:
/// the summary, the code-cache (hits, coalesced fetches, dedup sends, a
/// duplicate fetch reply), name-service and chaos lines, and every
/// per-site block. `benchmark/src/report.rs` parses this text strictly,
/// so any change to it is a change to that parser's input.
#[test]
fn net_stats_report_is_golden() {
    let dir = tmpdir("stats-golden");
    write(&dir, "server.dity", APPLET_SERVER);
    write(
        &dir,
        "a.dity",
        "import Applet from server in Applet[1] | Applet[2]",
    );
    write(&dir, "b.dity", "import Applet from server in Applet[3]");
    write(&dir, "client.dity", SHIP_TWICE_CLIENT);
    let applet = write(
        &dir,
        "applet.net",
        "topology nodes=2 link=myrinet\nsite server server.dity node=0\n\
         site a a.dity node=1\nsite b b.dity node=1\nsite client client.dity node=1\n",
    );
    let rpc = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dity/rpc.net");
    let runs = [
        (
            rpc.as_ref(),
            &["--chaos-seed", "3", "--chaos-dup", "20"][..],
            include_str!("stats_rpc.golden"),
        ),
        (
            applet.as_os_str(),
            &[
                "--chaos-seed",
                "1",
                "--chaos-dup",
                "200",
                "--chaos-delay",
                "100",
            ][..],
            include_str!("stats_applet.golden"),
        ),
    ];
    for (spec, flags, want) in runs {
        let out = ditico()
            .arg("net")
            .arg(spec)
            .args(flags)
            .arg("--stats")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{spec:?}: {stderr}");
        assert_eq!(stderr, want, "{spec:?} {flags:?}");
    }
}
