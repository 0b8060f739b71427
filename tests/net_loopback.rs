//! Multi-process cluster tests over loopback TCP, through the real
//! `ditico` binary: one `ditico serve` child hosting the server node and
//! the name service, one `ditico net --peers` client process fetching
//! code from it — first the happy path, then with the server killed
//! mid-run to check the survivor suspects it and terminates cleanly, and
//! with both processes stopped mid-run to check that nobody is. Three
//! processes check that a server waits for every client node of its
//! topology, and that a killed member is excluded from the verdict.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn ditico() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ditico"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ditico-net-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write");
    p
}

/// Reserve a free loopback port by binding port 0 and dropping the
/// listener (racy in principle, fine for tests).
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr")
        .port()
}

/// Wait for `child` to exit on its own, killing it (and panicking) if it
/// outlives `secs` — a hung process must fail the test, not wedge CI.
fn wait_bounded(child: &mut Child, secs: u64) -> ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st;
        }
        if t0.elapsed() > Duration::from_secs(secs) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child did not exit within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

const SPEC: &str = "topology nodes=2 fabric=ideal link=ideal\n\
                    site server server.dity node=0\n\
                    site client client.dity node=1\n";

const SERVER: &str = "export def Adder(x, r) = r![x + 40] in 0";

/// Both processes read the same spec; the client FETCHes `Adder`'s code
/// over the wire and instantiates it locally.
const CLIENT: &str = "import Adder from server in new r (Adder[2, r] | r?(y) = print(y))";

/// A client that also spins forever after printing, so the process stays
/// busy and can only exit when the failure detector declares the peer
/// dead (used by the kill test).
const CLIENT_SPIN: &str = "import Adder from server in \
                           def Loop(n) = Loop[n] in \
                           new r (Adder[2, r] | r?(y) = print(y) | Loop[0])";

#[test]
fn two_process_fetch_roundtrip() {
    let dir = tmpdir("roundtrip");
    write(&dir, "server.dity", SERVER);
    write(&dir, "client.dity", CLIENT);
    let spec = write(&dir, "cluster.net", SPEC);
    let addr = format!("127.0.0.1:{}", free_port());

    let mut server = ditico()
        .args(["serve", spec.to_str().unwrap(), "--node", "0"])
        .args(["--listen", &addr, "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The client dials with reconnect/backoff, so it need not wait for
    // the server's listener to come up.
    let client = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", &addr, "--wall", "60", "--hb-ms", "25"])
        .output()
        .expect("run client");
    let client_err = String::from_utf8_lossy(&client.stderr).to_string();
    assert!(client.status.success(), "{client_err}");
    assert_eq!(
        String::from_utf8_lossy(&client.stdout).trim(),
        "[client] 42",
        "{client_err}"
    );
    assert!(
        !client_err.contains("suspected dead nodes"),
        "clean run must not suspect anyone: {client_err}"
    );

    // Both processes end on the verdict.
    let st = wait_bounded(&mut server, 30);
    let out = server.wait_with_output().expect("server output");
    let server_err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(st.success(), "{server_err}");
    assert!(
        server_err.contains("data in"),
        "server should report wire traffic: {server_err}"
    );
    for err in [&client_err, &server_err] {
        assert!(!err.contains("limit hit"), "{err}");
        assert!(
            !err.contains("gave up"),
            "a dial that succeeds says nothing: {err}"
        );
    }
}

/// Spawn `ditico <args>` listening on port 0 and return it with the
/// address it announced once bound.
fn spawn_listening(args: &[&str]) -> (Child, String) {
    use std::io::BufRead as _;
    let mut child = ditico()
        .args(args)
        .args(["--listen", "127.0.0.1:0", "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn listener");
    let mut line = String::new();
    std::io::BufReader::new(child.stderr.as_mut().expect("piped stderr"))
        .read_line(&mut line)
        .expect("read announcement");
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|l| l.split(',').next())
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"));
    (child, addr.to_string())
}

const SPEC_TWO_CLIENTS: &str = "topology nodes=3 fabric=ideal link=ideal\n\
                                site server server.dity node=0\n\
                                site first client.dity node=1\n\
                                site second client.dity node=2\n";

/// The topology names two client nodes. The first client comes, gets its
/// reply and leaves (on its wall: its run cannot conclude while the
/// second's node has never reported); a second later the second comes,
/// and it must still find the server, which then ends with it on the
/// verdict. A server used to leave soon after its first client did.
#[test]
fn serve_waits_for_every_client_node_of_its_topology() {
    let dir = tmpdir("twoclients");
    write(&dir, "server.dity", SERVER);
    write(&dir, "client.dity", CLIENT);
    let spec = write(&dir, "cluster.net", SPEC_TWO_CLIENTS);
    let spec = spec.to_str().unwrap();
    let (mut server, addr) = spawn_listening(&["serve", spec, "--node", "0"]);

    let client = |node: &str, wall: &str| {
        let out = ditico()
            .args(["net", spec, "--node", node, "--peers", &addr])
            .args(["--wall", wall, "--hb-ms", "25"])
            .output()
            .expect("run client");
        let stdout = String::from_utf8_lossy(&out.stdout).trim().to_string();
        (stdout, String::from_utf8_lossy(&out.stderr).to_string())
    };
    let (first, _) = client("1", "2");
    assert_eq!(first, "[first] 42");
    std::thread::sleep(Duration::from_secs(1));
    let (second, second_err) = client("2", "60");
    assert_eq!(second, "[second] 42", "{second_err}");
    assert!(!second_err.contains("limit hit"), "{second_err}");

    let st = wait_bounded(&mut server, 30);
    let out = server.wait_with_output().expect("server output");
    let server_err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        st.success() && !server_err.contains("limit hit"),
        "{server_err}"
    );
}

const SPEC_SPINNER: &str = "topology nodes=3 fabric=ideal link=ideal\n\
                            site server server.dity node=0\n\
                            site client client.dity node=1\n\
                            site spinner spin.dity node=2\n";

/// Three processes; the third spins forever, so no wave can conclude
/// while it lives, and it is killed mid-run. Both survivors dial it: each
/// exhausts its redials, marks the node down for good and excludes it,
/// and they end on the verdict of the two of them, reporting the killed
/// node as suspected.
#[test]
fn killing_one_of_three_processes_ends_the_survivors_on_the_exclusion_verdict() {
    let dir = tmpdir("killthree");
    write(&dir, "server.dity", SERVER);
    write(&dir, "client.dity", CLIENT);
    write(&dir, "spin.dity", "def Loop(n) = Loop[n] in Loop[0]");
    let spec = write(&dir, "cluster.net", SPEC_SPINNER);
    let spec = spec.to_str().unwrap();
    let (mut spinner, spin_addr) = spawn_listening(&["net", spec, "--node", "2"]);
    let (server, server_addr) = spawn_listening(&[
        "serve",
        spec,
        "--node",
        "0",
        "--peers",
        &spin_addr,
        "--retries",
        "2",
    ]);
    let peers = format!("{server_addr},{spin_addr}");
    let client = ditico()
        .args([
            "net",
            spec,
            "--node",
            "1",
            "--peers",
            &peers,
            "--retries",
            "2",
        ])
        .args(["--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn client");

    std::thread::sleep(Duration::from_millis(1500));
    spinner.kill().expect("kill spinner");
    let _ = spinner.wait();

    for (who, mut child) in [("server", server), ("client", client)] {
        wait_bounded(&mut child, 30);
        let out = child.wait_with_output().expect("output");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{who}: {stderr}");
        assert!(
            stderr.contains("suspected dead nodes: 2") && !stderr.contains("limit hit"),
            "{who} ends on the exclusion verdict: {stderr}"
        );
        if who == "client" {
            assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[client] 42");
        }
    }
}

#[test]
fn serve_announces_its_bound_address_only_once_it_accepts() {
    use std::io::{BufRead as _, BufReader, Read as _};
    let dir = tmpdir("port0");
    write(&dir, "server.dity", SERVER);
    write(&dir, "client.dity", CLIENT);
    let spec = write(&dir, "cluster.net", SPEC);

    let mut server = ditico()
        .args(["serve", spec.to_str().unwrap(), "--node", "0"])
        .args(["--listen", "127.0.0.1:0", "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read announcement");
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|l| l.strip_suffix(", hosting node(s) 0\n"))
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"));
    assert!(
        !addr.ends_with(":0"),
        "the *bound* port is announced: {addr}"
    );

    // One dial, no retry: the line must not run ahead of the listener.
    let sock = std::net::TcpStream::connect(addr).expect("announced address accepts");
    drop(sock);

    // A stranger that never said who it is does not stand in for the
    // client node: the server winds down once the real client is done.
    let client = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", addr, "--wall", "60", "--hb-ms", "25"])
        .output()
        .expect("run client");
    assert!(client.status.success());
    let st = wait_bounded(&mut server, 30);
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    assert!(st.success(), "{rest}");
    assert!(!rest.contains("limit hit"), "{rest}");
}

#[test]
fn killing_the_server_is_suspected_by_the_survivor() {
    let dir = tmpdir("kill");
    write(&dir, "server.dity", SERVER);
    write(&dir, "client.dity", CLIENT_SPIN);
    let spec = write(&dir, "cluster.net", SPEC);
    let addr = format!("127.0.0.1:{}", free_port());

    let mut server = ditico()
        .args(["serve", spec.to_str().unwrap(), "--node", "0"])
        .args(["--listen", &addr, "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut client = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", &addr, "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn client");

    // Let the FETCH complete, then pull the server out from under the
    // still-running client.
    std::thread::sleep(Duration::from_millis(1500));
    server.kill().expect("kill server");
    let _ = server.wait();

    // The survivor must notice the heartbeat silence, report the
    // suspicion and terminate cleanly well inside the wall bound.
    wait_bounded(&mut client, 30);
    let out = client.wait_with_output().expect("client output");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(stdout.trim(), "[client] 42", "{stderr}");
    assert!(
        stderr.contains("suspected dead nodes: 0"),
        "survivor must suspect node 0: {stderr}"
    );
    assert!(out.status.success(), "{stderr}");
}

/// The paper's §3 RPC server, and `chains` concurrent chains of `calls`
/// sequential calls to it: chain `c` prints the sum of its replies.
const RPC_SERVER: &str =
    "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p] } in export new p in Srv[p]";

fn rpc_client(chains: u64, calls: u64) -> (String, Vec<String>) {
    let mut src = String::from(
        "import p from server in \
         def Chain(c, k, acc) = \
             if k > 0 then new a (p!val[k, a] | a?(v) = Chain[c, k - 1, acc + v]) \
             else println(\"chain\", c, acc) \
         in (0",
    );
    for c in 0..chains {
        src.push_str(&format!(" | Chain[{c}, {calls}, 0]"));
    }
    src.push(')');
    let sum = calls * (calls + 1) / 2 + calls;
    let expected = (0..chains)
        .map(|c| format!("[client] chain {c} {sum}"))
        .collect();
    (src, expected)
}

/// One `kill` per child, in the order given: each is signalled about a
/// millisecond (a process spawn) after the one before it.
fn signal(sig: &str, children: &[&Child]) {
    for c in children {
        let st = Command::new("kill")
            .args([sig, &c.id().to_string()])
            .status()
            .expect("run kill");
        assert!(st.success(), "kill {sig} {}", c.id());
    }
}

/// Both processes are stopped mid-run for much longer than the failure
/// monitor's patience (5 × 25 ms), three times. Whichever thread the
/// kernel runs first afterwards, no verdict may be taken from the clock
/// while the peer's beacons and replies sit unread in the socket: the
/// client must not suspect the server and cut the run, and must not
/// declare quiescence and exit with chains unfinished.
#[test]
fn a_stall_of_both_processes_costs_no_replies() {
    let dir = tmpdir("stall");
    let (client_src, mut expected) = rpc_client(64, 1500);
    write(&dir, "server.dity", RPC_SERVER);
    write(&dir, "client.dity", &client_src);
    let spec = write(&dir, "cluster.net", SPEC);
    let addr = format!("127.0.0.1:{}", free_port());

    let mut server = ditico()
        .args(["serve", spec.to_str().unwrap(), "--node", "0"])
        .args(["--listen", &addr, "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut client = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", &addr, "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn client");

    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(100));
        // The client stops first and resumes first. Stopped first, it
        // leaves the server a moment to answer what is in flight into a
        // socket nobody reads; resumed first, it wakes to those unread
        // replies and to a peer that cannot beacon yet — the stalest
        // view its clocks can be given. (A child that already exited
        // is a zombie until it is waited for: signalling it is harmless.)
        signal("-STOP", &[&client, &server]);
        std::thread::sleep(Duration::from_millis(700));
        signal("-CONT", &[&client, &server]);
    }

    wait_bounded(&mut client, 60);
    let out = client.wait_with_output().expect("client output");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{stderr}");
    assert!(
        !stderr.contains("suspected dead nodes") && !stderr.contains("limit hit"),
        "a stall is not a failure: {stderr}"
    );
    let mut lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.trim().to_string())
        .collect();
    lines.sort_unstable();
    expected.sort_unstable();
    assert_eq!(lines, expected, "{stderr}");

    let st = wait_bounded(&mut server, 30);
    let out = server.wait_with_output().expect("server output");
    assert!(st.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A field of `site`'s `heap:` line in a `--stats` report.
fn heap_field(stderr: &str, site: &str, field: &str) -> u64 {
    stderr
        .split(&format!("[{site}]\n"))
        .nth(1)
        .and_then(|block| block.lines().find(|l| l.starts_with("heap: ")))
        .and_then(|l| l.split(&format!("{field}=")).nth(1))
        .and_then(|v| v.split(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no `{field}` on [{site}]'s heap line: {stderr}"))
}

/// 20 000 calls over TCP: the server's collector runs and releases the
/// reply channels it answered, and the client's collector reclaims them
/// (DESIGN.md §20).
#[test]
fn reply_channels_are_reclaimed_across_processes() {
    let dir = tmpdir("reclaim");
    let (client_src, mut expected) = rpc_client(16, 1250);
    write(&dir, "server.dity", RPC_SERVER);
    write(&dir, "client.dity", &client_src);
    let spec = write(&dir, "cluster.net", SPEC);
    let spec = spec.to_str().unwrap();
    let (mut server, addr) = spawn_listening(&["serve", spec, "--node", "0", "--stats"]);
    let client = ditico()
        .args(["net", spec, "--node", "1", "--peers", &addr, "--stats"])
        .args(["--wall", "60", "--hb-ms", "25"])
        .output()
        .expect("run client");
    let client_err = String::from_utf8_lossy(&client.stderr).to_string();
    assert!(client.status.success(), "{client_err}");
    let mut lines: Vec<String> = String::from_utf8_lossy(&client.stdout)
        .lines()
        .map(|l| l.trim().to_string())
        .collect();
    lines.sort_unstable();
    expected.sort_unstable();
    assert_eq!(lines, expected, "{client_err}");
    assert!(heap_field(&client_err, "client", "collected") > 0);

    wait_bounded(&mut server, 30);
    let out = server.wait_with_output().expect("server output");
    let server_err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{server_err}");
    assert!(heap_field(&server_err, "server", "gcs") > 0);
}

/// Three sites across the two processes: `a` fetches `Adder`, uses it,
/// then kicks `b` (same node), whose own fetch of `Adder` must arrive as
/// a digest-only reply served from the client node's code store.
const SPEC_DEDUP: &str = "topology nodes=2 fabric=ideal link=ideal\n\
                          site server server.dity node=0\n\
                          site a a.dity node=1\n\
                          site b b.dity node=1\n";

const SITE_A: &str = "import Adder from server in \
                      new r (Adder[2, r] | r?(y) = \
                      import kick from b in (print(y) | kick![]))";

const SITE_B: &str = "export new kick in kick?() = \
                      import Adder from server in \
                      new s (Adder[60, s] | s?(z) = print(z))";

#[test]
fn second_fetch_from_a_node_is_served_digest_only_over_tcp() {
    let dir = tmpdir("dedup");
    write(&dir, "server.dity", SERVER);
    write(&dir, "a.dity", SITE_A);
    write(&dir, "b.dity", SITE_B);
    let spec = write(&dir, "cluster.net", SPEC_DEDUP);
    let addr = format!("127.0.0.1:{}", free_port());

    let mut server = ditico()
        .args(["serve", spec.to_str().unwrap(), "--node", "0"])
        .args(["--listen", &addr, "--wall", "60", "--hb-ms", "25"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let client = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", &addr, "--wall", "60", "--hb-ms", "25"])
        .output()
        .expect("run client");
    let client_err = String::from_utf8_lossy(&client.stderr).to_string();
    assert!(client.status.success(), "{client_err}");
    let mut lines: Vec<String> = String::from_utf8_lossy(&client.stdout)
        .lines()
        .map(|l| l.trim().to_string())
        .collect();
    lines.sort_unstable();
    assert_eq!(lines, ["[a] 42", "[b] 100"], "{client_err}");
    // The client node admitted the image once and rehydrated the second
    // reply from its store.
    assert!(
        client_err.contains("code cache: 1 hits / 0 misses"),
        "client should rehydrate locally: {client_err}"
    );

    let st = wait_bounded(&mut server, 30);
    let out = server.wait_with_output().expect("server output");
    let server_err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(st.success(), "{server_err}");
    // The server's daemon shipped the second FetchReply digest-only.
    assert!(
        server_err.contains("1 dedup sends"),
        "second reply must be digest-only: {server_err}"
    );
}

/// Re-export invalidation across real TCP, sharded name service: site
/// `a` resolves `p` (its node caches the binding under a lease), pokes
/// the server to re-export `p` (epoch bump), and only then kicks `b` —
/// whose import of the same name must miss the invalidated caches and
/// resolve the *new* binding. FIFO TCP delivers the invalidation ahead
/// of the ack that unblocks the chain, so `b` can never see epoch 1.
const SPEC_NS: &str = "topology nodes=2 fabric=ideal link=ideal replicas=2\n\
                       site server server.dity node=0\n\
                       site a a.dity node=1\n\
                       site b b.dity node=1\n";

const NS_SERVER: &str = "import ack from a in \
                         export new kick in \
                         export new p in (\
                             (p?(r) = r![1]) \
                             | (kick?() = export new p in (ack![] | (p?(r2) = r2![2])))\
                         )";

const NS_SITE_A: &str = "export new ack in \
                         import p from server in \
                         import kick from server in \
                         import go from b in \
                         new r (p![r] | r?(x) = (print(x) | kick![] | ack?() = go![]))";

const NS_SITE_B: &str = "export new go in \
                         go?() = import p from server in \
                                 new s (p![s] | s?(y) = print(y))";

#[test]
fn reexport_invalidation_crosses_tcp_between_processes() {
    let dir = tmpdir("nsinval");
    write(&dir, "server.dity", NS_SERVER);
    write(&dir, "a.dity", NS_SITE_A);
    write(&dir, "b.dity", NS_SITE_B);
    let spec = write(&dir, "cluster.net", SPEC_NS);
    let addr = format!("127.0.0.1:{}", free_port());
    let ns_flags = ["--ns-lease-ms", "60000"];

    let mut server = ditico()
        .args(["serve", spec.to_str().unwrap(), "--node", "0"])
        .args(["--listen", &addr, "--wall", "60", "--hb-ms", "25"])
        .args(ns_flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    let client = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", &addr, "--wall", "60", "--hb-ms", "25"])
        .args(ns_flags)
        .output()
        .expect("run client");
    let client_err = String::from_utf8_lossy(&client.stderr).to_string();
    assert!(client.status.success(), "{client_err}");
    let mut lines: Vec<String> = String::from_utf8_lossy(&client.stdout)
        .lines()
        .map(|l| l.trim().to_string())
        .collect();
    lines.sort_unstable();
    assert_eq!(
        lines,
        ["[a] 1", "[b] 2"],
        "b resolved the re-exported binding: {client_err}"
    );

    let st = wait_bounded(&mut server, 30);
    let out = server.wait_with_output().expect("server output");
    let server_err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(st.success(), "{server_err}");
    // The epoch bump was observed by exactly one shard owner; which
    // process hosts it is fixed by the hash, so check both reports.
    let both = format!("{client_err}\n{server_err}");
    assert!(
        both.contains("1 invalidations"),
        "the re-export invalidated the lessee: {both}"
    );
}

#[test]
fn bad_peer_list_is_a_diagnostic_not_a_panic() {
    let dir = tmpdir("badpeers");
    write(&dir, "server.dity", SERVER);
    write(&dir, "client.dity", CLIENT);
    let spec = write(&dir, "cluster.net", SPEC);

    let out = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "1"])
        .args(["--peers", "127.0.0.1:notaport"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad peer address"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A node index outside the topology is caught before anything binds.
    let out = ditico()
        .args(["net", spec.to_str().unwrap(), "--node", "7"])
        .args(["--peers", "127.0.0.1:1"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("outside the topology"), "{stderr}");
}
