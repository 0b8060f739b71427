//! TyCOsh — an interactive shell over the DiTyCO environment (§5: *"Users
//! submit new programs for execution in a node using a shell program
//! called TyCOsh"*).
//!
//! ```sh
//! cargo run --example tycosh
//! ```
//!
//! Then, at the prompt:
//!
//! ```text
//! tycosh> topology nodes=2 link=myrinet
//! tycosh> site server def Srv(s) = s?{ val(x, r) = r![x + 1] | Srv[s] } in export new p in Srv[p]
//! tycosh> site client import p from server in new a (p!val[41, a] | a?(y) = print(y))
//! tycosh> run
//! tycosh> output client
//! ```
//!
//! Piped input works too:
//! `printf 'site m println("hi")\nrun\noutput m\n' | cargo run --example tycosh`

use ditico::Shell;
use std::io::{BufRead, Write};

fn main() {
    let mut shell = Shell::new();
    let stdin = std::io::stdin();
    let interactive = atty_guess();
    if interactive {
        println!("TyCOsh — DiTyCO shell. Type `help` for commands, ctrl-D to exit.");
    }
    let mut lock = stdin.lock();
    let mut line = String::new();
    loop {
        if interactive {
            print!("tycosh> ");
            let _ = std::io::stdout().flush();
        }
        line.clear();
        match lock.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.trim() == "exit" || line.trim() == "quit" {
                    break;
                }
                let reply = shell.exec(&line);
                if !reply.is_empty() {
                    println!("{reply}");
                }
            }
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
    }
}

/// Crude interactivity guess without extra dependencies: honor an explicit
/// override, else assume non-interactive when stdin is redirected from a
/// file or pipe (checked via the TERM-less heuristic of piped CI runs).
fn atty_guess() -> bool {
    if std::env::var_os("TYCOSH_BATCH").is_some() {
        return false;
    }
    // On Linux, /proc/self/fd/0 links to a tty when interactive.
    match std::fs::read_link("/proc/self/fd/0") {
        Ok(p) => p.to_string_lossy().contains("/dev/pts") || p.to_string_lossy().contains("tty"),
        Err(_) => true,
    }
}
