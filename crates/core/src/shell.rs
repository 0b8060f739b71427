//! TyCOsh — the user-level shell of §5.
//!
//! *"Users submit new programs for execution in a node using a shell
//! program called TyCOsh. The user requests are handled by a node manager
//! daemon, the TyCOi."*
//!
//! The shell is a small line-oriented command interpreter over the
//! environment builder, suitable for driving from a REPL binary (see
//! `examples/tycosh.rs`) or from tests:
//!
//! ```text
//! topology nodes=2 fabric=virtual link=myrinet
//! site server export new p in p?{ val(x, r) = r![x + 1] }
//! site client import p from server in new a (p!val[41, a] | a?(y) = print(y))
//! run
//! output client
//! ```

use crate::env::{Env, Topology};
use ditico_rt::RunReport;
use std::fmt::Write as _;

/// The shell's mutable state.
pub struct Shell {
    topology: Topology,
    sites: Vec<(String, String)>,
    last_report: Option<RunReport>,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    pub fn new() -> Shell {
        Shell {
            topology: Topology::default(),
            sites: Vec::new(),
            last_report: None,
        }
    }

    /// Execute one command line; returns the text to show the user.
    pub fn exec(&mut self, line: &str) -> String {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "" | "#" => String::new(),
            "help" => HELP.to_string(),
            "topology" => self.cmd_topology(rest),
            "site" => self.cmd_site(rest),
            "ps" => self.cmd_ps(),
            "run" => self.cmd_run(),
            "output" => self.cmd_output(rest),
            "stats" => self.cmd_stats(rest),
            "reset" => {
                *self = Shell::new();
                "environment cleared".to_string()
            }
            other => format!("unknown command `{other}` (try `help`)"),
        }
    }

    fn cmd_topology(&mut self, args: &str) -> String {
        for kv in args.split_whitespace() {
            let Some((k, v)) = kv.split_once('=') else {
                return format!("expected key=value, got `{kv}`");
            };
            if let Err(e) = self.topology.set(k, v) {
                return e;
            }
        }
        format!(
            "topology: {} node(s), fabric {:?}, {} ns replica(s)",
            self.topology.nodes, self.topology.mode, self.topology.ns_replicas
        )
    }

    fn cmd_site(&mut self, args: &str) -> String {
        let Some((lexeme, src)) = args.split_once(char::is_whitespace) else {
            return "usage: site <lexeme> <program…>".to_string();
        };
        // Validate eagerly so errors point at the submission.
        match crate::Program::compile(src.trim()) {
            Ok(p) => {
                self.sites
                    .push((lexeme.to_string(), src.trim().to_string()));
                format!(
                    "site `{lexeme}` submitted ({} byte-code instructions)",
                    p.instr_count()
                )
            }
            Err(e) => format!("site `{lexeme}` rejected: {e}"),
        }
    }

    fn cmd_ps(&self) -> String {
        if self.sites.is_empty() {
            return "no sites".to_string();
        }
        let mut out = String::new();
        for (i, (lexeme, _)) in self.sites.iter().enumerate() {
            let node = i % self.topology.nodes.max(1);
            let _ = writeln!(out, "site {lexeme} → node {node}");
        }
        out.trim_end().to_string()
    }

    fn cmd_run(&mut self) -> String {
        let mut env = Env::new(self.topology.clone());
        for (lexeme, src) in &self.sites {
            env = match env.site(lexeme, src) {
                Ok(e) => e,
                Err(e) => return format!("error: {e}"),
            };
        }
        match env.run() {
            Ok(report) => {
                let summary = format!(
                    "ran to {}: {} instrs, {} fabric packets ({} bytes), virtual time {} µs{}",
                    if report.quiescent {
                        "quiescence"
                    } else {
                        "limit"
                    },
                    report.total_instrs,
                    report.fabric_packets,
                    report.fabric_bytes,
                    report.virtual_ns / 1_000,
                    if report.errors.is_empty() {
                        String::new()
                    } else {
                        format!(", {} error(s)", report.errors.len())
                    }
                );
                self.last_report = Some(report);
                summary
            }
            Err(e) => format!("error: {e}"),
        }
    }

    fn cmd_output(&self, lexeme: &str) -> String {
        match &self.last_report {
            None => "nothing has run yet".to_string(),
            Some(r) => r.output(lexeme).join("\n"),
        }
    }

    fn cmd_stats(&self, lexeme: &str) -> String {
        match &self.last_report {
            None => "nothing has run yet".to_string(),
            Some(r) => match r.stats.get(lexeme) {
                Some(s) => s.to_string(),
                None => format!("unknown site `{lexeme}`"),
            },
        }
    }
}

const HELP: &str = "\
commands:
  topology nodes=N fabric=ideal|virtual link=ideal|myrinet|ethernet|wan replicas=K
                             (replicas: name-service ring size, default 1 = central)
  site <lexeme> <program…>   submit a DiTyCO program as a new site
  ps                         list submitted sites and their nodes
  run                        execute the network to quiescence
  output <lexeme>            show a site's I/O port
  stats <lexeme>             show a site's VM statistics
  reset                      clear everything
  help                       this text";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_session_end_to_end() {
        let mut sh = Shell::new();
        assert!(sh
            .exec("topology nodes=2 fabric=virtual link=myrinet")
            .contains("2 node"));
        assert!(sh
            .exec("site server def Srv(s) = s?{ val(x, r) = r![x + 1] | Srv[s] } in export new p in Srv[p]")
            .contains("submitted"));
        assert!(sh
            .exec("site client import p from server in new a (p!val[41, a] | a?(y) = print(y))")
            .contains("submitted"));
        assert!(sh.exec("ps").contains("client"));
        let run = sh.exec("run");
        assert!(run.contains("quiescence"), "{run}");
        assert_eq!(sh.exec("output client"), "42");
        assert!(sh.exec("stats client").contains("instrs"));
    }

    #[test]
    fn rejects_bad_programs_at_submit() {
        let mut sh = Shell::new();
        let reply = sh.exec("site broken new x (x![1] | x![true])");
        assert!(reply.contains("rejected"), "{reply}");
        assert!(sh.exec("ps").contains("no sites"));
    }

    #[test]
    fn unknown_command_help() {
        let mut sh = Shell::new();
        assert!(sh.exec("frobnicate").contains("unknown command"));
        assert!(sh.exec("help").contains("topology"));
        assert_eq!(sh.exec(""), "");
    }

    #[test]
    fn reset_clears_state() {
        let mut sh = Shell::new();
        sh.exec("site a println(\"x\")");
        sh.exec("reset");
        assert!(sh.exec("ps").contains("no sites"));
        assert!(sh.exec("output a").contains("nothing has run"));
    }
}
