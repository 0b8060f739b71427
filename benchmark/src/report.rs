//! Parser for what `ditico net|serve --stats` prints on stderr.
//!
//! The counters are the harness's only view of the scheduler, daemon,
//! code cache and VM, so the parser is strict: a line it does not know,
//! or a known line whose shape drifted, is an error and never a zero.

use std::collections::BTreeMap;

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cache {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub dedup_sends: u64,
    pub bytes_saved: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub digest_mismatches: u64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Wire {
    pub data_out: u64,
    pub data_in: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub heartbeats_in: u64,
    pub rejected: u64,
    pub dropped: u64,
    pub reconnects: u64,
    pub peers_failed: u64,
    pub outq_hwm: u64,
    pub flush_stalls: u64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sched {
    pub workers: u64,
    pub slices: u64,
    pub steals: u64,
    pub injector: u64,
    pub parks: u64,
    pub unparks: u64,
    pub max_ready_depth: u64,
}

/// One `[lexeme]` block of `ExecStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Site {
    pub instrs: u64,
    pub threads: u64,
    pub comm: u64,
    pub inst: u64,
    pub shipm: u64,
    pub fetch: u64,
    pub imports: u64,
    pub msgs_recv: u64,
    pub fetches_served: u64,
    pub chans_allocated: u64,
    pub gcs: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
}

/// Everything one process reported at exit.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    pub instrs: u64,
    pub fabric_packets: u64,
    pub fabric_bytes: u64,
    /// False when the run ended on its `--wall` or instruction limit.
    pub quiescent: bool,
    /// All zero when the process moved no code (the line is then absent).
    pub cache: Cache,
    pub ns_imports: u64,
    /// All zero for a single-process run (the line is then absent).
    pub wire: Wire,
    pub sched: Sched,
    pub sites: BTreeMap<String, Site>,
    /// `error:` and `abort:` lines, verbatim.
    pub problems: Vec<String>,
    /// The `suspected dead nodes` line, if any: a liveness verdict, not
    /// an error — `serve` can reach it about a client that has already
    /// finished and left, while it waits out its own exit grace.
    pub suspects: Option<String>,
}

impl Report {
    pub fn site_sum(&self, f: impl Fn(&Site) -> u64) -> u64 {
        self.sites.values().map(f).sum()
    }
}

/// Match `line` against `template`, where each `{}` stands for an
/// unsigned integer. Returns the integers and the unmatched tail.
fn scan<'a>(line: &'a str, template: &str) -> Option<(Vec<u64>, &'a str)> {
    let mut parts = template.split("{}");
    let mut rest = line.strip_prefix(parts.next()?)?;
    let mut out = Vec::new();
    for literal in parts {
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push(rest[..end].parse().ok()?);
        rest = rest[end..].strip_prefix(literal)?;
    }
    Some((out, rest))
}

const SUMMARY: &str = "-- {} instrs, {} fabric packets ({} bytes), virtual {} µs";
const CACHE: &str = "code cache: {} hits / {} misses, {} coalesced fetches, {} dedup sends \
                     ({} B saved), {} insertions, {} evictions, {} digest mismatches, \
                     {} dup replies dropped";
const NS: &str = "name service: {} registers, {} imports ({} resolved, {} parked), ";
const WIRE: &str = "wire: {} data out / {} data in ({} B out, {} B in), {} heartbeats in, \
                    {} rejected, {} dropped, {} reconnects, {} peers failed, \
                    outq hwm {}, {} flush stalls, {} perma-down drops";
const SCHED: &str = "scheduler: workers={} slices={} (max/site {}) steals={} injector={} \
                     parks={} unparks={} max-ready-depth={} detector-probes={}";
const SITE_EXEC: &str = "instrs={} threads={} comm={} inst={}";
const SITE_SHIP: &str = "shipm={} shipo={} fetch={} (cache hits {}) imports={}";
const SITE_RECV: &str = "recv: msgs={} objs={} fetches_served={} dup_fetch_replies={}";
const SITE_HEAP: &str = "heap: chans_allocated={} collected={} gcs={}";
const SITE_IC: &str = "method ic: hits={} misses={} (";

/// Parse the stderr of one `ditico net|serve --stats` process.
pub fn parse(stderr: &str) -> Result<Report, String> {
    let mut r = Report::default();
    let mut seen_summary = false;
    let mut seen_sched = false;
    let mut site: Option<String> = None;
    for line in stderr.lines() {
        let drift = || format!("stats report line not understood: `{line}`");
        let whole = |t: &str| match scan(line, t) {
            Some((v, "")) => Ok(v),
            _ => Err(drift()),
        };
        if line.starts_with("listening on ") {
            continue;
        }
        if line.starts_with("abort: ") || (line.starts_with('[') && line.contains("] error: ")) {
            r.problems.push(line.to_string());
        } else if line.starts_with("suspected dead nodes: ") {
            r.suspects = Some(line.to_string());
        } else if line.starts_with("-- ") {
            let (v, tail) = scan(line, SUMMARY).ok_or_else(drift)?;
            r.quiescent = match tail {
                "" => true,
                " (limit hit)" => false,
                _ => return Err(drift()),
            };
            (r.instrs, r.fabric_packets, r.fabric_bytes) = (v[0], v[1], v[2]);
            seen_summary = true;
        } else if line.starts_with("code cache: ") {
            let v = whole(CACHE)?;
            r.cache = Cache {
                hits: v[0],
                misses: v[1],
                coalesced: v[2],
                dedup_sends: v[3],
                bytes_saved: v[4],
                insertions: v[5],
                evictions: v[6],
                digest_mismatches: v[7],
            };
        } else if line.starts_with("name service: ") {
            let (v, _) = scan(line, NS).ok_or_else(drift)?;
            r.ns_imports = v[1];
        } else if line.starts_with("wire: ") {
            let v = whole(WIRE)?;
            r.wire = Wire {
                data_out: v[0],
                data_in: v[1],
                bytes_out: v[2],
                bytes_in: v[3],
                heartbeats_in: v[4],
                rejected: v[5],
                dropped: v[6] + v[11],
                reconnects: v[7],
                peers_failed: v[8],
                outq_hwm: v[9],
                flush_stalls: v[10],
            };
        } else if line.starts_with("scheduler: ") {
            let v = whole(SCHED)?;
            r.sched = Sched {
                workers: v[0],
                slices: v[1],
                steals: v[3],
                injector: v[4],
                parks: v[5],
                unparks: v[6],
                max_ready_depth: v[7],
            };
            seen_sched = true;
            site = None;
        } else if let Some(lexeme) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            r.sites.insert(lexeme.to_string(), Site::default());
            site = Some(lexeme.to_string());
        } else if let Some(s) = site.as_ref().and_then(|l| r.sites.get_mut(l)) {
            if line.starts_with("instrs=") {
                let v = whole(SITE_EXEC)?;
                (s.instrs, s.threads, s.comm, s.inst) = (v[0], v[1], v[2], v[3]);
            } else if line.starts_with("shipm=") {
                let v = whole(SITE_SHIP)?;
                (s.shipm, s.fetch, s.imports) = (v[0], v[2], v[4]);
            } else if line.starts_with("recv: ") {
                let v = whole(SITE_RECV)?;
                (s.msgs_recv, s.fetches_served) = (v[0], v[2]);
            } else if line.starts_with("heap: ") {
                let v = whole(SITE_HEAP)?;
                (s.chans_allocated, s.gcs) = (v[0], v[2]);
            } else if line.starts_with("method ic: ") {
                let (v, _) = scan(line, SITE_IC).ok_or_else(drift)?;
                (s.ic_hits, s.ic_misses) = (v[0], v[1]);
            } else if !line.starts_with("granularity: ") {
                return Err(drift());
            }
        } else {
            return Err(drift());
        }
    }
    if !seen_summary {
        return Err("stats report has no `-- N instrs …` summary line".into());
    }
    if !seen_sched || r.sites.is_empty() {
        return Err(
            "stats report has no per-site or scheduler section (was --stats passed?)".into(),
        );
    }
    if let Some((lexeme, _)) = r.sites.iter().find(|(_, s)| s.threads == 0) {
        return Err(format!("stats report block of site `{lexeme}` is empty"));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// stderr of the client and the server of a live `--smoke` run of
    /// `fetch_catalog` (seed 1), captured verbatim.
    const CLIENT: &str = include_str!("../testdata/fetch_client.err");
    const SERVER: &str = include_str!("../testdata/fetch_server.err");

    #[test]
    fn parses_a_captured_client_report() {
        let r = parse(CLIENT).unwrap();
        assert!(r.quiescent && r.problems.is_empty());
        assert_eq!(r.sites.len(), 8);
        assert_eq!(r.site_sum(|s| s.fetch), 40);
        assert_eq!(r.cache.insertions, 34);
        assert_eq!(r.cache.hits, 6);
        assert_eq!((r.wire.data_out, r.wire.data_in), (94, 87));
        assert_eq!((r.wire.bytes_out, r.wire.bytes_in), (4696, 113110));
        assert_eq!(r.sched.workers, 1);
        assert!(r.sched.slices > 0 && r.instrs > 0);
    }

    #[test]
    fn parses_a_captured_server_report() {
        let r = parse(SERVER).unwrap();
        assert_eq!(r.sites.len(), 4);
        assert_eq!(r.site_sum(|s| s.fetches_served), 40);
        assert_eq!(r.cache.dedup_sends, 6);
        assert_eq!(r.cache.bytes_saved, 19777);
        assert_eq!(r.ns_imports, 47);
    }

    #[test]
    fn a_format_drift_fails_instead_of_yielding_zeros() {
        for (from, to) in [
            ("flush stalls", "stalls"),
            ("parks=", "parked="),
            ("fabric packets", "packets"),
            ("dedup sends", "deduplicated sends"),
            ("comm=", "communications="),
            ("scheduler: ", "sched: "),
        ] {
            assert!(CLIENT.contains(from), "fixture lacks `{from}`");
            let err = parse(&CLIENT.replace(from, to)).unwrap_err();
            assert!(err.contains("not understood"), "{from}: {err}");
        }
        assert!(parse("").is_err());
        let no_stats: String = CLIENT
            .lines()
            .take_while(|l| !l.starts_with('['))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse(&no_stats).unwrap_err().contains("--stats"));
    }

    #[test]
    fn problems_and_limit_hits_are_reported() {
        let text = CLIENT.replace(" µs\n", " µs (limit hit)\n")
            + "abort: wall clock limit\n[c0] error: protocol error: no method\n\
               suspected dead nodes: 1\n";
        let r = parse(&text).unwrap();
        assert!(!r.quiescent);
        assert_eq!(r.problems.len(), 2);
        assert_eq!(r.suspects.as_deref(), Some("suspected dead nodes: 1"));
    }
}
