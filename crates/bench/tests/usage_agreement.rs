//! The usage pass (`tyco_types::usage`) replaced two analyses: a liveness
//! lint over the calculus (orphan messages and objects) and a
//! whole-program analyzer over the byte-code (unreachable methods,
//! never-instantiated classes, orphan sends). On the corpus below, each
//! program's findings as a multiset of `(tag, subject)` equal the union
//! of theirs. Theirs were recorded with both analyses in the tree, at
//! 465b076, as per-kind counts and a digest of every finding.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use tyco_syntax::arbitrary::arb_closed_program;

/// Generated programs, drawn from `TestRng::from_name("census")`.
const PROGRAMS: usize = 3000;
/// Of those, the programs with at least one finding.
const WITH_FINDINGS: usize = 2152;
const PER_KIND: [(&str, usize); 5] = [
    ("never-instantiated-class", 2347),
    ("orphan-message", 758),
    ("orphan-object", 719),
    ("orphan-send", 226),
    ("unreachable-method", 235),
];
/// `Digest::of` the lines `"<program> <tag> <subject>\n"`, by program,
/// then by tag and subject.
const DIGEST: u128 = 0x9f9d910ea88030fca17240c22f3bd622;

fn findings(p: &tyco_syntax::Proc) -> Vec<(&'static str, String)> {
    let mut found: Vec<_> = tyco_types::findings(p)
        .into_iter()
        .map(|f| (f.kind.tag(), f.subject))
        .collect();
    found.sort();
    found
}

#[test]
fn generated_programs_agree_with_the_retired_analyses() {
    let mut rng = TestRng::from_name("census");
    let mut lines = String::new();
    let mut with_findings = 0;
    let mut per_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for i in 0..PROGRAMS {
        let found = findings(&arb_closed_program().generate(&mut rng));
        with_findings += usize::from(!found.is_empty());
        for (tag, subject) in found {
            *per_kind.entry(tag).or_default() += 1;
            lines += &format!("{i} {tag} {subject}\n");
        }
    }
    assert_eq!(per_kind.into_iter().collect::<Vec<_>>(), PER_KIND);
    assert_eq!(with_findings, WITH_FINDINGS);
    assert_eq!(tyco_vm::Digest::of(lines.as_bytes()).0, DIGEST);
}

/// The benchmark's 40 sources and the 7 examples: zero findings before
/// and after. Their nesting needs more stack than a test thread has.
#[test]
fn real_sources_have_no_findings() {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let corpus = ditico_bench::frontend::corpus();
            assert_eq!(corpus.iter().map(|(_, s)| s.len()).sum::<usize>(), 47);
            for (set, sources) in corpus {
                for (i, src) in sources.iter().enumerate() {
                    let p = tyco_syntax::parse_core(src).expect("parses");
                    assert_eq!(findings(&p), [], "{set} source {i}");
                }
            }
        })
        .expect("spawn")
        .join()
        .expect("no findings");
}
