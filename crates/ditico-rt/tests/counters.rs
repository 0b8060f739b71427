//! The counter table: what one `counters!` declaration generates — read
//! by name, summed field by field, snapshotted from its tally, carried
//! into another group — and the renderer of the report lines.

use ditico_rt::counters::{render, ChaosTally, Counters};
use ditico_rt::{ChaosReport, DaemonStats, NameCacheStats, NsStats, SchedStats, TransportReport};
use std::sync::atomic::Ordering;

#[test]
fn every_name_reads_its_own_field() {
    let mut d = DaemonStats {
        rejected: 3,
        ..DaemonStats::default()
    };
    d.cache.misses = 5;
    d.ns.lease_hits = 7;
    assert_eq!(d.get("rejected"), Some(3));
    assert_eq!(d.get("cache.misses"), Some(5));
    assert_eq!(d.get("ns.lease_hits"), Some(7));
    for name in ["", "cache", "rejected.x", "nope"] {
        assert_eq!(d.get(name), None, "{name}");
    }
    let groups: [(&[&str], &dyn Counters); 4] = [
        (TransportReport::NAMES, &TransportReport::default()),
        (ChaosReport::NAMES, &ChaosReport::default()),
        (SchedStats::NAMES, &SchedStats::default()),
        (NsStats::NAMES, &NsStats::default()),
    ];
    for (names, group) in groups {
        assert!(names.iter().all(|n| group.get(n) == Some(0)), "{names:?}");
    }
    assert_eq!(DaemonStats::NAMES.len(), 9);
}

#[test]
fn groups_sum_field_by_field_and_snapshot_their_tally() {
    let tally = ChaosTally::default();
    tally.dropped.fetch_add(2, Ordering::Relaxed);
    tally.restarts.fetch_add(1, Ordering::Relaxed);
    let one = tally.snapshot();
    let sum: ChaosReport = [one, one, ChaosReport::default()].into_iter().sum();
    assert_eq!((sum.dropped, sum.restarts, sum.kills), (4, 2, 0));
    let mut d = DaemonStats::default();
    d.cache.hits = 1;
    d += d;
    assert_eq!(d.cache.hits, 2, "nested groups add too");
}

#[test]
fn lease_lookups_carry_into_the_name_service_counters() {
    let ns = NsStats::from(NameCacheStats {
        hits: 1,
        misses: 2,
        expired: 3,
        invalidations: 4,
    });
    assert_eq!(
        (ns.lease_hits, ns.lease_misses, ns.lease_expired),
        (1, 2, 3)
    );
    assert_eq!(ns.invalidations, 0, "an owner's invalidations are its own");
}

#[test]
fn a_template_names_its_counters() {
    let mut d = DaemonStats::default();
    d.cache.hits = 4;
    assert_eq!(
        render("{cache.hits} hits, {rejected} rejected", &d).unwrap(),
        "4 hits, 0 rejected"
    );
    assert!(render("{cache.nope}", &d)
        .unwrap_err()
        .contains("cache.nope"));
    assert!(render("{cache.hits", &d).is_err());
    assert_eq!(render("no counters", &d).unwrap(), "no counters");
}
