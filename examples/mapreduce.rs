//! A map-reduce application in DiTyCO — the kind of "high-performance
//! computing" workload the paper's introduction motivates.
//!
//! The master site exports the `Mapper` class and an aggregator channel.
//! Each worker site *fetches* the mapper byte-code once (FETCH), pulls
//! work items from the master's queue (SHIPM round trips), maps them
//! locally, and pushes partial results to the aggregator, which reduces
//! them at the master.
//!
//! ```sh
//! cargo run --example mapreduce            # 3 workers, 30 items
//! cargo run --example mapreduce -- 5 100  # 5 workers, 100 items
//! ```

use ditico::{Env, LinkProfile, Topology};

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let items: i64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);

    // Expected result: sum of squares 1..=items.
    let expected: i64 = (1..=items).map(|i| i * i).sum();

    let master_src = format!(
        r#"
        // The work queue: hands out items 1..=N, then answers 0 (poison).
        def Queue(q, next) =
            q ? {{
                take(r) =
                    (if next <= {items} then r![next] else r![0])
                    | Queue[q, next + 1]
            }}
        // The reducer: folds partial sums until every worker reported.
        and Reduce(agg, acc, left) =
            agg ? {{
                part(v) =
                    if left > 1 then Reduce[agg, acc + v, left - 1]
                    else println("total", acc + v)
            }}
        in
        // The mapper is exported BY CODE: workers download it and run it
        // locally. It loops: take an item, square it, accumulate; on the
        // poison value it reports its partial sum to the aggregator.
        export def Mapper(queue, agg, partial) =
            new r (queue!take[r] | r?(item) =
                if item > 0 then Mapper[queue, agg, partial + item * item]
                else agg!part[partial])
        in
        export new queue in
        export new agg in
        (Queue[queue, 1] | Reduce[agg, 0, {workers}])
        "#
    );

    let mut env = Env::new(Topology {
        nodes: workers + 1,
        link: LinkProfile::myrinet(),
        ns_replicas: 1,
    })
    .site_on(0, "master", &master_src)
    .expect("master compiles");

    for w in 0..workers {
        env = env
            .site_on(
                w + 1,
                &format!("worker{w}"),
                r#"
                import Mapper from master in
                import queue from master in
                import agg from master in
                Mapper[queue, agg, 0]
                "#,
            )
            .expect("worker compiles");
    }

    let report = env.run().expect("map-reduce runs");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let master_out = report.output("master");
    println!("master says: {}", master_out.join("; "));
    assert_eq!(
        master_out,
        [format!("total {expected}")],
        "sum of squares 1..={items}"
    );

    let downloads: u64 = report
        .stats
        .iter()
        .filter(|(k, _)| k.starts_with("worker"))
        .map(|(_, s)| s.fetches)
        .sum();
    let served = report.stats["master"].fetches_served;
    println!(
        "{workers} workers fetched the Mapper byte-code ({downloads} requests, {served} served)"
    );
    println!(
        "fabric: {} packets, {} bytes, virtual completion {} µs",
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns / 1_000
    );
    println!("(the mapping ran at the workers; only items and partial sums crossed the network)");
}
