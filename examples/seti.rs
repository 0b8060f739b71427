//! The SETI@home-style example of §4: a client downloads the `Install`
//! class from the SETI site once; thereafter the `Go` loop runs *at the
//! client*, pulling data chunks from the server's database and crunching
//! them locally.
//!
//! ```sh
//! cargo run --example seti            # 1 worker
//! cargo run --example seti -- 4      # 4 workers
//! ```

use ditico::{Env, LinkProfile, RunLimits, Topology};

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);

    let mut env = Env::new(Topology {
        nodes: workers + 1,
        link: LinkProfile::fast_ethernet(),
        ns_replicas: 1,
    })
    .site_on(
        0,
        "seti",
        r#"
        new database (
            export def Install() = println("worker installed") | Go[]
            and Go() =
                let data = database!newChunk[] in
                // (process) — the number crunching happens at the worker.
                (println("processed chunk", data) | Go[])
            in
            def Database(self, next) =
                self ? { newChunk(replyTo) = replyTo![next] | Database[self, next + 1] }
            in Database[database, 0]
        )
        "#,
    )
    .expect("seti site compiles");

    for w in 0..workers {
        env = env
            .site_on(
                w + 1,
                &format!("worker{w}"),
                "import Install from seti in Install[]",
            )
            .expect("worker compiles");
    }

    // The Go loop runs forever; bound the run.
    let mut built = env.build().expect("links check");
    let report = built.run_deterministic(RunLimits {
        max_instrs: 400_000,
        fuel_per_slice: 512,
        ..RunLimits::default()
    });

    for w in 0..workers {
        let lexeme = format!("worker{w}");
        let lines = report.output(&lexeme);
        println!(
            "{lexeme}: {} lines (first: {:?}, last: {:?})",
            lines.len(),
            lines.first(),
            lines.last()
        );
    }
    let seti = &report.stats["seti"];
    println!();
    println!(
        "SETI site served {} class download(s) — one per worker",
        seti.fetches_served
    );
    println!(
        "chunks served: {} (each one SHIPM request + SHIPM reply over the fabric)",
        seti.comm
    );
    println!(
        "fabric: {} packets, {} bytes, virtual time {} ms",
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns / 1_000_000
    );
}
