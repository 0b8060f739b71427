//! Site-count scaling sweep of the M:N work-stealing scheduler at a fixed
//! total message volume.
//!
//! The workload is a ring over 4 nodes: site `i` exports a slot, imports
//! its successor's, streams `TOTAL/sites` pings around the ring and counts
//! the same number arriving before reporting "done". Total traffic is
//! constant across sweep sizes, so the sweep isolates how the scheduler
//! scales with site count, not with work. A point counts only if every
//! site reported "done" and the run terminated on its own.

use std::time::{Duration, Instant};

use ditico_rt::sched::SchedConfig;
use ditico_rt::{Cluster, LinkProfile};
use tyco_vm::word::NodeId;

use crate::json::Json;
use crate::{point, round, vals};

/// Sweep points (sites spread round-robin over `NODES` nodes).
const SIZES: [usize; 5] = [8, 64, 256, 1024, 4096];
/// Total pings crossing the fabric per run, split evenly across sites.
const TOTAL_MSGS: u64 = 98_304;
/// Nodes in the cluster (the paper's 4-node platform).
const NODES: usize = 4;
/// Wall limit for scheduler runs (expected to finish far earlier).
const SCHED_WALL: Duration = Duration::from_secs(120);

fn ring_site_src(i: usize, n: usize, msgs: u64) -> String {
    let next = (i + 1) % n;
    format!(
        r#"
        export new slot{i} in
        import slot{next} from s{next} in (
            def Send(j) = if j > 0 then (slot{next}!ping[j] | Send[j - 1]) else 0
            and Recv(self, r) =
                if r > 0 then self ? {{ ping(x) = Recv[self, r - 1] }}
                else println("done")
            in (Send[{msgs}] | Recv[slot{i}, {msgs}])
        )
        "#
    )
}

fn build(sites: usize, msgs_per_site: u64) -> Cluster {
    let mut c = Cluster::new(LinkProfile::ideal(), 1);
    let nodes: Vec<NodeId> = (0..NODES).map(|_| c.add_node()).collect();
    for i in 0..sites {
        c.add_site_src(
            nodes[i % NODES],
            &format!("s{i}"),
            &ring_site_src(i, sites, msgs_per_site),
        )
        .expect("ring site compiles");
    }
    c
}

/// One threaded run on `workers` workers (0: one per core).
fn run_sched(name: &str, smoke: bool, sites: usize, msgs_per_site: u64, workers: usize) -> Json {
    let mut c = build(sites, msgs_per_site);
    c.sched = SchedConfig {
        workers,
        ..SchedConfig::default()
    };
    let start = Instant::now();
    let report = c.run_threaded(SCHED_WALL);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        report.errors.is_empty(),
        "run produced VM errors: {:?}",
        report.errors
    );
    assert!(
        report.quiescent,
        "{name}: hit the wall limit instead of terminating"
    );
    let completed = (0..sites)
        .filter(|i| report.output(&format!("s{i}")).iter().any(|l| l == "done"))
        .count();
    assert_eq!(completed, sites, "{name}: only {completed} sites finished");
    let st = &report.sched;
    let msgs_per_sec = report.fabric_packets as f64 / elapsed;
    eprintln!(
        "   {name}: {msgs_per_sec:.0} msgs/s in {elapsed:.2}s ({} workers, {} slices, {} steals)",
        st.workers, st.slices, st.steals
    );
    point(
        name,
        smoke,
        vals! {
            "sites" => sites,
            "msgs_per_site" => msgs_per_site,
            "fabric_packets" => report.fabric_packets,
        },
        vals! {
            "msgs_per_sec" => msgs_per_sec.round(),
            "elapsed_s" => round(elapsed, 3),
            "workers" => st.workers,
            "slices" => st.slices,
            "steals" => st.steals,
            "injector_pushes" => st.injector_pushes,
            "parks" => st.parks,
            "unparks" => st.unparks,
            "max_ready_depth" => st.max_ready_depth,
            "max_site_slices" => st.max_site_slices,
        },
    )
}

pub fn run(smoke: bool) -> Vec<Json> {
    // Smoke: many small sites on two workers, so sites migrate between
    // workers even on a one-core box; then the smallest sweep size at
    // reduced volume on the default pool.
    let mut points = vec![
        run_sched("256 sites x 32 on 2 workers", true, 256, 32, 2),
        run_sched("8 sites x 1024", true, 8, 1024, 0),
    ];
    if !smoke {
        for sites in SIZES {
            let msgs_per_site = TOTAL_MSGS / sites as u64;
            points.push(run_sched(
                &format!("{sites} sites"),
                false,
                sites,
                msgs_per_site,
                0,
            ));
        }
    }
    points
}
