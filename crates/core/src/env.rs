//! The DiTyCO environment: a declarative builder over the distributed
//! runtime, with link-time interface checking and a reference semantics
//! for differential testing.

use crate::program::{Program, ProgramError};
use ditico_rt::{ChaosPlan, Cluster, FabricMode, LinkProfile, RunLimits, RunReport, SiteInterface};
use std::collections::HashMap;
use std::fmt;
use tyco_calculus::{Network, Outcome, RtError, Scheduler};
use tyco_types::infer::ImportKind;
use tyco_vm::codec::TypeStamp;
use tyco_vm::word::NodeId;

/// Environment-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    Program(String, ProgramError),
    /// Link-time protocol mismatch between an importer and an exporter
    /// (the dynamic half of the hybrid check, §7).
    Interface {
        importer: String,
        exporter: String,
        name: String,
        expected: String,
        actual: String,
    },
    /// An import refers to a site that is never defined.
    UnknownSite {
        importer: String,
        site: String,
    },
    /// An import names an identifier its exporter never exports (the
    /// import would block forever).
    MissingExport {
        importer: String,
        exporter: String,
        name: String,
    },
    Reference(String),
    /// An invalid fault-injection plan (rates over budget, bad events).
    Chaos(String),
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::Program(site, e) => write!(f, "in site `{site}`: {e}"),
            EnvError::Interface {
                importer,
                exporter,
                name,
                expected,
                actual,
            } => write!(
                f,
                "interface mismatch: `{importer}` imports `{name}` from `{exporter}` expecting \
                 `{expected}`, but it is exported as `{actual}`"
            ),
            EnvError::UnknownSite { importer, site } => {
                write!(f, "site `{importer}` imports from unknown site `{site}`")
            }
            EnvError::MissingExport {
                importer,
                exporter,
                name,
            } => write!(
                f,
                "site `{importer}` imports `{name}` from `{exporter}`, which never exports it \
                 (the import would block forever)"
            ),
            EnvError::Reference(e) => write!(f, "reference semantics: {e}"),
            EnvError::Chaos(e) => write!(f, "chaos plan: {e}"),
        }
    }
}

impl std::error::Error for EnvError {}

/// How sites are mapped onto nodes and how the fabric behaves.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of nodes; sites are placed round-robin unless pinned.
    pub nodes: usize,
    pub mode: FabricMode,
    pub link: LinkProfile,
    /// Name-service ring size: the first `ns_replicas` nodes each own a
    /// hash slice of the exports and replicate it to their successor
    /// (1: the paper's central service; clamped to `nodes`).
    pub ns_replicas: usize,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            nodes: 1,
            mode: FabricMode::Ideal,
            link: LinkProfile::ideal(),
            ns_replicas: 1,
        }
    }
}

impl Topology {
    /// The paper's hardware platform (Fig. 1): four nodes on a Myrinet
    /// switch, deterministic virtual time.
    pub fn paper_cluster() -> Topology {
        Topology {
            nodes: 4,
            mode: FabricMode::Virtual,
            link: LinkProfile::myrinet(),
            ns_replicas: 1,
        }
    }
}

/// A site declaration queued in the builder.
struct SiteDecl {
    lexeme: String,
    program: Program,
    pin: Option<usize>,
}

/// The DiTyCO environment builder.
pub struct Env {
    topology: Topology,
    sites: Vec<SiteDecl>,
    /// Skip the link-time interface check (to demonstrate pure dynamic
    /// checking at reduction time).
    pub check_interfaces: bool,
    /// Worker-pool size for threaded runs (None: available parallelism).
    workers: Option<usize>,
    /// Per-node code-cache capacity (None: the runtime default).
    code_cache: Option<usize>,
    /// Seeded fault-injection plan installed at build time.
    chaos: Option<ChaosPlan>,
    /// Name-service ring size and lease TTL replacing the topology's
    /// (`ns_replicas`, no leases).
    ns_shards: Option<(usize, u64)>,
}

impl Env {
    pub fn new(topology: Topology) -> Env {
        Env {
            topology,
            sites: Vec::new(),
            check_interfaces: true,
            workers: None,
            code_cache: None,
            chaos: None,
            ns_shards: None,
        }
    }

    /// Shard the name service over the first `shards` nodes by consistent
    /// hashing, with each shard replicated to its ring successor and
    /// resolved bindings lease-cached at importing nodes for `lease_ms`
    /// milliseconds (0 keeps sharding but disables the cache). The
    /// default — no call — is a ring of [`Topology::ns_replicas`] nodes
    /// without leases; with 1 replica, the paper's centralized service.
    pub fn ns_shards(mut self, shards: usize, lease_ms: u64) -> Env {
        self.ns_shards = Some((shards, lease_ms.saturating_mul(1_000_000)));
        self
    }

    /// Set the worker-pool size used by threaded runs (the M:N site
    /// scheduler); defaults to the machine's available parallelism.
    pub fn workers(mut self, workers: usize) -> Env {
        self.workers = Some(workers);
        self
    }

    /// Set every node's content-addressed code-cache capacity, in images.
    /// Zero is a store that holds nothing: every shipment is a full
    /// image (the uncached baseline).
    pub fn code_cache(mut self, capacity: usize) -> Env {
        self.code_cache = Some(capacity);
        self
    }

    /// Install a seeded fault-injection plan ([`ChaosPlan`]): per-packet
    /// drop/duplicate/delay rates plus timed partition/heal/kill/restart
    /// events. The same seed and plan replay the same injected schedule;
    /// the run report's `chaos` field tallies every injected event.
    pub fn chaos(mut self, plan: ChaosPlan) -> Env {
        self.chaos = Some(plan);
        self
    }

    /// A single-node environment with an ideal fabric.
    pub fn local() -> Env {
        Env::new(Topology::default())
    }

    /// Declare a site from source (placed round-robin).
    pub fn site(mut self, lexeme: &str, source: &str) -> Result<Env, EnvError> {
        let program =
            Program::compile(source).map_err(|e| EnvError::Program(lexeme.to_string(), e))?;
        self.sites.push(SiteDecl {
            lexeme: lexeme.to_string(),
            program,
            pin: None,
        });
        Ok(self)
    }

    /// Declare a site pinned to a specific node index.
    pub fn site_on(mut self, node: usize, lexeme: &str, source: &str) -> Result<Env, EnvError> {
        let program =
            Program::compile(source).map_err(|e| EnvError::Program(lexeme.to_string(), e))?;
        self.sites.push(SiteDecl {
            lexeme: lexeme.to_string(),
            program,
            pin: Some(node),
        });
        Ok(self)
    }

    /// Link-time interface check: every import expectation must be
    /// compatible with the exporter's inferred interface (the paper's
    /// hybrid static/dynamic type checking applied at deployment).
    fn check_links(&self) -> Result<(), EnvError> {
        if !self.check_interfaces {
            return Ok(());
        }
        let by_lexeme: HashMap<&str, &SiteDecl> =
            self.sites.iter().map(|s| (s.lexeme.as_str(), s)).collect();
        for s in &self.sites {
            for (site, name, kind) in &s.program.types.imports {
                let Some(exporter) = by_lexeme.get(site.as_str()) else {
                    return Err(EnvError::UnknownSite {
                        importer: s.lexeme.clone(),
                        site: site.clone(),
                    });
                };
                // Exports are syntactically static (`export new` /
                // `export def`), so an identifier absent from the
                // exporter's interface can never appear: the import would
                // block forever. Catch it at link time.
                let exported = match kind {
                    ImportKind::Name => exporter.program.types.exported_names.contains_key(name),
                    ImportKind::Class => exporter.program.types.exported_classes.contains_key(name),
                };
                if !exported {
                    return Err(EnvError::MissingExport {
                        importer: s.lexeme.clone(),
                        exporter: site.clone(),
                        name: name.clone(),
                    });
                }
                if *kind == ImportKind::Name {
                    let expected = s
                        .program
                        .types
                        .import_expectations
                        .get(&(site.clone(), name.clone()));
                    let actual = exporter.program.types.exported_names.get(name);
                    if let (Some(exp), Some(act)) = (expected, actual) {
                        if !tyco_types::compatible(exp, act) {
                            return Err(EnvError::Interface {
                                importer: s.lexeme.clone(),
                                exporter: site.clone(),
                                name: name.clone(),
                                expected: exp.to_string(),
                                actual: act.to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Materialize the cluster (nodes, daemons, sites).
    pub fn build(self) -> Result<BuiltEnv, EnvError> {
        self.build_inner(None)
    }

    /// Materialize **one process's partition** of a multi-process cluster:
    /// the full topology is built (every node gets a daemon id, every site
    /// a deterministic [`SiteId`](tyco_vm::word::SiteId)), but only sites
    /// placed on `local_nodes` get a VM — the rest are declared via
    /// [`Cluster::add_remote_site`] so the name service can still resolve
    /// them. Every process of the run must build from the *same*
    /// environment so placements and ids agree across the wire.
    pub fn build_partition(self, local_nodes: &[usize]) -> Result<BuiltEnv, EnvError> {
        let local: std::collections::HashSet<usize> = local_nodes.iter().copied().collect();
        self.build_inner(Some(local))
    }

    fn build_inner(
        self,
        local: Option<std::collections::HashSet<usize>>,
    ) -> Result<BuiltEnv, EnvError> {
        self.check_links()?;
        // A ring never outgrows the topology: its keys would hash to
        // nodes that do not exist.
        let node_count = self.topology.nodes.max(1);
        let mut cluster = Cluster::new(
            self.topology.mode,
            self.topology.link,
            self.topology.ns_replicas.min(node_count),
        );
        if let Some(w) = self.workers {
            cluster.sched.workers = w;
        }
        if let Some(c) = self.code_cache {
            cluster.set_code_cache(c);
        }
        if let Some(plan) = self.chaos {
            cluster.set_chaos(plan).map_err(EnvError::Chaos)?;
        }
        if let Some((shards, lease_ns)) = self.ns_shards {
            // Before add_node: every daemon is built around the map.
            cluster.set_ns_sharding(shards.min(node_count), lease_ns);
        }
        let nodes: Vec<NodeId> = (0..node_count).map(|_| cluster.add_node()).collect();
        let mut placements = Vec::new();
        let check_interfaces = self.check_interfaces;
        for (i, s) in self.sites.into_iter().enumerate() {
            let node_idx = s.pin.unwrap_or(i % nodes.len()) % nodes.len();
            let node = nodes[node_idx];
            if local.as_ref().is_some_and(|set| !set.contains(&node_idx)) {
                // Hosted by a peer process: identity only, no VM.
                cluster.add_remote_site(&s.lexeme, node);
            } else {
                // In pure-dynamic mode the sites carry no stamps and the
                // name service has no static evidence to refuse on.
                let iface = if check_interfaces {
                    site_interface(&s.program.types)
                } else {
                    SiteInterface::default()
                };
                cluster.add_site_with_interface(node, &s.lexeme, s.program.code.clone(), iface);
            }
            placements.push((s.lexeme.clone(), node, s.program));
        }
        Ok(BuiltEnv {
            cluster,
            placements,
        })
    }

    /// Build and run deterministically with default limits.
    pub fn run(self) -> Result<RunReport, EnvError> {
        Ok(self.build()?.run_deterministic(RunLimits::default()))
    }

    /// Run the same site programs on the calculus interpreter — the
    /// reference semantics used for differential testing and as the
    /// experiment-C7 baseline.
    pub fn run_reference(&self, max_steps: u64) -> Result<Outcome, EnvError> {
        self.run_reference_with(Scheduler::RoundRobin, max_steps)
    }

    pub fn run_reference_with(
        &self,
        scheduler: Scheduler,
        max_steps: u64,
    ) -> Result<Outcome, EnvError> {
        let mut net = Network::new().with_scheduler(scheduler);
        for s in &self.sites {
            net.add_site(&s.lexeme, s.program.ast.clone());
        }
        net.run(max_steps)
            .map_err(|e: RtError| EnvError::Reference(e.to_string()))
    }

    /// The declared site lexemes, in order.
    pub fn lexemes(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.lexeme.clone()).collect()
    }
}

/// Derive the runtime type stamps a site ships with its name-service
/// traffic from the type checker's summary: exported channel names carry
/// the stamp of their inferred type; `import`s of names carry the stamp of
/// the type the importer's body requires.
fn site_interface(types: &tyco_types::TypeSummary) -> SiteInterface {
    fn stamp(t: &tyco_types::Type) -> TypeStamp {
        TypeStamp {
            fingerprint: tyco_types::fingerprint(t),
            canonical: tyco_types::canonical(t),
        }
    }
    let mut iface = SiteInterface::default();
    for (name, ty) in &types.exported_names {
        iface.exports.insert(name.clone(), stamp(ty));
    }
    for ((site, name), ty) in &types.import_expectations {
        iface
            .imports
            .insert((site.clone(), name.clone()), stamp(ty));
    }
    iface
}

/// A materialized environment ready to run.
pub struct BuiltEnv {
    pub cluster: Cluster,
    /// (lexeme, node, program) for each site.
    pub placements: Vec<(String, NodeId, Program)>,
}

impl BuiltEnv {
    pub fn run_deterministic(&mut self, limits: RunLimits) -> RunReport {
        self.cluster.run_deterministic(limits)
    }

    pub fn run_threaded(self, wall: std::time::Duration) -> RunReport {
        self.cluster.run_threaded(wall)
    }

    /// Run this process's partition over the real TCP transport (built
    /// with [`Env::build_partition`]). `cfg.local_nodes` must match the
    /// partition the environment was built for.
    pub fn run_distributed(
        self,
        cfg: ditico_rt::TransportConfig,
        wall: std::time::Duration,
    ) -> Result<RunReport, String> {
        self.cluster.run_distributed(cfg, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_env_runs_cell() {
        let report = Env::local()
            .site(
                "main",
                r#"
                def Cell(self, v) =
                    self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
                in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print(w)))
                "#,
            )
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.output("main"), ["9".to_string()]);
    }

    #[test]
    fn paper_cluster_topology_places_sites() {
        let built = Env::new(Topology::paper_cluster())
            .site("a", "println(\"a\")")
            .unwrap()
            .site("b", "println(\"b\")")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(built.placements[0].1, NodeId(0));
        assert_eq!(built.placements[1].1, NodeId(1));
    }

    #[test]
    fn interface_check_rejects_protocol_mismatch() {
        // Importer sends `go(int)`, exporter offers only `halt()`.
        let err = Env::new(Topology {
            nodes: 2,
            ..Topology::default()
        })
        .site("server", "export new p in p?{ halt() = 0 }")
        .unwrap()
        .site("client", "import p from server in p!go[1]")
        .unwrap()
        .run()
        .unwrap_err();
        assert!(matches!(err, EnvError::Interface { .. }), "{err}");
    }

    #[test]
    fn interface_check_accepts_compatible() {
        let report = Env::new(Topology {
            nodes: 2,
            ..Topology::default()
        })
        .site(
            "server",
            "export new p in p?{ go(n) = print(n), halt() = 0 }",
        )
        .unwrap()
        .site("client", "import p from server in p!go[1]")
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report.output("server"), ["1".to_string()]);
    }

    #[test]
    fn unknown_site_rejected_at_link_time() {
        let err = Env::local()
            .site("client", "import p from nowhere in p![1]")
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, EnvError::UnknownSite { .. }), "{err}");
    }

    #[test]
    fn dynamic_check_still_fires_when_static_disabled() {
        let mut env = Env::new(Topology {
            nodes: 2,
            ..Topology::default()
        });
        env.check_interfaces = false;
        let report = env
            .site("server", "export new p in p?{ halt() = 0 }")
            .unwrap()
            .site("client", "import p from server in p!go[1]")
            .unwrap()
            .run()
            .unwrap();
        // The protocol error shows up at reduction time on the server.
        assert!(
            report
                .errors
                .iter()
                .any(|(s, e)| s == "server" && e.to_string().contains("go")),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn reference_semantics_agrees_on_cell() {
        let env = Env::local()
            .site("main", "new x (x!go[2] | x?{ go(n) = print(n * 10) })")
            .unwrap();
        let reference = env.run_reference(100_000).unwrap();
        let vm = env.run().unwrap();
        assert_eq!(reference.line_multiset(), {
            let mut v: Vec<String> = vm
                .outputs
                .values()
                .flat_map(|l| l.iter().cloned())
                .collect();
            v.sort();
            v
        });
    }
}
