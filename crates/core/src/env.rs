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
    /// Set one `key=value` of the topology grammar that `.net` specs and
    /// the shell share: `nodes=N`, `fabric=ideal|virtual`,
    /// `link=ideal|myrinet|ethernet|wan`, `replicas=K`.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let count = |what: &str| {
            value
                .parse()
                .map_err(|e| format!("bad {what} `{value}`: {e}"))
        };
        match key {
            "nodes" => self.nodes = count("nodes")?,
            "replicas" => self.ns_replicas = count("replicas")?,
            "fabric" => {
                self.mode = match value {
                    "ideal" => FabricMode::Ideal,
                    "virtual" => FabricMode::Virtual,
                    other => return Err(format!("bad fabric `{other}`")),
                }
            }
            "link" => {
                self.link = match value {
                    "ideal" => LinkProfile::ideal(),
                    "myrinet" => LinkProfile::myrinet(),
                    "ethernet" => LinkProfile::fast_ethernet(),
                    "wan" => LinkProfile::wan(),
                    other => return Err(format!("bad link `{other}`")),
                }
            }
            other => return Err(format!("unknown topology key `{other}`")),
        }
        Ok(())
    }

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

/// A site declaration queued in the builder: no AST, and byte-code only
/// if this process hosts its node.
struct SiteDecl {
    lexeme: String,
    node: usize,
    source: String,
    types: tyco_types::TypeSummary,
    code: Option<tyco_vm::Program>,
}

/// The DiTyCO environment builder.
pub struct Env {
    topology: Topology,
    sites: Vec<SiteDecl>,
    /// Per node index: does this process run its sites?
    hosted: Vec<bool>,
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
            hosted: vec![true; topology.nodes.max(1)],
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

    /// Make this environment **one process's partition** of a
    /// multi-process cluster. Every site is parsed and type-checked when
    /// it is declared, since the link-time check needs every interface,
    /// but only sites placed on `local_nodes` (by default, all) are
    /// compiled and get a VM. The rest keep an identity, so every
    /// [`SiteId`](tyco_vm::word::SiteId) agrees across processes built
    /// from the same declarations. A compile error is thus reported only
    /// by the process that hosts its site. No AST outlives its site's
    /// declaration. Must come before the first site.
    pub fn hosting(mut self, local_nodes: &[usize]) -> Env {
        assert!(self.sites.is_empty(), "Env::hosting after a site");
        for (i, h) in self.hosted.iter_mut().enumerate() {
            *h = local_nodes.contains(&i);
        }
        self
    }

    /// Declare a site from source (placed round-robin).
    pub fn site(self, lexeme: &str, source: &str) -> Result<Env, EnvError> {
        let next = self.sites.len();
        self.site_on(next, lexeme, source)
    }

    /// Declare a site pinned to a specific node index.
    pub fn site_on(mut self, node: usize, lexeme: &str, source: &str) -> Result<Env, EnvError> {
        let node = node % self.hosted.len();
        let err = |e| EnvError::Program(lexeme.to_string(), e);
        let (ast, types) = Program::front_end(source).map_err(err)?;
        let code = self.hosted[node]
            .then(|| Program::back_end(&ast))
            .transpose()
            .map_err(err)?;
        self.sites.push(SiteDecl {
            lexeme: lexeme.to_string(),
            node,
            source: source.to_string(),
            types,
            code,
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
            for (site, name, kind) in &s.types.imports {
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
                    ImportKind::Name => exporter.types.exported_names.contains_key(name),
                    ImportKind::Class => exporter.types.exported_classes.contains_key(name),
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
                        .types
                        .import_expectations
                        .get(&(site.clone(), name.clone()));
                    let actual = exporter.types.exported_names.get(name);
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

    /// Materialize the cluster (nodes, daemons, sites); a site this
    /// process does not [host](Env::hosting) gets only an identity.
    pub fn build(self) -> Result<BuiltEnv, EnvError> {
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
        let mut placements = Vec::with_capacity(self.sites.len());
        for s in self.sites {
            let node = nodes[s.node];
            match s.code {
                // Hosted by a peer process: identity only, no VM.
                None => cluster.add_remote_site(&s.lexeme, node),
                Some(code) => {
                    // In pure-dynamic mode the sites carry no stamps and
                    // the name service has no static evidence to refuse on.
                    let iface = self.check_interfaces.then(|| site_interface(&s.types));
                    cluster.add_site_with_interface(
                        node,
                        &s.lexeme,
                        code,
                        iface.unwrap_or_default(),
                    )
                }
            };
            placements.push((s.lexeme, node));
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
            let ast = tyco_syntax::parse_core(&s.source).expect("a declared site parses");
            net.add_site(&s.lexeme, ast);
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
    /// (lexeme, node) for each site, in declaration order.
    pub placements: Vec<(String, NodeId)>,
}

impl BuiltEnv {
    pub fn run_deterministic(&mut self, limits: RunLimits) -> RunReport {
        self.cluster.run_deterministic(limits)
    }

    pub fn run_threaded(self, wall: std::time::Duration) -> RunReport {
        self.cluster.run_threaded(wall)
    }

    /// Run this process's partition over the real TCP transport.
    /// `cfg.local_nodes` must match the nodes the environment was
    /// [`hosting`](Env::hosting).
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
        assert_eq!(
            built.placements,
            [("a".to_string(), NodeId(0)), ("b".to_string(), NodeId(1))]
        );
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

    /// A def group one class over the compiler's limit: it parses and
    /// type-checks, so its only fault is compile-time.
    fn too_large_group() -> String {
        let classes: Vec<String> = (0..256).map(|i| format!("K{i}(x) = 0")).collect();
        format!("def {} in K0[1]", classes.join(" and "))
    }

    /// A two-node environment: node 0 runs `zero`, node 1 a client, and
    /// the process hosts `hosted`.
    fn partition(hosted: &[usize], zero: &str, client: &str) -> Result<BuiltEnv, EnvError> {
        Env::new(Topology {
            nodes: 2,
            ..Topology::default()
        })
        .hosting(hosted)
        .site_on(0, "zero", zero)?
        .site_on(1, "client", client)?
        .build()
    }

    #[test]
    fn a_partition_compiles_only_the_sites_it_hosts() {
        let big = too_large_group();
        let built = partition(&[1], &big, "println(\"x\")").expect("not compiled here");
        assert_eq!(built.placements[0], ("zero".to_string(), NodeId(0)));
        for hosted in [&[0][..], &[0, 1]] {
            let err = partition(hosted, &big, "println(\"x\")").err();
            assert!(
                matches!(&err, Some(EnvError::Program(s, ProgramError::Compile(_))) if s == "zero"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_remote_parse_or_type_error_is_refused_in_every_partition() {
        for hosted in [&[0][..], &[1], &[0, 1]] {
            let err = partition(hosted, "def (", "0").err();
            assert!(
                matches!(&err, Some(EnvError::Program(_, ProgramError::Parse(_)))),
                "{err:?}"
            );
            let err = partition(hosted, "new x (x![1] | x![true])", "0").err();
            assert!(
                matches!(&err, Some(EnvError::Program(_, ProgramError::Type(_)))),
                "{err:?}"
            );
        }
    }

    #[test]
    fn an_interface_mismatch_with_a_remote_exporter_is_refused() {
        for hosted in [&[0][..], &[1], &[0, 1]] {
            let err = partition(
                hosted,
                "export new p in p?{ halt() = 0 }",
                "import p from zero in p!go[1]",
            )
            .err();
            assert!(matches!(err, Some(EnvError::Interface { .. })), "{err:?}");
        }
    }

    #[test]
    #[should_panic(expected = "Env::hosting after a site")]
    fn hosting_comes_before_the_first_site() {
        let _ = Env::local().site("a", "0").unwrap().hosting(&[0]);
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
