//! # ditico
//!
//! **DiTyCO** — *a concurrent programming environment with support for
//! distributed computations and code mobility* (CLUSTER 2000), as a Rust
//! library.
//!
//! The public facade over the full stack:
//!
//! * [`Program`] — source → parse → desugar → Damas–Milner type check →
//!   byte-code, in one value;
//! * [`Env`] / [`Topology`] — declare sites, place them on nodes, pick a
//!   link (ideal, or modeled in virtual time) and run, with link-time
//!   interface checking between importers and exporters;
//! * [`Shell`] — the TyCOsh-style command interpreter;
//! * re-exports of the underlying layers: [`tyco_syntax`], [`tyco_types`],
//!   [`tyco_calculus`] (the executable formal semantics and differential
//!   baseline), [`tyco_vm`] (the byte-code machine) and [`ditico_rt`]
//!   (sites / nodes / TyCOd / name service / fabric).
//!
//! ## Quickstart
//!
//! ```
//! use ditico::{Env, Topology};
//!
//! let report = Env::new(Topology { nodes: 2, ..Topology::default() })
//!     .site("server", "def Srv(s) = s?{ val(x, r) = r![x * 2] | Srv[s] } \
//!                      in export new p in Srv[p]").unwrap()
//!     .site("client", "import p from server in \
//!                      new a (p!val[21, a] | a?(y) = print(y))").unwrap()
//!     .run().unwrap();
//! assert_eq!(report.output("client"), ["42".to_string()]);
//! ```

pub mod env;
pub mod program;
pub mod shell;

pub use env::{BuiltEnv, Env, EnvError, Topology};
pub use program::{Program, ProgramError};
pub use shell::Shell;

// The full stack, re-exported for downstream use.
pub use ditico_rt;
pub use tyco_calculus;
pub use tyco_syntax;
pub use tyco_types;
pub use tyco_vm;

pub use ditico_rt::{
    parse_peer_list, ChaosEvent, ChaosPlan, ChaosReport, ChaosSpec, Cluster, LinkProfile, NsStats,
    RunLimits, RunReport, TransportConfig, TransportReport,
};
