//! # tyco-calculus
//!
//! The executable formal semantics of DiTyCO networks (§2–§3 of the paper):
//!
//! * [`sigma`] — the identifier-translation function σ and its laws;
//! * [`value`] — runtime values (global channel identities = located names
//!   after scope extrusion) and persistent environments;
//! * [`interp`] — a fair small-step interpreter implementing COMM, INST and
//!   the mobility axioms SHIPM / SHIPO / FETCH, with per-rule counters;
//! * [`trace`] — reduction-rule accounting.
//!
//! The interpreter doubles as the tree-walking *baseline* against which the
//! byte-code virtual machine ([`tyco-vm`](../tyco_vm/index.html)) is
//! differentially tested and benchmarked (experiment C7 in DESIGN.md).

pub mod interp;
pub mod network_syntax;
pub mod sigma;
pub mod trace;
pub mod value;

pub use interp::{eval_binop, Network, Outcome, RtError, Scheduler};
pub use network_syntax::{normalize, CanonNet, Net};
pub use sigma::{sigma_class, sigma_name, sigma_proc};
pub use trace::{Counters, Rule};
pub use value::{Binding, ChanId, Env, SiteId, Val};
