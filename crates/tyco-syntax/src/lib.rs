//! # tyco-syntax
//!
//! Lexer, parser, AST, desugaring and pretty-printer for the **DiTyCO**
//! source language — the distributed extension of the TyCO process calculus
//! (Typed Concurrent Objects) described in *"A Concurrent Programming
//! Environment with Support for Distributed Computations and Code
//! Mobility"* (CLUSTER 2000).
//!
//! The concrete syntax follows the paper:
//!
//! ```text
//! def Cell(self, v) =
//!     self ? {
//!         read(r)  = r![v] | Cell[self, v],
//!         write(u) = Cell[self, u]
//!     }
//! in new x Cell[x, 9] | new y Cell[y, true]
//! ```
//!
//! Entry points: [`parse_program`], [`desugar::desugar`], [`pretty::pretty`].

pub mod ast;
pub mod desugar;
pub mod lexer;
pub mod parser;
pub mod pos;
pub mod pretty;
pub mod token;

#[cfg(feature = "arbitrary")]
pub mod arbitrary;

pub use ast::{
    BinOp, ClassDef, ClassRef, Expr, ExprBuilder, Ident, Lit, Method, NameRef, Proc, Term, UnOp,
    VAL_LABEL,
};
pub use parser::{parse_expr, parse_program, ParseError};
pub use pos::{Pos, Span};

/// Parse and desugar a program in one step: the form every downstream
/// consumer (type checker, compiler, calculus) expects.
pub fn parse_core(src: &str) -> Result<Proc, ParseError> {
    Ok(desugar::desugar(parse_program(src)?))
}
