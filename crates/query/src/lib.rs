//! adsafe-query: a typed rule-query language compiled to a bytecode VM
//! over adsafe facts.
//!
//! Assessment teams extend the rule set without writing Rust: a pack of
//! `.aq` declarations like
//!
//! ```text
//! rule "perception-hot-functions" {
//!   iso t1r1
//!   function where cc > 10 and returns > 1 in module "perception"
//!     -> warn "function `{name}` has cc {cc} with {returns} exits"
//! }
//! ```
//!
//! is lexed ([`lexer`]), parsed resiliently ([`parser`] — one malformed
//! rule never takes down its neighbours), typechecked against the facts
//! schema ([`schema`], [`typeck`]), and lowered ([`compile`]) to a
//! compact forward-jump register bytecode ([`bytecode`]) evaluated by a
//! defensive VM ([`vm`]) over per-file fact rows laid out by [`rows`].
//! Rules touching program-scope facts (`recursive`) are marked
//! program-scoped; every other rule is file-scoped. [`rule::RulePack`]
//! loads packs with per-rule fault containment.
//!
//! Rules are data: the bundled pack ([`BUILTIN_PACK`]) carries twenty-five
//! rules of the default set. A rule has one or more arms, each a
//! `selector [in module] [where] -> severity "message"` clause over one
//! shared selector; a row's finding comes from the first arm that
//! matches it. The `adsafe` pipeline evaluates its
//! file-scoped rules in each file's task, where their findings join the
//! cached facts record, and its program-scoped rule and any user pack in
//! one facts-row pass per file after the file round.
//!
//! Determinism contract: compilation is pure, evaluation is pure over
//! the row set, rows derive from facts in file order — so query
//! diagnostics are byte-stable across worker counts and cache states.

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod rows;
pub mod rule;
pub mod schema;
pub mod typeck;
pub mod vm;

pub use ast::{Arm, RuleDecl, Selector, SeverityKw};
pub use bytecode::Program;
pub use parser::{parse_pack, ParseError};
pub use rows::{FileRow, FunctionRow, GlobalRow, Row, SiteRow};
pub use rule::{intern_static, CompiledArm, CompiledRule, PackFault, RulePack, BUILTIN_PACK};
pub use vm::Value;

/// Pretty-prints a pack of rule declarations in canonical form.
pub use ast::pretty_pack;
