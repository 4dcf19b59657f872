//! The software graph (s-graph) intermediate representation and its
//! synthesis from CFSM characteristic functions.
//!
//! An s-graph (Balarin et al., Definition 1) is a DAG with one BEGIN source,
//! one END sink, two-or-more-way TEST vertices, and single-successor ASSIGN
//! vertices. It is the paper's intermediate form between the CFSM transition
//! function and C code: simple enough that every vertex corresponds
//! one-to-one to a C statement (so cost estimation is a graph traversal,
//! Section III-C), yet expressive enough to encode the BDD of the reactive
//! function directly (Theorem 1).
//!
//! * [`build`] — the paper's `build` procedure: structural translation of
//!   the characteristic-function BDD into an s-graph (Section III-B2);
//! * [`ite_chain`] — the TEST-free "outputs before support" form used by
//!   the Esterel v5 Boolean-circuit style (Section III-B3c);
//! * [`collapse`] — the experimental TEST-node collapsing optimization
//!   (Section III-B3d);
//! * [`SGraph::evaluate`] — the `evaluate` procedure of Definition 2,
//!   the reference executable semantics that tests check synthesized
//!   s-graphs against (the RTOS co-simulator runs the compiled vm object
//!   code instead);
//! * [`analysis::EntryCopies`] — which state variables and whether the
//!   control state a reaction routine copies on entry, read by every
//!   back end and estimator;
//! * [`execute`] — convenience wrapper running a full CFSM reaction
//!   through an s-graph (evaluating tests lazily, executing actions).
//!
//! # Examples
//!
//! ```
//! use polis_cfsm::{Cfsm, OrderScheme, ReactiveFn};
//! use polis_expr::{Expr, Type, Value};
//! use polis_sgraph::build;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Cfsm::builder("simple");
//! b.input_valued("c", Type::uint(8));
//! b.output_pure("y");
//! b.state_var("a", Type::uint(8), Value::Int(0));
//! let s0 = b.ctrl_state("awaiting");
//! let eq = b.test("a_eq_c", Expr::var("a").eq(Expr::var("c_value")));
//! b.transition(s0, s0).when_present("c").when_test(eq)
//!     .assign("a", Expr::int(0)).emit("y").done();
//! b.transition(s0, s0).when_present("c").when_not_test(eq)
//!     .assign("a", Expr::var("a").add(Expr::int(1))).done();
//! let simple = b.build()?;
//!
//! let mut rf = ReactiveFn::build(&simple);
//! rf.sift(OrderScheme::OutputsAfterSupport);
//! let sg = build(&rf)?;
//! assert!(sg.num_tests() >= 2); // present_c and a == ?c
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub use analysis::BufferPolicy;
mod builder;
mod chain;
mod collapse;
mod cond;
mod eval;
mod graph;

pub use builder::{build, BuildError};
pub use chain::ite_chain;
pub use collapse::collapse;
pub use cond::Cond;
pub use eval::{execute, input_values, EvalError, EvalOutcome, SgEnv};
pub use graph::{AssignLabel, ComputedTarget, NodeId, SGraph, SGraphStats, SNode, TestLabel};
