//! Software cost and performance estimation on s-graphs (Section III-C).
//!
//! The estimator assigns each s-graph vertex a pair of cost parameters —
//! execution cycles and code size — determined once per target system by
//! measuring a suite of sample probe routines (the paper uses ~20 benchmark
//! C functions of 10–50 statements examined with a profiler or an
//! assembly-level analysis tool; here the probes are measured through the
//! [`polis_vm`] assembler and object-code analyzer, the only interfaces a
//! profiler would expose). Estimation is then one backward pass over the reachable s-graph, children before parents
//! (`O(|V| + |E|)`), which yields:
//!
//! * **code size** — the sum of the per-vertex size parameters;
//! * **maximum cycles** — the longest BEGIN→END path, PERT's answer;
//! * **minimum cycles** — the shortest BEGIN→END path, which on the DAG
//!   is the path Dijkstra's algorithm would find.
//!
//! The false-path-aware bound ([`max_cycles_false_path_aware`]) reuses
//! the same pass: its fallback is the pass's longest path, and its
//! path-sensitive search reads the pass's per-vertex cycles.
//!
//! The paper's parameter inventory is 17 timing + 15 size + 4 system
//! parameters; ours is the same scheme with two extra pairs for the
//! control-state bit operations our ISA exposes directly
//! (see [`CostParams`]).
//!
//! # Examples
//!
//! ```
//! use polis_cfsm::{Cfsm, ReactiveFn};
//! use polis_estimate::{calibrate, estimate};
//! use polis_expr::{Expr, Type, Value};
//! use polis_sgraph::build;
//! use polis_vm::{BufferPolicy, Profile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Cfsm::builder("m");
//! b.input_pure("go");
//! b.output_pure("done");
//! let s = b.ctrl_state("s");
//! b.transition(s, s).when_present("go").emit("done").done();
//! let m = b.build()?;
//! let rf = ReactiveFn::build(&m);
//! let sg = build(&rf)?;
//! let params = calibrate(Profile::Mcu8);
//! let est = estimate(&m, &sg, &params, BufferPolicy::All);
//! assert!(est.size_bytes > 0);
//! assert!(est.min_cycles <= est.max_cycles);
//! # Ok(())
//! # }
//! ```

mod calibrate;
mod cost;
mod falsepath;
mod params;

pub use calibrate::calibrate;
pub use cost::{estimate, Estimate};
pub use falsepath::{derive_incompatibilities, max_cycles_false_path_aware, Incompat, PathAtom};
pub use params::{CostParams, OpClass};
