//! Codesign finite state machines (CFSMs) and networks of CFSMs.
//!
//! The CFSM model (Balarin et al., Section II-D) is a *globally asynchronous,
//! locally synchronous* (GALS) network of extended finite state machines
//! communicating through events:
//!
//! * an **event** occurs at a point in time and may carry a value from a
//!   finite domain ([`Signal`]); a one-place buffer per (receiver, event)
//!   holds the presence flag and the value, so an event re-emitted before
//!   detection is *overwritten and lost*;
//! * each CFSM ([`Cfsm`]) atomically detects a snapshot of its input events
//!   and computes its **transition function** — a synchronous map from input
//!   events/values and state to output events/values and next state;
//! * the network is asynchronous: reaction and sensing delays are
//!   unconstrained (> 0 and ≥ 0 respectively), which the RTOS layer models.
//!
//! For synthesis, a CFSM's transition function is decomposed (Section
//! III-B1) into *tests* ([`TestDef`]), *actions* ([`Action`]), and a
//! *reactive function* mapping subsets of tests to subsets of actions,
//! represented by the BDD of its characteristic function
//! ([`ReactiveFn`]).
//!
//! The [`compose`] module builds the synchronous product of a network — the
//! "single FSM" implementation style of the Esterel v3 compiler, used as a
//! baseline in the paper's Table III.
//!
//! # Examples
//!
//! The paper's Fig. 1 `simple` module:
//!
//! ```
//! use polis_cfsm::Cfsm;
//! use polis_expr::{Expr, Type, Value};
//!
//! # fn main() -> Result<(), polis_cfsm::CfsmError> {
//! let mut b = Cfsm::builder("simple");
//! b.input_valued("c", Type::uint(8));
//! b.output_pure("y");
//! b.state_var("a", Type::uint(8), Value::Int(0));
//! let s0 = b.ctrl_state("awaiting");
//! let eq = b.test("a_eq_c", Expr::var("a").eq(Expr::var("c_value")));
//! b.transition(s0, s0)
//!     .when_present("c")
//!     .when_test(eq)
//!     .assign("a", Expr::int(0))
//!     .emit("y")
//!     .done();
//! b.transition(s0, s0)
//!     .when_present("c")
//!     .when_not_test(eq)
//!     .assign("a", Expr::var("a").add(Expr::int(1)))
//!     .done();
//! let simple = b.build()?;
//! assert_eq!(simple.num_transitions(), 2);
//! # Ok(())
//! # }
//! ```

mod chi;
pub mod compose;
mod machine;
mod network;
mod signal;

pub use chi::{action_cube, OrderScheme, ReactiveFn, RfVar, RfVarKind, Side, VarLoc};
pub use machine::{
    Action, Cfsm, CfsmBuilder, CfsmError, CfsmState, Emission, Guard, ReactError, Reaction,
    StateId, StateVar, TestDef, TestId, Transition, TransitionBuilder,
};
pub use network::{BufferRef, Network, NetworkError};
pub use signal::{emit_flag_name, present_flag_name, value_var_name, Signal};
