//! Symbolic reachability and conformance checking for CFSM networks.
//!
//! The POLIS flow argues correctness of synthesized software against the
//! GALS network semantics of Section II-D: machines react one at a time,
//! events travel through lossy one-place buffers, and the environment
//! may deliver primary inputs at any moment. This crate builds the
//! network's product transition relation as characteristic-function BDDs
//! (each machine's `χ` with `consume = 1`, built from its transitions'
//! priority-resolved conditions, with current/next variable rails and
//! one fill bit per buffer), runs frontier-based image computation
//! to a fixpoint, and evaluates three verdicts against the reachable
//! set:
//!
//! 1. **lost events** — a reachable state has a full buffer while its
//!    emitter can fire an emitting reaction (the buffer would be
//!    overwritten, matching `rtos::sim`'s `overwritten` counters);
//! 2. **dead transitions** — priority-resolved transition conditions no
//!    reachable state enables for any data valuation;
//! 3. **deadlock** — a reachable state with a pending event that no
//!    machine can ever consume, no matter which further primary inputs
//!    the environment delivers.
//!
//! Data is abstracted: test variables are free, so the reachable set
//! over-approximates every concrete schedule. Lost-event and deadlock
//! *possible* verdicts are therefore sound alarms (a concrete loss
//! implies a symbolic one), and dead-transition verdicts are sound
//! proofs (symbolically dead implies concretely dead).
//!
//! The reachable-state invariant is exported as event-level
//! incompatibility pairs ([`Verifier::presence_incompats`]) which
//! `estimate::falsepath` consumes to prune provably-unreachable s-graph
//! paths, tightening per-machine cycle bounds.
//!
//! # Examples
//!
//! ```
//! use polis_cfsm::{Cfsm, Network};
//! use polis_verify::{verify_network, VerifyOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Cfsm::builder("echo");
//! b.input_pure("ping");
//! b.output_pure("pong");
//! let s = b.ctrl_state("s");
//! b.transition(s, s).when_present("ping").emit("pong").done();
//! let net = Network::new("single", vec![b.build()?])?;
//!
//! let report = verify_network(&net, &VerifyOptions::default())?;
//! assert!(report.deadlock.is_none());
//! assert!(report.dead_transitions.is_empty());
//! // The environment can always redeliver before `echo` reacts.
//! assert!(report.lost_possible("echo"));
//! # Ok(())
//! # }
//! ```

mod checks;
mod model;
mod prop;
mod reach;
mod trace;

pub use prop::{PropReport, PropResult};
pub use trace::{CexTrace, DecodedState, TraceStep};

use model::NetworkModel;
use polis_bdd::NodeRef;
use polis_cfsm::Network;
use polis_estimate::Incompat;
use polis_lang::Property;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};
use trace::TraceRings;

/// Traversal configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Maximum number of allocated BDD nodes the traversal may keep
    /// live. Checked once per fixpoint iteration, after its image
    /// descent and frontier update (the arena may overshoot inside the
    /// descent); exceeded after reclamation ⇒
    /// [`VerifyError::NodeBudgetExceeded`].
    pub node_budget: usize,
    /// Live-node level above which the manager is sifted between
    /// fixpoint iterations (group constraints keep each buffer's cur/next
    /// flag rails and each machine's ctrl cur+next block contiguous).
    /// The live set is measured after a mid-reach collection; a
    /// threshold below the collector's 2^18-node floor lowers the floor
    /// to it. Each sift at least doubles the level for the next one.
    /// Reordering changes only node counts and wall time, never verdicts
    /// or reached-state counts. `usize::MAX` disables it.
    pub reorder_threshold: usize,
    /// Store the frontier onion rings during the fixpoint so property
    /// violations and deadlocks get full decoded counterexample traces
    /// instead of witness cubes. Off by default: rings cost extra live
    /// nodes and are useless without a trace consumer. Ring storage
    /// never changes reached sets, iteration counts, or verdicts.
    pub trace_rings: bool,
    /// Upper bound on stored rings; past it the prefix stays valid but
    /// deeper states degrade to cube-only witnesses. Rings are also the
    /// first thing shed under node-budget pressure.
    pub max_trace_rings: usize,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            node_budget: 1 << 22,
            reorder_threshold: 1 << 20,
            trace_rings: false,
            max_trace_rings: 1 << 12,
        }
    }
}

/// A failure during symbolic traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The BDD arena exceeded [`VerifyOptions::node_budget`] even after
    /// reclaiming dead nodes.
    NodeBudgetExceeded {
        /// The configured budget.
        budget: usize,
        /// Live nodes at the point of failure.
        allocated: usize,
        /// The fixpoint iteration (counted from 1) whose budget check
        /// failed.
        iteration: u64,
        /// Image steps completed before the abort: the partition count
        /// times the iterations whose descent finished, since the budget
        /// is checked once per iteration.
        image_steps: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NodeBudgetExceeded {
                budget,
                allocated,
                iteration,
                image_steps,
            } => write!(
                f,
                "BDD node budget exceeded during reachability: \
                 {allocated} live nodes > budget {budget} in iteration {iteration} \
                 after {image_steps} image steps"
            ),
        }
    }
}

impl Error for VerifyError {}

/// Counters from one traversal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Breadth-first iterations to the fixpoint.
    pub iterations: u64,
    /// Partition images taken: the partition count per iteration. The
    /// image descent assembles them without building any one in full.
    pub image_steps: u64,
    /// Memo entries the image descent computed (one per distinct
    /// frontier node, reached node and first pending partition) over
    /// the whole traversal.
    pub descent_nodes: u64,
    /// Environment-delivery images applied inside the descent.
    pub env_applications: u64,
    /// Machine-reaction images applied inside the descent.
    pub react_applications: u64,
    /// Frontier BDD size after each iteration.
    pub frontier_sizes: Vec<u64>,
    /// Largest frontier BDD.
    pub peak_frontier_nodes: u64,
    /// BDD size of the final reachable set.
    pub reached_nodes: u64,
    /// Number of reachable product states (`None` on counter overflow).
    pub reached_states: Option<u128>,
    /// Peak live nodes in the manager over the whole traversal.
    pub peak_live_nodes: u64,
    /// Dedicated AndExists-cache probes during the traversal.
    pub andex_lookups: u64,
    /// Dedicated AndExists-cache hits during the traversal.
    pub andex_hits: u64,
    /// Single-pass cube quantifications during the traversal.
    pub cube_quant_calls: u64,
    /// Frontier-minimization `constrain` applications (one per iteration).
    pub constrain_calls: u64,
    /// Frontier nodes shed by `constrain` minimization, summed over all
    /// iterations (raw frontier size minus minimized size).
    pub constrain_reduced_nodes: u64,
    /// Sifting passes triggered between fixpoint iterations by
    /// [`VerifyOptions::reorder_threshold`].
    pub mid_reach_reorders: u64,
    /// Garbage collections run mid-traversal: allocation crossed the
    /// garbage-pressure trigger's mark or the node budget (see
    /// `reach::enforce_budget`).
    pub mid_reach_collections: u64,
    /// Wall-clock time of model construction plus traversal.
    pub wall: Duration,
    /// Wall-clock time of the traversal, split by fixpoint phase.
    pub phases: PhaseTimes,
}

/// Fixpoint wall time per phase, summed over all iterations. Timing
/// only: no verdict, count or report line depends on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// The image descent: environment images, relational products with
    /// the rename onto the current rail, and their union minus the
    /// reached set, interleaved in one recursion.
    pub image: Duration,
    /// Reached-set update and `constrain` minimization.
    pub frontier: Duration,
    /// The two stats-only size walks per iteration, over the raw and the
    /// minimized frontier (`constrain_reduced_nodes`, `frontier_sizes`).
    pub measure: Duration,
    /// Mid-traversal garbage collections.
    pub gc: Duration,
    /// Mid-traversal sifting.
    pub sift: Duration,
}

impl PhaseTimes {
    /// `(name, time)` for every phase, in fixpoint order.
    pub fn named(&self) -> [(&'static str, Duration); 5] {
        [
            ("image", self.image),
            ("frontier", self.frontier),
            ("measure", self.measure),
            ("gc", self.gc),
            ("sift", self.sift),
        ]
    }
}

/// Lost-event verdict for one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostEvent {
    /// The consuming machine.
    pub consumer: String,
    /// The buffered signal.
    pub signal: String,
    /// The emitting machine (`None` = environment-driven).
    pub driver: Option<String>,
    /// Whether a reachable state can overwrite the buffer.
    pub possible: bool,
}

/// A transition no reachable state ever enables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadTransition {
    /// The owning machine.
    pub machine: String,
    /// Index into the machine's transition list (declaration order).
    pub transition: usize,
    /// Source state name.
    pub from: String,
    /// Target state name.
    pub to: String,
}

/// A concrete reachable deadlock state, one line per machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockWitness {
    /// `machine@state pending[signals...]` per machine.
    pub description: Vec<String>,
    /// Decoded execution from the reset state into the deadlock, when
    /// [`VerifyOptions::trace_rings`] stored the onion rings (shared
    /// code path with the property checker's counterexamples).
    pub trace: Option<CexTrace>,
}

/// Everything one verification run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The verified network's name.
    pub network: String,
    /// Number of machines.
    pub machines: usize,
    /// Number of one-place buffers.
    pub buffers: usize,
    /// Traversal counters.
    pub stats: VerifyStats,
    /// Per-buffer lost-event verdicts, in (consumer, input) order.
    pub lost_events: Vec<LostEvent>,
    /// Dead transitions (empty = every transition reachable).
    pub dead_transitions: Vec<DeadTransition>,
    /// A reachable global deadlock, if any.
    pub deadlock: Option<DeadlockWitness>,
}

impl VerifyReport {
    /// Whether any buffer of `consumer` can lose an event.
    pub fn lost_possible(&self, consumer: &str) -> bool {
        self.lost_events
            .iter()
            .any(|e| e.consumer == consumer && e.possible)
    }

    /// Human-readable multi-line summary (the `polis verify` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "network `{}`: {} machines, {} buffers\n",
            self.network, self.machines, self.buffers
        ));
        let states = self
            .stats
            .reached_states
            .map_or("overflow".to_owned(), |n| n.to_string());
        out.push_str(&format!(
            "fixpoint: {} iterations, {} image steps, {} reachable states ({} nodes, peak frontier {}, peak live {})\n",
            self.stats.iterations,
            self.stats.image_steps,
            states,
            self.stats.reached_nodes,
            self.stats.peak_frontier_nodes,
            self.stats.peak_live_nodes,
        ));
        out.push_str(&format!(
            "kernel: and_exists {}/{} cache hits, {} cube quantifications, constrain shed {} nodes, {} mid-reach reorders\n",
            self.stats.andex_hits,
            self.stats.andex_lookups,
            self.stats.cube_quant_calls,
            self.stats.constrain_reduced_nodes,
            self.stats.mid_reach_reorders,
        ));
        out.push_str("lost events:\n");
        for e in &self.lost_events {
            let from = e.driver.as_deref().unwrap_or("env");
            let verdict = if e.possible { "POSSIBLE" } else { "never" };
            out.push_str(&format!(
                "  {} -> {}.{}: {}\n",
                from, e.consumer, e.signal, verdict
            ));
        }
        if self.dead_transitions.is_empty() {
            out.push_str("dead transitions: none\n");
        } else {
            out.push_str("dead transitions:\n");
            for d in &self.dead_transitions {
                out.push_str(&format!(
                    "  {} #{} ({} -> {})\n",
                    d.machine, d.transition, d.from, d.to
                ));
            }
        }
        match &self.deadlock {
            None => out.push_str("deadlock: none\n"),
            Some(w) => {
                out.push_str("deadlock: REACHABLE\n");
                for line in &w.description {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        out
    }
}

/// A completed traversal holding the reachable set, for report
/// generation and invariant export.
pub struct Verifier<'n> {
    net: &'n Network,
    model: NetworkModel,
    reached: NodeRef,
    rings: Option<TraceRings>,
    stats: VerifyStats,
}

impl<'n> Verifier<'n> {
    /// Builds the symbolic model of `net` and runs reachability to a
    /// fixpoint.
    ///
    /// # Errors
    ///
    /// [`VerifyError::NodeBudgetExceeded`] when the arena outgrows
    /// `opts.node_budget`.
    pub fn run(net: &'n Network, opts: &VerifyOptions) -> Result<Verifier<'n>, VerifyError> {
        let start = Instant::now();
        let mut model = NetworkModel::build(net);
        let mut stats = VerifyStats::default();
        let (reached, rings) = reach::fixpoint(&mut model, opts, &mut stats)?;
        stats.wall = start.elapsed();
        Ok(Verifier {
            net,
            model,
            reached,
            rings,
            stats,
        })
    }

    /// Traversal counters.
    pub fn stats(&self) -> &VerifyStats {
        &self.stats
    }

    /// Evaluates all three checks against the reachable set.
    pub fn report(&mut self) -> VerifyReport {
        let lost = checks::lost_events(&mut self.model, self.net, self.reached);
        let dead = checks::dead_transitions(&mut self.model, self.net, self.reached);
        let deadlock =
            checks::deadlock(&mut self.model, self.net, self.reached, self.rings.as_ref());
        VerifyReport {
            network: self.net.name().to_owned(),
            machines: self.net.cfsms().len(),
            buffers: self.net.buffers().len(),
            stats: self.stats.clone(),
            lost_events: lost,
            dead_transitions: dead,
            deadlock,
        }
    }

    /// Checks a property suite against the reachable set, decoding
    /// counterexample/witness traces through the stored onion rings
    /// (cube-only witnesses when [`VerifyOptions::trace_rings`] was off
    /// or the rings were shed under budget pressure).
    pub fn check_properties(&mut self, props: &[Property]) -> PropReport {
        prop::check(
            &mut self.model,
            self.net,
            self.reached,
            self.rings.as_ref(),
            props,
        )
    }

    /// Event-level incompatibilities for `machine`: input-presence
    /// polarity pairs no reachable state exhibits, in the exact shape
    /// `estimate::falsepath` consumes.
    pub fn presence_incompats(&mut self, machine: usize) -> Vec<Incompat> {
        checks::presence_incompats(&mut self.model, self.reached, machine)
    }
}

/// One-shot convenience: [`Verifier::run`] followed by
/// [`Verifier::report`].
///
/// # Errors
///
/// Propagates [`Verifier::run`] failures.
pub fn verify_network(net: &Network, opts: &VerifyOptions) -> Result<VerifyReport, VerifyError> {
    Ok(Verifier::run(net, opts)?.report())
}

/// One-shot property checking: [`Verifier::run`] (with ring storage
/// forced on so violations get decoded traces), the standard report,
/// and the property verdicts.
///
/// # Errors
///
/// Propagates [`Verifier::run`] failures.
pub fn verify_with_props(
    net: &Network,
    props: &[Property],
    opts: &VerifyOptions,
) -> Result<(VerifyReport, PropReport), VerifyError> {
    let opts = VerifyOptions {
        trace_rings: true,
        ..*opts
    };
    let mut v = Verifier::run(net, &opts)?;
    let report = v.report();
    let props = v.check_properties(props);
    Ok((report, props))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_cfsm::Cfsm;
    use polis_estimate::PathAtom;
    use polis_expr::{Expr, Type, Value};

    /// tick -> [toggler] -> tock -> [sink].
    pub(crate) fn toggler_pair() -> Network {
        let mut b = Cfsm::builder("toggler");
        b.input_pure("tick");
        b.output_pure("tock");
        let s0 = b.ctrl_state("off");
        let s1 = b.ctrl_state("on");
        b.transition(s0, s1)
            .when_present("tick")
            .emit("tock")
            .done();
        b.transition(s1, s0)
            .when_present("tick")
            .emit("tock")
            .done();
        let toggler = b.build().unwrap();

        let mut b = Cfsm::builder("sink");
        b.input_pure("tock");
        b.output_pure("seen");
        let s = b.ctrl_state("s");
        b.transition(s, s).when_present("tock").emit("seen").done();
        let sink = b.build().unwrap();
        Network::new("pair", vec![toggler, sink]).unwrap()
    }

    #[test]
    fn toggler_pair_full_product_is_reachable() {
        let net = toggler_pair();
        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        // State bits: toggler.tick flag, toggler ctrl, sink.tock flag —
        // all 8 combinations are reachable.
        assert_eq!(report.stats.reached_states, Some(8));
        assert!(report.stats.iterations > 0);
        assert!(report.stats.image_steps > 0);
        assert!(report.deadlock.is_none());
        assert!(report.dead_transitions.is_empty());
        // Primary input: the environment can always redeliver.
        assert!(report
            .lost_events
            .iter()
            .any(|e| e.consumer == "toggler" && e.signal == "tick" && e.possible));
        // Internal buffer: toggler can emit while `tock` is pending.
        assert!(report.lost_events.iter().any(|e| e.consumer == "sink"
            && e.signal == "tock"
            && e.driver.as_deref() == Some("toggler")
            && e.possible));
        assert!(report.render().contains("deadlock: none"));
    }

    #[test]
    fn shadowed_transition_is_dead() {
        let mut b = Cfsm::builder("shadow");
        b.input_pure("p");
        b.output_pure("a");
        b.output_pure("b");
        let s = b.ctrl_state("s");
        b.transition(s, s).when_present("p").emit("a").done();
        // Same guard, declared later: priority resolution kills it.
        b.transition(s, s).when_present("p").emit("b").done();
        let net = Network::new("shadowed", vec![b.build().unwrap()]).unwrap();
        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        assert_eq!(report.dead_transitions.len(), 1);
        assert_eq!(report.dead_transitions[0].machine, "shadow");
        assert_eq!(report.dead_transitions[0].transition, 1);
    }

    #[test]
    fn one_shot_machine_deadlocks_on_redelivery() {
        let mut b = Cfsm::builder("oneshot");
        b.input_pure("x");
        b.output_pure("done");
        let s0 = b.ctrl_state("armed");
        let s1 = b.ctrl_state("spent");
        b.transition(s0, s1).when_present("x").emit("done").done();
        let net = Network::new("oneshot", vec![b.build().unwrap()]).unwrap();
        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        let w = report.deadlock.expect("redelivered `x` is stuck forever");
        assert_eq!(w.description, vec!["oneshot@spent pending[x]".to_owned()]);
    }

    /// The token ring from the false-path integration: `driver` emits `p`
    /// once (on the primary `start`), then emits `q` only after `worker`
    /// has consumed `p` and handed back `tok`. So `p` and `q` can never
    /// be pending at `worker` simultaneously.
    pub(crate) fn token_ring() -> Network {
        let mut b = Cfsm::builder("driver");
        b.input_pure("start");
        b.input_pure("tok");
        b.output_pure("p");
        b.output_pure("q");
        let s0 = b.ctrl_state("idle");
        let s1 = b.ctrl_state("sent_p");
        let s2 = b.ctrl_state("sent_q");
        b.transition(s0, s1).when_present("start").emit("p").done();
        b.transition(s1, s2).when_present("tok").emit("q").done();
        let driver = b.build().unwrap();

        let mut b = Cfsm::builder("worker");
        b.input_pure("p");
        b.input_pure("q");
        b.output_pure("tok");
        b.output_pure("out");
        b.state_var("n", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        // The expensive both-present reaction is unreachable.
        b.transition(s, s)
            .when_present("p")
            .when_present("q")
            .emit("out")
            .assign("n", Expr::var("n").mul(Expr::var("n")).div(Expr::int(3)))
            .done();
        b.transition(s, s).when_present("p").emit("tok").done();
        b.transition(s, s).when_present("q").emit("out").done();
        let worker = b.build().unwrap();
        Network::new("token_ring", vec![driver, worker]).unwrap()
    }

    #[test]
    fn token_ring_excludes_joint_presence() {
        let net = token_ring();
        let mut v = Verifier::run(&net, &VerifyOptions::default()).unwrap();
        let report = v.report();
        // The both-present transition of `worker` is dead...
        assert!(report
            .dead_transitions
            .iter()
            .any(|d| d.machine == "worker" && d.transition == 0));
        // ...and the exported invariant says (p ∧ q) is unreachable.
        let worker = net.machine_index("worker").unwrap();
        let incs = v.presence_incompats(worker);
        assert!(
            incs.contains(&Incompat {
                a: (PathAtom::Present(0), true),
                b: (PathAtom::Present(1), true),
            }),
            "{incs:?}"
        );
        // Soundness: each flag alone IS reachable, so neither single
        // polarity pair (true, false) in both orders can be claimed...
        assert!(!incs.contains(&Incompat {
            a: (PathAtom::Present(0), false),
            b: (PathAtom::Present(1), false),
        }));
    }

    #[test]
    fn model_invariant_no_self_consuming_machine_is_constructible() {
        // The `ReactStep` encoding conjoins `flag' ↔ flag ∨ emit` for
        // consumer buffers and `¬flag'` for the reacting machine's own
        // buffers; those sets must stay disjoint, which holds because a
        // machine inputting its own output cannot even be built.
        let mut b = Cfsm::builder("selfloop");
        b.input_pure("x");
        b.output_pure("x");
        b.ctrl_state("s");
        assert!(b.build().is_err(), "self-consuming CFSM must be rejected");
    }

    #[test]
    fn pending_state_the_environment_can_unblock_is_not_deadlock() {
        // `join` needs p ∧ q; with only `p` pending it is stuck *now*,
        // but the environment can always deliver `q`, so no reachable
        // state is a true deadlock.
        let mut b = Cfsm::builder("join");
        b.input_pure("p");
        b.input_pure("q");
        b.output_pure("r");
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("p")
            .when_present("q")
            .emit("r")
            .done();
        let net = Network::new("join", vec![b.build().unwrap()]).unwrap();
        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        assert!(
            report.deadlock.is_none(),
            "env-unblockable pending flagged as deadlock: {:?}",
            report.deadlock
        );
    }

    #[test]
    fn mid_traversal_gc_is_transparent() {
        // Budgets below the unconstrained peak force reclamation during
        // the image loops; every run that still completes must agree
        // with the unconstrained one (the step relations stay rooted).
        let net = token_ring();
        let baseline = verify_network(&net, &VerifyOptions::default()).unwrap();
        let peak = baseline.stats.peak_live_nodes as usize;
        let mut completed = 0;
        for budget in [peak / 2, peak * 2 / 3, peak * 3 / 4, peak - 1] {
            let Ok(r) = verify_network(
                &net,
                &VerifyOptions {
                    node_budget: budget,
                    ..VerifyOptions::default()
                },
            ) else {
                continue;
            };
            completed += 1;
            assert_eq!(r.stats.reached_states, baseline.stats.reached_states);
            assert_eq!(r.stats.iterations, baseline.stats.iterations);
            assert_eq!(r.lost_events, baseline.lost_events);
            assert_eq!(r.dead_transitions, baseline.dead_transitions);
            assert_eq!(r.deadlock, baseline.deadlock);
        }
        assert!(
            completed > 0,
            "no GC-constrained run completed (peak {peak}); the property was vacuous"
        );
    }

    #[test]
    fn node_budget_aborts_gracefully() {
        let net = toggler_pair();
        let err = match Verifier::run(
            &net,
            &VerifyOptions {
                node_budget: 4,
                ..VerifyOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("expected a node-budget abort"),
        };
        let VerifyError::NodeBudgetExceeded {
            budget,
            allocated,
            iteration,
            ..
        } = err;
        assert_eq!(budget, 4);
        assert!(allocated > 4);
        // The model alone outgrows four nodes: the first check aborts.
        assert_eq!(iteration, 1);
        let shown = err.to_string();
        assert!(shown.contains("node budget exceeded"), "{shown}");
        assert!(shown.contains("in iteration 1 "), "{shown}");
    }

    #[test]
    fn options_default_is_generous() {
        let o = VerifyOptions::default();
        assert!(o.node_budget >= 1 << 20);
        assert!(o.reorder_threshold >= 1 << 16);
        assert!(o.reorder_threshold <= o.node_budget);
    }

    #[test]
    fn forced_reordering_changes_no_verdict() {
        // Threshold 1 sifts at the first collection, which it also lets
        // fire: verdicts, reached-state counts and iteration counts must
        // be bit-identical to the unreordered run on every example
        // network.
        for net in [toggler_pair(), token_ring()] {
            let baseline = verify_network(&net, &VerifyOptions::default()).unwrap();
            assert_eq!(baseline.stats.mid_reach_reorders, 0);
            let forced = verify_network(
                &net,
                &VerifyOptions {
                    reorder_threshold: 1,
                    ..VerifyOptions::default()
                },
            )
            .unwrap();
            assert!(forced.stats.mid_reach_reorders > 0, "threshold 1 must sift");
            assert_eq!(forced.stats.reached_states, baseline.stats.reached_states);
            assert_eq!(forced.stats.iterations, baseline.stats.iterations);
            assert_eq!(forced.lost_events, baseline.lost_events);
            assert_eq!(forced.dead_transitions, baseline.dead_transitions);
            // The *verdict* is order-independent; the witness cube walks
            // the node structure, so it may legally differ after a sift.
            assert_eq!(forced.deadlock.is_some(), baseline.deadlock.is_some());
        }
    }

    pub(crate) fn oneshot() -> Network {
        let mut b = Cfsm::builder("oneshot");
        b.input_pure("x");
        b.output_pure("done");
        let s0 = b.ctrl_state("armed");
        let s1 = b.ctrl_state("spent");
        b.transition(s0, s1).when_present("x").emit("done").done();
        Network::new("oneshot", vec![b.build().unwrap()]).unwrap()
    }

    #[test]
    fn deadlock_trace_replays_to_the_witness() {
        let net = oneshot();
        let opts = VerifyOptions {
            trace_rings: true,
            ..VerifyOptions::default()
        };
        let report = verify_network(&net, &opts).unwrap();
        let w = report.deadlock.expect("redelivered `x` is stuck forever");
        assert_eq!(w.description, vec!["oneshot@spent pending[x]".to_owned()]);
        let t = w.trace.expect("rings stored => decoded trace");
        // deliver x, fire armed->spent (clears x), deliver x again: the
        // shortest path into the deadlock has three hops.
        assert_eq!(t.len(), 3);
        let end = t.replay(&net).expect("trace must replay cleanly");
        assert_eq!(end.ctrl, vec![1]);
        assert_eq!(end.pending, vec![vec![true]]);
        assert!(t.render(&net).contains("deliver x"));
        assert!(t.render(&net).contains("react oneshot #0 (armed -> spent)"));
    }

    #[test]
    fn ring_cap_degrades_to_cube_witness() {
        let net = oneshot();
        let opts = VerifyOptions {
            trace_rings: true,
            max_trace_rings: 1,
            ..VerifyOptions::default()
        };
        let report = verify_network(&net, &opts).unwrap();
        let w = report.deadlock.expect("verdict unaffected by the ring cap");
        assert!(w.trace.is_none(), "deadlock lies beyond the stored prefix");
        assert_eq!(w.description, vec!["oneshot@spent pending[x]".to_owned()]);
    }

    #[test]
    fn ring_storage_changes_no_verdict_or_count() {
        for net in [toggler_pair(), token_ring(), oneshot()] {
            let base = verify_network(&net, &VerifyOptions::default()).unwrap();
            let ringed = verify_network(
                &net,
                &VerifyOptions {
                    trace_rings: true,
                    ..VerifyOptions::default()
                },
            )
            .unwrap();
            assert_eq!(ringed.stats.reached_states, base.stats.reached_states);
            assert_eq!(ringed.stats.iterations, base.stats.iterations);
            assert_eq!(ringed.stats.image_steps, base.stats.image_steps);
            assert_eq!(ringed.lost_events, base.lost_events);
            assert_eq!(ringed.dead_transitions, base.dead_transitions);
            assert_eq!(
                ringed.deadlock.as_ref().map(|w| &w.description),
                base.deadlock.as_ref().map(|w| &w.description)
            );
        }
    }

    #[test]
    fn budget_pressure_sheds_rings_before_aborting() {
        let net = token_ring();
        let base = verify_network(&net, &VerifyOptions::default()).unwrap();
        let peak = base.stats.peak_live_nodes as usize;
        let mut completed = 0;
        for budget in [peak / 2, peak * 2 / 3, peak * 3 / 4, peak] {
            let Ok(mut v) = Verifier::run(
                &net,
                &VerifyOptions {
                    node_budget: budget,
                    trace_rings: true,
                    ..VerifyOptions::default()
                },
            ) else {
                continue;
            };
            completed += 1;
            let r = v.report();
            assert_eq!(r.stats.reached_states, base.stats.reached_states);
            assert_eq!(r.lost_events, base.lost_events);
            assert_eq!(r.dead_transitions, base.dead_transitions);
        }
        assert!(
            completed > 0,
            "no ring-storing constrained run completed (peak {peak})"
        );
    }

    #[test]
    fn properties_verdicts_and_traces() {
        let src = "
            module toggler {
                input tick; output tock; state off, on;
                from off to on when tick do { emit tock; }
                from on to off when tick do { emit tock; }
            }
            module sink {
                input tock; output seen; state s;
                from s to s when tock do { emit seen; }
            }
            properties {
                assert reachable toggler@on && sink.tock;
                assert never toggler@on && toggler@off;
                assert never sink.tock;
            }";
        let spec = polis_lang::parse_spec("pair", src).unwrap();
        let (_report, pr) =
            verify_with_props(&spec.network, &spec.properties, &VerifyOptions::default()).unwrap();
        assert_eq!(pr.checked, 3);
        assert_eq!(pr.violations, 1);
        assert!(pr.rings_complete);
        assert!(pr.rings_stored > 1);

        // Satisfied `reachable`: witness trace replays into the target.
        let r0 = &pr.results[0];
        assert!(r0.holds);
        let t = r0.trace.as_ref().expect("witness trace");
        let end = t.replay(&spec.network).unwrap();
        assert!(spec.properties[0].expr.eval(&end.ctrl, &end.pending));

        // Control-state exclusivity holds vacuously: no satisfying state.
        let r1 = &pr.results[1];
        assert!(r1.holds && r1.trace.is_none() && r1.witness_state.is_none());

        // Violated `never`: counterexample trace replays into violation.
        let r2 = &pr.results[2];
        assert!(!r2.holds);
        let t = r2.trace.as_ref().expect("counterexample trace");
        let end = t.replay(&spec.network).unwrap();
        assert!(spec.properties[2].expr.eval(&end.ctrl, &end.pending));
        assert_eq!(r2.witness_state.as_ref(), t.states.last());

        let rendered = pr.render(&spec.network);
        assert!(rendered.contains("properties: 3 checked, 1 violated"));
        assert!(rendered.contains("assert never sink.tock: VIOLATED"));
        assert!(rendered.contains("counterexample ("));
        assert!(rendered.contains("witness ("));
    }

    #[test]
    fn properties_without_rings_fall_back_to_cube_witnesses() {
        let src = "
            module m { input a; output b; state s0, s1;
                from s0 to s1 when a do { emit b; } }
            properties { assert never m@s1; }";
        let spec = polis_lang::parse_spec("n", src).unwrap();
        // Plain run (no ring storage), then check directly.
        let mut v = Verifier::run(&spec.network, &VerifyOptions::default()).unwrap();
        let pr = v.check_properties(&spec.properties);
        assert_eq!(pr.rings_stored, 0);
        assert!(!pr.rings_complete);
        let r = &pr.results[0];
        assert!(!r.holds);
        assert!(r.trace.is_none(), "no rings => no decoded trace");
        let w = r
            .witness_state
            .as_ref()
            .expect("cube-only witness survives");
        assert_eq!(w.ctrl, vec![1]);
    }

    #[test]
    fn traversal_records_kernel_counters() {
        let net = token_ring();
        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        assert!(report.stats.andex_lookups > 0, "images use and_exists");
        assert!(
            report.stats.cube_quant_calls > 0,
            "env images use exists_cube"
        );
        assert_eq!(
            report.stats.constrain_calls, report.stats.iterations,
            "one frontier minimization per iteration"
        );
        assert!(report.render().contains("and_exists"));
    }
}
