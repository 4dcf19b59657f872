//! The three verdicts evaluated against the reachable set, plus the
//! reachability-invariant export that feeds `estimate::falsepath`.

use crate::model::NetworkModel;
use crate::trace::{decode_point, walk_trace, TraceRings};
use crate::{DeadTransition, DeadlockWitness, LostEvent};
use polis_bdd::{NodeRef, Var};
use polis_cfsm::Network;
use polis_estimate::{Incompat, PathAtom};
use std::collections::HashMap;

/// Lost-event analysis: a buffer (consumer, input) can lose an event iff
/// some reachable state has the buffer full while its emitter can fire an
/// emitting reaction (Section II-D's "events may be lost"). For primary
/// inputs the environment can always redeliver, so a full buffer alone
/// suffices. (Driver ≠ consumer always: `Cfsm::build` rejects machines
/// consuming their own output.) The emitter's projection is built once
/// per output and shared by every consumer of the signal.
pub(crate) fn lost_events(
    model: &mut NetworkModel,
    net: &Network,
    reached: NodeRef,
) -> Vec<LostEvent> {
    let cfsms = net.cfsms();
    let mut emits: HashMap<(usize, usize), NodeRef> = HashMap::new();
    let mut out = Vec::new();
    for buf in net.buffers() {
        let flag = model.vars[buf.consumer].flag_cur[buf.input];
        let full = model.bdd.var(flag);
        let full_reachable = model.bdd.and(reached, full);
        let possible = match buf.driver {
            None => !full_reachable.is_false(),
            Some(d) => {
                let oi = cfsms[d]
                    .output_index(&buf.signal)
                    .expect("driver has output");
                let emit = *emits
                    .entry((d, oi))
                    .or_insert_with(|| model.emit_possible(d, &cfsms[d], oi));
                let clash = model.bdd.and(full_reachable, emit);
                !clash.is_false()
            }
        };
        out.push(LostEvent {
            consumer: cfsms[buf.consumer].name().to_owned(),
            signal: buf.signal,
            driver: buf.driver.map(|d| cfsms[d].name().to_owned()),
            possible,
        });
    }
    out
}

/// Dead-transition analysis: transition `t` of machine `i` is dead iff
/// its priority-resolved enabling condition intersects no reachable
/// state (for any data-test valuation — tests are free variables, so a
/// transition is only reported when no data could ever enable it).
pub(crate) fn dead_transitions(
    model: &mut NetworkModel,
    net: &Network,
    reached: NodeRef,
) -> Vec<DeadTransition> {
    let mut out = Vec::new();
    for (i, m) in net.cfsms().iter().enumerate() {
        for (ti, t) in m.transitions().iter().enumerate() {
            let cond = model.conds[i][ti];
            let live = model.bdd.and(reached, cond);
            if live.is_false() {
                out.push(DeadTransition {
                    machine: m.name().to_owned(),
                    transition: ti,
                    from: m.states()[t.from].clone(),
                    to: m.states()[t.to].clone(),
                });
            }
        }
    }
    out
}

/// Deadlock analysis: a reachable state where at least one buffer is
/// full yet no machine has an enabled transition for *any* data-test
/// valuation, even after the environment delivers any further primary
/// inputs — pending work nobody can ever consume. Without the delivery
/// closure a machine guarded on `p ∧ q` with only `p` pending would be
/// flagged although the environment can still supply `q`.
pub(crate) fn deadlock(
    model: &mut NetworkModel,
    net: &Network,
    reached: NodeRef,
    rings: Option<&TraceRings>,
) -> Option<DeadlockWitness> {
    let all_flags: Vec<Var> = model
        .vars
        .iter()
        .flat_map(|mv| mv.flag_cur.clone())
        .collect();
    let pending_lits: Vec<NodeRef> = all_flags.iter().map(|&f| model.bdd.var(f)).collect();
    let pending = model.bdd.or_all(pending_lits);
    let mut fireable = NodeRef::FALSE;
    for i in 0..model.vars.len() {
        let conds = model.conds[i].clone();
        let any = model.bdd.or_all(conds);
        let can_fire = model.bdd.exists_cube(any, model.react_steps[i].tests_cube);
        fireable = model.bdd.or(fireable, can_fire);
    }
    // Close "some machine can fire" under environment deliveries: a
    // delivery sets every consumer flag of one signal to 1. Deliveries
    // commute and are idempotent, so one pass over the steps reaches the
    // fixpoint over arbitrary delivery sequences. Cofactoring on the
    // step's whole flag cube at once (constrain over a positive cube *is*
    // the ordinary cofactor) replaces the old per-flag restrict loop.
    let mut can_ever_fire = fireable;
    for step in &model.env_steps {
        let delivered = model.bdd.constrain(can_ever_fire, step.cube);
        can_ever_fire = model.bdd.or(can_ever_fire, delivered);
    }
    let stuck = model.bdd.not(can_ever_fire);
    let mut dead = model.bdd.and(reached, pending);
    dead = model.bdd.and(dead, stuck);
    if dead.is_false() {
        return None;
    }
    // Shared witness path with the property checker: walk a full decoded
    // trace through the onion rings when they were stored, otherwise
    // fall back to the single decoded cube state.
    let trace = rings.and_then(|r| walk_trace(model, net, r, dead));
    let witness = match &trace {
        Some(t) => t.states.last().cloned()?,
        None => decode_point(model, dead)?,
    };
    Some(DeadlockWitness {
        description: witness.segments(net),
        trace,
    })
}

/// Projects the reachable set onto machine `i`'s own state variables and
/// extracts pairwise presence incompatibilities: input-flag polarities
/// that no reachable state exhibits together. These are exactly the
/// event-level [`Incompat`] pairs `estimate::falsepath` consumes.
pub(crate) fn presence_incompats(
    model: &mut NetworkModel,
    reached: NodeRef,
    machine: usize,
) -> Vec<Incompat> {
    let own: Vec<Var> = model.vars[machine].state_vars();
    let others: Vec<Var> = model
        .state_vars
        .iter()
        .copied()
        .filter(|v| !own.contains(v))
        .collect();
    let others_cube = model.bdd.cube(others);
    let projected = model.bdd.exists_cube(reached, others_cube);
    let flags = model.vars[machine].flag_cur.clone();
    let mut out = Vec::new();
    for k1 in 0..flags.len() {
        for k2 in k1 + 1..flags.len() {
            for p1 in [false, true] {
                for p2 in [false, true] {
                    let l1 = lit(model, flags[k1], p1);
                    let l2 = lit(model, flags[k2], p2);
                    let both = model.bdd.and(l1, l2);
                    let witness = model.bdd.and(projected, both);
                    if witness.is_false() {
                        out.push(Incompat {
                            a: (PathAtom::Present(k1), p1),
                            b: (PathAtom::Present(k2), p2),
                        });
                    }
                }
            }
        }
    }
    out
}

fn lit(model: &mut NetworkModel, v: Var, polarity: bool) -> NodeRef {
    if polarity {
        model.bdd.var(v)
    } else {
        model.bdd.nvar(v)
    }
}
