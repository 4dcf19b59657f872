//! The symbolic model of a CFSM network: a global variable layout over
//! one BDD manager, plus the disjunctively partitioned transition
//! relation.
//!
//! # State encoding
//!
//! The product state of a network is the pair (control state of every
//! machine, fill bit of every one-place event buffer). For each machine
//! the model declares, in network order:
//!
//! 1. per input buffer: a current flag bit and its next-state partner,
//!    kept adjacent in the order;
//! 2. the binary-encoded control state, current then next (only for
//!    machines with more than one control state);
//! 3. one auxiliary variable per data test (data is abstracted as free
//!    nondeterminism);
//! 4. one auxiliary variable per action.
//!
//! No state set mentions a test or an action variable: both are
//! quantified out of each reaction's relation once, at model build.
//!
//! # Transition partitioning
//!
//! There is no monolithic transition relation. The GALS semantics of
//! Section II-D interleaves individual machine reactions and environment
//! deliveries, so the model keeps one small relation per event source:
//!
//! * [`EnvStep`] — the environment delivers primary input `s`: every
//!   consumer's flag for `s` becomes 1, nothing else changes. Because
//!   only current-state variables are involved, the image is a
//!   quantify-and-set with no renaming.
//! * [`ReactStep`] — machine `i` fires one reaction: the machine's
//!   `χ|consume=1` constrains (flags, ctrl, tests) → (actions, next
//!   ctrl); the update constraint propagates emissions into consumer
//!   buffers (`flag' ↔ flag ∨ emitted`); the machine's own buffers are
//!   cleared (snapshot consumption). The two constraint sets are
//!   disjoint because no machine consumes its own output — `Cfsm::build`
//!   rejects that, and the encoding asserts it. The step's
//!   [`ReactStep::relation`] is `∃(tests ∪ acts)` of the two together:
//!   the reaction between the current and next values of the variables
//!   it consumes, so every image and preimage is one relational product
//!   with it. Reactions that fire nothing are identity steps and are
//!   simply omitted.
//!
//! `χ|consume=1` is built straight over the network's variables from the
//! per-transition enabling conditions the checks use too
//! ([`NetworkModel::conds`]): transition `t` fires iff it leaves the
//! current state, its guard holds, and no earlier transition of that
//! state is enabled (declaration-order priority, as in `cfsm::chi`).
//! So `χ|consume=1 = ⋁_t cond_t ∧ action_cube_t`, where the action cube
//! ([`polis_cfsm::action_cube`]) fixes every action literal and the next
//! control state. Guards go through [`polis_cfsm::Guard::to_bdd`], the
//! translation synthesis uses too.
//!
//! A machine may attempt a reaction from any reachable state and the test
//! variables are unconstrained, so the reachable set over-approximates
//! every schedule the generated RTOS (or `rtos::sim`) can produce — the
//! direction that makes the lost-event/deadlock verdicts sound alarms.

use polis_bdd::encode::MvVar;
use polis_bdd::{Bdd, NodeRef, RenameMap, Var};
use polis_cfsm::{action_cube, Action, Cfsm, Network};

/// The BDD variables owned by one machine of the network.
pub(crate) struct MachineVars {
    /// Current control state (`None` for single-state machines).
    pub ctrl_cur: Option<MvVar>,
    /// Next control state.
    pub ctrl_next: Option<MvVar>,
    /// Current buffer flag per input, in input order.
    pub flag_cur: Vec<Var>,
    /// Next buffer flag per input.
    pub flag_next: Vec<Var>,
    /// Auxiliary variable per data test.
    pub tests: Vec<Var>,
    /// Auxiliary variable per action.
    pub acts: Vec<Var>,
}

impl MachineVars {
    /// Current control bits (empty for single-state machines).
    pub fn ctrl_cur_bits(&self) -> &[Var] {
        self.ctrl_cur.as_ref().map_or(&[], |mv| mv.bits())
    }

    /// All current-state variables of this machine: buffer flags then
    /// control bits.
    pub fn state_vars(&self) -> Vec<Var> {
        let mut out = self.flag_cur.clone();
        out.extend_from_slice(self.ctrl_cur_bits());
        out
    }
}

/// Environment delivery of one primary input signal.
pub(crate) struct EnvStep {
    /// Positive cube over every consumer's current flag for the signal,
    /// precomputed at model build. One BDD serves both roles of the
    /// image, the quantification set and the set-literal conjunction,
    /// in one `exists_set` call.
    pub cube: NodeRef,
}

/// One machine's reaction as a partition of the transition relation,
/// with its test and action variables quantified out once, at model
/// build.
pub(crate) struct ReactStep {
    /// `χ|consume=1` over global variables: `⋁_t cond_t ∧ action_cube_t`
    /// over the machine's transitions (see [`NetworkModel::conds`]).
    pub chi_fire: NodeRef,
    /// Consumer buffer updates fused with snapshot consumption:
    /// `(flag' ↔ flag ∨ ⋁ emitting actions) ∧ ⋀ ¬own_flag'`.
    pub update_clear: NodeRef,
    /// `∃(tests ∪ acts). chi_fire ∧ update_clear`: the reaction as a
    /// relation between the current and the next values of the
    /// variables it consumes. A state set `n` never mentions a test or
    /// an action variable, so `∃tests,acts. n ∧ χ ∧ upd = n ∧ relation`,
    /// and every image and preimage is one relational product with it.
    pub relation: NodeRef,
    /// Positive cube over the machine's test variables (the checks
    /// quantify them out of the enabling conditions).
    pub tests_cube: NodeRef,
    /// Positive cube over the current-state variables the step consumes:
    /// the machine's own flags and control bits and every affected
    /// consumer flag, i.e. the targets of `rename`.
    pub cur_cube: NodeRef,
    /// The next rail of the consumed variables, the sources of `rename`.
    pub next_rail: Vec<Var>,
    /// Next → current renaming of the image, interned once.
    pub rename: RenameMap,
    /// Current → next renaming of the preimage (`rename` inverted).
    pub unrename: RenameMap,
}

/// The full symbolic model: manager, layout, partitioned relation, and
/// the per-transition enabling conditions used by the checks.
pub(crate) struct NetworkModel {
    /// The single global manager.
    pub bdd: Bdd,
    /// Per-machine variable blocks, in network order.
    pub vars: Vec<MachineVars>,
    /// One step per primary input signal.
    pub env_steps: Vec<EnvStep>,
    /// One step per machine.
    pub react_steps: Vec<ReactStep>,
    /// The initial product state: every machine in its initial control
    /// state, every buffer empty.
    pub init: NodeRef,
    /// All current-state variables, in layout order.
    pub state_vars: Vec<Var>,
    /// Per machine, per transition: the priority-resolved enabling
    /// condition over (own flags, own ctrl, own tests). The transition
    /// fires iff its condition holds, so these conditions build each
    /// [`ReactStep::chi_fire`] and drive the dead-transition and
    /// deadlock checks.
    pub conds: Vec<Vec<NodeRef>>,
}

impl NetworkModel {
    /// Builds the model for `net`. Deterministic: node indices depend
    /// only on the network, never on hash iteration order.
    pub fn build(net: &Network) -> NetworkModel {
        let mut bdd = Bdd::new();
        let cfsms = net.cfsms();

        // -- variable layout --
        let mut vars: Vec<MachineVars> = Vec::with_capacity(cfsms.len());
        for m in cfsms {
            let mut flag_cur = Vec::with_capacity(m.inputs().len());
            let mut flag_next = Vec::with_capacity(m.inputs().len());
            for s in m.inputs() {
                flag_cur.push(bdd.new_var(format!("{}.{}", m.name(), s.name())));
                flag_next.push(bdd.new_var(format!("{}.{}'", m.name(), s.name())));
            }
            let nstates = m.states().len() as u64;
            let (ctrl_cur, ctrl_next) = if nstates > 1 {
                (
                    Some(MvVar::new(&mut bdd, format!("{}.ctrl", m.name()), nstates)),
                    Some(MvVar::new(&mut bdd, format!("{}.ctrl'", m.name()), nstates)),
                )
            } else {
                (None, None)
            };
            let tests = m
                .tests()
                .iter()
                .map(|t| bdd.new_var(format!("{}.test_{}", m.name(), t.name)))
                .collect();
            let acts = (0..m.actions().len())
                .map(|a| bdd.new_var(format!("{}.act_{}", m.name(), m.action_label(a))))
                .collect();
            vars.push(MachineVars {
                ctrl_cur,
                ctrl_next,
                flag_cur,
                flag_next,
                tests,
                acts,
            });
        }
        let state_vars: Vec<Var> = vars.iter().flat_map(MachineVars::state_vars).collect();

        // -- initial state --
        let mut init = NodeRef::TRUE;
        for (m, mv) in cfsms.iter().zip(&vars) {
            if let Some(ctrl) = &mv.ctrl_cur {
                let eq = ctrl.eq_const(&mut bdd, m.init_state() as u64);
                init = bdd.and(init, eq);
            }
            for &f in &mv.flag_cur {
                let empty = bdd.nvar(f);
                init = bdd.and(init, empty);
            }
        }

        // -- environment deliveries --
        let env_steps = net
            .primary_inputs()
            .into_iter()
            .map(|sig| {
                let flags = net
                    .consumers_of(&sig)
                    .into_iter()
                    .map(|c| {
                        let k = cfsms[c].input_index(&sig).expect("consumer has input");
                        vars[c].flag_cur[k]
                    })
                    .collect::<Vec<Var>>();
                let cube = bdd.cube(flags);
                EnvStep { cube }
            })
            .collect();

        // -- machine reactions --
        let mut react_steps = Vec::with_capacity(cfsms.len());
        let mut conds = Vec::with_capacity(cfsms.len());
        for (i, m) in cfsms.iter().enumerate() {
            // `conds` and `χ|consume=1 = ⋁ cond ∧ action cube` (module docs).
            let mut machine_conds = Vec::with_capacity(m.num_transitions());
            let mut taken: Vec<NodeRef> = vec![NodeRef::FALSE; m.states().len()];
            let mut chi_fire = NodeRef::FALSE;
            for t in m.transitions() {
                let (in_state, next) = match (&vars[i].ctrl_cur, &vars[i].ctrl_next) {
                    (Some(cur), Some(nxt)) => (
                        cur.eq_const(&mut bdd, t.from as u64),
                        nxt.eq_const(&mut bdd, t.to as u64),
                    ),
                    _ => (NodeRef::TRUE, NodeRef::TRUE),
                };
                let guard = t.guard.to_bdd(&mut bdd, &vars[i].flag_cur, &vars[i].tests);
                let raw = bdd.and(in_state, guard);
                let not_taken = bdd.not(taken[t.from]);
                let cond = bdd.and(raw, not_taken);
                taken[t.from] = bdd.or(taken[t.from], raw);
                let cube = action_cube(&mut bdd, &vars[i].acts, &t.actions, next);
                let fire = bdd.and(cond, cube);
                chi_fire = bdd.or(chi_fire, fire);
                machine_conds.push(cond);
            }
            conds.push(machine_conds);

            let mut update = NodeRef::TRUE;
            let mut affected: Vec<(usize, usize)> = Vec::new();
            for (oi, out) in m.outputs().iter().enumerate() {
                let consumers = net.consumers_of(out.name());
                if consumers.is_empty() {
                    continue;
                }
                let emit = emits_signal(&mut bdd, m, &vars[i], oi);
                for c in consumers {
                    // A machine never consumes its own output:
                    // `Cfsm::build` rejects an input named like an output
                    // (see `machine_cannot_consume_its_own_output` in
                    // `cfsm::network`). The encoding below depends on it —
                    // `update` on an own buffer would contradict
                    // `own_clear` (¬flag') and duplicate a rename source.
                    debug_assert!(c != i, "self-consuming machine in network");
                    let k = cfsms[c]
                        .input_index(out.name())
                        .expect("consumer has input");
                    affected.push((c, k));
                    let cur = bdd.var(vars[c].flag_cur[k]);
                    let nxt = bdd.var(vars[c].flag_next[k]);
                    let filled = bdd.or(cur, emit);
                    let constraint = bdd.iff(nxt, filled);
                    update = bdd.and(update, constraint);
                }
            }
            let own_lits: Vec<NodeRef> = vars[i].flag_next.iter().map(|&f| bdd.nvar(f)).collect();
            let own_clear = bdd.and_all(own_lits);

            let mut q_cur = vars[i].state_vars();
            let mut rename: Vec<(Var, Var)> = vars[i]
                .flag_next
                .iter()
                .zip(&vars[i].flag_cur)
                .map(|(&n, &c)| (n, c))
                .collect();
            if let (Some(next), Some(cur)) = (&vars[i].ctrl_next, &vars[i].ctrl_cur) {
                rename.extend(next.bits().iter().zip(cur.bits()).map(|(&n, &c)| (n, c)));
            }
            for &(c, k) in &affected {
                q_cur.push(vars[c].flag_cur[k]);
                rename.push((vars[c].flag_next[k], vars[c].flag_cur[k]));
            }
            let update_clear = bdd.and(update, own_clear);
            let tests_cube = bdd.cube(vars[i].tests.iter().copied());
            let aux_cube = bdd.cube(vars[i].tests.iter().chain(&vars[i].acts).copied());
            let relation = bdd.and_exists(chi_fire, update_clear, aux_cube);
            let cur_cube = bdd.cube(q_cur);
            let unrename: Vec<(Var, Var)> = rename.iter().map(|&(n, c)| (c, n)).collect();
            react_steps.push(ReactStep {
                chi_fire,
                update_clear,
                relation,
                tests_cube,
                cur_cube,
                next_rail: rename.iter().map(|&(n, _)| n).collect(),
                rename: bdd.rename_map(&rename),
                unrename: bdd.rename_map(&unrename),
            });
        }

        let mut model = NetworkModel {
            bdd,
            vars,
            env_steps,
            react_steps,
            init,
            state_vars,
            conds,
        };
        let roots = model.persistent_roots();
        model.bdd.gc(&roots);
        model
    }

    /// Every node the model must keep alive across reclamation: the
    /// partitioned relation (each reaction's parts and its quantified
    /// relation), the initial state, the precomputed quantification
    /// cubes, and the enabling conditions. The cubes are
    /// ordinary nodes — omitting them here would let a mid-traversal `gc`
    /// free them out from under the next image.
    pub fn persistent_roots(&self) -> Vec<NodeRef> {
        let mut roots = vec![self.init];
        for step in &self.env_steps {
            roots.push(step.cube);
        }
        for step in &self.react_steps {
            roots.push(step.chi_fire);
            roots.push(step.update_clear);
            roots.push(step.relation);
            roots.push(step.tests_cube);
            roots.push(step.cur_cube);
        }
        for machine_conds in &self.conds {
            roots.extend_from_slice(machine_conds);
        }
        roots
    }

    /// The sifting constraints of the verify manager, for reordering
    /// during reachability: each buffer's (cur, next) flag rail pair and
    /// each machine's combined ctrl cur+next bit block must stay
    /// contiguous and in declaration order, so renaming schedules and
    /// `MvVar` decoding survive the reorder. Test/action auxiliaries sift
    /// freely as singletons.
    pub fn sift_config(&self) -> polis_bdd::reorder::SiftConfig {
        let mut groups: Vec<Vec<Var>> = Vec::new();
        for mv in &self.vars {
            for (&c, &n) in mv.flag_cur.iter().zip(&mv.flag_next) {
                groups.push(vec![c, n]);
            }
            if let (Some(cur), Some(next)) = (&mv.ctrl_cur, &mv.ctrl_next) {
                let mut block: Vec<Var> = cur.bits().to_vec();
                block.extend_from_slice(next.bits());
                groups.push(block);
            }
        }
        polis_bdd::reorder::SiftConfig {
            precedence: Vec::new(),
            groups,
            max_passes: 1,
        }
    }

    /// The disjunction of all emitting-action variables of machine `i`
    /// for its output signal index `oi`, restricted to firing reactions
    /// and projected onto the machine's current-state variables: the
    /// predicate "machine `i` can emit this signal now" (for some data).
    pub fn emit_possible(&mut self, i: usize, m: &Cfsm, oi: usize) -> NodeRef {
        let emit = emits_signal(&mut self.bdd, m, &self.vars[i], oi);
        let mv = &self.vars[i];
        let f = self.bdd.and(self.react_steps[i].chi_fire, emit);
        let next = mv.ctrl_next.as_ref().map_or(&[][..], |n| n.bits());
        let aux = mv.tests.iter().chain(&mv.acts).chain(next).copied();
        let aux_cube = self.bdd.cube(aux);
        self.bdd.exists_cube(f, aux_cube)
    }
}

/// `⋁` over the action variables of machine `i` that emit output `oi`.
fn emits_signal(bdd: &mut Bdd, m: &Cfsm, mv: &MachineVars, oi: usize) -> NodeRef {
    let lits: Vec<NodeRef> = m
        .actions()
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, Action::Emit { signal, .. } if *signal == oi))
        .map(|(ai, _)| bdd.var(mv.acts[ai]))
        .collect();
    bdd.or_all(lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_core::random::{random_cfsm, random_network, RandomSpec, Rng};
    use polis_core::workloads;
    use std::convert::Infallible;

    /// Machines with at most this many input bits (flags, control code,
    /// tests) are checked on every valuation; wider ones on
    /// [`SAMPLES`] seeded valuations.
    const EXHAUSTIVE_BITS: usize = 16;
    const SAMPLES: usize = 1 << 12;

    /// Checks machine `i` of `model` against the reference semantics. For
    /// each checked valuation of its flags, control code and tests, the
    /// winner is the first transition of the current state whose guard
    /// holds under `Guard::eval`, as `CexTrace::replay` picks it. Then
    /// `cond_t` holds iff `t` is the winner, and `chi_fire` cofactored by
    /// the valuation is the minterm of the winner's actions and next
    /// state, or false when no transition is enabled (this includes the
    /// control codes no state uses).
    fn check_machine(model: &mut NetworkModel, i: usize, m: &Cfsm, rng: &mut Rng) {
        let mv = &model.vars[i];
        let (flags, ctrl, tests) = (
            mv.flag_cur.clone(),
            mv.ctrl_cur_bits().to_vec(),
            mv.tests.clone(),
        );
        let next: Vec<Var> = mv.ctrl_next.as_ref().map_or(&[][..], |n| n.bits()).to_vec();
        let acts = mv.acts.clone();
        let inputs: Vec<Var> = flags.iter().chain(&ctrl).chain(&tests).copied().collect();
        let n = inputs.len();
        assert!(n < 64, "{}: {n} input bits", m.name());

        // Per transition, the minterm over the actions and next state.
        let minterms: Vec<NodeRef> = m
            .transitions()
            .iter()
            .map(|t| {
                let w = next.len();
                let act_on = (0..acts.len()).map(|a| t.actions.contains(&a));
                let next_on = (0..w).map(|k| t.to >> (w - 1 - k) & 1 == 1);
                let lits: Vec<NodeRef> = acts
                    .iter()
                    .chain(&next)
                    .zip(act_on.chain(next_on))
                    .map(|(&v, on)| {
                        if on {
                            model.bdd.var(v)
                        } else {
                            model.bdd.nvar(v)
                        }
                    })
                    .collect();
                model.bdd.and_all(lits)
            })
            .collect();

        // (valuation, chi_fire cofactored by it); bit `k` sets `inputs[k]`.
        // Enumeration cofactors one input at a time, doubling the list.
        let chi_fire = model.react_steps[i].chi_fire;
        let mut cases = vec![(0u64, chi_fire)];
        if n <= EXHAUSTIVE_BITS {
            for (k, &v) in inputs.iter().enumerate() {
                let mut both = Vec::with_capacity(2 * cases.len());
                for (bits, f) in cases {
                    both.push((bits, model.bdd.restrict(f, v, false)));
                    both.push((bits | 1 << k, model.bdd.restrict(f, v, true)));
                }
                cases = both;
            }
        } else {
            cases = (0..SAMPLES)
                .map(|_| {
                    let bits = rng.next_u64() & ((1 << n) - 1);
                    let f = inputs.iter().enumerate().fold(chi_fire, |f, (k, &v)| {
                        model.bdd.restrict(f, v, bits >> k & 1 == 1)
                    });
                    (bits, f)
                })
                .collect();
        }

        let mut val = vec![false; model.bdd.num_vars()];
        for (bits, fired) in cases {
            for (k, v) in inputs.iter().enumerate() {
                val[v.index()] = bits >> k & 1 == 1;
            }
            let present: Vec<bool> = flags.iter().map(|v| val[v.index()]).collect();
            let holds: Vec<bool> = tests.iter().map(|v| val[v.index()]).collect();
            let code = ctrl
                .iter()
                .fold(0, |c, v| c << 1 | usize::from(val[v.index()]));
            let Ok(winner) = m.winner(code, &present, &mut |t| Ok::<_, Infallible>(holds[t]));
            for (ti, &cond) in model.conds[i].iter().enumerate() {
                let on = model.bdd.eval(cond, |v| val[v.index()]);
                assert_eq!(
                    on,
                    winner == Some(ti),
                    "{}: cond_{ti} at {bits:#b}",
                    m.name()
                );
            }
            let want = winner.map_or(NodeRef::FALSE, |ti| minterms[ti]);
            assert!(
                fired == want,
                "{}: chi_fire at {bits:#b} (winner {winner:?})",
                m.name()
            );
        }
    }

    #[test]
    fn each_relation_quantifies_the_tests_and_actions_out_of_its_parts() {
        // Checked against the unfused conjunction then quantification,
        // on the example specs and seeded relay networks.
        let mut nets: Vec<Network> = workloads::EXAMPLES
            .iter()
            .map(|(spec, _)| workloads::spec(spec).network)
            .collect();
        for n in 2..=6 {
            nets.push(random_network(n, &RandomSpec::default(), 0x5eed ^ n as u64));
        }
        let mut steps = 0;
        for net in &nets {
            let mut model = NetworkModel::build(net);
            for (i, mv) in model.vars.iter().enumerate() {
                let step = &model.react_steps[i];
                let aux: Vec<Var> = mv.tests.iter().chain(&mv.acts).copied().collect();
                let both = model.bdd.and(step.chi_fire, step.update_clear);
                let aux_cube = model.bdd.cube(aux.iter().copied());
                let want = model.bdd.exists_cube(both, aux_cube);
                assert_eq!(step.relation, want, "{}: machine {i}", net.name());
                let support = model.bdd.support(step.relation);
                assert!(
                    support.iter().all(|v| !aux.contains(v)),
                    "{}: machine {i} relation mentions a test or action",
                    net.name()
                );
                steps += 1;
            }
        }
        assert!(steps > 16, "{steps} reactions checked");
    }

    #[test]
    fn reactions_match_the_declaration_order_winner() {
        let mut rng = Rng::new(0x5eed_c0de);
        let mut machines = 0;
        for (spec, _) in workloads::EXAMPLES {
            let net = workloads::spec(spec).network;
            let mut model = NetworkModel::build(&net);
            for (i, m) in net.cfsms().iter().enumerate() {
                check_machine(&mut model, i, m, &mut rng);
                machines += 1;
            }
        }
        assert_eq!(machines, 16, "the example specs hold 16 machines");
        // Up to 13 flags, 5 control bits and 2 tests: some machines are
        // sampled rather than enumerated.
        for k in 0..30 {
            let spec = RandomSpec {
                states: rng.usize(1..20),
                pure_inputs: rng.usize(1..12),
                valued_inputs: rng.usize(0..3),
                outputs: rng.usize(1..4),
                vars: rng.usize(0..3),
                transitions: rng.usize(1..40),
            };
            let m = random_cfsm(&format!("rnd{k}"), &spec, rng.next_u64());
            let net = Network::new("rnd", vec![m]).expect("one machine is a network");
            let mut model = NetworkModel::build(&net);
            check_machine(&mut model, 0, &net.cfsms()[0], &mut rng);
        }
    }
}
