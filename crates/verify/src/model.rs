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
//! 3. one auxiliary variable per data test (existentially quantified out
//!    of every image — data is abstracted as free nondeterminism);
//! 4. one auxiliary variable per action (quantified out after the buffer
//!    updates are applied).
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
//!   imported `χ|consume=1` constrains (flags, ctrl, tests) → (actions,
//!   next ctrl); the update constraint propagates emissions into consumer
//!   buffers (`flag' ↔ flag ∨ emitted`); the machine's own buffers are
//!   cleared (snapshot consumption). The two constraint sets are
//!   disjoint because no machine consumes its own output — `Cfsm::build`
//!   rejects that, and the encoding asserts it. Reactions that fire
//!   nothing are identity steps and are simply omitted.
//!
//! A machine may attempt a reaction from any reachable state and the test
//! variables are unconstrained, so the reachable set over-approximates
//! every schedule the generated RTOS (or `rtos::sim`) can produce — the
//! direction that makes the lost-event/deadlock verdicts sound alarms.

use polis_bdd::encode::MvVar;
use polis_bdd::{Bdd, NodeRef, Var};
use polis_cfsm::{Action, Cfsm, Guard, Network, ReactiveFn, RfVarKind};
use std::collections::HashMap;

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

/// One machine's reaction as a partitioned transition relation with a
/// pre-computed early-quantification schedule.
pub(crate) struct ReactStep {
    /// Imported `χ|consume=1` over global variables.
    pub chi_fire: NodeRef,
    /// Consumer buffer updates fused with snapshot consumption:
    /// `(flag' ↔ flag ∨ ⋁ emitting actions) ∧ ⋀ ¬own_flag'`. The clear
    /// half has no action variables in its support, so conjoining it
    /// before the action quantification is sound and saves one
    /// relational product per image.
    pub update_clear: NodeRef,
    /// Test variables (quantified immediately after `χ` is conjoined).
    pub q_tests: Vec<Var>,
    /// Action variables (quantified after `update_clear` is conjoined).
    pub q_acts: Vec<Var>,
    /// Next → current renaming applied last.
    pub rename: Vec<(Var, Var)>,
    /// Positive cube over `q_tests` (for the `χ` relational product).
    pub tests_cube: NodeRef,
    /// Positive cube over `q_acts` plus the current-state variables the
    /// step consumes — the machine's own flags and control bits and every
    /// affected consumer flag (for the `update_clear` relational
    /// product).
    pub acts_cur_cube: NodeRef,
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
    /// condition over (own flags, own ctrl, own tests) — the symbolic
    /// mirror of the `χ` construction in `cfsm::chi`.
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
        for (i, m) in cfsms.iter().enumerate() {
            let mut rf = ReactiveFn::build(m);
            let map = chi_var_map(&rf, &vars[i]);
            let consume = rf
                .outputs()
                .iter()
                .find(|v| v.kind == RfVarKind::Consume)
                .expect("χ has a consume variable")
                .bits[0];
            let chi = rf.chi();
            let chi_fire_src = rf.bdd_mut().restrict(chi, consume, true);
            let chi_fire = import(&mut bdd, &rf, chi_fire_src, &map);

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
            let acts_cur_cube = bdd.cube(vars[i].acts.iter().copied().chain(q_cur.iter().copied()));
            react_steps.push(ReactStep {
                chi_fire,
                update_clear,
                q_tests: vars[i].tests.clone(),
                q_acts: vars[i].acts.clone(),
                rename,
                tests_cube,
                acts_cur_cube,
            });
        }

        // -- per-transition enabling conditions (priority-resolved) --
        let mut conds = Vec::with_capacity(cfsms.len());
        for (i, m) in cfsms.iter().enumerate() {
            let mut machine_conds = Vec::with_capacity(m.num_transitions());
            let mut taken: Vec<NodeRef> = vec![NodeRef::FALSE; m.states().len()];
            for t in m.transitions() {
                let in_state = match &vars[i].ctrl_cur {
                    Some(mv) => mv.eq_const(&mut bdd, t.from as u64),
                    None => NodeRef::TRUE,
                };
                let guard = guard_to_bdd(&mut bdd, &t.guard, &vars[i]);
                let raw = bdd.and(in_state, guard);
                let not_taken = bdd.not(taken[t.from]);
                let cond = bdd.and(raw, not_taken);
                taken[t.from] = bdd.or(taken[t.from], raw);
                machine_conds.push(cond);
            }
            conds.push(machine_conds);
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
    /// partitioned relation, the initial state, the precomputed
    /// quantification cubes, and the enabling conditions. The cubes are
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
            roots.push(step.tests_cube);
            roots.push(step.acts_cur_cube);
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
        let step = &self.react_steps[i];
        let mut f = self.bdd.and(step.chi_fire, emit);
        let mut aux: Vec<Var> = step.q_tests.clone();
        aux.extend_from_slice(&step.q_acts);
        if let Some(next) = &self.vars[i].ctrl_next {
            aux.extend_from_slice(next.bits());
        }
        let aux_cube = self.bdd.cube(aux);
        f = self.bdd.exists_cube(f, aux_cube);
        f
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

/// Maps every `χ` variable of `rf` onto the machine's global variables.
fn chi_var_map(rf: &ReactiveFn, mv: &MachineVars) -> HashMap<Var, Var> {
    let mut map = HashMap::new();
    for v in rf.inputs() {
        match v.kind {
            RfVarKind::Present { input } => {
                map.insert(v.bits[0], mv.flag_cur[input]);
            }
            RfVarKind::Ctrl => {
                let bits = mv.ctrl_cur.as_ref().expect("ctrl var exists").bits();
                for (&src, &dst) in v.bits.iter().zip(bits) {
                    map.insert(src, dst);
                }
            }
            RfVarKind::Test { test } => {
                map.insert(v.bits[0], mv.tests[test]);
            }
            _ => {}
        }
    }
    for v in rf.outputs() {
        match v.kind {
            RfVarKind::Action { action } => {
                map.insert(v.bits[0], mv.acts[action]);
            }
            RfVarKind::NextCtrl => {
                let bits = mv.ctrl_next.as_ref().expect("next ctrl var exists").bits();
                for (&src, &dst) in v.bits.iter().zip(bits) {
                    map.insert(src, dst);
                }
            }
            _ => {}
        }
    }
    map
}

/// Copies `f` from the reactive function's manager into `dst`, rewriting
/// each source variable through `map`. Memoized per source node, so the
/// copy is linear in the source BDD size.
fn import(dst: &mut Bdd, rf: &ReactiveFn, f: NodeRef, map: &HashMap<Var, Var>) -> NodeRef {
    fn rec(
        dst: &mut Bdd,
        rf: &ReactiveFn,
        f: NodeRef,
        map: &HashMap<Var, Var>,
        memo: &mut HashMap<NodeRef, NodeRef>,
    ) -> NodeRef {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let src = rf.bdd();
        let v = src.node_var(f).expect("non-terminal has a variable");
        let (flo, fhi) = (src.lo(f), src.hi(f));
        let lo = rec(dst, rf, flo, map, memo);
        let hi = rec(dst, rf, fhi, map, memo);
        let gv = *map.get(&v).expect("every χ variable is mapped");
        let guard = dst.var(gv);
        let r = dst.ite(guard, hi, lo);
        memo.insert(f, r);
        r
    }
    let mut memo = HashMap::new();
    rec(dst, rf, f, map, &mut memo)
}

/// Translates a guard over the machine's global flag/test variables.
fn guard_to_bdd(bdd: &mut Bdd, g: &Guard, mv: &MachineVars) -> NodeRef {
    match g {
        Guard::True => NodeRef::TRUE,
        Guard::False => NodeRef::FALSE,
        Guard::Present(i) => bdd.var(mv.flag_cur[*i]),
        Guard::Test(i) => bdd.var(mv.tests[*i]),
        Guard::Not(x) => {
            let fx = guard_to_bdd(bdd, x, mv);
            bdd.not(fx)
        }
        Guard::And(a, b) => {
            let fa = guard_to_bdd(bdd, a, mv);
            let fb = guard_to_bdd(bdd, b, mv);
            bdd.and(fa, fb)
        }
        Guard::Or(a, b) => {
            let fa = guard_to_bdd(bdd, a, mv);
            let fb = guard_to_bdd(bdd, b, mv);
            bdd.or(fa, fb)
        }
    }
}
