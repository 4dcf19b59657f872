//! Synchronous composition of a CFSM network into a single CFSM.
//!
//! This implements the "single FSM" style of the Esterel v3 compiler used as
//! the `ESTEREL` baseline in Table III: the whole network becomes one
//! machine whose control state is the tuple of member states, with internal
//! communication compiled away. As the paper notes, this is fast per
//! reaction (no internal events, no scheduling) at the expense of code size,
//! which can grow with the product of the member state spaces.
//!
//! Semantics: one product reaction is one *synchronous tick*. Members react
//! simultaneously; an internal event emitted in a tick is visible to its
//! consumers **in the same tick** (Esterel's instantaneous broadcast), which
//! requires the internal communication graph to be acyclic (the analogue of
//! Esterel's causality requirement — see
//! [`Network::topo_order`]). An internal valued event also updates a
//! product-level buffer variable so consumers that sample it in a *later*
//! tick see the last emitted value, matching the CFSM one-place buffer.
//!
//! Note this differs from the asynchronous GALS execution of the same
//! network (Section II-D): composition trades nondeterministic interleaving
//! for the synchronous hypothesis, exactly the trade-off the paper discusses
//! in "Synchrony and Asynchrony".

use crate::machine::{Action, Cfsm, CfsmError, Guard, Transition};
use crate::network::{Network, NetworkError};
use crate::signal::value_var_name;
use polis_expr::{Expr, Type, Value};
use std::collections::{BTreeMap, HashMap};

/// Hard cap on generated product transitions; composition fails with
/// [`ComposeError::TooLarge`] beyond this.
const MAX_PRODUCT_TRANSITIONS: usize = 250_000;

/// Failure during [`compose`].
#[derive(Debug)]
pub enum ComposeError {
    /// The network's internal communication graph is cyclic.
    Network(NetworkError),
    /// The product machine is invalid (indicates a bug in composition).
    Machine(CfsmError),
    /// The product exceeded an internal transition cap (250 000) — the
    /// state blow-up the paper warns about, beyond what we materialize.
    TooLarge {
        /// Transitions generated before giving up.
        generated: usize,
    },
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::Network(e) => write!(f, "composition: {e}"),
            ComposeError::Machine(e) => write!(f, "composition produced invalid machine: {e}"),
            ComposeError::TooLarge { generated } => {
                write!(f, "product machine too large (> {generated} transitions)")
            }
        }
    }
}

impl std::error::Error for ComposeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComposeError::Network(e) => Some(e),
            ComposeError::Machine(e) => Some(e),
            ComposeError::TooLarge { .. } => None,
        }
    }
}

impl From<NetworkError> for ComposeError {
    fn from(e: NetworkError) -> ComposeError {
        ComposeError::Network(e)
    }
}

impl From<CfsmError> for ComposeError {
    fn from(e: CfsmError) -> ComposeError {
        ComposeError::Machine(e)
    }
}

/// A product action before instantiation.
#[derive(Debug, Clone)]
enum PAction {
    Emit { signal: String, value: Option<Expr> },
    Assign { var: String, value: Expr },
}

/// A product transition before instantiation.
#[derive(Debug)]
struct PTransition {
    from: usize,
    to: usize,
    guard: Guard,
    actions: Vec<PAction>,
}

/// Composes the whole network into one CFSM (the Esterel-v3-style baseline).
///
/// # Errors
///
/// * [`ComposeError::Network`] when internal communication is cyclic;
/// * [`ComposeError::TooLarge`] when the product transition count explodes
///   past an internal safety cap.
pub fn compose(net: &Network) -> Result<Cfsm, ComposeError> {
    compose_named(net, &format!("{}_product", net.name()))
}

/// Like [`compose`] with an explicit name for the product machine.
pub fn compose_named(net: &Network, name: &str) -> Result<Cfsm, ComposeError> {
    let topo = net.topo_order().ok_or(NetworkError::CyclicCommunication)?;
    let machines = net.cfsms();
    // Sorted, so membership is a binary search.
    let internal: Vec<String> = net.internal_signals();

    // External input signals, deduplicated, with declared types.
    let mut ext_inputs: BTreeMap<String, Option<Type>> = BTreeMap::new();
    for m in machines {
        for s in m.inputs() {
            if !is_internal(&internal, s.name()) {
                ext_inputs.insert(s.name().to_owned(), s.value_type());
            }
        }
    }
    let ext_input_names: Vec<String> = ext_inputs.keys().cloned().collect();

    // The type of every variable a product expression can read: renamed
    // member state variables, external input values and internal buffers.
    let mut var_types: HashMap<String, Type> = HashMap::new();
    for m in machines {
        for v in m.state_vars() {
            var_types.insert(format!("{}__{}", m.name(), v.name), v.ty);
        }
    }
    for (sig, ty) in &ext_inputs {
        if let Some(ty) = ty {
            var_types.insert(value_var_name(sig), *ty);
        }
    }
    for sig in &internal {
        if let Some(ty) = internal_type(net, sig) {
            var_types.insert(buf_var_name(sig), ty);
        }
    }

    // Variable renaming: member state var `v` of machine `m` -> `m__v`.
    let rename = |m: &Cfsm, e: &Expr| -> Expr {
        e.rename_vars(&|n| {
            if m.state_var_index(n).is_some() {
                format!("{}__{n}", m.name())
            } else {
                n.to_owned()
            }
        })
    };

    // Per-tuple enumeration state.
    let mut tuples: Vec<Vec<usize>> = Vec::new();
    let mut tuple_index: HashMap<Vec<usize>, usize> = HashMap::new();
    let init: Vec<usize> = machines.iter().map(|m| m.init_state()).collect();
    tuple_index.insert(init.clone(), 0);
    tuples.push(init);

    let mut transitions: Vec<PTransition> = Vec::new();
    let mut tests: Vec<Expr> = Vec::new();
    let mut test_index: HashMap<Expr, usize> = HashMap::new();

    let mut frontier = vec![0usize];
    while let Some(ti) = frontier.pop() {
        let tuple = tuples[ti].clone();
        // Enumerate member choices in topological order so internal
        // presence and values are known when consumers are processed.
        let mut ctx = ComboCtx {
            net,
            topo: &topo,
            tuple: &tuple,
            internal: &internal,
            var_types: &var_types,
            ext_input_names: &ext_input_names,
            rename: &rename,
            tests: &mut tests,
            test_index: &mut test_index,
            out: &mut Vec::new(),
        };
        enumerate(&mut ctx, 0, Combo::default());
        let combos = std::mem::take(ctx.out);
        for combo in combos {
            if combo.all_default {
                continue;
            }
            let mut to_tuple = tuple.clone();
            for (mi, st) in &combo.next {
                to_tuple[*mi] = *st;
            }
            let to = *tuple_index.entry(to_tuple.clone()).or_insert_with(|| {
                tuples.push(to_tuple);
                frontier.push(tuples.len() - 1);
                tuples.len() - 1
            });
            transitions.push(PTransition {
                from: ti,
                to,
                guard: combo.guard,
                actions: combo.actions,
            });
            if transitions.len() > MAX_PRODUCT_TRANSITIONS {
                return Err(ComposeError::TooLarge {
                    generated: transitions.len(),
                });
            }
        }
    }

    // Instantiate the product CFSM.
    let mut b = Cfsm::builder(name);
    for n in &ext_input_names {
        match ext_inputs[n] {
            Some(ty) => b.input_valued(n.clone(), ty),
            None => b.input_pure(n.clone()),
        };
    }
    let mut emitted: Vec<&crate::Signal> = Vec::new();
    for m in machines {
        for s in m.outputs() {
            if !emitted.iter().any(|e| e.name() == s.name()) {
                emitted.push(s);
                match s.value_type() {
                    Some(ty) => b.output_valued(s.name(), ty),
                    None => b.output_pure(s.name()),
                };
            }
        }
    }
    for m in machines {
        for v in m.state_vars() {
            b.state_var(format!("{}__{}", m.name(), v.name), v.ty, v.init);
        }
    }
    // Buffer variables for valued internal signals (one-place buffers).
    for sig in &internal {
        if let Some(ty) = internal_type(net, sig) {
            b.state_var(buf_var_name(sig), ty, Value::Int(0));
        }
    }
    let state_ids: Vec<crate::machine::StateId> = tuples
        .iter()
        .map(|t| {
            let label: Vec<&str> = t
                .iter()
                .enumerate()
                .map(|(mi, &s)| machines[mi].states()[s].as_str())
                .collect();
            b.ctrl_state(label.join("*"))
        })
        .collect();
    // Only the tests some transition reads become product tests (a test
    // interned inside a guard that later folded to `False` would be a dead
    // χ variable), numbered in interning order.
    let mut read = vec![false; tests.len()];
    for pt in &transitions {
        pt.guard.visit_atoms(&mut |_| {}, &mut |i| read[i] = true);
    }
    let mut test_ids: Vec<Option<crate::machine::TestId>> = vec![None; tests.len()];
    let kept = tests.into_iter().enumerate().filter(|&(i, _)| read[i]);
    for (n, (i, e)) in kept.enumerate() {
        test_ids[i] = Some(b.test(format!("pt{n}"), e));
    }
    for pt in transitions {
        let guard = map_guard_tests(&pt.guard, &test_ids);
        let mut tb = b
            .transition(state_ids[pt.from], state_ids[pt.to])
            .when(guard);
        for a in pt.actions {
            tb = match a {
                PAction::Emit {
                    signal,
                    value: None,
                } => tb.emit(&signal),
                PAction::Emit {
                    signal,
                    value: Some(e),
                } => tb.emit_value(&signal, e),
                PAction::Assign { var, value } => tb.assign(&var, value),
            };
        }
        tb.done();
    }
    Ok(b.build()?)
}

/// Replaces a subset of machines by their synchronous product, leaving the
/// rest of the network untouched. Used for the granularity experiment
/// (Section I-H: growing the synchronous islands).
///
/// # Errors
///
/// Propagates [`ComposeError`]; also fails if `names` contains an unknown
/// machine.
pub fn compose_subset(net: &Network, names: &[&str]) -> Result<Network, ComposeError> {
    let mut selected = Vec::new();
    let mut rest = Vec::new();
    for m in net.cfsms() {
        if names.contains(&m.name()) {
            selected.push(m.clone());
        } else {
            rest.push(m.clone());
        }
    }
    assert_eq!(selected.len(), names.len(), "unknown machine in subset");
    let sub = Network::new(format!("{}_sub", net.name()), selected)?;
    let product = compose_named(&sub, &names.join("_"))?;
    let mut all = vec![product];
    all.extend(rest);
    Ok(Network::new(net.name().to_owned(), all)?)
}

fn buf_var_name(sig: &str) -> String {
    format!("{sig}__buf")
}

/// Membership in the sorted list [`Network::internal_signals`] returns.
fn is_internal(internal: &[String], sig: &str) -> bool {
    internal.binary_search_by(|s| s.as_str().cmp(sig)).is_ok()
}

/// The value type of internal signal `sig`, as its driver declares it.
fn internal_type(net: &Network, sig: &str) -> Option<Type> {
    let m = &net.cfsms()[net.driver_of(sig).expect("driver")];
    m.outputs()[m.output_index(sig).expect("driver output")].value_type()
}

/// One member-choice combination under construction.
#[derive(Debug, Default, Clone)]
struct Combo {
    guard: Guard,
    actions: Vec<PAction>,
    next: Vec<(usize, usize)>,
    /// Internal signals emitted in this tick, with their value expressions.
    emitted: BTreeMap<String, Option<Expr>>,
    all_default: bool,
}

struct ComboCtx<'a> {
    net: &'a Network,
    topo: &'a [usize],
    tuple: &'a [usize],
    /// [`Network::internal_signals`], computed once per composition.
    internal: &'a [String],
    /// Types of the variables product expressions read (see [`compose_named`]).
    var_types: &'a HashMap<String, Type>,
    ext_input_names: &'a [String],
    rename: &'a dyn Fn(&Cfsm, &Expr) -> Expr,
    tests: &'a mut Vec<Expr>,
    test_index: &'a mut HashMap<Expr, usize>,
    out: &'a mut Vec<Combo>,
}

fn enumerate(ctx: &mut ComboCtx<'_>, pos: usize, combo: Combo) {
    if pos == ctx.topo.len() {
        let mut done = combo;
        done.all_default = done.next.is_empty();
        done.guard = simplify(done.guard);
        if done.guard != Guard::False {
            ctx.out.push(done);
        }
        return;
    }
    let mi = ctx.topo[pos];
    let m = &ctx.net.cfsms()[mi];
    let state = ctx.tuple[mi];
    let from_here: Vec<&Transition> = m.transitions().iter().filter(|t| t.from == state).collect();

    // Option: take transition k (earlier ones must not match).
    for (k, t) in from_here.iter().enumerate() {
        let mut c = combo.clone();
        let mut g = translate_guard(ctx, m, &t.guard, &combo);
        for earlier in &from_here[..k] {
            let ge = translate_guard(ctx, m, &earlier.guard, &combo);
            g = g.and(ge.not());
        }
        g = simplify(g);
        if g == Guard::False {
            continue;
        }
        c.guard = simplify(combo.guard.clone().and(g));
        if c.guard == Guard::False {
            continue;
        }
        c.next.push((mi, t.to));
        for &ai in &t.actions {
            match &m.actions()[ai] {
                Action::Emit { signal, value } => {
                    let sig = m.outputs()[*signal].name().to_owned();
                    let val = value
                        .as_ref()
                        .map(|e| substitute_internal_values(ctx, m, &(ctx.rename)(m, e), &combo));
                    c.actions.push(PAction::Emit {
                        signal: sig.clone(),
                        value: val.clone(),
                    });
                    if is_internal(ctx.internal, &sig) {
                        if let Some(v) = &val {
                            c.actions.push(PAction::Assign {
                                var: buf_var_name(&sig),
                                value: v.clone(),
                            });
                        }
                        c.emitted.insert(sig, val);
                    }
                }
                Action::Assign { var, value } => {
                    let v = &m.state_vars()[*var];
                    let e = substitute_internal_values(ctx, m, &(ctx.rename)(m, value), &combo);
                    c.actions.push(PAction::Assign {
                        var: format!("{}__{}", m.name(), v.name),
                        value: e,
                    });
                }
            }
        }
        enumerate(ctx, pos + 1, c);
    }

    // Option: default (no transition of this machine matches).
    let mut c = combo.clone();
    let mut g = Guard::True;
    for t in &from_here {
        let gt = translate_guard(ctx, m, &t.guard, &combo);
        g = g.and(gt.not());
    }
    c.guard = simplify(combo.guard.clone().and(simplify(g)));
    if c.guard != Guard::False {
        enumerate(ctx, pos + 1, c);
    }
}

/// Translates a member guard into the product's atom space, substituting
/// internal-signal presence by this tick's emission facts.
fn translate_guard(ctx: &mut ComboCtx<'_>, m: &Cfsm, g: &Guard, combo: &Combo) -> Guard {
    match g {
        Guard::True => Guard::True,
        Guard::False => Guard::False,
        Guard::Present(i) => {
            let sig = m.inputs()[*i].name();
            if is_internal(ctx.internal, sig) {
                if combo.emitted.contains_key(sig) {
                    Guard::True
                } else {
                    Guard::False
                }
            } else {
                let pi = ctx
                    .ext_input_names
                    .iter()
                    .position(|n| n == sig)
                    .expect("external input registered");
                Guard::Present(pi)
            }
        }
        Guard::Test(i) => {
            let expr = (ctx.rename)(m, &m.tests()[*i].expr);
            let expr = substitute_internal_values(ctx, m, &expr, combo);
            match expr.decide(&|n| ctx.var_types.get(n).copied()) {
                Some(true) => return Guard::True,
                Some(false) => return Guard::False,
                None => {}
            }
            let idx = match ctx.test_index.get(&expr) {
                Some(&idx) => idx,
                None => {
                    let idx = ctx.tests.len();
                    ctx.tests.push(expr.clone());
                    ctx.test_index.insert(expr, idx);
                    idx
                }
            };
            Guard::Test(idx)
        }
        Guard::Not(x) => translate_guard(ctx, m, x, combo).not(),
        Guard::And(a, b) => {
            translate_guard(ctx, m, a, combo).and(translate_guard(ctx, m, b, combo))
        }
        Guard::Or(a, b) => translate_guard(ctx, m, a, combo).or(translate_guard(ctx, m, b, combo)),
    }
}

/// Replaces references to internal valued signals (`sig_value`) by the
/// emitter's value expression (same-tick emission) or the buffer variable
/// (sampled from an earlier tick). A real emission clamps the value to the
/// signal's type before the receiver sees it, so a same-tick value is
/// wrapped in an explicit modular coercion unless its interval over the
/// product's variable types already lies inside that type.
fn substitute_internal_values(ctx: &ComboCtx<'_>, m: &Cfsm, e: &Expr, combo: &Combo) -> Expr {
    let mut out = e.clone();
    for s in m.inputs() {
        let Some(ty) = s.value_type() else {
            continue;
        };
        let sig = s.name();
        if !is_internal(ctx.internal, sig) {
            continue;
        }
        let fits = |e: &Expr| {
            e.interval(&|n| ctx.var_types.get(n).copied())
                .is_some_and(|(lo, hi)| lo >= ty.min_value() && hi <= ty.max_value())
        };
        let vv = value_var_name(sig);
        let replacement = match combo.emitted.get(sig) {
            Some(Some(expr)) if fits(expr) => expr.clone(),
            Some(Some(expr)) => coerce_expr(expr.clone(), ty),
            _ => Expr::var(buf_var_name(sig)),
        };
        out = out.substitute(&vv, &replacement);
    }
    out
}

/// Builds an expression computing [`polis_expr::Type::clamp`] of `e` from
/// the safe modular operators (`((e % D) + D) % D`, shifted for signed
/// types), so inlined same-tick values wrap exactly like real emissions.
fn coerce_expr(e: Expr, ty: Type) -> Expr {
    match ty {
        Type::Bool => e,
        Type::Int { bits, signed } => {
            let d = 1i64 << bits;
            let positive_mod = |x: Expr| x.rem(Expr::int(d)).add(Expr::int(d)).rem(Expr::int(d));
            if signed {
                let h = d / 2;
                positive_mod(e.add(Expr::int(h))).sub(Expr::int(h))
            } else {
                positive_mod(e)
            }
        }
    }
}

/// Constant folding over guards.
fn simplify(g: Guard) -> Guard {
    match g {
        Guard::Not(x) => match simplify(*x) {
            Guard::True => Guard::False,
            Guard::False => Guard::True,
            Guard::Not(inner) => *inner,
            other => other.not(),
        },
        Guard::And(a, b) => match (simplify(*a), simplify(*b)) {
            (Guard::False, _) | (_, Guard::False) => Guard::False,
            (Guard::True, x) | (x, Guard::True) => x,
            (x, y) => x.and(y),
        },
        Guard::Or(a, b) => match (simplify(*a), simplify(*b)) {
            (Guard::True, _) | (_, Guard::True) => Guard::True,
            (Guard::False, x) | (x, Guard::False) => x,
            (x, y) => x.or(y),
        },
        leaf => leaf,
    }
}

fn map_guard_tests(g: &Guard, ids: &[Option<crate::machine::TestId>]) -> Guard {
    match g {
        Guard::Test(i) => Guard::Test(ids[*i].expect("a read test has an id").0),
        Guard::Not(x) => map_guard_tests(x, ids).not(),
        Guard::And(a, b) => map_guard_tests(a, ids).and(map_guard_tests(b, ids)),
        Guard::Or(a, b) => map_guard_tests(a, ids).or(map_guard_tests(b, ids)),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_expr::MapEnv;
    use std::collections::BTreeSet;

    fn relay(name: &str, input: &str, output: &str) -> Cfsm {
        let mut b = Cfsm::builder(name);
        b.input_pure(input);
        b.output_pure(output);
        let s = b.ctrl_state("s");
        b.transition(s, s).when_present(input).emit(output).done();
        b.build().unwrap()
    }

    /// Synchronous-tick reference: run members in topo order, deliver
    /// internal events within the tick, return all emissions. Emitted
    /// values are written into `vals`, where they stay for later ticks as
    /// in a one-place buffer.
    fn sync_tick_reference(
        net: &Network,
        present_ext: &BTreeSet<String>,
        vals: &mut MapEnv,
        states: &mut [crate::CfsmState],
    ) -> Vec<String> {
        let topo = net.topo_order().unwrap();
        let mut present: BTreeSet<String> = present_ext.clone();
        let mut emissions = Vec::new();
        for &mi in &topo {
            let m = &net.cfsms()[mi];
            let r = m.react(&present, vals, &states[mi]).unwrap();
            for e in &r.emissions {
                emissions.push(e.signal.clone());
                present.insert(e.signal.clone());
                if let Some(v) = e.value {
                    vals.set(value_var_name(&e.signal), v);
                }
            }
            states[mi] = r.next;
        }
        emissions.sort();
        emissions
    }

    #[test]
    fn pipeline_composes_to_single_machine() {
        let net =
            Network::new("pipe", vec![relay("a", "in", "m"), relay("b", "m", "out")]).unwrap();
        let p = compose(&net).unwrap();
        assert_eq!(p.states().len(), 1);
        // The product reacts to `in` by emitting both `m` and `out` in one
        // tick (instantaneous internal broadcast).
        let present: BTreeSet<String> = ["in".to_string()].into();
        let r = p
            .react(&present, &MapEnv::new(), &p.initial_state())
            .unwrap();
        let mut sigs: Vec<&str> = r.emissions.iter().map(|e| e.signal.as_str()).collect();
        sigs.sort();
        assert_eq!(sigs, vec!["m", "out"]);
    }

    #[test]
    fn product_matches_synchronous_reference_on_valued_pipeline() {
        // a doubles its input value and forwards; b thresholds it.
        let mut b1 = Cfsm::builder("doubler");
        b1.input_valued("x", Type::uint(8));
        b1.output_valued("y", Type::uint(8));
        let s = b1.ctrl_state("s");
        b1.transition(s, s)
            .when_present("x")
            .emit_value("y", Expr::var("x_value").mul(Expr::int(2)))
            .done();
        let doubler = b1.build().unwrap();

        let mut b2 = Cfsm::builder("thresh");
        b2.input_valued("y", Type::uint(8));
        b2.output_pure("high");
        let s = b2.ctrl_state("s");
        let big = b2.test("big", Expr::var("y_value").gt(Expr::int(10)));
        b2.transition(s, s)
            .when_present("y")
            .when_test(big)
            .emit("high")
            .done();
        let thresh = b2.build().unwrap();

        let net = Network::new("vp", vec![doubler, thresh]).unwrap();
        let p = compose(&net).unwrap();

        let mut ref_states: Vec<crate::CfsmState> =
            net.cfsms().iter().map(|m| m.initial_state()).collect();
        let mut p_state = p.initial_state();

        for x in [3i64, 6, 9, 2, 30] {
            let present: BTreeSet<String> = ["x".to_string()].into();
            let mut vals = MapEnv::new();
            vals.set("x_value", Value::Int(x));

            let want = sync_tick_reference(&net, &present, &mut vals.clone(), &mut ref_states);
            let r = p.react(&present, &vals, &p_state).unwrap();
            p_state = r.next;
            let mut got: Vec<String> = r.emissions.iter().map(|e| e.signal.clone()).collect();
            got.sort();
            assert_eq!(got, want, "x={x}");
        }
    }

    /// `counter` emits `x(step)` from a u8 `cnt` that starts at 250;
    /// `widen` forwards the same tick's `?x` on a u16 output, where an
    /// unwrapped value would show.
    fn counter_into_widen(step: Expr) -> Network {
        let mut b1 = Cfsm::builder("counter");
        b1.input_pure("go");
        b1.output_valued("x", Type::uint(8));
        b1.state_var("cnt", Type::uint(8), Value::Int(250));
        let s = b1.ctrl_state("s");
        b1.transition(s, s)
            .when_present("go")
            .emit_value("x", step)
            .assign("cnt", Expr::var("cnt").add(Expr::int(1)))
            .done();
        let counter = b1.build().unwrap();

        let mut b2 = Cfsm::builder("widen");
        b2.input_valued("x", Type::uint(8));
        b2.output_valued("wide", Type::uint(16));
        let s = b2.ctrl_state("s");
        b2.transition(s, s)
            .when_present("x")
            .emit_value("wide", Expr::var("x_value"))
            .done();
        let widen = b2.build().unwrap();
        Network::new("wrap", vec![counter, widen]).unwrap()
    }

    /// Whether any product emission still carries a modular coercion.
    fn has_coercion(p: &Cfsm) -> bool {
        p.actions().iter().any(|a| match a {
            Action::Emit { value: Some(e), .. } => e.to_c().contains('%'),
            _ => false,
        })
    }

    #[test]
    fn overflowing_same_tick_value_keeps_its_coercion_and_wraps() {
        let net = counter_into_widen(Expr::var("cnt").add(Expr::int(1)));
        let p = compose(&net).unwrap();
        assert!(has_coercion(&p), "cnt + 1 can reach 256 and must wrap");

        let go: BTreeSet<String> = ["go".to_string()].into();
        let mut ref_states: Vec<crate::CfsmState> =
            net.cfsms().iter().map(|m| m.initial_state()).collect();
        let mut st = p.initial_state();
        let mut wides = Vec::new();
        for tick in 0..8 {
            let want = sync_tick_reference(&net, &go, &mut MapEnv::new(), &mut ref_states);
            let r = p.react(&go, &MapEnv::new(), &st).unwrap();
            st = r.next;
            let mut got: Vec<String> = r.emissions.iter().map(|e| e.signal.clone()).collect();
            got.sort();
            assert_eq!(got, want, "tick {tick}");
            let wide = r.emissions.iter().find(|e| e.signal == "wide").unwrap();
            wides.push(wide.value.unwrap().as_int().unwrap());
        }
        // The network's u8 buffer wraps 255 -> 0; the product must as well.
        assert_eq!(wides, [251, 252, 253, 254, 255, 0, 1, 2]);
    }

    #[test]
    fn same_tick_value_proven_in_range_is_inlined_bare() {
        let net = counter_into_widen(Expr::var("cnt").div(Expr::int(2)));
        let p = compose(&net).unwrap();
        assert!(!has_coercion(&p), "cnt / 2 lies in [0, 127]");
    }

    #[test]
    fn same_tick_constant_decides_its_consumers_test() {
        // src emits x(2) on `go`; dst tests [?x >= 2] when x arrives, and
        // also on `ask`, where it reads the buffered value of an earlier
        // tick.
        let mut b1 = Cfsm::builder("src");
        b1.input_pure("go");
        b1.output_valued("x", Type::uint(8));
        let s = b1.ctrl_state("s");
        b1.transition(s, s)
            .when_present("go")
            .emit_value("x", Expr::int(2))
            .done();
        let src = b1.build().unwrap();

        let mut b2 = Cfsm::builder("dst");
        b2.input_valued("x", Type::uint(8));
        b2.input_pure("ask");
        b2.output_pure("hi");
        b2.output_pure("lo");
        let s = b2.ctrl_state("s");
        let ge2 = b2.test("ge2", Expr::var("x_value").ge(Expr::int(2)));
        b2.transition(s, s)
            .when_present("x")
            .when_test(ge2)
            .emit("hi")
            .done();
        b2.transition(s, s).when_present("x").emit("lo").done();
        b2.transition(s, s)
            .when_present("ask")
            .when_test(ge2)
            .emit("hi")
            .done();
        let dst = b2.build().unwrap();

        let net = Network::new("konst", vec![src, dst]).unwrap();
        let p = compose(&net).unwrap();
        // `(2 >= 2)` is folded away; only the buffered test is left.
        let tests: Vec<String> = p.tests().iter().map(|t| t.expr.to_c()).collect();
        assert_eq!(tests, ["(x__buf >= 2)"]);
        // `lo` needs x without [?x >= 2], which no tick can give.
        let lo = p.output_index("lo").unwrap();
        assert!(p.actions().iter().all(|a| !matches!(
            a,
            Action::Emit { signal, .. } if *signal == lo
        )));

        let mut ref_states: Vec<crate::CfsmState> =
            net.cfsms().iter().map(|m| m.initial_state()).collect();
        let mut st = p.initial_state();
        // The product's buffer starts at 0.
        let mut vals = MapEnv::new();
        vals.set("x_value", Value::Int(0));
        let mut trace = Vec::new();
        for present in [&["ask"][..], &["go"], &["ask"], &["go", "ask"], &[]] {
            let present: BTreeSet<String> = present.iter().map(|s| s.to_string()).collect();
            let want = sync_tick_reference(&net, &present, &mut vals, &mut ref_states);
            let r = p.react(&present, &MapEnv::new(), &st).unwrap();
            st = r.next;
            let mut got: Vec<String> = r.emissions.iter().map(|e| e.signal.clone()).collect();
            got.sort();
            assert_eq!(got, want, "tick {}", trace.len());
            trace.push(got.join(" "));
        }
        assert_eq!(trace, ["", "hi x", "hi", "hi x", ""]);
    }

    #[test]
    fn product_state_space_is_tuple_product() {
        // Two independent togglers: product has up to 4 control states.
        let toggler = |name: &str, i: &str, o: &str| {
            let mut b = Cfsm::builder(name);
            b.input_pure(i);
            b.output_pure(o);
            let s0 = b.ctrl_state("s0");
            let s1 = b.ctrl_state("s1");
            b.transition(s0, s1).when_present(i).emit(o).done();
            b.transition(s1, s0).when_present(i).done();
            b.build().unwrap()
        };
        let net = Network::new(
            "pair",
            vec![toggler("t1", "a", "p"), toggler("t2", "b", "q")],
        )
        .unwrap();
        let p = compose(&net).unwrap();
        assert_eq!(p.states().len(), 4);
        // Blow-up: member transitions total 4; product has more.
        assert!(p.num_transitions() > 4);
    }

    #[test]
    fn buffered_value_used_in_later_tick() {
        // emitter sends v on `go`; sampler reads the *buffered* value when
        // it reacts to an unrelated trigger later.
        let mut b1 = Cfsm::builder("emitter");
        b1.input_pure("go");
        b1.output_valued("v", Type::uint(8));
        let s = b1.ctrl_state("s");
        b1.transition(s, s)
            .when_present("go")
            .emit_value("v", Expr::int(7))
            .done();
        let emitter = b1.build().unwrap();

        let mut b2 = Cfsm::builder("sampler");
        b2.input_valued("v", Type::uint(8));
        b2.input_pure("ask");
        b2.output_pure("seven");
        let s = b2.ctrl_state("s");
        let is7 = b2.test("is7", Expr::var("v_value").eq(Expr::int(7)));
        b2.transition(s, s)
            .when_present("ask")
            .when_test(is7)
            .emit("seven")
            .done();
        let sampler = b2.build().unwrap();

        let net = Network::new("buf", vec![emitter, sampler]).unwrap();
        let p = compose(&net).unwrap();
        let mut st = p.initial_state();

        // tick 1: ask before any emission — buffer is 0, no `seven`.
        let ask: BTreeSet<String> = ["ask".to_string()].into();
        let r = p.react(&ask, &MapEnv::new(), &st).unwrap();
        assert!(r.emissions.iter().all(|e| e.signal != "seven"));
        st = r.next;
        // tick 2: go — emits v=7, buffer updated.
        let go: BTreeSet<String> = ["go".to_string()].into();
        let r = p.react(&go, &MapEnv::new(), &st).unwrap();
        st = r.next;
        // tick 3: ask — sampler sees buffered 7.
        let r = p.react(&ask, &MapEnv::new(), &st).unwrap();
        assert!(r.emissions.iter().any(|e| e.signal == "seven"));
    }

    #[test]
    fn cyclic_network_is_rejected() {
        let net = Network::new("cyc", vec![relay("a", "x", "y"), relay("b", "y", "x")]).unwrap();
        assert!(matches!(
            compose(&net),
            Err(ComposeError::Network(NetworkError::CyclicCommunication))
        ));
    }

    #[test]
    fn compose_subset_keeps_rest() {
        let net = Network::new(
            "chain",
            vec![
                relay("a", "in", "m1"),
                relay("b", "m1", "m2"),
                relay("c", "m2", "out"),
            ],
        )
        .unwrap();
        let merged = compose_subset(&net, &["a", "b"]).unwrap();
        assert_eq!(merged.cfsms().len(), 2);
        assert!(merged.machine_index("a_b").is_some());
        assert!(merged.machine_index("c").is_some());
        // m2 is still internal between the product and c.
        assert!(merged.internal_signals().contains(&"m2".to_string()));
    }
}
