//! The single-CFSM model: builder, validation, and reference semantics.

use crate::signal::{value_var_name, Signal};
use polis_bdd::{Bdd, NodeRef, Var};
use polis_expr::{Env, EvalExprError, Expr, MapEnv, Type, Value};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;

/// A state (data) variable of a CFSM, carried across reactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateVar {
    /// Variable name; referenced from test and action expressions.
    pub name: String,
    /// The variable's finite-domain type.
    pub ty: Type,
    /// Reset value.
    pub init: Value,
}

/// A named boolean predicate over state variables and input event values.
///
/// Tests are the data-path inputs of the reactive function (Section III-B1:
/// "a set of tests on input and state variables").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestDef {
    /// Name used for the s-graph variable and in generated C comments.
    pub name: String,
    /// The predicate; must evaluate to a boolean.
    pub expr: Expr,
}

/// Index of a test within its CFSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestId(pub usize);

/// Index of a control state within its CFSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(pub usize);

/// An output action: an event emission or a state-variable assignment
/// (Section III-B1: "a set of actions").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Emit an output event, with a value expression for valued signals.
    Emit {
        /// Index into the CFSM's output signal list.
        signal: usize,
        /// The emitted value (`None` for pure signals), evaluated against
        /// the pre-reaction state and input values.
        value: Option<Expr>,
    },
    /// Assign `value` to state variable `var`; the right-hand side reads
    /// pre-reaction values (all state is conceptually copied on entry,
    /// Section V-B).
    Assign {
        /// Index into the CFSM's state-variable list.
        var: usize,
        /// The assigned expression.
        value: Expr,
    },
}

/// The trigger condition of a transition: a boolean combination of event
/// presence atoms and data tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Guard {
    /// Always true.
    #[default]
    True,
    /// Always false (arises from constant folding during composition).
    False,
    /// Input event at the given input index is present in the snapshot.
    Present(usize),
    /// The test with the given index holds.
    Test(usize),
    /// Negation.
    Not(Box<Guard>),
    /// Conjunction.
    And(Box<Guard>, Box<Guard>),
    /// Disjunction.
    Or(Box<Guard>, Box<Guard>),
}

impl Guard {
    /// `self && other`.
    pub fn and(self, other: Guard) -> Guard {
        Guard::And(Box::new(self), Box::new(other))
    }

    /// `self || other`.
    pub fn or(self, other: Guard) -> Guard {
        Guard::Or(Box::new(self), Box::new(other))
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Guard {
        Guard::Not(Box::new(self))
    }

    /// Evaluates the guard against a presence snapshot and precomputed test
    /// values.
    pub fn eval(&self, present: &[bool], tests: &[bool]) -> bool {
        let Ok(holds) = self.try_eval(present, &mut |i| Ok::<_, Infallible>(tests[i]));
        holds
    }

    /// The guard as a BDD, where input `i`'s presence flag is variable
    /// `present[i]` and test `i` is variable `tests[i]`. Operands are
    /// built left to right, so a guard always issues the same operations
    /// in the same order.
    pub fn to_bdd(&self, bdd: &mut Bdd, present: &[Var], tests: &[Var]) -> NodeRef {
        match self {
            Guard::True => NodeRef::TRUE,
            Guard::False => NodeRef::FALSE,
            Guard::Present(i) => bdd.var(present[*i]),
            Guard::Test(i) => bdd.var(tests[*i]),
            Guard::Not(g) => {
                let f = g.to_bdd(bdd, present, tests);
                bdd.not(f)
            }
            Guard::And(a, b) => {
                let (fa, fb) = (a.to_bdd(bdd, present, tests), b.to_bdd(bdd, present, tests));
                bdd.and(fa, fb)
            }
            Guard::Or(a, b) => {
                let (fa, fb) = (a.to_bdd(bdd, present, tests), b.to_bdd(bdd, present, tests));
                bdd.or(fa, fb)
            }
        }
    }

    /// Evaluates the guard with a fallible, lazily-queried test oracle —
    /// the paper's "tests are evaluated as they are needed" semantics.
    ///
    /// # Errors
    ///
    /// Propagates the first oracle error encountered.
    pub fn try_eval<E>(
        &self,
        present: &[bool],
        test: &mut impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<bool, E> {
        Ok(match self {
            Guard::True => true,
            Guard::False => false,
            Guard::Present(i) => present[*i],
            Guard::Test(i) => test(*i)?,
            Guard::Not(g) => !g.try_eval(present, test)?,
            Guard::And(a, b) => a.try_eval(present, test)? && b.try_eval(present, test)?,
            Guard::Or(a, b) => a.try_eval(present, test)? || b.try_eval(present, test)?,
        })
    }

    /// Calls `f` on every `Present` atom and `g` on every `Test` atom.
    pub fn visit_atoms(&self, f: &mut impl FnMut(usize), g: &mut impl FnMut(usize)) {
        match self {
            Guard::True | Guard::False => {}
            Guard::Present(i) => f(*i),
            Guard::Test(i) => g(*i),
            Guard::Not(x) => x.visit_atoms(f, g),
            Guard::And(a, b) | Guard::Or(a, b) => {
                a.visit_atoms(f, g);
                b.visit_atoms(f, g);
            }
        }
    }
}

/// One transition of a CFSM. Transitions from the same control state are
/// prioritized in declaration order (earlier wins on overlap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source control state.
    pub from: usize,
    /// Destination control state.
    pub to: usize,
    /// Trigger condition.
    pub guard: Guard,
    /// Indices into the CFSM action list, executed when the transition
    /// fires.
    pub actions: Vec<usize>,
}

/// A codesign finite state machine.
///
/// Construct with [`Cfsm::builder`]; see the crate-level example. The struct
/// is immutable after [`CfsmBuilder::build`] validates it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfsm {
    name: String,
    inputs: Vec<Signal>,
    outputs: Vec<Signal>,
    state_vars: Vec<StateVar>,
    states: Vec<String>,
    init_state: usize,
    tests: Vec<TestDef>,
    actions: Vec<Action>,
    transitions: Vec<Transition>,
}

impl Cfsm {
    /// Starts building a CFSM with the given name.
    pub fn builder(name: impl Into<String>) -> CfsmBuilder {
        CfsmBuilder {
            cfsm: Cfsm {
                name: name.into(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                state_vars: Vec::new(),
                states: Vec::new(),
                init_state: 0,
                tests: Vec::new(),
                actions: Vec::new(),
                transitions: Vec::new(),
            },
            unknown: None,
        }
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Input event signals.
    pub fn inputs(&self) -> &[Signal] {
        &self.inputs
    }
    /// Output event signals.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }
    /// State (data) variables.
    pub fn state_vars(&self) -> &[StateVar] {
        &self.state_vars
    }
    /// Control state names.
    pub fn states(&self) -> &[String] {
        &self.states
    }
    /// Bits of the binary control-state code (at least 1), as
    /// [`polis_bdd::encode::bits_for`] encodes the state domain.
    pub fn ctrl_width(&self) -> usize {
        polis_bdd::encode::bits_for(self.states.len() as u64)
    }
    /// The reset control state.
    pub fn init_state(&self) -> usize {
        self.init_state
    }
    /// Data-path tests.
    pub fn tests(&self) -> &[TestDef] {
        &self.tests
    }
    /// Output actions.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }
    /// Transitions, in priority order within each source state.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }
    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Index of the input signal named `sig`.
    pub fn input_index(&self, sig: &str) -> Option<usize> {
        self.inputs.iter().position(|s| s.name() == sig)
    }

    /// Index of the output signal named `sig`.
    pub fn output_index(&self, sig: &str) -> Option<usize> {
        self.outputs.iter().position(|s| s.name() == sig)
    }

    /// Index of the state variable named `var`.
    pub fn state_var_index(&self, var: &str) -> Option<usize> {
        self.state_vars.iter().position(|v| v.name == var)
    }

    /// The reset state: initial control state and initial data values.
    pub fn initial_state(&self) -> CfsmState {
        let mut data = MapEnv::new();
        for v in &self.state_vars {
            data.set(v.name.clone(), v.init.coerce(v.ty));
        }
        CfsmState {
            ctrl: self.init_state,
            data,
        }
    }

    /// A short human-readable label for action `a` (used in diagnostics and
    /// generated-code comments).
    pub fn action_label(&self, a: usize) -> String {
        match &self.actions[a] {
            Action::Emit {
                signal,
                value: None,
            } => {
                format!("emit_{}", self.outputs[*signal].name())
            }
            Action::Emit {
                signal,
                value: Some(_),
            } => format!("emit_{}_v", self.outputs[*signal].name()),
            Action::Assign { var, .. } => format!("set_{}_{a}", self.state_vars[*var].name),
        }
    }

    /// The transition that fires from control state `from`: the first in
    /// declaration order whose guard holds (earlier wins on overlap), or
    /// `None` when none is enabled. Tests are queried through `test`
    /// lazily, only as the guards demand them ([`Guard::try_eval`]).
    ///
    /// # Errors
    ///
    /// Propagates the first oracle error encountered.
    pub fn winner<E>(
        &self,
        from: usize,
        present: &[bool],
        test: &mut impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<Option<usize>, E> {
        for (ti, t) in self.transitions.iter().enumerate() {
            if t.from == from && t.guard.try_eval(present, test)? {
                return Ok(Some(ti));
            }
        }
        Ok(None)
    }

    /// Executes one reaction: the **reference semantics** against which the
    /// synthesized s-graph and object code are verified (Theorem 1).
    ///
    /// `present` lists present input signals by name; `input_values` binds
    /// `"{sig}_value"` for every *valued* input (present or not — absent
    /// signals keep their last buffered value, per the one-place-buffer
    /// semantics).
    ///
    /// All action expressions read the *pre-reaction* state and input
    /// values; writes are committed together at the end.
    ///
    /// # Errors
    ///
    /// Returns [`ReactError`] if an expression evaluation fails (unbound
    /// variable or kind mismatch) — this indicates an invalid environment,
    /// since `build` checks expression supports statically.
    pub fn react(
        &self,
        present: &BTreeSet<String>,
        input_values: &MapEnv,
        state: &CfsmState,
    ) -> Result<Reaction, ReactError> {
        let present_flags: Vec<bool> = self
            .inputs
            .iter()
            .map(|s| present.contains(s.name()))
            .collect();

        // Pre-reaction environment: state data then input values.
        let env = LayeredEnv {
            base: &state.data,
            over: input_values,
        };
        // Tests are evaluated lazily and memoized, exactly once per
        // reaction ("tests are evaluated as they are needed",
        // Section III-B1) — so a test reading the value of an event that
        // has never been delivered is only an error if a guard actually
        // demands it.
        let mut test_cache: Vec<Option<bool>> = vec![None; self.tests.len()];
        let mut eval_test = |i: usize| -> Result<bool, ReactError> {
            if let Some(v) = test_cache[i] {
                return Ok(v);
            }
            let t = &self.tests[i];
            let v = t
                .expr
                .eval(&env)
                .map_err(|e| ReactError::Eval {
                    context: format!("test `{}`", t.name),
                    source: e,
                })?
                .as_bool()
                .map_err(|e| ReactError::Eval {
                    context: format!("test `{}`", t.name),
                    source: EvalExprError::Type(e),
                })?;
            test_cache[i] = Some(v);
            Ok(v)
        };

        let Some(ti) = self.winner(state.ctrl, &present_flags, &mut eval_test)? else {
            return Ok(Reaction {
                fired: false,
                transition: None,
                emissions: Vec::new(),
                next: state.clone(),
            });
        };
        let tr = &self.transitions[ti];

        let mut emissions = Vec::new();
        let mut next_data = state.data.clone();
        for &ai in &tr.actions {
            match &self.actions[ai] {
                Action::Emit { signal, value } => {
                    let sig = &self.outputs[*signal];
                    let value = match value {
                        None => None,
                        Some(e) => {
                            let v = e.eval(&env).map_err(|err| ReactError::Eval {
                                context: format!("emission of `{}`", sig.name()),
                                source: err,
                            })?;
                            Some(v.coerce(sig.value_type().expect("valued signal")))
                        }
                    };
                    emissions.push(Emission {
                        signal: sig.name().to_owned(),
                        value,
                    });
                }
                Action::Assign { var, value } => {
                    let sv = &self.state_vars[*var];
                    let v = value.eval(&env).map_err(|err| ReactError::Eval {
                        context: format!("assignment to `{}`", sv.name),
                        source: err,
                    })?;
                    next_data.set(sv.name.clone(), v.coerce(sv.ty));
                }
            }
        }

        Ok(Reaction {
            fired: true,
            transition: Some(ti),
            emissions,
            next: CfsmState {
                ctrl: tr.to,
                data: next_data,
            },
        })
    }
}

/// A two-layer environment: input values shadow state data (names are
/// disjoint after validation, so shadowing never actually occurs).
struct LayeredEnv<'a> {
    base: &'a MapEnv,
    over: &'a MapEnv,
}

impl Env for LayeredEnv<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        self.over.get(name).or_else(|| self.base.get(name))
    }
}

/// The persistent state of one CFSM: control state plus data variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfsmState {
    /// Current control state (index into [`Cfsm::states`]).
    pub ctrl: usize,
    /// Current data-variable values.
    pub data: MapEnv,
}

/// An emitted event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emission {
    /// Signal name.
    pub signal: String,
    /// Carried value (`None` for pure signals).
    pub value: Option<Value>,
}

/// The result of one reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// `true` if a transition fired; when `false`, input events must be
    /// preserved for the next execution (Section IV-D).
    pub fired: bool,
    /// Index of the fired transition, if any.
    pub transition: Option<usize>,
    /// Events emitted by the reaction, in action order.
    pub emissions: Vec<Emission>,
    /// Post-reaction state.
    pub next: CfsmState,
}

/// Failure during [`Cfsm::react`].
#[derive(Debug)]
pub enum ReactError {
    /// An expression could not be evaluated.
    Eval {
        /// What was being evaluated.
        context: String,
        /// The underlying expression error.
        source: EvalExprError,
    },
}

impl fmt::Display for ReactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReactError::Eval { context, source } => {
                write!(f, "evaluating {context}: {source}")
            }
        }
    }
}

impl Error for ReactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReactError::Eval { source, .. } => Some(source),
        }
    }
}

/// Validation failure while building a [`Cfsm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfsmError {
    /// A name is declared twice (or collides with a derived name).
    DuplicateName {
        /// The colliding name.
        name: String,
    },
    /// An expression references an unknown variable.
    UnknownVar {
        /// Where the reference occurs.
        context: String,
        /// The unknown name.
        name: String,
    },
    /// A reference to an undeclared signal, test, state, or variable.
    UnknownRef {
        /// Where the reference occurs.
        context: String,
        /// The unknown name.
        name: String,
    },
    /// A transition performs two actions on the same target.
    ConflictingActions {
        /// Transition index.
        transition: usize,
        /// Target (signal or variable) name.
        target: String,
    },
    /// A valued emission on a pure signal, or a pure emission on a valued
    /// signal.
    EmissionArity {
        /// The signal name.
        signal: String,
    },
    /// The machine has no control states.
    NoStates,
}

impl fmt::Display for CfsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfsmError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            CfsmError::UnknownVar { context, name } => {
                write!(f, "{context} references unknown variable `{name}`")
            }
            CfsmError::UnknownRef { context, name } => {
                write!(f, "{context} references unknown `{name}`")
            }
            CfsmError::ConflictingActions { transition, target } => write!(
                f,
                "transition {transition} performs two actions on `{target}`"
            ),
            CfsmError::EmissionArity { signal } => write!(
                f,
                "emission arity does not match declaration of signal `{signal}`"
            ),
            CfsmError::NoStates => write!(f, "machine has no control states"),
        }
    }
}

impl Error for CfsmError {}

/// Incremental constructor for [`Cfsm`]; see the crate-level example.
#[derive(Debug)]
pub struct CfsmBuilder {
    cfsm: Cfsm,
    /// The first name a transition referenced that is not declared;
    /// [`CfsmBuilder::build`] reports it.
    unknown: Option<CfsmError>,
}

impl CfsmBuilder {
    /// Declares a pure input event.
    pub fn input_pure(&mut self, name: impl Into<String>) -> &mut Self {
        self.cfsm.inputs.push(Signal::pure(name));
        self
    }

    /// Declares a valued input event.
    pub fn input_valued(&mut self, name: impl Into<String>, ty: Type) -> &mut Self {
        self.cfsm.inputs.push(Signal::valued(name, ty));
        self
    }

    /// Declares a pure output event.
    pub fn output_pure(&mut self, name: impl Into<String>) -> &mut Self {
        self.cfsm.outputs.push(Signal::pure(name));
        self
    }

    /// Declares a valued output event.
    pub fn output_valued(&mut self, name: impl Into<String>, ty: Type) -> &mut Self {
        self.cfsm.outputs.push(Signal::valued(name, ty));
        self
    }

    /// Declares a state variable with a reset value.
    pub fn state_var(&mut self, name: impl Into<String>, ty: Type, init: Value) -> &mut Self {
        self.cfsm.state_vars.push(StateVar {
            name: name.into(),
            ty,
            init,
        });
        self
    }

    /// Declares a control state; the first declared state is the reset
    /// state.
    pub fn ctrl_state(&mut self, name: impl Into<String>) -> StateId {
        self.cfsm.states.push(name.into());
        StateId(self.cfsm.states.len() - 1)
    }

    /// Declares a data test; returns its id for use in guards.
    pub fn test(&mut self, name: impl Into<String>, expr: Expr) -> TestId {
        self.cfsm.tests.push(TestDef {
            name: name.into(),
            expr,
        });
        TestId(self.cfsm.tests.len() - 1)
    }

    /// Starts a transition from `from` to `to`; finish with
    /// [`TransitionBuilder::done`].
    pub fn transition(&mut self, from: StateId, to: StateId) -> TransitionBuilder<'_> {
        TransitionBuilder {
            builder: self,
            from: from.0,
            to: to.0,
            guard: Guard::True,
            actions: Vec::new(),
        }
    }

    fn intern_action(&mut self, action: Action) -> usize {
        if let Some(i) = self.cfsm.actions.iter().position(|a| *a == action) {
            i
        } else {
            self.cfsm.actions.push(action);
            self.cfsm.actions.len() - 1
        }
    }

    /// Validates and returns the machine.
    ///
    /// # Errors
    ///
    /// Returns a [`CfsmError`] describing the first validation failure; see
    /// the enum for the checked properties. A transition that named an
    /// undeclared input, output or state variable is
    /// [`CfsmError::UnknownRef`] naming the first such name.
    pub fn build(self) -> Result<Cfsm, CfsmError> {
        if let Some(e) = self.unknown {
            return Err(e);
        }
        let m = self.cfsm;
        if m.states.is_empty() {
            return Err(CfsmError::NoStates);
        }
        // Name uniqueness across everything expressions can reference.
        let mut names = BTreeSet::new();
        let mut check = |n: String| {
            if names.insert(n.clone()) {
                Ok(())
            } else {
                Err(CfsmError::DuplicateName { name: n })
            }
        };
        for s in m.inputs.iter().chain(&m.outputs) {
            check(s.name().to_owned())?;
            if s.is_valued() {
                check(value_var_name(s.name()))?;
            }
        }
        for v in &m.state_vars {
            check(v.name.clone())?;
        }
        for s in &m.states {
            check(format!("state::{s}"))?;
        }
        for t in &m.tests {
            check(format!("test::{}", t.name))?;
        }

        // Expressions may reference state vars and input value vars.
        let expr_scope: BTreeSet<String> = m
            .state_vars
            .iter()
            .map(|v| v.name.clone())
            .chain(
                m.inputs
                    .iter()
                    .filter(|s| s.is_valued())
                    .map(|s| value_var_name(s.name())),
            )
            .collect();
        let check_expr = |context: &str, e: &Expr| -> Result<(), CfsmError> {
            for name in e.support() {
                if !expr_scope.contains(&name) {
                    return Err(CfsmError::UnknownVar {
                        context: context.to_owned(),
                        name,
                    });
                }
            }
            Ok(())
        };
        for t in &m.tests {
            check_expr(&format!("test `{}`", t.name), &t.expr)?;
        }
        for (i, a) in m.actions.iter().enumerate() {
            match a {
                Action::Emit { signal, value } => {
                    let sig = m.outputs.get(*signal).ok_or(CfsmError::UnknownRef {
                        context: format!("action {i}"),
                        name: format!("output #{signal}"),
                    })?;
                    if sig.is_valued() != value.is_some() {
                        return Err(CfsmError::EmissionArity {
                            signal: sig.name().to_owned(),
                        });
                    }
                    if let Some(e) = value {
                        check_expr(&format!("emission of `{}`", sig.name()), e)?;
                    }
                }
                Action::Assign { var, value } => {
                    let sv = m.state_vars.get(*var).ok_or(CfsmError::UnknownRef {
                        context: format!("action {i}"),
                        name: format!("state var #{var}"),
                    })?;
                    check_expr(&format!("assignment to `{}`", sv.name), value)?;
                }
            }
        }
        for (ti, t) in m.transitions.iter().enumerate() {
            let ctx = format!("transition {ti}");
            if t.from >= m.states.len() || t.to >= m.states.len() {
                return Err(CfsmError::UnknownRef {
                    context: ctx,
                    name: "control state".to_owned(),
                });
            }
            let mut bad_inputs = Vec::new();
            let mut bad_tests = Vec::new();
            t.guard.visit_atoms(
                &mut |i| {
                    if i >= m.inputs.len() {
                        bad_inputs.push(i);
                    }
                },
                &mut |i| {
                    if i >= m.tests.len() {
                        bad_tests.push(i);
                    }
                },
            );
            let bad_atom = bad_inputs
                .first()
                .map(|i| format!("input #{i}"))
                .or_else(|| bad_tests.first().map(|i| format!("test #{i}")));
            if let Some(name) = bad_atom {
                return Err(CfsmError::UnknownRef { context: ctx, name });
            }
            // No two actions on the same target.
            let mut targets = BTreeSet::new();
            for &ai in &t.actions {
                if ai >= m.actions.len() {
                    return Err(CfsmError::UnknownRef {
                        context: ctx,
                        name: format!("action #{ai}"),
                    });
                }
                let target = match &m.actions[ai] {
                    Action::Emit { signal, .. } => format!("sig:{}", m.outputs[*signal].name()),
                    Action::Assign { var, .. } => format!("var:{}", m.state_vars[*var].name),
                };
                if !targets.insert(target.clone()) {
                    return Err(CfsmError::ConflictingActions {
                        transition: ti,
                        target,
                    });
                }
            }
        }
        Ok(m)
    }
}

/// In-progress transition; created by [`CfsmBuilder::transition`].
#[derive(Debug)]
pub struct TransitionBuilder<'a> {
    builder: &'a mut CfsmBuilder,
    from: usize,
    to: usize,
    guard: Guard,
    actions: Vec<usize>,
}

impl TransitionBuilder<'_> {
    fn add_guard(&mut self, g: Guard) {
        let prev = std::mem::replace(&mut self.guard, Guard::True);
        self.guard = if prev == Guard::True { g } else { prev.and(g) };
    }

    /// The index `lookup` finds for `name`; when there is none, records
    /// `name` for [`CfsmBuilder::build`] to report (the first one wins).
    fn resolve(&mut self, name: &str, lookup: fn(&Cfsm, &str) -> Option<usize>) -> Option<usize> {
        let b = &mut *self.builder;
        let found = lookup(&b.cfsm, name);
        if found.is_none() && b.unknown.is_none() {
            b.unknown = Some(CfsmError::UnknownRef {
                context: format!("transition {}", b.cfsm.transitions.len()),
                name: name.to_owned(),
            });
        }
        found
    }

    /// Requires input `sig` to be present. An undeclared `sig` makes
    /// [`CfsmBuilder::build`] fail.
    pub fn when_present(mut self, sig: &str) -> Self {
        if let Some(i) = self.resolve(sig, Cfsm::input_index) {
            self.add_guard(Guard::Present(i));
        }
        self
    }

    /// Requires input `sig` to be absent. An undeclared `sig` makes
    /// [`CfsmBuilder::build`] fail.
    pub fn when_absent(mut self, sig: &str) -> Self {
        if let Some(i) = self.resolve(sig, Cfsm::input_index) {
            self.add_guard(Guard::Present(i).not());
        }
        self
    }

    /// Requires test `t` to hold.
    pub fn when_test(mut self, t: TestId) -> Self {
        self.add_guard(Guard::Test(t.0));
        self
    }

    /// Requires test `t` to fail.
    pub fn when_not_test(mut self, t: TestId) -> Self {
        self.add_guard(Guard::Test(t.0).not());
        self
    }

    /// Conjoins an arbitrary guard.
    pub fn when(mut self, g: Guard) -> Self {
        self.add_guard(g);
        self
    }

    /// Adds a pure emission of output `sig`. An undeclared `sig` makes
    /// [`CfsmBuilder::build`] fail.
    pub fn emit(self, sig: &str) -> Self {
        self.emission(sig, None)
    }

    /// Adds a valued emission of output `sig`. An undeclared `sig` makes
    /// [`CfsmBuilder::build`] fail.
    pub fn emit_value(self, sig: &str, value: Expr) -> Self {
        self.emission(sig, Some(value))
    }

    fn emission(mut self, sig: &str, value: Option<Expr>) -> Self {
        if let Some(signal) = self.resolve(sig, Cfsm::output_index) {
            let a = self.builder.intern_action(Action::Emit { signal, value });
            self.actions.push(a);
        }
        self
    }

    /// Adds an assignment to state variable `var`. An undeclared `var`
    /// makes [`CfsmBuilder::build`] fail.
    pub fn assign(mut self, var: &str, value: Expr) -> Self {
        if let Some(var) = self.resolve(var, Cfsm::state_var_index) {
            let a = self.builder.intern_action(Action::Assign { var, value });
            self.actions.push(a);
        }
        self
    }

    /// Commits the transition to the builder.
    pub fn done(self) {
        self.builder.cfsm.transitions.push(Transition {
            from: self.from,
            to: self.to,
            guard: self.guard,
            actions: self.actions,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 `simple` module.
    pub(crate) fn simple() -> Cfsm {
        let mut b = Cfsm::builder("simple");
        b.input_valued("c", Type::uint(8));
        b.output_pure("y");
        b.state_var("a", Type::uint(8), Value::Int(0));
        let s0 = b.ctrl_state("awaiting");
        let eq = b.test("a_eq_c", Expr::var("a").eq(Expr::var("c_value")));
        b.transition(s0, s0)
            .when_present("c")
            .when_test(eq)
            .assign("a", Expr::int(0))
            .emit("y")
            .done();
        b.transition(s0, s0)
            .when_present("c")
            .when_not_test(eq)
            .assign("a", Expr::var("a").add(Expr::int(1)))
            .done();
        b.build().expect("simple is valid")
    }

    fn present(sigs: &[&str]) -> BTreeSet<String> {
        sigs.iter().map(|s| (*s).to_string()).collect()
    }

    fn values(pairs: &[(&str, i64)]) -> MapEnv {
        pairs
            .iter()
            .map(|(s, v)| (value_var_name(s), Value::Int(*v)))
            .collect()
    }

    #[test]
    fn simple_counts_until_match() {
        let m = simple();
        let mut st = m.initial_state();
        // a starts 0; c=3 arrives repeatedly: a counts 1, 2, 3, then on
        // a==3 emits y and resets.
        for step in 0..3 {
            let r = m
                .react(&present(&["c"]), &values(&[("c", 3)]), &st)
                .unwrap();
            assert!(r.fired);
            assert!(r.emissions.is_empty(), "step {step}");
            st = r.next;
        }
        assert_eq!(st.data.get("a"), Some(Value::Int(3)));
        let r = m
            .react(&present(&["c"]), &values(&[("c", 3)]), &st)
            .unwrap();
        assert_eq!(r.emissions.len(), 1);
        assert_eq!(r.emissions[0].signal, "y");
        assert_eq!(r.next.data.get("a"), Some(Value::Int(0)));
    }

    #[test]
    fn no_input_means_no_firing_and_state_preserved() {
        let m = simple();
        let st = m.initial_state();
        let r = m.react(&present(&[]), &values(&[("c", 3)]), &st).unwrap();
        assert!(!r.fired);
        assert_eq!(r.transition, None);
        assert_eq!(r.next, st);
    }

    #[test]
    fn priority_resolves_overlap() {
        // Two transitions with overlapping guards: first declared wins.
        let mut b = Cfsm::builder("prio");
        b.input_pure("e");
        b.output_pure("first");
        b.output_pure("second");
        let s = b.ctrl_state("s");
        b.transition(s, s).when_present("e").emit("first").done();
        b.transition(s, s).when_present("e").emit("second").done();
        let m = b.build().unwrap();
        let r = m
            .react(&present(&["e"]), &MapEnv::new(), &m.initial_state())
            .unwrap();
        assert_eq!(r.emissions[0].signal, "first");
        assert_eq!(r.transition, Some(0));
    }

    #[test]
    fn assignment_reads_pre_reaction_state() {
        // Swap two variables in one transition: both reads see old values.
        let mut b = Cfsm::builder("swap");
        b.input_pure("go");
        b.state_var("x", Type::uint(8), Value::Int(1));
        b.state_var("y", Type::uint(8), Value::Int(2));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("x", Expr::var("y"))
            .assign("y", Expr::var("x"))
            .done();
        let m = b.build().unwrap();
        let r = m
            .react(&present(&["go"]), &MapEnv::new(), &m.initial_state())
            .unwrap();
        assert_eq!(r.next.data.get("x"), Some(Value::Int(2)));
        assert_eq!(r.next.data.get("y"), Some(Value::Int(1)));
    }

    #[test]
    fn assignment_wraps_to_variable_width() {
        let mut b = Cfsm::builder("wrap");
        b.input_pure("go");
        b.state_var("n", Type::uint(4), Value::Int(15));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("n", Expr::var("n").add(Expr::int(1)))
            .done();
        let m = b.build().unwrap();
        let r = m
            .react(&present(&["go"]), &MapEnv::new(), &m.initial_state())
            .unwrap();
        assert_eq!(r.next.data.get("n"), Some(Value::Int(0)));
    }

    #[test]
    fn valued_emission_coerces_to_signal_type() {
        let mut b = Cfsm::builder("emitter");
        b.input_pure("go");
        b.output_valued("out", Type::uint(4));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .emit_value("out", Expr::int(100))
            .done();
        let m = b.build().unwrap();
        let r = m
            .react(&present(&["go"]), &MapEnv::new(), &m.initial_state())
            .unwrap();
        assert_eq!(r.emissions[0].value, Some(Value::Int(4))); // 100 mod 16
    }

    #[test]
    fn guard_absent_atom() {
        let mut b = Cfsm::builder("abs");
        b.input_pure("a");
        b.input_pure("b");
        b.output_pure("only_a");
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("a")
            .when_absent("b")
            .emit("only_a")
            .done();
        let m = b.build().unwrap();
        let st = m.initial_state();
        let r = m.react(&present(&["a"]), &MapEnv::new(), &st).unwrap();
        assert!(r.fired);
        let r = m.react(&present(&["a", "b"]), &MapEnv::new(), &st).unwrap();
        assert!(!r.fired);
    }

    #[test]
    fn validation_duplicate_name() {
        let mut b = Cfsm::builder("dup");
        b.input_pure("x");
        b.output_pure("x");
        b.ctrl_state("s");
        assert!(matches!(
            b.build(),
            Err(CfsmError::DuplicateName { name }) if name == "x"
        ));
    }

    #[test]
    fn validation_unknown_expr_var() {
        let mut b = Cfsm::builder("bad");
        b.input_pure("go");
        b.state_var("a", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        b.test("t", Expr::var("nonexistent").eq(Expr::int(0)));
        b.transition(s, s).when_present("go").done();
        assert!(matches!(
            b.build(),
            Err(CfsmError::UnknownVar { name, .. }) if name == "nonexistent"
        ));
    }

    /// Each transition method that names a declaration reports an
    /// undeclared name from `build`, naming it; the first one wins.
    #[test]
    fn validation_unknown_transition_names() {
        type Step = fn(TransitionBuilder<'_>) -> TransitionBuilder<'_>;
        let cases: [(&str, Step); 5] = [
            ("when_present", |t| t.when_present("nope")),
            ("when_absent", |t| t.when_absent("nope")),
            ("emit", |t| t.emit("nope")),
            ("emit_value", |t| t.emit_value("nope", Expr::int(1))),
            ("assign", |t| t.assign("nope", Expr::int(1))),
        ];
        for (method, step) in cases {
            let mut b = Cfsm::builder("bad");
            b.input_pure("go");
            b.output_pure("y");
            b.state_var("a", Type::uint(8), Value::Int(0));
            let s = b.ctrl_state("s");
            b.transition(s, s).when_present("go").emit("y").done();
            step(b.transition(s, s))
                .assign("later", Expr::int(0))
                .done();
            assert_eq!(
                b.build(),
                Err(CfsmError::UnknownRef {
                    context: "transition 1".to_owned(),
                    name: "nope".to_owned(),
                }),
                "{method}"
            );
        }
    }

    #[test]
    fn validation_conflicting_actions() {
        let mut b = Cfsm::builder("conflict");
        b.input_pure("go");
        b.state_var("a", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("a", Expr::int(1))
            .assign("a", Expr::int(2))
            .done();
        assert!(matches!(
            b.build(),
            Err(CfsmError::ConflictingActions { .. })
        ));
    }

    #[test]
    fn validation_no_states() {
        let b = Cfsm::builder("empty");
        assert!(matches!(b.build(), Err(CfsmError::NoStates)));
    }

    #[test]
    fn value_var_allowed_in_expressions_only_for_valued_inputs() {
        let mut b = Cfsm::builder("scope");
        b.input_pure("p"); // pure: p_value is NOT in scope
        b.state_var("a", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        b.test("t", Expr::var("p_value").eq(Expr::int(0)));
        b.transition(s, s).when_present("p").done();
        assert!(matches!(b.build(), Err(CfsmError::UnknownVar { .. })));
    }

    #[test]
    fn action_interning_dedupes() {
        let m = simple();
        // Both transitions assign to `a` with different exprs + one emit:
        // 3 distinct actions.
        assert_eq!(m.actions().len(), 3);
    }
}
