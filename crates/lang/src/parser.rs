//! Recursive-descent parser and CFSM elaboration.

use crate::lexer::{lex, Tok, Token};
use crate::prop::{PropExpr, PropKind, Property, Span, Spec};
use polis_cfsm::{Cfsm, CfsmBuilder, Guard, Network, StateId, TestId};
use polis_expr::{Expr, Type, Value};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse or elaboration failure, with source position where available.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line (0 when the error has no position: a source that
    /// does not hold the one module or the bare `properties` blocks
    /// `parse_module` or `parse_properties` asks for).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl Error for ParseError {}

/// Parses a source containing exactly one `module`.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors and on CFSM validation
/// failures (duplicate names, unknown references, ...).
pub fn parse_module(src: &str) -> Result<Cfsm, ParseError> {
    let Source { mut machines, .. } = parse_source(src)?;
    if machines.len() != 1 {
        return Err(ParseError {
            line: 0,
            col: 0,
            message: format!("expected exactly one module, found {}", machines.len()),
        });
    }
    Ok(machines.remove(0))
}

/// Parses a source containing one or more `module`s into a network.
///
/// `properties` blocks are accepted, validated against the network, and
/// discarded — synthesis consumers see the same network whether or not a
/// suite is present. Use [`parse_spec`] to keep the properties.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax, CFSM, network, or property
/// resolution errors.
pub fn parse_network(name: &str, src: &str) -> Result<Network, ParseError> {
    Ok(parse_spec(name, src)?.network)
}

/// Parses a full specification: modules plus any `properties` blocks,
/// with every property atom resolved against the elaborated network.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax, CFSM, or network validation errors,
/// and spanned diagnostics for property atoms naming unknown modules,
/// states, or inputs.
pub fn parse_spec(name: &str, src: &str) -> Result<Spec, ParseError> {
    let Source {
        machines,
        starts,
        props,
    } = parse_source(src)?;
    // A network error is reported at the later of the two modules that
    // clash.
    let network = Network::new(name, machines).map_err(|e| {
        let at = e
            .machine()
            .expect("`Network::new` names the clashing machine");
        spanned(starts[at], e.to_string())
    })?;
    let properties = resolve_props(&network, props)?;
    Ok(Spec {
        network,
        properties,
    })
}

/// Parses a source containing only `properties` blocks and resolves the
/// atoms against an existing network — for attaching a suite to a
/// programmatically built [`Network`] (workloads, benches).
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors, on stray `module` blocks,
/// and on unresolved atom names (spanned, naming the machine).
pub fn parse_properties(net: &Network, src: &str) -> Result<Vec<Property>, ParseError> {
    let Source {
        machines, props, ..
    } = parse_source(src)?;
    if let Some(m) = machines.first() {
        return Err(ParseError {
            line: 0,
            col: 0,
            message: format!(
                "expected only `properties` blocks, found module `{}`",
                m.name()
            ),
        });
    }
    resolve_props(net, props)
}

/// A parsed source, before its property atoms are resolved.
struct Source {
    machines: Vec<Cfsm>,
    /// Where each machine's `module` starts.
    starts: Vec<Span>,
    props: Vec<RawProp>,
}

fn parse_source(src: &str) -> Result<Source, ParseError> {
    let tokens = lex(src).map_err(|(line, col, message)| ParseError { line, col, message })?;
    let mut p = Parser { tokens, pos: 0 };
    let mut machines = Vec::new();
    let mut starts = Vec::new();
    let mut props = Vec::new();
    while p.peek() != &Tok::Eof {
        match p.peek() {
            Tok::Properties => p.properties_block(&mut props)?,
            _ => {
                let (line, col) = p.here();
                starts.push(Span { line, col });
                machines.push(p.module()?);
            }
        }
    }
    Ok(Source {
        machines,
        starts,
        props,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected an identifier, found {other}"))),
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        let neg = if *self.peek() == Tok::Minus {
            self.bump();
            true
        } else {
            false
        };
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            _ => Err(self.error(format!("expected an integer, found {}", self.peek()))),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let name = self.ident()?;
        if name == "bool" {
            return Ok(Type::Bool);
        }
        let (signed, digits) = match name.split_at(1) {
            ("u", d) => (false, d),
            ("i", d) => (true, d),
            _ => return Err(self.error(format!("unknown type `{name}`"))),
        };
        let bits: u8 = digits
            .parse()
            .map_err(|_| self.error(format!("unknown type `{name}`")))?;
        if !(1..=32).contains(&bits) {
            return Err(self.error(format!("type width {bits} outside 1..=32")));
        }
        Ok(if signed {
            Type::int(bits)
        } else {
            Type::uint(bits)
        })
    }

    fn module(&mut self) -> Result<Cfsm, ParseError> {
        let (line, col) = self.here();
        self.expect(Tok::Module)?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut b = Cfsm::builder(name);
        let mut env = ModuleEnv::default();
        while *self.peek() != Tok::RBrace {
            match self.peek() {
                Tok::Input => self.input_decl(&mut b, &mut env)?,
                Tok::Output => self.output_decl(&mut b, &mut env)?,
                Tok::Var => self.var_decl(&mut b, &mut env)?,
                Tok::State => self.state_decl(&mut b, &mut env)?,
                Tok::From => self.transition(&mut b, &mut env)?,
                other => {
                    return Err(self.error(format!(
                        "expected a declaration or transition, found {other}"
                    )))
                }
            }
        }
        self.expect(Tok::RBrace)?;
        b.build().map_err(|e| ParseError {
            line,
            col,
            message: e.to_string(),
        })
    }

    fn input_decl(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<(), ParseError> {
        self.expect(Tok::Input)?;
        loop {
            let name = self.ident()?;
            if *self.peek() == Tok::Colon {
                self.bump();
                let ty = self.ty()?;
                env.valued_inputs.insert(name.clone());
                b.input_valued(name.clone(), ty);
            } else {
                b.input_pure(name.clone());
            }
            env.inputs.push(name);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::Semi)
    }

    fn output_decl(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<(), ParseError> {
        self.expect(Tok::Output)?;
        loop {
            let name = self.ident()?;
            if *self.peek() == Tok::Colon {
                self.bump();
                let ty = self.ty()?;
                b.output_valued(name.clone(), ty);
            } else {
                b.output_pure(name.clone());
            }
            env.outputs.insert(name);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::Semi)
    }

    fn var_decl(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<(), ParseError> {
        self.expect(Tok::Var)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(Tok::Assign)?;
        let (line, col) = self.here();
        let init = self.int()?;
        let (min, max) = (ty.min_value(), ty.max_value());
        if !(min..=max).contains(&init) {
            return Err(ParseError {
                line,
                col,
                message: format!(
                    "initial value {init} of `{name}` is outside {ty}'s range {min}..={max}"
                ),
            });
        }
        self.expect(Tok::Semi)?;
        env.vars.insert(name.clone());
        b.state_var(name, ty, Value::Int(init));
        Ok(())
    }

    fn state_decl(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<(), ParseError> {
        self.expect(Tok::State)?;
        loop {
            let name = self.ident()?;
            let id = b.ctrl_state(name.clone());
            env.states.insert(name, id);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::Semi)
    }

    fn state_ref(&mut self, env: &ModuleEnv) -> Result<StateId, ParseError> {
        let (line, col) = self.here();
        let name = self.ident()?;
        env.states.get(&name).copied().ok_or(ParseError {
            line,
            col,
            message: format!("unknown state `{name}`"),
        })
    }

    fn transition(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<(), ParseError> {
        self.expect(Tok::From)?;
        let from = self.state_ref(env)?;
        self.expect(Tok::To)?;
        let to = self.state_ref(env)?;
        let guard = if *self.peek() == Tok::When {
            self.bump();
            self.guard(b, env)?
        } else {
            Guard::True
        };
        let mut actions: Vec<ParsedAction> = Vec::new();
        if *self.peek() == Tok::Do {
            self.bump();
            self.expect(Tok::LBrace)?;
            while *self.peek() != Tok::RBrace {
                actions.push(self.action(env)?);
            }
            self.expect(Tok::RBrace)?;
        }
        // An action-less transition may end with a semicolon.
        if *self.peek() == Tok::Semi {
            self.bump();
        }
        // Resolve every target before the builder sees one: it panics on
        // an undeclared name, and only here is the source position known.
        for a in &actions {
            let (declared, what) = match a.kind {
                ActionKind::EmitPure | ActionKind::EmitValued(_) => (&env.outputs, "output"),
                ActionKind::Assign(_) => (&env.vars, "state variable"),
            };
            if !declared.contains(&a.target) {
                return Err(spanned(a.span, format!("unknown {what} `{}`", a.target)));
            }
        }
        let mut tb = b.transition(from, to).when(guard);
        for a in actions {
            tb = match a.kind {
                ActionKind::EmitPure => tb.emit(&a.target),
                ActionKind::EmitValued(e) => tb.emit_value(&a.target, e),
                ActionKind::Assign(e) => tb.assign(&a.target, e),
            };
        }
        tb.done();
        Ok(())
    }

    /// guard := or-guard
    fn guard(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<Guard, ParseError> {
        let mut g = self.guard_and(b, env)?;
        while *self.peek() == Tok::OrOr {
            self.bump();
            g = g.or(self.guard_and(b, env)?);
        }
        Ok(g)
    }

    fn guard_and(&mut self, b: &mut CfsmBuilder, env: &mut ModuleEnv) -> Result<Guard, ParseError> {
        let mut g = self.guard_atom(b, env)?;
        while *self.peek() == Tok::AndAnd {
            self.bump();
            g = g.and(self.guard_atom(b, env)?);
        }
        Ok(g)
    }

    fn guard_atom(
        &mut self,
        b: &mut CfsmBuilder,
        env: &mut ModuleEnv,
    ) -> Result<Guard, ParseError> {
        match self.peek().clone() {
            Tok::Bang => {
                self.bump();
                Ok(self.guard_atom(b, env)?.not())
            }
            Tok::LParen => {
                self.bump();
                let g = self.guard(b, env)?;
                self.expect(Tok::RParen)?;
                Ok(g)
            }
            Tok::True => {
                self.bump();
                Ok(Guard::True)
            }
            Tok::False => {
                self.bump();
                Ok(Guard::False)
            }
            Tok::LBracket => {
                self.bump();
                let e = self.expr(env)?;
                self.expect(Tok::RBracket)?;
                let id = env.intern_test(b, e);
                Ok(Guard::Test(id.0))
            }
            Tok::Ident(name) => {
                let (line, col) = self.here();
                self.bump();
                match env.inputs.iter().position(|i| *i == name) {
                    Some(i) => Ok(Guard::Present(i)),
                    None => Err(ParseError {
                        line,
                        col,
                        message: format!("unknown input `{name}` in guard"),
                    }),
                }
            }
            other => Err(self.error(format!("expected a guard atom, found {other}"))),
        }
    }

    fn action(&mut self, env: &mut ModuleEnv) -> Result<ParsedAction, ParseError> {
        let emit = match self.peek() {
            Tok::Emit => {
                self.bump();
                true
            }
            Tok::Ident(_) => false,
            other => return Err(self.error(format!("expected an action, found {other}"))),
        };
        let (line, col) = self.here();
        let target = self.ident()?;
        let kind = if !emit {
            self.expect(Tok::Assign)?;
            ActionKind::Assign(self.expr(env)?)
        } else if *self.peek() == Tok::LParen {
            self.bump();
            let e = self.expr(env)?;
            self.expect(Tok::RParen)?;
            ActionKind::EmitValued(e)
        } else {
            ActionKind::EmitPure
        };
        self.expect(Tok::Semi)?;
        Ok(ParsedAction {
            target,
            span: Span { line, col },
            kind,
        })
    }

    /// expr := cmp; cmp := sum (relop sum)?; sum := term ((+|-) term)*;
    /// term := factor ((*|/|%) factor)*.
    fn expr(&mut self, env: &ModuleEnv) -> Result<Expr, ParseError> {
        let lhs = self.sum(env)?;
        let op = match self.peek() {
            Tok::EqEq => Some(Expr::eq as fn(Expr, Expr) -> Expr),
            Tok::NotEq => Some(Expr::ne as fn(Expr, Expr) -> Expr),
            Tok::Le => Some(Expr::le as fn(Expr, Expr) -> Expr),
            Tok::Ge => Some(Expr::ge as fn(Expr, Expr) -> Expr),
            Tok::Lt => Some(Expr::lt as fn(Expr, Expr) -> Expr),
            Tok::Gt => Some(Expr::gt as fn(Expr, Expr) -> Expr),
            _ => None,
        };
        if let Some(f) = op {
            self.bump();
            let rhs = self.sum(env)?;
            Ok(f(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn sum(&mut self, env: &ModuleEnv) -> Result<Expr, ParseError> {
        let mut e = self.term(env)?;
        loop {
            match self.peek() {
                Tok::Plus => {
                    self.bump();
                    e = e.add(self.term(env)?);
                }
                Tok::Minus => {
                    self.bump();
                    e = e.sub(self.term(env)?);
                }
                _ => return Ok(e),
            }
        }
    }

    fn term(&mut self, env: &ModuleEnv) -> Result<Expr, ParseError> {
        let mut e = self.factor(env)?;
        loop {
            match self.peek() {
                Tok::Star => {
                    self.bump();
                    e = e.mul(self.factor(env)?);
                }
                Tok::Slash => {
                    self.bump();
                    e = e.div(self.factor(env)?);
                }
                Tok::Percent => {
                    self.bump();
                    e = e.rem(self.factor(env)?);
                }
                _ => return Ok(e),
            }
        }
    }

    fn factor(&mut self, env: &ModuleEnv) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::int(v))
            }
            Tok::Minus => {
                self.bump();
                // `-12` is the constant -12, not a negation of 12, so every
                // consumer (vm, estimator, false-path analysis) sees one
                // literal.
                Ok(match self.factor(env)? {
                    Expr::Const(Value::Int(v)) => Expr::int(v.wrapping_neg()),
                    e => e.neg(),
                })
            }
            Tok::Question => {
                self.bump();
                let (line, col) = self.here();
                let sig = self.ident()?;
                if !env.valued_inputs.contains(&sig) {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("`?{sig}`: `{sig}` is not a valued input"),
                    });
                }
                Ok(Expr::var(polis_cfsm::value_var_name(&sig)))
            }
            Tok::Min | Tok::Max => {
                let is_min = *self.peek() == Tok::Min;
                self.bump();
                self.expect(Tok::LParen)?;
                let a = self.expr(env)?;
                self.expect(Tok::Comma)?;
                let b = self.expr(env)?;
                self.expect(Tok::RParen)?;
                Ok(if is_min { a.min(b) } else { a.max(b) })
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr(env)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr::var(name))
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }

    /// `properties { (assert (never|reachable) <prop-expr> ;)* }`
    fn properties_block(&mut self, out: &mut Vec<RawProp>) -> Result<(), ParseError> {
        self.expect(Tok::Properties)?;
        self.expect(Tok::LBrace)?;
        while *self.peek() != Tok::RBrace {
            let (line, col) = self.here();
            self.expect(Tok::Assert)?;
            let kind = match self.peek() {
                Tok::Never => PropKind::Never,
                Tok::Reachable => PropKind::Reachable,
                other => {
                    return Err(
                        self.error(format!("expected `never` or `reachable`, found {other}"))
                    )
                }
            };
            self.bump();
            let expr = self.prop_expr()?;
            self.expect(Tok::Semi)?;
            out.push(RawProp {
                kind,
                expr,
                span: Span { line, col },
            });
        }
        self.expect(Tok::RBrace)
    }

    /// prop-expr := prop-and (`||` prop-and)*
    fn prop_expr(&mut self) -> Result<RawExpr, ParseError> {
        let mut e = self.prop_and()?;
        while *self.peek() == Tok::OrOr {
            self.bump();
            e = RawExpr::Or(Box::new(e), Box::new(self.prop_and()?));
        }
        Ok(e)
    }

    fn prop_and(&mut self) -> Result<RawExpr, ParseError> {
        let mut e = self.prop_atom()?;
        while *self.peek() == Tok::AndAnd {
            self.bump();
            e = RawExpr::And(Box::new(e), Box::new(self.prop_atom()?));
        }
        Ok(e)
    }

    /// prop-atom := `!` prop-atom | `(` prop-expr `)` | `true` | `false`
    ///            | machine `@` state | machine `.` input
    fn prop_atom(&mut self) -> Result<RawExpr, ParseError> {
        match self.peek().clone() {
            Tok::Bang => {
                self.bump();
                Ok(RawExpr::Not(Box::new(self.prop_atom()?)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.prop_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::True => {
                self.bump();
                Ok(RawExpr::True)
            }
            Tok::False => {
                self.bump();
                Ok(RawExpr::False)
            }
            Tok::Ident(machine) => {
                let (line, col) = self.here();
                let mspan = Span { line, col };
                self.bump();
                match self.peek().clone() {
                    Tok::At => {
                        self.bump();
                        let (line, col) = self.here();
                        let state = self.ident()?;
                        Ok(RawExpr::AtState {
                            machine,
                            state,
                            mspan,
                            sspan: Span { line, col },
                        })
                    }
                    Tok::Dot => {
                        self.bump();
                        let (line, col) = self.here();
                        let signal = self.ident()?;
                        Ok(RawExpr::Pending {
                            machine,
                            signal,
                            mspan,
                            sspan: Span { line, col },
                        })
                    }
                    other => Err(self.error(format!(
                        "expected `@state` or `.event` after `{machine}`, found {other}"
                    ))),
                }
            }
            other => Err(self.error(format!("expected a property atom, found {other}"))),
        }
    }
}

/// A property before name resolution: atoms carry source names and the
/// spans diagnostics point at.
struct RawProp {
    kind: PropKind,
    expr: RawExpr,
    span: Span,
}

enum RawExpr {
    True,
    False,
    AtState {
        machine: String,
        state: String,
        mspan: Span,
        sspan: Span,
    },
    Pending {
        machine: String,
        signal: String,
        mspan: Span,
        sspan: Span,
    },
    Not(Box<RawExpr>),
    And(Box<RawExpr>, Box<RawExpr>),
    Or(Box<RawExpr>, Box<RawExpr>),
}

fn resolve_props(net: &Network, raw: Vec<RawProp>) -> Result<Vec<Property>, ParseError> {
    raw.into_iter()
        .map(|p| {
            Ok(Property {
                kind: p.kind,
                expr: resolve_expr(net, p.expr)?,
                span: p.span,
            })
        })
        .collect()
}

fn spanned(span: Span, message: String) -> ParseError {
    ParseError {
        line: span.line,
        col: span.col,
        message,
    }
}

fn machine_index(net: &Network, name: &str, mspan: Span) -> Result<usize, ParseError> {
    net.machine_index(name)
        .ok_or_else(|| spanned(mspan, format!("unknown module `{name}` in property")))
}

fn resolve_expr(net: &Network, e: RawExpr) -> Result<PropExpr, ParseError> {
    match e {
        RawExpr::True => Ok(PropExpr::True),
        RawExpr::False => Ok(PropExpr::False),
        RawExpr::AtState {
            machine,
            state,
            mspan,
            sspan,
        } => {
            let mi = machine_index(net, &machine, mspan)?;
            let m = &net.cfsms()[mi];
            let si = m.states().iter().position(|s| *s == state).ok_or_else(|| {
                spanned(sspan, format!("module `{machine}` has no state `{state}`"))
            })?;
            Ok(PropExpr::AtState {
                machine: mi,
                state: si,
                span: sspan,
            })
        }
        RawExpr::Pending {
            machine,
            signal,
            mspan,
            sspan,
        } => {
            let mi = machine_index(net, &machine, mspan)?;
            let ki = net.cfsms()[mi].input_index(&signal).ok_or_else(|| {
                spanned(sspan, format!("module `{machine}` has no input `{signal}`"))
            })?;
            Ok(PropExpr::Pending {
                machine: mi,
                input: ki,
                span: sspan,
            })
        }
        RawExpr::Not(x) => Ok(PropExpr::Not(Box::new(resolve_expr(net, *x)?))),
        RawExpr::And(a, b) => Ok(PropExpr::And(
            Box::new(resolve_expr(net, *a)?),
            Box::new(resolve_expr(net, *b)?),
        )),
        RawExpr::Or(a, b) => Ok(PropExpr::Or(
            Box::new(resolve_expr(net, *a)?),
            Box::new(resolve_expr(net, *b)?),
        )),
    }
}

/// An action as written, its target not yet resolved against the
/// module's declarations.
struct ParsedAction {
    /// The emitted output or the assigned state variable.
    target: String,
    /// Where `target` is written.
    span: Span,
    kind: ActionKind,
}

enum ActionKind {
    EmitPure,
    EmitValued(Expr),
    Assign(Expr),
}

#[derive(Default)]
struct ModuleEnv {
    inputs: Vec<String>,
    valued_inputs: std::collections::BTreeSet<String>,
    outputs: std::collections::BTreeSet<String>,
    vars: std::collections::BTreeSet<String>,
    states: HashMap<String, StateId>,
    tests: HashMap<Expr, TestId>,
}

impl ModuleEnv {
    fn intern_test(&mut self, b: &mut CfsmBuilder, e: Expr) -> TestId {
        if let Some(&id) = self.tests.get(&e) {
            return id;
        }
        let id = b.test(format!("t{}", self.tests.len()), e.clone());
        self.tests.insert(e, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_cfsm::Action;
    use polis_expr::MapEnv;
    use std::collections::BTreeSet;

    const SIMPLE: &str = r#"
        // The paper's Fig. 1 module.
        module simple {
            input c : u8;
            output y;
            var a : u8 := 0;
            state awaiting;
            from awaiting to awaiting when c && [a == ?c] do { a := 0; emit y; }
            from awaiting to awaiting when c && ![a == ?c] do { a := a + 1; }
        }
    "#;

    #[test]
    fn parses_fig1_simple() {
        let m = parse_module(SIMPLE).unwrap();
        assert_eq!(m.name(), "simple");
        assert_eq!(m.inputs().len(), 1);
        assert_eq!(m.outputs().len(), 1);
        assert_eq!(m.state_vars().len(), 1);
        assert_eq!(m.num_transitions(), 2);
        assert_eq!(m.tests().len(), 1, "the bracketed test is interned once");
    }

    #[test]
    fn parsed_module_behaves_like_fig1() {
        let m = parse_module(SIMPLE).unwrap();
        let mut st = m.initial_state();
        let present: BTreeSet<String> = ["c".to_string()].into();
        let mut vals = MapEnv::new();
        vals.set("c_value", Value::Int(2));
        for _ in 0..2 {
            let r = m.react(&present, &vals, &st).unwrap();
            assert!(r.emissions.is_empty());
            st = r.next;
        }
        let r = m.react(&present, &vals, &st).unwrap();
        assert_eq!(r.emissions.len(), 1);
        assert_eq!(r.emissions[0].signal, "y");
    }

    #[test]
    fn minus_on_an_integer_literal_is_one_constant() {
        let m = parse_module(
            "module a { input x : i8; output o : i8; state s; \
             from s to s when x && [?x < -12] do { emit o(-(3) - -?x); } }",
        )
        .unwrap();
        assert_eq!(m.tests()[0].expr, Expr::var("x_value").lt(Expr::int(-12)));
        let Action::Emit { value: Some(e), .. } = &m.actions()[0] else {
            panic!("one valued emission");
        };
        // A negated variable stays a negation.
        assert_eq!(*e, Expr::int(-3).sub(Expr::var("x_value").neg()));
    }

    #[test]
    fn parses_multi_state_and_network() {
        let src = r#"
            module producer {
                input tick;
                output data : u8;
                var n : u8 := 0;
                state idle, busy;
                from idle to busy when tick do { n := n + 1; emit data(n * 2); }
                from busy to idle when tick;
            }
            module consumer {
                input data : u8;
                output alert;
                state s;
                from s to s when data && [?data > 10] do { emit alert; }
            }
        "#;
        let net = parse_network("pipeline", src).unwrap();
        assert_eq!(net.cfsms().len(), 2);
        assert_eq!(net.internal_signals(), vec!["data".to_string()]);
        assert_eq!(net.cfsms()[0].states().len(), 2);
    }

    #[test]
    fn guard_operators_parse() {
        let src = r#"
            module g {
                input a, b;
                output o;
                var n : u4 := 0;
                state s;
                from s to s when (a || b) && ![n >= 3] && true do { emit o; }
            }
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.num_transitions(), 1);
    }

    #[test]
    fn expression_precedence() {
        let src = r#"
            module e {
                input go;
                output o : u8;
                var x : u8 := 0;
                state s;
                from s to s when go do { emit o(1 + x * 2 - min(x, 3)); }
            }
        "#;
        let m = parse_module(src).unwrap();
        // 1 + (x*2) - min(x,3)
        let polis_cfsm::Action::Emit { value: Some(e), .. } = &m.actions()[0] else {
            panic!("expected valued emission");
        };
        let mut env = MapEnv::new();
        env.set("x", Value::Int(5));
        assert_eq!(e.eval(&env).unwrap(), Value::Int(1 + 10 - 3));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_module("module m {\n  input $;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_module("module m { state s; from s to nowhere; }").unwrap_err();
        assert!(err.message.contains("unknown state"));
        let err =
            parse_module("module m { input a; state s; from s to s when bogus; }").unwrap_err();
        assert!(err.message.contains("unknown input"));
        let err =
            parse_module("module m { input a; state s; from s to s when [?a == 1]; }").unwrap_err();
        assert!(err.message.contains("not a valued input"));
    }

    #[test]
    fn validation_errors_surface() {
        // duplicate name: input and output both `x`, reported at the module
        let err = parse_module("module m { input x; output x; state s; }").unwrap_err();
        assert!(err.message.contains("duplicate name"));
        assert_eq!((err.line, err.col), (1, 1));
        let err = parse_module("\n  module m { input x; }").unwrap_err();
        assert_eq!(err.to_string(), "2:3: machine has no control states");
    }

    #[test]
    fn network_errors_are_reported_at_the_later_module() {
        let a = "module a { input x; output y; state s; }\n";
        for (second, want) in [
            (
                "module a { input z; state s; }",
                "2:3: duplicate machine name `a`",
            ),
            (
                "module b { input y : u8; state s; }",
                "2:3: conflicting type declarations for signal `y`",
            ),
            (
                "module b { input z; output y; state s; }",
                "2:3: signal `y` emitted by both `a` and `b`",
            ),
        ] {
            let err = parse_spec("n", &format!("{a}  {second}")).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn initializers_must_fit_their_type() {
        let var = |decl: &str| parse_module(&format!("module m {{ var {decl}; state s; }}"));
        for ok in [
            "n : u4 := 15",
            "n : u4 := 0",
            "n : i4 := -8",
            "n : i4 := 7",
            "n : bool := 1",
        ] {
            assert!(var(ok).is_ok(), "{ok}");
        }
        for (bad, range) in [
            ("n : u4 := 16", "u4's range 0..=15"),
            ("n : u4 := -1", "u4's range 0..=15"),
            ("n : i4 := -9", "i4's range -8..=7"),
            ("n : i4 := 8", "i4's range -8..=7"),
            ("n : bool := 2", "bool's range 0..=1"),
        ] {
            let err = var(bad).unwrap_err();
            // Spanned at the literal: `module m { var ` is 15 columns.
            let col = 15 + bad.find(":= ").unwrap() + 3 + 1;
            assert_eq!((err.line, err.col as usize), (1, col), "{bad}");
            assert!(err.message.contains(range), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn signed_types_and_negative_literals() {
        let src = r#"
            module neg {
                input go;
                output o : i8;
                var d : i8 := -3;
                state s;
                from s to s when go do { emit o(d - 10); d := -d; }
            }
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.state_vars()[0].init, Value::Int(-3));
    }

    const PAIR_WITH_PROPS: &str = r#"
        module pinger {
            input go;
            output ping;
            state idle, firing;
            from idle to firing when go do { emit ping; }
            from firing to idle when go;
        }
        module ponger {
            input ping;
            output pong;
            state s;
            from s to s when ping do { emit pong; }
        }
        properties {
            assert never pinger@firing && ponger.ping;
            assert reachable pinger@firing;
            assert reachable !(pinger@idle || ponger.ping) && true;
        }
    "#;

    #[test]
    fn spec_with_properties_parses_and_resolves() {
        use crate::prop::{PropExpr, PropKind};
        let spec = parse_spec("pair", PAIR_WITH_PROPS).unwrap();
        assert_eq!(spec.network.cfsms().len(), 2);
        assert_eq!(spec.properties.len(), 3);
        assert_eq!(spec.properties[0].kind, PropKind::Never);
        assert_eq!(spec.properties[1].kind, PropKind::Reachable);
        let PropExpr::And(a, b) = &spec.properties[0].expr else {
            panic!("expected a conjunction, got {:?}", spec.properties[0].expr);
        };
        assert!(
            matches!(
                **a,
                PropExpr::AtState {
                    machine: 0,
                    state: 1,
                    ..
                }
            ),
            "{a:?}"
        );
        assert!(
            matches!(
                **b,
                PropExpr::Pending {
                    machine: 1,
                    input: 0,
                    ..
                }
            ),
            "{b:?}"
        );
        // `parse_network` accepts the same source and discards the suite.
        let net = parse_network("pair", PAIR_WITH_PROPS).unwrap();
        assert_eq!(net.cfsms().len(), 2);
    }

    #[test]
    fn property_eval_and_render_roundtrip() {
        let spec = parse_spec("pair", PAIR_WITH_PROPS).unwrap();
        let net = &spec.network;
        // pinger@firing && ponger.ping
        let e = &spec.properties[0].expr;
        assert!(e.eval(&[1, 0], &[vec![false], vec![true]]));
        assert!(!e.eval(&[0, 0], &[vec![false], vec![true]]));
        assert!(!e.eval(&[1, 0], &[vec![true], vec![false]]));
        assert_eq!(
            spec.properties[0].render(net),
            "assert never (pinger@firing && ponger.ping)"
        );
        // The rendered suite re-parses to the same resolved properties
        // (spans differ between the two sources, so compare renders).
        let suite = crate::prop::emit_properties_source(net, &spec.properties);
        let reparsed = parse_properties(net, &suite).unwrap();
        assert_eq!(reparsed.len(), spec.properties.len());
        for (a, b) in reparsed.iter().zip(&spec.properties) {
            assert_eq!(a.render(net), b.render(net));
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn property_unknown_module_is_spanned() {
        let src = "module m { input a; state s; }\nproperties {\n    assert never ghost@s;\n}";
        let err = parse_spec("n", src).unwrap_err();
        assert_eq!((err.line, err.col), (3, 18));
        assert!(err.message.contains("unknown module `ghost`"), "{err}");
    }

    #[test]
    fn property_unknown_state_names_the_machine() {
        let src =
            "module m { input a; state s; }\nproperties {\n    assert reachable m@launched;\n}";
        let err = parse_spec("n", src).unwrap_err();
        assert_eq!((err.line, err.col), (3, 24));
        assert!(
            err.message.contains("module `m` has no state `launched`"),
            "{err}"
        );
    }

    #[test]
    fn property_unknown_input_names_the_machine() {
        let src = "module m { input a; state s; }\nproperties {\n    assert never m.bogus;\n}";
        let err = parse_spec("n", src).unwrap_err();
        assert_eq!((err.line, err.col), (3, 20));
        assert!(
            err.message.contains("module `m` has no input `bogus`"),
            "{err}"
        );
    }

    #[test]
    fn property_syntax_errors_are_positioned() {
        let err = parse_spec(
            "n",
            "module m { input a; state s; }\nproperties { assert always m@s; }",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("`never` or `reachable`"), "{err}");
        let err = parse_spec(
            "n",
            "module m { input a; state s; }\nproperties { assert never m; }",
        )
        .unwrap_err();
        assert!(
            err.message.contains("expected `@state` or `.event`"),
            "{err}"
        );
    }

    #[test]
    fn parse_properties_rejects_modules() {
        let net = parse_network("n", "module m { input a; state s; }").unwrap();
        let err = parse_properties(&net, "module k { state s; }").unwrap_err();
        assert!(err.message.contains("found module `k`"), "{err}");
        let props = parse_properties(&net, "properties { assert reachable m.a; }").unwrap();
        assert_eq!(props.len(), 1);
    }

    #[test]
    fn bad_type_rejected() {
        let err = parse_module("module m { var v : q8 := 0; state s; }").unwrap_err();
        assert!(err.message.contains("unknown type"));
        let err = parse_module("module m { var v : u99 := 0; state s; }").unwrap_err();
        assert!(err.message.contains("outside"));
    }
}
