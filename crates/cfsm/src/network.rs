//! Networks of CFSMs connected by broadcast events.
//!
//! Connection is by signal name: an event emitted by any machine is
//! delivered to every machine that declares an input of the same name, each
//! through its own one-place buffer (Section II-D). Signals nobody emits are
//! *primary inputs* (driven by the environment or by hardware CFSMs);
//! every emitted signal is also observable as a primary output.

use crate::machine::Cfsm;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// A named collection of CFSMs with name-based broadcast connectivity.
///
/// # Examples
///
/// ```
/// use polis_cfsm::{Cfsm, Network};
/// use polis_expr::{Expr, Type, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Cfsm::builder("producer");
/// b.input_pure("tick");
/// b.output_pure("data");
/// let s = b.ctrl_state("s");
/// b.transition(s, s).when_present("tick").emit("data").done();
/// let producer = b.build()?;
///
/// let mut b = Cfsm::builder("consumer");
/// b.input_pure("data");
/// b.output_pure("done");
/// let s = b.ctrl_state("s");
/// b.transition(s, s).when_present("data").emit("done").done();
/// let consumer = b.build()?;
///
/// let net = Network::new("pair", vec![producer, consumer])?;
/// assert_eq!(net.primary_inputs(), vec!["tick".to_string()]);
/// assert!(net.internal_signals().contains(&"data".to_string()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    cfsms: Vec<Cfsm>,
}

impl Network {
    /// Builds a network and validates its connectivity.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::DuplicateMachine`] if two machines share a name;
    /// * [`NetworkError::SignalTypeMismatch`] if two declarations of the
    ///   same signal disagree on valued-ness or type;
    /// * [`NetworkError::MultipleDrivers`] if two machines emit the same
    ///   signal (single-driver discipline keeps event semantics analyzable).
    pub fn new(name: impl Into<String>, cfsms: Vec<Cfsm>) -> Result<Network, NetworkError> {
        let net = Network {
            name: name.into(),
            cfsms,
        };
        let mut names = BTreeSet::new();
        for (at, m) in net.cfsms.iter().enumerate() {
            if !names.insert(m.name().to_owned()) {
                return Err(NetworkError::DuplicateMachine {
                    name: m.name().to_owned(),
                    at,
                });
            }
        }
        // Signal declarations must agree.
        let mut decl: BTreeMap<String, crate::Signal> = BTreeMap::new();
        for (at, m) in net.cfsms.iter().enumerate() {
            for s in m.inputs().iter().chain(m.outputs()) {
                match decl.get(s.name()) {
                    None => {
                        decl.insert(s.name().to_owned(), s.clone());
                    }
                    Some(prev) if prev.value_type() == s.value_type() => {}
                    Some(_) => {
                        return Err(NetworkError::SignalTypeMismatch {
                            signal: s.name().to_owned(),
                            at,
                        })
                    }
                }
            }
        }
        // Single driver per signal.
        let mut driver: BTreeMap<&str, &str> = BTreeMap::new();
        for (at, m) in net.cfsms.iter().enumerate() {
            for s in m.outputs() {
                if let Some(other) = driver.insert(s.name(), m.name()) {
                    return Err(NetworkError::MultipleDrivers {
                        signal: s.name().to_owned(),
                        first: other.to_owned(),
                        second: m.name().to_owned(),
                        at,
                    });
                }
            }
        }
        Ok(net)
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The member machines.
    pub fn cfsms(&self) -> &[Cfsm] {
        &self.cfsms
    }

    /// Index of the machine named `name`.
    pub fn machine_index(&self, name: &str) -> Option<usize> {
        self.cfsms.iter().position(|m| m.name() == name)
    }

    /// The machine that emits `signal`, if any.
    pub fn driver_of(&self, signal: &str) -> Option<usize> {
        self.cfsms
            .iter()
            .position(|m| m.output_index(signal).is_some())
    }

    /// The machines with an input named `signal`.
    pub fn consumers_of(&self, signal: &str) -> Vec<usize> {
        self.cfsms
            .iter()
            .enumerate()
            .filter(|(_, m)| m.input_index(signal).is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Signals consumed by some machine but emitted by none: driven by the
    /// environment (or by hardware CFSMs in a partitioned design).
    pub fn primary_inputs(&self) -> Vec<String> {
        let mut out = BTreeSet::new();
        for m in &self.cfsms {
            for s in m.inputs() {
                if self.driver_of(s.name()).is_none() {
                    out.insert(s.name().to_owned());
                }
            }
        }
        out.into_iter().collect()
    }

    /// Signals both emitted and consumed inside the network.
    pub fn internal_signals(&self) -> Vec<String> {
        let mut out = BTreeSet::new();
        for m in &self.cfsms {
            for s in m.outputs() {
                if !self.consumers_of(s.name()).is_empty() {
                    out.insert(s.name().to_owned());
                }
            }
        }
        out.into_iter().collect()
    }

    /// All signals emitted by some machine (observable outputs).
    pub fn emitted_signals(&self) -> Vec<String> {
        let mut out = BTreeSet::new();
        for m in &self.cfsms {
            for s in m.outputs() {
                out.insert(s.name().to_owned());
            }
        }
        out.into_iter().collect()
    }

    /// Every one-place event buffer of the network, in deterministic
    /// (consumer, input-index) order.
    ///
    /// One buffer exists per (consumer machine, input signal) pair
    /// (Section II-D: each receiver owns a private one-place buffer even
    /// though emission is broadcast). `driver` is the emitting machine, or
    /// `None` for primary inputs driven by the environment.
    pub fn buffers(&self) -> Vec<BufferRef> {
        let mut out = Vec::new();
        for (ci, m) in self.cfsms.iter().enumerate() {
            for (ii, s) in m.inputs().iter().enumerate() {
                out.push(BufferRef {
                    consumer: ci,
                    input: ii,
                    signal: s.name().to_owned(),
                    driver: self.driver_of(s.name()),
                });
            }
        }
        out
    }

    /// Machines in topological order of internal-signal flow (emitters
    /// before consumers), or `None` if the communication graph is cyclic.
    ///
    /// Used by [`crate::compose`], which requires acyclic internal
    /// communication (the synchronous-composition analogue of Esterel's
    /// causality requirement).
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.cfsms.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for sig in self.internal_signals() {
            let d = self.driver_of(&sig).expect("internal signal has driver");
            for c in self.consumers_of(&sig) {
                if c != d && !succs[d].contains(&c) {
                    succs[d].push(c);
                    indeg[c] += 1;
                } else if c == d {
                    return None; // self-loop
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            out.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        (out.len() == n).then_some(out)
    }
}

/// One one-place event buffer of a network: the receiving side of a
/// (consumer, input signal) pair. See [`Network::buffers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferRef {
    /// Index of the consuming machine.
    pub consumer: usize,
    /// Index into the consumer's input list.
    pub input: usize,
    /// The signal name.
    pub signal: String,
    /// Index of the emitting machine, or `None` for primary inputs.
    pub driver: Option<usize>,
}

/// Validation failure while building a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Two machines share a name.
    DuplicateMachine {
        /// The duplicated machine name.
        name: String,
        /// Index of the second machine of that name.
        at: usize,
    },
    /// Two declarations of one signal disagree on type.
    SignalTypeMismatch {
        /// The signal name.
        signal: String,
        /// Index of the machine whose declaration disagrees with an
        /// earlier one.
        at: usize,
    },
    /// Two machines emit the same signal.
    MultipleDrivers {
        /// The signal name.
        signal: String,
        /// First driver.
        first: String,
        /// Second driver.
        second: String,
        /// Index of the second driver.
        at: usize,
    },
    /// The operation requires acyclic internal communication.
    CyclicCommunication,
}

impl NetworkError {
    /// Index of the machine the error was found at: the later of the two
    /// that clash. `None` for a cyclic network.
    pub fn machine(&self) -> Option<usize> {
        match self {
            NetworkError::DuplicateMachine { at, .. }
            | NetworkError::SignalTypeMismatch { at, .. }
            | NetworkError::MultipleDrivers { at, .. } => Some(*at),
            NetworkError::CyclicCommunication => None,
        }
    }
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateMachine { name, .. } => {
                write!(f, "duplicate machine name `{name}`")
            }
            NetworkError::SignalTypeMismatch { signal, .. } => {
                write!(f, "conflicting type declarations for signal `{signal}`")
            }
            NetworkError::MultipleDrivers {
                signal,
                first,
                second,
                ..
            } => write!(
                f,
                "signal `{signal}` emitted by both `{first}` and `{second}`"
            ),
            NetworkError::CyclicCommunication => {
                write!(f, "internal communication graph is cyclic")
            }
        }
    }
}

impl Error for NetworkError {}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_expr::Expr;

    fn relay(name: &str, input: &str, output: &str) -> Cfsm {
        let mut b = Cfsm::builder(name);
        b.input_pure(input);
        b.output_pure(output);
        let s = b.ctrl_state("s");
        b.transition(s, s).when_present(input).emit(output).done();
        b.build().unwrap()
    }

    #[test]
    fn chain_topology() {
        let net = Network::new(
            "chain",
            vec![
                relay("a", "in", "m1"),
                relay("b", "m1", "m2"),
                relay("c", "m2", "out"),
            ],
        )
        .unwrap();
        assert_eq!(net.primary_inputs(), vec!["in".to_string()]);
        assert_eq!(
            net.internal_signals(),
            vec!["m1".to_string(), "m2".to_string()]
        );
        assert_eq!(
            net.emitted_signals(),
            vec!["m1".to_string(), "m2".to_string(), "out".to_string()]
        );
        assert_eq!(net.driver_of("m1"), Some(0));
        assert_eq!(net.consumers_of("m1"), vec![1]);
        let topo = net.topo_order().unwrap();
        assert_eq!(topo.len(), 3);
        let pos = |i: usize| topo.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn buffers_enumerate_every_consumer_input() {
        let net = Network::new(
            "chain",
            vec![relay("a", "in", "m1"), relay("b", "m1", "m2")],
        )
        .unwrap();
        let bufs = net.buffers();
        assert_eq!(
            bufs,
            vec![
                BufferRef {
                    consumer: 0,
                    input: 0,
                    signal: "in".to_owned(),
                    driver: None,
                },
                BufferRef {
                    consumer: 1,
                    input: 0,
                    signal: "m1".to_owned(),
                    driver: Some(0),
                },
            ]
        );
    }

    #[test]
    fn cycle_detected() {
        let net = Network::new("cycle", vec![relay("a", "x", "y"), relay("b", "y", "x")]).unwrap();
        assert_eq!(net.topo_order(), None);
    }

    #[test]
    fn machine_cannot_consume_its_own_output() {
        // A CFSM that inputs its own output signal is rejected at machine
        // build time (the value variable `x_value` would be ambiguous), so
        // the only communication cycles a network can contain span two or
        // more machines.
        let mut b = Cfsm::builder("selfloop");
        b.input_pure("x");
        b.output_pure("x");
        b.ctrl_state("s");
        assert!(matches!(
            b.build(),
            Err(crate::CfsmError::DuplicateName { .. })
        ));
    }

    #[test]
    fn duplicate_machine_rejected() {
        let err =
            Network::new("dup", vec![relay("a", "x", "y"), relay("a", "p", "q")]).unwrap_err();
        assert!(matches!(err, NetworkError::DuplicateMachine { at: 1, .. }));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let err =
            Network::new("multi", vec![relay("a", "x", "z"), relay("b", "y", "z")]).unwrap_err();
        assert!(matches!(err, NetworkError::MultipleDrivers { at: 1, .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        use polis_expr::{Type, Value};
        let mut b = Cfsm::builder("valued");
        b.input_pure("go");
        b.output_valued("z", Type::uint(8));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .emit_value("z", Expr::int(1))
            .done();
        let valued = b.build().unwrap();

        let mut b = Cfsm::builder("pureview");
        b.input_pure("z");
        b.state_var("n", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("z")
            .assign("n", Expr::var("n").add(Expr::int(1)))
            .done();
        let pureview = b.build().unwrap();

        let err = Network::new("mismatch", vec![valued, pureview]).unwrap_err();
        assert!(matches!(
            err,
            NetworkError::SignalTypeMismatch { at: 1, .. }
        ));
    }
}
