//! The end-to-end POLIS software synthesis pipeline.
//!
//! Ties the substrate crates together into the five-step procedure of
//! Section I-H:
//!
//! 1. optimized translation of each CFSM transition function into an
//!    s-graph (characteristic-function BDD, constrained sifting,
//!    structural translation);
//! 2. s-graph optimization and code-size estimation;
//! 3. translation into C (and into virtual object code for measurement);
//! 4. scheduling and RTOS generation;
//! 5. "compilation" — here, assembly onto a virtual target with a
//!    68HC11-like or R3000-like cost profile.
//!
//! [`synthesize`] runs steps 1–3 and 5 for one CFSM under a chosen
//! [`ImplStyle`]; [`synthesize_network_staged`] maps the same stage chain
//! ([`synthesize_cfsm`]) over a network, optionally verifies it
//! ([`verify_staged`]), and adds the RTOS. The [`workloads`] module
//! provides the paper's evaluation subjects (dashboard, shock absorber,
//! seat belt) rebuilt as synthetic equivalents, and [`random`] generates
//! random networks for benchmarks and property tests.
//!
//! # Examples
//!
//! ```
//! use polis_core::{synthesize, workloads, ImplStyle, SynthesisOptions};
//!
//! let net = workloads::dashboard();
//! let opts = SynthesisOptions::default();
//! let result = synthesize(&net.cfsms()[0], &opts);
//! assert!(result.measured.size_bytes > 0);
//! assert!(result.estimate.max_cycles > 0);
//! assert_eq!(opts.style, ImplStyle::DecisionGraph);
//! ```

pub mod args;
pub mod pipeline;
pub mod random;
pub mod trace;
pub mod workloads;

pub use pipeline::{
    synthesize_cfsm, synthesize_graph, synthesize_network_staged, verify_staged, SynthCtx,
    SynthError, SynthFailure, Verified,
};
pub use trace::{MetricValue, StageRecord, SynthTrace};

use polis_cfsm::{Cfsm, OrderScheme};
use polis_estimate::Estimate;
use polis_sgraph::{BufferPolicy, SGraph};
use polis_verify::VerifyOptions;
use polis_vm::{ObjectCode, Profile, VmProgram};
use std::time::Duration;

/// Which implementation style to synthesize (the rows of Tables II/III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplStyle {
    /// BDD-derived decision graph (the paper's approach).
    DecisionGraph,
    /// TEST-free ITE assignment chain — outputs before support
    /// (the `ESTEREL_OPT` Boolean-circuit style).
    IteChain,
    /// Two-level multi-way jump reference (structured hand-coding style).
    TwoLevel,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisOptions {
    /// Implementation style.
    pub style: ImplStyle,
    /// Variable-ordering scheme for [`ImplStyle::DecisionGraph`].
    pub scheme: OrderScheme,
    /// Sifting passes (the paper uses a single pass).
    pub sift_passes: usize,
    /// Apply TEST-node collapsing after building the graph.
    pub collapse: bool,
    /// Entry-copy buffering.
    pub buffering: BufferPolicy,
    /// Target cost profile.
    pub profile: Profile,
    /// Run symbolic network verification (reachability, lost events,
    /// dead transitions, deadlock) as a network-level stage under these
    /// traversal options. Exceeding the node budget aborts the pipeline
    /// with [`SynthError::Verify`] (the trace recorded so far is
    /// preserved in [`SynthFailure`]).
    pub verify: Option<VerifyOptions>,
    /// Feed the verified reachability invariant back into the
    /// false-path cycle estimator
    /// ([`CfsmSynthesis::max_cycles_reach_aware`]). Requires `verify`.
    pub verify_refine_estimates: bool,
}

impl Default for SynthesisOptions {
    fn default() -> SynthesisOptions {
        SynthesisOptions {
            style: ImplStyle::DecisionGraph,
            scheme: OrderScheme::OutputsAfterSupport,
            sift_passes: 1,
            collapse: false,
            buffering: BufferPolicy::All,
            profile: Profile::Mcu8,
            verify: None,
            verify_refine_estimates: false,
        }
    }
}

/// Exact measurements from the assembled object code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Code size in bytes (ROM).
    pub size_bytes: u64,
    /// Exact minimum cycles per reaction.
    pub min_cycles: u64,
    /// Exact maximum cycles per reaction.
    pub max_cycles: u64,
    /// Data bytes (RAM): state, copies, buffers.
    pub ram_bytes: u64,
}

/// Everything the pipeline produces for one CFSM.
#[derive(Debug)]
pub struct CfsmSynthesis {
    /// The synthesized s-graph.
    pub graph: SGraph,
    /// Generated C source.
    pub c_code: String,
    /// Compiled virtual routine.
    pub program: VmProgram,
    /// Assembled object code.
    pub object: ObjectCode,
    /// Parameter-based estimate (Section III-C).
    pub estimate: Estimate,
    /// The estimated worst case excluding paths killed by derived test
    /// incompatibilities (Section III-C false paths); `None` when no
    /// incompatibilities exist for this machine.
    pub max_cycles_false_path_aware: Option<u64>,
    /// The false-path bound additionally pruned by the *verified*
    /// network reachability invariant (never looser than the plain or
    /// derived bound); `None` unless
    /// [`SynthesisOptions::verify_refine_estimates`] ran and produced
    /// incompatibilities for this machine.
    pub max_cycles_reach_aware: Option<u64>,
    /// Exact object-code measurement.
    pub measured: Measured,
}

/// Runs the single-CFSM pipeline. To synthesize many machines under one
/// trace, build one [`SynthCtx`] and call [`synthesize_cfsm`].
pub fn synthesize(cfsm: &Cfsm, opts: &SynthesisOptions) -> CfsmSynthesis {
    let mut ctx = SynthCtx::new(opts);
    synthesize_cfsm(&mut ctx, cfsm).expect("validated CFSMs synthesize")
}

/// The pipeline applied to a whole network, plus the generated RTOS.
#[derive(Debug)]
pub struct NetworkSynthesis {
    /// Per-machine results, in network order.
    pub machines: Vec<CfsmSynthesis>,
    /// Symbolic verification verdicts; `Some` iff
    /// [`SynthesisOptions::verify`] was set.
    pub verify: Option<polis_verify::VerifyReport>,
    /// Generated RTOS C skeleton.
    pub rtos_c: String,
    /// Total code size including an RTOS allowance.
    pub total_rom: u64,
    /// Total data size including RTOS tables.
    pub total_ram: u64,
    /// Total wall-clock synthesis time.
    pub synthesis_time: Duration,
}

/// Fixed ROM/RAM allowance for the generated RTOS core (scheduler loop,
/// emission service, ISR stubs); the generated RTOS is small because the
/// communication structure is fixed (Section IV-E).
pub(crate) const RTOS_ROM_BYTES: u64 = 512;
pub(crate) const RTOS_RAM_PER_TASK: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use polis_rtos::RtosConfig;

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let net = workloads::seat_belt();
        let opts = SynthesisOptions::default();
        for m in net.cfsms() {
            let r = synthesize(m, &opts);
            assert!(r.measured.size_bytes > 0, "{}", m.name());
            assert!(r.measured.min_cycles <= r.measured.max_cycles);
            assert!(r.c_code.contains(&format!("void {}_react", m.name())));
            assert!(r.graph.validate().is_ok());
        }
    }

    #[test]
    fn styles_differ_in_shape() {
        let net = workloads::seat_belt();
        let m = &net.cfsms()[0];
        let dg = synthesize(m, &SynthesisOptions::default());
        let chain = synthesize(
            m,
            &SynthesisOptions {
                style: ImplStyle::IteChain,
                ..SynthesisOptions::default()
            },
        );
        let two = synthesize(
            m,
            &SynthesisOptions {
                style: ImplStyle::TwoLevel,
                ..SynthesisOptions::default()
            },
        );
        assert_eq!(chain.graph.num_tests(), 0, "ITE chain is TEST-free");
        assert!(two.graph.num_tests() >= dg.graph.num_tests());
        // The chain has (near-)constant execution time: every condition is
        // evaluated on every reaction, so only the guarded action bodies
        // spread the bounds — far less than the decision graph's early
        // exits (the paper's "exactly the same time" holds at s-graph
        // granularity).
        let spread = |m: &Measured| m.max_cycles - m.min_cycles;
        assert!(
            spread(&chain.measured) < spread(&dg.measured),
            "chain spread {} vs decision-graph spread {}",
            spread(&chain.measured),
            spread(&dg.measured)
        );
    }

    #[test]
    fn network_synthesis_totals_add_up() {
        let net = workloads::seat_belt();
        let (r, _) = synthesize_network_staged(
            &net,
            &SynthesisOptions::default(),
            &RtosConfig::default(),
            1,
        )
        .unwrap();
        assert_eq!(r.machines.len(), net.cfsms().len());
        let rom_sum: u64 = r.machines.iter().map(|m| m.measured.size_bytes).sum();
        assert!(r.total_rom > rom_sum);
        assert!(r.rtos_c.contains("scheduler"));
    }
}
