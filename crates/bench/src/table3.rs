//! **Table III** — Comparison of POLIS software synthesis with the
//! Esterel compilation styles, on the whole dashboard and a large
//! simulation stream (the paper ran on a DEC ALPHA with `pixie`; we use
//! the `Risc32` profile).
//!
//! Rows:
//!
//! * `POLIS` — per-CFSM BDD decision graphs, RTOS-scheduled network;
//! * `ESTEREL` — the network composed into a single FSM (v3 style), then
//!   synthesized the same way: fast per reaction (no internal events, no
//!   scheduling), large code;
//! * `ESTEREL_OPT` — the single FSM implemented as the TEST-free ITE
//!   chain (the v5 Boolean-circuit style); the paper: "the possible saving
//!   in code size due to the better sharing opportunities offered by
//!   Boolean functions in this case does not help".

use crate::{checks, dashboard_stimulus};
use polis_cfsm::{compose, Network, OrderScheme, ReactiveFn};
use polis_core::{synthesize_cfsm, workloads, SynthCtx, SynthesisOptions};
use polis_rtos::{RtosConfig, Simulator};
use polis_sgraph::ite_chain;
use polis_vm::Profile;
use std::time::Instant;

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let net = workloads::dashboard();
    let stim = dashboard_stimulus(3_000);
    let opts = SynthesisOptions {
        profile: Profile::Risc32,
        ..SynthesisOptions::default()
    };
    let mut ctx = SynthCtx::new(&opts);
    let rtos = RtosConfig {
        profile: Profile::Risc32,
        ..RtosConfig::default()
    };

    out.push(format!(
        "Table III: POLIS vs ESTEREL vs ESTEREL_OPT (dashboard, Risc32, {} stimuli)\n",
        stim.len()
    ));
    out.push(format!(
        "| {:<12} | {:>12} | {:>9} | {:>12} |",
        "row", "busy cycles", "size[B]", "synthesis"
    ));
    out.push(format!("|{}|", "-".repeat(56)));

    // POLIS: per-module synthesis + RTOS co-simulation.
    let t0 = Instant::now();
    let polis_size: u64 = net
        .cfsms()
        .iter()
        .map(|m| synthesize_cfsm(&mut ctx, m).expect("validated CFSMs synthesize"))
        .map(|r| r.measured.size_bytes)
        .sum();
    let polis_time = t0.elapsed();
    let mut sim = Simulator::build(&net, rtos.clone());
    sim.run(&stim);
    let polis_cycles = sim.stats().busy_cycles;
    out.push(format!(
        "| {:<12} | {:>12} | {:>9} | {:>10.1?} |",
        "POLIS", polis_cycles, polis_size, polis_time
    ));

    // ESTEREL: the composed single FSM.
    let t0 = Instant::now();
    let product = compose::compose(&net).expect("dashboard composes");
    let est = synthesize_cfsm(&mut ctx, &product).expect("validated CFSMs synthesize");
    let esterel_time = t0.elapsed();
    let product_net = Network::new("dash1", vec![product.clone()]).unwrap();
    let mut sim = Simulator::build(&product_net, rtos.clone());
    sim.run(&stim);
    let esterel_cycles = sim.stats().busy_cycles;
    out.push(format!(
        "| {:<12} | {:>12} | {:>9} | {:>10.1?} |",
        "ESTEREL", esterel_cycles, est.measured.size_bytes, esterel_time
    ));

    // ESTEREL_OPT: the composed FSM as an ITE chain.
    let t0 = Instant::now();
    let mut rf = ReactiveFn::build(&product);
    rf.sift(OrderScheme::OutputsAfterSupport);
    let chain = ite_chain(&mut rf);
    let prog = polis_vm::compile(&product, &chain, opts.buffering);
    let obj = polis_vm::assemble(&prog, Profile::Risc32);
    let opt_time = t0.elapsed();
    let mut sim = Simulator::with_graphs(&product_net, vec![chain], rtos);
    sim.run(&stim);
    let opt_cycles = sim.stats().busy_cycles;
    out.push(format!(
        "| {:<12} | {:>12} | {:>9} | {:>10.1?} |",
        "ESTEREL_OPT",
        opt_cycles,
        obj.size_bytes(),
        opt_time
    ));

    out.push("\nshape checks:".to_owned());
    out.extend(checks([
        (
            "single FSM reacts in fewer cycles than the scheduled network",
            esterel_cycles < polis_cycles,
        ),
        (
            "single FSM costs more code than the sum of POLIS modules",
            est.measured.size_bytes > polis_size,
        ),
        (
            "ESTEREL_OPT (Boolean-circuit/ITE) does not beat the decision graph in size",
            u64::from(obj.size_bytes()) >= est.measured.size_bytes,
        ),
        (
            "ESTEREL_OPT is not faster than the decision-graph single FSM",
            opt_cycles >= esterel_cycles,
        ),
    ]));
    out
}
