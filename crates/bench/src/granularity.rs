//! **Granularity sweep (Section I-H)** — growing the synchronous islands.
//!
//! "A growth of the synchronous islands (CFSMs) typically induces an
//! increase in code size, due to the more complex transition function ...
//! \[and\] a reduction in execution time ... due to the reduction of
//! communication and scheduling overhead."
//!
//! We sweep the dashboard from fully distributed (8 CFSMs) through partial
//! merges to the full synchronous product, measuring total code size and
//! the cycles needed to process the same stimulus stream.

use crate::{checks, dashboard_stimulus};
use polis_cfsm::{compose, Network};
use polis_core::{synthesize_cfsm, workloads, SynthCtx, SynthesisOptions};
use polis_estimate::calibrate;
use polis_rtos::{RtosConfig, Simulator};

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let base = workloads::dashboard();
    let stim = dashboard_stimulus(1_500);
    let opts = SynthesisOptions {
        profile: polis_vm::Profile::Risc32,
        ..SynthesisOptions::default()
    };
    let params = calibrate(opts.profile);
    let mut ctx = SynthCtx::new(&opts, &params);
    let rtos = RtosConfig {
        profile: opts.profile,
        ..RtosConfig::default()
    };

    // Granularity points: merges of progressively larger islands.
    let seven = compose::compose_subset(&base, &["frc", "speedo"]).expect("merge");
    let six = compose::compose_subset(&seven, &["rpc", "tach"]).expect("merge");
    let product = compose::compose(&base).expect("composes");
    let points = [
        ("8 CFSMs (distributed)", base),
        ("7 CFSMs (frc+speedo)", seven),
        ("6 CFSMs (+rpc+tach)", six),
        (
            "1 CFSM (full product)",
            Network::new("dash1", vec![product]).unwrap(),
        ),
    ];

    out.push(format!(
        "Granularity sweep (dashboard, Risc32, {} stimuli)\n",
        stim.len()
    ));
    out.push(format!(
        "| {:<24} | {:>9} | {:>12} | {:>10} |",
        "granularity", "ROM[B]", "busy cycles", "reactions"
    ));
    out.push(format!("|{}|", "-".repeat(66)));
    let mut roms = Vec::new();
    let mut cycles = Vec::new();
    for (label, net) in &points {
        let rom: u64 = net
            .cfsms()
            .iter()
            .map(|m| {
                synthesize_cfsm(&mut ctx, m)
                    .expect("validated CFSMs synthesize")
                    .measured
                    .size_bytes
            })
            .sum();
        let mut sim = Simulator::build(net, rtos.clone());
        sim.run(&stim);
        let total_reactions: u64 = sim.stats().reactions.iter().sum();
        out.push(format!(
            "| {:<24} | {:>9} | {:>12} | {:>10} |",
            label,
            rom,
            sim.stats().busy_cycles,
            total_reactions
        ));
        roms.push(rom);
        cycles.push(sim.stats().busy_cycles);
    }

    out.push("\nshape checks:".to_owned());
    out.extend(checks([
        (
            "code size grows with island size",
            roms.last() > roms.first(),
        ),
        (
            "execution time shrinks with island size",
            cycles.last() < cycles.first(),
        ),
    ]));
    out
}
