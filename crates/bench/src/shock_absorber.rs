//! **Section V-B** — the shock absorber controller redesign.
//!
//! The paper reports the synthesized implementation's ROM/RAM (including
//! the round-robin RTOS and I/O drivers) against a 32 KB ROM / 8 KB RAM
//! manual design, with comparable performance (both met the specified I/O
//! latency), and attributes the memory increase "mostly to the fact that
//! all variables used by an s-graph are copied upon entry".
//!
//! We reproduce the *structure* of that comparison: the POLIS pipeline
//! with buffer-all entry copies versus a hand-coding-style baseline
//! (two-level jump structure, no entry buffering), plus the announced
//! write-before-read data-flow optimization that closes most of the gap.

use crate::checks;
use polis_core::{synthesize_network_staged, workloads, ImplStyle, SynthesisOptions};
use polis_rtos::{RtosConfig, Simulator, Stimulus};
use polis_sgraph::BufferPolicy;

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let net = workloads::shock_absorber();
    out.push(format!(
        "Section V-B: shock absorber redesign ({} CFSMs)\n",
        net.cfsms().len()
    ));

    let dataflow = SynthesisOptions {
        buffering: BufferPolicy::Minimal,
        ..SynthesisOptions::default()
    };
    let manual = SynthesisOptions {
        style: ImplStyle::TwoLevel,
        ..dataflow
    };
    let variants = [
        ("synthesized (buffer-all)", SynthesisOptions::default()),
        ("synthesized + dataflow opt", dataflow),
        ("manual-style baseline", manual),
    ];

    out.push(format!(
        "| {:<28} | {:>8} | {:>8} |",
        "implementation", "ROM[B]", "RAM[B]"
    ));
    out.push(format!("|{}|", "-".repeat(52)));
    let mut roms = Vec::new();
    let mut rams = Vec::new();
    for (label, opts) in &variants {
        let (r, _) = synthesize_network_staged(&net, opts, &RtosConfig::default(), 1)
            .expect("validated CFSMs synthesize");
        out.push(format!(
            "| {:<28} | {:>8} | {:>8} |",
            label, r.total_rom, r.total_ram
        ));
        roms.push(r.total_rom);
        rams.push(r.total_ram);
    }

    // Latency under a realistic stimulus, for both the synthesized and the
    // baseline implementations.
    let mut stim = Vec::new();
    for i in 0..40u64 {
        stim.push(Stimulus::valued(
            i * 25_000,
            "acc_sample",
            if i % 3 == 0 { 40 } else { -25 },
        ));
    }
    stim.push(Stimulus::valued(10_000, "speed_sample", 95));
    for i in 0..5u64 {
        stim.push(Stimulus::pure(200_000 * (i + 1), "window"));
        stim.push(Stimulus::pure(150_000 * (i + 1) + 60_000, "pwm_tick"));
    }

    let budget = 12_000u64; // the "12 unit" I/O latency budget, in cycles
    out.push(format!(
        "\n| {:<28} | {:>16} | {:>7} |",
        "implementation", "worst lat [cyc]", "budget"
    ));
    out.push(format!("|{}|", "-".repeat(59)));
    for (label, style) in [
        ("synthesized", None),
        ("manual-style baseline", Some(ImplStyle::TwoLevel)),
    ] {
        let graphs: Option<Vec<_>> = style.map(|s| {
            net.cfsms()
                .iter()
                .map(|m| {
                    polis_core::synthesize(
                        m,
                        &SynthesisOptions {
                            style: s,
                            ..SynthesisOptions::default()
                        },
                    )
                    .graph
                })
                .collect()
        });
        let mut sim = match graphs {
            Some(g) => Simulator::with_graphs(&net, g, RtosConfig::default()),
            None => Simulator::build(&net, RtosConfig::default()),
        };
        sim.run(&stim);
        let lat = sim
            .worst_latency(&stim, "acc_sample", "acc_f")
            .expect("filter responds");
        out.push(format!(
            "| {:<28} | {:>16} | {:>7} |",
            label,
            lat,
            if lat <= budget { "MET" } else { "MISSED" }
        ));
    }

    out.push("\nshape checks:".to_owned());
    out.extend(checks([
        (
            "synthesized (buffer-all) uses more RAM than the manual-style baseline",
            rams[0] > rams[2],
        ),
        (
            "write-before-read analysis recovers RAM (paper's future work)",
            rams[1] < rams[0],
        ),
        (
            "synthesized ROM is competitive with the unshared hand-style baseline",
            roms[0] <= roms[2] * 2,
        ),
    ]));
    out
}
