//! The shock absorber controller redesign (Section V-B): full synthesis
//! including the RTOS, ROM/RAM accounting with and without the
//! write-before-read buffering optimization, and an I/O latency check.
//!
//! Run with `cargo run --example shock_absorber`.

use polis::core::{synthesize_network_staged, workloads, SynthesisOptions};
use polis::rtos::{RtosConfig, Simulator, Stimulus};
use polis::sgraph::BufferPolicy;

fn main() {
    let net = workloads::shock_absorber();
    println!("shock absorber network: {} CFSMs", net.cfsms().len());

    // The paper's implementation copies every variable on entry; the
    // announced data-flow optimization buffers only write-before-read
    // hazards. Compare both.
    for (label, policy) in [
        ("buffer-all (paper)", BufferPolicy::All),
        ("write-before-read only", BufferPolicy::Minimal),
    ] {
        let opts = SynthesisOptions {
            buffering: policy,
            ..SynthesisOptions::default()
        };
        let (r, _) = synthesize_network_staged(&net, &opts, &RtosConfig::default(), 1)
            .expect("the shock absorber synthesizes");
        println!(
            "{label:<24} ROM {:>6} B   RAM {:>5} B   (incl. generated RTOS)",
            r.total_rom, r.total_ram
        );
    }

    // Latency: acceleration sample -> filtered output, and mode command ->
    // valve refresh, under a realistic stimulus.
    let mut stim = Vec::new();
    for i in 0..10u64 {
        stim.push(Stimulus::valued(
            i * 50_000,
            "acc_sample",
            if i % 2 == 0 { 30 } else { -30 },
        ));
    }
    stim.push(Stimulus::valued(20_000, "speed_sample", 110));
    stim.push(Stimulus::pure(260_000, "window"));
    for i in 0..4u64 {
        stim.push(Stimulus::pure(300_000 + i * 100_000, "pwm_tick"));
    }
    let mut sim = Simulator::build(&net, RtosConfig::default());
    sim.run(&stim);

    println!("\n--- trace ---");
    for t in sim.trace() {
        match t.value {
            Some(v) => println!(
                "t={:>8}  {:<10} = {:>4}  (by {})",
                t.time, t.signal, v, t.by
            ),
            None => println!("t={:>8}  {:<10}         (by {})", t.time, t.signal, t.by),
        }
    }

    let lat = sim
        .worst_latency(&stim, "acc_sample", "acc_f")
        .expect("filter responded");
    // The paper's specification allowed a 12 unit I/O latency; at a 1 MHz
    // 68HC11-class clock a 12 ms budget is 12_000 cycles.
    let budget = 12_000;
    println!(
        "\nworst acc_sample -> acc_f latency: {lat} cycles (budget {budget}): {}",
        if lat <= budget { "MET" } else { "MISSED" }
    );
}
