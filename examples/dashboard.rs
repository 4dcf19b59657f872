//! The dashboard controller (Section V-A): synthesize all eight CFSMs,
//! print the per-module cost table, verify the network symbolically
//! (reachability, lost events, dead transitions, deadlock), and
//! co-simulate the whole network through its generated RTOS against a
//! sensor stimulus.
//!
//! Run with `cargo run --example dashboard`.

use polis::core::{synthesize_network_staged, workloads, SynthesisOptions};
use polis::rtos::{RtosConfig, Simulator, Stimulus};
use polis::verify::{verify_network, VerifyOptions};

fn main() {
    let net = workloads::dashboard();
    println!(
        "dashboard network: {} CFSMs, primary inputs {:?}",
        net.cfsms().len(),
        net.primary_inputs()
    );

    // Synthesize everything on the 68HC11-like target.
    let (result, _) = synthesize_network_staged(
        &net,
        &SynthesisOptions::default(),
        &RtosConfig::default(),
        1,
    )
    .expect("the dashboard synthesizes");
    println!(
        "\n{:<12} {:>8} {:>8} {:>10} {:>10}",
        "module", "ROM[B]", "RAM[B]", "min[cyc]", "max[cyc]"
    );
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        println!(
            "{:<12} {:>8} {:>8} {:>10} {:>10}",
            m.name(),
            r.measured.size_bytes,
            r.measured.ram_bytes,
            r.measured.min_cycles,
            r.measured.max_cycles
        );
    }
    println!(
        "total ROM {} B (incl. RTOS), total RAM {} B, synthesis {:?}",
        result.total_rom, result.total_ram, result.synthesis_time
    );

    // Symbolic reachability over the full CFSM product: which one-place
    // buffers can overwrite, which transitions can never fire, whether a
    // pending event can get stuck.
    let report = verify_network(&net, &VerifyOptions::default()).unwrap();
    println!("\n--- symbolic verification ---");
    println!("{}", report.render());

    // Drive the sensor chain: a burst of wheel/engine pulses, a timebase
    // window tick, and a fuel sample.
    let mut stim = Vec::new();
    for i in 0..20u64 {
        stim.push(Stimulus::pure(i * 1_500, "wheel_pulse"));
    }
    for i in 0..30u64 {
        stim.push(Stimulus::pure(700 + i * 1_000, "eng_pulse"));
    }
    stim.push(Stimulus::pure(120_000, "timebase"));
    stim.push(Stimulus::valued(140_000, "fuel_sample", 40));

    let mut sim = Simulator::build(&net, RtosConfig::default());
    sim.run(&stim);

    println!("\n--- co-simulation trace (gauge outputs) ---");
    for t in sim.trace() {
        if matches!(
            t.signal.as_str(),
            "speed" | "rpm" | "duty_speed" | "duty_fuel" | "fuel_level" | "odo_pulse" | "low_fuel"
        ) {
            match t.value {
                Some(v) => println!(
                    "t={:>8}  {:<12} = {:>4}  (by {})",
                    t.time, t.signal, v, t.by
                ),
                None => println!("t={:>8}  {:<12}         (by {})", t.time, t.signal, t.by),
            }
        }
    }
    let stats = sim.stats();
    println!(
        "\n{} cycles total, {} in RTOS services; reactions per task: {:?}",
        stats.total_cycles, stats.rtos_cycles, stats.reactions
    );
}
