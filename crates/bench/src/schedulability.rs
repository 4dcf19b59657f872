//! **Step 4 (Section I-H / IV-A)** — scheduling the CFSMs against timing
//! constraints with classical real-time theory.
//!
//! "Our synthesis procedure, in addition, provides execution time estimates
//! that can be used either by a user or by an automatic RTOS generator to
//! devise a scheduling policy that is guaranteed to meet the timing
//! constraints." We feed the estimator's worst-case reaction cycles into
//! Liu–Layland utilization and exact response-time analysis, sweeping the
//! sensor event rates, and cross-check a verdict by co-simulation.

use crate::verdict;
use polis_core::{synthesize_network_staged, workloads, SynthesisOptions};
use polis_rtos::{
    rate_monotonic, rate_monotonic_nonpreemptive, RtosConfig, SchedulingPolicy, Simulator,
    Stimulus, TaskModel,
};

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let net = workloads::dashboard();
    let opts = SynthesisOptions::default();
    let (synth, _) = synthesize_network_staged(&net, &opts, &RtosConfig::default(), 1)
        .expect("validated CFSMs synthesize");
    let results = synth.machines;
    let overhead = RtosConfig::default().overhead;
    // Per reaction the RTOS charges dispatch, and each triggering event
    // costs one ISR; fold both into the task WCETs.
    let dispatch = overhead.dispatch + overhead.isr;

    // Triggering rates: pulse counters see fast sensor events, conversion
    // stages run once per timebase window.
    let base_period = |name: &str, pulse: u64, window: u64| -> u64 {
        match name {
            "frc" | "rpc" => pulse,
            _ => window,
        }
    };

    out.push("Step 4: rate-monotonic schedulability of the dashboard (Mcu8)\n".to_owned());
    out.push(format!(
        "| {:>12} | {:>12} | {:>6} | {:>8} | {:>12} |",
        "pulse period", "window", "util", "LL test", "RTA verdict"
    ));
    out.push(format!("|{}|", "-".repeat(64)));
    let mut verdicts = Vec::new();
    for (pulse, window) in [
        (4_000u64, 40_000u64),
        (1_000, 10_000),
        (400, 4_000),
        (250, 2_500),
    ] {
        let tasks: Vec<TaskModel> = net
            .cfsms()
            .iter()
            .zip(&results)
            .map(|(m, r)| {
                TaskModel::new(
                    m.name(),
                    r.measured.max_cycles + dispatch,
                    base_period(m.name(), pulse, window),
                )
            })
            .collect();
        let pre = rate_monotonic(&tasks);
        let a = rate_monotonic_nonpreemptive(&tasks);
        out.push(format!(
            "| {:>12} | {:>12} | {:>5.1}% | {:>8} | {:>12} |",
            pulse,
            window,
            a.utilization * 100.0,
            if pre.passes_utilization_test {
                "pass"
            } else {
                "beyond"
            },
            if a.schedulable {
                "SCHEDULABLE"
            } else {
                "MISSES"
            }
        ));
        verdicts.push((pulse, window, a));
    }

    // Cross-check the fastest *schedulable* configuration by simulation:
    // every pulse must be processed without one-place-buffer overwrites.
    let (pulse, window, _) = verdicts
        .iter()
        .filter(|(_, _, a)| a.schedulable)
        .min_by_key(|(p, _, _)| *p)
        .expect("some configuration is schedulable");
    let mut stim = Vec::new();
    for i in 0..200u64 {
        stim.push(Stimulus::pure(i * pulse, "wheel_pulse"));
        stim.push(Stimulus::pure(i * pulse + pulse / 2, "eng_pulse"));
    }
    for i in 1..=20u64 {
        stim.push(Stimulus::pure(i * window, "timebase"));
    }
    // Simulate under the analysis' assumptions: rate-monotonic static
    // priorities (shortest period = most urgent), reactions atomic.
    let mut periods: Vec<(usize, u64)> = net
        .cfsms()
        .iter()
        .enumerate()
        .map(|(i, m)| (i, base_period(m.name(), *pulse, *window)))
        .collect();
    periods.sort_by_key(|&(_, p)| p);
    let mut priorities = vec![0u32; net.cfsms().len()];
    for (rank, &(i, _)) in periods.iter().enumerate() {
        priorities[i] = rank as u32;
    }
    let config = RtosConfig {
        policy: SchedulingPolicy::StaticPriority { priorities },
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&net, config);
    sim.run(&stim);
    let lost: u64 = sim.stats().overwritten.iter().sum();
    out.push(format!(
        "\nsimulation at pulse={pulse}, window={window}: {} reactions, {} events lost",
        sim.stats().reactions.iter().sum::<u64>(),
        lost
    ));
    out.push(format!(
        "shape check (RTA-schedulable rate loses no events in simulation): {}",
        verdict(lost == 0)
    ));
    out
}
