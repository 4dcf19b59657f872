//! **Ablation (Section III-B3d)** — TEST-node collapsing.
//!
//! The paper: "In a series of experiments ... we never observed an
//! improvement in the final running time or size of the generated code. As
//! a result, we do not currently use TEST node collapsing." This harness
//! reruns that experiment over the dashboard and seat-belt machines.

use crate::verdict;
use polis_core::{synthesize_cfsm, workloads, SynthCtx, SynthesisOptions};
use polis_estimate::calibrate;
use polis_vm::Profile;

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let params = calibrate(Profile::Mcu8);
    let plain = SynthesisOptions::default();
    let collapsed = SynthesisOptions {
        collapse: true,
        ..SynthesisOptions::default()
    };
    let mut plain_ctx = SynthCtx::new(&plain, &params);
    let mut collapsed_ctx = SynthCtx::new(&collapsed, &params);

    out.push("Ablation: TEST-node collapsing (Mcu8)\n".to_owned());
    out.push(format!(
        "| {:<12} | {:>8} {:>9} | {:>8} {:>9} | {:>8} |",
        "CFSM", "size[B]", "max[cyc]", "size'[B]", "max'[cyc]", "verdict"
    ));
    out.push(format!("|{}|", "-".repeat(68)));

    let mut improvements = 0usize;
    let mut total = 0usize;
    for net in [workloads::dashboard(), workloads::seat_belt()] {
        for m in net.cfsms() {
            let a = synthesize_cfsm(&mut plain_ctx, m).expect("validated CFSMs synthesize");
            let b = synthesize_cfsm(&mut collapsed_ctx, m).expect("validated CFSMs synthesize");
            let better = b.measured.size_bytes < a.measured.size_bytes
                && b.measured.max_cycles < a.measured.max_cycles;
            improvements += usize::from(better);
            total += 1;
            out.push(format!(
                "| {:<12} | {:>8} {:>9} | {:>8} {:>9} | {:>8} |",
                m.name(),
                a.measured.size_bytes,
                a.measured.max_cycles,
                b.measured.size_bytes,
                b.measured.max_cycles,
                if better { "better" } else { "no win" }
            ));
        }
    }
    out.push(format!(
        "\ncollapsing improved both size and time on {improvements}/{total} machines"
    ));
    out.push(format!(
        "shape check (paper: no consistent improvement): {}",
        verdict(improvements * 2 <= total)
    ));
    out
}
