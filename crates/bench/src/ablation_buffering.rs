//! **Ablation (Section V-B, future work)** — the write-before-read
//! data-flow analysis that removes unnecessary entry copies.
//!
//! Per machine of the shock absorber and dashboard: ROM, RAM, and
//! worst-case cycles with the paper's buffer-all policy versus the
//! analyzed minimal-buffering policy.

use crate::verdict;
use polis_core::{synthesize_cfsm, workloads, SynthCtx, SynthesisOptions};
use polis_estimate::calibrate;
use polis_sgraph::BufferPolicy;
use polis_vm::Profile;

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let params = calibrate(Profile::Mcu8);
    let all = SynthesisOptions::default();
    let min = SynthesisOptions {
        buffering: BufferPolicy::Minimal,
        ..SynthesisOptions::default()
    };
    let mut all_ctx = SynthCtx::new(&all, &params);
    let mut min_ctx = SynthCtx::new(&min, &params);

    out.push("Ablation: entry-copy buffering (Mcu8)\n".to_owned());
    out.push(format!(
        "| {:<12} | {:>7} {:>7} {:>9} | {:>7} {:>7} {:>9} |",
        "CFSM", "ROM[B]", "RAM[B]", "max[cyc]", "ROM'[B]", "RAM'[B]", "max'[cyc]"
    ));
    out.push(format!("|{}|", "-".repeat(72)));

    let mut rom_saved = 0i64;
    let mut ram_saved = 0i64;
    let mut cyc_saved = 0i64;
    for net in [workloads::shock_absorber(), workloads::dashboard()] {
        for m in net.cfsms() {
            let a = synthesize_cfsm(&mut all_ctx, m).expect("validated CFSMs synthesize");
            let b = synthesize_cfsm(&mut min_ctx, m).expect("validated CFSMs synthesize");
            rom_saved += a.measured.size_bytes as i64 - b.measured.size_bytes as i64;
            ram_saved += a.measured.ram_bytes as i64 - b.measured.ram_bytes as i64;
            cyc_saved += a.measured.max_cycles as i64 - b.measured.max_cycles as i64;
            out.push(format!(
                "| {:<12} | {:>7} {:>7} {:>9} | {:>7} {:>7} {:>9} |",
                m.name(),
                a.measured.size_bytes,
                a.measured.ram_bytes,
                a.measured.max_cycles,
                b.measured.size_bytes,
                b.measured.ram_bytes,
                b.measured.max_cycles
            ));
        }
    }
    out.push(format!(
        "\ntotal saved by the analysis: ROM {rom_saved} B, RAM {ram_saved} B, worst-case cycles {cyc_saved}"
    ));
    out.push(format!(
        "shape check (paper: buffering reduction recovers ROM, RAM and CPU): {}",
        verdict(rom_saved >= 0 && ram_saved > 0 && cyc_saved >= 0)
    ));
    out
}
