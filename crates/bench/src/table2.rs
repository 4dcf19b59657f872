//! **Table II** — Effect of different TEST variable orderings on code
//! size (Section V-A / III-B3).
//!
//! Columns per dashboard CFSM, sizes in `Mcu8` bytes:
//!
//! * *naive* — declaration order, no sifting;
//! * *after-inputs* — sifting restricted so all outputs follow all inputs;
//! * *after-support* — sifting with each output after its own support
//!   (the paper's default; better sharing);
//! * *two-level* — the multiway-jump reference implementation.
//!
//! The paper's shape: naive > two-level > sifted decision graphs, with
//! after-support ≤ after-inputs, and timing roughly unchanged across the
//! orderings (only the test order moves).

use crate::checks;
use polis_cfsm::OrderScheme;
use polis_core::{synthesize_cfsm, workloads, ImplStyle, SynthCtx, SynthesisOptions};
use polis_estimate::calibrate;

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let net = workloads::dashboard();
    let params = calibrate(polis_vm::Profile::Mcu8);

    // Columns: naive, after-inputs, after-support, two-level.
    let sifted = |scheme| SynthesisOptions {
        scheme,
        ..SynthesisOptions::default()
    };
    let two_level = SynthesisOptions {
        style: ImplStyle::TwoLevel,
        ..SynthesisOptions::default()
    };
    let variants = [
        sifted(OrderScheme::Natural),
        sifted(OrderScheme::OutputsAfterAllInputs),
        sifted(OrderScheme::OutputsAfterSupport),
        two_level,
    ];
    let mut ctxs = variants.each_ref().map(|opts| SynthCtx::new(opts, &params));
    out.push("Table II: code size (bytes, Mcu8) under different orderings\n".to_owned());
    out.push(format!(
        "| {:<10} | {:>8} | {:>12} | {:>13} | {:>9} |",
        "CFSM", "naive", "after-inputs", "after-support", "two-level"
    ));
    out.push(format!("|{}|", "-".repeat(66)));
    let mut totals = [0u64; 4];
    let mut max_spread = [0u64; 4]; // max cycles per variant, for the timing note
    for m in net.cfsms() {
        let mut sizes = [0u64; 4];
        for (k, ctx) in ctxs.iter_mut().enumerate() {
            let r = synthesize_cfsm(ctx, m).expect("validated CFSMs synthesize");
            sizes[k] = r.measured.size_bytes;
            totals[k] += r.measured.size_bytes;
            max_spread[k] = max_spread[k].max(r.measured.max_cycles);
        }
        out.push(format!(
            "| {:<10} | {:>8} | {:>12} | {:>13} | {:>9} |",
            m.name(),
            sizes[0],
            sizes[1],
            sizes[2],
            sizes[3]
        ));
    }
    out.push(format!(
        "| {:<10} | {:>8} | {:>12} | {:>13} | {:>9} |",
        "TOTAL", totals[0], totals[1], totals[2], totals[3]
    ));

    out.push(format!(
        "\nworst-case reaction cycles per variant: {max_spread:?}"
    ));
    out.push("shape checks:".to_owned());
    let mx = max_spread[..3].iter().max().copied().unwrap_or(0) as f64;
    let mn = max_spread[..3].iter().min().copied().unwrap_or(0) as f64;
    out.extend(checks([
        ("sifted (after-support) <= naive", totals[2] <= totals[0]),
        (
            "after-support <= after-inputs (better sharing)",
            totals[2] <= totals[1],
        ),
        (
            "optimized decision graph <= two-level jump",
            totals[2] <= totals[3],
        ),
        (
            "timing approximately unchanged across orderings (<=15%)",
            (mx - mn) / mx.max(1.0) <= 0.15,
        ),
    ]));
    out
}
