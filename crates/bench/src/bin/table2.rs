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

use polis_cfsm::OrderScheme;
use polis_core::{synthesize_cfsm, workloads, ImplStyle, SynthCtx, SynthesisOptions};
use polis_estimate::calibrate;

fn main() {
    let net = workloads::dashboard();
    let params = calibrate(polis_vm::Profile::Mcu8);

    let variants: [(&str, SynthesisOptions); 4] = [
        (
            "naive",
            SynthesisOptions {
                scheme: OrderScheme::Natural,
                ..SynthesisOptions::default()
            },
        ),
        (
            "after-inputs",
            SynthesisOptions {
                scheme: OrderScheme::OutputsAfterAllInputs,
                ..SynthesisOptions::default()
            },
        ),
        (
            "after-support",
            SynthesisOptions {
                scheme: OrderScheme::OutputsAfterSupport,
                ..SynthesisOptions::default()
            },
        ),
        (
            "two-level",
            SynthesisOptions {
                style: ImplStyle::TwoLevel,
                ..SynthesisOptions::default()
            },
        ),
    ];

    let mut ctxs: Vec<SynthCtx> = variants
        .iter()
        .map(|(_, opts)| SynthCtx::new(opts, &params))
        .collect();
    println!("Table II: code size (bytes, Mcu8) under different orderings\n");
    println!(
        "| {:<10} | {:>8} | {:>12} | {:>13} | {:>9} |",
        "CFSM", "naive", "after-inputs", "after-support", "two-level"
    );
    println!("|{}|", "-".repeat(66));
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
        println!(
            "| {:<10} | {:>8} | {:>12} | {:>13} | {:>9} |",
            m.name(),
            sizes[0],
            sizes[1],
            sizes[2],
            sizes[3]
        );
    }
    println!(
        "| {:<10} | {:>8} | {:>12} | {:>13} | {:>9} |",
        "TOTAL", totals[0], totals[1], totals[2], totals[3]
    );

    println!("\nworst-case reaction cycles per variant: {max_spread:?}");
    println!("shape checks:");
    let check =
        |label: &str, ok: bool| println!("  {label}: {}", if ok { "HOLDS" } else { "VIOLATED" });
    check("sifted (after-support) <= naive", totals[2] <= totals[0]);
    check(
        "after-support <= after-inputs (better sharing)",
        totals[2] <= totals[1],
    );
    check(
        "optimized decision graph <= two-level jump",
        totals[2] <= totals[3],
    );
    check("timing approximately unchanged across orderings (<=15%)", {
        let mx = max_spread[..3].iter().max().copied().unwrap_or(0) as f64;
        let mn = max_spread[..3].iter().min().copied().unwrap_or(0) as f64;
        (mx - mn) / mx.max(1.0) <= 0.15
    });
}
