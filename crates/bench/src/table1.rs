//! **Table I** — Results of the cost/performance estimation procedure.
//!
//! For each CFSM of the dashboard controller: the parameter-based estimate
//! of code size and maximum clock cycles per transition (Section III-C)
//! against the exact measurement obtained by analyzing the assembled
//! object code, on the 68HC11-like `Mcu8` target. The paper reports close
//! agreement; the %err columns quantify ours.

use crate::{pct_err, verdict};
use polis_core::{synthesize_network_staged, workloads, SynthesisOptions};
use polis_rtos::RtosConfig;

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let net = workloads::dashboard();
    let opts = SynthesisOptions::default();
    let (synth, _) = synthesize_network_staged(&net, &opts, &RtosConfig::default(), 1)
        .expect("validated CFSMs synthesize");
    let results = synth.machines;

    out.push("Table I: estimated vs measured cost (dashboard, Mcu8 target)\n".to_owned());
    out.push(format!(
        "| {:<10} | {:>8} | {:>8} | {:>6} | {:>9} | {:>9} | {:>6} |",
        "CFSM", "est[B]", "meas[B]", "err%", "est[cyc]", "meas[cyc]", "err%"
    ));
    out.push(
        "|------------|----------|----------|--------|-----------|-----------|--------|".to_owned(),
    );
    let mut worst_size = 0.0f64;
    let mut worst_time = 0.0f64;
    for (m, r) in net.cfsms().iter().zip(&results) {
        let es = pct_err(r.estimate.size_bytes, r.measured.size_bytes);
        let et = pct_err(r.estimate.max_cycles, r.measured.max_cycles);
        worst_size = worst_size.max(es.abs());
        worst_time = worst_time.max(et.abs());
        out.push(format!(
            "| {:<10} | {:>8} | {:>8} | {:>+5.1}% | {:>9} | {:>9} | {:>+5.1}% |",
            m.name(),
            r.estimate.size_bytes,
            r.measured.size_bytes,
            es,
            r.estimate.max_cycles,
            r.measured.max_cycles,
            et
        ));
    }
    let tot_est: u64 = results.iter().map(|r| r.estimate.size_bytes).sum();
    let tot_meas: u64 = results.iter().map(|r| r.measured.size_bytes).sum();
    out.push(format!(
        "| {:<10} | {:>8} | {:>8} | {:>+5.1}% | {:>9} | {:>9} | {:>6} |",
        "TOTAL",
        tot_est,
        tot_meas,
        pct_err(tot_est, tot_meas),
        "—",
        "—",
        "—"
    ));
    out.push(format!(
        "\nworst-case estimation error: size {worst_size:.1}%, max cycles {worst_time:.1}%"
    ));
    out.push(format!(
        "shape check (paper: estimates track measurement closely): {}",
        verdict(worst_size < 25.0 && worst_time < 25.0)
    ));
    out
}
