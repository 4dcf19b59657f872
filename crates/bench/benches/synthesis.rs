//! Benchmarks for the synthesis pipeline: s-graph construction,
//! instruction selection, assembly, and the end-to-end flow per dashboard
//! module. Uses the self-contained harness in `polis_bench::bench`.

use polis_bench::bench;
use polis_cfsm::{OrderScheme, ReactiveFn};
use polis_core::{synthesize_cfsm, workloads, SynthCtx, SynthesisOptions};
use polis_estimate::calibrate;
use polis_sgraph::build;
use polis_vm::{assemble, compile, BufferPolicy, Profile};

fn main() {
    let net = workloads::dashboard();
    let odometer = net.cfsms()[net.machine_index("odometer").unwrap()].clone();
    bench("sgraph/build_odometer", || {
        let mut rf = ReactiveFn::build(&odometer);
        rf.sift(OrderScheme::OutputsAfterSupport);
        build(&rf).expect("builds")
    });

    let shock = workloads::shock_absorber();
    let mode = shock.cfsms()[shock.machine_index("mode").unwrap()].clone();
    let mut rf = ReactiveFn::build(&mode);
    rf.sift(OrderScheme::OutputsAfterSupport);
    let g = build(&rf).expect("builds");
    bench("vm/compile_mode", || compile(&mode, &g, BufferPolicy::All));
    let prog = compile(&mode, &g, BufferPolicy::All);
    bench("vm/assemble_mode_mcu8", || assemble(&prog, Profile::Mcu8));

    let params = calibrate(Profile::Mcu8);
    let opts = SynthesisOptions::default();
    bench("pipeline/dashboard_all_modules", || {
        let mut ctx = SynthCtx::new(&opts, &params);
        net.cfsms()
            .iter()
            .map(|m| {
                synthesize_cfsm(&mut ctx, m)
                    .expect("validated CFSMs synthesize")
                    .measured
                    .size_bytes
            })
            .sum::<u64>()
    });
}
