//! **False-path analysis demo (Section III-C)** — worst-case execution
//! bounds with and without event/test incompatibility relations.
//!
//! "False paths can be determined with a good degree of accuracy from the
//! structure of the CFSM network, e.g., by computing event incompatibility
//! relations." For each machine with interval tests (comparisons of one
//! variable against constants), we derive the incompatible test-outcome
//! pairs automatically and recompute the PERT bound excluding the paths
//! they kill.

use crate::verdict;
use polis_cfsm::{OrderScheme, ReactiveFn};
use polis_core::workloads;
use polis_estimate::{calibrate, derive_incompatibilities, estimate, max_cycles_false_path_aware};
use polis_expr::{Expr, Type, Value};
use polis_sgraph::{build, BufferPolicy};
use polis_vm::Profile;

/// A controller whose specification contains a dead guard combination
/// (both speed bands at once) guarding its most expensive action — the
/// kind of false path incompatibility analysis exists to kill.
fn overlapping_bands() -> polis_cfsm::Cfsm {
    let mut b = polis_cfsm::Cfsm::builder("bands");
    b.input_valued("x", Type::uint(8));
    b.output_pure("hi");
    b.output_pure("lo");
    b.state_var("acc", Type::uint(8), Value::Int(0));
    let s = b.ctrl_state("s");
    let t_hi = b.test("hi_band", Expr::var("x_value").ge(Expr::int(90)));
    let t_lo = b.test("lo_band", Expr::var("x_value").lt(Expr::int(40)));
    b.transition(s, s)
        .when_present("x")
        .when_test(t_hi)
        .when_test(t_lo) // dead: the bands cannot overlap
        .emit("hi")
        .emit("lo")
        .assign(
            "acc",
            Expr::var("acc").mul(Expr::var("acc")).div(Expr::int(3)),
        )
        .done();
    b.transition(s, s)
        .when_present("x")
        .when_test(t_hi)
        .emit("hi")
        .assign("acc", Expr::var("acc").add(Expr::int(2)))
        .done();
    b.transition(s, s)
        .when_present("x")
        .when_test(t_lo)
        .emit("lo")
        .assign("acc", Expr::var("acc").add(Expr::int(1)))
        .done();
    b.build().expect("bands is valid")
}

pub fn report() -> Vec<String> {
    let mut out = Vec::new();
    let params = calibrate(Profile::Mcu8);
    out.push("False-path-aware worst-case bounds (Mcu8)\n".to_owned());
    out.push(format!(
        "| {:<12} | {:>7} | {:>10} | {:>10} | {:>8} |",
        "CFSM", "incomp.", "plain max", "aware max", "tighter"
    ));
    out.push(format!("|{}|", "-".repeat(60)));
    let mut any_tighter = false;
    for machines in [
        workloads::shock_absorber().cfsms().to_vec(),
        workloads::dashboard().cfsms().to_vec(),
        vec![overlapping_bands()],
    ] {
        for m in &machines {
            let incs = derive_incompatibilities(m);
            if incs.is_empty() {
                continue;
            }
            let mut rf = ReactiveFn::build(m);
            rf.sift(OrderScheme::OutputsAfterSupport);
            let g = build(&rf).expect("builds");
            let plain = estimate(m, &g, &params, BufferPolicy::All).max_cycles;
            let aware = max_cycles_false_path_aware(m, &g, &params, &incs);
            let tighter = aware < plain;
            any_tighter |= tighter;
            out.push(format!(
                "| {:<12} | {:>7} | {:>10} | {:>10} | {:>8} |",
                m.name(),
                incs.len(),
                plain,
                aware,
                if tighter { "yes" } else { "no" }
            ));
        }
    }
    out.push(
        "\nNote: on the BDD-synthesized workload machines the bounds rarely move —\n\
         the priority-resolved characteristic function already excludes most\n\
         structurally false paths. The `bands` row carries a dead guard\n\
         combination in its *specification*, which only the incompatibility\n\
         relations can remove."
            .to_owned(),
    );
    out.push(format!(
        "shape check (analysis tightens at least the dead-combination case): {}",
        verdict(any_tighter)
    ));
    out
}
