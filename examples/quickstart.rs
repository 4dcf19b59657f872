//! Quickstart: the paper's Fig. 1 `simple` module, from its source text
//! (`examples/specs/simple.pol`) to synthesized C, object code, and cost
//! estimates.
//!
//! Run with `cargo run --example quickstart`.

use polis::cfsm::{OrderScheme, ReactiveFn};
use polis::codegen::{emit_c, CodegenOptions};
use polis::core::{synthesize, SynthesisOptions};
use polis::lang::parse_module;
use polis::sgraph::build;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The reactive behaviour of Fig. 1: await c; if a == ?c then
    // { a := 0; emit y } else a := a + 1.
    let simple = parse_module(include_str!("specs/simple.pol"))?;

    // Step 1: the characteristic function χ of the reactive function, as a
    // BDD, with the variable order optimized by constrained sifting.
    let mut rf = ReactiveFn::build(&simple);
    let before = rf.size();
    let after = rf.sift(OrderScheme::OutputsAfterSupport);
    println!("characteristic function: {before} BDD nodes, {after} after sifting");

    // Step 2: the s-graph mirrors the BDD (Theorem 1).
    let graph = build(&rf)?;
    println!(
        "s-graph: {} TEST + {} ASSIGN vertices, depth {}",
        graph.num_tests(),
        graph.num_assigns(),
        graph.depth()
    );
    println!("\n--- s-graph (DOT) ---\n{}", graph.to_dot());

    // Step 3: C code in the paper's goto style.
    let c = emit_c(&simple, &graph, &CodegenOptions::default());
    println!("--- generated C ---\n{c}");

    // Steps 2+5 measured: parameter-based estimation vs. exact
    // object-code measurement on the 68HC11-like virtual target.
    let result = synthesize(&simple, &SynthesisOptions::default());
    println!("--- costs (Mcu8 target) ---");
    println!(
        "estimated: {} bytes, {}..{} cycles",
        result.estimate.size_bytes, result.estimate.min_cycles, result.estimate.max_cycles
    );
    println!(
        "measured : {} bytes, {}..{} cycles",
        result.measured.size_bytes, result.measured.min_cycles, result.measured.max_cycles
    );
    Ok(())
}
