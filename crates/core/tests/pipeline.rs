//! Tests for the staged, instrumented pipeline: parallel synthesis is
//! byte-identical to sequential, and the trace records every stage with
//! meaningful layer-native counters.

use polis_cfsm::Cfsm;
use polis_core::{
    synthesize_cfsm, synthesize_network_staged, workloads, MetricValue, SynthCtx, SynthTrace,
    SynthesisOptions,
};
use polis_rtos::RtosConfig;

/// One machine through the staged per-CFSM chain, returning its trace.
fn cfsm_trace(cfsm: &Cfsm, opts: &SynthesisOptions) -> SynthTrace {
    let mut ctx = SynthCtx::new(opts);
    synthesize_cfsm(&mut ctx, cfsm).unwrap();
    ctx.into_trace()
}

/// `--jobs N` must not change a single output byte: per-machine synthesis
/// is independent and results are merged in network order.
#[test]
fn parallel_synthesis_is_byte_identical_to_sequential() {
    for net in [workloads::seat_belt(), workloads::shock_absorber()] {
        let opts = SynthesisOptions::default();
        let rtos = RtosConfig::default();
        let (seq, _) = synthesize_network_staged(&net, &opts, &rtos, 1).unwrap();
        let (par, _) = synthesize_network_staged(&net, &opts, &rtos, 4).unwrap();

        assert_eq!(seq.machines.len(), par.machines.len());
        for (a, b) in seq.machines.iter().zip(&par.machines) {
            assert_eq!(a.c_code, b.c_code, "generated C differs under --jobs");
            assert_eq!(a.estimate, b.estimate, "estimate differs under --jobs");
            assert_eq!(a.measured, b.measured, "measurement differs under --jobs");
            assert_eq!(
                a.max_cycles_false_path_aware, b.max_cycles_false_path_aware,
                "false-path analysis differs under --jobs"
            );
        }
        assert_eq!(seq.rtos_c, par.rtos_c);
        assert_eq!(seq.total_rom, par.total_rom);
        assert_eq!(seq.total_ram, par.total_ram);
    }
}

/// Oversubscription (more jobs than machines) is clamped and harmless.
#[test]
fn more_jobs_than_machines_is_fine() {
    let net = workloads::seat_belt();
    let opts = SynthesisOptions::default();
    let rtos = RtosConfig::default();
    let (seq, _) = synthesize_network_staged(&net, &opts, &rtos, 1).unwrap();
    let (par, _) = synthesize_network_staged(&net, &opts, &rtos, 64).unwrap();
    for (a, b) in seq.machines.iter().zip(&par.machines) {
        assert_eq!(a.c_code, b.c_code);
    }
}

/// The parallel trace contains the same stages with the same counters as
/// the sequential trace, in the same (network) order; only wall times may
/// differ.
#[test]
fn parallel_trace_matches_sequential_modulo_wall_time() {
    type TraceShape = Vec<(String, Option<String>, Vec<(String, MetricValue)>)>;
    let net = workloads::shock_absorber();
    let opts = SynthesisOptions::default();
    let rtos = RtosConfig::default();
    let shape = |t: &SynthTrace| -> TraceShape {
        t.records()
            .iter()
            .map(|r| (r.stage.to_owned(), r.machine.clone(), r.counters.clone()))
            .collect()
    };
    let (_, t1) = synthesize_network_staged(&net, &opts, &rtos, 1).unwrap();
    let (_, t4) = synthesize_network_staged(&net, &opts, &rtos, 4).unwrap();
    assert_eq!(shape(&t1), shape(&t4));
}

/// Fig. 1's `simple` module, with collapsing enabled so every decision-
/// graph stage runs: the trace holds each stage exactly once, in pipeline
/// order, with non-zero layer counters.
#[test]
fn trace_records_every_stage_once_for_simple() {
    let opts = SynthesisOptions {
        collapse: true,
        ..SynthesisOptions::default()
    };
    let trace = cfsm_trace(&workloads::simple(), &opts);
    let stages: Vec<&str> = trace.records().iter().map(|r| r.stage).collect();
    assert_eq!(
        stages,
        ["chi", "sift", "sgraph", "collapse", "compile", "emit_c", "estimate", "measure"]
    );
    for r in trace.records() {
        assert_eq!(r.machine.as_deref(), Some("simple"), "stage {}", r.stage);
    }

    let counter = |stage: &str, name: &str| -> u64 {
        let r = trace
            .records()
            .iter()
            .find(|r| r.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        match r.counter(name) {
            Some(MetricValue::Int(v)) => v,
            other => panic!("{stage}.{name}: {other:?}"),
        }
    };
    // BDD layer actually did work.
    assert!(counter("chi", "bdd_nodes") > 0);
    assert!(counter("chi", "mk_calls") > 0);
    assert!(counter("chi", "unique_entries") > 0);
    // Sifting recorded its before/after sizes.
    assert!(counter("sift", "bdd_nodes_before") > 0);
    assert!(counter("sift", "bdd_nodes_after") > 0);
    // Storage-layer counters from the overhauled kernel are present and
    // consistent: the high-water mark bounds the live size on both stages.
    assert!(counter("chi", "peak_live_nodes") >= counter("chi", "bdd_nodes"));
    assert!(counter("sift", "peak_live_nodes") >= counter("sift", "bdd_nodes_after"));
    // The s-graph is non-trivial and collapse kept it consistent.
    assert!(counter("sgraph", "reachable") > 2);
    assert!(counter("sgraph", "tests") > 0);
    assert!(counter("collapse", "nodes_after") <= counter("collapse", "nodes_before"));
    // Emission, estimation, and measurement all produced non-zero results.
    assert!(counter("emit_c", "lines") > 0);
    assert!(counter("estimate", "est_max_cycles") >= counter("estimate", "est_min_cycles"));
    assert!(counter("estimate", "est_max_cycles") > 0);
    assert!(counter("compile", "code_bytes") > 0);
    assert!(counter("measure", "max_cycles") >= counter("measure", "min_cycles"));
    assert!(counter("measure", "max_cycles") > 0);

    // The JSON serialization covers every stage and is non-degenerate.
    let json = trace.to_json();
    for s in [
        "chi", "sift", "sgraph", "collapse", "compile", "emit_c", "estimate", "measure",
    ] {
        assert!(json.contains(&format!("\"stage\": \"{s}\"")), "{s} in JSON");
    }
}

/// Without collapsing, the collapse stage must not appear.
#[test]
fn collapse_stage_only_runs_when_requested() {
    let trace = cfsm_trace(&workloads::simple(), &SynthesisOptions::default());
    assert!(trace.records().iter().all(|r| r.stage != "collapse"));
}
