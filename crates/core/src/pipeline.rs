//! The synthesis pipeline as explicit, uniformly instrumented stages.
//!
//! Each step of the five-step procedure (χ/BDD construction, constrained
//! sifting, s-graph build, TEST collapsing, instruction selection +
//! assembly, C emission, cost estimation, exact measurement, RTOS
//! generation) is a stage: a named function from an input to an output,
//! run through [`SynthCtx::run_stage`], which records wall time and the
//! owning layer's native counters into a [`SynthTrace`].
//!
//! [`synthesize_cfsm`] chains the per-machine stages for the selected
//! [`ImplStyle`], and [`synthesize_graph`] runs the ones up to the
//! s-graph; [`synthesize_network_staged`] fans the per-machine
//! pipeline out across `jobs` scoped worker threads — each worker owns
//! its own BDD manager (one per [`ReactiveFn`]), and results are merged
//! in network (input) order, so parallel output is byte-identical to the
//! sequential run. [`verify_staged`] is the one network verification
//! stage: the synthesis driver runs it after the machines, and
//! verify-only callers run it alone.

use crate::trace::{MetricValue, StageRecord, SynthTrace};
use crate::{
    CfsmSynthesis, ImplStyle, Measured, NetworkSynthesis, SynthesisOptions, RTOS_RAM_PER_TASK,
    RTOS_ROM_BYTES,
};
use polis_bdd::BddStats;
use polis_cfsm::{Cfsm, Network, ReactiveFn};
use polis_codegen::{emit_c, measure_c, two_level_sgraph, CodegenOptions};
use polis_estimate::{
    calibrate, derive_incompatibilities, estimate, max_cycles_false_path_aware, Estimate, Incompat,
};
use polis_lang::Property;
use polis_rtos::{emit_rtos_c, RtosConfig};
use polis_sgraph::{build, collapse, ite_chain, BuildError, SGraph};
use polis_verify::{PropReport, Verifier, VerifyError, VerifyOptions, VerifyReport};
use polis_vm::{analyze, assemble, compile, ObjectCode, VmProgram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A failure inside the staged pipeline.
#[derive(Debug)]
pub enum SynthError {
    /// The s-graph builder rejected the reactive function.
    SgraphBuild(BuildError),
    /// Symbolic network verification aborted (node-budget overflow).
    Verify(VerifyError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::SgraphBuild(e) => write!(f, "s-graph build failed: {e:?}"),
            SynthError::Verify(e) => write!(f, "network verification failed: {e}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// A staged-pipeline failure carrying everything recorded before the
/// abort, so callers can flush a partial trace instead of losing the
/// run's instrumentation.
#[derive(Debug)]
pub struct SynthFailure {
    /// What went wrong.
    pub error: SynthError,
    /// Every stage record completed before (and including) the failing
    /// stage.
    pub trace: SynthTrace,
}

impl std::fmt::Display for SynthFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for SynthFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Per-run synthesis context: configuration plus the growing trace.
///
/// One `SynthCtx` is threaded through every stage of one machine's
/// synthesis (and one more through the network-level stages). Under
/// `--jobs N` each worker thread owns its own context; traces are merged
/// in network order afterwards.
pub struct SynthCtx<'a> {
    /// Pipeline configuration.
    pub opts: &'a SynthesisOptions,
    machine: Option<String>,
    trace: SynthTrace,
    open: Vec<(String, MetricValue)>,
}

impl<'a> SynthCtx<'a> {
    /// Creates a context with an empty trace. The stages that need
    /// target cost parameters calibrate `opts.profile` themselves.
    pub fn new(opts: &'a SynthesisOptions) -> SynthCtx<'a> {
        SynthCtx {
            opts,
            machine: None,
            trace: SynthTrace::new(),
            open: Vec::new(),
        }
    }

    /// Attributes subsequent stage records to `name` (a CFSM), or to the
    /// network level when `None`.
    pub fn set_machine(&mut self, name: Option<&str>) {
        self.machine = name.map(str::to_owned);
    }

    /// Reports an integral counter for the stage currently running.
    pub fn count(&mut self, name: &str, value: u64) {
        self.open.push((name.to_owned(), MetricValue::Int(value)));
    }

    /// Reports a ratio/rate counter for the stage currently running.
    pub fn ratio(&mut self, name: &str, value: f64) {
        self.open.push((name.to_owned(), MetricValue::Float(value)));
    }

    /// Runs one stage, named `name` in the trace: times `run` on `input`,
    /// collects the counters it reports through [`SynthCtx::count`] /
    /// [`SynthCtx::ratio`], appends the record, and returns the output.
    pub fn run_stage<I, O>(
        &mut self,
        name: &'static str,
        run: impl FnOnce(&mut Self, I) -> Result<O, SynthError>,
        input: I,
    ) -> Result<O, SynthError> {
        let start = Instant::now();
        let out = run(self, input);
        let wall = start.elapsed();
        let counters = std::mem::take(&mut self.open);
        self.trace.push(StageRecord {
            stage: name,
            machine: self.machine.clone(),
            wall,
            counters,
        });
        out
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &SynthTrace {
        &self.trace
    }

    /// Consumes the context, yielding its trace.
    pub fn into_trace(self) -> SynthTrace {
        self.trace
    }
}

// ---------------------------------------------------------------------
// Per-CFSM stages.
// ---------------------------------------------------------------------

fn stage_chi(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm) -> Result<ReactiveFn, SynthError> {
    let rf = ReactiveFn::build(cfsm);
    let st = rf.bdd().stats();
    ctx.count("bdd_nodes", rf.size() as u64);
    ctx.count("mk_calls", st.mk_calls);
    ctx.count("unique_entries", st.unique_entries);
    ctx.count("cache_lookups", st.cache_lookups);
    ctx.count("cache_hits", st.cache_hits);
    ctx.ratio("cache_hit_rate", st.hit_rate());
    ctx.count("cache_evictions", st.cache_evictions);
    ctx.count("peak_live_nodes", st.peak_live_nodes);
    ctx.count("collections", st.collections);
    ctx.ratio("unique_probe_len", st.avg_probe_len());
    Ok(rf)
}

/// Records the sift's own counters: deltas over the stage, and the peak
/// reached during it (the `chi` record holds the peak before it, so the
/// larger of the two is the manager's).
fn stage_sift(ctx: &mut SynthCtx<'_>, mut rf: ReactiveFn) -> Result<ReactiveFn, SynthError> {
    let nodes_before = rf.size() as u64;
    rf.bdd_mut().reset_peak_live_nodes();
    let before = rf.bdd().stats();
    rf.sift_with_passes(ctx.opts.scheme, ctx.opts.sift_passes);
    let st = rf.bdd().stats();
    let cache = BddStats {
        cache_lookups: st.cache_lookups - before.cache_lookups,
        cache_hits: st.cache_hits - before.cache_hits,
        ..BddStats::default()
    };
    ctx.count("bdd_nodes_before", nodes_before);
    ctx.count("bdd_nodes_after", rf.size() as u64);
    ctx.count("swaps", st.swap_count - before.swap_count);
    ctx.count("swap_rewrites", st.swap_rewrites - before.swap_rewrites);
    ctx.count("restores", st.sift_restores - before.sift_restores);
    ctx.count("cache_lookups", cache.cache_lookups);
    ctx.ratio("cache_hit_rate", cache.hit_rate());
    ctx.count(
        "reclaimed_nodes",
        st.reclaimed_nodes - before.reclaimed_nodes,
    );
    ctx.count("peak_live_nodes", st.peak_live_nodes);
    ctx.count("memo_hits", st.memo_hits - before.memo_hits);
    Ok(rf)
}

fn record_sgraph(ctx: &mut SynthCtx<'_>, g: &SGraph) {
    let st = g.stats();
    ctx.count("nodes", st.nodes as u64);
    ctx.count("reachable", st.reachable as u64);
    ctx.count("tests", st.tests as u64);
    ctx.count("assigns", st.assigns as u64);
    ctx.count("depth", st.depth as u64);
}

fn stage_sgraph(ctx: &mut SynthCtx<'_>, rf: ReactiveFn) -> Result<SGraph, SynthError> {
    let g = build(&rf).map_err(SynthError::SgraphBuild)?;
    record_sgraph(ctx, &g);
    Ok(g)
}

fn stage_ite_chain(ctx: &mut SynthCtx<'_>, mut rf: ReactiveFn) -> Result<SGraph, SynthError> {
    let g = ite_chain(&mut rf);
    record_sgraph(ctx, &g);
    Ok(g)
}

fn stage_two_level(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm) -> Result<SGraph, SynthError> {
    let g = two_level_sgraph(cfsm);
    record_sgraph(ctx, &g);
    Ok(g)
}

fn stage_collapse(ctx: &mut SynthCtx<'_>, g: SGraph) -> Result<SGraph, SynthError> {
    let before = g.stats();
    let c = collapse(&g);
    let after = c.stats();
    ctx.count("nodes_before", before.reachable as u64);
    ctx.count("nodes_after", after.reachable as u64);
    ctx.count("tests_before", before.tests as u64);
    ctx.count("tests_after", after.tests as u64);
    Ok(c)
}

#[allow(clippy::type_complexity)]
fn stage_compile(
    ctx: &mut SynthCtx<'_>,
    (cfsm, graph): (&Cfsm, &SGraph),
) -> Result<(VmProgram, ObjectCode), SynthError> {
    let program = compile(cfsm, graph, ctx.opts.buffering);
    let object = assemble(&program, ctx.opts.profile);
    ctx.count("code_bytes", u64::from(object.size_bytes()));
    ctx.count("ram_bytes", u64::from(program.ram_bytes()));
    Ok((program, object))
}

fn stage_emit(
    ctx: &mut SynthCtx<'_>,
    (cfsm, graph): (&Cfsm, &SGraph),
) -> Result<String, SynthError> {
    let c_code = emit_c(
        cfsm,
        graph,
        &CodegenOptions {
            buffering: ctx.opts.buffering,
        },
    );
    let st = measure_c(&c_code);
    ctx.count("lines", st.lines);
    ctx.count("bytes", st.bytes);
    ctx.count("gotos", st.gotos);
    Ok(c_code)
}

#[allow(clippy::type_complexity)]
fn stage_estimate(
    ctx: &mut SynthCtx<'_>,
    (cfsm, graph): (&Cfsm, &SGraph),
) -> Result<(Estimate, Option<u64>), SynthError> {
    let params = calibrate(ctx.opts.profile);
    let est = estimate(cfsm, graph, &params, ctx.opts.buffering);
    let incompats = derive_incompatibilities(cfsm);
    let false_path_aware = (!incompats.is_empty())
        .then(|| max_cycles_false_path_aware(cfsm, graph, &params, &incompats));
    ctx.count("est_size_bytes", est.size_bytes);
    ctx.count("est_min_cycles", est.min_cycles);
    ctx.count("est_max_cycles", est.max_cycles);
    ctx.count("est_ram_bytes", est.ram_bytes);
    ctx.count("incompatibilities", incompats.len() as u64);
    if let Some(fp) = false_path_aware {
        ctx.count("est_max_cycles_false_path_aware", fp);
    }
    Ok((est, false_path_aware))
}

fn stage_measure(
    ctx: &mut SynthCtx<'_>,
    (program, object): (&VmProgram, &ObjectCode),
) -> Result<Measured, SynthError> {
    let bounds = analyze(program, object);
    let measured = Measured {
        size_bytes: u64::from(object.size_bytes()),
        min_cycles: bounds.min_cycles,
        max_cycles: bounds.max_cycles,
        ram_bytes: u64::from(program.ram_bytes()),
    };
    ctx.count("min_cycles", measured.min_cycles);
    ctx.count("max_cycles", measured.max_cycles);
    Ok(measured)
}

/// What the verify stage produces.
#[derive(Debug)]
pub struct Verified {
    /// Reachability verdicts (lost events, dead transitions, deadlock).
    pub report: VerifyReport,
    /// Property verdicts; `Some` iff a suite was checked.
    pub props: Option<PropReport>,
    /// Per-machine input-presence incompatibilities of the reached set;
    /// empty unless [`SynthesisOptions::verify_refine_estimates`] is set.
    pub incompats: Vec<Vec<Incompat>>,
}

fn stage_verify(
    ctx: &mut SynthCtx<'_>,
    (net, props): (&Network, Option<&[Property]>),
) -> Result<Verified, SynthError> {
    let vopts = VerifyOptions {
        trace_rings: props.is_some(),
        ..ctx.opts.verify.unwrap_or_default()
    };
    let mut v = Verifier::run(net, &vopts).map_err(SynthError::Verify)?;
    let stats = v.stats();
    ctx.count("iterations", stats.iterations);
    ctx.count("image_steps", stats.image_steps);
    ctx.count("descent_nodes", stats.descent_nodes);
    ctx.count("env_applications", stats.env_applications);
    ctx.count("react_applications", stats.react_applications);
    ctx.count("peak_frontier_nodes", stats.peak_frontier_nodes);
    ctx.count("reached_nodes", stats.reached_nodes);
    if let Some(states) = stats.reached_states {
        ctx.count("reached_states", states.min(u128::from(u64::MAX)) as u64);
    }
    ctx.count("peak_live_nodes", stats.peak_live_nodes);
    ctx.count("andex_lookups", stats.andex_lookups);
    ctx.count("andex_hits", stats.andex_hits);
    ctx.count("cube_quant_calls", stats.cube_quant_calls);
    ctx.count("mid_reach_reorders", stats.mid_reach_reorders);
    ctx.count("collections", stats.mid_reach_collections);
    for (phase, time) in stats.phases.named() {
        ctx.ratio(&format!("phase_{phase}_ms"), time.as_secs_f64() * 1e3);
    }
    let incompats = if ctx.opts.verify_refine_estimates {
        (0..net.cfsms().len())
            .map(|i| v.presence_incompats(i))
            .collect()
    } else {
        Vec::new()
    };
    let report = v.report();
    ctx.count(
        "lost_possible",
        report.lost_events.iter().filter(|e| e.possible).count() as u64,
    );
    ctx.count("dead_transitions", report.dead_transitions.len() as u64);
    ctx.count("deadlock", u64::from(report.deadlock.is_some()));
    let props = props.map(|props| {
        let pr = v.check_properties(props);
        ctx.count("properties_checked", pr.checked);
        ctx.count("violations", pr.violations);
        ctx.count("max_trace_len", pr.max_trace_len);
        ctx.count("preimage_nodes", pr.preimage_nodes);
        ctx.count("trace_rings_stored", pr.rings_stored);
        ctx.count("trace_rings_complete", u64::from(pr.rings_complete));
        ctx.count(
            "deadlock_trace_len",
            report
                .deadlock
                .as_ref()
                .and_then(|w| w.trace.as_ref())
                .map_or(0, |t| t.len() as u64),
        );
        pr
    });
    Ok(Verified {
        report,
        props,
        incompats,
    })
}

/// Runs the `verify` stage: one fixpoint under `ctx.opts.verify` (the
/// [`VerifyOptions`] defaults when unset), the reachability report, the
/// presence incompatibilities `--refine` feeds back into the estimates,
/// and, when `props` is given, the property verdicts with decoded
/// traces (onion rings are stored only then). Records the traversal
/// counters (the image descent's among them), the mid-traversal
/// collections and one `phase_<name>_ms`
/// time per fixpoint phase, plus the property counters when a suite
/// runs.
///
/// # Errors
///
/// [`SynthError::Verify`] when the traversal exceeds the node budget;
/// the aborted stage is still recorded in `ctx`'s trace.
pub fn verify_staged(
    ctx: &mut SynthCtx<'_>,
    net: &Network,
    props: Option<&[Property]>,
) -> Result<Verified, SynthError> {
    ctx.run_stage("verify", stage_verify, (net, props))
}

#[allow(clippy::type_complexity)]
fn stage_refine(
    ctx: &mut SynthCtx<'_>,
    (net, machines, reach_incompats): (&Network, &mut [CfsmSynthesis], &[Vec<Incompat>]),
) -> Result<(), SynthError> {
    let params = calibrate(ctx.opts.profile);
    let mut refined = 0u64;
    let mut tightened = 0u64;
    for (i, m) in net.cfsms().iter().enumerate() {
        let mut merged = derive_incompatibilities(m);
        for inc in &reach_incompats[i] {
            if !merged.contains(inc) {
                merged.push(*inc);
            }
        }
        if merged.is_empty() {
            continue;
        }
        let bound = max_cycles_false_path_aware(m, &machines[i].graph, &params, &merged);
        // Never looser than the derived-only bound (or the plain
        // estimate when no derived bound exists).
        let baseline = machines[i]
            .max_cycles_false_path_aware
            .unwrap_or(machines[i].estimate.max_cycles);
        let reach_aware = bound.min(baseline);
        machines[i].max_cycles_reach_aware = Some(reach_aware);
        refined += 1;
        if reach_aware < baseline {
            tightened += 1;
        }
    }
    ctx.count("machines_refined", refined);
    ctx.count("bounds_tightened", tightened);
    Ok(())
}

fn stage_rtos(
    ctx: &mut SynthCtx<'_>,
    (net, config): (&Network, &RtosConfig),
) -> Result<String, SynthError> {
    let rtos_c = emit_rtos_c(net, config);
    let st = measure_c(&rtos_c);
    ctx.count("tasks", net.cfsms().len() as u64);
    ctx.count("lines", st.lines);
    ctx.count("bytes", st.bytes);
    Ok(rtos_c)
}

/// The network-level stages, after the machines: `verify` (then
/// `refine`) when enabled, and `rtos`.
fn network_stages(
    ctx: &mut SynthCtx<'_>,
    net: &Network,
    rtos: &RtosConfig,
    machines: &mut [CfsmSynthesis],
) -> Result<(Option<VerifyReport>, String), SynthError> {
    let mut report = None;
    if ctx.opts.verify.is_some() {
        let verified = verify_staged(ctx, net, None)?;
        if ctx.opts.verify_refine_estimates {
            let incompats = verified.incompats.as_slice();
            ctx.run_stage("refine", stage_refine, (net, machines, incompats))?;
        }
        report = Some(verified.report);
    }
    let rtos_c = ctx.run_stage("rtos", stage_rtos, (net, rtos))?;
    Ok((report, rtos_c))
}

// ---------------------------------------------------------------------
// Staged drivers.
// ---------------------------------------------------------------------

/// Runs the graph half of the per-CFSM pipeline for the style selected
/// in `ctx.opts`: the stages up to the s-graph (`chi`, `sift`, `sgraph`
/// and `collapse` for the decision graph), recorded into the context's
/// trace under the machine's name.
pub fn synthesize_graph(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm) -> Result<SGraph, SynthError> {
    ctx.set_machine(Some(cfsm.name()));
    match ctx.opts.style {
        ImplStyle::DecisionGraph => {
            let rf = ctx.run_stage("chi", stage_chi, cfsm)?;
            let rf = ctx.run_stage("sift", stage_sift, rf)?;
            let g = ctx.run_stage("sgraph", stage_sgraph, rf)?;
            if ctx.opts.collapse {
                ctx.run_stage("collapse", stage_collapse, g)
            } else {
                Ok(g)
            }
        }
        ImplStyle::IteChain => {
            let rf = ctx.run_stage("chi", stage_chi, cfsm)?;
            ctx.run_stage("sgraph", stage_ite_chain, rf)
        }
        ImplStyle::TwoLevel => ctx.run_stage("sgraph", stage_two_level, cfsm),
    }
}

/// Runs the full per-CFSM pipeline for the style selected in
/// `ctx.opts`, recording every stage into the context's trace.
pub fn synthesize_cfsm(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm) -> Result<CfsmSynthesis, SynthError> {
    let graph = synthesize_graph(ctx, cfsm)?;
    let (program, object) = ctx.run_stage("compile", stage_compile, (cfsm, &graph))?;
    let c_code = ctx.run_stage("emit_c", stage_emit, (cfsm, &graph))?;
    let (est, max_cycles_false_path_aware) =
        ctx.run_stage("estimate", stage_estimate, (cfsm, &graph))?;
    let measured = ctx.run_stage("measure", stage_measure, (&program, &object))?;
    ctx.set_machine(None);
    Ok(CfsmSynthesis {
        graph,
        c_code,
        program,
        object,
        estimate: est,
        max_cycles_false_path_aware,
        max_cycles_reach_aware: None,
        measured,
    })
}

/// Runs the per-CFSM pipeline over every machine of `net` on up to
/// `jobs` scoped worker threads, then the network-level RTOS stage.
///
/// Each worker owns the BDD managers of the machines it claims (one
/// manager per [`ReactiveFn`]); nothing is shared between workers except
/// the read-only network and options. Results and
/// per-machine traces are merged in network order, so the returned
/// [`NetworkSynthesis`] — including every byte of generated C — is
/// identical for every `jobs` value. Only wall-clock timings vary.
///
/// When `opts.verify` is set, the network-level [`verify_staged`] stage
/// runs the symbolic reachability engine after the machines are
/// synthesized (and a `refine` stage feeds the reachability invariant
/// back into the false-path estimates when
/// `opts.verify_refine_estimates` is also set). On any failure the [`SynthFailure`] carries every stage record
/// completed up to the abort, so callers can still flush the trace.
pub fn synthesize_network_staged(
    net: &Network,
    opts: &SynthesisOptions,
    rtos: &RtosConfig,
    jobs: usize,
) -> Result<(NetworkSynthesis, SynthTrace), SynthFailure> {
    let cfsms = net.cfsms();
    let n = cfsms.len();
    let jobs = jobs.clamp(1, n.max(1));
    let start = Instant::now();

    type Slot = (Result<CfsmSynthesis, SynthError>, SynthTrace);
    let run_one = |i: usize| -> Slot {
        let mut ctx = SynthCtx::new(opts);
        let r = synthesize_cfsm(&mut ctx, &cfsms[i]);
        (r, ctx.into_trace())
    };

    let mut slots: Vec<Option<Slot>> = (0..n).map(|_| None).collect();
    if jobs <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(run_one(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let done = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    let next = &next;
                    let run_one = &run_one;
                    scope.spawn(move || {
                        let mut claimed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            claimed.push((i, run_one(i)));
                        }
                        claimed
                    })
                })
                .collect();
            let mut done = Vec::new();
            for w in workers {
                done.extend(w.join().expect("synthesis worker panicked"));
            }
            done
        });
        for (i, r) in done {
            slots[i] = Some(r);
        }
    }

    let mut machines = Vec::with_capacity(n);
    let mut trace = SynthTrace::new();
    for slot in slots {
        let (r, t) = slot.expect("every machine index was claimed");
        trace.extend(t);
        match r {
            Ok(synth) => machines.push(synth),
            Err(error) => return Err(SynthFailure { error, trace }),
        }
    }
    let synthesis_time = start.elapsed();

    let mut net_ctx = SynthCtx::new(opts);
    let network = network_stages(&mut net_ctx, net, rtos, &mut machines);
    trace.extend(net_ctx.into_trace());
    let (verify_report, rtos_c) = match network {
        Ok(out) => out,
        Err(error) => return Err(SynthFailure { error, trace }),
    };

    let total_rom = machines.iter().map(|m| m.measured.size_bytes).sum::<u64>() + RTOS_ROM_BYTES;
    let total_ram =
        machines.iter().map(|m| m.measured.ram_bytes).sum::<u64>() + RTOS_RAM_PER_TASK * n as u64;
    Ok((
        NetworkSynthesis {
            machines,
            verify: verify_report,
            rtos_c,
            total_rom,
            total_ram,
            synthesis_time,
        },
        trace,
    ))
}
