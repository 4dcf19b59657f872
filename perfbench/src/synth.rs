//! `synth_mix`: what `polis synth` users run, on both target profiles.
//!
//! Items, each synthesized once per profile: the four example specs
//! (parsed inside the timed body), the composed dashboard and
//! shock-absorber products (composed inside the timed body), and a
//! seeded batch of single-machine random networks with long-tailed sizes.
//! After the items, the dashboard network and its product are
//! co-simulated on a sensor stream.

use crate::gen::{self, ReactionInput, EXAMPLE_SPECS};
use crate::span::Tracer;
use crate::{digest, Counters, Item, Pass};
use polis_cfsm::compose::compose;
use polis_cfsm::{value_var_name, Cfsm, Network, ReactiveFn};
use polis_codegen::{emit_c, CodegenOptions};
use polis_core::{synthesize_network_staged, MetricValue, NetworkSynthesis, SynthesisOptions};
use polis_estimate::{calibrate, derive_incompatibilities, estimate, max_cycles_false_path_aware};
use polis_expr::{Env, MapEnv, Value};
use polis_lang::parse_spec;
use polis_rtos::{emit_rtos_c, RtosConfig, Simulator, Stimulus};
use polis_sgraph::build;
use polis_vm::{analyze, assemble, compile, run_reaction, CollectingHost, Profile, VmMemory};
use std::collections::BTreeSet;
use std::time::Instant;

/// Both target profiles, in report order.
pub const PROFILES: [Profile; 2] = [Profile::Mcu8, Profile::Risc32];

/// Environment events in each co-simulation stream.
const STREAM_LEN: usize = 3_000;
/// Reactions per machine in the lock-step object-code check.
const LOCKSTEP_REACTIONS: usize = 32;

/// Where an item's network comes from.
pub enum Source {
    /// An example spec, parsed in the timed body.
    Spec {
        /// Network name.
        name: &'static str,
        /// `.pol` source.
        src: &'static str,
    },
    /// The single-machine product of a network, composed in the timed body.
    Product(Network),
    /// A generated network; its code does not count toward the code
    /// metrics, which must not depend on the seed.
    Network(Network),
}

/// The generated inputs of `synth_mix`.
pub struct Inputs {
    sources: Vec<Source>,
    dashboard: Network,
    stream: Vec<Stimulus>,
}

impl Inputs {
    /// Generates the inputs: the pinned subjects, plus `random` seeded
    /// random machines.
    pub fn new(seed: u64, random: usize) -> Inputs {
        let spec = |name: &str| {
            let (name, src) = EXAMPLE_SPECS
                .iter()
                .find(|(n, _)| *n == name)
                .expect("an example spec");
            parse_spec(name, src).expect("example specs parse").network
        };
        let dashboard = spec("dashboard");
        let mut sources: Vec<Source> = EXAMPLE_SPECS
            .iter()
            .map(|&(name, src)| Source::Spec { name, src })
            .collect();
        sources.push(Source::Product(dashboard.clone()));
        sources.push(Source::Product(spec("shock_absorber")));
        sources.extend(
            gen::random_machines(random, gen::sub_seed(seed, 1))
                .into_iter()
                .map(Source::Network),
        );
        // The stream is pinned, like the code metrics it feeds.
        let stream = gen::stimulus(
            &dashboard,
            STREAM_LEN,
            gen::sub_seed(crate::DEFAULT_SEED, 2),
        );
        Inputs {
            sources,
            dashboard,
            stream,
        }
    }

    /// Items per pass.
    pub fn items(&self) -> usize {
        self.sources.len() * PROFILES.len()
    }

    fn each(&self) -> impl Iterator<Item = (usize, &Source, Profile)> {
        self.sources
            .iter()
            .flat_map(|s| PROFILES.map(|profile| (s, profile)))
            .enumerate()
            .map(|(i, (s, profile))| (i, s, profile))
    }
}

fn options(profile: Profile) -> SynthesisOptions {
    SynthesisOptions {
        profile,
        ..SynthesisOptions::default()
    }
}

fn rtos(profile: Profile) -> RtosConfig {
    RtosConfig {
        profile,
        ..RtosConfig::default()
    }
}

/// The profile's short name, as used in item labels.
pub fn profile_name(profile: Profile) -> &'static str {
    match profile {
        Profile::Mcu8 => "mcu8",
        Profile::Risc32 => "risc32",
    }
}

/// Builds the item's network, tracing the `lang` or `cfsm` call.
fn network(source: &Source, tr: &mut Tracer) -> Result<Network, String> {
    match source {
        Source::Spec { name, src } => tr
            .span("lang.parse", |_| parse_spec(name, src))
            .map(|s| s.network)
            .map_err(|e| format!("parse: {e}")),
        Source::Product(base) => {
            let product = tr
                .span("cfsm.compose", |_| compose(base))
                .map_err(|e| format!("compose: {e:?}"))?;
            Network::new(product.name().to_owned(), vec![product]).map_err(|e| e.to_string())
        }
        Source::Network(net) => Ok(net.clone()),
    }
}

/// One synthesized item: per machine, the object code and the numbers
/// the checks and metrics read.
pub struct Synthesized {
    /// The synthesized network.
    pub net: Network,
    /// The generated C of every machine, then the RTOS.
    pub c: Vec<String>,
    /// Per machine: object code and its exact bounds.
    pub machines: Vec<Machine>,
    /// Peak live BDD nodes over the item's managers.
    pub peak_live_nodes: u64,
}

/// One machine's compiled routine.
pub struct Machine {
    /// The compiled routine.
    pub program: polis_vm::VmProgram,
    /// Its object code.
    pub object: polis_vm::ObjectCode,
    /// Exact minimum cycles.
    pub min_cycles: u64,
    /// Exact maximum cycles.
    pub max_cycles: u64,
    /// Estimated size, for the estimator's accuracy guard.
    pub est_size: u64,
    /// Estimated maximum cycles, for the same guard.
    pub est_max_cycles: u64,
}

impl Synthesized {
    fn from_core(net: Network, syn: NetworkSynthesis, peak_live_nodes: u64) -> Synthesized {
        let mut c: Vec<String> = Vec::with_capacity(syn.machines.len() + 1);
        let mut machines = Vec::with_capacity(syn.machines.len());
        for m in syn.machines {
            c.push(m.c_code);
            machines.push(Machine {
                program: m.program,
                object: m.object,
                min_cycles: m.measured.min_cycles,
                max_cycles: m.measured.max_cycles,
                est_size: m.estimate.size_bytes,
                est_max_cycles: m.estimate.max_cycles,
            });
        }
        c.push(syn.rtos_c);
        Synthesized {
            net,
            c,
            machines,
            peak_live_nodes,
        }
    }

    fn item(&self, label: String, pinned: bool, profile: Profile, wall: f64) -> Item {
        let code_bytes = self
            .machines
            .iter()
            .map(|m| u64::from(m.object.size_bytes()))
            .sum();
        let ram_bytes = self
            .machines
            .iter()
            .map(|m| u64::from(m.program.ram_bytes()))
            .sum();
        let wcet_cycles = self.machines.iter().map(|m| m.max_cycles).sum();
        let mins: Vec<u64> = self.machines.iter().map(|m| m.min_cycles).collect();
        Item {
            label,
            wall,
            peak_live_nodes: self.peak_live_nodes,
            profile: Some(profile),
            pinned,
            code_bytes,
            ram_bytes,
            wcet_cycles,
            digest: digest(&(&self.c, code_bytes, ram_bytes, wcet_cycles, mins)),
            error: None,
        }
    }
}

/// Synthesizes one item through the end-to-end entry point.
fn synth_core(source: &Source, profile: Profile) -> Result<Synthesized, String> {
    let net = network(source, &mut Tracer::off())?;
    let (syn, trace) = synthesize_network_staged(&net, &options(profile), &rtos(profile), 1)
        .map_err(|e| e.to_string())?;
    let peak = trace
        .records()
        .iter()
        .filter_map(|r| match r.counter("peak_live_nodes") {
            Some(MetricValue::Int(n)) => Some(n),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    Ok(Synthesized::from_core(net, syn, peak))
}

/// Synthesizes one item through the per-layer functions, in the order
/// the staged pipeline calls them, with a span around each call.
fn synth_traced(
    source: &Source,
    profile: Profile,
    tr: &mut Tracer,
    k: &mut Counters,
) -> Result<Synthesized, String> {
    let net = network(source, tr)?;
    let opts = options(profile);
    let params = tr.span("estimate.calibrate", |_| calibrate(profile));
    let mut c = Vec::with_capacity(net.cfsms().len() + 1);
    let mut machines = Vec::with_capacity(net.cfsms().len());
    let mut peak = 0;
    for m in net.cfsms() {
        let mut rf = tr.span("cfsm.chi", |_| ReactiveFn::build(m));
        k.add("cfsm.chi_nodes", rf.size() as f64);
        tr.span("bdd.sift", |_| {
            rf.sift_with_passes(opts.scheme, opts.sift_passes)
        });
        let st = rf.bdd().stats();
        k.add("bdd.mk_calls", st.mk_calls as f64);
        k.add("bdd.ite_lookups", st.cache_lookups as f64);
        k.add("bdd.ite_hits", st.cache_hits as f64);
        k.add("bdd.memo_hits", st.memo_hits as f64);
        k.add("bdd.swaps", st.swap_count as f64);
        k.add("bdd.reclaimed_nodes", st.reclaimed_nodes as f64);
        k.max("bdd.peak_live_nodes", st.peak_live_nodes as f64);
        k.add("bdd.nodes_after_sift", rf.size() as f64);
        peak = peak.max(st.peak_live_nodes);
        let g = tr
            .span("sgraph.build", |_| build(&rf))
            .map_err(|e| format!("s-graph build: {e:?}"))?;
        let gs = g.stats();
        k.add("sgraph.vertices", gs.reachable as f64);
        k.add("sgraph.tests", gs.tests as f64);
        let (program, object) = tr.span("vm.compile", |_| {
            let p = compile(m, &g, opts.buffering);
            let o = assemble(&p, profile);
            (p, o)
        });
        let code = tr.span("codegen.emit", |_| {
            emit_c(
                m,
                &g,
                &CodegenOptions {
                    buffering: opts.buffering,
                    ..CodegenOptions::default()
                },
            )
        });
        k.add("codegen.c_bytes", code.len() as f64);
        c.push(code);
        let est = tr.span("estimate.estimate", |_| {
            let est = estimate(m, &g, &params, opts.buffering);
            let incompats = derive_incompatibilities(m);
            if !incompats.is_empty() {
                max_cycles_false_path_aware(m, &g, &params, &incompats);
            }
            est
        });
        let bounds = tr.span("vm.analyze", |_| analyze(&program, &object));
        machines.push(Machine {
            min_cycles: bounds.min_cycles,
            max_cycles: bounds.max_cycles,
            est_size: est.size_bytes,
            est_max_cycles: est.max_cycles,
            program,
            object,
        });
    }
    c.push(tr.span("rtos.emit", |_| emit_rtos_c(&net, &rtos(profile))));
    Ok(Synthesized {
        net,
        c,
        machines,
        peak_live_nodes: peak,
    })
}

/// Runs one pass. Untraced passes synthesize through
/// `synthesize_network_staged`; traced ones through the layer functions.
/// With `keep`, the synthesized items are returned for the checks.
pub fn pass(inp: &Inputs, tr: Option<&mut Tracer>, keep: bool) -> (Pass, Vec<Synthesized>) {
    let start = Instant::now();
    let mut counters = Counters::default();
    let mut kept = Vec::new();
    let mut items = Vec::with_capacity(inp.items());
    let mut off = Tracer::off();
    let traced = tr.is_some();
    let tr = tr.unwrap_or(&mut off);
    for (i, source, profile) in inp.each() {
        tr.set_item(i);
        let (name, pinned) = match source {
            Source::Spec { name, .. } => ((*name).to_owned(), true),
            Source::Product(base) => (format!("{}_product", base.name()), true),
            Source::Network(net) => (net.name().to_owned(), false),
        };
        let label = format!("{name}@{}", profile_name(profile));
        let t = Instant::now();
        let out = if traced {
            tr.span("item", |tr| {
                synth_traced(source, profile, tr, &mut counters)
            })
        } else {
            synth_core(source, profile)
        };
        let wall = t.elapsed().as_secs_f64();
        match out {
            Ok(s) => {
                for m in &s.machines {
                    counters.add("estimate.machines", 1.0);
                    counters.add(
                        "estimate.size_err_pct",
                        pct_err(m.est_size, u64::from(m.object.size_bytes())),
                    );
                    counters.add(
                        "estimate.cycles_err_pct",
                        pct_err(m.est_max_cycles, m.max_cycles),
                    );
                }
                items.push(s.item(label, pinned, profile, wall));
                if keep {
                    kept.push(s);
                }
            }
            Err(e) => items.push(Item::failed(label, wall, e)),
        }
    }
    tr.set_item(items.len());
    let busy = tr.span("item", |tr| cosimulate(inp, tr, &mut counters));
    let pass = Pass {
        wall: start.elapsed().as_secs_f64(),
        sim_busy_cycles: busy,
        items,
        counters,
        spans: Vec::new(),
    };
    (pass, kept)
}

/// Absolute relative error in percent.
fn pct_err(estimated: u64, exact: u64) -> f64 {
    if exact == 0 {
        return 0.0;
    }
    (estimated as f64 - exact as f64).abs() / exact as f64 * 100.0
}

/// Co-simulates the dashboard network and its single-machine product on
/// `Risc32`, as Table III does, and returns the summed busy cycles.
fn cosimulate(inp: &Inputs, tr: &mut Tracer, k: &mut Counters) -> u64 {
    let product = tr
        .span("cfsm.compose", |_| compose(&inp.dashboard))
        .expect("the dashboard composes");
    let product = Network::new(product.name().to_owned(), vec![product])
        .expect("a single machine is a valid network");
    let mut busy = 0;
    for net in [&inp.dashboard, &product] {
        let mut sim = tr.span("rtos.sim_build", |_| {
            Simulator::build(net, rtos(Profile::Risc32))
        });
        tr.span("rtos.sim_run", |_| sim.run(&inp.stream));
        let st = sim.stats();
        busy += st.busy_cycles;
        k.add(
            "rtos.sim_reactions",
            st.reactions.iter().sum::<u64>() as f64,
        );
        k.add(
            "rtos.sim_overwritten",
            st.overwritten.iter().sum::<u64>() as f64,
        );
    }
    busy
}

/// Synthesizes `nets` on both profiles through the end-to-end entry
/// point and co-simulates each on `Risc32`, outside any timed body: the
/// code metrics of the networks a verify workload checks. Returns the
/// items, the summed busy cycles, and one line per failed item.
pub fn code_of(nets: &[Network]) -> (Vec<Item>, u64, Vec<String>) {
    let mut items = Vec::new();
    let mut failures = Vec::new();
    let mut busy = 0;
    for (i, net) in nets.iter().enumerate() {
        for profile in PROFILES {
            let label = format!("{}@{}", net.name(), profile_name(profile));
            match synth_core(&Source::Network(net.clone()), profile) {
                Ok(s) => {
                    let f = lockstep(&s, &label, gen::sub_seed(i as u64, 3));
                    if !f.is_empty() {
                        failures.push(f.join("; "));
                    }
                    items.push(s.item(label, true, profile, 0.0));
                }
                Err(e) => failures.push(format!("{label}: {e}")),
            }
        }
        let stream = gen::stimulus(net, STREAM_LEN, gen::sub_seed(crate::DEFAULT_SEED, 2));
        let mut sim = Simulator::build(net, rtos(Profile::Risc32));
        sim.run(&stream);
        busy += sim.stats().busy_cycles;
    }
    (items, busy, failures)
}

/// Runs every machine's object code in lock-step with `Cfsm::react` on
/// seeded inputs: emissions, state variables and control state must
/// match, and measured cycles must stay within the `analyze` bounds.
fn lockstep(s: &Synthesized, label: &str, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for (mi, (m, code)) in s.net.cfsms().iter().zip(&s.machines).enumerate() {
        let inputs = gen::reaction_inputs(m, LOCKSTEP_REACTIONS, gen::sub_seed(seed, mi as u64));
        if let Err(e) = lockstep_machine(m, code, &inputs) {
            failures.push(format!("{label}: machine {}: {e}", m.name()));
        }
    }
    failures
}

fn as_i64(v: Value) -> i64 {
    match v {
        Value::Bool(b) => i64::from(b),
        Value::Int(i) => i,
    }
}

fn lockstep_machine(m: &Cfsm, code: &Machine, inputs: &[ReactionInput]) -> Result<(), String> {
    let prog = &code.program;
    let mut mem = VmMemory::new(prog);
    let mut state = m.initial_state();
    for (step, (present, values)) in inputs.iter().enumerate() {
        let mut names = BTreeSet::new();
        let mut env = MapEnv::new();
        for (k, sig) in m.inputs().iter().enumerate() {
            if present[k] {
                names.insert(sig.name().to_owned());
            }
            if sig.value_type().is_some() {
                env.set(value_var_name(sig.name()), Value::from_i64(values[k]));
                if let Some(slot) = prog.input_value_slot(k) {
                    mem.set(slot, values[k]);
                }
            }
        }
        let want = m
            .react(&names, &env, &state)
            .map_err(|e| format!("step {step}: reference reaction failed: {e:?}"))?;
        let mut host = CollectingHost::new(present.clone());
        let run = run_reaction(prog, &code.object, &mut mem, &mut host)
            .map_err(|e| format!("step {step}: {e}"))?;
        if host.consumed != want.fired {
            return Err(format!(
                "step {step}: fired {} vs {}",
                host.consumed, want.fired
            ));
        }
        let mut got = host.emissions;
        let mut exp: Vec<(usize, Option<i64>)> = want
            .emissions
            .iter()
            .map(|e| {
                (
                    m.output_index(&e.signal).unwrap_or(usize::MAX),
                    e.value.map(as_i64),
                )
            })
            .collect();
        got.sort_unstable();
        exp.sort_unstable();
        if got != exp {
            return Err(format!("step {step}: emissions {got:?} vs {exp:?}"));
        }
        for v in m.state_vars() {
            let slot = prog.state_slot(&v.name);
            let want_v = want.next.data.get(&v.name).map(as_i64);
            if slot.map(|s| mem.get(s)) != want_v {
                return Err(format!("step {step}: state variable `{}` differs", v.name));
            }
        }
        if let Some(cs) = prog.ctrl_slot() {
            if mem.get(cs) != want.next.ctrl as i64 {
                return Err(format!("step {step}: control state differs"));
            }
        }
        if !(code.min_cycles..=code.max_cycles).contains(&run.cycles) {
            return Err(format!(
                "step {step}: {} cycles outside [{}, {}]",
                run.cycles, code.min_cycles, code.max_cycles
            ));
        }
        state = want.next;
    }
    Ok(())
}

/// Output checks on a kept pass: lock-step object code for every item.
pub fn check(kept: &[Synthesized], items: &[Item], seed: u64) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut k = 0;
    for (i, item) in items.iter().enumerate() {
        if item.error.is_some() {
            continue;
        }
        let s = &kept[k];
        k += 1;
        for f in lockstep(s, &item.label, gen::sub_seed(seed, 4 + i as u64)) {
            failures.push((i, f));
        }
    }
    failures
}
