//! The polis benchmark: three seeded workloads over the synthesis and
//! verification flow, measured untraced for end-to-end metrics and once
//! more with spans around each layer call for per-layer metrics. See
//! `README.md` for the workloads, the metrics, and which end-to-end
//! metric each per-layer metric should move.

mod gen;
pub mod span;
mod synth;
mod verify;

use polis_core::trace::escape_json;
use polis_vm::Profile;
use span::{Span, SpanTimes, Tracer, LAYERS};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The workload seed that reproduces the pinned cases.
pub const DEFAULT_SEED: u64 = 0;

/// Set-up repetitions before each round of passes, so that they sample
/// the whole run; `setup_s` is the fastest. A pass leaves the caches
/// cold, so only repetitions after the first of a round run warm.
const SETUP_REPS: usize = 5;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `polis synth` on both profiles: example specs, composed products,
    /// random machines, then co-simulation.
    SynthMix,
    /// Long fixpoints: the pinned relay chains.
    VerifyDeep,
    /// Many short fixpoints with properties and traces.
    VerifyWide,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SynthMix,
        Workload::VerifyDeep,
        Workload::VerifyWide,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthMix => "synth_mix",
            Workload::VerifyDeep => "verify_deep",
            Workload::VerifyWide => "verify_wide",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Random machines in `synth_mix`.
    pub random_machines: usize,
    /// Relay chain lengths in `verify_deep`.
    pub deep_sizes: Vec<usize>,
    /// Seeded relay networks in `verify_wide`, as `(chain length,
    /// count)`.
    pub wide_mix: Vec<(usize, usize)>,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            random_machines: 600,
            // Each of these chains reaches the 2^18-node GC floor, so
            // every fixpoint collects mid-reach. Longer chains outgrow the
            // floor and turn memory-bound: with 14 and 16 machines the
            // time swung about 20% between runs on a shared 2-core Xeon
            // VM, and with 13 the chain's fastest time still swung 14%.
            deep_sizes: vec![10, 11, 12],
            // 150 networks of 3 to 8 machines. A network's cost grows
            // about 2.5x per machine and varies 10-20% with its seed, so
            // fixed counts per length keep every seed's work alike, and
            // these counts put the median item in the middle of the
            // 5-machine class and the 90th percentile in the middle of
            // the 8-machine class, away from class boundaries.
            wide_mix: vec![(3, 27), (4, 27), (5, 40), (6, 13), (7, 12), (8, 31)],
        }
    }
}

/// One synthesized or verified network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Item {
    /// `<network>@<profile>` for synthesis, the network for verification.
    pub label: String,
    /// Wall seconds of the item in the timed body.
    pub wall: f64,
    /// Peak live BDD nodes over the item's managers.
    pub peak_live_nodes: u64,
    /// The target profile of a synthesis item.
    pub profile: Option<Profile>,
    /// Whether the item's code counts toward the code metrics.
    pub pinned: bool,
    /// Object code bytes over the item's machines.
    pub code_bytes: u64,
    /// Data bytes over the item's machines.
    pub ram_bytes: u64,
    /// Exact worst-case cycles summed over the item's machines.
    pub wcet_cycles: u64,
    /// Hash of everything the item produced that must repeat exactly:
    /// generated C, code bytes, cycles, verdicts, traces.
    pub digest: u64,
    /// Why the item failed, if it did.
    pub error: Option<String>,
}

impl Item {
    fn failed(label: String, wall: f64, error: String) -> Item {
        Item {
            label,
            wall,
            error: Some(error),
            ..Item::default()
        }
    }

    /// Whether two runs of the item produced the same outputs.
    fn same_outputs(&self, other: &Item) -> bool {
        Item {
            wall: 0.0,
            ..self.clone()
        } == Item {
            wall: 0.0,
            ..other.clone()
        }
    }
}

/// Deterministic per-layer counters of one pass, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one pass over a workload's items produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds of the whole timed body.
    pub wall: f64,
    /// Per-item results, in item order.
    pub items: Vec<Item>,
    /// Co-simulation busy cycles (`synth_mix` only).
    pub sim_busy_cycles: u64,
    /// Per-layer counters (traced passes only).
    pub counters: Counters,
    /// The pass's spans (traced passes only).
    pub spans: Vec<Span>,
}

/// The generated code metrics: sums over the pinned items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeTotals {
    /// Object code bytes on `Mcu8`.
    pub code_bytes_mcu8: u64,
    /// Object code bytes on `Risc32`.
    pub code_bytes_risc32: u64,
    /// Data bytes (profile-independent, counted once).
    pub ram_bytes: u64,
    /// Exact worst-case cycles on `Mcu8`.
    pub wcet_cycles_mcu8: u64,
    /// Exact worst-case cycles on `Risc32`.
    pub wcet_cycles_risc32: u64,
    /// Co-simulation busy cycles.
    pub sim_busy_cycles: u64,
}

impl CodeTotals {
    fn of(items: &[Item], sim_busy_cycles: u64) -> CodeTotals {
        let mut t = CodeTotals {
            sim_busy_cycles,
            ..CodeTotals::default()
        };
        for i in items.iter().filter(|i| i.pinned) {
            match i.profile {
                Some(Profile::Mcu8) => {
                    t.code_bytes_mcu8 += i.code_bytes;
                    t.wcet_cycles_mcu8 += i.wcet_cycles;
                    t.ram_bytes += i.ram_bytes;
                }
                Some(Profile::Risc32) => {
                    t.code_bytes_risc32 += i.code_bytes;
                    t.wcet_cycles_risc32 += i.wcet_cycles;
                }
                None => {}
            }
        }
        t
    }
}

/// A stable hash of `v` (SipHash with fixed keys).
fn digest<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

enum Inputs {
    Synth(synth::Inputs),
    Verify(verify::Inputs),
}

enum Kept {
    Synth(Vec<synth::Synthesized>),
    Verify(Vec<verify::Verified>),
}

impl Inputs {
    fn new(workload: Workload, seed: u64, scale: &Scale) -> Inputs {
        match workload {
            Workload::SynthMix => Inputs::Synth(synth::Inputs::new(seed, scale.random_machines)),
            Workload::VerifyDeep => Inputs::Verify(verify::Inputs::deep(&scale.deep_sizes)),
            Workload::VerifyWide => Inputs::Verify(verify::Inputs::wide(seed, &scale.wide_mix)),
        }
    }

    fn pass(&self, tr: Option<&mut Tracer>, keep: bool) -> (Pass, Kept) {
        match self {
            Inputs::Synth(inp) => {
                let (p, k) = synth::pass(inp, tr, keep);
                (p, Kept::Synth(k))
            }
            Inputs::Verify(inp) => {
                let (p, k) = verify::pass(inp, tr, keep);
                (p, Kept::Verify(k))
            }
        }
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measuring time: a new round starts until this much has elapsed.
    pub seconds: f64,
    /// Also run traced passes, alternating with untraced ones.
    pub trace: bool,
    /// Rounds to run at least.
    pub min_rounds: usize,
    /// Workload sizes.
    pub scale: Scale,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Fastest set-up seconds.
    pub setup_s: f64,
    /// Untraced passes, in run order.
    pub untraced: Vec<Pass>,
    /// Traced passes, in run order.
    pub traced: Vec<Pass>,
    /// The code metrics.
    pub code: CodeTotals,
    /// Items per pass.
    pub items: usize,
    /// Items run (items per pass times passes, plus code-metric items).
    pub attempted: u64,
    /// Items whose outputs were wrong or did not repeat.
    pub failed: u64,
    /// What went wrong, one line each.
    pub failures: Vec<String>,
}

/// Runs a workload: set-up, timed rounds, then the output checks.
pub fn run(cfg: &Config) -> RunResult {
    let set_up = |times: &mut Vec<f64>| {
        let t = Instant::now();
        let inputs = Inputs::new(cfg.workload, cfg.seed, &cfg.scale);
        times.push(t.elapsed().as_secs_f64());
        inputs
    };
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut kept = None;
    let mut inputs;
    loop {
        for _ in 1..SETUP_REPS {
            set_up(&mut setups);
        }
        inputs = set_up(&mut setups);
        let (p, k) = inputs.pass(None, kept.is_none());
        untraced.push(p);
        kept.get_or_insert(k);
        if cfg.trace {
            let mut tr = Tracer::on();
            let (mut p, _) = inputs.pass(Some(&mut tr), false);
            p.spans = tr.spans().to_vec();
            traced.push(p);
        }
        if untraced.len() >= cfg.min_rounds && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let reference = &untraced[0];
    let mut failures = Vec::new();
    let mut bad: BTreeSet<usize> = BTreeSet::new();
    let kept_failures = match kept.expect("one pass ran") {
        Kept::Synth(k) => synth::check(&k, &reference.items, cfg.seed),
        Kept::Verify(k) => verify::check(&k, &reference.items),
    };
    for (i, f) in kept_failures {
        bad.insert(i);
        failures.push(f);
    }
    let mut failed = 0u64;
    for (which, p) in untraced
        .iter()
        .map(|p| ("untraced", p))
        .chain(traced.iter().map(|p| ("traced", p)))
    {
        for (i, item) in p.items.iter().enumerate() {
            let same = reference.items.get(i).is_some_and(|r| r.same_outputs(item));
            if let Some(e) = &item.error {
                failures.push(format!("{}: {e}", item.label));
            } else if !same {
                failures.push(format!(
                    "{}: {which} pass differs from the first",
                    item.label
                ));
            }
            if item.error.is_some() || !same || bad.contains(&i) {
                failed += 1;
            }
        }
        if p.sim_busy_cycles != reference.sim_busy_cycles {
            failures.push(format!(
                "co-simulation: {which} pass differs from the first"
            ));
            failed += 1;
        }
    }
    if traced.iter().any(|p| p.counters != traced[0].counters) {
        failures.push("per-layer counters differ between traced passes".to_owned());
        failed += 1;
    }
    let passes = (untraced.len() + traced.len()) as u64;
    let mut attempted = reference.items.len() as u64 * passes;

    let code = match &inputs {
        Inputs::Synth(_) => CodeTotals::of(&reference.items, reference.sim_busy_cycles),
        Inputs::Verify(v) => {
            let (items, busy, code_failures) = synth::code_of(&v.pinned_networks());
            attempted += items.len() as u64;
            failed += code_failures.len() as u64;
            failures.extend(code_failures);
            CodeTotals::of(&items, busy)
        }
    };

    RunResult {
        setup_s: fastest(&setups),
        items: reference.items.len(),
        untraced,
        traced,
        code,
        attempted,
        failed,
        failures,
    }
}

/// The smallest of `v` (0 when empty). Other tenants of a shared host
/// only ever add time to a pass, so the fastest repetition is the
/// steadiest estimate of a time.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let walls: Vec<f64> = r.untraced.iter().map(|p| p.wall).collect();
    let item_ms: Vec<f64> = (0..r.items)
        .map(|i| {
            let v: Vec<f64> = r.untraced.iter().map(|p| p.items[i].wall * 1e3).collect();
            fastest(&v)
        })
        .collect();
    let peak = r.untraced[0]
        .items
        .iter()
        .map(|i| i.peak_live_nodes)
        .max()
        .unwrap_or(0);
    let c = &r.code;
    vec![
        metric("setup_s", "s", r.setup_s),
        metric("wall_s", "s", fastest(&walls)),
        metric("item_p50_ms", "ms", percentile(&item_ms, 0.5)),
        metric("item_p90_ms", "ms", percentile(&item_ms, 0.9)),
        metric("peak_rss_mib", "MiB", peak_rss_mib()),
        metric("peak_live_nodes", "count", peak as f64),
        metric("code_bytes_mcu8", "B", c.code_bytes_mcu8 as f64),
        metric("code_bytes_risc32", "B", c.code_bytes_risc32 as f64),
        metric("ram_bytes", "B", c.ram_bytes as f64),
        metric("wcet_cycles_mcu8", "cycles", c.wcet_cycles_mcu8 as f64),
        metric("wcet_cycles_risc32", "cycles", c.wcet_cycles_risc32 as f64),
        metric("sim_busy_cycles", "cycles", c.sim_busy_cycles as f64),
        metric("items", "count", r.items as f64),
    ]
}

/// Per-layer time metrics: the summed duration of every span of that
/// name in a traced pass (metric name = span name + `_s`).
const SPAN_METRICS: [&str; 16] = [
    "lang.parse",
    "cfsm.compose",
    "cfsm.chi",
    "bdd.sift",
    "sgraph.build",
    "vm.compile",
    "vm.analyze",
    "codegen.emit",
    "estimate.calibrate",
    "estimate.estimate",
    "rtos.emit",
    "rtos.sim_build",
    "rtos.sim_run",
    "verify.run",
    "verify.report",
    "verify.props",
];

/// Per-layer counters, as `(name, unit)`.
const COUNTER_METRICS: [(&str, &str); 29] = [
    ("cfsm.chi_nodes", "count"),
    ("bdd.mk_calls", "count"),
    ("bdd.ite_lookups", "count"),
    ("bdd.ite_hit_rate", "ratio"),
    ("bdd.memo_hits", "count"),
    ("bdd.swaps", "count"),
    ("bdd.reclaimed_nodes", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.nodes_after_sift", "count"),
    ("sgraph.vertices", "count"),
    ("sgraph.tests", "count"),
    ("codegen.c_bytes", "B"),
    ("rtos.sim_reactions", "count"),
    ("rtos.sim_overwritten", "count"),
    ("estimate.size_err_pct", "%"),
    ("estimate.cycles_err_pct", "%"),
    ("verify.iterations", "count"),
    ("verify.image_steps", "count"),
    ("verify.andex_lookups", "count"),
    ("verify.andex_hit_rate", "ratio"),
    ("verify.cube_quant_calls", "count"),
    ("verify.constrain_reduced_nodes", "count"),
    ("verify.collections", "count"),
    ("verify.reorders", "count"),
    ("verify.peak_live_nodes", "count"),
    ("verify.peak_frontier_nodes", "count"),
    ("verify.rings_stored", "count"),
    ("verify.preimage_nodes", "count"),
    ("verify.max_trace_len", "count"),
];

/// The per-layer metrics of a traced run: span times, counters, self
/// time per layer, the unattributed remainder, and the tracing overhead.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let times: Vec<SpanTimes> = r.traced.iter().map(|p| SpanTimes::of(&p.spans)).collect();
    let med = |f: &dyn Fn(&SpanTimes, &Pass) -> f64| -> f64 {
        let v: Vec<f64> = times.iter().zip(&r.traced).map(|(t, p)| f(t, p)).collect();
        median(&v)
    };
    let k = &r.traced[0].counters;
    let ratio = |num: &str, den: &str| {
        let d = k.get(den);
        if d == 0.0 {
            0.0
        } else {
            k.get(num) / d
        }
    };
    let mut out = Vec::new();
    for name in SPAN_METRICS {
        let v = med(&|t, _| t.by_name.get(name).copied().unwrap_or(0.0));
        out.push(metric(format!("{name}_s"), "s", v));
    }
    for (name, unit) in COUNTER_METRICS {
        let v = match name {
            "bdd.ite_hit_rate" => ratio("bdd.ite_hits", "bdd.ite_lookups"),
            "verify.andex_hit_rate" => ratio("verify.andex_hits", "verify.andex_lookups"),
            "estimate.size_err_pct" | "estimate.cycles_err_pct" => ratio(name, "estimate.machines"),
            _ => k.get(name),
        };
        out.push(metric(name, unit, v));
    }
    for layer in LAYERS {
        let v = med(&|t, _| t.self_by_layer.get(layer).copied().unwrap_or(0.0));
        out.push(metric(format!("{layer}.self_s"), "s", v));
    }
    out.push(metric(
        "unattributed_s",
        "s",
        med(&|t, p| p.wall - t.attributed()),
    ));
    let traced: Vec<f64> = r.traced.iter().map(|p| p.wall).collect();
    let untraced: Vec<f64> = r.untraced.iter().map(|p| p.wall).collect();
    out.push(metric(
        "trace_overhead_s",
        "s",
        fastest(&traced) - fastest(&untraced),
    ));
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(r: &RunResult, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                escape_json(&m.name),
                escape_json(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}
