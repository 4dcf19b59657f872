//! BDD-kernel benchmark: synthesizes the seed examples (seat belt, shock
//! absorber, dashboard) with and without sifting, plus two synthetic
//! kernel-bound stress cases, and writes `BENCH_bdd_kernel.json` with wall
//! times, peak live nodes, and cache statistics.
//!
//! ```text
//! cargo run --release -p polis-bench --bin paper -- kernel [--smoke] [--check] [--out FILE]
//! ```
//!
//! `--smoke` shrinks the synthetic cases so the bench finishes in well
//! under a second (the CI gate). `--check` asserts the `BddStats`-based
//! regression thresholds and exits non-zero on violation. The recorded
//! `baseline` section holds the same cases measured at the pre-overhaul
//! commit (`c7fb732`, HashMap unique tables + unbounded ITE cache), so the
//! file carries its own before/after trajectory.

use crate::{speedups, write_json, BenchOptions};
use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, BddStats, NodeRef};
use polis_cfsm::{Network, OrderScheme, ReactiveFn};
use polis_core::trace::Json;
use polis_core::workloads;
use std::time::Instant;

/// One measured bench case.
struct CaseResult {
    name: String,
    wall_ms: f64,
    stats: BddStats,
    peak_live_nodes: u64,
    final_nodes: u64,
}

impl CaseResult {
    fn json(&self) -> Json {
        let s = &self.stats;
        let probes = Json::fixed(s.avg_probe_len(), 3);
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("wall_ms", Json::fixed(self.wall_ms, 3)),
            ("mk_calls", Json::num(s.mk_calls)),
            ("ite_lookups", Json::num(s.cache_lookups)),
            ("ite_hits", Json::num(s.cache_hits)),
            ("ite_hit_rate", Json::fixed(s.hit_rate(), 4)),
            ("ite_evictions", Json::num(s.cache_evictions)),
            ("memo_lookups", Json::num(s.memo_lookups)),
            ("memo_hits", Json::num(s.memo_hits)),
            ("unique_probes_per_lookup", probes),
            ("swaps", Json::num(s.swap_count)),
            ("reclaimed_nodes", Json::num(s.reclaimed_nodes)),
            ("peak_live_nodes", Json::num(self.peak_live_nodes)),
            ("final_nodes", Json::num(self.final_nodes)),
        ])
    }
}

/// Builds every machine's χ-function, optionally sifting to convergence.
fn example_case(name: &str, net: &Network, sift: bool) -> CaseResult {
    let start = Instant::now();
    let mut stats = BddStats::default();
    let mut peak = 0u64;
    let mut final_nodes = 0u64;
    for m in net.cfsms() {
        let mut rf = ReactiveFn::build(m);
        if sift {
            rf.sift_with_passes(OrderScheme::OutputsAfterSupport, usize::MAX);
        }
        let st = rf.bdd().stats();
        stats = stats.merged(&st);
        peak += st.peak_live_nodes;
        final_nodes += rf.size() as u64;
    }
    CaseResult {
        name: name.to_owned(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        peak_live_nodes: peak,
        final_nodes,
    }
}

/// The classic interleaved-pairs function `x0·x1 + x2·x3 + …` declared in
/// the worst order `x0,x2,…,x1,x3,…` — exponentially large before sifting,
/// linear after. Sifting to convergence is swap-dominated, which is
/// exactly the path the reclamation + O(1) size tracking accelerates.
fn sift_stress(pairs: usize) -> CaseResult {
    let start = Instant::now();
    let mut b = Bdd::new();
    let evens: Vec<_> = (0..pairs)
        .map(|i| b.new_var(format!("x{}", 2 * i)))
        .collect();
    let odds: Vec<_> = (0..pairs)
        .map(|i| b.new_var(format!("x{}", 2 * i + 1)))
        .collect();
    let mut f = NodeRef::FALSE;
    for i in 0..pairs {
        let a = b.var(evens[i]);
        let c = b.var(odds[i]);
        let t = b.and(a, c);
        f = b.or(f, t);
    }
    let before = b.size(&[f]);
    let after = b.sift(&[f], &SiftConfig::to_convergence());
    assert!(after <= before, "sifting must not grow the interleaved BDD");
    let stats = b.stats();
    CaseResult {
        name: format!("sift_stress_{pairs}pairs"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        peak_live_nodes: stats.peak_live_nodes,
        final_nodes: after as u64,
    }
}

/// Repeated cofactoring/quantification over one shared function — the
/// s-graph-extraction access pattern the persistent memo caches serve.
fn quant_stress(nvars: usize, rounds: usize) -> CaseResult {
    let start = Instant::now();
    let mut b = Bdd::new();
    let vars: Vec<_> = (0..nvars).map(|i| b.new_var(format!("v{i}"))).collect();
    // A layered majority-ish function with plenty of shared subgraphs.
    let mut f = NodeRef::FALSE;
    for w in vars.windows(3) {
        let a = b.var(w[0]);
        let c = b.var(w[1]);
        let d = b.var(w[2]);
        let ac = b.and(a, c);
        let cd = b.xor(c, d);
        let t = b.or(ac, cd);
        f = b.xor(f, t);
    }
    let mut acc = NodeRef::FALSE;
    for _ in 0..rounds {
        for &v in &vars {
            let e = b.exists(f, v);
            let r0 = b.restrict(f, v, false);
            let u = b.forall(f, v);
            let x = b.xor(e, r0);
            let y = b.xor(x, u);
            acc = b.xor(acc, y);
        }
    }
    std::hint::black_box(acc);
    let stats = b.stats();
    CaseResult {
        name: format!("quant_stress_{nvars}v_{rounds}r"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        peak_live_nodes: stats.peak_live_nodes,
        final_nodes: b.size(&[f, acc]) as u64,
    }
}

/// The pre-overhaul numbers for the full-size cases, measured at commit
/// `c7fb732` with this same harness (HashMap unique tables, unbounded
/// HashMap ITE cache, per-call memo allocation, no reclamation). Wall
/// times (median of 3) are from the same container the current numbers
/// are recorded on. The old kernel's "peak live nodes" column is its
/// final allocated-node count — it never reclaimed, so that IS the peak.
const BASELINE: &str = r#"[
  { "name": "seatbelt_nosift", "wall_ms": 0.134, "peak_live_nodes": 53, "ite_hit_rate": 0.1937 },
  { "name": "seatbelt_sift", "wall_ms": 1.422, "peak_live_nodes": 494, "ite_hit_rate": 0.1889 },
  { "name": "shock_absorber_nosift", "wall_ms": 0.241, "peak_live_nodes": 131, "ite_hit_rate": 0.1056 },
  { "name": "shock_absorber_sift", "wall_ms": 2.362, "peak_live_nodes": 974, "ite_hit_rate": 0.1142 },
  { "name": "dashboard_nosift", "wall_ms": 0.159, "peak_live_nodes": 92, "ite_hit_rate": 0.0734 },
  { "name": "dashboard_sift", "wall_ms": 1.211, "peak_live_nodes": 347, "ite_hit_rate": 0.0826 },
  { "name": "sift_stress_10pairs", "wall_ms": 14134.720, "peak_live_nodes": 1048575, "ite_hit_rate": 0.2410 },
  { "name": "quant_stress_24v_40r", "wall_ms": 29.232, "peak_live_nodes": 11423, "ite_hit_rate": 0.5711 }
]"#;

/// Runs the bench, prints one line per case and writes the results
/// (default `BENCH_bdd_kernel.json`). Returns the `--check` failures.
pub fn run(opts: &BenchOptions) -> Result<Vec<String>, String> {
    let smoke = opts.smoke;
    let (stress_pairs, quant_vars, quant_rounds) = if smoke { (8, 12, 4) } else { (10, 24, 40) };

    let mut results = Vec::new();
    for (name, net) in [
        ("seatbelt", workloads::seat_belt()),
        ("shock_absorber", workloads::shock_absorber()),
        ("dashboard", workloads::dashboard()),
    ] {
        results.push(example_case(&format!("{name}_nosift"), &net, false));
        results.push(example_case(&format!("{name}_sift"), &net, true));
    }
    results.push(sift_stress(stress_pairs));
    results.push(quant_stress(quant_vars, quant_rounds));

    for r in &results {
        println!(
            "{:<26} {:>9.2} ms  hit {:>5.1}%  probes/lookup {:>5.2}  peak {:>7}  reclaimed {:>7}",
            r.name,
            r.wall_ms,
            r.stats.hit_rate() * 100.0,
            r.stats.avg_probe_len(),
            r.peak_live_nodes,
            r.stats.reclaimed_nodes,
        );
    }

    let baseline = Json::parse(BASELINE).expect("BASELINE is valid JSON");
    let walls = results.iter().map(|r| (r.name.as_str(), r.wall_ms));
    let current = results.iter().map(CaseResult::json).collect();
    let speedups = speedups(&baseline, walls);
    let json = Json::obj([
        ("bench", Json::Str("bdd_kernel".to_owned())),
        ("smoke", Json::Bool(smoke)),
        ("node_bytes", Json::num(polis_bdd::NODE_BYTES)),
        ("node_ref_bytes", Json::num(std::mem::size_of::<NodeRef>())),
        ("baseline_commit", Json::Str("c7fb732".to_owned())),
        ("baseline", baseline),
        ("current", Json::Arr(current)),
        ("speedups", speedups),
    ]);
    write_json(opts, "BENCH_bdd_kernel.json", &json)?;

    let mut failures = Vec::new();
    if opts.check {
        // Layout gate: the complement-edge handle must stay one machine
        // word half (the packed index + parity bit), and a stored node
        // must stay three 4-byte columns.
        if std::mem::size_of::<NodeRef>() != 4 {
            failures.push(format!(
                "NodeRef is {} bytes, expected 4",
                std::mem::size_of::<NodeRef>()
            ));
        }
        if polis_bdd::NODE_BYTES != 12 {
            failures.push(format!(
                "per-node storage is {} bytes, expected 12",
                polis_bdd::NODE_BYTES
            ));
        }
        for r in &results {
            // The seed examples' BDDs are small, so hit rates sit in the
            // 0.05..0.25 band (baseline kernel included); the floor exists
            // to catch the cache breaking outright, not workload drift.
            if r.stats.cache_lookups > 100 && r.stats.hit_rate() < 0.04 {
                failures.push(format!(
                    "{}: ITE hit rate {:.3} below 0.04 floor",
                    r.name,
                    r.stats.hit_rate()
                ));
            }
            if r.stats.unique_lookups > 100 && r.stats.avg_probe_len() > 4.0 {
                failures.push(format!(
                    "{}: average unique-table probe length {:.2} above 4.0 ceiling",
                    r.name,
                    r.stats.avg_probe_len()
                ));
            }
        }
        if let Some(stress) = results.iter().find(|r| r.name.starts_with("sift_stress")) {
            if stress.stats.reclaimed_nodes == 0 {
                failures.push("sift_stress: no nodes reclaimed during sifting".to_owned());
            }
            // The unsifted interleaved-pairs BDD is Θ(2^pairs); with swap
            // reclamation the arena must never grow far beyond that. The
            // old kernel peaked ~500x over this bound.
            let peak_bound = 1u64 << (stress_pairs + 3);
            if stress.peak_live_nodes >= peak_bound {
                failures.push(format!(
                    "sift_stress: peak live nodes {} above the {} reclamation bound",
                    stress.peak_live_nodes, peak_bound
                ));
            }
        }
    }
    Ok(failures)
}
