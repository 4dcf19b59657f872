//! Sifting reclaims what its swaps free, and the caches stay effective
//! on two kernel-bound workloads:
//!
//! - the interleaved-pairs function `x0·x1 + x2·x3 + …` declared in the
//!   worst order `x0,x2,…,x1,x3,…`, exponentially large before sifting
//!   and linear after, sifted to convergence;
//! - repeated restriction and one-variable cube quantification over one
//!   shared function, the access pattern of s-graph extraction.

use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, BddStats, NodeRef};

const PAIRS: usize = 8;

/// The ITE cache hit rate stays at or above 0.04 and the unique tables
/// at or below 4.0 probes per lookup, once each has seen 100 lookups.
fn assert_caches_effective(case: &str, s: &BddStats) {
    if s.cache_lookups > 100 {
        assert!(
            s.hit_rate() >= 0.04,
            "{case}: ITE hit rate {}",
            s.hit_rate()
        );
    }
    if s.unique_lookups > 100 {
        assert!(
            s.avg_probe_len() <= 4.0,
            "{case}: {} unique-table probes per lookup",
            s.avg_probe_len()
        );
    }
}

#[test]
fn sifting_interleaved_pairs_reclaims_and_stays_under_the_peak_bound() {
    let mut b = Bdd::new();
    let evens: Vec<_> = (0..PAIRS)
        .map(|i| b.new_var(format!("x{}", 2 * i)))
        .collect();
    let odds: Vec<_> = (0..PAIRS)
        .map(|i| b.new_var(format!("x{}", 2 * i + 1)))
        .collect();
    let mut f = NodeRef::FALSE;
    for (&e, &o) in evens.iter().zip(&odds) {
        let a = b.var(e);
        let c = b.var(o);
        let t = b.and(a, c);
        f = b.or(f, t);
    }
    let before = b.size(&[f]);
    // Collect the construction's garbage first, so what the sift
    // reclaims is what its swaps free.
    b.gc(&[f]);
    let reclaimed_before = b.stats().reclaimed_nodes;
    let after = b.sift(&[f], &SiftConfig::to_convergence());
    assert!(
        after < before,
        "sifting must shrink {before} nodes, got {after}"
    );
    let s = b.stats();
    assert!(
        s.reclaimed_nodes > reclaimed_before,
        "no nodes reclaimed during sifting"
    );
    // The unsifted BDD is Θ(2^PAIRS); with swap reclamation the arena
    // never grows far beyond that.
    let bound = 1u64 << (PAIRS + 3);
    assert!(
        s.peak_live_nodes < bound,
        "peak live nodes {} at or above {bound}",
        s.peak_live_nodes
    );
    assert_caches_effective("sift stress", &s);
}

#[test]
fn repeated_quantification_keeps_the_caches_effective() {
    let (nvars, rounds) = (12, 4);
    let mut b = Bdd::new();
    let vars: Vec<_> = (0..nvars).map(|i| b.new_var(format!("v{i}"))).collect();
    // A layered function with plenty of shared subgraphs.
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
    let cubes: Vec<_> = vars.iter().map(|&v| b.cube([v])).collect();
    let mut acc = NodeRef::FALSE;
    for _ in 0..rounds {
        for (&v, &cube) in vars.iter().zip(&cubes) {
            let e = b.exists_cube(f, cube);
            let r0 = b.restrict(f, v, false);
            let u = b.forall_cube(f, cube);
            let x = b.xor(e, r0);
            let y = b.xor(x, u);
            acc = b.xor(acc, y);
        }
    }
    std::hint::black_box(acc);
    assert_caches_effective("quant stress", &b.stats());
}
