//! Reorder-correctness under node reclamation: seeded random sift schedules
//! must preserve `eval` semantics, and after garbage collection the unique
//! tables must contain exactly the live reachable nodes (offline-safe, no
//! external property-testing framework).

use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, NodeRef, Var};
use polis_core::random::Rng;

const NVARS: usize = 8;

/// A random two-literal-term expression folded into an accumulator.
fn random_function(b: &mut Bdd, vars: &[Var], rng: &mut Rng) -> NodeRef {
    let mut f = if rng.bool() {
        NodeRef::TRUE
    } else {
        NodeRef::FALSE
    };
    let terms = 3 + rng.usize(0..6);
    for _ in 0..terms {
        let a = b.var(vars[rng.usize(0..vars.len())]);
        let c = b.var(vars[rng.usize(0..vars.len())]);
        let t = match rng.usize(0..3) {
            0 => b.and(a, c),
            1 => b.or(a, c),
            _ => b.xor(a, c),
        };
        f = match rng.usize(0..3) {
            0 => b.and(f, t),
            1 => b.or(f, t),
            _ => b.xor(f, t),
        };
    }
    f
}

fn truth_table(b: &Bdd, f: NodeRef) -> Vec<bool> {
    (0..1u32 << NVARS)
        .map(|bits| b.eval(f, |v: Var| bits & (1 << v.0) != 0))
        .collect()
}

#[test]
fn random_sift_schedules_preserve_eval() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(0x4ec_1a1 ^ seed.wrapping_mul(0x9e37));
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..NVARS).map(|i| b.new_var(format!("v{i}"))).collect();
        let roots: Vec<NodeRef> = (0..2)
            .map(|_| random_function(&mut b, &vars, &mut rng))
            .collect();
        let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&b, f)).collect();

        for round in 0..6 {
            match rng.usize(0..3) {
                0 => b.swap_levels(rng.usize(0..NVARS - 1), &roots),
                1 => {
                    b.sift(&roots, &SiftConfig::single_pass());
                }
                _ => {
                    b.sift(&roots, &SiftConfig::to_convergence());
                }
            }
            // A lone swap and a sift run the same kernel; either must
            // leave the rebuilt tables, the free-list and the arena
            // consistent.
            b.check_canonical();
            for (f, table) in roots.iter().zip(&tables) {
                assert_eq!(
                    truth_table(&b, *f),
                    *table,
                    "seed {seed}, round {round}: schedule changed the function"
                );
            }
        }
        // Hash-consing must still be canonical after the whole schedule.
        let a = b.var(vars[0]);
        let c = b.var(vars[1]);
        let f1 = b.and(a, c);
        let f2 = b.and(c, a);
        assert_eq!(f1, f2, "seed {seed}: canonicity lost after sifting");
    }
}

#[test]
fn unique_entries_equal_live_reachable_after_gc() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0x6c_0ff ^ seed.wrapping_mul(0x51ed));
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..NVARS).map(|i| b.new_var(format!("v{i}"))).collect();
        let keep = random_function(&mut b, &vars, &mut rng);
        let _garbage = random_function(&mut b, &vars, &mut rng);
        b.gc(&[keep]);
        let live = b.size(&[keep]) as u64;
        assert_eq!(
            b.stats().unique_entries,
            live,
            "seed {seed}: unique tables out of sync with reachable nodes after gc"
        );
        assert_eq!(b.allocated_nodes() as u64, live, "seed {seed}");

        // Sifting garbage-collects first and reclaims in place, so the
        // invariant must also hold right after a convergence sift.
        b.sift(&[keep], &SiftConfig::to_convergence());
        let live = b.size(&[keep]) as u64;
        assert_eq!(
            b.stats().unique_entries,
            live,
            "seed {seed}: unique tables out of sync after sifting"
        );
        assert_eq!(b.allocated_nodes() as u64, live, "seed {seed}");
    }
}

#[test]
fn sifting_reclaims_dead_swap_nodes() {
    // Interleaved-pair worst order: sifting reshapes the graph heavily, so
    // swap-time reclamation must recycle nodes instead of growing the arena.
    let mut b = Bdd::new();
    let pairs = 6;
    let evens: Vec<Var> = (0..pairs)
        .map(|i| b.new_var(format!("x{}", 2 * i)))
        .collect();
    let odds: Vec<Var> = (0..pairs)
        .map(|i| b.new_var(format!("x{}", 2 * i + 1)))
        .collect();
    let mut f = NodeRef::FALSE;
    for i in 0..pairs {
        let a = b.var(evens[i]);
        let c = b.var(odds[i]);
        let t = b.and(a, c);
        f = b.or(f, t);
    }
    let after = b.sift(&[f], &SiftConfig::to_convergence());
    let stats = b.stats();
    assert!(stats.reclaimed_nodes > 0, "sifting must reclaim dead nodes");
    assert_eq!(
        b.allocated_nodes(),
        after,
        "arena must hold exactly the live nodes after sifting"
    );
    assert_eq!(after, b.size(&[f]));
    assert!(
        stats.peak_live_nodes < 4 * (1 << pairs),
        "reclamation must bound the arena high-water mark (peak {})",
        stats.peak_live_nodes
    );
}
