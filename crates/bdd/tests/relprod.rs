//! Property-style tests for the relational-product kernel: `and_exists`,
//! `exists_cube`/`forall_cube`, `constrain`, and `and_not` against their
//! defining identities, and the fused image steps (`exists_set`,
//! `and_exists_rename`, `or_and_not`) against their unfused
//! compositions, over deterministically seeded random function pairs at
//! several variable counts (offline-safe, no external property-testing
//! framework).

use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, NodeRef, Var};
use polis_core::random::Rng;

const VAR_COUNTS: [usize; 3] = [4, 6, 9];
const CASES: u64 = 48;

/// A random function over `vars` as a depth-bounded operator tree.
fn gen_fn(rng: &mut Rng, bdd: &mut Bdd, vars: &[Var], depth: usize) -> NodeRef {
    if depth == 0 || rng.chance(0.2) {
        return if rng.chance(0.15) {
            bdd.constant(rng.bool())
        } else {
            let v = vars[rng.usize(0..vars.len())];
            if rng.bool() {
                bdd.var(v)
            } else {
                bdd.nvar(v)
            }
        };
    }
    let a = gen_fn(rng, bdd, vars, depth - 1);
    let b = gen_fn(rng, bdd, vars, depth - 1);
    match rng.usize(0..4) {
        0 => bdd.and(a, b),
        1 => bdd.or(a, b),
        2 => bdd.xor(a, b),
        _ => {
            let c = gen_fn(rng, bdd, vars, depth - 1);
            bdd.ite(a, b, c)
        }
    }
}

/// A random non-empty variable subset of `vars`.
fn gen_subset(rng: &mut Rng, vars: &[Var]) -> Vec<Var> {
    let mut out: Vec<Var> = vars.iter().copied().filter(|_| rng.bool()).collect();
    if out.is_empty() {
        out.push(vars[rng.usize(0..vars.len())]);
    }
    out
}

/// One seeded case: a manager, its variables, two random functions, and a
/// random quantification subset.
fn setup(nvars: usize, case: u64) -> (Bdd, Vec<Var>, NodeRef, NodeRef, Vec<Var>) {
    let mut rng = Rng::new(0x9e3779b97f4a7c15 ^ (nvars as u64) << 32 ^ case.wrapping_mul(0x9e37));
    let mut bdd = Bdd::new();
    let vars: Vec<Var> = (0..nvars).map(|i| bdd.new_var(format!("x{i}"))).collect();
    let depth = 2 + (case % 4) as usize;
    let f = gen_fn(&mut rng, &mut bdd, &vars, depth);
    let g = gen_fn(&mut rng, &mut bdd, &vars, depth);
    let subset = gen_subset(&mut rng, &vars);
    (bdd, vars, f, g, subset)
}

#[test]
fn cube_is_the_conjunction_of_its_literals() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, _, _, subset) = setup(nvars, case);
            let c = bdd.cube(subset.iter().copied());
            let lits: Vec<NodeRef> = subset.iter().map(|&v| bdd.var(v)).collect();
            let expect = bdd.and_all(lits);
            assert_eq!(c, expect, "nvars={nvars} case={case}");
            // Duplicates collapse.
            let doubled = bdd.cube(subset.iter().chain(subset.iter()).copied());
            assert_eq!(doubled, c, "nvars={nvars} case={case}");
        }
    }
}

/// `∃v. f` by Shannon expansion: `f|v=0 ∨ f|v=1`.
fn exists_by_expansion(bdd: &mut Bdd, f: NodeRef, v: Var) -> NodeRef {
    let f0 = bdd.restrict(f, v, false);
    let f1 = bdd.restrict(f, v, true);
    bdd.or(f0, f1)
}

/// `∀v. f` by Shannon expansion: `f|v=0 ∧ f|v=1`.
fn forall_by_expansion(bdd: &mut Bdd, f: NodeRef, v: Var) -> NodeRef {
    let f0 = bdd.restrict(f, v, false);
    let f1 = bdd.restrict(f, v, true);
    bdd.and(f0, f1)
}

#[test]
fn exists_cube_matches_per_variable_exists() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, _, subset) = setup(nvars, case);
            let c = bdd.cube(subset.iter().copied());
            let single = bdd.exists_cube(f, c);
            let folded = subset
                .iter()
                .fold(f, |acc, &v| exists_by_expansion(&mut bdd, acc, v));
            assert_eq!(single, folded, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn forall_cube_matches_per_variable_forall() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, _, subset) = setup(nvars, case);
            let c = bdd.cube(subset.iter().copied());
            let single = bdd.forall_cube(f, c);
            let folded = subset
                .iter()
                .fold(f, |acc, &v| forall_by_expansion(&mut bdd, acc, v));
            assert_eq!(single, folded, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn and_exists_equals_exists_cube_of_the_conjunction() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, g, subset) = setup(nvars, case);
            let c = bdd.cube(subset.iter().copied());
            let fused = bdd.and_exists(f, g, c);
            let conj = bdd.and(f, g);
            let expect = bdd.exists_cube(conj, c);
            assert_eq!(fused, expect, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn constrain_agrees_with_f_on_the_care_set() {
    // The defining property of the generalized cofactor:
    // constrain(f, c) ∧ c == f ∧ c (for satisfiable c).
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, c, _) = setup(nvars, case);
            if c.is_false() {
                assert!(bdd.constrain(f, c).is_false());
                continue;
            }
            let k = bdd.constrain(f, c);
            let lhs = bdd.and(k, c);
            let rhs = bdd.and(f, c);
            assert_eq!(lhs, rhs, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn constrain_over_a_positive_cube_is_the_cofactor() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, _, subset) = setup(nvars, case);
            let c = bdd.cube(subset.iter().copied());
            let k = bdd.constrain(f, c);
            let cof = subset.iter().fold(f, |acc, &v| bdd.restrict(acc, v, true));
            assert_eq!(k, cof, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn and_not_is_conjunction_with_negation() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, g, _) = setup(nvars, case);
            let direct = bdd.and_not(f, g);
            let ng = bdd.not(g);
            let expect = bdd.and(f, ng);
            assert_eq!(direct, expect, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn exists_cube_over_an_iterator_built_cube_matches_folded_exists() {
    // The migration target for the removed `exists_all(f, vars)` wrapper:
    // `exists_cube(f, cube(vars))` must behave identically, including on
    // duplicate-bearing iterators the wrapper used to accept.
    let (mut bdd, _, f, _, subset) = setup(6, 7);
    let c = bdd.cube(subset.iter().chain(subset.iter()).copied());
    let single = bdd.exists_cube(f, c);
    let folded = subset
        .iter()
        .fold(f, |acc, &v| exists_by_expansion(&mut bdd, acc, v));
    assert_eq!(single, folded);
}

/// Substitution oracle: `rename(f, pairs)` must equal
/// `∃ sources (f ∧ ⋀ (s ↔ t))` whenever sources are distinct and targets
/// are fresh — the textbook relational encoding of simultaneous renaming.
fn rename_oracle(bdd: &mut Bdd, f: NodeRef, pairs: &[(Var, Var)]) -> NodeRef {
    let mut conj = f;
    for &(s, t) in pairs {
        let vs = bdd.var(s);
        let vt = bdd.var(t);
        let x = bdd.xor(vs, vt);
        let eq = bdd.not(x);
        conj = bdd.and(conj, eq);
    }
    let c = bdd.cube(pairs.iter().map(|&(s, _)| s));
    bdd.exists_cube(conj, c)
}

#[test]
fn order_preserving_rename_matches_the_substitution_oracle() {
    // Targets declared after the sources in the same relative order, so
    // every call takes the shape-preserving `mk` rebuild.
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, vars, f, _, _) = setup(nvars, case);
            let targets: Vec<Var> = (0..nvars).map(|i| bdd.new_var(format!("y{i}"))).collect();
            let pairs: Vec<(Var, Var)> =
                vars.iter().copied().zip(targets.iter().copied()).collect();
            let renamed = bdd.rename(f, &pairs);
            let expect = rename_oracle(&mut bdd, f, &pairs);
            assert_eq!(renamed, expect, "nvars={nvars} case={case}");
            // A second call goes through the cross-call cache entries and
            // must agree with the first.
            assert_eq!(bdd.rename(f, &pairs), renamed, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn order_reversing_rename_matches_the_substitution_oracle() {
    // Targets assigned in reverse, breaking level monotonicity, so rebuilt
    // nodes take the general `ite` branch.
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, vars, f, _, _) = setup(nvars, case);
            let targets: Vec<Var> = (0..nvars).map(|i| bdd.new_var(format!("y{i}"))).collect();
            let pairs: Vec<(Var, Var)> = vars
                .iter()
                .copied()
                .zip(targets.iter().rev().copied())
                .collect();
            let renamed = bdd.rename(f, &pairs);
            let expect = rename_oracle(&mut bdd, f, &pairs);
            assert_eq!(renamed, expect, "nvars={nvars} case={case}");
        }
    }
}

#[test]
fn rename_through_many_maps_matches_the_oracle_and_is_memoized() {
    // Every substitution map is interned, however many one manager sees:
    // 80 distinct maps from 4 sources into 12 fresh targets. An immediate
    // repeat hits the root's cache entry and builds nothing; each result
    // is then checked against the oracle.
    let (mut bdd, vars, f, g, _) = setup(4, 3);
    let targets: Vec<Var> = (0..12).map(|i| bdd.new_var(format!("t{i}"))).collect();
    let mut rng = Rng::new(0x5eed_0a11);
    let mut maps: Vec<Vec<(Var, Var)>> = Vec::new();
    while maps.len() < 80 {
        let mut pool = targets.clone();
        let pairs: Vec<(Var, Var)> = vars
            .iter()
            .map(|&s| (s, pool.swap_remove(rng.usize(0..pool.len()))))
            .collect();
        if !maps.contains(&pairs) {
            maps.push(pairs);
        }
    }
    for (m, pairs) in maps.iter().enumerate() {
        for h in [f, g] {
            let renamed = bdd.rename(h, pairs);
            let mk_calls = bdd.mk_calls();
            assert_eq!(bdd.rename(h, pairs), renamed, "map {m} repeated");
            assert_eq!(bdd.mk_calls(), mk_calls, "map {m} not memoized");
            let expect = rename_oracle(&mut bdd, h, pairs);
            assert_eq!(renamed, expect, "map {m}");
        }
    }
}

#[test]
fn mixed_order_rename_takes_both_branches_in_one_recursion() {
    // x0→y0 and x1→y1 keep their relative order; x2→y3 and x3→y2 swap, so
    // the x0/x1 nodes are rebuilt with `mk` and the x2 nodes need `ite`.
    let mut bdd = Bdd::new();
    let x: Vec<Var> = (0..4).map(|i| bdd.new_var(format!("x{i}"))).collect();
    let y: Vec<Var> = (0..4).map(|i| bdd.new_var(format!("y{i}"))).collect();
    let (x0, x1, x2, x3) = (bdd.var(x[0]), bdd.var(x[1]), bdd.var(x[2]), bdd.var(x[3]));
    let a = bdd.and(x0, x1);
    let nx3 = bdd.not(x3);
    let b = bdd.and(x2, nx3);
    let f = bdd.or(a, b);
    let preserving = [(x[0], y[0]), (x[1], y[1]), (x[2], y[2]), (x[3], y[3])];
    let mixed = [(x[0], y[0]), (x[1], y[1]), (x[2], y[3]), (x[3], y[2])];

    // Only the `ite` branch probes the ITE cache.
    let before = bdd.stats().cache_lookups;
    let renamed = bdd.rename(f, &preserving);
    assert_eq!(
        bdd.stats().cache_lookups,
        before,
        "order-preserving map used ite"
    );
    let expect = rename_oracle(&mut bdd, f, &preserving);
    assert_eq!(renamed, expect);

    let before = bdd.stats().cache_lookups;
    let renamed = bdd.rename(f, &mixed);
    assert!(
        bdd.stats().cache_lookups > before,
        "mixed map never used ite"
    );
    let expect = rename_oracle(&mut bdd, f, &mixed);
    assert_eq!(renamed, expect);
    assert_eq!(bdd.node_var(renamed), Some(y[0]));

    // The same map over random functions of all four sources.
    for case in 0..CASES {
        let mut rng = Rng::new(0xa11ce ^ case);
        let h = gen_fn(&mut rng, &mut bdd, &x, 4);
        let renamed = bdd.rename(h, &mixed);
        let expect = rename_oracle(&mut bdd, h, &mixed);
        assert_eq!(renamed, expect, "case={case}");
    }
}

#[test]
fn kernel_counters_advance() {
    let (mut bdd, _, f, g, subset) = setup(6, 11);
    let before = bdd.stats();
    let c = bdd.cube(subset.iter().copied());
    let _ = bdd.and_exists(f, g, c);
    let _ = bdd.exists_cube(f, c);
    let after = bdd.stats();
    assert!(after.cube_quant_calls > before.cube_quant_calls);
    // and_exists on non-trivial operands must at least probe its cache.
    if !f.is_terminal() && !g.is_terminal() && f != g {
        assert!(after.andex_lookups > before.andex_lookups);
    }
    let before_set = bdd.stats().cube_quant_calls;
    let _ = bdd.exists_set(f, c);
    assert_eq!(bdd.stats().cube_quant_calls, before_set + 1);
    let merged = before.merged(&after);
    assert_eq!(
        merged.cube_quant_calls,
        before.cube_quant_calls + after.cube_quant_calls
    );
}

/// Moves the manager off the identity order: sift `roots` to convergence,
/// then swap a few seeded adjacent levels. Handles stay valid and keep
/// their functions; every cache entry is invalidated.
fn scramble(bdd: &mut Bdd, roots: &[NodeRef], seed: u64) {
    let identity: Vec<Var> = (0..bdd.num_vars() as u32).map(Var).collect();
    bdd.sift(roots, &SiftConfig::to_convergence());
    let mut rng = Rng::new(seed ^ 0x51f7);
    for _ in 0..3 {
        bdd.swap_levels(rng.usize(0..bdd.num_vars() - 1));
    }
    if bdd.order() == identity {
        bdd.swap_levels(0);
    }
    assert_ne!(bdd.order(), identity, "scramble left the identity order");
}

/// Runs `fused` twice around a collection that keeps `roots` and the
/// first result, so the repeat goes through the cache entries the
/// collection retained, and checks both results against `expect`.
fn twice_around_gc(
    bdd: &mut Bdd,
    roots: &[NodeRef],
    expect: NodeRef,
    mut fused: impl FnMut(&mut Bdd) -> NodeRef,
    what: &str,
) {
    let first = fused(bdd);
    assert_eq!(first, expect, "{what}");
    let mut keep = roots.to_vec();
    keep.extend([first, expect]);
    bdd.gc(&keep);
    assert_eq!(fused(bdd), first, "{what}: repeat after gc");
}

#[test]
fn exists_set_equals_exists_cube_then_and() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, _, f, g, subset) = setup(nvars, case);
            let c = bdd.cube(subset.iter().copied());
            if case % 2 == 1 {
                scramble(&mut bdd, &[f, g, c], case);
            }
            let (nf, ng) = (bdd.not(f), bdd.not(g));
            for (k, h) in [f, nf, g, ng].into_iter().enumerate() {
                let q = bdd.exists_cube(h, c);
                let expect = bdd.and(q, c);
                let what = format!("nvars={nvars} case={case} operand={k}");
                twice_around_gc(&mut bdd, &[f, g, c], expect, |b| b.exists_set(h, c), &what);
            }
        }
    }
}

#[test]
fn or_and_not_equals_or_then_and_not() {
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, vars, f, g, _) = setup(nvars, case);
            let mut rng = Rng::new(0x0a4d ^ case.wrapping_mul(0x9e37) ^ nvars as u64);
            let r = gen_fn(&mut rng, &mut bdd, &vars, 2 + (case % 4) as usize);
            if case % 2 == 1 {
                scramble(&mut bdd, &[f, g, r], case);
            }
            let (nf, ng, nr) = (bdd.not(f), bdd.not(g), bdd.not(r));
            // Complemented operands and the degenerate shapes the
            // terminal rules catch (equal, complementary, r among a/b).
            let triples = [
                (f, g, r),
                (g, f, r),
                (nf, g, r),
                (f, ng, nr),
                (nf, ng, nr),
                (f, f, r),
                (f, nf, r),
                (f, r, g),
                (f, g, nf),
                (r, g, r),
            ];
            for (k, (a, b, c)) in triples.into_iter().enumerate() {
                let union = bdd.or(a, b);
                let expect = bdd.and_not(union, c);
                let what = format!("nvars={nvars} case={case} triple={k}");
                twice_around_gc(
                    &mut bdd,
                    &[f, g, r],
                    expect,
                    |m| m.or_and_not(a, b, c),
                    &what,
                );
            }
        }
    }
}

#[test]
fn and_exists_rename_equals_and_exists_then_rename() {
    // The image shape: a current rail x and a next rail y interleaved,
    // functions over both, every x quantified (with a random part of y),
    // and y renamed onto x. Odd cases scramble the order first, so some
    // renamed nodes no longer sit above their children and take `ite`.
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let mut rng = Rng::new(0x7a11 ^ (nvars as u64) << 32 ^ case.wrapping_mul(0x9e37));
            let mut bdd = Bdd::new();
            let mut x = Vec::new();
            let mut y = Vec::new();
            for i in 0..nvars {
                x.push(bdd.new_var(format!("x{i}")));
                y.push(bdd.new_var(format!("y{i}")));
            }
            let both: Vec<Var> = x.iter().chain(&y).copied().collect();
            let depth = 2 + (case % 4) as usize;
            let f = gen_fn(&mut rng, &mut bdd, &both, depth);
            let g = gen_fn(&mut rng, &mut bdd, &both, depth);
            let quantified: Vec<Var> = x
                .iter()
                .copied()
                .chain(y.iter().copied().filter(|_| rng.chance(0.3)))
                .collect();
            let c = bdd.cube(quantified);
            let pairs: Vec<(Var, Var)> = y.iter().copied().zip(x.iter().copied()).collect();
            if case % 2 == 1 {
                scramble(&mut bdd, &[f, g, c], case);
            }
            let (nf, ng) = (bdd.not(f), bdd.not(g));
            for (k, (a, b)) in [(f, g), (nf, g), (f, ng), (nf, ng), (f, f)]
                .into_iter()
                .enumerate()
            {
                let product = bdd.and_exists(a, b, c);
                let expect = rename_oracle(&mut bdd, product, &pairs);
                assert_eq!(bdd.rename(product, &pairs), expect);
                let what = format!("nvars={nvars} case={case} operands={k}");
                twice_around_gc(
                    &mut bdd,
                    &[f, g, c],
                    expect,
                    |m| m.and_exists_rename(a, b, c, &pairs),
                    &what,
                );
            }
        }
    }
}

#[test]
fn and_exists_rename_under_an_order_reversing_map_matches_the_oracle() {
    // Fresh targets assigned in reverse order, so rebuilt nodes take the
    // `ite` fallback; the renamed and the plain product of the same
    // operands share the dedicated cache without aliasing.
    for &nvars in &VAR_COUNTS {
        for case in 0..CASES {
            let (mut bdd, vars, f, g, subset) = setup(nvars, case);
            let targets: Vec<Var> = (0..nvars).map(|i| bdd.new_var(format!("y{i}"))).collect();
            let pairs: Vec<(Var, Var)> = vars
                .iter()
                .copied()
                .zip(targets.iter().rev().copied())
                .collect();
            let c = bdd.cube(subset.iter().copied());
            if case % 2 == 1 {
                scramble(&mut bdd, &[f, g, c], case);
            }
            let product = bdd.and_exists(f, g, c);
            let expect = rename_oracle(&mut bdd, product, &pairs);
            let what = format!("nvars={nvars} case={case}");
            twice_around_gc(
                &mut bdd,
                &[f, g, c, product],
                expect,
                |m| m.and_exists_rename(f, g, c, &pairs),
                &what,
            );
            assert_eq!(bdd.and_exists(f, g, c), product, "{what}: plain product");
        }
    }
}
