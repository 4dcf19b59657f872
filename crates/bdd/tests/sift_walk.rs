//! `Bdd::sift` against a reference sift that walks every block down to the
//! bottom of its window first, then up to the top, keeping each strict
//! improvement. The library walks to the nearer end first, jumps back to
//! the block's start by restoring a saved store, and breaks ties by
//! position, so on seeded random functions with groups and precedence
//! pairs it must reach the same order and size, with no more swaps in
//! total. Because the jump puts back a whole store, every root must also
//! keep its truth table, the store must stay canonical, and operations run
//! after the sift must see no stale cache entry.

use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, NodeRef, Var};
use polis_core::random::Rng;
use std::collections::HashSet;

/// A random function over `vars`: a fold of two-literal terms.
fn random_function(b: &mut Bdd, vars: &[Var], rng: &mut Rng) -> NodeRef {
    let mut f = NodeRef::FALSE;
    for _ in 0..4 + rng.usize(0..10) {
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

/// A random subject: a manager over 6 to 12 variables, `roots` roots and
/// sifting constraints. Groups are runs of adjacent levels; each
/// precedence pair keeps two variables in their initial relative order, so
/// the constraints are satisfiable.
fn random_subject(rng: &mut Rng, roots: usize) -> (Bdd, Vec<NodeRef>, SiftConfig) {
    let mut b = Bdd::new();
    let n = rng.usize(6..13);
    let vars: Vec<Var> = (0..n).map(|i| b.new_var(format!("v{i}"))).collect();
    let roots = (0..roots)
        .map(|_| random_function(&mut b, &vars, rng))
        .collect();
    let mut groups = Vec::new();
    let mut level = 0;
    while level < n {
        let len = if rng.chance(0.3) { rng.usize(2..4) } else { 1 };
        let len = len.min(n - level);
        if len > 1 {
            groups.push(vars[level..level + len].to_vec());
        }
        level += len;
    }
    let precedence = (0..rng.usize(0..2 * n))
        .map(|_| {
            let a = rng.usize(0..n - 1);
            (vars[a], vars[rng.usize(a + 1..n)])
        })
        .collect();
    let config = SiftConfig {
        precedence,
        groups,
        max_passes: if rng.bool() { 1 } else { usize::MAX },
    };
    (b, roots, config)
}

/// Nodes reachable from `roots` labelled with each variable.
fn nodes_per_var(b: &Bdd, roots: &[NodeRef]) -> Vec<usize> {
    let mut count = vec![0; b.num_vars()];
    let mut seen = HashSet::new();
    let mut stack = roots.to_vec();
    while let Some(n) = stack.pop() {
        let Some(v) = b.node_var(n) else { continue };
        if seen.insert(n.index() >> 1) {
            count[v.index()] += 1;
            stack.push(b.lo(n));
            stack.push(b.hi(n));
        }
    }
    count
}

/// The reference sift, on the public swap primitive: blocks (groups and
/// singletons) largest first, each walked down to the bottom of its
/// feasible window, then up to the top, then back to the first position
/// that strictly improved on the best size so far.
fn reference_sift(b: &mut Bdd, roots: &[NodeRef], config: &SiftConfig) -> usize {
    b.gc(roots);
    let mut blocks: Vec<Vec<Var>> = config.groups.clone();
    for level in 0..b.num_vars() {
        let v = b.var_at(level);
        if !blocks.iter().flatten().any(|&w| w == v) {
            blocks.push(vec![v]);
        }
    }
    let block_of = |v: Var, blocks: &[Vec<Var>]| blocks.iter().position(|bl| bl.contains(&v));
    let precedes: HashSet<(usize, usize)> = config
        .precedence
        .iter()
        .map(|&(a, c)| (block_of(a, &blocks).unwrap(), block_of(c, &blocks).unwrap()))
        .filter(|(a, c)| a != c)
        .collect();
    let mut seq: Vec<usize> = (0..blocks.len()).collect();
    seq.sort_by_key(|&bl| b.level(blocks[bl][0]));

    // Swaps the blocks at sequence positions `pos` and `pos + 1`.
    let swap = |b: &mut Bdd, seq: &mut Vec<usize>, pos: usize| {
        let top: usize = seq[..pos].iter().map(|&bl| blocks[bl].len()).sum();
        let (upper, lower) = (blocks[seq[pos]].len(), blocks[seq[pos + 1]].len());
        for k in 1..=upper {
            for j in 0..lower {
                b.swap_levels(top + upper - k + j, roots);
            }
        }
        seq.swap(pos, pos + 1);
    };

    let mut best = b.size(roots);
    for _ in 0..config.max_passes.max(1) {
        let before = best;
        let per_var = nodes_per_var(b, roots);
        let mut order: Vec<(usize, usize)> = (0..blocks.len())
            .map(|bl| (bl, blocks[bl].iter().map(|v| per_var[v.index()]).sum()))
            .collect();
        order.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for (bl, weight) in order {
            if weight == 0 {
                continue;
            }
            let start = seq.iter().position(|&x| x == bl).unwrap();
            let mut lb = 0;
            let mut ub = seq.len() - 1;
            for (i, &other) in seq.iter().enumerate() {
                if precedes.contains(&(other, bl)) && i < start {
                    lb = lb.max(i + 1);
                }
                if precedes.contains(&(bl, other)) && i > start {
                    ub = ub.min(i - 1);
                }
            }
            let (mut pos, mut best_pos) = (start, start);
            while pos < ub {
                swap(b, &mut seq, pos);
                pos += 1;
                let s = b.size(roots);
                if s < best {
                    (best, best_pos) = (s, pos);
                }
            }
            while pos > lb {
                swap(b, &mut seq, pos - 1);
                pos -= 1;
                let s = b.size(roots);
                if s < best {
                    (best, best_pos) = (s, pos);
                }
            }
            while pos < best_pos {
                swap(b, &mut seq, pos);
                pos += 1;
            }
        }
        if best >= before {
            break;
        }
    }
    b.clear_cache();
    best
}

#[test]
fn nearer_end_walk_matches_the_down_then_up_reference() {
    let mut rng = Rng::new(0x51f7_3a1c);
    let (mut swaps, mut reference_swaps, mut restores) = (0, 0, 0);
    for i in 0..160 {
        let seed = rng.next_u64();
        let (mut b, roots, config) = random_subject(&mut Rng::new(seed), 2);
        let (mut r, r_roots, _) = random_subject(&mut Rng::new(seed), 2);
        let size = b.sift(&roots, &config);
        let r_size = reference_sift(&mut r, &r_roots, &config);
        let what = format!("subject {i} (seed {seed:#x})");
        assert_eq!(b.order(), r.order(), "{what}: order");
        assert_eq!((size, b.size(&roots)), (r_size, r_size), "{what}: size");
        swaps += b.stats().swap_count;
        reference_swaps += r.stats().swap_count;
        restores += b.stats().sift_restores;
    }
    assert!(
        swaps <= reference_swaps,
        "{swaps} swaps against the reference's {reference_swaps}"
    );
    assert!(restores > 0, "no block jumped back to its start");
}

/// The value of `f` under every assignment of the manager's variables,
/// indexed by the assignment's bits in variable-index order.
fn truth_table(b: &Bdd, f: NodeRef) -> Vec<bool> {
    (0..1u32 << b.num_vars())
        .map(|bits| b.eval(f, |v| bits & (1 << v.0) != 0))
        .collect()
}

#[test]
fn jumping_back_keeps_every_root_a_canonical_store_and_a_fresh_cache() {
    let mut rng = Rng::new(0x0a5c_e7b1);
    let mut restores = 0;
    for i in 0..120 {
        let seed = rng.next_u64();
        let (mut b, roots, config) = random_subject(&mut Rng::new(seed), 3 + i % 3);
        let what = format!("subject {i} (seed {seed:#x})");
        let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&b, f)).collect();
        // Fill the cache with results over the roots before sifting.
        for w in roots.windows(3) {
            b.and(w[0], w[1]);
            b.ite(w[0], w[1], w[2]);
        }
        b.sift(&roots, &config);
        restores += b.stats().sift_restores;
        for (k, (&f, table)) in roots.iter().zip(&tables).enumerate() {
            assert_eq!(&truth_table(&b, f), table, "{what}: root {k}");
        }
        b.check_canonical();
        for (k, w) in roots.windows(3).enumerate() {
            let and = b.and(w[0], w[1]);
            let want: Vec<bool> = (0..tables[k].len())
                .map(|a| tables[k][a] && tables[k + 1][a])
                .collect();
            assert_eq!(truth_table(&b, and), want, "{what}: and at {k}");
            let ite = b.ite(w[0], w[1], w[2]);
            let want: Vec<bool> = (0..want.len())
                .map(|a| {
                    if tables[k][a] {
                        tables[k + 1][a]
                    } else {
                        tables[k + 2][a]
                    }
                })
                .collect();
            assert_eq!(truth_table(&b, ite), want, "{what}: ite at {k}");
        }
        b.check_canonical();
    }
    assert!(restores > 0, "no block jumped back to its start");
}
