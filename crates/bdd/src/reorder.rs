//! Dynamic variable reordering by sifting (Rudell, ICCAD'93), as used in
//! Section III-B3b of the paper.
//!
//! The s-graph synthesis flow constrains reordering in two ways:
//!
//! * **precedence** — an output variable of the reactive function must not
//!   sift above any input in its support ("we must add the constraint that no
//!   output can sift before any input in its support");
//! * **groups** — the bits encoding one multi-valued CFSM variable must stay
//!   adjacent and keep their relative order, so that the s-graph can regroup
//!   them into a single multi-way TEST or ASSIGN.
//!
//! Both are expressed through [`SiftConfig`]. The implementation uses
//! in-place adjacent level swaps, so [`NodeRef`] handles remain valid across
//! reordering.
//!
//! A sift runs in sift mode: the unique tables are suspended, each
//! variable's nodes sit in a plain list, and a swap rewrites two lists,
//! freeing the nodes it orphans. The tables are rebuilt once at the end.
//! [`Bdd::swap_levels`] is one such swap in a sift mode of its own, so
//! every level swap runs the same kernel.
//!
//! Each block's walk starts from a saved copy of the node store. Rather
//! than swap the block back across positions it has already measured, the
//! sift jumps back to its start by restoring that copy, which puts every
//! node back where it was. So a sift holds a second copy of the store while
//! it runs; the copy is freed when the sift ends.

use crate::{Bdd, NodeRef, StoreSnapshot, UniqueTable, Var};

/// Constraints and options for [`Bdd::sift`].
#[derive(Debug, Clone, Default)]
pub struct SiftConfig {
    /// `(a, b)` requires `a` to stay *above* `b` (closer to the root) in the
    /// order. Used for "output after its support".
    pub precedence: Vec<(Var, Var)>,
    /// Each group is a list of variables that must remain contiguous, in the
    /// given top-to-bottom order. Variables not mentioned form singleton
    /// groups. Used for the bits of multi-valued variables.
    pub groups: Vec<Vec<Var>>,
    /// Maximum number of sift passes; sifting stops earlier when a pass
    /// yields no improvement. The paper uses a single pass
    /// ("single-pass dynamic variable ordering (sift)").
    pub max_passes: usize,
}

impl SiftConfig {
    /// A single unconstrained sifting pass.
    pub fn single_pass() -> SiftConfig {
        SiftConfig {
            max_passes: 1,
            ..SiftConfig::default()
        }
    }

    /// Sift until convergence (no improvement in a full pass).
    pub fn to_convergence() -> SiftConfig {
        SiftConfig {
            max_passes: usize::MAX,
            ..SiftConfig::default()
        }
    }
}

impl Bdd {
    /// Swaps the variables at `level` and `level + 1` in place, as one
    /// step of a sift does.
    ///
    /// Like [`Bdd::sift`], it first collects every node not reachable from
    /// `roots`; handles reachable from them remain valid and keep denoting
    /// the same functions. The operation cache is invalidated, and nodes
    /// orphaned by the rewrite are freed at once.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars()`.
    pub fn swap_levels(&mut self, level: usize, roots: &[NodeRef]) {
        assert!(
            level + 1 < self.num_vars(),
            "swap_levels: level {level} out of range"
        );
        self.gc(roots);
        self.sift_begin(roots);
        self.swap_kernel(level);
        self.sift_end();
    }

    /// Swaps the variables at `level` and `level + 1` in sift mode. With
    /// x the upper variable and y the lower one, the nodes of x and of y
    /// are rewritten for the order with y on top in three phases, on the
    /// two variables' node lists:
    ///
    /// 1. the x-nodes with a y-child leave x's list, and their four
    ///    cofactors over (x, y) are read and referenced;
    /// 2. their old children are dropped: every y-node whose count reaches
    ///    zero goes onto the free-list, and nothing below y can die,
    ///    because its cofactors are held;
    /// 3. the new x-nodes are made through a find-or-insert map that starts
    ///    with the x-nodes that stay, each moved node is rewritten in place
    ///    as a y-node, the held references are released, and y's list
    ///    drops its dead nodes and takes the moved ones.
    ///
    /// Every free comes before any allocation, so the allocated count never
    /// exceeds its value at either end of the swap.
    fn swap_kernel(&mut self, level: usize) {
        let x = self.var_at_level[level];
        let y = self.var_at_level[level + 1];
        let mut xs = std::mem::take(&mut self.lists[x as usize]);
        let mut ys = std::mem::take(&mut self.lists[y as usize]);
        self.swap_count += 1;
        let mut moved = std::mem::take(&mut self.swap_moved);
        moved.clear();

        // Phase 1. The cofactors of n = x ? hi : lo are
        // f_{x=a, y=b} = (a ? hi : lo)|_{y=b}. The lo edge may carry the
        // complement bit, so its parity is pushed onto its children; the hi
        // edge is regular by canonical form, so f11 stays regular and with
        // it the new hi edge.
        let (var_col, lo_col, hi_col) = (&self.var_col, &self.lo_col, &self.hi_col);
        xs.retain(|&n| {
            let (lo, hi) = (lo_col[n.idx()], hi_col[n.idx()]);
            let (lo_y, hi_y) = (var_col[lo.idx()] == y, var_col[hi.idx()] == y);
            if !lo_y && !hi_y {
                return true;
            }
            let p = lo.parity();
            let (f00, f01) = if lo_y {
                (
                    lo_col[lo.idx()].xor_parity(p),
                    hi_col[lo.idx()].xor_parity(p),
                )
            } else {
                (lo, lo)
            };
            let (f10, f11) = if hi_y {
                (lo_col[hi.idx()], hi_col[hi.idx()])
            } else {
                (hi, hi)
            };
            moved.push((n, [f00, f01, f10, f11]));
            false
        });
        self.swap_rewrites += moved.len() as u64;

        for &(n, cofactors) in &moved {
            for f in cofactors {
                self.rc_inc(f);
            }
            // Phase 2, for this node's old children. Interleaving it with
            // phase 1 is safe: a y-node dies only when its last x-parent
            // drops it, and that parent already holds the y-node's
            // children as its cofactors.
            let i = n.idx();
            for c in [self.lo_col[i], self.hi_col[i]] {
                if c.is_terminal() || self.rc_dec(c) > 0 {
                    continue;
                }
                let ci = c.idx();
                debug_assert_eq!(self.var_col[ci], y, "a node below y died");
                let (lo, hi) = (self.lo_col[ci], self.hi_col[ci]);
                self.free_push(ci);
                self.reclaimed_nodes += 1;
                for g in [lo, hi] {
                    if !g.is_terminal() {
                        let left = self.rc_dec(g);
                        debug_assert!(left > 0, "a cofactor died");
                    }
                }
            }
        }

        // Phase 3. After the swap y is on top:
        // n = y ? (x ? f11 : f01) : (x ? f10 : f00).
        let mut map = std::mem::take(&mut self.swap_map);
        map.reset(xs.len() + 2 * moved.len());
        for &n in xs.iter() {
            map.find_or_insert(self.lo_col[n.idx()], self.hi_col[n.idx()], || n);
        }
        for &(n, [f00, f01, f10, f11]) in &moved {
            let new_lo = self.swap_child(&mut map, &mut xs, x, f00, f10);
            let new_hi = self.swap_child(&mut map, &mut xs, x, f01, f11);
            debug_assert_ne!(new_lo, new_hi, "swap produced a redundant node");
            debug_assert_eq!(new_hi.parity(), 0, "swap produced a complemented hi edge");
            let i = n.idx();
            self.var_col[i] = y;
            self.lo_col[i] = new_lo;
            self.hi_col[i] = new_hi;
            self.rc_inc(new_lo);
            self.rc_inc(new_hi);
            for f in [f00, f01, f10, f11] {
                if !f.is_terminal() {
                    let left = self.rc_dec(f);
                    debug_assert!(left > 0, "a cofactor died");
                }
            }
        }
        let var_col = &self.var_col;
        ys.retain(|&m| var_col[m.idx()] == y);
        ys.extend(moved.iter().map(|&(n, _)| n));
        self.swap_map = map;
        self.swap_moved = moved;
        self.lists[x as usize] = xs;
        self.lists[y as usize] = ys;
        self.set_level(x, level as u32 + 1);
        self.set_level(y, level as u32);
        self.clear_cache();
        #[cfg(test)]
        {
            self.boundary_peak = self.boundary_peak.max(self.allocated_nodes());
        }
    }

    /// The x-node `x ? hi : lo` for phase 3 of [`Bdd::swap_kernel`]:
    /// canonicalized as `mk` would, found in or added to `map`, and listed
    /// in `xs` and counted when new.
    fn swap_child(
        &mut self,
        map: &mut UniqueTable,
        xs: &mut Vec<NodeRef>,
        x: u32,
        lo: NodeRef,
        hi: NodeRef,
    ) -> NodeRef {
        if lo == hi {
            return lo;
        }
        let p = hi.parity();
        let (lo, hi) = (lo.xor_parity(p), hi.xor_parity(p));
        map.find_or_insert(lo, hi, || {
            let n = self.alloc_node(x, lo, hi);
            self.rc_set(n, 0);
            self.rc_inc(lo);
            self.rc_inc(hi);
            xs.push(n);
            n
        })
        .xor_parity(p)
    }

    /// Sifts variables to (heuristically) minimize the number of nodes
    /// reachable from `roots`, honoring the precedence and grouping
    /// constraints in `config`. Returns the resulting size.
    ///
    /// Handles in `roots` (and any other handle reachable from them) remain
    /// valid. Unreachable nodes are garbage-collected first.
    ///
    /// # Panics
    ///
    /// Panics if a group's variables are not currently contiguous and in the
    /// listed order, or if the constraints are contradictory (a precedence
    /// cycle between groups).
    pub fn sift(&mut self, roots: &[NodeRef], config: &SiftConfig) -> usize {
        self.gc(roots);
        if self.num_vars() < 2 {
            return self.size(roots);
        }
        let mut layout = BlockLayout::new(self, config);
        // After gc the arena holds exactly the nodes reachable from `roots`,
        // and swap-time reclamation keeps it that way, so sifting can
        // measure size as the O(1) allocation count instead of traversing.
        self.sift_begin(roots);
        let mut best = self.allocated_nodes();
        let mut saved = SavedStart::default();
        let passes = config.max_passes.max(1);
        for _ in 0..passes {
            let before = best;
            best = self.sift_pass(&mut layout, &mut saved, best);
            if best >= before {
                break;
            }
        }
        drop(saved);
        self.sift_end();
        // Sifting rewrites nodes in place; in debug builds, re-verify the
        // whole-arena invariants (no complemented hi edges, unique-table
        // consistency, free-list tiling) before handing handles back.
        if cfg!(debug_assertions) {
            self.check_canonical();
        }
        best
    }

    /// One sifting pass over every block, largest first.
    fn sift_pass(
        &mut self,
        layout: &mut BlockLayout,
        saved: &mut SavedStart,
        mut best: usize,
    ) -> usize {
        // Per-variable live node counts (to choose the sift order) are just
        // the list lengths: reclamation keeps the lists exact.
        let per_var: Vec<usize> = self.lists.iter().map(Vec::len).collect();
        let mut block_weight: Vec<(usize, usize)> = (0..layout.num_blocks())
            .map(|b| {
                let w = layout.block_vars[b]
                    .iter()
                    .map(|&v| per_var[v as usize])
                    .sum::<usize>();
                (b, w)
            })
            .collect();
        block_weight.sort_by_key(|&(_, w)| std::cmp::Reverse(w));

        for (block, weight) in block_weight {
            if weight == 0 {
                continue;
            }
            best = self.sift_block(layout, saved, block, best);
        }
        best
    }

    /// Moves one block through its feasible window and leaves it at the best
    /// position found.
    ///
    /// The store and the block sequence are saved at the start. The block
    /// walks to the nearer end of its window, jumps back to the start by
    /// restoring the save, and walks to the far end, measuring after each
    /// single-position move, so every position is measured once. It then
    /// goes to the smallest size: back along the far leg when the best
    /// position lies on it and that crosses no more variables than walking
    /// out from the start again, else by restoring and walking out.
    ///
    /// Ties resolve by position alone: `start` if it is smallest, else the
    /// nearest smallest position below it (later in the sequence), else the
    /// nearest one above it. So the block lands where a walk down first,
    /// then up, keeping each strict improvement, leaves it; only the swap
    /// count differs.
    fn sift_block(
        &mut self,
        layout: &mut BlockLayout,
        saved: &mut SavedStart,
        block: usize,
        mut best: usize,
    ) -> usize {
        let start = layout.position(block);
        let (lb, ub) = layout.feasible_window(block);
        debug_assert!((lb..=ub).contains(&start));
        if lb == ub {
            return best;
        }
        // `(size, rank)` of a position: the smaller pair wins.
        let rank = |pos: usize| match pos.cmp(&start) {
            std::cmp::Ordering::Equal => (0, 0),
            std::cmp::Ordering::Greater => (1, pos - start),
            std::cmp::Ordering::Less => (2, start - pos),
        };
        saved.save(self, layout);
        let mut best_pos = start;
        let mut pos = start;
        let (near, far) = if start - lb < ub - start {
            (lb, ub)
        } else {
            (ub, lb)
        };
        for end in [near, far] {
            if pos != start {
                saved.restore(self, layout);
                pos = start;
            }
            while pos != end {
                pos = layout.step_towards(self, pos, end);
                let s = self.allocated_nodes();
                if (s, rank(pos)) < (best, rank(best_pos)) {
                    best = s;
                    best_pos = pos;
                }
            }
        }
        // The far leg is never empty, so the block is off `start` here.
        let on_far_leg = best_pos != start && (best_pos > start) == (far > start);
        if !on_far_leg
            || layout.crossed_vars(&layout.seq, pos, best_pos)
                > layout.crossed_vars(&saved.seq, start, best_pos)
        {
            saved.restore(self, layout);
            pos = start;
        }
        while pos != best_pos {
            pos = layout.step_towards(self, pos, best_pos);
        }
        best
    }
}

/// The store and block sequence at the start of one block's sift, to jump
/// back to instead of swapping the block back across measured positions.
#[derive(Default)]
struct SavedStart {
    store: StoreSnapshot,
    seq: Vec<usize>,
}

impl SavedStart {
    fn save(&mut self, bdd: &Bdd, layout: &BlockLayout) {
        bdd.save_store(&mut self.store);
        self.seq.clone_from(&layout.seq);
    }

    fn restore(&self, bdd: &mut Bdd, layout: &mut BlockLayout) {
        bdd.restore_store(&self.store);
        layout.seq.clone_from(&self.seq);
    }
}

/// The arrangement of variables into contiguous blocks during sifting.
struct BlockLayout {
    /// `block -> vars top-to-bottom` (fixed internal order).
    block_vars: Vec<Vec<u32>>,
    /// Current block sequence, root-most first.
    seq: Vec<usize>,
    /// `precedes[a][b]` — block `a` must stay above block `b`.
    precedes: Vec<Vec<bool>>,
}

impl BlockLayout {
    fn new(bdd: &Bdd, config: &SiftConfig) -> BlockLayout {
        let nvars = bdd.num_vars();
        let mut group_of = vec![usize::MAX; nvars];
        let mut block_vars: Vec<Vec<u32>> = Vec::new();
        for group in &config.groups {
            let id = block_vars.len();
            let mut vars = Vec::new();
            for (i, &v) in group.iter().enumerate() {
                assert!(
                    group_of[v.index()] == usize::MAX,
                    "variable {v} appears in two groups"
                );
                group_of[v.index()] = id;
                if i > 0 {
                    assert_eq!(
                        bdd.level(v),
                        bdd.level(group[i - 1]) + 1,
                        "group variables must be contiguous and in order before sifting"
                    );
                }
                vars.push(v.0);
            }
            assert!(!vars.is_empty(), "empty variable group");
            block_vars.push(vars);
        }
        for (v, slot) in group_of.iter_mut().enumerate() {
            if *slot == usize::MAX {
                *slot = block_vars.len();
                block_vars.push(vec![v as u32]);
            }
        }
        // Sequence: blocks ordered by the level of their first variable.
        let mut seq: Vec<usize> = (0..block_vars.len()).collect();
        seq.sort_by_key(|&b| bdd.level(Var(block_vars[b][0])));

        let m = block_vars.len();
        let mut precedes = vec![vec![false; m]; m];
        for &(a, b) in &config.precedence {
            let (ba, bb) = (group_of[a.index()], group_of[b.index()]);
            if ba != bb {
                precedes[ba][bb] = true;
            }
        }
        let layout = BlockLayout {
            block_vars,
            seq,
            precedes,
        };
        layout.check_consistent();
        layout
    }

    fn check_consistent(&self) {
        for (i, &a) in self.seq.iter().enumerate() {
            for &b in &self.seq[..i] {
                assert!(
                    !self.precedes[a][b],
                    "initial order violates a sifting precedence constraint \
                     (or the constraints are cyclic)"
                );
            }
        }
    }

    fn num_blocks(&self) -> usize {
        self.seq.len()
    }

    fn position(&self, block: usize) -> usize {
        self.seq.iter().position(|&b| b == block).expect("block")
    }

    fn block_len(&self, block: usize) -> usize {
        self.block_vars[block].len()
    }

    fn start_level(&self, pos: usize) -> usize {
        self.seq[..pos].iter().map(|&b| self.block_len(b)).sum()
    }

    /// Feasible sequence positions `(lb, ub)` for `block` given the current
    /// positions of every other block.
    fn feasible_window(&self, block: usize) -> (usize, usize) {
        let pos = self.position(block);
        let mut lb = 0;
        let mut ub = self.seq.len() - 1;
        for (i, &other) in self.seq.iter().enumerate() {
            if other == block {
                continue;
            }
            if self.precedes[other][block] && i < pos {
                lb = lb.max(i + 1);
            }
            if self.precedes[block][other] && i > pos {
                ub = ub.min(i - 1);
            }
        }
        (lb, ub)
    }

    /// Variables in the blocks a block at `from` in `seq` crosses on its
    /// way to `to`; the level swaps of that walk are this times its length.
    fn crossed_vars(&self, seq: &[usize], from: usize, to: usize) -> usize {
        let crossed = if from < to {
            &seq[from + 1..=to]
        } else {
            &seq[to..from]
        };
        crossed.iter().map(|&b| self.block_len(b)).sum()
    }

    /// Moves the block at `pos` one position towards `end` and returns its
    /// new position.
    fn step_towards(&mut self, bdd: &mut Bdd, pos: usize, end: usize) -> usize {
        if pos < end {
            self.swap_with_next(bdd, pos);
            pos + 1
        } else {
            self.swap_with_next(bdd, pos - 1);
            pos - 1
        }
    }

    /// Swaps the blocks at sequence positions `pos` and `pos + 1` by
    /// repeated adjacent level swaps, preserving both blocks' internal
    /// orders.
    fn swap_with_next(&mut self, bdd: &mut Bdd, pos: usize) {
        let a = self.block_len(self.seq[pos]);
        let b = self.block_len(self.seq[pos + 1]);
        let t = self.start_level(pos);
        // Bubble each variable of the upper block, bottom-most first, down
        // past the lower block.
        for k in 1..=a {
            let from = t + a - k;
            for j in 0..b {
                bdd.swap_kernel(from + j);
            }
        }
        self.seq.swap(pos, pos + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_core::random::Rng;

    /// Builds f = x0·x1 + x2·x3 + x4·x5 under an interleaved-bad order
    /// x0,x2,x4,x1,x3,x5 — the classic example where sifting helps.
    fn bad_order_function() -> (Bdd, NodeRef, Vec<Var>) {
        let mut b = Bdd::new();
        // declaration order = initial level order
        let x0 = b.new_var("x0");
        let x2 = b.new_var("x2");
        let x4 = b.new_var("x4");
        let x1 = b.new_var("x1");
        let x3 = b.new_var("x3");
        let x5 = b.new_var("x5");
        let pairs = [(x0, x1), (x2, x3), (x4, x5)];
        let mut f = NodeRef::FALSE;
        for (a, c) in pairs {
            let fa = b.var(a);
            let fc = b.var(c);
            let t = b.and(fa, fc);
            f = b.or(f, t);
        }
        (b, f, vec![x0, x1, x2, x3, x4, x5])
    }

    /// A random subject in the style of `tests/sift_walk.rs`: a manager
    /// over 6 to 12 variables, `roots` folds of two-literal terms, groups
    /// of adjacent levels and satisfiable precedence pairs.
    fn random_subject(rng: &mut Rng, roots: usize) -> (Bdd, Vec<NodeRef>, SiftConfig) {
        let mut b = Bdd::new();
        let n = rng.usize(6..13);
        let vars: Vec<Var> = (0..n).map(|i| b.new_var(format!("v{i}"))).collect();
        let lit = |b: &mut Bdd, rng: &mut Rng| b.var(vars[rng.usize(0..n)]);
        let roots = (0..roots)
            .map(|_| {
                let mut f = NodeRef::FALSE;
                for _ in 0..4 + rng.usize(0..10) {
                    let (a, c) = (lit(&mut b, rng), lit(&mut b, rng));
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
            })
            .collect();
        let mut groups = Vec::new();
        let mut level = 0;
        while level < n {
            let len = if rng.chance(0.3) { rng.usize(2..4) } else { 1 }.min(n - level);
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

    /// A reference Boolean function evaluated under a variable assignment.
    type Spec<'a> = &'a dyn Fn(&dyn Fn(Var) -> bool) -> bool;

    fn functions_equal(b: &Bdd, f: NodeRef, g: Spec<'_>) -> bool {
        let n = b.num_vars();
        (0..1u32 << n).all(|bits| {
            let assign = |v: Var| bits & (1 << v.0) != 0;
            b.eval(f, assign) == g(&assign)
        })
    }

    #[test]
    fn swap_preserves_function() {
        let (mut b, f, vars) = bad_order_function();
        let spec = |assign: &dyn Fn(Var) -> bool| {
            (assign(vars[0]) && assign(vars[1]))
                || (assign(vars[2]) && assign(vars[3]))
                || (assign(vars[4]) && assign(vars[5]))
        };
        for l in 0..b.num_vars() - 1 {
            b.swap_levels(l, &[f]);
            assert!(functions_equal(&b, f, &spec), "after swap at level {l}");
        }
    }

    #[test]
    fn double_swap_is_identity_on_order() {
        let (mut b, f, _) = bad_order_function();
        let before = b.order();
        b.swap_levels(2, &[f]);
        b.swap_levels(2, &[f]);
        assert_eq!(b.order(), before);
    }

    #[test]
    fn sifting_shrinks_bad_order() {
        let (mut b, f, vars) = bad_order_function();
        let before = b.size(&[f]);
        let after = b.sift(&[f], &SiftConfig::to_convergence());
        assert!(after < before, "sift: {before} -> {after}");
        // Optimal size for the 3-pair function is 6 nodes.
        assert_eq!(after, 6);
        let spec = |assign: &dyn Fn(Var) -> bool| {
            (assign(vars[0]) && assign(vars[1]))
                || (assign(vars[2]) && assign(vars[3]))
                || (assign(vars[4]) && assign(vars[5]))
        };
        assert!(functions_equal(&b, f, &spec));
    }

    #[test]
    fn precedence_constraint_is_honored() {
        let (mut b, f, vars) = bad_order_function();
        // Force x5 to stay below x0 and x2 (as if it were an "output").
        let config = SiftConfig {
            precedence: vec![(vars[0], vars[5]), (vars[2], vars[5])],
            max_passes: 4,
            ..SiftConfig::default()
        };
        b.sift(&[f], &config);
        assert!(b.level(vars[0]) < b.level(vars[5]));
        assert!(b.level(vars[2]) < b.level(vars[5]));
    }

    #[test]
    fn groups_stay_contiguous_and_ordered() {
        let (mut b, f, _) = bad_order_function();
        // Group the originally-adjacent levels 1..=2 (vars x2, x4).
        let g1 = b.var_at(1);
        let g2 = b.var_at(2);
        let config = SiftConfig {
            groups: vec![vec![g1, g2]],
            max_passes: 4,
            ..SiftConfig::default()
        };
        b.sift(&[f], &config);
        assert_eq!(
            b.level(g2),
            b.level(g1) + 1,
            "group must remain contiguous in order"
        );
    }

    #[test]
    fn sift_preserves_other_roots() {
        let mut b = Bdd::new();
        let x = b.new_var("x");
        let y = b.new_var("y");
        let z = b.new_var("z");
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let f = b.and(fx, fy);
        let g = b.xor(fy, fz);
        b.sift(&[f, g], &SiftConfig::to_convergence());
        for bits in 0..8u32 {
            let assign = |v: Var| bits & (1 << v.0) != 0;
            assert_eq!(b.eval(f, assign), assign(x) && assign(y));
            assert_eq!(b.eval(g, assign), assign(y) ^ assign(z));
        }
    }

    #[test]
    #[should_panic(expected = "precedence constraint")]
    fn cyclic_constraints_panic() {
        let mut b = Bdd::new();
        let x = b.new_var("x");
        let y = b.new_var("y");
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.and(fx, fy);
        let config = SiftConfig {
            precedence: vec![(x, y), (y, x)],
            max_passes: 1,
            ..SiftConfig::default()
        };
        b.sift(&[f], &config);
    }

    /// The parity of `vars`, one `xor` at a time.
    fn parity(b: &mut Bdd, vars: &[Var]) -> NodeRef {
        vars.iter().fold(NodeRef::FALSE, |acc, &v| {
            let lit = b.var(v);
            b.xor(acc, lit)
        })
    }

    #[test]
    fn restoring_a_saved_store_brings_back_its_order_and_forgets_later_results() {
        let (mut b, f, vars) = bad_order_function();
        let spec = |assign: &dyn Fn(Var) -> bool| {
            (assign(vars[0]) && assign(vars[1]))
                || (assign(vars[2]) && assign(vars[3]))
                || (assign(vars[4]) && assign(vars[5]))
        };
        b.gc(&[f]);
        let (order, nodes) = (b.order(), b.allocated_nodes());
        let mut snap = StoreSnapshot::default();
        b.sift_begin(&[f]);
        b.save_store(&mut snap);
        b.swap_kernel(2);
        b.swap_kernel(0);
        // Leave sift mode to cache a result built from nodes the restore
        // drops, then put the saved store back in a second sift session.
        b.sift_end();
        parity(&mut b, &vars);
        assert!(b.allocated_nodes() > nodes);
        b.sift_begin(&[f]);
        b.restore_store(&snap);
        assert_eq!((b.order(), b.allocated_nodes()), (order, nodes));
        assert_eq!(b.stats().sift_restores, 1);
        assert!(functions_equal(&b, f, &spec));
        b.check_canonical();
        b.sift_end();
        b.check_canonical();
        let again = parity(&mut b, &vars);
        let xor =
            |assign: &dyn Fn(Var) -> bool| vars.iter().filter(|&&v| assign(v)).count() % 2 == 1;
        assert!(
            functions_equal(&b, again, &xor),
            "a stale cache entry answered"
        );
        b.check_canonical();
    }

    #[test]
    fn a_swap_outside_a_sift_keeps_the_tables_canonical() {
        let (mut b, f, vars) = bad_order_function();
        let spec = |assign: &dyn Fn(Var) -> bool| {
            (assign(vars[0]) && assign(vars[1]))
                || (assign(vars[2]) && assign(vars[3]))
                || (assign(vars[4]) && assign(vars[5]))
        };
        let before = b.order();
        for level in 0..b.num_vars() - 1 {
            let order = b.order();
            b.swap_levels(level, &[f]);
            b.check_canonical();
            // The swap collected first and freed what it orphaned, so the
            // arena holds exactly the nodes of `f`.
            assert_eq!(b.allocated_nodes(), b.size(&[f]), "a swap at {level}");
            assert!(functions_equal(&b, f, &spec), "after a swap at {level}");
            // Every node is still found by hash-consing: rebuilding one
            // from its cofactors returns the very same handle.
            let mut stack = vec![f];
            while let Some(n) = stack.pop() {
                if n.is_terminal() {
                    continue;
                }
                let (top, lo, hi) = (b.node_level(n), b.lo(n), b.hi(n));
                assert_eq!(
                    b.node_at_level(top, lo, hi),
                    n,
                    "mk after a swap at {level}"
                );
                stack.extend([lo, hi]);
            }
            b.swap_levels(level, &[f]);
            b.check_canonical();
            assert_eq!(b.order(), order, "a double swap at {level}");
        }
        assert_eq!(b.order(), before);
        assert!(functions_equal(&b, f, &spec));
    }

    #[test]
    fn a_sift_peaks_at_a_swap_boundary() {
        let mut rng = Rng::new(0x9e4a_c0de);
        let mut swaps = 0;
        for i in 0..60 {
            let seed = rng.next_u64();
            let (mut b, roots, config) = random_subject(&mut Rng::new(seed), 2 + i % 3);
            b.gc(&roots);
            b.reset_peak_live_nodes();
            b.boundary_peak = b.allocated_nodes();
            b.sift(&roots, &config);
            swaps += b.stats().swap_count;
            assert_eq!(
                b.stats().peak_live_nodes,
                b.boundary_peak as u64,
                "subject {i} (seed {seed:#x})"
            );
        }
        assert!(swaps > 1000, "only {swaps} swaps");
    }

    #[test]
    fn swap_with_shared_subgraphs() {
        // Regression-style test: functions sharing nodes across a swapped
        // boundary must stay canonical and correct.
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..4).map(|i| b.new_var(format!("v{i}"))).collect();
        let lits: Vec<NodeRef> = vars.iter().map(|&v| b.var(v)).collect();
        let t01 = b.and(lits[0], lits[1]);
        let t23 = b.and(lits[2], lits[3]);
        let f = b.or(t01, t23);
        let g = b.xor(t01, lits[3]);
        let mut roots = vec![f, g, t01];
        roots.extend(&lits);
        for level in [1, 0, 2] {
            b.swap_levels(level, &roots);
        }
        for bits in 0..16u32 {
            let assign = |v: Var| bits & (1 << v.0) != 0;
            let a: Vec<bool> = (0..4).map(|i| assign(vars[i])).collect();
            assert_eq!(b.eval(f, assign), (a[0] && a[1]) || (a[2] && a[3]));
            assert_eq!(b.eval(g, assign), (a[0] && a[1]) ^ a[3]);
        }
        // Re-doing an operation after swaps must still hash-cons correctly.
        let t01b = b.and(lits[0], lits[1]);
        assert_eq!(b.size(&[t01, t01b]), b.size(&[t01]));
    }
}
