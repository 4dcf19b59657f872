//! Frontier-based symbolic reachability to a fixpoint.
//!
//! Classic BFS image computation: `Reached₀ = Frontier₀ = Init`, then
//! repeatedly `New = ⋃ Image(step, Frontier) ∖ Reached` over the
//! partitioned relation until the frontier empties. Each iteration
//! computes `New` in one memoized descent over (frontier, reached)
//! instead of one full image per partition plus a union over them:
//!
//! * a partition's *footprint* is every variable its relation, its
//!   quantification cubes or its rename map mention, and its *top* is
//!   the highest level in the footprint;
//! * above its top a partition neither reads nor writes the split
//!   variable, so its image of `mk(v, lo, hi)` is `mk(v, img(lo),
//!   img(hi))`;
//! * at each (frontier node, reached node) pair the descent applies the
//!   partitions whose top it has reached, each minus the cofactored
//!   reached set, ORs the results, and rebuilds the node over the
//!   descent into both cofactors for every partition whose top lies
//!   deeper.
//!
//! The root is `⋃ imgs ∖ reached`, the same function (hence the same
//! canonical handle) as a union of full images minus the reached set,
//! so onion rings, iterations, reached states and verdicts do not depend
//! on how the image is assembled. The part of the frontier above a
//! partition's top is rebuilt once for all partitions instead of once
//! each, and the full images are never alive together. The descent's
//! memo outlives the iteration, since successive frontiers and reached
//! sets share most of their subgraphs; every collection and reorder
//! drops it.
//!
//! Each partition application is one fused kernel recursion that
//! subtracts the cofactored reached set inside it, so no full image is
//! ever built: the environment image is [`Bdd::exists_set`], the
//! reaction image is [`Bdd::and_exists_rename`] with the step's
//! relation, whose test and action variables the model quantified out at
//! build, over the consumed current-state block. Below the last level a
//! partition quantifies or renames, both kernels hand the rest to
//! [`Bdd::and_not`] in the shared cache, so the part of the frontier
//! outside a partition's footprint is subtracted once for all
//! partitions and iterations. The results merge with a plain
//! [`Bdd::or`].
//!
//! Every phase of an iteration (image descent, frontier, the stats-only
//! frontier size walks, GC, sift) adds its wall time to
//! [`VerifyStats::phases`]; the descent's work is
//! counted in [`VerifyStats::descent_nodes`],
//! [`VerifyStats::env_applications`] and
//! [`VerifyStats::react_applications`].
//!
//! Two further reductions keep the working set small:
//!
//! * the frontier handed to the next sweep is minimized against the
//!   reached set's don't-care space with [`Bdd::constrain`] — any
//!   function between `New ∖ Reached` and `Reached'` yields the same
//!   image frontier, so the generalized cofactor picks a smaller
//!   representative without changing any per-iteration reached set;
//! * when the live set, as a collection leaves it, outgrows
//!   [`VerifyOptions::reorder_threshold`] (or the doubled mark of the
//!   last sift), the manager is sifted between iterations under the
//!   model's group constraints (flag cur/next rails and ctrl cur+next
//!   blocks stay contiguous), and every partition's top is re-derived
//!   from the new order.
//!
//! The arena is bounded by [`VerifyOptions::node_budget`]: once per
//! iteration, after the descent and the frontier update, the allocation
//! level is checked, dead nodes are reclaimed against the persistent
//! roots, and if the live set alone exceeds the budget the traversal
//! aborts with [`VerifyError::NodeBudgetExceeded`] instead of growing
//! without bound. The descent's memo holds intermediates no root
//! reaches, so no collection runs inside it.

use crate::model::{EnvStep, NetworkModel, ReactStep};
use crate::trace::TraceRings;
use crate::{VerifyError, VerifyOptions, VerifyStats};
use polis_bdd::{Bdd, GcTrigger, NodeRef, Var};
use std::collections::HashMap;
use std::time::Instant;

/// One machine-reaction image minus `reached`: a single relational
/// product with the step's pre-quantified relation over the consumed
/// current-state block, built directly on the current rail with the
/// reached set dropped inside the recursion ([`Bdd::and_exists_rename`]).
/// (Renaming once per iteration after the union was tried and discarded:
/// the mixed-rail intermediate unions blow up.)
fn react_image(bdd: &mut Bdd, step: &ReactStep, from: NodeRef, reached: NodeRef) -> NodeRef {
    bdd.and_exists_rename(from, step.relation, step.cur_cube, &step.rename, reached)
}

/// One partition of the transition relation.
#[derive(Clone, Copy)]
enum Step<'m> {
    /// The environment delivers a primary input.
    Env(&'m EnvStep),
    /// A machine reacts.
    React(&'m ReactStep),
}

/// A partition with the variables it touches.
struct Part<'m> {
    step: Step<'m>,
    /// Every variable the step's relation or quantification cube mentions
    /// (a reaction's cube holds its rename targets, and a rename source
    /// the relation does not mention never occurs in a state set), sorted
    /// and deduplicated.
    footprint: Vec<Var>,
    /// The highest level in `footprint` under the current order
    /// (`num_vars()` for an empty footprint).
    top: usize,
}

/// The image descent over the partitioned relation, run once per
/// iteration.
struct Descent<'m> {
    /// Every partition, in ascending top order.
    parts: Vec<Part<'m>>,
    /// `(frontier node, reached node, first pending partition)` → the
    /// union of the pending partitions' images minus the reached node.
    /// An entry depends only on its key, the partitions and the order,
    /// so it serves every later iteration too: successive frontiers and
    /// reached sets share most of their subgraphs. Neither keys nor
    /// values are rooted, so every collection and every reorder clears
    /// it ([`Descent::forget`]).
    memo: HashMap<(NodeRef, NodeRef, usize), NodeRef>,
    env_applications: u64,
    react_applications: u64,
}

impl<'m> Descent<'m> {
    /// The partitions `steps` with their footprints, topped under `bdd`'s
    /// current order (a stable sort, so equal tops keep `steps`' order).
    fn new(bdd: &Bdd, steps: impl IntoIterator<Item = Step<'m>>) -> Descent<'m> {
        let part = |step| {
            let roots = match step {
                Step::Env(s) => vec![s.cube],
                Step::React(s) => vec![s.relation, s.cur_cube],
            };
            let mut footprint: Vec<Var> = roots.iter().flat_map(|&f| bdd.support(f)).collect();
            footprint.sort_unstable();
            footprint.dedup();
            Part {
                step,
                footprint,
                top: 0,
            }
        };
        let mut descent = Descent {
            parts: steps.into_iter().map(part).collect(),
            memo: HashMap::new(),
            env_applications: 0,
            react_applications: 0,
        };
        descent.retop(bdd);
        descent
    }

    /// Re-derives every partition's top from `bdd`'s current order and
    /// re-sorts the partitions by it. Must follow every reorder: with a
    /// stale top the descent would split on a footprint variable.
    fn retop(&mut self, bdd: &Bdd) {
        self.forget();
        for part in &mut self.parts {
            part.top = part
                .footprint
                .iter()
                .map(|&v| bdd.level(v))
                .min()
                .unwrap_or(bdd.num_vars());
        }
        self.parts.sort_by_key(|part| part.top);
    }

    /// Drops the memo; must follow every collection, which may free and
    /// then reuse the nodes of its keys and values.
    fn forget(&mut self) {
        self.memo.clear();
    }

    /// `⋃ img(frontier) ∖ reached` over every partition, adding this
    /// descent's counters to `stats`.
    fn image(
        &mut self,
        bdd: &mut Bdd,
        frontier: NodeRef,
        reached: NodeRef,
        stats: &mut VerifyStats,
    ) -> NodeRef {
        let memoized = self.memo.len();
        let new = self.descend(bdd, frontier, reached, 0);
        stats.image_steps += self.parts.len() as u64;
        stats.descent_nodes += (self.memo.len() - memoized) as u64;
        stats.env_applications += std::mem::take(&mut self.env_applications);
        stats.react_applications += std::mem::take(&mut self.react_applications);
        new
    }

    /// The union of the images of `n` under partitions `k..`, minus `r`.
    /// Every partition before `k` has been applied above, and `n` and `r`
    /// sit below the last split.
    fn descend(&mut self, bdd: &mut Bdd, n: NodeRef, r: NodeRef, k: usize) -> NodeRef {
        if n.is_false() || r.is_true() || k == self.parts.len() {
            return NodeRef::FALSE;
        }
        if let Some(&new) = self.memo.get(&(n, r, k)) {
            return new;
        }
        let level = bdd.node_level(n).min(bdd.node_level(r));
        // Partitions whose top lies at or above this level are applied
        // here; the rest never touch the variable at `level`.
        let deeper = k + self.parts[k..].partition_point(|part| part.top <= level);
        let mut new = NodeRef::FALSE;
        for i in k..deeper {
            let img = match self.parts[i].step {
                Step::Env(step) => {
                    self.env_applications += 1;
                    bdd.exists_set(n, step.cube, r)
                }
                Step::React(step) => {
                    self.react_applications += 1;
                    react_image(bdd, step, n, r)
                }
            };
            new = bdd.or(new, img);
        }
        if deeper < self.parts.len() {
            let (n0, n1) = bdd.cofactors_at_level(n, level);
            let (r0, r1) = bdd.cofactors_at_level(r, level);
            let hi = self.descend(bdd, n1, r1, deeper);
            let lo = self.descend(bdd, n0, r0, deeper);
            let split = bdd.node_at_level(level, lo, hi);
            new = bdd.or(new, split);
        }
        self.memo.insert((n, r, k), new);
        new
    }
}

/// The verifier's garbage-pressure trigger, capped at the node budget.
/// Collections never fire below 2^18 nodes, so small and mid-size models
/// keep their op caches warm for the whole traversal (every seed example
/// and the relay chains up to width 8 stay under it); after one, the next
/// is armed at 4× the live size. A reorder threshold below 2^18 lowers
/// that floor to itself: only a collection measures the live set the
/// mid-reach sift compares with the threshold.
fn gc_trigger(opts: &VerifyOptions) -> GcTrigger {
    GcTrigger::new((1 << 18).min(opts.reorder_threshold), 4).capped_at(opts.node_budget)
}

/// Reclaims dead nodes and errors out if the live set still exceeds the
/// budget. `persistent` are the model's fixed roots (relation, init,
/// cubes, enabling conditions); `live` are the traversal's working roots.
///
/// Besides the hard budget, the garbage-pressure `trigger` (see
/// [`gc_trigger`]) bounds the peak arena: the dead majority is collected
/// as soon as allocation crosses its mark instead of lingering until the
/// budget is hit. Collection never changes any
/// function a handle denotes, so reached sets and verdicts are untouched.
///
/// `rings` are the stored trace onion (shed first when the live set alone
/// busts the budget — traces degrade before the traversal aborts).
/// Returns whether it collected, which frees every node no root reaches.
fn enforce_budget(
    bdd: &mut Bdd,
    opts: &VerifyOptions,
    stats: &mut VerifyStats,
    trigger: &mut GcTrigger,
    persistent: &[NodeRef],
    live: &[NodeRef],
    rings: &mut Option<TraceRings>,
) -> Result<bool, VerifyError> {
    let start = Instant::now();
    let ring_roots = rings.as_ref().map_or(&[][..], TraceRings::roots);
    let roots = persistent.iter().chain(live).chain(ring_roots).copied();
    if !trigger.collect(bdd, roots) {
        return Ok(false);
    }
    stats.mid_reach_collections += 1;
    if bdd.allocated_nodes() > opts.node_budget && rings.is_some() {
        // Graceful degradation: the onion rings are diagnostic-only
        // state, so shed them (later property checks fall back to
        // cube-only witnesses) before giving up on the traversal. The
        // arena is still past the ceiling, so the trigger collects again.
        *rings = None;
        trigger.collect(bdd, persistent.iter().chain(live).copied());
        stats.mid_reach_collections += 1;
    }
    stats.phases.gc += start.elapsed();
    let live_now = bdd.allocated_nodes();
    if live_now > opts.node_budget {
        return Err(VerifyError::NodeBudgetExceeded {
            budget: opts.node_budget,
            allocated: live_now,
            iteration: stats.iterations,
            image_steps: stats.image_steps,
        });
    }
    Ok(true)
}

/// Runs the traversal to a fixpoint, filling `stats`, and returns the
/// reachable set over the model's current-state variables plus — when
/// [`VerifyOptions::trace_rings`] is on — the frontier onion rings the
/// trace walker consumes. Ring storage never changes the reached sets,
/// iteration counts, or verdicts: rings are the `raw` new-state sets the
/// loop computes anyway, merely kept as extra GC/sift roots.
pub(crate) fn fixpoint(
    model: &mut NetworkModel,
    opts: &VerifyOptions,
    stats: &mut VerifyStats,
) -> Result<(NodeRef, Option<TraceRings>), VerifyError> {
    // The partitioned relation never changes during traversal; snapshot
    // its roots once so every reclamation keeps the step BDDs alive.
    let persistent = model.persistent_roots();
    let sift_cfg = model.sift_config();
    let base = model.bdd.stats();
    let mut reached = model.init;
    let mut frontier = model.init;
    let mut rings = opts.trace_rings.then(|| TraceRings {
        rings: vec![model.init],
        complete: true,
    });
    let bdd = &mut model.bdd;
    let steps = model.env_steps.iter().map(Step::Env);
    let mut descent = Descent::new(bdd, steps.chain(model.react_steps.iter().map(Step::React)));
    // The sift mark. The traversal sifts when the live set, as a
    // collection leaves it, passes the mark; the arena between
    // collections is mostly garbage and says nothing about the order.
    // Each sift at least doubles the mark, so a traversal that simply
    // *stays* large after one reorder does not sift again, and a run
    // sifts at most ⌊log2(peak live / threshold)⌋ + 1 times.
    let mut next_reorder = opts.reorder_threshold;
    let mut trigger = gc_trigger(opts);
    while !frontier.is_false() {
        stats.iterations += 1;
        let start = Instant::now();
        let raw = descent.image(bdd, frontier, reached, stats);
        stats.phases.image += start.elapsed();
        if let Some(r) = &mut rings {
            // `raw` is exactly the states first reached this iteration —
            // the next onion ring. Past the cap the prefix stays valid
            // (the walker just cannot serve targets beyond it).
            if r.rings.len() < opts.max_trace_rings {
                r.rings.push(raw);
            } else {
                r.complete = false;
            }
        }
        // `raw` is the exact frontier; any superset of it inside the
        // updated reached set images to the same new states, so constrain
        // it against the pre-update complement to let it shrink into the
        // don't-care space (reached sets stay bit-identical).
        let start = Instant::now();
        let unseen = bdd.not(reached);
        reached = bdd.or(reached, raw);
        frontier = bdd.constrain(raw, unseen);
        stats.constrain_calls += 1;
        stats.phases.frontier += start.elapsed();
        let start = Instant::now();
        let raw_size = bdd.size(&[raw]) as u64;
        let fsize = bdd.size(&[frontier]) as u64;
        stats.constrain_reduced_nodes += raw_size.saturating_sub(fsize);
        stats.frontier_sizes.push(fsize);
        stats.peak_frontier_nodes = stats.peak_frontier_nodes.max(fsize);
        stats.phases.measure += start.elapsed();
        let collected = enforce_budget(
            bdd,
            opts,
            stats,
            &mut trigger,
            &persistent,
            &[reached, frontier],
            &mut rings,
        )?;
        if collected {
            descent.forget();
        }
        if collected && bdd.allocated_nodes() > next_reorder {
            let mut roots = persistent.clone();
            roots.push(reached);
            roots.push(frontier);
            if let Some(r) = &rings {
                roots.extend_from_slice(r.roots());
            }
            let start = Instant::now();
            bdd.sift(&roots, &sift_cfg);
            descent.retop(bdd);
            stats.phases.sift += start.elapsed();
            stats.mid_reach_reorders += 1;
            next_reorder = next_reorder.max(bdd.allocated_nodes()).saturating_mul(2);
        }
    }
    let delta = diff_stats(&base, &bdd.stats());
    stats.andex_lookups = delta.0;
    stats.andex_hits = delta.1;
    stats.cube_quant_calls = delta.2;
    stats.reached_nodes = bdd.size(&[reached]) as u64;
    stats.peak_live_nodes = bdd.stats().peak_live_nodes;
    stats.reached_states = count_states(model, reached);
    Ok((reached, rings))
}

/// Kernel-counter deltas attributable to this traversal:
/// `(andex_lookups, andex_hits, cube_quant_calls)`.
fn diff_stats(base: &polis_bdd::BddStats, now: &polis_bdd::BddStats) -> (u64, u64, u64) {
    (
        now.andex_lookups - base.andex_lookups,
        now.andex_hits - base.andex_hits,
        now.cube_quant_calls - base.cube_quant_calls,
    )
}

/// Number of distinct product states in `set`, a set over the
/// current-state variables: its satisfying assignments counted over
/// those variables alone, so auxiliary variables cannot overflow it.
pub(crate) fn count_states(model: &NetworkModel, set: NodeRef) -> Option<u128> {
    model.bdd.checked_sat_count_over(set, &model.state_vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::tests::{oneshot, toggler_pair, token_ring};
    use polis_cfsm::Network;
    use polis_core::random::{random_network, RandomSpec};

    /// The traversal before the image descent and before any image step
    /// was fused: one full image per partition, environment images as
    /// `exists_cube` then `and`, reaction images as `and_exists` over
    /// the tests with `χ`, `and_exists` over the actions and the consumed
    /// block with the updates, then `rename` (never the model's
    /// pre-quantified relation), a balanced OR tree over them, and
    /// `raw = new ∖ reached` last. Kept only as an independent oracle for [`fixpoint`]'s
    /// descent and its two fused kernel operations, each of which
    /// subtracts the reached set inside its recursion. `keep` are extra GC
    /// roots, so handles of an earlier run on the same manager stay valid
    /// for comparison.
    fn reference_fixpoint(
        model: &mut NetworkModel,
        opts: &VerifyOptions,
        keep: &[NodeRef],
    ) -> Result<(NodeRef, Option<TraceRings>, VerifyStats), VerifyError> {
        let persistent = model.persistent_roots();
        let mut stats = VerifyStats::default();
        let mut trigger = gc_trigger(opts);
        let mut reached = model.init;
        let mut frontier = model.init;
        let mut rings = opts.trace_rings.then(|| TraceRings {
            rings: vec![model.init],
            complete: true,
        });
        while !frontier.is_false() {
            stats.iterations += 1;
            let mut live = vec![reached, frontier];
            live.extend_from_slice(keep);
            let bdd = &mut model.bdd;
            let mut imgs = Vec::new();
            for step in &model.env_steps {
                let quantified = bdd.exists_cube(frontier, step.cube);
                imgs.push(bdd.and(quantified, step.cube));
            }
            for (step, mv) in model.react_steps.iter().zip(&model.vars) {
                let a = bdd.and_exists(frontier, step.chi_fire, step.tests_cube);
                let acts_cur = bdd.cube(mv.acts.iter().copied());
                let acts_cur = bdd.and(acts_cur, step.cur_cube);
                let a = bdd.and_exists(a, step.update_clear, acts_cur);
                imgs.push(bdd.rename(a, &step.rename));
            }
            stats.image_steps += imgs.len() as u64;
            while imgs.len() > 1 {
                let mut next = Vec::new();
                for pair in imgs.chunks(2) {
                    next.push(if pair.len() == 2 {
                        model.bdd.or(pair[0], pair[1])
                    } else {
                        pair[0]
                    });
                }
                imgs = next;
                let roots = [&live[..], &imgs].concat();
                enforce_budget(
                    &mut model.bdd,
                    opts,
                    &mut stats,
                    &mut trigger,
                    &persistent,
                    &roots,
                    &mut rings,
                )?;
            }
            let new = imgs.pop().unwrap_or(NodeRef::FALSE);
            let raw = model.bdd.and_not(new, reached);
            if let Some(r) = &mut rings {
                if r.rings.len() < opts.max_trace_rings {
                    r.rings.push(raw);
                } else {
                    r.complete = false;
                }
            }
            let unseen = model.bdd.not(reached);
            reached = model.bdd.or(reached, raw);
            frontier = model.bdd.constrain(raw, unseen);
            live[..2].copy_from_slice(&[reached, frontier]);
            enforce_budget(
                &mut model.bdd,
                opts,
                &mut stats,
                &mut trigger,
                &persistent,
                &live,
                &mut rings,
            )?;
        }
        stats.reached_states = count_states(model, reached);
        Ok((reached, rings, stats))
    }

    /// Runs [`fixpoint`] under `opts` (with rings) and then the reference
    /// at the default budget on one manager, and asserts they agree count
    /// by count and verdict by verdict, and ring by ring unless the
    /// descent run shed its rings under `opts.node_budget`. Returns the
    /// descent run's stats and whether it kept its rings, or `None` when
    /// it aborted.
    fn agrees_with_reference(net: &Network, opts: &VerifyOptions) -> Option<(VerifyStats, bool)> {
        let mut model = NetworkModel::build(net);
        let mut stats = VerifyStats::default();
        let (reached, rings) = fixpoint(&mut model, opts, &mut stats).ok()?;
        let mut keep = rings.as_ref().map_or(Vec::new(), |r| r.rings.clone());
        keep.push(reached);
        let ref_opts = VerifyOptions {
            node_budget: VerifyOptions::default().node_budget,
            ..*opts
        };
        let (ref_reached, ref_rings, ref_stats) = reference_fixpoint(&mut model, &ref_opts, &keep)
            .expect("the reference completes at the default budget");
        let ref_rings = ref_rings.expect("the reference keeps its rings");
        let name = net.name();
        if let Some(rings) = &rings {
            assert_eq!(
                rings.rings.len(),
                ref_rings.rings.len(),
                "{name}: ring count"
            );
            assert_eq!(rings.complete, ref_rings.complete, "{name}: ring cap");
            for (i, (&a, &b)) in rings.rings.iter().zip(&ref_rings.rings).enumerate() {
                assert!(model.bdd.xor(a, b).is_false(), "{name}: ring {i} differs");
            }
        }
        assert!(
            model.bdd.xor(reached, ref_reached).is_false(),
            "{name}: reached"
        );
        assert_eq!(
            (stats.iterations, stats.image_steps, stats.reached_states),
            (
                ref_stats.iterations,
                ref_stats.image_steps,
                ref_stats.reached_states
            ),
            "{name}: traversal counts"
        );
        let mut verdicts = |reached, rings| {
            (
                checks::lost_events(&mut model, net, reached),
                checks::dead_transitions(&mut model, net, reached),
                checks::deadlock(&mut model, net, reached, rings),
            )
        };
        // A run without rings is compared on cube witnesses.
        let kept = rings.is_some();
        let new_verdicts = verdicts(reached, rings.as_ref());
        let ref_verdicts = verdicts(ref_reached, kept.then_some(&ref_rings));
        assert_eq!(new_verdicts, ref_verdicts, "{name}");
        Some((stats, kept))
    }

    /// The example networks plus seeded relay networks of 3 to
    /// `max_machines` machines.
    fn oracle_networks(max_machines: usize) -> Vec<Network> {
        let mut nets = vec![token_ring(), toggler_pair(), oneshot()];
        for n in 3..=max_machines {
            nets.push(random_network(n, &RandomSpec::default(), 0x5eed ^ n as u64));
        }
        nets
    }

    #[test]
    fn fused_fixpoint_matches_the_unfused_reference() {
        let opts = VerifyOptions {
            trace_rings: true,
            ..VerifyOptions::default()
        };
        for net in oracle_networks(8) {
            assert!(
                matches!(agrees_with_reference(&net, &opts), Some((_, true))),
                "{}: default budget must complete with rings",
                net.name()
            );
        }
    }

    #[test]
    fn fused_fixpoint_matches_the_unfused_reference_under_collections() {
        // Budgets below the unconstrained peak make the descent run's
        // once-per-iteration check collect; at least one such budget
        // must complete, and with its rings unless the peak is within
        // one node of the floor. The budgets lie between the persistent
        // floor (the model alone, as its build leaves the arena) and the
        // peak: no run fits below the floor, and the smallest networks'
        // floors fill most of their peaks. `oneshot` (floor 14, peak 15)
        // sheds its rings at every budget that makes it collect, so its
        // collecting run is compared on counts and verdicts alone.
        for net in oracle_networks(8) {
            let opts = VerifyOptions {
                trace_rings: true,
                ..VerifyOptions::default()
            };
            let mut stats = VerifyStats::default();
            let mut model = NetworkModel::build(&net);
            let floor = model.bdd.allocated_nodes();
            fixpoint(&mut model, &opts, &mut stats).unwrap();
            let peak = stats.peak_live_nodes as usize;
            let collected = [(1, 2), (2, 3), (3, 4), (9, 10)]
                .map(|(num, den)| floor + (peak - floor) * num / den)
                .into_iter()
                .chain([peak - 1])
                .filter_map(|node_budget| {
                    agrees_with_reference(
                        &net,
                        &VerifyOptions {
                            node_budget,
                            ..opts
                        },
                    )
                })
                .filter(|(stats, _)| stats.mid_reach_collections > 0)
                .map(|(_, kept)| kept)
                .collect::<Vec<bool>>();
            let name = net.name();
            assert!(
                !collected.is_empty(),
                "{name}: no budget between floor {floor} and peak {peak} completed with fused-run collections",
            );
            assert!(
                collected.contains(&true) || peak <= floor + 1,
                "{name}: every collecting run between floor {floor} and peak {peak} shed its rings",
            );
        }
    }

    #[test]
    fn descent_matches_the_reference_under_mid_reach_sifting() {
        // A threshold of one node sifts at the first collection (the
        // threshold lowers the collector's floor to one node) and again
        // whenever a collection finds the live set past the doubled
        // mark, so the descent must re-derive every partition's top from
        // each new order. Each run sifts at most ⌊log2(peak live /
        // threshold)⌋ + 1 times, since the mark at least doubles per
        // sift. At a threshold of 4096 nothing sifts: the live sets of
        // these networks, rings included, stay under 2,400 nodes, while
        // the larger relay networks' arenas, garbage included, peak at
        // up to 9,100 and pass the mark every iteration or two.
        for reorder_threshold in [1, 4096] {
            let opts = VerifyOptions {
                trace_rings: true,
                reorder_threshold,
                ..VerifyOptions::default()
            };
            for net in oracle_networks(8) {
                let name = net.name();
                let Some((stats, true)) = agrees_with_reference(&net, &opts) else {
                    panic!("{name}: must complete with rings at threshold {reorder_threshold}");
                };
                let peak = stats.peak_live_nodes as usize;
                let bound = if peak > reorder_threshold {
                    (peak / reorder_threshold).ilog2() as u64 + 1
                } else {
                    0
                };
                let reorders = stats.mid_reach_reorders;
                assert!(
                    reorders <= bound,
                    "{name}: {reorders} sifts at threshold {reorder_threshold}, peak {peak}",
                );
                if reorder_threshold == 1 {
                    assert!(reorders > 0, "{name}: no sift");
                } else {
                    assert_eq!(reorders, 0, "{name}: sifted below the threshold");
                }
            }
        }
    }

    #[test]
    fn descent_does_not_depend_on_partition_order() {
        // The reference's rings, re-derived one by one by a descent over
        // the reversed partition list: env steps now come after the
        // reactions, so equal tops apply in the opposite order too.
        let opts = VerifyOptions {
            trace_rings: true,
            ..VerifyOptions::default()
        };
        for net in oracle_networks(8) {
            let name = net.name();
            let mut model = NetworkModel::build(&net);
            let (_, rings, _) = reference_fixpoint(&mut model, &opts, &[]).unwrap();
            let rings = rings.expect("the reference keeps its rings").rings;
            let env = model.env_steps.iter().map(Step::Env);
            let steps: Vec<Step> = env
                .chain(model.react_steps.iter().map(Step::React))
                .collect();
            let mut descent = Descent::new(&model.bdd, steps.into_iter().rev());
            let mut stats = VerifyStats::default();
            let mut reached = NodeRef::FALSE;
            for (i, pair) in rings.windows(2).enumerate() {
                reached = model.bdd.or(reached, pair[0]);
                let new = descent.image(&mut model.bdd, pair[0], reached, &mut stats);
                assert_eq!(new, pair[1], "{name}: ring {}", i + 1);
            }
            assert!(rings.last().is_some_and(|r| r.is_false()), "{name}");
        }
    }
}
