//! Frontier-based symbolic reachability to a fixpoint.
//!
//! Classic BFS image computation: `Reached₀ = Frontier₀ = Init`, then
//! repeatedly `New = ⋃ Image(step, Frontier) ∖ Reached` over the
//! partitioned relation until the frontier empties. The union is a
//! balanced OR tree whose first level already subtracts `Reached`
//! (`(img₂ₖ ∨ img₂ₖ₊₁) ∖ Reached`), so the upper levels only merge
//! genuinely new states instead of large, mostly-reached images; its
//! root is the exact new-state set. Each image applies the
//! early-quantification schedule pre-computed in the step (tests right
//! after `χ`, actions right after the buffer updates, the consumed
//! current-state block last) as fused relational products
//! ([`Bdd::and_exists`]): the conjunct of the frontier with a relation
//! part is quantified on the fly and never materialized.
//!
//! Every phase of an iteration (environment images, relational
//! products, rename, union, frontier, GC, sift) adds its wall time to
//! [`VerifyStats::phases`].
//!
//! Two further reductions keep the working set small:
//!
//! * the frontier handed to the next sweep is minimized against the
//!   reached set's don't-care space with [`Bdd::constrain`] — any
//!   function between `New ∖ Reached` and `Reached'` yields the same
//!   image frontier, so the generalized cofactor picks a smaller
//!   representative without changing any per-iteration reached set;
//! * when live nodes outgrow [`VerifyOptions::reorder_threshold`], the
//!   manager is sifted between iterations under the model's group
//!   constraints (flag cur/next rails and ctrl cur+next blocks stay
//!   contiguous).
//!
//! The arena is bounded by [`VerifyOptions::node_budget`]: after every
//! image the allocation level is checked, dead nodes are reclaimed
//! against the persistent roots, and if the live set alone exceeds the
//! budget the traversal aborts with
//! [`VerifyError::NodeBudgetExceeded`] instead of growing without bound.

use crate::model::{EnvStep, NetworkModel, ReactStep};
use crate::trace::TraceRings;
use crate::{PhaseTimes, VerifyError, VerifyOptions, VerifyStats};
use polis_bdd::{Bdd, NodeRef};
use std::time::Instant;

/// One environment-delivery image: quantify the consumer flags, then set
/// them with the same precomputed cube. Pure current-variable
/// substitution — no renaming needed.
fn env_image(bdd: &mut Bdd, step: &EnvStep, from: NodeRef) -> NodeRef {
    let a = bdd.exists_cube(from, step.cube);
    bdd.and(a, step.cube)
}

/// One machine-reaction image as a chain of two relational products
/// following the early-quantification schedule: tests fall right after
/// `χ`, actions and the consumed current-state block with the fused
/// `update_clear` part, then the next-state rail renamed back onto the
/// current one. (Renaming once per iteration after the union was tried
/// and discarded: the mixed-rail intermediate unions blow up.)
fn react_image(bdd: &mut Bdd, step: &ReactStep, from: NodeRef, phases: &mut PhaseTimes) -> NodeRef {
    let start = Instant::now();
    let a = bdd.and_exists(from, step.chi_fire, step.tests_cube);
    let a = bdd.and_exists(a, step.update_clear, step.acts_cur_cube);
    let renaming = Instant::now();
    phases.products += renaming - start;
    let img = bdd.rename(a, &step.rename);
    phases.rename += renaming.elapsed();
    img
}

/// Collections never fire while the arena is below this level, so small
/// and mid-size models keep their op caches warm for the whole traversal
/// (every seed example and the relay chains up to width 8 stay under it).
const GC_FLOOR: usize = 1 << 18;

/// After a collection the next one is armed at `GC_REGROW ×` the live
/// size (but never below [`GC_FLOOR`]), so a traversal whose live set
/// genuinely approaches the trigger does not thrash collections that
/// can reclaim almost nothing.
const GC_REGROW: usize = 4;

/// Reclaims dead nodes and errors out if the live set still exceeds the
/// budget. `persistent` are the model's fixed roots (relation, init,
/// cubes, enabling conditions); `live` are the traversal's working roots.
///
/// Besides the hard budget, a garbage-pressure policy bounds the peak
/// arena: once allocation crosses the current trigger ([`GC_FLOOR`] to
/// start, re-armed by [`GC_REGROW`] after each collection), the dead
/// majority is collected immediately instead of lingering until the
/// budget (or the reorder threshold) is hit. Collection never changes any
/// function a handle denotes, so reached sets and verdicts are untouched.
///
/// `rings` are the stored trace onion (shed first when the live set alone
/// busts the budget — traces degrade before the traversal aborts).
#[allow(clippy::too_many_arguments)] // three distinct root classes + the sheddable rings
fn enforce_budget(
    bdd: &mut Bdd,
    opts: &VerifyOptions,
    stats: &mut VerifyStats,
    gc_trigger: &mut usize,
    persistent: &[NodeRef],
    live: &[NodeRef],
    working: &[NodeRef],
    rings: &mut Option<TraceRings>,
) -> Result<(), VerifyError> {
    let allocated = bdd.allocated_nodes();
    if allocated <= *gc_trigger && allocated <= opts.node_budget {
        return Ok(());
    }
    let start = Instant::now();
    let mut roots = persistent.to_vec();
    roots.extend_from_slice(live);
    roots.extend_from_slice(working);
    if let Some(r) = rings {
        roots.extend_from_slice(r.roots());
    }
    bdd.gc(&roots);
    stats.mid_reach_collections += 1;
    let mut live_now = bdd.allocated_nodes();
    if live_now > opts.node_budget && rings.is_some() {
        // Graceful degradation: the onion rings are diagnostic-only
        // state, so shed them (later property checks fall back to
        // cube-only witnesses) before giving up on the traversal.
        *rings = None;
        let mut roots = persistent.to_vec();
        roots.extend_from_slice(live);
        roots.extend_from_slice(working);
        bdd.gc(&roots);
        stats.mid_reach_collections += 1;
        live_now = bdd.allocated_nodes();
    }
    stats.phases.gc += start.elapsed();
    if live_now > opts.node_budget {
        return Err(VerifyError::NodeBudgetExceeded {
            budget: opts.node_budget,
            allocated: live_now,
            image_steps: stats.image_steps,
        });
    }
    *gc_trigger = (live_now * GC_REGROW).max(GC_FLOOR);
    Ok(())
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
    // Re-armed after every sift: the next reorder fires only once the
    // arena doubles past the post-sift level, so a traversal that simply
    // *stays* large after one reorder does not sift again on every
    // iteration.
    let mut next_reorder = opts.reorder_threshold;
    let mut gc_trigger = GC_FLOOR;
    while !frontier.is_false() {
        stats.iterations += 1;
        let mut imgs: Vec<NodeRef> =
            Vec::with_capacity(model.env_steps.len() + model.react_steps.len());
        for step in &model.env_steps {
            let start = Instant::now();
            let img = env_image(&mut model.bdd, step, frontier);
            stats.phases.env += start.elapsed();
            imgs.push(img);
            stats.image_steps += 1;
            enforce_budget(
                &mut model.bdd,
                opts,
                stats,
                &mut gc_trigger,
                &persistent,
                &[reached, frontier],
                &imgs,
                &mut rings,
            )?;
        }
        for step in &model.react_steps {
            let img = react_image(&mut model.bdd, step, frontier, &mut stats.phases);
            imgs.push(img);
            stats.image_steps += 1;
            enforce_budget(
                &mut model.bdd,
                opts,
                stats,
                &mut gc_trigger,
                &persistent,
                &[reached, frontier],
                &imgs,
                &mut rings,
            )?;
        }
        // Balanced union instead of a left fold: adjacent partitions
        // share machine locality, and the tree never drags one big
        // accumulator across every remaining image. Each image is mostly
        // states already reached, so the first level subtracts `reached`
        // right away (`(img₂ₖ ∨ img₂ₖ₊₁) ∖ reached`, an odd last image
        // alone) and the upper levels merge only new states. The root is
        // `raw = ⋃ imgs ∖ reached`, the same function (hence the same
        // canonical handle) as subtracting after the full union.
        let mut first_level = true;
        while first_level || imgs.len() > 1 {
            let start = Instant::now();
            let mut next = Vec::with_capacity(imgs.len().div_ceil(2));
            for pair in imgs.chunks(2) {
                let union = if pair.len() == 2 {
                    model.bdd.or(pair[0], pair[1])
                } else {
                    pair[0]
                };
                next.push(if first_level {
                    model.bdd.and_not(union, reached)
                } else {
                    union
                });
            }
            first_level = false;
            imgs = next;
            stats.phases.union += start.elapsed();
            enforce_budget(
                &mut model.bdd,
                opts,
                stats,
                &mut gc_trigger,
                &persistent,
                &[reached, frontier],
                &imgs,
                &mut rings,
            )?;
        }
        let raw = imgs.pop().unwrap_or(NodeRef::FALSE);
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
        let unseen = model.bdd.not(reached);
        reached = model.bdd.or(reached, raw);
        frontier = model.bdd.constrain(raw, unseen);
        stats.constrain_calls += 1;
        let raw_size = model.bdd.size(&[raw]) as u64;
        let fsize = model.bdd.size(&[frontier]) as u64;
        stats.constrain_reduced_nodes += raw_size.saturating_sub(fsize);
        stats.frontier_sizes.push(fsize);
        stats.peak_frontier_nodes = stats.peak_frontier_nodes.max(fsize);
        stats.phases.frontier += start.elapsed();
        enforce_budget(
            &mut model.bdd,
            opts,
            stats,
            &mut gc_trigger,
            &persistent,
            &[reached, frontier],
            &[],
            &mut rings,
        )?;
        if model.bdd.allocated_nodes() > next_reorder {
            let mut roots = persistent.clone();
            roots.push(reached);
            roots.push(frontier);
            if let Some(r) = &rings {
                roots.extend_from_slice(r.roots());
            }
            let start = Instant::now();
            model.bdd.sift(&roots, &sift_cfg);
            stats.phases.sift += start.elapsed();
            stats.mid_reach_reorders += 1;
            next_reorder = (model.bdd.allocated_nodes() * 2).max(opts.reorder_threshold);
        }
    }
    let delta = diff_stats(&base, &model.bdd.stats());
    stats.andex_lookups = delta.0;
    stats.andex_hits = delta.1;
    stats.cube_quant_calls = delta.2;
    stats.reached_nodes = model.bdd.size(&[reached]) as u64;
    stats.peak_live_nodes = model.bdd.stats().peak_live_nodes;
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

/// Number of distinct product states in `set`: the satisfying-assignment
/// count scaled down by the auxiliary (non-state) variables the set does
/// not depend on.
pub(crate) fn count_states(model: &NetworkModel, set: NodeRef) -> Option<u128> {
    let total = model.bdd.checked_sat_count(set)?;
    let aux = model.bdd.num_vars() - model.state_vars.len();
    if aux >= 128 {
        // More auxiliary variables than u128 bits: the scaled count is 0
        // or the total overflowed anyway; give up rather than mis-shift.
        return None;
    }
    Some(total >> aux)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::tests::{oneshot, toggler_pair, token_ring};
    use polis_cfsm::Network;
    use polis_core::random::{random_network, RandomSpec};

    /// The traversal before the union subtracted `reached`: union every
    /// image, then `raw = new ∖ reached`. Kept only as an oracle for
    /// [`fixpoint`]. `keep` are extra GC roots, so handles of an earlier
    /// run on the same manager stay valid for comparison.
    fn reference_fixpoint(
        model: &mut NetworkModel,
        opts: &VerifyOptions,
        keep: &[NodeRef],
    ) -> Result<(NodeRef, Option<TraceRings>, VerifyStats), VerifyError> {
        let persistent = model.persistent_roots();
        let mut stats = VerifyStats::default();
        let mut gc_trigger = GC_FLOOR;
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
            let mut imgs = Vec::new();
            for step in &model.env_steps {
                imgs.push(env_image(&mut model.bdd, step, frontier));
            }
            for step in &model.react_steps {
                imgs.push(react_image(
                    &mut model.bdd,
                    step,
                    frontier,
                    &mut stats.phases,
                ));
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
                enforce_budget(
                    &mut model.bdd,
                    opts,
                    &mut stats,
                    &mut gc_trigger,
                    &persistent,
                    &live,
                    &imgs,
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
                &mut gc_trigger,
                &persistent,
                &live,
                &[],
                &mut rings,
            )?;
        }
        stats.reached_states = count_states(model, reached);
        Ok((reached, rings, stats))
    }

    /// Runs [`fixpoint`] and then the reference on one manager and asserts
    /// they agree ring by ring, count by count and verdict by verdict.
    /// Returns the collections both runs made, or `None` when either run
    /// aborted or shed its rings under `opts.node_budget`.
    fn agrees_with_reference(net: &Network, opts: &VerifyOptions) -> Option<u64> {
        let mut model = NetworkModel::build(net);
        let mut stats = VerifyStats::default();
        let (reached, rings) = fixpoint(&mut model, opts, &mut stats).ok()?;
        let rings = rings?;
        let mut keep = rings.rings.clone();
        keep.push(reached);
        let (ref_reached, ref_rings, ref_stats) =
            reference_fixpoint(&mut model, opts, &keep).ok()?;
        let ref_rings = ref_rings?;
        let name = net.name();
        assert_eq!(
            rings.rings.len(),
            ref_rings.rings.len(),
            "{name}: ring count"
        );
        assert_eq!(rings.complete, ref_rings.complete, "{name}: ring cap");
        for (i, (&a, &b)) in rings.rings.iter().zip(&ref_rings.rings).enumerate() {
            assert!(model.bdd.xor(a, b).is_false(), "{name}: ring {i} differs");
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
                checks::deadlock(&mut model, net, reached, Some(rings)),
            )
        };
        let new_verdicts = verdicts(reached, &rings);
        assert_eq!(new_verdicts, verdicts(ref_reached, &ref_rings), "{name}");
        Some(stats.mid_reach_collections + ref_stats.mid_reach_collections)
    }

    /// The example networks plus seeded relay networks of 3–8 machines.
    fn oracle_networks() -> Vec<Network> {
        let mut nets = vec![token_ring(), toggler_pair(), oneshot()];
        for n in 3..=8 {
            nets.push(random_network(n, &RandomSpec::default(), 0x5eed ^ n as u64));
        }
        nets
    }

    #[test]
    fn subtracting_in_the_union_matches_the_reference_traversal() {
        let opts = VerifyOptions {
            trace_rings: true,
            ..VerifyOptions::default()
        };
        for net in oracle_networks() {
            assert!(
                agrees_with_reference(&net, &opts).is_some(),
                "{}: default budget must complete with rings",
                net.name()
            );
        }
    }

    #[test]
    fn subtracting_in_the_union_matches_the_reference_under_collections() {
        // Budgets below the unconstrained peak make every over-budget
        // check collect, including those between union levels.
        for net in oracle_networks() {
            let opts = VerifyOptions {
                trace_rings: true,
                ..VerifyOptions::default()
            };
            let mut stats = VerifyStats::default();
            let mut model = NetworkModel::build(&net);
            fixpoint(&mut model, &opts, &mut stats).unwrap();
            let peak = stats.peak_live_nodes as usize;
            let collected = [peak / 2, peak * 2 / 3, peak * 3 / 4, peak * 9 / 10]
                .into_iter()
                .filter_map(|node_budget| {
                    agrees_with_reference(
                        &net,
                        &VerifyOptions {
                            node_budget,
                            ..opts
                        },
                    )
                })
                .any(|gcs| gcs > 0);
            assert!(
                collected,
                "{}: no budget below peak {peak} completed with collections",
                net.name()
            );
        }
    }
}
