//! The two verification workloads.
//!
//! * `verify_deep`: relay chains at the `BENCH_verify.json` seeds
//!   through `Verifier::run` and `report()`: a few long fixpoints.
//! * `verify_wide`: the `polis verify --props` path (`verify_with_props`,
//!   rings on) over the example specs and a seeded batch of small relay
//!   networks, each with a generated suite: many short fixpoints.

use crate::gen::{self, EXAMPLE_SPECS};
use crate::span::Tracer;
use crate::{digest, Counters, Item, Pass};
use polis_cfsm::Network;
use polis_core::random::{random_network, RandomSpec, Rng};
use polis_lang::{parse_properties, parse_spec, PropKind, Property};
use polis_verify::{verify_with_props, PropReport, Verifier, VerifyOptions, VerifyReport};
use std::time::Instant;

/// Verdicts pinned in `BENCH_verify.json` ("current" section):
/// `(case, reached states, lost_possible, dead transitions, deadlock)`.
const PINNED: [(&str, u128, usize, usize, bool); 4] = [
    ("seat_belt", 48, 4, 0, false),
    ("shock_absorber", 6144, 10, 0, false),
    ("dashboard", 4096, 10, 0, false),
    ("relay_chain_12", 34_359_738_368, 23, 0, false),
];

/// The verdict lines `scripts/ci.sh` pins for each example spec.
const CI_VERDICTS: [(&str, &[&str]); 4] = [
    (
        "simple",
        &[
            "properties: 2 checked, 1 violated",
            "assert reachable simple.c: holds",
            "assert never (simple@awaiting && simple.c): VIOLATED",
        ],
    ),
    (
        "seat_belt",
        &[
            "properties: 3 checked, 1 violated",
            "assert reachable belt_control@alarm: holds",
            "assert never (belt_control@off && belt_control@waiting): holds",
            "assert never (belt_control@alarm && belt_control.belt_on): VIOLATED",
        ],
    ),
    (
        "shock_absorber",
        &[
            "properties: 3 checked, 1 violated",
            "assert reachable mode@sport: holds",
            "assert never (mode@comfort && mode@sport): holds",
            "assert never (watchdog@starving && act.pwm_tick): VIOLATED",
        ],
    ),
    (
        "dashboard",
        &[
            "properties: 3 checked, 1 violated",
            "assert reachable (frc@saturated && rpc@saturated): holds",
            "assert never (frc@counting && frc@saturated): holds",
            "assert never (speedo.wticks && odometer.wticks): VIOLATED",
        ],
    ),
];

/// The verdicts of one verified network.
pub struct Verified {
    /// The network.
    pub net: Network,
    /// The property suite, if any.
    pub props: Vec<Property>,
    /// The standard report.
    pub report: VerifyReport,
    /// The property verdicts, if a suite was checked.
    pub prop_report: Option<PropReport>,
    /// The chain length, for relay chains.
    pub relay: Option<usize>,
}

impl Verified {
    fn item(&self, label: &str, wall: f64) -> Item {
        let props = self
            .prop_report
            .as_ref()
            .map_or(String::new(), |p| p.render(&self.net));
        Item {
            label: label.to_owned(),
            wall,
            peak_live_nodes: self.report.stats.peak_live_nodes,
            digest: digest(&(self.report.render(), props)),
            ..Item::default()
        }
    }

    fn count(&self, k: &mut Counters) {
        let s = &self.report.stats;
        k.add("verify.iterations", s.iterations as f64);
        k.add("verify.image_steps", s.image_steps as f64);
        k.add("verify.andex_lookups", s.andex_lookups as f64);
        k.add("verify.andex_hits", s.andex_hits as f64);
        k.add("verify.cube_quant_calls", s.cube_quant_calls as f64);
        k.add(
            "verify.constrain_reduced_nodes",
            s.constrain_reduced_nodes as f64,
        );
        k.add("verify.collections", s.mid_reach_collections as f64);
        k.add("verify.reorders", s.mid_reach_reorders as f64);
        k.max("verify.peak_live_nodes", s.peak_live_nodes as f64);
        k.max("verify.peak_frontier_nodes", s.peak_frontier_nodes as f64);
        if let Some(p) = &self.prop_report {
            k.add("verify.rings_stored", p.rings_stored as f64);
            k.add("verify.preimage_nodes", p.preimage_nodes as f64);
            k.max("verify.max_trace_len", p.max_trace_len as f64);
        }
    }

    fn lost_possible(&self) -> usize {
        self.report
            .lost_events
            .iter()
            .filter(|e| e.possible)
            .count()
    }
}

/// Where a `verify_wide` item comes from.
enum Source {
    /// An example spec with its `properties` block, parsed in the body.
    Spec(&'static str, &'static str),
    /// A relay chain of `n` machines (`polis_core::random::random_network`:
    /// machine `k` forwards `link{k+1}` when triggered by `link{k}` or its
    /// own `ext{k}`, the seed picking the trigger) and its suite, parsed
    /// in the body.
    Relay(usize, Network, String),
}

/// The generated inputs of a verify workload.
pub struct Inputs {
    deep: bool,
    sources: Vec<Source>,
}

impl Inputs {
    /// `verify_deep`: the relay chains of `sizes` at their pinned seeds.
    pub fn deep(sizes: &[usize]) -> Inputs {
        Inputs {
            deep: true,
            sources: sizes
                .iter()
                .map(|&n| {
                    let net = random_network(n, &RandomSpec::default(), gen::pinned_relay_seed(n));
                    Source::Relay(n, net, String::new())
                })
                .collect(),
        }
    }

    /// `verify_wide`: the example specs plus seeded relay networks, each
    /// with a generated suite; `mix` gives the number of networks per
    /// chain length.
    pub fn wide(seed: u64, mix: &[(usize, usize)]) -> Inputs {
        let mut rng = Rng::new(gen::sub_seed(seed, 5));
        let mut sources: Vec<Source> = EXAMPLE_SPECS
            .iter()
            .map(|&(name, src)| Source::Spec(name, src))
            .collect();
        for &(n, count) in mix {
            for _ in 0..count {
                let net = random_network(n, &RandomSpec::default(), rng.next_u64());
                sources.push(Source::Relay(n, net, gen::relay_suite(n, rng.next_u64())));
            }
        }
        Inputs {
            deep: false,
            sources,
        }
    }

    /// Items per pass.
    pub fn items(&self) -> usize {
        self.sources.len()
    }

    /// The networks whose code the code metrics measure: the pinned
    /// relay chains, or the example specs.
    pub fn pinned_networks(&self) -> Vec<Network> {
        if self.deep {
            self.sources
                .iter()
                .filter_map(|s| match s {
                    Source::Relay(_, net, _) => Some(net.clone()),
                    Source::Spec(..) => None,
                })
                .collect()
        } else {
            EXAMPLE_SPECS
                .iter()
                .map(|(name, src)| parse_spec(name, src).expect("example specs parse").network)
                .collect()
        }
    }

    fn label(&self, source: &Source) -> String {
        match source {
            Source::Spec(name, _) => (*name).to_owned(),
            Source::Relay(n, ..) if self.deep => format!("relay_chain_{n}"),
            Source::Relay(n, ..) => format!("relay_{n}"),
        }
    }
}

/// Verifies one item. Untraced `verify_wide` items go through
/// `verify_with_props`; traced ones make its three calls
/// (`Verifier::run` with rings, `report`, `check_properties`) one by
/// one, with a span around each.
fn verify_item(
    source: &Source,
    deep: bool,
    tr: &mut Tracer,
    traced: bool,
) -> Result<Verified, String> {
    let relay = match source {
        Source::Relay(n, ..) => Some(*n),
        Source::Spec(..) => None,
    };
    let (net, props) = match source {
        Source::Spec(name, src) => {
            let spec = tr
                .span("lang.parse", |_| parse_spec(name, src))
                .map_err(|e| format!("parse: {e}"))?;
            (spec.network, spec.properties)
        }
        Source::Relay(_, net, suite) if !deep => {
            let props = tr
                .span("lang.parse", |_| parse_properties(net, suite))
                .map_err(|e| format!("parse: {e}"))?;
            (net.clone(), props)
        }
        Source::Relay(_, net, _) => (net.clone(), Vec::new()),
    };
    let opts = VerifyOptions::default();
    if !deep && !traced {
        let (report, pr) = verify_with_props(&net, &props, &opts).map_err(|e| e.to_string())?;
        return Ok(Verified {
            net,
            props,
            report,
            prop_report: Some(pr),
            relay,
        });
    }
    let opts = VerifyOptions {
        trace_rings: !deep,
        ..opts
    };
    let mut v = tr
        .span("verify.run", |_| Verifier::run(&net, &opts))
        .map_err(|e| e.to_string())?;
    let report = tr.span("verify.report", |_| v.report());
    let prop_report = (!deep).then(|| tr.span("verify.props", |_| v.check_properties(&props)));
    // The verifier borrows `net`, which moves into the result.
    drop(v);
    Ok(Verified {
        net,
        props,
        report,
        prop_report,
        relay,
    })
}

/// Runs one pass; with `keep`, returns the verdicts for the checks.
pub fn pass(inp: &Inputs, tr: Option<&mut Tracer>, keep: bool) -> (Pass, Vec<Verified>) {
    let start = Instant::now();
    let mut counters = Counters::default();
    let mut kept = Vec::new();
    let mut items = Vec::with_capacity(inp.items());
    let mut off = Tracer::off();
    let traced = tr.is_some();
    let tr = tr.unwrap_or(&mut off);
    for (i, source) in inp.sources.iter().enumerate() {
        tr.set_item(i);
        let label = inp.label(source);
        let t = Instant::now();
        let out = tr.span("item", |tr| verify_item(source, inp.deep, tr, traced));
        let wall = t.elapsed().as_secs_f64();
        match out {
            Ok(v) => {
                v.count(&mut counters);
                items.push(v.item(&label, wall));
                if keep {
                    kept.push(v);
                }
            }
            Err(e) => items.push(Item::failed(label, wall, e)),
        }
    }
    let pass = Pass {
        wall: start.elapsed().as_secs_f64(),
        items,
        counters,
        ..Pass::default()
    };
    (pass, kept)
}

/// Output checks on a kept pass: pinned verdicts, the relay chains'
/// closed-form verdicts, the CI verdict lines of the example specs, the
/// known verdicts of generated suites, and trace soundness.
pub fn check(kept: &[Verified], items: &[Item]) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut k = 0;
    for (i, item) in items.iter().enumerate() {
        if item.error.is_some() {
            continue;
        }
        let v = &kept[k];
        k += 1;
        let mut fail = |msg: String| failures.push((i, format!("{}: {msg}", item.label)));
        let verdicts = (
            v.report.stats.reached_states,
            v.lost_possible(),
            v.report.dead_transitions.len(),
            v.report.deadlock.is_some(),
        );
        if let Some(&(_, states, lost, dead, deadlock)) = PINNED.iter().find(|p| p.0 == item.label)
        {
            if verdicts != (Some(states), lost, dead, deadlock) {
                fail(format!(
                    "verdicts {verdicts:?} differ from BENCH_verify.json"
                ));
            }
        }
        if let Some(n) = v.relay {
            // Every control state and buffer fill of a relay chain is
            // reachable (2^n control states times 2^(2n-1) buffer fills),
            // every buffer can lose an event, and nothing deadlocks.
            let closed = (Some(1u128 << (3 * n - 1)), 2 * n - 1, 0, false);
            if verdicts != closed {
                fail(format!("verdicts {verdicts:?}, closed form {closed:?}"));
            }
        }
        let Some(pr) = &v.prop_report else { continue };
        if let Some((_, lines)) = CI_VERDICTS.iter().find(|c| c.0 == item.label) {
            let text = pr.render(&v.net);
            for line in *lines {
                if !text.lines().any(|l| l == *line) {
                    fail(format!("missing verdict line `{line}`"));
                }
            }
        }
        if v.relay.is_some() {
            // The generated suites open with three known verdicts.
            let known = [false, true, true];
            for (r, want) in pr.results.iter().zip(known) {
                if r.holds != want {
                    fail(format!(
                        "`{}` is {}",
                        r.property.render(&v.net),
                        r.verdict()
                    ));
                }
            }
        }
        if !pr.rings_complete {
            fail("trace rings were capped".to_owned());
        }
        for (p, r) in v.props.iter().zip(&pr.results) {
            let wants_trace = match p.kind {
                PropKind::Never => !r.holds,
                PropKind::Reachable => r.holds,
            };
            let Some(t) = &r.trace else {
                if wants_trace {
                    fail(format!("no trace for `{}`", p.render(&v.net)));
                }
                continue;
            };
            match t.replay(&v.net) {
                Ok(end)
                    if Some(&end) == t.states.last() && p.expr.eval(&end.ctrl, &end.pending) => {}
                Ok(end) => fail(format!(
                    "trace for `{}` ends in {}, which does not satisfy it",
                    p.render(&v.net),
                    end.render(&v.net)
                )),
                Err(e) => fail(format!(
                    "trace for `{}` does not replay: {e}",
                    p.render(&v.net)
                )),
            }
        }
    }
    failures
}
