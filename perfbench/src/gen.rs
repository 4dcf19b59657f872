//! Seeded input generators. Every generator takes its seed as an
//! argument, and equal seeds give equal inputs.

use polis_cfsm::Network;
use polis_core::random::{random_cfsm, RandomSpec, Rng};
use polis_expr::Type;
use polis_rtos::Stimulus;

/// The four example specifications, as `(network name, source)`.
pub const EXAMPLE_SPECS: [(&str, &str); 4] = [
    ("simple", include_str!("../../examples/specs/simple.pol")),
    (
        "seat_belt",
        include_str!("../../examples/specs/seat_belt.pol"),
    ),
    (
        "shock_absorber",
        include_str!("../../examples/specs/shock_absorber.pol"),
    ),
    (
        "dashboard",
        include_str!("../../examples/specs/dashboard.pol"),
    ),
];

/// Size-scale cap of the long-tailed random machines.
const MAX_SCALE: f64 = 5.0;

/// The seed of relay chain `n` in `BENCH_verify.json`.
pub fn pinned_relay_seed(n: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15 ^ n as u64
}

/// Mixes a workload seed with a stream tag, so that the streams one
/// workload draws (machines, suites, stimuli) are independent.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// `count` single-machine networks with long-tailed sizes.
///
/// Machine `i` draws a size scale from the `i`-th of `count` equally
/// likely strata of a Pareto(1.5) distribution capped at
/// [`MAX_SCALE`], and its states, inputs, outputs, variables and
/// transitions grow with that scale. Every seed thus gets the same
/// spread of sizes, and about the same work, while the transitions
/// differ.
pub fn random_machines(count: usize, seed: u64) -> Vec<Network> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let within = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let u = (i as f64 + within) / count as f64;
            let x = (1.0 - u).powf(-1.0 / 1.5).min(MAX_SCALE);
            let n = |scale: f64| (x * scale).round() as usize;
            let spec = RandomSpec {
                states: 1 + n(1.0),
                pure_inputs: 1 + n(1.0),
                valued_inputs: n(0.5),
                outputs: 1 + n(0.5),
                vars: n(0.5),
                transitions: n(6.0),
            };
            let name = format!("rnd{i}");
            let m = random_cfsm(&name, &spec, rng.next_u64());
            Network::new(name, vec![m]).expect("a single machine is a valid network")
        })
        .collect()
}

/// A property suite for a relay chain of `n` machines, in `.pol`
/// `properties` syntax.
///
/// The first three assertions have known verdicts: `m0.ext0` can always
/// be delivered (violated), control states are exclusive (holds), and
/// every machine can fire into `b` (holds). The rest are seeded mixes of
/// state and buffer atoms whose verdicts the checker decides.
pub fn relay_suite(n: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let j = rng.usize(0..n);
    let mut out = format!(
        "properties {{\n    assert never m0.ext0;\n    assert never m{j}@a && m{j}@b;\n    \
         assert reachable m{j}@b;\n"
    );
    for _ in 0..rng.usize(1..4) {
        let (a, b) = (rng.usize(0..n), rng.usize(0..n));
        let input = |k: usize, rng: &mut Rng| {
            if k > 0 && rng.bool() {
                format!("m{k}.link{k}")
            } else {
                format!("m{k}.ext{k}")
            }
        };
        let state = if rng.bool() { "a" } else { "b" };
        let atom = input(a, &mut rng);
        if rng.bool() {
            out.push_str(&format!("    assert never {atom} && m{b}@{state};\n"));
        } else {
            out.push_str(&format!("    assert reachable {atom} && m{b}@{state};\n"));
        }
    }
    out.push_str("}\n");
    out
}

/// `len` environment events on the primary inputs of `net`, at
/// increasing times, with uniformly drawn values for valued signals.
pub fn stimulus(net: &Network, len: usize, seed: u64) -> Vec<Stimulus> {
    let inputs: Vec<(String, Option<Type>)> = net
        .primary_inputs()
        .into_iter()
        .map(|name| {
            let ty = net
                .cfsms()
                .iter()
                .flat_map(|m| m.inputs())
                .find(|s| s.name() == name)
                .and_then(|s| s.value_type());
            (name, ty)
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut time = 0;
    (0..len)
        .map(|_| {
            time += rng.u64(400..2_400);
            let (name, ty) = rng.pick(&inputs);
            match ty {
                None => Stimulus::pure(time, name.as_str()),
                Some(ty) => Stimulus::valued(
                    time,
                    name.as_str(),
                    rng.i64(ty.min_value()..ty.max_value() + 1),
                ),
            }
        })
        .collect()
}

/// One reaction's inputs for a single machine: a presence flag per
/// input and a value per input (ignored for pure inputs).
pub type ReactionInput = (Vec<bool>, Vec<i64>);

/// `len` seeded reaction inputs for `m`, for lock-step checks of its
/// object code against the reference semantics.
pub fn reaction_inputs(m: &polis_cfsm::Cfsm, len: usize, seed: u64) -> Vec<ReactionInput> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            m.inputs()
                .iter()
                .map(|s| {
                    let value = s
                        .value_type()
                        .map_or(0, |ty| rng.i64(ty.min_value()..ty.max_value() + 1));
                    (rng.chance(0.6), value)
                })
                .unzip()
        })
        .collect()
}
