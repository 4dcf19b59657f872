//! Output supports and sifting on χ.
//!
//! * `ReactiveFn::output_supports` against the plain formula it replaces:
//!   the input variables in the support of `∃(O∖o). χ`, one quantified BDD
//!   per output, kept here only as an oracle.
//! * Pins of what one sifting pass under "outputs after support" decides:
//!   the final variable order (as an FNV digest), the node count and the
//!   number of adjacent swaps, per subject. A faster swap kernel or a
//!   different way to find supports must leave every one of them alone.

use polis_bdd::Var;
use polis_cfsm::compose::compose;
use polis_cfsm::{Cfsm, OrderScheme, ReactiveFn, RfVarKind, Side};
use polis_core::random::{random_cfsm, RandomSpec, Rng};
use polis_core::workloads;

/// Every machine of the four example specs, then both composed products.
fn example_subjects() -> Vec<(String, Cfsm)> {
    let mut out = Vec::new();
    for (spec, _) in workloads::EXAMPLES {
        let net = workloads::spec(spec).network;
        for m in net.cfsms() {
            out.push((format!("{spec}/{}", m.name()), m.clone()));
        }
    }
    for (name, net) in [
        ("dashboard_product", workloads::dashboard()),
        ("shock_absorber_product", workloads::shock_absorber()),
    ] {
        let product = compose(&net).expect("the example networks compose");
        out.push((name.to_owned(), product));
    }
    out
}

/// `n` seeded random machines with up to `max_states` control states.
fn random_subjects(seed: u64, n: usize, max_states: usize) -> Vec<(String, Cfsm)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let spec = RandomSpec {
                states: rng.usize(1..max_states + 1),
                pure_inputs: rng.usize(1..5),
                valued_inputs: rng.usize(0..3),
                outputs: rng.usize(1..5),
                vars: rng.usize(0..3),
                transitions: rng.usize(1..24),
            };
            let s = rng.next_u64();
            (format!("random {i}"), random_cfsm("rnd", &spec, s))
        })
        .collect()
}

/// Supports by the plain formula: for each output `o`, the input
/// variables `∃(O∖o). χ` depends on, in declaration order.
fn oracle_supports(rf: &mut ReactiveFn) -> Vec<Vec<Var>> {
    let outputs: Vec<Vec<Var>> = rf.outputs().iter().map(|o| o.bits.clone()).collect();
    let chi = rf.chi();
    let mut out = Vec::new();
    for own in &outputs {
        let others: Vec<Var> = outputs
            .iter()
            .flatten()
            .copied()
            .filter(|b| !own.contains(b))
            .collect();
        let bdd = rf.bdd_mut();
        let cube = bdd.cube(others);
        let h = bdd.exists_cube(chi, cube);
        let mut sup: Vec<Var> = rf
            .bdd()
            .support(h)
            .into_iter()
            .filter(|&v| rf.locate(v).is_some_and(|l| l.side == Side::Input))
            .collect();
        sup.sort();
        out.push(sup);
    }
    out
}

/// FNV-1a, 64-bit, over the variable indices of `order`.
fn order_digest(order: &[Var]) -> u64 {
    order
        .iter()
        .flat_map(|v| v.0.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(subject, order digest, nodes after sifting, swaps)` for one pass
/// under "outputs after support", recorded with supports from the plain
/// `∃`-cube formula and a swap kernel that removed each rebuilt node from
/// its unique table one probe at a time. The swaps were re-recorded when
/// each block began walking to the nearer end of its window first (the
/// orders and node counts stayed, and the swaps here fell from 14,646 to
/// 13,932 in total), and again when each block began jumping back to its
/// start by restoring a saved store instead of swapping back across the
/// positions it had measured (orders and node counts stayed again; the
/// swaps fell to 8,569).
const SINGLE_PASS: &[(&str, u64, usize, u64)] = &[
    ("simple/simple", 0x3a5d71f865346634, 10, 13),
    ("seat_belt/belt_control", 0xc0016bb398246f14, 34, 87),
    ("shock_absorber/acq", 0x30d77e22c5da0365, 6, 6),
    ("shock_absorber/road", 0xe3aa321e02816645, 13, 30),
    ("shock_absorber/speed_est", 0x4f3edc2c1db23ab5, 14, 29),
    ("shock_absorber/mode", 0x34499216d0587eba, 37, 95),
    ("shock_absorber/act", 0x7a9d46c96104cf7d, 17, 34),
    ("shock_absorber/watchdog", 0x23898017c70134e4, 10, 13),
    ("dashboard/frc", 0x376f08efdba975dd, 17, 40),
    ("dashboard/rpc", 0x376f08efdba975dd, 17, 40),
    ("dashboard/speedo", 0x756241e1be8c9396, 4, 2),
    ("dashboard/tach", 0x756241e1be8c9396, 4, 2),
    ("dashboard/odometer", 0x3a5d71f865346634, 10, 13),
    ("dashboard/fuel", 0x830e32e3b9c368f4, 9, 19),
    ("dashboard/pwm_speed", 0x756241e1be8c9396, 4, 2),
    ("dashboard/pwm_fuel", 0x756241e1be8c9396, 4, 2),
    ("dashboard_product", 0x3546c06c42d7e905, 113, 816),
    ("shock_absorber_product", 0x622083652ecdd659, 700, 1172),
    ("random 0", 0x7bd564434cf35074, 66, 136),
    ("random 1", 0xffe99794025ff86d, 16, 31),
    ("random 2", 0x64f8def47bd7ead6, 94, 182),
    ("random 3", 0x0c51476f0807caa5, 97, 201),
    ("random 4", 0x1604dd6277242ac4, 125, 244),
    ("random 5", 0x50800f86f55a8c0a, 67, 92),
    ("random 6", 0x8cd251e3befd21c4, 134, 286),
    ("random 7", 0x520ac467db6fa4f4, 96, 166),
    ("random 8", 0x5403e5fd1ae20a2a, 32, 102),
    ("random 9", 0x589800b5e2ab0516, 78, 157),
    ("random 10", 0x2a9575689482555a, 12, 56),
    ("random 11", 0x2dd112ebc47fe774, 10, 27),
    ("random 12", 0xf3d7244646862a46, 60, 200),
    ("random 13", 0x2836db6891017b45, 40, 188),
    ("random 14", 0x24be1d1fdd8e6d55, 30, 102),
    ("random 15", 0xa165a1ed260b1d02, 7, 23),
    ("random 16", 0x3242cd37cefa7abd, 21, 20),
    ("random 17", 0xb92b548d59edf865, 9, 29),
    ("random 18", 0x41a90eb5d80c53e2, 7, 18),
    ("random 19", 0x51ee090fe255ae05, 94, 130),
    ("random 20", 0x37430ba6a55f2e15, 21, 83),
    ("random 21", 0x0064fec130c4e035, 12, 32),
    ("random 22", 0xdf4af85620381184, 54, 79),
    ("random 23", 0xa48551cf033b8535, 50, 51),
    ("random 24", 0xeb1e9d953e501fda, 55, 100),
    ("random 25", 0x0f001ef597347965, 38, 61),
    ("random 26", 0xc295682b4edcb0a5, 23, 73),
    ("random 27", 0x9f5ea98e23e93285, 34, 61),
    ("random 28", 0xf48de8136c8de94a, 32, 80),
    ("random 29", 0x5195ae4df3041465, 19, 31),
    ("random 30", 0x9742f91b5093f6b9, 29, 64),
    ("random 31", 0x32495204dd011d1e, 26, 48),
    ("random 32", 0x0f20bff7ec0f30b4, 12, 45),
    ("random 33", 0x611db86bdf16f6a6, 67, 127),
    ("random 34", 0xb97b9f76a8e414c4, 20, 117),
    ("random 35", 0xc1f1b287fcd3f685, 13, 30),
    ("random 36", 0xe6cbce328d505fa5, 63, 37),
    ("random 37", 0x1b8dfc5fa15aee64, 19, 48),
    ("random 38", 0x939f01d34ef25ac4, 89, 128),
    ("random 39", 0x5fa8121fbd7b3252, 138, 258),
    ("random 40", 0x2f2f67adf293fdf5, 195, 374),
    ("random 41", 0xf38060912c50b994, 25, 35),
    ("random 42", 0xe214aab282ad0005, 110, 383),
    ("random 43", 0x9927f81d67060354, 94, 163),
    ("random 44", 0xbb72890825cb00a4, 134, 232),
    ("random 45", 0x2f0d50046b6a4144, 204, 379),
    ("random 46", 0x85763ddaa1a2aa4d, 100, 296),
    ("random 47", 0xa02d0a899c98a815, 32, 50),
    ("random 48", 0xb5fd8f5b45cce30a, 29, 81),
    ("random 49", 0xc93de8ef907b85d1, 122, 218),
];

/// The same for the two products sifted to convergence (6,120 and 5,097
/// swaps with the down-then-up walk, 5,976 and 4,759 with the nearer end
/// first and no jump back).
const CONVERGED: &[(&str, u64, usize, u64)] = &[
    (
        "shock_absorber_product, converged",
        0x7f873f1e23633bc9,
        665,
        3186,
    ),
    ("dashboard_product, converged", 0x7750894b29a6a325, 88, 2770),
];

/// The values `SINGLE_PASS`/`CONVERGED` pin for `m` sifted with `passes`.
fn sift_pin(m: &Cfsm, passes: usize) -> (u64, usize, u64) {
    let mut rf = ReactiveFn::build(m);
    let nodes = rf.sift_with_passes(OrderScheme::OutputsAfterSupport, passes);
    assert_eq!(nodes, rf.size(), "sift reports the size of χ");
    let swaps = rf.bdd().stats().swap_count;
    (order_digest(&rf.bdd().order()), nodes, swaps)
}

#[test]
fn sift_orders_nodes_and_swaps_are_pinned() {
    let mut subjects = example_subjects();
    subjects.extend(random_subjects(0x51f7_0de5, 50, 12));
    assert_eq!(subjects.len(), SINGLE_PASS.len());
    for ((name, m), &(pin, order, nodes, swaps)) in subjects.iter().zip(SINGLE_PASS) {
        assert_eq!(name, pin);
        assert_eq!(sift_pin(m, 1), (order, nodes, swaps), "{name}");
    }
    let products: Vec<_> = example_subjects().into_iter().rev().take(2).collect();
    for ((name, m), &(pin, order, nodes, swaps)) in products.iter().zip(CONVERGED) {
        assert_eq!(format!("{name}, converged"), pin);
        assert_eq!(sift_pin(m, usize::MAX), (order, nodes, swaps), "{name}");
    }
}

/// Checks `m`'s supports against the oracle, before and after a sift.
fn assert_supports_match(what: &str, m: &Cfsm) {
    let mut rf = ReactiveFn::build(m);
    let got = rf.output_supports();
    let want = oracle_supports(&mut rf);
    assert_eq!(got, want, "{what}: supports of `{}`", m.name());
    rf.sift(OrderScheme::OutputsAfterSupport);
    assert_eq!(
        rf.output_supports(),
        got,
        "{what}: supports moved with the order"
    );
    // The quantified BDDs of the oracle work under any order.
    assert_eq!(
        oracle_supports(&mut rf),
        got,
        "{what}: oracle after sifting"
    );
}

#[test]
fn supports_match_the_oracle_on_examples_and_products() {
    for (name, m) in example_subjects() {
        assert_supports_match(&name, &m);
    }
}

#[test]
fn supports_match_the_oracle_on_random_machines() {
    for (name, m) in random_subjects(0x0005_0990, 240, 8) {
        assert_supports_match(&name, &m);
    }
}

#[test]
fn supports_match_the_oracle_past_64_control_states() {
    let mut rng = Rng::new(0x0000_0041);
    for i in 0..4 {
        let spec = RandomSpec {
            states: rng.usize(65..140),
            pure_inputs: rng.usize(1..5),
            valued_inputs: rng.usize(0..3),
            outputs: rng.usize(1..5),
            vars: rng.usize(0..3),
            transitions: rng.usize(100..200),
        };
        let m = random_cfsm("wide", &spec, rng.next_u64());
        let rf = ReactiveFn::build(&m);
        let next = rf
            .outputs()
            .iter()
            .find(|v| v.kind == RfVarKind::NextCtrl)
            .expect("a multi-state machine has a next state");
        assert!(next.bits.len() >= 7, "{spec:?}");
        assert_supports_match(&format!("wide {i}"), &m);
    }
}

#[test]
fn supports_match_the_oracle_past_64_output_bits() {
    let mut rng = Rng::new(0x0000_0b17);
    for i in 0..3 {
        let spec = RandomSpec {
            states: rng.usize(2..6),
            pure_inputs: rng.usize(2..5),
            valued_inputs: rng.usize(1..3),
            outputs: rng.usize(50..60),
            vars: rng.usize(12..16),
            transitions: rng.usize(90..120),
        };
        let m = random_cfsm("many", &spec, rng.next_u64());
        let rf = ReactiveFn::build(&m);
        let bits: usize = rf.outputs().iter().map(|o| o.bits.len()).sum();
        assert!(bits > 64, "{spec:?}: {bits} output bits");
        assert_supports_match(&format!("many outputs {i}"), &m);
    }
}
