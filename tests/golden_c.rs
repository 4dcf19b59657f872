//! Golden digests of the generated C: every machine's C followed by the
//! RTOS C, for the four example specs and the two composed products, on
//! both target profiles.
//!
//! A change to χ construction, sifting, the s-graph builder or the code
//! generator that keeps the generated C byte-identical leaves these
//! digests alone. A digest that moves means the emitted code changed,
//! which must be deliberate and explained where the digest is updated.

use polis::cfsm::compose::compose;
use polis::cfsm::Network;
use polis::core::{synthesize_network_staged, workloads, SynthesisOptions};
use polis::lang::{emit_spec_source, parse_spec};
use polis::rtos::RtosConfig;
use polis::vm::Profile;

/// FNV-1a, 64-bit: a fixed, platform-independent digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The network a subject names: an example spec or a composed product.
fn subject(name: &str) -> Network {
    match name {
        "dashboard_product" => single(workloads::dashboard()),
        "shock_absorber_product" => single(workloads::shock_absorber()),
        spec => workloads::spec(spec).network,
    }
}

fn single(net: Network) -> Network {
    let product = compose(&net).expect("the example networks compose");
    Network::new(product.name().to_owned(), vec![product]).expect("a single machine is a network")
}

/// The C `polis synth` writes for `net` on `profile`: every machine's
/// routine, then the RTOS.
fn c_source(net: &Network, profile: Profile) -> String {
    let opts = SynthesisOptions {
        profile,
        ..SynthesisOptions::default()
    };
    let rtos = RtosConfig {
        profile,
        ..RtosConfig::default()
    };
    let (syn, _) = synthesize_network_staged(net, &opts, &rtos, 1).expect("subjects synthesize");
    let mut all = String::new();
    for m in &syn.machines {
        all.push_str(&m.c_code);
    }
    all.push_str(&syn.rtos_c);
    all
}

/// (subject, profile, digest of machine C + RTOS C).
///
/// The profile sets object-code costs, not the C, so each subject has
/// one digest on both profiles; a profile leaking into the C would split
/// them.
///
/// The two product digests pin composed code whose same-tick internal
/// values are inlined bare: on both products every value is proven to fit
/// its signal's type, so no modular coercion is emitted. The shock
/// absorber's product also has every test its operand intervals decide
/// (`(2 >= 2)`, `(1 == 1)`, …) folded away at composition.
///
/// The `shock_absorber` spec tests `?acc_f < -12`, which the parser reads
/// as the constant -12, so its `road` routine compares against `-12`:
/// neither a negation `(-12)` nor the subtraction `(0 - 12)` that an
/// earlier printer wrote into the spec file.
///
/// The dashboard's `speedo`, `tach`, `pwm_speed` and `pwm_fuel` have one
/// control state and no state variables, so their state structs hold one
/// placeholder member: ISO C has no empty struct.
const GOLDEN: [(&str, Profile, u64); 12] = [
    ("simple", Profile::Mcu8, 0xf0c2_3466_3f58_6c3f),
    ("simple", Profile::Risc32, 0xf0c2_3466_3f58_6c3f),
    ("seat_belt", Profile::Mcu8, 0xd450_700f_377f_0417),
    ("seat_belt", Profile::Risc32, 0xd450_700f_377f_0417),
    ("shock_absorber", Profile::Mcu8, 0x3137_9ecf_1f66_442e),
    ("shock_absorber", Profile::Risc32, 0x3137_9ecf_1f66_442e),
    ("dashboard", Profile::Mcu8, 0xdf85_8745_bb53_a8aa),
    ("dashboard", Profile::Risc32, 0xdf85_8745_bb53_a8aa),
    ("dashboard_product", Profile::Mcu8, 0x434b_b578_5734_5c71),
    ("dashboard_product", Profile::Risc32, 0x434b_b578_5734_5c71),
    (
        "shock_absorber_product",
        Profile::Mcu8,
        0x04cc_2cc7_39c2_f790,
    ),
    (
        "shock_absorber_product",
        Profile::Risc32,
        0x04cc_2cc7_39c2_f790,
    ),
];

#[test]
fn generated_c_matches_golden_digests() {
    let mut wrong = Vec::new();
    for (name, profile, want) in GOLDEN {
        let got = fnv1a64(c_source(&subject(name), profile).as_bytes());
        if got != want {
            wrong.push(format!(
                "{name} {profile:?}: got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "generated C changed:\n{}",
        wrong.join("\n")
    );
}

/// `polis fmt` output is a spec in its own right: printing an example
/// spec and parsing it back must synthesize byte-identical C.
#[test]
fn formatted_specs_synthesize_identical_c() {
    for (name, _) in workloads::EXAMPLES {
        let spec = workloads::spec(name);
        let printed = emit_spec_source(&spec.network, &spec.properties);
        let reparsed = parse_spec(name, &printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(reparsed.properties.len(), spec.properties.len(), "{name}");
        assert!(
            c_source(&reparsed.network, Profile::Mcu8) == c_source(&spec.network, Profile::Mcu8),
            "{name}: the formatted spec synthesizes different C"
        );
    }
}
