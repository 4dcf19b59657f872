//! Golden digests of the cost estimates: every machine's [`Estimate`]
//! and false-path-aware worst case, for the four example specs and the
//! two composed products, in every implementation style, on both target
//! profiles and under both buffering policies.
//!
//! The estimator is pure arithmetic over the s-graph and the calibrated
//! parameters, so a refactor of it leaves these digests alone. A digest
//! that moves means an estimate changed, which must be deliberate and
//! explained where the digest is updated.

use polis::cfsm::compose::compose;
use polis::cfsm::Network;
use polis::core::{synthesize_graph, workloads, ImplStyle, SynthCtx, SynthesisOptions};
use polis::estimate::{
    calibrate, derive_incompatibilities, estimate, max_cycles_false_path_aware, Estimate,
};
use polis::sgraph::BufferPolicy;
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

/// The synthesis options a style names, as `polis estimate --style`
/// spells it (`dg+collapse` is `--style dg --collapse`).
fn options(style: &str) -> SynthesisOptions {
    let (style, collapse) = match style {
        "dg" => (ImplStyle::DecisionGraph, false),
        "dg+collapse" => (ImplStyle::DecisionGraph, true),
        "chain" => (ImplStyle::IteChain, false),
        "2lvl" => (ImplStyle::TwoLevel, false),
        other => panic!("unknown style {other}"),
    };
    SynthesisOptions {
        style,
        collapse,
        ..SynthesisOptions::default()
    }
}

/// One line per profile × policy × machine: the estimate and the
/// false-path-aware bound under the machine's derived incompatibilities.
fn estimates(net: &Network, style: &str) -> String {
    let opts = options(style);
    let mut out = String::new();
    let graphs: Vec<_> = net
        .cfsms()
        .iter()
        .map(|m| synthesize_graph(&mut SynthCtx::new(&opts), m).expect("subjects synthesize"))
        .collect();
    for profile in [Profile::Mcu8, Profile::Risc32] {
        let params = calibrate(profile);
        for policy in [BufferPolicy::All, BufferPolicy::Minimal] {
            for (m, g) in net.cfsms().iter().zip(&graphs) {
                let Estimate {
                    size_bytes,
                    min_cycles,
                    max_cycles,
                    ram_bytes,
                } = estimate(m, g, &params, policy);
                let aware =
                    max_cycles_false_path_aware(m, g, &params, &derive_incompatibilities(m));
                out.push_str(&format!(
                    "{profile:?} {policy:?} {}: {size_bytes} {min_cycles} {max_cycles} \
                     {ram_bytes} {aware}\n",
                    m.name()
                ));
            }
        }
    }
    out
}

/// (subject, style, digest of the estimate lines over both profiles and
/// both buffering policies).
const GOLDEN: [(&str, &str, u64); 24] = [
    ("simple", "dg", 0xdfa7_d7cc_c910_1c98),
    ("simple", "dg+collapse", 0xdfa7_d7cc_c910_1c98),
    ("simple", "chain", 0xc90d_bc9f_54b6_2c33),
    ("simple", "2lvl", 0xe3aa_f715_72fb_e77d),
    ("seat_belt", "dg", 0x12b0_ca65_ccca_8018),
    ("seat_belt", "dg+collapse", 0xf8db_9881_aabf_6e10),
    ("seat_belt", "chain", 0xc628_5505_a1da_23f5),
    ("seat_belt", "2lvl", 0xa958_8c89_e042_3abe),
    ("shock_absorber", "dg", 0x2ae8_8ea7_64e6_59d4),
    ("shock_absorber", "dg+collapse", 0x640d_cb32_9d77_e094),
    ("shock_absorber", "chain", 0xd7f4_a45d_2ab6_f921),
    ("shock_absorber", "2lvl", 0xcfd1_507e_1cae_6adf),
    ("dashboard", "dg", 0xa2c5_ea25_1ad1_5788),
    ("dashboard", "dg+collapse", 0xa2c5_ea25_1ad1_5788),
    ("dashboard", "chain", 0xfce8_7a4a_e73f_8785),
    ("dashboard", "2lvl", 0x82a5_831e_b223_f271),
    ("dashboard_product", "dg", 0x43f0_ab73_f510_d86c),
    ("dashboard_product", "dg+collapse", 0xe63c_f3b1_b2a9_71c0),
    ("dashboard_product", "chain", 0xcee7_16db_62df_64a2),
    ("dashboard_product", "2lvl", 0x7228_ddb1_b52a_4dee),
    ("shock_absorber_product", "dg", 0x6079_6752_09b7_f71b),
    (
        "shock_absorber_product",
        "dg+collapse",
        0x44b5_a476_9e7d_d072,
    ),
    ("shock_absorber_product", "chain", 0x7466_1d9c_16aa_e134),
    ("shock_absorber_product", "2lvl", 0x51f6_7f6f_332e_3740),
];

#[test]
fn estimates_match_golden_digests() {
    let mut wrong = Vec::new();
    for (name, style, want) in GOLDEN {
        let lines = estimates(&subject(name), style);
        let got = fnv1a64(lines.as_bytes());
        if got != want {
            wrong.push(format!(
                "{name} {style}: got {got:#018x}, want {want:#018x}\n{lines}"
            ));
        }
    }
    assert!(wrong.is_empty(), "estimates changed:\n{}", wrong.join("\n"));
}
