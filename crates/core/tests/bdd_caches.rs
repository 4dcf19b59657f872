//! The BDD manager's caches stay effective on the example machines:
//! building every χ of the seat belt, the shock absorber, the dashboard
//! and the two composed products, unsifted and sifted to convergence,
//! keeps the ITE cache hit rate at or above 0.04 and the unique tables at
//! or below 4.0 probes per lookup, each once it has seen 100 lookups. The
//! seed examples' BDDs are small, so their hit rates sit around
//! 0.05–0.25, and the products' around 0.5; the floor catches a cache
//! that breaks outright, not workload drift.

use polis_bdd::BddStats;
use polis_cfsm::compose::compose;
use polis_cfsm::{Network, OrderScheme, ReactiveFn};
use polis_core::workloads;

/// The network's composed product, as a network of one machine.
fn single(net: Network) -> Network {
    let product = compose(&net).expect("the example networks compose");
    Network::new(product.name().to_owned(), vec![product]).expect("a single machine is a network")
}

/// The manager counters of every machine's χ in `net`, merged.
fn chi_stats(net: &Network, sift: bool) -> BddStats {
    let mut stats = BddStats::default();
    for m in net.cfsms() {
        let mut rf = ReactiveFn::build(m);
        if sift {
            rf.sift_with_passes(OrderScheme::OutputsAfterSupport, usize::MAX);
        }
        stats = stats.merged(&rf.bdd().stats());
    }
    stats
}

#[test]
fn ite_hit_rate_and_unique_probe_length_hold_on_the_examples() {
    let mut ite_gated = 0;
    for (name, net) in [
        ("seat_belt", workloads::seat_belt()),
        ("shock_absorber", workloads::shock_absorber()),
        ("dashboard", workloads::dashboard()),
        ("dashboard_product", single(workloads::dashboard())),
        (
            "shock_absorber_product",
            single(workloads::shock_absorber()),
        ),
    ] {
        for sift in [false, true] {
            let s = chi_stats(&net, sift);
            let case = format!("{name} (sift {sift})");
            if s.cache_lookups > 100 {
                ite_gated += 1;
                assert!(
                    s.hit_rate() >= 0.04,
                    "{case}: ITE hit rate {}",
                    s.hit_rate()
                );
            }
            if s.unique_lookups > 100 {
                assert!(
                    s.avg_probe_len() <= 4.0,
                    "{case}: {} unique-table probes per lookup",
                    s.avg_probe_len()
                );
            }
        }
    }
    // The shock absorber's χ makes 173 ITE lookups either way, and each
    // product's thousands.
    assert_eq!(ite_gated, 6, "cases that saw 100 ITE lookups");
}
