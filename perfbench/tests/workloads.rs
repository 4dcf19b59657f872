//! The benchmark checks itself: at small sizes every workload runs
//! without failed items, every deterministic output repeats exactly
//! across passes and between traced and untraced passes, the end-to-end
//! metrics are never 0, and `BENCHMARK.json` names exactly the metrics
//! the benchmark reports.

use polis_perfbench::{end_to_end, per_layer, run, Config, Item, Pass, Scale, Workload};

fn small(workload: Workload) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace: true,
        min_rounds: 2,
        scale: Scale {
            random_machines: 6,
            deep_sizes: vec![4, 6],
            wide_mix: vec![(3, 2), (4, 2), (5, 2)],
        },
    }
}

/// Everything an item produced except its time.
fn outputs(p: &Pass) -> (Vec<Item>, u64) {
    let items = p
        .items
        .iter()
        .map(|i| Item {
            wall: 0.0,
            ..i.clone()
        })
        .collect();
    (items, p.sim_busy_cycles)
}

#[test]
fn small_workloads_pass_and_repeat_exactly() {
    for w in Workload::ALL {
        let r = run(&small(w));
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
        assert_eq!((r.untraced.len(), r.traced.len()), (2, 2));
        let first = outputs(&r.untraced[0]);
        assert!(first.0.iter().all(|i| i.error.is_none() && i.digest != 0));
        for p in r.untraced.iter().chain(&r.traced) {
            assert_eq!(
                outputs(p),
                first,
                "{}: outputs differ between passes",
                w.name()
            );
        }
        assert_eq!(r.traced[0].counters, r.traced[1].counters);
        assert!(!r.traced[0].spans.is_empty());

        let e2e = end_to_end(&r);
        for m in &e2e {
            assert!(m.value > 0.0, "{}: {} reads {}", w.name(), m.name, m.value);
        }
        let again = run(&Config {
            trace: false,
            min_rounds: 1,
            ..small(w)
        });
        let deterministic = |ms: &[polis_perfbench::Metric]| -> Vec<(String, f64)> {
            ms.iter()
                .filter(|m| !matches!(m.unit, "s" | "ms" | "MiB"))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        assert_eq!(deterministic(&e2e), deterministic(&end_to_end(&again)));
        assert_eq!(outputs(&again.untraced[0]), first);
        assert!(per_layer(&r).iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let digests = |seed: u64| {
        let r = run(&Config {
            seed,
            trace: false,
            min_rounds: 1,
            ..small(Workload::VerifyWide)
        });
        r.untraced[0]
            .items
            .iter()
            .map(|i| i.digest)
            .collect::<Vec<_>>()
    };
    assert_eq!(digests(3), digests(3));
    assert_ne!(digests(3), digests(4));
}

/// The metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("a list")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let r = run(&Config {
        trace: true,
        min_rounds: 1,
        ..small(Workload::VerifyDeep)
    });
    let names =
        |ms: Vec<polis_perfbench::Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
    assert_eq!(listed("end_to_end"), names(end_to_end(&r)));
    assert_eq!(listed("per_layer"), names(per_layer(&r)));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed("workloads"), workloads);
}
