//! The evaluation workloads, rebuilt as synthetic equivalents of the
//! paper's industrial examples (see DESIGN.md, substitution 4).
//!
//! * [`dashboard`] — "a subset of the functionality of a dashboard
//!   controller, that implements the computational chain from the wheel
//!   and engine speed sensors to the pulse width-modulated outputs
//!   controlling the gauges" (Section V-A), eight CFSMs;
//! * [`shock_absorber`] — the Section V-B controller: sensor acquisition,
//!   filtering, road estimation, mode logic, actuator drive, watchdog;
//! * [`seat_belt`] — the classic POLIS tutorial example: five seconds
//!   after the key turns with the belt off, sound the alarm;
//! * [`simple`] — the paper's Fig. 1 module.
//!
//! Each is read from its `examples/specs/<name>.pol` file, the one copy
//! of the spec and its property suite that the CLI, the harnesses and the
//! tests all share; the front end runs on every path through the
//! evaluation.

use polis_cfsm::{Cfsm, Network};
use polis_lang::{parse_spec, Spec};

/// The example specs by name: the committed `examples/specs/<name>.pol`
/// sources, each a network plus its property suite.
pub const EXAMPLES: [(&str, &str); 4] = [
    ("simple", include_str!("../../../examples/specs/simple.pol")),
    (
        "seat_belt",
        include_str!("../../../examples/specs/seat_belt.pol"),
    ),
    (
        "shock_absorber",
        include_str!("../../../examples/specs/shock_absorber.pol"),
    ),
    (
        "dashboard",
        include_str!("../../../examples/specs/dashboard.pol"),
    ),
];

/// Parses the example spec `name` (one of [`EXAMPLES`]): its network,
/// named `name`, and its property suite.
///
/// # Panics
///
/// Panics if `name` is not an example or its source does not parse.
pub fn spec(name: &str) -> Spec {
    let (_, src) = EXAMPLES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no example spec `{name}`"));
    parse_spec(name, src).unwrap_or_else(|e| panic!("examples/specs/{name}.pol: {e}"))
}

/// The paper's Fig. 1 `simple` module.
pub fn simple() -> Cfsm {
    spec("simple").network.cfsms()[0].clone()
}

/// The dashboard controller subset (Table I/II/III workload).
pub fn dashboard() -> Network {
    spec("dashboard").network
}

/// The shock absorber controller (Section V-B workload).
pub fn shock_absorber() -> Network {
    spec("shock_absorber").network
}

/// The seat-belt alarm (classic POLIS tutorial example).
pub fn seat_belt() -> Network {
    spec("seat_belt").network
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_rtos::{RtosConfig, Simulator, Stimulus};

    #[test]
    fn workloads_parse_and_connect() {
        let d = dashboard();
        assert_eq!(d.cfsms().len(), 8);
        assert!(d.internal_signals().contains(&"wticks".to_string()));
        assert!(d.primary_inputs().contains(&"wheel_pulse".to_string()));
        assert!(d.topo_order().is_some(), "dashboard chain is acyclic");

        let s = shock_absorber();
        assert_eq!(s.cfsms().len(), 6);
        assert!(s.topo_order().is_some());

        assert_eq!(seat_belt().cfsms().len(), 1);
    }

    #[test]
    fn dashboard_chain_produces_gauge_updates() {
        let net = dashboard();
        let mut sim = Simulator::build(&net, RtosConfig::default());
        let mut stim = Vec::new();
        // 12 wheel pulses and 18 engine pulses, then the timebase window.
        for i in 0..12u64 {
            stim.push(Stimulus::pure(i * 2_000, "wheel_pulse"));
        }
        for i in 0..18u64 {
            stim.push(Stimulus::pure(500 + i * 1_500, "eng_pulse"));
        }
        stim.push(Stimulus::pure(100_000, "timebase"));
        stim.push(Stimulus::valued(120_000, "fuel_sample", 30));
        sim.run(&stim);
        let find = |sig: &str| {
            sim.trace()
                .iter()
                .find(|t| t.signal == sig)
                .unwrap_or_else(|| panic!("no {sig} in {:?}", sim.trace()))
                .value
        };
        assert_eq!(find("wticks"), Some(12));
        assert_eq!(find("eticks"), Some(18));
        assert_eq!(find("speed"), Some(36));
        assert_eq!(find("rpm"), Some(108));
        assert_eq!(find("duty_speed"), Some(18));
        // Fuel filter: (128*3 + 30)/4 = 103
        assert_eq!(find("fuel_level"), Some(103));
        assert_eq!(find("duty_fuel"), Some(34));
    }

    #[test]
    fn seat_belt_alarm_fires_after_five_ticks() {
        let net = seat_belt();
        let mut sim = Simulator::build(&net, RtosConfig::default());
        let mut stim = vec![Stimulus::pure(0, "key_on")];
        for i in 0..5u64 {
            stim.push(Stimulus::pure(100_000 + i * 100_000, "tick"));
        }
        stim.push(Stimulus::pure(900_000, "belt_on"));
        sim.run(&stim);
        let sigs: Vec<&str> = sim.trace().iter().map(|t| t.signal.as_str()).collect();
        assert_eq!(sigs, vec!["alarm_on", "alarm_off"]);
    }

    #[test]
    fn seat_belt_no_alarm_when_fastened_in_time() {
        let net = seat_belt();
        let mut sim = Simulator::build(&net, RtosConfig::default());
        let stim = vec![
            Stimulus::pure(0, "key_on"),
            Stimulus::pure(100_000, "tick"),
            Stimulus::pure(200_000, "belt_on"),
            Stimulus::pure(300_000, "tick"),
            Stimulus::pure(400_000, "tick"),
            Stimulus::pure(500_000, "tick"),
            Stimulus::pure(600_000, "tick"),
            Stimulus::pure(700_000, "tick"),
        ];
        sim.run(&stim);
        assert!(sim.trace().iter().all(|t| t.signal != "alarm_on"));
    }

    #[test]
    fn shock_absorber_reacts_to_rough_road_at_speed() {
        let net = shock_absorber();
        let mut sim = Simulator::build(&net, RtosConfig::default());
        // High speed first (comfort -> sport immediately), then a PWM
        // tick produces a valve update at the sport duty.
        let stim = vec![
            Stimulus::valued(0, "speed_sample", 120),
            Stimulus::pure(200_000, "pwm_tick"),
        ];
        sim.run(&stim);
        let mode = sim
            .trace()
            .iter()
            .find(|t| t.signal == "mode_cmd")
            .expect("mode command");
        assert_eq!(mode.value, Some(2));
        let valve = sim
            .trace()
            .iter()
            .find(|t| t.signal == "valve")
            .expect("valve update");
        assert_eq!(valve.value, Some(90));
    }

    #[test]
    fn watchdog_alarms_without_activity() {
        let net = shock_absorber();
        let mut sim = Simulator::build(&net, RtosConfig::default());
        let stim = vec![
            Stimulus::pure(0, "wd_tick"),
            Stimulus::pure(100_000, "wd_tick"),
        ];
        sim.run(&stim);
        assert!(sim.trace().iter().any(|t| t.signal == "wd_alarm"));
    }
}
