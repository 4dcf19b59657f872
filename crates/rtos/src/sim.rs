//! The co-simulation engine.

use polis_cfsm::{value_var_name, CfsmState, Network, OrderScheme, ReactiveFn};
use polis_expr::MapEnv;
use polis_sgraph::{build, BufferPolicy, SGraph};
use polis_vm::{
    assemble, compile, run_reaction, ObjectCode, Profile, ReactionHost, VmMemory, VmProgram,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Scheduling policy for enabled software CFSMs (Section IV-A: "a user
/// chooses off-line one of the several available scheduling policies").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Cycle through tasks in declaration order.
    RoundRobin,
    /// Always dispatch the enabled task with the smallest priority value.
    /// `priorities[i]` belongs to the `i`-th machine of the network.
    StaticPriority {
        /// Smaller value = more urgent.
        priorities: Vec<u32>,
    },
}

/// How events from the environment (or hardware CFSMs) reach software
/// (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// An interrupt is requested; the ISR runs the emission routine
    /// immediately (costing [`RtosOverhead::isr`] cycles).
    Interrupt,
    /// A bit on an I/O port, sampled by a polling routine with the given
    /// period in cycles; delivery is deferred to the next polling instant.
    Polled {
        /// Polling period in CPU cycles.
        period: u64,
    },
}

/// Fixed cycle costs of generated RTOS services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtosOverhead {
    /// Scheduler decision + task dispatch, charged per reaction.
    pub dispatch: u64,
    /// Interrupt service routine for one event delivery.
    pub isr: u64,
    /// One execution of the polling routine.
    pub poll: u64,
}

impl Default for RtosOverhead {
    fn default() -> RtosOverhead {
        RtosOverhead {
            dispatch: 30,
            isr: 20,
            poll: 15,
        }
    }
}

/// Configuration of the generated RTOS.
#[derive(Debug, Clone)]
pub struct RtosConfig {
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// With [`SchedulingPolicy::StaticPriority`]: events arriving during a
    /// reaction immediately run strictly-more-urgent tasks before the
    /// interrupted task's bookkeeping completes ("with or without
    /// preemption", Section IV-A). Ignored under round-robin.
    pub preemptive: bool,
    /// Target cost profile for the synthesized routines.
    pub profile: Profile,
    /// Delivery mode per primary-input signal; unlisted signals default to
    /// [`DeliveryMode::Interrupt`] ("by default, all events are
    /// communicated through interrupts, but a user may specify any number
    /// of events to be polled").
    pub delivery: BTreeMap<String, DeliveryMode>,
    /// `(emitter, consumer)` machine pairs whose executions are chained
    /// into a single task: the consumer runs immediately after the
    /// emitter, with no scheduling or emission overhead ("the user can
    /// also instruct the system to bypass the RTOS and chain certain
    /// executions of CFSMs into a single task", Section IV-A).
    pub chains: BTreeSet<(String, String)>,
    /// Machines implemented in hardware (Section IV-C): they react
    /// instantly off-CPU (one cycle after the triggering event) and
    /// deliver events to software through the configured delivery mode.
    pub hardware: BTreeSet<String>,
    /// Service costs.
    pub overhead: RtosOverhead,
}

/// Reaction latency of hardware CFSMs ("a straightforward synchronous
/// hardware implementation takes only one cycle").
const HW_REACTION_CYCLES: u64 = 1;

impl Default for RtosConfig {
    fn default() -> RtosConfig {
        RtosConfig {
            policy: SchedulingPolicy::RoundRobin,
            preemptive: false,
            profile: Profile::Mcu8,
            delivery: BTreeMap::new(),
            chains: BTreeSet::new(),
            hardware: BTreeSet::new(),
            overhead: RtosOverhead::default(),
        }
    }
}

/// One environment event: `signal` occurs at `time` (cycles), optionally
/// carrying a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    /// Occurrence time in CPU cycles.
    pub time: u64,
    /// Signal name.
    pub signal: String,
    /// Carried value for valued signals.
    pub value: Option<i64>,
}

impl Stimulus {
    /// A pure stimulus.
    pub fn pure(time: u64, signal: impl Into<String>) -> Stimulus {
        Stimulus {
            time,
            signal: signal.into(),
            value: None,
        }
    }

    /// A valued stimulus.
    pub fn valued(time: u64, signal: impl Into<String>, value: i64) -> Stimulus {
        Stimulus {
            time,
            signal: signal.into(),
            value: Some(value),
        }
    }
}

/// One emission observed during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Completion time of the emitting reaction.
    pub time: u64,
    /// Signal name.
    pub signal: String,
    /// Carried value.
    pub value: Option<i64>,
    /// Emitting machine name.
    pub by: String,
}

/// Aggregate simulation metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Final simulated wall-clock time (includes idle gaps between
    /// stimuli).
    pub total_cycles: u64,
    /// CPU-busy cycles only: software reactions plus RTOS services.
    pub busy_cycles: u64,
    /// Reactions executed per task (hardware reactions included).
    pub reactions: Vec<u64>,
    /// Reactions that fired a transition, per task.
    pub fired: Vec<u64>,
    /// Events lost to one-place-buffer overwrites, per task.
    pub overwritten: Vec<u64>,
    /// Cycles spent in RTOS services (dispatch + ISR + polling).
    pub rtos_cycles: u64,
    /// Reactions executed through chaining (no dispatch overhead).
    pub chained_reactions: u64,
    /// Reactions executed preemptively inside an interrupt window.
    pub preempting_reactions: u64,
}

/// How a machine is realized.
enum Runtime {
    /// A synthesized software routine on the shared CPU.
    Sw {
        prog: VmProgram,
        obj: ObjectCode,
        mem: VmMemory,
    },
    /// A hardware CFSM: reacts instantly off-CPU via the reference
    /// semantics.
    Hw { state: CfsmState, values: MapEnv },
}

struct Task {
    name: String,
    cfsm: polis_cfsm::Cfsm,
    runtime: Runtime,
    /// Presence flags per input (the one-place buffers).
    flags: Vec<bool>,
    /// Arrivals during the task's own execution (Section IV-D).
    pending: Vec<(usize, Option<i64>)>,
    /// Section IV-A: a task becomes enabled when any of its input events
    /// occurs and is disabled once it finishes its execution — even if no
    /// transition fired (the preserved events re-arm it only together with
    /// a fresh arrival, preventing livelock on partial snapshots).
    enabled: bool,
}

/// Host that exposes the latched snapshot and records RTOS interactions.
#[derive(Default)]
struct SnapshotHost {
    snapshot: Vec<bool>,
    emissions: Vec<(usize, Option<i64>)>,
    consumed: bool,
}

impl ReactionHost for SnapshotHost {
    fn detect(&mut self, input: usize) -> bool {
        self.snapshot[input]
    }
    fn emit_pure(&mut self, output: usize) {
        self.emissions.push((output, None));
    }
    fn emit_valued(&mut self, output: usize, value: i64) {
        self.emissions.push((output, Some(value)));
    }
    fn consume(&mut self) {
        self.consumed = true;
    }
}

/// The network co-simulator; see the crate docs.
pub struct Simulator {
    config: RtosConfig,
    tasks: Vec<Task>,
    /// `signal -> (task, input index)` delivery fan-out.
    consumers: HashMap<String, Vec<(usize, usize)>>,
    rr_next: usize,
    now: u64,
    trace: Vec<TraceEntry>,
    stats: SimStats,
}

impl Simulator {
    /// Synthesizes every software machine of `net` (characteristic
    /// function → sifted BDD → s-graph → object code) and wires up the
    /// RTOS; machines listed in [`RtosConfig::hardware`] become hardware
    /// actors instead.
    pub fn build(net: &Network, config: RtosConfig) -> Simulator {
        let graphs: Vec<Option<SGraph>> = net
            .cfsms()
            .iter()
            .map(|m| {
                if config.hardware.contains(m.name()) {
                    None
                } else {
                    let mut rf = ReactiveFn::build(m);
                    rf.sift(OrderScheme::OutputsAfterSupport);
                    Some(build(&rf).expect("validated CFSMs synthesize"))
                }
            })
            .collect();
        Simulator::with_optional_graphs(net, graphs, config)
    }

    /// Like [`Simulator::build`] with caller-provided s-graphs (one per
    /// machine, in network order) — for comparing implementation styles.
    ///
    /// # Panics
    ///
    /// Panics if `graphs.len() != net.cfsms().len()`.
    pub fn with_graphs(net: &Network, graphs: Vec<SGraph>, config: RtosConfig) -> Simulator {
        Simulator::with_optional_graphs(net, graphs.into_iter().map(Some).collect(), config)
    }

    fn with_optional_graphs(
        net: &Network,
        graphs: Vec<Option<SGraph>>,
        config: RtosConfig,
    ) -> Simulator {
        assert_eq!(graphs.len(), net.cfsms().len(), "one graph per machine");
        let mut tasks = Vec::new();
        let mut consumers: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (ti, (m, g)) in net.cfsms().iter().zip(graphs).enumerate() {
            let runtime = if config.hardware.contains(m.name()) {
                Runtime::Hw {
                    state: m.initial_state(),
                    values: MapEnv::new(),
                }
            } else {
                let g = g.expect("software machines carry a graph");
                // Routines copy every entry value (buffer-all), the
                // policy `polis synth` defaults to.
                let prog = compile(m, &g, BufferPolicy::All);
                let obj = assemble(&prog, config.profile);
                let mem = VmMemory::new(&prog);
                Runtime::Sw { prog, obj, mem }
            };
            for (ii, sig) in m.inputs().iter().enumerate() {
                consumers
                    .entry(sig.name().to_owned())
                    .or_default()
                    .push((ti, ii));
            }
            tasks.push(Task {
                name: m.name().to_owned(),
                cfsm: m.clone(),
                runtime,
                flags: vec![false; m.inputs().len()],
                pending: Vec::new(),
                enabled: false,
            });
        }
        let n = tasks.len();
        Simulator {
            config,
            tasks,
            consumers,
            rr_next: 0,
            now: 0,
            trace: Vec::new(),
            stats: SimStats {
                reactions: vec![0; n],
                fired: vec![0; n],
                overwritten: vec![0; n],
                ..SimStats::default()
            },
        }
    }

    /// The observed emission trace.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Runs the simulation over `stimuli` until every stimulus is
    /// delivered and no task remains enabled. Stimuli are sorted by time
    /// internally.
    pub fn run(&mut self, stimuli: &[Stimulus]) {
        let mut queue: Vec<Stimulus> = stimuli.to_vec();
        // Apply delivery-mode deferral (polling) up front.
        for s in &mut queue {
            if let Some(DeliveryMode::Polled { period }) = self.config.delivery.get(&s.signal) {
                let p = (*period).max(1);
                s.time = s.time.div_ceil(p) * p;
            }
        }
        queue.sort_by_key(|s| s.time);
        let mut qi = 0;

        loop {
            // Deliver everything due.
            while qi < queue.len() && queue[qi].time <= self.now {
                let s = queue[qi].clone();
                qi += 1;
                self.deliver_env(&s, None);
            }
            // Pick a task.
            let Some(ti) = self.pick_task() else {
                // Idle: jump to the next stimulus or stop.
                if qi < queue.len() {
                    self.now = self.now.max(queue[qi].time);
                    continue;
                }
                break;
            };
            let start = self.now;
            let (emissions, cycles) = self.react_sw(ti);
            self.now = start + cycles + self.config.overhead.dispatch;
            self.stats.busy_cycles += cycles + self.config.overhead.dispatch;
            self.stats.rtos_cycles += self.config.overhead.dispatch;

            // Environment events that arrived while the task was running
            // land in *its* pending set; other tasks get them directly.
            while qi < queue.len() && queue[qi].time <= self.now {
                let s = queue[qi].clone();
                qi += 1;
                self.deliver_env(&s, Some(ti));
            }
            // Preemption: strictly-more-urgent tasks enabled by those
            // arrivals run before the interrupted task's bookkeeping
            // completes.
            if self.config.preemptive {
                while let Some(hp) = self.more_urgent_enabled(ti) {
                    let (em, cyc) = self.react_sw(hp);
                    self.now += cyc + self.config.overhead.dispatch;
                    self.stats.busy_cycles += cyc + self.config.overhead.dispatch;
                    self.stats.rtos_cycles += self.config.overhead.dispatch;
                    self.stats.preempting_reactions += 1;
                    self.process_emissions(hp, em, Some(ti));
                }
            }
            // The hold-back window is over: flush deferred arrivals into
            // the task's flags for its next execution.
            let pending = std::mem::take(&mut self.tasks[ti].pending);
            for (input, value) in pending {
                self.set_flag(ti, input, value);
            }
            // Internal emissions are delivered at reaction completion.
            self.process_emissions(ti, emissions, None);
            self.stats.total_cycles = self.now;
        }
        self.stats.total_cycles = self.now;
    }

    /// Measures, over the whole trace, the worst latency from a stimulus
    /// on `input` to the next emission of `output` (a simple I/O-latency
    /// probe for the Section V-B constraint check). Returns `None` if the
    /// pairing never occurred.
    pub fn worst_latency(&self, stimuli: &[Stimulus], input: &str, output: &str) -> Option<u64> {
        let mut worst = None;
        for s in stimuli.iter().filter(|s| s.signal == input) {
            let response = self
                .trace
                .iter()
                .find(|t| t.signal == output && t.time >= s.time)?;
            let lat = response.time - s.time;
            worst = Some(worst.map_or(lat, |w: u64| w.max(lat)));
        }
        worst
    }

    fn is_hw(&self, ti: usize) -> bool {
        matches!(self.tasks[ti].runtime, Runtime::Hw { .. })
    }

    fn priority(&self, ti: usize) -> u32 {
        match &self.config.policy {
            SchedulingPolicy::StaticPriority { priorities } => {
                priorities.get(ti).copied().unwrap_or(u32::MAX)
            }
            SchedulingPolicy::RoundRobin => u32::MAX,
        }
    }

    fn more_urgent_enabled(&self, than: usize) -> Option<usize> {
        let bar = self.priority(than);
        (0..self.tasks.len())
            .filter(|&ti| !self.is_hw(ti) && self.tasks[ti].enabled && self.priority(ti) < bar)
            .min_by_key(|&ti| self.priority(ti))
    }

    fn pick_task(&mut self) -> Option<usize> {
        let n = self.tasks.len();
        match &self.config.policy {
            SchedulingPolicy::RoundRobin => {
                for k in 0..n {
                    let ti = (self.rr_next + k) % n;
                    if self.tasks[ti].enabled && !self.is_hw(ti) {
                        self.rr_next = (ti + 1) % n;
                        return Some(ti);
                    }
                }
                None
            }
            SchedulingPolicy::StaticPriority { priorities } => (0..n)
                .filter(|&ti| self.tasks[ti].enabled && !self.is_hw(ti))
                .min_by_key(|&ti| priorities.get(ti).copied().unwrap_or(u32::MAX)),
        }
    }

    /// Runs one software reaction of task `ti`; returns its emissions (by
    /// name) and cycle cost.
    fn react_sw(&mut self, ti: usize) -> (Vec<(String, Option<i64>)>, u64) {
        let task = &mut self.tasks[ti];
        task.enabled = false; // disabled once it finishes its execution
        let snapshot = task.flags.clone();
        let mut host = SnapshotHost {
            snapshot: snapshot.clone(),
            ..SnapshotHost::default()
        };
        let Runtime::Sw { prog, obj, mem } = &mut task.runtime else {
            unreachable!("hardware tasks react eagerly at delivery");
        };
        let stats = run_reaction(prog, obj, mem, &mut host).expect("synthesized routines execute");

        self.stats.reactions[ti] += 1;
        if host.consumed {
            self.stats.fired[ti] += 1;
            // The consumed snapshot is cleared; later arrivals survive.
            for (f, &snap) in task.flags.iter_mut().zip(&snapshot) {
                if snap {
                    *f = false;
                }
            }
        }
        let task = &self.tasks[ti];
        let emissions = host
            .emissions
            .into_iter()
            .map(|(o, v)| (task.cfsm.outputs()[o].name().to_owned(), v))
            .collect();
        (emissions, stats.cycles)
    }

    /// Records and delivers a finished reaction's emissions, running
    /// chained consumers inline (no dispatch or emission overhead).
    fn process_emissions(
        &mut self,
        by: usize,
        emissions: Vec<(String, Option<i64>)>,
        running: Option<usize>,
    ) {
        let by_name = self.tasks[by].name.clone();
        for (sig, value) in emissions {
            self.trace.push(TraceEntry {
                time: self.now,
                signal: sig.clone(),
                value,
                by: by_name.clone(),
            });
            self.deliver(&sig, value, running);

            // Chained consumers execute immediately as part of this task.
            let targets = self.consumers.get(&sig).cloned().unwrap_or_default();
            for (ti2, _) in targets {
                if self.is_hw(ti2) || !self.tasks[ti2].enabled {
                    continue;
                }
                let key = (by_name.clone(), self.tasks[ti2].name.clone());
                if self.config.chains.contains(&key) {
                    let (em2, cyc2) = self.react_sw(ti2);
                    self.now += cyc2;
                    self.stats.busy_cycles += cyc2;
                    self.stats.chained_reactions += 1;
                    self.process_emissions(ti2, em2, running);
                }
            }
        }
    }

    fn deliver_env(&mut self, s: &Stimulus, running: Option<usize>) {
        if matches!(
            self.config.delivery.get(&s.signal),
            None | Some(DeliveryMode::Interrupt)
        ) {
            self.now += self.config.overhead.isr;
            self.stats.rtos_cycles += self.config.overhead.isr;
            self.stats.busy_cycles += self.config.overhead.isr;
        } else {
            self.now += self.config.overhead.poll;
            self.stats.rtos_cycles += self.config.overhead.poll;
            self.stats.busy_cycles += self.config.overhead.poll;
        }
        self.deliver(&s.signal, s.value, running);
    }

    /// Sets flags and value buffers at every consumer; `running` holds
    /// arrivals for the executing task in its pending set (Section IV-D).
    /// Hardware consumers react immediately, off-CPU.
    fn deliver(&mut self, signal: &str, value: Option<i64>, running: Option<usize>) {
        let targets = self.consumers.get(signal).cloned().unwrap_or_default();
        for (ti, input) in targets {
            if running == Some(ti) {
                self.tasks[ti].pending.push((input, value));
            } else {
                self.set_flag(ti, input, value);
                if self.is_hw(ti) {
                    self.react_hw(ti, running);
                }
            }
        }
    }

    /// Executes one hardware reaction at delivery time: the hardware
    /// implementation "takes only one cycle" and does not occupy the CPU.
    fn react_hw(&mut self, ti: usize, running: Option<usize>) {
        let task = &mut self.tasks[ti];
        task.enabled = false;
        let snapshot = task.flags.clone();
        let present: BTreeSet<String> = task
            .cfsm
            .inputs()
            .iter()
            .zip(&snapshot)
            .filter(|(_, &p)| p)
            .map(|(s, _)| s.name().to_owned())
            .collect();
        let Runtime::Hw { state, values } = &mut task.runtime else {
            unreachable!("react_hw on a software task");
        };
        let r = task
            .cfsm
            .react(&present, values, state)
            .expect("hardware CFSM reacts");
        self.stats.reactions[ti] += 1;
        let mut emissions = Vec::new();
        if r.fired {
            self.stats.fired[ti] += 1;
            *state = r.next.clone();
            for f in task.flags.iter_mut() {
                *f = false;
            }
            for e in &r.emissions {
                emissions.push((e.signal.clone(), e.value.map(|v| v.as_int().unwrap_or(0))));
            }
        }
        // Hardware completion is HW_REACTION_CYCLES later; the CPU clock
        // does not advance (the reaction runs in parallel).
        let at = self.now + HW_REACTION_CYCLES;
        let by_name = self.tasks[ti].name.clone();
        for (sig, value) in emissions {
            self.trace.push(TraceEntry {
                time: at,
                signal: sig.clone(),
                value,
                by: by_name.clone(),
            });
            self.deliver(&sig, value, running);
        }
    }

    fn set_flag(&mut self, ti: usize, input: usize, value: Option<i64>) {
        let task = &mut self.tasks[ti];
        if task.flags[input] {
            // One-place buffer: the earlier occurrence is overwritten.
            self.stats.overwritten[ti] += 1;
        }
        task.flags[input] = true;
        task.enabled = true;
        if let Some(v) = value {
            match &mut task.runtime {
                Runtime::Sw { prog, mem, .. } => {
                    if let Some(slot) = prog.input_value_slot(input) {
                        mem.set(slot, v);
                    }
                }
                Runtime::Hw { values, .. } => {
                    let sig = task.cfsm.inputs()[input].name().to_owned();
                    values.set(value_var_name(&sig), polis_expr::Value::Int(v));
                }
            }
        }
    }
}
