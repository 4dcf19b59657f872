//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<call>` (`cfsm.chi`, `verify.run`, …) or,
//! for the benchmark's own per-item glue, `item`. Spans are kept in
//! memory and serialized once, at the end of a run, through
//! `polis_core::trace`.

use polis_core::{MetricValue, StageRecord, SynthTrace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers, named after the crates. Span names start with one of
/// these followed by a dot.
pub const LAYERS: [&str; 9] = [
    "lang", "cfsm", "bdd", "sgraph", "vm", "codegen", "estimate", "rtos", "verify",
];

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `item` for benchmark glue.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The workload item the span belongs to.
    pub item: usize,
}

/// Records spans when on; runs closures untouched when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: usize,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Attributes subsequent spans to workload item `item`.
    pub fn set_item(&mut self, item: usize) {
        self.item = item;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-pass time sums: total duration per span name, and self time
/// (duration minus the time covered by child spans) per layer.
#[derive(Debug, Clone, Default)]
pub struct SpanTimes {
    /// Seconds per span name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self seconds per layer; spans outside [`LAYERS`] are not counted.
    pub self_by_layer: BTreeMap<&'static str, f64>,
}

impl SpanTimes {
    /// Sums the spans of one pass.
    pub fn of(spans: &[Span]) -> SpanTimes {
        let dur = |s: &Span| (s.end - s.start).as_secs_f64();
        let mut child = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p] += dur(s);
            }
        }
        let mut t = SpanTimes::default();
        for (s, c) in spans.iter().zip(child) {
            *t.by_name.entry(s.name).or_default() += dur(s);
            if let Some(layer) = LAYERS.iter().find(|l| layer_of(s.name) == **l) {
                *t.self_by_layer.entry(layer).or_default() += dur(s) - c;
            }
        }
        t
    }

    /// Total self time over all layers.
    pub fn attributed(&self) -> f64 {
        self.self_by_layer.values().sum()
    }
}

fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or("", |(layer, _)| layer)
}

/// Serializes the spans of every traced pass as a `SynthTrace`: one
/// record per span, with the pass and item in `machine`, and start,
/// end, span id and parent id (both per pass) as counters.
pub fn to_json(passes: &[Vec<Span>]) -> String {
    let mut trace = SynthTrace::new();
    for (p, spans) in passes.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let mut counters = vec![
                ("id".to_owned(), MetricValue::Int(id as u64)),
                (
                    "start_ns".to_owned(),
                    MetricValue::Int(s.start.as_nanos() as u64),
                ),
                (
                    "end_ns".to_owned(),
                    MetricValue::Int(s.end.as_nanos() as u64),
                ),
            ];
            if let Some(parent) = s.parent {
                counters.push(("parent".to_owned(), MetricValue::Int(parent as u64)));
            }
            trace.push(StageRecord {
                stage: s.name,
                machine: Some(format!("pass{p}/item{}", s.item)),
                wall: s.end - s.start,
                counters,
            });
        }
    }
    trace.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span {
                name: "item",
                start: ms(0),
                end: ms(10),
                parent: None,
                item: 0,
            },
            Span {
                name: "rtos.sim_build",
                start: ms(1),
                end: ms(7),
                parent: Some(0),
                item: 0,
            },
            Span {
                name: "cfsm.chi",
                start: ms(2),
                end: ms(4),
                parent: Some(1),
                item: 0,
            },
        ];
        let t = SpanTimes::of(&spans);
        assert!((t.self_by_layer["rtos"] - 0.004).abs() < 1e-12);
        assert!((t.self_by_layer["cfsm"] - 0.002).abs() < 1e-12);
        assert!((t.by_name["rtos.sim_build"] - 0.006).abs() < 1e-12);
        assert!((t.attributed() - 0.006).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("cfsm.chi", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
