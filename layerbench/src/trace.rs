//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every step a workload times goes through [`Tracer::span`], which always
//! measures the step's wall time (the end-to-end metrics are built from
//! those durations) and, only while recording is on, also keeps a span:
//! name, layer, start, end and parent. Spans of one run share the trace id.
//! They stay in memory until the run ends and are then written out as one
//! JSON document.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use serde_json::Value;

/// The root layer of an end-to-end step: its own self time is the part of
/// the wall clock no layer span explains.
pub const E2E: &str = "e2e";
/// The root layer of a per-layer probe: excluded from the end-to-end sums.
pub const PROBE: &str = "probe";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one benchmark run (main thread only).
pub struct Tracer {
    trace_id: u64,
    origin: Instant,
    recording: Cell<bool>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(trace_id: u64) -> Tracer {
        Tracer {
            trace_id,
            origin: Instant::now(),
            recording: Cell::new(false),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Turn span recording on or off; durations are measured either way.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Run `f` as a span of `layer` under `parent`, returning its result and
    /// wall time. `f` receives this span's id to parent its own children.
    pub fn span<R>(
        &self,
        parent: Option<usize>,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> (R, Duration) {
        if !self.recording.get() {
            let t = Instant::now();
            let r = f(None);
            return (r, t.elapsed());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                layer,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let t = Instant::now();
        let r = f(Some(id));
        let elapsed = t.elapsed();
        let start_ns = (t - self.origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = start_ns + elapsed.as_nanos() as u64;
        (r, elapsed)
    }

    /// A root span of the end-to-end pipeline.
    pub fn root<R>(&self, name: &str, f: impl FnOnce(Option<usize>) -> R) -> (R, Duration) {
        self.span(None, E2E, name, f)
    }

    /// Self time per layer over the spans under [`E2E`] roots, in ns, plus
    /// the summed wall time of those roots. The roots' own self time is
    /// reported under the `e2e` layer: time no layer span covers.
    pub fn self_time(&self) -> (Vec<(&'static str, u64)>, u64) {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push(s.id);
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut per_layer: Vec<(&'static str, u64)> = Vec::new();
        let mut wall = 0;
        for s in spans.iter() {
            if spans[root_of(s.id)].layer != E2E {
                continue;
            }
            if s.parent.is_none() {
                wall += s.dur();
            }
            let covered = union_len(children[s.id].iter().map(|&c| &spans[c]), s);
            let own = s.dur().saturating_sub(covered);
            match per_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += own,
                None => per_layer.push((s.layer, own)),
            }
        }
        (per_layer, wall)
    }

    /// The recorded spans as a JSON document.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or(Value::Null, |p| Value::U64(p as u64));
                Value::Map(vec![
                    ("trace".into(), Value::U64(self.trace_id)),
                    ("id".into(), Value::U64(s.id as u64)),
                    ("parent".into(), parent),
                    ("layer".into(), Value::Str(s.layer.into())),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("trace_id".into(), Value::U64(self.trace_id)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// Length of the union of `spans`' intervals, clipped to `within`.
fn union_len<'a>(spans: impl Iterator<Item = &'a Span>, within: &Span) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .map(|c| (c.start_ns.max(within.start_ns), c.end_ns.min(within.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: String::new(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(1);
        *t.spans.borrow_mut() = vec![
            span(0, None, E2E, 0, 100),
            span(1, Some(0), "core", 10, 50),
            span(2, Some(0), "persist", 40, 70),
            span(3, Some(1), "patterns", 20, 30),
            span(4, None, PROBE, 100, 200),
        ];
        let (layers, wall) = t.self_time();
        assert_eq!(wall, 100);
        let get = |l: &str| layers.iter().find(|(n, _)| *n == l).map(|x| x.1);
        assert_eq!(get(E2E), Some(40));
        assert_eq!(get("core"), Some(30));
        assert_eq!(get("persist"), Some(30));
        assert_eq!(get("patterns"), Some(10));
        assert_eq!(get(PROBE), None);
    }
}
