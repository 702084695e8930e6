//! Point-in-time snapshot of everything a telemetry instance has seen.
//!
//! The snapshot is the serialization boundary: live metrics are atomics and
//! locked span buffers, the snapshot is a plain serde-able value that can be
//! embedded in a `Report`, written next to a capture, exported to Prometheus
//! or Chrome `trace_event`, or merged with snapshots from other shards.

use serde::{Deserialize, Serialize};

use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
use crate::overhead::OverheadReport;
use crate::span::SpanRecord;

/// Everything one telemetry instance observed, frozen.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// All counters, sorted by name.
    #[serde(default)]
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    #[serde(default)]
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    #[serde(default)]
    pub histograms: Vec<HistogramSnapshot>,
    /// All finished spans, sorted by start time.
    #[serde(default)]
    pub spans: Vec<SpanRecord>,
    /// Profiling-overhead accounting, if an accountant ran.
    #[serde(default)]
    pub overhead: Option<OverheadReport>,
}

impl TelemetrySnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Spans of one category, in start order.
    pub fn spans_in<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Per-thread busy nanoseconds for the top-level (`depth == 0`) spans of
    /// one category, sorted by thread ordinal — the worker-utilization view
    /// of a parallel phase. Only depth-0 spans count so nested child spans
    /// are not double-billed.
    pub fn worker_busy_nanos(&self, cat: &str) -> Vec<(u32, u64)> {
        let mut per_thread: Vec<(u32, u64)> = Vec::new();
        for span in self.spans_in(cat).filter(|s| s.depth == 0) {
            match per_thread.iter_mut().find(|(t, _)| *t == span.thread) {
                Some((_, busy)) => *busy += span.dur_nanos,
                None => per_thread.push((span.thread, span.dur_nanos)),
            }
        }
        per_thread.sort_unstable();
        per_thread
    }

    /// Load imbalance of a parallel phase: max over mean of per-worker busy
    /// time (1.0 = perfectly balanced; `0.0` when the category is empty).
    pub fn load_imbalance(&self, cat: &str) -> f64 {
        let workers = self.worker_busy_nanos(cat);
        if workers.is_empty() {
            return 0.0;
        }
        let max = workers.iter().map(|(_, b)| *b).max().unwrap_or(0) as f64;
        let mean = workers.iter().map(|(_, b)| *b).sum::<u64>() as f64 / workers.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }

    /// Merge another snapshot (e.g. a per-thread shard) into this one.
    ///
    /// Counters add, gauges keep the maximum reading, histograms merge
    /// bucket-wise, spans concatenate. All three combining operators are
    /// commutative and associative with empty shards as identity, so the
    /// merged result is independent of merge order (property-tested in
    /// `tests/prop_merge.rs`).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for counter in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == counter.name) {
                Some(mine) => mine.value += counter.value,
                None => self.counters.push(counter.clone()),
            }
        }
        for gauge in &other.gauges {
            match self.gauges.iter_mut().find(|g| g.name == gauge.name) {
                Some(mine) => mine.value = mine.value.max(gauge.value),
                None => self.gauges.push(gauge.clone()),
            }
        }
        for histogram in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|h| h.name == histogram.name)
            {
                Some(mine) => mine.merge(histogram),
                None => self.histograms.push(histogram.clone()),
            }
        }
        self.spans.extend(other.spans.iter().cloned());
        if self.overhead.is_none() {
            self.overhead = other.overhead;
        }
        self.normalize();
    }

    /// Restore canonical ordering (names sorted, spans by start time) so
    /// equal contents compare and serialize identically.
    pub fn normalize(&mut self) {
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        self.spans.sort_by(|a, b| {
            (a.start_nanos, &a.cat, &a.name, a.thread, a.dur_nanos).cmp(&(
                b.start_nanos,
                &b.cat,
                &b.name,
                b.thread,
                b.dur_nanos,
            ))
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn lookup_by_name() {
        let telemetry = Telemetry::enabled();
        telemetry.counter("a.count").add(3);
        telemetry.gauge("a.gauge").set(7);
        telemetry.histogram("a.hist").record(4);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("a.count"), Some(3));
        assert_eq!(snap.gauge("a.gauge"), Some(7));
        assert_eq!(snap.histogram("a.hist").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
        assert!(!snap.is_empty());
    }

    #[test]
    fn merge_combines_by_name() {
        let a = Telemetry::enabled();
        a.counter("n").add(2);
        a.histogram("h").record(10);
        let b = Telemetry::enabled();
        b.counter("n").add(5);
        b.counter("only_b").add(1);
        b.histogram("h").record(20);
        b.gauge("g").set(9);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("n"), Some(7));
        assert_eq!(merged.counter("only_b"), Some(1));
        let h = merged.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 20);
        assert_eq!(merged.gauge("g"), Some(9));
    }

    #[test]
    fn worker_view_counts_only_top_level_spans() {
        let (hand, source) = crate::ManualClock::new();
        let telemetry = Telemetry::with_clock(source);
        {
            let _outer = telemetry.span("work", "a");
            hand.advance(100);
            let _inner = telemetry.span("work", "a.child");
            hand.advance(50);
        }
        let snap = telemetry.snapshot();
        let workers = snap.worker_busy_nanos("work");
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].1, 150, "only the outer span is billed");
        assert!((snap.load_imbalance("work") - 1.0).abs() < 1e-12);
        assert_eq!(snap.load_imbalance("nothing"), 0.0);
    }
}
