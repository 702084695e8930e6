//! The per-layer metrics of the traced run. Every workload emits the same
//! list; a layer that does no work on a workload reads 0 there.

use dsspy_telemetry::TelemetrySnapshot;
use dsspy_workloads::suite7;

use crate::common::{median, ratio, Metrics, Run};
use crate::kernels::{time_kernel, Kernel};
use crate::probe::Probe;

/// Layers whose self time the traced run reports, in emission order.
pub const SELF_TIME_LAYERS: [&str; 7] = [
    "program",
    "producer",
    "collector",
    "stream",
    "persist",
    "core",
    "parallel",
];

/// The fan-out subscribers of the live session, by label.
pub const SUBSCRIBERS: [&str; 3] = ["analyzer", "sampler", "recorder"];

/// `name` lowercased to `[a-z0-9]`, as used in `table4.<program>.*`.
pub fn metric_name(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

#[derive(Default)]
pub struct Layers {
    pub producer_ns_per_event: f64,
    pub producer_events: f64,
    pub finish_ms: f64,
    /// Collector busy time, summed over sessions.
    pub busy_ns: f64,
    pub queue_depth_hwm: f64,
    pub batches: f64,
    pub dropped: f64,
    pub dispatch_ns_per_event: [f64; 3],
    pub snapshots: f64,
    pub probe: Probe,
    /// `(speedup, small_ratio)` per [`Kernel::ALL`] entry.
    pub kernels: [(f64, f64); 4],
    /// `(program, speedup, slowdown)` per Table IV row.
    pub table4: Vec<(String, f64, f64)>,
    pub analysis_share: f64,
    pub overhead_ratio: f64,
    pub estimate_error: f64,
}

impl Layers {
    /// Add one session's exported `collector.*` signals (busy time summed).
    pub fn add_collector(&mut self, snap: &TelemetrySnapshot) {
        self.busy_ns += snap.counter("collector.busy_nanos").unwrap_or(0) as f64;
        self.batches += snap.counter("collector.batches").unwrap_or(0) as f64;
        self.dropped += snap.counter("collector.dropped").unwrap_or(0) as f64;
        let hwm = snap.gauge("collector.queue_depth_hwm").unwrap_or(0) as f64;
        self.queue_depth_hwm = self.queue_depth_hwm.max(hwm);
    }

    /// Time the four §V kernels at a large and at a small size.
    pub fn time_kernels(&mut self, run: &mut Run) {
        let (large, small) = crate::kernels::sizes(run.scale);
        for (i, k) in Kernel::ALL.into_iter().enumerate() {
            let l = time_kernel(run, k, large, 3);
            let s = time_kernel(run, k, small, 51);
            self.kernels[i] = (l.seq_ns / l.par_ns, s.par_ns / s.seq_ns);
        }
    }

    /// Emit every per-layer metric, including the trace-derived ones.
    pub fn emit(self, run: &Run, m: &mut Metrics) {
        let p = &self.probe;
        m.put(
            "producer.ns_per_event",
            self.producer_ns_per_event,
            "ns/event",
        );
        m.put("producer.events", self.producer_events, "count");
        m.put("collector.finish_ms", self.finish_ms, "ms");
        m.put(
            "collector.busy_ns_per_batch",
            ratio(self.busy_ns, self.batches),
            "ns/batch",
        );
        m.put("collector.queue_depth_hwm", self.queue_depth_hwm, "count");
        m.put("collector.batches", self.batches, "count");
        m.put("collector.dropped", self.dropped, "count");
        for (label, v) in SUBSCRIBERS.iter().zip(self.dispatch_ns_per_event) {
            m.put(
                format!("fanout.{label}.dispatch_ns_per_event"),
                v,
                "ns/event",
            );
        }
        m.put("stream.snapshots", self.snapshots, "count");
        m.put(
            "persist.write_ns_per_event",
            ratio(p.write_ns, p.events),
            "ns/event",
        );
        m.put(
            "persist.read_ns_per_event",
            ratio(p.read_ns, p.events),
            "ns/event",
        );
        m.put(
            "patterns.mine_ns_per_event",
            ratio(p.mine_ns, p.events),
            "ns/event",
        );
        m.put(
            "usecases.classify_us_per_instance",
            ratio(p.classify_ns / 1e3, p.instances),
            "us/instance",
        );
        m.put("core.analyze_ms.t1", p.analyze_t1_ns / 1e6, "ms");
        m.put("core.analyze_ms.tN", p.analyze_tn_ns / 1e6, "ms");
        m.put(
            "core.analyze_scaling",
            ratio(p.analyze_t1_ns, p.analyze_tn_ns),
            "x",
        );
        m.put(
            "core.largest_instance_share",
            median(&p.largest_share),
            "fraction",
        );
        for (k, (speedup, small)) in Kernel::ALL.iter().zip(self.kernels) {
            m.put(format!("parallel.{}.speedup", k.name()), speedup, "x");
            m.put(format!("parallel.{}.small_ratio", k.name()), small, "x");
        }
        for w in suite7() {
            let name = metric_name(w.spec().name);
            let row = self.table4.iter().find(|r| r.0 == name);
            m.put(
                format!("table4.{name}.speedup"),
                row.map_or(0.0, |r| r.1),
                "x",
            );
            m.put(
                format!("table4.{name}.slowdown"),
                row.map_or(0.0, |r| r.2),
                "x",
            );
        }
        m.put("table4.analysis_share", self.analysis_share, "fraction");
        m.put("telemetry.overhead_ratio", self.overhead_ratio, "x");
        m.put("telemetry.estimate_error", self.estimate_error, "fraction");
        let (self_ns, wall) = run.tracer.self_time();
        let own = |layer: &str| self_ns.iter().find(|(l, _)| *l == layer).map_or(0, |x| x.1);
        m.put(
            "trace.unexplained_frac",
            ratio(own(crate::trace::E2E) as f64, wall as f64),
            "fraction",
        );
        let traced_iterations = run.traced_iterations().max(1) as f64;
        for layer in SELF_TIME_LAYERS {
            m.put(
                format!("layer.{layer}.self_ms"),
                own(layer) as f64 / 1e6 / traced_iterations,
                "ms",
            );
        }
    }
}
