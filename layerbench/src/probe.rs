//! Per-layer probes of a finished capture (traced run only): the benchmark
//! calls each layer's public entry point directly and times it. A layer
//! that the workload's own traced loop already spans is not timed again:
//! the loop's medians are passed in instead.

use std::time::Instant;

use dsspy_collect::{read_capture_with, write_capture, Capture, ReadOptions};
use dsspy_core::Dsspy;
use dsspy_patterns::{analyze, regularity, MinerConfig, RegularityConfig};
use dsspy_usecases::{advisories, classify, AdvisoryConfig, Thresholds};

use crate::common::{median, same_capture, Run};
use crate::trace::PROBE;

/// Medians of the workload loop's traced spans, in ns: persistence and the
/// analysis at the default width, for a workload whose loop calls them.
pub struct Spanned {
    pub write_ns: f64,
    pub read_ns: f64,
    pub analyze_tn_ns: f64,
}

/// Summed probe results over one or more captures.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    pub events: f64,
    pub instances: f64,
    pub write_ns: f64,
    pub read_ns: f64,
    pub mine_ns: f64,
    pub classify_ns: f64,
    pub analyze_t1_ns: f64,
    pub analyze_tn_ns: f64,
    /// Largest instance's share of events, one entry per capture.
    pub largest_share: Vec<f64>,
}

impl Probe {
    /// Probe `capture`, adding to the running sums. With `spanned`, the
    /// loop's figures stand for persistence and the default-width analysis.
    pub fn add(&mut self, run: &mut Run, name: &str, capture: &Capture, spanned: Option<Spanned>) {
        let tracer = &run.tracer;
        let threads = run.threads;
        // The round trip's check, counted once the tracer's borrow of `run`
        // ends.
        let mut round_trip = None;
        let (times, _) = tracer.span(None, PROBE, name, |root| {
            let (write, read) = match &spanned {
                Some(s) => (s.write_ns, s.read_ns),
                None => {
                    let (buf, write) = tracer.span(root, "persist", "write_capture", |_| {
                        let mut buf = Vec::new();
                        write_capture(capture, &mut buf).expect("writing to memory cannot fail");
                        buf
                    });
                    let opts = ReadOptions {
                        threads: 0,
                        ..ReadOptions::default()
                    };
                    let (back, read) = tracer.span(root, "persist", "read_capture", |_| {
                        read_capture_with(buf.as_slice(), &opts)
                    });
                    let ok = back.as_ref().is_ok_and(|b| same_capture(b, capture));
                    round_trip = Some(ok);
                    (write.as_nanos() as f64, read.as_nanos() as f64)
                }
            };
            let ((mine, classify_ns), _) =
                tracer.span(root, "patterns+usecases", "per_instance", |_| {
                    let (mut mine, mut class) = (0u128, 0u128);
                    for p in &capture.profiles {
                        let t = Instant::now();
                        let a = analyze(p, &MinerConfig::default());
                        std::hint::black_box(regularity(&a, &RegularityConfig::default()));
                        let t2 = Instant::now();
                        std::hint::black_box(classify(&p.instance, &a, &Thresholds::default()));
                        std::hint::black_box(advisories(p, &AdvisoryConfig::default()));
                        mine += (t2 - t).as_nanos();
                        class += t2.elapsed().as_nanos();
                    }
                    (mine as f64, class as f64)
                });
            // The default width is timed here only if the loop does not.
            let widths = if spanned.is_some() { 1 } else { 2 };
            let (mut t1, mut tn) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                for (width, out) in [(1, &mut t1), (threads, &mut tn)].into_iter().take(widths) {
                    let (_, d) = tracer.span(root, "core", "analyze_capture", |_| {
                        std::hint::black_box(
                            Dsspy::new().with_threads(width).analyze_capture(capture),
                        )
                    });
                    out.push(d.as_nanos() as f64);
                }
            }
            let tn = spanned
                .as_ref()
                .map_or_else(|| median(&tn), |s| s.analyze_tn_ns);
            [write, read, mine, classify_ns, median(&t1), tn]
        });
        if let Some(ok) = round_trip {
            run.check(ok, || {
                format!("{name}: capture read back differs from the one written")
            });
        }
        let events = capture.event_count() as f64;
        self.events += events;
        self.instances += capture.instance_count() as f64;
        self.write_ns += times[0];
        self.read_ns += times[1];
        self.mine_ns += times[2];
        self.classify_ns += times[3];
        self.analyze_t1_ns += times[4];
        self.analyze_tn_ns += times[5];
        let largest = capture.profiles.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
        self.largest_share
            .push(if events > 0.0 { largest / events } else { 0.0 });
    }
}
