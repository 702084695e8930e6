//! `table4`: the seven Table IV programs, each run plain, instrumented under
//! a default session (then analyzed in memory) and parallel, all from the
//! main thread.

use std::time::Instant;

use dsspy_collect::{Capture, Session, SessionConfig};
use dsspy_core::Dsspy;
use dsspy_telemetry::{OverheadReport, TelemetrySnapshot};
use dsspy_workloads::{suite7, Mode, Workload};

use crate::common::{capture_bytes, median, setup_median, telemetry, Metrics, Rng, Run, Samples};
use crate::layers::{metric_name, Layers};
use crate::probe::Probe;

/// Per-program samples, split by whether the iteration was traced.
#[derive(Default)]
struct Row {
    plain: [Samples; 2],
    /// Program under the session, without `finish`.
    program: [Samples; 2],
    finish: [Samples; 2],
    analyze: [Samples; 2],
    parallel: [Samples; 2],
    /// Wall time of the program's whole step (its root span).
    wall: [Samples; 2],
    events: u64,
    bytes: u64,
    /// Telemetry of the last traced session, with its duration.
    telemetry: Option<(TelemetrySnapshot, u64)>,
}

impl Row {
    fn instrumented(&self, t: usize) -> f64 {
        self.program[t].median() + self.finish[t].median()
    }
}

struct Step {
    checksums: [u64; 3],
    instances: usize,
    use_cases: usize,
    dropped: u64,
    capture: Capture,
    telemetry: Option<(TelemetrySnapshot, u64)>,
}

pub fn run(run: &mut Run, m: &mut Metrics) {
    let programs = suite7();
    let scale = run.scale;
    let threads = run.threads;
    let (_, setup_s) = setup_median(5, || {
        for w in &programs {
            std::hint::black_box(w.run(scale, Mode::Plain));
        }
    });
    let mut rows: Vec<Row> = programs.iter().map(|_| Row::default()).collect();
    // Per-iteration ratios, so each pairs samples taken close in time.
    let (mut slowdown, mut speedup) = (Samples::default(), Samples::default());
    let mut rng = Rng::new(run.seed);
    let started = Instant::now();
    let mut i = 0;
    while run.more(started, i) {
        let t = run.trace_iteration(i) as usize;
        let mut order: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut order);
        let (mut instances, mut use_cases) = (0, 0);
        for &p in &order {
            let w: &dyn Workload = programs[p].as_ref();
            let row = &mut rows[p];
            let tracer = &run.tracer;
            let name = w.spec().name;
            // Table IV's order: plain, instrumented, parallel. (Running the
            // instrumented variant right after another program's analysis
            // can flip a runtime-share verdict; see NOTES.md.)
            let (mut step, wall) = tracer.root(name, |root| {
                let (plain, d) =
                    tracer.span(root, "program", "plain", |_| w.run(scale, Mode::Plain));
                row.plain[t].push_secs(d);
                let telemetry = telemetry(t == 1);
                let session = Session::with_telemetry(SessionConfig::default(), telemetry.clone());
                let (instrumented, d) = tracer.span(root, "producer", "instrumented", |_| {
                    w.run(scale, Mode::Instrumented(&session))
                });
                row.program[t].push_secs(d);
                let (capture, d) = tracer.span(root, "collector", "finish", |_| session.finish());
                row.finish[t].push_secs(d);
                let (report, d) = tracer.span(root, "core", "analyze_capture", |_| {
                    Dsspy::new().analyze_capture_with(&capture, &telemetry)
                });
                row.analyze[t].push_secs(d);
                let (parallel, d) = tracer.span(root, "parallel", "parallel", |_| {
                    w.run(scale, Mode::Parallel(threads))
                });
                row.parallel[t].push_secs(d);
                Step {
                    checksums: [plain, instrumented, parallel],
                    instances: report.instance_count(),
                    use_cases: report.all_use_cases().len(),
                    dropped: capture.stats.dropped,
                    telemetry: telemetry
                        .is_enabled()
                        .then(|| (telemetry.snapshot(), capture.session_nanos)),
                    capture,
                }
            });
            row.wall[t].push_secs(wall);
            // The programs are deterministic: every session of one program
            // records the same events as its first.
            let events = step.capture.event_count() as u64;
            if row.events == 0 {
                row.events = events;
            }
            run.check(events == row.events, || {
                format!("{name}: {events} events, first session {}", row.events)
            });
            // Outside the timed section; the programs are deterministic, so
            // the encoded size is measured once.
            if row.bytes == 0 {
                row.bytes = capture_bytes(&step.capture);
            }
            if step.telemetry.is_some() {
                row.telemetry = step.telemetry.take();
            }
            let spec = w.spec();
            let [plain, instrumented, parallel] = step.checksums;
            run.check(plain == instrumented && plain == parallel, || {
                format!("{name}: checksums plain {plain:#x}, instrumented {instrumented:#x}, parallel {parallel:#x}")
            });
            run.check(step.instances == spec.paper_instances, || {
                format!(
                    "{name}: {} instances, paper {}",
                    step.instances, spec.paper_instances
                )
            });
            run.check(step.use_cases == spec.paper_use_cases.1, || {
                format!(
                    "{name}: {} use cases, paper {}",
                    step.use_cases, spec.paper_use_cases.1
                )
            });
            run.check(step.dropped == 0, || {
                format!("{name}: {} events dropped", step.dropped)
            });
            instances += step.instances;
            use_cases += step.use_cases;
        }
        run.check(instances == 104 && use_cases == 24, || {
            format!("suite7 totals: {instances} instances, {use_cases} use cases (paper 104, 24)")
        });
        let last = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
        let plain = last(&|r| r.plain[t].last());
        slowdown.push(last(&|r| r.program[t].last() + r.finish[t].last()) / plain);
        speedup.push(plain / last(&|r| r.parallel[t].last()));
        i += 1;
    }

    let sum = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    let events = sum(&|r| r.events as f64);
    if !run.traced {
        let t = 0;
        m.put("collect_slowdown", slowdown.median(), "x");
        m.put("recommend_speedup", speedup.median(), "x");
        m.put(
            "advice_latency_s",
            sum(&|r| r.finish[t].median() + r.analyze[t].median()),
            "s",
        );
        m.put(
            "live_events_per_s",
            events / sum(&|r| r.instrumented(t) + r.analyze[t].median()),
            "events/s",
        );
        m.put(
            "capture_bytes_per_event",
            sum(&|r| r.bytes as f64) / events,
            "B/event",
        );
        m.put("setup_s", setup_s, "s");
        return;
    }

    let t = 1;
    let mut layers = Layers {
        producer_events: events,
        producer_ns_per_event: (sum(&|r| r.program[t].median()) - sum(&|r| r.plain[t].median()))
            * 1e9
            / events,
        finish_ms: sum(&|r| r.finish[t].median()) * 1e3,
        analysis_share: sum(&|r| r.analyze[t].median())
            / sum(&|r| r.instrumented(t) + r.analyze[t].median()),
        overhead_ratio: sum(&|r| r.wall[1].median()) / sum(&|r| r.wall[0].median()),
        ..Layers::default()
    };
    let mut errors = Vec::new();
    for (w, r) in programs.iter().zip(&rows) {
        let name = metric_name(w.spec().name);
        layers.table4.push((
            name,
            r.plain[t].median() / r.parallel[t].median(),
            r.instrumented(t) / r.plain[t].median(),
        ));
        let (snap, session_nanos) = r.telemetry.as_ref().expect("a traced iteration ran");
        layers.add_collector(snap);
        let estimate = OverheadReport::account(snap, *session_nanos).slowdown;
        let measured = OverheadReport::from_measurement(
            (r.plain[0].median() * 1e9) as u64,
            (r.instrumented(0) * 1e9) as u64,
        )
        .slowdown;
        errors.push((estimate - measured).abs() / measured);
    }
    layers.estimate_error = median(&errors);

    let mut probe = Probe::default();
    for (w, row) in programs.iter().zip(&rows) {
        let name = w.spec().name;
        let session = Session::new();
        w.run(scale, Mode::Instrumented(&session));
        let capture = session.finish();
        let (events, first) = (capture.event_count() as u64, row.events);
        run.check(events == first, || {
            format!("{name}: probe session {events} events, first session {first}")
        });
        probe.add(run, name, &capture, None);
    }
    layers.probe = probe;
    layers.time_kernels(run);
    layers.emit(run, m);
}
