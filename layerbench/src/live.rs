//! `live-fanout`: `nproc` producer threads share one session that carries
//! the production fan-out trio (streaming analyzer, telemetry sampler,
//! capture recorder), with the suite7 programs split between them.

use std::time::Instant;

use dsspy_collect::{CaptureRecorder, Session, TapFanout};
use dsspy_core::Dsspy;
use dsspy_stream::{StreamConfig, StreamingAnalyzer, TelemetrySampler};
use dsspy_telemetry::OverheadReport;
use dsspy_workloads::{suite7, Mode, Scale, Workload};

use crate::common::{capture_bytes, same_capture, setup_median, telemetry, Metrics, Run, Samples};
use crate::layers::{Layers, SUBSCRIBERS};
use crate::probe::Probe;

/// Run each producer's programs on its own thread, all at once; returns
/// `(program, checksum)` pairs.
fn produce(
    programs: &[Box<dyn Workload>],
    split: &[Vec<usize>],
    scale: Scale,
    session: Option<&Session>,
) -> Vec<(usize, u64)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = split
            .iter()
            .map(|mine| {
                s.spawn(move || {
                    mine.iter()
                        .map(|&p| {
                            let mode = match session {
                                Some(session) => Mode::Instrumented(session),
                                None => Mode::Plain,
                            };
                            (p, programs[p].run(scale, mode))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut out: Vec<(usize, u64)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("producer thread panicked"))
            .collect();
        out.sort_unstable();
        out
    })
}

/// Longest-processing-time split of the programs over `producers` threads,
/// weighted by each program's event count. The order is fixed: which
/// program a producer runs last sets the collector's backlog at `finish`.
fn split(weights: &[u64], producers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(weights[p]), p));
    let mut lists = vec![Vec::new(); producers.max(1)];
    let mut load = vec![0u64; lists.len()];
    for p in order {
        let k = (0..lists.len())
            .min_by_key(|&k| (load[k], k))
            .expect("one producer");
        lists[k].push(p);
        load[k] += weights[p];
    }
    lists
}

/// Σ plain ÷ Σ `Mode::Parallel(nproc)` wall over the programs the session
/// profiled, run one after another: following the live report's
/// recommendations. The median of five paired rounds.
fn recommend_speedup(programs: &[Box<dyn Workload>], scale: Scale, threads: usize) -> f64 {
    let mut ratios = Samples::default();
    for _ in 0..5 {
        let (mut plain, mut parallel) = (0.0, 0.0);
        for w in programs {
            let t = Instant::now();
            std::hint::black_box(w.run(scale, Mode::Plain));
            plain += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(w.run(scale, Mode::Parallel(threads)));
            parallel += t.elapsed().as_secs_f64();
        }
        ratios.push(plain / parallel);
    }
    ratios.median()
}

pub fn run(run: &mut Run, m: &mut Metrics) {
    let programs = suite7();
    let (scale, producers) = (run.scale, run.threads);
    // Warm up every program under a session and weigh it by its events.
    let (weights, setup_s) = setup_median(3, || {
        programs
            .iter()
            .map(|w| {
                let session = Session::new();
                w.run(scale, Mode::Instrumented(&session));
                session.finish().event_count() as u64
            })
            .collect::<Vec<u64>>()
    });
    // The events the programs record, one session each; every shared
    // session must record exactly as many.
    let expected: u64 = weights.iter().sum();
    let lists = split(&weights, producers);

    let [mut plain, mut instrumented, mut finish, mut report_wait, mut to_report, mut wall] =
        <[[Samples; 2]; 6]>::default();
    // Per-iteration ratios, so each pairs samples taken close in time.
    let mut slowdown = Samples::default();
    let mut bytes = 0;
    // Events in the latest shared session's capture.
    let mut events = 0;
    let mut snapshots = 0;
    let mut traced_session = None;
    let started = Instant::now();
    let mut i = 0;
    while run.more(started, i) {
        let t = run.trace_iteration(i) as usize;
        let telemetry = telemetry(t == 1);
        let tracer = &run.tracer;
        let (step, d) = tracer.root("live-fanout", |root| {
            let (plain_sums, d) = tracer.span(root, "program", "plain", |_| {
                produce(&programs, &lists, scale, None)
            });
            plain[t].push_secs(d);
            let start = Instant::now();
            let ((streaming, sampler, recorder, session), d_start) =
                tracer.span(root, "stream", "start", |_| {
                    let streaming = StreamingAnalyzer::with_telemetry(
                        Dsspy::new(),
                        StreamConfig::default(),
                        telemetry.clone(),
                    );
                    let sampler = TelemetrySampler::new(&telemetry);
                    let recorder = CaptureRecorder::new();
                    let fanout = TapFanout::with_telemetry(telemetry.clone())
                        .with_subscriber(SUBSCRIBERS[0], streaming.tap())
                        .with_subscriber(SUBSCRIBERS[1], sampler.tap())
                        .with_subscriber(SUBSCRIBERS[2], recorder.tap());
                    let session = Session::builder()
                        .telemetry(telemetry.clone())
                        .tap(Box::new(fanout))
                        .start();
                    streaming.bind_registry(session.registry_handle());
                    (streaming, sampler, recorder, session)
                });
            let (sums, d) = tracer.span(root, "producer", "instrumented", |_| {
                produce(&programs, &lists, scale, Some(&session))
            });
            instrumented[t].push_secs(d_start + d);
            let (capture, d) = tracer.span(root, "collector", "finish", |_| session.finish());
            finish[t].push_secs(d);
            let (live, d) = tracer.span(root, "stream", "report", |_| streaming.latest_report());
            report_wait[t].push_secs(d);
            to_report[t].push_secs(start.elapsed());
            (
                plain_sums, sums, capture, live, streaming, sampler, recorder,
            )
        });
        wall[t].push_secs(d);
        let (plain_sums, sums, capture, live, streaming, sampler, recorder) = step;
        events = capture.event_count() as u64;
        run.check(events == expected, || {
            format!("the session recorded {events} events, the programs {expected}")
        });
        if bytes == 0 {
            bytes = capture_bytes(&capture);
        }
        run.check(plain_sums == sums, || {
            format!("checksums differ: plain {plain_sums:?}, instrumented {sums:?}")
        });
        run.check(capture.stats.dropped == 0, || {
            format!("{} events dropped", capture.stats.dropped)
        });
        let post = Dsspy::new().analyze_capture(&capture);
        let json = |r: &dsspy_core::Report| serde_json::to_string(r).expect("reports serialize");
        let converged = live.as_deref().is_some_and(|l| json(l) == json(&post));
        run.check(converged, || {
            "the live report differs from analyze_capture on the session's capture".into()
        });
        if t == 1 {
            snapshots = streaming.stats().snapshots;
            traced_session = Some((telemetry.snapshot(), capture.session_nanos));
        }
        drop((live, post, streaming));
        run.check(
            sampler.final_stats() == Some((capture.stats, capture.session_nanos)),
            || "the sampler's final stats differ from the capture's".into(),
        );
        let instances = capture
            .profiles
            .iter()
            .map(|p| p.instance.clone())
            .collect();
        let recorded = recorder.capture(instances);
        drop(recorder);
        run.check(recorded.is_some_and(|r| same_capture(&r, &capture)), || {
            "the recorder's capture differs from the session's".into()
        });
        drop(capture);
        slowdown.push((instrumented[t].last() + finish[t].last()) / plain[t].last());
        i += 1;
    }

    let instr = |t: usize| instrumented[t].median() + finish[t].median();
    if !run.traced {
        m.put("collect_slowdown", slowdown.median(), "x");
        m.put(
            "recommend_speedup",
            recommend_speedup(&programs, scale, producers),
            "x",
        );
        m.put(
            "advice_latency_s",
            finish[0].median() + report_wait[0].median(),
            "s",
        );
        m.put(
            "live_events_per_s",
            events as f64 / to_report[0].median(),
            "events/s",
        );
        m.put(
            "capture_bytes_per_event",
            bytes as f64 / events as f64,
            "B/event",
        );
        m.put("setup_s", setup_s, "s");
        return;
    }
    let (snap, session_nanos) = traced_session.expect("a traced iteration ran");
    let estimated = OverheadReport::account(&snap, session_nanos).slowdown;
    let measured =
        OverheadReport::from_measurement((plain[0].median() * 1e9) as u64, (instr(0) * 1e9) as u64)
            .slowdown;
    let mut layers = Layers {
        producer_events: events as f64,
        producer_ns_per_event: (instrumented[1].median() - plain[1].median()) * 1e9 / events as f64,
        finish_ms: finish[1].median() * 1e3,
        snapshots: snapshots as f64,
        overhead_ratio: wall[1].median() / wall[0].median(),
        estimate_error: (estimated - measured).abs() / measured,
        ..Layers::default()
    };
    layers.add_collector(&snap);
    for (k, label) in SUBSCRIBERS.iter().enumerate() {
        let name = format!("stream.tap.{label}.dispatch_nanos");
        let dispatch = snap.histogram(&name).map_or(0, |h| h.sum) as f64;
        let name = format!("stream.tap.{label}.events");
        let seen = snap.counter(&name).unwrap_or(0) as f64;
        layers.dispatch_ns_per_event[k] = crate::common::ratio(dispatch, seen);
    }
    let session = Session::new();
    produce(&programs, &lists, scale, Some(&session));
    let capture = session.finish();
    run.check(capture.event_count() as u64 == expected, || {
        format!(
            "the probe session recorded {} events, the programs {expected}",
            capture.event_count()
        )
    });
    layers.probe = Probe::default();
    layers.probe.add(run, "live-fanout", &capture, None);
    drop(capture);
    layers.time_kernels(run);
    layers.emit(run, m);
}
