//! `offline-synth`: a seeded synthetic capture is written, read back and
//! analyzed — the `dsspy analyze <capture>` path. The producer and the
//! collector do no work here.

use std::time::Instant;

use dsspy_collect::{
    read_capture_with, write_capture, write_capture_with, Capture, CollectorStats, ReadOptions,
};
use dsspy_core::Dsspy;
use dsspy_events::{DsKind, RuntimeProfile};
use dsspy_telemetry::{OverheadReport, Telemetry};
use dsspy_usecases::UseCaseKind;
use dsspy_workloads::traces::{
    irregular_profile, regular_only_profile, synth_instance, use_case_profile, TraceBuilder,
    COST_MUTATE, COST_READ,
};
use dsspy_workloads::Scale;

use crate::common::{same_capture, setup_median, telemetry, Metrics, Rng, Run, Samples};
use crate::kernels::recommend_speedup;
use crate::layers::Layers;
use crate::probe::{Probe, Spanned};

/// What the generator says an instance's report must contain.
struct Label {
    use_cases: Vec<UseCaseKind>,
    /// `Some` for the regular-only and the irregular profiles.
    regular: Option<bool>,
}

struct Synth {
    capture: Capture,
    labels: Vec<Label>,
}

/// Heavy-tail shapes: scaled-up use-case profiles whose run lengths and
/// runtime shares only grow with size, so each still triggers exactly its
/// own kind. (Frequent-Search is left out: its scan share falls below the
/// threshold as the search count grows.)
const HEAVY: [UseCaseKind; 5] = [
    UseCaseKind::LongInsert,
    UseCaseKind::FrequentLongRead,
    UseCaseKind::ImplementQueue,
    UseCaseKind::SortAfterInsert,
    UseCaseKind::StackImplementation,
];

/// About `n` events of the scaled-up `kind` shape.
fn heavy_profile(index: u64, kind: UseCaseKind, n: u32) -> RuntimeProfile {
    let mut b = TraceBuilder::new();
    match kind {
        UseCaseKind::LongInsert => {
            b.append_phase(n * 4 / 5, COST_MUTATE);
            b.random_reads(n / 5, COST_READ);
        }
        UseCaseKind::FrequentLongRead => {
            b.append_phase(n / 13, COST_READ);
            for _ in 0..12 {
                b.scan_forward(COST_READ * 4);
                b.random_reads(1, COST_READ);
            }
        }
        UseCaseKind::ImplementQueue => {
            b.queue_churn(n / 2, 8, COST_MUTATE);
        }
        UseCaseKind::SortAfterInsert => {
            b.append_phase(n / 2, COST_MUTATE);
            b.sort(COST_MUTATE * 10);
            b.scan_forward(COST_READ);
        }
        _ => {
            b.stack_churn(n / 2, COST_MUTATE);
        }
    }
    b.build(synth_instance("Synth", index, DsKind::List))
}

/// The seeded capture. The counts of each shape and each heavy shape's
/// event budget are fixed, so every seed carries the same amount of work;
/// the seed picks the instance order and how each budget is split.
fn generate(seed: u64, scale: Scale) -> Synth {
    let (per_kind, plain, heavy_per_shape) = match scale {
        Scale::Full => (500, 500, 160_000),
        Scale::Test => (4, 4, 10_000),
    };
    let mut rng = Rng::new(seed);
    // (generator, label) in a seeded order; ids follow the final order.
    let mut plan: Vec<(u8, UseCaseKind, bool, u32)> = Vec::new();
    for kind in UseCaseKind::ALL {
        for j in 0..per_kind {
            plan.push((0, kind, j % 2 == 0, 0));
        }
    }
    for _ in 0..plain {
        plan.push((1, UseCaseKind::LongInsert, false, 0));
        plan.push((2, UseCaseKind::LongInsert, false, 0));
    }
    // Two heavy profiles per shape share the shape's budget unevenly.
    for kind in HEAVY {
        let share = 0.2 + 0.6 * rng.unit();
        for part in [share, 1.0 - share] {
            plan.push((3, kind, false, (part * heavy_per_shape as f64) as u32));
        }
    }
    rng.shuffle(&mut plan);
    let mut profiles = Vec::with_capacity(plan.len());
    let mut labels = Vec::with_capacity(plan.len());
    for (i, &(gen, kind, extra_flr, heavy_n)) in plan.iter().enumerate() {
        let id = i as u64;
        let (profile, label) = match gen {
            0 => {
                let mut use_cases = vec![kind];
                if kind == UseCaseKind::LongInsert && extra_flr {
                    use_cases.push(UseCaseKind::FrequentLongRead);
                }
                let p = use_case_profile("Synth", id, kind, extra_flr);
                (
                    p,
                    Label {
                        use_cases,
                        regular: None,
                    },
                )
            }
            1 => (
                regular_only_profile("Synth", id),
                Label {
                    use_cases: vec![],
                    regular: Some(true),
                },
            ),
            2 => (
                irregular_profile("Synth", id),
                Label {
                    use_cases: vec![],
                    regular: Some(false),
                },
            ),
            _ => (
                heavy_profile(id, kind, heavy_n),
                Label {
                    use_cases: vec![kind],
                    regular: None,
                },
            ),
        };
        profiles.push(profile);
        labels.push(label);
    }
    let events: u64 = profiles.iter().map(|p| p.len() as u64).sum();
    let session_nanos = profiles.iter().map(|p| p.duration_nanos()).sum();
    let stats = CollectorStats {
        events,
        batches: profiles.len() as u64,
        dropped: 0,
    };
    Synth {
        capture: Capture::new(profiles, stats, session_nanos),
        labels,
    }
}

/// Per-core body decode, as `dsspy analyze` reads a capture.
fn read_options(telemetry: &Telemetry) -> ReadOptions {
    ReadOptions {
        threads: 0,
        telemetry: telemetry.clone(),
    }
}

pub fn run(run: &mut Run, m: &mut Metrics) {
    let (seed, scale) = (run.seed, run.scale);
    // Generate, then warm up the whole offline path once.
    let (synth, setup_s) = setup_median(5, || {
        let synth = generate(seed, scale);
        let mut buf = Vec::new();
        write_capture(&synth.capture, &mut buf).expect("writing to memory cannot fail");
        let back = read_capture_with(buf.as_slice(), &read_options(&Telemetry::disabled()))
            .expect("the capture just written reads back");
        std::hint::black_box(Dsspy::new().analyze_capture(&back));
        synth
    });
    let capture = &synth.capture;
    let events = capture.event_count() as f64;
    let [mut write, mut read, mut analyze, mut wall] = <[[Samples; 2]; 4]>::default();
    // Per-iteration ratios, so each pairs samples taken close in time.
    let (mut slowdown, mut speedup) = (Samples::default(), Samples::default());
    let mut buf = Vec::new();
    let mut estimate = None;
    let started = Instant::now();
    let mut i = 0;
    while run.more(started, i) {
        let t = run.trace_iteration(i) as usize;
        let telemetry = telemetry(t == 1);
        let tracer = &run.tracer;
        let ((back, report), d) = tracer.root("offline-synth", |root| {
            // The buffer is reused, so only the first write pays its growth.
            let (_, d) = tracer.span(root, "persist", "write_capture", |_| {
                buf.clear();
                write_capture_with(capture, &mut buf, &telemetry)
                    .expect("writing to memory cannot fail");
            });
            write[t].push_secs(d);
            let (back, d) = tracer.span(root, "persist", "read_capture", |_| {
                read_capture_with(buf.as_slice(), &read_options(&telemetry))
            });
            read[t].push_secs(d);
            let back = back.expect("the capture just written reads back");
            let (report, d) = tracer.span(root, "core", "analyze_capture", |_| {
                Dsspy::new().analyze_capture_with(&back, &telemetry)
            });
            analyze[t].push_secs(d);
            (back, report)
        });
        wall[t].push_secs(d);
        if t == 1 {
            let total = write[1].median() + read[1].median() + analyze[1].median();
            estimate = Some((telemetry.snapshot(), (total * 1e9) as u64));
        }
        run.check(same_capture(&back, capture), || {
            "the capture read back differs from the one written".into()
        });
        drop(back);
        for (i, (inst, label)) in report.instances.iter().zip(&synth.labels).enumerate() {
            let mut got: Vec<UseCaseKind> = inst.use_cases.iter().map(|u| u.kind).collect();
            got.sort();
            let mut want = label.use_cases.clone();
            want.sort();
            let regular_ok = label
                .regular
                .is_none_or(|r| r == inst.regularity.is_regular());
            run.check(got == want && regular_ok, || {
                format!("instance {i}: use cases {got:?}, generator says {want:?}")
            });
        }
        run.check(report.instances.len() == synth.labels.len(), || {
            format!(
                "{} instances reported, {} generated",
                report.instances.len(),
                synth.labels.len()
            )
        });
        let kinds: Vec<UseCaseKind> = report.all_use_cases().iter().map(|u| u.kind).collect();
        drop(report);
        let (w, r, a) = (write[t].last(), read[t].last(), analyze[t].last());
        slowdown.push((w + r + a) / a);
        if !run.traced {
            speedup.push(recommend_speedup(run, &kinds, 1));
        }
        i += 1;
    }

    let (w, r, a) = (write[0].median(), read[0].median(), analyze[0].median());
    if !run.traced {
        m.put("collect_slowdown", slowdown.median(), "x");
        m.put("recommend_speedup", speedup.median(), "x");
        m.put("advice_latency_s", w + r + a, "s");
        m.put("live_events_per_s", events / (w + r + a), "events/s");
        m.put(
            "capture_bytes_per_event",
            buf.len() as f64 / events,
            "B/event",
        );
        m.put("setup_s", setup_s, "s");
        return;
    }
    let (snap, total_ns) = estimate.expect("a traced iteration ran");
    let estimated = OverheadReport::account(&snap, total_ns).slowdown;
    let measured =
        OverheadReport::from_measurement((a * 1e9) as u64, ((w + r + a) * 1e9) as u64).slowdown;
    let mut layers = Layers {
        overhead_ratio: wall[1].median() / wall[0].median(),
        estimate_error: (estimated - measured).abs() / measured,
        ..Layers::default()
    };
    // The loop already spans persistence and the default-width analysis.
    let spanned = Spanned {
        write_ns: write[1].median() * 1e9,
        read_ns: read[1].median() * 1e9,
        analyze_tn_ns: analyze[1].median() * 1e9,
    };
    layers.probe = Probe::default();
    layers
        .probe
        .add(run, "offline-synth", capture, Some(spanned));
    layers.time_kernels(run);
    layers.emit(run, m);
}
