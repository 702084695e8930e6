//! What every workload shares: run settings, output checks, the metric
//! list a run emits, sample statistics and host facts.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use dsspy_collect::{write_capture, Capture};
use dsspy_telemetry::Telemetry;
use dsspy_workloads::Scale;
use serde_json::Value;

use crate::trace::Tracer;

/// Settings of one run.
pub struct Run {
    pub seed: u64,
    /// Timed loop length.
    pub budget: Duration,
    /// `Scale::Full` for measurement, `Scale::Test` for the smoke mode.
    pub scale: Scale,
    /// Analysis and parallel-variant width: `available_parallelism`.
    pub threads: usize,
    /// Whether this is the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub traced: bool,
    /// Measured cost of one `Instant::now()`, in ns.
    pub clock_ns: f64,
    /// `/proc/stat` CPU ticks (all, stolen) when the run started.
    cpu_ticks: (u64, u64),
    pub tracer: Tracer,
    checks: Checks,
    traced_iterations: usize,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Run {
    pub fn new(seed: u64, budget: Duration, scale: Scale, traced: bool) -> Run {
        Run {
            seed,
            budget,
            scale,
            threads: nproc(),
            traced,
            clock_ns: clock_read_ns(),
            cpu_ticks: cpu_ticks(),
            tracer: Tracer::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            checks: Checks::default(),
            traced_iterations: 0,
        }
    }

    /// Count one output check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks.attempted += 1;
        if !ok {
            self.checks.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.checks.attempted
    }

    pub fn failed(&self) -> u64 {
        self.checks.failed
    }

    /// Whether the timed loop should start another iteration. At least three
    /// run (four in a traced run, two of them traced), so medians have
    /// samples however slow the host.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        let min = if self.traced { 4 } else { 3 };
        done < min || started.elapsed() < self.budget
    }

    /// Timed iterations of the traced run alternate plain ones (tracing and
    /// telemetry off) with traced ones; untraced runs never record.
    pub fn trace_iteration(&mut self, i: usize) -> bool {
        let on = self.traced && i % 2 == 1;
        self.tracer.set_recording(on);
        self.traced_iterations += on as usize;
        on
    }

    pub fn traced_iterations(&self) -> usize {
        self.traced_iterations
    }

    /// Share of the host's CPU time the hypervisor stole since the run
    /// started: the noise a virtual machine adds to every timing.
    pub fn steal_frac(&self) -> f64 {
        let (all, stolen) = cpu_ticks();
        ratio(
            (stolen - self.cpu_ticks.1) as f64,
            (all - self.cpu_ticks.0) as f64,
        )
    }
}

/// The session and analysis telemetry of an iteration: enabled only in the
/// traced iterations of the traced run.
pub fn telemetry(traced: bool) -> Telemetry {
    if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// The metrics one run emits, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Samples of one measured quantity across iterations.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_secs(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The latest sample (0 before the first).
    pub fn last(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median wall time of `reps` calls of `f`, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_nanos() as f64);
    }
    median(&v)
}

/// The median duration of `reps` set-ups, keeping the last one's result.
pub fn setup_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A writer that only counts bytes.
#[derive(Default)]
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Encoded size of `capture` in the persisted format.
pub fn capture_bytes(capture: &Capture) -> u64 {
    let mut sink = ByteCount::default();
    write_capture(capture, &mut sink).expect("writing to a byte counter cannot fail");
    sink.0
}

/// Whether two captures hold the same instances and events, event for
/// event, and the same collector stats.
pub fn same_capture(a: &Capture, b: &Capture) -> bool {
    a.stats == b.stats
        && a.profiles.len() == b.profiles.len()
        && a.profiles
            .iter()
            .zip(&b.profiles)
            .all(|(x, y)| x.instance == y.instance && x.events == y.events)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and stolen CPU ticks from the `cpu` line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Measured cost of one `Instant::now()` call, in ns.
pub fn clock_read_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let mut v = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(Instant::now());
        }
        v.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    median(&v)
}

/// Facts about the host and build that every result carries.
pub fn host_facts(run: &Run) -> Value {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Map(vec![
        ("nproc".into(), Value::U64(run.threads as u64)),
        ("clock_read_ns".into(), Value::F64(run.clock_ns)),
        ("steal_frac".into(), Value::F64(run.steal_frac())),
        ("rustc".into(), Value::Str(env!("LAYERBENCH_RUSTC").into())),
        ("profile".into(), Value::Str(profile.into())),
    ])
}
