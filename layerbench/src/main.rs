//! Layer-by-layer benchmark of the DSspy pipeline.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <table4|offline-synth|live-fanout> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path layerbench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing and
//! telemetry off; `--trace 1` prints the per-layer metrics of a traced run.
//! The last line of standard output is the result as one JSON object; a
//! copy, with host facts (and the spans of a traced run), goes to `out/`.
//! See NOTES.md for what each workload and metric means.

mod common;
mod kernels;
mod layers;
mod live;
mod offline;
mod probe;
mod table4;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use dsspy_workloads::Scale;
use serde_json::Value;

use common::{host_facts, peak_rss_mb, Metrics, Run};

const WORKLOADS: [&str; 3] = ["table4", "offline-synth", "live-fanout"];

/// Quantities the benchmark reports outside the result's metrics, and why.
const DROPPED: [(&str, &str); 1] = [(
    "error_rate",
    "carried by the result's `failed` / `attempted`: it reads 0 on a correct run, and an \
     end-to-end metric that reads 0 has no relative spread",
)];

fn run_workload(name: &str, run: &mut Run) -> Metrics {
    let mut m = Metrics::default();
    match name {
        "table4" => table4::run(run, &mut m),
        "offline-synth" => offline::run(run, &mut m),
        _ => live::run(run, &mut m),
    }
    if run.traced {
        m.put("host.nproc", run.threads as f64, "count");
        m.put("host.clock_read_ns", run.clock_ns, "ns");
        m.put("host.steal_frac", run.steal_frac(), "fraction");
    } else {
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    m
}

/// A JSON object from `(key, value)` pairs, in order.
fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Count each non-finite metric as a failed check, so it cannot read as a
/// valid number. (JSON has no NaN or infinity: such a value is written as
/// `null`.)
fn check_finite(run: &mut Run, m: &Metrics) {
    for (name, value, _) in &m.0 {
        run.check(value.is_finite(), || format!("{name} is {value}"));
    }
}

fn result_json(run: &Run, m: &Metrics) -> Value {
    let metrics =
        m.0.iter()
            .map(|(name, value, unit)| {
                let metric = object(vec![
                    ("value", Value::F64(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.clone(), metric)
            })
            .collect();
    object(vec![
        ("correct", Value::Bool(run.failed() == 0)),
        ("attempted", Value::U64(run.attempted())),
        ("failed", Value::U64(run.failed())),
        ("metrics", Value::Map(metrics)),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// All four flags are required: the run length in particular comes from
/// BENCHMARK.json's `run_seconds`, never from a default here.
fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return smoke();
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(
        args.seed,
        Duration::from_secs(args.seconds),
        Scale::Full,
        args.trace,
    );
    let metrics = run_workload(&args.workload, &mut run);
    check_finite(&mut run, &metrics);
    let result = result_json(&run, &metrics);
    for (name, value, unit) in &metrics.0 {
        eprintln!("{name:<42} {value:>16.6} {unit}");
    }
    eprintln!("{:<42} {:>16.6} fraction", "host steal", run.steal_frac());
    eprintln!(
        "{:<42} {:>16.6} fraction ({} of {} checks failed)",
        "error_rate",
        run.failed() as f64 / run.attempted().max(1) as f64,
        run.failed(),
        run.attempted()
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let spans = if args.trace {
        run.tracer.to_json()
    } else {
        Value::Null
    };
    let record = object(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::U64(args.seconds)),
        ("host", host_facts(&run)),
        ("result", result.clone()),
        ("trace", spans),
    ]);
    let record = serde_json::to_string(&record).expect("values serialize") + "\n";
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), record))
    {
        eprintln!("layerbench: could not write {}: {e}", out.display());
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("values serialize")
    );
    ExitCode::SUCCESS
}

/// Every workload at `Scale::Test`, untraced and traced: each metric that
/// BENCHMARK.json names must be emitted with its unit, and no output check
/// may fail.
fn smoke() -> ExitCode {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<Value>(&s).map_err(|e| e.to_string()));
    let spec = match spec {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // `(name, unit)` of every metric in one of BENCHMARK.json's lists.
    let declared = |key: &str| -> Vec<(String, String)> {
        let list = spec[key].as_array().map_or(&[][..], |v| v.as_slice());
        list.iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let mut run = Run::new(1, Duration::ZERO, Scale::Test, traced);
            let m = run_workload(workload, &mut run);
            check_finite(&mut run, &m);
            let listed = declared(if traced { "per_layer" } else { "end_to_end" });
            let mut problems = Vec::new();
            if run.failed() > 0 || run.attempted() == 0 {
                problems.push(format!(
                    "{} of {} checks failed",
                    run.failed(),
                    run.attempted()
                ));
            }
            if listed.len() != m.0.len() {
                problems.push(format!(
                    "{} metrics emitted, {} declared",
                    m.0.len(),
                    listed.len()
                ));
            }
            for (name, _, unit) in &m.0 {
                if !listed.iter().any(|(n, u)| n == name && u == unit) {
                    problems.push(format!("{name} [{unit}] is not declared"));
                }
            }
            let mode = if traced { "traced" } else { "untraced" };
            if problems.is_empty() {
                eprintln!(
                    "smoke: {workload} {mode}: {} metrics ok, error_rate 0",
                    m.0.len()
                );
            } else {
                ok = false;
                eprintln!("smoke: {workload} {mode}: {}", problems.join("; "));
            }
        }
    }
    for (name, reason) in DROPPED {
        eprintln!("smoke: {name} is not a metric: {reason}");
    }
    if ok {
        println!("smoke ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
