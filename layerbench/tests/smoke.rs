//! The benchmark's own test: `--smoke` runs every workload at
//! `Scale::Test`, untraced and traced, and fails unless each metric that
//! BENCHMARK.json declares is emitted with its unit and no check fails.

#[test]
fn smoke_mode_emits_every_declared_metric() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dsspy-layerbench"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("smoke ok"));
}
