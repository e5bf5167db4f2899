//! Workspace smoke test: every example and every `bench` figure binary must
//! keep compiling.
//!
//! `cargo test` only builds lib/bin/test targets, so a broken example would
//! otherwise go unnoticed until someone runs it. This test shells out to
//! `cargo check` over the whole workspace with the examples enabled.

use std::process::Command;

#[test]
fn examples_and_benches_check_green() {
    let output = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["check", "--workspace", "--examples", "--quiet"])
        .output()
        .expect("failed to launch cargo check");
    assert!(
        output.status.success(),
        "cargo check --workspace --examples failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn wire_codec_size_report_runs() {
    // The full-vs-delta payload size report is deterministic and cheap with
    // `--sizes-only`; running it here keeps the bench binary from bit-rotting and
    // catches regressions in the delta encoding itself.
    let output = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--quiet", "-p", "bench", "--bin", "fig5_wire_bytes", "--", "--sizes-only"])
        .output()
        .expect("failed to launch the wire size report");
    assert!(
        output.status.success(),
        "fig5_wire_bytes --sizes-only failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("MERGE payload size"), "unexpected report output:\n{stdout}");
    assert!(stdout.contains("quiet-read ACK size"), "missing the reply-delta table:\n{stdout}");
}

#[test]
fn rebalance_report_meets_acceptance() {
    // The deterministic 4 -> 8 live-split report, in `--check` mode: the binary
    // exits non-zero unless post-split throughput reaches 2x pre-split with a
    // bounded dip, timely convergence, and no lost or duplicated responses.
    // Release for the same reason as the sharding report (saturating workload).
    let output = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "run",
            "--quiet",
            "--release",
            "-p",
            "bench",
            "--bin",
            "fig7_rebalance",
            "--",
            "--quick",
            "--check",
        ])
        .output()
        .expect("failed to launch the rebalance report");
    assert!(
        output.status.success(),
        "fig7_rebalance --quick --check failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("shard split"), "unexpected report output:\n{stdout}");
}

#[test]
fn sharding_throughput_report_meets_acceptance() {
    // The deterministic throughput-vs-shards report, in `--check` mode: the binary
    // exits non-zero unless 8 shards commit at least 3x the single-instance ops.
    // Built and run in release because the 128-client saturation workload takes
    // minutes unoptimized (tier-1 builds release first, so the artifacts are warm).
    let output = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "run",
            "--quiet",
            "--release",
            "-p",
            "bench",
            "--bin",
            "fig6_sharding",
            "--",
            "--quick",
            "--check",
        ])
        .output()
        .expect("failed to launch the sharding report");
    assert!(
        output.status.success(),
        "fig6_sharding --quick --check failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("throughput vs shards"), "unexpected report output:\n{stdout}");
}
