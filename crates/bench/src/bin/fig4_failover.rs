//! Figure 4: 95th-percentile read and update latency over time with a replica crash
//! in the middle of the run (64 clients, 10 % updates), without and with batching.
//!
//! CRDT Paxos needs no leader election, so operations keep completing in every
//! interval after the crash; only the tail latency rises slightly because the two
//! remaining replicas must agree unanimously to form a consistent quorum.
//!
//! Flags: `--quick` shortens the runs (used by the smoke test and CI); `--check`
//! exits non-zero unless every interval from the crash on completed operations,
//! in both runs. The closing line of a run says which it was, with or without
//! `--check`.

use bench::{experiment_config, format_ms, Scale};
use cluster::CrashEvent;
use crdt_paxos_core::ProtocolConfig;

fn main() {
    let scale = Scale::from_args();
    let duration_ms = if std::env::args().any(|a| a == "--quick") { 4_000 } else { 10_000 };
    let check = std::env::args().any(|a| a == "--check");
    let mut stalled = false;
    let crash_at = duration_ms / 2;

    for (label, protocol) in [
        ("without batching", ProtocolConfig::default()),
        ("with 5 ms batching", ProtocolConfig::batched()),
    ] {
        let mut config = experiment_config(64, 0.9, &scale);
        config.duration_ms = duration_ms;
        config.warmup_ms = 0;
        config.interval_ms = 500;
        config.crash = Some(CrashEvent { replica: 1, at_ms: crash_at, recover_at_ms: None });

        println!("# Figure 4 — 95th pctl. latency over time with a node failure ({label})");
        println!("   crash of replica 1 at t = {crash_at} ms; 64 clients, 10 % updates");
        println!(
            "{:>10} {:>12} {:>18} {:>18}",
            "t (ms)", "ops", "read p95 (ms)", "update p95 (ms)"
        );
        let result = cluster::run_crdt_paxos(&config, protocol);
        let intervals: Vec<_> =
            result.intervals.iter().filter(|i| i.start_ms < duration_ms).collect();
        for interval in &intervals {
            println!(
                "{:>10} {:>12} {:>18} {:>18}",
                interval.start_ms,
                interval.operations,
                format_ms(interval.read_p95_us),
                format_ms(interval.update_p95_us),
            );
        }
        let survived =
            intervals.iter().filter(|i| i.start_ms >= crash_at).all(|i| i.operations > 0);
        let verdict = if survived {
            "every interval after the crash still completed operations"
        } else {
            "an interval after the crash completed no operations"
        };
        println!("-> total {:.0} ops/s; {verdict}\n", result.throughput_ops_per_sec);
        stalled |= !survived;
    }
    if check && stalled {
        eprintln!("ACCEPTANCE FAILED: an interval after the crash completed no operations");
        std::process::exit(1);
    }
}
