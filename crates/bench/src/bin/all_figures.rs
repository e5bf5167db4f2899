//! Runs every figure harness back to back (forwarding `--quick` if given).

use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for figure in [
        "fig1_throughput",
        "fig2_latency",
        "fig3_roundtrips",
        "fig4_failover",
        "fig5_wire_bytes",
        "fig6_sharding",
        "fig7_rebalance",
    ] {
        println!("\n===================== {figure} =====================\n");
        let mut command =
            Command::new(std::env::current_exe().unwrap().parent().unwrap().join(figure));
        if quick {
            command.arg("--quick");
        }
        match command.status() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("{figure} exited with {status}"),
            Err(err) => eprintln!(
                "failed to launch {figure}: {err} (run `cargo build -p bench --release` first)"
            ),
        }
    }
}
