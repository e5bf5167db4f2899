//! Figure 3: cumulative percentage of reads by the number of quorum round trips they
//! needed, without (top) and with (bottom) batching, for 16/32/64/128 clients at
//! 10 % updates.
//!
//! Flags: `--quick` runs 16 and 64 clients only (used by CI); `--check` exits
//! non-zero unless, with 5 ms batching, at least 97 % of reads finish within two
//! round trips at every client count — the paper's claim for batched reads, and
//! the bar `cluster/tests/simulation_linearizability.rs` sets for one run.

use bench::{experiment_config, Scale};
use crdt_paxos_core::ProtocolConfig;

/// Least fraction of batched reads that must finish within two round trips.
const BATCHED_WITHIN_TWO: f64 = 0.97;

fn main() {
    let scale = Scale::from_args();
    let client_counts: &[u64] =
        if std::env::args().any(|a| a == "--quick") { &[16, 64] } else { &[16, 32, 64, 128] };
    let check = std::env::args().any(|arg| arg == "--check");
    let max_round_trips = 15u32;
    let mut failed = false;

    for (label, protocol) in [
        ("without batching", ProtocolConfig::default()),
        ("with 5 ms batching", ProtocolConfig::batched()),
    ] {
        println!("# Figure 3 — cumulative % of reads vs. round trips ({label}, 10 % updates)");
        print!("{:>12}", "round trips");
        for &clients in client_counts {
            print!("{:>14}", format!("{clients} clients"));
        }
        println!();

        let results: Vec<_> = client_counts
            .iter()
            .map(|&clients| {
                let config = experiment_config(clients, 0.9, &scale);
                cluster::run_crdt_paxos(&config, protocol.clone())
            })
            .collect();

        for round_trips in 1..=max_round_trips {
            print!("{round_trips:>12}");
            for result in &results {
                print!("{:>14.2}", result.read_fraction_within(round_trips) * 100.0);
            }
            println!();
        }
        for (clients, result) in client_counts.iter().zip(&results) {
            let within_two = result.read_fraction_within(2);
            println!(
                "-> {clients} clients: {:.2} % of reads within 2 round trips",
                within_two * 100.0
            );
            if check && protocol.batch_interval_ms.is_some() && within_two < BATCHED_WITHIN_TWO {
                eprintln!(
                    "ACCEPTANCE FAILED: {clients} clients with batching: {:.2} % of reads within \
                     2 round trips, below the required {:.0} %",
                    within_two * 100.0,
                    BATCHED_WITHIN_TWO * 100.0
                );
                failed = true;
            }
        }
        println!();
    }
    if failed {
        std::process::exit(1);
    }
}
