//! Quickstart: a three-replica, linearizable, replicated G-Counter in one process.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter};
use crdt_paxos::local::LocalCluster;
use crdt_paxos::protocol::{ProtocolConfig, ResponseBody};

fn main() {
    // Three replicas, no leader, no log — just the CRDT payload plus one round each.
    let mut cluster = LocalCluster::<GCounter>::new(3, ProtocolConfig::default());

    println!("three-replica linearizable G-Counter");

    // Updates complete in a single quorum round trip and can be submitted to ANY replica.
    for (replica, amount) in [(0usize, 5u64), (1, 10), (2, 1)] {
        let response = cluster.update(replica, CounterUpdate::Increment(amount));
        println!("  increment(+{amount}) at replica {replica}: {response:?}");
    }

    // Reads are linearizable: every replica observes all completed increments.
    for replica in 0..3 {
        match cluster.query(replica, CounterQuery::Value) {
            ResponseBody::QueryDone(value) => println!("  read at replica {replica}: {value}"),
            other => println!("  read at replica {replica}: unexpected {other:?}"),
        }
    }

    let metrics = cluster.replica(0).metrics();
    println!(
        "replica 0 learned its reads: {} by consistent quorum, {} by vote",
        metrics.queries_consistent_quorum, metrics.queries_by_vote
    );
}
