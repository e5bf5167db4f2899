//! A sharded, replicated key-value store as three processes over loopback TCP,
//! executed by the parallel engine.
//!
//! Each replica is an `engine::TcpNode`: an `EngineNode` — a router thread plus
//! its shard cores on `min(shards, cores)` worker threads — bridged to a
//! `transport::tcp::TcpMesh` in both
//! directions (see `engine::tcp`). The transports are message-agnostic, so the
//! shard-multiplexed `ShardMessage` — protocol traffic, control-shard traffic,
//! and rebalance plans alike — crosses the sockets as ordinary `wire` frames. A
//! client writes counters under different keys via different replicas, reads
//! them back linearizably, then triggers a live 2→4 shard split and reads
//! again: every value survives the lattice-join handoff.
//!
//! ```bash
//! cargo run --example sharded_tcp_kv
//! ```

use std::time::{Duration, Instant};

use crdt_paxos::crdt::{
    CounterQuery, CounterUpdate, GCounter, LatticeMap, MapOutput, MapQuery, MapUpdate,
};
use crdt_paxos::engine::TcpNode;
use crdt_paxos::obs::TraceConfig;
use crdt_paxos::protocol::{ClientId, Command, ProtocolConfig, ResponseBody};

type KvMap = LatticeMap<String, GCounter>;
type Node = TcpNode<String, GCounter>;

/// Submits one command and polls for its response without blocking the runtime.
async fn call(node: &Node, command: Command<KvMap>) -> ResponseBody<KvMap> {
    let id = node.submit(ClientId(7), command);
    loop {
        while let Some(response) = node.try_response() {
            if response.command == id {
                return response.body;
            }
        }
        tokio::time::sleep(Duration::from_millis(1)).await;
    }
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let addrs: Vec<(u64, String)> = vec![
        (0, "127.0.0.1:40071".to_string()),
        (1, "127.0.0.1:40072".to_string()),
        (2, "127.0.0.1:40073".to_string()),
    ];

    // Spawn the three replicas, each starting with 2 shards.
    let mut nodes = Vec::new();
    for (id, listen) in &addrs {
        let (config, trace) = (ProtocolConfig::default(), TraceConfig::disabled());
        let node = Node::bind(*id, listen, &addrs, 2, config, trace).await;
        nodes.push(node.expect("bind replica endpoint"));
    }

    // Give the mesh a moment to connect.
    tokio::time::sleep(Duration::from_millis(300)).await;

    println!("three sharded CRDT Paxos replicas (2 shards each) over TCP");

    // Writes on different keys via different replicas.
    for (replica, key, amount) in
        [(0usize, "clicks", 2u64), (1, "views", 3), (2, "carts", 5), (0, "views", 4)]
    {
        let update = Command::Update(MapUpdate::Apply {
            key: key.to_string(),
            update: CounterUpdate::Increment(amount),
        });
        match call(&nodes[replica], update).await {
            ResponseBody::UpdateDone => println!("  {key} += {amount} via replica {replica}"),
            other => println!("  {key} += {amount} via replica {replica}: unexpected {other:?}"),
        }
    }

    // Linearizable reads at other replicas see every committed write.
    for (replica, key) in [(2usize, "clicks"), (0, "views"), (1, "carts")] {
        let query =
            Command::Query(MapQuery::Get { key: key.to_string(), query: CounterQuery::Value });
        match call(&nodes[replica], query).await {
            ResponseBody::QueryDone(MapOutput::Value(value)) => {
                println!("  read {key} via replica {replica}: {value:?}")
            }
            other => println!("  read {key} via replica {replica}: unexpected {other:?}"),
        }
    }

    // Live 2 -> 4 shard split: agreed on the control shard, installed via plan
    // gossip, key ranges moved by lattice join — all over the same TCP mesh,
    // with two new worker threads spawned per replica as the plan lands.
    println!("  resizing the keyspace to 4 shards ...");
    nodes[0].begin_rebalance(4);
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let installed = nodes.iter().all(|node| node.epoch() >= 1 && node.shard_count() == 4);
        if installed && nodes[0].rebalance_idle() {
            break;
        }
        tokio::time::sleep(Duration::from_millis(5)).await;
    }
    println!(
        "  installed: epoch {} with {} shards on every replica",
        nodes[0].epoch(),
        nodes[0].shard_count()
    );

    // Every value survives the handoff, still linearizable.
    for (replica, key, expected) in [(1usize, "clicks", 2i64), (2, "views", 7), (0, "carts", 5)] {
        let query =
            Command::Query(MapQuery::Get { key: key.to_string(), query: CounterQuery::Value });
        match call(&nodes[replica], query).await {
            ResponseBody::QueryDone(MapOutput::Value(Some(value))) if value == expected => {
                println!("  read {key} after the split via replica {replica}: {value} ✓")
            }
            other => println!(
                "  read {key} after the split via replica {replica}: {other:?} (expected {expected})"
            ),
        }
    }

    println!("done — shutting the engines down");
    for node in nodes {
        node.shutdown();
    }
}
