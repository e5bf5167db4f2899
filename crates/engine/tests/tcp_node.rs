//! `TcpNode` end to end: three replicas over loopback sockets, a closed-loop
//! client across a live 2 → 4 rebalance, the socket instruments in the node's
//! snapshot — and a shutdown that really lets go of the listening addresses.

use std::io;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use cluster::{check_keyed_history, HistoryOp, OpKind};
use crdt::{CounterQuery, CounterUpdate, GCounter, MapOutput, MapQuery, MapUpdate};
use crdt_paxos_core::{ClientId, Command, ProtocolConfig, ResponseBody};
use engine::TcpNode;
use obs::TraceConfig;

type Node = TcpNode<u64, GCounter>;

const REPLICAS: u64 = 3;
const KEYS: u64 = 8;
const COMMANDS: u64 = 200;

/// One free loopback address per replica, assigned by the OS: every listener
/// is held until all ports are known, so the set is distinct, then released
/// for the meshes to bind.
fn free_loopback_addrs() -> Vec<(u64, String)> {
    let listeners: Vec<TcpListener> =
        (0..REPLICAS).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind port 0")).collect();
    let addr = |listener: &TcpListener| listener.local_addr().expect("local address").to_string();
    (0..REPLICAS).zip(&listeners).map(|(id, listener)| (id, addr(listener))).collect()
}

fn bind_all(addrs: &[(u64, String)], shards: u32) -> io::Result<Vec<Node>> {
    addrs
        .iter()
        .map(|(id, listen)| {
            let (config, trace) = (ProtocolConfig::default(), TraceConfig::disabled());
            tokio::runtime::block_on(Node::bind(*id, listen, addrs, shards, config, trace))
        })
        .collect()
}

/// Binds until it works, for at most `patience`: a port the OS handed out can
/// be taken by another socket before the mesh binds it (`fresh` draws a new
/// set then), and a port just released by a shutdown stays taken until the
/// aborted mesh tasks have dropped their listener.
fn boot(
    mut addrs: Vec<(u64, String)>,
    fresh: bool,
    patience: Duration,
) -> (Vec<Node>, Vec<(u64, String)>) {
    let deadline = Instant::now() + patience;
    loop {
        match bind_all(&addrs, 2) {
            Ok(nodes) => return (nodes, addrs),
            Err(err) => {
                assert!(Instant::now() < deadline, "no cluster on {addrs:?}: {err}");
                std::thread::sleep(Duration::from_millis(10));
                if fresh {
                    addrs = free_loopback_addrs();
                }
            }
        }
    }
}

fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn three_tcp_nodes_serve_across_a_rebalance_and_release_their_addresses() {
    let (nodes, addrs) = boot(free_loopback_addrs(), true, Duration::from_secs(10));
    let start = Instant::now();
    let client = ClientId(7);
    let mut history: Vec<(u64, HistoryOp)> = Vec::new();

    // One command in flight, the replicas taken in turn: the only response a
    // node may produce is the one to the command just submitted there.
    for n in 0..COMMANDS {
        if n == COMMANDS / 3 {
            nodes[1].begin_rebalance(4);
        }
        let node = &nodes[(n % REPLICAS) as usize];
        let mixed = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let (key, amount) = (mixed % KEYS, 1 + mixed % 3);
        let command = if mixed % 5 < 2 {
            Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(amount) })
        } else {
            Command::Query(MapQuery::Get { key, query: CounterQuery::Value })
        };
        let invoked_us = start.elapsed().as_micros() as u64;
        let id = node.submit(client, command);
        let response = node
            .wait_response(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("command {n} lost (no response)"));
        let responded_us = start.elapsed().as_micros() as u64;
        assert_eq!((response.client, response.command), (client, id), "command {n}");
        let kind = match response.body {
            ResponseBody::UpdateDone => OpKind::Increment(amount),
            ResponseBody::QueryDone(MapOutput::Value(value)) => OpKind::Read(value.unwrap_or(0)),
            other => panic!("command {n}: unexpected response body {other:?}"),
        };
        history.push((key, HistoryOp { invoked_us, responded_us, kind }));
    }
    eventually("the split to install everywhere", || {
        nodes.iter().all(|node| node.epoch() == 1 && node.shard_count() == 4)
            && nodes[1].rebalance_idle()
    });
    if let Err((key, violation)) = check_keyed_history(&history) {
        panic!("key {key}: {violation}");
    }
    for (index, node) in nodes.iter().enumerate() {
        assert!(node.try_response().is_none(), "node {index} answered a command twice");
        // The mesh's instruments are the node's: one snapshot covers both.
        let snapshot = node.obs_snapshot();
        assert!(snapshot.counter("mesh_socket_writes") > 0, "node {index}");
        assert!(snapshot.histogram("mesh_batch_bytes").is_some_and(|bytes| !bytes.is_empty()));
        assert!(snapshot.histogram("stage_socket_write_nanos").is_some());
        eventually("the install to be counted", || {
            node.obs_snapshot().counter("plans_installed") == 1
        });
    }

    // Shutdown stops node, pump and mesh: the same addresses bind again (not
    // if a pump or a mesh task outlived it and still holds a listener).
    for node in nodes {
        node.shutdown();
    }
    let (again, _) = boot(addrs, false, Duration::from_secs(10));
    let probe = again[0]
        .submit(client, Command::Query(MapQuery::Get { key: 0, query: CounterQuery::Value }));
    let response =
        again[0].wait_response(Duration::from_secs(30)).expect("the rebound cluster answers");
    // A new cluster on the old addresses, with none of the old state.
    assert_eq!(response.command, probe);
    assert_eq!(response.body, ResponseBody::QueryDone(MapOutput::Value(None)));
    for node in again {
        node.shutdown();
    }
}
