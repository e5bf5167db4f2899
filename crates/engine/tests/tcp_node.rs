//! `TcpNode` end to end: three replicas over loopback sockets, a closed-loop
//! client across a live 2 → 4 rebalance, the socket instruments in the node's
//! snapshot — and a shutdown that really lets go of the listening addresses;
//! then a pipelined client whose commands every stage histogram must account
//! for exactly.

use std::collections::BTreeSet;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::{check_keyed_history, HistoryOp, OpKind};
use crdt::{CounterQuery, CounterUpdate, GCounter, MapOutput, MapQuery, MapUpdate};
use crdt_paxos_core::{ClientId, Command, ProtocolConfig, ResponseBody};
use engine::TcpNode;
use obs::{ObsSnapshot, Stage, TraceConfig};

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

    // Shutdown stops node and mesh: the same addresses bind again (not if a
    // mesh task outlived it and still holds a listener).
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

/// A node shut down while its peers stay up, their connections to it open and
/// idle, is let go of entirely: its mesh's read loops, which deliver into it,
/// end with the mesh instead of waiting for those connections to close.
#[test]
fn a_shut_down_tcp_node_lets_go_of_its_node() {
    let (mut nodes, _) = boot(free_loopback_addrs(), true, Duration::from_secs(10));
    // One command end to end: node 0 has heard from its peers, so it has
    // accepted their connections.
    let probe = nodes[0].submit(ClientId(1), mixed_command(0));
    let response = nodes[0].wait_response(Duration::from_secs(30)).expect("the cluster answers");
    assert_eq!(response.command, probe);

    let node = nodes.remove(0);
    // The registry lives exactly as long as the node's shared state.
    let held = Arc::downgrade(&node.obs());
    node.shutdown();
    eventually("the shut-down node to be let go of", || held.upgrade().is_none());
    for node in nodes {
        node.shutdown();
    }
}

/// The command of a mixed workload: key and kind drawn from different bits of
/// one hash, two updates in five.
fn mixed_command(n: u64) -> Command<cluster::KvMap> {
    let mixed = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let key = mixed % KEYS;
    if mixed % 5 < 2 {
        Command::Update(MapUpdate::Apply { key, update: CounterUpdate::Increment(1) })
    } else {
        Command::Query(MapQuery::Get { key, query: CounterQuery::Value })
    }
}

fn samples(snapshot: &ObsSnapshot, stage: Stage) -> u64 {
    snapshot
        .histogram(&format!("stage_{}_nanos", stage.name()))
        .map_or(0, |histogram| histogram.count())
}

/// The instruments are an audit of themselves: with node 0 the only submit
/// ingress and no rebalance, its submit-queue and quorum-wait histograms must
/// grow by exactly one sample per committed command — any drift is a lost or
/// double-counted measurement — and every station of the command path,
/// frame decode and socket write included, must have seen traffic.
#[test]
fn every_stage_records_over_tcp_and_submit_and_quorum_accounting_is_exact() {
    const WINDOW: usize = 16;
    let (nodes, _) = boot(free_loopback_addrs(), true, Duration::from_secs(10));
    let node = &nodes[0];
    let client = ClientId(1);

    // One probe end to end, so the measured commands run on connected meshes;
    // it passed the same stations, hence the baseline.
    let probe = node.submit(client, mixed_command(0));
    let response = node.wait_response(Duration::from_secs(30)).expect("the cluster answers");
    assert_eq!(response.command, probe);
    let baseline = node.obs_snapshot();

    let mut inflight = BTreeSet::new();
    let mut submitted = 0;
    let mut committed = 0;
    while committed < COMMANDS {
        while inflight.len() < WINDOW && submitted < COMMANDS {
            submitted += 1;
            inflight.insert(node.submit(client, mixed_command(submitted)));
        }
        let response = node
            .wait_response(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("lost a response: {} in flight", inflight.len()));
        assert!(inflight.remove(&response.command), "{:?} answered twice", response.command);
        assert!(!matches!(response.body, ResponseBody::QueryFailed));
        committed += 1;
    }
    assert!(node.try_response().is_none(), "a command was answered twice");

    let snapshot = node.obs_snapshot();
    for stage in [Stage::SubmitQueue, Stage::QuorumWait] {
        let grew = samples(&snapshot, stage) - samples(&baseline, stage);
        assert_eq!(grew, COMMANDS, "{} samples for {COMMANDS} commands", stage.name());
    }
    for stage in Stage::ALL {
        assert!(samples(&snapshot, stage) > 0, "no samples recorded for {}", stage.name());
    }
    for node in nodes {
        node.shutdown();
    }
}
