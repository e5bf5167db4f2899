//! The stress harness shared by `tests/stress.rs` (the layout this box gives)
//! and the crate's own `layouts` tests (the same cases at pinned worker
//! counts): seeded multi-threaded clients, response fan-in, a submit held
//! inside the window a cutover can overtake it in, and the cases themselves,
//! each over a cluster the caller has built.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cluster::{check_keyed_history, HistoryOp, OpKind};
use crdt::{
    CounterQuery, CounterUpdate, GCounter, LatticeMap, MapOutput, MapQuery, MapUpdate, ReplicaId,
};
use crdt_paxos_core::{ClientId, Command, CommandId, ResponseBody};
use engine::{EngineCluster, EngineNode, Outbound};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use super::common::FrameMesh;

type KvMap = LatticeMap<Key, GCounter>;
type Body = ResponseBody<KvMap>;
/// The nodes the cases run over.
pub type Node = EngineNode<Key, GCounter>;

/// Three nodes over an encoding mesh — every peer message enters through
/// `NodeIngress::deliver_frame` — each started by `start(id, members, sink)`.
pub fn frame_cluster(
    start: impl Fn(ReplicaId, Vec<ReplicaId>, Arc<dyn Outbound<Key, GCounter>>) -> Node,
) -> Vec<Node> {
    let members: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let mesh = FrameMesh::<Key>::new(members.len());
    let nodes: Vec<Node> =
        members.iter().map(|&id| start(id, members.clone(), Arc::clone(&mesh) as _)).collect();
    for (index, node) in nodes.iter().enumerate() {
        mesh.register(index, node.ingress());
    }
    nodes
}

/// A `u64` key whose `Clone` a test thread can hook. `EngineNode::submit`
/// clones the key on the calling thread after it has read the published
/// assignment and before it pushes onto the owner's mailbox; a hook that
/// blocks there holds a submit inside exactly the window in which a cutover
/// can overtake it (see [`straggle`]).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Key(pub u64);

thread_local! {
    /// Runs once, ahead of this thread's next [`Key::clone`].
    static BEFORE_NEXT_CLONE: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
}

impl Clone for Key {
    fn clone(&self) -> Self {
        if let Some(hook) = BEFORE_NEXT_CLONE.with(|slot| slot.borrow_mut().take()) {
            hook();
        }
        Key(self.0)
    }
}

/// The cluster under test: an [`EngineCluster`] (decoded messages over
/// `LocalMesh`) or free-standing nodes over a [`FrameMesh`].
pub trait Nodes: Send + Sync + 'static {
    fn len(&self) -> usize;
    fn node(&self, index: usize) -> &Node;
}

impl Nodes for EngineCluster<Key, GCounter> {
    fn len(&self) -> usize {
        EngineCluster::len(self)
    }
    fn node(&self, index: usize) -> &Node {
        EngineCluster::node(self, index)
    }
}

impl Nodes for Vec<Node> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    fn node(&self, index: usize) -> &Node {
        &self[index]
    }
}

/// Response fan-in: collector threads drain each node's response queue into
/// this map; client threads block on their own command ids. Keyed by
/// `(client, command)` because command ids are allocated per node, not
/// cluster-wide.
struct Completions {
    map: Mutex<BTreeMap<(ClientId, CommandId), (Body, u64)>>,
    ready: Condvar,
    duplicates: AtomicBool,
}

impl Completions {
    fn new() -> Arc<Self> {
        Arc::new(Completions {
            map: Mutex::new(BTreeMap::new()),
            ready: Condvar::new(),
            duplicates: AtomicBool::new(false),
        })
    }

    fn complete(&self, client: ClientId, command: CommandId, body: Body, responded_us: u64) {
        let mut map = self.map.lock().unwrap();
        if map.insert((client, command), (body, responded_us)).is_some() {
            self.duplicates.store(true, Ordering::Release);
        }
        drop(map);
        self.ready.notify_all();
    }

    fn wait(&self, client: ClientId, command: CommandId, timeout: Duration) -> Option<(Body, u64)> {
        let deadline = Instant::now() + timeout;
        let mut map = self.map.lock().unwrap();
        loop {
            if let Some(entry) = map.remove(&(client, command)) {
                return Some(entry);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(map, (deadline - now).min(Duration::from_millis(100)))
                .unwrap();
            map = guard;
        }
    }
}

/// Spawns one collector thread per node, draining responses until `stop`.
fn spawn_collectors<C: Nodes>(
    cluster: &Arc<C>,
    completions: &Arc<Completions>,
    stop: &Arc<AtomicBool>,
    start: Instant,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..cluster.len())
        .map(|index| {
            let cluster = Arc::clone(cluster);
            let completions = Arc::clone(completions);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(response) =
                        cluster.node(index).wait_response(Duration::from_millis(20))
                    {
                        let responded_us = start.elapsed().as_micros() as u64;
                        completions.complete(
                            response.client,
                            response.command,
                            response.body,
                            responded_us,
                        );
                    }
                }
                // Final sweep so nothing raced the stop flag.
                while let Some(response) = cluster.node(index).try_response() {
                    let responded_us = start.elapsed().as_micros() as u64;
                    completions.complete(
                        response.client,
                        response.command,
                        response.body,
                        responded_us,
                    );
                }
            })
        })
        .collect()
}

/// Runs `clients` seeded client threads against the cluster; returns the
/// merged keyed history. Panics if any command is lost (no response within the
/// timeout) or fails.
#[allow(clippy::too_many_arguments)]
fn run_clients<C: Nodes>(
    cluster: &Arc<C>,
    completions: &Arc<Completions>,
    start: Instant,
    clients: usize,
    ops_per_client: usize,
    keys: u64,
    seed: u64,
) -> Vec<(u64, HistoryOp)> {
    let handles: Vec<_> = (0..clients)
        .map(|client_index| {
            let cluster = Arc::clone(cluster);
            let completions = Arc::clone(completions);
            std::thread::spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (client_index as u64).wrapping_mul(0x9E37));
                let client = ClientId(100 + client_index as u64);
                let node_index = client_index % cluster.len();
                let mut history: Vec<(u64, HistoryOp)> = Vec::new();
                for _ in 0..ops_per_client {
                    let key = rng.gen_range(0..keys);
                    let invoked_us = start.elapsed().as_micros() as u64;
                    let (command, kind) = if rng.gen_bool(0.5) {
                        let amount = rng.gen_range(1..4u64);
                        let command = cluster.node(node_index).submit(
                            client,
                            Command::Update(MapUpdate::Apply {
                                key: Key(key),
                                update: CounterUpdate::Increment(amount),
                            }),
                        );
                        (command, Some(amount))
                    } else {
                        let command = cluster.node(node_index).submit(
                            client,
                            Command::Query(MapQuery::Get {
                                key: Key(key),
                                query: CounterQuery::Value,
                            }),
                        );
                        (command, None)
                    };
                    let (body, responded_us) = completions
                        .wait(client, command, Duration::from_secs(30))
                        .unwrap_or_else(|| panic!("command {command:?} lost (no response)"));
                    let kind = match (kind, body) {
                        (Some(amount), ResponseBody::UpdateDone) => OpKind::Increment(amount),
                        (None, ResponseBody::QueryDone(MapOutput::Value(value))) => {
                            OpKind::Read(value.unwrap_or(0))
                        }
                        (_, other) => panic!("unexpected response body {other:?}"),
                    };
                    history.push((key, HistoryOp { invoked_us, responded_us, kind }));
                }
                history
            })
        })
        .collect();
    let mut merged = Vec::new();
    for handle in handles {
        merged.extend(handle.join().expect("client thread"));
    }
    merged
}

/// Seeded concurrent clients on a steady cluster: every command answered
/// once, every per-key history linearizable.
pub fn concurrent_clients(cluster: EngineCluster<Key, GCounter>) {
    let start = Instant::now();
    let cluster = Arc::new(cluster);
    let completions = Completions::new();
    let stop = Arc::new(AtomicBool::new(false));
    let collectors = spawn_collectors(&cluster, &completions, &stop, start);

    let history = run_clients(&cluster, &completions, start, 4, 120, 16, 0xC0FFEE);

    stop.store(true, Ordering::Release);
    for collector in collectors {
        collector.join().expect("collector thread");
    }
    assert!(!completions.duplicates.load(Ordering::Acquire), "duplicated responses");
    assert_eq!(history.len(), 4 * 120);
    if let Err((key, violation)) = check_keyed_history(&history) {
        panic!("key {key}: {violation}");
    }

    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}

/// A live 4 → 8 split of `cluster` (three nodes of four shards) under seeded
/// concurrent clients: nothing lost, nothing duplicated, every per-key history
/// linearizable across the cutover, the keyspace intact, `plans_installed`
/// equal to the epoch on every node.
pub fn live_rebalance(cluster: EngineCluster<Key, GCounter>) {
    let start = Instant::now();
    let cluster = Arc::new(cluster);
    let completions = Completions::new();
    let stop = Arc::new(AtomicBool::new(false));
    let collectors = spawn_collectors(&cluster, &completions, &stop, start);

    // A rebalance coordinator racing the client traffic: grow 4 → 8 while the
    // clients hammer the keyspace.
    let rebalancer = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cluster.node(0).begin_rebalance(8);
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let installed = (0..cluster.len())
                    .all(|i| cluster.node(i).epoch() >= 1 && cluster.node(i).shard_count() == 8);
                if installed && cluster.node(0).rebalance_idle() {
                    break;
                }
                assert!(Instant::now() < deadline, "rebalance did not complete");
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let history = run_clients(&cluster, &completions, start, 4, 150, 16, 0xFEED);
    rebalancer.join().expect("rebalance thread");

    stop.store(true, Ordering::Release);
    for collector in collectors {
        collector.join().expect("collector thread");
    }
    assert!(!completions.duplicates.load(Ordering::Acquire), "duplicated responses");
    // Zero lost (run_clients panics on a lost command), zero duplicated, and
    // every per-key history linearizable across the cutover.
    assert_eq!(history.len(), 4 * 150);
    if let Err((key, violation)) = check_keyed_history(&history) {
        panic!("key {key}: {violation}");
    }

    // The whole keyspace survived the handoff: a keyspace-wide read agrees
    // with the sum of acknowledged increments.
    let expected: i64 = history
        .iter()
        .filter_map(|(_, op)| match op.kind {
            OpKind::Increment(amount) => Some(amount as i64),
            OpKind::Read(_) => None,
        })
        .sum();
    let client = ClientId(999);
    let command = cluster.node(1).submit(client, Command::Query(MapQuery::Len));
    let mut keys_len = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while keys_len.is_none() && Instant::now() < deadline {
        if let Some(response) = cluster.node(1).wait_response(Duration::from_millis(50)) {
            if response.command == command {
                keys_len = Some(response.body);
            }
        }
    }
    match keys_len {
        Some(ResponseBody::QueryDone(MapOutput::Len(len))) => {
            assert!(len <= 16, "more keys than were ever written");
            assert!(expected == 0 || len > 0, "all written keys vanished");
        }
        other => panic!("keyspace-wide query failed: {other:?}"),
    }

    // The engine reports what its router core counted: one plan per epoch
    // reached on every node (a router files the count once the install is
    // through, so a node still finishing one is given a moment), and a split
    // of a populated keyspace moved keys.
    let mut keys_moved = 0;
    for index in 0..cluster.len() {
        let node = cluster.node(index);
        let deadline = Instant::now() + Duration::from_secs(30);
        while node.obs_snapshot().counter("plans_installed") != node.epoch() {
            assert!(Instant::now() < deadline, "node {index}: plans_installed != epoch");
            std::thread::sleep(Duration::from_millis(1));
        }
        keys_moved += node.obs_snapshot().counter("keys_moved");
    }
    assert!(keys_moved > 0, "a 4 → 8 split of a populated keyspace moved no key");

    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}

/// Submits increments of key 0 at `cluster.node(index)` until one of them has
/// been overtaken by a cutover that node coordinates: the submit is held —
/// through the [`Key`] clone hook — between reading the published assignment
/// and pushing, until the node's epoch has moved and its rebalance is idle
/// again. Its push then lands behind the owner's `Install`, tagged with the
/// superseded stamp, and must come back through the worker's re-check and the
/// router. `entered` is raised once a submit is being held. A submit that
/// found nothing published went through the router and never cloned on this
/// thread; it completes like any other and the next one is hooked instead.
fn straggle<C: Nodes>(
    cluster: &Arc<C>,
    index: usize,
    client: ClientId,
    completions: &Completions,
    start: Instant,
    entered: &Arc<AtomicBool>,
) -> Vec<(u64, HistoryOp)> {
    let node = cluster.node(index);
    let mut history = Vec::new();
    loop {
        let epoch = node.epoch();
        let (watched, held) = (Arc::clone(cluster), Arc::clone(entered));
        BEFORE_NEXT_CLONE.with(|slot| {
            *slot.borrow_mut() = Some(Box::new(move || {
                held.store(true, Ordering::Release);
                let node = watched.node(index);
                let deadline = Instant::now() + Duration::from_secs(30);
                while !(node.epoch() > epoch && node.rebalance_idle()) {
                    assert!(Instant::now() < deadline, "no cutover overtook the held submit");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }));
        });
        let invoked_us = start.elapsed().as_micros() as u64;
        let command = node.submit(
            client,
            Command::Update(MapUpdate::Apply { key: Key(0), update: CounterUpdate::Increment(1) }),
        );
        let overtaken = BEFORE_NEXT_CLONE.with(|slot| slot.borrow_mut().take()).is_none();
        let (body, responded_us) = completions
            .wait(client, command, Duration::from_secs(30))
            .unwrap_or_else(|| panic!("held command {command:?} lost (no response)"));
        assert!(matches!(body, ResponseBody::UpdateDone), "unexpected response body {body:?}");
        history.push((0, HistoryOp { invoked_us, responded_us, kind: OpKind::Increment(1) }));
        if overtaken {
            return history;
        }
    }
}

/// Back-to-back rebalances — a split, a merge below the starting count, a
/// split again — while client threads submit straight into the worker
/// mailboxes and the mesh delivers straight into them: every cutover
/// un-publishes and re-publishes the assignment under that traffic, and every
/// cutover overtakes one held submit ([`straggle`]), so the `rerouted` counter
/// proves the workers' stamp re-check and the router's slow path were taken.
pub fn rebalance_chain_under_direct_traffic<C: Nodes>(cluster: Arc<C>, seed: u64) {
    const CHAIN: [u32; 3] = [8, 2, 6];
    let start = Instant::now();
    let completions = Completions::new();
    let stop = Arc::new(AtomicBool::new(false));
    let collectors = spawn_collectors(&cluster, &completions, &stop, start);

    let rebalancer = {
        let (cluster, completions) = (Arc::clone(&cluster), Arc::clone(&completions));
        std::thread::spawn(move || {
            let mut history = Vec::new();
            for (round, &target) in CHAIN.iter().enumerate() {
                std::thread::sleep(Duration::from_millis(10));
                // Rotate the coordinator, so every node both leads a cutover
                // and learns one from gossip or a bounce.
                let index = round % cluster.len();
                let coordinator = cluster.node(index);
                let entered = Arc::new(AtomicBool::new(false));
                let straggler = {
                    let (cluster, completions, entered) =
                        (Arc::clone(&cluster), Arc::clone(&completions), Arc::clone(&entered));
                    let client = ClientId(900 + round as u64);
                    std::thread::spawn(move || {
                        straggle(&cluster, index, client, &completions, start, &entered)
                    })
                };
                while !entered.load(Ordering::Acquire) {
                    assert!(!straggler.is_finished(), "straggler ended without being held");
                    std::thread::sleep(Duration::from_millis(1));
                }
                coordinator.begin_rebalance(target);
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    let installed = (0..cluster.len()).all(|i| {
                        let node = cluster.node(i);
                        node.epoch() > round as u64 && node.shard_count() == target
                    });
                    if installed && coordinator.rebalance_idle() {
                        break;
                    }
                    assert!(Instant::now() < deadline, "rebalance to {target} did not complete");
                    std::thread::sleep(Duration::from_millis(2));
                }
                history.extend(straggler.join().expect("straggler thread"));
            }
            history
        })
    };

    let mut history = run_clients(&cluster, &completions, start, 6, 500, 16, seed);
    assert_eq!(history.len(), 6 * 500);
    history.extend(rebalancer.join().expect("rebalance thread"));

    stop.store(true, Ordering::Release);
    for collector in collectors {
        collector.join().expect("collector thread");
    }
    // Zero lost (a waiter panics on a lost command), zero duplicated, none
    // unclaimed, and every per-key history linearizable across the cutovers.
    assert!(!completions.duplicates.load(Ordering::Acquire), "duplicated responses");
    assert!(completions.map.lock().unwrap().is_empty(), "responses nobody waited for");
    if let Err((key, violation)) = check_keyed_history(&history) {
        panic!("key {key}: {violation}");
    }
    for index in 0..cluster.len() {
        assert_eq!(cluster.node(index).shard_count(), 6);
    }
    let rerouted: u64 =
        (0..cluster.len()).map(|i| cluster.node(i).obs_snapshot().counter("rerouted")).sum();
    assert!(rerouted >= CHAIN.len() as u64, "{rerouted} inputs rerouted over {CHAIN:?}");
    // Three cutovers under peer traffic: somewhere a message crossed the
    // fence on the wrong side of a plan, and the engine says so.
    let fenced: u64 = (0..cluster.len())
        .map(|i| cluster.node(i).obs_snapshot())
        .map(|snapshot| snapshot.counter("fence_bounces") + snapshot.counter("fence_deferred"))
        .sum();
    assert!(fenced > 0, "no message bounced or deferred over {CHAIN:?}");
}
