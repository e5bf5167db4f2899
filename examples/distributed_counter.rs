//! Three CRDT Paxos replicas as independent tokio tasks talking over loopback TCP.
//!
//! Each replica runs the sans-io protocol core behind a `transport::tcp::TcpMesh`
//! whose sink feeds it length-prefixed `wire` frames. A client task submits increments
//! and linearizable reads to different replicas and prints the results.
//!
//! ```bash
//! cargo run --example distributed_counter
//! ```

use std::time::Duration;

use crdt_paxos::crdt::{CounterQuery, CounterUpdate, GCounter, ReplicaId};
use crdt_paxos::protocol::{
    ClientId, Command, Envelope, Message, ProtocolConfig, Replica, ResponseBody,
};
use crdt_paxos::transport::tcp::TcpMesh;
use crdt_paxos::wire;
use tokio::sync::mpsc;

/// Commands the local "client" sends to a replica task.
enum ClientCommand {
    Increment(u64),
    Read,
}

type ReplyTx = mpsc::UnboundedSender<ResponseBody<GCounter>>;

async fn replica_task(
    id: u64,
    addrs: Vec<(u64, String)>,
    mut commands: mpsc::UnboundedReceiver<(ClientCommand, ReplyTx)>,
) {
    let listen = addrs.iter().find(|(peer, _)| *peer == id).expect("own address").1.clone();
    let (frame_tx, mut frames) = mpsc::unbounded_channel();
    let sink = move |from, frame| _ = frame_tx.send((ReplicaId::new(from), frame));
    let mesh = TcpMesh::bind_with(id, &listen, &addrs, sink).await.expect("bind replica endpoint");

    let members: Vec<ReplicaId> = addrs.iter().map(|(peer, _)| ReplicaId::new(*peer)).collect();
    let mut replica: Replica<GCounter> =
        Replica::new(ReplicaId::new(id), members, GCounter::default(), ProtocolConfig::default());

    let mut waiting: Vec<ReplyTx> = Vec::new();
    let mut ticker = tokio::time::interval(Duration::from_millis(1));
    let started = std::time::Instant::now();

    loop {
        // Drain protocol output: forward messages over TCP, deliver client replies.
        for Envelope { to, message, .. } in replica.take_outbox() {
            let _ = mesh.send_with(to.as_u64(), |encoder| encoder.encode(&message));
        }
        for response in replica.take_responses() {
            if let Some(reply) = waiting.get(response.client.0 as usize) {
                let _ = reply.send(response.body);
            }
        }

        tokio::select! {
            Some((from, frame)) = frames.recv() => {
                if let Ok(message) = wire::from_bytes::<Message<GCounter>>(&frame) {
                    replica.handle_message(from, message);
                }
            }
            Some((command, reply)) = commands.recv() => {
                let client = ClientId(waiting.len() as u64);
                waiting.push(reply);
                let command = match command {
                    ClientCommand::Increment(amount) => Command::Update(CounterUpdate::Increment(amount)),
                    ClientCommand::Read => Command::Query(CounterQuery::Value),
                };
                replica.submit(client, command);
            }
            _ = ticker.tick() => {
                replica.tick(started.elapsed().as_millis() as u64);
            }
        }
    }
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let addrs: Vec<(u64, String)> = vec![
        (0, "127.0.0.1:40061".to_string()),
        (1, "127.0.0.1:40062".to_string()),
        (2, "127.0.0.1:40063".to_string()),
    ];

    // Spawn the three replica tasks.
    let mut handles = Vec::new();
    let mut command_channels = Vec::new();
    for (id, _) in &addrs {
        let (tx, rx) = mpsc::unbounded_channel();
        command_channels.push(tx);
        handles.push(tokio::spawn(replica_task(*id, addrs.clone(), rx)));
    }

    // Give the mesh a moment to connect.
    tokio::time::sleep(Duration::from_millis(300)).await;

    println!("three CRDT Paxos replicas over loopback TCP");

    // Submit increments to different replicas and wait for each to complete.
    for (replica, amount) in [(0usize, 2u64), (1, 3), (2, 5)] {
        let (reply_tx, mut reply_rx) = mpsc::unbounded_channel();
        command_channels[replica].send((ClientCommand::Increment(amount), reply_tx)).unwrap();
        let response = reply_rx.recv().await.expect("update response");
        println!("  increment(+{amount}) via replica {replica}: {response:?}");
    }

    // A linearizable read at every replica returns the full total.
    for replica in 0..3 {
        let (reply_tx, mut reply_rx) = mpsc::unbounded_channel();
        command_channels[replica].send((ClientCommand::Read, reply_tx)).unwrap();
        match reply_rx.recv().await {
            Some(ResponseBody::QueryDone(value)) => {
                println!("  read via replica {replica}: {value}")
            }
            other => println!("  read via replica {replica}: unexpected {other:?}"),
        }
    }

    println!("done — aborting replica tasks");
    for handle in handles {
        handle.abort();
    }
}
