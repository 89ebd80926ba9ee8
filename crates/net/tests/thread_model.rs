//! The server's thread model, counted from outside: one accept thread
//! plus one thread per open connection. A single test in a binary of its
//! own, because it reads a process-wide fact — the names of all threads —
//! that servers of other tests running beside it would change.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hpcnet_net::{demo_bundle, NetServer, RemoteClient, DEMO_MODEL};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::Orchestrator;

/// Threads of this process whose name starts with `prefix`. The kernel
/// keeps the first 15 bytes of a thread's name.
fn threads_named(prefix: &str) -> usize {
    let prefix = &prefix[..prefix.len().min(15)];
    std::fs::read_dir("/proc/self/task")
        .expect("task directory")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

#[test]
fn k_open_connections_cost_k_connection_threads() {
    const K: usize = 5;
    let orchestrator = Orchestrator::builder().workers(1).build();
    orchestrator.register_model(DEMO_MODEL, demo_bundle());
    let server = NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind");
    assert_eq!(threads_named("hpcnet-net-conn-"), 0);

    // `connect` round-trips a PING, so each connection is being served by
    // the time it returns; a pool of one keeps it open afterwards.
    let clients: Vec<RemoteClient> = (0..K)
        .map(|_| {
            RemoteClient::builder(server.local_addr().to_string())
                .pool(1)
                .connect()
                .expect("connect")
        })
        .collect();
    assert_eq!(
        threads_named("hpcnet-net-conn-"),
        K,
        "one thread per open connection, no reader/executor pair"
    );
    assert_eq!(threads_named("hpcnet-net-accept"), 1);
    for client in &clients {
        client.ping().expect("pooled connection is reused");
    }
    assert_eq!(threads_named("hpcnet-net-conn-"), K);

    drop(clients);
    server.shutdown();
    assert_eq!(
        threads_named("hpcnet-net-conn-"),
        0,
        "all joined at shutdown"
    );
    assert_eq!(threads_named("hpcnet-net-accept"), 0);
}
