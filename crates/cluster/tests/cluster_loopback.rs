//! Cluster loopback tests: a real fleet of [`NetServer`]s on ephemeral
//! ports behind one [`ClusterClient`].
//!
//! The suite covers the same conformance contract the in-process client
//! and `RemoteClient` are held to, plus the cluster-only behaviors:
//! scatter/gather across shards, replica failover when an endpoint is
//! killed mid-stream (with zero data loss for replicated keys), and the
//! `hpcnet_cluster_*` telemetry rollup.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use hpcnet_cluster::ring::{HashRing, DEFAULT_VNODES};
use hpcnet_cluster::{ClientApi, ClusterClient};
use hpcnet_net::{demo_bundle, demo_input, NetServer, DEMO_INPUT_DIM, DEMO_MODEL};
use hpcnet_runtime::conformance::{check_overload, Conformance};
use hpcnet_runtime::{Orchestrator, QualityGuard, RuntimeError, TensorStore};

/// Stand up `n` independent demo endpoints (each its own orchestrator,
/// store, and execution slots) on ephemeral loopback ports.
fn fleet(n: usize) -> Vec<NetServer> {
    (0..n)
        .map(|_| {
            let orc = Orchestrator::builder()
                .store(TensorStore::new())
                .workers(2)
                .build();
            orc.register_model(DEMO_MODEL, demo_bundle());
            NetServer::builder(orc)
                .serve("127.0.0.1:0")
                .expect("bind ephemeral port")
        })
        .collect()
}

fn addrs(servers: &[NetServer]) -> Vec<String> {
    servers.iter().map(|s| s.local_addr().to_string()).collect()
}

/// The value a metric line reports, summed over all label sets.
fn metric_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

#[test]
fn cluster_client_passes_the_shared_conformance_suite() {
    let servers = fleet(3);
    let client = ClusterClient::connect(addrs(&servers)).expect("connect fleet");
    let reference = demo_bundle();
    let predict = move |x: &[f64]| reference.surrogate.predict(x).expect("predict");
    Conformance::new(DEMO_MODEL, DEMO_INPUT_DIM, &predict)
        .key_prefix("cluster")
        .root_service("cluster")
        .check(&client);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn cluster_surfaces_typed_overload_from_a_saturated_endpoint() {
    // A one-endpoint cluster over a saturated server: admission rejection
    // must arrive as the same typed error every other transport reports,
    // not as a transport fault (typed errors never fail over).
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .queue_depth(1)
        .build();
    orc.register_guarded_model(
        DEMO_MODEL,
        demo_bundle(),
        QualityGuard::new(|_in, _out| {
            std::thread::sleep(Duration::from_millis(400));
            true
        }),
    );
    let server = NetServer::builder(orc).serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    check_overload(
        || ClusterClient::connect([addr.clone()]).expect("connect"),
        DEMO_MODEL,
        DEMO_INPUT_DIM,
    );
    server.shutdown();
}

#[test]
fn scatter_gather_batch_spreads_across_shards_and_bit_matches() {
    const PAIRS: usize = 30;
    let servers = fleet(3);
    let client = ClusterClient::connect(addrs(&servers)).expect("connect fleet");
    let reference = demo_bundle();

    let keys: Vec<(String, String)> = (0..PAIRS)
        .map(|s| (format!("sg/in{s}"), format!("sg/out{s}")))
        .collect();
    for (s, (in_key, _)) in keys.iter().enumerate() {
        client
            .put_tensor(in_key, &demo_input(s as u64))
            .expect("put");
    }
    let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
    client.run_model_batch(DEMO_MODEL, &pairs).expect("batch");

    for (s, (_, out_key)) in keys.iter().enumerate() {
        let got = client.unpack_tensor(out_key).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "scattered pair {s} diverged");
        }
    }

    // The fleet genuinely sharded: more than one endpoint executed work,
    // and the per-endpoint routed counters account for every pair.
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        metric_total(&metrics, "hpcnet_cluster_routed_total"),
        PAIRS as f64,
        "routed counters must account for every pair:\n{metrics}"
    );
    let busy_endpoints = servers
        .into_iter()
        .map(|s| s.shutdown())
        .filter(|stats| stats.requests > 0)
        .count();
    assert!(
        busy_endpoints >= 2,
        "a 30-pair batch over 3 endpoints must scatter (only {busy_endpoints} served work)"
    );
}

#[test]
fn killing_one_endpoint_mid_stream_fails_over_with_zero_data_loss() {
    const BEFORE: usize = 20;
    const AFTER: usize = 20;
    let mut servers = fleet(3);
    let client = ClusterClient::builder(addrs(&servers))
        .replication(2)
        .health_interval(Some(Duration::from_millis(100)))
        .connect()
        .expect("connect fleet");
    let reference = demo_bundle();

    let run_one = |s: usize| {
        let in_key = format!("fo/in{s}");
        let out_key = format!("fo/out{s}");
        client
            .put_tensor(&in_key, &demo_input(s as u64))
            .expect("put");
        client
            .run_model(DEMO_MODEL, &in_key, &out_key)
            .expect("run must survive endpoint loss");
    };

    for s in 0..BEFORE {
        run_one(s);
    }

    // Kill one of the three endpoints outright: connections die, the
    // port stops answering.
    servers.remove(1).shutdown();

    // The stream continues: every request after the kill must be served
    // via the surviving replicas.
    for s in BEFORE..BEFORE + AFTER {
        run_one(s);
    }

    // Zero data loss: every output — including those computed *before*
    // the kill, whose home set included the dead endpoint — is readable
    // and bit-exact.
    for s in 0..BEFORE + AFTER {
        let got = client.unpack_tensor(&format!("fo/out{s}")).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "output {s} diverged after failover"
            );
        }
    }

    // The fleet still answers liveness probes and reports the failovers.
    client.ping().expect("a 2/3 fleet is alive");
    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metric_total(&metrics, "hpcnet_cluster_failovers_total") > 0.0,
        "killing an endpoint mid-stream must register failovers:\n{metrics}"
    );

    // The health thread notices the corpse within a few sweeps.
    let mut marked = false;
    for _ in 0..50 {
        if !client.endpoint_health()[1] {
            marked = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        marked,
        "health checks must mark the killed endpoint unhealthy"
    );
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        metric_total(&metrics, "hpcnet_cluster_unhealthy_endpoints"),
        1.0,
        "unhealthy gauge must report the killed endpoint:\n{metrics}"
    );
    assert!(
        metric_total(&metrics, "hpcnet_cluster_health_checks_total") > 0.0,
        "health probes must be counted:\n{metrics}"
    );

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn batch_reroutes_when_its_shard_endpoint_dies_mid_batch() {
    const PAIRS: usize = 12;
    const DEAD: usize = 2;
    let mut servers = fleet(3);
    // No health thread: the kill is only discoverable through the
    // request path, forcing the scatter stage to hit the dead endpoint
    // and exercise the per-pair re-route.
    let client = ClusterClient::builder(addrs(&servers))
        .replication(2)
        .health_interval(None)
        .connect()
        .expect("connect fleet");
    let reference = demo_bundle();

    let keys: Vec<(String, String)> = (0..PAIRS)
        .map(|s| (format!("rr/in{s}"), format!("rr/out{s}")))
        .collect();
    for (s, (in_key, _)) in keys.iter().enumerate() {
        client
            .put_tensor(in_key, &demo_input(s as u64))
            .expect("put");
    }
    // Known placement: the pairs whose input key has the endpoint about
    // to die as its primary are the ones that will be served elsewhere.
    let ring = HashRing::new(servers.len(), DEFAULT_VNODES);
    let displaced = keys
        .iter()
        .filter(|(in_key, _)| ring.replicas(in_key, 2)[0] == DEAD)
        .count();
    assert!(
        displaced > 0 && displaced < PAIRS,
        "the batch must straddle the dead shard, {displaced} of {PAIRS} pairs on it"
    );
    let failovers = || {
        metric_total(
            &client.metrics_text().expect("metrics"),
            "hpcnet_cluster_failovers_total",
        )
    };
    let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
    client
        .run_model_batch(DEMO_MODEL, &pairs)
        .expect("batch on a healthy fleet");
    assert_eq!(failovers(), 0.0, "every pair ran on its primary");

    // Kill an endpoint the client still believes is healthy, then
    // scatter: the dead shard's sub-batch fails as a whole and every one
    // of its pairs must be served by the surviving replicas — one
    // failover each, counted where the pair is served, not once more for
    // having been re-routed.
    servers.remove(DEAD).shutdown();
    client
        .run_model_batch(DEMO_MODEL, &pairs)
        .expect("batch must survive losing a shard mid-flight");
    assert_eq!(
        failovers(),
        displaced as f64,
        "one failover per pair whose primary died mid-batch"
    );
    assert!(!client.endpoint_health()[DEAD]);

    // The same batch again, its primary now known to be down, and the
    // displaced pairs once more one by one: a pair served off its primary
    // counts the same however it travelled and however the cluster came
    // to know.
    client
        .run_model_batch(DEMO_MODEL, &pairs)
        .expect("batch around an endpoint marked unhealthy");
    assert_eq!(failovers(), 2.0 * displaced as f64);
    for (in_key, out_key) in &pairs {
        client
            .run_model(DEMO_MODEL, in_key, out_key)
            .expect("single run around the dead endpoint");
    }
    assert_eq!(failovers(), 3.0 * displaced as f64);

    for (s, (_, out_key)) in keys.iter().enumerate() {
        let got = client.unpack_tensor(out_key).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "re-routed pair {s} diverged");
        }
    }

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn restarted_endpoint_costs_a_redial_not_a_failover() {
    const PAIRS: usize = 24;
    // Each endpoint keeps its store across its restart, so the only thing
    // the restart invalidates is the client's pooled connection.
    let stores = [TensorStore::new(), TensorStore::new()];
    let launch = |store: &TensorStore, addr: &str| {
        let orc = Orchestrator::builder()
            .store(store.clone())
            .workers(2)
            .build();
        orc.register_model(DEMO_MODEL, demo_bundle());
        NetServer::builder(orc).serve(addr).expect("bind")
    };
    let mut servers: Vec<NetServer> = stores
        .iter()
        .map(|store| launch(store, "127.0.0.1:0"))
        .collect();
    // Replication 1 and no health thread: nothing but the batch path
    // itself can absorb the stale connection.
    let client = ClusterClient::builder(addrs(&servers))
        .replication(1)
        .health_interval(None)
        .connect()
        .expect("connect fleet");
    let reference = demo_bundle();

    let keys: Vec<(String, String)> = (0..PAIRS)
        .map(|s| (format!("{{rd{s}}}/in"), format!("{{rd{s}}}/out")))
        .collect();
    for (s, (in_key, _)) in keys.iter().enumerate() {
        client
            .put_tensor(in_key, &demo_input(s as u64))
            .expect("put");
    }
    let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
    client
        .run_model_batch(DEMO_MODEL, &pairs)
        .expect("first batch");

    let addr = servers[0].local_addr().to_string();
    let before = servers.remove(0).shutdown();
    assert!(before.requests > 0, "the restarted endpoint must own pairs");
    servers.insert(0, launch(&stores[0], &addr));

    client
        .run_model_batch(DEMO_MODEL, &pairs)
        .expect("second batch rides one re-dial");
    for (s, (_, out_key)) in keys.iter().enumerate() {
        let got = client.unpack_tensor(out_key).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "pair {s} diverged");
        }
    }
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        metric_total(&metrics, "hpcnet_cluster_failovers_total"),
        0.0,
        "a restarted endpoint is not a failed one:\n{metrics}"
    );
    assert_eq!(client.endpoint_health(), vec![true, true]);
    // The restarted endpoint served its own share again.
    let after: Vec<_> = servers.into_iter().map(NetServer::shutdown).collect();
    assert_eq!(after[0].requests, before.requests);
}

#[test]
fn merged_stats_roll_up_every_endpoint() {
    const REQUESTS: usize = 9;
    let servers = fleet(3);
    let client = ClusterClient::connect(addrs(&servers)).expect("connect fleet");
    for s in 0..REQUESTS {
        let in_key = format!("ru/in{s}");
        client
            .put_tensor(&in_key, &demo_input(s as u64))
            .expect("put");
        client
            .run_model(DEMO_MODEL, &in_key, &format!("ru/out{s}"))
            .expect("run");
    }
    let merged = client.serving_stats().expect("stats");
    assert_eq!(
        merged.requests, REQUESTS as u64,
        "merged rollup must count requests across all endpoints"
    );
    // Version rollup: every shard registered the demo model once, so the
    // fleet-wide view (per-model max across endpoints) reports 1 — both
    // through the merged stats and the ClientApi `model_versions` surface.
    assert_eq!(merged.model_versions.get(DEMO_MODEL).copied(), Some(1));
    assert_eq!(client.model_versions().expect("versions")[DEMO_MODEL], 1);
    // The per-endpoint view is also reachable and sums to the rollup.
    let sum: u64 = (0..3)
        .map(|i| {
            client
                .endpoint_serving_stats(i)
                .expect("endpoint stats")
                .requests
        })
        .sum();
    assert_eq!(sum, merged.requests);

    // Hash-tagged keys co-locate: input and output share a replica set,
    // so serving them needs no relocation hop.
    client
        .put_tensor("{tag7}/in", &demo_input(99))
        .expect("put tagged");
    client
        .run_model(DEMO_MODEL, "{tag7}/in", "{tag7}/out")
        .expect("run tagged");
    let got = client.unpack_tensor("{tag7}/out").expect("unpack tagged");
    assert_eq!(got.len(), 4);

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn connect_tolerates_partial_fleet_but_not_total_outage() {
    let servers = fleet(2);
    let mut fleet_addrs = addrs(&servers);
    // One bogus endpoint: connect succeeds, marks it unhealthy.
    fleet_addrs.push("127.0.0.1:1".to_string());
    let client = ClusterClient::builder(fleet_addrs)
        .connect_timeout(Duration::from_millis(200))
        .retries(0)
        .health_interval(None)
        .connect()
        .expect("a 2/3 fleet must connect");
    assert_eq!(client.endpoint_health(), vec![true, true, false]);

    // All endpoints dead: typed transport error.
    let err = ClusterClient::builder(["127.0.0.1:1"])
        .connect_timeout(Duration::from_millis(200))
        .retries(0)
        .connect()
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Transport(_)), "got {err:?}");

    for s in servers {
        s.shutdown();
    }
}
