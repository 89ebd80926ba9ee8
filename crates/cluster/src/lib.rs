//! `hpcnet-cluster`: a sharded serving fleet behind the [`ClientApi`]
//! seam.
//!
//! One `hpcnet-serve` process is a single orchestrator: one tensor store,
//! one set of execution slots, one pending queue. This crate scales that out
//! horizontally without touching application code. [`ClusterClient`]
//! implements the same [`ClientApi`] the in-process `Client` and the TCP
//! `RemoteClient` implement, but routes every keyed operation across N
//! endpoints:
//!
//! * **Consistent-hash routing** ([`ring::HashRing`]) — tensor keys map
//!   to endpoints through a vnode hash ring, so growing the fleet from N
//!   to N+1 remaps only ~1/N of the key space. Keys sharing a `{tag}`
//!   co-locate (the Redis Cluster idiom).
//! * **Replication** — each key has a replica set of
//!   [`ClusterClientBuilder::replication`] endpoints; writes fan out to
//!   the set, reads walk it in preference order.
//! * **Failover** — endpoints are health-checked with periodic `PING`s
//!   and marked unhealthy on request-path transport failures; requests
//!   re-route to the next healthy replica. A fleet killing one of its
//!   endpoints mid-stream keeps serving every replicated key.
//! * **Scatter/gather runs** — the one run call, `run_pairs`, splits its
//!   pairs (one or many) into per-endpoint sub-batches executed in
//!   parallel (each pipelined over its endpoint's connection), re-routes
//!   what a transport fault left unanswered, and gathers one result per
//!   pair in pair order.
//! * **Fleet observability** — `serving_stats()` returns the merged
//!   rollup across reachable endpoints; `metrics_text()` exposes the
//!   client's own `hpcnet_cluster_*` routing series (below).
//!
//! See DESIGN.md §15 for the routing, replication, and failover policy.
//!
//! # Telemetry series
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | [`ROUTED_TOTAL`] | counter (`endpoint` label) | requests served per endpoint |
//! | [`FAILOVERS_TOTAL`] | counter | requests served away from their first-choice endpoint |
//! | [`UNHEALTHY_GAUGE`] | gauge | endpoints currently marked unhealthy |
//! | [`HEALTH_CHECKS_TOTAL`] | counter | background health probes issued |
//! | [`DEGRADED_WRITES_TOTAL`] | counter | writes that reached only part of their replica set |
//! | [`RELOCATIONS_TOTAL`] | counter | outputs moved from their executor to their home set |

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod ring;

pub use client::{ClusterClient, ClusterClientBuilder};
pub use hpcnet_runtime::ClientApi;
pub use ring::HashRing;

/// Counter: requests served per endpoint (label `endpoint="<addr>"`).
pub const ROUTED_TOTAL: &str = "hpcnet_cluster_routed_total";

/// Counter: run pairs and reads that were served by an endpoint other
/// than their first-choice replica — either re-routed after a transport
/// failure or routed around an endpoint already marked unhealthy. Exactly
/// one per pair or read so served, whether the pair travelled alone or in
/// a batch and however many replicas it tried on the way.
pub const FAILOVERS_TOTAL: &str = "hpcnet_cluster_failovers_total";

/// Gauge: endpoints currently marked unhealthy.
pub const UNHEALTHY_GAUGE: &str = "hpcnet_cluster_unhealthy_endpoints";

/// Counter: background health-check probes issued (one per endpoint per
/// sweep).
pub const HEALTH_CHECKS_TOTAL: &str = "hpcnet_cluster_health_checks_total";

/// Counter: writes that reached at least one but not all members of
/// their replica set.
pub const DEGRADED_WRITES_TOTAL: &str = "hpcnet_cluster_degraded_writes_total";

/// Counter: model outputs copied from the endpoint that executed the
/// request to the output key's own replica set.
pub const RELOCATIONS_TOTAL: &str = "hpcnet_cluster_relocations_total";

/// `# HELP` text for every `hpcnet_cluster_*` series, installed into the
/// client's registry at connect time.
pub(crate) const CLUSTER_METRIC_HELP: &[(&str, &str)] = &[
    (ROUTED_TOTAL, "Requests served per endpoint."),
    (
        FAILOVERS_TOTAL,
        "Run pairs and reads served by an endpoint other than their first-choice replica.",
    ),
    (UNHEALTHY_GAUGE, "Endpoints currently marked unhealthy."),
    (
        HEALTH_CHECKS_TOTAL,
        "Background health-check probes issued (one per endpoint per sweep).",
    ),
    (
        DEGRADED_WRITES_TOTAL,
        "Writes that reached at least one but not all members of their replica set.",
    ),
    (
        RELOCATIONS_TOTAL,
        "Model outputs copied from their executor to the output key's replica set.",
    ),
];
