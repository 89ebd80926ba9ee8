//! [`ClusterClient`]: the fleet-wide [`ClientApi`] implementation.
//!
//! Routing policy (DESIGN.md §15):
//!
//! * a key's **home set** is the first [`ClusterClientBuilder::replication`]
//!   distinct endpoints clockwise from its ring hash;
//! * **writes** (`put_tensor`, `put_sparse_tensor`, `del_tensor`) fan out
//!   to every home member: `Ok` when at least one accepted (a partial fan
//!   out counts a degraded write), the first typed error when none did;
//! * **reads** (`unpack_tensor`) walk the home set in preference order,
//!   failing over past transport faults and misses;
//! * **runs** ([`ClientApi::run_pairs`], one pair or many) scatter: each
//!   pair executes on the first healthy home member of its *input* key
//!   (the replica that holds the input), the pairs of one executor
//!   travelling together and the executors in parallel (each sub-batch
//!   pipelined by the underlying `RemoteClient` over a pooled connection
//!   under its own retry rule); the pairs a transport fault leaves
//!   unanswered move on to their next replica and scatter again; every
//!   served output is then copied to the output key's own home set so
//!   later reads route to it.
//!
//! Transport failures mark an endpoint unhealthy immediately; a
//! background thread keeps `PING`ing every endpoint (including unhealthy
//! ones) so recovered endpoints return to rotation within one
//! [`ClusterClientBuilder::health_interval`]. Typed server errors
//! (`MissingModel`, `Overloaded`, `DeadlineExceeded`, ...) never fail
//! over — they are answers, not faults, and travel back unchanged.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use hpcnet_net::RemoteClient;
use hpcnet_runtime::{ClientApi, Result, RuntimeError, ServingStats};
use hpcnet_telemetry::trace::{self, merge_traces};
use hpcnet_telemetry::{
    FlightRecorder, FlightRecorderConfig, Registry, SpanId, SpanTimer, Stage, Trace, TraceContext,
};

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Service label on spans this client records (DESIGN.md §16).
const TRACE_SERVICE: &str = "cluster";

/// Configures a [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterClientBuilder {
    addrs: Vec<String>,
    replication: usize,
    health_interval: Option<Duration>,
    connect_timeout: Duration,
    retries: u32,
}

impl ClusterClientBuilder {
    /// Replica-set size per key (default 2, clamped to the endpoint
    /// count). With replication ≥ 2 the fleet serves every replicated
    /// key through the loss of one endpoint.
    pub fn replication(mut self, n: usize) -> Self {
        self.replication = n.max(1);
        self
    }

    /// Background health-check period (default 500 ms; `None` disables
    /// the thread — endpoints are then only re-probed by request-path
    /// successes and [`ClusterClient::ping`]).
    pub fn health_interval(mut self, interval: Option<Duration>) -> Self {
        self.health_interval = interval;
        self
    }

    /// Per-endpoint TCP connect timeout (default 2 s).
    pub fn connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = t;
        self
    }

    /// Per-endpoint transport retry budget per call (default 1: one
    /// retry, then the cluster fails over to the next replica instead of
    /// hammering a dead endpoint).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Connect to the fleet. Every endpoint is probed once; endpoints
    /// that do not answer are marked unhealthy (and kept — the health
    /// thread readmits them when they come back). Fails with
    /// [`RuntimeError::Transport`] only when *no* endpoint answers.
    pub fn connect(self) -> Result<ClusterClient> {
        if self.addrs.is_empty() {
            return Err(RuntimeError::Transport(
                "cluster client needs at least one endpoint address".to_string(),
            ));
        }
        let registry = Registry::new();
        registry.set_helps(crate::CLUSTER_METRIC_HELP);
        let failovers = registry.counter(crate::FAILOVERS_TOTAL);
        let unhealthy_gauge = registry.gauge(crate::UNHEALTHY_GAUGE);
        let health_checks = registry.counter(crate::HEALTH_CHECKS_TOTAL);
        let degraded_writes = registry.counter(crate::DEGRADED_WRITES_TOTAL);
        let relocations = registry.counter(crate::RELOCATIONS_TOTAL);
        let endpoints: Vec<Endpoint> = self
            .addrs
            .iter()
            .map(|addr| Endpoint {
                addr: addr.clone(),
                client: RemoteClient::builder(addr.clone())
                    .retries(self.retries)
                    .connect_timeout(self.connect_timeout)
                    .connect_lazy(),
                healthy: AtomicBool::new(true),
                routed: registry.counter_with(crate::ROUTED_TOTAL, &[("endpoint", addr)]),
            })
            .collect();
        let inner = Arc::new(Inner {
            ring: HashRing::new(endpoints.len(), DEFAULT_VNODES),
            replication: self.replication.min(endpoints.len()),
            endpoints,
            registry,
            failovers,
            unhealthy_gauge,
            health_checks,
            degraded_writes,
            relocations,
            recorder: FlightRecorder::new(FlightRecorderConfig::default()),
        });
        // Initial sweep: the fleet is usable iff someone answers.
        let mut any = false;
        for (idx, endpoint) in inner.endpoints.iter().enumerate() {
            let ok = endpoint.client.ping().is_ok();
            inner.mark_health(idx, ok);
            any |= ok;
        }
        if !any {
            return Err(RuntimeError::Transport(format!(
                "no cluster endpoint answered (tried {})",
                self.addrs.join(", ")
            )));
        }
        if let Some(interval) = self.health_interval {
            spawn_health_thread(&inner, interval);
        }
        Ok(ClusterClient { inner })
    }
}

/// A sharded fleet client. Cheap to clone — clones share routing state,
/// health view, connection pools, and telemetry.
#[derive(Clone)]
pub struct ClusterClient {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("endpoints", &self.endpoint_addrs())
            .finish_non_exhaustive()
    }
}

struct Endpoint {
    addr: String,
    client: RemoteClient,
    healthy: AtomicBool,
    routed: Arc<hpcnet_telemetry::Counter>,
}

struct Inner {
    endpoints: Vec<Endpoint>,
    ring: HashRing,
    replication: usize,
    registry: Registry,
    failovers: Arc<hpcnet_telemetry::Counter>,
    unhealthy_gauge: Arc<hpcnet_telemetry::Gauge>,
    health_checks: Arc<hpcnet_telemetry::Counter>,
    degraded_writes: Arc<hpcnet_telemetry::Counter>,
    relocations: Arc<hpcnet_telemetry::Counter>,
    /// Fleet-side trace halves (DESIGN.md §16): the root span of every
    /// run call plus one shard span per sub-batch sent to an endpoint,
    /// under the same tail-sampling rules as the servers' recorders.
    recorder: FlightRecorder,
}

impl Inner {
    /// A key's home set: replica endpoints in ring preference order.
    fn home(&self, key: &str) -> Vec<usize> {
        self.ring.replicas(key, self.replication)
    }

    /// Home members re-ordered healthy-first (relative order preserved
    /// within each class). Unhealthy members stay as last-resort
    /// candidates so a dead health view can never make a key unservable.
    fn candidates(&self, home: &[usize]) -> Vec<usize> {
        let mut ordered: Vec<usize> = home
            .iter()
            .copied()
            .filter(|&e| self.is_healthy(e))
            .collect();
        ordered.extend(home.iter().copied().filter(|&e| !self.is_healthy(e)));
        ordered
    }

    fn is_healthy(&self, idx: usize) -> bool {
        // relaxed: the flag is an advisory routing hint; a stale read
        // only costs one extra connection attempt.
        self.endpoints[idx].healthy.load(Ordering::Relaxed)
    }

    /// Record an endpoint's health and keep the unhealthy gauge in step.
    fn mark_health(&self, idx: usize, ok: bool) {
        // relaxed: same advisory hint as `is_healthy`; the gauge below is
        // recomputed from a full scan, not from this swap's return.
        let was = self.endpoints[idx].healthy.swap(ok, Ordering::Relaxed);
        if was != ok {
            let unhealthy = self
                .endpoints
                .iter()
                // relaxed: advisory health hint, see `is_healthy`.
                .filter(|e| !e.healthy.load(Ordering::Relaxed))
                .count();
            self.unhealthy_gauge.set(unhealthy as f64);
        }
    }
}

/// Background prober: wakes every `interval`, `PING`s every endpoint
/// (healthy and unhealthy alike), and updates the health view. Holds only
/// a `Weak` so dropping the last client handle ends the thread within one
/// interval.
fn spawn_health_thread(inner: &Arc<Inner>, interval: Duration) {
    let weak: Weak<Inner> = Arc::downgrade(inner);
    std::thread::spawn(move || loop {
        std::thread::sleep(interval);
        let Some(inner) = weak.upgrade() else {
            break;
        };
        for (idx, endpoint) in inner.endpoints.iter().enumerate() {
            inner.health_checks.inc();
            let ok = endpoint.client.ping().is_ok();
            inner.mark_health(idx, ok);
        }
    });
}

impl ClusterClient {
    /// Start configuring a client for a fleet of `hpcnet-serve`
    /// endpoints (e.g. `["10.0.0.1:4915", "10.0.0.2:4915"]`).
    pub fn builder<S: Into<String>>(addrs: impl IntoIterator<Item = S>) -> ClusterClientBuilder {
        ClusterClientBuilder {
            addrs: addrs.into_iter().map(Into::into).collect(),
            replication: 2,
            health_interval: Some(Duration::from_millis(500)),
            connect_timeout: Duration::from_secs(2),
            retries: 1,
        }
    }

    /// Connect with default settings.
    pub fn connect<S: Into<String>>(addrs: impl IntoIterator<Item = S>) -> Result<ClusterClient> {
        ClusterClient::builder(addrs).connect()
    }

    /// Endpoint addresses, in ring index order.
    pub fn endpoint_addrs(&self) -> Vec<String> {
        self.inner
            .endpoints
            .iter()
            .map(|e| e.addr.clone())
            .collect()
    }

    /// Current health view, indexed like [`ClusterClient::endpoint_addrs`].
    pub fn endpoint_health(&self) -> Vec<bool> {
        (0..self.inner.endpoints.len())
            .map(|i| self.inner.is_healthy(i))
            .collect()
    }

    /// One endpoint's own serving statistics (not the merged rollup).
    pub fn endpoint_serving_stats(&self, idx: usize) -> Result<ServingStats> {
        match self.inner.endpoints.get(idx) {
            Some(e) => e.client.serving_stats(),
            None => Err(RuntimeError::Transport(format!(
                "no endpoint at index {idx}"
            ))),
        }
    }

    /// Fan a write out to every member of `key`'s home set. `Ok` when at
    /// least one member accepted; typed errors win over transport errors
    /// when none did.
    fn fanout_write<T>(
        &self,
        key: &str,
        op: impl Fn(&RemoteClient) -> Result<T>,
        mut fold: impl FnMut(T),
    ) -> Result<()> {
        let home = self.inner.home(key);
        let mut wrote = 0usize;
        let mut first_typed: Option<RuntimeError> = None;
        let mut last_transport: Option<RuntimeError> = None;
        for &e in &home {
            match op(&self.inner.endpoints[e].client) {
                Ok(v) => {
                    self.inner.mark_health(e, true);
                    fold(v);
                    wrote += 1;
                }
                Err(RuntimeError::Transport(m)) => {
                    self.inner.mark_health(e, false);
                    last_transport = Some(RuntimeError::Transport(m));
                }
                Err(err) => {
                    first_typed.get_or_insert(err);
                }
            }
        }
        if wrote == 0 {
            return Err(first_typed
                .or(last_transport)
                .unwrap_or(RuntimeError::Disconnected));
        }
        if wrote < home.len() {
            self.inner.degraded_writes.inc();
        }
        Ok(())
    }

    /// Copy a freshly-computed output from the endpoint that executed the
    /// request to the output key's own home set, so later reads (which
    /// route by `out_key`) find it and so it survives the loss of any one
    /// endpoint. A no-op when the executor alone *is* the home set (the
    /// hash-tag co-location fast path with replication 1). Returns
    /// whether the output was *relocated* — the executor was not a home
    /// member, so the tensor moved rather than merely replicated.
    fn home_output(&self, executor: usize, out_key: &str) -> Result<bool> {
        let home = self.inner.home(out_key);
        let executor_is_home = home.contains(&executor);
        if executor_is_home && home.len() == 1 {
            return Ok(false);
        }
        let values = self.inner.endpoints[executor]
            .client
            .unpack_tensor(out_key)?;
        let mut wrote = 0usize;
        let mut first_err: Option<RuntimeError> = None;
        for &e in &home {
            if e == executor {
                wrote += 1;
                continue;
            }
            match self.inner.endpoints[e].client.put_tensor(out_key, &values) {
                Ok(()) => {
                    self.inner.mark_health(e, true);
                    wrote += 1;
                }
                Err(RuntimeError::Transport(m)) => {
                    self.inner.mark_health(e, false);
                    first_err.get_or_insert(RuntimeError::Transport(m));
                }
                Err(err) => {
                    first_err.get_or_insert(err);
                }
            }
        }
        if wrote == 0 {
            // The output exists only on the executor, which reads for
            // `out_key` will never consult: surface the fault instead of
            // stranding the tensor.
            return Err(first_err.unwrap_or(RuntimeError::Disconnected));
        }
        if !executor_is_home {
            // The executor is not a home member: the copy above moved the
            // tensor, so drop the stray original.
            let _ = self.inner.endpoints[executor].client.del_tensor(out_key);
            self.inner.relocations.inc();
        }
        if wrote < home.len() {
            self.inner.degraded_writes.inc();
        }
        Ok(!executor_is_home)
    }
}

impl ClientApi for ClusterClient {
    fn put_tensor(&self, key: &str, value: &[f64]) -> Result<()> {
        self.fanout_write(key, |c| c.put_tensor(key, value), |()| {})
    }

    fn put_sparse_tensor(&self, key: &str, value: hpcnet_tensor::Csr) -> Result<()> {
        self.fanout_write(key, |c| c.put_sparse_tensor_ref(key, &value), |()| {})
    }

    /// Scatter, re-route, home, trace and count in one routine
    /// (DESIGN.md §15.3): a pair is a pair, alone or among many.
    ///
    /// Also where the cluster originates the distributed trace
    /// (DESIGN.md §16): one root span per call and one shard span per
    /// sub-batch, whose child context every frame of the sub-batch
    /// carries, so the server-side spans join the same tree.
    fn run_pairs(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
    ) -> Vec<Result<()>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let inner = &*self.inner;
        let timer = SpanTimer::start();
        let ctx = TraceContext::root();
        let root_id = SpanId(trace::next_id());
        // Send the pairs `idxs` to `executor` as one sub-batch under a
        // shard span of the call's trace. An exhausted budget is answered
        // by the endpoint's client without touching the wire.
        let run_shard = |executor: usize, idxs: &[usize]| {
            let endpoint = &inner.endpoints[executor];
            let sub: Vec<(&str, &str)> = idxs.iter().map(|&i| pairs[i]).collect();
            let remaining = deadline.map(|d| d.saturating_sub(timer.elapsed()));
            let shard_id = SpanId(trace::next_id());
            let shard_timer = SpanTimer::start();
            let per_pair =
                endpoint
                    .client
                    .run_pairs_under(model, &sub, remaining, ctx.child_of(shard_id));
            let mut span = shard_timer
                .finish(Stage::Shard, TRACE_SERVICE)
                .with_parent(root_id)
                .annotate("endpoint", &endpoint.addr)
                .annotate("pairs", sub.len());
            // The shard's id went over the wire before the span existed.
            span.span_id = shard_id;
            if let Some(e) = per_pair.iter().find_map(|r| r.as_ref().err()) {
                span = span.with_error(e);
            }
            (per_pair, span)
        };
        let mut spans = Vec::new();

        // Per pair: its input key's primary, and the replicas still to
        // try — healthy ones first. A pair walks them until one answers
        // it; a transport fault strikes the replica off.
        let mut routes: Vec<(usize, Vec<usize>)> = pairs
            .iter()
            .map(|(in_key, _)| {
                let home = inner.home(in_key);
                (home[0], inner.candidates(&home))
            })
            .collect();
        let mut results: Vec<Result<()>> = vec![Err(RuntimeError::Disconnected); pairs.len()];
        let mut unanswered: Vec<usize> = (0..pairs.len()).collect();
        loop {
            // BTreeMap for deterministic shard ordering. A pair that has
            // run out of replicas keeps its last transport fault.
            let mut shards: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for i in unanswered.drain(..) {
                if let Some(&executor) = routes[i].1.first() {
                    shards.entry(executor).or_default().push(i);
                }
            }
            let shards: Vec<(usize, Vec<usize>)> = shards.into_iter().collect();
            let Some((local, remote)) = shards.split_last() else {
                break;
            };
            // One shard runs on the calling thread, which would otherwise
            // only wait; the others each get a scoped thread.
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let run_shard = &run_shard;
                let handles: Vec<_> = remote
                    .iter()
                    .map(|(executor, idxs)| scope.spawn(move || run_shard(*executor, idxs)))
                    .collect();
                let local = run_shard(local.0, &local.1);
                handles
                    .into_iter()
                    .map(|h| h.join().ok())
                    .chain([Some(local)])
                    .collect()
            });
            for (&(executor, ref idxs), outcome) in shards.iter().zip(outcomes) {
                let Some((per_pair, mut span)) = outcome else {
                    for &i in idxs {
                        results[i] = Err(RuntimeError::Inference(
                            "cluster shard thread panicked".into(),
                        ));
                    }
                    continue;
                };
                let endpoint = &inner.endpoints[executor];
                let (mut served, mut failed_over, mut relocated) = (0u64, 0u64, 0u64);
                let mut faulted = false;
                for (&i, result) in idxs.iter().zip(per_pair) {
                    results[i] = match result {
                        Ok(()) => {
                            served += 1;
                            failed_over += u64::from(executor != routes[i].0);
                            self.home_output(executor, pairs[i].1)
                                .map(|moved| relocated += u64::from(moved))
                        }
                        Err(RuntimeError::Transport(m)) => {
                            faulted = true;
                            routes[i].1.remove(0);
                            unanswered.push(i);
                            Err(RuntimeError::Transport(m))
                        }
                        // Typed errors are answers, not faults.
                        Err(e) => Err(e),
                    };
                }
                if faulted {
                    inner.mark_health(executor, false);
                } else if served > 0 {
                    inner.mark_health(executor, true);
                }
                endpoint.routed.add(served);
                // One failover per pair served off its primary, however
                // it came to be there.
                inner.failovers.add(failed_over);
                if failed_over > 0 {
                    span = span.annotate("failover", failed_over);
                }
                if relocated > 0 {
                    span = span.annotate("relocated", relocated);
                }
                spans.push(span);
            }
        }

        let mut root = timer
            .finish(Stage::Request, TRACE_SERVICE)
            .annotate("model", model)
            .annotate("pairs", pairs.len());
        // The root's id was handed to the shards before the span
        // finished, so overwrite the freshly minted one.
        root.span_id = root_id;
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            root = root.with_error(e);
        }
        let mut t = Trace::new(ctx.trace_id);
        t.push(root);
        for span in spans {
            t.push(span);
        }
        inner.recorder.record(t);
        results
    }

    fn unpack_tensor(&self, key: &str) -> Result<Vec<f64>> {
        let home = self.inner.home(key);
        let primary = home[0];
        let mut missing: Option<RuntimeError> = None;
        let mut last_transport: Option<RuntimeError> = None;
        for e in self.inner.candidates(&home) {
            match self.inner.endpoints[e].client.unpack_tensor(key) {
                Ok(values) => {
                    self.inner.mark_health(e, true);
                    if e != primary {
                        self.inner.failovers.inc();
                    }
                    return Ok(values);
                }
                Err(RuntimeError::Transport(m)) => {
                    self.inner.mark_health(e, false);
                    last_transport = Some(RuntimeError::Transport(m));
                }
                Err(RuntimeError::MissingTensor(k)) => {
                    // This replica may simply have restarted; another may
                    // still hold the key.
                    missing = Some(RuntimeError::MissingTensor(k));
                }
                Err(err) => return Err(err),
            }
        }
        Err(missing
            .or(last_transport)
            .unwrap_or(RuntimeError::Disconnected))
    }

    fn del_tensor(&self, key: &str) -> Result<bool> {
        let mut existed = false;
        self.fanout_write(key, |c| c.del_tensor(key), |e| existed |= e)?;
        Ok(existed)
    }

    fn ping(&self) -> Result<()> {
        let mut last_err: Option<RuntimeError> = None;
        let mut any = false;
        for (idx, endpoint) in self.inner.endpoints.iter().enumerate() {
            match endpoint.client.ping() {
                Ok(()) => {
                    self.inner.mark_health(idx, true);
                    any = true;
                }
                Err(err) => {
                    if matches!(err, RuntimeError::Transport(_)) {
                        self.inner.mark_health(idx, false);
                    }
                    last_err = Some(err);
                }
            }
        }
        if any {
            Ok(())
        } else {
            Err(last_err.unwrap_or(RuntimeError::Disconnected))
        }
    }

    fn serving_stats(&self) -> Result<ServingStats> {
        let mut merged = ServingStats::default();
        let mut reachable = 0usize;
        let mut last_err: Option<RuntimeError> = None;
        for (idx, endpoint) in self.inner.endpoints.iter().enumerate() {
            match endpoint.client.serving_stats() {
                Ok(stats) => {
                    self.inner.mark_health(idx, true);
                    merged.merge(&stats);
                    reachable += 1;
                }
                Err(err) => {
                    if matches!(err, RuntimeError::Transport(_)) {
                        self.inner.mark_health(idx, false);
                    }
                    last_err = Some(err);
                }
            }
        }
        if reachable == 0 {
            return Err(last_err.unwrap_or(RuntimeError::Disconnected));
        }
        Ok(merged)
    }

    fn metrics_text(&self) -> Result<String> {
        Ok(self.inner.registry.prometheus_text())
    }

    /// Across the whole fleet: the cluster's own routing spans merged
    /// (by trace id) with every reachable endpoint's dump. Never fails
    /// outright — an unreachable endpoint just contributes nothing, since
    /// the local recorder always has the root spans.
    fn trace_dump(&self) -> Result<Vec<Trace>> {
        let mut all = self.inner.recorder.snapshot();
        for endpoint in &self.inner.endpoints {
            if let Ok(traces) = endpoint.client.trace_dump() {
                all.extend(traces);
            }
        }
        Ok(merge_traces(all))
    }
}
