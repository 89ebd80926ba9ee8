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
//! * **`run_model`** executes on the first healthy home member of the
//!   *input* key (the replica that holds the input), then copies the
//!   output to the output key's own home set so later reads route to it;
//! * **batches** scatter per-executor sub-batches in parallel (each
//!   pipelined by the underlying `RemoteClient` over a pooled connection,
//!   which re-dials once by itself when that connection has gone stale),
//!   gather per-pair results, and re-route a shard's pairs individually
//!   when the shard's endpoint dies mid-batch.
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
use std::time::{Duration, Instant};

use hpcnet_net::RemoteClient;
use hpcnet_runtime::{ClientApi, Result, RuntimeError, ServingStats};
use hpcnet_telemetry::trace::{self, merge_traces};
use hpcnet_telemetry::{
    FlightRecorder, FlightRecorderConfig, Registry, SpanId, SpanRecord, SpanTimer, Stage, Trace,
    TraceContext,
};

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Service label on spans this client records (DESIGN.md §16).
const TRACE_SERVICE: &str = "cluster";

/// Configures a [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterClientBuilder {
    addrs: Vec<String>,
    replication: usize,
    vnodes: usize,
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

    /// Virtual nodes per endpoint on the hash ring (default
    /// [`DEFAULT_VNODES`]).
    pub fn vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes.max(1);
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
            ring: HashRing::new(endpoints.len(), self.vnodes),
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
    /// Fleet-side trace halves (DESIGN.md §16): the root span plus one
    /// shard span per attempted endpoint for every routed `run_model`,
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
            vnodes: DEFAULT_VNODES,
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

    /// One endpoint's Prometheus text (its serving and `hpcnet_net_*`
    /// series; the cluster's own routing series come from
    /// [`ClientApi::metrics_text`]).
    pub fn endpoint_metrics_text(&self, idx: usize) -> Result<String> {
        match self.inner.endpoints.get(idx) {
            Some(e) => e.client.metrics_text(),
            None => Err(RuntimeError::Transport(format!(
                "no endpoint at index {idx}"
            ))),
        }
    }

    /// Recent traces across the whole fleet: the cluster's own routing
    /// spans merged (by trace id) with every reachable endpoint's dump.
    /// Never fails outright — an unreachable endpoint just contributes
    /// nothing, since the local recorder always has the root spans.
    pub fn trace_dump(&self) -> Result<Vec<Trace>> {
        let mut all = self.inner.recorder.snapshot();
        for endpoint in &self.inner.endpoints {
            if let Ok(traces) = endpoint.client.trace_dump() {
                all.extend(traces);
            }
        }
        Ok(merge_traces(all))
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

    /// Execute one `run_model` with replica failover, then home the
    /// output. `budget` is the remaining whole-call deadline, if any.
    ///
    /// This is also where the cluster originates the distributed trace
    /// (DESIGN.md §16): it mints the root context, records the fleet
    /// root span plus one shard span per attempted endpoint, and sends
    /// each endpoint a child context so the server-side spans join the
    /// same tree.
    fn run_routed(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        budget: Option<Duration>,
        started: Instant,
    ) -> Result<()> {
        let ctx = TraceContext::root();
        let root_id = SpanId(trace::next_id());
        let timer = SpanTimer::start();
        let mut spans = Vec::new();
        let result = self.run_attempts(
            model, in_key, out_key, budget, started, ctx, root_id, &mut spans,
        );
        let mut root = timer
            .finish(Stage::Request, TRACE_SERVICE)
            .annotate("model", model);
        // The root's id was handed to the shard attempts before the span
        // finished, so overwrite the freshly minted one.
        root.span_id = root_id;
        if let Err(e) = &result {
            root = root.with_error(e);
        }
        let mut t = Trace::new(ctx.trace_id);
        t.push(root);
        for span in spans {
            t.push(span);
        }
        self.inner.recorder.record(t);
        result
    }

    /// The failover loop behind [`ClusterClient::run_routed`]: walk the
    /// input key's candidates, propagate `ctx` as a child of the shard
    /// span minted per attempt, and append every attempt's span (with
    /// endpoint, failover, relocation, and error annotations) to `spans`.
    #[allow(clippy::too_many_arguments)]
    fn run_attempts(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        budget: Option<Duration>,
        started: Instant,
        ctx: TraceContext,
        root_id: SpanId,
        spans: &mut Vec<SpanRecord>,
    ) -> Result<()> {
        if let Some(d) = budget {
            if d.is_zero() {
                return Err(RuntimeError::DeadlineExceeded);
            }
        }
        let home = self.inner.home(in_key);
        let primary = home[0];
        let mut last_transport: Option<RuntimeError> = None;
        for e in self.inner.candidates(&home) {
            let endpoint = &self.inner.endpoints[e];
            let deadline = match budget {
                None => None,
                Some(d) => {
                    let remaining = d.saturating_sub(started.elapsed());
                    if remaining.is_zero() {
                        return Err(RuntimeError::DeadlineExceeded);
                    }
                    Some(remaining)
                }
            };
            let shard_id = SpanId(trace::next_id());
            let shard_timer = SpanTimer::start();
            let attempt = endpoint.client.run_model_with_context(
                model,
                in_key,
                out_key,
                deadline,
                Some(ctx.child_of(shard_id)),
            );
            let mut shard_span = shard_timer
                .finish(Stage::Shard, TRACE_SERVICE)
                .with_parent(root_id)
                .annotate("endpoint", &endpoint.addr);
            shard_span.span_id = shard_id;
            if e != primary {
                shard_span = shard_span.annotate("failover", "true");
            }
            match attempt {
                Ok(()) => {
                    self.inner.mark_health(e, true);
                    endpoint.routed.inc();
                    if e != primary {
                        self.inner.failovers.inc();
                    }
                    return match self.home_output(e, out_key) {
                        Ok(relocated) => {
                            if relocated {
                                shard_span = shard_span.annotate("relocated", "true");
                            }
                            spans.push(shard_span);
                            Ok(())
                        }
                        Err(err) => {
                            spans.push(shard_span.with_error(&err));
                            Err(err)
                        }
                    };
                }
                Err(RuntimeError::Transport(m)) => {
                    self.inner.mark_health(e, false);
                    spans.push(shard_span.with_error(&m));
                    last_transport = Some(RuntimeError::Transport(m));
                }
                Err(err) => {
                    spans.push(shard_span.with_error(&err));
                    return Err(err);
                }
            }
        }
        Err(last_transport.unwrap_or(RuntimeError::Disconnected))
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

    /// Scatter a batch across shards, gather per-pair results in pair
    /// order. See [`ClientApi::run_model_batch`] for the contract.
    fn batch_routed(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        budget: Option<Duration>,
    ) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        if let Some(d) = budget {
            if d.is_zero() {
                return Err(RuntimeError::DeadlineExceeded);
            }
        }
        let started = Instant::now();
        // Shard assignment: each pair executes on the first candidate of
        // its input key's home set. BTreeMap for deterministic shard
        // ordering.
        let mut shards: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (in_key, _)) in pairs.iter().enumerate() {
            let home = self.inner.home(in_key);
            let executor = *self.inner.candidates(&home).first().unwrap_or(&home[0]);
            if executor != home[0] {
                self.inner.failovers.inc();
            }
            shards.entry(executor).or_default().push(i);
        }
        let mut results: Vec<Option<Result<()>>> = vec![None; pairs.len()];
        // Pairs served through the shard fast path still need their
        // outputs homed; re-routed pairs handle that inside `run_routed`.
        let mut needs_homing: Vec<Option<usize>> = vec![None; pairs.len()];
        let run_shard = |executor: usize, idxs: Vec<usize>| {
            let sub: Vec<(&str, &str)> = idxs.iter().map(|&i| pairs[i]).collect();
            let endpoint = &self.inner.endpoints[executor];
            let remaining = budget.map(|d| d.saturating_sub(started.elapsed()));
            let outcome = if remaining.is_some_and(|d| d.is_zero()) {
                ShardOutcome::PerPair(vec![Err(RuntimeError::DeadlineExceeded); sub.len()])
            } else {
                match endpoint
                    .client
                    .run_model_batch_results(model, &sub, remaining)
                {
                    Ok(per_pair) => {
                        self.inner.mark_health(executor, true);
                        endpoint
                            .routed
                            .add(per_pair.iter().filter(|r| r.is_ok()).count() as u64);
                        ShardOutcome::Served { executor, per_pair }
                    }
                    Err(err) => {
                        // The shard failed as a whole (endpoint died
                        // mid-batch, or the reply was unusable): its
                        // pairs re-route individually on surviving
                        // replicas.
                        if matches!(err, RuntimeError::Transport(_)) {
                            self.inner.mark_health(executor, false);
                        }
                        ShardOutcome::Reroute
                    }
                }
            };
            (idxs, outcome)
        };
        // One shard runs on the calling thread, which would otherwise
        // only wait; the others each get a scoped thread.
        let mut shards = shards.into_iter();
        let local = shards.next_back();
        let shard_outcomes: Vec<(Vec<usize>, ShardOutcome)> = std::thread::scope(|scope| {
            let run_shard = &run_shard;
            let handles: Vec<_> = shards
                .map(|(executor, idxs)| scope.spawn(move || run_shard(executor, idxs)))
                .collect();
            let local = local.map(|(executor, idxs)| run_shard(executor, idxs));
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(_) => (Vec::new(), ShardOutcome::Reroute),
                })
                .chain(local)
                .collect()
        });
        for (idxs, outcome) in shard_outcomes {
            match outcome {
                ShardOutcome::Served { executor, per_pair } => {
                    for (&i, r) in idxs.iter().zip(per_pair) {
                        if r.is_ok() {
                            needs_homing[i] = Some(executor);
                        }
                        results[i] = Some(r);
                    }
                }
                ShardOutcome::PerPair(per_pair) => {
                    for (&i, r) in idxs.iter().zip(per_pair) {
                        results[i] = Some(r);
                    }
                }
                ShardOutcome::Reroute => {
                    // One failover hop per pair, then each pair walks the
                    // surviving replicas on its own.
                    for &i in &idxs {
                        self.inner.failovers.inc();
                        let (in_key, out_key) = pairs[i];
                        let remaining = budget.map(|d| d.saturating_sub(started.elapsed()));
                        results[i] = Some(self.run_routed(
                            model,
                            in_key,
                            out_key,
                            remaining,
                            Instant::now(),
                        ));
                    }
                }
            }
        }
        // Home the fast-path outputs (replication / relocation).
        for (i, homing) in needs_homing.iter().enumerate() {
            if let Some(executor) = homing {
                if let Err(err) = self.home_output(*executor, pairs[i].1) {
                    results[i] = Some(Err(err));
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(RuntimeError::Disconnected)))
            .find(std::result::Result::is_err)
            .unwrap_or(Ok(()))
    }
}

/// What happened to one scattered shard.
enum ShardOutcome {
    /// The shard's endpoint served the sub-batch; per-pair results in
    /// sub-batch order.
    Served {
        /// Endpoint that executed the sub-batch (outputs need homing).
        executor: usize,
        /// Per-pair results in sub-batch order.
        per_pair: Vec<Result<()>>,
    },
    /// Locally-determined per-pair results (e.g. the budget expired
    /// before the shard was sent).
    PerPair(Vec<Result<()>>),
    /// The shard's endpoint failed as a whole; pairs must re-route.
    Reroute,
}

impl ClientApi for ClusterClient {
    fn put_tensor(&self, key: &str, value: &[f64]) -> Result<()> {
        self.fanout_write(key, |c| c.put_tensor(key, value), |()| {})
    }

    fn put_sparse_tensor(&self, key: &str, value: hpcnet_tensor::Csr) -> Result<()> {
        self.fanout_write(key, |c| c.put_sparse_tensor_ref(key, &value), |()| {})
    }

    fn run_model(&self, model: &str, in_key: &str, out_key: &str) -> Result<()> {
        self.run_routed(model, in_key, out_key, None, Instant::now())
    }

    fn run_model_with_deadline(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        deadline: Duration,
    ) -> Result<()> {
        self.run_routed(model, in_key, out_key, Some(deadline), Instant::now())
    }

    fn run_model_batch(&self, model: &str, pairs: &[(&str, &str)]) -> Result<()> {
        self.batch_routed(model, pairs, None)
    }

    fn run_model_batch_with_deadline(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Duration,
    ) -> Result<()> {
        self.batch_routed(model, pairs, Some(deadline))
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

    fn trace_dump(&self) -> Result<Vec<Trace>> {
        ClusterClient::trace_dump(self)
    }
}
