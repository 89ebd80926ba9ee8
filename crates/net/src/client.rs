//! [`RemoteClient`]: the Listing-1 client surface over TCP.
//!
//! A `RemoteClient` is a drop-in stand-in for the in-process
//! `hpcnet_runtime::Client` — both implement
//! [`hpcnet_runtime::ClientApi`], so deployment code written against the
//! trait runs unchanged whether the orchestrator is in the same process
//! or across the network.
//!
//! Transport behavior:
//!
//! * **Pooling** — idle connections are kept (up to
//!   [`RemoteClientBuilder::pool`]) and reused by single calls and
//!   pipelined batches alike; concurrent calls from clones of one client
//!   dial extra connections on demand.
//! * **Retries** — connect/read/write failures are retried with bounded
//!   exponential backoff ([`RemoteClientBuilder::retries`] /
//!   [`RemoteClientBuilder::backoff`]); when the budget is exhausted the
//!   call returns [`RuntimeError::Transport`]. Typed server errors
//!   (`Overloaded`, `DeadlineExceeded`, `MissingTensor`, ...) are *never*
//!   retried — they travel back exactly as their in-process counterparts.
//! * **At-least-once caveat** — a request whose reply is lost to a
//!   transport fault is re-sent on a fresh connection (a batch: its first
//!   window, once, when a pooled connection turns out to be stale before
//!   any reply was read). Every operation
//!   but `run_model` is idempotent; a retried `run_model` re-executes the
//!   surrogate, which is deterministic, so the stored output is
//!   unchanged (only the server's request counters tick twice).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hpcnet_runtime::{ClientApi, Result, RuntimeError, ServingStats};
use hpcnet_telemetry::trace::{self, merge_traces, traces_from_json};
use hpcnet_telemetry::{
    FlightRecorder, FlightRecorderConfig, SpanId, SpanRecord, SpanTimer, Stage, Trace, TraceContext,
};
use hpcnet_tensor::Csr;

use crate::protocol::{
    decode_response, encode_frame, payload, read_frame, FrameOutcome, Opcode, Response, VERSION,
};

/// Service label on spans this client records (DESIGN.md §16).
const TRACE_SERVICE: &str = "remote_client";

/// Configures a [`RemoteClient`].
#[derive(Debug, Clone)]
pub struct RemoteClientBuilder {
    addr: String,
    pool: usize,
    connect_timeout: Duration,
    read_timeout: Option<Duration>,
    retries: u32,
    backoff: Duration,
    max_backoff: Duration,
}

impl RemoteClientBuilder {
    /// Maximum idle connections kept for reuse (default 2). Concurrent
    /// calls beyond the pool dial extra connections that are dropped when
    /// the pool is full on return.
    pub fn pool(mut self, pool: usize) -> Self {
        self.pool = pool.max(1);
        self
    }

    /// TCP connect timeout (default 2 s).
    pub fn connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = t;
        self
    }

    /// Socket read timeout for replies (default 30 s; `None` blocks
    /// indefinitely).
    pub fn read_timeout(mut self, t: Option<Duration>) -> Self {
        self.read_timeout = t;
        self
    }

    /// Transport-failure retry budget per call (default 3 retries, i.e.
    /// up to 4 attempts).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Initial backoff before the first retry (default 50 ms); doubles
    /// per retry, capped by `max` (default 2 s).
    pub fn backoff(mut self, initial: Duration, max: Duration) -> Self {
        self.backoff = initial;
        self.max_backoff = max.max(initial);
        self
    }

    /// Dial the server and verify liveness with a PING. Fails with
    /// [`RuntimeError::Transport`] when the server is unreachable within
    /// the retry budget.
    pub fn connect(self) -> Result<RemoteClient> {
        let client = self.connect_lazy();
        client.ping()?;
        Ok(client)
    }

    /// Build the client without the liveness PING: nothing is dialed
    /// until the first call. For fleet-level callers (`hpcnet-cluster`)
    /// that must hold a handle to a currently-down endpoint and keep
    /// probing it until it comes back.
    pub fn connect_lazy(self) -> RemoteClient {
        RemoteClient {
            inner: Arc::new(ClientInner {
                config: self,
                pool: Mutex::new(Vec::new()),
                seq: AtomicU32::new(1),
                recorder: FlightRecorder::new(FlightRecorderConfig::default()),
            }),
        }
    }
}

/// A pooled, reconnecting TCP client for a [`crate::NetServer`].
///
/// Cheap to clone — clones share the connection pool.
#[derive(Clone)]
pub struct RemoteClient {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient")
            .field("addr", &self.inner.config.addr)
            .finish_non_exhaustive()
    }
}

/// A pooled connection. The read side is buffered and the buffer stays
/// with the stream, so a reply costs one `read` rather than one for the
/// header and one for the payload, and a window of pipelined replies
/// that arrived together is framed from memory. Between exchanges the
/// buffer is empty: exactly the replies owed have been read.
type Conn = BufReader<TcpStream>;

struct ClientInner {
    config: RemoteClientBuilder,
    pool: Mutex<Vec<Conn>>,
    seq: AtomicU32,
    /// Client-side halves of request traces (DESIGN.md §16): the root
    /// span of every `run_model` this client originates, retained under
    /// the same tail-sampling rules as the server's recorder.
    recorder: FlightRecorder,
}

impl RemoteClient {
    /// Start configuring a client for `addr` (e.g. `"127.0.0.1:4915"`).
    pub fn builder(addr: impl Into<String>) -> RemoteClientBuilder {
        RemoteClientBuilder {
            addr: addr.into(),
            pool: 2,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(30)),
            retries: 3,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }

    /// Connect with default settings.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteClient> {
        RemoteClient::builder(addr).connect()
    }

    /// Round-trip a PING and verify the echo.
    pub fn ping(&self) -> Result<()> {
        // relaxed: pure ID counter — uniqueness is all that matters, no
        // other memory is published through it.
        let nonce = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let nonce = nonce.to_le_bytes();
        match self.call(Opcode::Ping, |buf| buf.extend_from_slice(&nonce))? {
            Response::Pong(echo) if echo == nonce => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's cumulative serving statistics.
    pub fn serving_stats(&self) -> Result<ServingStats> {
        match self.call(Opcode::Stats, |_| {})? {
            Response::Text(json) => serde_json::from_str(&json)
                .map_err(|e| RuntimeError::Protocol(format!("unparsable stats: {e}"))),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's telemetry registry as Prometheus text (serving *and*
    /// `hpcnet_net_*` series).
    pub fn metrics_text(&self) -> Result<String> {
        match self.call(Opcode::Metrics, |_| {})? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a model carrying an upstream [`TraceContext`] verbatim: the
    /// server's request span joins the caller's trace and *no* local
    /// root span is recorded here. Fleet-level callers
    /// (`hpcnet-cluster`) use this so the shard hop appears exactly once
    /// in the tree — under the span id they minted, not a second root.
    pub fn run_model_with_context(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        deadline: Option<Duration>,
        trace: Option<TraceContext>,
    ) -> Result<()> {
        let deadline_micros = match deadline {
            None => 0,
            Some(d) if d.is_zero() => return Err(RuntimeError::DeadlineExceeded),
            // 0 on the wire means "server default", so a sub-microsecond
            // explicit deadline clamps to 1 µs.
            Some(d) => (d.as_micros() as u64).max(1),
        };
        self.expect_ok(Opcode::RunModel, |buf| {
            payload::run_model(buf, model, in_key, out_key, deadline_micros, trace)
        })
    }

    /// Originate a traced `run_model`: mint a root context, send its
    /// child context over the wire, and record the client-side root span
    /// (endpoint, model, any error) in the local flight recorder. The
    /// server's spans share the same trace id, so
    /// [`RemoteClient::trace_dump`] can merge the two halves.
    fn traced_run(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        deadline_micros: u64,
    ) -> Result<()> {
        let ctx = TraceContext::root();
        let root_id = SpanId(trace::next_id());
        let timer = SpanTimer::start();
        let trace = Some(ctx.child_of(root_id));
        let result = self.expect_ok(Opcode::RunModel, |buf| {
            payload::run_model(buf, model, in_key, out_key, deadline_micros, trace)
        });
        // Ask the recorder first: the span is only built for the one
        // trace in eight (and every failed or slow one) that is kept.
        let elapsed = timer.elapsed();
        let untagged: &[&str] = &[];
        if self
            .inner
            .recorder
            .admit(elapsed, result.is_err(), untagged)
        {
            let mut span = SpanRecord::new(
                Stage::Request,
                TRACE_SERVICE,
                timer.start_unix_nanos(),
                elapsed,
            )
            .annotate("model", model)
            .annotate("endpoint", &self.inner.config.addr);
            // The root's id went over the wire before the span existed.
            span.span_id = root_id;
            if let Err(e) = &result {
                span = span.with_error(e);
            }
            let mut t = Trace::new(ctx.trace_id);
            t.push(span);
            self.inner.recorder.retain(t);
        }
        result
    }

    /// Recent traces, merged across the wire: this client's root spans
    /// joined (by trace id) with the server's flight-recorder dump,
    /// fetched via the v2 `Traces` op. A v1-only or unreachable server
    /// degrades to the local half instead of failing — the local
    /// recorder always has the originating spans.
    pub fn trace_dump(&self) -> Result<Vec<Trace>> {
        let local = self.inner.recorder.snapshot();
        let remote = match self.call(Opcode::Traces, |_| {}) {
            Ok(Response::Text(json)) => traces_from_json(&json)
                .map_err(|e| RuntimeError::Protocol(format!("unparsable traces: {e}")))?,
            Ok(other) => return Err(unexpected(&other)),
            Err(_) => Vec::new(),
        };
        Ok(merge_traces(local.into_iter().chain(remote)))
    }

    /// One request/reply exchange with pooling and transport retries.
    /// `body` appends the request's payload to the frame buffer: the
    /// frame is encoded once, in place, and the same bytes are re-sent on
    /// a retry.
    fn call(&self, opcode: Opcode, body: impl FnOnce(&mut Vec<u8>)) -> Result<Response> {
        let cfg = &self.inner.config;
        let seq = self.next_seq();
        let mut frame = Vec::new();
        encode_frame(&mut frame, VERSION, opcode, seq, body)?;
        let mut backoff = cfg.backoff;
        let mut last_err = String::new();
        for attempt in 0..=cfg.retries {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cfg.max_backoff);
            }
            let mut stream = match self.checkout() {
                Ok((s, _)) => s,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            if let Err(e) = stream.get_mut().write_all(&frame) {
                last_err = format!("write: {e}");
                continue; // stream dropped; retry on a fresh connection
            }
            match read_frame(&mut stream) {
                Ok(FrameOutcome::Frame(raw)) => {
                    if raw.seq != seq {
                        // The stream is out of step (a stale reply from a
                        // previous, timed-out exchange) — don't reuse it.
                        return Err(RuntimeError::Protocol(format!(
                            "reply seq {} does not match request seq {seq}",
                            raw.seq
                        )));
                    }
                    let response =
                        decode_response(&raw).map_err(|e| RuntimeError::Protocol(e.to_string()))?;
                    self.checkin(stream);
                    return match response {
                        Response::Error(e) => Err(e.to_runtime()),
                        ok => Ok(ok),
                    };
                }
                Ok(FrameOutcome::Corrupt { reason, .. }) => {
                    // The reply was damaged in flight. The request may
                    // have executed; surface that instead of re-running.
                    return Err(RuntimeError::Protocol(format!("corrupt reply: {reason}")));
                }
                Err(e) => {
                    last_err = format!("read: {e}");
                    continue;
                }
            }
        }
        Err(RuntimeError::Transport(format!(
            "{} unreachable after {} attempt(s): {last_err}",
            cfg.addr,
            cfg.retries + 1
        )))
    }

    fn next_seq(&self) -> u32 {
        // relaxed: pure ID counter — uniqueness is all that matters, no
        // other memory is published through it.
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// A connection from the pool (`true`), or a fresh dial (`false`).
    fn checkout(&self) -> std::result::Result<(Conn, bool), String> {
        let pooled = self
            .inner
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match pooled {
            Some(s) => Ok((s, true)),
            None => Ok((self.dial()?, false)),
        }
    }

    /// Dial a fresh connection (never consults the pool).
    fn dial(&self) -> std::result::Result<Conn, String> {
        let cfg = &self.inner.config;
        let addrs: Vec<SocketAddr> = cfg
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {}: {e}", cfg.addr))?
            .collect();
        let mut last = format!("{} resolved to no addresses", cfg.addr);
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, cfg.connect_timeout) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(cfg.read_timeout);
                    return Ok(BufReader::new(s));
                }
                Err(e) => last = format!("connect {addr}: {e}"),
            }
        }
        Err(last)
    }

    /// Return a healthy connection to the pool (dropped when full).
    fn checkin(&self, stream: Conn) {
        let mut pool = self
            .inner
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if pool.len() < self.inner.config.pool {
            pool.push(stream);
        }
    }

    fn expect_ok(&self, opcode: Opcode, body: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        match self.call(opcode, body)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Store a sparse tensor without taking ownership of it: the CSR
    /// arrays are encoded straight into the frame. What
    /// [`ClientApi::put_sparse_tensor`] does, for callers (the cluster's
    /// replica fan-out) that send one tensor to several endpoints.
    pub fn put_sparse_tensor_ref(&self, key: &str, value: &Csr) -> Result<()> {
        self.expect_ok(Opcode::PutSparse, |buf| {
            payload::put_sparse(buf, key, value)
        })
    }

    /// Run a batch of `(in_key, out_key)` pairs *pipelined* over one
    /// pooled connection, a window of [`PIPELINE_WINDOW`] `RUN_MODEL`
    /// frames at a time: each window is encoded into one buffer and
    /// written with one `write`, then its replies (which the server
    /// produces in request order per connection) are read and matched
    /// back by sequence number. A window arrives at the server together,
    /// so the server submits it to the orchestrator as one coalesced
    /// round. Returns one result per pair, in pair order.
    ///
    /// The outer `Err` is a transport/protocol fault that interrupted the
    /// exchange — some pairs may have executed server-side (the usual
    /// at-least-once caveat; re-running a deterministic surrogate stores
    /// the same outputs). Inner errors are the per-pair typed failures.
    ///
    /// A pooled connection may have gone stale since its last use (the
    /// server restarted, an idle timeout fired). When it fails with a
    /// transport error before any reply of this batch was read, the
    /// batch is re-sent once on a fresh connection; a fault after the
    /// first reply, or on a fresh connection, is surfaced.
    ///
    /// `deadline` covers the whole batch: each frame carries the budget
    /// remaining when it is encoded, and pairs whose budget is already
    /// exhausted are answered locally with
    /// [`RuntimeError::DeadlineExceeded`] without touching the wire.
    pub fn run_model_batch_results(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
    ) -> Result<Vec<Result<()>>> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let deadline_at = match deadline {
            Some(d) if d.is_zero() => return Err(RuntimeError::DeadlineExceeded),
            Some(d) => Instant::now().checked_add(d),
            None => None,
        };
        let (mut stream, pooled) = self.checkout().map_err(RuntimeError::Transport)?;
        let mut results = Vec::with_capacity(pairs.len());
        let mut outcome = self.batch_exchange(&mut stream, model, pairs, deadline_at, &mut results);
        if pooled && results.is_empty() && matches!(outcome, Err(RuntimeError::Transport(_))) {
            stream = self.dial().map_err(RuntimeError::Transport)?;
            outcome = self.batch_exchange(&mut stream, model, pairs, deadline_at, &mut results);
        }
        outcome?;
        self.checkin(stream);
        Ok(results)
    }

    /// One attempt at a pipelined batch over `stream`. Per-pair results
    /// are pushed onto `results` as their replies are read, so on `Err`
    /// its length is the number of replies consumed before the fault.
    fn batch_exchange(
        &self,
        stream: &mut Conn,
        model: &str,
        pairs: &[(&str, &str)],
        deadline_at: Option<Instant>,
        results: &mut Vec<Result<()>>,
    ) -> Result<()> {
        let mut frames = Vec::new();
        let mut seqs = Vec::with_capacity(PIPELINE_WINDOW);
        for window in pairs.chunks(PIPELINE_WINDOW) {
            frames.clear();
            seqs.clear();
            for (in_key, out_key) in window {
                let deadline_micros = match deadline_at {
                    None => 0,
                    Some(at) => {
                        let remaining = at.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            break;
                        }
                        (remaining.as_micros() as u64).max(1)
                    }
                };
                let seq = self.next_seq();
                encode_frame(&mut frames, VERSION, Opcode::RunModel, seq, |buf| {
                    payload::run_model(buf, model, in_key, out_key, deadline_micros, None)
                })?;
                seqs.push(seq);
            }
            stream
                .get_mut()
                .write_all(&frames)
                .map_err(|e| RuntimeError::Transport(format!("batch write: {e}")))?;
            // The replies leave the server in one write and are framed
            // from the connection's buffer; exactly `seqs.len()` of them
            // are owed, so the buffer is empty again afterwards.
            for &seq in &seqs {
                let raw = match read_frame(stream) {
                    Ok(FrameOutcome::Frame(raw)) => raw,
                    // The remaining replies on this stream cannot be
                    // trusted to frame correctly; surface the fault.
                    Ok(FrameOutcome::Corrupt { reason, .. }) => {
                        return Err(RuntimeError::Protocol(format!(
                            "corrupt batch reply: {reason}"
                        )));
                    }
                    Err(e) => return Err(RuntimeError::Transport(format!("batch read: {e}"))),
                };
                if raw.seq != seq {
                    return Err(RuntimeError::Protocol(format!(
                        "batch reply seq {} does not match request seq {seq}",
                        raw.seq
                    )));
                }
                let response =
                    decode_response(&raw).map_err(|e| RuntimeError::Protocol(e.to_string()))?;
                results.push(match response {
                    Response::Ok => Ok(()),
                    Response::Error(e) => Err(e.to_runtime()),
                    other => Err(unexpected(&other)),
                });
            }
            if seqs.len() < window.len() {
                // Budget exhausted mid-window: every unsent pair gets the
                // typed answer locally.
                break;
            }
        }
        results.resize(pairs.len(), Err(RuntimeError::DeadlineExceeded));
        Ok(())
    }
}

/// Client-side cap on pipelined batch frames in flight per connection.
/// Kept below the server's default per-connection window (32) so the
/// executor's replies are always drained promptly and neither side can
/// wedge on a full TCP buffer.
pub const PIPELINE_WINDOW: usize = 16;

fn unexpected(r: &Response) -> RuntimeError {
    RuntimeError::Protocol(format!("unexpected {} reply", r.opcode().name()))
}

impl ClientApi for RemoteClient {
    fn put_tensor(&self, key: &str, value: &[f64]) -> Result<()> {
        self.expect_ok(Opcode::PutTensor, |buf| {
            payload::put_tensor(buf, key, value)
        })
    }

    fn put_sparse_tensor(&self, key: &str, value: Csr) -> Result<()> {
        self.put_sparse_tensor_ref(key, &value)
    }

    fn run_model(&self, model: &str, in_key: &str, out_key: &str) -> Result<()> {
        self.traced_run(model, in_key, out_key, 0)
    }

    fn run_model_with_deadline(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        deadline: Duration,
    ) -> Result<()> {
        if deadline.is_zero() {
            // Mirror the in-process client's enqueue-time check: an
            // already-expired budget fails deterministically without
            // racing the server's clock over the wire.
            return Err(RuntimeError::DeadlineExceeded);
        }
        // 0 on the wire means "server default", so a sub-microsecond
        // explicit deadline clamps to 1 µs.
        self.traced_run(model, in_key, out_key, (deadline.as_micros() as u64).max(1))
    }

    fn run_model_batch(&self, model: &str, pairs: &[(&str, &str)]) -> Result<()> {
        first_error(self.run_model_batch_results(model, pairs, None)?)
    }

    fn run_model_batch_with_deadline(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Duration,
    ) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        first_error(self.run_model_batch_results(model, pairs, Some(deadline))?)
    }

    fn unpack_tensor(&self, key: &str) -> Result<Vec<f64>> {
        match self.call(Opcode::GetTensor, |buf| payload::key(buf, key))? {
            Response::Tensor(values) => Ok(values),
            other => Err(unexpected(&other)),
        }
    }

    fn del_tensor(&self, key: &str) -> Result<bool> {
        match self.call(Opcode::Del, |buf| payload::key(buf, key))? {
            Response::Deleted(existed) => Ok(existed),
            other => Err(unexpected(&other)),
        }
    }

    fn ping(&self) -> Result<()> {
        RemoteClient::ping(self)
    }

    fn serving_stats(&self) -> Result<ServingStats> {
        RemoteClient::serving_stats(self)
    }

    fn metrics_text(&self) -> Result<String> {
        RemoteClient::metrics_text(self)
    }

    fn trace_dump(&self) -> Result<Vec<Trace>> {
        RemoteClient::trace_dump(self)
    }
}

/// Reduce per-pair batch results to the whole-batch contract: the first
/// error in pair order, or `Ok(())`.
fn first_error(results: Vec<Result<()>>) -> Result<()> {
    results
        .into_iter()
        .find_map(std::result::Result::err)
        .map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_server_yields_typed_transport_error() {
        // A port from the dynamic range with nothing listening; one
        // retry to keep the test fast.
        let err = RemoteClient::builder("127.0.0.1:1")
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(2))
            .connect_timeout(Duration::from_millis(200))
            .connect()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Transport(_)), "got {err:?}");
    }
}
