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
//!   [`RemoteClientBuilder::pool`]) and reused by every call, whatever
//!   its size; concurrent calls from clones of one client dial extra
//!   connections on demand.
//! * **Retries** — one rule for every call (DESIGN.md §12): an attempt
//!   that fails on connect, write or read *before any reply of the call
//!   has been read* is repeated on a freshly dialled connection, up to
//!   [`RemoteClientBuilder::retries`] times with bounded exponential
//!   [`RemoteClientBuilder::backoff`]; when the budget is exhausted the
//!   call returns [`RuntimeError::Transport`]. Once a reply has been
//!   read nothing is re-sent: the pairs of a run that a later fault
//!   leaves unanswered are answered with that fault. Typed server errors
//!   (`Overloaded`, `DeadlineExceeded`, `MissingTensor`, ...) are *never*
//!   retried — they travel back exactly as their in-process counterparts.
//! * **At-least-once caveat** — a request whose reply is lost to a
//!   transport fault is re-sent. Every operation but a run is
//!   idempotent; a re-sent run re-executes the surrogate, which is
//!   deterministic, so the stored output is unchanged (only the server's
//!   request counters tick twice).

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

/// How long a read waits for a reply before the attempt counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Configures a [`RemoteClient`].
#[derive(Debug, Clone)]
pub struct RemoteClientBuilder {
    addr: String,
    pool: usize,
    connect_timeout: Duration,
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
            retries: 3,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }

    /// Connect with default settings.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteClient> {
        RemoteClient::builder(addr).connect()
    }

    /// [`ClientApi::run_pairs`] under a span the caller already holds:
    /// every frame carries `parent` verbatim, so the server's request
    /// spans — one per pair — join the caller's trace, and *no* local
    /// root span is recorded here. Fleet-level callers (`hpcnet-cluster`)
    /// use this so the shard hop appears exactly once in the tree — under
    /// the span id they minted, not a second root.
    ///
    /// The pairs are *pipelined* over one pooled connection, a window of
    /// `PIPELINE_WINDOW` (16) `RUN_MODEL` frames at a time: each window is
    /// encoded into one buffer and written with one `write`, then its
    /// replies (which the server produces in request order per
    /// connection) are read and matched back by sequence number. A window
    /// arrives at the server together, so the server submits it to the
    /// orchestrator as one coalesced round.
    ///
    /// `deadline` covers the whole call: each frame carries the budget
    /// remaining when it is encoded, and pairs whose budget is already
    /// exhausted are answered locally with
    /// [`RuntimeError::DeadlineExceeded`] without touching the wire.
    pub fn run_pairs_under(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
        parent: TraceContext,
    ) -> Vec<Result<()>> {
        let deadline_at = match deadline {
            // An already-expired budget fails deterministically, without
            // racing the server's clock over the wire.
            Some(d) if d.is_zero() => {
                return vec![Err(RuntimeError::DeadlineExceeded); pairs.len()]
            }
            // An unrepresentable (absurdly far) deadline means "no limit".
            Some(d) => Instant::now().checked_add(d),
            None => None,
        };
        let mut results = Vec::with_capacity(pairs.len());
        let outcome = self.with_connection(|stream| {
            self.run_windows(stream, model, pairs, deadline_at, parent, &mut results)
                .map_err(|fault| match fault {
                    // Part of the call is answered: nothing is re-sent.
                    Fault::Retry(m) if !results.is_empty() => {
                        Fault::Fatal(RuntimeError::Transport(m))
                    }
                    fault => fault,
                })
        });
        // What is still unanswered was cut off by the fault or, without
        // one, by the budget running out mid-call.
        let unanswered = outcome.err().unwrap_or(RuntimeError::DeadlineExceeded);
        results.resize(pairs.len(), Err(unanswered));
        results
    }

    /// One attempt at the windows of a run over `stream`. Per-pair
    /// results are pushed onto `results` as their replies are read, so on
    /// `Err` its length is the number of replies consumed before the
    /// fault; on `Ok` it is short only by the pairs the budget cut off.
    fn run_windows(
        &self,
        stream: &mut Conn,
        model: &str,
        pairs: &[(&str, &str)],
        deadline_at: Option<Instant>,
        parent: TraceContext,
        results: &mut Vec<Result<()>>,
    ) -> std::result::Result<(), Fault> {
        let mut frames = Vec::new();
        let mut seqs = Vec::with_capacity(pairs.len().min(PIPELINE_WINDOW));
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
                        // 0 on the wire means "server default", so a
                        // sub-microsecond remainder clamps to 1 µs.
                        (remaining.as_micros() as u64).max(1)
                    }
                };
                let seq = self.next_seq();
                encode_frame(&mut frames, VERSION, Opcode::RunModel, seq, |buf| {
                    payload::run_model(buf, model, in_key, out_key, deadline_micros, Some(parent))
                })
                .map_err(|e| Fault::Fatal(e.into()))?;
                seqs.push(seq);
            }
            stream
                .get_mut()
                .write_all(&frames)
                .map_err(|e| Fault::Retry(format!("write: {e}")))?;
            // The replies leave the server in one write and are framed
            // from the connection's buffer; exactly `seqs.len()` of them
            // are owed, so the buffer is empty again afterwards.
            for &seq in &seqs {
                results.push(match read_reply(stream, seq)? {
                    Response::Ok => Ok(()),
                    Response::Error(e) => Err(e.to_runtime()),
                    other => Err(unexpected(&other)),
                });
            }
            if seqs.len() < window.len() {
                break;
            }
        }
        Ok(())
    }

    /// One request/reply exchange. `body` appends the request's payload
    /// to the frame buffer: the frame is encoded once, in place, and the
    /// same bytes are re-sent on a retry.
    fn call(&self, opcode: Opcode, body: impl FnOnce(&mut Vec<u8>)) -> Result<Response> {
        let seq = self.next_seq();
        let mut frame = Vec::new();
        encode_frame(&mut frame, VERSION, opcode, seq, body)?;
        let response = self.with_connection(|stream| {
            stream
                .get_mut()
                .write_all(&frame)
                .map_err(|e| Fault::Retry(format!("write: {e}")))?;
            read_reply(stream, seq)
        })?;
        match response {
            Response::Error(e) => Err(e.to_runtime()),
            ok => Ok(ok),
        }
    }

    /// Run `exchange` on a connection under the client's one retry rule:
    /// the first attempt rides a pooled connection; an attempt that ends
    /// in [`Fault::Retry`] is repeated, after backoff, on a freshly
    /// dialled one — what failed may be one of several connections a
    /// server restart left stale in the pool. A connection that carried
    /// the exchange to the end goes back to the pool.
    fn with_connection<T>(
        &self,
        mut exchange: impl FnMut(&mut Conn) -> std::result::Result<T, Fault>,
    ) -> Result<T> {
        let cfg = &self.inner.config;
        let mut backoff = cfg.backoff;
        let mut last_err = String::new();
        for attempt in 0..=cfg.retries {
            let stream = if attempt == 0 {
                self.checkout()
            } else {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cfg.max_backoff);
                self.dial()
            };
            let mut stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match exchange(&mut stream) {
                Ok(done) => {
                    self.checkin(stream);
                    return Ok(done);
                }
                // The stream is dropped, not pooled.
                Err(Fault::Retry(e)) => last_err = e,
                Err(Fault::Fatal(e)) => return Err(e),
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

    /// A connection from the pool, or a fresh dial when it is empty.
    fn checkout(&self) -> std::result::Result<Conn, String> {
        let pooled = self
            .inner
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match pooled {
            Some(s) => Ok(s),
            None => self.dial(),
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
                    let _ = s.set_read_timeout(Some(READ_TIMEOUT));
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
}

/// Client-side cap on pipelined `RUN_MODEL` frames in flight per
/// connection. Kept below the server's default per-connection window (32)
/// so a window is served as one round and its replies are always drained
/// promptly: neither side can wedge on a full TCP buffer.
const PIPELINE_WINDOW: usize = 16;

fn unexpected(r: &Response) -> RuntimeError {
    RuntimeError::Protocol(format!("unexpected {} reply", r.opcode().name()))
}

/// Why one attempt at a call, on one connection, did not complete it.
enum Fault {
    /// The connection failed before a reply was read off it: the call
    /// may be repeated on a fresh connection.
    Retry(String),
    /// The call is answered with this error; nothing is re-sent.
    Fatal(RuntimeError),
}

/// Read the reply to request `seq` off `stream`. An error *frame* is a
/// reply like any other; mapping it is the caller's.
fn read_reply(stream: &mut Conn, seq: u32) -> std::result::Result<Response, Fault> {
    let raw = match read_frame(stream) {
        Ok(FrameOutcome::Frame(raw)) => raw,
        // The reply was damaged in flight. The request may have executed,
        // and what follows on this stream cannot be trusted to frame:
        // surface that instead of re-running.
        Ok(FrameOutcome::Corrupt { reason, .. }) => {
            return Err(Fault::Fatal(RuntimeError::Protocol(format!(
                "corrupt reply: {reason}"
            ))));
        }
        Err(e) => return Err(Fault::Retry(format!("read: {e}"))),
    };
    if raw.seq != seq {
        // The stream is out of step (a stale reply from a previous,
        // timed-out exchange) — don't reuse it.
        return Err(Fault::Fatal(RuntimeError::Protocol(format!(
            "reply seq {} does not match request seq {seq}",
            raw.seq
        ))));
    }
    decode_response(&raw).map_err(|e| Fault::Fatal(RuntimeError::Protocol(e.to_string())))
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

    /// Originates the call's trace (DESIGN.md §16): one root span per
    /// call, whose child context every frame carries, recorded — with the
    /// endpoint, the model and the first error — in the local flight
    /// recorder. The server's spans share the trace id, so
    /// [`ClientApi::trace_dump`] can merge the two halves.
    fn run_pairs(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
    ) -> Vec<Result<()>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let ctx = TraceContext::root();
        let root_id = SpanId(trace::next_id());
        let timer = SpanTimer::start();
        let results = self.run_pairs_under(model, pairs, deadline, ctx.child_of(root_id));
        // Ask the recorder first: the span is only built for the one
        // trace in eight (and every failed or slow one) that is kept.
        let elapsed = timer.elapsed();
        let first_err = results.iter().find_map(|r| r.as_ref().err());
        let untagged: &[&str] = &[];
        if self
            .inner
            .recorder
            .admit(elapsed, first_err.is_some(), untagged)
        {
            let mut span = SpanRecord::new(
                Stage::Request,
                TRACE_SERVICE,
                timer.start_unix_nanos(),
                elapsed,
            )
            .annotate("model", model)
            .annotate("endpoint", &self.inner.config.addr)
            .annotate("pairs", pairs.len());
            // The root's id went over the wire before the span existed.
            span.span_id = root_id;
            if let Some(e) = first_err {
                span = span.with_error(e);
            }
            let mut t = Trace::new(ctx.trace_id);
            t.push(span);
            self.inner.recorder.retain(t);
        }
        results
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

    /// Round-trips a PING and verifies the echo.
    fn ping(&self) -> Result<()> {
        let nonce = self.next_seq().to_le_bytes();
        match self.call(Opcode::Ping, |buf| buf.extend_from_slice(&nonce))? {
            Response::Pong(echo) if echo == nonce => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn serving_stats(&self) -> Result<ServingStats> {
        match self.call(Opcode::Stats, |_| {})? {
            Response::Text(json) => serde_json::from_str(&json)
                .map_err(|e| RuntimeError::Protocol(format!("unparsable stats: {e}"))),
            other => Err(unexpected(&other)),
        }
    }

    fn metrics_text(&self) -> Result<String> {
        match self.call(Opcode::Metrics, |_| {})? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Merged across the wire: this client's root spans joined (by trace
    /// id) with the server's flight-recorder dump, fetched via the v2
    /// `Traces` op. A v1-only or unreachable server degrades to the local
    /// half instead of failing — the local recorder always has the
    /// originating spans.
    fn trace_dump(&self) -> Result<Vec<Trace>> {
        let local = self.inner.recorder.snapshot();
        let remote = match self.call(Opcode::Traces, |_| {}) {
            Ok(Response::Text(json)) => traces_from_json(&json)
                .map_err(|e| RuntimeError::Protocol(format!("unparsable traces: {e}")))?,
            Ok(other) => return Err(unexpected(&other)),
            Err(_) => Vec::new(),
        };
        Ok(merge_traces(local.into_iter().chain(remote)))
    }
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
