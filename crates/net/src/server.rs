//! The TCP front end: a multi-threaded server exposing an
//! [`Orchestrator`] over the wire protocol.
//!
//! Thread model — one accept loop plus **one thread per connection**,
//! which reads, executes and writes:
//!
//! 1. block until a frame has arrived;
//! 2. take the further frames that are already complete in the
//!    connection's read buffer, up to [`NetServerBuilder::window`] frames
//!    in all — what a pipelining client sent together is served together;
//! 3. execute them in request order. A `RUN_MODEL` and the consecutive
//!    `RUN_MODEL`s behind it that do not depend on each other through a
//!    key go to the orchestrator as *one* call ([`Client::run_round`]):
//!    one round and one batched forward pass on an idle orchestrator,
//!    executed on this very thread;
//! 4. write every reply, in request order, with one `write`.
//!
//! There is no queue between reading and executing, so nothing to bound:
//! while the thread executes it does not read, the socket's receive
//! buffer fills, and TCP flow control backpressures a client that
//! pipelines faster than it is served — the network analog of the
//! orchestrator's bounded admission queue.
//!
//! Error handling mirrors [`crate::protocol::WireError::is_fatal`]:
//! recoverable frame
//! damage (checksum mismatch, bad version, malformed payload) is answered
//! with a typed error frame and the connection stays usable; fatal damage
//! (bad magic, oversize, mid-frame EOF) closes the connection.
//!
//! Graceful drain ([`NetServer::shutdown`]): stop accepting, half-close
//! the read side of every live connection (each thread answers what it
//! had already received, then sees EOF and exits), join all threads,
//! then hand the orchestrator to [`Orchestrator::shutdown`] for its own
//! drain. Nothing already received is dropped.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpcnet_runtime::{
    Client, ClientApi, Orchestrator, Result, RunRequest, RuntimeError, ServingStats,
};
use hpcnet_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{
    self, decode_request, frame_buffered, read_frame, ErrorFrame, FrameOutcome, Opcode, Request,
    Response,
};

/// Connections currently open.
const CONNECTIONS_GAUGE: &str = "hpcnet_net_connections";
/// Connections accepted since start.
const CONNECTIONS_TOTAL: &str = "hpcnet_net_connections_total";
/// Requests executed, labeled by `op`.
const NET_REQUESTS_TOTAL: &str = "hpcnet_net_requests_total";
/// Wire bytes read off client sockets.
const BYTES_READ_TOTAL: &str = "hpcnet_net_bytes_read_total";
/// Wire bytes written to client sockets.
const BYTES_WRITTEN_TOTAL: &str = "hpcnet_net_bytes_written_total";
/// Recoverable protocol violations answered with an error frame.
const PROTOCOL_ERRORS_TOTAL: &str = "hpcnet_net_protocol_errors_total";
/// End-to-end server-side request latency (frame taken off the stream,
/// before decode, to reply written), labeled by `op`.
const REQUEST_SECONDS: &str = "hpcnet_net_request_seconds";

/// `# HELP` text for every `hpcnet_net_*` series, installed into the
/// orchestrator's registry when the server binds its instruments.
const NET_METRIC_HELP: &[(&str, &str)] = &[
    (CONNECTIONS_GAUGE, "Connections currently open."),
    (CONNECTIONS_TOTAL, "Connections accepted since start."),
    (NET_REQUESTS_TOTAL, "Requests executed, labeled by op."),
    (BYTES_READ_TOTAL, "Wire bytes read off client sockets."),
    (BYTES_WRITTEN_TOTAL, "Wire bytes written to client sockets."),
    (
        PROTOCOL_ERRORS_TOTAL,
        "Recoverable protocol violations answered with an error frame.",
    ),
    (
        REQUEST_SECONDS,
        "Server-side request latency from decode to reply written, labeled by op.",
    ),
];

/// Configures and starts a [`NetServer`].
///
/// ```no_run
/// use hpcnet_net::NetServer;
/// use hpcnet_runtime::Orchestrator;
///
/// let orchestrator = Orchestrator::builder().build();
/// let server = NetServer::builder(orchestrator)
///     .window(64)
///     .serve("127.0.0.1:0")
///     .unwrap();
/// println!("listening on {}", server.local_addr());
/// server.shutdown();
/// ```
pub struct NetServerBuilder {
    orchestrator: Orchestrator,
    window: usize,
}

impl NetServerBuilder {
    /// Per-connection window: the most frames a connection's thread takes
    /// off its read buffer and serves in one go — one round, one reply
    /// write. Frames beyond it wait in the socket, where TCP flow control
    /// holds the sender back. Clamped to at least 1; default 32.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Bind `addr` and start serving. Port 0 picks an ephemeral port —
    /// read it back from [`NetServer::local_addr`]. Bind and spawn
    /// failures come back as [`RuntimeError::Transport`].
    pub fn serve(self, addr: impl ToSocketAddrs) -> Result<NetServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| RuntimeError::Transport(format!("bind: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| RuntimeError::Transport(format!("local addr: {e}")))?;
        // Instrument handles are resolved once, against the orchestrator's
        // own registry, so METRICS exposes serving and network series side
        // by side.
        let metrics = NetMetrics::bind(self.orchestrator.telemetry_registry());
        let shared = Arc::new(ServerShared {
            orchestrator: self.orchestrator,
            metrics,
            window: self.window,
            stop: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            live: Mutex::new(HashMap::new()),
            joiners: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("hpcnet-net-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .map_err(|e| RuntimeError::Transport(format!("spawn accept thread: {e}")))?
        };
        Ok(NetServer {
            shared,
            accept,
            local_addr,
        })
    }
}

/// A running TCP server over an orchestrator. Dropping the handle without
/// calling [`NetServer::shutdown`] detaches the threads (the process
/// keeps serving); call `shutdown` for the drained stop.
pub struct NetServer {
    shared: Arc<ServerShared>,
    accept: JoinHandle<()>,
    local_addr: std::net::SocketAddr,
}

impl NetServer {
    /// Start configuring a server around `orchestrator`.
    pub fn builder(orchestrator: Orchestrator) -> NetServerBuilder {
        NetServerBuilder {
            orchestrator,
            window: 32,
        }
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The orchestrator being served, for registering models after start.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.shared.orchestrator
    }

    /// Gracefully drain and stop: refuse new connections, half-close
    /// every live connection's read side, answer everything already
    /// received, join all connection threads, then drain the orchestrator
    /// itself. Returns the orchestrator's final serving stats.
    pub fn shutdown(self) -> ServingStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept.join();
        // EOF every connection's read side: replies still flow on the
        // write half.
        for stream in self
            .shared
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let joiners = std::mem::take(
            &mut *self
                .shared
                .joiners
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for j in joiners {
            let _ = j.join();
        }
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.orchestrator.shutdown(),
            // Every server thread is joined, so this arm means a handle
            // leaked somewhere. Degrade to a stats snapshot (skipping the
            // orchestrator's own drain) instead of panicking mid-shutdown.
            Err(shared) => shared.orchestrator.serving_stats(),
        }
    }
}

struct ServerShared {
    orchestrator: Orchestrator,
    metrics: NetMetrics,
    window: usize,
    stop: AtomicBool,
    next_conn_id: AtomicU64,
    /// Live connection streams, for half-closing at shutdown.
    live: Mutex<HashMap<u64, TcpStream>>,
    /// Handles of connection threads that have not been joined yet: the
    /// accept loop reaps finished ones, `shutdown` joins the rest.
    joiners: Mutex<Vec<JoinHandle<()>>>,
}

/// Request opcodes are `0x01..=REQUEST_OPS`; slot `op - 1` of
/// [`NetMetrics::per_op`] holds that opcode's instruments.
const REQUEST_OPS: usize = Opcode::Traces as usize;

/// Cached handles for the `hpcnet_net_*` series. Per-op instruments are
/// resolved on first use (that keeps unused series out of the
/// exposition) and cached, so recording a request is two atomic updates
/// rather than two labelled registry lookups.
struct NetMetrics {
    registry: Arc<Registry>,
    connections: Arc<Gauge>,
    connections_total: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    per_op: [OnceLock<(Arc<Counter>, Arc<Histogram>)>; REQUEST_OPS],
}

impl NetMetrics {
    fn bind(registry: Arc<Registry>) -> Self {
        registry.set_helps(NET_METRIC_HELP);
        NetMetrics {
            connections: registry.gauge(CONNECTIONS_GAUGE),
            connections_total: registry.counter(CONNECTIONS_TOTAL),
            bytes_read: registry.counter(BYTES_READ_TOTAL),
            bytes_written: registry.counter(BYTES_WRITTEN_TOTAL),
            protocol_errors: registry.counter(PROTOCOL_ERRORS_TOTAL),
            per_op: Default::default(),
            registry,
        }
    }

    fn connection_opened(&self) {
        self.connections.inc();
        self.connections_total.inc();
    }

    fn connection_closed(&self) {
        self.connections.dec();
    }

    fn request(&self, op: Opcode, elapsed: Duration) {
        // Only request opcodes reach here (`decode_request` rejects the
        // rest); anything else is simply not recorded.
        let Some(slot) = (op as usize)
            .checked_sub(1)
            .and_then(|i| self.per_op.get(i))
        else {
            return;
        };
        let (count, seconds) = slot.get_or_init(|| {
            let labels = [("op", op.name())];
            (
                self.registry.counter_with(NET_REQUESTS_TOTAL, &labels),
                self.registry.time_histogram(REQUEST_SECONDS, &labels),
            )
        });
        count.inc();
        seconds.record_duration(elapsed);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    for incoming in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match incoming {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_nodelay(true);
        // relaxed: pure ID counter — uniqueness is all that matters, no
        // other memory is published through it.
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // A second handle to the socket for the half-close at drain. A
        // process that cannot duplicate the fd refuses the connection.
        let shutdown_handle = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(conn_id, shutdown_handle);
        shared.metrics.connection_opened();

        let connection = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("hpcnet-net-conn-{conn_id}"))
                .spawn(move || connection_loop(stream, conn_id, shared))
        };
        let Ok(connection) = connection else {
            // Out of threads: refuse the connection.
            drop_connection(&shared, conn_id);
            continue;
        };
        let mut joiners = shared
            .joiners
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        reap_finished(&mut joiners);
        joiners.push(connection);
    }
}

/// Join the connection threads that have already exited, so a long-lived
/// server retains handles in proportion to its *live* connections, not
/// to every connection it ever accepted. `join` on a finished thread
/// returns at once.
fn reap_finished(joiners: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < joiners.len() {
        if joiners[i].is_finished() {
            let _ = joiners.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Abandon a connection whose thread could not be started: close the
/// socket, drop it from the live map, and rebalance the connection gauge.
fn drop_connection(shared: &ServerShared, conn_id: u64) {
    let removed = shared
        .live
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&conn_id);
    if let Some(stream) = removed {
        let _ = stream.shutdown(Shutdown::Both);
    }
    shared.metrics.connection_closed();
}

/// One frame taken off the stream. It carries the frame's protocol
/// version so the reply can echo it — a v1 client of a v2 server sees
/// pure v1 traffic.
struct Taken {
    seq: u32,
    version: u8,
    /// When the frame was complete in hand, before it was decoded.
    received: Instant,
    /// The decoded request — or, for a frame that failed validation or
    /// decoding, the message of the typed protocol error that answers it.
    request: std::result::Result<Request, String>,
}

impl Taken {
    /// The frame as an entry of a [`Client::run_round`] call, if it is a
    /// well-formed `RUN_MODEL`.
    fn as_run(&self) -> Option<RunRequest<'_>> {
        match &self.request {
            Ok(Request::RunModel {
                model,
                in_key,
                out_key,
                deadline_micros,
                trace,
            }) => Some(RunRequest {
                model,
                in_key,
                out_key,
                deadline: deadline_of(*deadline_micros),
                trace: *trace,
            }),
            _ => None,
        }
    }
}

/// Read one frame (blocking if it is not buffered yet) and decode it.
/// `Err` is fatal for the connection: EOF, mid-frame truncation, bad
/// magic, oversize.
fn take_frame(
    reader: &mut impl Read,
    metrics: &NetMetrics,
) -> std::result::Result<Taken, protocol::WireError> {
    let outcome = read_frame(reader)?;
    let received = Instant::now();
    Ok(match outcome {
        FrameOutcome::Frame(raw) => {
            metrics
                .bytes_read
                .add(protocol::frame_len(raw.payload.len()) as u64);
            Taken {
                seq: raw.seq,
                version: raw.version,
                received,
                request: decode_request(&raw).map_err(|e| e.to_string()),
            }
        }
        // A corrupt frame has no trustworthy version byte; answer at the
        // current version.
        FrameOutcome::Corrupt { seq, reason } => Taken {
            seq,
            version: protocol::VERSION,
            received,
            request: Err(reason.to_string()),
        },
    })
}

/// The connection's thread: take what has arrived, serve it, reply,
/// repeat — until the peer hangs up, `shutdown` half-closes the read
/// side, or the stream is damaged beyond re-framing.
fn connection_loop(stream: TcpStream, conn_id: u64, shared: Arc<ServerShared>) {
    let client = shared.orchestrator.client();
    // Buffered: a window of pipelined frames that arrived in one segment
    // is framed from memory, and a small frame costs one `read`, not two.
    let mut reader = BufReader::new(&stream);
    let mut round: Vec<Taken> = Vec::new();
    let mut out = Vec::new();
    let mut served: Vec<(Opcode, Instant)> = Vec::new();
    while let Ok(first) = take_frame(&mut reader, &shared.metrics) {
        round.push(first);
        // Only frames that are already here in full: serving what has
        // arrived never waits for what has not.
        while round.len() < shared.window && frame_buffered(reader.buffer()) {
            match take_frame(&mut reader, &shared.metrics) {
                Ok(next) => round.push(next),
                Err(_) => break,
            }
        }
        serve(&client, &shared, &mut round, &mut out, &mut served);
        // One round's replies, in request order, leave in one write.
        if (&stream).write_all(&out).is_err() {
            break;
        }
        shared.metrics.bytes_written.add(out.len() as u64);
        out.clear();
        for (op, received) in served.drain(..) {
            shared.metrics.request(op, received.elapsed());
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared
        .live
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&conn_id);
    shared.metrics.connection_closed();
}

/// Execute the frames of `round` in request order, appending each reply
/// to `out` and noting what was served for the latency metrics.
///
/// Every `RUN_MODEL` goes to the orchestrator through one call,
/// [`Client::run_round`], and takes the `RUN_MODEL`s right behind it
/// along, up to the first that shares a key with an earlier one of the
/// run in a way that orders them (reads or overwrites an output,
/// overwrites an input): those execute in sequence, as does everything
/// that is not a `RUN_MODEL`. What a client could observe is unchanged
/// from one-at-a-time execution (DESIGN.md §12): every request keeps its
/// own deadline, trace context, guard outcome and typed reply, in
/// request order.
fn serve(
    client: &Client,
    shared: &ServerShared,
    round: &mut Vec<Taken>,
    out: &mut Vec<u8>,
    served: &mut Vec<(Opcode, Instant)>,
) {
    let orchestrator = &shared.orchestrator;
    let mut frames = round.drain(..).peekable();
    let mut run: Vec<Taken> = Vec::new();
    while let Some(frame) = frames.next() {
        let opcode = frame.request.as_ref().ok().map(Request::opcode);
        let result: Result<Response> = match frame.request {
            Ok(Request::RunModel { .. }) => {
                run.push(frame);
                while let Some(next) = frames.next_if(|next| joins_run(&run, next)) {
                    run.push(next);
                }
                let requests: Vec<RunRequest<'_>> = run.iter().filter_map(Taken::as_run).collect();
                let results = client.run_round(&requests);
                for (frame, result) in run.drain(..).zip(results) {
                    served.push((Opcode::RunModel, frame.received));
                    result
                        .map_or_else(|e| error_response(&e), |()| Response::Ok)
                        .encode_frame(out, frame.version, frame.seq);
                }
                continue;
            }
            Ok(Request::PutTensor { key, values }) => {
                client.put_tensor_owned(&key, values).map(|()| Response::Ok)
            }
            Ok(Request::PutSparse { key, tensor }) => client
                .put_sparse_tensor(&key, tensor)
                .map(|()| Response::Ok),
            Ok(Request::GetTensor { key }) => client.unpack_tensor(&key).map(Response::Tensor),
            Ok(Request::Del { key }) => client.del_tensor(&key).map(Response::Deleted),
            Ok(Request::Stats) => serde_json::to_string(&orchestrator.serving_stats())
                .map(Response::Text)
                .map_err(|e| RuntimeError::Inference(format!("serializing stats: {e}"))),
            Ok(Request::Metrics) => Ok(Response::Text(orchestrator.metrics_text())),
            Ok(Request::Ping { payload }) => Ok(Response::Pong(payload)),
            Ok(Request::Traces) => Ok(Response::Text(hpcnet_telemetry::trace::traces_to_json(
                &orchestrator.trace_dump(),
            ))),
            Err(message) => {
                shared.metrics.protocol_errors.inc();
                Err(RuntimeError::Protocol(message))
            }
        };
        served.extend(opcode.map(|op| (op, frame.received)));
        result
            .unwrap_or_else(|e| error_response(&e))
            .encode_frame(out, frame.version, frame.seq);
    }
}

/// May `next` join `run`? Only when both are `RUN_MODEL`s and no request
/// of the run orders `next` behind it: `next` must not read or overwrite
/// an earlier output, nor overwrite an earlier input.
fn joins_run(run: &[Taken], next: &Taken) -> bool {
    let Some(next) = next.as_run() else {
        return false;
    };
    run.iter().all(|earlier| {
        earlier.as_run().is_some_and(|earlier| {
            earlier.out_key != next.in_key
                && earlier.out_key != next.out_key
                && earlier.in_key != next.out_key
        })
    })
}

/// The wire's deadline field: 0 means "the server's default".
fn deadline_of(deadline_micros: u64) -> Option<Duration> {
    (deadline_micros != 0).then(|| Duration::from_micros(deadline_micros))
}

fn error_response(e: &RuntimeError) -> Response {
    Response::Error(ErrorFrame::from_runtime(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use std::io::Read;

    fn request_response(stream: &mut TcpStream, req: &Request, seq: u32) -> Response {
        write_frame(stream, req.opcode(), seq, &req.encode()).unwrap();
        match read_frame(stream).unwrap() {
            FrameOutcome::Frame(raw) => {
                assert_eq!(raw.seq, seq);
                crate::protocol::decode_response(&raw).unwrap()
            }
            FrameOutcome::Corrupt { reason, .. } => panic!("corrupt reply: {reason}"),
        }
    }

    #[test]
    fn serves_puts_runs_and_stats_over_raw_tcp() {
        let orchestrator = Orchestrator::builder().workers(2).build();
        orchestrator.register_model(crate::DEMO_MODEL, crate::demo_bundle());
        let server = NetServer::builder(orchestrator)
            .serve("127.0.0.1:0")
            .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        let input = crate::demo_input(0);
        let r = request_response(
            &mut stream,
            &Request::PutTensor {
                key: "in".into(),
                values: input.clone(),
            },
            1,
        );
        assert_eq!(r, Response::Ok);
        let r = request_response(
            &mut stream,
            &Request::RunModel {
                model: crate::DEMO_MODEL.into(),
                in_key: "in".into(),
                out_key: "out".into(),
                deadline_micros: 0,
                trace: None,
            },
            2,
        );
        assert_eq!(r, Response::Ok);
        let Response::Tensor(out) =
            request_response(&mut stream, &Request::GetTensor { key: "out".into() }, 3)
        else {
            panic!("expected tensor");
        };
        assert_eq!(out.len(), 4);

        // Typed error for a missing key.
        let r = request_response(
            &mut stream,
            &Request::GetTensor {
                key: "absent".into(),
            },
            4,
        );
        let Response::Error(e) = r else {
            panic!("expected error frame");
        };
        assert_eq!(e.to_runtime(), RuntimeError::MissingTensor("absent".into()));

        // DEL reports existence.
        let r = request_response(&mut stream, &Request::Del { key: "out".into() }, 5);
        assert_eq!(r, Response::Deleted(true));
        let r = request_response(&mut stream, &Request::Del { key: "out".into() }, 6);
        assert_eq!(r, Response::Deleted(false));

        // STATS parses as JSON; METRICS carries net series.
        let Response::Text(stats) = request_response(&mut stream, &Request::Stats, 7) else {
            panic!("expected text");
        };
        assert!(stats.contains("\"requests\""));
        let Response::Text(metrics) = request_response(&mut stream, &Request::Metrics, 8) else {
            panic!("expected text");
        };
        assert!(metrics.contains(CONNECTIONS_TOTAL));
        assert!(metrics.contains(NET_REQUESTS_TOTAL));

        let stats = server.shutdown();
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn a_run_ends_at_the_first_frame_an_earlier_one_orders() {
        let taken = |request: Request| Taken {
            seq: 0,
            version: protocol::VERSION,
            received: Instant::now(),
            request: Ok(request),
        };
        let run = |in_key: &str, out_key: &str| {
            taken(Request::RunModel {
                model: crate::DEMO_MODEL.into(),
                in_key: in_key.into(),
                out_key: out_key.into(),
                deadline_micros: 0,
                trace: None,
            })
        };
        let earlier = [run("a", "x"), run("b", "y")];
        // Independent: shares nothing, or only an input.
        assert!(joins_run(&earlier, &run("c", "z")));
        assert!(joins_run(&earlier, &run("a", "z")));
        // Reads an earlier output, overwrites one, overwrites an input.
        assert!(!joins_run(&earlier, &run("y", "z")));
        assert!(!joins_run(&earlier, &run("c", "x")));
        assert!(!joins_run(&earlier, &run("c", "b")));
        // Anything that is not a well-formed RUN_MODEL starts no run and
        // joins none.
        let get = taken(Request::GetTensor { key: "x".into() });
        assert!(!joins_run(&earlier, &get));
        assert!(!joins_run(&[get], &run("c", "z")));
        let mut damaged = run("c", "z");
        damaged.request = Err("checksum mismatch".into());
        assert!(!joins_run(&earlier, &damaged));
    }

    #[test]
    fn finished_connection_threads_are_reaped_not_retained() {
        const CONNECTIONS: usize = 300;
        let orchestrator = Orchestrator::builder().workers(1).build();
        let server = NetServer::builder(orchestrator)
            .serve("127.0.0.1:0")
            .unwrap();
        let retained = || server.shared.joiners.lock().unwrap().len();
        let ping = Request::Ping {
            payload: b"x".to_vec(),
        };
        for seq in 0..CONNECTIONS {
            // A full round trip, so the connection was accepted and served
            // before it closes.
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let r = request_response(&mut stream, &ping, seq as u32);
            assert_eq!(r, Response::Pong(b"x".to_vec()));
        }
        // Wait for the last connections' threads to wind down, then let one
        // more accept run the reaper.
        let gauge = server
            .shared
            .orchestrator
            .telemetry_registry()
            .gauge(CONNECTIONS_GAUGE);
        for _ in 0..500 {
            if gauge.get() == 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(50));
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        request_response(&mut stream, &ping, 0);
        assert!(
            retained() <= 16,
            "{} handles retained after {CONNECTIONS} closed connections",
            retained()
        );
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn corrupted_frame_gets_error_reply_and_connection_survives() {
        let orchestrator = Orchestrator::builder().workers(1).build();
        let server = NetServer::builder(orchestrator)
            .serve("127.0.0.1:0")
            .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        // Hand-corrupt a PING frame's payload.
        let req = Request::Ping {
            payload: b"payload".to_vec(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, req.opcode(), 9, &req.encode()).unwrap();
        let n = wire.len();
        wire[n - 6] ^= 0x01;
        stream.write_all(&wire).unwrap();
        let FrameOutcome::Frame(raw) = read_frame(&mut stream).unwrap() else {
            panic!("reply frame should validate");
        };
        assert_eq!(raw.seq, 9);
        let Response::Error(e) = crate::protocol::decode_response(&raw).unwrap() else {
            panic!("expected protocol error");
        };
        assert!(matches!(e.to_runtime(), RuntimeError::Protocol(_)));

        // The same connection still answers a clean request.
        let r = request_response(
            &mut stream,
            &Request::Ping {
                payload: b"ok".to_vec(),
            },
            10,
        );
        assert_eq!(r, Response::Pong(b"ok".to_vec()));

        // Fatal garbage (bad magic) closes the connection.
        stream.write_all(b"XXnope-this-is-not-a-frame").unwrap();
        let mut buf = [0u8; 16];
        // Server closes; we eventually observe EOF (read returns Ok(0)).
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        server.shutdown();
    }
}
