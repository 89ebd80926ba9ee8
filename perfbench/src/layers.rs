//! The traced pass (`--trace 1`): per-layer metrics, one layer per crate.
//!
//! Everything is measured from outside the program: by timing calls into
//! public functions on the workload's own tensors, by reading the
//! orchestrators' existing `metrics_snapshot()`, and by the harness's
//! own spans `step → put | run | unpack`, which are kept in memory and
//! written to `perfbench/out/<workload>.trace.json` when the pass ends.
//!
//! Every time is at nominal machine speed, like the end-to-end metrics
//! (see `stats::Calibration`): a microbenchmark is scaled by calibration
//! runs around it, a value taken from a serving phase by the median
//! calibration of that phase's blocks.
//!
//! A pure function of the workload's tensors (a kernel, a codec) is
//! measured on every workload. A metric that needs a socket, a shard, a
//! guard or a sparse input reads 0 on a workload that has none: the
//! layer is not on that workload's path.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hpcnet_cluster::ring::{HashRing, DEFAULT_VNODES};
use hpcnet_net::protocol::{
    crc32, decode_request, frame_len, read_frame, write_frame, FrameOutcome, Request, Response,
};
use hpcnet_runtime::metrics::{
    BATCHES_TOTAL, F32_FALLBACKS_TOTAL, QUALITY_FALLBACKS_TOTAL, QUEUE_WAIT_SECONDS,
    REQUESTS_TOTAL, STAGE_SECONDS,
};
use hpcnet_runtime::TensorStore;
use hpcnet_tensor::{Matrix, MatrixF32};
use serde_json::json;

use crate::report::{
    block_quantile, check_thread_budget, check_threads_returned, repeated_setup, Options, Outcome,
};
use crate::serve::{Block, Keys, Limit, Phase, Server, Span};
use crate::setup::{deploy, Deployment, Prepared};
use crate::spec::{Spec, Transport, MODEL, WARMUP_PASSES};
use crate::stats::{median, percentile_ns, thread_count, Calibration};

/// Every per-layer metric, with its unit, in the order it is printed.
/// `BENCHMARK.json` lists the same names; a test holds the two together.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_f64_rows_per_s", "1/s"),
    ("tensor.gemm_f32_rows_per_s", "1/s"),
    ("tensor.csr_vecmat_us", "us"),
    ("nn.infer_batch_us_per_sample", "us"),
    ("nn.infer_single_us", "us"),
    ("nn.infer_f32_single_us", "us"),
    ("nn.encode_dense_us", "us"),
    ("nn.encode_sparse_us", "us"),
    ("nn.flops_per_sample", "count"),
    ("apps.region_exact_us", "us"),
    ("apps.qoi_us", "us"),
    ("apps.region_flops", "count"),
    ("runtime.store_put_us", "us"),
    ("runtime.store_get_us", "us"),
    ("runtime.client_put_us", "us"),
    ("runtime.client_run_us", "us"),
    ("runtime.client_unpack_us", "us"),
    ("runtime.client_step_p50_us", "us"),
    ("runtime.client_step_p99_us", "us"),
    ("runtime.queue_wait_p50_us", "us"),
    ("runtime.stage_fetch_us", "us"),
    ("runtime.stage_encode_us", "us"),
    ("runtime.stage_infer_us", "us"),
    ("runtime.stage_guard_us", "us"),
    ("runtime.stage_fallback_us", "us"),
    ("runtime.handoff_us", "us"),
    ("runtime.mean_batch_size", "count"),
    ("runtime.f32_demotions", "count"),
    ("runtime.quality_fallbacks", "count"),
    ("net.encode_frame_ns", "ns"),
    ("net.decode_frame_ns", "ns"),
    ("net.crc32_gb_per_s", "GB/s"),
    ("net.bytes_per_step", "count"),
    ("net.ping_rtt_us", "us"),
    ("net.connect_us", "us"),
    ("net.transport_us", "us"),
    ("cluster.ring_lookup_ns", "ns"),
    ("cluster.routing_us", "us"),
    ("cluster.shard_imbalance", "ratio"),
    ("cluster.relocations", "count"),
    ("cluster.failovers", "count"),
    ("telemetry.overhead_share", "share"),
    ("telemetry.trace_overhead_share", "share"),
    ("telemetry.hist_record_ns", "ns"),
    ("core.labeling_s", "s"),
    ("core.autoencoder_s", "s"),
    ("core.search_s", "s"),
    ("core.nas_candidates", "count"),
];

/// Shares of `--seconds` the serving phases of the traced pass get.
/// Passes with and without spans alternate, and so do passes with and
/// without telemetry, so that machine drift is the same on both sides
/// of each comparison.
const SPANS_SHARE: f64 = 0.40;
const TELEMETRY_SHARE: f64 = 0.30;
const REFERENCE_SHARE: f64 = 0.10;

fn scaled(limit: Limit, share: f64) -> Limit {
    match limit {
        Limit::Seconds(s) => Limit::Seconds(s * share),
        passes => passes,
    }
}

/// Serve passes alternately on the two sides of a comparison until
/// `limit`, which counts pairs of passes. `pass(first, phase)` serves one
/// pass of the first (`true`) or the second side into that side's phase.
fn alternate(limit: Limit, mut pass: impl FnMut(bool, &mut Phase)) -> (Phase, Phase) {
    let (mut first, mut second) = (Phase::default(), Phase::default());
    let started = Instant::now();
    loop {
        pass(true, &mut first);
        pass(false, &mut second);
        let done = match limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Limit::Passes(n) => first.blocks.len() >= n,
        };
        if done {
            return (first, second);
        }
    }
}

/// Mean nanoseconds per call of `f` at nominal machine speed; `f` runs
/// in rounds until `budget` has passed.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut calibration = Calibration::new();
    f();
    let before = calibration.run();
    let (mut calls, mut round) = (0u64, 1u64);
    let start = Instant::now();
    let raw = loop {
        for _ in 0..round {
            f();
        }
        calls += round;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            break elapsed.as_nanos() as f64 / calls as f64;
        }
        round = (round * 2).min(1 << 16);
    };
    raw * Calibration::factor((before + calibration.run()) / 2.0)
}

/// Factor from the clock's time to nominal-speed time for values taken
/// during `phases`.
fn speed(phases: &[&Phase]) -> f64 {
    let calibrations: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.blocks.iter().map(|b| b.calibration_ns))
        .collect();
    Calibration::factor(median(&calibrations))
}

/// What the orchestrators of a deployment have counted so far.
#[derive(Default, Clone)]
struct ServerView {
    requests: f64,
    batches: f64,
    fallbacks: f64,
    demotions: f64,
    stage_ns: HashMap<String, f64>,
    queue_wait_p50_ns: f64,
}

impl ServerView {
    fn take(deployment: &Deployment) -> Self {
        let mut view = ServerView::default();
        let orchestrators = deployment.orchestrators();
        for o in &orchestrators {
            let snap = o.metrics_snapshot();
            view.requests += snap.counter_total(REQUESTS_TOTAL) as f64;
            view.batches += snap.counter_total(BATCHES_TOTAL) as f64;
            view.fallbacks += snap.counter_total(QUALITY_FALLBACKS_TOTAL) as f64;
            view.demotions += snap.counter_total(F32_FALLBACKS_TOTAL) as f64;
            for h in snap.histograms.iter().filter(|h| h.name == STAGE_SECONDS) {
                if let Some((_, stage)) = h.labels.iter().find(|(k, _)| k == "stage") {
                    *view.stage_ns.entry(stage.clone()).or_default() += h.histogram.sum as f64;
                }
            }
            if let Some(h) = snap.find_histogram(QUEUE_WAIT_SECONDS, &[("model", MODEL)]) {
                view.queue_wait_p50_ns += h.p50 as f64 / orchestrators.len() as f64;
            }
        }
        view
    }

    fn since(&self, earlier: &ServerView) -> ServerView {
        ServerView {
            requests: self.requests - earlier.requests,
            batches: self.batches - earlier.batches,
            fallbacks: self.fallbacks - earlier.fallbacks,
            demotions: self.demotions - earlier.demotions,
            stage_ns: self
                .stage_ns
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v - earlier.stage_ns.get(k).copied().unwrap_or(0.0),
                    )
                })
                .collect(),
            queue_wait_p50_ns: self.queue_wait_p50_ns,
        }
    }

    /// Mean microseconds per served sample in the named stages.
    fn stage_us(&self, stages: &[&str]) -> f64 {
        let ns: f64 = stages.iter().filter_map(|s| self.stage_ns.get(*s)).sum();
        ns / self.requests.max(1.0) / 1e3
    }

    fn all_stages_ns(&self) -> f64 {
        self.stage_ns.values().sum()
    }
}

fn median_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&v| v as f64).collect::<Vec<_>>()) / 1e3
}

fn mean_ns(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64
}

/// Serve on a fresh deployment over `transport`: warm up, then measure.
fn serve_on(
    spec: &Spec,
    prepared: &Prepared,
    transport: Transport,
    limit: Limit,
    outcome: &mut Outcome,
) -> Result<(Phase, ServerView), String> {
    let deployment = deploy(spec, prepared, transport, true)?;
    let mut server = Server::new(spec, prepared, &deployment);
    outcome.absorb(&server.serve(Limit::Passes(1), false));
    let before = ServerView::take(&deployment);
    let phase = server.serve(limit, false);
    let view = ServerView::take(&deployment).since(&before);
    outcome.absorb(&phase);
    drop(server);
    deployment.shutdown();
    Ok((phase, view))
}

/// The request and response frames one step puts on the wire when it is
/// served remotely (a remote batch is one `RunModel` frame per pair).
fn step_frames(prepared: &Prepared, keys: &Keys) -> (Vec<Request>, Vec<Response>) {
    // One step serves the pass's first S problems under the S keys.
    let problems = &prepared.eval.problems[..keys.ins.len()];
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (key, problem) in keys.ins.iter().zip(problems) {
        let key = key.clone();
        requests.push(match &problem.sparse {
            Some(row) => Request::PutSparse {
                key,
                tensor: row.clone(),
            },
            None => Request::PutTensor {
                key,
                values: problem.input.clone(),
            },
        });
        responses.push(Response::Ok);
    }
    for (in_key, out_key) in keys.ins.iter().zip(&keys.outs) {
        requests.push(Request::RunModel {
            model: MODEL.to_string(),
            in_key: in_key.clone(),
            out_key: out_key.clone(),
            deadline_micros: 0,
            trace: None,
        });
        responses.push(Response::Ok);
    }
    for (key, problem) in keys.outs.iter().zip(problems) {
        requests.push(Request::GetTensor { key: key.clone() });
        responses.push(Response::Tensor(problem.direct.clone()));
    }
    (requests, responses)
}

/// Totals of a `name{labels} value` family in Prometheus text.
fn prometheus_values(text: &str, family: &str) -> Vec<f64> {
    text.lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect()
}

fn write_spans(
    dir: &std::path::Path,
    spec: &Spec,
    seed: u64,
    steps_total: usize,
    spans: &[Span],
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.json", spec.name));
    let spans: Vec<_> = spans
        .iter()
        .map(|s| {
            json!({
                "id": s.id, "parent": s.parent, "name": s.name, "step": s.step,
                "start_ns": s.start_ns, "end_ns": s.end_ns,
            })
        })
        .collect();
    let doc = json!({
        "workload": spec.name,
        "seed": seed,
        "steps_total": steps_total,
        "steps_recorded": spans.len() / 4,
        "spans": spans,
    });
    std::fs::write(&path, doc.to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// `--trace 1`.
pub fn traced(spec: &Spec, options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let threads_at_start = thread_count();
    // Microbenchmarks get a wall-clock budget each; a fixed-count run
    // (tests) keeps them short.
    let micro = match options.limit {
        Limit::Seconds(_) => Duration::from_millis(40),
        Limit::Passes(_) => Duration::from_millis(2),
    };

    let (prepared, deployment, _) = repeated_setup(spec, options.seed, 1)?;
    let problems = &prepared.eval.problems;
    let app = prepared.app.as_ref();
    let bundle = &prepared.surrogate.bundle;
    let mut server = Server::new(spec, &prepared, &deployment);
    outcome.absorb(&server.serve(Limit::Passes(WARMUP_PASSES), false));
    let threads_after_warmup = check_thread_budget(&deployment, &mut outcome);

    // Passes with spans and passes without, alternating on the main
    // deployment; then passes on it and on a twin with telemetry off.
    let before = ServerView::take(&deployment);
    let (mut traced, untraced) = alternate(scaled(options.limit, SPANS_SHARE), |spans, phase| {
        server.pass(phase, spans)
    });
    let twin = deploy(spec, &prepared, spec.transport, false)?;
    let mut twin_server = Server::new(spec, &prepared, &twin);
    outcome.absorb(&twin_server.serve(Limit::Passes(1), false));
    let (telemetry_on, telemetry_off) =
        alternate(scaled(options.limit, TELEMETRY_SHARE), |on, phase| {
            if on {
                server.pass(phase, false)
            } else {
                twin_server.pass(phase, false)
            }
        });
    let view = ServerView::take(&deployment).since(&before);
    for phase in [&traced, &untraced, &telemetry_on, &telemetry_off] {
        outcome.absorb(phase);
    }
    let passes = (traced.blocks.len() + untraced.blocks.len() + telemetry_on.blocks.len()) as f64;
    drop(twin_server);
    twin.shutdown();

    // Socket-level probes, while the main deployment is up.
    let client = deployment.client();
    let addrs = deployment.addrs();
    let ping_us = ns_per_call(micro, || {
        let _ = black_box(client.ping());
    }) / 1e3;
    let connect_us = match addrs.first() {
        Some(addr) => {
            let mut samples: Vec<u64> = (0..50)
                .map(|_| {
                    let t = Instant::now();
                    drop(black_box(TcpStream::connect(addr)));
                    t.elapsed().as_nanos() as u64
                })
                .collect();
            percentile_ns(&mut samples, 0.5) as f64 / 1e3 * speed(&[&untraced])
        }
        None => 0.0,
    };
    let cluster_text = match spec.transport {
        Transport::Cluster { .. } => client.metrics_text().unwrap_or_default(),
        _ => String::new(),
    };
    let keys = Keys::new(spec, spec.transport);
    drop(server);
    deployment.shutdown();

    // The same model and inputs over the transports below this one, to
    // split the step into what each transport adds.
    let reference_limit = scaled(options.limit, REFERENCE_SHARE);
    let in_process = match spec.transport {
        Transport::InProcess => None,
        _ => Some(serve_on(
            spec,
            &prepared,
            Transport::InProcess,
            reference_limit,
            &mut outcome,
        )?),
    };
    let one_server = match spec.transport {
        Transport::Cluster { .. } => Some(serve_on(
            spec,
            &prepared,
            Transport::Loopback,
            reference_limit,
            &mut outcome,
        )?),
        _ => None,
    };

    let threads_at_exit = check_threads_returned(threads_at_start, &mut outcome);

    let traced_steps = traced.step_ns.len();
    let spans_path = write_spans(
        &options.out_dir,
        spec,
        options.seed,
        traced_steps,
        &traced.spans,
    )?;
    outcome.notes.push(format!(
        "workload {} seed {} threads start {threads_at_start:?} after-warm-up {threads_after_warmup:?} exit {threads_at_exit:?}; {} spans of {traced_steps} traced steps in {spans_path}",
        spec.name,
        options.seed,
        traced.spans.len(),
    ));

    // ---------------------------------------------------------- tensor, nn
    let rows = 256;
    let raw_rows: Vec<Vec<f64>> = (0..rows)
        .map(|i| problems[i % spec.pass].input.clone())
        .collect();
    let mut features = match &bundle.autoencoder {
        Some(ae) => ae
            .encode_batch(&Matrix::from_rows(&raw_rows).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?,
        None => Matrix::from_rows(&raw_rows).map_err(|e| e.to_string())?,
    };
    if let Some(scaler) = &bundle.scaler {
        for r in 0..rows {
            scaler.transform_vec(features.row_mut(r));
        }
    }
    let surrogate = &bundle.surrogate;
    let mlp = surrogate.as_mlp().ok_or("the surrogate is not an MLP")?;
    let first_layer = mlp.layers()[0].weights();
    let gemm_f64 = ns_per_call(micro, || {
        black_box(black_box(&features).matmul(first_layer)).ok();
    });
    let (features32, first_layer32) = (
        MatrixF32::from_f64(&features),
        MatrixF32::from_f64(first_layer),
    );
    let gemm_f32 = ns_per_call(micro, || {
        black_box(black_box(&features32).matmul(&first_layer32)).ok();
    });
    let encoder_weights = bundle
        .autoencoder
        .as_ref()
        .map(|ae| ae.network().layers()[0].weights());
    let csr_vecmat = match (&problems[0].sparse, encoder_weights) {
        (Some(row), Some(w)) => ns_per_call(micro, || {
            black_box(black_box(row).spmm_dense(w)).ok();
        }),
        _ => 0.0,
    };
    let infer_batch = ns_per_call(micro, || {
        black_box(surrogate.predict_batch(black_box(&features))).ok();
    });
    let infer_single = ns_per_call(micro, || {
        black_box(surrogate.predict(black_box(features.row(0)))).ok();
    });
    let infer_f32 = match surrogate.to_f32() {
        Some(net) => ns_per_call(micro, || {
            black_box(net.predict(black_box(features32.row(0)))).ok();
        }),
        None => 0.0,
    };
    let encode_dense = match &bundle.autoencoder {
        Some(ae) => ns_per_call(micro, || {
            black_box(ae.encode(black_box(&problems[0].input))).ok();
        }),
        None => 0.0,
    };
    let encode_sparse = match (&bundle.autoencoder, &problems[0].sparse) {
        (Some(ae), Some(row)) => ns_per_call(micro, || {
            black_box(ae.encode_sparse(black_box(row))).ok();
        }),
        _ => 0.0,
    };

    // -------------------------------------------------------- runtime store
    let store = TensorStore::new();
    let store_put = ns_per_call(micro, || {
        for (key, problem) in keys.ins.iter().zip(problems) {
            // The copy is what `put_tensor(&[f64])` does on the way in.
            store.put_dense(key, black_box(&problem.input).clone());
        }
    }) / spec.batch as f64;
    let store_get = ns_per_call(micro, || {
        for key in &keys.ins {
            black_box(store.get(key)).ok();
        }
    }) / spec.batch as f64;

    // ------------------------------------------------------------ net codec
    let (requests, responses) = step_frames(&prepared, &keys);
    let encode_frame = ns_per_call(micro, || {
        for r in &requests {
            black_box(black_box(r).encode());
        }
    }) / requests.len() as f64;
    let mut wire = Vec::new();
    let mut bytes_per_step = 0;
    let mut largest = Vec::new();
    for (seq, (request, response)) in requests.iter().zip(&responses).enumerate() {
        let payload = request.encode();
        write_frame(&mut wire, request.opcode(), seq as u32, &payload)
            .map_err(|e| e.to_string())?;
        bytes_per_step += frame_len(payload.len()) + frame_len(response.encode().len());
        if payload.len() > largest.len() {
            largest = payload;
        }
    }
    let mut undecoded = 0;
    let decode_frame = ns_per_call(micro, || {
        let mut cursor = Cursor::new(wire.as_slice());
        for _ in 0..requests.len() {
            match read_frame(&mut cursor) {
                Ok(FrameOutcome::Frame(frame)) if decode_request(&frame).is_ok() => {}
                _ => undecoded += 1,
            }
        }
    }) / requests.len() as f64;
    if undecoded > 0 {
        outcome.fail(format!(
            "{undecoded} of the step's own frames did not decode"
        ));
    }
    let crc_buffer: Vec<u8> = largest.iter().copied().cycle().take(1 << 20).collect();
    let crc_ns = ns_per_call(micro, || {
        black_box(crc32(black_box(&crc_buffer)));
    });

    // -------------------------------------------------------------- cluster
    let (ring_lookup, imbalance, relocations, failovers, routing_us) = match spec.transport {
        Transport::Cluster { shards } => {
            let ring = HashRing::new(shards, DEFAULT_VNODES);
            let lookup = ns_per_call(micro, || {
                for key in &keys.ins {
                    black_box(ring.primary(black_box(key)));
                }
            }) / spec.batch as f64;
            let routed = prometheus_values(&cluster_text, hpcnet_cluster::ROUTED_TOTAL);
            let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
            let imbalance = routed.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
            let total = |family| prometheus_values(&cluster_text, family).iter().sum::<f64>();
            let one = one_server
                .as_ref()
                .map_or(0.0, |(p, _)| median_us(&p.step_ns) * speed(&[p]));
            (
                lookup,
                imbalance,
                total(hpcnet_cluster::RELOCATIONS_TOTAL),
                total(hpcnet_cluster::FAILOVERS_TOTAL),
                median_us(&untraced.step_ns) * speed(&[&untraced]) - one,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0, 0.0),
    };

    // ------------------------------------------------------------ telemetry
    let registry = hpcnet_telemetry::Registry::new();
    let histogram = registry.time_histogram("perfbench_probe_seconds", &[]);
    let mut tick = 0u64;
    let hist_record = ns_per_call(micro, || {
        tick = tick.wrapping_add(977);
        histogram.record(black_box(tick & 0xf_ffff));
    });

    // ---------------------------------------------- transports and hand-off
    // In-process numbers come from the main phases on an in-process
    // workload, else from the in-process reference of phase D.
    let main_speed = speed(&[&traced, &untraced, &telemetry_on]);
    let (in_process_run_ns, in_process_view, in_process_steps, in_process_speed) = match &in_process
    {
        Some((phase, v)) => (
            mean_ns(&phase.run_ns),
            v.clone(),
            phase.run_ns.len(),
            speed(&[phase]),
        ),
        None => {
            let all: Vec<u64> = [&traced, &untraced, &telemetry_on]
                .iter()
                .flat_map(|p| p.run_ns.iter().copied())
                .collect();
            (mean_ns(&all), view.clone(), all.len(), main_speed)
        }
    };
    let handoff_us = (in_process_run_ns
        - in_process_view.all_stages_ns() / in_process_steps.max(1) as f64)
        / 1e3
        * in_process_speed;
    let nominal_run_us = |p: &Phase| median_us(&p.run_ns) * speed(&[p]);
    let transport_us = match (&in_process, &one_server) {
        (Some((inp, _)), Some((one, _))) => nominal_run_us(one) - nominal_run_us(inp),
        (Some((inp, _)), None) => nominal_run_us(&untraced) - nominal_run_us(inp),
        (None, _) => 0.0,
    };

    let traced_speed = speed(&[&traced]);
    let step_p50 = percentile_ns(&mut traced.step_ns, 0.50) as f64 / 1e3 * traced_speed;
    let step_p99 = percentile_ns(&mut traced.step_ns, 0.99) as f64 / 1e3 * traced_speed;
    let nominal_step_us = |p: &Phase| median_us(&p.step_ns) * speed(&[p]);
    let untraced_p50 = nominal_step_us(&untraced);
    let blocks: Vec<Block> = traced
        .blocks
        .iter()
        .chain(&untraced.blocks)
        .copied()
        .collect();
    let nominal_us = |b: &Block, ns: f64| ns / 1e3 * Calibration::factor(b.calibration_ns);
    let offline = &prepared.surrogate.offline;
    let values: HashMap<&str, f64> = HashMap::from([
        (
            "tensor.gemm_f64_rows_per_s",
            rows as f64 / (gemm_f64 * 1e-9),
        ),
        (
            "tensor.gemm_f32_rows_per_s",
            rows as f64 / (gemm_f32 * 1e-9),
        ),
        ("tensor.csr_vecmat_us", csr_vecmat / 1e3),
        (
            "nn.infer_batch_us_per_sample",
            infer_batch / rows as f64 / 1e3,
        ),
        ("nn.infer_single_us", infer_single / 1e3),
        ("nn.infer_f32_single_us", infer_f32 / 1e3),
        ("nn.encode_dense_us", encode_dense / 1e3),
        ("nn.encode_sparse_us", encode_sparse / 1e3),
        ("nn.flops_per_sample", prepared.surrogate.f_c),
        (
            "apps.region_exact_us",
            block_quantile(&blocks, 0.5, |b| nominal_us(b, b.solver_ns)),
        ),
        (
            "apps.qoi_us",
            block_quantile(&blocks, 0.5, |b| nominal_us(b, b.other_ns)),
        ),
        (
            "apps.region_flops",
            app.run_region_counted(&problems[0].input).1 as f64,
        ),
        ("runtime.store_put_us", store_put / 1e3),
        ("runtime.store_get_us", store_get / 1e3),
        (
            "runtime.client_put_us",
            median_us(&traced.put_ns) * traced_speed,
        ),
        (
            "runtime.client_run_us",
            median_us(&traced.run_ns) * traced_speed,
        ),
        (
            "runtime.client_unpack_us",
            median_us(&traced.unpack_ns) * traced_speed,
        ),
        ("runtime.client_step_p50_us", step_p50),
        ("runtime.client_step_p99_us", step_p99),
        (
            "runtime.queue_wait_p50_us",
            view.queue_wait_p50_ns / 1e3 * main_speed,
        ),
        (
            "runtime.stage_fetch_us",
            view.stage_us(&["fetch"]) * main_speed,
        ),
        (
            "runtime.stage_encode_us",
            view.stage_us(&["encode"]) * main_speed,
        ),
        (
            "runtime.stage_infer_us",
            view.stage_us(&["infer", "infer_f32"]) * main_speed,
        ),
        (
            "runtime.stage_guard_us",
            view.stage_us(&["guard"]) * main_speed,
        ),
        (
            "runtime.stage_fallback_us",
            view.stage_us(&["fallback"]) * main_speed,
        ),
        ("runtime.handoff_us", handoff_us),
        (
            "runtime.mean_batch_size",
            view.requests / view.batches.max(1.0),
        ),
        // Per pass, so the counts do not depend on how many passes fit.
        ("runtime.f32_demotions", view.demotions / passes.max(1.0)),
        (
            "runtime.quality_fallbacks",
            view.fallbacks / passes.max(1.0),
        ),
        ("net.encode_frame_ns", encode_frame),
        ("net.decode_frame_ns", decode_frame),
        ("net.crc32_gb_per_s", crc_buffer.len() as f64 / crc_ns),
        ("net.bytes_per_step", bytes_per_step as f64),
        (
            "net.ping_rtt_us",
            if addrs.is_empty() { 0.0 } else { ping_us },
        ),
        ("net.connect_us", connect_us),
        ("net.transport_us", transport_us),
        ("cluster.ring_lookup_ns", ring_lookup),
        ("cluster.routing_us", routing_us),
        ("cluster.shard_imbalance", imbalance),
        ("cluster.relocations", relocations),
        ("cluster.failovers", failovers),
        (
            "telemetry.overhead_share",
            nominal_step_us(&telemetry_on) / nominal_step_us(&telemetry_off) - 1.0,
        ),
        (
            "telemetry.trace_overhead_share",
            step_p50 / untraced_p50 - 1.0,
        ),
        ("telemetry.hist_record_ns", hist_record),
        ("core.labeling_s", offline.labeling_s),
        ("core.autoencoder_s", offline.autoencoder_s),
        ("core.search_s", offline.search_s),
        (
            "core.nas_candidates",
            prepared.surrogate.history.len() as f64,
        ),
    ]);
    for &(name, unit) in PER_LAYER {
        match values.get(name) {
            Some(&v) if v.is_finite() => outcome.push(name, v, unit),
            _ => outcome.fail(format!("per-layer metric {name} was not measured")),
        }
    }
    Ok(outcome)
}
