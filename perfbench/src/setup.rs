//! Set-up: build the surrogate with the real offline pipeline, draw and
//! label the evaluation problems, launch the server side, register the
//! model and connect the client. All of it is inside `setup_s`.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use auto_hpcnet::{AutoHpcnet, DeployedSurrogate, PipelineConfig};
use hpcnet_apps::HpcApp;
use hpcnet_cluster::ClusterClient;
use hpcnet_net::{NetServer, RemoteClient};
use hpcnet_runtime::{ClientApi, Orchestrator, QualityGuard, ServingStats, TensorStore};
use hpcnet_tensor::Csr;

use crate::spec::{Spec, Transport, EVAL_BASE, MODEL, MU, PIPELINE_SEED};
use crate::stats::SplitMix;

/// Candidates whose relative QoI error is within this share of μ on
/// either side are not drawn: an f32 answer differs from the f64 one in
/// the seventh digit, and a problem that close to the line could be a
/// hit on one path and a miss on the other.
const BAND: f64 = 0.01;

/// Candidate problems examined per pass problem before the miss quota is
/// given up and filled with hits.
const MAX_CANDIDATES_PER_PROBLEM: usize = 8;

/// Eqn 3 for one problem.
pub fn eqn3_holds(qoi_pred: f64, qoi_exact: f64) -> bool {
    (qoi_pred - qoi_exact).abs() <= MU * qoi_exact.abs()
}

/// A cheap identity for a region input: FNV-1a over the bits of a strided
/// sample of about 512 elements plus the last 64. Uniqueness over the
/// evaluation set is checked when the set is built.
pub fn fingerprint(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ x.len() as u64;
    let mut mix = |v: &f64| h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    let stride = (x.len() / 512).max(1);
    x.iter().step_by(stride).for_each(&mut mix);
    if stride > 1 {
        x[x.len() - 64..].iter().for_each(&mut mix);
    }
    h
}

/// One evaluation problem, with everything the harness needs to check
/// an answer without running a solver in the timed path.
pub struct Problem {
    /// `gen_problem` index, at or above `EVAL_BASE`.
    pub index: u64,
    pub input: Vec<f64>,
    /// CSR single-row view (sparse applications only).
    pub sparse: Option<Csr>,
    /// `run_region_exact` output and its QoI.
    pub exact: Vec<f64>,
    pub exact_qoi: f64,
    /// `DeployedSurrogate::predict` (or `predict_sparse`) output.
    pub direct: Vec<f64>,
    /// Whether the direct prediction misses Eqn 3.
    pub miss: bool,
}

/// The evaluation problems of one pass, in serving order.
pub struct EvalSet {
    pub problems: Vec<Problem>,
    /// Candidate problems examined to fill the pass.
    pub candidates: usize,
}

impl EvalSet {
    pub fn misses(&self) -> usize {
        self.problems.iter().filter(|p| p.miss).count()
    }
}

/// Product of the offline phase plus the labelled evaluation set.
pub struct Prepared {
    pub app: Arc<dyn HpcApp>,
    pub surrogate: DeployedSurrogate,
    pub eval: EvalSet,
    /// Exact QoI by input fingerprint: what the guard's validator reads.
    pub qoi_by_input: Arc<HashMap<u64, f64>>,
}

fn predict(
    app: &dyn HpcApp,
    surrogate: &DeployedSurrogate,
    x: &[f64],
) -> Option<(Vec<f64>, Option<Csr>)> {
    // The server encodes a sparse tensor through `encode_sparse`; classify
    // through the same arithmetic.
    match app.sparse_row(x) {
        Some(row) => Some((surrogate.predict_sparse(&row)?, Some(row))),
        None => Some((surrogate.predict(x)?, None)),
    }
}

fn draw_eval_set(
    spec: &Spec,
    app: &dyn HpcApp,
    surrogate: &DeployedSurrogate,
    seed: u64,
) -> Result<(EvalSet, HashMap<u64, f64>), String> {
    let want_miss = spec.misses;
    let want_hit = spec.pass - spec.misses;
    let mut rng = SplitMix(seed);
    let mut seen = HashSet::new();
    let mut by_input = HashMap::new();
    let mut set = EvalSet {
        problems: Vec::with_capacity(spec.pass),
        candidates: 0,
    };
    let keep = |set: &mut EvalSet, by_input: &mut HashMap<u64, f64>, problem: Problem| {
        by_input.insert(fingerprint(&problem.input), problem.exact_qoi);
        set.problems.push(problem);
    };
    let (mut hits, mut misses) = (0, 0);
    // Hits left over once the hit quota is full; they stand in for misses
    // if the surrogate has too few (a later change may make it better).
    let mut spare_hits = Vec::new();
    while set.problems.len() < spec.pass {
        if set.candidates >= spec.pass * MAX_CANDIDATES_PER_PROBLEM {
            let Some(spare) = spare_hits.pop() else {
                return Err(format!("{}: ran out of candidate problems", spec.name));
            };
            keep(&mut set, &mut by_input, spare);
            continue;
        }
        set.candidates += 1;
        let index = EVAL_BASE + (rng.next_u64() >> 24);
        if !seen.insert(index) {
            continue;
        }
        let x = app.gen_problem(index);
        let exact = app.run_region_exact(&x);
        let q = app.qoi(&x, &exact);
        let (direct, sparse) = predict(app, surrogate, &x)
            .ok_or_else(|| format!("{}: direct prediction failed", spec.name))?;
        let q_direct = app.qoi(&x, &direct);
        let margin = (q_direct - q).abs() - MU * q.abs();
        if !margin.is_finite() || margin.abs() < BAND * MU * q.abs() {
            continue;
        }
        let miss = !eqn3_holds(q_direct, q);
        if by_input.contains_key(&fingerprint(&x)) {
            continue;
        }
        let candidate = Problem {
            index,
            input: x,
            sparse,
            exact,
            exact_qoi: q,
            direct,
            miss,
        };
        if miss && misses < want_miss {
            misses += 1;
            keep(&mut set, &mut by_input, candidate);
        } else if !miss && hits < want_hit {
            hits += 1;
            keep(&mut set, &mut by_input, candidate);
        } else if !miss && spare_hits.len() < want_miss {
            spare_hits.push(candidate);
        }
    }
    Ok((set, by_input))
}

/// The offline phase and the evaluation set.
pub fn prepare(spec: &Spec, seed: u64) -> Result<Prepared, String> {
    let app = (spec.app)();
    let mut config = PipelineConfig::quick();
    config.mu = MU;
    config.seed = PIPELINE_SEED;
    let surrogate = AutoHpcnet::new(config)
        .build_surrogate(app.as_ref())
        .map_err(|e| format!("{}: build_surrogate: {e}", spec.name))?;
    let (eval, by_input) = draw_eval_set(spec, app.as_ref(), &surrogate, seed)?;
    Ok(Prepared {
        app,
        surrogate,
        eval,
        qoi_by_input: Arc::new(by_input),
    })
}

/// The serving side of one workload and the client connected to it.
pub struct Deployment {
    pub transport: Transport,
    client: Option<Box<dyn ClientApi>>,
    backend: Backend,
}

enum Backend {
    InProcess(Orchestrator),
    Net(Vec<NetServer>),
}

fn launch_orchestrator(spec: &Spec, prepared: &Prepared, telemetry: bool) -> Orchestrator {
    // One worker: the box has two cores and the closed-loop client keeps
    // the other. Online retraining stays off (its background thread would
    // make hit_rate depend on wall-clock).
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .telemetry(telemetry)
        .serve_f32(spec.serve_f32)
        .build();
    if spec.guarded {
        let app = prepared.app.clone();
        let exact_qoi = prepared.qoi_by_input.clone();
        // Eqn 3 itself. The exact QoI comes from set-up; an input the
        // table does not know is rejected, so it gets the exact region.
        let validator = move |raw: &[f64], predicted: &[f64]| match exact_qoi.get(&fingerprint(raw))
        {
            Some(&q) => eqn3_holds(app.qoi(raw, predicted), q),
            None => false,
        };
        let app = prepared.app.clone();
        let guard =
            QualityGuard::new(validator).with_fallback(move |raw| app.run_region_exact(raw));
        orchestrator.register_guarded_model(MODEL, prepared.surrogate.bundle.clone(), guard);
    } else {
        orchestrator.register_model(MODEL, prepared.surrogate.bundle.clone());
    }
    orchestrator
}

/// Launch, register and connect over `transport`.
pub fn deploy(
    spec: &Spec,
    prepared: &Prepared,
    transport: Transport,
    telemetry: bool,
) -> Result<Deployment, String> {
    let serve = |orchestrator| {
        NetServer::builder(orchestrator)
            .serve("127.0.0.1:0")
            .map_err(|e| format!("{}: bind loopback: {e}", spec.name))
    };
    let (client, backend): (Box<dyn ClientApi>, Backend) = match transport {
        Transport::InProcess => {
            let orchestrator = launch_orchestrator(spec, prepared, telemetry);
            (
                Box::new(orchestrator.client()),
                Backend::InProcess(orchestrator),
            )
        }
        Transport::Loopback => {
            let server = serve(launch_orchestrator(spec, prepared, telemetry))?;
            let client = RemoteClient::builder(server.local_addr().to_string())
                .pool(1)
                .connect()
                .map_err(|e| format!("{}: connect: {e}", spec.name))?;
            (Box::new(client), Backend::Net(vec![server]))
        }
        Transport::Cluster { shards } => {
            let servers = (0..shards)
                .map(|_| serve(launch_orchestrator(spec, prepared, telemetry)))
                .collect::<Result<Vec<_>, _>>()?;
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            // No health thread: it would be a second client-side thread.
            let client = ClusterClient::builder(addrs)
                .replication(1)
                .health_interval(None)
                .connect()
                .map_err(|e| format!("{}: cluster connect: {e}", spec.name))?;
            (Box::new(client), Backend::Net(servers))
        }
    };
    Ok(Deployment {
        transport,
        client: Some(client),
        backend,
    })
}

impl Deployment {
    pub fn client(&self) -> &dyn ClientApi {
        match &self.client {
            Some(c) => c.as_ref(),
            None => unreachable!("the client lives until shutdown consumes the deployment"),
        }
    }

    pub fn orchestrators(&self) -> Vec<&Orchestrator> {
        match &self.backend {
            Backend::InProcess(o) => vec![o],
            Backend::Net(servers) => servers.iter().map(NetServer::orchestrator).collect(),
        }
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        match &self.backend {
            Backend::InProcess(_) => Vec::new(),
            Backend::Net(servers) => servers.iter().map(NetServer::local_addr).collect(),
        }
    }

    /// Serving statistics summed over the deployment's orchestrators.
    pub fn serving_stats(&self) -> ServingStats {
        let mut total = ServingStats::default();
        for o in self.orchestrators() {
            total.merge(&o.serving_stats());
        }
        total
    }

    /// Close the client, then drain and join every server thread.
    pub fn shutdown(mut self) {
        self.client = None;
        match self.backend {
            Backend::InProcess(o) => {
                o.shutdown();
            }
            Backend::Net(servers) => {
                for s in servers {
                    s.shutdown();
                }
            }
        }
    }
}

/// One complete set-up, timed: what `setup_s` measures.
pub fn timed_setup(spec: &Spec, seed: u64) -> Result<(Prepared, Deployment, f64), String> {
    let start = Instant::now();
    let prepared = prepare(spec, seed)?;
    let deployment = deploy(spec, &prepared, spec.transport, true)?;
    Ok((prepared, deployment, start.elapsed().as_secs_f64()))
}
