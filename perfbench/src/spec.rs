//! The workload table. Every constant that shapes a run lives here, so
//! a run is a function of `(workload, seed, seconds)` alone.

use std::sync::Arc;

use hpcnet_apps::{AmgApp, FluidApp, HpcApp, MgApp, MiniQmcApp};

/// QoI tolerance μ of Eqn 3; the paper evaluates at 0.10.
pub const MU: f64 = 0.10;

/// Name every workload registers its surrogate under.
pub const MODEL: &str = "surrogate";

/// Seed of the offline pipeline. It is a constant, not `--seed`: the
/// architecture 2D NAS selects depends on it (K 12 or 45, one hidden
/// layer or two), so a per-run pipeline seed would make step time a
/// property of the seed rather than of the code under test. `--seed`
/// selects the evaluation problems the served model sees.
pub const PIPELINE_SEED: u64 = 0xa07a;

/// Evaluation problem indices start here, the range `auto_hpcnet`
/// reserves for evaluation (`EVAL_BASE`), so they never meet a training
/// (`< 1 << 20`) or NAS-holdout (`1 << 20 ..`) problem.
pub const EVAL_BASE: u64 = 1 << 21;

/// How the client reaches the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `hpcnet_runtime::Client` in the same process.
    InProcess,
    /// One `NetServer` on 127.0.0.1 and a `RemoteClient` with a pool of 1.
    Loopback,
    /// `shards` `NetServer`s and a `ClusterClient`, replication 1.
    Cluster { shards: usize },
}

/// One workload.
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub app: fn() -> Arc<dyn HpcApp>,
    pub transport: Transport,
    /// Samples per step (S): 1 uses `run_model`, more `run_model_batch`.
    pub batch: usize,
    /// Register with a `QualityGuard` whose fallback is the exact region.
    pub guarded: bool,
    pub serve_f32: bool,
    /// Problems per pass (P), a multiple of `batch`. A pass is the
    /// benchmark's block: every pass serves the same P problems.
    pub pass: usize,
    /// Problems per pass on which the surrogate misses Eqn 3 (M). The
    /// traffic mix is part of the workload, as a cache benchmark fixes
    /// its hit share: with M drawn at random a guarded workload's
    /// throughput would measure the draw (one MG restart costs what 200
    /// hits cost). M is the surrogate's natural miss share at
    /// `PIPELINE_SEED`, measured over 1 024 problems and rounded.
    pub misses: usize,
    /// Problems per pass on which the exact region and the QoI are timed
    /// for Eqn 2, right before the pass is served.
    pub slice: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

/// Warm-up passes before anything is measured (discarded).
pub const WARMUP_PASSES: usize = 3;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "inproc_batch_fluid",
        why: "fluidanimate 192->96, in-process, S=256 batches: store put/get and batched f64 infer dominate; no net, cluster or guard",
        app: || Arc::new(FluidApp::default()),
        transport: Transport::InProcess,
        batch: 256,
        guarded: false,
        serve_f32: false,
        pass: 4096,
        misses: 0,
        slice: 32,
        setup_reps: 3,
    },
    Spec {
        name: "loopback_step_qmc",
        why: "miniQMC 60->3 over TCP loopback, S=1: three small round trips per step, so codec, socket and hand-off dominate and infer is negligible",
        app: || Arc::new(MiniQmcApp::default()),
        transport: Transport::Loopback,
        batch: 1,
        guarded: false,
        serve_f32: false,
        pass: 512,
        misses: 128,
        slice: 32,
        setup_reps: 5,
    },
    Spec {
        name: "inproc_guarded_mg_f32",
        why: "MG 256->256 (solver costs milliseconds), in-process, S=1, f32 serving behind a guard with exact fallback: per-request admission, f32 demotion and the restart path",
        app: || Arc::new(MgApp::default()),
        transport: Transport::InProcess,
        batch: 1,
        guarded: true,
        serve_f32: true,
        pass: 256,
        misses: 8,
        slice: 8,
        setup_reps: 3,
    },
    Spec {
        name: "cluster_sparse_amg",
        why: "AMG CSR 20880->144 on 2 shards, S=16 sparse batches, guarded: cluster scatter/gather, large payload codec, per-batch dial and sparse encode",
        app: || Arc::new(AmgApp::default()),
        transport: Transport::Cluster { shards: 2 },
        batch: 16,
        guarded: true,
        serve_f32: false,
        pass: 256,
        misses: 26,
        slice: 32,
        setup_reps: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
