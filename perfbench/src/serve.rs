//! The closed loop: one client thread, one step at a time.
//!
//! A **step** puts the step's S inputs (overwriting a fixed key set, so
//! the store does not grow), issues one `run_model` (S = 1) or one
//! `run_model_batch` (S > 1) and unpacks the S outputs. It is timed from
//! before the first put to after the last unpack.
//!
//! A **pass** serves the workload's P evaluation problems once, in
//! order, and is the block over which per-block metrics are taken. Right
//! before serving a pass the harness times the exact region and the QoI
//! on a slice of the pass's problems, so the solver and the served
//! timings of one block sit next to each other in time and machine
//! drift cancels in their ratio. The calibration kernel runs there too,
//! and the block's times are also reported at nominal machine speed (see
//! `stats::Calibration`). Outputs are checked after the pass, outside
//! every timed section.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::setup::{eqn3_holds, Deployment, Prepared};
use crate::spec::{Spec, Transport, MODEL};
use crate::stats::{percentile_ns, Calibration};

/// The fixed key set of one step.
pub struct Keys {
    pub ins: Vec<String>,
    pub outs: Vec<String>,
}

impl Keys {
    pub fn new(spec: &Spec, transport: Transport) -> Self {
        let name = |i: usize, side: &str| match transport {
            // `{tag}` co-locates a sample's input and output on one shard,
            // so the cluster never relocates an output.
            Transport::Cluster { .. } => format!("{{t{i}}}/{side}"),
            _ => format!("{side}/{i}"),
        };
        Keys {
            ins: (0..spec.batch).map(|i| name(i, "in")).collect(),
            outs: (0..spec.batch).map(|i| name(i, "out")).collect(),
        }
    }
}

/// When a serving phase ends. Either way it ends on a whole pass, so the
/// counts (hits, fallbacks, batches per step) do not depend on timing.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Passes(usize),
}

/// One harness span: a step or one of its three children.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a step, else the step's id.
    pub parent: u64,
    pub name: &'static str,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-block measurements.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub samples: usize,
    /// Sum of the block's step times.
    pub served_ns: u64,
    /// Exact region, per problem, from this block's slice.
    pub solver_ns: f64,
    /// QoI ("other part"), per problem, from this block's slice.
    pub other_ns: f64,
    /// The calibration kernel, run right before the block.
    pub calibration_ns: f64,
    /// Median step time of the block.
    pub step_p50_ns: u64,
}

impl Block {
    /// Samples per second of served time, at nominal machine speed.
    pub fn samples_per_s(&self) -> f64 {
        let served_s = self.served_ns as f64 * 1e-9 * Calibration::factor(self.calibration_ns);
        self.samples as f64 / served_s
    }

    /// Median step time in microseconds, at nominal machine speed.
    pub fn step_p50_us(&self) -> f64 {
        self.step_p50_ns as f64 * 1e-3 * Calibration::factor(self.calibration_ns)
    }

    /// Eqn 2 through the serving path: the application with the solver
    /// over the application with the served surrogate, both including
    /// the part that is not replaced.
    pub fn speedup_eqn2(&self) -> f64 {
        let other = self.other_ns * self.samples as f64;
        (self.solver_ns * self.samples as f64 + other) / (self.served_ns as f64 + other)
    }
}

/// Everything one serving phase measured.
#[derive(Default)]
pub struct Phase {
    pub step_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub unpack_ns: Vec<u64>,
    pub blocks: Vec<Block>,
    /// `ClientApi` calls attempted.
    pub calls: u64,
    /// Calls that returned `Err` plus outputs that failed the check.
    pub failed: u64,
    pub samples: u64,
    /// Outputs that satisfy Eqn 3 (meaningful on unguarded workloads; a
    /// guarded fallback answer is exact and always satisfies it).
    pub eqn3_hits: u64,
    pub spans: Vec<Span>,
    /// First failure, for the log.
    pub first_failure: Option<String>,
}

impl Phase {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// Steps whose spans are kept; later steps still count in every metric.
pub const MAX_TRACED_STEPS: usize = 4096;

pub struct Server<'a> {
    pub spec: &'a Spec,
    pub prepared: &'a Prepared,
    pub deployment: &'a Deployment,
    keys: Keys,
    outputs: Vec<Vec<f64>>,
    calibration: Calibration,
    epoch: Instant,
    next_span: u64,
    passes_served: usize,
}

impl<'a> Server<'a> {
    pub fn new(spec: &'a Spec, prepared: &'a Prepared, deployment: &'a Deployment) -> Self {
        Server {
            spec,
            prepared,
            deployment,
            keys: Keys::new(spec, deployment.transport),
            outputs: vec![Vec::new(); spec.pass],
            calibration: Calibration::new(),
            epoch: Instant::now(),
            next_span: 1,
            passes_served: 0,
        }
    }

    pub fn keys(&self) -> &Keys {
        &self.keys
    }

    /// Serve whole passes until `limit`; with `traced`, keep spans.
    pub fn serve(&mut self, limit: Limit, traced: bool) -> Phase {
        let mut phase = Phase::default();
        let started = Instant::now();
        let mut passes = 0;
        loop {
            let done = match limit {
                Limit::Seconds(s) => passes > 0 && started.elapsed().as_secs_f64() >= s,
                Limit::Passes(n) => passes >= n,
            };
            if done {
                return phase;
            }
            self.pass(&mut phase, traced);
            passes += 1;
        }
    }

    fn slice_times(&self) -> (f64, f64) {
        let spec = self.spec;
        let problems = &self.prepared.eval.problems;
        let app = self.prepared.app.as_ref();
        let first = (self.passes_served * spec.slice) % spec.pass;
        let slice = (0..spec.slice).map(|i| &problems[(first + i) % spec.pass]);
        let t = Instant::now();
        for p in slice.clone() {
            black_box(app.run_region_exact(black_box(&p.input)));
        }
        let solver = t.elapsed();
        let t = Instant::now();
        for p in slice {
            black_box(app.qoi(black_box(&p.input), black_box(&p.exact)));
        }
        let other = t.elapsed();
        let per = |d: Duration| d.as_nanos() as f64 / spec.slice as f64;
        (per(solver), per(other))
    }

    /// Serve one pass into `phase`.
    pub fn pass(&mut self, phase: &mut Phase, traced: bool) {
        let spec = self.spec;
        let calibration_ns = self.calibration.run();
        let (solver_ns, other_ns) = self.slice_times();
        let first_step = phase.step_ns.len();
        let mut served_ns = 0;
        for first in (0..spec.pass).step_by(spec.batch) {
            served_ns += self.step(first, phase, traced);
        }
        let mut block_steps = phase.step_ns[first_step..].to_vec();
        phase.blocks.push(Block {
            samples: spec.pass,
            served_ns,
            solver_ns,
            other_ns,
            calibration_ns,
            step_p50_ns: percentile_ns(&mut block_steps, 0.5),
        });
        self.check_outputs(phase);
        self.passes_served += 1;
    }

    /// One step over problems `first .. first + S`; returns its time.
    fn step(&mut self, first: usize, phase: &mut Phase, traced: bool) -> u64 {
        let spec = self.spec;
        let problems = &self.prepared.eval.problems[first..first + spec.batch];
        let client = self.deployment.client();
        let keys = &self.keys;
        let pairs: Vec<(&str, &str)> = keys
            .ins
            .iter()
            .zip(&keys.outs)
            .map(|(i, o)| (i.as_str(), o.as_str()))
            .collect();
        let mut errors: Vec<String> = Vec::new();

        let t0 = Instant::now();
        for (key, problem) in keys.ins.iter().zip(problems) {
            let put = match &problem.sparse {
                Some(row) => client.put_sparse_tensor(key, row.clone()),
                None => client.put_tensor(key, &problem.input),
            };
            if let Err(e) = put {
                errors.push(format!("put {key}: {e}"));
            }
        }
        let t1 = Instant::now();
        let run = match pairs.as_slice() {
            [(in_key, out_key)] => client.run_model(MODEL, in_key, out_key),
            batch => client.run_model_batch(MODEL, batch),
        };
        if let Err(e) = run {
            errors.push(format!("run: {e}"));
        }
        let t2 = Instant::now();
        for (j, key) in keys.outs.iter().enumerate() {
            match client.unpack_tensor(key) {
                Ok(v) => self.outputs[first + j] = v,
                Err(e) => {
                    self.outputs[first + j].clear();
                    errors.push(format!("unpack {key}: {e}"));
                }
            }
        }
        let t3 = Instant::now();

        phase.calls += 2 * spec.batch as u64 + 1;
        for e in errors {
            phase.fail(|| e);
        }
        let ns = |d: Duration| d.as_nanos() as u64;
        phase.put_ns.push(ns(t1 - t0));
        phase.run_ns.push(ns(t2 - t1));
        phase.unpack_ns.push(ns(t3 - t2));
        phase.step_ns.push(ns(t3 - t0));
        if traced && phase.step_ns.len() <= MAX_TRACED_STEPS {
            let step = phase.step_ns.len() as u64;
            let at = |t: Instant| ns(t - self.epoch);
            let parent = self.next_span;
            self.next_span += 4;
            let mut span = |id, parent, name, start, end| {
                phase.spans.push(Span {
                    id,
                    parent,
                    name,
                    step,
                    start_ns: at(start),
                    end_ns: at(end),
                })
            };
            span(parent, 0, "step", t0, t3);
            span(parent + 1, parent, "put", t0, t1);
            span(parent + 2, parent, "run", t1, t2);
            span(parent + 3, parent, "unpack", t2, t3);
        }
        ns(t3 - t0)
    }

    /// The correctness contract, checked on every output of the pass.
    ///
    /// * Unguarded: bit-identical to `DeployedSurrogate::predict` on the
    ///   same input.
    /// * Guarded: satisfies Eqn 3 against the exact QoI, or is
    ///   bit-identical to `run_region_exact` (the restart answered).
    fn check_outputs(&self, phase: &mut Phase) {
        let app = self.prepared.app.as_ref();
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let problems = &self.prepared.eval.problems;
        for (p, (problem, out)) in problems.iter().zip(&self.outputs).enumerate() {
            phase.samples += 1;
            if out.len() != app.output_dim() {
                phase.fail(|| format!("problem {p}: output has {} values", out.len()));
                continue;
            }
            let holds = eqn3_holds(app.qoi(&problem.input, out), problem.exact_qoi);
            phase.eqn3_hits += u64::from(holds);
            let correct = if self.spec.guarded {
                holds || same_bits(out, &problem.exact)
            } else {
                same_bits(out, &problem.direct)
            };
            if !correct {
                phase.fail(|| format!("problem {p}: output fails the correctness check"));
            }
        }
    }
}
