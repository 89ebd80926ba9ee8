//! The end-to-end run (`--trace 0`) and the result every run prints.

use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::serve::{Block, Limit, Phase, Server};
use crate::setup::{timed_setup, Deployment, Prepared};
use crate::spec::{Spec, WARMUP_PASSES};
use crate::stats::{median, percentile_ns, thread_count, Calibration};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the driver's result line plus diagnostics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Ungated values and context, printed but not part of the result.
    pub diagnostics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn diagnostic(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.diagnostics.push(Metric { name, value, unit });
    }

    /// Count one harness-level failure (a broken invariant, not a call).
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {note}"));
    }

    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.calls;
        self.failed += phase.failed;
        if let Some(first) = &phase.first_failure {
            self.notes.push(format!("FAILED: {first}"));
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.to_string(),
                json!({ "value": m.value, "unit": m.unit }),
            );
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }

    /// Every metric by name with its unit, then the result line last.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.diagnostics {
            println!("diagnostic {} {} {}", m.name, m.value, m.unit);
        }
        for m in &self.metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!("diagnostic fail_share {share} share");
        println!("{}", self.result_line());
    }
}

/// Every end-to-end metric, with its unit, in the order it is printed.
/// `BENCHMARK.json` lists the same names; a test holds the two together.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_p50_us", "us"),
    ("samples_per_s", "1/s"),
    ("speedup_eqn2", "ratio"),
    ("hit_rate", "share"),
];

/// Quantile `q` over blocks of a per-block value. The end-to-end time
/// takes the lower quartile and the rate the upper one: the quartile on
/// the fast side.
///
/// Every block does the same work, so with the machine undisturbed the
/// blocks of a run agree within a few percent. The benchmark box also
/// has a slow state, lasting seconds at a time, in which throughput-bound
/// code runs 1.4 times slower while the calibration kernel barely
/// notices (measured on `inproc_batch_fluid`: block values cluster at
/// 720 µs and at 1 000 µs within one run). A run's median block moves
/// with the share of the run spent in that state; its quartile on the
/// fast side stays with the undisturbed blocks until three quarters of
/// the run are disturbed (over 10 runs the median's spread was 22 %, the
/// quartile's 10 %). A change to the code moves every block alike, so
/// the quartile sees it as well as the median would.
pub fn block_quantile(blocks: &[Block], q: f64, value: impl Fn(&Block) -> f64) -> f64 {
    let mut values: Vec<f64> = blocks.iter().map(value).collect();
    values.sort_by(f64::total_cmp);
    let rank = (values.len().saturating_sub(1) as f64 * q).round() as usize;
    values.get(rank).copied().unwrap_or(0.0)
}

pub struct Options {
    pub seed: u64,
    pub limit: Limit,
    /// Overrides the workload's `setup_reps` (tests use 1).
    pub setup_reps: Option<usize>,
    /// Where the traced pass writes its span file.
    pub out_dir: std::path::PathBuf,
}

/// The thread budget: one client thread (the caller) and one worker per
/// orchestrator. Returns the process thread count.
pub fn check_thread_budget(deployment: &Deployment, outcome: &mut Outcome) -> Option<usize> {
    for o in deployment.orchestrators() {
        if o.worker_count() != 1 {
            outcome.fail(format!(
                "orchestrator runs {} workers, budget is 1",
                o.worker_count()
            ));
        }
    }
    thread_count()
}

/// After everything is shut down the process must be back at the thread
/// count it started with. Returns the count now.
pub fn check_threads_returned(at_start: Option<usize>, outcome: &mut Outcome) -> Option<usize> {
    let now = thread_count();
    if now != at_start {
        outcome.fail(format!(
            "thread count {now:?} at exit, {at_start:?} at start: something was not shut down"
        ));
    }
    now
}

/// Seconds one set-up took: as measured, and at nominal machine speed
/// (by the calibration kernel run right before and right after it).
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub raw_s: f64,
    pub nominal_s: f64,
}

/// Calibration runs taken before and after a set-up (a block has one
/// per pass and hundreds of passes; a set-up has only these).
const SETUP_CALIBRATION_RUNS: usize = 15;

/// Set up `reps` times, keeping the last deployment.
pub fn repeated_setup(
    spec: &Spec,
    seed: u64,
    reps: usize,
) -> Result<(Prepared, Deployment, Vec<SetupTime>), String> {
    let mut calibration = Calibration::new();
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(Prepared, Deployment)> = None;
    for _ in 0..reps.max(1) {
        if let Some((_, previous)) = kept.take() {
            previous.shutdown();
        }
        let before = calibration.sample(SETUP_CALIBRATION_RUNS);
        let (prepared, deployment, raw_s) = timed_setup(spec, seed)?;
        let after = calibration.sample(SETUP_CALIBRATION_RUNS);
        times.push(SetupTime {
            raw_s,
            nominal_s: raw_s * Calibration::factor((before + after) / 2.0),
        });
        kept = Some((prepared, deployment));
    }
    match kept {
        Some((p, d)) => Ok((p, d, times)),
        None => unreachable!("at least one set-up ran"),
    }
}

/// `--trace 0`: set-up, warm-up, the measured phase, the checks.
pub fn end_to_end(spec: &Spec, options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let threads_at_start = thread_count();

    let reps = options.setup_reps.unwrap_or(spec.setup_reps);
    let (prepared, deployment, setups) = repeated_setup(spec, options.seed, reps)?;
    let mut server = Server::new(spec, &prepared, &deployment);

    let warmup = server.serve(Limit::Passes(WARMUP_PASSES), false);
    outcome.absorb(&warmup);
    let threads_after_warmup = check_thread_budget(&deployment, &mut outcome);

    let before = deployment.serving_stats();
    let wall = Instant::now();
    let mut phase = server.serve(options.limit, false);
    let wall_s = wall.elapsed().as_secs_f64();
    let after = deployment.serving_stats();
    outcome.absorb(&phase);

    drop(server);
    deployment.shutdown();
    let threads_at_exit = check_threads_returned(threads_at_start, &mut outcome);
    outcome.notes.push(format!(
        "workload {} seed {} nproc {nproc} threads start {threads_at_start:?} after-warm-up {threads_after_warmup:?} exit {threads_at_exit:?}",
        spec.name, options.seed
    ));

    // hit_rate is an exact count. Guarded: what the server's guard did.
    // Unguarded: the same Eqn 3 test, applied by the harness after unpack.
    let fallbacks = after.quality_fallbacks - before.quality_fallbacks;
    let hits = if spec.guarded {
        phase.samples - fallbacks
    } else {
        phase.eqn3_hits
    };
    let steps = phase.step_ns.len();
    let served_s = phase.step_ns.iter().sum::<u64>() as f64 * 1e-9;
    let p50 = percentile_ns(&mut phase.step_ns, 0.50);
    let p99 = percentile_ns(&mut phase.step_ns, 0.99);
    let setup = |f: fn(&SetupTime) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    // Times are at nominal machine speed, block by block (and set-up by
    // set-up). Over blocks, the time and the rate are the quartile on the
    // fast side and the ratio is the median: see `block_quantile`.
    let values = [
        setup(|s| s.nominal_s),
        block_quantile(&phase.blocks, 0.25, Block::step_p50_us),
        block_quantile(&phase.blocks, 0.75, Block::samples_per_s),
        block_quantile(&phase.blocks, 0.5, Block::speedup_eqn2),
        hits as f64 / phase.samples.max(1) as f64,
    ];
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        outcome.push(name, value, unit);
    }

    // The same, as the clock read them.
    outcome.diagnostic("raw.setup_s", setup(|s| s.raw_s), "s");
    outcome.diagnostic("raw.step_p50_us", p50 as f64 / 1e3, "us");
    outcome.diagnostic("raw.samples_per_s", phase.samples as f64 / served_s, "1/s");
    outcome.diagnostic(
        "machine.calibration_us",
        block_quantile(&phase.blocks, 0.5, |b| b.calibration_ns / 1e3),
        "us",
    );
    let step_quartile = |q| block_quantile(&phase.blocks, q, Block::step_p50_us);
    outcome.diagnostic(
        "blocks.step_quartile_spread",
        (step_quartile(0.75) - step_quartile(0.25)) / step_quartile(0.5),
        "share",
    );
    outcome.diagnostic("runtime.client_step_p99_us", p99 as f64 / 1e3, "us");
    outcome.diagnostic("steps", steps as f64, "count");
    outcome.diagnostic("blocks", phase.blocks.len() as f64, "count");
    outcome.diagnostic("samples", phase.samples as f64, "count");
    outcome.diagnostic("quality_fallbacks", fallbacks as f64, "count");
    outcome.diagnostic(
        "eval_misses_per_pass",
        prepared.eval.misses() as f64,
        "count",
    );
    outcome.diagnostic("eval_candidates", prepared.eval.candidates as f64, "count");
    outcome.diagnostic("measured_wall_s", wall_s, "s");
    outcome.diagnostic("setup_reps", setups.len() as f64, "count");
    Ok(outcome)
}
