//! `--aa K`: run K complete sets of the benchmark back to back, as
//! separate processes, and hold the benchmark to its own bounds.
//!
//! Per workload and end-to-end metric it prints each set's median, each
//! set's spread (distance between the first and third quartile as a
//! share of the median, computed as Python's `statistics.quantiles`
//! does), and how far the later sets' medians moved from the first in
//! the metric's worse direction. It fails when a spread (other than
//! `setup_s`) or a move exceeds the metric's bound in `BENCHMARK.json`.

use std::process::Command;

use serde_json::Value;

use crate::spec::WORKLOADS;
use crate::stats::{iqr_share, median};

pub struct AaOptions {
    pub sets: usize,
    pub runs: usize,
    pub seconds: u64,
    /// Restrict to one workload.
    pub workload: Option<String>,
}

struct Gate {
    name: String,
    bound: f64,
    lower_is_better: bool,
}

fn gates() -> Result<Vec<Gate>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the current directory: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
                lower_is_better: m["better"].as_str() == Some("lower"),
            })
        })
        .collect()
}

/// One run in a child process; its end-to-end metric values by name.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e}): {last}"))?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!("{workload} seed {seed}: run failed: {last}"));
    }
    Ok(result)
}

/// Returns whether every metric of every workload held its bound.
pub fn run(options: &AaOptions) -> Result<bool, String> {
    let gates = gates()?;
    let mut all_held = true;
    for spec in WORKLOADS.iter() {
        if options.workload.as_deref().is_some_and(|w| w != spec.name) {
            continue;
        }
        // values[set][metric] = one value per run; every set uses the
        // same seeds, so a set differs from the next by noise alone.
        let mut values = vec![vec![Vec::new(); gates.len()]; options.sets];
        for (set, per_metric) in values.iter_mut().enumerate() {
            for run in 0..options.runs {
                let seed = run as u64 + 1;
                let result = run_once(spec.name, seed, options.seconds)?;
                for (gate, samples) in gates.iter().zip(per_metric.iter_mut()) {
                    let v = result["metrics"][&gate.name]["value"]
                        .as_f64()
                        .ok_or_else(|| format!("{}: no metric {}", spec.name, gate.name))?;
                    samples.push(v);
                }
                eprintln!("aa {} set {set} run {run} seed {seed} done", spec.name);
            }
        }
        println!("workload {}", spec.name);
        for (m, gate) in gates.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| median(&set[m])).collect();
            let spreads: Vec<f64> = values
                .iter()
                .map(|set| iqr_share(&set[m]).unwrap_or(0.0))
                .collect();
            // How much worse than the first set any later set's median is.
            let moved = medians[1..]
                .iter()
                .map(|&later| {
                    let change = (later - medians[0]) / medians[0].abs();
                    if gate.lower_is_better {
                        change
                    } else {
                        -change
                    }
                })
                .fold(0.0, f64::max);
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            let held = moved <= gate.bound && (gate.name == "setup_s" || widest <= gate.bound);
            all_held &= held;
            println!(
                "  {:<14} bound {:.3}  medians {:?}  spreads {:?}  worse-by {:.4}  {}",
                gate.name,
                gate.bound,
                medians,
                spreads
                    .iter()
                    .map(|s| (s * 1e4).round() / 1e4)
                    .collect::<Vec<_>>(),
                moved,
                if held { "ok" } else { "EXCEEDED" },
            );
        }
    }
    Ok(all_held)
}
