//! The repository benchmark: four application workloads driven through
//! the serving path (`put_tensor → run_model → unpack_tensor`), with the
//! paper's speedup (Eqn 2) and HitRate (Eqn 3) measured inside the timed
//! region, and a separate traced pass that reports per-layer numbers.
//!
//! `README.md` next to this crate defines every metric and workload;
//! `../BENCHMARK.json` is the contract the driver reads.

pub mod aa;
pub mod layers;
pub mod report;
pub mod serve;
pub mod setup;
pub mod spec;
pub mod stats;
