//! Telemetry substrate for the Auto-HPCnet runtime and offline pipeline.
//!
//! The paper's deployment story (restart-on-quality-miss, §7.1/§8) and its
//! evaluation (Eqn 2 speedup, Eqn 3 HitRate, Table 3 counters) both hinge
//! on *measuring* where time and quality go. This crate provides the
//! measurement primitives every other crate instruments itself with:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars,
//! * [`Histogram`] — a log-bucketed (power-of-two octaves, 4 linear
//!   sub-buckets each) value/latency histogram with p50/p90/p99/max
//!   readout, recordable concurrently without locks,
//! * [`SpanGuard`] — an RAII timer that records its elapsed time into a
//!   histogram on drop,
//! * [`Registry`] — a named, labeled collection of the above with
//!   Prometheus text exposition ([`Registry::prometheus_text`]) and a
//!   serde-able JSON snapshot ([`Registry::snapshot`]),
//! * [`EventRing`] — a bounded, overwrite-oldest ring buffer for anomaly
//!   events (overload rejections, deadline expiries, quality misses),
//! * [`trace`] — distributed request tracing: per-request span trees
//!   with wire-propagated [`TraceContext`]s and a bounded tail-sampling
//!   [`FlightRecorder`] (DESIGN.md §16).
//!
//! Recording costs a handful of atomic ops (mostly `Relaxed`, with one
//! `Release`/`Acquire` pair per histogram record so snapshots are never
//! torn — see the invariant comments at each site); a registry built
//! with [`Registry::disabled`] hands out no-op instruments so an
//! instrumented hot path can be compared against an uninstrumented one
//! without recompiling.
//!
//! Under `--cfg loom` the instruments compile against the `loom` model
//! checker (see the `sync` module and `tests/concurrency_model.rs`);
//! DESIGN.md §13 describes how to run that suite.
//!
//! The offline pipeline (trace → autoencoder → 2D NAS → train) reports
//! into the process-wide [`global`] registry; each serving
//! `Orchestrator` owns a private registry so per-server statistics stay
//! isolated.
//!
//! ```
//! use hpcnet_telemetry::Registry;
//! use std::time::Duration;
//!
//! let reg = Registry::new();
//! reg.counter("requests_total").add(3);
//! let h = reg.time_histogram("step_seconds", &[("stage", "infer")]);
//! h.record_duration(Duration::from_micros(250));
//! assert!(reg.prometheus_text().contains("requests_total 3"));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod instrument;
pub mod registry;
pub mod ring;
pub(crate) mod sync;
pub mod trace;

pub use instrument::{BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, SpanGuard, Unit};
pub use registry::{CounterEntry, GaugeEntry, HistogramEntry, Registry, RegistrySnapshot};
pub use ring::{Event, EventRing};
pub use trace::{
    FlightRecorder, FlightRecorderConfig, FlightRecorderStats, SpanId, SpanRecord, SpanStatus,
    SpanTimer, Stage, Trace, TraceContext, TraceId,
};

use std::sync::OnceLock;

/// The process-wide registry used by the offline pipeline (dataset
/// labeling, NAS, training). Serving orchestrators deliberately use their
/// own registries instead, so two servers in one process never mix
/// statistics.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_enabled() {
        global().counter("lib_test_total").inc();
        global().counter("lib_test_total").inc();
        assert_eq!(global().counter("lib_test_total").get(), 2);
        assert!(global().is_enabled());
    }
}
