//! A seeded stress-testing harness with a [`loom`]-compatible surface.
//!
//! The concurrency model tests in `hpcnet-telemetry` and `hpcnet-runtime`
//! are written against loom's API (`model`, `thread::spawn`, `sync::Arc`,
//! `sync::Mutex`, `sync::Condvar`, `sync::atomic::*`). Under `--cfg loom`
//! (the CI `loom` job) they import the real model checker, which
//! exhaustively explores interleavings. Under a plain `cargo test` they
//! import this crate instead: the same test body runs many times with
//! deterministic, seeded `yield_now` injection before every atomic
//! operation, lock acquisition, wait and notification, which is far
//! weaker than exhaustive exploration but still shakes out ordering bugs
//! on real hardware — and keeps the model tests running in tier-1 CI
//! without any external dependency.
//!
//! The shim deliberately mirrors only the subset of loom's API the
//! workspace uses; extend it as the model tests grow.
//!
//! [`loom`]: https://docs.rs/loom

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicU64 as RawSeed;
// relaxed: the seed is only advisory randomness for yield injection; no
// other memory is published through it.
use std::sync::atomic::Ordering::Relaxed as SeedRelaxed;

/// Iterations of the closure per [`model`] call when
/// `HPCNET_MODEL_ITERS` is unset.
pub const DEFAULT_ITERATIONS: usize = 256;

/// Per-process iteration seed, re-stamped by [`model`] before every run.
static MODEL_SEED: RawSeed = RawSeed::new(0x9E37_79B9_7F4A_7C15);

thread_local! {
    static RNG_STATE: Cell<u64> = const { Cell::new(0) };
}

/// Advance a thread-local xorshift and yield the scheduler roughly one
/// time in four. Called before every shimmed atomic op and lock, so each
/// iteration of a model test sees a different interleaving.
fn maybe_yield() {
    let roll = RNG_STATE.with(|state| {
        let mut x = state.get();
        if x == 0 {
            let mut hasher = DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            x = (MODEL_SEED.load(SeedRelaxed) ^ hasher.finish()) | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        x
    });
    if roll & 3 == 0 {
        std::thread::yield_now();
    }
}

/// Run `f` repeatedly with a fresh seed per iteration (loom's entry
/// point runs it once per explored interleaving; here each iteration is
/// one randomized schedule). Override the iteration count with the
/// `HPCNET_MODEL_ITERS` environment variable.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iterations = std::env::var("HPCNET_MODEL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ITERATIONS);
    for iteration in 0..iterations as u64 {
        MODEL_SEED.store(
            0x9E37_79B9_7F4A_7C15u64.wrapping_mul(iteration + 1),
            SeedRelaxed,
        );
        RNG_STATE.with(|state| state.set(0));
        f();
    }
}

/// Thread spawning and yielding, mirroring `loom::thread`.
pub mod thread {
    pub use std::thread::{yield_now, JoinHandle};

    /// Spawn a thread, injecting a scheduling perturbation first.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        super::maybe_yield();
        std::thread::spawn(f)
    }
}

/// Synchronization primitives mirroring `loom::sync`.
pub mod sync {
    pub use std::sync::Arc;

    /// A mutex whose acquisitions perturb the schedule. The lock API
    /// mirrors `std` (and loom): `lock` returns a `LockResult`.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// A new unlocked mutex.
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Acquire the lock after a possible yield.
        pub fn lock(&self) -> std::sync::LockResult<std::sync::MutexGuard<'_, T>> {
            super::maybe_yield();
            self.0.lock()
        }
    }

    /// A condition variable for the shimmed [`Mutex`], mirroring
    /// `loom::sync::Condvar`: waits and notifications perturb the
    /// schedule.
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// A new condition variable.
        pub fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Release `guard`, block until notified, re-acquire.
        pub fn wait<'a, T>(
            &self,
            guard: std::sync::MutexGuard<'a, T>,
        ) -> std::sync::LockResult<std::sync::MutexGuard<'a, T>> {
            super::maybe_yield();
            self.0.wait(guard)
        }

        /// Wake every waiter after a possible yield.
        pub fn notify_all(&self) {
            super::maybe_yield();
            self.0.notify_all();
        }
    }

    /// Atomics whose every operation perturbs the schedule.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        macro_rules! shim_atomic {
            ($name:ident, $raw:path, $value:ty) => {
                /// Shimmed atomic: identical semantics to `std`, with a
                /// seeded scheduling perturbation before each operation.
                #[derive(Debug, Default)]
                pub struct $name($raw);

                impl $name {
                    /// A new atomic holding `value`.
                    pub const fn new(value: $value) -> Self {
                        $name(<$raw>::new(value))
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $value {
                        super::super::maybe_yield();
                        self.0.load(order)
                    }

                    /// Atomic store.
                    pub fn store(&self, value: $value, order: Ordering) {
                        super::super::maybe_yield();
                        self.0.store(value, order);
                    }

                    /// Atomic swap.
                    pub fn swap(&self, value: $value, order: Ordering) -> $value {
                        super::super::maybe_yield();
                        self.0.swap(value, order)
                    }

                    /// Atomic compare-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $value,
                        new: $value,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$value, $value> {
                        super::super::maybe_yield();
                        self.0.compare_exchange(current, new, success, failure)
                    }

                    /// Atomic compare-exchange, allowed to fail spuriously.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $value,
                        new: $value,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$value, $value> {
                        super::super::maybe_yield();
                        self.0.compare_exchange_weak(current, new, success, failure)
                    }
                }
            };
        }

        macro_rules! shim_atomic_arith {
            ($name:ident, $value:ty) => {
                impl $name {
                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, value: $value, order: Ordering) -> $value {
                        super::super::maybe_yield();
                        self.0.fetch_add(value, order)
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, value: $value, order: Ordering) -> $value {
                        super::super::maybe_yield();
                        self.0.fetch_sub(value, order)
                    }

                    /// Atomic max, returning the previous value.
                    pub fn fetch_max(&self, value: $value, order: Ordering) -> $value {
                        super::super::maybe_yield();
                        self.0.fetch_max(value, order)
                    }
                }
            };
        }

        shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        shim_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
        shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
        shim_atomic_arith!(AtomicU64, u64);
        shim_atomic_arith!(AtomicU32, u32);
        shim_atomic_arith!(AtomicUsize, usize);
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Arc, Mutex};

    #[test]
    fn model_runs_every_iteration() {
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = runs.clone();
        std::env::remove_var("HPCNET_MODEL_ITERS");
        super::model(move || {
            counted.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), super::DEFAULT_ITERATIONS);
    }

    #[test]
    fn shimmed_primitives_behave_like_std() {
        let total = Arc::new(AtomicUsize::new(0));
        let guarded = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let total = total.clone();
                let guarded = guarded.clone();
                super::thread::spawn(move || {
                    total.fetch_add(i, Ordering::SeqCst);
                    match guarded.lock() {
                        Ok(mut v) => v.push(i),
                        Err(poisoned) => poisoned.into_inner().push(i),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shim thread");
        }
        assert_eq!(total.load(Ordering::SeqCst), 6);
        match guarded.lock() {
            Ok(v) => assert_eq!(v.len(), 4),
            Err(_) => unreachable!("no panics while holding the lock"),
        };
    }
}
