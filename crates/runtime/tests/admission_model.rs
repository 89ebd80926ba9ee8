//! Model-checked admission-queue depth accounting.
//!
//! The orchestrator bounds its queue with a CAS loop over an atomic depth
//! counter (admit = compare-exchange up, complete = fetch-sub down). This
//! harness re-states that protocol against the same two-harness setup as
//! `hpcnet-telemetry/tests/concurrency_model.rs`: the seeded stress shim
//! under plain `cargo test`, the real `loom` model checker under
//! `RUSTFLAGS="--cfg loom"` (the CI `loom` job).
//!
//! Invariants proved: the observed depth never exceeds the bound, every
//! attempt is either admitted or rejected (none double-counted or lost),
//! and the queue drains to exactly zero once every admitted request
//! completes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[cfg(loom)]
use loom::{
    model,
    sync::atomic::{AtomicU64, Ordering},
    sync::Arc,
    thread,
};

#[cfg(not(loom))]
use hpcnet_modelcheck::{
    model,
    sync::atomic::{AtomicU64, Ordering},
    sync::Arc,
    thread,
};

/// The admission protocol under test, isolated from the channel plumbing:
/// a CAS-bounded depth counter with exact admitted/rejected/completed
/// tallies. Mirrors the orchestrator's bounded-queue accounting.
struct Admission {
    depth: AtomicU64,
    bound: u64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
}

impl Admission {
    fn new(bound: u64) -> Self {
        Admission {
            depth: AtomicU64::new(0),
            bound,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// Try to take one queue slot. The CAS loop means two racing admits
    /// can never both squeeze into the last slot.
    fn try_admit(&self) -> bool {
        // relaxed: optimistic first read; the CAS below re-validates.
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= self.bound {
                // relaxed: pure tally, read only after all threads join.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // relaxed: pure tally, read only after join.
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Release the slot taken by a successful `try_admit`.
    fn complete(&self) {
        // relaxed: pure tally, read only after join.
        self.completed.fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire CAS in `try_admit`: an admit that
        // reuses this slot observes the completed request's effects.
        let prev = self.depth.fetch_sub(1, Ordering::Release);
        assert!(prev >= 1, "queue depth underflow");
    }
}

#[test]
fn admission_depth_never_exceeds_bound() {
    model(|| {
        let adm = Arc::new(Admission::new(1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let adm = adm.clone();
                thread::spawn(move || {
                    for _ in 0..2 {
                        // relaxed: advisory read for the assertion only.
                        let seen = adm.depth.load(Ordering::Relaxed);
                        assert!(seen <= adm.bound, "depth {seen} above bound");
                        if adm.try_admit() {
                            adm.complete();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("admission thread");
        }
        let admitted = adm.admitted.load(Ordering::Relaxed);
        let rejected = adm.rejected.load(Ordering::Relaxed);
        let completed = adm.completed.load(Ordering::Relaxed);
        assert_eq!(
            admitted + rejected,
            4,
            "every attempt is admitted or rejected, exactly once"
        );
        assert_eq!(completed, admitted, "every admit completes");
        assert_eq!(adm.depth.load(Ordering::Relaxed), 0, "queue drains to zero");
    });
}

#[test]
fn full_queue_rejects_rather_than_overshoots() {
    model(|| {
        let adm = Arc::new(Admission::new(1));
        assert!(adm.try_admit(), "empty queue admits");
        let racer = {
            let adm = adm.clone();
            thread::spawn(move || adm.try_admit())
        };
        let raced = racer.join().expect("racing admit");
        if raced {
            // The racer can only have won a slot the holder released —
            // impossible here: the holder never completes before the join.
            panic!("second admit fit into a full depth-1 queue");
        }
        assert_eq!(adm.depth.load(Ordering::Relaxed), 1);
        adm.complete();
        assert_eq!(adm.depth.load(Ordering::Relaxed), 0);
        assert!(adm.try_admit(), "released slot is reusable");
    });
}

// ---------------------------------------------------------------------
// Who executes: the idle rule, the execution slots, and when a queued
// request gives its queue place back (DESIGN.md §9/§10).
// ---------------------------------------------------------------------

#[cfg(loom)]
use loom::sync::Mutex;

#[cfg(not(loom))]
use hpcnet_modelcheck::sync::Mutex;

/// Calls per caller thread: the model checker explores every
/// interleaving, the seeded shim samples them.
#[cfg(loom)]
const CALLS: u64 = 1;
#[cfg(not(loom))]
const CALLS: u64 = 3;

/// The serving protocol around [`Admission`], isolated from the channel
/// and the round itself. A caller that observes an idle orchestrator
/// (nothing queued) *tries* for an execution slot and runs inline;
/// otherwise it takes a queue place and hands the request over. A worker
/// receives a request, *waits* for a slot, and only then — when the round
/// starts executing — gives the queue place back. Mirrors
/// `ServingShared` + `ExecutionSlots` in `src/server.rs`.
struct Serving {
    admission: Admission,
    workers: u64,
    /// Free execution slots, under the lock `ExecutionSlots` keeps them.
    free_slots: Mutex<u64>,
    /// Requests handed to the channel and not yet received by a worker.
    in_channel: AtomicU64,
    /// Rounds executing right now, inline ones included.
    executing: AtomicU64,
    inline: AtomicU64,
    served: AtomicU64,
    /// No caller will hand over another request.
    closed: AtomicU64,
}

impl Serving {
    fn new(workers: u64, bound: u64) -> Self {
        Serving {
            admission: Admission::new(bound),
            workers,
            free_slots: Mutex::new(workers),
            in_channel: AtomicU64::new(0),
            executing: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            served: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        }
    }

    fn try_slot(&self) -> bool {
        let mut free = self.free_slots.lock().expect("slot lock");
        if *free == 0 {
            return false;
        }
        *free -= 1;
        true
    }

    /// One round, holding a slot: the invariant under test is that no
    /// more than `workers` of these ever overlap.
    fn execute_and_release(&self) {
        let now = self.executing.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(
            now <= self.workers,
            "{now} rounds executing with {} slots",
            self.workers
        );
        // relaxed: pure tally, read only after join.
        self.served.fetch_add(1, Ordering::Relaxed);
        self.executing.fetch_sub(1, Ordering::AcqRel);
        *self.free_slots.lock().expect("slot lock") += 1;
    }

    /// `Client::submit`: inline when idle, else through the queue.
    fn call(&self) {
        if self.admission.depth.load(Ordering::Acquire) == 0 && self.try_slot() {
            // relaxed: pure tally, read only after join.
            self.inline.fetch_add(1, Ordering::Relaxed);
            self.execute_and_release();
        } else if self.admission.try_admit() {
            self.in_channel.fetch_add(1, Ordering::Release);
        }
    }

    /// `worker_loop`: receive, wait for a slot, leave the queue, execute.
    fn work(&self) {
        loop {
            // Read `closed` first: the drain sentinel is queued behind
            // every admitted request, so a worker that sees it has seen
            // them all.
            let closed = self.closed.load(Ordering::Acquire) == 1;
            let waiting = self.in_channel.load(Ordering::Acquire);
            if waiting == 0 {
                if closed {
                    return;
                }
                thread::yield_now();
                continue;
            }
            if self
                .in_channel
                .compare_exchange(waiting, waiting - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // The request keeps its queue place while the worker waits.
            while !self.try_slot() {
                // relaxed: advisory read for the assertion only.
                let depth = self.admission.depth.load(Ordering::Relaxed);
                assert!(depth >= 1, "a held request must still occupy the queue");
                thread::yield_now();
            }
            self.admission.complete();
            self.execute_and_release();
        }
    }
}

#[test]
fn inline_and_queued_rounds_share_the_slots_and_the_queue_drains() {
    model(|| {
        let serving = Arc::new(Serving::new(1, 1));
        let worker = {
            let serving = serving.clone();
            thread::spawn(move || serving.work())
        };
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let serving = serving.clone();
                thread::spawn(move || {
                    for _ in 0..CALLS {
                        // relaxed: advisory read for the assertion only.
                        let seen = serving.admission.depth.load(Ordering::Relaxed);
                        assert!(seen <= serving.admission.bound, "depth {seen} above bound");
                        serving.call();
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread");
        }
        serving.closed.store(1, Ordering::Release);
        worker.join().expect("worker thread");

        let admitted = serving.admission.admitted.load(Ordering::Relaxed);
        let rejected = serving.admission.rejected.load(Ordering::Relaxed);
        let inline = serving.inline.load(Ordering::Relaxed);
        assert_eq!(
            inline + admitted + rejected,
            2 * CALLS,
            "every call ran inline, was queued, or was rejected — exactly once"
        );
        assert_eq!(
            serving.served.load(Ordering::Relaxed),
            inline + admitted,
            "every inline and every admitted request was executed"
        );
        assert_eq!(
            serving.admission.completed.load(Ordering::Relaxed),
            admitted,
            "every admitted request left the queue when its round started"
        );
        assert_eq!(serving.admission.depth.load(Ordering::Relaxed), 0);
        assert_eq!(serving.executing.load(Ordering::Relaxed), 0);
        assert_eq!(*serving.free_slots.lock().expect("slot lock"), 1);
    });
}
