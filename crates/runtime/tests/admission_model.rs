//! Model-checked serving protocol: pending-queue depth accounting and the
//! caller-combining rounds around it.
//!
//! The orchestrator has no serving thread: a caller that finds it idle
//! executes its request at once, any other caller puts its request in the
//! bounded pending queue and waits on a condition variable, and whichever
//! waiting caller gets an execution slot serves everything pending as one
//! round and files the answers (DESIGN.md §9/§10). This harness re-states
//! that protocol against the same two-harness setup as
//! `hpcnet-telemetry/tests/concurrency_model.rs`: the seeded stress shim
//! under plain `cargo test`, the real `loom` model checker under
//! `RUSTFLAGS="--cfg loom"` (the CI `loom` job).
//!
//! Invariants proved: the observed depth never exceeds the bound, every
//! attempt is either admitted or rejected (none double-counted or lost),
//! the queue drains to exactly zero once every admitted request
//! completes, no more rounds execute at once than there are slots — and
//! every caller returns, which is to say no wake-up is lost.

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

/// The depth accounting under test, isolated from the queue it counts: a
/// CAS-bounded depth with exact admitted/rejected/completed tallies. The
/// orchestrator moves its depth (the pending queue's length) under its
/// serving lock; the model proves the bound for the harder case of
/// racing lock-free admits, and [`Serving`] below counts with it.
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
// How a round comes to execute: at once when idle, else through the
// pending queue and a waiting caller that leads (DESIGN.md §9/§10).
// ---------------------------------------------------------------------

#[cfg(loom)]
use loom::sync::{Condvar, Mutex};

#[cfg(not(loom))]
use hpcnet_modelcheck::sync::{Condvar, Mutex};

/// Calls per caller thread: the model checker explores every
/// interleaving, the seeded shim samples them.
#[cfg(loom)]
const CALLS: u64 = 1;
#[cfg(not(loom))]
const CALLS: u64 = 3;

const CALLERS: u64 = 3;

/// What `ServingShared` keeps under its lock, requests reduced to their
/// tickets.
struct Pending {
    /// Admitted and not yet taken by a round, oldest first.
    queue: Vec<u64>,
    /// Executed and not yet collected by their owners.
    answered: Vec<u64>,
    next_ticket: u64,
    free_slots: u64,
    /// Callers blocked on `changed`.
    waiting: u64,
}

/// The serving protocol, isolated from the round itself. Mirrors
/// `Client::submit` over `ServingShared` in `src/{client,server}.rs`:
/// there is no thread but the callers'.
struct Serving {
    admission: Admission,
    workers: u64,
    pending: Mutex<Pending>,
    changed: Condvar,
    /// Rounds executing right now.
    executing: AtomicU64,
    inline: AtomicU64,
    served: AtomicU64,
}

impl Serving {
    fn new(workers: u64, bound: u64) -> Self {
        Serving {
            admission: Admission::new(bound),
            workers,
            pending: Mutex::new(Pending {
                queue: Vec::new(),
                answered: Vec::new(),
                next_ticket: 0,
                free_slots: workers,
                waiting: 0,
            }),
            changed: Condvar::new(),
            executing: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// One round of `requests` requests, holding a slot and not the lock:
    /// the invariant under test is that no more than `workers` of these
    /// ever overlap.
    fn execute(&self, requests: u64) {
        let now = self.executing.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(
            now <= self.workers,
            "{now} rounds executing with {} slots",
            self.workers
        );
        // relaxed: pure tally, read only after join.
        self.served.fetch_add(requests, Ordering::Relaxed);
        self.executing.fetch_sub(1, Ordering::AcqRel);
    }

    /// `SlotGuard::drop`: file the round's answers and free its slot in
    /// one critical section, then wake whoever waits.
    fn end_round(&self, round: &[u64]) {
        let mut pending = self.pending.lock().expect("serving lock");
        pending.answered.extend_from_slice(round);
        pending.free_slots += 1;
        let wake = pending.waiting > 0;
        drop(pending);
        if wake {
            self.changed.notify_all();
        }
    }

    /// `Client::submit` for one request: at once when idle; else take a
    /// queue place (or be rejected), then lead a round of everything
    /// pending whenever a slot is free, and wait while there is none,
    /// until the request has been answered.
    fn call(&self) {
        let mut pending = self.pending.lock().expect("serving lock");
        if pending.queue.is_empty() && pending.free_slots > 0 {
            pending.free_slots -= 1;
            drop(pending);
            // relaxed: pure tally, read only after join.
            self.inline.fetch_add(1, Ordering::Relaxed);
            self.execute(1);
            self.end_round(&[]);
            return;
        }
        // Under the lock, so the depth is the queue's length.
        if !self.admission.try_admit() {
            return;
        }
        let ticket = pending.next_ticket;
        pending.next_ticket += 1;
        pending.queue.push(ticket);
        loop {
            if let Some(at) = pending.answered.iter().position(|t| *t == ticket) {
                pending.answered.swap_remove(at);
                return;
            }
            if !pending.queue.is_empty() && pending.free_slots > 0 {
                pending.free_slots -= 1;
                // A request keeps its queue place until its round starts.
                let round = std::mem::take(&mut pending.queue);
                for _ in &round {
                    self.admission.complete();
                }
                drop(pending);
                self.execute(round.len() as u64);
                self.end_round(&round);
                pending = self.pending.lock().expect("serving lock");
                continue;
            }
            pending.waiting += 1;
            pending = self.changed.wait(pending).expect("serving lock");
            pending.waiting -= 1;
        }
    }
}

/// One slot throughout. A queue of one sheds the third caller; a queue of
/// two lets a leader serve another caller's request with its own.
#[test]
fn idle_and_queued_rounds_share_the_slots_and_every_caller_returns() {
    for bound in [1, 2] {
        model(move || {
            let serving = Arc::new(Serving::new(1, bound));
            let callers: Vec<_> = (0..CALLERS)
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
            // Joining is the liveness check: a caller whose wake-up was
            // lost never returns (loom reports the deadlock, the shim
            // hangs into the test timeout).
            for caller in callers {
                caller.join().expect("caller thread");
            }

            let admitted = serving.admission.admitted.load(Ordering::Relaxed);
            let rejected = serving.admission.rejected.load(Ordering::Relaxed);
            let inline = serving.inline.load(Ordering::Relaxed);
            assert_eq!(
                inline + admitted + rejected,
                CALLERS * CALLS,
                "every call ran at once, was queued, or was rejected — exactly once"
            );
            assert_eq!(
                serving.served.load(Ordering::Relaxed),
                inline + admitted,
                "every admitted request was executed exactly once"
            );
            assert_eq!(
                serving.admission.completed.load(Ordering::Relaxed),
                admitted,
                "every admitted request left the queue when its round started"
            );
            assert_eq!(serving.admission.depth.load(Ordering::Relaxed), 0);
            assert_eq!(serving.executing.load(Ordering::Relaxed), 0);
            let pending = serving.pending.lock().expect("serving lock");
            assert!(pending.queue.is_empty() && pending.answered.is_empty());
            assert_eq!(pending.free_slots, 1);
            assert_eq!(pending.waiting, 0);
        });
    }
}
