//! Bounded and unbounded MPMC channels over a `Mutex<VecDeque>` and two
//! condition variables. Same blocking, disconnect and error semantics
//! as `crossbeam::channel` for capacities of one or more; a capacity of
//! zero (a rendezvous channel) is not offered and panics.
//!
//! A blocked receiver parks at once, where crossbeam first spins and
//! yields for a few microseconds: the benchmark pins the process to one
//! CPU, and there a spinning receiver only keeps the sender from
//! running. A sender skips the wake-up call while no receiver is parked.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `not_empty`.
    parked: usize,
    /// Senders blocked on `not_full`.
    blocked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    /// Every update leaves the queue and the counts valid at each step,
    /// so a lock poisoned by a panicking peer is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_full(&self, state: &State<T>) -> bool {
        self.capacity.is_some_and(|cap| state.queue.len() >= cap)
    }

    /// Enqueue under the held lock, then wake a receiver if one is parked.
    fn push(&self, mut state: MutexGuard<'_, State<T>>, msg: T) {
        state.queue.push_back(msg);
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
    }
}

pub struct Sender<T>(Arc<Shared<T>>);
pub struct Receiver<T>(Arc<Shared<T>>);

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.unwrap_or(0).min(1024)),
            senders: 1,
            receivers: 1,
            parked: 0,
            blocked: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(shared.clone()), Receiver(shared))
}

/// A channel holding at most `capacity` messages.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(
        capacity > 0,
        "stand-in channel: rendezvous (capacity 0) is not offered"
    );
    channel(Some(capacity))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl<T> std::error::Error for SendError<T> {}
impl<T> std::error::Error for TrySendError<T> {}
impl std::error::Error for RecvError {}
impl std::error::Error for TryRecvError {}
impl std::error::Error for RecvTimeoutError {}

impl<T> Sender<T> {
    /// Block until there is room, then enqueue.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.0.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            if !self.0.is_full(&state) {
                self.0.push(state, msg);
                return Ok(());
            }
            state.blocked += 1;
            state = self
                .0
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.blocked -= 1;
        }
    }

    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let state = self.0.lock();
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if self.0.is_full(&state) {
            return Err(TrySendError::Full(msg));
        }
        self.0.push(state, msg);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> Option<usize> {
        self.0.capacity
    }
}

impl<T> Receiver<T> {
    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let msg = state.queue.pop_front()?;
        if state.blocked > 0 {
            self.0.not_full.notify_one();
        }
        Some(msg)
    }

    /// Park on `not_empty`, counted so senders know to wake someone.
    fn park<'a>(
        &self,
        mut state: MutexGuard<'a, State<T>>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, State<T>> {
        state.parked += 1;
        let mut state = match timeout {
            Some(t) => {
                self.0
                    .not_empty
                    .wait_timeout(state, t)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => self
                .0
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner),
        };
        state.parked -= 1;
        state
    }

    /// Block until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.lock();
        loop {
            if let Some(msg) = self.pop(&mut state) {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.park(state, None);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.lock();
        match self.pop(&mut state) {
            Some(msg) => Ok(msg),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.recv_deadline(deadline),
            None => self.recv().map_err(|_| RecvTimeoutError::Disconnected),
        }
    }

    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut state = self.0.lock();
        loop {
            if let Some(msg) = self.pop(&mut state) {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            state = self.park(state, Some(left));
        }
    }

    /// Blocking iterator that ends when the channel disconnects.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }

    /// Non-blocking iterator over what is queued right now.
    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.try_recv().ok())
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> Option<usize> {
        self.0.capacity
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            // As in crossbeam, messages nobody can receive are dropped now.
            let orphaned = std::mem::take(&mut state.queue);
            drop(state);
            drop(orphaned);
            self.0.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_applies_backpressure_and_reports_disconnects() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(matches!(tx.try_send(1), Err(TrySendError::Disconnected(1))));
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn many_producers_many_consumers_deliver_each_message_once() {
        let (tx, rx) = bounded::<u64>(4);
        let total: u64 = std::thread::scope(|s| {
            for p in 0..3u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                });
            }
            drop(tx);
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || rx.iter().sum::<u64>())
                })
                .collect();
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(total, (0..300).sum::<u64>());
    }
}
