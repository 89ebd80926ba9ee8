//! Offline stand-in for the subset of `parking_lot` that the repository
//! uses: `Mutex` and `RwLock` whose lock methods return the guard
//! directly and which do not poison.
//!
//! The lock state lives in an `Arc`, apart from the protected data, and
//! a guard owns a clone of it. That way a guard's destructor touches no
//! borrowed memory, so a guard may be the last temporary of a block's
//! tail expression and be dropped after the locals it was reached
//! through (`crates/online/src/replay.rs`, `ReplayBuffer::push`, relies
//! on this; see perfbench/README.md, "Stand-in crates").

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, PoisonError, TryLockError};

type RawMutex = std::sync::Mutex<()>;
type RawRwLock = std::sync::RwLock<()>;

/// A held std guard together with the `Arc` that owns its lock.
struct Held<G> {
    // Declared first, so it is dropped (unlocking) before `_owner` can
    // free the lock it points into.
    _guard: G,
    _owner: Arc<dyn Send + Sync>,
}

pub struct Mutex<T: ?Sized> {
    raw: Arc<RawMutex>,
    data: UnsafeCell<T>,
}

// SAFETY: as for `std::sync::Mutex`: the lock serialises every access to
// `data`, so sharing the mutex only ever moves `T` between threads.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: see above.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T: ?Sized> {
    data: &'a mut T,
    _held: Held<std::sync::MutexGuard<'static, ()>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            raw: Arc::new(RawMutex::new(())),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn guard<'a>(&'a self, guard: std::sync::MutexGuard<'a, ()>) -> MutexGuard<'a, T> {
        // SAFETY: the guard points into the heap allocation of
        // `self.raw`. `Held` keeps a clone of that `Arc` and drops the
        // guard before the clone, so the lock outlives the guard even
        // if this `Mutex` is dropped first.
        let guard = unsafe {
            std::mem::transmute::<std::sync::MutexGuard<'a, ()>, std::sync::MutexGuard<'static, ()>>(
                guard,
            )
        };
        MutexGuard {
            // SAFETY: the raw lock is held, so this is the only live
            // reference to the data until the guard is dropped.
            data: unsafe { &mut *self.data.get() },
            _held: Held {
                _guard: guard,
                _owner: self.raw.clone(),
            },
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.guard(self.raw.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.raw.try_lock() {
            Ok(g) => Some(self.guard(g)),
            Err(TryLockError::Poisoned(p)) => Some(self.guard(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

pub struct RwLock<T: ?Sized> {
    raw: Arc<RawRwLock>,
    data: UnsafeCell<T>,
}

// SAFETY: as for `std::sync::RwLock`: writers are exclusive and readers
// only share `&T`, which needs `T: Sync`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: see above.
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    data: &'a T,
    _held: Held<std::sync::RwLockReadGuard<'static, ()>>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    data: &'a mut T,
    _held: Held<std::sync::RwLockWriteGuard<'static, ()>>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            raw: Arc::new(RawRwLock::new(())),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn read_guard<'a>(
        &'a self,
        guard: std::sync::RwLockReadGuard<'a, ()>,
    ) -> RwLockReadGuard<'a, T> {
        // SAFETY: as in `Mutex::guard`: `Held` keeps the lock's `Arc`
        // alive until after the guard is dropped.
        let guard = unsafe {
            std::mem::transmute::<
                std::sync::RwLockReadGuard<'a, ()>,
                std::sync::RwLockReadGuard<'static, ()>,
            >(guard)
        };
        RwLockReadGuard {
            // SAFETY: a read lock is held, so no `&mut T` exists.
            data: unsafe { &*self.data.get() },
            _held: Held {
                _guard: guard,
                _owner: self.raw.clone(),
            },
        }
    }

    fn write_guard<'a>(
        &'a self,
        guard: std::sync::RwLockWriteGuard<'a, ()>,
    ) -> RwLockWriteGuard<'a, T> {
        // SAFETY: as in `Mutex::guard`.
        let guard = unsafe {
            std::mem::transmute::<
                std::sync::RwLockWriteGuard<'a, ()>,
                std::sync::RwLockWriteGuard<'static, ()>,
            >(guard)
        };
        RwLockWriteGuard {
            // SAFETY: the write lock is held, so this is the only live
            // reference to the data until the guard is dropped.
            data: unsafe { &mut *self.data.get() },
            _held: Held {
                _guard: guard,
                _owner: self.raw.clone(),
            },
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.read_guard(self.raw.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.write_guard(self.raw.write().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.raw.try_read() {
            Ok(g) => Some(self.read_guard(g)),
            Err(TryLockError::Poisoned(p)) => Some(self.read_guard(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.raw.try_write() {
            Ok(g) => Some(self.write_guard(g)),
            Err(TryLockError::Poisoned(p)) => Some(self.write_guard(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn locks_hand_out_guards_and_survive_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        *m.lock() += 1;
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 2);

        let rw = RwLock::new(vec![1]);
        rw.write().push(2);
        assert_eq!(rw.read().len(), 2);
        assert!(rw.try_write().is_some());
        let _r = rw.read();
        assert!(rw.try_write().is_none());
    }

    /// The shape `ReplayBuffer::push` has: the inner guard is a
    /// temporary of the tail expression and outlives the outer guard.
    fn nested_tail(outer: &RwLock<HashMap<String, Mutex<Vec<u32>>>>) -> usize {
        let mut shards = outer.write();
        shards
            .entry("a".to_string())
            .or_insert_with(|| Mutex::new(vec![7]))
            .lock()
            .len()
    }

    #[test]
    fn a_guard_may_outlive_the_guard_it_was_reached_through() {
        let outer = RwLock::new(HashMap::new());
        assert_eq!(nested_tail(&outer), 1);
        // Both locks were released.
        assert!(outer.try_write().is_some());
        assert!(outer.read()["a"].try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion_holds_across_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 40_000);
    }
}
