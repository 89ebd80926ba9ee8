//! The in-memory keyed tensor store (the Redis substitute), and the
//! validated [`TensorKey`] used at the client/server boundary.
//!
//! The store is unbounded by default (the historical behavior). A
//! long-running server fronting remote clients should cap it with
//! [`TensorStore::with_max_entries`]: inserts beyond the cap evict the
//! least-recently-used key, where both inserts and reads count as use.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use hpcnet_tensor::Csr;
use parking_lot::RwLock;

use crate::{Result, RuntimeError};

/// Maximum accepted tensor-key length in bytes.
pub const MAX_KEY_BYTES: usize = 512;

/// Most elements a sparse tensor's dense form may have where the runtime
/// builds one: [`TensorStore::get_dense`], the guard's dense view and the
/// feature row of a model without an autoencoder. 64 MiB of `f64`s — what
/// one wire frame can carry, so every tensor a remote client could put
/// dense it can also get dense. A sparse tensor's shape arrives from
/// outside (a 42-byte `PUT_SPARSE` may declare 2^32 columns); its dense
/// size is bounded here before anything is allocated for it.
pub const MAX_DENSE_ELEMS: usize = (64 << 20) / 8;

/// Element count of `tensor`'s dense form, or a typed error when it is
/// over [`MAX_DENSE_ELEMS`].
pub(crate) fn dense_len(tensor: &Csr) -> Result<usize> {
    tensor
        .nrows()
        .checked_mul(tensor.ncols())
        .filter(|&n| n <= MAX_DENSE_ELEMS)
        .ok_or_else(|| {
            RuntimeError::Inference(format!(
                "the dense form of a {} x {} sparse tensor exceeds {MAX_DENSE_ELEMS} elements",
                tensor.nrows(),
                tensor.ncols()
            ))
        })
}

/// `tensor`'s dense form (row-major), bounded by [`dense_len`].
pub(crate) fn densify(tensor: &Csr) -> Result<Vec<f64>> {
    let mut dense = vec![0.0; dense_len(tensor)?];
    tensor.scatter_into(&mut dense);
    Ok(dense)
}

/// A validated tensor key: non-empty and at most [`MAX_KEY_BYTES`] bytes.
///
/// The redesigned client/orchestrator API moves key validation to the
/// boundary: requests travel through the serving path carrying `TensorKey`s
/// that are known-good, so the hot path never re-checks them.
///
/// ```
/// use hpcnet_runtime::TensorKey;
/// let key = TensorKey::new("input_feature").unwrap();
/// assert_eq!(key.as_str(), "input_feature");
/// assert!(TensorKey::new("").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorKey(String);

impl TensorKey {
    /// Validate and wrap a key.
    pub fn new(key: impl Into<String>) -> Result<Self> {
        let key = key.into();
        if key.is_empty() {
            return Err(RuntimeError::InvalidKey("empty key".into()));
        }
        if key.len() > MAX_KEY_BYTES {
            return Err(RuntimeError::InvalidKey(format!(
                "key is {} bytes, max {MAX_KEY_BYTES}",
                key.len()
            )));
        }
        Ok(TensorKey(key))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TensorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TensorKey {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl TryFrom<&str> for TensorKey {
    type Error = RuntimeError;

    fn try_from(s: &str) -> Result<Self> {
        TensorKey::new(s)
    }
}

impl From<TensorKey> for String {
    fn from(k: TensorKey) -> String {
        k.0
    }
}

/// A tensor value: either a dense vector or a CSR single-row sparse
/// tensor (the store is format-agnostic, like RedisAI with a sparse
/// module loaded).
#[derive(Debug, Clone)]
pub enum TensorValue {
    /// Dense row.
    Dense(Vec<f64>),
    /// Sparse row (CSR with one row).
    Sparse(Csr),
}

impl TensorValue {
    /// Logical width of the tensor.
    pub fn width(&self) -> usize {
        match self {
            TensorValue::Dense(v) => v.len(),
            TensorValue::Sparse(c) => c.ncols(),
        }
    }
}

/// One stored tensor plus its recency stamp (for LRU eviction).
#[derive(Debug)]
struct Slot {
    value: TensorValue,
    tick: u64,
}

/// The store's guts: the key → value map, a recency index (tick → key,
/// oldest first), the monotonically increasing tick, and the optional
/// entry cap.
#[derive(Debug, Default)]
struct StoreInner {
    entries: HashMap<String, Slot>,
    order: BTreeMap<u64, String>,
    tick: u64,
    max_entries: Option<usize>,
}

impl StoreInner {
    /// Stamp a slot as most-recently-used, keeping `order` in sync.
    fn touch(&mut self, key: &str) {
        if let Some(slot) = self.entries.get_mut(key) {
            self.order.remove(&slot.tick);
            self.tick += 1;
            slot.tick = self.tick;
            self.order.insert(self.tick, key.to_string());
        }
    }

    fn insert(&mut self, key: &str, value: TensorValue) {
        if let Some(old) = self.entries.get(key) {
            self.order.remove(&old.tick);
        }
        self.tick += 1;
        self.order.insert(self.tick, key.to_string());
        self.entries.insert(
            key.to_string(),
            Slot {
                value,
                tick: self.tick,
            },
        );
        if let Some(cap) = self.max_entries {
            // The just-inserted key carries the newest tick, so it is
            // never the eviction victim even when cap == 1.
            while self.entries.len() > cap {
                let Some((&oldest, _)) = self.order.iter().next() else {
                    break;
                };
                if let Some(victim) = self.order.remove(&oldest) {
                    self.entries.remove(&victim);
                }
            }
        }
    }

    fn remove(&mut self, key: &str) -> bool {
        match self.entries.remove(key) {
            Some(slot) => {
                self.order.remove(&slot.tick);
                true
            }
            None => false,
        }
    }
}

/// Thread-safe keyed tensor storage shared by clients and the server.
#[derive(Debug, Clone, Default)]
pub struct TensorStore {
    inner: Arc<RwLock<StoreInner>>,
}

impl TensorStore {
    /// Fresh empty store with no entry cap.
    pub fn new() -> Self {
        TensorStore::default()
    }

    /// Fresh empty store holding at most `cap` tensors (clamped to ≥ 1):
    /// inserting beyond the cap evicts the least-recently-used key.
    /// Reads through [`TensorStore::get`]/[`TensorStore::get_dense`]
    /// count as use.
    pub fn with_max_entries(cap: usize) -> Self {
        let store = TensorStore::default();
        store.inner.write().max_entries = Some(cap.max(1));
        store
    }

    /// The entry cap, if one was set.
    pub fn max_entries(&self) -> Option<usize> {
        self.inner.read().max_entries
    }

    /// Store a dense tensor under a key (overwrites).
    pub fn put_dense(&self, key: &str, value: Vec<f64>) {
        self.inner.write().insert(key, TensorValue::Dense(value));
    }

    /// Store a sparse tensor under a key (overwrites).
    pub fn put_sparse(&self, key: &str, value: Csr) {
        self.inner.write().insert(key, TensorValue::Sparse(value));
    }

    /// Fetch a tensor by key. On a capped store this refreshes the key's
    /// recency (and therefore takes the write lock).
    pub fn get(&self, key: &str) -> Result<TensorValue> {
        self.read_entry(key, |value| Ok(value.clone()))
    }

    /// Fetch a dense tensor, densifying a sparse one if needed — straight
    /// from the stored entry, and only up to [`MAX_DENSE_ELEMS`] elements.
    pub fn get_dense(&self, key: &str) -> Result<Vec<f64>> {
        self.read_entry(key, |value| match value {
            TensorValue::Dense(v) => Ok(v.clone()),
            TensorValue::Sparse(c) => densify(c),
        })
    }

    /// Run `read` on the entry under `key`, in place under the lock. A
    /// read counts as use: on a capped store it refreshes the key's
    /// recency, which takes the write lock.
    fn read_entry<T>(&self, key: &str, read: impl FnOnce(&TensorValue) -> Result<T>) -> Result<T> {
        let missing = || RuntimeError::MissingTensor(key.to_string());
        if self.max_entries().is_some() {
            let mut inner = self.inner.write();
            inner.touch(key);
            return read(&inner.entries.get(key).ok_or_else(missing)?.value);
        }
        let inner = self.inner.read();
        read(&inner.entries.get(key).ok_or_else(missing)?.value)
    }

    /// Remove a tensor; returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        self.inner.write().remove(key)
    }

    /// Number of stored tensors.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_tensor::Coo;

    #[test]
    fn tensor_key_validation() {
        assert!(TensorKey::new("ok").is_ok());
        assert_eq!(
            TensorKey::new(""),
            Err(RuntimeError::InvalidKey("empty key".into()))
        );
        let long = "k".repeat(MAX_KEY_BYTES + 1);
        assert!(matches!(
            TensorKey::new(long),
            Err(RuntimeError::InvalidKey(_))
        ));
        let k = TensorKey::try_from("x").unwrap();
        assert_eq!(k.to_string(), "x");
        assert_eq!(String::from(k), "x");
    }

    #[test]
    fn put_get_roundtrip() {
        let store = TensorStore::new();
        store.put_dense("x", vec![1.0, 2.0]);
        assert_eq!(store.get_dense("x").unwrap(), vec![1.0, 2.0]);
        assert_eq!(store.len(), 1);
        assert!(store.delete("x"));
        assert!(store.is_empty());
    }

    #[test]
    fn missing_key_errors() {
        let store = TensorStore::new();
        assert_eq!(
            store.get_dense("ghost"),
            Err(RuntimeError::MissingTensor("ghost".into()))
        );
    }

    #[test]
    fn sparse_tensor_densifies_on_demand() {
        let store = TensorStore::new();
        let mut coo = Coo::new(1, 5);
        coo.push(0, 2, 7.0);
        store.put_sparse("s", coo.to_csr());
        assert_eq!(store.get_dense("s").unwrap(), vec![0.0, 0.0, 7.0, 0.0, 0.0]);
        let v = store.get("s").unwrap();
        assert_eq!(v.width(), 5);
    }

    #[test]
    fn dense_forms_over_the_element_cap_are_refused_before_allocation() {
        let empty = |nrows: usize, ncols: usize| {
            Csr::from_raw(nrows, ncols, vec![0; nrows + 1], vec![], vec![]).unwrap()
        };
        assert_eq!(dense_len(&empty(1, MAX_DENSE_ELEMS)), Ok(MAX_DENSE_ELEMS));
        assert_eq!(
            dense_len(&empty(2, MAX_DENSE_ELEMS / 2)),
            Ok(MAX_DENSE_ELEMS)
        );
        assert!(dense_len(&empty(1, MAX_DENSE_ELEMS + 1)).is_err());
        // A product that does not fit a `usize` is over the cap too.
        assert!(dense_len(&empty(3, usize::MAX / 2)).is_err());

        // What a 42-byte `PUT_SPARSE` can declare: 32 GiB when dense.
        let store = TensorStore::new();
        store.put_sparse("wide", empty(1, u32::MAX as usize));
        assert!(matches!(
            store.get_dense("wide"),
            Err(RuntimeError::Inference(m)) if m.contains("exceeds")
        ));
        // The tensor itself is still served in its stored form.
        assert_eq!(store.get("wide").unwrap().width(), u32::MAX as usize);
    }

    #[test]
    fn capped_store_evicts_least_recently_used() {
        let store = TensorStore::with_max_entries(3);
        assert_eq!(store.max_entries(), Some(3));
        store.put_dense("a", vec![1.0]);
        store.put_dense("b", vec![2.0]);
        store.put_dense("c", vec![3.0]);
        // Touch "a" so "b" becomes the LRU victim.
        store.get_dense("a").unwrap();
        store.put_dense("d", vec![4.0]);
        assert_eq!(store.len(), 3);
        assert!(store.get_dense("b").is_err(), "LRU key evicted");
        for k in ["a", "c", "d"] {
            assert!(store.get_dense(k).is_ok(), "key {k} survives");
        }
    }

    #[test]
    fn capped_store_overwrite_does_not_evict() {
        let store = TensorStore::with_max_entries(2);
        store.put_dense("a", vec![1.0]);
        store.put_dense("b", vec![2.0]);
        store.put_dense("a", vec![9.0]); // overwrite, len stays 2
        assert_eq!(store.len(), 2);
        assert_eq!(store.get_dense("a").unwrap(), vec![9.0]);
        assert_eq!(store.get_dense("b").unwrap(), vec![2.0]);
        // cap == 1 never evicts the key being inserted.
        let one = TensorStore::with_max_entries(0); // clamped to 1
        one.put_dense("x", vec![1.0]);
        one.put_dense("y", vec![2.0]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.get_dense("y").unwrap(), vec![2.0]);
    }

    #[test]
    fn delete_keeps_recency_index_consistent() {
        let store = TensorStore::with_max_entries(2);
        store.put_dense("a", vec![1.0]);
        store.put_dense("b", vec![2.0]);
        assert!(store.delete("a"));
        assert!(!store.delete("a"));
        store.put_dense("c", vec![3.0]);
        store.put_dense("d", vec![4.0]);
        assert_eq!(store.len(), 2);
        assert!(store.get_dense("b").is_err(), "b was the LRU entry");
        assert!(store.get_dense("c").is_ok());
        assert!(store.get_dense("d").is_ok());
    }

    #[test]
    fn concurrent_writers_land_consistently() {
        let store = TensorStore::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = store.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        s.put_dense(&format!("k{t}_{i}"), vec![t as f64, i as f64]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
        assert_eq!(store.get_dense("k3_7").unwrap(), vec![3.0, 7.0]);
    }
}
