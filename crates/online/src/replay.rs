//! Bounded per-model replay buffers with reservoir-style eviction.
//!
//! The producer is the orchestrator's guard-fallback path (already slow:
//! it just re-ran the exact solver), the consumer is the background
//! fine-tuner's [`drain`](ReplayBuffer::drain). Contention is kept cheap
//! with a read-mostly shard map plus one mutex per model, so concurrent
//! producers for different models never serialize on each other.
//!
//! Eviction is Algorithm R reservoir sampling over everything offered
//! since the last drain: once a model's buffer is full, the `n`-th offer
//! survives with probability `capacity / n` and replaces a uniformly
//! chosen victim. Retained samples are therefore a uniform subsample of
//! the whole fallback stream — a hot input region that floods the buffer
//! cannot starve the tail of the distribution.

use std::collections::HashMap;

use parking_lot::{Mutex, RwLock};

/// One labeled training sample captured on a guard fallback.
///
/// `input` is the feature row exactly as it was fed to the surrogate
/// (post-encode, post-scaling); `target` is the exact solver's output in
/// the surrogate's training space (standardized when the bundle carries
/// an output scaler). Capturing in model space means a fine-tuned
/// candidate needs no new scalers: it serves behind the same bundle
/// transforms as the net it replaces.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature row as fed to the surrogate.
    pub input: Vec<f64>,
    /// Exact-solver output in the surrogate's output space.
    pub target: Vec<f64>,
}

/// Cumulative accounting for one model's buffer. The conservation
/// invariant `pushed == live + dropped + drained` always holds (pinned
/// by proptest): every offered sample is either still buffered, was
/// dropped by the reservoir, or left through a drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Samples offered via [`ReplayBuffer::push`].
    pub pushed: u64,
    /// Samples currently buffered.
    pub live: u64,
    /// Samples the reservoir dropped (the incoming offer or its victim —
    /// exactly one per offer once the buffer is full).
    pub dropped: u64,
    /// Samples handed to the consumer via [`ReplayBuffer::drain`].
    pub drained: u64,
}

/// One model's reservoir plus its RNG and accounting.
struct ModelBuffer {
    items: Vec<Sample>,
    /// Offers since the last drain — the `n` of Algorithm R.
    seen_since_drain: u64,
    pushed: u64,
    dropped: u64,
    drained: u64,
    /// xorshift64 state, seeded from the model name so eviction is
    /// deterministic per model and independent across models.
    rng: u64,
}

impl ModelBuffer {
    fn new(model: &str) -> Self {
        ModelBuffer {
            items: Vec::new(),
            seen_since_drain: 0,
            pushed: 0,
            dropped: 0,
            drained: 0,
            rng: seed_from(model),
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn push(&mut self, capacity: usize, sample: Sample) -> bool {
        self.pushed += 1;
        self.seen_since_drain += 1;
        if self.items.len() < capacity {
            self.items.push(sample);
            return true;
        }
        // Algorithm R: offer n survives with probability capacity/n,
        // displacing a uniform victim, so the reservoir stays a uniform
        // subsample of everything seen since the last drain.
        let j = self.next_rand() % self.seen_since_drain;
        let replaced = (j as usize) < capacity;
        if replaced {
            self.items[j as usize] = sample;
        }
        self.dropped += 1;
        replaced
    }

    fn drain(&mut self) -> Vec<Sample> {
        self.drained += self.items.len() as u64;
        self.seen_since_drain = 0;
        std::mem::take(&mut self.items)
    }

    fn stats(&self) -> ReplayStats {
        ReplayStats {
            pushed: self.pushed,
            live: self.items.len() as u64,
            dropped: self.dropped,
            drained: self.drained,
        }
    }
}

/// FNV-1a over the model name, forced odd so xorshift never sees zero.
fn seed_from(model: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in model.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h | 1
}

/// The multi-model replay store shared between the fallback path and the
/// retrainer thread.
pub struct ReplayBuffer {
    capacity: usize,
    shards: RwLock<HashMap<String, Mutex<ModelBuffer>>>,
}

impl ReplayBuffer {
    /// A buffer holding up to `capacity` samples per model (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            capacity: capacity.max(1),
            shards: RwLock::new(HashMap::new()),
        }
    }

    /// Per-model capacity this buffer was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer one sample for `model`. Returns whether the sample entered
    /// the reservoir (a full buffer admits with probability
    /// `capacity / offers_since_drain`).
    pub fn push(&self, model: &str, input: &[f64], target: &[f64]) -> bool {
        let sample = Sample {
            input: input.to_vec(),
            target: target.to_vec(),
        };
        {
            let shards = self.shards.read();
            if let Some(shard) = shards.get(model) {
                return shard.lock().push(self.capacity, sample);
            }
        }
        let mut shards = self.shards.write();
        // Bound to a local: as a tail expression the shard's `MutexGuard`
        // temporary would outlive `shards`, which it borrows from.
        let admitted = shards
            .entry(model.to_string())
            .or_insert_with(|| Mutex::new(ModelBuffer::new(model)))
            .lock()
            .push(self.capacity, sample);
        admitted
    }

    /// Samples currently buffered for `model`.
    pub fn len(&self, model: &str) -> usize {
        self.shards
            .read()
            .get(model)
            .map_or(0, |s| s.lock().items.len())
    }

    /// Whether `model` has no buffered samples.
    pub fn is_empty(&self, model: &str) -> bool {
        self.len(model) == 0
    }

    /// Cumulative accounting for `model` (all-zero if never pushed to).
    pub fn stats(&self, model: &str) -> ReplayStats {
        self.shards
            .read()
            .get(model)
            .map_or_else(ReplayStats::default, |s| s.lock().stats())
    }

    /// Take every buffered sample for `model`, resetting the reservoir's
    /// offer counter so post-drain captures start a fresh uniform sample.
    pub fn drain(&self, model: &str) -> Vec<Sample> {
        self.shards
            .read()
            .get(model)
            .map_or_else(Vec::new, |s| s.lock().drain())
    }

    /// Every model that has ever been pushed to, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shards.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: f64) -> (Vec<f64>, Vec<f64>) {
        (vec![v, v + 1.0], vec![v * 2.0])
    }

    #[test]
    fn fills_to_capacity_then_stays_bounded() {
        let buf = ReplayBuffer::new(8);
        for i in 0..100 {
            let (x, y) = sample(i as f64);
            buf.push("m", &x, &y);
        }
        assert_eq!(buf.len("m"), 8);
        let s = buf.stats("m");
        assert_eq!(s.pushed, 100);
        assert_eq!(s.live, 8);
        assert_eq!(s.dropped, 92);
        assert_eq!(s.drained, 0);
    }

    #[test]
    fn drain_takes_everything_and_resets_reservoir() {
        let buf = ReplayBuffer::new(4);
        for i in 0..10 {
            let (x, y) = sample(i as f64);
            buf.push("m", &x, &y);
        }
        let drained = buf.drain("m");
        assert_eq!(drained.len(), 4);
        assert!(buf.is_empty("m"));
        let s = buf.stats("m");
        assert_eq!(s.drained, 4);
        assert_eq!(s.pushed, 10);
        // Post-drain pushes enter a fresh reservoir: the first `capacity`
        // offers are always admitted.
        let (x, y) = sample(99.0);
        assert!(buf.push("m", &x, &y));
        assert_eq!(buf.len("m"), 1);
    }

    #[test]
    fn models_are_independent() {
        let buf = ReplayBuffer::new(2);
        let (x, y) = sample(1.0);
        buf.push("a", &x, &y);
        buf.push("b", &x, &y);
        buf.push("b", &x, &y);
        assert_eq!(buf.len("a"), 1);
        assert_eq!(buf.len("b"), 2);
        assert_eq!(buf.models(), vec!["a".to_string(), "b".to_string()]);
        buf.drain("a");
        assert_eq!(buf.len("b"), 2);
    }

    #[test]
    fn reservoir_keeps_samples_from_the_whole_stream() {
        // With capacity 16 and 1600 offers, a FIFO would retain only the
        // newest 16; the reservoir must keep samples from the early
        // stream too (probability of retaining none from the first half
        // is (1/2)^16 per slot — astronomically small for this seed).
        let buf = ReplayBuffer::new(16);
        for i in 0..1600 {
            let (x, y) = sample(i as f64);
            buf.push("m", &x, &y);
        }
        let drained = buf.drain("m");
        assert_eq!(drained.len(), 16);
        assert!(
            drained.iter().any(|s| s.input[0] < 800.0),
            "reservoir retained nothing from the first half of the stream"
        );
        // And every retained sample is one that was actually pushed.
        for s in &drained {
            let v = s.input[0];
            assert!(v.fract() == 0.0 && (0.0..1600.0).contains(&v));
            assert_eq!(s.target, vec![v * 2.0]);
        }
    }

    #[test]
    fn unknown_model_reads_as_empty() {
        let buf = ReplayBuffer::new(4);
        assert_eq!(buf.len("ghost"), 0);
        assert!(buf.is_empty("ghost"));
        assert_eq!(buf.stats("ghost"), ReplayStats::default());
        assert!(buf.drain("ghost").is_empty());
        assert!(buf.models().is_empty());
    }
}
