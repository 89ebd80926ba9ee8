//! Consistent-hash ring with virtual nodes.
//!
//! Tensor keys are mapped to endpoints by hashing each endpoint onto the
//! ring at `vnodes` ([`HashRing::new`]) pseudo-random points and walking
//! clockwise from the key's own hash to the first point. Virtual nodes
//! smooth the per-endpoint share toward 1/N, and — the property the
//! fleet is built around — adding or removing one endpoint remaps only
//! ~1/N of the key space instead of rehashing everything (contrast a
//! `hash % N` table, which remaps almost every key).
//!
//! # Hash tags
//!
//! A key containing a `{tag}` segment with a non-empty tag is placed by
//! the tag alone (the Redis Cluster idiom): `{job7}/in` and `{job7}/out`
//! always land on the same endpoints, letting callers co-locate a
//! request's input and output so the cluster client can skip the output
//! relocation hop entirely.

/// A consistent-hash ring over `endpoints` indices (`0..endpoints`).
///
/// The ring is immutable once built — the cluster client constructs one
/// per fleet configuration. Remapping behavior across *different* rings
/// (growing the fleet) is what the vnode construction guarantees, and is
/// pinned by this module's tests.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, endpoint)` sorted by point; lookup is a binary search.
    points: Vec<(u64, usize)>,
    endpoints: usize,
}

/// Default virtual nodes per endpoint: enough to keep per-endpoint load
/// within a few percent of 1/N for small fleets without making ring
/// construction or lookup measurable.
pub const DEFAULT_VNODES: usize = 64;

impl HashRing {
    /// Build a ring for `endpoints` endpoints with `vnodes` virtual nodes
    /// each. `endpoints` must be non-zero; `vnodes` is clamped to ≥ 1.
    pub fn new(endpoints: usize, vnodes: usize) -> Self {
        assert!(endpoints > 0, "a hash ring needs at least one endpoint");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(endpoints * vnodes);
        for endpoint in 0..endpoints {
            for v in 0..vnodes {
                // The vnode's ring position only depends on the
                // endpoint's index and the vnode ordinal, so the same
                // endpoint lands on the same points in every ring —
                // that stability is what bounds remapping on resize.
                let point = hash_bytes(format!("{endpoint}/{v}").as_bytes());
                points.push((point, endpoint));
            }
        }
        points.sort_unstable();
        HashRing { points, endpoints }
    }

    /// Number of endpoints on the ring.
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// The endpoint owning `key`: the first ring point clockwise from the
    /// key's hash.
    pub fn primary(&self, key: &str) -> usize {
        self.replicas(key, 1)[0]
    }

    /// The first `n` *distinct* endpoints clockwise from `key`'s hash —
    /// the key's replica set, in preference order. `n` is clamped to the
    /// endpoint count.
    pub fn replicas(&self, key: &str, n: usize) -> Vec<usize> {
        let n = n.clamp(1, self.endpoints);
        let h = hash_bytes(routing_bytes(key));
        // First point at or after the key's hash, wrapping at the top.
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..self.points.len() {
            let (_, endpoint) = self.points[(start + i) % self.points.len()];
            if !out.contains(&endpoint) {
                out.push(endpoint);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

/// The bytes a key is routed by: the content of its first non-empty
/// `{tag}` if present, the whole key otherwise.
fn routing_bytes(key: &str) -> &[u8] {
    if let Some(open) = key.find('{') {
        if let Some(len) = key[open + 1..].find('}') {
            if len > 0 {
                return key[open + 1..open + 1 + len].as_bytes();
            }
        }
    }
    key.as_bytes()
}

/// FNV-1a 64 with a splitmix64-style avalanche finalizer. FNV alone
/// clusters badly on short, similar keys (e.g. `in0`, `in1`, ...); the
/// finalizer spreads every input bit across the output so ring positions
/// are uniform.
fn hash_bytes(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    // splitmix64 finalizer.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job{i}/tensor-{}", i * 7)).collect()
    }

    #[test]
    fn load_is_balanced_across_endpoints() {
        const ENDPOINTS: usize = 5;
        const KEYS: usize = 10_000;
        let ring = HashRing::new(ENDPOINTS, DEFAULT_VNODES);
        let mut counts = [0usize; ENDPOINTS];
        for k in keys(KEYS) {
            counts[ring.primary(&k)] += 1;
        }
        let ideal = KEYS / ENDPOINTS;
        for (e, &c) in counts.iter().enumerate() {
            assert!(
                c > ideal / 2 && c < ideal * 2,
                "endpoint {e} owns {c} of {KEYS} keys (ideal {ideal}): ring is unbalanced"
            );
        }
    }

    #[test]
    fn growing_the_fleet_remaps_about_one_nth() {
        const KEYS: usize = 10_000;
        for n in [3usize, 5, 8] {
            let before = HashRing::new(n, DEFAULT_VNODES);
            let after = HashRing::new(n + 1, DEFAULT_VNODES);
            let moved = keys(KEYS)
                .iter()
                .filter(|k| before.primary(k) != after.primary(k))
                .count();
            let ideal = KEYS / (n + 1);
            assert!(
                moved < ideal * 2,
                "adding endpoint {n} moved {moved} of {KEYS} keys (consistent hashing should move ~{ideal})"
            );
            assert!(moved > ideal / 3, "suspiciously few keys moved ({moved})");
            // Keys that did move all moved *to* the new endpoint — an old
            // endpoint never takes over another's keys on grow.
            for k in keys(KEYS) {
                if before.primary(&k) != after.primary(&k) {
                    assert_eq!(after.primary(&k), n, "key {k} moved between old endpoints");
                }
            }
        }
    }

    #[test]
    fn replicas_are_distinct_and_led_by_the_primary() {
        let ring = HashRing::new(4, DEFAULT_VNODES);
        for k in keys(200) {
            let reps = ring.replicas(&k, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], ring.primary(&k));
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replica set {reps:?} repeats an endpoint");
        }
        // Asking for more replicas than endpoints clamps.
        assert_eq!(ring.replicas("k", 9).len(), 4);
    }

    #[test]
    fn hash_tags_co_locate_keys() {
        let ring = HashRing::new(6, DEFAULT_VNODES);
        for i in 0..100 {
            let a = format!("{{job{i}}}/in");
            let b = format!("{{job{i}}}/out");
            assert_eq!(
                ring.replicas(&a, 2),
                ring.replicas(&b, 2),
                "tagged keys {a} and {b} must share a replica set"
            );
        }
        // Empty and unterminated tags fall back to whole-key hashing.
        assert_eq!(routing_bytes("{}/x"), b"{}/x");
        assert_eq!(routing_bytes("{open/x"), b"{open/x");
        assert_eq!(routing_bytes("plain"), b"plain");
        assert_eq!(routing_bytes("a{t}b"), b"t");
    }

    #[test]
    fn single_endpoint_owns_everything() {
        let ring = HashRing::new(1, DEFAULT_VNODES);
        for k in keys(50) {
            assert_eq!(ring.primary(&k), 0);
            assert_eq!(ring.replicas(&k, 2), vec![0]);
        }
    }
}
