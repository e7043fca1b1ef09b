//! Canonical state fingerprints for the model checker.
//!
//! [`StateHash`] is a deliberately boring 64-bit FNV-1a accumulator: the
//! model checker (`escra-mc`) feeds it every behaviourally relevant field
//! of a control-plane state — allocator tracks, agent seq maps, pending
//! grants, the in-flight message multiset — in a canonical order, and
//! uses the digest as the key of its visited set. Two independently
//! keyed passes are combined into a 128-bit [`Fingerprint`] so accidental
//! collisions are out of the picture for the state counts bounded
//! explorations reach (≤ a few million).
//!
//! The same accumulator doubles as a *trace* fingerprint: hashing the
//! rendered [`crate::trace`] event stream of a replay gives a compact
//! witness that two executions took identical decision paths.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over heterogeneous state fields.
///
/// All integer writes are length-prefixed by construction (fixed-width
/// little-endian), so distinct field sequences cannot collide by
/// concatenation ambiguity as long as callers keep a fixed schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHash {
    state: u64,
}

impl Default for StateHash {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHash {
    /// A hasher seeded with the standard FNV-1a offset basis.
    pub fn new() -> Self {
        StateHash { state: FNV_OFFSET }
    }

    /// A hasher seeded with `key` folded into the offset basis, for
    /// independent second-pass hashing.
    pub fn with_key(key: u64) -> Self {
        let mut h = StateHash::new();
        h.write_u64(key);
        h
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (fixed-width little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern (exact, not approximate).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A 128-bit state fingerprint: two independently keyed FNV-1a passes.
pub type Fingerprint = u128;

/// Runs `fill` through two independently keyed hashers and combines the
/// digests into a 128-bit [`Fingerprint`].
pub fn fingerprint128(fill: impl Fn(&mut StateHash)) -> Fingerprint {
    let mut a = StateHash::new();
    fill(&mut a);
    let mut b = StateHash::with_key(0x9e37_79b9_7f4a_7c15);
    fill(&mut b);
    ((a.finish() as u128) << 64) | b.finish() as u128
}

/// Hashes a rendered trace (or any text artifact) into a single `u64`
/// witness, for asserting two replays took identical decision paths.
pub fn trace_fingerprint(rendered: &str) -> u64 {
    let mut h = StateHash::new();
    h.write_bytes(rendered.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_field_order_sensitive() {
        let mut a = StateHash::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StateHash::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = StateHash::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn keyed_passes_are_independent() {
        let fp = fingerprint128(|h| h.write_u64(42));
        assert_ne!((fp >> 64) as u64, fp as u64);
        assert_eq!(fp, fingerprint128(|h| h.write_u64(42)));
        assert_ne!(fp, fingerprint128(|h| h.write_u64(43)));
    }

    #[test]
    fn f64_hashing_is_exact() {
        let mut a = StateHash::new();
        a.write_f64(0.1 + 0.2);
        let mut b = StateHash::new();
        b.write_f64(0.3);
        // 0.1 + 0.2 != 0.3 bit-for-bit; the hash must see that.
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn trace_fingerprint_distinguishes_streams() {
        assert_ne!(
            trace_fingerprint("a=1 b=2\n"),
            trace_fingerprint("a=1 b=3\n")
        );
        assert_eq!(trace_fingerprint("x\n"), trace_fingerprint("x\n"));
    }
}
