//! Fixed-capacity sliding-window statistics.
//!
//! The Escra Resource Allocator decides on two windowed statistics per
//! container: the average throttle indicator and the average unused
//! runtime over the last `n` CFS periods (paper §IV-D1). [`BitWindow`]
//! and [`InlineWindow`] are those two windows as standalone types, each
//! O(1) per update with its ring inline in the struct. The allocator
//! itself keeps both in one fused ring per container
//! (`escra_core::allocator`); these types are the reference its ring
//! test holds it to, and what the benchmark's `simcore.window` probe
//! times.

/// Evictions between drift-guard re-sums of [`InlineWindow`]'s plain
/// running sum: each eviction can move the sum by an ulp, and a fresh
/// oldest-first re-summation this often bounds the accumulated drift.
const RESUM_INTERVAL: u32 = 4096;

/// A sliding window over the last `capacity` 0/1 indicator samples,
/// packed one bit per sample with an incrementally maintained popcount.
///
/// The throttle-rate window in its cheapest form: a push is a masked bit
/// store plus two integer adds — no heap indirection, no floating-point
/// accumulation. The mean is the exact `ones as f64 / len as f64`
/// division: what any f64 summation of the same stream as `0.0`/`1.0`
/// samples arrives at, since every partial sum of small integers is
/// exact in f64.
#[derive(Debug, Clone)]
pub struct BitWindow {
    /// Bit ring, LSB-first; sample `i` (in ring position, not age) is
    /// bit `i` of the word.
    bits: u64,
    /// Popcount of the retained samples.
    ones: u16,
    /// Retained sample count (`< cap` while filling).
    len: u16,
    /// Ring position of the oldest retained sample once full.
    head: u16,
    cap: u16,
}

impl BitWindow {
    /// Largest supported window: the whole ring is one `u64`.
    pub const MAX_CAPACITY: usize = 64;

    /// Creates a window keeping the last `capacity` indicator samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds
    /// [`BitWindow::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(
            capacity <= BitWindow::MAX_CAPACITY,
            "BitWindow supports at most {} periods",
            BitWindow::MAX_CAPACITY
        );
        BitWindow {
            bits: 0,
            ones: 0,
            len: 0,
            head: 0,
            cap: capacity as u16,
        }
    }

    #[inline]
    fn bit(&self, pos: usize) -> bool {
        (self.bits >> pos) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, pos: usize, value: bool) {
        self.bits = (self.bits & !(1u64 << pos)) | ((value as u64) << pos);
    }

    /// Adds an indicator sample, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, value: bool) {
        if self.len < self.cap {
            // Filling phase appends in ring order.
            let pos = self.len as usize;
            self.set_bit(pos, value);
            self.ones += value as u16;
            self.len += 1;
            return;
        }
        let head = self.head as usize;
        let old = self.bit(head);
        self.set_bit(head, value);
        self.ones += value as u16;
        self.ones -= old as u16;
        self.head = if head + 1 == self.cap as usize {
            0
        } else {
            self.head + 1
        };
    }

    /// Mean of the retained indicators (0.0 when empty) — the throttle
    /// *rate* over the window.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.ones as f64 / self.len as f64
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the retained indicators, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = bool> + '_ {
        let (head, len) = (self.head as usize, self.len as usize);
        let cap = self.cap as usize;
        (0..len).map(move |i| {
            let pos = if len < cap { i } else { (head + i) % cap };
            self.bit(pos)
        })
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.bits = 0;
        self.ones = 0;
        self.len = 0;
        self.head = 0;
    }
}

/// A sliding window over the last `capacity` samples with O(1) mean and
/// sum: the ring lives inline in the struct (no heap indirection) and
/// the running sum is a plain two-add update, not a compensated one,
/// which keeps the serial FP dependency chain of a push short.
///
/// The accuracy trade is deliberate and bounded. The running sum can
/// drift from the exact sum by an ulp per eviction; a full re-summation
/// every `RESUM_INTERVAL` (4096) evictions resets the drift, so the
/// error never exceeds a few thousand ulps (relative error ~1e-13) — far
/// inside the tolerance of threshold comparisons against γ-scale
/// margins. Streams of exactly-representable values (integers, zeros —
/// everything the model checker and the 0/1 indicator paths feed) are
/// summed **exactly**, drift-free.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct InlineWindow {
    // Hot scalars first (`repr(C)` keeps them, and the first few ring
    // entries a short window actually uses, on the leading cache line).
    /// Plain running sum of the retained samples.
    sum: f64,
    /// Retained sample count (`< cap` while filling).
    len: u16,
    /// Index of the oldest retained sample (0 while filling).
    head: u16,
    cap: u16,
    evictions_since_resum: u16,
    buf: [f64; InlineWindow::MAX_CAPACITY],
}

impl InlineWindow {
    /// Largest supported window: the allocator's longest decision
    /// window (paper default 5 periods; the ablation sweep probes up
    /// to 20).
    pub const MAX_CAPACITY: usize = 24;

    /// Creates a window keeping the last `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds
    /// [`InlineWindow::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(
            capacity <= InlineWindow::MAX_CAPACITY,
            "InlineWindow supports at most {} periods",
            InlineWindow::MAX_CAPACITY
        );
        InlineWindow {
            sum: 0.0,
            len: 0,
            head: 0,
            cap: capacity as u16,
            evictions_since_resum: 0,
            buf: [0.0; InlineWindow::MAX_CAPACITY],
        }
    }

    /// Fresh exact re-summation, oldest first — the drift guard.
    fn resum(&mut self) {
        self.sum = 0.0;
        let (head, len) = (self.head as usize, self.len as usize);
        for i in 0..len {
            let idx = head + i;
            let idx = if idx >= len { idx - len } else { idx };
            self.sum += self.buf[idx];
        }
        self.evictions_since_resum = 0;
    }

    /// Adds a sample, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, value: f64) {
        if self.len < self.cap {
            self.buf[self.len as usize] = value;
            self.len += 1;
            self.sum += value;
            return;
        }
        let head = self.head as usize;
        let old = std::mem::replace(&mut self.buf[head], value);
        self.head = if head + 1 == self.cap as usize {
            0
        } else {
            self.head + 1
        };
        self.sum += value - old;
        self.evictions_since_resum += 1;
        if self.evictions_since_resum >= RESUM_INTERVAL as u16 {
            self.resum();
        }
    }

    /// Mean of the retained samples (0.0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.sum / self.len as f64
        }
    }

    /// Sum of the retained samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        let (head, len) = (self.head as usize, self.len as usize);
        self.buf[..len][head..]
            .iter()
            .chain(self.buf[..head].iter())
            .copied()
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
        self.sum = 0.0;
        self.evictions_since_resum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fresh compensated re-sum of `vals`, the reference the running
    /// sum is pinned against.
    fn neumaier(vals: impl Iterator<Item = f64>) -> f64 {
        let (mut s, mut c) = (0.0f64, 0.0f64);
        for v in vals {
            let t = s + v;
            if s.abs() >= v.abs() {
                c += (s - t) + v;
            } else {
                c += (v - t) + s;
            }
            s = t;
        }
        s + c
    }

    /// One unit in the last place of `x` (never zero).
    fn ulp(x: f64) -> f64 {
        let next = f64::from_bits(x.abs().to_bits() + 1);
        (next - x.abs()).max(f64::MIN_POSITIVE)
    }

    /// The last `cap` values of `vals`: what a window of that capacity
    /// must retain, oldest first.
    fn tail<T: Copy>(vals: &[T], cap: usize) -> Vec<T> {
        vals[vals.len().saturating_sub(cap)..].to_vec()
    }

    #[test]
    fn throttle_rate_usage_pattern() {
        // The allocator pushes throttle indicators; mean is the rate.
        let mut w = BitWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        for v in [false, true, false, true, true] {
            w.push(v);
        }
        // Window holds [1, 0, 1, 1].
        assert_eq!(w.mean(), 0.75);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn eviction_keeps_exact_mean() {
        let mut w = InlineWindow::new(3);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.len(), 2);
        for v in [3.0, 10.0, 20.0] {
            w.push(v);
        }
        assert!((w.mean() - 11.0).abs() < 1e-12);
        assert_eq!(w.samples().collect::<Vec<_>>(), vec![3.0, 10.0, 20.0]);
    }

    proptest! {
        /// A `BitWindow` keeps exactly the last `cap` indicators, oldest
        /// first, and its mean is the exact set-bit count over the
        /// retained length after every push.
        #[test]
        fn bit_window_is_the_stream_tail_with_an_exact_mean(
            cap in 1usize..65,
            vals in proptest::collection::vec(any::<bool>(), 1..300),
        ) {
            let mut bits = BitWindow::new(cap);
            for (i, &v) in vals.iter().enumerate() {
                bits.push(v);
                let want = tail(&vals[..=i], cap);
                let ones = want.iter().filter(|&&b| b).count();
                prop_assert_eq!(bits.len(), want.len());
                prop_assert_eq!(
                    bits.mean().to_bits(),
                    (ones as f64 / want.len() as f64).to_bits());
                prop_assert_eq!(bits.samples().collect::<Vec<_>>(), want);
            }
        }

        /// An `InlineWindow` keeps exactly the last `cap` samples, oldest
        /// first, and its plain running sum stays within the documented
        /// drift bound of a fresh compensated re-summation — including
        /// on streams long enough to cross `RESUM_INTERVAL`.
        #[test]
        fn inline_window_is_the_stream_tail_with_a_bounded_sum(
            cap in 1usize..25,
            vals in proptest::collection::vec(-1e9f64..1e9, 1..200),
            stretch in 1usize..3,
        ) {
            let mut w = InlineWindow::new(cap);
            // Optionally replay the stream many times so the eviction
            // counter crosses the drift-guard re-sum threshold and the
            // resum path is exercised too.
            let reps = if stretch == 2 {
                (RESUM_INTERVAL as usize / vals.len()).max(1) + 1
            } else {
                1
            };
            let mut pushes = 0u64;
            for _ in 0..reps {
                for &v in &vals {
                    w.push(v);
                    pushes += 1;
                    // Sum within the drift bound of the exact
                    // (compensated) reference: one ulp of the peak
                    // magnitude per eviction since the last re-sum.
                    prop_assert_eq!(w.len(), (pushes as usize).min(cap));
                    let exact = neumaier(w.samples());
                    let evictions =
                        (pushes.min(RESUM_INTERVAL as u64)) as f64;
                    let bound = (evictions + 2.0) * ulp(1e9 * cap as f64);
                    prop_assert!(
                        (w.sum() - exact).abs() <= bound,
                        "plain sum {} vs compensated {} (bound {})",
                        w.sum(), exact, bound
                    );
                }
            }
            let stream = vals.repeat(reps);
            prop_assert_eq!(w.samples().collect::<Vec<_>>(), tail(&stream, cap));
        }

        /// Exactly-representable streams (integers — the shape of every
        /// fixed-point telemetry sample after quantisation) are summed
        /// exactly by the plain running sum: no drift, ever.
        #[test]
        fn inline_window_is_exact_on_integer_streams(
            cap in 1usize..25,
            vals in proptest::collection::vec(-1_000_000i32..1_000_000, 1..300),
        ) {
            let mut w = InlineWindow::new(cap);
            for (i, &v) in vals.iter().enumerate() {
                w.push(v as f64);
                let want = tail(&vals[..=i], cap);
                let sum = want.iter().map(|&x| x as i64).sum::<i64>() as f64;
                prop_assert_eq!(w.sum().to_bits(), sum.to_bits());
                prop_assert_eq!(
                    w.mean().to_bits(), (sum / want.len() as f64).to_bits());
            }
        }
    }

    /// `clear` returns both inline windows to their fresh state.
    #[test]
    fn inline_windows_clear_to_empty() {
        let mut bits = BitWindow::new(5);
        let mut vals = InlineWindow::new(5);
        for i in 0..7 {
            bits.push(i % 2 == 0);
            vals.push(i as f64);
        }
        bits.clear();
        vals.clear();
        assert!(bits.is_empty());
        assert!(vals.is_empty());
        assert_eq!(bits.mean(), 0.0);
        assert_eq!(vals.mean(), 0.0);
        assert_eq!(bits.samples().count(), 0);
        assert_eq!(vals.samples().count(), 0);
    }
}
