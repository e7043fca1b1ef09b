//! Wire-byte accounting for the network-overhead experiment (§VI-I).

use escra_simcore::time::SimTime;
use serde::Serialize;

/// Wire size of a batched report that shares one envelope across many
/// entries: one `header` (IP/UDP framing plus the per-node tag) is
/// charged per message, and each entry adds only its payload bytes.
///
/// This is the arithmetic behind per-node telemetry batching (§VI-I):
/// `n` containers reporting individually pay `n` full envelopes, while a
/// node-level batch pays one, so control-plane Mbps grows with the
/// *payload* rate instead of the message rate.
///
/// The sharded Controller preserves this: a `CpuStatsBatch` arriving at
/// the controller is charged one envelope on the wire *before* the
/// in-process fan-out splits it across shard queues, so sharding changes
/// neither side of the batched-vs-unbatched comparison (asserted by
/// `batch_fan_out_is_charged_one_envelope` in `escra-core::sharded`).
///
/// ```
/// use escra_net::batch_wire_bytes;
/// // One shared 40-byte envelope + 24 bytes per container...
/// assert_eq!(batch_wire_bytes(40, 24, 10), 280);
/// // ...versus 10 × (40 + 24) = 640 for individual messages.
/// assert!(batch_wire_bytes(40, 24, 10) < 10 * batch_wire_bytes(40, 24, 1));
/// ```
pub const fn batch_wire_bytes(header_bytes: u64, entry_bytes: u64, entries: u64) -> u64 {
    header_bytes + entry_bytes * entries
}

/// Accumulates bytes sent per one-second bucket.
///
/// ```
/// use escra_net::BandwidthAccountant;
/// use escra_simcore::time::SimTime;
/// let mut acc = BandwidthAccountant::new();
/// acc.record(SimTime::from_millis(100), 1_000_000);
/// acc.record(SimTime::from_millis(900), 500_000);
/// acc.record(SimTime::from_secs(2), 250_000);
/// assert_eq!(acc.total_bytes(), 1_750_000);
/// assert!((acc.peak_mbps() - 12.0).abs() < 1e-9); // 1.5 MB in second 0
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct BandwidthAccountant {
    /// (second index, bytes) — seconds recorded in order, sparse.
    buckets: Vec<(u64, u64)>,
    total: u64,
}

impl BandwidthAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        BandwidthAccountant::default()
    }

    /// Records `bytes` sent at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let sec = now.as_micros() / 1_000_000;
        self.total += bytes;
        match self.buckets.last_mut() {
            Some((s, b)) if *s == sec => *b += bytes,
            Some((s, _)) if *s > sec => {
                // Out-of-order (rare: caller clock skew); merge backwards.
                if let Some(entry) = self.buckets.iter_mut().find(|(s2, _)| *s2 == sec) {
                    entry.1 += bytes;
                } else {
                    let pos = self.buckets.partition_point(|(s2, _)| *s2 < sec);
                    self.buckets.insert(pos, (sec, bytes));
                }
            }
            _ => self.buckets.push((sec, bytes)),
        }
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Peak one-second throughput in megabits per second.
    pub fn peak_mbps(&self) -> f64 {
        self.buckets
            .iter()
            .map(|(_, b)| *b as f64 * 8.0 / 1e6)
            .fold(0.0, f64::max)
    }

    /// Mean throughput in Mbps over the recorded span (0.0 when empty).
    pub fn mean_mbps(&self) -> f64 {
        match (self.buckets.first(), self.buckets.last()) {
            (Some((first, _)), Some((last, _))) => {
                let span_secs = (last - first + 1) as f64;
                self.total as f64 * 8.0 / 1e6 / span_secs
            }
            _ => 0.0,
        }
    }

    /// Per-second series `(second, mbps)` for plotting.
    pub fn series_mbps(&self) -> Vec<(u64, f64)> {
        self.buckets
            .iter()
            .map(|(s, b)| (*s, *b as f64 * 8.0 / 1e6))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let acc = BandwidthAccountant::new();
        assert_eq!(acc.total_bytes(), 0);
        assert_eq!(acc.peak_mbps(), 0.0);
        assert_eq!(acc.mean_mbps(), 0.0);
        assert!(acc.series_mbps().is_empty());
    }

    #[test]
    fn buckets_by_second() {
        let mut acc = BandwidthAccountant::new();
        acc.record(SimTime::from_millis(0), 100);
        acc.record(SimTime::from_millis(999), 100);
        acc.record(SimTime::from_millis(1000), 300);
        let series = acc.series_mbps();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 0);
        assert!((series[0].1 - 200.0 * 8.0 / 1e6).abs() < 1e-12);
        assert!((acc.peak_mbps() - 300.0 * 8.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn mean_spans_recorded_seconds() {
        let mut acc = BandwidthAccountant::new();
        acc.record(SimTime::from_secs(0), 1_000_000);
        acc.record(SimTime::from_secs(3), 1_000_000);
        // 2 MB over 4 seconds = 4 Mbps.
        assert!((acc.mean_mbps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn batched_telemetry_charges_one_shared_header() {
        // A node with 32 containers reporting at 10 Hz: batching pays the
        // envelope once per period instead of once per container.
        let unbatched = 32 * batch_wire_bytes(40, 24, 1);
        let batched = batch_wire_bytes(40, 24, 32);
        assert_eq!(unbatched, 2048);
        assert_eq!(batched, 808);
        // An empty batch is just the envelope (nodes with no running
        // containers send nothing, but the arithmetic must not underflow).
        assert_eq!(batch_wire_bytes(40, 24, 0), 40);
    }

    #[test]
    fn out_of_order_merges() {
        let mut acc = BandwidthAccountant::new();
        acc.record(SimTime::from_secs(2), 100);
        acc.record(SimTime::from_secs(1), 50);
        acc.record(SimTime::from_secs(1), 25);
        assert_eq!(acc.total_bytes(), 175);
        let series = acc.series_mbps();
        assert_eq!(series[0].0, 1);
        assert!((series[0].1 - 75.0 * 8.0 / 1e6).abs() < 1e-12);
    }
}
