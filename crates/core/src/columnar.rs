//! Bulk fixed-point → cores conversion for the columnar ingest path.
//!
//! The only arithmetic the telemetry hot loop needs per entry is two
//! divisions: `usage_us / period_us` and `unused_us / period_us`, with
//! the numerators arriving as `u32` columns (see
//! [`crate::telemetry::CpuStatsColumns`]). [`u32_to_cores`] converts a
//! whole column with one plain loop, `v as f64 / divisor` per element —
//! exactly the arithmetic of the row paths, which is what lets the
//! decision-identity property tests hold the columnar ingest to the
//! row-by-row reference. The loop carries no dependency between
//! elements, so the compiler vectorises it for whatever the build
//! targets.

/// Does nothing: there is one conversion loop and nothing to force.
///
/// Kept only because `benchmark/src/probes.rs` calls it around its
/// `core.controller.ingest_columns_scalar_ns_per_entry` probe and
/// `benchmark/` could not change in the PR that deleted the hand-written
/// AVX2 kernel and its dispatch; it leaves together with that probe in
/// the next `benchmark` PR.
pub fn set_force_scalar(_force: bool) {}

/// Reusable per-ingest column buffers: resolved slab slots plus the
/// converted statistic columns. Owned by the Controller and recycled
/// across calls so the steady-state columnar path allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnScratch {
    /// Slab slot per entry ([`crate::allocator::NO_SLOT`] = unknown id).
    pub slots: Vec<u32>,
    /// `usage_us / period_us` per entry.
    pub usage_cores: Vec<f64>,
    /// `unused_us / period_us` per entry.
    pub unused_cores: Vec<f64>,
}

/// Converts a `u32` column to `f64` cores (`src[i] as f64 / divisor`)
/// into `dst` (cleared first; capacity is reused).
pub(crate) fn u32_to_cores(src: &[u32], divisor: f64, dst: &mut Vec<f64>) {
    dst.clear();
    dst.extend(src.iter().map(|&s| s as f64 / divisor));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_is_plain_division_and_reuses_the_buffer() {
        let src = [0u32, 1, 7, 100_000, u32::MAX];
        let mut dst = vec![9.0; 64];
        u32_to_cores(&src, 100_000.0, &mut dst);
        assert_eq!(dst.len(), src.len());
        for (i, &s) in src.iter().enumerate() {
            assert_eq!(dst[i].to_bits(), (s as f64 / 100_000.0).to_bits());
        }
    }
}
