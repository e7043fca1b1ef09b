//! Node-level CPU arbitration.
//!
//! A worker node has a fixed number of cores; when the sum of cgroup
//! demands exceeds node capacity, the real CFS scheduler divides CPU time
//! with (weighted) max–min fairness. [`arbitrate`] reproduces that
//! water-filling division so a container's *effective* CPU this period is
//! `min(demand, quota grant, fair share of the node)`.

/// Divides `capacity` among `demands` with max–min fairness (equal
/// weights): every demand is satisfied up to the water level; leftover
/// capacity from small demands raises the level for the rest.
///
/// Returns one grant per demand; grants never exceed the demand and their
/// sum never exceeds `capacity` (within floating-point tolerance).
///
/// ```
/// use escra_cfs::node::arbitrate;
/// // 10 units among demands 2, 9, 9 -> 2 satisfied, rest split 4/4.
/// let g = arbitrate(10.0, &[2.0, 9.0, 9.0]);
/// assert_eq!(g, vec![2.0, 4.0, 4.0]);
/// ```
pub fn arbitrate(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let mut grants = Vec::new();
    arbitrate_into(capacity, demands, &mut Vec::new(), &mut grants);
    grants
}

/// [`arbitrate`] into caller-owned buffers: `grants` is cleared and
/// filled with one grant per demand; `order` is sort scratch. With warm
/// buffers a per-period loop allocates nothing here.
pub fn arbitrate_into(
    capacity: f64,
    demands: &[f64],
    order: &mut Vec<usize>,
    grants: &mut Vec<f64>,
) {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    debug_assert!(demands.iter().all(|d| *d >= 0.0 && d.is_finite()));
    grants.clear();
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        grants.extend_from_slice(demands);
        return;
    }
    // Water-filling: process demands in ascending order, equal demands
    // in index order (the tie-break makes the in-place unstable sort
    // order exactly as a stable one would).
    order.clear();
    order.extend(0..demands.len());
    order.sort_unstable_by(|&a, &b| {
        demands[a]
            .partial_cmp(&demands[b])
            .expect("NaN demand")
            .then(a.cmp(&b))
    });
    grants.resize(demands.len(), 0.0);
    let mut remaining_capacity = capacity;
    let mut remaining = demands.len();
    for &i in order.iter() {
        let fair = remaining_capacity / remaining as f64;
        let g = demands[i].min(fair);
        grants[i] = g;
        remaining_capacity -= g;
        remaining -= 1;
    }
}

/// Weighted max–min fairness: like [`arbitrate`] but shares in proportion
/// to positive `weights` (the CFS `cpu.shares` analogue).
///
/// # Panics
///
/// Panics if lengths differ or any weight is non-positive.
pub fn arbitrate_weighted(capacity: f64, demands: &[f64], weights: &[f64]) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len(), "length mismatch");
    assert!(weights.iter().all(|w| *w > 0.0), "weights must be positive");
    let n = demands.len();
    if n == 0 {
        return Vec::new();
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        return demands.to_vec();
    }
    // Sort by demand-per-weight; fill proportionally to weight.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (demands[a] / weights[a])
            .partial_cmp(&(demands[b] / weights[b]))
            .expect("NaN demand/weight")
    });
    let mut grants = vec![0.0; n];
    let mut remaining_capacity = capacity;
    let mut remaining_weight: f64 = weights.iter().sum();
    for &i in &order {
        let fair = remaining_capacity * weights[i] / remaining_weight;
        let g = demands[i].min(fair);
        grants[i] = g;
        remaining_capacity -= g;
        remaining_weight -= weights[i];
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn under_capacity_grants_all() {
        let g = arbitrate(10.0, &[1.0, 2.0, 3.0]);
        assert_eq!(g, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_demands_split_evenly() {
        let g = arbitrate(6.0, &[4.0, 4.0, 4.0]);
        assert!(g.iter().all(|x| close(*x, 2.0)));
    }

    #[test]
    fn small_demand_fully_satisfied() {
        let g = arbitrate(10.0, &[1.0, 20.0]);
        assert!(close(g[0], 1.0));
        assert!(close(g[1], 9.0));
    }

    #[test]
    fn conservation_and_bounds() {
        let demands = [0.0, 5.0, 2.5, 8.0, 1.0, 9.0];
        let g = arbitrate(7.0, &demands);
        let total: f64 = g.iter().sum();
        assert!(total <= 7.0 + 1e-9);
        assert!(close(total, 7.0)); // work conserving when oversubscribed
        for (gi, di) in g.iter().zip(demands.iter()) {
            assert!(*gi <= di + 1e-9);
            assert!(*gi >= 0.0);
        }
    }

    #[test]
    fn empty_and_zero() {
        assert!(arbitrate(5.0, &[]).is_empty());
        let g = arbitrate(0.0, &[1.0, 2.0]);
        assert!(g.iter().all(|x| close(*x, 0.0)));
    }

    /// The pre-`arbitrate_into` implementation, verbatim (stable sort,
    /// fresh vectors): the reference the buffer-reusing form must equal
    /// bit for bit.
    fn arbitrate_reference(capacity: f64, demands: &[f64]) -> Vec<f64> {
        let n = demands.len();
        if n == 0 {
            return Vec::new();
        }
        let total: f64 = demands.iter().sum();
        if total <= capacity {
            return demands.to_vec();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| demands[a].partial_cmp(&demands[b]).expect("NaN demand"));
        let mut grants = vec![0.0; n];
        let mut remaining_capacity = capacity;
        let mut remaining = n;
        for &i in &order {
            let fair = remaining_capacity / remaining as f64;
            let g = demands[i].min(fair);
            grants[i] = g;
            remaining_capacity -= g;
            remaining -= 1;
        }
        grants
    }

    #[test]
    fn arbitrate_into_equals_the_reference_with_reused_buffers() {
        // Ties above the water level are where sort stability shows: the
        // successive `remaining_capacity / remaining` quotients differ in
        // the last bit, so which index gets which matters.
        let cases: [(f64, &[f64]); 7] = [
            (5.0, &[]),
            (10.0, &[1.0, 2.0, 3.0]),
            (6.0, &[1.0, 2.0, 3.0]),
            (7.0, &[0.0, 5.0, 2.5, 8.0, 1.0, 9.0]),
            (1.0, &[0.7, 0.7, 0.7, 0.1, 0.7, 0.7, 0.7]),
            (0.0, &[1.0, 2.0]),
            (
                100_000.3,
                &[120_000.0, 33_333.3, 120_000.0, 99_999.9, 33_333.3],
            ),
        ];
        let (mut order, mut grants) = (Vec::new(), Vec::new());
        for (capacity, demands) in cases {
            arbitrate_into(capacity, demands, &mut order, &mut grants);
            let want = arbitrate_reference(capacity, demands);
            assert_eq!(grants.len(), want.len());
            for (g, w) in grants.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{capacity} / {demands:?}");
            }
            assert_eq!(arbitrate(capacity, demands), want);
        }
    }

    #[test]
    fn weighted_respects_shares() {
        // Equal infinite-ish demands, 2:1 weights -> 2:1 grants.
        let g = arbitrate_weighted(9.0, &[100.0, 100.0], &[2.0, 1.0]);
        assert!(close(g[0], 6.0));
        assert!(close(g[1], 3.0));
    }

    #[test]
    fn weighted_small_demand_released() {
        let g = arbitrate_weighted(9.0, &[1.0, 100.0], &[2.0, 1.0]);
        assert!(close(g[0], 1.0));
        assert!(close(g[1], 8.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_length_mismatch_panics() {
        arbitrate_weighted(1.0, &[1.0], &[1.0, 2.0]);
    }
}
