//! Pareto filtering over the explorer's three objectives.
//!
//! All three objectives are *minimized*: runtime overhead (normalized
//! execution time), hardware area (in units of the paper's 4-entry
//! store-buffer CAM, see [`area_unit`]), and SDC rate (1 − detection
//! coverage). Energy is reported alongside area in the frontier artifact
//! but is not a dominance axis — under the calibrated cost model every
//! priced structure's area and energy are monotone in the same knobs, so
//! a fourth axis would never change the frontier, only dilute the
//! dominance relation.
//!
//! The explorer evaluates every canonical point and flags its frontier
//! with one exact brute-force pass under plain dominance
//! ([`exact_pareto_mask`]); points are few enough (hundreds) that the
//! quadratic pass is negligible next to the simulations behind them.

/// The area normalization unit: the paper's 4-entry store-buffer CAM
/// (Table 1's first row). Dividing every point's area by this puts the
/// cost axis on the same O(1) scale as the other two objectives.
pub fn area_unit() -> f64 {
    turnpike_model::CostModel::calibrated().cam(4).area_um2
}

/// One point's objective vector; every axis is minimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Geomean runtime overhead (normalized execution time).
    pub overhead: f64,
    /// Added-hardware area in [`area_unit`]s.
    pub area: f64,
    /// SDC rate (1 − coverage), in [0, 1].
    pub sdc: f64,
}

impl Objectives {
    fn as_array(self) -> [f64; 3] {
        [self.overhead, self.area, self.sdc]
    }

    /// Plain Pareto dominance: no worse anywhere, strictly better
    /// somewhere.
    pub fn dominates(self, p: Objectives) -> bool {
        let q = self.as_array();
        let pv = p.as_array();
        q.iter().zip(pv).all(|(&a, b)| a <= b) && q.iter().zip(pv).any(|(&a, b)| a < b)
    }
}

/// Keep-mask under exact brute-force Pareto filtering: `mask[i]` is false
/// iff some other point dominates point `i`.
pub fn exact_pareto_mask(points: &[Objectives]) -> Vec<bool> {
    points
        .iter()
        .map(|&p| !points.iter().any(|&q| q.dominates(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn o(overhead: f64, area: f64, sdc: f64) -> Objectives {
        Objectives {
            overhead,
            area,
            sdc,
        }
    }

    #[test]
    fn dominance_basics() {
        let cheap_slow = o(2.0, 1.0, 0.0);
        let fast_pricey = o(1.1, 5.0, 0.0);
        let bad = o(2.5, 5.5, 0.5);
        assert!(!cheap_slow.dominates(fast_pricey));
        assert!(!fast_pricey.dominates(cheap_slow));
        assert!(cheap_slow.dominates(bad) && fast_pricey.dominates(bad));
        // A tie on one axis still dominates.
        assert!(cheap_slow.dominates(o(2.0, 1.0, 0.4)));
        // No self-domination.
        assert!(!bad.dominates(bad));
    }

    #[test]
    fn duplicate_points_all_survive() {
        let pts = vec![o(1.0, 1.0, 0.0); 3];
        assert_eq!(exact_pareto_mask(&pts), vec![true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random point sets, the mask keeps exactly the undominated
        /// points, and every dropped point is dominated by a kept one (so
        /// the frontier alone witnesses every drop). Coordinates are drawn
        /// from a coarse integer lattice so ties and duplicates occur
        /// constantly.
        #[test]
        fn dropped_points_are_dominated_by_a_frontier_point(
            raw in prop::collection::vec((0u32..8, 0u32..8, 0u32..8), 0..40),
        ) {
            let points: Vec<Objectives> = raw
                .iter()
                .map(|&(a, b, c)| o(f64::from(a) * 0.25, f64::from(b) * 0.25, f64::from(c) * 0.125))
                .collect();
            let mask = exact_pareto_mask(&points);
            for (i, &p) in points.iter().enumerate() {
                let witness = points.iter().zip(&mask).any(|(&q, &keep)| keep && q.dominates(p));
                prop_assert_eq!(mask[i], !witness, "point {} ({:?})", i, p);
            }
        }
    }
}
