//! The Blue Gene/Q 5-D torus (paper refs [57, 59, 60]).
//!
//! Mira's full partition is an `8 × 12 × 16 × 16 × 2` torus of 49,152
//! nodes. The model provides minimum hop counts (per-dimension wraparound
//! Manhattan distance), the average hop count that enters contention
//! estimates, and a bisection-bandwidth estimate.

/// A d-dimensional torus.
#[derive(Clone, Debug)]
pub struct Torus {
    dims: Vec<usize>,
}

impl Torus {
    /// Creates a torus with the given dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty());
        assert!(dims.iter().all(|&d| d >= 1));
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Mira's 48-rack 5-D torus.
    pub fn mira() -> Self {
        Self::new(&[8, 12, 16, 16, 2])
    }

    /// Midplane-scale (512-node) BG/Q torus: 4×4×4×4×2.
    pub fn bgq_midplane() -> Self {
        Self::new(&[4, 4, 4, 4, 2])
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Torus dimensionality.
    pub fn dimensionality(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Converts torus coordinates back to a flat rank (row-major; the
    /// inverse of [`Torus::coords`]).
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len());
        coords.iter().zip(&self.dims).fold(0, |acc, (&c, &d)| {
            assert!(c < d);
            acc * d + c
        })
    }

    /// Converts a flat rank to torus coordinates (row-major).
    pub fn coords(&self, mut rank: usize) -> Vec<usize> {
        assert!(rank < self.nodes());
        let mut out = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            out[i] = rank % d;
            rank /= d;
        }
        out
    }

    /// Minimum hop count between two ranks (wraparound Manhattan distance).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        ca.iter()
            .zip(&cb)
            .zip(&self.dims)
            .map(|((&x, &y), &d)| {
                let diff = x.abs_diff(y);
                diff.min(d - diff)
            })
            .sum()
    }

    /// Network diameter (maximum minimum-hop distance): `Σ ⌊d_i/2⌋`.
    pub fn diameter(&self) -> usize {
        self.dims.iter().map(|&d| d / 2).sum()
    }

    /// Average hop count over random node pairs: `Σ avg_i` where the mean
    /// wraparound distance in a ring of size d is `d/4` (even d).
    pub fn average_hops(&self) -> f64 {
        self.dims
            .iter()
            .map(|&d| {
                let d = d as f64;
                // Exact mean of min(k, d−k) over k = 0..d.
                if (d as usize).is_multiple_of(2) {
                    d / 4.0
                } else {
                    (d * d - 1.0) / (4.0 * d)
                }
            })
            .sum()
    }

    /// Bisection link count: cutting the largest dimension in half severs
    /// `2 × (nodes / largest_dim)` wraparound links.
    pub fn bisection_links(&self) -> usize {
        let largest = *self.dims.iter().max().expect("non-empty dims");
        2 * self.nodes() / largest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mira_has_49152_nodes() {
        let t = Torus::mira();
        assert_eq!(t.nodes(), 49_152);
        assert_eq!(t.dimensionality(), 5);
    }

    #[test]
    fn coords_round_trip() {
        let t = Torus::new(&[3, 4, 5]);
        for rank in 0..t.nodes() {
            let c = t.coords(rank);
            let back = (c[0] * 4 + c[1]) * 5 + c[2];
            assert_eq!(back, rank);
        }
    }

    #[test]
    fn hops_symmetric_and_zero_on_self() {
        let t = Torus::new(&[4, 4, 2]);
        for a in 0..t.nodes() {
            assert_eq!(t.hops(a, a), 0);
            for b in 0..t.nodes() {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn wraparound_shortens_paths() {
        let t = Torus::new(&[8]);
        // 0 → 7 is one hop around the ring, not seven.
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
    }

    #[test]
    fn mira_diameter() {
        // ⌊8/2⌋+⌊12/2⌋+⌊16/2⌋+⌊16/2⌋+⌊2/2⌋ = 4+6+8+8+1 = 27.
        assert_eq!(Torus::mira().diameter(), 27);
    }

    #[test]
    fn average_below_diameter() {
        let t = Torus::mira();
        assert!(t.average_hops() < t.diameter() as f64);
        assert!(t.average_hops() > 1.0);
    }

    #[test]
    fn rank_of_inverts_coords() {
        let t = Torus::new(&[3, 4, 5]);
        for rank in 0..t.nodes() {
            assert_eq!(t.rank_of(&t.coords(rank)), rank);
        }
    }

    #[test]
    fn hops_triangle_inequality_sample() {
        let t = Torus::new(&[4, 4, 4]);
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(5);
        for _ in 0..200 {
            let a = rng.below(64) as usize;
            let b = rng.below(64) as usize;
            let c = rng.below(64) as usize;
            assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        }
    }
}
