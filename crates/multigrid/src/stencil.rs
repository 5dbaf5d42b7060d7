//! Periodic 7-point Laplacian stencil.

use mqmd_grid::UniformGrid3;
use rayon::prelude::*;

/// Fewest grid points one thread takes in a parallel stencil or smoother
/// sweep. A sweep costs a few nanoseconds per point, so a coarse level (or
/// a small global grid) would spend longer waking pool workers than
/// relaxing; with this grain those sweeps stay on the calling thread.
const MIN_POINTS_PER_PART: usize = 1 << 14;

/// `with_min_len` grain, in x-planes of `plane` points each, that keeps at
/// least [`MIN_POINTS_PER_PART`] points in every part.
pub(crate) fn min_planes(plane: usize) -> usize {
    MIN_POINTS_PER_PART.div_ceil(plane.max(1))
}

/// Applies the second-order 7-point Laplacian with periodic boundary
/// conditions: `out = ∇²u`.
pub fn apply_laplacian(grid: &UniformGrid3, u: &[f64], out: &mut [f64]) {
    let (nx, ny, nz) = grid.dims();
    assert_eq!(u.len(), grid.len());
    assert_eq!(out.len(), grid.len());
    let (hx, hy, hz) = grid.spacing();
    let (cx, cy, cz) = (1.0 / (hx * hx), 1.0 / (hy * hy), 1.0 / (hz * hz));
    let diag = -2.0 * (cx + cy + cz);

    out.par_chunks_mut(ny * nz)
        .with_min_len(min_planes(ny * nz))
        .enumerate()
        .for_each(|(ix, plane)| {
            let xm = (ix + nx - 1) % nx;
            let xp = (ix + 1) % nx;
            for iy in 0..ny {
                let ym = (iy + ny - 1) % ny;
                let yp = (iy + 1) % ny;
                for iz in 0..nz {
                    let zm = (iz + nz - 1) % nz;
                    let zp = (iz + 1) % nz;
                    let idx = iy * nz + iz;
                    plane[idx] = diag * u[(ix * ny + iy) * nz + iz]
                        + cx * (u[(xm * ny + iy) * nz + iz] + u[(xp * ny + iy) * nz + iz])
                        + cy * (u[(ix * ny + ym) * nz + iz] + u[(ix * ny + yp) * nz + iz])
                        + cz * (u[(ix * ny + iy) * nz + zm] + u[(ix * ny + iy) * nz + zp]);
                }
            }
        });
}

/// Computes the residual `r = f − ∇²u`.
pub fn residual(grid: &UniformGrid3, u: &[f64], f: &[f64], r: &mut [f64]) {
    apply_laplacian(grid, u, r);
    for (ri, fi) in r.iter_mut().zip(f) {
        *ri = fi - *ri;
    }
}

/// L2 norm (per point) of a field — the convergence metric.
pub fn norm(field: &[f64]) -> f64 {
    (field.iter().map(|x| x * x).sum::<f64>() / field.len() as f64).sqrt()
}

/// Subtracts the mean, projecting out the constant nullspace of the periodic
/// Laplacian.
pub fn remove_mean(field: &mut [f64]) {
    let mean = field.iter().sum::<f64>() / field.len() as f64;
    for x in field.iter_mut() {
        *x -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    #[test]
    fn laplacian_of_constant_is_zero() {
        let g = UniformGrid3::cubic(8, 4.0);
        let u = vec![3.7; g.len()];
        let mut out = vec![0.0; g.len()];
        apply_laplacian(&g, &u, &mut out);
        assert!(norm(&out) < 1e-12);
    }

    #[test]
    fn laplacian_of_plane_wave() {
        // ∇² sin(kx) = −k² sin(kx); the discrete operator has eigenvalue
        // −(2/h²)(1 − cos kh) → −k² as h → 0.
        let n = 32;
        let l = 8.0;
        let g = UniformGrid3::cubic(n, l);
        let k = TAU / l;
        let u = g.sample(|r| (k * r.x).sin());
        let mut out = vec![0.0; g.len()];
        apply_laplacian(&g, &u, &mut out);
        let h = l / n as f64;
        let eig = -(2.0 / (h * h)) * (1.0 - (k * h).cos());
        for (o, ui) in out.iter().zip(&u) {
            assert!((o - eig * ui).abs() < 1e-10);
        }
        // And the discrete eigenvalue approximates −k² to O(h²).
        assert!((eig + k * k).abs() < 0.01 * k * k);
    }

    #[test]
    fn residual_of_exact_solution_vanishes() {
        let g = UniformGrid3::cubic(16, 5.0);
        let u = vec![0.0; g.len()];
        let f = vec![0.0; g.len()];
        let mut r = vec![1.0; g.len()];
        residual(&g, &u, &f, &mut r);
        assert!(norm(&r) < 1e-14);
    }

    #[test]
    fn remove_mean_zeroes_mean() {
        let mut f: Vec<f64> = (0..64).map(|i| i as f64).collect();
        remove_mean(&mut f);
        assert!(f.iter().sum::<f64>().abs() < 1e-9);
    }
}
