//! Iterative eigensolvers for the domain Kohn–Sham problem.
//!
//! The production algorithm (paper §3.4) is an all-band preconditioned
//! conjugate-gradient minimisation recast in BLAS3 form; we implement its
//! modern equivalent, a preconditioned **block Davidson** iteration
//! ([`block_davidson`]) whose hot operations are exactly the all-band
//! `H·Ψ` and `Ψ†·Ψ`-type BLAS3 kernels, plus the historical
//! **band-by-band** minimiser ([`band_by_band`]) the paper replaced — kept
//! as the BLAS2 baseline for the §3.4 ablation benchmark.
//!
//! Preconditioning uses the Teter–Payne–Allan polynomial filter, the
//! standard choice for plane-wave CG (paper refs [2, 47]).

use crate::hamiltonian::KsHamiltonian;
use mqmd_linalg::eigen::{zheev, zheev_lowest};
use mqmd_linalg::gemm::{zgemm, zgemm_dagger_a_into};
use mqmd_linalg::orthonorm::{cholesky_orthonormalize_with, mgs_orthonormalize};
use mqmd_linalg::CMatrix;
use mqmd_util::workspace::{self, Workspace};
use mqmd_util::{Complex64, MqmdError, Result};

/// Convergence report of an eigensolve.
#[derive(Clone, Debug)]
pub struct EigenReport {
    /// Ritz values (ascending).
    pub eigenvalues: Vec<f64>,
    /// Outer iterations used.
    pub iterations: usize,
    /// Final maximum residual norm `max_n ‖H·ψ_n − ε_n·ψ_n‖`.
    pub residual: f64,
}

/// Teter–Payne–Allan preconditioner factor for relative kinetic energy `x`.
#[inline]
pub fn tpa_factor(x: f64) -> f64 {
    let num = 27.0 + 18.0 * x + 12.0 * x * x + 8.0 * x * x * x;
    num / (num + 16.0 * x * x * x * x)
}

/// Preplanned storage for the eigensolvers: the fixed-shape block matrices
/// of one Davidson iteration plus a [`Workspace`] arena for everything
/// transient (FFT scratch, bands, subspace matrices). Built once per domain
/// and reused across SCF iterations and MD steps, so steady-state iterations
/// allocate nothing on the hot path.
pub struct EigWorkspace {
    /// Arena for transient buffers (bands, FFT fields, subspace matrices).
    pub ws: Workspace,
    h_psi: CMatrix,
    psi_rot: CMatrix,
    h_psi_rot: CMatrix,
    res: CMatrix,
    aug: CMatrix,
    h_aug: CMatrix,
}

impl Default for EigWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl EigWorkspace {
    /// Creates an empty workspace; buffers are shaped on first use.
    pub fn new() -> Self {
        Self {
            ws: Workspace::new(),
            h_psi: CMatrix::zeros(0, 0),
            psi_rot: CMatrix::zeros(0, 0),
            h_psi_rot: CMatrix::zeros(0, 0),
            res: CMatrix::zeros(0, 0),
            aug: CMatrix::zeros(0, 0),
            h_aug: CMatrix::zeros(0, 0),
        }
    }

    /// Shapes every block matrix for an `Np × Nb` problem, reallocating only
    /// on shape change (counted as plan allocations in the global stats).
    fn ensure(&mut self, np: usize, nb: usize) {
        Self::ensure_mat(&mut self.h_psi, np, nb);
        Self::ensure_mat(&mut self.psi_rot, np, nb);
        Self::ensure_mat(&mut self.h_psi_rot, np, nb);
        Self::ensure_mat(&mut self.res, np, nb);
        Self::ensure_mat(&mut self.aug, np, 2 * nb);
        Self::ensure_mat(&mut self.h_aug, np, 2 * nb);
    }

    fn ensure_mat(m: &mut CMatrix, rows: usize, cols: usize) {
        if m.rows() == rows && m.cols() == cols {
            workspace::record_reuse();
        } else {
            *m = CMatrix::zeros(rows, cols);
            workspace::record_plan_alloc((rows * cols * size_of::<Complex64>()) as u64);
        }
    }
}

/// Preconditioned block-Davidson eigensolver: refines the `Nb` bands of
/// `psi` toward the lowest eigenpairs of `h`.
///
/// Each outer iteration performs a Rayleigh–Ritz step in
/// `span{Ψ, K·(H·Ψ − Ψ·Θ)}` — two all-band `H` applications and a handful
/// of BLAS3 products, matching the paper's computational profile.
pub fn block_davidson(
    h: &KsHamiltonian,
    psi: &mut CMatrix,
    max_iter: usize,
    tol: f64,
) -> Result<EigenReport> {
    let mut ew = EigWorkspace::new();
    block_davidson_with(h, psi, max_iter, tol, &mut ew)
}

/// Allocation-free form of [`block_davidson`]: all block matrices live in
/// `ew` and rotations land in `psi` via buffer swaps, so steady-state
/// iterations of a warm workspace perform no hot-path allocations.
pub fn block_davidson_with(
    h: &KsHamiltonian,
    psi: &mut CMatrix,
    max_iter: usize,
    tol: f64,
    ew: &mut EigWorkspace,
) -> Result<EigenReport> {
    let np = psi.rows();
    let nb = psi.cols();
    assert_eq!(np, h.basis().len());
    ew.ensure(np, nb);
    let mut last_res = f64::INFINITY;
    let mut eigenvalues = vec![0.0; nb];

    for iter in 1..=max_iter {
        // Rayleigh–Ritz on the current block.
        h.apply_into(psi, &mut ew.h_psi, &ew.ws);
        let mut hs = CMatrix::from_vec(nb, nb, ew.ws.take_c64(nb * nb));
        zgemm_dagger_a_into(psi, &ew.h_psi, &mut hs, &ew.ws);
        let eig = zheev(&hs);
        ew.ws.give_c64(hs.into_data());
        let (theta, v) = eig?;
        zgemm(Complex64::ONE, psi, &v, Complex64::ZERO, &mut ew.psi_rot);
        zgemm(
            Complex64::ONE,
            &ew.h_psi,
            &v,
            Complex64::ZERO,
            &mut ew.h_psi_rot,
        );

        // Residuals R = H·Ψ − Ψ·Θ.
        let mut max_res: f64 = 0.0;
        for (n, &theta_n) in theta.iter().enumerate().take(nb) {
            let mut norm2 = 0.0;
            for g in 0..np {
                let r = ew.h_psi_rot[(g, n)] - ew.psi_rot[(g, n)].scale(theta_n);
                norm2 += r.norm_sqr();
                ew.res[(g, n)] = r;
            }
            max_res = max_res.max(norm2.sqrt());
        }
        eigenvalues.copy_from_slice(&theta[..nb]);
        // Adopt the rotated block by swapping storage — no copy, no alloc.
        std::mem::swap(psi, &mut ew.psi_rot);
        last_res = max_res;
        if max_res < tol {
            return Ok(EigenReport {
                eigenvalues,
                iterations: iter,
                residual: max_res,
            });
        }

        // TPA-precondition the residuals band-wise.
        {
            let mut band = ew.ws.borrow_c64(np);
            for n in 0..nb {
                psi.col_into(n, &mut band);
                let ke = h.basis().kinetic_expectation(&band).max(1e-6);
                for g in 0..np {
                    let x = 0.5 * h.basis().g2()[g] / ke;
                    ew.res[(g, n)] = ew.res[(g, n)].scale(tpa_factor(x));
                }
            }
        }

        // Augmented Rayleigh–Ritz in span{Ψ, K·R}.
        for g in 0..np {
            for n in 0..nb {
                ew.aug[(g, n)] = psi[(g, n)];
                ew.aug[(g, nb + n)] = ew.res[(g, n)];
            }
        }
        if cholesky_orthonormalize_with(&mut ew.aug, &ew.ws).is_err() {
            // Rank-deficient augmentation (residuals almost in span Ψ):
            // fall back to modified Gram–Schmidt, which simply renormalises.
            mgs_orthonormalize(&mut ew.aug);
        }
        h.apply_into(&ew.aug, &mut ew.h_aug, &ew.ws);
        let mut hs2 = CMatrix::from_vec(2 * nb, 2 * nb, ew.ws.take_c64(4 * nb * nb));
        zgemm_dagger_a_into(&ew.aug, &ew.h_aug, &mut hs2, &ew.ws);
        // Keep the lowest nb Ritz vectors.
        let eig2 = zheev_lowest(&hs2, nb);
        ew.ws.give_c64(hs2.into_data());
        let (_, v2) = eig2?;
        zgemm(
            Complex64::ONE,
            &ew.aug,
            &v2,
            Complex64::ZERO,
            &mut ew.psi_rot,
        );
        std::mem::swap(psi, &mut ew.psi_rot);
    }

    Err(MqmdError::Convergence {
        what: "block Davidson".into(),
        iterations: max_iter,
        residual: last_res,
    })
}

/// One Rayleigh–Ritz step on the current block: applies `h`, diagonalises
/// `Ψ†·H·Ψ`, rotates `psi` onto the Ritz vectors and returns the Ritz values
/// (ascending). The Davidson-failure paths of the SCF loop and the domain
/// solver use it to recover Ritz values from partially converged bands;
/// every buffer is borrowed from `ws` and returned, also on error.
pub fn rayleigh_ritz(h: &KsHamiltonian, psi: &mut CMatrix, ws: &Workspace) -> Result<Vec<f64>> {
    let (np, nb) = (psi.rows(), psi.cols());
    let mut h_psi = CMatrix::from_vec(np, nb, ws.take_c64(np * nb));
    h.apply_into(psi, &mut h_psi, ws);
    let mut hs = CMatrix::from_vec(nb, nb, ws.take_c64(nb * nb));
    zgemm_dagger_a_into(psi, &h_psi, &mut hs, ws);
    let eig = zheev(&hs);
    ws.give_c64(hs.into_data());
    ws.give_c64(h_psi.into_data());
    let (vals, v) = eig?;
    let mut rot = CMatrix::from_vec(np, nb, ws.take_c64(np * nb));
    zgemm(Complex64::ONE, psi, &v, Complex64::ZERO, &mut rot);
    psi.data_mut().copy_from_slice(rot.data());
    ws.give_c64(rot.into_data());
    Ok(vals)
}

/// Band-by-band minimisation (the BLAS2 baseline of §3.4): optimises one
/// band at a time in ascending order, each by `steps` two-dimensional
/// subspace rotations along the preconditioned residual, holding lower bands
/// fixed. Returns the final Rayleigh quotients.
#[allow(clippy::needless_range_loop)]
pub fn band_by_band(h: &KsHamiltonian, psi: &mut CMatrix, sweeps: usize, steps: usize) -> Vec<f64> {
    let mut ew = EigWorkspace::new();
    band_by_band_with(h, psi, sweeps, steps, &mut ew)
}

/// Allocation-free form of [`band_by_band`]: every per-band vector (band,
/// `H·ψ`, search direction, `H·dir`) is borrowed once from `ew.ws` and
/// reused across all sweeps and steps.
#[allow(clippy::needless_range_loop)]
pub fn band_by_band_with(
    h: &KsHamiltonian,
    psi: &mut CMatrix,
    sweeps: usize,
    steps: usize,
    ew: &mut EigWorkspace,
) -> Vec<f64> {
    let np = psi.rows();
    let nb = psi.cols();
    let mut eps = vec![0.0; nb];
    let mut band = ew.ws.borrow_c64(np);
    let mut h_band = ew.ws.borrow_c64(np);
    let mut dir = ew.ws.borrow_c64(np);
    let mut h_dir = ew.ws.borrow_c64(np);

    for _sweep in 0..sweeps {
        for n in 0..nb {
            psi.col_into(n, &mut band);
            // Project out lower (already-optimised) bands and renormalise.
            project_out(psi, n, &mut band);
            normalize(&mut band);

            for _ in 0..steps {
                h.apply_band_into(&band, &mut h_band, &ew.ws);
                let theta: f64 = band
                    .iter()
                    .zip(h_band.iter())
                    .map(|(c, h)| (c.conj() * *h).re)
                    .sum();
                // Residual, preconditioned, orthogonalised to current band
                // and lower bands.
                let ke = h.basis().kinetic_expectation(&band).max(1e-6);
                for g in 0..np {
                    let r = h_band[g] - band[g].scale(theta);
                    let x = 0.5 * h.basis().g2()[g] / ke;
                    dir[g] = r.scale(tpa_factor(x));
                }
                project_out(psi, n, &mut dir);
                let overlap: Complex64 = band
                    .iter()
                    .zip(dir.iter())
                    .map(|(b, d)| b.conj() * *d)
                    .sum();
                for (d, b) in dir.iter_mut().zip(band.iter()) {
                    *d -= overlap * *b;
                }
                let d_norm: f64 = dir.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
                if d_norm < 1e-14 {
                    break;
                }
                for d in dir.iter_mut() {
                    *d = d.scale(1.0 / d_norm);
                }
                // Exact minimisation in the 2-D subspace {band, dir}.
                h.apply_band_into(&dir, &mut h_dir, &ew.ws);
                let a = theta;
                let b2: f64 = dir
                    .iter()
                    .zip(h_dir.iter())
                    .map(|(c, h)| (c.conj() * *h).re)
                    .sum();
                let c: Complex64 = band
                    .iter()
                    .zip(h_dir.iter())
                    .map(|(c, h)| c.conj() * *h)
                    .sum();
                // Lowest eigenvector of [[a, c], [c*, b2]].
                let diff = 0.5 * (b2 - a);
                let rad = (diff * diff + c.norm_sqr()).sqrt();
                if rad < 1e-16 {
                    break;
                }
                // Rotation angle: tan(2φ)·… — construct directly.
                let lowest = 0.5 * (a + b2) - rad;
                // Solve (a − λ)x + c y = 0 → choose y = 1 basis then renorm.
                let (alpha, beta) = if (a - lowest).abs() > c.abs() * 1e-8 {
                    (c.scale(-1.0 / (a - lowest)), Complex64::ONE)
                } else {
                    (Complex64::ONE, Complex64::ZERO)
                };
                let norm = (alpha.norm_sqr() + beta.norm_sqr()).sqrt();
                let (alpha, beta) = (alpha.scale(1.0 / norm), beta.scale(1.0 / norm));
                for g in 0..np {
                    band[g] = band[g] * alpha + dir[g] * beta;
                }
                normalize(&mut band);
            }
            h.apply_band_into(&band, &mut h_band, &ew.ws);
            eps[n] = band
                .iter()
                .zip(h_band.iter())
                .map(|(c, h)| (c.conj() * *h).re)
                .sum();
            psi.set_col(n, &band);
        }
    }
    eps
}

fn project_out(psi: &CMatrix, n: usize, vec: &mut [Complex64]) {
    let np = psi.rows();
    for m in 0..n {
        let mut overlap = Complex64::ZERO;
        for g in 0..np {
            overlap = overlap.mul_add(psi[(g, m)].conj(), vec[g]);
        }
        for g in 0..np {
            let p = psi[(g, m)];
            vec[g] -= overlap * p;
        }
    }
}

fn normalize(vec: &mut [Complex64]) {
    let norm: f64 = vec.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if norm > 0.0 {
        for z in vec.iter_mut() {
            *z = z.scale(1.0 / norm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::PlaneWaveBasis;
    use mqmd_grid::UniformGrid3;

    fn small_basis() -> PlaneWaveBasis {
        // ~ 60 plane waves: small enough for a dense cross-check.
        PlaneWaveBasis::new(UniformGrid3::cubic(8, 8.0), 2.2)
    }

    fn dense_eigenvalues(h: &KsHamiltonian, count: usize) -> Vec<f64> {
        let np = h.basis().len();
        let mut dense = CMatrix::zeros(np, np);
        for g in 0..np {
            let mut e = vec![Complex64::ZERO; np];
            e[g] = Complex64::ONE;
            let col = h.apply_band(&e);
            for i in 0..np {
                dense[(i, g)] = col[i];
            }
        }
        // Symmetrise tiny numerical asymmetry before the dense solve.
        let mut sym = CMatrix::zeros(np, np);
        for i in 0..np {
            for j in 0..np {
                sym[(i, j)] = (dense[(i, j)] + dense[(j, i)].conj()).scale(0.5);
            }
        }
        let (vals, _) = zheev(&sym).unwrap();
        vals[..count].to_vec()
    }

    #[test]
    fn tpa_limits() {
        assert!((tpa_factor(0.0) - 1.0).abs() < 1e-14, "no damping at low G");
        assert!(tpa_factor(10.0) < 0.06, "strong damping at high G");
        assert!(tpa_factor(100.0) < 6e-3, "asymptotic 1/(2x) decay");
    }

    #[test]
    fn free_electron_spectrum() {
        let b = small_basis();
        let h = KsHamiltonian::new(&b, vec![0.0; b.grid().len()], None);
        let mut psi = b.random_bands(5, 1);
        let report = block_davidson(&h, &mut psi, 60, 1e-9).unwrap();
        let mut exact: Vec<f64> = b.g2().iter().map(|&g2| 0.5 * g2).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in report.eigenvalues.iter().zip(&exact[..5]) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn davidson_matches_dense_diagonalisation() {
        let b = small_basis();
        // A smooth cosine potential well.
        let grid = b.grid();
        let l = grid.lengths().0;
        let v = grid.sample(|r| {
            -0.8 * ((std::f64::consts::TAU * r.x / l).cos()
                + (std::f64::consts::TAU * r.y / l).cos()
                + (std::f64::consts::TAU * r.z / l).cos())
        });
        let h = KsHamiltonian::new(&b, v, None);
        let exact = dense_eigenvalues(&h, 4);
        let mut psi = b.random_bands(4, 5);
        let report = block_davidson(&h, &mut psi, 100, 1e-8).unwrap();
        for (got, want) in report.eigenvalues.iter().zip(&exact) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal_after_solve() {
        let b = small_basis();
        let grid = b.grid();
        let v = grid.sample(|r| -0.4 * (std::f64::consts::TAU * r.x / 8.0).cos());
        let h = KsHamiltonian::new(&b, v, None);
        let mut psi = b.random_bands(4, 8);
        block_davidson(&h, &mut psi, 80, 1e-8).unwrap();
        assert!(mqmd_linalg::orthonorm::orthonormality_defect(&psi) < 1e-8);
    }

    #[test]
    fn band_by_band_agrees_with_davidson() {
        let b = small_basis();
        let grid = b.grid();
        let l = grid.lengths().0;
        let v = grid.sample(|r| -0.6 * (std::f64::consts::TAU * r.x / l).cos());
        let h = KsHamiltonian::new(&b, v, None);

        let mut psi_d = b.random_bands(3, 11);
        let rep = block_davidson(&h, &mut psi_d, 100, 1e-9).unwrap();

        let mut psi_b = b.random_bands(3, 13);
        let eps = band_by_band(&h, &mut psi_b, 12, 8);
        for (bb, dv) in eps.iter().zip(&rep.eigenvalues) {
            assert!((bb - dv).abs() < 1e-4, "band-by-band {bb} vs davidson {dv}");
        }
    }

    /// Re-running a solve through one warm [`EigWorkspace`] must be bitwise
    /// identical to the first run — pooled buffers and swapped blocks are
    /// unobservable in the numerics.
    #[test]
    fn warm_workspace_solve_is_bitwise_identical() {
        let b = small_basis();
        let grid = b.grid();
        let l = grid.lengths().0;
        let v = grid.sample(|r| -0.5 * (std::f64::consts::TAU * r.x / l).cos());
        let h = KsHamiltonian::new(&b, v, None);
        let psi0 = b.random_bands(3, 23);
        let mut ew = EigWorkspace::new();
        let mut psi_a = psi0.clone();
        let rep_a = block_davidson_with(&h, &mut psi_a, 100, 1e-7, &mut ew).unwrap();
        let mut psi_b = psi0.clone();
        let rep_b = block_davidson_with(&h, &mut psi_b, 100, 1e-7, &mut ew).unwrap();
        assert_eq!(rep_a.iterations, rep_b.iterations);
        for (i, (x, y)) in psi_a.data().iter().zip(psi_b.data()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "warm vs cold mismatch at {i}"
            );
        }
        assert!(
            ew.ws.stats().snapshot().hits > 0,
            "second solve must reuse pooled buffers"
        );
        let mut psi_c = psi0.clone();
        let eps_warm = band_by_band_with(&h, &mut psi_c, 2, 3, &mut ew);
        let mut psi_d = psi0.clone();
        let eps_cold = band_by_band(&h, &mut psi_d, 2, 3);
        for (w, c) in eps_warm.iter().zip(&eps_cold) {
            assert!(w.to_bits() == c.to_bits(), "band-by-band {w} vs {c}");
        }
    }

    /// A Rayleigh–Ritz step on converged bands reproduces the Davidson
    /// Ritz values, leaves the bands orthonormal and hands every buffer it
    /// borrowed back to the workspace.
    #[test]
    fn rayleigh_ritz_recovers_converged_ritz_values() {
        let b = small_basis();
        let grid = b.grid();
        let l = grid.lengths().0;
        let v = grid.sample(|r| -0.7 * (std::f64::consts::TAU * r.y / l).cos());
        let h = KsHamiltonian::new(&b, v, None);
        let mut psi = b.random_bands(4, 29);
        let report = block_davidson(&h, &mut psi, 100, 1e-9).unwrap();
        let ws = Workspace::new();
        let vals = rayleigh_ritz(&h, &mut psi, &ws).unwrap();
        for (got, want) in vals.iter().zip(&report.eigenvalues) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
        assert!(mqmd_linalg::orthonorm::orthonormality_defect(&psi) < 1e-10);
        let misses = ws.stats().snapshot().misses;
        rayleigh_ritz(&h, &mut psi, &ws).unwrap();
        assert_eq!(ws.stats().snapshot().misses, misses, "buffers returned");
    }

    #[test]
    fn residual_below_tolerance_on_success() {
        let b = small_basis();
        let h = KsHamiltonian::new(&b, vec![0.0; b.grid().len()], None);
        let mut psi = b.random_bands(3, 17);
        let report = block_davidson(&h, &mut psi, 60, 1e-9).unwrap();
        assert!(report.residual < 1e-9);
        assert!(report.iterations <= 60);
    }
}
