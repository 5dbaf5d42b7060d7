//! Cyclic-Jacobi Hermitian eigensolver: the reference twin of
//! [`super::zheev`].
//!
//! Jacobi is simple, unconditionally stable and delivers unitary
//! eigenvectors to machine precision, but each sweep streams the whole
//! matrix through column-strided plane rotations, so it is several times
//! slower than Householder + QL at Rayleigh–Ritz sizes. It is compiled only
//! for the differential tests, which hold the production solver to it.

use super::MAX_SWEEPS;
use crate::cmatrix::CMatrix;
use mqmd_util::{Complex64, MqmdError, Result};

/// Eigen-decomposition of a complex Hermitian matrix by cyclic Jacobi.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and
/// eigenvectors in columns.
pub fn zheev(a: &CMatrix) -> Result<(Vec<f64>, CMatrix)> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid(
            "eigensolver needs a square matrix".into(),
        ));
    }
    if !a.is_hermitian(1e-9 * (1.0 + a.frobenius_norm())) {
        return Err(MqmdError::Invalid("zheev needs a Hermitian matrix".into()));
    }
    let mut m = a.clone();
    let mut v = CMatrix::identity(n);
    let tol = 1e-14 * (1.0 + a.frobenius_norm());

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diag_norm(&m);
        if off < tol {
            return Ok(sorted(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let beta = apq.abs();
                if beta < tol / (n * n) as f64 {
                    continue;
                }
                let u = apq / beta; // unit phase of the off-diagonal element
                let tau = (m[(q, q)].re - m[(p, p)].re) / (2.0 * beta);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate(&mut m, &mut v, p, q, c, s, u);
            }
        }
    }
    Err(MqmdError::Convergence {
        what: "Jacobi (zheev)".into(),
        iterations: MAX_SWEEPS,
        residual: off_diag_norm(&m),
    })
}

fn off_diag_norm(m: &CMatrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += 2.0 * m[(i, j)].norm_sqr();
        }
    }
    s.sqrt()
}

/// Applies the unitary plane rotation G (G_pp = c, G_pq = s·u, G_qp = −s·ū,
/// G_qq = c) as `A ← G†·A·G`, `V ← V·G`.
fn rotate(m: &mut CMatrix, v: &mut CMatrix, p: usize, q: usize, c: f64, s: f64, u: Complex64) {
    let n = m.rows();
    let su = u.scale(s);
    let su_conj = u.conj().scale(s);
    // Columns: A ← A·G.
    for i in 0..n {
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = aip.scale(c) - su_conj * aiq;
        m[(i, q)] = su * aip + aiq.scale(c);
    }
    // Rows: A ← G†·A.
    for j in 0..n {
        let apj = m[(p, j)];
        let aqj = m[(q, j)];
        m[(p, j)] = apj.scale(c) - su * aqj;
        m[(q, j)] = su_conj * apj + aqj.scale(c);
    }
    // Eigenvector accumulation: V ← V·G.
    for i in 0..n {
        let vip = v[(i, p)];
        let viq = v[(i, q)];
        v[(i, p)] = vip.scale(c) - su_conj * viq;
        v[(i, q)] = su * vip + viq.scale(c);
    }
}

fn sorted(m: CMatrix, v: CMatrix) -> (Vec<f64>, CMatrix) {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| m[(i, i)].re.partial_cmp(&m[(j, j)].re).unwrap());
    let vals: Vec<f64> = idx.iter().map(|&i| m[(i, i)].re).collect();
    let mut vecs = CMatrix::zeros(n, n);
    for (newj, &oldj) in idx.iter().enumerate() {
        for i in 0..n {
            vecs[(i, newj)] = v[(i, oldj)];
        }
    }
    (vals, vecs)
}
