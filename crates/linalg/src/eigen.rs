//! Symmetric / Hermitian eigensolvers.
//!
//! Subspace (Rayleigh–Ritz) diagonalisation inside the per-domain Kohn–Sham
//! solver works on `Nband × Nband` and `2·Nband × 2·Nband` matrices with
//! `Nband` of order 10². [`zheev`] and [`zheev_lowest`] follow LAPACK's
//! `zheev` in three steps:
//!
//! 1. **Householder tridiagonalisation** (`zhetrd`): `zlarfg` reflectors
//!    `H_i = I − τ_i·v_i·v_i†` reduce `A` to `Q†·A·Q = T` with a *real*
//!    off-diagonal. The working copy is stored in full, so the symmetric
//!    matrix–vector product and the rank-2 update both run along
//!    contiguous rows, split by rows over the rayon pool.
//! 2. **Implicit-shift QL** (`zsteqr`) on the real tridiagonal `T`, with
//!    the eigenvectors of `T` kept as contiguous rows so each Givens
//!    rotation is a two-row update.
//! 3. **Back-transform** of the wanted eigenvectors by the reflectors,
//!    `x ← H_0·…·H_{n−2}·x`, each eigenvector independently.
//!
//! Every row-split loop gives each row the same operation sequence whatever
//! the split, so results are bitwise identical at any thread count, and
//! [`zheev_lowest`]`(a, m)` is bitwise the first `m` columns of
//! [`zheev`]`(a)`. The cyclic-Jacobi solver this replaced is kept, in test
//! builds only, as the reference the differential tests hold it to.
//! [`dsyev`] (real symmetric, used only by tests and examples) is still
//! cyclic Jacobi. Eigen-decomposition is *not* the asymptotic bottleneck of
//! LDC-DFT — the paper's §3.1 puts that in the orthonormalisation, which
//! goes through Cholesky instead.

use crate::cmatrix::CMatrix;
use crate::matrix::Matrix;
use mqmd_util::flops::count_flops;
use mqmd_util::{trace, Complex64, MqmdError, Result};
use rayon::prelude::*;

#[cfg(test)]
mod jacobi;
#[cfg(test)]
mod tests;

/// Maximum number of Jacobi sweeps before conceding non-convergence.
const MAX_SWEEPS: usize = 64;

/// Eigen-decomposition of a real symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and the
/// k-th column of the eigenvector matrix corresponding to the k-th value.
pub fn dsyev(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid(
            "eigensolver needs a square matrix".into(),
        ));
    }
    if !a.is_symmetric(1e-9 * (1.0 + a.frobenius_norm())) {
        return Err(MqmdError::Invalid("dsyev needs a symmetric matrix".into()));
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * (1.0 + a.frobenius_norm());

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diag_norm_real(&m);
        if off < tol {
            return Ok(sorted_real(m, v));
        }
        count_flops(12 * (n as u64).pow(3) / 2);
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < tol / (n * n) as f64 {
                    continue;
                }
                let tau = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate_real(&mut m, &mut v, p, q, c, s);
            }
        }
    }
    Err(MqmdError::Convergence {
        what: "Jacobi (dsyev)".into(),
        iterations: MAX_SWEEPS,
        residual: off_diag_norm_real(&m),
    })
}

fn off_diag_norm_real(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += 2.0 * m[(i, j)] * m[(i, j)];
        }
    }
    s.sqrt()
}

fn rotate_real(m: &mut Matrix, v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    // A ← Gᵀ A G  (columns then rows), V ← V G.
    for i in 0..n {
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = c * aip - s * aiq;
        m[(i, q)] = s * aip + c * aiq;
    }
    for j in 0..n {
        let apj = m[(p, j)];
        let aqj = m[(q, j)];
        m[(p, j)] = c * apj - s * aqj;
        m[(q, j)] = s * apj + c * aqj;
    }
    for i in 0..n {
        let vip = v[(i, p)];
        let viq = v[(i, q)];
        v[(i, p)] = c * vip - s * viq;
        v[(i, q)] = s * vip + c * viq;
    }
}

fn sorted_real(m: Matrix, v: Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).unwrap());
    let vals: Vec<f64> = idx.iter().map(|&i| m[(i, i)]).collect();
    let mut vecs = Matrix::zeros(n, n);
    for (newj, &oldj) in idx.iter().enumerate() {
        for i in 0..n {
            vecs[(i, newj)] = v[(i, oldj)];
        }
    }
    (vals, vecs)
}

/// QL iterations allowed per eigenvalue, summed over the spectrum, before
/// conceding non-convergence (LAPACK's `zsteqr` also allows `30·n`).
const QL_ITERS_PER_EIGENVALUE: usize = 30;

/// Matrix elements per part of a row-split loop: trailing blocks smaller
/// than two parts stay on the calling thread.
const PAR_GRAIN: usize = 1 << 14;

/// Eigenvectors per block of the back-transform: a block shares each
/// reflector while it is in cache.
const BACK_BLOCK: usize = 8;

/// Eigen-decomposition of a complex Hermitian matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending (they are
/// real for Hermitian input) and eigenvectors in columns, unitary to machine
/// precision. Fails with [`MqmdError::Invalid`] on non-square or
/// non-Hermitian input and with [`MqmdError::Convergence`] when the QL
/// iteration does not converge (e.g. on non-finite input).
pub fn zheev(a: &CMatrix) -> Result<(Vec<f64>, CMatrix)> {
    zheev_lowest(a, a.rows())
}

/// The lowest `m` eigenpairs of a complex Hermitian matrix: the `m` smallest
/// eigenvalues ascending, and an `n × m` matrix of their eigenvectors in
/// columns. Only those `m` eigenvectors are back-transformed, so the cost
/// of that step scales with `m`; the result is bitwise the first `m`
/// eigenpairs of [`zheev`]. Errors as [`zheev`], plus
/// [`MqmdError::Invalid`] when `m > n`.
pub fn zheev_lowest(a: &CMatrix, m: usize) -> Result<(Vec<f64>, CMatrix)> {
    hermitian_eigen(a, m, QL_ITERS_PER_EIGENVALUE * a.rows())
}

/// [`zheev_lowest`] with an explicit cap on the total QL iterations.
fn hermitian_eigen(a: &CMatrix, m: usize, ql_cap: usize) -> Result<(Vec<f64>, CMatrix)> {
    let _span = trace::span("zheev");
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid(
            "eigensolver needs a square matrix".into(),
        ));
    }
    if !a.is_hermitian(1e-9 * (1.0 + a.frobenius_norm())) {
        return Err(MqmdError::Invalid("zheev needs a Hermitian matrix".into()));
    }
    if m > n {
        return Err(MqmdError::Invalid(format!(
            "zheev_lowest asked for {m} eigenpairs of a {n}×{n} matrix"
        )));
    }
    // Work on the nearest exactly Hermitian matrix, (A + A†)/2.
    let mut s = CMatrix::from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5));
    let (mut d, mut e, tau) = tridiagonalize(s.data_mut(), n);
    if d.iter().chain(&e).any(|x| !x.is_finite()) {
        return Err(MqmdError::Convergence {
            what: "implicit QL (zheev): non-finite tridiagonal".into(),
            iterations: 0,
            residual: f64::NAN,
        });
    }
    let mut zt = vec![0.0; n * n];
    for i in 0..n {
        zt[i * n + i] = 1.0;
    }
    tql(&mut d, &mut e, &mut zt, n, ql_cap)?;

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    order.truncate(m);
    let vals = order.iter().map(|&i| d[i]).collect();
    let mut vt: Vec<Complex64> = order
        .iter()
        .flat_map(|&i| {
            zt[i * n..(i + 1) * n]
                .iter()
                .map(|&x| Complex64::from_re(x))
        })
        .collect();
    drop(zt);
    back_transform(s.data(), &tau, &mut vt, n);
    drop(s);
    let v = CMatrix::from_fn(n, m, |r, j| vt[j * n + r]);
    Ok((vals, v))
}

/// Reduces the Hermitian `n × n` row-major matrix `s` (both triangles
/// stored) to real tridiagonal form `T = Q†·A·Q`, `Q = H_0·…·H_{n−2}`,
/// returning `(diagonal, off-diagonal, τ)`; `e[i]` couples `i` and `i + 1`
/// and `e[n − 1] = 0`. Reflector `v_i` (with `v_i[0] = 1`) is left in row
/// `i`, columns `i + 1..n`, for the back-transform.
///
/// Step `i` is LAPACK's `zhetd2` on the trailing block `B`: with
/// `y = τ·B·v` and `w = y − ½·τ·(y†·v)·v`, `B ← B − v·w† − w·v†`. Column `i`
/// below the diagonal is read as the conjugate of row `i`, so every access
/// is along a row.
fn tridiagonalize(s: &mut [Complex64], n: usize) -> (Vec<f64>, Vec<f64>, Vec<Complex64>) {
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut tau = vec![Complex64::ZERO; n.saturating_sub(1)];
    let mut w = vec![Complex64::ZERO; n];
    let mut flops = 0u64;
    for i in 0..n.saturating_sub(1) {
        let m = n - i - 1;
        let (head, tail) = s.split_at_mut((i + 1) * n);
        d[i] = head[i * n + i].re;
        // Column i below the diagonal, read as the conjugate of row i.
        let v = &mut head[i * n + i + 1..];
        for z in v.iter_mut() {
            *z = z.conj();
        }
        let (t, beta) = householder(v);
        let v = &*v;
        e[i] = beta;
        tau[i] = t;
        flops += 14 * m as u64;
        if t == Complex64::ZERO {
            continue;
        }
        let rows = PAR_GRAIN.div_ceil(m);
        // y = τ·B·v, one dot product per row of B.
        let y = &mut w[..m];
        let b = &*tail;
        y.par_chunks_mut(1)
            .enumerate()
            .with_min_len(rows)
            .for_each(|(j, yj)| {
                let row = &b[j * n + i + 1..(j + 1) * n];
                yj[0] = t * dot(row, v);
            });
        // w = y − ½·τ·(y†·v)·v.
        let alpha = (t * conj_dot(y, v)).scale(-0.5);
        for (wk, &vk) in y.iter_mut().zip(v) {
            *wk += alpha * vk;
        }
        let w = &*y;
        // B ← B − v·w† − w·v†, summed before subtracting so B stays
        // exactly Hermitian.
        tail.par_chunks_mut(n)
            .enumerate()
            .with_min_len(rows)
            .for_each(|(j, row)| {
                let (vj, wj) = (v[j], w[j]);
                for ((bk, &vk), &wk) in row[i + 1..].iter_mut().zip(v).zip(w) {
                    *bk -= vj * wk.conj() + wj * vk.conj();
                }
            });
        flops += 24 * (m * m) as u64 + 16 * m as u64;
    }
    if n > 0 {
        d[n - 1] = s[n * n - 1].re;
    }
    count_flops(flops);
    (d, e, tau)
}

/// LAPACK `zlarfg` on `x = [α, x₁…]`: finds `H = I − τ·v·v†` with
/// `H†·x = β·e₀`, `β` real. Overwrites `x` with `v` (`v[0] = 1`) and
/// returns `(τ, β)`; `τ = 0` when `x` is already `β·e₀`.
fn householder(x: &mut [Complex64]) -> (Complex64, f64) {
    let alpha = x[0];
    let xnorm = x[1..].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    x[0] = Complex64::ONE;
    if xnorm == 0.0 && alpha.im == 0.0 {
        return (Complex64::ZERO, alpha.re);
    }
    let norm = alpha.re.hypot(alpha.im).hypot(xnorm);
    let beta = if alpha.re >= 0.0 { -norm } else { norm };
    let tau = Complex64::new((beta - alpha.re) / beta, -alpha.im / beta);
    let scale = (alpha - Complex64::from_re(beta)).inv();
    for z in &mut x[1..] {
        *z *= scale;
    }
    (tau, beta)
}

/// `Σ a_k·b_k`, in index order.
#[inline]
fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    a.iter()
        .zip(b)
        .fold(Complex64::ZERO, |acc, (&x, &y)| acc + x * y)
}

/// `Σ conj(a_k)·b_k`, in index order.
#[inline]
fn conj_dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    a.iter()
        .zip(b)
        .fold(Complex64::ZERO, |acc, (&x, &y)| acc + x.conj() * y)
}

/// Implicit-shift QL on the symmetric tridiagonal `(d, e)` (`e[i]` couples
/// `i` and `i + 1`, `e[n − 1] = 0`), after Numerical Recipes' `tqli`.
/// Leaves the eigenvalues, unsorted, in `d`, and applies every rotation to
/// the rows of `zt`, so row `j` of `zt` ends as the eigenvector of `d[j]`.
/// Fails after `cap` QL iterations in total.
fn tql(d: &mut [f64], e: &mut [f64], zt: &mut [f64], n: usize, cap: usize) -> Result<()> {
    let mut iterations = 0;
    let mut rotations = 0u64;
    for l in 0..n {
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd || e[m].abs() < f64::MIN_POSITIVE {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            if iterations == cap {
                count_flops(rotations * (6 * n as u64 + 20));
                return Err(MqmdError::Convergence {
                    what: "implicit QL (zheev)".into(),
                    iterations,
                    residual: e[..n - 1].iter().fold(0.0, |acc, x| acc.max(x.abs())),
                });
            }
            iterations += 1;
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                let r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow: the block splits at i + 1.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                let (lo, hi) = zt.split_at_mut((i + 1) * n);
                for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let f = *zi1;
                    *zi1 = s * *zi + c * f;
                    *zi = c * *zi - s * f;
                }
                rotations += 1;
            }
            if deflated {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    count_flops(rotations * (6 * n as u64 + 20));
    Ok(())
}

/// Applies `Q = H_0·…·H_{n−2}` to each row of `vt` (eigenvectors of the
/// tridiagonal, one per row): `x ← x − τ_i·v_i·(v_i†·x)` for `i` from
/// `n − 2` down to 0, with `v_i` read from row `i` of the reduced matrix
/// `s`. Blocks of rows run in parallel; each row's arithmetic is the same
/// whatever the split.
fn back_transform(s: &[Complex64], tau: &[Complex64], vt: &mut [Complex64], n: usize) {
    let vecs = vt.len().checked_div(n).unwrap_or(0);
    if vecs == 0 {
        return;
    }
    // A block of rows reads about BACK_BLOCK·n²/2 reflector elements.
    let blocks = (PAR_GRAIN / (BACK_BLOCK * n * n / 2).max(1)).max(1);
    vt.par_chunks_mut(BACK_BLOCK * n)
        .with_min_len(blocks)
        .for_each(|block| {
            for (i, &t) in tau.iter().enumerate().rev() {
                if t == Complex64::ZERO {
                    continue;
                }
                let v = &s[i * n + i + 1..(i + 1) * n];
                for x in block.chunks_mut(n) {
                    let x = &mut x[i + 1..];
                    let c = t * conj_dot(v, x);
                    for (xk, &vk) in x.iter_mut().zip(v) {
                        *xk -= c * vk;
                    }
                }
            }
        });
    // A dot product and an axpy of length n − i − 1 per reflector and row.
    let per_row: u64 = (0..tau.len())
        .filter(|&i| tau[i] != Complex64::ZERO)
        .map(|i| 16 * (n - i - 1) as u64)
        .sum();
    count_flops(per_row * vecs as u64);
}
