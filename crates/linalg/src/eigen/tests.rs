//! Unit tests of the eigensolvers, and the differential suite that holds
//! the Householder + QL [`zheev`] to the cyclic-Jacobi reference.

use super::*;
use crate::gemm::{dgemm, zgemm};
use mqmd_util::Xoshiro256pp;

#[test]
fn dsyev_diagonal() {
    let mut a = Matrix::zeros(3, 3);
    a[(0, 0)] = 3.0;
    a[(1, 1)] = -1.0;
    a[(2, 2)] = 2.0;
    let (vals, _) = dsyev(&a).unwrap();
    assert_eq!(vals, vec![-1.0, 2.0, 3.0]);
}

#[test]
fn dsyev_reconstructs() {
    let n = 10;
    let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 * 0.1);
    let mut a = Matrix::zeros(n, n);
    dgemm(1.0, &b.transpose(), &b, 0.0, &mut a);
    let (vals, v) = dsyev(&a).unwrap();
    // A·V = V·Λ
    let mut av = Matrix::zeros(n, n);
    dgemm(1.0, &a, &v, 0.0, &mut av);
    for j in 0..n {
        for i in 0..n {
            assert!(
                (av[(i, j)] - vals[j] * v[(i, j)]).abs() < 1e-9,
                "column {j}"
            );
        }
    }
    // V orthogonal
    let mut vtv = Matrix::zeros(n, n);
    dgemm(1.0, &v.transpose(), &v, 0.0, &mut vtv);
    assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-11);
    // eigenvalues of BᵀB are non-negative and sorted
    for w in vals.windows(2) {
        assert!(w[0] <= w[1] + 1e-12);
    }
    assert!(vals[0] > -1e-10);
}

#[test]
fn zheev_hermitian_reconstructs() {
    let n = 8;
    let b = CMatrix::from_fn(n, n, |i, j| {
        Complex64::new(
            ((i + 3 * j) % 5) as f64 * 0.2,
            ((2 * i + j) % 7) as f64 * 0.15,
        )
    });
    let mut a = CMatrix::zeros(n, n);
    zgemm(Complex64::ONE, &b.dagger(), &b, Complex64::ZERO, &mut a);
    let (vals, v) = zheev(&a).unwrap();
    let mut av = CMatrix::zeros(n, n);
    zgemm(Complex64::ONE, &a, &v, Complex64::ZERO, &mut av);
    for j in 0..n {
        for i in 0..n {
            let expect = v[(i, j)].scale(vals[j]);
            assert!((av[(i, j)] - expect).abs() < 1e-9, "column {j}");
        }
    }
    // V unitary
    let mut vdv = CMatrix::zeros(n, n);
    zgemm(Complex64::ONE, &v.dagger(), &v, Complex64::ZERO, &mut vdv);
    assert!(vdv.max_abs_diff(&CMatrix::identity(n)) < 1e-11);
}

#[test]
fn zheev_known_pauli_x() {
    // σ_x has eigenvalues ±1.
    let mut a = CMatrix::zeros(2, 2);
    a[(0, 1)] = Complex64::ONE;
    a[(1, 0)] = Complex64::ONE;
    let (vals, _) = zheev(&a).unwrap();
    assert!((vals[0] + 1.0).abs() < 1e-12);
    assert!((vals[1] - 1.0).abs() < 1e-12);
}

#[test]
fn zheev_known_pauli_y() {
    // σ_y = [[0, -i], [i, 0]] has eigenvalues ±1 (genuinely complex case).
    let mut a = CMatrix::zeros(2, 2);
    a[(0, 1)] = -Complex64::I;
    a[(1, 0)] = Complex64::I;
    let (vals, v) = zheev(&a).unwrap();
    assert!((vals[0] + 1.0).abs() < 1e-12);
    assert!((vals[1] - 1.0).abs() < 1e-12);
    let mut vdv = CMatrix::zeros(2, 2);
    zgemm(Complex64::ONE, &v.dagger(), &v, Complex64::ZERO, &mut vdv);
    assert!(vdv.max_abs_diff(&CMatrix::identity(2)) < 1e-12);
}

#[test]
fn non_symmetric_rejected() {
    let mut a = Matrix::zeros(2, 2);
    a[(0, 1)] = 1.0;
    assert!(dsyev(&a).is_err());
}

/// A seeded Hermitian matrix with standard-normal entries.
fn random_hermitian(n: usize, seed: u64) -> CMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let a = CMatrix::from_fn(n, n, |_, _| Complex64::new(rng.normal(), rng.normal()));
    CMatrix::from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5))
}

fn scaled(a: &CMatrix, s: f64) -> CMatrix {
    CMatrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)].scale(s))
}

fn frobenius(a: &CMatrix) -> f64 {
    a.data().iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Holds `zheev(a)` to the Jacobi reference: `max |Δλ|` and the
/// Frobenius residual `‖A·V − V·Λ‖` within `1e-10·(1 + ‖A‖_F)`,
/// `max |V†V − I| ≤ 1e-12`, eigenvalues ascending.
fn assert_matches_jacobi(a: &CMatrix, label: &str) {
    let n = a.rows();
    let (vals, v) = zheev(a).unwrap();
    let (ref_vals, _) = jacobi::zheev(a).unwrap();
    assert_eq!(vals.len(), n, "{label}");
    assert_eq!((v.rows(), v.cols()), (n, n), "{label}");
    let bound = 1e-10 * (1.0 + a.frobenius_norm());
    let dl = vals
        .iter()
        .zip(&ref_vals)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    assert!(dl <= bound, "{label}: max |Δλ| {dl:e} > {bound:e}");
    assert!(
        vals.windows(2).all(|w| w[0] <= w[1]),
        "{label}: not ascending"
    );
    let mut av = CMatrix::zeros(n, n);
    zgemm(Complex64::ONE, a, &v, Complex64::ZERO, &mut av);
    let vl = CMatrix::from_fn(n, n, |i, j| v[(i, j)].scale(vals[j]));
    let res = frobenius(&CMatrix::from_fn(n, n, |i, j| av[(i, j)] - vl[(i, j)]));
    assert!(res <= bound, "{label}: ‖AV − VΛ‖ {res:e} > {bound:e}");
    let mut vdv = CMatrix::zeros(n, n);
    zgemm(Complex64::ONE, &v.dagger(), &v, Complex64::ZERO, &mut vdv);
    let ortho = vdv.max_abs_diff(&CMatrix::identity(n));
    assert!(ortho <= 1e-12, "{label}: max |V†V − I| {ortho:e}");
}

fn assert_bitwise(a: &(Vec<f64>, CMatrix), b: &(Vec<f64>, CMatrix), label: &str) {
    assert_eq!(a.0.len(), b.0.len(), "{label}");
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: eigenvalue {x} vs {y}");
    }
    assert_eq!(
        (a.1.rows(), a.1.cols()),
        (b.1.rows(), b.1.cols()),
        "{label}"
    );
    for (x, y) in a.1.data().iter().zip(b.1.data()) {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{label}: eigenvector {x} vs {y}"
        );
    }
}

#[test]
fn matches_jacobi_on_random_hermitian_sizes() {
    for n in [0, 1, 2, 3, 17, 64, 171, 342] {
        assert_matches_jacobi(&random_hermitian(n, 1000 + n as u64), &format!("n = {n}"));
    }
}

#[test]
fn matches_jacobi_on_structured_inputs() {
    let diag = CMatrix::from_fn(17, 17, |i, j| {
        if i == j {
            Complex64::from_re(((i * 7) % 17) as f64 - 8.0)
        } else {
            Complex64::ZERO
        }
    });
    assert_matches_jacobi(&diag, "diagonal");
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let b = CMatrix::from_fn(64, 64, |_, _| Complex64::from_re(rng.normal()));
    let real = CMatrix::from_fn(64, 64, |i, j| (b[(i, j)] + b[(j, i)]).scale(0.5));
    assert_matches_jacobi(&real, "real symmetric");
    let imag = CMatrix::from_fn(64, 64, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => b[(i, i)],
        std::cmp::Ordering::Less => Complex64::new(0.0, b[(i, j)].re),
        std::cmp::Ordering::Greater => Complex64::new(0.0, -b[(j, i)].re),
    });
    assert_matches_jacobi(&imag, "pure-imaginary off-diagonal");
}

#[test]
fn matches_jacobi_on_degenerate_spectra() {
    let c_identity = CMatrix::from_fn(17, 17, |i, j| {
        if i == j {
            Complex64::from_re(2.5)
        } else {
            Complex64::ZERO
        }
    });
    assert_matches_jacobi(&c_identity, "c·I");
    let (vals, v) = zheev(&c_identity).unwrap();
    assert!(vals.iter().all(|&x| x == 2.5));
    assert_eq!(v, CMatrix::identity(17), "c·I needs no rotation");
    let blk = random_hermitian(5, 11);
    let blocks = CMatrix::from_fn(20, 20, |i, j| {
        if i / 5 == j / 5 {
            blk[(i % 5, j % 5)]
        } else {
            Complex64::ZERO
        }
    });
    assert_matches_jacobi(&blocks, "four repeated 5×5 blocks");
    let (vals, _) = zheev(&blocks).unwrap();
    for g in vals.chunks(4) {
        assert!(
            g[3] - g[0] <= 1e-12 * (1.0 + blocks.frobenius_norm()),
            "{g:?}"
        );
    }
}

#[test]
fn matches_jacobi_across_scales() {
    for n in [17, 171] {
        let a = random_hermitian(n, 2000 + n as u64);
        for s in [1e-6, 1e6] {
            assert_matches_jacobi(&scaled(&a, s), &format!("n = {n} scaled by {s:e}"));
        }
    }
}

#[test]
fn lowest_is_bitwise_the_leading_columns_of_the_full_solve() {
    for (n, seed) in [(1, 1), (17, 2), (342, 3)] {
        let a = random_hermitian(n, seed);
        let (vals, v) = zheev(&a).unwrap();
        for m in [0, n / 2, n] {
            let lead = CMatrix::from_fn(n, m, |i, j| v[(i, j)]);
            let low = zheev_lowest(&a, m).unwrap();
            assert_bitwise(
                &low,
                &(vals[..m].to_vec(), lead),
                &format!("n = {n}, m = {m}"),
            );
        }
    }
}

#[test]
fn bitwise_identical_at_one_two_and_four_threads() {
    let a = random_hermitian(342, 5);
    let at = |t: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(|| zheev(&a).unwrap())
    };
    let one = at(1);
    assert_bitwise(&one, &at(2), "1 vs 2 threads");
    assert_bitwise(&one, &at(4), "1 vs 4 threads");
}

#[test]
fn bad_input_is_rejected_with_invalid() {
    let rect = CMatrix::zeros(3, 4);
    assert!(matches!(zheev(&rect), Err(MqmdError::Invalid(_))));
    let mut skew = CMatrix::zeros(2, 2);
    skew[(0, 1)] = Complex64::ONE;
    assert!(matches!(zheev(&skew), Err(MqmdError::Invalid(_))));
    assert!(matches!(
        zheev_lowest(&CMatrix::identity(3), 4),
        Err(MqmdError::Invalid(_))
    ));
}

#[test]
fn ql_iteration_cap_is_a_typed_error() {
    let a = random_hermitian(6, 9);
    assert!(matches!(
        hermitian_eigen(&a, 6, 0),
        Err(MqmdError::Convergence { .. })
    ));
    assert!(matches!(
        hermitian_eigen(&a, 6, 1),
        Err(MqmdError::Convergence { iterations: 1, .. })
    ));
    // A diagonal matrix needs no QL iteration at all.
    assert!(hermitian_eigen(&CMatrix::identity(6), 6, 0).is_ok());
    let mut nan = a.clone();
    nan[(0, 0)] = Complex64::new(f64::NAN, 0.0);
    assert!(matches!(zheev(&nan), Err(MqmdError::Convergence { .. })));
}
