//! Differential tests of the vectorized red-black Gauss–Seidel smoother
//! against the always-compiled scalar reference, plus the fixed-seed
//! golden-residual pin that locks run-to-run bitwise reproducibility.
//!
//! The vector smoother computes the identical scalar update per lane and
//! blends by color, so `rbgs_sweep_simd` must be **bitwise** equal to
//! `rbgs_sweep_scalar` on any grid — including the non-cubic and tiny
//! grids where most planes fall through to the scalar tail.

use mqmd_grid::UniformGrid3;
use mqmd_multigrid::smoother::{rbgs_sweep, rbgs_sweep_scalar, rbgs_sweep_simd};
use mqmd_multigrid::stencil::{norm, remove_mean, residual};
use mqmd_util::Xoshiro256pp;
use proptest::prelude::*;

fn random_field(grid: &UniformGrid3, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..grid.len()).map(|_| rng.normal()).collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: cell {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Red-black colouring needs even dims; nz in {2,4,…,12} sweeps the
    // vector loop's remainder classes: nz < 5 is all scalar tail, nz in
    // 5..=8 one partial vector block, larger grids mix full blocks with
    // the wrap-around tail.
    #[test]
    fn simd_sweep_is_bitwise_scalar(
        hx in 1usize..4, hy in 1usize..4, hz in 1usize..7,
        sweeps in 1usize..5, seed in any::<u64>(),
    ) {
        let (nx, ny, nz) = (2 * hx, 2 * hy, 2 * hz);
        let grid = UniformGrid3::new((nx, ny, nz), (5.0, 6.0, 7.0));
        let f = random_field(&grid, seed);
        let mut us = random_field(&grid, seed ^ 0xabcd);
        let mut uv = us.clone();
        for _ in 0..sweeps {
            rbgs_sweep_scalar(&grid, &mut us, &f);
            rbgs_sweep_simd(&grid, &mut uv, &f);
        }
        for (i, (x, y)) in us.iter().zip(&uv).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "{}x{}x{} sweeps={} cell {}", nx, ny, nz, sweeps, i
            );
        }
    }
}

/// The sweep parallelises over same-color planes whose writes are
/// disjoint and whose reads are all opposite-color, so the result must
/// not depend on the rayon worker count.
#[test]
fn rbgs_is_bitwise_deterministic_across_thread_counts() {
    // The 64³ grid clears the sweep's per-part grain, so it is really
    // split four ways; the 16³ one runs on the caller.
    for n in [16, 64] {
        rbgs_is_thread_count_invariant(n);
    }
}

fn rbgs_is_thread_count_invariant(n: usize) {
    let grid = UniformGrid3::cubic(n, 8.0);
    let f = random_field(&grid, 7);
    let reference = {
        let mut u = vec![0.0; grid.len()];
        for _ in 0..4 {
            rbgs_sweep(&grid, &mut u, &f);
        }
        u
    };
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        let got = pool.install(|| {
            let mut u = vec![0.0; grid.len()];
            for _ in 0..4 {
                rbgs_sweep(&grid, &mut u, &f);
            }
            u
        });
        assert_bits_eq(&got, &reference, &format!("{n}^3 {threads}-thread sweep"));
    }
}

/// Golden-residual pin: a fixed-seed smoothing problem must reproduce the
/// exact residual norm, to the bit, on every run and on both CI legs —
/// the scalar leg because it *is* the reference arithmetic, the SIMD leg
/// because the vector smoother is bitwise-scalar by construction. Any
/// future change to the smoother's op order shows up here first and must
/// consciously re-pin the constant.
#[test]
fn fixed_seed_smoothing_residual_matches_golden() {
    let grid = UniformGrid3::cubic(16, 8.0);
    let mut f = random_field(&grid, 20260808);
    remove_mean(&mut f);
    let mut u = vec![0.0; grid.len()];
    for _ in 0..8 {
        rbgs_sweep(&grid, &mut u, &f);
    }
    let mut r = vec![0.0; grid.len()];
    residual(&grid, &u, &f, &mut r);
    let res = norm(&r);

    const GOLDEN_BITS: u64 = 0x3FB46B482BCC846D;
    assert!(
        res.is_finite() && res > 0.0 && res < norm(&f),
        "smoothing must reduce the residual: {res}"
    );
    assert_eq!(
        res.to_bits(),
        GOLDEN_BITS,
        "golden residual drifted: got {res:.17e} ({:#018X}), expected {:.17e}",
        res.to_bits(),
        f64::from_bits(GOLDEN_BITS),
    );
}
