//! Differential tests of the vectorized Stockham butterflies against the
//! always-compiled scalar reference.
//!
//! The vector butterflies replicate the scalar complex-multiply op order
//! per lane, so the dispatcher path must be **bitwise** identical to
//! `forward_scalar`/`inverse_scalar` for every length — power-of-two
//! Stockham lengths and Bluestein lengths alike (Bluestein recurses into
//! vectorized inner transforms). On top of the bitwise pin, the classic
//! analytic checks (round trip, Parseval) run on the SIMD path so a
//! future relaxation of the bitwise contract still has a correctness
//! floor, and the 3-D pencil transform must be bitwise reproducible
//! across rayon thread counts.

use mqmd_fft::{Fft1d, Fft3d};
use mqmd_util::{Complex64, Xoshiro256pp};
use proptest::prelude::*;

fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex64::new(rng.normal(), rng.normal()))
        .collect()
}

fn bits_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatcher_is_bitwise_scalar_any_length(n in 1usize..300, seed in any::<u64>()) {
        let plan = Fft1d::new(n);
        let x = random_signal(n, seed);

        let mut fwd = x.clone();
        let mut fwd_ref = x.clone();
        plan.forward(&mut fwd);
        plan.forward_scalar(&mut fwd_ref);
        prop_assert!(bits_eq(&fwd, &fwd_ref), "forward n={}", n);

        plan.inverse(&mut fwd);
        plan.inverse_scalar(&mut fwd_ref);
        prop_assert!(bits_eq(&fwd, &fwd_ref), "inverse n={}", n);
    }

    // Mixed-path round trip: SIMD forward undone by the scalar inverse
    // (and vice versa) recovers the signal — the two paths implement the
    // same transform, not merely two self-consistent ones.
    #[test]
    fn mixed_path_round_trip(n in 1usize..200, seed in any::<u64>()) {
        let plan = Fft1d::new(n);
        let x = random_signal(n, seed);

        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse_scalar(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + a.abs()));
        }

        let mut z = x.clone();
        plan.forward_scalar(&mut z);
        plan.inverse(&mut z);
        for (a, b) in x.iter().zip(&z) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn simd_path_preserves_parseval(n in 1usize..200, seed in any::<u64>()) {
        let x = random_signal(n, seed);
        let mut y = x.clone();
        Fft1d::new(n).forward(&mut y);
        let e_t: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_f: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((e_t - e_f).abs() < 1e-7 * (1.0 + e_t));
    }
}

/// The 3-D transform fans pencils out over rayon; each pencil is an
/// independent 1-D transform, so the result must not depend on how many
/// workers the pool happens to have.
#[test]
fn fft3d_is_bitwise_deterministic_across_thread_counts() {
    // The larger shape clears the sweeps' per-part grain, so it is really
    // split across threads.
    for (nx, ny, nz) in [(12, 8, 10), (32, 32, 32)] {
        round_trip_is_thread_count_invariant(nx, ny, nz);
    }
}

fn round_trip_is_thread_count_invariant(nx: usize, ny: usize, nz: usize) {
    let plan = Fft3d::new(nx, ny, nz);
    let x = random_signal(plan.len(), 42);
    let reference = {
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        y
    };
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        let got = pool.install(|| {
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            y
        });
        assert!(
            bits_eq(&got, &reference),
            "{nx}x{ny}x{nz}: {threads}-thread fft3d round trip diverged"
        );
    }
}
