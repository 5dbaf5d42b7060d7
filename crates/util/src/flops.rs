//! Floating-point-operation accounting.
//!
//! The paper reports FLOP/s as a headline metric (Tables 1–2, §5.3). Since we
//! cannot read Blue Gene/Q hardware counters, the kernels in `mqmd-linalg`,
//! `mqmd-fft` and `mqmd-dft` report *analytic* FLOP counts (the standard
//! algorithmic counts: 2mnk for GEMM, 5·n·log₂n per complex FFT, …) through
//! this thread-safe tally. The machine model in `mqmd-parallel` combines
//! these counts with its throughput model to produce the paper's
//! GFLOP/s-vs-threads and %-of-peak tables.

use crate::counter::ShardedCounter;

/// A thread-safe FLOP tally, sharded per thread so concurrent kernels do
/// not contend on it.
#[derive(Debug, Default)]
pub struct FlopCounter {
    flops: ShardedCounter,
}

impl FlopCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self {
            flops: ShardedCounter::new(),
        }
    }

    /// Adds `n` floating-point operations.
    #[inline]
    pub fn add(&self, n: u64) {
        self.flops.add(n);
    }

    /// Current tally.
    pub fn get(&self) -> u64 {
        self.flops.get()
    }

    /// Resets the tally to zero and returns the previous value.
    pub fn take(&self) -> u64 {
        self.flops.take()
    }
}

/// Global tally used by the numerical kernels. Kernels call
/// [`count_flops`]; benches call [`take_flops`] around a region of interest.
static GLOBAL: FlopCounter = FlopCounter::new();

/// Adds to the global FLOP tally, and — when [`crate::trace`] is enabled —
/// attributes the same count to the innermost open trace span, so kernel
/// FLOPs show up per-phase in `BENCH_profile.json` without any extra calls
/// in the kernels.
#[inline]
pub fn count_flops(n: u64) {
    GLOBAL.add(n);
    crate::trace::add_flops(n);
}

/// Reads the global FLOP tally.
pub fn read_flops() -> u64 {
    GLOBAL.get()
}

/// Resets the global tally, returning the count accumulated since the last
/// reset.
pub fn take_flops() -> u64 {
    GLOBAL.take()
}

/// Analytic FLOP count of a real matrix multiply C(m×n) += A(m×k)·B(k×n).
pub const fn gemm_flops(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

/// Analytic FLOP count of a complex matrix multiply (4 real mul + 4 real add
/// per complex MAC).
pub const fn zgemm_flops(m: u64, n: u64, k: u64) -> u64 {
    8 * m * n * k
}

/// Analytic FLOP count of one complex FFT of length n (the conventional
/// 5·n·log₂n used by HPC reporting, fractional logs rounded down).
pub fn fft_flops(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    (5.0 * n as f64 * (n as f64).log2()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_takes() {
        let c = FlopCounter::new();
        c.add(10);
        c.add(32);
        assert_eq!(c.get(), 42);
        assert_eq!(c.take(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn analytic_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(zgemm_flops(1, 1, 1), 8);
        assert_eq!(fft_flops(8), 5 * 8 * 3);
        assert_eq!(fft_flops(1), 0);
    }

    #[test]
    fn global_counter_is_shared_across_threads() {
        take_flops();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count_flops(1);
                    }
                });
            }
        });
        assert_eq!(take_flops(), 4000);
    }
}
