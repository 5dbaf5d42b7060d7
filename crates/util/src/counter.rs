//! An event counter that many threads can bump on a hot path without
//! sharing a cache line.
//!
//! The process-wide FLOP tally and workspace-hit count are bumped per 1-D
//! FFT line and per scratch borrow: millions of times per QMD step, from
//! every thread running a domain solve. A single atomic bounces its cache
//! line between cores on every bump. [`ShardedCounter`] gives each thread
//! its own padded shard and sums the shards on read, so reads stay exact.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards; threads beyond this share shards round-robin.
const SHARDS: usize = 16;

/// One shard on a cache line (pair) of its own.
#[derive(Debug)]
#[repr(align(128))]
struct Shard(AtomicU64);

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned on first use.
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// A relaxed `u64` event counter sharded per thread.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: [Shard; SHARDS],
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self {
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        let slot = SLOT.with(|s| *s);
        self.shards[slot].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Resets every shard to zero and returns the sum they held. An add
    /// racing with the reset lands either in the returned sum or in the
    /// fresh count, never in neither.
    pub fn take(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.swap(0, Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_adds_sum_exactly() {
        let c = ShardedCounter::new();
        std::thread::scope(|s| {
            for t in 0..24u64 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(t + 1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 1000 * (1..=24).sum::<u64>());
        assert_eq!(c.take(), 300_000);
        assert_eq!(c.get(), 0);
    }
}
