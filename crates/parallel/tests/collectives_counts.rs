//! Executed-collective accounting: the executor's allreduce must (a) equal
//! the serial sum for assorted rank counts, and (b) report *analytically*
//! predictable message/byte counts — a binomial reduce + broadcast is
//! exactly `2·(p−1)` messages of `len·8` bytes each, whatever the tree
//! shape — both to the per-run [`CommStats`] and to the ambient trace span.

use mqmd_parallel::comm::Comm;
use mqmd_parallel::executor::run_ranks;
use mqmd_util::trace;

const RANK_COUNTS: [usize; 4] = [1, 2, 7, 16];

#[test]
fn allreduce_equals_serial_sum() {
    for p in RANK_COUNTS {
        let len = 5usize;
        let out = run_ranks(p, |rank, comm| {
            comm.allreduce_sum((0..len).map(|j| (rank * len + j) as f64).collect())
                .unwrap()
        });
        let expect: Vec<f64> = (0..len)
            .map(|j| (0..p).map(|r| (r * len + j) as f64).sum())
            .collect();
        for (rank, o) in out.iter().enumerate() {
            assert_eq!(o, &expect, "p={p} rank={rank}");
        }
    }
}

#[test]
fn comm_stats_match_analytic_message_and_byte_counts() {
    let len = 384usize;
    for p in RANK_COUNTS {
        let tallies = run_ranks(p, |_, comm| {
            comm.allreduce_sum(vec![1.0; len]).unwrap();
            // The barrier guarantees every rank has finished sending before
            // anyone reads the shared tally.
            comm.barrier().unwrap();
            (comm.stats().messages(), comm.stats().bytes())
        });
        let expect_msgs = if p > 1 { 2 * (p as u64 - 1) } else { 0 };
        let expect_bytes = expect_msgs * (len * 8) as u64;
        for (msgs, bytes) in tallies {
            assert_eq!(msgs, expect_msgs, "p={p}");
            assert_eq!(bytes, expect_bytes, "p={p}");
        }
    }
}

#[test]
fn repeated_allreduces_accumulate_linearly() {
    let (p, len, rounds) = (7usize, 32usize, 9u64);
    let tallies = run_ranks(p, |_, comm| {
        for _ in 0..rounds {
            comm.allreduce_sum(vec![2.0; len]).unwrap();
        }
        comm.barrier().unwrap();
        (comm.stats().messages(), comm.stats().bytes())
    });
    let per_round = 2 * (p as u64 - 1);
    for (msgs, bytes) in tallies {
        assert_eq!(msgs, rounds * per_round);
        assert_eq!(bytes, rounds * per_round * (len * 8) as u64);
    }
}

#[test]
fn trace_span_attributes_allreduce_communication() {
    let (p, len) = (7usize, 64usize);
    trace::set_enabled(true);
    trace::take();
    {
        let _span = trace::span("collective_under_test");
        run_ranks(p, |_, comm| {
            comm.allreduce_sum(vec![0.5; len]).unwrap();
            comm.barrier().unwrap();
        });
    }
    let node = trace::take();
    trace::set_enabled(false);

    let agg = node
        .aggregate("collective_under_test")
        .expect("span recorded");
    let expect_msgs = 2 * (p as u64 - 1);
    assert_eq!(agg.comm_msgs, expect_msgs);
    assert_eq!(agg.comm_bytes, expect_msgs * (len * 8) as u64);
}
