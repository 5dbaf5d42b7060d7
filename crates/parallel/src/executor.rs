//! The in-process backend: MPI-style rank programs on threads.
//!
//! Historically this executor *was* the architecture; after the
//! [`Comm`](crate::comm::Comm) refactor it is one backend of three —
//! ranks as threads, links as channels. The multi-process backend lives
//! in [`crate::process`]; pricing is the digital twin's job
//! ([`crate::twin`]), which replays the recorded traffic through the
//! cost model.
//!
//! Every `send_to` is metered: the executor counts messages and payload
//! bytes and reports both to a per-run [`CommStats`] (exact,
//! test-friendly) and to the ambient [`mqmd_util::trace`] span (so
//! profiles attribute communication to the phase that performed it).
//! The `MPI_COMM_SPLIT` of the domain
//! decomposition corresponds to constructing one executor per domain
//! group.
//!
//! Messages are addressed by source: `recv_from` demultiplexes the
//! rank's single inbox into per-source FIFO queues, which is what lets
//! the shared collectives fold children in a deterministic order. Both
//! `recv_from` and `barrier` poll the run deadline and the ambient
//! cancel token on a short slice, so a hung peer surfaces as a typed
//! [`CommError::PeerTimeout`] instead of a stuck thread.

use crate::comm::{Comm, CommError, CommResult, TrafficStats, POLL_SLICE_MS};
use mqmd_util::cancel::{self, CancelScope, CancelToken};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-rank inbox depth. Bounded (backpressure, not unbounded
/// buffering): a sender that finds the queue full books a deferral in
/// [`CommStats`] and waits for room. The cap is far above anything the
/// provided collectives enqueue per rank (at most ~p frames), so clean
/// runs never defer — but it must stay modest: std's bounded channel
/// preallocates `cap` slots per rank, so an oversized cap taxes every
/// executor launch with megabytes of zeroed buffer.
pub const THREAD_INBOX_CAP: usize = 1_024;

/// Message/byte tally shared by every rank of one executor run.
#[derive(Debug, Default)]
pub struct CommStats {
    msgs: AtomicU64,
    bytes: AtomicU64,
    deferred: AtomicU64,
}

impl CommStats {
    /// Total point-to-point messages sent.
    pub fn messages(&self) -> u64 {
        self.msgs.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Sends that hit inbox backpressure (deferred, then delivered).
    pub fn deferred(&self) -> u64 {
        self.deferred.load(Ordering::Relaxed)
    }

    fn record(&self, bytes: u64) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// A barrier built on `Condvar::wait_timeout` so arrivals can keep
/// polling the deadline and the cancel plane while parked. A rank that
/// gives up (timeout/cancel) withdraws its arrival, so the remaining
/// ranks still need the full complement — they then time out with the
/// same typed error rather than passing a short barrier.
struct WaitBarrier {
    n: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl WaitBarrier {
    fn new(n: usize) -> Self {
        WaitBarrier {
            n,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn wait(&self, rank: usize, deadline: Option<Duration>) -> CommResult<()> {
        let start = Instant::now();
        let mut st = self.state.lock().expect("barrier lock");
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.1;
        loop {
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(POLL_SLICE_MS))
                .expect("barrier wait");
            st = guard;
            if st.1 != gen {
                return Ok(());
            }
            if let Some(reason) = cancel::poll_abort() {
                st.0 -= 1;
                return Err(CommError::Cancelled {
                    op: "barrier",
                    reason,
                });
            }
            if let Some(d) = deadline {
                if start.elapsed() >= d {
                    st.0 -= 1;
                    return Err(CommError::PeerTimeout {
                        rank,
                        op: "barrier",
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
            }
        }
    }
}

struct Inbox {
    rx: Receiver<(usize, Vec<f64>)>,
    stash: HashMap<usize, VecDeque<Vec<f64>>>,
}

/// The per-rank communicator handle of the thread backend.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<SyncSender<(usize, Vec<f64>)>>,
    inbox: Mutex<Inbox>,
    barrier: Arc<WaitBarrier>,
    stats: Arc<CommStats>,
    traffic: Arc<TrafficStats>,
    deadline: Option<Duration>,
}

impl ThreadComm {
    /// The shared message/byte tally for this run.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The per-primitive wait budget (None blocks until cancelled).
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    /// Sends a message to `dest`. Effectively non-blocking for the
    /// provided collectives (the [`THREAD_INBOX_CAP`] bound is far
    /// above their per-rank queue depth); a full inbox books a
    /// deferral and waits for room rather than buffering without
    /// limit.
    fn send_to(&self, dest: usize, data: &[f64]) -> CommResult<()> {
        let bytes = std::mem::size_of_val(data) as u64;
        self.stats.record(bytes);
        mqmd_util::trace::add_comm(1, bytes, 0.0);
        let gone = |_| CommError::PeerGone {
            rank: dest,
            op: "send_to",
        };
        match self.senders[dest].try_send((self.rank, data.to_vec())) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => {
                self.stats.deferred.fetch_add(1, Ordering::Relaxed);
                self.senders[dest].send(msg).map_err(gone)
            }
            Err(TrySendError::Disconnected(_)) => Err(CommError::PeerGone {
                rank: dest,
                op: "send_to",
            }),
        }
    }

    fn recv_from(&self, src: usize, op: &'static str) -> CommResult<Vec<f64>> {
        let start = Instant::now();
        let mut inbox = self.inbox.lock().expect("inbox lock");
        loop {
            if let Some(q) = inbox.stash.get_mut(&src) {
                if let Some(msg) = q.pop_front() {
                    return Ok(msg);
                }
            }
            match inbox.rx.recv_timeout(Duration::from_millis(POLL_SLICE_MS)) {
                Ok((from, data)) if from == src => return Ok(data),
                Ok((from, data)) => inbox.stash.entry(from).or_default().push_back(data),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerGone { rank: src, op })
                }
            }
            if let Some(reason) = cancel::poll_abort() {
                return Err(CommError::Cancelled { op, reason });
            }
            if let Some(d) = self.deadline {
                if start.elapsed() >= d {
                    return Err(CommError::PeerTimeout {
                        rank: src,
                        op,
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
            }
        }
    }

    fn barrier(&self) -> CommResult<()> {
        self.barrier.wait(self.rank, self.deadline)
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }
}

/// Options for an executor run beyond the rank count.
#[derive(Default)]
pub struct RunOpts {
    /// Per-primitive wait budget: a `recv_from`/`barrier` that waits
    /// longer returns [`CommError::PeerTimeout`]. `None` waits until
    /// the run is cancelled.
    pub deadline: Option<Duration>,
    /// Cancel token installed in every rank thread, so a service-plane
    /// deadline/shutdown aborts blocked collectives with
    /// [`CommError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

/// Runs `f(rank, comm)` on `n` rank threads and returns the per-rank
/// results in rank order. Panics in any rank propagate.
pub fn run_ranks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ThreadComm) -> T + Sync,
{
    run_ranks_opts(n, RunOpts::default(), f)
}

/// [`run_ranks`] with deadline and cancellation wiring.
pub fn run_ranks_opts<T, F>(n: usize, opts: RunOpts, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ThreadComm) -> T + Sync,
{
    assert!(n >= 1);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = sync_channel(THREAD_INBOX_CAP);
        senders.push(tx);
        receivers.push(rx);
    }
    let barrier = Arc::new(WaitBarrier::new(n));
    let stats = Arc::new(CommStats::default());
    let traffic = Arc::new(TrafficStats::default());

    let mut comms: Vec<ThreadComm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| ThreadComm {
            rank,
            size: n,
            senders: senders.clone(),
            inbox: Mutex::new(Inbox {
                rx,
                stash: HashMap::new(),
            }),
            barrier: barrier.clone(),
            stats: stats.clone(),
            traffic: traffic.clone(),
            deadline: opts.deadline,
        })
        .collect();
    drop(senders);

    // Propagate the caller's open trace span into the rank threads so
    // communication counters land in the right phase.
    let ctx = mqmd_util::trace::current_ctx();
    let cancel = opts.cancel;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .drain(..)
            .enumerate()
            .map(|(rank, comm)| {
                let f = &f;
                let cancel = cancel.clone();
                scope.spawn(move || {
                    let _g = mqmd_util::trace::ContextGuard::enter(ctx);
                    let _lane = mqmd_util::events::LaneGuard::rank(rank as u32);
                    let _cancel = cancel.map(CancelScope::install);
                    f(rank, &comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_util::cancel::CancelReason;

    #[test]
    fn ranks_know_their_identity() {
        let out = run_ranks(4, |rank, comm| {
            assert_eq!(comm.rank(), rank);
            assert_eq!(comm.size(), 4);
            rank * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn clean_runs_never_hit_backpressure() {
        // The inbox bound exists for pathological senders, not for the
        // provided collectives — a clean run must book zero deferrals.
        let mut deferred = u64::MAX;
        run_ranks(4, |rank, comm| {
            comm.allreduce_sum(vec![rank as f64; 8]).unwrap();
            comm.barrier().unwrap();
            comm.stats().deferred()
        })
        .into_iter()
        .for_each(|d| deferred = deferred.min(d));
        assert_eq!(deferred, 0);
    }

    #[test]
    fn ring_pass_accumulates() {
        // Each rank sends its id to the next; after one hop every rank holds
        // its predecessor's id.
        let n = 5;
        let out = run_ranks(n, |rank, comm| {
            comm.send_to((rank + 1) % n, &[rank as f64]).unwrap();
            comm.recv_from((rank + n - 1) % n, "ring").unwrap()[0] as usize
        });
        for (rank, &got) in out.iter().enumerate() {
            assert_eq!(got, (rank + n - 1) % n);
        }
    }

    #[test]
    fn recv_from_demuxes_out_of_order_sources() {
        // Rank 2 asks for rank 1's message *after* rank 0's has already
        // been delivered — the stash must hold rank 0's until asked for.
        let out = run_ranks(3, |rank, comm| match rank {
            0 => {
                comm.send_to(2, &[10.0]).unwrap();
                comm.barrier().unwrap();
                0.0
            }
            1 => {
                comm.barrier().unwrap();
                comm.send_to(2, &[20.0]).unwrap();
                0.0
            }
            _ => {
                // Rank 0's message is guaranteed in flight before the
                // barrier; rank 1's only after. Ask in reverse order.
                comm.barrier().unwrap();
                let b = comm.recv_from(1, "test").unwrap()[0];
                let a = comm.recv_from(0, "test").unwrap()[0];
                a * 100.0 + b
            }
        });
        assert_eq!(out[2], 1020.0);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let n = 6;
        let out = run_ranks(n, |rank, comm| {
            comm.allreduce_sum(vec![rank as f64, 1.0]).unwrap()
        });
        let expect = vec![(0..6).sum::<usize>() as f64, 6.0];
        for o in out {
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn repeated_allreduces_stay_consistent() {
        // The global-density reduction happens every SCF iteration; repeated
        // collectives must not deadlock or cross-talk.
        let out = run_ranks(3, |rank, comm| {
            let mut acc = 0.0;
            for round in 0..10 {
                let r = comm.allreduce_sum(vec![(rank + round) as f64]).unwrap();
                acc += r[0];
            }
            acc
        });
        let expect: f64 = (0..10)
            .map(|round| (0..3).map(|r| (r + round) as f64).sum::<f64>())
            .sum();
        for o in out {
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn barrier_synchronises_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let out = run_ranks(4, |_, comm| {
            phase1.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all 4 phase-1
            // increments.
            phase1.load(Ordering::SeqCst)
        });
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let out = run_ranks(1, |_, comm| comm.allreduce_sum(vec![7.0]).unwrap());
        assert_eq!(out, vec![vec![7.0]]);
    }

    #[test]
    fn halo_exchange_rotates_the_ring() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = run_ranks(n, |rank, comm| {
                let left = [rank as f64 * 2.0];
                let right = [rank as f64 * 2.0 + 1.0];
                comm.halo_exchange(&left, &right).unwrap()
            });
            for (rank, (from_left, from_right)) in out.iter().enumerate() {
                let left_nb = (rank + n - 1) % n;
                let right_nb = (rank + 1) % n;
                assert_eq!(from_left, &vec![left_nb as f64 * 2.0 + 1.0], "n={n}");
                assert_eq!(from_right, &vec![right_nb as f64 * 2.0], "n={n}");
            }
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        for n in [1usize, 2, 3, 4, 7] {
            let out = run_ranks(n, |rank, comm| {
                let blocks: Vec<Vec<f64>> = (0..n)
                    .map(|dest| vec![(rank * 100 + dest) as f64; 2])
                    .collect();
                comm.alltoall(&blocks).unwrap()
            });
            for (rank, got) in out.iter().enumerate() {
                for (src, block) in got.iter().enumerate() {
                    assert_eq!(block, &vec![(src * 100 + rank) as f64; 2], "n={n}");
                }
            }
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = run_ranks(5, |rank, comm| {
            comm.allgather_concat(&[rank as f64, -(rank as f64)])
                .unwrap()
        });
        let expect: Vec<f64> = (0..5).flat_map(|r| [r as f64, -(r as f64)]).collect();
        for o in out {
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn recv_deadline_yields_typed_timeout() {
        let opts = RunOpts {
            deadline: Some(Duration::from_millis(30)),
            cancel: None,
        };
        let out = run_ranks_opts(2, opts, |rank, comm| {
            if rank == 0 {
                // Rank 1 never sends.
                comm.recv_from(1, "probe").err()
            } else {
                None
            }
        });
        match &out[0] {
            Some(CommError::PeerTimeout { rank, op, .. }) => {
                assert_eq!(*rank, 1);
                assert_eq!(*op, "probe");
            }
            other => panic!("expected PeerTimeout, got {other:?}"),
        }
    }

    #[test]
    fn barrier_deadline_yields_typed_timeout() {
        let opts = RunOpts {
            deadline: Some(Duration::from_millis(30)),
            cancel: None,
        };
        let out = run_ranks_opts(2, opts, |rank, comm| {
            if rank == 0 {
                comm.barrier().err()
            } else {
                // Rank 1 never arrives; it just waits out rank 0's probe
                // window so the channel stays open.
                std::thread::sleep(Duration::from_millis(80));
                None
            }
        });
        assert!(
            matches!(out[0], Some(CommError::PeerTimeout { op: "barrier", .. })),
            "got {:?}",
            out[0]
        );
    }

    #[test]
    fn service_cancel_aborts_blocked_collective() {
        let token = CancelToken::new();
        let signal = token.clone();
        // Trip the token shortly after the ranks block.
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            signal.cancel(CancelReason::Shutdown);
        });
        let opts = RunOpts {
            deadline: None,
            cancel: Some(token),
        };
        let out = run_ranks_opts(2, opts, |rank, comm| {
            if rank == 0 {
                comm.recv_from(1, "density_allreduce").err()
            } else {
                comm.barrier().err()
            }
        });
        killer.join().unwrap();
        assert!(
            matches!(
                out[0],
                Some(CommError::Cancelled {
                    reason: CancelReason::Shutdown,
                    ..
                })
            ),
            "recv: {:?}",
            out[0]
        );
        assert!(
            matches!(out[1], Some(CommError::Cancelled { .. })),
            "barrier: {:?}",
            out[1]
        );
    }

    #[test]
    fn ranks_get_lanes_and_collectives_emit_events() {
        use mqmd_util::events;
        // Serialise against anything else toggling the global sink.
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        events::set_enabled(true);
        let _ = events::drain();
        let lanes = run_ranks(4, |_, comm| {
            let lane = events::Lane::decode(events::current_lane());
            let _ = comm.allreduce_sum(vec![1.0, 2.0]).unwrap();
            lane
        });
        events::set_enabled(false);
        let (records, _) = events::drain();
        for (rank, lane) in lanes.into_iter().enumerate() {
            assert_eq!(lane, events::Lane::Rank(rank as u32));
        }
        let collectives: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, events::Event::CollectiveDone { .. }))
            .collect();
        assert_eq!(
            collectives.len(),
            1,
            "one event per collective, rank 0 only"
        );
        if let events::Event::CollectiveDone {
            op, ranks, bytes, ..
        } = &collectives[0].event
        {
            assert_eq!(*op, "allreduce_sum");
            assert_eq!(*ranks, 4);
            assert_eq!(*bytes, 16);
        }
        assert_eq!(
            events::Lane::decode(collectives[0].lane),
            events::Lane::Rank(0)
        );
    }

    #[test]
    fn traffic_ledger_books_collectives() {
        let tallies = run_ranks(4, |_, comm| {
            comm.allreduce_sum(vec![1.0; 16]).unwrap();
            comm.allreduce_sum(vec![2.0; 16]).unwrap();
            comm.alltoall(&vec![vec![0.0; 4]; 4]).unwrap();
            comm.barrier().unwrap();
            comm.traffic().snapshot()
        });
        let snap = &tallies[0];
        let ar = snap.iter().find(|(op, _)| op == "allreduce_sum").unwrap();
        assert_eq!(ar.1.calls, 2);
        assert_eq!(ar.1.msgs, 2 * 6); // 2 calls × 2(p−1)
        assert_eq!(ar.1.bytes, 2 * 6 * 128);
        let a2a = snap.iter().find(|(op, _)| op == "alltoall").unwrap();
        assert_eq!(a2a.1.msgs, 12); // p(p−1)
        assert_eq!(a2a.1.bytes, 4 * 3 * 32);
    }
}
