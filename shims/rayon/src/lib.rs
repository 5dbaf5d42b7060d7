//! Offline drop-in subset of the [rayon](https://docs.rs/rayon) API.
//!
//! The workspace builds in network-isolated environments, so the real rayon
//! crate may be unavailable; this shim implements exactly the surface the
//! mqmd crates use — `par_iter`, `par_chunks_mut`, `into_par_iter` on
//! `Range<usize>`, the `map`/`filter`/`filter_map`/`step_by`/`with_min_len`
//! adapters, the `collect`/`for_each`/`sum` terminals,
//! `current_num_threads`, and `ThreadPoolBuilder::install` — on one
//! process-wide pool of persistent worker threads.
//!
//! Semantics preserved from rayon:
//!
//! * `collect()` preserves input order, and `sum()` folds in index order,
//!   so results are bitwise identical across runs and thread counts;
//! * closures run concurrently when more than one thread is configured, so
//!   they must be `Sync` and items `Send`;
//! * a panic in a parallel closure reaches the caller with its original
//!   payload, and the pool stays usable afterwards;
//! * `with_min_len(m)` keeps at least `m` items per part, so a call site
//!   whose per-item work is tiny can keep small loops on one thread.
//!
//! How the pool runs a call over `0..n`:
//!
//! * The pool is started lazily by the first call that needs it and has
//!   `threads − 1` workers; the caller runs part 0 itself. The thread count
//!   comes from `RAYON_NUM_THREADS` or `available_parallelism`, and
//!   `ThreadPool::install(t)` sets it for calls made from the closure's own
//!   thread (the pool grows to `t − 1` workers if needed, so `install(4)`
//!   splits four ways on any host).
//! * `0..n` is split into `min(threads, n / min_len)` contiguous parts, a
//!   pure function of `n`, the thread count and the grain; part `k` always
//!   runs on worker `k − 1`.
//! * Idle workers spin for a bounded time, then park until the next job.
//! * A call runs inline on its own thread, without touching the pool, when
//!   it would make one part, when it is made from inside a running job
//!   (nested parallelism: the outer split already occupies the threads), or
//!   when another thread's job holds the pool (rank threads, service
//!   workers). A thread bounded to one thread by `install(1)` therefore
//!   never starts the pool.
//!
//! The shim also propagates the `mqmd_util::trace` span context into each
//! job, so FLOP/byte counters recorded inside parallel kernels attribute to
//! the span open at the call site, and gives each pool thread one
//! `mqmd_util::events` worker lane for its lifetime, so telemetry (and the
//! Chrome-trace timeline) shows workers as separate rows.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Thread-count control
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Whether this thread is running a part of a pool job: always on pool
    /// workers, and on a caller while it runs its own part.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of threads parallel operations on this thread will use: 1 inside
/// a running job (nested calls run inline), else the [`ThreadPool::install`]
/// override or the process default.
pub fn current_num_threads() -> usize {
    if IN_JOB.with(Cell::get) {
        return 1;
    }
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(default_num_threads)
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the API subset used by
/// the bench binaries.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type for [`ThreadPoolBuilder::build`]; construction cannot fail in
/// the shim.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool. Infallible in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(default_num_threads).max(1),
        })
    }
}

/// A handle bounding the parallelism of operations run under
/// [`ThreadPool::install`]. Every handle shares the one process-wide pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing parallel operations
    /// invoked from `f`'s thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        THREAD_OVERRIDE.with(|o| {
            let prev = o.replace(Some(self.num_threads));
            let out = f();
            o.set(prev);
            out
        })
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Low bits of [`Shared::ticket`] holding the job's part count.
const PARTS_BITS: u32 = 16;
/// Most parts one job splits into (one less than the ticket field holds).
const MAX_PARTS: usize = (1 << PARTS_BITS) - 1;
/// How long an idle worker polls for the next job before parking.
const WORKER_SPIN: Duration = Duration::from_micros(50);
/// How long a caller polls for its workers to finish before parking.
const CALLER_SPIN: Duration = Duration::from_micros(50);

/// The running job, as workers see it.
struct Job {
    /// The per-part body, its borrow lifetime erased (see [`Pool::run`]).
    part: *const (dyn Fn(usize) + Sync),
    /// Trace span context of the caller.
    ctx: usize,
    /// The caller, unparked by the last worker to finish.
    caller: Thread,
}

// SAFETY: `part` points to a `Sync` closure, which any thread may call
// through a shared reference; when it may be dereferenced is governed by
// `Shared`'s protocol below. `ctx` and `caller` are `Send`.
unsafe impl Send for Job {}

/// State the pool owner publishes to the workers.
struct Shared {
    /// `epoch << PARTS_BITS | parts` of the latest job. Stored with
    /// `Release` after `job` and `pending` are written; workers load it with
    /// `Acquire` before reading them.
    ticket: AtomicU64,
    /// The running job; written only by the owner while no worker part is
    /// pending, read only by workers with a part in the current job.
    job: UnsafeCell<Option<Job>>,
    /// Worker parts of the current job not yet finished. Workers decrement
    /// it with `Release` after their part; the owner waits for zero with
    /// `Acquire`, which publishes the parts' writes to the caller.
    pending: AtomicUsize,
    /// First panic payload raised by a worker part of the current job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `ticket`, `pending` and `panic` are themselves `Sync`. `job` is
// written only by the thread holding `Pool::owner`, and only when no worker
// part is pending (before publishing a ticket, or after `pending` reached
// zero); a worker reads it only between seeing a ticket whose parts include
// it and decrementing `pending`, so reads and writes never overlap. The
// `part` closure it points to is `Sync` and outlives the job (the owner
// waits for `pending == 0` before returning), and `Thread` is `Sync`.
unsafe impl Sync for Shared {}

struct Pool {
    shared: Shared,
    /// Held by the thread whose job runs (claimed with `try_lock`, so a
    /// concurrent caller runs inline instead of waiting); holds the
    /// workers' handles, worker `k` running part `k + 1`.
    owner: Mutex<Vec<Thread>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Shared {
            ticket: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        },
        owner: Mutex::new(Vec::new()),
    })
}

/// Range of part `k` of `0..n` split into `parts` contiguous pieces whose
/// lengths differ by at most one.
fn part_range(n: usize, parts: usize, k: usize) -> std::ops::Range<usize> {
    let (base, extra) = (n / parts, n % parts);
    let start = k * base + k.min(extra);
    start..start + base + usize::from(k < extra)
}

impl Pool {
    /// Runs `part(0..parts)` with part 0 on the calling thread and part `k`
    /// on worker `k − 1`, returning once every part finished. Returns
    /// `false` without running anything when another thread's job holds
    /// the pool.
    fn run(&'static self, parts: usize, part: &(dyn Fn(usize) + Sync)) -> bool {
        let mut workers = match self.owner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => return false,
            // Only a failed worker spawn can panic while the lock is held,
            // and it leaves the handle list valid.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let sh = &self.shared;
        let epoch = sh.ticket.load(Ordering::Relaxed) >> PARTS_BITS;
        while workers.len() < parts - 1 {
            let index = workers.len();
            // Pool workers live as long as the process; their parts run
            // under `catch_unwind`, so the detached handle hides no panic.
            let handle = thread::Builder::new()
                .name(format!("rayon-shim-{index}"))
                .spawn(move || self.worker(index, epoch))
                .expect("spawn rayon-shim pool worker");
            workers.push(handle.thread().clone());
        }
        // SAFETY: the lifetime-erased pointer is dereferenced only by
        // workers with a part in this job, all of which finish (`pending`
        // reaches zero below) before this function returns and `part`'s
        // borrow ends.
        let part_static: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(part)
        };
        // SAFETY: we hold `owner` and no worker part is pending (the last
        // job waited for `pending == 0`), so no worker reads `job` now.
        unsafe {
            *sh.job.get() = Some(Job {
                part: part_static,
                ctx: mqmd_util::trace::current_ctx(),
                caller: thread::current(),
            });
        }
        sh.pending.store(parts - 1, Ordering::Relaxed);
        sh.ticket.store(
            ((epoch + 1) << PARTS_BITS) | parts as u64,
            Ordering::Release,
        );
        for w in &workers[..parts - 1] {
            w.unpark();
        }

        let was_in_job = IN_JOB.with(|j| j.replace(true));
        let mine = catch_unwind(AssertUnwindSafe(|| part(0)));
        IN_JOB.with(|j| j.set(was_in_job));

        let t0 = Instant::now();
        while sh.pending.load(Ordering::Acquire) != 0 {
            if t0.elapsed() < CALLER_SPIN {
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
        // SAFETY: every worker part finished, so no worker reads `job`.
        unsafe {
            *sh.job.get() = None;
        }
        let theirs = sh.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        drop(workers);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
        true
    }

    /// Body of pool worker `index`, started while the ticket was at `epoch`.
    fn worker(&self, index: usize, mut epoch: u64) {
        let _lane = mqmd_util::events::LaneGuard::worker();
        IN_JOB.with(|j| j.set(true));
        let sh = &self.shared;
        let mut idle_since = Instant::now();
        loop {
            let ticket = sh.ticket.load(Ordering::Acquire);
            if ticket >> PARTS_BITS == epoch {
                if idle_since.elapsed() < WORKER_SPIN {
                    std::hint::spin_loop();
                } else {
                    thread::park();
                }
                continue;
            }
            epoch = ticket >> PARTS_BITS;
            let parts = (ticket & MAX_PARTS as u64) as usize;
            if index + 1 >= parts {
                continue;
            }
            // SAFETY: this worker has a part in the job the ticket
            // published, so the owner keeps `job` unchanged (and `part`
            // alive) until this worker decrements `pending` below.
            let job = unsafe { (*sh.job.get()).as_ref() }.expect("published job");
            let caller = job.caller.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ctx = mqmd_util::trace::ContextGuard::enter(job.ctx);
                // SAFETY: see above — the closure outlives this part.
                unsafe { (*job.part)(index + 1) }
            }));
            if let Err(payload) = outcome {
                sh.panic
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get_or_insert(payload);
            }
            if sh.pending.fetch_sub(1, Ordering::Release) == 1 {
                caller.unpark();
            }
            idle_since = Instant::now();
        }
    }
}

// ---------------------------------------------------------------------------
// Core parallel driver
// ---------------------------------------------------------------------------

/// Runs `f(0), …, f(n-1)`, split into at most `current_num_threads()`
/// contiguous parts of at least `min_len` indices each; one part (or a busy
/// pool, or a call from inside a job) runs inline on the caller.
fn run_indexed<F: Fn(usize) + Sync>(n: usize, min_len: usize, f: F) {
    let parts = current_num_threads().min(n / min_len.max(1)).min(MAX_PARTS);
    let part = |k: usize| {
        for i in part_range(n, parts, k) {
            f(i);
        }
    };
    if parts <= 1 || !pool().run(parts, &part) {
        for i in 0..n {
            f(i);
        }
    }
}

/// Order-preserving parallel map over `0..n`.
fn map_indexed<T: Send, F: Fn(usize) -> T + Sync>(n: usize, min_len: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    struct SendPtr<T>(*mut Option<T>);
    // SAFETY: the pointer is only used to write disjoint `T: Send` slots.
    unsafe impl<T: Send> Send for SendPtr<T> {}
    // SAFETY: as above; no slot is read or written by two threads.
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    impl<T> SendPtr<T> {
        fn get(&self) -> *mut Option<T> {
            self.0
        }
    }
    let ptr = SendPtr(out.as_mut_ptr());
    run_indexed(n, min_len, |i| {
        // SAFETY: each index i in [0, n) is visited exactly once by
        // run_indexed, so the writes are disjoint and in-bounds.
        unsafe {
            *ptr.get().add(i) = Some(f(i));
        }
    });
    out.into_iter()
        .map(|v| v.expect("all indices visited"))
        .collect()
}

// ---------------------------------------------------------------------------
// Parallel iterator (indexed source + fused Option-eval pipeline)
// ---------------------------------------------------------------------------

/// Per-index evaluator of a parallel pipeline: `Some` for items surviving
/// the adapter chain, `None` for filtered-out ones. Implemented by pipeline
/// sources and automatically by matching closures.
pub trait Eval<T>: Sync {
    /// Evaluates pipeline element `i`.
    fn eval(&self, i: usize) -> Option<T>;
}

impl<T, F: Fn(usize) -> Option<T> + Sync> Eval<T> for F {
    fn eval(&self, i: usize) -> Option<T> {
        self(i)
    }
}

/// Source evaluator for `Range<usize>`.
pub struct RangeEval {
    start: usize,
}

impl Eval<usize> for RangeEval {
    fn eval(&self, i: usize) -> Option<usize> {
        Some(self.start + i)
    }
}

/// Source evaluator for shared slices.
pub struct SliceEval<'a, T> {
    data: &'a [T],
}

impl<'a, T: Sync> Eval<&'a T> for SliceEval<'a, T> {
    fn eval(&self, i: usize) -> Option<&'a T> {
        Some(&self.data[i])
    }
}

/// A parallel pipeline over an indexed source of `n` elements.
pub struct ParIter<T, E> {
    n: usize,
    min_len: usize,
    eval: E,
    _marker: PhantomData<fn() -> T>,
}

impl<T, E> ParIter<T, E>
where
    T: Send,
    E: Eval<T>,
{
    fn adapt<U, G: Eval<U>>(self, n: usize, eval: impl FnOnce(E) -> G) -> ParIter<U, G> {
        ParIter {
            n,
            min_len: self.min_len,
            eval: eval(self.eval),
            _marker: PhantomData,
        }
    }

    /// Keeps at least `min` source items in each part, so a loop of fewer
    /// than `2 · min` items runs on one thread.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = self.min_len.max(min);
        self
    }

    /// Maps each item through `g`.
    pub fn map<U: Send, G>(self, g: G) -> ParIter<U, impl Eval<U>>
    where
        G: Fn(T) -> U + Sync,
    {
        let n = self.n;
        self.adapt(n, |eval| move |i| eval.eval(i).map(&g))
    }

    /// Keeps only items matching `p`.
    pub fn filter<P>(self, p: P) -> ParIter<T, impl Eval<T>>
    where
        P: Fn(&T) -> bool + Sync,
    {
        let n = self.n;
        self.adapt(n, |eval| move |i| eval.eval(i).filter(&p))
    }

    /// Maps and filters in one step.
    pub fn filter_map<U: Send, G>(self, g: G) -> ParIter<U, impl Eval<U>>
    where
        G: Fn(T) -> Option<U> + Sync,
    {
        let n = self.n;
        self.adapt(n, |eval| move |i| eval.eval(i).and_then(&g))
    }

    /// Takes every `step`-th item (counting from the first).
    pub fn step_by(self, step: usize) -> ParIter<T, impl Eval<T>> {
        assert!(step > 0, "step_by requires a positive step");
        let n = self.n.div_ceil(step);
        self.adapt(n, |eval| move |i| eval.eval(i * step))
    }

    /// Runs `f` on every item.
    pub fn for_each<G>(self, f: G)
    where
        G: Fn(T) + Sync,
    {
        let eval = self.eval;
        run_indexed(self.n, self.min_len, |i| {
            if let Some(v) = eval.eval(i) {
                f(v);
            }
        });
    }

    /// Collects surviving items, preserving source order.
    pub fn collect<C: FromParIter<T>>(self) -> C {
        let eval = self.eval;
        let parts = map_indexed(self.n, self.min_len, |i| eval.eval(i));
        C::from_options(parts)
    }

    /// Sums the items in index order.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        let eval = self.eval;
        let parts = map_indexed(self.n, self.min_len, |i| eval.eval(i));
        parts.into_iter().flatten().sum()
    }
}

/// Order-preserving collection target for [`ParIter::collect`].
pub trait FromParIter<T> {
    /// Builds the collection from per-index results (`None` = filtered out).
    fn from_options(parts: Vec<Option<T>>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_options(parts: Vec<Option<T>>) -> Self {
        parts.into_iter().flatten().collect()
    }
}

impl<T, E> FromParIter<Result<T, E>> for Result<Vec<T>, E> {
    fn from_options(parts: Vec<Option<Result<T, E>>>) -> Self {
        parts.into_iter().flatten().collect()
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Pipeline type.
    type Iter;
    /// Converts into a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize, RangeEval>;
    fn into_par_iter(self) -> Self::Iter {
        let start = self.start;
        let n = self.end.saturating_sub(self.start);
        ParIter {
            n,
            min_len: 1,
            eval: RangeEval { start },
            _marker: PhantomData,
        }
    }
}

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` items.
    fn par_iter(&self) -> ParIter<&T, SliceEval<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T, SliceEval<'_, T>> {
        ParIter {
            n: self.len(),
            min_len: 1,
            eval: SliceEval { data: self },
            _marker: PhantomData,
        }
    }
}

/// Mutable chunked parallel iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable chunks of `chunk_size` elements (the
    /// final chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            data: self,
            chunk_size,
            min_len: 1,
        }
    }
}

/// Parallel iterator over disjoint mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
    min_len: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Keeps at least `min` chunks in each part.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = self.min_len.max(min);
        self
    }

    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> EnumChunksMut<'a, T> {
        EnumChunksMut { inner: self }
    }

    /// Runs `f` on every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumChunksMut<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> EnumChunksMut<'_, T> {
    /// Keeps at least `min` chunks in each part.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.inner = self.inner.with_min_len(min);
        self
    }

    /// Runs `f` on every `(index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk_size = self.inner.chunk_size;
        let len = self.inner.data.len();
        let n_chunks = len.div_ceil(chunk_size);
        struct SendPtr<T>(*mut T);
        // SAFETY: the pointer is only used to hand out disjoint `&mut [T]`
        // chunks, which `T: Send` lets other threads own.
        unsafe impl<T: Send> Send for SendPtr<T> {}
        // SAFETY: as above; no element is reachable from two chunks.
        unsafe impl<T: Send> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let ptr = SendPtr(self.inner.data.as_mut_ptr());
        run_indexed(n_chunks, self.inner.min_len, |ci| {
            let start = ci * chunk_size;
            let end = (start + chunk_size).min(len);
            // SAFETY: chunks [start, end) are pairwise disjoint across ci and
            // in-bounds; the borrow of `data` outlives run_indexed.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
            f((ci, chunk));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::MutexGuard;

    /// Serialises the tests that use the pool, so that the ones asserting
    /// how a job ran are not sent inline by a concurrent test holding it.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn threads(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let _x = exclusive();
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_drops_none() {
        let _x = exclusive();
        let v: Vec<usize> = (0..20)
            .into_par_iter()
            .filter_map(|i| (i % 3 == 0).then_some(i))
            .collect();
        assert_eq!(v, vec![0, 3, 6, 9, 12, 15, 18]);
    }

    #[test]
    fn step_by_matches_serial() {
        let _x = exclusive();
        let v: Vec<usize> = (0..10).into_par_iter().step_by(4).collect();
        assert_eq!(v, vec![0, 4, 8]);
    }

    #[test]
    fn slice_par_iter_maps() {
        let _x = exclusive();
        let data = [1.0f64, 2.0, 3.0];
        let v: Vec<f64> = data.par_iter().map(|x| x + 1.0).collect();
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let _x = exclusive();
        let mut data = vec![0usize; 10];
        data.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn sum_terminal() {
        let _x = exclusive();
        let s: usize = (0..101).into_par_iter().sum();
        assert_eq!(s, 5050);
    }

    #[test]
    fn install_bounds_thread_count() {
        let _x = exclusive();
        assert_eq!(threads(1).install(current_num_threads), 1);
        let pool3 = threads(3);
        assert_eq!(pool3.install(current_num_threads), 3);
        // Parallel work still correct under an override > 1.
        let v: Vec<usize> = pool3.install(|| (0..1000).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v.len(), 1000);
        assert_eq!(v[999], 1000);
    }

    #[test]
    fn parts_are_contiguous_and_balanced() {
        for n in 0..40 {
            for parts in 1..9 {
                let ranges: Vec<_> = (0..parts).map(|k| part_range(n, parts, k)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[parts - 1].end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let lens: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "n {n} parts {parts}: {lens:?}");
            }
        }
    }

    #[test]
    fn spawned_workers_get_worker_lanes() {
        use mqmd_util::events::{current_lane, Lane};
        use std::collections::BTreeSet;
        let _x = exclusive();
        let lanes = Mutex::new(BTreeSet::new());
        threads(4).install(|| {
            (0..1000).into_par_iter().for_each(|_| {
                lanes.lock().unwrap().insert(current_lane());
            });
        });
        let lanes = lanes.into_inner().unwrap();
        let workers = lanes
            .iter()
            .filter(|&&l| matches!(Lane::decode(l), Lane::Worker(_)))
            .count();
        // Static parts: parts 1..4 run on three pool workers, each on its
        // own worker lane; the caller runs part 0 on its own lane.
        assert_eq!(workers, 3, "lanes: {lanes:?}");
        assert_eq!(lanes.len(), 4, "lanes: {lanes:?}");
    }

    #[test]
    fn install_four_covers_every_index_once() {
        let _x = exclusive();
        let hits: Vec<AtomicUsize> = (0..10_007).map(|_| AtomicUsize::new(0)).collect();
        let workers = Mutex::new(std::collections::BTreeSet::new());
        threads(4).install(|| {
            (0..hits.len()).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                workers
                    .lock()
                    .unwrap()
                    .insert(thread::current().name().map(str::to_owned));
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Four parts on four threads, whatever this host's core count.
        assert_eq!(workers.into_inner().unwrap().len(), 4);
    }

    #[test]
    fn nested_calls_run_inline_and_match_serial() {
        let _x = exclusive();
        let serial: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..50).map(|j| i * 100 + j).collect())
            .collect();
        let nested: Vec<Vec<usize>> = threads(4).install(|| {
            (0..8)
                .into_par_iter()
                .map(|i| {
                    let outer = thread::current().id();
                    assert_eq!(current_num_threads(), 1, "nested calls run inline");
                    (0..50)
                        .into_par_iter()
                        .map(|j| {
                            assert_eq!(thread::current().id(), outer);
                            i * 100 + j
                        })
                        .collect()
                })
                .collect()
        });
        assert_eq!(nested, serial);
    }

    #[test]
    fn worker_panic_reaches_caller_and_pool_recovers() {
        let _x = exclusive();
        let pool4 = threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool4.install(|| {
                (0..400).into_par_iter().for_each(|i| {
                    if i == 399 {
                        std::panic::panic_any(format!("boom at {i}"));
                    }
                })
            })
        }));
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom at 399");
        let s: usize = pool4.install(|| (0..1000).into_par_iter().sum());
        assert_eq!(s, 499_500);
    }

    #[test]
    fn min_len_keeps_small_loops_on_the_caller() {
        let _x = exclusive();
        let caller = thread::current().id();
        threads(4).install(|| {
            (0..15).into_par_iter().with_min_len(8).for_each(|_| {
                assert_eq!(thread::current().id(), caller);
            });
            let mut data = [0u8; 64];
            data.par_chunks_mut(4)
                .with_min_len(16)
                .enumerate()
                .for_each(|(_, c)| {
                    assert_eq!(thread::current().id(), caller);
                    c.fill(1);
                });
            assert!(data.iter().all(|&x| x == 1));
        });
    }

    #[test]
    fn concurrent_callers_fall_back_inline_and_stay_correct() {
        let _x = exclusive();
        let go = std::sync::Barrier::new(2);
        let run = || {
            go.wait();
            threads(4).install(|| (0..20_000).into_par_iter().map(|i| i as u64).sum::<u64>())
        };
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(run);
            let b = s.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (199_990_000, 199_990_000));
    }

    #[test]
    fn forced_multithread_chunks_cover_all_indices() {
        let _x = exclusive();
        let mut data = vec![0u64; 10_000];
        threads(4).install(|| {
            data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (i * 7 + j) as u64;
                }
            });
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }
}
