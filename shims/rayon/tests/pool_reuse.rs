//! The pool is persistent: back-to-back parallel calls reuse the same
//! worker threads and worker lanes instead of starting new ones.
//!
//! This file holds a single test because it counts the process's threads
//! (`/proc/self/task`), which concurrently running tests would disturb.

use mqmd_util::events::{current_lane, Lane};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::Mutex;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn back_to_back_calls_reuse_threads_and_lanes() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let lanes = Mutex::new(BTreeSet::new());
    let call = || {
        pool.install(|| {
            (0..64).into_par_iter().for_each(|_| {
                let lane = current_lane();
                if matches!(Lane::decode(lane), Lane::Worker(_)) {
                    lanes.lock().unwrap().insert(lane);
                }
            })
        })
    };
    call(); // starts the pool
    let threads = thread_count();
    let first = lanes.lock().unwrap().clone();
    assert_eq!(first.len(), 3, "three workers ran parts: {first:?}");
    for _ in 0..1000 {
        call();
    }
    assert_eq!(thread_count(), threads, "no thread started after warm-up");
    assert_eq!(*lanes.lock().unwrap(), first, "no new worker lane");
}
