//! The rank worker of the `ranks_ldc` workload: `run_processes` spawns
//! it with `MQMD_RANK_*` environment, and it runs the named program of
//! `perfbench::programs::REGISTRY`. Started by hand it only explains
//! itself.

fn main() {
    if let Some(code) = mqmd_parallel::process::worker_from_env(perfbench::programs::REGISTRY) {
        std::process::exit(code);
    }
    eprintln!(
        "perfbench-rank is the rank worker of perfbench's ranks_ldc workload; \
         run_processes starts it with MQMD_RANK_* environment variables"
    );
    std::process::exit(2);
}
