//! Real-rank smoke gate: spawns actual `mqmd-rank` worker processes over
//! the TCP transport and checks the three properties the distributed
//! runtime promises:
//!
//! 1. **Bitwise transport equivalence** — `collectives_smoke` and the
//!    distributed H₂ LDC-DFT solve (`verify_h2`) return byte-identical
//!    RESULT payloads on the thread backend and the process backend;
//! 2. **Closed-form wire counts** — the parent router's observed DATA
//!    frames match the collective message algebra (allreduce `2·(p−1)`,
//!    pairwise all-to-all `p·(p−1)`, halo `2p`);
//! 3. **Typed failure, never a hang** — a seeded `WorkerKill` on the
//!    fault plane SIGKILLs one rank mid-collective; the parent must
//!    surface `CommError::PeerGone` within the deadline, the rerun must
//!    succeed, and the fault ledger must balance;
//! 4. **In-place rank restart** — with the recovery supervisor armed, a
//!    seeded kill of one rank mid-SCF during the 4-rank H₂ solve must be
//!    healed by respawn + epoch-fenced replay, and the finished run must
//!    be **bitwise-identical** to a fault-free run;
//! 5. **Typed quarantine** — a rank that keeps dying past the restart
//!    budget is quarantined; the survivors shrink the communicator and
//!    still complete (bitwise-equal to the shrunk thread reference)
//!    instead of hanging or aborting the whole solve.
//!
//! Usage: `cargo run --release -p mqmd-bench --bin repro_ranks -- [--smoke]`
//! (the smoke run is also the default). Exits non-zero on any violation —
//! this is the CI `ranks` job's gate.

use mqmd_bench::real_ranks::{run_thread_reference, worker_bin, REGISTRY};
use mqmd_parallel::comm::CommError;
use mqmd_parallel::process::{run_processes, KillSpec, ProcessOpts, ProcessRun, RecoveryOpts};
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};
use std::time::Duration;

const RANKS: usize = 4;

fn opts(args: &[f64]) -> ProcessOpts {
    ProcessOpts {
        deadline: Duration::from_secs(60),
        args: args.to_vec(),
        ..Default::default()
    }
}

fn run(program: &str, n: usize, args: &[f64]) -> Result<ProcessRun, CommError> {
    run_processes(&worker_bin(), program, n, opts(args))
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "--smoke".into());
    if arg != "--smoke" {
        eprintln!("usage: repro_ranks [--smoke]");
        std::process::exit(2);
    }
    let mut violations: Vec<String> = Vec::new();
    println!("== repro_ranks: {RANKS}-process real-rank smoke ==\n");
    println!("worker binary: {}", worker_bin().display());
    println!("registry: {} programs\n", REGISTRY.len());

    // 1. Bitwise transport equivalence.
    for (program, args) in [("collectives_smoke", vec![64.0]), ("verify_h2", vec![])] {
        let reference = run_thread_reference(program, RANKS, &args).expect("program registered");
        match run(program, RANKS, &args) {
            Ok(p) => {
                if p.results == reference {
                    println!(
                        "{program:<18} bitwise identical across transports \
                         ({} data frames, {} bytes, {:.2} s)",
                        p.data_frames, p.data_bytes, p.wall_seconds
                    );
                } else {
                    violations.push(format!(
                        "{program}: process results differ from thread reference"
                    ));
                }
            }
            Err(e) => violations.push(format!("{program}: process run failed: {e}")),
        }
    }

    // 2. Closed-form wire counts observed by the router.
    println!();
    let count_cases: [(&str, Vec<f64>, u64); 4] = [
        (
            "count_allreduce",
            vec![3.0, 32.0],
            3 * 2 * (RANKS as u64 - 1),
        ),
        (
            "count_allgather",
            vec![2.0, 32.0],
            2 * 2 * (RANKS as u64 - 1),
        ),
        ("count_alltoall", vec![16.0], (RANKS * (RANKS - 1)) as u64),
        ("count_halo", vec![16.0], 2 * RANKS as u64),
    ];
    for (program, args, expect) in count_cases {
        match run(program, RANKS, &args) {
            Ok(p) if p.data_frames == expect => {
                let stale: u64 = p.stale_frames.iter().sum();
                let deferred: u64 = p.deferred_frames.iter().sum();
                println!(
                    "{program:<18} {} DATA frames (closed form {expect}), \
                     {stale} stale, {deferred} deferred",
                    p.data_frames
                );
                if stale != 0 {
                    violations.push(format!("{program}: {stale} stale frames in a clean run"));
                }
            }
            Ok(p) => violations.push(format!(
                "{program}: {} DATA frames on the wire, closed form says {expect}",
                p.data_frames
            )),
            Err(e) => violations.push(format!("{program}: {e}")),
        }
    }

    // 3. Rank-kill recovery: seed the fault plane, expect typed PeerGone,
    //    then requeue clean — the recovery ladder of the PR 4 plane.
    println!();
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    // `at: 1` = the site's first poll (occurrence counters are 1-based).
    plan.push(FaultKind::WorkerKill, Site::Rank(2), 1);
    faults::install(plan);
    let sw = mqmd_util::timer::Stopwatch::start();
    let killed = run("collectives_smoke", RANKS, &[64.0]);
    faults::clear();
    match killed {
        Err(CommError::PeerGone { rank, .. }) => {
            println!(
                "seeded WorkerKill on rank 2: typed PeerGone(rank {rank}) in {:.2} s",
                sw.seconds()
            );
            let rerun = run("collectives_smoke", RANKS, &[64.0]);
            let reference = run_thread_reference("collectives_smoke", RANKS, &[64.0]).unwrap();
            match rerun {
                Ok(p) if p.results == reference => {
                    faults::record_recovery(
                        "rank_process_restart",
                        Site::Rank(2).describe(),
                        1,
                        sw.seconds(),
                    );
                    println!("requeued run bitwise-clean after the kill");
                }
                Ok(_) => violations.push("post-kill rerun differs from reference".into()),
                Err(e) => violations.push(format!("post-kill rerun failed: {e}")),
            }
        }
        Err(e) => violations.push(format!(
            "seeded WorkerKill surfaced {e}, expected CommError::PeerGone"
        )),
        Ok(_) => violations.push("seeded WorkerKill did not interrupt the run".into()),
    }
    let s = faults::stats();
    println!(
        "fault ledger: injected {}, recovered {}, aborted {}",
        s.injected, s.recovered, s.aborted
    );
    if s.injected != s.recovered + s.aborted {
        violations.push(format!(
            "fault ledger does not balance: {} injected ≠ {} recovered + {} aborted",
            s.injected, s.recovered, s.aborted
        ));
    }

    // 4. In-place rank restart: the supervisor respawns a rank killed
    //    mid-SCF and the epoch-fenced replay finishes bitwise-equal to a
    //    fault-free run.
    println!();
    let h2_reference = run_thread_reference("verify_h2", RANKS, &[]).unwrap();
    let restart_opts = ProcessOpts {
        deadline: Duration::from_secs(120),
        kill: Some(KillSpec {
            rank: 1,
            after_data_frames: 30,
            repeat: 1,
        }),
        recovery: Some(RecoveryOpts::default()),
        ..Default::default()
    };
    match run_processes(&worker_bin(), "verify_h2", RANKS, restart_opts) {
        Ok(p) => {
            if p.recovery.restarts == 0 {
                violations.push("restart probe: supervisor recorded no respawn".into());
            }
            if p.results == h2_reference {
                println!(
                    "restart probe: rank 1 killed mid-SCF, respawned {}x, \
                     healed run bitwise-equal to fault-free ({:.2} s)",
                    p.recovery.restarts, p.wall_seconds
                );
            } else {
                violations.push("restart probe: healed run differs from fault-free run".into());
            }
        }
        Err(e) => violations.push(format!("restart probe: run failed instead of healing: {e}")),
    }

    // 5. Retry-budget exhaustion: a rank that dies on every incarnation is
    //    quarantined; survivors shrink the communicator and still finish.
    let quarantine_opts = ProcessOpts {
        deadline: Duration::from_secs(120),
        kill: Some(KillSpec {
            rank: 2,
            after_data_frames: 2,
            repeat: 3,
        }),
        recovery: Some(RecoveryOpts {
            max_restarts: 2,
            ..RecoveryOpts::default()
        }),
        ..Default::default()
    };
    let shrunk_reference = run_thread_reference("collectives_smoke", RANKS - 1, &[64.0]).unwrap();
    match run_processes(&worker_bin(), "collectives_smoke", RANKS, quarantine_opts) {
        Ok(p) => {
            if p.quarantined != vec![2] {
                violations.push(format!(
                    "quarantine probe: expected rank 2 quarantined, got {:?}",
                    p.quarantined
                ));
            } else if !p.results[2].is_empty() {
                violations.push("quarantine probe: quarantined slot carries a result".into());
            } else {
                let survivors: Vec<&Vec<f64>> = [0, 1, 3].iter().map(|&r| &p.results[r]).collect();
                let reference: Vec<&Vec<f64>> = shrunk_reference.iter().collect();
                if survivors == reference {
                    println!(
                        "quarantine probe: rank 2 exhausted {} restarts, \
                         survivors finished on the shrunk communicator bitwise-clean",
                        p.recovery.restarts
                    );
                } else {
                    violations.push(
                        "quarantine probe: survivors differ from the shrunk thread reference"
                            .into(),
                    );
                }
            }
        }
        Err(e) => violations.push(format!(
            "quarantine probe: run aborted instead of degrading typed: {e}"
        )),
    }
    // Each probe kill is booked as an injection when it fires and each
    // respawn or quarantine as a recovery, so the ledger balances exactly.
    let s = faults::stats();
    println!(
        "fault ledger after recovery probes: injected {}, recovered {}, aborted {}",
        s.injected, s.recovered, s.aborted
    );
    if s.injected != s.recovered + s.aborted {
        violations.push(format!(
            "fault ledger does not balance after recovery probes: \
             {} injected ≠ {} recovered + {} aborted",
            s.injected, s.recovered, s.aborted
        ));
    }

    println!();
    if violations.is_empty() {
        println!("repro_ranks: PASS — all real-rank smoke checks held");
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        eprintln!("repro_ranks: FAIL ({} violations)", violations.len());
        std::process::exit(1);
    }
}
