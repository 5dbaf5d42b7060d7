//! Seeded inputs and the rank programs of the `perfbench-rank` worker.
//!
//! Rank programs are deterministic functions of `(rank, size, args)`
//! (except `pingpong`, which measures wall-clock), so the process
//! transport and the in-process thread transport must agree bitwise.

use mqmd_core::distributed::solve_distributed;
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig};
use mqmd_md::builders::sic_supercell;
use mqmd_md::AtomicSystem;
use mqmd_parallel::comm::{Comm, CommError, CommResult, RankProgram};
use mqmd_util::timer::Stopwatch;
use mqmd_util::Xoshiro256pp;

/// Initial temperature of the seeded SiC cell, K.
pub const SIC_TEMPERATURE_K: f64 = 300.0;

/// The 8-atom SiC cell with velocities thermalized from `seed`. The
/// positions are the perfect crystal's, so the electronic problem of the
/// first step (and of `ranks_ldc`) is the same for every seed.
pub fn seeded_sic(seed: u64) -> AtomicSystem {
    let mut sys = sic_supercell((1, 1, 1));
    sys.thermalize(SIC_TEMPERATURE_K, &mut Xoshiro256pp::seed_from_u64(seed));
    sys
}

/// The miniature LDC settings of the repository's Criterion benches
/// (`mqmd_bench::tiny_ldc_config`), fixed here so the workload does not
/// move when those change: two domains, coarse grids, multigrid Hartree.
pub fn sic_config() -> LdcConfig {
    LdcConfig {
        nd: (2, 1, 1),
        buffer: 1.0,
        mode: BoundaryMode::ldc_default(),
        hartree: HartreeSolver::Multigrid,
        global_spacing: 1.2,
        domain_spacing: 1.2,
        ecut: 2.0,
        kt: 0.05,
        mix_alpha: 0.3,
        max_scf: 60,
        tol_density: 5e-4,
        davidson_iters: 6,
        davidson_tol: 1e-4,
        extra_bands: 2,
    }
}

/// Runs `f` with rayon parallelism bounded to one thread on this thread.
pub fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim cannot fail to build a pool")
        .install(f)
}

/// Every program the worker can run, by wire name.
pub const REGISTRY: &[(&str, RankProgram)] = &[
    ("noop", noop),
    ("ldc_solve", ldc_solve),
    ("pingpong", pingpong),
];

/// Looks up a program by name.
pub fn program(name: &str) -> Option<RankProgram> {
    REGISTRY.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// Does nothing: a session of it costs spawn plus handshake.
fn noop(_comm: &dyn Comm, _args: &[f64]) -> CommResult<Vec<f64>> {
    Ok(Vec::new())
}

/// Number of leading `ldc_solve` payload values that are physics (and so
/// bitwise-comparable across transports); the payload ends with the
/// rank's peak RSS in MB.
pub fn ldc_payload_physics_len(payload: &[f64]) -> usize {
    payload.len().saturating_sub(1)
}

/// The distributed LDC solve of `seeded_sic(args[0])` at one thread per
/// rank. Returns `[energy, mu, residual, scf_iterations, n_domains,
/// density..., peak_rss_mb]`.
fn ldc_solve(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let seed = args.first().copied().unwrap_or(0.0) as u64;
    let sys = seeded_sic(seed);
    let state = one_thread(|| solve_distributed(&sys, &sic_config(), comm))
        .map_err(|e| CommError::Transport(format!("ldc_solve: {e}")))?;
    let mut out = vec![
        state.energy,
        state.mu,
        state.density_residual,
        state.scf_iterations as f64,
        state.n_domains as f64,
    ];
    out.extend(state.density);
    out.push(crate::host::peak_rss_mb());
    Ok(out)
}

/// Ping-pong between ranks 0 and 1: rank 0 returns
/// `[small_rtt_s, large_rtt_s, large_bytes]` (other ranks return zero
/// round trips). args: `[reps, large_len_f64s]`.
fn pingpong(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let reps = (args.first().copied().unwrap_or(32.0) as usize).max(1);
    let large_len = (args.get(1).copied().unwrap_or(65_536.0) as usize).max(1);
    let large_reps = reps.min(8);
    let mut rtt = [0.0, 0.0];
    if comm.size() >= 2 {
        match comm.rank() {
            0 => {
                comm.send_to(1, &[0.0])?;
                comm.recv_from(1, "pingpong")?;
                for (slot, (n, payload)) in rtt
                    .iter_mut()
                    .zip([(reps, vec![1.0]), (large_reps, vec![2.0; large_len])])
                {
                    let sw = Stopwatch::start();
                    for _ in 0..n {
                        comm.send_to(1, &payload)?;
                        comm.recv_from(1, "pingpong")?;
                    }
                    *slot = sw.seconds() / n as f64;
                }
            }
            1 => {
                for _ in 0..1 + reps + large_reps {
                    let v = comm.recv_from(0, "pingpong")?;
                    comm.send_to(0, &v)?;
                }
            }
            _ => {}
        }
    }
    comm.barrier()?;
    Ok(vec![rtt[0], rtt[1], (large_len * 8) as f64])
}
