//! The repository benchmark: seeded LDC-DFT workloads timed end to end
//! with tracing off, and broken down by layer in a separate traced run.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints a host/config block, every output check, every metric with its
//! unit and sample count, and as its last line one JSON object (see
//! [`report`]). `README.md` describes the workloads and metrics.

pub mod fig5;
pub mod host;
pub mod programs;
pub mod qmd;
pub mod ranks;
pub mod report;
pub mod stats;

use mqmd_util::metrics::{parse_json, Json};
use mqmd_util::timer::Stopwatch;
use report::Report;
use stats::SpanRow;
use std::process::{Command, Stdio};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Seeded NVE LDC-QMD of the 8-atom SiC cell.
    QmdSic,
    /// Cold single-domain Kohn–Sham solves of the Fig 5 64-atom block.
    Fig5Domain,
    /// Distributed LDC solves of the SiC cell on real rank processes.
    RanksLdc,
}

impl Workload {
    /// Wire names, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 3] = ["qmd_sic", "fig5_domain", "ranks_ldc"];

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "qmd_sic" => Some(Self::QmdSic),
            "fig5_domain" => Some(Self::Fig5Domain),
            "ranks_ldc" => Some(Self::RanksLdc),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::QmdSic => Self::NAMES[0],
            Self::Fig5Domain => Self::NAMES[1],
            Self::RanksLdc => Self::NAMES[2],
        }
    }

    /// `(ranks, threads per rank)` this workload runs with on this host.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Self::QmdSic | Self::Fig5Domain => (1, rayon::current_num_threads()),
            Self::RanksLdc => (host::nproc(), 1),
        }
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
}

/// Prints the host and config block; refuses (returns `Err`) a shape
/// with more ranks × threads per rank than the host has cores.
pub fn config_block(opts: &Opts) -> Result<(), String> {
    let nproc = host::nproc();
    let (ranks, threads) = opts.workload.shape();
    println!(
        "config workload={} seed={} seconds={} trace={} nproc={nproc} rayon_threads={} \
         ranks={ranks} threads_per_rank={threads} simd={} (avx2+fma on this cpu: {}) git_commit={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        rayon::current_num_threads(),
        if cfg!(feature = "simd") { "on" } else { "off" },
        if mqmd_util::simd::simd_available() {
            "yes"
        } else {
            "no"
        },
        host::git_commit(),
    );
    if ranks * threads > nproc {
        return Err(format!(
            "{ranks} ranks x {threads} threads per rank exceeds the {nproc} cores of this host"
        ));
    }
    Ok(())
}

/// Runs one workload and returns what it measured and checked.
pub fn run(opts: &Opts) -> Report {
    match (opts.workload, opts.trace) {
        (Workload::QmdSic, false) => qmd::run(opts),
        (Workload::QmdSic, true) => qmd::run_traced(opts),
        (Workload::Fig5Domain, false) => fig5::run(opts),
        (Workload::Fig5Domain, true) => fig5::run_traced(opts),
        (Workload::RanksLdc, false) => ranks::run(opts),
        (Workload::RanksLdc, true) => ranks::run_traced(opts),
    }
}

/// Times one operation as its wall time less the CPU time the hypervisor
/// stole from the host meanwhile. On a shared virtual machine a noisy
/// neighbour otherwise shows up as a slow operation: a step that loses
/// several seconds to steal on either CPU finishes that much later.
pub struct OpTimer {
    sw: Stopwatch,
    steal0: f64,
}

impl OpTimer {
    /// Starts timing.
    pub fn start() -> Self {
        OpTimer {
            steal0: host::steal_s(),
            sw: Stopwatch::start(),
        }
    }

    /// Seconds since [`OpTimer::start`], less the steal accrued meanwhile.
    pub fn seconds(&self) -> f64 {
        let wall = self.sw.seconds();
        (wall - (host::steal_s() - self.steal0)).max(0.0)
    }
}

/// Past this many seconds a window starts no operation, even one short of
/// its minimum count, so a run on a stalled host still ends in time.
const WINDOW_CAP_S: f64 = 100.0;

/// The measurement window of an untraced run, with the host readings
/// that explain a slow one.
pub struct Window {
    sw: Stopwatch,
    seconds: f64,
    cpu0: [f64; 2],
    steal0: f64,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Self {
        Window {
            sw: Stopwatch::start(),
            seconds,
            cpu0: host::cpu_s(),
            steal0: host::steal_s(),
        }
    }

    /// Whether to start another operation after `done`: until the window
    /// has passed and at least `min_ops` ran (within [`WINDOW_CAP_S`]).
    pub fn keep_going(&self, done: usize, min_ops: usize) -> bool {
        let t = self.sw.seconds();
        t < self.seconds || (done < min_ops && t < WINDOW_CAP_S)
    }

    /// Prints the window's wall time, this process's (and reaped
    /// children's) CPU time, and the CPU time the host's hypervisor stole.
    pub fn close(&self) {
        let cpu = host::cpu_s();
        println!(
            "window: wall {:.3} s, cpu user {:.2} s + sys {:.2} s, host steal {:.2} s",
            self.sw.seconds(),
            cpu[0] - self.cpu0[0],
            cpu[1] - self.cpu0[1],
            host::steal_s() - self.steal0
        );
    }
}

/// Median over `reps` batches of the mean seconds per call of `f`, each
/// batch timing `batch` back-to-back calls with an [`OpTimer`]. Batches
/// should last well over the 10 ms tick of the steal counter.
pub fn median_time(reps: usize, batch: usize, mut f: impl FnMut()) -> stats::Summary {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = OpTimer::start();
            for _ in 0..batch {
                f();
            }
            t.seconds() / batch as f64
        })
        .collect();
    stats::summarize(&times).expect("timings are finite")
}

/// `op_s` of this workload measured by an untraced child run of this
/// benchmark at `RAYON_NUM_THREADS=1`, for `seconds`; `None` if the child
/// fails.
pub fn one_thread_op_s(opts: &Opts, seconds: f64) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .env("RAYON_NUM_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let result = parse_json(text.lines().last()?).ok()?;
    let ok = out.status.success() && result.get("correct") == Some(&Json::Bool(true));
    let op_s = result.get("metrics")?.get("op_s")?.get("value")?.as_f64()?;
    println!("1-thread baseline: op_s = {op_s} s (child run, correct = {ok})");
    ok.then_some(op_s)
}

/// Prints each span's calls, wall and self time, and returns the share
/// of traced time named leaf spans cover.
pub fn print_spans(rows: &[SpanRow]) -> f64 {
    println!(
        "{:<56} {:>9} {:>12} {:>12} {:>7}",
        "span", "calls", "wall s", "self s", "self%"
    );
    for r in rows {
        println!(
            "{:<56} {:>9} {:>12.6} {:>12.6} {:>6.1}%",
            r.path,
            r.calls,
            r.wall_s,
            r.self_s,
            100.0 * r.self_s / r.wall_s.max(1e-300)
        );
    }
    let cover = stats::leaf_cover_frac(rows);
    println!(
        "named leaf spans cover {:.1}% of traced span time; the rest is self time of parent spans",
        100.0 * cover
    );
    cover
}

/// Records the kernel-layer metrics (fft, multigrid, linalg, dft, core)
/// of a traced interval holding `steps` timed operations.
pub fn kernel_layers(r: &mut Report, rows: &[SpanRow], gemm_gflops: f64, steps: usize) {
    let per = steps.max(1) as f64;
    let (fft_calls, fft_s, _) = stats::by_name(rows, "fft");
    r.one("fft.calls_per_step", fft_calls as f64 / per, "");
    r.one("fft.s_per_step", fft_s / per, "");
    let us_per_call = if fft_calls > 0 {
        fft_s / fft_calls as f64 * 1e6
    } else {
        0.0
    };
    r.one("fft.us_per_call", us_per_call, "");
    let (poisson_calls, poisson_s, _) = stats::by_name(rows, "poisson");
    r.one(
        "multigrid.poisson_calls_per_step",
        poisson_calls as f64 / per,
        "",
    );
    r.one("multigrid.poisson_s_per_step", poisson_s / per, "");
    r.one(
        "linalg.gemm_s_per_step",
        stats::by_name(rows, "gemm").1 / per,
        "",
    );
    r.one("linalg.gemm_gflops", gemm_gflops, "");
    r.one(
        "linalg.orthonorm_s_per_step",
        stats::by_name(rows, "orthonorm").1 / per,
        "",
    );
    let (h_calls, h_s, _) = stats::by_name(rows, "hamiltonian");
    r.one("dft.hamiltonian_calls_per_step", h_calls as f64 / per, "");
    r.one("dft.hamiltonian_s_per_step", h_s / per, "");
    let (scf_calls, scf_s, _) = stats::by_name(rows, "scf_iter");
    let scf_iter_s = if scf_calls > 0 {
        scf_s / scf_calls as f64
    } else {
        0.0
    };
    r.one("core.scf_iter_s", scf_iter_s, "");
    let (_, ds_s, ds_self) = stats::by_name(rows, "domain_solve");
    r.one("core.domain_solve_s_per_step", ds_s / per, "");
    let self_frac = if ds_s > 0.0 { ds_self / ds_s } else { 0.0 };
    r.one("core.domain_solve_self_frac", self_frac, "");
    r.one(
        "core.global_density_s_per_step",
        stats::by_name(rows, "global_density").1 / per,
        "",
    );
}

/// Records the `mqmd-parallel` metrics as 0 for a workload that starts no
/// rank session and exchanges no frames.
pub fn no_rank_layers(r: &mut Report) {
    for &(name, _) in report::PER_LAYER {
        if name.starts_with("parallel.") {
            r.one(name, 0.0, "no rank session on this workload");
        }
    }
}
