//! `qmd_sic`: a seeded NVE LDC-QMD run of the 8-atom SiC cell — one cold
//! step, then warm steps — at the default rayon thread count.

use crate::programs::{seeded_sic, sic_config};
use crate::report::Report;
use crate::stats::{span_rows, summarize};
use crate::{
    host, kernel_layers, median_time, no_rank_layers, one_thread_op_s, OpTimer, Opts, Window,
};
use mqmd_core::global::LdcSolver;
use mqmd_core::qmd::{DriftWatchdog, QmdDriver};
use mqmd_md::thermostat::Berendsen;
use mqmd_md::AtomicSystem;
use mqmd_util::{trace, workspace};

/// MD time step, a.u. (the paper's 0.242 fs).
const DT: f64 = 10.0;
/// Warm steps an untraced run takes at least.
const MIN_WARM: usize = 4;
/// Warm steps of each leg of the traced run.
const TRACED_WARM: usize = 2;
/// Batches, and set-ups per batch, of the microsecond-scale set-up (a
/// batch lasts about 0.2 s).
const SETUP_REPS: usize = 9;
const SETUP_BATCH: usize = 150_000;
/// Measurement window of the 1-thread baseline child, seconds.
const BASELINE_SECONDS: f64 = 3.0;

fn build(seed: u64) -> (AtomicSystem, LdcSolver, QmdDriver<Berendsen>) {
    (
        seeded_sic(seed),
        LdcSolver::new(sic_config()),
        QmdDriver::new(DT, None),
    )
}

/// One cold step plus warm steps, timed one by one.
#[derive(Default)]
struct Trajectory {
    step_s: Vec<f64>,
    scf: Vec<usize>,
    energies: Vec<f64>,
    errors: u64,
    sys_cpu_per_warm_s: f64,
    ws_misses_per_warm: f64,
}

impl Trajectory {
    fn warm_s(&self) -> &[f64] {
        self.step_s.get(1..).unwrap_or(&[])
    }

    fn attempted(&self) -> u64 {
        self.step_s.len() as u64 + self.errors
    }

    /// Checks the physics of the run and counts failed steps: errors
    /// (including unconverged SCF), non-finite energies, and energies
    /// drifting past the default watchdog bound.
    fn check(&self, r: &mut Report, leg: &str) -> u64 {
        let bound = DriftWatchdog::default().max_rel_drift;
        let e0 = self.energies.first().copied().unwrap_or(f64::NAN);
        let bad = self
            .energies
            .iter()
            .filter(|e| !e.is_finite() || (*e - e0).abs() / e0.abs() > bound)
            .count() as u64;
        let drift = self
            .energies
            .iter()
            .map(|e| (e - e0).abs() / e0.abs())
            .fold(0.0, f64::max);
        r.check(
            &format!("{leg}: every step's SCF converged"),
            self.errors == 0,
            &format!("{} steps, {} errors", self.attempted(), self.errors),
        );
        r.check(
            &format!("{leg}: energies finite"),
            self.energies.iter().all(|e| e.is_finite()),
            &format!("{:?}", self.energies),
        );
        r.check(
            &format!("{leg}: relative energy drift within the watchdog bound"),
            drift <= bound,
            &format!("max {drift:.3e} <= {bound:e}"),
        );
        self.errors + bad
    }
}

/// Runs the cold step, calls `after_cold`, then warm steps while
/// `more(warm_steps_done)`.
fn trajectory(
    seed: u64,
    after_cold: impl FnOnce(),
    mut more: impl FnMut(usize) -> bool,
) -> Trajectory {
    let (mut sys, mut solver, mut qmd) = build(seed);
    let mut t = Trajectory::default();
    let mut step = |t: &mut Trajectory| {
        let _span = trace::span("bench.qmd_run");
        let sw = OpTimer::start();
        match qmd.try_run(&mut sys, &mut solver, 1) {
            Ok(rep) => {
                t.step_s.push(sw.seconds());
                t.scf.push(rep.scf_iterations);
                t.energies.extend(rep.energies);
                true
            }
            Err(e) => {
                println!("step {} failed: {e}", t.step_s.len());
                t.errors += 1;
                false
            }
        }
    };
    if !step(&mut t) {
        return t;
    }
    after_cold();
    let cpu0 = host::cpu_s()[1];
    let ws0 = workspace::global_stats().snapshot();
    let mut warm = 0;
    while more(warm) && step(&mut t) {
        warm += 1;
    }
    let per = warm.max(1) as f64;
    t.sys_cpu_per_warm_s = (host::cpu_s()[1] - cpu0) / per;
    t.ws_misses_per_warm = workspace::global_stats().snapshot().since(&ws0).misses as f64 / per;
    t
}

/// The untraced run: set-up, cold step, warm steps for the window.
pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let setup = median_time(SETUP_REPS, SETUP_BATCH, || {
        std::hint::black_box(build(opts.seed));
    });
    r.set(
        "setup_s",
        setup,
        "qmd.setup_s: AtomicSystem + LdcSolver + QmdDriver",
    );
    let window = Window::open(opts.seconds);
    let t = trajectory(
        opts.seed,
        || {},
        |warm| window.keep_going(warm + 1, 1 + MIN_WARM),
    );
    window.close();
    println!("step seconds: {:?}", t.step_s);
    println!("step SCF iterations: {:?}", t.scf);
    r.attempted = t.attempted();
    r.failed = t.check(&mut r, "trajectory");
    if let Some(&first) = t.step_s.first() {
        r.one("first_op_s", first, "qmd.first_step_s");
    }
    if let Some(s) = summarize(t.warm_s()) {
        r.set("op_s", s, "qmd.step_s");
        let warm_scf = &t.scf[1..];
        let mean = warm_scf.iter().sum::<usize>() as f64 / warm_scf.len() as f64;
        r.set(
            "iters_per_op",
            crate::stats::Summary {
                median: mean,
                n: warm_scf.len(),
            },
            "qmd.scf_per_step (mean over warm steps)",
        );
    }
    r.one("peak_rss_mb", host::peak_rss_mb(), "process VmHWM");
    r
}

/// The traced run: the same seeded trajectory untraced and traced (the
/// energies must agree bitwise), a 1-thread baseline, and the layer
/// breakdown of the traced warm steps.
pub fn run_traced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let untraced = trajectory(opts.seed, || {}, |warm| warm < TRACED_WARM);
    trace::set_enabled(true);
    trace::take();
    let traced = trajectory(
        opts.seed,
        || {
            trace::take();
        },
        |warm| warm < TRACED_WARM,
    );
    let tree = trace::take();
    trace::set_enabled(false);

    r.attempted = untraced.attempted() + traced.attempted();
    r.failed = untraced.check(&mut r, "untraced") + traced.check(&mut r, "traced");
    let same = untraced.energies.len() == traced.energies.len()
        && untraced
            .energies
            .iter()
            .zip(&traced.energies)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    r.check(
        "energy trajectory bitwise-equal untraced vs traced",
        same,
        &format!("{} steps", untraced.energies.len()),
    );

    let rows = span_rows(&tree);
    println!("-- spans over {TRACED_WARM} traced warm steps --");
    let cover = crate::print_spans(&rows);
    let gflops = tree.aggregate("gemm").map_or(0.0, |g| g.gflops());
    kernel_layers(&mut r, &rows, gflops, TRACED_WARM);
    r.one("util.span_cover_frac", cover, "");

    let untraced_s = summarize(untraced.warm_s()).map_or(f64::NAN, |s| s.median);
    let traced_s = summarize(traced.warm_s()).map_or(f64::NAN, |s| s.median);
    println!("warm step: untraced {untraced_s} s, traced {traced_s} s");
    r.one("util.trace_overhead_frac", traced_s / untraced_s - 1.0, "");
    r.one(
        "util.ws_misses_steady",
        untraced.ws_misses_per_warm,
        "per warm step",
    );
    r.one("rayon.threads", rayon::current_num_threads() as f64, "");
    r.one(
        "rayon.sys_cpu_s",
        untraced.sys_cpu_per_warm_s,
        "per warm step",
    );
    let one = one_thread_op_s(opts, BASELINE_SECONDS);
    r.check(
        "1-thread baseline run",
        one.is_some(),
        "child at RAYON_NUM_THREADS=1",
    );
    r.one(
        "rayon.speedup_1t",
        one.map_or(f64::NAN, |s| s / untraced_s),
        "qmd.step_s at 1 thread / at N threads",
    );
    r.one("linalg.zheev_k_s", 0.0, "probed on fig5_domain");
    r.one("linalg.zheev_2k_s", 0.0, "probed on fig5_domain");
    r.one(
        "dft.davidson_iters",
        0.0,
        "solve_domain is called directly on fig5_domain",
    );
    no_rank_layers(&mut r);
    r
}
