//! `fig5_domain`: repeated cold single-domain Kohn–Sham solves of the
//! paper's Fig 5 per-core block (64-atom SiC, jittered from the seed), at
//! the settings of `measure_domain_solve_seconds(2.0, 1.2, 6)`.

use crate::report::Report;
use crate::stats::{span_rows, summarize, Summary};
use crate::{
    host, kernel_layers, median_time, no_rank_layers, one_thread_op_s, OpTimer, Opts, Window,
};
use mqmd_core::domain_solver::{solve_domain, DomainBands, DomainSetup};
use mqmd_dft::hamiltonian::ionic_local_potential;
use mqmd_dft::solver::{atoms_of, grid_for_cell};
use mqmd_grid::{DomainDecomposition, UniformGrid3};
use mqmd_linalg::eigen::zheev;
use mqmd_linalg::CMatrix;
use mqmd_md::builders::{amorphize, sic_supercell};
use mqmd_md::AtomicSystem;
use mqmd_util::timer::Stopwatch;
use mqmd_util::{trace, workspace, Complex64, Xoshiro256pp};

/// Plane-wave cutoff, Ha.
const ECUT: f64 = 2.0;
/// Real-space grid spacing, Bohr.
const SPACING: f64 = 1.2;
/// Davidson iteration cap and tolerance of each solve.
const DAVIDSON_ITERS: usize = 6;
const DAVIDSON_TOL: f64 = 1e-6;
/// Bands beyond the occupied ones.
const EXTRA_BANDS: usize = 4;
/// Width of the seeded Gaussian displacement of each atom, Bohr.
const JITTER_BOHR: f64 = 0.05;
/// Batches, and `DomainSetup::build` calls per batch, for `setup_s` (a
/// batch lasts about 0.25 s).
const SETUP_REPS: usize = 5;
const SETUP_BATCH: usize = 15;
/// Largest allowed `max |ψ†ψ − I|` of the returned bands.
const ORTHO_TOL: f64 = 1e-8;
/// Measurement window of the 1-thread baseline child, seconds (one solve).
const BASELINE_SECONDS: f64 = 1.0;

/// The seeded block and everything a domain setup needs from it.
struct Block {
    sys: AtomicSystem,
    dd: DomainDecomposition,
    grid: UniformGrid3,
    v_ion: Vec<f64>,
}

fn block(seed: u64) -> Block {
    let mut sys = sic_supercell((2, 2, 2));
    amorphize(
        &mut sys,
        JITTER_BOHR,
        &mut Xoshiro256pp::seed_from_u64(seed),
    );
    let dd = DomainDecomposition::new(sys.cell, (1, 1, 1), 0.0);
    let grid = grid_for_cell(sys.cell, SPACING);
    let v_ion = ionic_local_potential(&grid, &atoms_of(&sys));
    Block {
        sys,
        dd,
        grid,
        v_ion,
    }
}

fn setup(b: &Block) -> DomainSetup {
    let _span = trace::span("bench.domain_setup");
    DomainSetup::build(
        &b.dd.domains()[0],
        &b.dd,
        &b.sys,
        SPACING,
        ECUT,
        EXTRA_BANDS,
        &b.grid,
        &b.v_ion,
    )
    .expect("the SiC block is non-empty")
}

/// `max |ψ†ψ − I|` over the band pairs, computed directly (not through
/// the linalg layer under test).
fn ortho_defect(psi: &CMatrix) -> f64 {
    let nb = psi.cols();
    let mut s = vec![Complex64::new(0.0, 0.0); nb * nb];
    for k in 0..psi.rows() {
        let row = psi.row(k);
        for (i, a) in row.iter().enumerate() {
            let ac = a.conj();
            for (j, b) in row.iter().enumerate().skip(i) {
                s[i * nb + j] += ac * *b;
            }
        }
    }
    let mut worst = 0.0f64;
    for i in 0..nb {
        for j in i..nb {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((s[i * nb + j] - Complex64::new(target, 0.0)).abs());
        }
    }
    worst
}

fn ascending_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite()) && v.windows(2).all(|w| w[0] <= w[1])
}

/// One timed cold solve with its output checks; `None` if it failed.
fn timed_solve(s: &DomainSetup, r: &mut Report) -> Option<(f64, DomainBands)> {
    let zeros = vec![0.0; s.grid.len()];
    r.attempted += 1;
    let sw = OpTimer::start();
    let res = {
        let _span = trace::span("bench.solve_domain");
        solve_domain(s, &zeros, &zeros, None, DAVIDSON_ITERS, DAVIDSON_TOL)
    };
    let secs = sw.seconds();
    let bands = match res {
        Ok(b) => b,
        Err(e) => {
            r.check("domain solve", false, &e.to_string());
            r.failed += 1;
            return None;
        }
    };
    let ev_ok = ascending_finite(&bands.eigenvalues);
    r.check(
        "eigenvalues finite and ascending",
        ev_ok,
        &format!(
            "{} bands, [{:.6}, {:.6}] Ha",
            bands.eigenvalues.len(),
            bands.eigenvalues.first().copied().unwrap_or(f64::NAN),
            bands.eigenvalues.last().copied().unwrap_or(f64::NAN)
        ),
    );
    let defect = ortho_defect(&bands.psi);
    let ortho_ok = defect <= ORTHO_TOL;
    r.check(
        "bands orthonormal",
        ortho_ok,
        &format!("max |psi^H psi - I| = {defect:.3e} <= {ORTHO_TOL:e}"),
    );
    if !(ev_ok && ortho_ok) {
        r.failed += 1;
        return None;
    }
    Some((secs, bands))
}

/// The untraced run: `DomainSetup::build` as set-up, then cold solves
/// for the window.
pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let b = block(opts.seed);
    let mut built = None;
    let setup_s = median_time(SETUP_REPS, SETUP_BATCH, || built = Some(setup(&b)));
    r.set("setup_s", setup_s, "fig5 DomainSetup::build");
    let s = built.expect("set-up ran");
    let window = Window::open(opts.seconds);
    let mut times = Vec::new();
    let mut iters = Vec::new();
    while window.keep_going(times.len(), 1) {
        let Some((secs, bands)) = timed_solve(&s, &mut r) else {
            break;
        };
        times.push(secs);
        iters.push(bands.iterations as f64);
    }
    window.close();
    println!("solve seconds: {times:?}");
    if let Some(t) = summarize(&times) {
        r.set("op_s", t, "domain.solve_s");
        r.set("first_op_s", t, "every solve starts cold: same as op_s");
        let mean = iters.iter().sum::<f64>() / iters.len() as f64;
        r.set(
            "iters_per_op",
            Summary {
                median: mean,
                n: iters.len(),
            },
            "Davidson iterations per solve (mean)",
        );
    }
    r.one("peak_rss_mb", host::peak_rss_mb(), "process VmHWM");
    r
}

/// A seeded Hermitian matrix of order `n`.
fn hermitian(n: usize, rng: &mut Xoshiro256pp) -> CMatrix {
    let a = CMatrix::from_fn(n, n, |_, _| Complex64::new(rng.normal(), rng.normal()));
    CMatrix::from_fn(n, n, |i, j| (a.row(i)[j] + a.row(j)[i].conj()).scale(0.5))
}

/// The traced run: one untraced and one traced solve, direct `zheev`
/// probes at the solve's Rayleigh–Ritz orders k and 2k, and a 1-thread
/// baseline.
pub fn run_traced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let b = block(opts.seed);
    let s = setup(&b);
    let cpu0 = host::cpu_s()[1];
    let ws0 = workspace::global_stats().snapshot();
    let untraced = timed_solve(&s, &mut r).map(|(t, _)| t);
    let sys_cpu = host::cpu_s()[1] - cpu0;
    let ws_misses = workspace::global_stats().snapshot().since(&ws0).misses;

    trace::set_enabled(true);
    trace::take();
    let traced_setup = setup(&b);
    let traced = timed_solve(&traced_setup, &mut r);
    let tree = trace::take();
    let rows = span_rows(&tree);
    println!("-- spans over one traced set-up and solve --");
    let cover = crate::print_spans(&rows);
    let gflops = tree.aggregate("gemm").map_or(0.0, |g| g.gflops());
    kernel_layers(&mut r, &rows, gflops, 1);
    r.one("util.span_cover_frac", cover, "");

    // Direct eigensolver probes at the Davidson Rayleigh–Ritz orders.
    let k = s.n_bands;
    let mut rng = Xoshiro256pp::seed_from_u64(opts.seed ^ 0x5A17_E1C0);
    for (name, n) in [("linalg.zheev_k_s", k), ("linalg.zheev_2k_s", 2 * k)] {
        let h = hermitian(n, &mut rng);
        let sw = Stopwatch::start();
        let res = {
            let _span = trace::span("bench.zheev");
            zheev(&h)
        };
        let secs = sw.seconds();
        let ok = res.as_ref().is_ok_and(|(ev, _)| ascending_finite(ev));
        r.check(
            &format!("zheev n={n}"),
            ok,
            "eigenvalues finite and ascending",
        );
        r.one(name, secs, &format!("n = {n}"));
    }
    let probes = span_rows(&trace::take());
    trace::set_enabled(false);
    println!("-- spans over the zheev probes --");
    crate::print_spans(&probes);

    let traced_s = traced.as_ref().map_or(f64::NAN, |(t, _)| *t);
    let untraced_s = untraced.unwrap_or(f64::NAN);
    println!("domain solve: untraced {untraced_s} s, traced {traced_s} s");
    r.one("util.trace_overhead_frac", traced_s / untraced_s - 1.0, "");
    r.one("util.ws_misses_steady", ws_misses as f64, "per cold solve");
    r.one(
        "dft.davidson_iters",
        traced.map_or(f64::NAN, |(_, b)| b.iterations as f64),
        "DomainBands::iterations",
    );
    r.one("rayon.threads", rayon::current_num_threads() as f64, "");
    r.one("rayon.sys_cpu_s", sys_cpu, "per solve");
    let one = one_thread_op_s(opts, BASELINE_SECONDS);
    r.check(
        "1-thread baseline run",
        one.is_some(),
        "child at RAYON_NUM_THREADS=1",
    );
    r.one(
        "rayon.speedup_1t",
        one.map_or(f64::NAN, |t| t / untraced_s),
        "domain.solve_s at 1 thread / at N threads",
    );
    no_rank_layers(&mut r);
    r
}
