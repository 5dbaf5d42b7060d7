//! `ranks_ldc`: distributed LDC solves (`solve_distributed`) of the
//! seeded SiC cell on `nproc` real rank processes with one thread each,
//! through the hub transport of `mqmd_parallel::process`.

use crate::programs::{ldc_payload_physics_len, one_thread, program, seeded_sic, sic_config};
use crate::report::Report;
use crate::stats::{span_rows, summarize, Summary};
use crate::{host, kernel_layers, median_time, one_thread_op_s, OpTimer, Opts, Window};
use mqmd_core::global::LdcSolver;
use mqmd_parallel::comm::CommResult;
use mqmd_parallel::executor::run_ranks;
use mqmd_parallel::process::{run_processes, ProcessOpts, ProcessRun};
use mqmd_parallel::twin::{calibrate_from_pingpong, TwinModel};
use mqmd_util::{trace, workspace};
use std::path::PathBuf;
use std::time::Duration;

/// Batches, and no-op sessions per batch, timed for `setup_s` and
/// `parallel.spawn_s` (a batch lasts about 0.25 s).
const SETUP_REPS: usize = 5;
const SETUP_BATCH: usize = 30;
/// Solve sessions an untraced run times at least.
const MIN_SESSIONS: usize = 3;
/// Solve sessions of each leg of the traced run.
const TRACED_SESSIONS: usize = 3;
/// Per-session deadline: a wedged session fails typed instead of hanging.
const DEADLINE: Duration = Duration::from_secs(60);
/// Largest allowed |E(distributed) − E(serial LdcSolver)|, Ha.
const ENERGY_TOL: f64 = 1e-10;
/// Measurement window of the 1-thread baseline child, seconds.
const BASELINE_SECONDS: f64 = 1.0;

/// The worker binary, built next to this one.
fn worker_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("current exe path");
    p.set_file_name(format!("perfbench-rank{}", std::env::consts::EXE_SUFFIX));
    p
}

/// One rank session of `name` on `n` processes, timed by the parent.
fn session(name: &str, n: usize, args: &[f64], r: &mut Report) -> Option<(f64, ProcessRun)> {
    r.attempted += 1;
    let sw = OpTimer::start();
    let res = {
        let _span = trace::span("bench.run_processes");
        run_processes(
            &worker_bin(),
            name,
            n,
            ProcessOpts {
                deadline: DEADLINE,
                args: args.to_vec(),
                ..Default::default()
            },
        )
    };
    let secs = sw.seconds();
    match res {
        Ok(run) => Some((secs, run)),
        Err(e) => {
            r.check(
                &format!("{name} session on {n} ranks"),
                false,
                &e.to_string(),
            );
            r.failed += 1;
            None
        }
    }
}

/// Median time of a no-op session (spawn plus handshake); `None` if one
/// failed.
fn spawn_time(n: usize, r: &mut Report) -> Option<Summary> {
    let mut ok = true;
    let s = median_time(SETUP_REPS, SETUP_BATCH, || {
        ok &= session("noop", n, &[], r).is_some();
    });
    ok.then_some(s)
}

/// What every session must reproduce: the same program on the in-process
/// thread transport, and the serial solver's energy.
struct References {
    thread: Vec<Vec<f64>>,
    serial_energy: f64,
}

fn references(seed: u64, n: usize, r: &mut Report) -> Option<References> {
    let f = program("ldc_solve").expect("ldc_solve is registered");
    let thread: CommResult<Vec<Vec<f64>>> = run_ranks(n, |_, comm| f(comm, &[seed as f64]))
        .into_iter()
        .collect();
    let serial = one_thread(|| {
        let _span = trace::span("bench.ldc_solve");
        LdcSolver::new(sic_config()).solve(&seeded_sic(seed))
    });
    match (thread, serial) {
        (Ok(thread), Ok(state)) => Some(References {
            thread,
            serial_energy: state.energy,
        }),
        (t, s) => {
            let why = format!("thread transport: {:?}; serial: {:?}", t.err(), s.err());
            r.check("reference solves", false, &why);
            None
        }
    }
}

/// The output checks of one solve session: `(what, held, detail)`.
fn session_checks(run: &ProcessRun, refs: &References) -> [(&'static str, bool, String); 4] {
    let bitwise = run.results.len() == refs.thread.len()
        && run.results.iter().zip(&refs.thread).all(|(p, t)| {
            let (p, t) = (
                &p[..ldc_payload_physics_len(p)],
                &t[..ldc_payload_physics_len(t)],
            );
            p.len() == t.len() && p.iter().zip(t).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    let energy = run
        .results
        .first()
        .and_then(|p| p.first())
        .copied()
        .unwrap_or(f64::NAN);
    let de = (energy - refs.serial_energy).abs();
    let (msgs, bytes) = run
        .traffic
        .iter()
        .fold((0, 0), |(m, b), (_, t)| (m + t.msgs, b + t.bytes));
    let stale: u64 = run.stale_frames.iter().sum();
    [
        (
            "every rank bitwise-equal to the in-process run_ranks run",
            bitwise,
            format!("{} ranks", run.results.len()),
        ),
        (
            "energy matches serial LdcSolver::solve",
            de <= ENERGY_TOL,
            format!("E = {energy:.12} Ha, |dE| = {de:.2e} <= {ENERGY_TOL:e}"),
        ),
        (
            "DATA frames and bytes equal the traffic ledger's closed forms",
            run.data_frames == msgs && run.data_bytes == bytes,
            format!(
                "{} frames / {} B observed, {msgs} / {bytes} in the ledger",
                run.data_frames, run.data_bytes
            ),
        ),
        ("no stale frames", stale == 0, format!("{stale} stale")),
    ]
}

/// Solve sessions plus their per-session figures.
#[derive(Default)]
struct Sessions {
    wall_s: Vec<f64>,
    runs: Vec<ProcessRun>,
}

impl Sessions {
    fn run(&mut self, seed: u64, n: usize, r: &mut Report) -> bool {
        match session("ldc_solve", n, &[seed as f64], r) {
            Some((t, run)) => {
                self.wall_s.push(t);
                self.runs.push(run);
                true
            }
            None => false,
        }
    }

    /// Checks every session, printing one line per check (with the last
    /// failing session's detail, else the last session's); failed sessions
    /// count as failed operations.
    fn check(&self, refs: Option<&References>, r: &mut Report) {
        let Some(refs) = refs else {
            r.failed += self.runs.len() as u64;
            return;
        };
        let mut lines: Vec<(&str, usize, String)> = Vec::new();
        for run in &self.runs {
            let checks = session_checks(run, refs);
            if checks.iter().any(|c| !c.1) {
                r.failed += 1;
            }
            for (i, (what, held, detail)) in checks.into_iter().enumerate() {
                if lines.len() <= i {
                    lines.push((what, 0, String::new()));
                }
                let line = &mut lines[i];
                if held {
                    line.1 += 1;
                }
                if !held || line.1 == self.runs.len() {
                    line.2 = detail;
                }
            }
        }
        for (what, held, detail) in lines {
            let n = self.runs.len();
            r.check(what, held == n, &format!("{held}/{n} sessions; {detail}"));
        }
    }

    /// Median over sessions of `f`.
    fn median(&self, f: impl Fn(&ProcessRun) -> f64) -> f64 {
        let v: Vec<f64> = self.runs.iter().map(f).collect();
        summarize(&v).map_or(f64::NAN, |s| s.median)
    }
}

/// The untraced run: no-op sessions as set-up, then solve sessions for
/// the window, then the reference checks.
pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let n = opts.workload.shape().0;
    if let Some(s) = spawn_time(n, &mut r) {
        r.set("setup_s", s, "no-op rank session: spawn + handshake");
    }
    let window = Window::open(opts.seconds);
    let mut sessions = Sessions::default();
    while window.keep_going(sessions.runs.len(), MIN_SESSIONS) {
        if !sessions.run(opts.seed, n, &mut r) {
            break;
        }
    }
    window.close();
    println!("session seconds: {:?}", sessions.wall_s);
    let refs = references(opts.seed, n, &mut r);
    sessions.check(refs.as_ref(), &mut r);
    if let Some(s) = summarize(&sessions.wall_s) {
        r.set("op_s", s, "ranks.solve_s");
        r.set(
            "first_op_s",
            s,
            "every session starts cold processes: same as op_s",
        );
        r.set(
            "iters_per_op",
            Summary {
                median: sessions.median(|run| run.results[0][3]),
                n: s.n,
            },
            "SCF iterations per distributed solve",
        );
        let rss = sessions
            .runs
            .iter()
            .flat_map(|run| run.results.iter().filter_map(|p| p.last()))
            .fold(0.0f64, |a, &b| a.max(b));
        r.one(
            "peak_rss_mb",
            rss,
            "largest worker VmHWM, from RESULT payloads",
        );
    }
    r
}

/// Summed rank-0 ledger seconds of the collectives whose name holds `op`.
fn op_seconds(run: &ProcessRun, op: &str) -> f64 {
    run.traffic
        .iter()
        .filter(|(name, _)| name.contains(op))
        .map(|(_, t)| t.seconds)
        .sum()
}

/// The traced run: spawn cost, untraced and traced solve sessions, the
/// traffic ledger, ping-pong and digital-twin error, and a 1-thread
/// baseline.
pub fn run_traced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let n = opts.workload.shape().0;
    let spawn = spawn_time(n, &mut r).map_or(f64::NAN, |s| s.median);
    r.one("parallel.spawn_s", spawn, "no-op session, median");

    let cpu0 = host::cpu_s()[1];
    let ws0 = workspace::global_stats().snapshot();
    let mut untraced = Sessions::default();
    for _ in 0..TRACED_SESSIONS {
        untraced.run(opts.seed, n, &mut r);
    }
    let per = untraced.runs.len().max(1) as f64;
    let sys_cpu = (host::cpu_s()[1] - cpu0) / per;
    let ws_misses = workspace::global_stats().snapshot().since(&ws0).misses as f64 / per;

    trace::set_enabled(true);
    trace::take();
    let mut traced = Sessions::default();
    for _ in 0..TRACED_SESSIONS {
        traced.run(opts.seed, n, &mut r);
    }
    let tree = trace::take();
    trace::set_enabled(false);

    let refs = references(opts.seed, n, &mut r);
    untraced.check(refs.as_ref(), &mut r);
    traced.check(refs.as_ref(), &mut r);

    let rows = span_rows(&tree);
    println!("-- parent spans over {TRACED_SESSIONS} traced sessions --");
    let cover = crate::print_spans(&rows);
    kernel_layers(&mut r, &rows, 0.0, TRACED_SESSIONS);
    r.one("util.span_cover_frac", cover, "");
    if let Some(run) = untraced.runs.first() {
        println!("-- rank 0 traffic ledger of one session --");
        for (op, t) in &run.traffic {
            println!(
                "{op:<20} calls {:>5} msgs {:>6} bytes {:>10} seconds {:.6}",
                t.calls, t.msgs, t.bytes, t.seconds
            );
        }
    }
    r.one(
        "parallel.data_frames",
        untraced.median(|s| s.data_frames as f64),
        "per session",
    );
    r.one(
        "parallel.data_bytes",
        untraced.median(|s| s.data_bytes as f64),
        "per session",
    );
    r.one(
        "parallel.allreduce_s",
        untraced.median(|s| op_seconds(s, "allreduce")),
        "rank 0",
    );
    r.one(
        "parallel.allgather_s",
        untraced.median(|s| op_seconds(s, "allgather")),
        "rank 0",
    );
    r.one(
        "parallel.halo_s",
        untraced.median(|s| op_seconds(s, "halo")),
        "rank 0",
    );
    r.one(
        "parallel.comm_frac",
        untraced.median(|s| op_seconds(s, "") / s.wall_seconds),
        "rank-0 collective time / session wall",
    );
    r.one(
        "parallel.stale_frames",
        untraced.median(|s| s.stale_frames.iter().sum::<u64>() as f64),
        "",
    );
    r.one(
        "parallel.deferred_frames",
        untraced.median(|s| s.deferred_frames.iter().sum::<u64>() as f64),
        "",
    );

    let pp = session("pingpong", n.max(2), &[32.0, 65_536.0], &mut r);
    let (small, large, bytes) = pp
        .as_ref()
        .and_then(|(_, run)| run.results.first())
        .map_or((f64::NAN, f64::NAN, f64::NAN), |p| (p[0], p[1], p[2]));
    r.one("parallel.pingpong_small_us", small * 1e6, "round trip, 8 B");
    r.one(
        "parallel.pingpong_large_ms",
        large * 1e3,
        "round trip, 512 KiB",
    );
    let twin = TwinModel::calibrated(calibrate_from_pingpong(small, large, bytes));
    let rel_err = untraced.median(|s| {
        twin.validate(&s.traffic, n)
            .iter()
            .find(|row| row.op.contains("allreduce"))
            .map_or(f64::NAN, |row| row.rel_err.abs())
    });
    r.one(
        "parallel.twin_rel_err_allreduce",
        rel_err,
        "|measured - predicted| / measured",
    );

    let untraced_s = summarize(&untraced.wall_s).map_or(f64::NAN, |s| s.median);
    let traced_s = summarize(&traced.wall_s).map_or(f64::NAN, |s| s.median);
    println!("solve session: untraced {untraced_s} s, traced {traced_s} s");
    r.one("util.trace_overhead_frac", traced_s / untraced_s - 1.0, "");
    r.one("util.ws_misses_steady", ws_misses, "parent, per session");
    r.one(
        "rayon.threads",
        rayon::current_num_threads() as f64,
        "parent; ranks run 1",
    );
    r.one(
        "rayon.sys_cpu_s",
        sys_cpu,
        "parent + reaped workers, per session",
    );
    let one = one_thread_op_s(opts, BASELINE_SECONDS);
    r.check(
        "1-thread baseline run",
        one.is_some(),
        "child at RAYON_NUM_THREADS=1",
    );
    r.one(
        "rayon.speedup_1t",
        one.map_or(f64::NAN, |t| t / untraced_s),
        "ranks.solve_s with a 1-thread parent / default",
    );
    r.one("linalg.zheev_k_s", 0.0, "probed on fig5_domain");
    r.one("linalg.zheev_2k_s", 0.0, "probed on fig5_domain");
    r.one(
        "dft.davidson_iters",
        0.0,
        "solve_domain is called directly on fig5_domain",
    );
    r
}
