//! Perf-regression gate: diffs two profile reports with noise-aware
//! per-kernel thresholds.
//!
//! Compares the per-call kernel means of a candidate profile against a
//! committed baseline (both `mqmd-profile-v9` or its predecessor v8; the
//! histogram standard errors widen the threshold on noisy kernels). Prints the
//! regression table and exits non-zero when any kernel regressed, so CI
//! can run it directly after `repro_profile`.
//!
//! Usage:
//! `repro_compare baseline.json candidate.json \
//!  [--rel-tol X] [--sigmas Y] [--min-mean Z] [--gate-allocs]`
//!
//! `--gate-allocs` additionally diffs the steady-state SCF workspace-miss
//! gauges and hard-fails if the candidate's grew over the baseline's.
//!
//! `--gate-recovery` additionally checks the candidate's recovery ledger:
//! it must balance exactly (`injected == recovered + aborted`), and no
//! abort may appear.
//!
//! `--gate-roofline F` additionally checks the candidate's roofline
//! block: every kernel it places must achieve at least fraction `F` of
//! its measured roofline `min(peak_flops, intensity · peak_bw)`.
//!
//! `--gate-threads` additionally checks the candidate's `host` block:
//! its warm `qmd_step` at the default thread count N may not be slower
//! than at one thread by more than 5% plus `--sigmas` combined standard
//! errors of the two means.
//!
//! Exit codes: 0 = no regression, 1 = regression detected (timing,
//! allocation, recovery ledger, roofline floor, or thread scaling), 2 =
//! bad arguments or unreadable/invalid profiles.

use mqmd_util::compare::{compare_profiles, CompareConfig};

fn usage() -> ! {
    eprintln!(
        "usage: repro_compare <baseline.json> <candidate.json> \
         [--rel-tol X] [--sigmas Y] [--min-mean Z] [--gate-allocs] [--gate-recovery] \
         [--gate-roofline F] [--gate-threads]"
    );
    std::process::exit(2);
}

fn parse_value(args: &mut std::iter::Peekable<std::env::Args>, flag: &str) -> f64 {
    match args.next().map(|v| v.parse::<f64>()) {
        Some(Ok(v)) if v >= 0.0 => v,
        _ => {
            eprintln!("error: {flag} needs a non-negative number");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args = std::env::args().peekable();
    let _prog = args.next();
    let mut paths = Vec::new();
    let mut cfg = CompareConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rel-tol" => cfg.rel_tolerance = parse_value(&mut args, "--rel-tol"),
            "--sigmas" => cfg.noise_sigmas = parse_value(&mut args, "--sigmas"),
            "--min-mean" => cfg.min_mean_secs = parse_value(&mut args, "--min-mean"),
            "--gate-allocs" => cfg.gate_allocs = true,
            "--gate-recovery" => cfg.gate_recovery = true,
            "--gate-threads" => cfg.gate_threads = true,
            "--gate-roofline" => {
                let floor = parse_value(&mut args, "--gate-roofline");
                if floor > 1.0 {
                    eprintln!("error: --gate-roofline takes a fraction in [0, 1]");
                    std::process::exit(2);
                }
                cfg.gate_roofline = Some(floor);
            }
            _ if arg.starts_with("--") => usage(),
            _ => paths.push(arg),
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        usage();
    };

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let base = read(base_path);
    let cand = read(cand_path);

    let report = match compare_profiles(&base, &cand, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "== repro_compare: {base_path} vs {cand_path} \
         (rel-tol {:.2}, {:.1} sigmas, min-mean {:.1e} s) ==\n",
        cfg.rel_tolerance, cfg.noise_sigmas, cfg.min_mean_secs
    );
    print!("{}", report.table());
    if report.has_regressions() {
        let n = report.regressions();
        if n > 0 {
            println!("\n{n} kernel(s) regressed");
        }
        if report.alloc_gate.is_some_and(|g| g.failed) {
            println!("steady-state SCF allocation count grew");
        }
        if let Some(g) = report.recovery_gate.filter(|g| g.failed) {
            println!(
                "recovery ledger failed: {} injected, {} recovered, {} aborted",
                g.injected, g.recovered, g.aborted
            );
        }
        if let Some(g) = report.roofline_gate.as_ref().filter(|g| g.failed) {
            println!(
                "roofline gate failed: {} kernel(s) under the {:.1}%-of-peak floor",
                g.rows.iter().filter(|r| r.failed).count(),
                g.floor * 100.0
            );
        }
        if let Some(g) = report.threads_gate.filter(|g| g.failed) {
            println!(
                "thread gate failed: qmd_step at {} threads {:.3} s vs {:.3} s at 1 thread",
                g.threads, g.secs_nt, g.secs_1t
            );
        }
        std::process::exit(1);
    }
    println!("\nno regressions");
}
