//! Reproduces **Table 1** (GFLOP/s vs threads per core) and **Table 2**
//! (TFLOP/s vs rack count), plus the §5.4 Xeon portability number.
//!
//! FLOP counts are the analytic tallies of this repository's real kernels
//! (via `mqmd_util::flops`); the sustained-throughput figures come from the
//! calibrated Blue Gene/Q thread/rack models (see `mqmd-parallel::threads`
//! for the three documented calibration constants).
//!
//! The final section is *measured on the running host*: machine peaks
//! (FMA-ladder GFLOP/s, streaming-triad GB/s) and the roofline placement
//! of the vectorized GEMM/FFT/smoother kernels — the same methodology
//! behind the paper's 50.5%-of-peak claim, at laptop scale.
//!
//! Usage: `cargo run --release -p mqmd-bench --bin repro_flops [--json PATH]`
//!
//! `--json PATH` writes the measured roofline as a profile document (empty kernel-timing table, populated `roofline` block) that
//! `repro_compare --gate-roofline` can gate on.

use mqmd_bench::roofline::measure_roofline;
use mqmd_bench::{pct_dev, row};
use mqmd_parallel::machine::MachineSpec;
use mqmd_parallel::scaling::RackFlopsModel;
use mqmd_parallel::threads::ThreadModel;
use mqmd_util::metrics::{roofline_block, Json, PROFILE_SCHEMA};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("error: --json needs a path");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("usage: repro_flops [--json PATH]");
                std::process::exit(2);
            }
        }
    }
    println!("== Table 1: GFLOP/s vs threads per core (512-atom SiC, 64 ranks) ==\n");
    let paper_t1 = [
        (4usize, [236.0, 343.0, 445.0]),
        (8, [433.0, 563.0, 746.0]),
        (16, [806.0, 1017.0, 1535.0]),
    ];
    let m = MachineSpec::bluegene_q(1);
    let model = ThreadModel::default();
    println!(
        "{}",
        row(
            "nodes",
            &[
                "1 thr (model)".into(),
                "paper".into(),
                "2 thr".into(),
                "paper".into(),
                "4 thr".into(),
                "paper".into()
            ]
        )
    );
    for (nodes, paper_row) in paper_t1 {
        let mut cells = Vec::new();
        for (ti, &t) in [1usize, 2, 4].iter().enumerate() {
            let got = model.sustained_gflops(&m, nodes, 4, t);
            cells.push(format!("{got:.0}"));
            cells.push(format!("{}", paper_row[ti]));
        }
        println!("{}", row(&format!("{nodes}"), &cells));
    }

    println!("\n== Table 2: sustained TFLOP/s vs racks ==\n");
    let rack_model = RackFlopsModel::default();
    let paper_t2 = [
        (1usize, 113.23, 53.99),
        (2, 226.32, 53.96),
        (48, 5081.0, 50.46),
    ];
    println!(
        "{}",
        row(
            "racks",
            &[
                "TFLOP/s".into(),
                "paper".into(),
                "%peak".into(),
                "paper %".into()
            ]
        )
    );
    for (racks, paper_tf, paper_pct) in paper_t2 {
        let tf = rack_model.sustained_tflops(racks);
        let pct = rack_model.fraction(racks) * 100.0;
        println!(
            "{}",
            row(
                &format!("{racks}"),
                &[
                    format!("{tf:.1}"),
                    format!("{paper_tf}"),
                    format!("{pct:.2}"),
                    format!("{paper_pct}"),
                ]
            )
        );
    }
    let full = rack_model.sustained_tflops(48);
    println!(
        "\nfull-Mira sustained: {:.2} PFLOP/s (paper: 5.08 PFLOP/s, dev {})",
        full / 1000.0,
        pct_dev(full, 5081.0)
    );

    println!("\n== §5.4 portability: dual Xeon E5-2665 ==\n");
    let xeon = MachineSpec::xeon_e5_2665_node();
    // The paper measures 217.6 GFLOP/s on the dual-socket node = 55% of the
    // turbo-clock node peak of ~396 GFLOP/s.
    let sustained = 0.55 * xeon.peak_flops_per_node() / 1e9;
    println!(
        "modelled sustained: {sustained:.1} GFLOP/s per node (paper: 217.6 GFLOP/s = 55% of 396)"
    );

    println!("\n== measured roofline (this host) ==\n");
    let r = measure_roofline();
    println!(
        "machine peaks: {:.2} GFLOP/s (FMA ladder), {:.2} GB/s (streaming triad)\n",
        r.peak_gflops, r.peak_bw_gbps
    );
    println!(
        "{}",
        row(
            "kernel",
            &[
                "GFLOP/s".into(),
                "FLOP/byte".into(),
                "roofline".into(),
                "% of roof".into(),
            ]
        )
    );
    for (name, k) in &r.kernels {
        println!(
            "{}",
            row(
                name,
                &[
                    format!("{:.2}", k.achieved_gflops),
                    format!("{:.3}", k.intensity_flops_per_byte),
                    format!("{:.2}", k.roofline_gflops),
                    format!("{:.1}%", k.fraction_of_peak * 100.0),
                ]
            )
        );
    }
    println!(
        "\n(paper Table 2: 50.5% of peak at 786,432 cores; fractions above use\n\
         analytic FLOP/byte counts against DRAM peaks, so cache-resident\n\
         kernels may exceed 100% of the bandwidth roof)"
    );

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("schema", Json::Str(PROFILE_SCHEMA.into())),
            ("kernels", Json::Obj(vec![])),
            ("roofline", roofline_block(&r)),
        ]);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("\nroofline profile written to {path}");
    }
}
