//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit codes: 0 when every output check held, 1 when one failed (the
//! result line is still printed), 2 on bad arguments or a refused
//! configuration (nothing is measured).

use perfbench::{config_block, report, run, Opts, Workload};

const USAGE: &str = "usage: perfbench --workload <qmd_sic|fig5_domain|ranks_ldc> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Largest seed: seeds travel to rank workers as f64 arguments.
const MAX_SEED: u64 = 1 << 53;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s <= MAX_SEED)
                        .ok_or_else(|| format!("seed must be an integer in 0..=2^53: {value}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or_else(|| format!("seconds must be in (0, 3600]: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = config_block(&opts) {
        eprintln!("perfbench: refused: {e}");
        std::process::exit(2);
    }
    let result = run(&opts);
    let table = if opts.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if !result.finish(table) {
        std::process::exit(1);
    }
}
