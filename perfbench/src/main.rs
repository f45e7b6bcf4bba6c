//! The repository benchmark: four workloads over the public API of the
//! multisplitting crates.
//!
//! ```text
//! perfbench --workload <factor_heavy|iterate_heavy|serve_mix|grid_tcp>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--out` (default `perfbench/out`) receives the run record, the kept spans
//! and the launcher's job directories.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric,
//! measured from spans the benchmark records around calls into each layer.
//! `perfbench/README.md` says what each workload is for.

mod grid_tcp;
mod report;
mod rng;
mod serve_mix;
mod solver;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Directory for run records, spans and the launcher's job directories.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out: out.unwrap_or_else(|| PathBuf::from("perfbench/out")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(args.trace);
    let result = match args.workload.as_str() {
        "factor_heavy" => solver::run(&args, &solver::FACTOR_HEAVY),
        "iterate_heavy" => solver::run(&args, &solver::ITERATE_HEAVY),
        "serve_mix" => serve_mix::run(&args),
        "grid_tcp" => grid_tcp::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(report) => finish(&args, report),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn finish(args: &Args, mut report: Report) -> ExitCode {
    let rest = trace::drain();
    report.spans.extend(rest);
    report.print_human(args);
    if let Err(e) = report.write_files(&args.out, args) {
        eprintln!(
            "perfbench: writing run files under {}: {e}",
            args.out.display()
        );
        return ExitCode::from(1);
    }
    if !report.valid {
        // An open loop whose generator fell behind or whose backlog grew did
        // not apply the load it claims: nothing is reported for it.
        eprintln!(
            "perfbench: run invalid ({}); no result reported",
            report.invalid_reason
        );
        return ExitCode::from(3);
    }
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}
