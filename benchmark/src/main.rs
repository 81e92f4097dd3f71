//! `af-benchmark`: the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for what it measures and why.

mod compare;
mod inputs;
mod json;
mod report;
mod run;
mod spans;
mod stats;
mod system;
mod trace;
mod workloads;

use run::Args;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "\
usage:
  af-benchmark [run|trace] --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
               [--out <dir>] [--smoke]
  af-benchmark spread <set>
  af-benchmark compare <set-a> <set-b>

workloads: interactive, fill_down, ingest_mixed, rebuild_restart
`trace` is `run --trace 1`. A set is a directory of result files, as `--out` collects them
(default benchmark/out). `spread` and `compare` read bounds from ./BENCHMARK.json.";

/// Seconds of measured phase when `--seconds` is not given; the value
/// `BENCHMARK.json` passes.
const DEFAULT_SECONDS: f64 = 22.0;

fn parse_run(args: &[String], trace: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::Interactive,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
    };
    let mut workload = None;
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = flags.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => run::run(&parse_run(&args[1..], false)?),
        Some("trace") => run::run(&parse_run(&args[1..], true)?),
        Some(flag) if flag.starts_with("--") => run::run(&parse_run(args, false)?),
        Some("spread") if args.len() == 2 => compare::spread(args[1].as_ref()),
        Some("compare") if args.len() == 3 => compare::compare(args[1].as_ref(), args[2].as_ref()),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("af-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
