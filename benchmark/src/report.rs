//! What a run reports besides its metrics: the environment it ran in, a
//! calibration loop that shows whether the host was disturbed, peak
//! memory, and the result file.

use crate::json::{object, Json};
use crate::stats::RoundSummary;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Median and inter-quartile range over rounds, for numbers that are
    /// the best of several rounds.
    pub rounds: Option<RoundSummary>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, rounds: None }
    }

    pub fn of_rounds(name: &'static str, unit: &'static str, rounds: RoundSummary) -> Metric {
        Metric { name, unit, value: rounds.best, rounds: Some(rounds) }
    }

    /// `{"value": …, "unit": …}`, as the acceptance driver reads it.
    fn to_json(&self, with_rounds: bool) -> Json {
        let mut pairs =
            vec![("value", Json::Num(self.value)), ("unit", Json::Str(self.unit.to_string()))];
        if let (true, Some(r)) = (with_rounds, self.rounds) {
            pairs.push(("better", Json::Str(r.better.name().to_string())));
            pairs.push(("median_round", Json::Num(r.median)));
            pairs.push(("iqr_rounds", Json::Num(r.iqr)));
        }
        object(pairs)
    }
}

pub fn metrics_json(metrics: &[Metric], with_rounds: bool) -> Json {
    object(metrics.iter().map(|m| (m.name, m.to_json(with_rounds))))
}

/// Iterations of the calibration loop: about 200 ms on the box the
/// benchmark was sized on. Fixed work, so its time before and after the
/// measured phase shows a disturbed host.
const CALIBRATION_ITERATIONS: u64 = 100_000_000;

/// Milliseconds the fixed pure-CPU loop takes right now: four independent
/// xorshift chains, so that it keeps the core's execution ports as busy as
/// the program does and slows down with it when a neighbour shares the
/// core. (A single dependent chain does not: sizing saw it stay within 8 %
/// while training, indexing and queries all ran 20 % slower.)
pub fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let mut lanes: [u64; 4] = black_box([0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 3, 4]);
    for _ in 0..CALIBRATION_ITERATIONS {
        for x in &mut lanes {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
        }
    }
    black_box(lanes);
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB: the most memory it has had resident.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($name:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($name) {
                    features.push($name);
                }
            )*};
        }
        detect!("sse4.2", "avx", "avx2", "fma", "avx512f");
    }
    features
}

/// `rustc -V` of the toolchain on the path; the child has exited when this
/// returns.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` in an exported tree.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => read(reference).map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    };
    sha.filter(|s| !s.is_empty()).unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was produced.
pub fn env_json(
    seed: u64,
    scale: &str,
    rounds: usize,
    samples_per_round: usize,
    digest: u64,
) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    object([
        ("cores", Json::Num(cores as f64)),
        (
            "cpu_features",
            Json::Arr(cpu_features().into_iter().map(|f| Json::Str(f.into())).collect()),
        ),
        ("rustc", Json::Str(rustc_version())),
        ("git_sha", Json::Str(git_sha())),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Str(scale.to_string())),
        ("rounds", Json::Num(rounds as f64)),
        ("samples_per_round", Json::Num(samples_per_round as f64)),
        ("inputs_digest", Json::Str(format!("{digest:016x}"))),
    ])
}

/// The last line of standard output: exactly the four keys the acceptance
/// driver reads.
pub fn driver_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    object([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .render()
}

/// One line per metric for a person reading standard error.
pub fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        match m.rounds {
            Some(r) => eprintln!(
                "  {:<28} {:>14.4} {:<6} (median round {:.4}, IQR of rounds {:.4})",
                m.name, m.value, m.unit, r.median, r.iqr
            ),
            None => eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
}
