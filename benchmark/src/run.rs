//! One run of one workload: set-up, correctness gates, the measured
//! rounds (or the traced run), and the report.

use crate::inputs::Inputs;
use crate::json::{object, Json};
use crate::report::{
    calibrate_ms, driver_line, env_json, metrics_json, peak_rss_mb, print_table, Metric,
};
use crate::stats::{quartiles, summarize_rounds, Better};
use crate::system::{build, restart, timed, Built, ServeLayout};
use crate::trace;
use crate::workloads::{Round, Runner, Workload};
use af_corpus::organization::Scale;
use af_serve::ServeHandle;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every workload reports, as `BENCHMARK.json`
/// declares them: name, unit, direction.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("query_p50_ms", "ms", Better::Lower),
    ("query_p99_ms", "ms", Better::Lower),
    ("queries_per_s", "1/s", Better::Higher),
    ("peak_rss_mb", "MB", Better::Lower),
    ("hit_rate", "ratio", Better::Higher),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A run measures at least this many rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// `hit_rate` below this fails the run. Recorded from the first accepted
/// runs (0.6215 to 0.6423 over twenty seeds at `Scale::Small`, 0.64 at
/// `Scale::Tiny`); `BENCHMARK.json` has no key to hold it.
const HIT_RATE_FLOOR: f64 = 0.58;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Where result files, traces and scratch artifacts go.
    pub out: PathBuf,
    /// `Scale::Tiny`, one set-up, two rounds: a check that everything
    /// runs, in seconds.
    pub smoke: bool,
}

impl Args {
    fn scale(&self) -> (Scale, &'static str) {
        match self.smoke {
            true => (Scale::Tiny, "tiny"),
            false => (Scale::Small, "small"),
        }
    }
}

/// A finished set-up.
pub struct Setup {
    pub inputs: Inputs,
    /// The built system: kept for the traced run, whose probes need it;
    /// an untraced run has only what a restarted process has.
    pub built: Option<Built>,
    /// The artifact bytes, when the layout keeps them in memory.
    pub artifact: Vec<u8>,
    pub handle: ServeHandle,
    pub layout: ServeLayout,
    /// Seconds generating the inputs took, in the set-up that was kept.
    pub generate_s: f64,
    /// Seconds each set-up took, inputs to restarted handle.
    pub seconds: Vec<f64>,
}

/// Generate the inputs, build the system and restart from its artifact,
/// `repeats` times from scratch, keeping the last. Everything that has to
/// happen before a workload can serve its first request is in here, so
/// work a change moves out of the measured phase shows in `setup_s`.
fn setup(args: &Args, repeats: usize) -> Result<Setup, String> {
    let layout = args.workload.layout(&args.out);
    let mut seconds = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        // The previous set-up goes first: two never coexist.
        drop(kept.take());
        let start = Instant::now();
        let (inputs, generate_s) = timed(|| Inputs::generate(args.scale().0, args.seed));
        let inputs = inputs?;
        let built = build(&inputs, &layout)?;
        let reference = built.reference_answers(&inputs.cases);
        // An untraced run restarts with what a restarted process has, the
        // artifact; the traced run's probes need the built system too.
        let (artifact, built) = match args.trace {
            true => (built.artifact.clone(), Some(built)),
            false => (built.into_artifact(), None),
        };
        let (handle, _) = restart(&layout, &artifact, &inputs.cases, &reference)?;
        seconds.push(start.elapsed().as_secs_f64());
        kept = Some((inputs, built, artifact, handle, generate_s));
    }
    let (inputs, built, artifact, handle, generate_s) = kept.ok_or("no set-up was run")?;
    Ok(Setup { inputs, built, artifact, handle, layout, generate_s, seconds })
}

fn write_result(args: &Args, kind: &str, body: Json) -> Result<(), String> {
    let name = format!("{kind}_{}_seed{}.json", args.workload.name(), args.seed);
    std::fs::write(args.out.join(name), body.render() + "\n").map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    match args.trace {
        true => run_traced(args),
        false => run_untraced(args),
    }
}

fn run_untraced(args: &Args) -> Result<(), String> {
    let calib_before = calibrate_ms();
    let Setup { inputs, artifact, handle, layout, seconds, .. } =
        setup(args, if args.smoke { 1 } else { SETUP_REPEATS })?;
    let digest = inputs.digest();
    let mut runner = Runner::new(args.workload, inputs, layout, artifact, handle);

    let hit_rate = runner.hit_rate();
    if hit_rate < HIT_RATE_FLOOR {
        return Err(format!("hit_rate {hit_rate:.4} is below the floor of {HIT_RATE_FLOOR}"));
    }
    if args.workload == Workload::FillDown {
        runner.check_bursts()?;
    }

    // The measured phase: identical rounds until the time is used up.
    let mut rounds: Vec<Round> = Vec::new();
    let mut longest_round_s = 0f64;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        rounds.push(runner.round()?);
        longest_round_s = longest_round_s.max(t.elapsed().as_secs_f64());
        let done = match args.smoke {
            true => rounds.len() >= MIN_ROUNDS,
            false => {
                rounds.len() >= MIN_ROUNDS
                    && started.elapsed().as_secs_f64() + longest_round_s > args.seconds
            }
        };
        if done {
            break;
        }
    }
    runner.clean_up();
    let calib_after = calibrate_ms();

    let peak_rss_mb = peak_rss_mb()?;
    let of_rounds = |name, unit, better, value: fn(&Round) -> f64| {
        let per_round: Vec<f64> = rounds.iter().map(value).collect();
        Metric::of_rounds(name, unit, summarize_rounds(&per_round, better))
    };
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit, better)| match name {
            "setup_s" => Metric::new(name, unit, quartiles(&seconds).1),
            "query_p50_ms" => of_rounds(name, unit, better, |r| r.query_p50_ms),
            "query_p99_ms" => of_rounds(name, unit, better, |r| r.query_p99_ms),
            "queries_per_s" => of_rounds(name, unit, better, Round::queries_per_s),
            "peak_rss_mb" => Metric::new(name, unit, peak_rss_mb),
            "hit_rate" => Metric::new(name, unit, hit_rate),
            other => unreachable!("{other} is declared but not measured"),
        })
        .collect();
    let extras: Vec<Metric> = (0..rounds[0].extras.len())
        .map(|i| {
            let first = rounds[0].extras[i];
            let per_round: Vec<f64> = rounds.iter().map(|r| r.extras[i].value).collect();
            Metric::of_rounds(first.name, first.unit, summarize_rounds(&per_round, first.better))
        })
        .collect();
    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();

    let samples = runner.stream.queries(&runner.inputs);
    let per_round =
        |value: fn(&Round) -> f64| Json::Arr(rounds.iter().map(|r| Json::Num(value(r))).collect());
    write_result(
        args,
        "result",
        object([
            ("workload", Json::Str(args.workload.name().into())),
            ("env", env_json(args.seed, args.scale().1, rounds.len(), samples, digest)),
            (
                "host",
                object([
                    ("calib_ms_before", Json::Num(calib_before)),
                    ("calib_ms_after", Json::Num(calib_after)),
                ]),
            ),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics_json(&metrics, true)),
            ("extras", metrics_json(&extras, true)),
            // Every round, in order: a disturbed stretch shows as a run of
            // slow rounds.
            (
                "rounds",
                object([
                    ("query_p50_ms", per_round(|r| r.query_p50_ms)),
                    ("query_p99_ms", per_round(|r| r.query_p99_ms)),
                    ("queries_per_s", per_round(Round::queries_per_s)),
                ]),
            ),
        ]),
    )?;

    eprintln!(
        "{} seed {}: {} rounds of {samples} queries, {attempted} operations, {failed} failed; \
         calibration {calib_before:.1} ms before, {calib_after:.1} ms after",
        args.workload.name(),
        args.seed,
        rounds.len(),
    );
    print_table("end to end (gated; timings are the best round):", &metrics);
    if !extras.is_empty() {
        print_table("workload-specific (ungated):", &extras);
    }
    println!("{}", driver_line(attempted, failed, &metrics));
    Ok(())
}

fn run_traced(args: &Args) -> Result<(), String> {
    let calib_before = calibrate_ms();
    let setup = setup(args, 1)?;
    let digest = setup.inputs.digest();
    let traced = trace::run(args.workload, setup, &args.out)?;
    let calib_after = calibrate_ms();

    let mut metrics = traced.metrics;
    metrics.push(Metric::new("host.calib_ms_before", "ms", calib_before));
    metrics.push(Metric::new("host.calib_ms_after", "ms", calib_after));

    let spans_path = args.out.join(format!("trace_{}.jsonl", args.workload.name()));
    let file = std::fs::File::create(&spans_path).map_err(|e| e.to_string())?;
    traced.recorder.write_jsonl(std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    write_result(
        args,
        "trace",
        object([
            ("workload", Json::Str(args.workload.name().into())),
            (
                "env",
                env_json(
                    args.seed,
                    args.scale().1,
                    trace::ROUNDS,
                    traced.attempted / trace::ROUNDS,
                    digest,
                ),
            ),
            ("attempted", Json::Num(traced.attempted as f64)),
            ("failed", Json::Num(0.0)),
            ("metrics", metrics_json(&metrics, false)),
        ]),
    )?;

    eprintln!(
        "{} seed {} traced: every one of {} recomposed requests answered as served; spans in {}",
        args.workload.name(),
        args.seed,
        traced.attempted,
        spans_path.display(),
    );
    print_table("per layer (ungated):", &metrics);
    println!("{}", driver_line(traced.attempted, 0, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` declares what this program reports: the same
    /// workloads, and the same end-to-end metrics with the same units and
    /// directions.
    #[test]
    fn declaration_matches_the_program() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("run from benchmark/");
        let json = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            let list = json.get(key).and_then(Json::as_array).unwrap();
            list.iter().map(|e| e.get("name").unwrap().as_str().unwrap().to_string()).collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name().to_string()));
        let declared: Vec<(String, String, Better)> = json
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).unwrap().as_str().unwrap().to_string();
                (field("name"), field("unit"), Better::parse(&field("better")).unwrap())
            })
            .collect();
        let reported: Vec<(String, String, Better)> =
            END_TO_END.iter().map(|&(n, u, b)| (n.to_string(), u.to_string(), b)).collect();
        assert_eq!(declared, reported);
        assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(crate::DEFAULT_SECONDS));
    }
}
