//! `spread` and `compare`: read sets of result files and judge them
//! against the bounds `BENCHMARK.json` declares, the way the acceptance
//! driver does (quartiles as Python's `statistics.quantiles(v, n=4)`).

use crate::json::Json;
use crate::stats::{quartiles, Better};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    better: Better,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text)?;
    let metrics = json.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                better: Better::parse(m.get("better")?.as_str()?)?,
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: a malformed end_to_end entry".to_string())
}

/// The untraced results of one set, per workload.
#[derive(Default)]
struct WorkloadRuns {
    /// Metric or extra name → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    /// Direction of the ungated extras, as the result files give it.
    better: BTreeMap<String, Better>,
    attempted: f64,
    failed: f64,
}

fn read_set(dir: &Path) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let mut set: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !(name.starts_with("result_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let workload =
            json.get("workload").and_then(Json::as_str).ok_or(format!("{name}: no workload"))?;
        let runs = set.entry(workload.to_string()).or_default();
        runs.attempted += json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        runs.failed += json.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for group in ["metrics", "extras"] {
            for (metric, body) in json.get(group).and_then(Json::as_object).into_iter().flatten() {
                let value = body
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: {metric} has no value"))?;
                runs.values.entry(metric.clone()).or_default().push(value);
                if let Some(better) =
                    body.get("better").and_then(Json::as_str).and_then(Better::parse)
                {
                    runs.better.insert(metric.clone(), better);
                }
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result_*.json files", dir.display()));
    }
    Ok(set)
}

/// Where a share of the bound falls.
fn verdict(share_of_bound: f64) -> &'static str {
    match share_of_bound {
        s if s > 1.0 => "OVER BOUND",
        s if s > 0.5 => "over half the bound",
        _ => "ok",
    }
}

/// Metric names of a workload in declaration order, then its extras.
fn metric_order<'a>(declared: &'a [Declared], runs: &'a WorkloadRuns) -> Vec<&'a str> {
    let gated = declared.iter().map(|d| d.name.as_str()).filter(|n| runs.values.contains_key(*n));
    let extras =
        runs.values.keys().map(String::as_str).filter(|n| declared.iter().all(|d| d.name != *n));
    gated.chain(extras).collect()
}

/// Per workload × metric: quartiles of the set and its inter-quartile
/// range as a share of the median, against the metric's bound.
pub fn spread(dir: &Path) -> Result<(), String> {
    let declared = declared()?;
    let set = read_set(dir)?;
    let mut over = 0;
    for workload in Workload::ALL.map(Workload::name) {
        let Some(runs) = set.get(workload) else { continue };
        println!("{workload} ({} failed of {} operations)", runs.failed, runs.attempted);
        println!(
            "  {:<22} {:>4} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
            "metric", "runs", "q1", "median", "q3", "spread", "bound"
        );
        for name in metric_order(&declared, runs) {
            let values = &runs.values[name];
            let (q1, median, q3) = quartiles(values);
            let spread = (q3 - q1) / median.abs();
            let (bound, judged) = match declared.iter().find(|d| d.name == name) {
                // The set-up time's spread is not gated, only its median.
                Some(d) if name == "setup_s" => (format!("{:.2}", d.bound), "exempt"),
                Some(d) => (format!("{:.2}", d.bound), verdict(spread / d.bound)),
                None => ("-".to_string(), "ungated"),
            };
            over += usize::from(judged == "OVER BOUND");
            println!("  {name:<22} {:>4} {q1:>13.4} {median:>13.4} {q3:>13.4} {:>7.2}% {bound:>6}  {judged}", values.len(), spread * 100.0);
        }
    }
    match over {
        0 => Ok(()),
        n => Err(format!("{n} spreads OVER BOUND")),
    }
}

/// Per workload × metric: both sets' medians and quartiles, how much worse
/// the second median is, and the bound.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let declared = declared()?;
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let mut problems = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        let (Some(runs_a), Some(runs_b)) = (set_a.get(workload), set_b.get(workload)) else {
            continue;
        };
        let failed_ratio = |r: &WorkloadRuns| r.failed / r.attempted.max(1.0);
        println!(
            "{workload} (failed_ops_ratio {} -> {})",
            failed_ratio(runs_a),
            failed_ratio(runs_b)
        );
        if failed_ratio(runs_b) > failed_ratio(runs_a) {
            problems.push(format!("{workload}: failed_ops_ratio rose"));
        }
        println!(
            "  {:<22} {:>13} {:>23} {:>13} {:>23} {:>8} {:>6}  verdict",
            "metric", "median a", "[q1, q3] a", "median b", "[q1, q3] b", "worse by", "bound"
        );
        for name in metric_order(&declared, runs_a) {
            let Some(values_b) = runs_b.values.get(name) else { continue };
            let (a1, a2, a3) = quartiles(&runs_a.values[name]);
            let (b1, b2, b3) = quartiles(values_b);
            let found = declared.iter().find(|d| d.name == name);
            let better = found.map(|d| d.better).or(runs_a.better.get(name).copied());
            let worse = better.unwrap_or(Better::Lower).worsening(a2, b2);
            let (bound, judged) = match found {
                Some(d) => (format!("{:.2}", d.bound), verdict(worse / d.bound)),
                None => ("-".to_string(), "ungated"),
            };
            if judged == "OVER BOUND" {
                problems.push(format!("{workload}/{name}: OVER BOUND"));
            }
            println!(
                "  {name:<22} {a2:>13.4} {:>23} {b2:>13.4} {:>23} {:>7.2}% {bound:>6}  {judged}",
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                worse * 100.0,
            );
        }
    }
    match problems.is_empty() {
        true => Ok(()),
        false => Err(problems.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_split_at_half_and_whole_bound() {
        assert_eq!(verdict(-0.3), "ok");
        assert_eq!(verdict(0.5), "ok");
        assert_eq!(verdict(0.51), "over half the bound");
        assert_eq!(verdict(1.0), "over half the bound");
        assert_eq!(verdict(1.01), "OVER BOUND");
    }
}
