//! `cargo run --release -p af-bench --bin serve` — measure the serving
//! layer at the current `AF_SCALE`: artifact size, cold-start load vs full
//! index rebuild, and concurrent/micro-batched query latency through the
//! shared `ServeHandle`. Results land in `BENCH_serve.json` (pass an
//! output path as the first argument to write elsewhere).
//!
//! Built with `--features obs`, the run additionally measures the cost of
//! the af-obs instrumentation on the mixed workload, prints every
//! histogram site, and writes `BENCH_obs.json` (second argument to write
//! elsewhere). The process exits non-zero if the obs-on run blows the
//! overhead gate (pooled mixed p99 and pooled read p99 both more than
//! 5% + 0.5 ms over obs-off) — CI uses this as the regression tripwire.

use af_bench::report::{print_table, run_experiment};
use af_bench::serve_bench;

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_serve.json".to_string());
    #[cfg(feature = "obs")]
    let obs_out = std::env::args().nth(2).unwrap_or_else(|| "BENCH_obs.json".to_string());
    #[cfg(feature = "obs")]
    let mut gate_ok = true;
    run_experiment("serve", "BENCH_serve.json (artifact + serving latency)", || {
        let run = serve_bench::measure_full();
        let r = &run.report;
        println!(
            "\nindex: {} sheets, {} regions → artifact {:.1} KiB",
            r.n_sheets,
            r.n_regions,
            r.artifact_bytes as f64 / 1024.0
        );
        print_table(
            "cold start",
            &["path", "ms"],
            &[
                vec!["rebuild (embed + index)".into(), format!("{:.2}", r.rebuild_ms)],
                vec!["artifact load".into(), format!("{:.2}", r.load_ms)],
                vec!["speedup".into(), format!("{:.1}x", r.load_speedup)],
            ],
        );
        print_table(
            "query latency",
            &["mode", "p50 (ms)", "p99 (ms)", "q/s"],
            &[
                vec![
                    "sequential".into(),
                    format!("{:.3}", r.sequential_p50_ms),
                    format!("{:.3}", r.sequential_p99_ms),
                    String::new(),
                ],
                vec![
                    format!("concurrent x{}", r.concurrent_readers),
                    format!("{:.3}", r.concurrent_p50_ms),
                    format!("{:.3}", r.concurrent_p99_ms),
                    format!("{:.0}", r.concurrent_queries_per_sec),
                ],
                vec![
                    "micro-batched".into(),
                    String::new(),
                    String::new(),
                    format!("{:.0}", r.batch_queries_per_sec),
                ],
            ],
        );
        print_table(
            "add-while-query (sustained ingest)",
            &["config", "read p99 (ms)", "add p99 (ms)", "mixed p99 (ms)"],
            &[
                vec![
                    "no deltas".into(),
                    format!("{:.3}", r.mixed_baseline.read_p99_ms),
                    format!("{:.3}", r.mixed_baseline.add_p99_ms),
                    format!("{:.3}", r.mixed_baseline.mixed_p99_ms),
                ],
                vec![
                    "deltas".into(),
                    format!("{:.3}", r.mixed_deltas.read_p99_ms),
                    format!("{:.3}", r.mixed_deltas.add_p99_ms),
                    format!("{:.3}", r.mixed_deltas.mixed_p99_ms),
                ],
                vec![
                    "p99 speedup".into(),
                    String::new(),
                    String::new(),
                    format!("{:.1}x", r.mixed_p99_speedup),
                ],
            ],
        );
        if let Some(c) = &r.chaos {
            print_table(
                "degraded mode (fault-injected closed loop)",
                &["metric", "value"],
                &[
                    vec!["ops".into(), format!("{}", c.ops)],
                    vec!["degraded outcomes".into(), format!("{}", c.degraded)],
                    vec!["deadline exceeded".into(), format!("{}", c.deadline_exceeded)],
                    vec!["quarantined at end".into(), format!("{}", c.quarantined_at_end)],
                    vec!["compactor restarts".into(), format!("{}", c.compactor_restarts)],
                    vec!["inline compactions".into(), format!("{}", c.inline_compactions)],
                    vec!["healthy p99 (ms)".into(), format!("{:.3}", c.healthy_p99_ms)],
                    vec!["faulted p99 (ms)".into(), format!("{:.3}", c.faulted_p99_ms)],
                    vec!["recovered p99 (ms)".into(), format!("{:.3}", c.recovered_p99_ms)],
                ],
            );
        }
        serve_bench::write_json(r, std::path::Path::new(&out));
        println!("\nwrote {out}");

        #[cfg(feature = "obs")]
        {
            let obs = af_bench::obs_bench::measure(&run);
            print_table(
                "obs overhead (mixed workload, runtime toggle)",
                &["recording", "mixed p99 (ms)", "read p99 (ms)"],
                &[
                    vec![
                        "off".into(),
                        format!("{:.3}", obs.off.mixed_p99_ms),
                        format!("{:.3}", obs.off.read_p99_ms),
                    ],
                    vec![
                        "on".into(),
                        format!("{:.3}", obs.on.mixed_p99_ms),
                        format!("{:.3}", obs.on.read_p99_ms),
                    ],
                    vec![
                        "ratio".into(),
                        format!("{:.3}x", obs.overhead_ratio),
                        format!("{:.3}x", obs.on.read_p99_ms / obs.off.read_p99_ms.max(1e-9)),
                    ],
                    vec![
                        "gate".into(),
                        if obs.gate_ok { "ok".into() } else { "FAIL".into() },
                        String::new(),
                    ],
                ],
            );
            println!("\n{}", obs.snapshot.to_text_table());
            af_bench::obs_bench::write_json(&obs, r.scale, std::path::Path::new(&obs_out));
            println!("wrote {obs_out}");
            gate_ok = obs.gate_ok;
        }
    });
    #[cfg(feature = "obs")]
    if !gate_ok {
        eprintln!(
            "obs overhead gate FAILED: obs-on mixed AND read p99 exceed obs-off by more than 5%"
        );
        std::process::exit(1);
    }
}
