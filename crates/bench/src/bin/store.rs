//! `cargo run --release -p af-bench --bin store` — measure the vector-
//! storage subsystem at the current `AF_SCALE`: artifact size, load time,
//! flat-backend recall, and end-to-end prediction agreement for every
//! codec, plus the mmap cold start. Results land in
//! `BENCH_store.json` (pass an output path as the first argument to write
//! elsewhere).

use af_bench::report::{print_table, run_experiment};
use af_bench::store_bench;

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_store.json".to_string());
    run_experiment("store", "BENCH_store.json (codec size/recall/latency)", || {
        let r = store_bench::measure();
        println!(
            "\nindex: {} sheets, {} regions; recall k={} over {} queries; \
             {} prediction queries; mmap cold start {:.2} ms",
            r.n_sheets, r.n_regions, r.k, r.recall_queries, r.prediction_queries, r.mmap_load_ms
        );
        print_table(
            "storage codecs",
            &["codec", "MiB", "vs f32", "load (ms)", "recall@10", "pred agree"],
            &r.variants
                .iter()
                .map(|v| {
                    vec![
                        v.codec.to_string(),
                        format!("{:.2}", v.artifact_bytes as f64 / (1024.0 * 1024.0)),
                        format!("{:.3}", v.ratio_vs_f32),
                        format!("{:.2}", v.load_ms),
                        format!("{:.4}", v.flat_recall_at_k),
                        format!("{:.4}", v.prediction_agreement),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        store_bench::write_json(&r, std::path::Path::new(&out));
        println!("\nwrote {out}");

        // Committed fidelity floors for the f16 codec: the smoke job runs
        // this binary, so a regression in f16 recall or end-to-end
        // prediction agreement fails CI loudly instead of silently
        // shipping a worse artifact format. With only ~17 prediction
        // queries at tiny each S2 near-tie flip costs ~6% agreement, so
        // the full floor only applies once the query set is large enough
        // to make it meaningful.
        const F16_RECALL_FLOOR: f64 = 0.95;
        let f16_agreement_floor: f64 = if r.prediction_queries >= 50 { 0.90 } else { 0.75 };
        for v in r.variants.iter().filter(|v| v.codec == "f16") {
            assert!(
                v.flat_recall_at_k >= F16_RECALL_FLOOR,
                "f16 recall@10 {:.4} fell below the committed floor {F16_RECALL_FLOOR}",
                v.flat_recall_at_k,
            );
            assert!(
                v.prediction_agreement >= f16_agreement_floor,
                "f16 prediction agreement {:.4} fell below the committed floor \
                 {f16_agreement_floor}",
                v.prediction_agreement,
            );
        }
    });
}
