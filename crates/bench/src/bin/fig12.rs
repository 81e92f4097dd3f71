//! Thin CLI wrapper: regenerates fig12 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig12",
        "Fig. 12: embedding ablation (GloVe vs SBERT-style content features)",
        af_bench::experiments::fig12,
    );
}
