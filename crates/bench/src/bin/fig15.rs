//! Thin CLI wrapper: regenerates fig15 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig15",
        "Fig. 15: pipeline-stage ablation (S1/S2/S3 variants)",
        af_bench::experiments::fig15,
    );
}
