//! Thin CLI wrapper: regenerates fig14 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig14",
        "Fig. 14: training-pair ablation (weak supervision vs augmentation)",
        af_bench::experiments::fig14,
    );
}
