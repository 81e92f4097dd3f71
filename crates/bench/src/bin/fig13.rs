//! Thin CLI wrapper: regenerates fig13 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig13",
        "Fig. 13: feature-group ablation (content / style / syntactic masks)",
        af_bench::experiments::fig13,
    );
}
