//! Thin CLI wrapper: regenerates fig10 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig10",
        "Fig. 10: quality by formula complexity (operator count)",
        af_bench::experiments::fig10,
    );
}
