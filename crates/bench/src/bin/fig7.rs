//! Thin CLI wrapper: regenerates fig7 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig7",
        "Fig. 7: precision-recall curves per corpus (AF sweep; baseline points)",
        af_bench::experiments::fig7,
    );
}
