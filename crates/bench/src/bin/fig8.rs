//! Thin CLI wrapper: regenerates fig8 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig8",
        "Fig. 8: online prediction latency vs reference-sheet count, plus offline preprocessing cost",
        af_bench::experiments::fig8,
    );
}
