//! Thin CLI wrapper: regenerates fig11 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig11",
        "Fig. 11: quality by formula type (aggregation / lookup / conditional / text)",
        af_bench::experiments::fig11,
    );
}
