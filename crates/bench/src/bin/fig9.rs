//! Thin CLI wrapper: regenerates fig9 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "fig9",
        "Fig. 9: quality vs number of retrieved similar sheets (top-K sensitivity)",
        af_bench::experiments::fig9,
    );
}
