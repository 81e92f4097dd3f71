//! Thin CLI wrapper: regenerates table1 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "table1",
        "Table 1: statistics of the four organizations' test corpora",
        af_bench::experiments::table1,
    );
}
