//! Thin CLI wrapper: regenerates table2 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "table2",
        "Table 2: quality comparison of all systems, timestamp split",
        af_bench::experiments::table2,
    );
}
