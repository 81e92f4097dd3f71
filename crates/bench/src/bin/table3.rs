//! Thin CLI wrapper: regenerates table3 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "table3",
        "Table 3: quality comparison of all systems, random split",
        af_bench::experiments::table3,
    );
}
