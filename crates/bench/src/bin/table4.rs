//! Thin CLI wrapper: regenerates table4 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "table4",
        "Table 4: the 24 GPT prompt variants plus their union",
        af_bench::experiments::table4,
    );
}
