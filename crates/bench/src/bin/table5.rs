//! Thin CLI wrapper: regenerates table5 (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "table5",
        "Table 5: Auto-Formula vs SpreadsheetCoder vs GPT-union on 180 cases",
        af_bench::experiments::table5,
    );
}
