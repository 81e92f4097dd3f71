//! Thin CLI wrapper: regenerates run_all (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "run_all",
        "every table and figure of section 5, in paper order",
        af_bench::experiments::run_all,
    );
}
