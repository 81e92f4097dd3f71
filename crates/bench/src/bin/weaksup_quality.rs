//! Thin CLI wrapper: regenerates weaksup_quality (see the
//! per-experiment index in `crates/bench/src/experiments.rs`).
//! `AF_SCALE={tiny,small,full}` scales the synthetic corpora.

fn main() {
    af_bench::report::run_experiment(
        "weaksup_quality",
        "Weak-supervision quality audit: pair precision/recall against generator provenance",
        af_bench::experiments::weaksup_quality,
    );
}
