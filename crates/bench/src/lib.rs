//! `af-bench` — the evaluation harness that regenerates every table and
//! figure of the paper's §5.
//!
//! Each experiment is a library function in [`experiments`]; the `bin/`
//! targets are thin wrappers so `cargo run -p af-bench --bin table2`
//! regenerates Table 2 and `--bin run_all` regenerates everything.
//! `AF_SCALE={tiny,small,full}` scales corpus sizes.

pub mod ann_bench;
pub mod experiments;
pub mod metrics;
#[cfg(feature = "obs")]
pub mod obs_bench;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod serve_bench;
pub mod store_bench;
pub mod throughput;

pub use metrics::{pr_curve, quality, PrPoint, Quality};
pub use runner::{evaluate_autoformula, evaluate_baseline, CaseResult};
pub use scenario::{EmbedderKind, Scenario, SystemSpec};
