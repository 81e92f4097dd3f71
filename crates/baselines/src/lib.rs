//! `af-baselines` — every comparison method from §5: Mondrian,
//! SpreadsheetCoder, GPT with 24 prompt variants, and weak-supervision-only.
//!
//! SpreadsheetCoder and GPT are *simulated* (the paper itself could not run
//! SpreadsheetCoder's code and probed it manually through Google Sheets;
//! GPT is a remote service). The substitution argument: each stand-in
//! reproduces the mechanism that limits the original — NL context cannot
//! pin down multi-parameter formulas, and GPT only succeeds when RAG
//! surfaces a similar sheet.

pub mod adapt;
pub mod gpt;
pub mod mondrian;
pub mod ssc;
pub mod weak_sup;

pub use gpt::{GptSim, PromptConfig};
pub use mondrian::MondrianBaseline;
pub use ssc::SpreadsheetCoderSim;
pub use weak_sup::WeakSupBaseline;

use af_grid::{CellRef, Sheet, Workbook};

/// Everything a baseline may look at when predicting: the full workbook
/// collection, which workbooks are references, where the target cell is,
/// and the masked target sheet (the formula being predicted is hidden).
pub struct PredictionContext<'a> {
    pub workbooks: &'a [Workbook],
    pub reference: &'a [usize],
    pub target_workbook: usize,
    pub target_sheet: usize,
    pub masked: &'a Sheet,
    pub target: CellRef,
}

/// A baseline's answer.
#[derive(Debug, Clone)]
pub struct BaselinePrediction {
    /// Canonical formula text (no `=`).
    pub formula: String,
    /// Higher is more confident (method-specific scale).
    pub confidence: f32,
}

/// Common predictor interface for the evaluation harness.
pub trait Baseline {
    fn name(&self) -> &'static str;
    fn predict(&self, ctx: &PredictionContext<'_>) -> Option<BaselinePrediction>;
}
