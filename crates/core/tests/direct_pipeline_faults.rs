//! The direct pipeline's fault contract. `AutoFormula::predict_with` is
//! the one-segment call of the funnel a sharded server runs, but a direct
//! caller has no shard to quarantine: a panic inside the pass unwinds out
//! of the call with its original payload, an injected scan error leaves
//! the pass without candidates, and a `FineOnly` query whose embedding
//! lacks the fine signature falls back to the coarse S1 scan instead of
//! panicking.
//!
//! Requires `--features failpoints`; without it this file compiles empty.
#![cfg(feature = "failpoints")]

use af_core::failpoint::{self, FailAction};
use af_core::index::{IndexOptions, ReferenceIndex};
use af_core::pipeline::{AutoFormula, PipelineVariant, Prediction};
use af_core::{AutoFormulaConfig, RepresentationModel};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_grid::{CellRef, Sheet};
use std::sync::{Arc, Mutex, MutexGuard};

/// The failpoint registry is process-global and tests run on threads:
/// every test holds this lock for its whole body and disarms on exit.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms every site when dropped, even when the test panics.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        failpoint::clear_all();
    }
}

fn system_and_index(opts: IndexOptions) -> (AutoFormula, ReferenceIndex, af_corpus::OrgCorpus) {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig::test_tiny();
    let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
    let members: Vec<usize> = (0..4).collect();
    let index = af.build_index(&corpus.workbooks, &members, opts);
    (af, index, corpus)
}

/// An indexed formula cell: its own region is in the index, so every
/// healthy variant answers it.
fn query(corpus: &af_corpus::OrgCorpus) -> (&Sheet, CellRef) {
    let sheet = &corpus.workbooks[0].sheets[0];
    let (target, _) = sheet.formulas().next().expect("a formula cell");
    (sheet, target)
}

fn assert_same(a: Option<&Prediction>, b: Option<&Prediction>) {
    match (a, b) {
        (Some(x), Some(y)) => {
            assert_eq!(x.formula, y.formula);
            assert_eq!(x.s2_distance.to_bits(), y.s2_distance.to_bits());
            assert_eq!(x.reference_sheet_idx, y.reference_sheet_idx);
            assert_eq!(x.reference_cell, y.reference_cell);
        }
        (x, y) => panic!("{x:?} vs {y:?}"),
    }
}

#[test]
fn fine_only_without_a_signature_answers_through_the_coarse_scan() {
    let _l = fault_lock();
    let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: false };
    let (af, index, corpus) = system_and_index(opts);
    let (sheet, target) = query(&corpus);
    // Embedded without the fine top-left signature a `FineOnly` S1 needs.
    let emb = af.embedder().embed_sheet(sheet, false);
    assert!(emb.fine_topleft.is_none());
    let fine_only = af.predict_prepared(&index, &emb, sheet, target, PipelineVariant::FineOnly);
    // `FineOnly` differs from `Full` in S1 alone, so with the coarse scan
    // standing in for the signature scan the two answer alike.
    let full = af.predict_prepared(&index, &emb, sheet, target, PipelineVariant::Full);
    assert!(full.is_some());
    assert_same(fine_only.as_ref(), full.as_ref());
}

#[test]
fn a_panic_in_the_direct_pass_unwinds_with_its_payload() {
    let _l = fault_lock();
    let _d = Disarm;
    let (af, index, corpus) = system_and_index(IndexOptions::default());
    let (sheet, target) = query(&corpus);
    failpoint::arm("serve::region_rank", FailAction::Panic);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        af.predict_with(&index, sheet, target, PipelineVariant::Full)
    }));
    std::panic::set_hook(hook);
    let payload = caught.expect_err("nothing is swallowed on the direct path");
    let msg = payload.downcast_ref::<String>().expect("the injected string payload");
    assert!(msg.contains("injected failpoint panic at serve::region_rank"), "{msg}");
}

#[test]
fn an_injected_scan_error_answers_none_until_cleared() {
    let _l = fault_lock();
    let _d = Disarm;
    let (af, index, corpus) = system_and_index(IndexOptions::default());
    let (sheet, target) = query(&corpus);
    let healthy = af.predict_with(&index, sheet, target, PipelineVariant::Full);
    assert!(healthy.is_some());
    failpoint::arm("serve::shard_scan", FailAction::Error);
    assert!(af.predict_with(&index, sheet, target, PipelineVariant::Full).is_none());
    failpoint::clear("serve::shard_scan");
    let again = af.predict_with(&index, sheet, target, PipelineVariant::Full);
    assert_same(again.as_ref(), healthy.as_ref());
}
