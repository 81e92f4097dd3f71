//! With `--features obs`, `ReferenceIndex::build` records one
//! `index::build` sample per build. Its own test binary, so no other test
//! builds an index into the same process-global histogram meanwhile.
#![cfg(feature = "obs")]

use af_core::index::IndexOptions;
use af_core::{AutoFormula, AutoFormulaConfig, RepresentationModel};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_obs::MetricsSnapshot;
use std::sync::Arc;

fn builds_recorded() -> u64 {
    MetricsSnapshot::capture().get("index::build").map_or(0, |m| m.count)
}

#[test]
fn one_build_records_one_sample() {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig::test_tiny();
    let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
    let before = builds_recorded();
    let index = af.build_index(&corpus.workbooks, &[0, 1, 2], IndexOptions::default());
    assert!(index.n_sheets() > 0);
    assert_eq!(builds_recorded(), before + 1);
}
