//! Data-parallel training must be bit-deterministic in the worker count:
//! the gradient-shard decomposition depends only on the batch, and shards
//! are reduced in fixed order, so 1 worker and N workers must produce
//! **bit-identical** model weights for the same seed and corpus. Index
//! building embeds sheets on `embed_threads` workers, each a contiguous
//! chunk of the sheets joined back in order, so its saved bytes must not
//! depend on the width either.

use af_core::index::IndexOptions;
use af_core::training::{train_model, TrainingOptions};
use af_core::{AutoFormula, AutoFormulaConfig, RepresentationModel};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use std::sync::Arc;

fn weights_after_training(workers: usize) -> Vec<u8> {
    let corpus = OrgSpec::web_crawl(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig { episodes: 12, ..AutoFormulaConfig::test_tiny() };
    let opts = TrainingOptions { workers, ..TrainingOptions::default() };
    let (model, report) = train_model(&corpus.workbooks, &featurizer, cfg, opts);
    assert!(report.episodes > 0, "corpus must produce training pairs");
    model.to_bytes().to_vec()
}

#[test]
fn one_worker_vs_many_workers_bit_identical() {
    let w1 = weights_after_training(1);
    let w4 = weights_after_training(4);
    assert_eq!(w1, w4, "1-worker and 4-worker training diverged");
    // Auto (0 = one per core) must also match the fixed counts.
    let wauto = weights_after_training(0);
    assert_eq!(w1, wauto, "auto-width training diverged from 1-worker");
}

#[test]
fn repeated_runs_bit_identical() {
    // Same seed + same worker count: training is a pure function.
    assert_eq!(weights_after_training(3), weights_after_training(3));
}

#[test]
fn index_build_saves_the_same_bytes_at_any_embed_width() {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let system = |embed_threads| {
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig { embed_threads, ..AutoFormulaConfig::test_tiny() };
        AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer)
    };
    let members: Vec<usize> = (0..corpus.workbooks.len()).collect();
    let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
    // Every index is saved through one system: CONFIG stores
    // `embed_threads`, and every other section must match as it is.
    let common = system(1);
    let saved: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|threads| common.save(&system(threads).build_index(&corpus.workbooks, &members, opts)))
        .collect();
    assert_eq!(saved[0], saved[1], "1 and 2 embedding threads saved different bytes");
    assert_eq!(saved[0], saved[2], "1 and 4 embedding threads saved different bytes");
}
