//! Cross-crate integration: generate corpora, train, index, predict,
//! evaluate — the full paper pipeline at test scale.

use auto_formula::core::index::IndexOptions;
use auto_formula::core::pipeline::{AutoFormula, PipelineVariant, PredictOptions};
use auto_formula::core::{AutoFormulaConfig, TrainingOptions};
use auto_formula::corpus::organization::{OrgSpec, Scale};
use auto_formula::corpus::split::{split, SplitKind};
use auto_formula::corpus::testcase::{masked_sheet, sample_test_cases};
use auto_formula::embed::{CellFeaturizer, FeatureMask, SbertSim};
use std::sync::Arc;

fn tiny_system(universe: &auto_formula::corpus::OrgCorpus) -> AutoFormula {
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig { episodes: 40, ..AutoFormulaConfig::test_tiny() };
    let (af, report) =
        AutoFormula::train(&universe.workbooks, featurizer, cfg, TrainingOptions::default());
    assert!(report.coarse_pairs > 0 && report.fine_pairs > 0);
    af
}

#[test]
fn train_index_predict_evaluate() {
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let org = OrgSpec::pge(Scale::Tiny).generate();
    let af = tiny_system(&universe);
    let sp = split(&org, SplitKind::Timestamp, 0.1, 1);
    let index = af.build_index(&org.workbooks, &sp.reference, IndexOptions::default());
    assert!(index.n_sheets() > 0);
    assert!(index.n_regions() > 0);

    let cases = sample_test_cases(&org, &sp, 5, 2);
    assert!(!cases.is_empty());
    let mut n_pred = 0;
    let mut n_hit = 0;
    for tc in cases.iter().take(40) {
        let sheet = &org.workbooks[tc.workbook].sheets[tc.sheet];
        let masked = masked_sheet(sheet, tc.target);
        if let Some(p) = af.predict_with(&index, &masked, tc.target, PipelineVariant::Full) {
            n_pred += 1;
            let gt = auto_formula::formula::parse_formula(&tc.ground_truth).unwrap().to_string();
            if p.formula == gt {
                n_hit += 1;
            }
            // Predictions always parse.
            assert!(auto_formula::formula::parse_formula(&p.formula).is_ok());
        }
    }
    assert!(n_pred > 0, "pipeline should make predictions");
    assert!(n_hit * 4 >= n_pred, "at least 25% exact on PGE-sim ({n_hit}/{n_pred})");
}

#[test]
fn determinism_across_runs() {
    // Same seeds → identical corpora, training, and predictions.
    let run = || {
        let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
        let org = OrgSpec::ti(Scale::Tiny).generate();
        let af = tiny_system(&universe);
        let sp = split(&org, SplitKind::Timestamp, 0.1, 1);
        let index = af.build_index(&org.workbooks, &sp.reference, IndexOptions::default());
        let cases = sample_test_cases(&org, &sp, 3, 2);
        cases
            .iter()
            .take(10)
            .map(|tc| {
                let sheet = &org.workbooks[tc.workbook].sheets[tc.sheet];
                let masked = masked_sheet(sheet, tc.target);
                af.predict_with(&index, &masked, tc.target, PipelineVariant::Full)
                    .map(|p| p.formula)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn pipeline_variants_all_run() {
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let org = OrgSpec::pge(Scale::Tiny).generate();
    let af = tiny_system(&universe);
    let sp = split(&org, SplitKind::Random, 0.1, 5);
    let index = af.build_index(
        &org.workbooks,
        &sp.reference,
        IndexOptions { fine_sheet_signatures: true, coarse_regions: true },
    );
    let cases = sample_test_cases(&org, &sp, 2, 3);
    let tc = &cases[0];
    let sheet = &org.workbooks[tc.workbook].sheets[tc.sheet];
    let masked = masked_sheet(sheet, tc.target);
    for variant in [PipelineVariant::Full, PipelineVariant::CoarseOnly, PipelineVariant::FineOnly] {
        // Must not panic; may or may not predict.
        let _ = af.predict_with(&index, &masked, tc.target, variant);
    }
}

#[test]
fn artifact_load_reproduces_in_memory_predictions_on_every_backend() {
    // The acceptance bar for the serving artifact: `AutoFormula::save` →
    // `AutoFormula::load` → `predict` must be *bit-identical* to the
    // in-memory pipeline — same formulas, same S2 distances to the bit,
    // same provenance — on every ANN backend (flat vectors, HNSW graph,
    // IVF lists + centroids all round-trip through the artifact).
    use auto_formula::core::AnnBackend;
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let org = OrgSpec::pge(Scale::Tiny).generate();
    let mut af = tiny_system(&universe);
    let sp = split(&org, SplitKind::Random, 0.1, 7);
    let cases = sample_test_cases(&org, &sp, 3, 6);
    assert!(!cases.is_empty());
    for backend in [
        AnnBackend::Flat,
        AnnBackend::Hnsw(auto_formula::ann::HnswParams::default()),
        AnnBackend::Ivf(auto_formula::ann::IvfParams { n_lists: 4, ..Default::default() }),
    ] {
        af.model.cfg.ann_backend = backend;
        let index = af.build_index(&org.workbooks, &sp.reference, IndexOptions::default());
        let artifact = af.save(&index);
        let (loaded, loaded_index) = auto_formula::core::pipeline::AutoFormula::load(&artifact)
            .unwrap_or_else(|e| panic!("{backend:?}: artifact must load: {e}"));
        let mut predictions = 0usize;
        for tc in cases.iter().take(15) {
            let sheet = &org.workbooks[tc.workbook].sheets[tc.sheet];
            let masked = masked_sheet(sheet, tc.target);
            let a = af.predict_with(&index, &masked, tc.target, PipelineVariant::Full);
            let b = loaded.predict_with(&loaded_index, &masked, tc.target, PipelineVariant::Full);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.formula, y.formula, "{backend:?}");
                    assert_eq!(
                        x.s2_distance.to_bits(),
                        y.s2_distance.to_bits(),
                        "{backend:?}: distances must match to the bit"
                    );
                    assert_eq!(x.reference_sheet, y.reference_sheet, "{backend:?}");
                    assert_eq!(x.reference_cell, y.reference_cell, "{backend:?}");
                    assert_eq!(x.template_signature, y.template_signature, "{backend:?}");
                    predictions += 1;
                }
                (None, None) => {}
                (x, y) => panic!("{backend:?}: prediction mismatch {x:?} vs {y:?}"),
            }
        }
        assert!(predictions > 0, "{backend:?}: comparison needs actual predictions");
    }
}

#[test]
fn compact_and_mmap_artifacts_stay_bit_identical_on_every_backend() {
    // The storage path must not bend the acceptance bar: the per-cell
    // fine layout (windows gathered at query time from zero-copy cell
    // tables) served through the mmap load path reproduces in-memory
    // predictions bit for bit under the exact codec, on every ANN backend.
    use auto_formula::core::AnnBackend;
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let org = OrgSpec::pge(Scale::Tiny).generate();
    let mut af = tiny_system(&universe);
    let sp = split(&org, SplitKind::Random, 0.1, 7);
    let cases = sample_test_cases(&org, &sp, 3, 6);
    assert!(!cases.is_empty());
    for backend in [
        AnnBackend::Flat,
        AnnBackend::Hnsw(auto_formula::ann::HnswParams::default()),
        AnnBackend::Ivf(auto_formula::ann::IvfParams { n_lists: 4, ..Default::default() }),
    ] {
        af.model.cfg.ann_backend = backend;
        let index = af.build_index(&org.workbooks, &sp.reference, IndexOptions::default());
        let compact = af.save(&index);
        let mut path = std::env::temp_dir();
        path.push(format!("af_e2e_{}_{}.afar", std::process::id(), backend.label()));
        std::fs::write(&path, &compact).unwrap();
        let (loaded, loaded_index) = auto_formula::core::pipeline::AutoFormula::load_mmap(&path)
            .unwrap_or_else(|e| panic!("{backend:?}: compact artifact must mmap-load: {e}"));
        let mut predictions = 0usize;
        for tc in cases.iter().take(10) {
            let sheet = &org.workbooks[tc.workbook].sheets[tc.sheet];
            let masked = masked_sheet(sheet, tc.target);
            let a = af.predict_with(&index, &masked, tc.target, PipelineVariant::Full);
            let b = loaded.predict_with(&loaded_index, &masked, tc.target, PipelineVariant::Full);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.formula, y.formula, "{backend:?}");
                    assert_eq!(x.s2_distance.to_bits(), y.s2_distance.to_bits(), "{backend:?}");
                    predictions += 1;
                }
                (None, None) => {}
                (x, y) => panic!("{backend:?}: prediction mismatch {x:?} vs {y:?}"),
            }
        }
        assert!(predictions > 0, "{backend:?}");
        drop(loaded_index); // release the mapping before unlinking
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn served_artifact_answers_like_the_library_pipeline() {
    // Facade-level smoke of the full serving story: save → ServeHandle →
    // predict + incremental add_workbook, no workbook borrows.
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let org = OrgSpec::pge(Scale::Tiny).generate();
    let af = tiny_system(&universe);
    let members: Vec<usize> = (0..org.workbooks.len() - 1).collect();
    let index = af.build_index(&org.workbooks, &members, IndexOptions::default());
    let handle = auto_formula::serve::ServeHandle::from_artifact(&af.save(&index)).unwrap();
    assert_eq!(handle.n_sheets(), index.n_sheets());

    let sheet = &org.workbooks[0].sheets[0];
    let (target, _) = sheet.formulas().next().expect("a formula cell");
    let direct = af.predict_with(&index, sheet, target, PipelineVariant::Full);
    let served = handle.query(&[(sheet, target)], PredictOptions::default()).remove(0);
    assert!(!served.degraded, "healthy server must answer at full fidelity");
    assert_eq!(direct.map(|p| p.formula), served.prediction.map(|p| p.formula));

    // Growth: the last workbook joins the served index epoch-by-epoch.
    let epoch = handle.add_workbook(&org.workbooks[org.workbooks.len() - 1]);
    assert_eq!(epoch, 1);
    assert!(handle.n_sheets() > index.n_sheets());
}

#[test]
fn model_snapshot_round_trips_through_pipeline() {
    let universe = OrgSpec::web_crawl(Scale::Tiny).generate();
    let org = OrgSpec::pge(Scale::Tiny).generate();
    let af = tiny_system(&universe);
    let snapshot = af.model.to_bytes();

    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = af.model.cfg;
    let mut model = auto_formula::core::RepresentationModel::new(featurizer.dim(), cfg);
    model.load_bytes(snapshot).unwrap();
    let af2 = AutoFormula::from_model(model, featurizer);

    let sp = split(&org, SplitKind::Random, 0.1, 9);
    let index1 = af.build_index(&org.workbooks, &sp.reference, IndexOptions::default());
    let index2 = af2.build_index(&org.workbooks, &sp.reference, IndexOptions::default());
    let cases = sample_test_cases(&org, &sp, 2, 4);
    for tc in cases.iter().take(5) {
        let sheet = &org.workbooks[tc.workbook].sheets[tc.sheet];
        let masked = masked_sheet(sheet, tc.target);
        let a =
            af.predict_with(&index1, &masked, tc.target, PipelineVariant::Full).map(|p| p.formula);
        let b =
            af2.predict_with(&index2, &masked, tc.target, PipelineVariant::Full).map(|p| p.formula);
        assert_eq!(a, b, "snapshot must reproduce predictions");
    }
}
