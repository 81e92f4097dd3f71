//! Criterion micro-benchmarks for the performance-critical kernels behind
//! the paper's latency claims (Fig. 8): formula parsing, window
//! featurization, ANN queries, Mondrian's hand-crafted matching, and the
//! full online prediction path.

use af_ann::{FlatIndex, HnswIndex, HnswParams, VectorIndex};
use af_baselines::mondrian::{detect_regions, sheet_distance};
use af_core::features::{raw_window, WindowOrigin};
use af_core::index::{IndexOptions, StripScratch};
use af_core::pipeline::{search_parameter, AutoFormula, PipelineVariant};
use af_core::{AutoFormulaConfig, TrainingOptions};
use af_corpus::organization::{OrgSpec, Scale};
use af_corpus::split::{split, SplitKind};
use af_corpus::testcase::{masked_sheet, sample_test_cases};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_parse(c: &mut Criterion) {
    let formulas = [
        "COUNTIF(C7:C37,C41)",
        "IF(SUM(A1:A9)>100,\"big\",LEFT(B1,3)&\"-\"&RIGHT(B2,2))",
        "VLOOKUP(A2,$D$1:$E$9,2,FALSE)*ROUND(B2/C2,2)",
    ];
    c.bench_function("formula_parse", |b| {
        b.iter(|| {
            for f in &formulas {
                black_box(af_formula::parse(black_box(f)).unwrap());
            }
        })
    });
}

fn bench_featurize(c: &mut Criterion) {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(64)), FeatureMask::FULL);
    let sheet = &corpus.workbooks[0].sheets[0];
    let window = af_grid::ViewWindow::new(40, 8);
    c.bench_function("window_featurize_40x8", |b| {
        b.iter(|| {
            black_box(raw_window(&featurizer, black_box(sheet), window, WindowOrigin::TopLeft))
        })
    });
}

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    };
    (0..n * dim).map(|_| next()).collect()
}

fn bench_ann(c: &mut Criterion) {
    let dim = 64;
    let n = 10_000;
    let data = random_vectors(n, dim, 7);
    let flat = FlatIndex::from_vectors(dim, data.chunks(dim).map(|v| v.to_vec()));
    let hnsw = HnswIndex::build(&data, dim, HnswParams::default());
    let query = random_vectors(1, dim, 9);
    c.bench_function("ann_flat_10k_top5", |b| {
        b.iter(|| black_box(flat.search(black_box(&query), 5)))
    });
    c.bench_function("ann_hnsw_10k_top5", |b| {
        b.iter(|| black_box(hnsw.search(black_box(&query), 5)))
    });
}

fn bench_mondrian(c: &mut Criterion) {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let a = detect_regions(&corpus.workbooks[0].sheets[0]);
    let b2 = detect_regions(&corpus.workbooks[1].sheets[0]);
    c.bench_function("mondrian_sheet_distance", |b| {
        b.iter(|| black_box(sheet_distance(black_box(&a), black_box(&b2))))
    });
}

fn bench_predict(c: &mut Criterion) {
    // A tiny trained system: the end-to-end S1→S2→S3 latency kernel.
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig { episodes: 30, ..AutoFormulaConfig::test_tiny() };
    let (af, _) =
        AutoFormula::train(&corpus.workbooks, featurizer, cfg, TrainingOptions::default());
    let sp = split(&corpus, SplitKind::Random, 0.1, 1);
    let index = af.build_index(&corpus.workbooks, &sp.reference, IndexOptions::default());
    let cases = sample_test_cases(&corpus, &sp, 3, 2);
    let tc = &cases[0];
    let sheet = &corpus.workbooks[tc.workbook].sheets[tc.sheet];
    let masked = masked_sheet(sheet, tc.target);
    c.bench_function("autoformula_predict_e2e", |b| {
        b.iter(|| {
            black_box(af.predict_with(&index, black_box(&masked), tc.target, PipelineVariant::Full))
        })
    });
}

/// The S2/S3 kernels at the default geometry (40×8 window, 8 floats a
/// cell, d = 3): one fine-window gather; one parameter's neighbourhood
/// search — 49 candidates, so ns per candidate is the figure ÷ 49; and
/// one candidate sheet's S2 scan off gathered strips — 44 regions (the
/// benchmark's mean a sheet) in two columns, so ns per region is ÷ 44.
fn bench_fine_gather(c: &mut Criterion) {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig::default();
    let model = af_core::RepresentationModel::new(featurizer.dim(), cfg);
    let embedder = af_core::SheetEmbedder::new(&model, &featurizer);
    let sheet = &corpus.workbooks[0].sheets[0];
    let emb = embedder.embed_sheet(sheet, false);
    let (target, _) = sheet.formulas().next().expect("a formula cell");
    c.bench_function("fine_window_40x8", |b| {
        b.iter(|| {
            black_box(embedder.fine_window(&emb, sheet, WindowOrigin::Centered(black_box(target))))
        })
    });
    let ref_vec = embedder.fine_window(&emb, sheet, WindowOrigin::Centered(target));
    // Parameter and formula cell coincide: the search is anchored on the
    // target itself.
    let ref_formula = target.offset(2, 1).expect("in bounds");
    c.bench_function("s3_search_parameter_d3", |b| {
        b.iter(|| {
            black_box(search_parameter(
                &cfg,
                &emb,
                black_box(&ref_vec),
                ref_formula,
                ref_formula,
                target,
            ))
        })
    });

    let mut ledger = af_grid::Sheet::new("ledger");
    for r in 0..30u32 {
        for col in 0..4u32 {
            ledger.set(af_grid::CellRef::new(r, col), af_grid::Cell::new((r * 4 + col) as f64));
        }
        for col in [4u32, 5].into_iter().filter(|&col| col == 4 || r < 14) {
            let formula = format!("SUM(A{0}:D{0})", r + 1);
            ledger
                .set(af_grid::CellRef::new(r, col), af_grid::Cell::new(0.0).with_formula(formula));
        }
    }
    let mut wb = af_grid::Workbook::new("w");
    wb.push_sheet(ledger);
    let index = af_core::ReferenceIndex::build(&embedder, &[wb], &[0], IndexOptions::default());
    assert_eq!(index.regions_of_sheet(0).len(), 44);
    let mut scratch = StripScratch::default();
    c.bench_function("s2_sheet_strip", |b| {
        b.iter(|| {
            black_box(
                index.sheet_region_distances(0, &[black_box(&ref_vec)], None, &mut scratch).len(),
            )
        })
    });
    // A fill-down burst's S2 on the same sheet: 16 query windows ranked in
    // one call, strips gathered and norms computed once — ns per
    // region-target pair is the figure ÷ (44 × 16). On the 2-vCPU
    // reference box: 242–280 µs, i.e. 345–400 ns a pair, against 700–
    // 1 060 ns a region for one query (`s2_sheet_strip`, 30–47 µs).
    let burst: Vec<Vec<f32>> = (0..16u32)
        .map(|r| {
            let at = af_grid::CellRef::new(r + 4, target.col);
            embedder.fine_window(&emb, sheet, WindowOrigin::Centered(at))
        })
        .collect();
    let burst: Vec<&[f32]> = burst.iter().map(Vec::as_slice).collect();
    c.bench_function("s2_sheet_strip_burst16", |b| {
        b.iter(|| {
            black_box(index.sheet_region_distances(0, black_box(&burst), None, &mut scratch).len())
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parse, bench_featurize, bench_fine_gather, bench_ann, bench_mondrian, bench_predict
}
criterion_main!(benches);
