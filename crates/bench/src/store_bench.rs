//! Vector-storage benchmark: the numbers behind `af-store` and artifact
//! format v2.
//!
//! Measures, at the current `AF_SCALE`, for every codec:
//! * **artifact size** — bytes of `AutoFormula::save_with` and the ratio
//!   against the exact-f32 artifact;
//! * **cold-start load** — `AutoFormula::load` from bytes (quantized cell
//!   tables are dequantized here, once), plus an `mmap(2)` cold start
//!   through `AutoFormula::load_mmap`;
//! * **recall@10 on the flat backend** — quantized coarse scans against
//!   the exact f32 scan, distance-based (a hit is an approximate neighbor
//!   whose true distance is within the exact k-th distance, robust to
//!   family-duplicate ties);
//! * **prediction agreement** — fraction of holdout queries where the
//!   quantized artifact's end-to-end prediction matches the exact
//!   artifact's (the serving-level answer to "is f16 good enough?").
//!
//! Results are written to `BENCH_store.json`. The committed file is the
//! small-scale baseline; the CI smoke job regenerates tiny-scale numbers
//! per PR.

use af_ann::{FlatIndex, VectorIndex};
use af_core::pipeline::{AutoFormula, PipelineVariant};
use af_core::{index::IndexOptions, AutoFormulaConfig, Codec, StoreOptions};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_grid::CellRef;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Training episodes (same regime as the serve bench: the bench measures
/// storage, not model quality).
const TRAIN_EPISODES: usize = 48;
/// Neighbors per recall query.
pub const K: usize = 10;
/// Cap on recall queries and on holdout prediction queries.
const MAX_QUERIES: usize = 120;

/// One codec's measurement.
#[derive(Debug, Clone)]
pub struct VariantResult {
    pub codec: &'static str,
    pub artifact_bytes: usize,
    /// Size relative to the exact-f32 artifact.
    pub ratio_vs_f32: f64,
    pub load_ms: f64,
    /// Distance-based recall@K of the quantized flat coarse scan against
    /// the exact scan (1.0 for the exact codec by construction).
    pub flat_recall_at_k: f64,
    /// Fraction of holdout queries whose end-to-end prediction matches
    /// the exact artifact's.
    pub prediction_agreement: f64,
}

/// The full benchmark run.
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    pub scale: &'static str,
    pub n_sheets: usize,
    pub n_regions: usize,
    pub k: usize,
    pub recall_queries: usize,
    pub prediction_queries: usize,
    pub variants: Vec<VariantResult>,
    /// `AutoFormula::load_mmap` cold start on the f32 artifact.
    pub mmap_load_ms: f64,
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Distance-based recall@K: an approximate neighbor counts as a hit when
/// its *true* (f32) distance is within the exact k-th distance plus
/// epsilon — ties between near-duplicate family sheets do not distort it.
fn flat_recall(exact: &FlatIndex, probe: &FlatIndex, queries: &[f32], dim: usize) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in queries.chunks(dim) {
        let truth = exact.search(q, K);
        let Some(worst) = truth.last() else { continue };
        let cutoff = worst.dist * (1.0 + 1e-5) + 1e-9;
        for n in probe.search(q, K) {
            let true_d = af_nn::kernel::l2_sq(q, &exact.vector_owned(n.id));
            hits += (true_d <= cutoff) as usize;
        }
        total += truth.len();
    }
    if total == 0 {
        return 1.0;
    }
    hits as f64 / total as f64
}

/// Run the storage benchmark at the `AF_SCALE` scale.
pub fn measure() -> StoreBenchReport {
    let scale = Scale::from_env();

    // A briefly-trained system (same regime as the serve bench).
    let universe = OrgSpec::web_crawl(scale).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(64)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig { episodes: TRAIN_EPISODES, ..AutoFormulaConfig::default() };
    let (af, _) = AutoFormula::train(&universe.workbooks, featurizer, cfg, Default::default());

    // Reference index over all but the holdout workbook.
    let org = OrgSpec::pge(scale).generate();
    let n_wb = org.workbooks.len();
    let members: Vec<usize> = (0..n_wb.saturating_sub(1)).collect();
    let index = af.build_index(&org.workbooks, &members, IndexOptions::default());

    // Coarse embeddings of the indexed sheets: the corpus for the flat
    // recall probe (queries drawn from it, like the ann bench).
    let embedder = af.embedder();
    let coarse_dim = af.cfg().coarse_dim;
    let mut coarse = Vec::new();
    for &wi in &members {
        for sheet in &org.workbooks[wi].sheets {
            coarse.extend_from_slice(&embedder.embed_sheet(sheet, false).coarse);
        }
    }
    let exact_flat =
        FlatIndex::from_vectors(coarse_dim, coarse.chunks(coarse_dim).map(|c| c.to_vec()));
    let n_queries = (coarse.len() / coarse_dim).min(MAX_QUERIES);
    let queries = &coarse[..n_queries * coarse_dim];

    // Holdout prediction queries (masked-target convention is not needed:
    // the same unmasked sheet goes to every variant, so agreement is a
    // clean codec-only comparison).
    let holdout = n_wb - 1;
    let targets: Vec<(usize, CellRef)> = org.workbooks[holdout]
        .sheets
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.formulas().map(move |(at, _)| (si, at)))
        .take(MAX_QUERIES)
        .collect();
    let predictions_of =
        |af: &AutoFormula, index: &af_core::ReferenceIndex| -> Vec<Option<String>> {
            targets
                .iter()
                .map(|&(si, at)| {
                    af.predict_with(
                        index,
                        &org.workbooks[holdout].sheets[si],
                        at,
                        PipelineVariant::Full,
                    )
                    .map(|p| p.formula)
                })
                .collect()
        };

    // Baseline: exact f32.
    let f32_bytes = af.save(&index);
    let f32_size = f32_bytes.len();
    let (f32_af, f32_index) = AutoFormula::load(&f32_bytes).expect("f32 artifact loads");
    let baseline_preds = predictions_of(&f32_af, &f32_index);

    let mut variants = Vec::new();
    for codec in Codec::ALL {
        let opts = StoreOptions { codec, ..StoreOptions::default() };
        let bytes = af.save_with(&index, opts).expect("save_with");
        let mut load_ms = f64::INFINITY;
        let mut loaded = None;
        for _ in 0..3 {
            let b = bytes.clone(); // O(1): Bytes is an Arc window
            let t = Instant::now();
            let pair = AutoFormula::load_bytes_artifact(b).expect("variant loads");
            load_ms = load_ms.min(t.elapsed().as_secs_f64() * 1e3);
            loaded = Some(pair);
        }
        let (var_af, var_index) = loaded.expect("three loads ran");

        // Flat-backend recall: quantize the coarse table and scan.
        let flat_recall_at_k = match codec {
            Codec::F32 => 1.0,
            _ => flat_recall(&exact_flat, &exact_flat.to_codec(codec), queries, coarse_dim),
        };
        let preds = predictions_of(&var_af, &var_index);
        let agree = baseline_preds.iter().zip(&preds).filter(|(a, b)| a == b).count();
        let prediction_agreement =
            if targets.is_empty() { 1.0 } else { agree as f64 / targets.len() as f64 };

        variants.push(VariantResult {
            codec: codec.label(),
            artifact_bytes: bytes.len(),
            ratio_vs_f32: bytes.len() as f64 / f32_size as f64,
            load_ms,
            flat_recall_at_k,
            prediction_agreement,
        });
    }

    // mmap cold start on the f32 artifact (the beyond-RAM path).
    let mut path = std::env::temp_dir();
    path.push(format!("af_bench_store_{}.afar", std::process::id()));
    std::fs::write(&path, &f32_bytes).expect("write artifact file");
    let t = Instant::now();
    let (_maf, mindex) = AutoFormula::load_mmap(&path).expect("mmap load");
    let mmap_load_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(mindex.n_regions(), index.n_regions());
    drop(mindex);
    let _ = std::fs::remove_file(&path);

    StoreBenchReport {
        scale: scale_name(scale),
        n_sheets: index.n_sheets(),
        n_regions: index.n_regions(),
        k: K,
        recall_queries: n_queries,
        prediction_queries: targets.len(),
        variants,
        mmap_load_ms,
    }
}

/// Serialize the report as JSON (hand-rolled; flat schema, no serde in
/// the workspace).
pub fn to_json(r: &StoreBenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"store\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", r.scale));
    out.push_str(&format!("  \"n_sheets\": {},\n", r.n_sheets));
    out.push_str(&format!("  \"n_regions\": {},\n", r.n_regions));
    out.push_str(&format!("  \"k\": {},\n", r.k));
    out.push_str(&format!("  \"recall_queries\": {},\n", r.recall_queries));
    out.push_str(&format!("  \"prediction_queries\": {},\n", r.prediction_queries));
    out.push_str(&format!("  \"mmap_load_ms\": {:.3},\n", r.mmap_load_ms));
    out.push_str("  \"variants\": [\n");
    for (i, v) in r.variants.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"codec\": \"{}\", \"artifact_bytes\": {}, ",
                "\"ratio_vs_f32\": {:.4}, \"load_ms\": {:.3}, ",
                "\"flat_recall_at_10\": {:.4}, \"prediction_agreement\": {:.4}}}{}\n"
            ),
            v.codec,
            v.artifact_bytes,
            v.ratio_vs_f32,
            v.load_ms,
            v.flat_recall_at_k,
            v.prediction_agreement,
            if i + 1 == r.variants.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `BENCH_store.json`.
pub fn write_json(report: &StoreBenchReport, path: &Path) {
    std::fs::write(path, to_json(report)).expect("write BENCH_store.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holdout agreement of a `codec` artifact with the in-memory system
    /// it was saved from, on `OrgSpec::pge(Scale::Tiny)`.
    fn holdout_agreement(codec: Codec) -> f64 {
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let af = AutoFormula::from_model(
            af_core::RepresentationModel::new(featurizer.dim(), cfg),
            featurizer,
        );
        let n_wb = corpus.workbooks.len();
        let members: Vec<usize> = (0..n_wb - 1).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        let holdout = n_wb - 1;
        let targets: Vec<(usize, CellRef)> = corpus.workbooks[holdout]
            .sheets
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.formulas().map(move |(at, _)| (si, at)))
            .collect();
        assert!(targets.len() >= 8, "need a meaningful query set");
        let preds = |af: &AutoFormula, index: &af_core::ReferenceIndex| -> Vec<Option<String>> {
            targets
                .iter()
                .map(|&(si, at)| {
                    af.predict_with(
                        index,
                        &corpus.workbooks[holdout].sheets[si],
                        at,
                        PipelineVariant::Full,
                    )
                    .map(|p| p.formula)
                })
                .collect()
        };
        let baseline = preds(&af, &index);
        let opts = StoreOptions { codec, ..StoreOptions::default() };
        let bytes = af.save_with(&index, opts).expect("quantized artifact saves");
        let (qaf, qindex) = AutoFormula::load_bytes_artifact(bytes).expect("quantized loads");
        let q = preds(&qaf, &qindex);
        let agree = baseline.iter().zip(&q).filter(|(a, b)| a == b).count();
        agree as f64 / targets.len() as f64
    }

    /// An f16 artifact's cell tables are dequantized once at load and
    /// every window is gathered and normalized in f32 after that; on this
    /// corpus serving agrees with the exact system on every query.
    #[test]
    fn f16_artifact_agrees_with_every_exact_prediction() {
        assert_eq!(holdout_agreement(Codec::F16), 1.0, "f16 must stay at full agreement");
    }

    #[test]
    fn json_is_well_formed() {
        let r = StoreBenchReport {
            scale: "tiny",
            n_sheets: 4,
            n_regions: 50,
            k: 10,
            recall_queries: 4,
            prediction_queries: 9,
            variants: vec![VariantResult {
                codec: "f16",
                artifact_bytes: 1234,
                ratio_vs_f32: 0.2,
                load_ms: 1.5,
                flat_recall_at_k: 0.99,
                prediction_agreement: 1.0,
            }],
            mmap_load_ms: 0.7,
        };
        let json = to_json(&r);
        assert!(json.contains("\"artifact_bytes\": 1234"));
        assert!(json.contains("\"mmap_load_ms\": 0.700"));
        assert!(json.contains("\"flat_recall_at_10\": 0.9900"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
