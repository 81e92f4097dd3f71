//! Golden bits: trained weights, sheet embeddings and predictions hash to
//! constants recorded once, so "the bits did not change" is checked, not
//! asserted.
//!
//! The constants were computed at commit 273b153 (the last commit before
//! the blocked dense kernels in `af_nn::kernel` and the long-lived
//! training workers) and must hold unchanged after any change that claims
//! to keep the arithmetic. A change that *means* to move the bits updates
//! them and says why.
//!
//! Two configs are covered: `AutoFormulaConfig::test_tiny()` (a 12×5
//! window: pixel counts, channel counts and input widths that are not
//! multiples of the kernels' blocks, so every remainder path runs) and the
//! default config (a 40×8 window: the full tiles). Each hashes three
//! things:
//! * `RepresentationModel::to_bytes()` after a few episodes on
//!   `web_crawl(Scale::Tiny)`, trained with 1 and with 2 workers (which
//!   must agree);
//! * every test-org sheet's coarse vector and the fine windows tiling it
//!   (every stored cell's fine row lies in one of them);
//! * `(formula, s2_distance bits)` of sampled test cases, each predicted
//!   alone and, per sheet, all of a sheet's targets in one funnel pass
//!   (the pass a `predict_batch` burst takes).
//!
//! The hashes are FNV-1a over little-endian bytes. The featurizer's
//! content features go through libm (`ln`), so the constants are those of
//! x86-64 Linux; another platform's libm may need its own.

use af_core::embedder::SheetEmbedder;
use af_core::features::WindowOrigin;
use af_core::index::IndexOptions;
use af_core::pipeline::{AutoFormula, PipelineVariant, PredictOptions, Prediction, Segment};
use af_core::training::{train_model, TrainingOptions};
use af_core::AutoFormulaConfig;
use af_corpus::organization::{OrgSpec, Scale};
use af_corpus::split::{split, SplitKind};
use af_corpus::testcase::{masked_sheet, sample_test_cases};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_grid::CellRef;
use std::sync::Arc;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
    fn prediction(&mut self, p: Option<&Prediction>) {
        match p {
            Some(p) => {
                self.u64(1);
                self.bytes(p.formula.as_bytes());
                self.u64(p.s2_distance.to_bits() as u64);
            }
            None => self.u64(0),
        }
    }
}

fn featurizer() -> CellFeaturizer {
    CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL)
}

/// `[weights, embeddings, lone predictions, burst predictions]`.
fn digests(base: AutoFormulaConfig, episodes: usize) -> [u64; 4] {
    let cfg = AutoFormulaConfig { episodes, ..base };
    let crawl = OrgSpec::web_crawl(Scale::Tiny).generate();
    let train = |workers| {
        let opts = TrainingOptions { workers, ..TrainingOptions::default() };
        let (model, report) = train_model(&crawl.workbooks, &featurizer(), cfg, opts);
        assert_eq!(report.episodes, episodes, "the corpus yields training pairs");
        model
    };
    let model = train(1);
    let bytes = model.to_bytes();
    assert_eq!(bytes, train(2).to_bytes(), "1 and 2 workers train the same weights");
    let mut weights = Fnv::new();
    weights.bytes(&bytes);

    let af = AutoFormula::from_model(model, featurizer());
    let embedder: SheetEmbedder<'_> = af.embedder();
    let (wr, wc) = (cfg.window.rows, cfg.window.cols);
    let (mut embeddings, mut lone, mut burst) = (Fnv::new(), Fnv::new(), Fnv::new());
    for org in OrgSpec::test_orgs(Scale::Tiny) {
        let corpus = org.generate();
        for wb in &corpus.workbooks {
            for sheet in &wb.sheets {
                let emb = embedder.embed_sheet(sheet, false);
                embeddings.f32s(&emb.coarse);
                let (rows, cols) = sheet.dims();
                for r in (0..rows.max(1)).step_by(wr as usize) {
                    for c in (0..cols.max(1)).step_by(wc as usize) {
                        let center = CellRef::new(r + wr / 2, c + wc / 2);
                        let origin = WindowOrigin::Centered(center);
                        embeddings.f32s(&embedder.fine_window(&emb, sheet, origin));
                    }
                }
            }
        }

        let sp = split(&corpus, SplitKind::Random, 0.2, 3);
        let index = af.build_index(&corpus.workbooks, &sp.reference, IndexOptions::default());
        let cases = sample_test_cases(&corpus, &sp, 3, 4);
        assert!(!cases.is_empty(), "{}: test cases", org.name);
        for tc in &cases {
            let sheet = &corpus.workbooks[tc.workbook].sheets[tc.sheet];
            let masked = masked_sheet(sheet, tc.target);
            lone.prediction(
                af.predict_with(&index, &masked, tc.target, PipelineVariant::Full).as_ref(),
            );
        }
        // Bursts: each sheet with every sampled target masked, one pass.
        let mut at = 0;
        while at < cases.len() {
            let (wb, sh) = (cases[at].workbook, cases[at].sheet);
            let n = cases[at..].iter().take_while(|c| (c.workbook, c.sheet) == (wb, sh)).count();
            let group = &cases[at..at + n];
            let mut sheet = corpus.workbooks[wb].sheets[sh].clone();
            for tc in group {
                sheet = masked_sheet(&sheet, tc.target);
            }
            let targets: Vec<CellRef> = group.iter().map(|c| c.target).collect();
            let emb = embedder.embed_sheet(&sheet, false);
            let results = af.funnel(
                &[Segment { index: &index, offset: 0 }],
                &emb,
                &sheet,
                &targets,
                PredictOptions::with_variant(PipelineVariant::Full),
                &mut false,
                &mut |payload| std::panic::resume_unwind(payload),
            );
            assert_eq!(results.len(), n);
            for r in &results {
                burst.prediction(r.prediction.as_ref());
            }
            at += n;
        }
    }
    [weights.0, embeddings.0, lone.0, burst.0]
}

fn check(name: &str, got: [u64; 4], want: [u64; 4]) {
    let what = ["trained weights", "sheet embeddings", "lone predictions", "burst predictions"];
    let report: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    for ((w, g), label) in want.iter().zip(&got).zip(what) {
        assert_eq!(g, w, "{name}: {label} changed bits; got [{}]", report.join(", "));
    }
}

#[test]
fn tiny_config_keeps_its_bits() {
    check(
        "test_tiny",
        digests(AutoFormulaConfig::test_tiny(), 6),
        [0x1e35e04751c284e5, 0x1b9b8851c99d9e2d, 0xa11a12e89cb52b1f, 0x0f4419afbf6b973c],
    );
}

#[test]
fn default_config_keeps_its_bits() {
    check(
        "default",
        digests(AutoFormulaConfig::default(), 2),
        [0xe78ce542f101f15f, 0x74e1a6626afb7802, 0xcb5e65f3197c7783, 0x5948cf5f60561946],
    );
}
