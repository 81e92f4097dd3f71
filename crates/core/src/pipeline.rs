//! The online prediction pipeline (Algorithm 2): S1 similar-sheets → S2
//! reference-formula → S3 parameter-cells → instantiated formula.

use crate::config::AutoFormulaConfig;
use crate::embedder::{SheetEmbedder, SheetEmbedding};
use crate::fail_point;
use crate::features::WindowOrigin;
use crate::index::{coarse_window, IndexOptions, ReferenceIndex, SheetKey, StripScratch};
use crate::model::RepresentationModel;
use crate::training::{train_model, TrainReport, TrainingOptions};
use af_ann::{merge_neighbors, Neighbor};
use af_embed::CellFeaturizer;
use af_formula::{parse_formula, Template};
use af_grid::{CellRef, Sheet, Workbook};
use af_nn::tensor::l2_sq_normalized_each;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Pipeline ablation variants (Fig. 14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PipelineVariant {
    /// Coarse model for S1, fine model for S2/S3 (the full system).
    #[default]
    Full,
    /// Coarse model everywhere: S1 as usual; S2 compares *coarse* region
    /// embeddings (translation-blurred); S3 degrades to pure offset
    /// mapping because coarse embeddings cannot localize cells.
    CoarseOnly,
    /// Fine model everywhere: S1 uses fine top-left signatures (shift-
    /// sensitive and 40× larger vectors); S2/S3 as usual.
    FineOnly,
}

/// Per-query options: which pipeline variant to run and an optional
/// wall-clock deadline.
///
/// [`AutoFormula::funnel`] checks the deadline between per-segment scans,
/// between candidate sheets and between adapt attempts: once it passes,
/// remaining work is skipped and the query returns a best-effort answer
/// from whatever completed, flagged as degraded. The direct entry points
/// ([`AutoFormula::predict_with`], [`AutoFormula::predict_prepared`]) take
/// only a variant and never set one.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictOptions {
    /// Pipeline ablation variant (default: [`PipelineVariant::Full`]).
    pub variant: PipelineVariant,
    /// Give up on work not yet started once this instant passes.
    /// `None` (the default) never expires.
    pub deadline: Option<std::time::Instant>,
}

impl PredictOptions {
    /// Options for `variant` with no deadline.
    pub fn with_variant(variant: PipelineVariant) -> PredictOptions {
        PredictOptions { variant, deadline: None }
    }

    /// Set a deadline this many milliseconds from now.
    pub fn deadline_in_ms(mut self, ms: u64) -> PredictOptions {
        self.deadline = Some(std::time::Instant::now() + std::time::Duration::from_millis(ms));
        self
    }
}

/// A predicted formula with its provenance and confidence.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Canonical formula text (no leading `=`).
    pub formula: String,
    /// S2 distance of the chosen reference region (squared L2 on unit
    /// vectors, lower = more confident). This is the θ knob of the PR
    /// curves.
    pub s2_distance: f32,
    pub reference_sheet: SheetKey,
    /// Id of the reference sheet inside the index — feed it to
    /// [`ReferenceIndex::sheet_meta`] for the sheet's name and dimensions.
    pub reference_sheet_idx: usize,
    pub reference_cell: CellRef,
    /// Signature of the adapted template, e.g. `COUNTIF(_:_,_)`.
    pub template_signature: String,
}

/// One scannable slice of a reference corpus for [`AutoFormula::funnel`]:
/// an index and the global id of its first sheet. A corpus is a list of
/// segments in ascending `offset` order, each numbering its sheets
/// `offset..offset + n_sheets`, so a global sheet id is a position in
/// that list.
#[derive(Clone, Copy)]
pub struct Segment<'a> {
    /// The segment's index; its sheet and region ids are local.
    pub index: &'a ReferenceIndex,
    /// Global id of the segment's first sheet (0 for a lone index).
    pub offset: usize,
}

impl Segment<'_> {
    /// The global id of local sheet `local`.
    pub fn global(&self, local: usize) -> usize {
        self.offset + local
    }

    /// The local id of global sheet `global`, if this segment holds it.
    pub fn local(&self, global: usize) -> Option<usize> {
        global.checked_sub(self.offset).filter(|&local| local < self.index.n_sheets())
    }
}

/// What [`AutoFormula::funnel`] reports for one target.
#[derive(Debug, Clone)]
pub struct FunnelResult {
    /// The prediction, if a region adapted, with
    /// [`Prediction::reference_sheet_idx`] in global numbering.
    pub prediction: Option<Prediction>,
    /// The funnel's `excluded` flag as it stood when this target
    /// finished: the corpus was skipped, so the prediction is `None`.
    pub excluded: bool,
    /// S1 candidates dropped without S2 ranking (unresolvable id,
    /// exclusion, or a failed rank).
    pub candidates_dropped: usize,
    /// The deadline passed before this target's pass finished.
    pub deadline_exceeded: bool,
}

/// Has this query's deadline passed?
fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The Auto-Formula system: a trained representation model plus featurizer.
pub struct AutoFormula {
    pub model: RepresentationModel,
    pub featurizer: CellFeaturizer,
}

impl AutoFormula {
    /// Offline training on a spreadsheet universe (the 160K-crawl
    /// stand-in). Happens once; the model transfers to unseen orgs.
    pub fn train(
        universe: &[Workbook],
        featurizer: CellFeaturizer,
        cfg: AutoFormulaConfig,
        opts: TrainingOptions,
    ) -> (AutoFormula, TrainReport) {
        let (model, report) = train_model(universe, &featurizer, cfg, opts);
        (AutoFormula { model, featurizer }, report)
    }

    /// Wrap an existing model (e.g. loaded from a snapshot).
    pub fn from_model(model: RepresentationModel, featurizer: CellFeaturizer) -> AutoFormula {
        AutoFormula { model, featurizer }
    }

    pub fn cfg(&self) -> &AutoFormulaConfig {
        &self.model.cfg
    }

    pub fn embedder(&self) -> SheetEmbedder<'_> {
        SheetEmbedder::new(&self.model, &self.featurizer)
    }

    /// Build the reference index over `members` of a workbook collection.
    pub fn build_index(
        &self,
        workbooks: &[Workbook],
        members: &[usize],
        opts: IndexOptions,
    ) -> ReferenceIndex {
        ReferenceIndex::build(&self.embedder(), workbooks, members, opts)
    }

    /// Predict with the confidence threshold applied (the production
    /// entry point). The index is self-contained: no reference workbooks
    /// are needed — only the query sheet itself.
    pub fn predict(
        &self,
        index: &ReferenceIndex,
        sheet: &Sheet,
        target: CellRef,
    ) -> Option<Prediction> {
        self.predict_with(index, sheet, target, PipelineVariant::Full)
            .filter(|p| p.s2_distance <= self.cfg().theta_region)
    }

    /// Predict without thresholding (the evaluation harness sweeps θ over
    /// `s2_distance` afterwards to draw PR curves).
    pub fn predict_with(
        &self,
        index: &ReferenceIndex,
        sheet: &Sheet,
        target: CellRef,
        variant: PipelineVariant,
    ) -> Option<Prediction> {
        let embedder = self.embedder();
        let emb = embedder.embed_sheet(sheet, variant == PipelineVariant::FineOnly);
        self.predict_prepared(index, &emb, sheet, target, variant)
    }

    /// Predict from an already-computed embedding of the query sheet: the
    /// one-segment, one-target call of [`AutoFormula::funnel`] over
    /// `index` with no deadline. A panic inside the pass unwinds out of
    /// this call with its original payload. Under
    /// [`PipelineVariant::FineOnly`] an embedding without a fine top-left
    /// signature falls back to the coarse S1 scan.
    pub fn predict_prepared(
        &self,
        index: &ReferenceIndex,
        emb: &SheetEmbedding,
        sheet: &Sheet,
        target: CellRef,
        variant: PipelineVariant,
    ) -> Option<Prediction> {
        self.funnel(
            &[Segment { index, offset: 0 }],
            emb,
            sheet,
            &[target],
            PredictOptions::with_variant(variant),
            &mut false,
            &mut |payload| resume_unwind(payload),
        )
        .pop()
        .and_then(|r| r.prediction)
    }

    /// The S1→S2→S3 funnel (Algorithm 2) for a group of targets on one
    /// embedded query sheet, scattered over `segments`; one
    /// [`FunnelResult`] per target, in `targets` order. This is the only
    /// implementation of the online phase: the direct pipeline is its
    /// one-segment, one-target call, and the server passes every sealed
    /// run and its delta. A fill-down burst's targets on
    /// one sheet share one pass.
    ///
    /// What the targets share is what does not depend on the target. S1 is
    /// a function of the sheet's embedding alone, so it runs once: each
    /// segment's top-k, globalized, merged by `(distance, global id)`. Each
    /// candidate sheet is ranked once: its strips are gathered and each
    /// region's norm computed once, and every target's window is scored
    /// against a region in one multi-query kernel call with the bits of a
    /// call of its own. Each target then sorts its own `(distance, S1 rank,
    /// ordinal)` ranking — the order a stable sort of the regions pushed in
    /// S1-rank, region-ordinal order gives — and runs its own S3.
    ///
    /// Degradation discipline: every per-segment scan, per-candidate rank,
    /// and per-region adapt runs under `catch_unwind`. `excluded` says the
    /// corpus is skipped; an injected error sets it for this pass, and a
    /// panic sets it and hands the payload to `on_panic` at once. Either
    /// way the pass stops answering — even hits already gathered are
    /// retracted — so every target after it reports the corpus skipped.
    /// The deadline
    /// ([`PredictOptions::deadline`]) is checked between segments, between
    /// candidates, and between adapt attempts, returning the best effort
    /// of whatever completed. On the healthy, deadline-free path nothing is
    /// skipped.
    #[allow(clippy::too_many_arguments)]
    pub fn funnel(
        &self,
        segments: &[Segment<'_>],
        emb: &SheetEmbedding,
        sheet: &Sheet,
        targets: &[CellRef],
        opts: PredictOptions,
        excluded: &mut bool,
        on_panic: &mut dyn FnMut(Box<dyn Any + Send>),
    ) -> Vec<FunnelResult> {
        if targets.is_empty() {
            return Vec::new();
        }
        let variant = opts.variant;
        let deadline = opts.deadline;
        let cfg = self.cfg();
        let embedder = self.embedder();
        // Declared before the stage spans so it drops (and records) last.
        let _pass = af_obs::span!("serve::predict");
        af_obs::observe!("serve::pass_targets", targets.len());
        let mut dropped = 0usize;
        let mut deadline_hit = false;

        // ---- S1: scan every segment, globalize, merge ----
        let mut per_seg: Vec<Vec<Neighbor>> = Vec::with_capacity(segments.len());
        let s1 = af_obs::span!("serve::s1_scan");
        for (si, seg) in segments.iter().enumerate() {
            if *excluded {
                break;
            }
            if past(deadline) {
                deadline_hit = true;
                af_obs::event!("serve::deadline", "s1_scan", si);
                break;
            }
            let _scan = af_obs::span!("serve::shard_scan");
            type ScanResult = Result<Vec<Neighbor>, crate::failpoint::Injected>;
            let scanned = catch_unwind(AssertUnwindSafe(|| -> ScanResult {
                fail_point!("serve::shard_scan", Err);
                // A `FineOnly` plan always computes the signature, but the
                // read path never panics on that assumption: a missing
                // signature degrades to the coarse scan instead.
                let hits = match (variant, emb.fine_topleft.as_ref()) {
                    (PipelineVariant::FineOnly, Some(sig)) => seg
                        .index
                        .similar_sheets_fine(sig, cfg.k_sheets)
                        .unwrap_or_else(|| seg.index.similar_sheets(&emb.coarse, cfg.k_sheets)),
                    _ => seg.index.similar_sheets(&emb.coarse, cfg.k_sheets),
                };
                Ok(hits.into_iter().map(|n| Neighbor::new(seg.global(n.id), n.dist)).collect())
            }));
            match scanned {
                Ok(Ok(hits)) => per_seg.push(hits),
                // Injected error: transient — skip the corpus this pass.
                Ok(Err(_)) => *excluded = true,
                Err(payload) => {
                    on_panic(payload);
                    *excluded = true;
                }
            }
        }
        // An excluded corpus contributes nothing, not even the segments
        // scanned before the fault.
        if *excluded {
            per_seg.clear();
        }
        let candidates = merge_neighbors(per_seg, cfg.k_sheets);
        s1.end();
        if candidates.is_empty() {
            return targets
                .iter()
                .map(|_| FunnelResult {
                    prediction: None,
                    excluded: *excluded,
                    candidates_dropped: dropped,
                    deadline_exceeded: deadline_hit,
                })
                .collect();
        }

        // ---- S2: rank regions of the merged candidates, every target at once ----
        let fine: Vec<Vec<f32>> = targets
            .iter()
            .map(|&t| embedder.fine_window(emb, sheet, WindowOrigin::Centered(t)))
            .collect();
        let fine: Vec<&[f32]> = fine.iter().map(Vec::as_slice).collect();
        let coarse: Option<Vec<Vec<f32>>> = (variant == PipelineVariant::CoarseOnly)
            .then(|| targets.iter().map(|&t| coarse_window(&embedder, sheet, t)).collect());
        let coarse: Option<Vec<&[f32]>> =
            coarse.as_ref().map(|c| c.iter().map(Vec::as_slice).collect());
        type Ranked = (f32, usize, usize, usize, usize);
        let mut ranked: Vec<Vec<Ranked>> = vec![Vec::new(); targets.len()];
        let mut regions = 0usize;
        let mut scratch = StripScratch::default();
        let s2 = af_obs::span!("serve::s2_rank");
        for (s1_rank, cand) in candidates.iter().enumerate() {
            if past(deadline) {
                deadline_hit = true;
                af_obs::event!("serve::deadline", "s2_rank", s1_rank);
                break;
            }
            // Resolve the candidate's segment without panicking: an id
            // that fails to resolve (the torn-id path) drops this one
            // candidate, not the pass.
            let Some((seg_idx, local_sheet)) = segments
                .iter()
                .enumerate()
                .find_map(|(i, seg)| seg.local(cand.id).map(|local| (i, local)))
            else {
                dropped += 1;
                continue;
            };
            if *excluded {
                dropped += 1;
                continue;
            }
            let seg = &segments[seg_idx];
            type RankResult = Result<usize, crate::failpoint::Injected>;
            let rank = catch_unwind(AssertUnwindSafe(|| -> RankResult {
                fail_point!("serve::region_rank", Err);
                let rids = seg.index.regions_of_sheet(local_sheet);
                // `coarse` is Some exactly when the plan is `CoarseOnly`.
                let dists = seg.index.sheet_region_distances(
                    local_sheet,
                    &fine,
                    coarse.as_deref(),
                    &mut scratch,
                );
                // Region-major: one row of target distances per region.
                for (ordinal, (&rid, row)) in
                    rids.iter().zip(dists.chunks_exact(fine.len())).enumerate()
                {
                    for (ranking, &d) in ranked.iter_mut().zip(row) {
                        ranking.push((d, s1_rank, ordinal, seg_idx, rid));
                    }
                }
                Ok(rids.len())
            }));
            match rank {
                Ok(Ok(n)) => regions += n,
                Ok(Err(_)) => dropped += 1,
                Err(payload) => {
                    on_panic(payload);
                    *excluded = true;
                    dropped += 1;
                }
            }
        }
        // An exclusion mid-S2 retracts the rows already ranked.
        if *excluded {
            ranked.iter_mut().for_each(Vec::clear);
        }
        s2.end();
        af_obs::observe!("serve::pass_regions", regions);

        // ---- S3, per target: adapt the best parseable reference formula ----
        let mut results = Vec::with_capacity(targets.len());
        let s3 = af_obs::span!("serve::s3_adapt");
        for (mut ranking, &target) in ranked.into_iter().zip(targets) {
            ranking.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut prediction = None;
            let mut late = deadline_hit;
            for &(dist, _, _, seg_idx, rid) in ranking.iter().take(8) {
                if *excluded {
                    break;
                }
                if past(deadline) {
                    late = true;
                    af_obs::event!("serve::deadline", "s3_adapt", seg_idx);
                    break;
                }
                let seg = &segments[seg_idx];
                let adapted = catch_unwind(AssertUnwindSafe(|| {
                    self.adapt_region(seg.index, emb, sheet, target, rid, dist, variant)
                }));
                match adapted {
                    Ok(Some(mut p)) => {
                        // `adapt_region` reports the segment-local sheet
                        // id; re-base to the global numbering.
                        p.reference_sheet_idx = seg.global(p.reference_sheet_idx);
                        prediction = Some(p);
                        break;
                    }
                    Ok(None) => {}
                    Err(payload) => {
                        on_panic(payload);
                        *excluded = true;
                    }
                }
            }
            results.push(FunnelResult {
                prediction,
                excluded: *excluded,
                candidates_dropped: dropped,
                deadline_exceeded: late,
            });
        }
        s3.end();
        results
    }

    /// S3 on a single candidate region: parse the reference formula, map
    /// each template parameter into the query sheet (local fine-embedding
    /// search, or pure offset mapping under
    /// [`PipelineVariant::CoarseOnly`]), and instantiate the template.
    /// Returns `None` when the formula does not parse, a parameter cannot
    /// be mapped, or the instantiation fails — callers walk their S2
    /// ranking until a region adapts.
    ///
    /// This is the per-region granule of [`AutoFormula::funnel`], public so
    /// a trace can recompose the pass: `rid` is local to `index` (one sealed
    /// run or delta segment), and the returned
    /// [`Prediction::reference_sheet_idx`] is local too — the funnel
    /// re-bases it to the global sheet numbering. The query sheet is read
    /// through `emb` alone (it holds every stored cell's fine vector).
    #[allow(clippy::too_many_arguments)]
    pub fn adapt_region(
        &self,
        index: &ReferenceIndex,
        emb: &SheetEmbedding,
        _sheet: &Sheet,
        target: CellRef,
        rid: usize,
        dist: f32,
        variant: PipelineVariant,
    ) -> Option<Prediction> {
        let cfg = self.cfg();
        let entry = &index.regions[rid];
        let expr = parse_formula(&entry.formula).ok()?;
        let (template, ref_params) = Template::extract(&expr);
        // The parameter cells were extracted at index time (same
        // extraction); a length mismatch can only mean a corrupt
        // artifact — skip the entry rather than guessing.
        if ref_params.len() != entry.params.len() {
            return None;
        }
        let key = index.keys[entry.sheet_idx];

        let mut mapped: Vec<CellRef> = Vec::with_capacity(ref_params.len());
        let mut scratch = S3Scratch::default();
        for (pi, &cr) in ref_params.iter().enumerate() {
            let m = match variant {
                PipelineVariant::CoarseOnly => offset_map(cr, entry.cell, target),
                // The parameter's reference-side window is gathered from
                // its sheet's cells here, once per parameter.
                _ => search_parameter(
                    cfg,
                    emb,
                    &index.param_window(rid, pi),
                    cr,
                    entry.cell,
                    target,
                    &mut scratch,
                )
                .map(|(cell, _)| cell),
            };
            mapped.push(m?);
        }
        let adapted = template.instantiate(&mapped).ok()?;
        Some(Prediction {
            formula: adapted.to_string(),
            s2_distance: dist,
            reference_sheet: key,
            reference_sheet_idx: entry.sheet_idx,
            reference_cell: entry.cell,
            template_signature: template.signature(),
        })
    }
}

/// The naive offset mapping (Algorithm 2 lines 24–25):
/// `target + (ref_param − ref_formula_cell)`.
fn offset_map(ref_param: CellRef, ref_formula: CellRef, target: CellRef) -> Option<CellRef> {
    let dr = ref_param.row as i64 - ref_formula.row as i64;
    let dc = ref_param.col as i64 - ref_formula.col as i64;
    target.offset(dr, dc)
}

/// The buffers [`search_parameter`] works in. [`AutoFormula::adapt_region`]
/// makes one per region and passes it to every parameter's search, so an
/// answer's parameters share one patch and one set of strips.
#[derive(Default)]
pub struct S3Scratch {
    /// The gathered `(rows+2d) × (cols+2d)` patch.
    patch: Vec<f32>,
    /// The patch cut into `2d+1` column strips, each `cols` wide.
    strips: Vec<f32>,
}

/// S3 local search: score the `(2d+1)²` cells around the offset-mapped
/// location by fine-region similarity to the reference parameter's region
/// `ref_vec`, and return the best with its score (Algorithm 2 lines
/// 26–32; `d` is [`AutoFormulaConfig::neighborhood_d`]).
///
/// Neighbouring candidate windows share all but one row or column, so the
/// `(rows+2d) × (cols+2d)` patch they jointly cover is gathered **once**
/// and cut into `2d+1` column strips, strip `k` holding patch columns
/// `k..k + cols` over every patch row. Each strip is exactly one window
/// wide, so the window of candidate `(dr, dc)` is the *contiguous slice*
/// of strip `dc + d` starting `dr + d` rows down — S2's strip trick. Those
/// slices are scored in place against `ref_vec` with the fused
/// normalize-and-distance kernel, four candidates per call
/// ([`l2_sq_normalized_each`]) — the values and the summation order of
/// gathering, normalizing and measuring each window on its own. The
/// argmin then takes the four in candidate order, as a one-at-a-time scan
/// would.
/// `cfg` must be the config `target_emb` was embedded under: the
/// embedding's constants are tiled for that `d`.
pub fn search_parameter(
    cfg: &AutoFormulaConfig,
    target_emb: &SheetEmbedding,
    ref_vec: &[f32],
    ref_param: CellRef,
    ref_formula: CellRef,
    target: CellRef,
    scratch: &mut S3Scratch,
) -> Option<(CellRef, f32)> {
    let d = cfg.neighborhood_d;
    if d < 0 {
        return None;
    }
    let anchor = offset_map(ref_param, ref_formula, target).or_else(|| {
        // Clip into the sheet when the offset runs off the top/left.
        let dr = ref_param.row as i64 - ref_formula.row as i64;
        let dc = ref_param.col as i64 - ref_formula.col as i64;
        Some(CellRef::new(
            (target.row as i64 + dr).max(0) as u32,
            (target.col as i64 + dc).max(0) as u32,
        ))
    })?;
    let (rows, cols) = (cfg.window.rows as usize, cfg.window.cols as usize);
    let (patch_rows, patch_cols) = (rows + 2 * d as usize, cols + 2 * d as usize);
    let f8 = cfg.fine_cell_dim;
    let (or, oc) = cfg.window.centered_origin(anchor);
    let S3Scratch { patch, strips } = scratch;
    patch.resize(patch_rows * patch_cols * f8, 0.0);
    target_emb.gather().rect((or - d, oc - d), patch_rows, patch_cols, patch);
    let (row_len, strip_len) = (cols * f8, patch_rows * cols * f8);
    strips.resize((2 * d as usize + 1) * strip_len, 0.0);
    for (left, strip) in strips.chunks_exact_mut(strip_len).enumerate() {
        for (row, out) in patch.chunks_exact(patch_cols * f8).zip(strip.chunks_exact_mut(row_len)) {
            out.copy_from_slice(&row[left * f8..][..row_len]);
        }
    }
    let fine_dim = rows * row_len;
    let window = |dr: i64, dc: i64| {
        let (top, left) = ((dr + d) as usize, (dc + d) as usize);
        &strips[left * strip_len + top * row_len..][..fine_dim]
    };
    let candidates: Vec<(CellRef, i64, i64)> = (-d..=d)
        .flat_map(|dr| (-d..=d).filter_map(move |dc| Some((anchor.offset(dr, dc)?, dr, dc))))
        .collect();
    // Four candidates' windows at a time, scored together, then compared
    // in candidate order.
    let mut best: Option<(CellRef, f32)> = None;
    for group in candidates.chunks(4) {
        let n = group.len();
        let ws: [&[f32]; 4] = std::array::from_fn(|i| {
            let (_, dr, dc) = group[i.min(n - 1)];
            window(dr, dc)
        });
        let mut dists = [0.0f32; 4];
        l2_sq_normalized_each(ref_vec, &ws[..n], &mut dists[..n]);
        for (&(cand, dr, dc), dist) in group.iter().zip(dists) {
            let dist = dist + cfg.s3_anchor_lambda * (dr.abs() + dc.abs()) as f32;
            if best.is_none_or(|(_, bd)| dist < bd) {
                best = Some((cand, dist));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_corpus::organization::{OrgSpec, Scale};
    use af_corpus::split::{split, SplitKind};
    use af_corpus::testcase::{masked_sheet, sample_test_cases};
    use af_embed::{FeatureMask, SbertSim};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn trained_system(corpus: &af_corpus::OrgCorpus) -> AutoFormula {
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig { episodes: 40, ..AutoFormulaConfig::test_tiny() };
        let (af, _) =
            AutoFormula::train(&corpus.workbooks, featurizer, cfg, TrainingOptions::default());
        af
    }

    #[test]
    fn end_to_end_prediction_on_easy_corpus() {
        // PGE-sim: deep families. Even a lightly-trained tiny model should
        // recover a decent fraction of formulas exactly.
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let af = trained_system(&corpus);
        let sp = split(&corpus, SplitKind::Random, 0.1, 3);
        let index = af.build_index(&corpus.workbooks, &sp.reference, IndexOptions::default());
        let cases = sample_test_cases(&corpus, &sp, 3, 4);
        assert!(!cases.is_empty());
        let mut hits = 0usize;
        let mut predictions = 0usize;
        for tc in cases.iter().take(30) {
            let sheet = &corpus.workbooks[tc.workbook].sheets[tc.sheet];
            let masked = masked_sheet(sheet, tc.target);
            if let Some(pred) = af.predict_with(&index, &masked, tc.target, PipelineVariant::Full) {
                predictions += 1;
                let gt = parse_formula(&tc.ground_truth).unwrap().to_string();
                if pred.formula == gt {
                    hits += 1;
                }
            }
        }
        assert!(predictions > 0, "pipeline must produce predictions");
        assert!(
            hits * 3 >= predictions,
            "at least a third of predictions should be exact on PGE-sim ({hits}/{predictions})"
        );
    }

    fn all_backends() -> [crate::config::AnnBackend; 3] {
        [
            crate::config::AnnBackend::Flat,
            crate::config::AnnBackend::Hnsw(af_ann::HnswParams::default()),
            crate::config::AnnBackend::Ivf(af_ann::IvfParams::default()),
        ]
    }

    #[test]
    fn empty_index_returns_none_on_every_backend() {
        // Regression (IVF): building over zero reference workbooks used to
        // panic inside `IvfFlatIndex::build`, so backend choice changed
        // cold-start crash behavior.
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        for backend in all_backends() {
            let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
            let cfg = AutoFormulaConfig { ann_backend: backend, ..AutoFormulaConfig::test_tiny() };
            let af = AutoFormula::from_model(
                RepresentationModel::new(featurizer.dim(), cfg),
                featurizer,
            );
            let index = af.build_index(&corpus.workbooks, &[], IndexOptions::default());
            let sheet = &corpus.workbooks[0].sheets[0];
            let target: CellRef = "D5".parse().unwrap();
            assert!(
                af.predict_with(&index, sheet, target, PipelineVariant::Full).is_none(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn every_backend_serves_the_full_pipeline() {
        // Self-query: a reference sheet queried unmasked has an identical
        // indexed region (S2 distance ≈ 0), so even an untrained model
        // must recover the exact formula — on every ANN backend.
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        for backend in all_backends() {
            let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
            let cfg = AutoFormulaConfig { ann_backend: backend, ..AutoFormulaConfig::test_tiny() };
            let af = AutoFormula::from_model(
                RepresentationModel::new(featurizer.dim(), cfg),
                featurizer,
            );
            let members: Vec<usize> = (0..4).collect();
            let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
            let sheet = &corpus.workbooks[0].sheets[0];
            let (target, gt) = sheet.formulas().next().expect("a formula cell");
            let pred = af
                .predict_with(&index, sheet, target, PipelineVariant::Full)
                .unwrap_or_else(|| panic!("{backend:?} must serve a prediction"));
            assert!(pred.s2_distance < 1e-5, "{backend:?}: self-region must be found");
            assert_eq!(pred.formula, parse_formula(gt).unwrap().to_string(), "{backend:?}");
        }
    }

    #[test]
    fn offset_mapping_reproduces_paper_example() {
        // Reference: formula at D354 with params C6, C350, C354; target at
        // D41. Offsets: C6 is 348 rows above D354 → would go negative, so
        // S3's anchor clips; here test the plain in-bounds case C354→C41.
        let target: CellRef = "D41".parse().unwrap();
        let ref_formula: CellRef = "D354".parse().unwrap();
        let c354: CellRef = "C354".parse().unwrap();
        assert_eq!(offset_map(c354, ref_formula, target), Some("C41".parse().unwrap()));
    }

    /// Algorithm 2 rebuilt from the public granules, one target on one
    /// index: S1 by `similar_sheets` (or `similar_sheets_fine`), S2 by
    /// each candidate's `sheet_region_distances` and a stable sort by
    /// distance, S3 by the first of the top 8 that `adapt_region` adapts.
    fn recomposed(
        af: &AutoFormula,
        index: &ReferenceIndex,
        sheet: &Sheet,
        target: CellRef,
        variant: PipelineVariant,
    ) -> Option<Prediction> {
        let k = af.cfg().k_sheets;
        let embedder = af.embedder();
        let emb = embedder.embed_sheet(sheet, variant == PipelineVariant::FineOnly);
        let candidates = match (variant, &emb.fine_topleft) {
            (PipelineVariant::FineOnly, Some(sig)) => index
                .similar_sheets_fine(sig, k)
                .unwrap_or_else(|| index.similar_sheets(&emb.coarse, k)),
            _ => index.similar_sheets(&emb.coarse, k),
        };
        let window = embedder.fine_window(&emb, sheet, WindowOrigin::Centered(target));
        let coarse = (variant == PipelineVariant::CoarseOnly)
            .then(|| coarse_window(&embedder, sheet, target));
        let coarse = coarse.as_deref().map(|c| [c]);
        let mut scratch = StripScratch::default();
        let mut ranked: Vec<(usize, f32)> = Vec::new();
        for cand in &candidates {
            let dists = index.sheet_region_distances(
                cand.id,
                &[&window],
                coarse.as_ref().map(|c| c.as_slice()),
                &mut scratch,
            );
            ranked.extend(index.regions_of_sheet(cand.id).iter().copied().zip(dists.to_vec()));
        }
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked.iter().take(8).find_map(|&(rid, dist)| {
            af.adapt_region(index, &emb, sheet, target, rid, dist, variant)
        })
    }

    #[test]
    fn predict_with_equals_the_pass_recomposed_from_public_granules() {
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let af =
            AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
        let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
        let members: Vec<usize> = (0..4).collect();
        let index = af.build_index(&corpus.workbooks, &members, opts);
        // Indexed sheets queried as they are, and held-out sheets with
        // their target masked.
        let mut queries: Vec<(Sheet, CellRef)> = Vec::new();
        for wb in [0, 4, 5] {
            for sheet in &corpus.workbooks[wb].sheets {
                for (target, _) in sheet.formulas().take(3) {
                    let query = if wb < 4 { sheet.clone() } else { masked_sheet(sheet, target) };
                    queries.push((query, target));
                }
            }
        }
        for variant in
            [PipelineVariant::Full, PipelineVariant::CoarseOnly, PipelineVariant::FineOnly]
        {
            let mut answered = 0usize;
            for (sheet, target) in &queries {
                let ctx = format!("{variant:?} {target:?}");
                let got = af.predict_with(&index, sheet, *target, variant);
                let want = recomposed(&af, &index, sheet, *target, variant);
                match (&got, &want) {
                    (Some(g), Some(w)) => {
                        assert_eq!(g.formula, w.formula, "{ctx}");
                        assert_eq!(g.s2_distance.to_bits(), w.s2_distance.to_bits(), "{ctx}");
                        assert_eq!(g.reference_sheet, w.reference_sheet, "{ctx}");
                        assert_eq!(g.reference_sheet_idx, w.reference_sheet_idx, "{ctx}");
                        assert_eq!(g.reference_cell, w.reference_cell, "{ctx}");
                        assert_eq!(g.template_signature, w.template_signature, "{ctx}");
                        answered += 1;
                    }
                    (None, None) => {}
                    _ => panic!("{ctx}: {got:?} vs {want:?}"),
                }
            }
            assert!(answered * 2 >= queries.len(), "{variant:?}: {answered}/{}", queries.len());
        }
    }

    #[test]
    fn thresholded_predict_suppresses_low_confidence() {
        let corpus = OrgSpec::cisco(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig { theta_region: 0.0, ..AutoFormulaConfig::test_tiny() };
        let af =
            AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
        let members: Vec<usize> = (1..corpus.workbooks.len().min(6)).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        // With θ = 0 every prediction on a *different* sheet is suppressed
        // (distance can only be 0 for an identical region).
        let sheet = &corpus.workbooks[0].sheets[0];
        let target = sheet.formulas().next().map(|(at, _)| at).unwrap();
        let masked = masked_sheet(sheet, target);
        assert!(af.predict(&index, &masked, target).is_none());
    }

    /// S3 as it was before the patch: gather, normalize and measure each
    /// of the `(2d+1)²` candidate windows on its own.
    fn naive_search(
        embedder: &SheetEmbedder<'_>,
        cfg: &AutoFormulaConfig,
        emb: &SheetEmbedding,
        sheet: &Sheet,
        ref_vec: &[f32],
        anchor: CellRef,
    ) -> Option<(CellRef, f32)> {
        let d = cfg.neighborhood_d;
        let mut best: Option<(CellRef, f32)> = None;
        for dr in -d..=d {
            for dc in -d..=d {
                let Some(cand) = anchor.offset(dr, dc) else { continue };
                let v = embedder.fine_window(emb, sheet, WindowOrigin::Centered(cand));
                let dist = af_ann::l2_sq(ref_vec, &v)
                    + cfg.s3_anchor_lambda * (dr.abs() + dc.abs()) as f32;
                if best.is_none_or(|(_, bd)| dist < bd) {
                    best = Some((cand, dist));
                }
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn patch_search_matches_the_window_by_window_loop(
            cells in prop::collection::vec((0u32..24, 0u32..10, 0u32..4), 1..90),
            tiny: bool,
            d_sel in 0usize..3,
            target in (0u32..20, 0u32..9),
            ref_formula in (0u32..12, 0u32..9),
            ref_param in (0u32..12, 0u32..9),
            probe in (0u32..24, 0u32..10),
        ) {
            let base = if tiny { AutoFormulaConfig::test_tiny() } else { AutoFormulaConfig::default() };
            let cfg = AutoFormulaConfig { neighborhood_d: [0, 1, 3][d_sel], ..base };
            let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
            let model = RepresentationModel::new(featurizer.dim(), cfg);
            let embedder = SheetEmbedder::new(&model, &featurizer);
            let mut sheet = Sheet::new("q");
            for &(r, c, kind) in &cells {
                let cell = match kind {
                    0 => af_grid::Cell::new(format!("label {r}")),
                    _ => af_grid::Cell::new((r * 7 + c * kind) as f64),
                };
                sheet.set(CellRef::new(r, c), cell);
            }
            let emb = embedder.embed_sheet(&sheet, false);
            // Any unit vector will do for the reference side; another
            // window of the same sheet keeps the distances close together.
            let ref_vec = embedder.fine_window(
                &emb,
                &sheet,
                WindowOrigin::Centered(CellRef::new(probe.0, probe.1)),
            );
            let (target, ref_formula, ref_param) = (
                CellRef::new(target.0, target.1),
                CellRef::new(ref_formula.0, ref_formula.1),
                CellRef::new(ref_param.0, ref_param.1),
            );
            // Small targets under large negative offsets: the anchor is
            // clipped to row/col 0 and `anchor.offset` drops candidates.
            let anchor = CellRef::new(
                (target.row as i64 + ref_param.row as i64 - ref_formula.row as i64).max(0) as u32,
                (target.col as i64 + ref_param.col as i64 - ref_formula.col as i64).max(0) as u32,
            );
            let got = search_parameter(
                &cfg,
                &emb,
                &ref_vec,
                ref_param,
                ref_formula,
                target,
                &mut S3Scratch::default(),
            );
            let want = naive_search(&embedder, &cfg, &emb, &sheet, &ref_vec, anchor);
            prop_assert_eq!(
                got.map(|(c, dist)| (c, dist.to_bits())),
                want.map(|(c, dist)| (c, dist.to_bits())),
                "d={} anchor={:?}", cfg.neighborhood_d, anchor
            );
            prop_assert!(got.is_some(), "the anchor itself is always a candidate");
        }
    }
}
