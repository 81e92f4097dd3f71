//! Inference-time sheet embedding with per-cell caching, and the one fine
//! gather every window in the system is assembled by.
//!
//! Both branches share the per-cell reduction, and the fine branch is
//! per-cell too — so a sheet's cells are pushed through the model **once**,
//! into a [`SheetEmbedding`]: the stored cells' references sorted row-major
//! beside one flat table of their fine vectors, plus the two constant
//! vectors of a blank and of an out-of-bounds slot. After that *any* window
//! embedding is a `FineGather::rect` — a few row-wise copies out of that
//! table, no model and no hashing — plus an L2 normalization. S2 gathers
//! the target's window once; S3 gathers one patch per parameter that
//! covers all `(2d+1)²` candidate windows and slides over it (see
//! ARCHITECTURE.md, "The fine gather"). The reference side is the same
//! data and the same function: the index keeps each sheet's
//! `SheetFineCells` and gathers region strips and parameter windows out
//! of them at query time, which is why a reference window and a query
//! window over equal cells have equal bits.

use crate::config::AutoFormulaConfig;
use crate::features::{raw_window, WindowOrigin};
use crate::index::VecTable;
use crate::model::RepresentationModel;
use af_embed::CellFeaturizer;
use af_grid::{CellRef, Sheet, ViewWindow, WindowSlot};
use af_nn::tensor::l2_normalize;
use af_nn::Tensor;
use af_store::{Codec, DenseStore};
use std::fmt;

/// One sheet's stored cells and their fine vectors, sorted row-major —
/// everything a window gather needs (window slots depend only on cell
/// *presence* and the top/left edge, never on cell contents). A query
/// sheet's embedding holds one; the index holds one per reference sheet
/// and nothing else of the fine branch.
#[derive(Clone)]
pub(crate) struct SheetFineCells {
    pub(crate) refs: Vec<CellRef>,
    /// `refs.len()` rows of `fine_cell_dim`, unnormalized, always exact
    /// `f32` in memory (see [`SheetFineCells::new`]).
    pub(crate) vecs: VecTable,
    /// `row_ranges[r]` is the `[start, end)` range of `refs` lying on
    /// sheet row `r`, so a rectangle row costs one lookup plus a short
    /// in-row scan instead of a search per slot. `None` for degenerate
    /// layouts whose max row is far larger than the cell count (the index
    /// would be mostly empty); those fall back to binary search per
    /// rectangle row.
    row_ranges: Option<Vec<(u32, u32)>>,
}

impl SheetFineCells {
    /// `refs` strictly sorted row-major, row `i` of `vecs` the vector of
    /// `refs[i]`. A quantized table (out of an `f16` artifact) is
    /// dequantized here, once: every gather afterwards is plain `f32`
    /// copies, whatever the file codec. An exact table is kept as it is —
    /// possibly a zero-copy view into the artifact buffer.
    pub(crate) fn new(refs: Vec<CellRef>, vecs: VecTable) -> SheetFineCells {
        assert_eq!(refs.len(), vecs.rows(), "one vector per stored cell");
        let vecs = match vecs.codec() {
            Codec::F32 => vecs,
            _ => VecTable::from_store(vecs.store().to_codec(Codec::F32)),
        };
        let max_row = refs.last().map(|r| r.row as usize).unwrap_or(0);
        let row_ranges = (max_row <= refs.len() * 16 + 1024).then(|| {
            let mut ranges = vec![(0u32, 0u32); max_row + 1];
            let mut i = 0usize;
            while i < refs.len() {
                let (row, start) = (refs[i].row, i);
                while i < refs.len() && refs[i].row == row {
                    i += 1;
                }
                ranges[row as usize] = (start as u32, i as u32);
            }
            ranges
        });
        SheetFineCells { refs, vecs, row_ranges }
    }

    /// The `[start, end)` range of `refs` on virtual row `r` (empty when
    /// the row holds no stored cells — always so past `u32::MAX`, where no
    /// cell can be stored).
    fn row_range(&self, r: i64) -> (usize, usize) {
        let Ok(r) = u32::try_from(r) else { return (0, 0) };
        match &self.row_ranges {
            Some(ranges) => {
                ranges.get(r as usize).map_or((0, 0), |&(s, e)| (s as usize, e as usize))
            }
            None => {
                let lo = self.refs.partition_point(|x| x.row < r);
                let hi = lo + self.refs[lo..].partition_point(|x| x.row == r);
                (lo, hi)
            }
        }
    }
}

impl fmt::Debug for SheetFineCells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SheetFineCells({} cells × {})", self.refs.len(), self.vecs.dim())
    }
}

/// Columns the two constant vectors are tiled to: the widest rectangle
/// anything gathers, S3's `(cols + 2d)`-wide patch.
pub(crate) fn tile_cols(cfg: &AutoFormulaConfig) -> usize {
    cfg.window.cols as usize + 2 * cfg.neighborhood_d.max(0) as usize
}

/// Cached embeddings for one sheet.
#[derive(Debug, Clone)]
pub struct SheetEmbedding {
    /// Coarse sheet-level embedding (`M_c`, unit norm).
    pub coarse: Vec<f32>,
    /// Fine vector of every stored cell.
    pub(crate) fine: SheetFineCells,
    /// Fine vector of an in-bounds blank cell (constant across sheets —
    /// the featurizer's empty-cell row through the model), tiled
    /// [`tile_cols`] times: any prefix is a blank stretch of a rectangle
    /// row, one `memcpy` instead of one per slot.
    pub(crate) fine_empty: Vec<f32>,
    /// Fine vector of an out-of-bounds window slot (constant across
    /// sheets — the zero feature row through the model), tiled likewise.
    pub(crate) fine_invalid: Vec<f32>,
    /// Optional fine embedding of the top-left window (used by the
    /// fine-only ablation as a sheet signature).
    pub fine_topleft: Option<Vec<f32>>,
}

impl SheetEmbedding {
    pub fn n_cached_cells(&self) -> usize {
        self.fine.refs.len()
    }

    /// A gatherer over this sheet.
    pub(crate) fn gather(&self) -> FineGather<'_> {
        FineGather::new(&self.fine, &self.fine_empty, &self.fine_invalid)
    }
}

/// The fine gather: copies any rectangle of window slots out of one
/// sheet's [`SheetFineCells`]. It borrows everything it reads — the cell
/// rows as one contiguous `f32` image, the row index built with the cells,
/// and the two constant vectors tiled once by whoever holds them — so
/// making one costs nothing.
pub(crate) struct FineGather<'a> {
    cells: &'a SheetFineCells,
    flat: &'a [f32],
    /// Repetitions of the blank-cell vector, at least as many as the
    /// widest rectangle has columns.
    empty: &'a [f32],
    /// As many repetitions of the out-of-bounds vector.
    invalid: &'a [f32],
}

impl<'a> FineGather<'a> {
    pub(crate) fn new(
        cells: &'a SheetFineCells,
        empty: &'a [f32],
        invalid: &'a [f32],
    ) -> FineGather<'a> {
        let flat = cells.vecs.store().as_f32_slice().expect("cell tables are held as f32");
        FineGather { cells, flat, empty, invalid }
    }

    /// Fill `out` (`rows × cols × fine_cell_dim`, row-major over slots)
    /// with the per-cell fine vectors of the rectangle whose top-left slot
    /// sits at the signed virtual coordinate `origin`. Coordinates are
    /// compared as `i64`, so nothing wraps: slots above or left of the
    /// sheet get the `invalid` vector, every other slot the `empty` vector
    /// unless a stored cell sits there. Unnormalized.
    ///
    /// Each rectangle row is two copies from the pre-tiled blank rows plus
    /// one copy per run of adjacent stored cells (consecutive columns are
    /// consecutive table rows).
    pub(crate) fn rect(&self, origin: (i64, i64), rows: usize, cols: usize, out: &mut [f32]) {
        let f8 = self.cells.vecs.dim();
        assert_eq!(out.len(), rows * cols * f8, "output holds the rectangle");
        assert!(cols * f8 <= self.empty.len(), "constants tiled for narrower rectangles");
        if out.is_empty() {
            return;
        }
        let (or, oc) = origin;
        let refs = &self.cells.refs;
        let n_invalid = ((-oc).max(0) as usize).min(cols);
        let c_end = oc + cols as i64;
        for (dr, row_out) in out.chunks_exact_mut(cols * f8).enumerate() {
            let r = or + dr as i64;
            if r < 0 {
                row_out.copy_from_slice(&self.invalid[..cols * f8]);
                continue;
            }
            let (left, right) = row_out.split_at_mut(n_invalid * f8);
            left.copy_from_slice(&self.invalid[..left.len()]);
            right.copy_from_slice(&self.empty[..right.len()]);
            let (lo, hi) = self.cells.row_range(r);
            let c0 = oc + n_invalid as i64;
            let mut j = lo + refs[lo..hi].partition_point(|x| (x.col as i64) < c0);
            while j < hi {
                let col = refs[j].col as i64;
                if col >= c_end {
                    break;
                }
                let at = (col - oc) as usize * f8;
                let max_run = ((c_end - col) as usize).min(hi - j);
                let mut run = 1usize;
                while run < max_run && refs[j + run].col as i64 == col + run as i64 {
                    run += 1;
                }
                row_out[at..at + run * f8].copy_from_slice(&self.flat[j * f8..(j + run) * f8]);
                j += run;
            }
        }
    }

    /// The fine embedding of one view window: gather its rectangle, then
    /// L2-normalize the stack.
    pub(crate) fn window(&self, window: ViewWindow, origin: WindowOrigin, out: &mut [f32]) {
        let origin = match origin {
            WindowOrigin::TopLeft => (0, 0),
            WindowOrigin::Centered(c) => window.centered_origin(c),
        };
        self.rect(origin, window.rows as usize, window.cols as usize, out);
        l2_normalize(out);
    }
}

/// Stateless embedding engine borrowing the trained model.
pub struct SheetEmbedder<'a> {
    pub model: &'a RepresentationModel,
    pub featurizer: &'a CellFeaturizer,
}

impl<'a> SheetEmbedder<'a> {
    pub fn new(model: &'a RepresentationModel, featurizer: &'a CellFeaturizer) -> Self {
        SheetEmbedder { model, featurizer }
    }

    pub fn cfg(&self) -> &AutoFormulaConfig {
        &self.model.cfg
    }

    /// Embed a sheet: one pass over its stored cells, then assemble the
    /// coarse embedding from the top-left window.
    pub fn embed_sheet(&self, sheet: &Sheet, with_fine_topleft: bool) -> SheetEmbedding {
        self.embed_sheets(&[sheet], with_fine_topleft).pop().expect("one sheet in, one out")
    }

    /// Micro-batched sheet embedding: the stored cells of *every* sheet are
    /// concatenated into a single tensor and pushed through the shared
    /// reduction and the fine head in one pass, so a burst of concurrent
    /// queries pays one kernel dispatch instead of one per sheet. The
    /// per-cell layers operate row-wise, so each returned embedding is
    /// bit-identical to what [`SheetEmbedder::embed_sheet`] produces alone.
    pub fn embed_sheets(&self, sheets: &[&Sheet], with_fine_topleft: bool) -> Vec<SheetEmbedding> {
        if sheets.is_empty() {
            return Vec::new();
        }
        let _batch = af_obs::span!("embed::batch", n = sheets.len());
        let fd = self.featurizer.dim();
        let cd = self.model.cfg.cell_dim;
        let f8 = self.model.cfg.fine_cell_dim;

        // Batch: every sheet's stored cells back to back, then the shared
        // blank-cell constant and the shared invalid-slot constant.
        let refs_per: Vec<Vec<CellRef>> = sheets
            .iter()
            .map(|sheet| {
                let mut refs: Vec<CellRef> = sheet.iter().map(|(at, _)| at).collect();
                refs.sort_unstable();
                refs
            })
            .collect();
        let mut offsets = Vec::with_capacity(sheets.len());
        let mut total = 0usize;
        for refs in &refs_per {
            offsets.push(total);
            total += refs.len();
        }
        let mut raw = vec![0.0f32; (total + 2) * fd];
        for (si, refs) in refs_per.iter().enumerate() {
            let base = offsets[si];
            self.featurizer.cells_into(
                refs.iter().map(|at| sheets[si].get(*at).expect("stored cell")),
                &mut raw[base * fd..(base + refs.len()) * fd],
            );
        }
        raw[total * fd..(total + 1) * fd].copy_from_slice(self.featurizer.empty_cell_ref());
        // Row total+1 stays zero = invalid constant.

        let reduced = self.model.reduce_cells(Tensor::new(vec![total + 2, fd], raw));
        let fine = self.model.fine_cells(reduced.clone());
        let (empty_row, invalid_row) = (total, total + 1);
        let tile = tile_cols(&self.model.cfg);

        sheets
            .iter()
            .zip(refs_per)
            .zip(offsets)
            .map(|((sheet, refs), base)| {
                // Coarse: gather reduced vectors over the top-left window.
                let window = self.model.cfg.window;
                let n_cells = window.n_cells();
                let mut gathered = vec![0.0f32; n_cells * cd];
                let reduced_of = |at: CellRef| -> Option<usize> { refs.binary_search(&at).ok() };
                for (i, slot) in window.top_left(sheet).enumerate() {
                    let dst = &mut gathered[i * cd..(i + 1) * cd];
                    match slot {
                        WindowSlot::Cell(at, _) => {
                            let idx = reduced_of(at).expect("cell was featurized");
                            dst.copy_from_slice(reduced.row(base + idx));
                        }
                        WindowSlot::EmptyCell(_) => dst.copy_from_slice(reduced.row(empty_row)),
                        WindowSlot::Invalid => dst.copy_from_slice(reduced.row(invalid_row)),
                    }
                }
                let coarse =
                    self.model.coarse_from_reduced(Tensor::new(vec![n_cells, cd], gathered));

                // The sheet's rows of `fine` are already in `refs` order:
                // one slice copy is the whole per-cell table.
                let rows = fine.data[base * f8..(base + refs.len()) * f8].to_vec();
                let mut emb = SheetEmbedding {
                    coarse,
                    fine: SheetFineCells::new(
                        refs,
                        VecTable::from_store(DenseStore::from_f32_rows(f8, rows)),
                    ),
                    fine_empty: fine.row(empty_row).repeat(tile),
                    fine_invalid: fine.row(invalid_row).repeat(tile),
                    fine_topleft: None,
                };
                if with_fine_topleft {
                    emb.fine_topleft = Some(self.fine_window(&emb, sheet, WindowOrigin::TopLeft));
                }
                emb
            })
            .collect()
    }

    /// Fine embedding of a window over an embedded sheet: gather per-cell
    /// vectors and L2-normalize the stack. `emb` holds every stored cell of
    /// the sheet it was embedded from, so the sheet itself is not read.
    pub fn fine_window(
        &self,
        emb: &SheetEmbedding,
        _sheet: &Sheet,
        origin: WindowOrigin,
    ) -> Vec<f32> {
        let window = self.model.cfg.window;
        let mut out = vec![0.0f32; self.model.cfg.fine_dim()];
        emb.gather().window(window, origin, &mut out);
        out
    }

    /// Fine embedding of the region centered at a cell, computed from raw
    /// features without a sheet cache (used in training sanity checks).
    pub fn fine_window_uncached(&self, sheet: &Sheet, center: CellRef) -> Vec<f32> {
        let raw = raw_window(
            self.featurizer,
            sheet,
            self.model.cfg.window,
            WindowOrigin::Centered(center),
        );
        let n = self.model.cfg.n_cells();
        let fd = self.featurizer.dim();
        let reduced = self.model.reduce_cells(Tensor::new(vec![n, fd], raw));
        let fine = self.model.fine_cells(reduced);
        let mut out = fine.data;
        l2_normalize(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_embed::{FeatureMask, SbertSim};
    use af_grid::Cell;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn setup() -> (RepresentationModel, CellFeaturizer, Sheet) {
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let model = RepresentationModel::new(featurizer.dim(), cfg);
        let mut s = Sheet::new("t");
        s.set_a1("A1", Cell::new("Region"));
        s.set_a1("B1", Cell::new("Units"));
        for r in 2..=9 {
            s.set_a1(&format!("A{r}"), Cell::new(format!("zone{r}")));
            s.set_a1(&format!("B{r}"), Cell::new(r as f64));
        }
        (model, featurizer, s)
    }

    #[test]
    fn embedding_caches_all_cells() {
        let (model, feat, sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        let emb = e.embed_sheet(&sheet, false);
        assert_eq!(emb.n_cached_cells(), sheet.len());
        let norm: f32 = emb.coarse.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cached_window_matches_uncached() {
        let (model, feat, sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        let emb = e.embed_sheet(&sheet, false);
        let center: CellRef = "B5".parse().unwrap();
        let cached = e.fine_window(&emb, &sheet, WindowOrigin::Centered(center));
        let direct = e.fine_window_uncached(&sheet, center);
        assert_eq!(cached.len(), direct.len());
        for (a, b) in cached.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5, "cache and direct paths must agree");
        }
    }

    #[test]
    fn shifted_centers_give_different_fine_windows() {
        let (model, feat, sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        let emb = e.embed_sheet(&sheet, false);
        let a = e.fine_window(&emb, &sheet, WindowOrigin::Centered("B5".parse().unwrap()));
        let b = e.fine_window(&emb, &sheet, WindowOrigin::Centered("B6".parse().unwrap()));
        let d: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!(d > 1e-4, "one-row shift must move the fine embedding (d={d})");
    }

    #[test]
    fn fine_topleft_signature_optional() {
        let (model, feat, sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        assert!(e.embed_sheet(&sheet, false).fine_topleft.is_none());
        let emb = e.embed_sheet(&sheet, true);
        let sig = emb.fine_topleft.as_ref().unwrap();
        assert_eq!(sig.len(), model.cfg.fine_dim());
    }

    #[test]
    fn batched_embedding_matches_single_sheet_path() {
        // The micro-batch used by the serving layer must be a pure
        // batching optimization: same bits as embedding each sheet alone.
        let (model, feat, sheet) = setup();
        let mut other = Sheet::new("other");
        other.set_a1("A1", Cell::new("Totals"));
        other.set_a1("B3", Cell::new(42.0));
        let e = SheetEmbedder::new(&model, &feat);
        let batch = e.embed_sheets(&[&sheet, &other, &sheet], true);
        assert_eq!(batch.len(), 3);
        for (i, s) in [&sheet, &other, &sheet].iter().enumerate() {
            let solo = e.embed_sheet(s, true);
            assert_eq!(batch[i].coarse, solo.coarse, "sheet {i}");
            assert_eq!(batch[i].fine_topleft, solo.fine_topleft, "sheet {i}");
            assert_eq!(batch[i].n_cached_cells(), solo.n_cached_cells(), "sheet {i}");
            let center: CellRef = "B2".parse().unwrap();
            assert_eq!(
                e.fine_window(&batch[i], s, WindowOrigin::Centered(center)),
                e.fine_window(&solo, s, WindowOrigin::Centered(center)),
                "sheet {i}"
            );
        }
        assert!(e.embed_sheets(&[], false).is_empty());
    }

    #[test]
    fn identical_sheets_embed_identically() {
        let (model, feat, sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        let a = e.embed_sheet(&sheet, false);
        let b = e.embed_sheet(&sheet.clone(), false);
        assert_eq!(a.coarse, b.coarse);
    }

    /// The definition the gather is held to: one slot at a time, each
    /// looked up on its own. Signed virtual coordinates, nothing wraps.
    fn naive_rect(
        sheet: &Sheet,
        emb: &SheetEmbedding,
        (or, oc): (i64, i64),
        rows: usize,
        cols: usize,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        for r in (0..rows as i64).map(|dr| or + dr) {
            for c in (0..cols as i64).map(|dc| oc + dc) {
                let stored = match (u32::try_from(r), u32::try_from(c)) {
                    (Ok(r), Ok(c)) => {
                        Some(CellRef::new(r, c)).filter(|at| sheet.get(*at).is_some())
                    }
                    _ => None,
                };
                let f8 = emb.fine.vecs.dim();
                out.extend_from_slice(match stored {
                    Some(at) => {
                        emb.fine.vecs.row_f32(emb.fine.refs.binary_search(&at).unwrap()).unwrap()
                    }
                    None if r < 0 || c < 0 => &emb.fine_invalid[..f8],
                    None => &emb.fine_empty[..f8],
                });
            }
        }
        out
    }

    /// A sheet with cells at `ats` and an embedding of it whose vectors are
    /// distinct per cell and per lane — the gather never looks at values,
    /// so no model is needed to hold it to the oracle. Constants are tiled
    /// for rectangles of up to `cols` columns.
    fn fake_embedding(ats: &[CellRef], f8: usize, cols: usize) -> (Sheet, SheetEmbedding) {
        let mut sheet = Sheet::new("p");
        for &at in ats {
            sheet.set(at, Cell::new(1.0));
        }
        let mut refs: Vec<CellRef> = sheet.iter().map(|(at, _)| at).collect();
        refs.sort_unstable();
        let rows: Vec<f32> = (0..refs.len() * f8).map(|i| 1.0 + i as f32).collect();
        let emb = SheetEmbedding {
            coarse: Vec::new(),
            fine: SheetFineCells::new(
                refs,
                VecTable::from_store(DenseStore::from_f32_rows(f8, rows)),
            ),
            fine_empty: (0..f8).map(|k| -0.5 - k as f32).collect::<Vec<_>>().repeat(cols),
            fine_invalid: (0..f8).map(|k| -100.0 - k as f32).collect::<Vec<_>>().repeat(cols),
            fine_topleft: None,
        };
        (sheet, emb)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn gather_matches_the_slot_at_a_time_oracle(
            cells in prop::collection::vec((0u32..30, 0u32..14), 0..80),
            far in 0u32..3,
            blank in 0u32..8,
            tiny: bool,
            d in 0usize..4,
            origin in (-9i64..34, -9i64..16),
            near_far: bool,
        ) {
            // test_tiny's row segment is 5 × 4 = 20 floats (not a multiple
            // of the 8 kernel lanes), the default's 8 × 8 = 64.
            let cfg = if tiny { AutoFormulaConfig::test_tiny() } else { AutoFormulaConfig::default() };
            // One case in eight is a sheet with nothing in it.
            let keep = if blank == 0 { 0 } else { cells.len() };
            let mut ats: Vec<CellRef> =
                cells[..keep].iter().map(|&(r, c)| CellRef::new(r, c)).collect();
            // One case in three adds a row so far down that the row index
            // is given up for the binary-search fallback.
            let far_row = 4_000_000 + far;
            if far == 0 && blank != 0 {
                ats.extend((0..6).map(|c| CellRef::new(far_row, 2 * c)));
            }
            let (rows, cols) = (cfg.window.rows as usize, cfg.window.cols as usize);
            let (sheet, emb) = fake_embedding(&ats, cfg.fine_cell_dim, cols + 2 * d);
            let origin = if near_far { (far_row as i64 - 5 + origin.0, origin.1) } else { origin };
            // Window-sized and S3-patch-sized rectangles from one gatherer.
            let gather = emb.gather();
            for (rows, cols) in [(rows, cols), (rows + 2 * d, cols + 2 * d)] {
                let mut out = vec![f32::NAN; rows * cols * cfg.fine_cell_dim];
                gather.rect(origin, rows, cols, &mut out);
                prop_assert_eq!(
                    bits(&out),
                    bits(&naive_rect(&sheet, &emb, origin, rows, cols)),
                    "{}x{} at {:?}", rows, cols, origin
                );
            }
        }
    }

    #[test]
    fn cell_at_u32_max_does_not_displace_the_invalid_constant() {
        // The out-of-bounds constant used to live in the cell map under
        // (u32::MAX, u32::MAX); a real cell there overwrote it for every
        // window of the sheet.
        let (model, feat, mut sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        let before = e.embed_sheet(&sheet, false);
        sheet.set(CellRef::new(u32::MAX, u32::MAX), Cell::new("corner"));
        let emb = e.embed_sheet(&sheet, false);
        assert_eq!(emb.n_cached_cells(), sheet.len());
        assert_eq!(emb.fine_invalid, before.fine_invalid);
        // A window clipped at the top-left corner: slot 0 is out of bounds.
        let window = model.cfg.window;
        let (rows, cols) = (window.rows as usize, window.cols as usize);
        let origin = window.centered_origin(CellRef::new(0, 0));
        let mut raw = vec![0.0f32; model.cfg.fine_dim()];
        emb.gather().rect(origin, rows, cols, &mut raw);
        assert_eq!(raw[..model.cfg.fine_cell_dim], emb.fine_invalid[..model.cfg.fine_cell_dim]);
        assert_eq!(bits(&raw), bits(&naive_rect(&sheet, &emb, origin, rows, cols)));
        // And the far corner cell is found where it is stored.
        let origin = (u32::MAX as i64 - 1, u32::MAX as i64 - 1);
        emb.gather().rect(origin, rows, cols, &mut raw);
        assert_eq!(bits(&raw), bits(&naive_rect(&sheet, &emb, origin, rows, cols)));
        let corner = emb.fine.vecs.row_f32(emb.n_cached_cells() - 1).unwrap();
        assert_eq!(raw[(cols + 1) * model.cfg.fine_cell_dim..][..corner.len()], *corner);
    }

    #[test]
    fn window_at_the_bottom_edge_does_not_wrap_to_the_top() {
        // Virtual rows past u32::MAX used to be cast to u32 and read rows
        // 0.. of the sheet. setup() stores cells in rows 0–8, columns A–B.
        let (model, feat, sheet) = setup();
        let e = SheetEmbedder::new(&model, &feat);
        let emb = e.embed_sheet(&sheet, false);
        let f8 = model.cfg.fine_cell_dim;
        let window = model.cfg.window;
        let (rows, cols) = (window.rows as usize, window.cols as usize);
        let origin = window.centered_origin(CellRef::new(u32::MAX - 3, 0));
        assert!(origin.0 + rows as i64 > u32::MAX as i64 + 1, "window hangs past the last row");
        let mut raw = vec![0.0f32; model.cfg.fine_dim()];
        emb.gather().rect(origin, rows, cols, &mut raw);
        for (i, slot) in raw.chunks_exact(f8).enumerate() {
            let want =
                if (i % cols) as i64 + origin.1 < 0 { &emb.fine_invalid } else { &emb.fine_empty };
            assert_eq!(slot, &want[..f8], "slot {i} holds no stored cell");
        }
    }
}
