//! Offline reference indexing (§4.6): `Idx_c` — coarse sheet embeddings in
//! an ANN index — and `Idx_f` — the fine vectors of every stored cell of
//! every reference sheet, from which the fine *region* embedding of any
//! formula or parameter cell is gathered when a query asks for it.
//!
//! A region embedding is a pure function of its sheet's per-cell fine
//! vectors (`FineGather::rect` + L2 normalization), so the index keeps
//! each sheet's cells **once** and nothing per region but its
//! [`RegionEntry`]: S2 ranks a candidate sheet's regions off strips
//! gathered per column ([`ReferenceIndex::sheet_region_distances`]), S3
//! gathers one window per template parameter
//! ([`ReferenceIndex::param_window`]). Build, add, split and merge move
//! cells, never windows.
//!
//! The index is **self-contained**: formula provenance (parameter cells,
//! sheet names and dimensions) is captured at build time, so the online
//! pipeline answers queries from the index alone — no live borrow of the
//! reference workbooks — and the whole structure can be serialized into an
//! [`crate::artifact`] and served from another process.

use crate::config::{AnnBackend, AutoFormulaConfig};
use crate::embedder::{FineGather, SheetEmbedder, SheetEmbedding, SheetFineCells};
use crate::features::WindowOrigin;
use af_ann::{FlatIndex, HnswIndex, IvfFlatIndex, VectorIndex};
use af_formula::{parse_formula, Template};
use af_grid::{CellRef, Sheet, ViewWindow, Workbook};
use af_nn::tensor::{l2_sq_normalized, l2_sq_normalized_each, l2_sq_normalized_many};
use af_nn::Tensor;
use af_store::{Codec, DenseStore, VectorStore};

/// Build a sheet-level ANN index over row-major `data` using the backend
/// selected in the config. Every backend supports incremental
/// [`VectorIndex::add`] afterwards, so [`ReferenceIndex::add_workbook`]
/// works identically regardless of this choice.
fn build_ann_index(cfg: &AutoFormulaConfig, dim: usize, data: &[f32]) -> Box<dyn VectorIndex> {
    match cfg.ann_backend {
        AnnBackend::Flat => {
            let mut idx = FlatIndex::new(dim)
                .with_parallelism(cfg.search_parallel_threshold, cfg.search_threads);
            for v in data.chunks_exact(dim) {
                idx.add(v);
            }
            Box::new(idx)
        }
        AnnBackend::Hnsw(params) => Box::new(HnswIndex::build(data, dim, params)),
        AnnBackend::Ivf(params) => Box::new(IvfFlatIndex::build(data, dim, params)),
    }
}

/// Identifies a sheet in the reference workbook collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SheetKey {
    pub workbook: usize,
    pub sheet: usize,
}

/// Provenance metadata of an indexed sheet, captured at build time so a
/// served prediction can name its source without the original workbooks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SheetMeta {
    pub name: String,
    pub rows: u32,
    pub cols: u32,
}

/// Row-major table of fixed-dimension embedding vectors in an
/// [`af_store::DenseStore`]: a sheet's per-cell fine vectors, or the
/// coarse-region table of the coarse-only ablation. Built in memory it is
/// exact `f32` (owned); loaded from an artifact, exact blocks are
/// **zero-copy views** into the artifact buffer (possibly an mmap). The
/// coarse-region table adopts whatever codec the artifact was written
/// with and serves `f16` rows through the asymmetric distance kernel;
/// mutation quantizes pushed vectors to the table's codec and converts
/// views to owned copies first — the write path pays, readers never do.
pub(crate) struct VecTable {
    store: DenseStore,
}

impl VecTable {
    pub(crate) fn new(dim: usize) -> VecTable {
        VecTable { store: DenseStore::new(dim, Codec::F32) }
    }

    /// An empty table storing rows in `codec` (pushed vectors quantize).
    /// [`ReferenceIndex::empty_like`] uses it so a delta or a merge keeps
    /// the source's codec instead of silently inflating a quantized
    /// corpus back to f32.
    pub(crate) fn with_codec(dim: usize, codec: Codec) -> VecTable {
        VecTable { store: DenseStore::new(dim, codec) }
    }

    pub(crate) fn dim(&self) -> usize {
        self.store.dim()
    }

    pub(crate) fn from_store(store: DenseStore) -> VecTable {
        VecTable { store }
    }

    pub(crate) fn store(&self) -> &DenseStore {
        &self.store
    }

    pub(crate) fn rows(&self) -> usize {
        self.store.rows()
    }

    pub(crate) fn codec(&self) -> Codec {
        self.store.codec()
    }

    /// Append one vector (quantized to the table's codec; converts a view
    /// into an owned copy first).
    pub(crate) fn push(&mut self, v: &[f32]) {
        self.store.push(v);
    }

    /// Append row `i` of `src` (an exact row is copied once, straight
    /// from `src`; a quantized one is dequantized and re-quantized).
    pub(crate) fn push_row_of(&mut self, src: &VecTable, i: usize) {
        match src.row_f32(i) {
            Some(row) => self.push(row),
            None => self.push(&src.row_owned(i)),
        }
    }

    /// Row `i` dequantized into a fresh vector (any codec).
    pub(crate) fn row_owned(&self, i: usize) -> Vec<f32> {
        self.store.row_owned(i)
    }

    /// Row `i` as a borrowed slice when the table is exact (`None` on
    /// quantized codecs — the hot path branches instead of allocating).
    pub(crate) fn row_f32(&self, i: usize) -> Option<&[f32]> {
        self.store.row_f32(i)
    }

    /// Asymmetric squared-L2 distance between the f32 `query` and row `i`
    /// — on exact tables bit-identical to `l2_sq` of the f32 row, on
    /// quantized tables computed without materializing the row.
    #[inline]
    pub(crate) fn l2_sq(&self, i: usize, query: &[f32]) -> f32 {
        self.store.l2_sq_row(query, i)
    }
}

impl Clone for VecTable {
    fn clone(&self) -> VecTable {
        // O(1) for views: they share the immutable artifact buffer.
        VecTable { store: self.store.clone() }
    }
}

/// A reference formula region, with everything S3 needs to adapt it.
#[derive(Debug, Clone)]
pub struct RegionEntry {
    /// Index into [`ReferenceIndex::keys`].
    pub sheet_idx: usize,
    pub cell: CellRef,
    pub formula: String,
    /// Parameter cells of the parsed formula template, in template order
    /// (empty when the formula does not parse — such regions are skipped
    /// by S3 exactly as before).
    pub params: Vec<CellRef>,
}

/// Row span (`last − first`) one S2 strip may cover. A strip of `span +
/// window.rows` rows is gathered into one scratch buffer; capping the span
/// at a constant keeps that buffer at 75 KB for the default 40×8 window of
/// 8-float cells — under glibc's 128 KB mmap threshold and inside L2 —
/// so a sheet with a million-row formula column costs more strips, never
/// a column-sized allocation.
const STRIP_MAX_SPAN: u32 = 256;

/// The buffers [`ReferenceIndex::sheet_region_distances`] works in. Make
/// one per ranking pass and pass it to every call: nothing is allocated
/// per region, and after the first sheets nothing per sheet either.
#[derive(Default)]
pub struct StripScratch {
    /// `(col, row, ordinal in regions_of_sheet)` of the sheet's regions,
    /// sorted: each column's rows ascending.
    order: Vec<(u32, u32, u32)>,
    /// The gathered strip, unnormalized.
    strip: Vec<f32>,
    /// Region-major: `ordinal * n_queries + q`.
    distances: Vec<f32>,
}

/// What to precompute at build time.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexOptions {
    /// Also index fine top-left signatures per sheet (fine-only ablation).
    pub fine_sheet_signatures: bool,
    /// Also embed each formula region through the coarse branch
    /// (coarse-only ablation).
    pub coarse_regions: bool,
}

/// The built reference index.
pub struct ReferenceIndex {
    pub keys: Vec<SheetKey>,
    pub(crate) meta: Vec<SheetMeta>,
    /// Coarse sheet-embedding index (`Idx_c`), on the backend selected by
    /// [`AutoFormulaConfig::ann_backend`]. Flat (exact scan) is the
    /// default — corpus-scale sheet counts (hundreds to tens of thousands
    /// of 64-d vectors) scan in well under a millisecond, matching Faiss
    /// `IndexFlat` — while HNSW/IVF serve SpreadsheetCoder-scale corpora
    /// (millions of sheets) where a scan stops being viable; measured
    /// recall/latency per backend lives in `BENCH_ann.json`.
    pub(crate) coarse: Box<dyn VectorIndex>,
    /// Fine top-left-signature index (fine-only ablation), same backend.
    pub(crate) fine_sheets: Option<Box<dyn VectorIndex>>,
    pub regions: Vec<RegionEntry>,
    /// Every sheet's stored cells and their fine vectors, parallel to
    /// [`ReferenceIndex::keys`]: all the index holds of the fine branch.
    pub(crate) fine_cells: Vec<SheetFineCells>,
    /// Fine vector of an in-bounds blank cell, tiled for a window row (see
    /// [`SheetEmbedding`]). Constant across sheets and captured from the
    /// first one indexed: empty while the index has no sheets.
    pub(crate) fine_empty: Vec<f32>,
    /// Fine vector of an out-of-bounds window slot, tiled likewise.
    pub(crate) fine_invalid: Vec<f32>,
    /// The view window every region embedding spans (the config's).
    pub(crate) window: ViewWindow,
    pub(crate) coarse_region_vecs: Option<VecTable>,
    pub(crate) regions_by_sheet: Vec<Vec<usize>>,
}

impl Clone for ReferenceIndex {
    fn clone(&self) -> ReferenceIndex {
        ReferenceIndex {
            keys: self.keys.clone(),
            meta: self.meta.clone(),
            coarse: self.coarse.clone_box(),
            fine_sheets: self.fine_sheets.as_ref().map(|idx| idx.clone_box()),
            regions: self.regions.clone(),
            fine_cells: self.fine_cells.clone(),
            fine_empty: self.fine_empty.clone(),
            fine_invalid: self.fine_invalid.clone(),
            window: self.window,
            coarse_region_vecs: self.coarse_region_vecs.clone(),
            regions_by_sheet: self.regions_by_sheet.clone(),
        }
    }
}

impl ReferenceIndex {
    /// Embed and index the sheets of `members` (workbook indices).
    pub fn build(
        embedder: &SheetEmbedder<'_>,
        workbooks: &[Workbook],
        members: &[usize],
        opts: IndexOptions,
    ) -> ReferenceIndex {
        let mut keys = Vec::new();
        for &wi in members {
            for si in 0..workbooks[wi].sheets.len() {
                keys.push(SheetKey { workbook: wi, sheet: si });
            }
        }
        // Parallel embedding across sheets; width follows the config knob
        // (0 = every available core) instead of a hard-coded cap.
        let n_threads = crate::config::resolve_threads(embedder.cfg().embed_threads);
        let chunk = keys.len().div_ceil(n_threads.max(1)).max(1);
        let mut embeddings: Vec<SheetEmbedding> = Vec::with_capacity(keys.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = keys
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|k| {
                                let sheet = &workbooks[k.workbook].sheets[k.sheet];
                                embedder.embed_sheet(sheet, opts.fine_sheet_signatures)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                embeddings.extend(h.join().expect("embedding worker"));
            }
        });

        // Coarse sheet index on the configured backend (batch build: IVF
        // trains its quantizer here; Flat/HNSW append).
        let cfg = embedder.cfg();
        let coarse_dim = cfg.coarse_dim;
        let mut coarse_data = Vec::with_capacity(embeddings.len() * coarse_dim);
        for e in &embeddings {
            coarse_data.extend_from_slice(&e.coarse);
        }
        let coarse = build_ann_index(cfg, coarse_dim, &coarse_data);
        let fine_sheets = opts.fine_sheet_signatures.then(|| {
            let fine_dim = cfg.fine_dim();
            let mut sig_data = Vec::with_capacity(embeddings.len() * fine_dim);
            for e in &embeddings {
                sig_data.extend_from_slice(e.fine_topleft.as_ref().expect("signatures requested"));
            }
            build_ann_index(cfg, fine_dim, &sig_data)
        });

        let mut index = ReferenceIndex {
            keys: Vec::new(),
            meta: Vec::new(),
            coarse,
            fine_sheets,
            regions: Vec::new(),
            fine_cells: Vec::new(),
            fine_empty: Vec::new(),
            fine_invalid: Vec::new(),
            window: cfg.window,
            coarse_region_vecs: opts.coarse_regions.then(|| VecTable::new(cfg.coarse_dim)),
            regions_by_sheet: Vec::new(),
        };
        // Region provenance: every formula cell with its template
        // parameters; then the sheet's cells, kept as embedded.
        for (si, (key, emb)) in keys.iter().zip(embeddings).enumerate() {
            let sheet = &workbooks[key.workbook].sheets[key.sheet];
            index.meta.push(sheet_meta(sheet));
            index.regions_by_sheet.push(Vec::new());
            index.index_sheet_regions(embedder, emb, sheet, si);
        }
        index.keys = keys;
        index
    }

    /// Capture one sheet's formula regions (entry `sheet_idx` of
    /// `regions_by_sheet` must already exist) and keep its cells. Shared
    /// by the batch build and the incremental
    /// [`ReferenceIndex::add_workbook`] so the two paths cannot drift.
    /// Takes the embedding by value: its per-cell table, already sorted
    /// row-major, becomes the sheet's entry of `fine_cells` as it is — no
    /// window is gathered here.
    fn index_sheet_regions(
        &mut self,
        embedder: &SheetEmbedder<'_>,
        emb: SheetEmbedding,
        sheet: &Sheet,
        sheet_idx: usize,
    ) {
        let mut locs: Vec<(CellRef, String)> =
            sheet.formulas().map(|(at, f)| (at, f.to_string())).collect();
        locs.sort_by_key(|(at, _)| *at);
        for (cell, formula) in locs {
            let params = match parse_formula(&formula) {
                Ok(expr) => Template::extract(&expr).1,
                Err(_) => Vec::new(),
            };
            self.regions_by_sheet[sheet_idx].push(self.regions.len());
            self.regions.push(RegionEntry { sheet_idx, cell, formula, params });
            if let Some(cvecs) = self.coarse_region_vecs.as_mut() {
                cvecs.push(&coarse_window(embedder, sheet, cell));
            }
        }
        if self.fine_empty.is_empty() {
            self.fine_empty = emb.fine_empty;
            self.fine_invalid = emb.fine_invalid;
        }
        debug_assert_eq!(self.fine_cells.len(), sheet_idx, "cells parallel to keys");
        self.fine_cells.push(emb.fine);
    }

    /// Incrementally index one more workbook (the production path when a
    /// user saves a new spreadsheet: no rebuild of the whole org index).
    /// `workbook_id` is the provenance id recorded in [`SheetKey`] — the
    /// caller's stable identifier for this workbook, not an index into any
    /// slice held by the index.
    ///
    /// The options in force are derived from the structures actually
    /// present on `self`, not taken from the caller: trusting a caller-
    /// supplied `IndexOptions` that disagreed with the build-time options
    /// used to silently desync the optional indexes — `fine_sheets`
    /// skipped the add (shifting every later id returned by
    /// [`ReferenceIndex::similar_sheets_fine`]) and `coarse_region_vecs`
    /// stopped growing while `regions` grew (an out-of-bounds panic when
    /// the coarse-only ablation ranked a new region).
    pub fn add_workbook(
        &mut self,
        embedder: &SheetEmbedder<'_>,
        workbook: &Workbook,
        workbook_id: usize,
    ) {
        for (si, sheet) in workbook.sheets.iter().enumerate() {
            self.add_sheet(embedder, sheet, SheetKey { workbook: workbook_id, sheet: si });
        }
    }

    /// Incrementally index a single sheet under a caller-chosen provenance
    /// key — the per-sheet granule of [`ReferenceIndex::add_workbook`],
    /// exposed so the serving layer can grow its delta segment one sheet
    /// at a time. Options follow the
    /// structures present on `self`, exactly as in `add_workbook`.
    pub fn add_sheet(&mut self, embedder: &SheetEmbedder<'_>, sheet: &Sheet, key: SheetKey) {
        let sheet_idx = self.keys.len();
        self.keys.push(key);
        self.meta.push(sheet_meta(sheet));
        let emb = embedder.embed_sheet(sheet, self.fine_sheets.is_some());
        self.coarse.add(&emb.coarse);
        if let Some(idx) = self.fine_sheets.as_mut() {
            idx.add(emb.fine_topleft.as_ref().expect("signature computed"));
        }
        self.regions_by_sheet.push(Vec::new());
        self.index_sheet_regions(embedder, emb, sheet, sheet_idx);
    }

    /// An empty index with the same shape as `self`: same optional
    /// structures (fine-signature index, coarse-region table and its
    /// codec), same window and fine constants, and a fresh ANN index on
    /// the backend `cfg` selects. The starting point for delta segments
    /// and merges.
    pub fn empty_like(&self, cfg: &AutoFormulaConfig) -> ReferenceIndex {
        ReferenceIndex {
            keys: Vec::new(),
            meta: Vec::new(),
            coarse: build_ann_index(cfg, self.coarse.dim(), &[]),
            fine_sheets: self.fine_sheets.as_ref().map(|fs| build_ann_index(cfg, fs.dim(), &[])),
            regions: Vec::new(),
            fine_cells: Vec::new(),
            fine_empty: self.fine_empty.clone(),
            fine_invalid: self.fine_invalid.clone(),
            window: self.window,
            coarse_region_vecs: self
                .coarse_region_vecs
                .as_ref()
                .map(|v| VecTable::with_codec(v.dim(), v.codec())),
            regions_by_sheet: Vec::new(),
        }
    }

    /// Append sheet `src_sheet_idx` of `src` — key, metadata, ANN vectors,
    /// fine cells and regions — to `self`, re-basing region ids. No
    /// re-embedding happens and no window is copied: the sheet's cell
    /// table is cloned as it is, so every window gathered from the copy
    /// has the source's bits (coarse-region rows are copied out of `src`'s
    /// store: bit-exact on `f32` tables; quantized rows make one
    /// dequantize/requantize round trip).
    ///
    /// This is the merge primitive: compaction merges a sealed run into
    /// its older neighbour with it, and a server folds its runs back into
    /// one index to save them.
    pub fn append_sheet_from(&mut self, src: &ReferenceIndex, src_sheet_idx: usize) {
        self.coarse.add(&src.coarse.vector_owned(src_sheet_idx));
        if let Some(fs) = self.fine_sheets.as_mut() {
            let sig = src
                .fine_sheets
                .as_ref()
                .expect("source index built with fine signatures")
                .vector_owned(src_sheet_idx);
            fs.add(&sig);
        }
        let new_si = self.keys.len();
        self.keys.push(src.keys[src_sheet_idx]);
        self.meta.push(src.meta[src_sheet_idx].clone());
        self.regions_by_sheet.push(Vec::new());
        if self.fine_empty.is_empty() {
            self.fine_empty = src.fine_empty.clone();
            self.fine_invalid = src.fine_invalid.clone();
        }
        self.fine_cells.push(src.fine_cells[src_sheet_idx].clone());
        for &rid in &src.regions_by_sheet[src_sheet_idx] {
            self.regions_by_sheet[new_si].push(self.regions.len());
            self.regions.push(RegionEntry { sheet_idx: new_si, ..src.regions[rid].clone() });
            if let Some(dst) = self.coarse_region_vecs.as_mut() {
                let sv = src
                    .coarse_region_vecs
                    .as_ref()
                    .expect("source index built with coarse region vectors");
                dst.push_row_of(sv, rid);
            }
        }
    }

    /// Fold every sheet of `src` into `self`, in `src`'s sheet order
    /// (compaction: the older of two runs absorbs the newer).
    pub fn absorb(&mut self, src: &ReferenceIndex) {
        for si in 0..src.n_sheets() {
            self.append_sheet_from(src, si);
        }
    }

    pub fn n_sheets(&self) -> usize {
        self.keys.len()
    }

    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// Name and dimensions of an indexed sheet (by id, as returned in S1
    /// results and [`RegionEntry::sheet_idx`]).
    pub fn sheet_meta(&self, sheet_idx: usize) -> &SheetMeta {
        &self.meta[sheet_idx]
    }

    /// S1: top-K similar sheets by coarse embedding.
    pub fn similar_sheets(&self, coarse_query: &[f32], k: usize) -> Vec<af_ann::Neighbor> {
        self.coarse.search(coarse_query, k)
    }

    /// S1 under the fine-only ablation: top-K by fine top-left signature.
    pub fn similar_sheets_fine(&self, sig: &[f32], k: usize) -> Option<Vec<af_ann::Neighbor>> {
        self.fine_sheets.as_ref().map(|idx| idx.search(sig, k))
    }

    pub fn regions_of_sheet(&self, sheet_idx: usize) -> &[usize] {
        &self.regions_by_sheet[sheet_idx]
    }

    /// A gatherer over reference sheet `sheet_idx`.
    fn gather(&self, sheet_idx: usize) -> FineGather<'_> {
        FineGather::new(&self.fine_cells[sheet_idx], &self.fine_empty, &self.fine_invalid)
    }

    /// The fine embedding of the window centered at `center` of sheet
    /// `sheet_idx`: gathered from the sheet's cells and L2-normalized,
    /// exactly as [`SheetEmbedder::fine_window`] does on the query side.
    fn window_at(&self, sheet_idx: usize, center: CellRef) -> Vec<f32> {
        let cells = &self.fine_cells[sheet_idx];
        let mut out = vec![0.0f32; self.window.n_cells() * cells.vecs.dim()];
        self.gather(sheet_idx).window(self.window, WindowOrigin::Centered(center), &mut out);
        out
    }

    /// Fine region embedding of region `region_id` (unit norm).
    pub fn region_window(&self, region_id: usize) -> Vec<f32> {
        let entry = &self.regions[region_id];
        self.window_at(entry.sheet_idx, entry.cell)
    }

    /// Reference-side fine embedding of parameter `param_idx` of region
    /// `region_id` (parallel to [`RegionEntry::params`]) — what S3 searches
    /// the query sheet for.
    pub fn param_window(&self, region_id: usize, param_idx: usize) -> Vec<f32> {
        let entry = &self.regions[region_id];
        self.window_at(entry.sheet_idx, entry.params[param_idx])
    }

    /// Squared L2 distance between a unit-norm query window and the fine
    /// embedding of region `region_id`: its window is gathered and
    /// measured by the fused normalize-and-distance kernel, the bits of
    /// `l2_sq(query, region_window(region_id))`. One region at a time —
    /// S2 ranks whole sheets through
    /// [`ReferenceIndex::sheet_region_distances`], which is these same two
    /// calls over a shared strip.
    pub fn region_distance(&self, region_id: usize, query: &[f32]) -> f32 {
        let entry = &self.regions[region_id];
        let (rows, cols) = (self.window.rows as usize, self.window.cols as usize);
        let mut window = vec![0.0f32; query.len()];
        let origin = self.window.centered_origin(entry.cell);
        self.gather(entry.sheet_idx).rect(origin, rows, cols, &mut window);
        l2_sq_normalized(query, &window)
    }

    /// The S2 scan of one candidate sheet for a group of query windows:
    /// [`ReferenceIndex::region_distance`] of every region of `sheet_idx`
    /// to every query, bit for bit — without gathering a window per region
    /// or measuring a region's norm more than once. Region-major: the
    /// distance of region `ordinal` (in [`ReferenceIndex::regions_of_sheet`]
    /// order) to `queries[q]` is at `ordinal * queries.len() + q`. A single
    /// query is the one-window case.
    ///
    /// Formulas come in columns, and the windows of two formulas of one
    /// column less than `window.rows` rows apart overlap in all but the
    /// rows between them. So the sheet's regions are grouped per column
    /// into runs of such neighbours, each run's `(last − first + rows) ×
    /// cols` rectangle is gathered **once** at the first window's origin,
    /// and because that strip is exactly one window wide, the window of
    /// the formula in row `r` is the *contiguous slice* of it starting
    /// `(r − first)` strip rows down: scored in place against every query
    /// at once ([`l2_sq_normalized_many`]), nothing copied. A lone query
    /// has no queries to block, so it blocks windows instead: a run's
    /// windows are scored four at a time ([`l2_sq_normalized_each`]).
    ///
    /// `coarse` is the coarse-only ablation, one coarse window per query:
    /// when it is given and the index was built with coarse region
    /// vectors, the distances are those of the stored coarse vectors to
    /// it instead (laid out the same way).
    pub fn sheet_region_distances<'s>(
        &self,
        sheet_idx: usize,
        queries: &[&[f32]],
        coarse: Option<&[&[f32]]>,
        scratch: &'s mut StripScratch,
    ) -> &'s [f32] {
        let rids = &self.regions_by_sheet[sheet_idx];
        let StripScratch { order, strip, distances } = scratch;
        distances.clear();
        if let (Some(coarse), Some(table)) = (coarse, &self.coarse_region_vecs) {
            for &rid in rids {
                distances.extend(coarse.iter().map(|query| table.l2_sq(rid, query)));
            }
            return distances;
        }
        let nq = queries.len();
        let (rows, cols) = (self.window.rows as usize, self.window.cols as usize);
        let row_len = cols * self.fine_cells[sheet_idx].vecs.dim();
        let fine_dim = rows * row_len;
        order.clear();
        order.extend(rids.iter().enumerate().map(|(ordinal, &rid)| {
            let cell = self.regions[rid].cell;
            (cell.col, cell.row, ordinal as u32)
        }));
        order.sort_unstable();
        distances.resize(rids.len() * nq, 0.0);
        let gather = self.gather(sheet_idx);
        let mut run = &order[..];
        while let Some(&(col, first, _)) = run.first() {
            let mut n = 1;
            while n < run.len()
                && run[n].0 == col
                && run[n].1 - run[n - 1].1 < self.window.rows
                && run[n].1 - first <= STRIP_MAX_SPAN
            {
                n += 1;
            }
            let strip_rows = (run[n - 1].1 - first) as usize + rows;
            if strip.len() < strip_rows * row_len {
                strip.resize(strip_rows * row_len, 0.0);
            }
            let strip = &mut strip[..strip_rows * row_len];
            let origin = self.window.centered_origin(CellRef::new(first, col));
            gather.rect(origin, strip_rows, cols, strip);
            let window = |row: u32| &strip[(row - first) as usize * row_len..][..fine_dim];
            match queries {
                // A lone query scores the run's windows four at a time.
                [query] => {
                    for group in run[..n].chunks(4) {
                        let ws: [&[f32]; 4] =
                            std::array::from_fn(|i| window(group[i.min(group.len() - 1)].1));
                        let mut got = [0.0f32; 4];
                        l2_sq_normalized_each(query, &ws[..group.len()], &mut got[..group.len()]);
                        for (&(_, _, ordinal), d) in group.iter().zip(got) {
                            distances[ordinal as usize] = d;
                        }
                    }
                }
                _ => {
                    for &(_, row, ordinal) in &run[..n] {
                        let out = &mut distances[ordinal as usize * nq..][..nq];
                        l2_sq_normalized_many(queries, window(row), out);
                    }
                }
            }
            run = &run[n..];
        }
        distances
    }
}

fn sheet_meta(sheet: &Sheet) -> SheetMeta {
    let (rows, cols) = sheet.dims();
    SheetMeta { name: sheet.name().to_string(), rows, cols }
}

/// Coarse embedding of the window centered at a cell (uncached path; used
/// for the coarse-only ablation).
pub fn coarse_window(embedder: &SheetEmbedder<'_>, sheet: &Sheet, center: CellRef) -> Vec<f32> {
    let cfg = embedder.cfg();
    let raw = crate::features::raw_window(
        embedder.featurizer,
        sheet,
        cfg.window,
        WindowOrigin::Centered(center),
    );
    let n = cfg.n_cells();
    let fd = embedder.featurizer.dim();
    let reduced = embedder.model.reduce_cells(Tensor::new(vec![n, fd], raw));
    embedder.model.coarse_from_reduced(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AutoFormulaConfig;
    use crate::model::RepresentationModel;
    use af_corpus::organization::{OrgSpec, Scale};
    use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
    use af_grid::Cell;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn setup() -> (RepresentationModel, CellFeaturizer, af_corpus::OrgCorpus) {
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let model = RepresentationModel::new(featurizer.dim(), cfg);
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        (model, featurizer, corpus)
    }

    #[test]
    fn build_indexes_all_member_sheets_and_formulas() {
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..6.min(corpus.workbooks.len())).collect();
        let idx =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        let expected_sheets: usize = members.iter().map(|&w| corpus.workbooks[w].n_sheets()).sum();
        assert_eq!(idx.n_sheets(), expected_sheets);
        let expected_regions: usize =
            members.iter().map(|&w| corpus.workbooks[w].formula_count()).sum();
        assert_eq!(idx.n_regions(), expected_regions);
    }

    #[test]
    fn self_query_returns_self_sheet() {
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..5).collect();
        let idx =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        let emb = embedder.embed_sheet(&corpus.workbooks[2].sheets[0], false);
        let hits = idx.similar_sheets(&emb.coarse, 1);
        let key = idx.keys[hits[0].id];
        // The same sheet was indexed; its distance must be ~0.
        assert_eq!(key.workbook, 2);
        assert!(hits[0].dist < 1e-6);
    }

    #[test]
    fn optional_structures_built_on_request() {
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..3).collect();
        let idx = ReferenceIndex::build(
            &embedder,
            &corpus.workbooks,
            &members,
            IndexOptions { fine_sheet_signatures: true, coarse_regions: true },
        );
        let emb = embedder.embed_sheet(&corpus.workbooks[0].sheets[0], true);
        assert!(idx.similar_sheets_fine(emb.fine_topleft.as_ref().unwrap(), 2).is_some());
        // Region 0's stored coarse vector is its cell's coarse window.
        let entry = &idx.regions[0];
        let key = idx.keys[entry.sheet_idx];
        let sheet = &corpus.workbooks[key.workbook].sheets[key.sheet];
        let query = coarse_window(&embedder, sheet, entry.cell);
        let d = coarse_distances(&idx, entry.sheet_idx, &query);
        assert_eq!(d.len(), idx.regions_of_sheet(entry.sheet_idx).len());
        let at = idx.regions_of_sheet(entry.sheet_idx).iter().position(|&r| r == 0).unwrap();
        assert_eq!(d[at], 0.0);
        let plain =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        assert!(coarse_distances(&plain, entry.sheet_idx, &query).is_empty());
    }

    /// The coarse-only S2 distances of every region of `sheet_idx` to one
    /// coarse `query`: one per region when the index stores coarse region
    /// vectors, none otherwise.
    fn coarse_distances(idx: &ReferenceIndex, sheet_idx: usize, query: &[f32]) -> Vec<f32> {
        let mut scratch = StripScratch::default();
        idx.sheet_region_distances(sheet_idx, &[], Some(&[query]), &mut scratch).to_vec()
    }

    #[test]
    fn regions_carry_parameter_provenance() {
        // The self-contained index must hold, for every parseable formula,
        // its template parameter cells, and yield one reference-side fine
        // window per parameter — the data that used to require a live
        // borrow of the reference workbooks at predict time.
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..4).collect();
        let idx =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        let fine_dim = model.cfg.fine_dim();
        let mut with_params = 0usize;
        for (rid, entry) in idx.regions.iter().enumerate() {
            for (pi, _) in entry.params.iter().enumerate() {
                assert_eq!(idx.param_window(rid, pi).len(), fine_dim);
            }
            // Stored params must match a fresh template extraction.
            if let Ok(expr) = parse_formula(&entry.formula) {
                let (_, fresh) = Template::extract(&expr);
                assert_eq!(entry.params, fresh);
                with_params += !fresh.is_empty() as usize;
            }
        }
        assert!(with_params > 0, "corpus must contain parameterized formulas");
    }

    #[test]
    fn sheet_meta_recorded_per_sheet() {
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..3).collect();
        let mut idx =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        idx.add_workbook(&embedder, &corpus.workbooks[3], 3);
        for (si, key) in idx.keys.iter().enumerate() {
            let sheet = &corpus.workbooks[key.workbook].sheets[key.sheet];
            let meta = idx.sheet_meta(si);
            assert_eq!(meta.name, sheet.name());
            assert_eq!((meta.rows, meta.cols), sheet.dims());
        }
    }

    /// The three backends the parity tests sweep. IVF probes every list so
    /// rankings are exhaustive and independent of where the quantizer was
    /// trained (incremental and full builds see different corpora).
    fn backends() -> [AnnBackend; 3] {
        [
            AnnBackend::Flat,
            AnnBackend::Hnsw(af_ann::HnswParams::default()),
            AnnBackend::Ivf(af_ann::IvfParams {
                n_lists: 4,
                n_probe: usize::MAX,
                ..Default::default()
            }),
        ]
    }

    fn setup_with_backend(
        backend: AnnBackend,
    ) -> (RepresentationModel, CellFeaturizer, af_corpus::OrgCorpus) {
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig { ann_backend: backend, ..AutoFormulaConfig::test_tiny() };
        let model = RepresentationModel::new(featurizer.dim(), cfg);
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        (model, featurizer, corpus)
    }

    #[test]
    fn incremental_add_matches_full_build() {
        // Runs over all three backends and both option sets: incremental
        // growth must serve exactly like a from-scratch rebuild.
        for backend in backends() {
            for opts in [
                IndexOptions::default(),
                IndexOptions { fine_sheet_signatures: true, coarse_regions: true },
            ] {
                let (model, feat, corpus) = setup_with_backend(backend);
                let embedder = SheetEmbedder::new(&model, &feat);
                let members: Vec<usize> = (0..5).collect();
                let full = ReferenceIndex::build(&embedder, &corpus.workbooks, &members, opts);
                let mut incremental =
                    ReferenceIndex::build(&embedder, &corpus.workbooks, &members[..3], opts);
                incremental.add_workbook(&embedder, &corpus.workbooks[3], 3);
                incremental.add_workbook(&embedder, &corpus.workbooks[4], 4);
                let tag = format!("{backend:?} fine={}", opts.fine_sheet_signatures);
                assert_eq!(incremental.n_sheets(), full.n_sheets(), "{tag}");
                assert_eq!(incremental.n_regions(), full.n_regions(), "{tag}");
                // Coarse queries agree.
                let emb = embedder
                    .embed_sheet(&corpus.workbooks[4].sheets[0], opts.fine_sheet_signatures);
                let a: Vec<usize> =
                    full.similar_sheets(&emb.coarse, 3).iter().map(|n| n.id).collect();
                let b: Vec<usize> =
                    incremental.similar_sheets(&emb.coarse, 3).iter().map(|n| n.id).collect();
                assert_eq!(a, b, "{tag}");
                // Fine-signature queries agree too (when built).
                if opts.fine_sheet_signatures {
                    let sig = emb.fine_topleft.as_ref().unwrap();
                    let a: Vec<usize> = full
                        .similar_sheets_fine(sig, 3)
                        .expect("built with signatures")
                        .iter()
                        .map(|n| n.id)
                        .collect();
                    let b: Vec<usize> = incremental
                        .similar_sheets_fine(sig, 3)
                        .expect("grown with signatures")
                        .iter()
                        .map(|n| n.id)
                        .collect();
                    assert_eq!(a, b, "{tag}");
                }
                // Per-region lookups stay in bounds and consistent —
                // including the precomputed parameter provenance.
                for rid in 0..incremental.n_regions() {
                    assert_eq!(
                        incremental.region_window(rid),
                        full.region_window(rid),
                        "{tag} region {rid}"
                    );
                    assert_eq!(
                        incremental.regions[rid].params, full.regions[rid].params,
                        "{tag} region {rid}"
                    );
                    for pi in 0..full.regions[rid].params.len() {
                        assert_eq!(
                            incremental.param_window(rid, pi),
                            full.param_window(rid, pi),
                            "{tag} region {rid} param {pi}"
                        );
                    }
                }
                // Coarse region vectors exist exactly when requested and
                // rank like the full build's.
                let query = vec![0.5; model.cfg.coarse_dim];
                for si in 0..full.n_sheets() {
                    let d = coarse_distances(&incremental, si, &query);
                    let n = if opts.coarse_regions { full.regions_of_sheet(si).len() } else { 0 };
                    assert_eq!(d.len(), n, "{tag} sheet {si}");
                    assert_eq!(d, coarse_distances(&full, si, &query), "{tag} sheet {si}");
                }
            }
        }
    }

    #[test]
    fn add_workbook_keeps_optional_indexes_in_sync() {
        // Regression: `add_workbook` used to trust a caller-supplied
        // `IndexOptions`. A caller passing the (former) default options to
        // an index *built* with signatures+coarse-regions silently skipped
        // the fine-sheet add — every id returned by `similar_sheets_fine`
        // for later sheets was off by the number of skipped adds — and the
        // analogous desync made the coarse-only ranking of a new region
        // panic out of bounds.
        // Options are now derived from `self`, so the incremental path
        // cannot diverge from the build-time structures.
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..3).collect();
        let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
        let mut idx = ReferenceIndex::build(&embedder, &corpus.workbooks, &members, opts);
        idx.add_workbook(&embedder, &corpus.workbooks[3], 3);

        // Self-query through the fine-signature index must return the new
        // sheet's id (pre-fix: the signature was never indexed, so the id
        // either pointed at an old sheet or was absent entirely).
        let new_sheet_idx = idx.keys.iter().position(|k| k.workbook == 3).unwrap();
        let emb = embedder.embed_sheet(&corpus.workbooks[3].sheets[0], true);
        let hits = idx.similar_sheets_fine(emb.fine_topleft.as_ref().unwrap(), 1).unwrap();
        assert_eq!(hits[0].id, new_sheet_idx);
        assert!(hits[0].dist < 1e-6);

        // Every region added incrementally must have a coarse region vector
        // (pre-fix shape: `regions` grew while `coarse_region_vecs` could
        // not, panicking here).
        let query = vec![0.5; model.cfg.coarse_dim];
        let d = coarse_distances(&idx, new_sheet_idx, &query);
        assert_eq!(d.len(), idx.regions_of_sheet(new_sheet_idx).len());
    }

    #[test]
    fn regions_grouped_by_sheet() {
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..4).collect();
        let idx =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        for si in 0..idx.n_sheets() {
            for &rid in idx.regions_of_sheet(si) {
                assert_eq!(idx.regions[rid].sheet_idx, si);
            }
        }
    }

    #[test]
    fn absorb_into_an_empty_index_reproduces_the_original() {
        // Merge primitive round trip, with every optional table: fold the
        // sheets of two runs into one empty_like index, oldest first, and
        // everything — keys, metadata, regions, every region and
        // parameter window, both ANN indexes — must match the index built
        // in one go.
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..4).collect();
        let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
        let idx = ReferenceIndex::build(&embedder, &corpus.workbooks, &members, opts);
        let older = ReferenceIndex::build(&embedder, &corpus.workbooks, &members[..2], opts);
        let newer = ReferenceIndex::build(&embedder, &corpus.workbooks, &members[2..], opts);
        assert!(older.n_sheets() > 0 && newer.n_sheets() > 0);

        let mut merged = idx.empty_like(&model.cfg);
        merged.absorb(&older);
        merged.absorb(&newer);
        assert_eq!(merged.keys, idx.keys);
        assert_eq!(merged.n_regions(), idx.n_regions());
        for si in 0..idx.n_sheets() {
            assert_eq!(merged.sheet_meta(si), idx.sheet_meta(si));
        }
        for rid in 0..idx.n_regions() {
            assert_eq!(merged.regions[rid].formula, idx.regions[rid].formula);
            assert_eq!(merged.regions[rid].sheet_idx, idx.regions[rid].sheet_idx);
            assert_eq!(merged.region_window(rid), idx.region_window(rid), "region {rid}");
            for pi in 0..idx.regions[rid].params.len() {
                assert_eq!(merged.param_window(rid, pi), idx.param_window(rid, pi));
            }
        }
        // The rebuilt ANN index answers like the original.
        let emb = embedder.embed_sheet(&corpus.workbooks[1].sheets[0], true);
        let a: Vec<usize> = idx.similar_sheets(&emb.coarse, 3).iter().map(|n| n.id).collect();
        let b: Vec<usize> = merged.similar_sheets(&emb.coarse, 3).iter().map(|n| n.id).collect();
        assert_eq!(a, b);
        let sig = emb.fine_topleft.as_ref().unwrap();
        assert_eq!(
            idx.similar_sheets_fine(sig, 2).unwrap().iter().map(|n| n.id).collect::<Vec<_>>(),
            merged.similar_sheets_fine(sig, 2).unwrap().iter().map(|n| n.id).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn absorb_matches_direct_incremental_growth() {
        // Delta compaction: growing a base by absorbing a delta segment
        // must serve exactly like having added those sheets directly.
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..3).collect();
        let base =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());

        // The delta is an empty_like index grown incrementally.
        let mut delta = base.empty_like(&model.cfg);
        delta.add_workbook(&embedder, &corpus.workbooks[3], 3);

        let mut compacted = base.clone();
        compacted.absorb(&delta);
        let mut direct = base.clone();
        direct.add_workbook(&embedder, &corpus.workbooks[3], 3);

        assert_eq!(compacted.keys, direct.keys);
        assert_eq!(compacted.n_regions(), direct.n_regions());
        for rid in 0..direct.n_regions() {
            assert_eq!(compacted.region_window(rid), direct.region_window(rid), "region {rid}");
        }
        let emb = embedder.embed_sheet(&corpus.workbooks[3].sheets[0], false);
        let a = compacted.similar_sheets(&emb.coarse, 3);
        let b = direct.similar_sheets(&emb.coarse, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
    }

    #[test]
    fn clone_is_independent_of_the_original() {
        // The serving layer grows a *clone* while readers keep the
        // original: cloning must deep-copy the ANN structures.
        let (model, feat, corpus) = setup();
        let embedder = SheetEmbedder::new(&model, &feat);
        let members: Vec<usize> = (0..3).collect();
        let idx =
            ReferenceIndex::build(&embedder, &corpus.workbooks, &members, IndexOptions::default());
        let mut grown = idx.clone();
        grown.add_workbook(&embedder, &corpus.workbooks[3], 3);
        assert!(grown.n_sheets() > idx.n_sheets());
        let emb = embedder.embed_sheet(&corpus.workbooks[3].sheets[0], false);
        let hit = grown.similar_sheets(&emb.coarse, 1)[0];
        assert!(hit.dist < 1e-6, "clone indexed the new sheet");
        // The original must not have seen the add.
        assert_eq!(idx.similar_sheets(&emb.coarse, 1).len(), 1);
        assert!(idx.keys.iter().all(|k| k.workbook != 3));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The S2 scan one region at a time: what the strips must reproduce.
    fn per_region(index: &ReferenceIndex, sheet_idx: usize, query: &[f32]) -> Vec<f32> {
        index.regions_of_sheet(sheet_idx).iter().map(|&r| index.region_distance(r, query)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn strip_distances_have_the_bits_of_region_distance(
            cells in prop::collection::vec((0u32..150, 0u32..12, 0u32..4), 0..90),
            runs in prop::collection::vec(
                (0u32..12, 0u32..40, prop::collection::vec(0usize..5, 0..10)),
                1..5,
            ),
            long_run in 0u32..4,
            far: bool,
            tiny: bool,
            probes in prop::collection::vec((0u32..150, 0u32..12), 1..7),
        ) {
            // test_tiny: 12×5 windows of 4-float cells (20-float rows, not
            // a multiple of the 8 kernel lanes); default: 40×8 of 8.
            let cfg = if tiny { AutoFormulaConfig::test_tiny() } else { AutoFormulaConfig::default() };
            let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
            let model = RepresentationModel::new(featurizer.dim(), cfg);
            let embedder = SheetEmbedder::new(&model, &featurizer);
            let rows = cfg.window.rows;
            let mut sheet = Sheet::new("s");
            for &(r, c, kind) in &cells {
                let cell = match kind {
                    0 => Cell::new(format!("label {r}")),
                    _ => Cell::new((r * 7 + c * kind) as f64),
                };
                sheet.set(CellRef::new(r, c), cell);
            }
            // Formula columns (0..12 reaches the left edge, where windows
            // hang over into invalid slots): consecutive formulas 1, 2,
            // rows−1 (one strip), rows and rows+1 (a new strip) apart.
            let formula = |sheet: &mut Sheet, r: u32, c: u32| {
                sheet.set(CellRef::new(r, c), Cell::new(1.0).with_formula(format!("SUM(A{}:B{})", r + 1, r + 2)));
            };
            for (col, first, gaps) in &runs {
                let mut r = *first;
                formula(&mut sheet, r, *col);
                for &g in gaps {
                    r += [1, 2, rows - 1, rows, rows + 1][g];
                    formula(&mut sheet, r, *col);
                }
            }
            // One case in four: a dense column longer than the strip cap.
            if long_run == 0 {
                for r in 10..10 + STRIP_MAX_SPAN + 2 * rows {
                    formula(&mut sheet, r, 5);
                }
            }
            // Every other case: a formula so far down that the row index is
            // given up for the binary-search fallback.
            if far {
                formula(&mut sheet, 4_000_000, 3);
                sheet.set(CellRef::new(3_999_999, 2), Cell::new("far"));
            }
            let mut other = Sheet::new("o");
            formula(&mut other, 2, 1);
            formula(&mut other, 3, 1);
            let mut wb = Workbook::new("w");
            wb.push_sheet(sheet);
            wb.push_sheet(other);
            let workbooks = [wb];
            let index = ReferenceIndex::build(&embedder, &workbooks, &[0], IndexOptions::default());

            let query_sheet = &workbooks[0].sheets[0];
            let emb = embedder.embed_sheet(query_sheet, false);
            // 1–6 query windows: a lone query, a full block of the
            // many-query kernel, and left-overs beside it.
            let windows: Vec<Vec<f32>> = probes
                .iter()
                .map(|&(r, c)| {
                    embedder.fine_window(&emb, query_sheet, WindowOrigin::Centered(CellRef::new(r, c)))
                })
                .collect();
            let queries: Vec<&[f32]> = windows.iter().map(|w| w.as_slice()).collect();
            let nq = queries.len();
            // One scratch across sheets, as a ranking pass uses it: large
            // strips first, then small ones in the same buffers, then back.
            let mut scratch = StripScratch::default();
            for sheet_idx in [0, 1, 0] {
                let got = bits(index.sheet_region_distances(sheet_idx, &queries, None, &mut scratch));
                prop_assert_eq!(got.len(), index.regions_of_sheet(sheet_idx).len() * nq);
                for (q, query) in queries.iter().enumerate() {
                    let column: Vec<u32> = got.iter().skip(q).step_by(nq).copied().collect();
                    let want = per_region(&index, sheet_idx, query);
                    prop_assert_eq!(column, bits(&want), "sheet {} query {}", sheet_idx, q);
                }
            }
            // And one region at a time is gather, normalize, measure.
            for rid in 0..index.n_regions() {
                prop_assert_eq!(
                    index.region_distance(rid, queries[0]).to_bits(),
                    af_ann::l2_sq(queries[0], &index.region_window(rid)).to_bits(),
                    "region {}", rid
                );
            }
        }
    }

    #[test]
    fn a_long_formula_column_is_ranked_in_bounded_strips() {
        // Hostile sheet: 5 000 formulas down one column. S2 must serve the
        // bits of the per-region scan from a scratch that stays at the
        // strip cap, not one sized by the column.
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let model = RepresentationModel::new(featurizer.dim(), cfg);
        let embedder = SheetEmbedder::new(&model, &featurizer);
        let mut sheet = Sheet::new("ledger");
        for r in 0..5000u32 {
            sheet.set(CellRef::new(r, 1), Cell::new((r % 97) as f64));
            sheet.set(CellRef::new(r, 2), Cell::new(0.0).with_formula(format!("B{}*2", r + 1)));
        }
        let mut wb = Workbook::new("w");
        wb.push_sheet(sheet);
        let workbooks = [wb];
        let index = ReferenceIndex::build(&embedder, &workbooks, &[0], IndexOptions::default());
        assert_eq!(index.regions_of_sheet(0).len(), 5000);
        let sheet = &workbooks[0].sheets[0];
        let emb = embedder.embed_sheet(sheet, false);
        let query = embedder.fine_window(&emb, sheet, WindowOrigin::Centered(CellRef::new(700, 2)));
        let mut scratch = StripScratch::default();
        let got = bits(index.sheet_region_distances(0, &[&query], None, &mut scratch));
        assert_eq!(got, bits(&per_region(&index, 0, &query)));
        let row_len = cfg.window.cols as usize * cfg.fine_cell_dim;
        assert!(scratch.strip.len() <= (STRIP_MAX_SPAN + cfg.window.rows) as usize * row_len);
    }
}
