//! Self-contained recommendation artifacts.
//!
//! An artifact is everything the online pipeline needs, in one buffer:
//!
//! | section | id | contents |
//! |---|---|---|
//! | `CONFIG` | 1 | every [`AutoFormulaConfig`] field + the featurizer input dim |
//! | `FEATURIZER` | 2 | embedder name, dim, feature mask, trained vocabulary |
//! | `MODEL` | 3 | representation-model weights (`af_nn` snapshot blocks) |
//! | `INDEX` | 4 | the full [`ReferenceIndex`]: keys, sheet metadata, region provenance (formula, cell, parameter cells), every sheet's per-cell fine vectors, and the ANN structures of whichever backend built them (flat vectors / HNSW graph / IVF lists + centroids) |
//! | `SHARDS` | 5 | *(v3, legacy)* a per-sheet shard assignment that sharded servers of earlier versions wrote; never read |
//!
//! Layout: magic `AFAR`, version, a section table (id, offset, length —
//! offsets relative to the payload that follows the table), then the
//! payload. Unknown section ids are skipped on load, so future sections
//! can be added without breaking old readers.
//!
//! **Format v2** puts every embedding table behind an `af_store` block
//! with a per-section codec tag: exact `f32` (the default — bit-identical
//! round trips, zero-copy adoption), or `f16` ([`StoreOptions::codec`],
//! a quarter smaller; the ANN vectors serve through an asymmetric
//! distance kernel, the cell tables are dequantized once at load). The
//! fine branch is stored **once per cell**: each sheet's sorted
//! cell references beside one table of their fine vectors, plus the two
//! constant vectors — exactly what the index holds in memory, so a load
//! adopts it as it is and every region window is gathered from it at
//! query time. **Format v3** extends the CONFIG section with two serving
//! knobs (`n_shards`, `delta_max_sheets`; v2 artifacts decode with the
//! defaults). `n_shards` is still written and validated but nothing reads
//! it: serving keeps one partition. Sharded servers of earlier versions
//! also wrote a `SHARDS` section beside their index, which they had
//! already merged back into global sheet order. The loader never asks
//! for that section, so such an artifact loads as one partition in its
//! saved order. [`AutoFormula::save`] writes v3.
//!
//! **Removed layouts.** Format v1 and the v2/v3 *fat* fine layout (flag
//! byte 0: one normalized window per region and per parameter instead of
//! the cells) are rejected with a typed [`ArtifactError`]
//! (`UnsupportedVersion` / `Invalid`). Neither can be served — the index
//! no longer has window tables — nor converted exactly: normalization
//! discarded each window's scale, so the cells cannot be recovered from
//! the windows. Rebuild the index from the workbooks and save again.
//! Tables written with the removed int8 and product-quantized codecs
//! (store tags 3 and 4) load to the same typed error as any unknown tag:
//! [`StoreError::BadCodec`], bare or inside [`ArtifactError::Index`].
//!
//! [`AutoFormula::load`] reads from a byte slice;
//! [`AutoFormula::load_mmap`] maps the file page-on-demand instead, so
//! artifacts larger than RAM can serve (zero-copy tables then read
//! straight from the page cache).
//!
//! Decoding is hardened — every length, id, dimension, and quantization
//! parameter is validated, so truncated or bit-flipped artifacts return
//! [`ArtifactError`], never panic.

use crate::config::{AnnBackend, AutoFormulaConfig};
use crate::embedder::{tile_cols, SheetFineCells};
use crate::index::{ReferenceIndex, RegionEntry, SheetKey, SheetMeta, VecTable};
use crate::model::RepresentationModel;
use crate::pipeline::AutoFormula;
use af_ann::{CodecError, HnswParams, IvfParams};
use af_embed::FeaturizerCodecError;
use af_grid::{CellRef, ViewWindow};
use af_nn::serialize::SnapshotError;
use af_store::{Codec, StoreError, StoreSink, VectorStore};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::convert::Infallible;
use std::fmt;
use std::path::Path;

const MAGIC: u32 = 0x4146_4152; // "AFAR"
const VERSION: u16 = 3;
/// Versions [`AutoFormula::load`] accepts.
pub const SUPPORTED_VERSIONS: &[u16] = &[2, 3];

const SEC_CONFIG: u16 = 1;
const SEC_FEATURIZER: u16 = 2;
const SEC_MODEL: u16 = 3;
const SEC_INDEX: u16 = 4;
/// Sections every save writes: CONFIG, FEATURIZER, MODEL and INDEX.
const N_SECTIONS: usize = 4;

/// How [`AutoFormula::save_with`] encodes the embedding tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOptions {
    /// Storage codec for every embedding table (ANN vectors, per-sheet
    /// cell vectors, coarse region vectors). [`Codec::F32`] (the default)
    /// keeps bit-exact round trips; [`Codec::F16`] shrinks the file by a
    /// quarter, with recall and agreement measured in `BENCH_store.json`.
    pub codec: Codec,
    /// No longer read. It chose between the per-cell layout and a fat
    /// per-window one; the per-cell layout is now the only one, whatever
    /// this says. The field stays only because callers build this struct
    /// as a literal.
    pub compact_fine: bool,
}

/// Why an artifact failed to load. Wraps the layer-specific errors so
/// callers can `?` straight through and still reach the root cause via
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Not an artifact at all.
    BadMagic,
    /// The artifact's format version is not one this build reads.
    UnsupportedVersion { found: u16, supported: &'static [u16] },
    /// The buffer ended before the structure did (`&'static str` names the
    /// part being read).
    Truncated(&'static str),
    /// A required section is absent from the section table.
    MissingSection(&'static str),
    /// A structural invariant does not hold.
    Invalid(&'static str),
    /// The model weights failed to deserialize or fit the architecture.
    Model(SnapshotError),
    /// An ANN index payload failed to decode.
    Index(CodecError),
    /// The featurizer payload failed to decode.
    Featurizer(FeaturizerCodecError),
    /// An embedding-table store failed to decode.
    Store(StoreError),
    /// The artifact file could not be opened or mapped.
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => f.write_str("not an auto-formula artifact"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported artifact version {found} (this build reads {supported:?})")
            }
            ArtifactError::Truncated(what) => write!(f, "artifact truncated reading {what}"),
            ArtifactError::MissingSection(name) => write!(f, "artifact missing section {name}"),
            ArtifactError::Invalid(what) => write!(f, "invalid artifact: {what}"),
            ArtifactError::Model(_) => f.write_str("artifact model weights failed to load"),
            ArtifactError::Index(_) => f.write_str("artifact ANN index failed to load"),
            ArtifactError::Featurizer(_) => f.write_str("artifact featurizer failed to load"),
            ArtifactError::Store(_) => f.write_str("artifact embedding store failed to load"),
            ArtifactError::Io(e) => write!(f, "artifact file error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Model(e) => Some(e),
            ArtifactError::Index(e) => Some(e),
            ArtifactError::Featurizer(e) => Some(e),
            ArtifactError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ArtifactError {
    fn from(e: SnapshotError) -> Self {
        ArtifactError::Model(e)
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        ArtifactError::Index(e)
    }
}

impl From<FeaturizerCodecError> for ArtifactError {
    fn from(e: FeaturizerCodecError) -> Self {
        ArtifactError::Featurizer(e)
    }
}

impl From<StoreError> for ArtifactError {
    fn from(e: StoreError) -> Self {
        ArtifactError::Store(e)
    }
}

// ------------------------------------------------------------- primitives

fn get_u8(data: &mut Bytes, what: &'static str) -> Result<u8, ArtifactError> {
    data.try_get_u8().ok_or(ArtifactError::Truncated(what))
}

fn get_u16(data: &mut Bytes, what: &'static str) -> Result<u16, ArtifactError> {
    data.try_get_u16().ok_or(ArtifactError::Truncated(what))
}

fn get_u32(data: &mut Bytes, what: &'static str) -> Result<u32, ArtifactError> {
    data.try_get_u32().ok_or(ArtifactError::Truncated(what))
}

fn get_u64(data: &mut Bytes, what: &'static str) -> Result<u64, ArtifactError> {
    data.try_get_u64().ok_or(ArtifactError::Truncated(what))
}

fn get_f32(data: &mut Bytes, what: &'static str) -> Result<f32, ArtifactError> {
    data.try_get_f32().ok_or(ArtifactError::Truncated(what))
}

fn get_f64(data: &mut Bytes, what: &'static str) -> Result<f64, ArtifactError> {
    data.try_get_f64().ok_or(ArtifactError::Truncated(what))
}

/// Read a `u64` element count, rejecting counts the remaining buffer
/// cannot hold (`elem_bytes` is the minimum wire size of one element) so
/// corrupt lengths never drive huge allocations.
fn get_count(
    data: &mut Bytes,
    elem_bytes: usize,
    what: &'static str,
) -> Result<usize, ArtifactError> {
    let n = get_u64(data, what)? as usize;
    let need = n.checked_mul(elem_bytes).ok_or(ArtifactError::Truncated(what))?;
    if data.remaining() < need {
        return Err(ArtifactError::Truncated(what));
    }
    Ok(n)
}

fn put_string<S: StoreSink>(buf: &mut S, s: &str) {
    buf.write_u32(s.len() as u32);
    buf.write_bytes(s.as_bytes());
}

fn get_string(data: &mut Bytes, what: &'static str) -> Result<String, ArtifactError> {
    let len = get_u32(data, what)? as usize;
    if data.remaining() < len {
        return Err(ArtifactError::Truncated(what));
    }
    String::from_utf8(data.split_to(len).to_vec())
        .map_err(|_| ArtifactError::Invalid("string is not UTF-8"))
}

/// Embedding-table block, v2: an `af_store` store (codec tag + header +
/// pad-aligned little-endian payload), re-encoded into `codec` on the
/// way out. Embedding tables are the overwhelming bulk of an artifact;
/// alignment plus LE is what lets every codec adopt the block zero-copy
/// on load, so a cold start never materializes a second copy of them.
/// Alignment is section-local: `save_with` pads the section table and
/// every section body to a multiple of 4, so a local offset that is
/// 0 mod 4 is 0 mod 4 in the final buffer (and in a page-aligned mmap).
fn put_vec_table<S: StoreSink>(buf: &mut S, table: &VecTable, codec: Codec) {
    af_store::put_store_as(buf, table.store(), codec);
}

/// Run a boxed ANN index's `encode_with` (a `BytesMut`-only trait
/// method) against any sink, byte-identically: the encoder's pad runs
/// key off `len() % 4`, so staging into a scratch buffer pre-seeded to
/// the sink's current alignment reproduces the exact bytes an in-place
/// call would have written, and the seed prefix is dropped on copy-out.
fn encode_ann_index<S: StoreSink>(buf: &mut S, idx: &dyn af_ann::VectorIndex, codec: Codec) {
    let seed = buf.written() % 4;
    let mut staged = BytesMut::new();
    for _ in 0..seed {
        staged.put_u8(0);
    }
    idx.encode_with(&mut staged, codec);
    buf.write_bytes(&staged[seed..]);
}

fn get_vec_table(
    data: &mut Bytes,
    dim: usize,
    expect_rows: usize,
    what: &'static str,
) -> Result<VecTable, ArtifactError> {
    let store = af_store::get_store(data)?;
    if store.dim() != dim {
        return Err(ArtifactError::Invalid("embedding table has the wrong dimension"));
    }
    if store.rows() != expect_rows {
        let _ = what;
        return Err(ArtifactError::Invalid("embedding table has the wrong row count"));
    }
    Ok(VecTable::from_store(store))
}

fn put_cell<S: StoreSink>(buf: &mut S, cell: CellRef) {
    buf.write_u32(cell.row);
    buf.write_u32(cell.col);
}

fn get_cell(data: &mut Bytes, what: &'static str) -> Result<CellRef, ArtifactError> {
    let row = get_u32(data, what)?;
    let col = get_u32(data, what)?;
    Ok(CellRef { row, col })
}

// ----------------------------------------------------------- config codec

fn encode_config<S: StoreSink>(buf: &mut S, cfg: &AutoFormulaConfig, feat_dim: usize) {
    buf.write_u32(feat_dim as u32);
    buf.write_u32(cfg.window.rows);
    buf.write_u32(cfg.window.cols);
    buf.write_u64(cfg.reduce_hidden as u64);
    buf.write_u64(cfg.cell_dim as u64);
    buf.write_u64(cfg.fine_cell_dim as u64);
    buf.write_u64(cfg.coarse_channels.0 as u64);
    buf.write_u64(cfg.coarse_channels.1 as u64);
    buf.write_u64(cfg.coarse_dim as u64);
    buf.write_f32(cfg.margin);
    buf.write_f32(cfg.lr);
    buf.write_u64(cfg.episodes as u64);
    buf.write_u64(cfg.batch_size as u64);
    buf.write_u64(cfg.k_sheets as u64);
    buf.write_u64(cfg.neighborhood_d as u64);
    buf.write_f32(cfg.s3_anchor_lambda);
    buf.write_f32(cfg.theta_region);
    buf.write_u8(cfg.coarse_augmentation as u8);
    buf.write_u8(cfg.fine_augmentation as u8);
    buf.write_u64(cfg.seed);
    buf.write_u64(cfg.search_parallel_threshold as u64);
    buf.write_u64(cfg.search_threads as u64);
    buf.write_u64(cfg.embed_threads as u64);
    match cfg.ann_backend {
        AnnBackend::Flat => buf.write_u8(0),
        AnnBackend::Hnsw(p) => {
            buf.write_u8(1);
            buf.write_u64(p.m as u64);
            buf.write_u64(p.ef_construction as u64);
            buf.write_u64(p.ef_search as u64);
            buf.write_u64(p.seed);
        }
        AnnBackend::Ivf(p) => {
            buf.write_u8(2);
            buf.write_u64(p.n_lists as u64);
            buf.write_u64(p.n_probe as u64);
            buf.write_u64(p.kmeans_iters as u64);
            buf.write_u64(p.seed);
        }
    }
    // v3 tail: serving knobs. Older readers never reach these bytes (they
    // reject version 3 up front); older *artifacts* decode with the
    // defaults below. `n_shards` is written and validated, never served.
    buf.write_u64(cfg.n_shards as u64);
    buf.write_u64(cfg.delta_max_sheets as u64);
}

fn decode_config(
    data: &mut Bytes,
    version: u16,
) -> Result<(AutoFormulaConfig, usize), ArtifactError> {
    const W: &str = "config";
    let feat_dim = get_u32(data, W)? as usize;
    let window = ViewWindow::new(get_u32(data, W)?, get_u32(data, W)?);
    if feat_dim == 0 || window.n_cells() == 0 {
        return Err(ArtifactError::Invalid("config dimensions must be positive"));
    }
    let cfg = AutoFormulaConfig {
        window,
        reduce_hidden: get_u64(data, W)? as usize,
        cell_dim: get_u64(data, W)? as usize,
        fine_cell_dim: get_u64(data, W)? as usize,
        coarse_channels: (get_u64(data, W)? as usize, get_u64(data, W)? as usize),
        coarse_dim: get_u64(data, W)? as usize,
        margin: get_f32(data, W)?,
        lr: get_f32(data, W)?,
        episodes: get_u64(data, W)? as usize,
        batch_size: get_u64(data, W)? as usize,
        k_sheets: get_u64(data, W)? as usize,
        neighborhood_d: get_u64(data, W)? as i64,
        s3_anchor_lambda: get_f32(data, W)?,
        theta_region: get_f32(data, W)?,
        coarse_augmentation: get_u8(data, W)? != 0,
        fine_augmentation: get_u8(data, W)? != 0,
        seed: get_u64(data, W)?,
        search_parallel_threshold: get_u64(data, W)? as usize,
        search_threads: get_u64(data, W)? as usize,
        embed_threads: get_u64(data, W)? as usize,
        ann_backend: match get_u8(data, W)? {
            0 => AnnBackend::Flat,
            1 => AnnBackend::Hnsw(HnswParams {
                m: get_u64(data, W)? as usize,
                ef_construction: get_u64(data, W)? as usize,
                ef_search: get_u64(data, W)? as usize,
                seed: get_u64(data, W)?,
            }),
            2 => AnnBackend::Ivf(IvfParams {
                n_lists: get_u64(data, W)? as usize,
                n_probe: get_u64(data, W)? as usize,
                kmeans_iters: get_u64(data, W)? as usize,
                seed: get_u64(data, W)?,
            }),
            _ => return Err(ArtifactError::Invalid("unknown ANN backend tag")),
        },
        n_shards: if version >= 3 { get_u64(data, W)? as usize } else { 1 },
        delta_max_sheets: if version >= 3 { get_u64(data, W)? as usize } else { 64 },
        // Runtime serving knob, deliberately not on the wire (the v3
        // layout is pinned by PR-6 artifacts): loads get the default.
        backpressure_factor: 4,
    };
    // Positive and sane: a bit-flipped length field must be rejected here,
    // before the model constructor turns it into a giant allocation.
    const MAX_DIM: usize = 4096;
    const MAX_CELLS: usize = 1 << 20;
    for dim in [
        cfg.cell_dim,
        cfg.fine_cell_dim,
        cfg.coarse_dim,
        cfg.reduce_hidden,
        cfg.coarse_channels.0,
        cfg.coarse_channels.1,
        feat_dim,
    ] {
        if dim == 0 || dim > MAX_DIM {
            return Err(ArtifactError::Invalid("config dimension zero or implausibly large"));
        }
    }
    if cfg.n_cells() > MAX_CELLS {
        return Err(ArtifactError::Invalid("config window implausibly large"));
    }
    if cfg.n_shards > u32::MAX as usize {
        return Err(ArtifactError::Invalid("config shard count implausibly large"));
    }
    Ok((cfg, feat_dim))
}

// ------------------------------------------------------------ index codec

/// Fine-layout flag inside the INDEX section: per-sheet cell tables.
/// Flag 0 was the removed fat layout (a window per region and parameter).
const FINE_CELLS: u8 = 1;

fn encode_index<S: StoreSink>(
    buf: &mut S,
    index: &ReferenceIndex,
    codec: Codec,
    fine_cell_dim: usize,
) {
    buf.write_u64(index.keys.len() as u64);
    for key in &index.keys {
        buf.write_u64(key.workbook as u64);
        buf.write_u64(key.sheet as u64);
    }
    for meta in &index.meta {
        put_string(buf, &meta.name);
        buf.write_u32(meta.rows);
        buf.write_u32(meta.cols);
    }
    encode_ann_index(buf, index.coarse.as_ref(), codec);
    match &index.fine_sheets {
        Some(idx) => {
            buf.write_u8(1);
            encode_ann_index(buf, idx.as_ref(), codec);
        }
        None => buf.write_u8(0),
    }
    buf.write_u64(index.regions.len() as u64);
    for entry in &index.regions {
        buf.write_u64(entry.sheet_idx as u64);
        put_cell(buf, entry.cell);
        put_string(buf, &entry.formula);
        buf.write_u64(entry.params.len() as u64);
        for &param in &entry.params {
            put_cell(buf, param);
        }
    }
    debug_assert_eq!(index.fine_cells.len(), index.keys.len());
    buf.write_u8(FINE_CELLS);
    // Shared constant rows, always exact (they are two vectors). An index
    // with zero sheets never captured them; write zeros — no region will
    // ever gather them.
    let mut consts = VecTable::new(fine_cell_dim);
    if index.fine_empty.is_empty() {
        consts.push(&vec![0.0; fine_cell_dim]);
        consts.push(&vec![0.0; fine_cell_dim]);
    } else {
        consts.push(&index.fine_empty[..fine_cell_dim]);
        consts.push(&index.fine_invalid[..fine_cell_dim]);
    }
    put_vec_table(buf, &consts, Codec::F32);
    for sheet in &index.fine_cells {
        buf.write_u64(sheet.refs.len() as u64);
        for &at in &sheet.refs {
            put_cell(buf, at);
        }
        put_vec_table(buf, &sheet.vecs, codec);
    }
    match &index.coarse_region_vecs {
        Some(vecs) => {
            buf.write_u8(1);
            put_vec_table(buf, vecs, codec);
        }
        None => buf.write_u8(0),
    }
    // Reserved, always zero: anything time- or run-dependent here would
    // make two builds from the same inputs save different bytes.
    buf.write_f64(0.0);
}

fn decode_index(
    data: &mut Bytes,
    cfg: &AutoFormulaConfig,
) -> Result<ReferenceIndex, ArtifactError> {
    let fine_dim = cfg.fine_dim();
    let n_sheets = get_count(data, 16, "index keys")?;
    let mut keys = Vec::with_capacity(n_sheets);
    for _ in 0..n_sheets {
        keys.push(SheetKey {
            workbook: get_u64(data, "index keys")? as usize,
            sheet: get_u64(data, "index keys")? as usize,
        });
    }
    let mut meta = Vec::with_capacity(n_sheets);
    for _ in 0..n_sheets {
        meta.push(SheetMeta {
            name: get_string(data, "sheet meta")?,
            rows: get_u32(data, "sheet meta")?,
            cols: get_u32(data, "sheet meta")?,
        });
    }
    let coarse = af_ann::codec::load_index(data)?;
    if coarse.dim() != cfg.coarse_dim {
        return Err(ArtifactError::Invalid("coarse index dimension disagrees with config"));
    }
    if coarse.len() != n_sheets {
        return Err(ArtifactError::Invalid("coarse index size disagrees with sheet count"));
    }
    let fine_sheets = match get_u8(data, "fine-sheet index flag")? {
        0 => None,
        1 => {
            let idx = af_ann::codec::load_index(data)?;
            if idx.dim() != fine_dim {
                return Err(ArtifactError::Invalid(
                    "fine-signature index dimension disagrees with config",
                ));
            }
            if idx.len() != n_sheets {
                return Err(ArtifactError::Invalid(
                    "fine-signature index size disagrees with sheet count",
                ));
            }
            Some(idx)
        }
        _ => return Err(ArtifactError::Invalid("fine-sheet index flag must be 0 or 1")),
    };
    let n_regions = get_count(data, 8, "regions")?;
    let mut regions = Vec::with_capacity(n_regions);
    let mut regions_by_sheet = vec![Vec::new(); n_sheets];
    for rid in 0..n_regions {
        let sheet_idx = get_u64(data, "region entry")? as usize;
        if sheet_idx >= n_sheets {
            return Err(ArtifactError::Invalid("region sheet id out of range"));
        }
        let cell = get_cell(data, "region entry")?;
        let formula = get_string(data, "region formula")?;
        let n_params = get_count(data, 8, "region params")?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(get_cell(data, "region params")?);
        }
        regions_by_sheet[sheet_idx].push(rid);
        regions.push(RegionEntry { sheet_idx, cell, formula, params });
    }

    match get_u8(data, "fine layout flag")? {
        FINE_CELLS => {}
        0 => {
            return Err(ArtifactError::Invalid(
                "the fat fine layout (a stored window per region) was removed: \
                 rebuild the index from the workbooks and save it again",
            ))
        }
        _ => return Err(ArtifactError::Invalid("fine layout flag must be 1")),
    }
    let consts = get_vec_table(data, cfg.fine_cell_dim, 2, "fine constants")?;
    // A zero-sheet artifact wrote placeholder zero constants (nothing ever
    // captured them). Leave the index's constants *empty* in that case so
    // the first `add_workbook` captures the real model-derived rows —
    // adopting the zeros would silently poison every later window.
    let (fine_empty, fine_invalid) = if n_sheets == 0 {
        (Vec::new(), Vec::new())
    } else {
        let tile = tile_cols(cfg);
        (consts.row_owned(0).repeat(tile), consts.row_owned(1).repeat(tile))
    };
    let mut fine_cells = Vec::with_capacity(n_sheets);
    for _ in 0..n_sheets {
        let n_cells = get_count(data, 8, "sheet cell refs")?;
        let mut refs = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            refs.push(get_cell(data, "sheet cell refs")?);
        }
        if !refs.windows(2).all(|w| w[0] < w[1]) {
            return Err(ArtifactError::Invalid("sheet cell refs not strictly sorted"));
        }
        let vecs = get_vec_table(data, cfg.fine_cell_dim, n_cells, "sheet cells")?;
        fine_cells.push(SheetFineCells::new(refs, vecs));
    }

    let coarse_region_vecs = match get_u8(data, "coarse region flag")? {
        0 => None,
        1 => Some(get_vec_table(data, cfg.coarse_dim, n_regions, "coarse region vecs")?),
        _ => return Err(ArtifactError::Invalid("coarse region flag must be 0 or 1")),
    };
    let _reserved = get_f64(data, "reserved")?;

    Ok(ReferenceIndex {
        keys,
        meta,
        coarse,
        fine_sheets,
        regions,
        fine_cells,
        fine_empty,
        fine_invalid,
        window: cfg.window,
        coarse_region_vecs,
        regions_by_sheet,
    })
}

// ---------------------------------------------------------- save and load

/// A [`StoreSink`] streaming into a buffered temp file. I/O errors are
/// deferred — the encoders stay infallible, [`StoreSink::write_bytes`]
/// keeps counting bytes after a failure so pad alignment never skews, and
/// the save path surfaces the first error once in [`FileSink::finish`].
struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
    written: usize,
    err: Option<std::io::Error>,
}

impl FileSink {
    fn create(path: &Path) -> std::io::Result<FileSink> {
        let f = std::fs::File::create(path)?;
        Ok(FileSink { w: std::io::BufWriter::new(f), written: 0, err: None })
    }

    /// Flush the stream, seek back over the zeroed placeholder at offset
    /// 12 to write the now-known section table, and `fsync`. The caller
    /// renames into place afterwards, so readers never observe the
    /// placeholder.
    fn finish(mut self, table: &[(u16, u64, u64)]) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        if let Some(e) = self.err {
            return Err(e);
        }
        self.w.flush()?;
        let mut f = self.w.into_inner().map_err(|e| e.into_error())?;
        f.seek(SeekFrom::Start(12))?;
        let mut entries = BytesMut::with_capacity(table.len() * 18);
        for &(id, offset, len) in table {
            entries.put_u16(id);
            entries.put_u64(offset);
            entries.put_u64(len);
        }
        f.write_all(&entries)?;
        f.sync_all()
    }
}

impl StoreSink for FileSink {
    fn write_bytes(&mut self, s: &[u8]) {
        if self.err.is_none() {
            if let Err(e) = std::io::Write::write_all(&mut self.w, s) {
                self.err = Some(e);
            }
        }
        self.written += s.len();
    }

    fn written(&self) -> usize {
        self.written
    }
}

/// Write `bytes` to `path` atomically: a temporary file in the same
/// directory (same filesystem, so the final `rename(2)` is atomic) takes
/// the full write and an `fsync`, then replaces `path` in one step. On any
/// error the temporary is removed and `path` is left exactly as it was —
/// a process killed mid-save never publishes a torn artifact.
///
/// The `core::artifact_save` failpoint sits between two halves of the
/// write so the chaos suite can kill a save mid-file and assert the old
/// artifact still loads.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
    use std::io::Write;
    let io_err = |e: std::io::Error| ArtifactError::Io(e.to_string());
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact.afar");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    // Any failure from here on removes the temporary before returning.
    let write_all = |tmp: &Path| -> Result<(), ArtifactError> {
        let mut f = std::fs::File::create(tmp).map_err(io_err)?;
        let half = bytes.len() / 2;
        f.write_all(&bytes[..half]).map_err(io_err)?;
        crate::fail_point!("core::artifact_save", |e: crate::failpoint::Injected| Err(
            ArtifactError::Io(e.to_string())
        ));
        f.write_all(&bytes[half..]).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        Ok(())
    };
    match write_all(&tmp) {
        Ok(()) => std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(e)
        }),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

impl AutoFormula {
    /// Serialize the whole serving state — config, featurizer vocabulary,
    /// model weights, and the reference index with all its provenance —
    /// into one self-contained artifact (format v3, exact `f32`:
    /// bit-identical round trips).
    pub fn save(&self, index: &ReferenceIndex) -> Bytes {
        self.save_with(index, StoreOptions::default()).expect("an in-memory save cannot fail")
    }

    /// [`AutoFormula::save`] with an explicit [`StoreOptions::codec`]
    /// (quantized tables, smaller files; recall and agreement measured in
    /// `BENCH_store.json`). Never fails today; the `Result` is kept for
    /// callers written against it.
    pub fn save_with(
        &self,
        index: &ReferenceIndex,
        opts: StoreOptions,
    ) -> Result<Bytes, ArtifactError> {
        let _save = af_obs::span!("artifact::save");
        let mut sections: [(u16, BytesMut); N_SECTIONS] = [
            (SEC_CONFIG, {
                let mut b = BytesMut::new();
                encode_config(&mut b, self.cfg(), self.model.feat_dim);
                b
            }),
            (SEC_FEATURIZER, {
                let mut b = BytesMut::new();
                b.put_slice(&af_embed::save_featurizer(&self.featurizer));
                b
            }),
            (SEC_MODEL, {
                let mut b = BytesMut::new();
                b.put_slice(&self.model.to_bytes());
                b
            }),
            (SEC_INDEX, {
                let mut b = BytesMut::new();
                encode_index(&mut b, index, opts.codec, self.cfg().fine_cell_dim);
                b
            }),
        ];
        // Pad every section body to a multiple of 4 so section offsets stay
        // 4-byte aligned in the final buffer (the embedding-table blocks
        // inside INDEX rely on it for their zero-copy views; decoders of
        // the other sections ignore trailing bytes).
        for (_, body) in sections.iter_mut() {
            while body.len() % 4 != 0 {
                body.put_u8(0);
            }
        }
        let header = 12 + sections.len() * 18;
        let table_pad = (4 - header % 4) % 4;
        let payload: usize = sections.iter().map(|(_, b)| b.len()).sum();
        let mut buf = BytesMut::with_capacity(header + table_pad + payload);
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION);
        buf.put_u16(0); // flags, reserved
        buf.put_u32(sections.len() as u32);
        let mut offset = 0u64;
        for (id, body) in &sections {
            buf.put_u16(*id);
            buf.put_u64(offset);
            buf.put_u64(body.len() as u64);
            offset += body.len() as u64;
        }
        // Pad the section table so the payload base is 4-byte aligned for
        // any section count.
        for _ in 0..table_pad {
            buf.put_u8(0);
        }
        for (_, body) in &sections {
            buf.put_slice(body);
        }
        Ok(buf.freeze())
    }

    /// [`AutoFormula::save`] straight to a file, atomically: bytes are
    /// written to a temporary file *in the target directory* and renamed
    /// into place, so a crash (or injected fault) mid-write can never
    /// leave a torn `.afar` at `path` — readers see the old artifact or
    /// the new one, nothing in between. This is the write half of the
    /// "replace artifact files by rename, never in place" contract that
    /// [`AutoFormula::load_mmap`] relies on.
    pub fn save_to_path(&self, index: &ReferenceIndex, path: &Path) -> Result<(), ArtifactError> {
        self.save_to_path_with(index, StoreOptions::default(), None, path)
    }

    /// [`AutoFormula::save_to_path`] with explicit storage options.
    /// `no_layout` can only be `None`: the parameter once carried a
    /// serving shard layout and stays for the benchmark's call sites,
    /// until the benchmark next changes.
    ///
    /// Unlike [`AutoFormula::save_with`], which concatenates every
    /// section in memory, this **streams** each section straight into the
    /// temp file through a [`StoreSink`]: peak save memory stays bounded
    /// by the largest staged block (the section table and the ANN
    /// payloads) instead of scaling with the whole artifact. The bytes on
    /// disk are identical to the in-memory encoding — both paths run the
    /// same encoders, and pad runs align on the sink position — and the
    /// temp + `fsync` + rename contract of [`write_atomic`] is preserved,
    /// including the `core::artifact_save` failpoint mid-stream.
    pub fn save_to_path_with(
        &self,
        index: &ReferenceIndex,
        opts: StoreOptions,
        no_layout: Option<Infallible>,
        path: &Path,
    ) -> Result<(), ArtifactError> {
        if let Some(never) = no_layout {
            match never {}
        }
        let _save = af_obs::span!("artifact::save");
        let io_err = |e: std::io::Error| ArtifactError::Io(e.to_string());
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact.afar");
        let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
        // Any failure from here on removes the temporary before returning.
        let stream = |tmp: &Path| -> Result<(), ArtifactError> {
            let header = 12 + N_SECTIONS * 18;
            let table_pad = (4 - header % 4) % 4;
            let mut sink = FileSink::create(tmp).map_err(io_err)?;
            sink.write_u32(MAGIC);
            sink.write_u16(VERSION);
            sink.write_u16(0); // flags, reserved
            sink.write_u32(N_SECTIONS as u32);
            // Zeroed placeholder for the section table (+ alignment pad):
            // offsets and lengths are known only after streaming, so
            // `finish` seeks back and writes the real entries before the
            // fsync + rename publishes the file.
            sink.write_bytes(&vec![0u8; N_SECTIONS * 18 + table_pad]);
            let payload_base = sink.written();
            debug_assert_eq!(payload_base % 4, 0);
            let mut table: Vec<(u16, u64, u64)> = Vec::with_capacity(N_SECTIONS);
            // Pad the body to a multiple of 4 (the next section and the
            // embedding-table blocks inside it rely on the alignment) and
            // record the entry; lengths include the pad, like
            // `save_with`.
            let mut seal = |sink: &mut FileSink, id: u16, start: usize| {
                while !sink.written().is_multiple_of(4) {
                    sink.write_u8(0);
                }
                table.push((id, (start - payload_base) as u64, (sink.written() - start) as u64));
            };
            let mut start = sink.written();
            encode_config(&mut sink, self.cfg(), self.model.feat_dim);
            seal(&mut sink, SEC_CONFIG, start);
            start = sink.written();
            sink.write_bytes(&af_embed::save_featurizer(&self.featurizer));
            seal(&mut sink, SEC_FEATURIZER, start);
            start = sink.written();
            sink.write_bytes(&self.model.to_bytes());
            seal(&mut sink, SEC_MODEL, start);
            crate::fail_point!("core::artifact_save", |e: crate::failpoint::Injected| Err(
                ArtifactError::Io(e.to_string())
            ));
            start = sink.written();
            encode_index(&mut sink, index, opts.codec, self.cfg().fine_cell_dim);
            seal(&mut sink, SEC_INDEX, start);
            sink.finish(&table).map_err(io_err)
        };
        match stream(&tmp) {
            Ok(()) => std::fs::rename(&tmp, path).map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                io_err(e)
            }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Rebuild a complete serving state from an artifact produced by
    /// [`AutoFormula::save`] (format v2 or v3). The returned system
    /// and index reproduce the in-memory pipeline's predictions exactly
    /// when the artifact was written with the exact codec.
    pub fn load(data: &[u8]) -> Result<(AutoFormula, ReferenceIndex), ArtifactError> {
        AutoFormula::load_bytes_artifact(Bytes::from(data.to_vec()))
    }

    /// [`AutoFormula::load`] via `mmap(2)`: the artifact file is mapped
    /// page-on-demand instead of read into memory, so the zero-copy
    /// embedding tables serve straight from the page cache and artifacts
    /// larger than RAM stay loadable — only the pages queries touch
    /// become resident, and the kernel evicts cold ones under pressure.
    /// The mapping lives until the returned index (and every clone of its
    /// tables) drops. Replace artifact files by rename, never in place.
    pub fn load_mmap(path: &Path) -> Result<(AutoFormula, ReferenceIndex), ArtifactError> {
        let bytes = af_store::map_file(path).map_err(|e| ArtifactError::Io(e.to_string()))?;
        AutoFormula::load_bytes_artifact(bytes)
    }

    /// [`AutoFormula::load`] without the input copy: pass an owned
    /// [`Bytes`] (e.g. `Bytes::from(std::fs::read(path)?)` or an mmap via
    /// `af_store::map_file`) and sections are sliced out of it zero-copy.
    /// Sections the loader does not ask for — a legacy `SHARDS` section
    /// among them — are skipped.
    pub fn load_bytes_artifact(
        data: Bytes,
    ) -> Result<(AutoFormula, ReferenceIndex), ArtifactError> {
        crate::fail_point!("core::artifact_load", |e: crate::failpoint::Injected| Err(
            ArtifactError::Io(e.to_string())
        ));
        let _load = af_obs::span!("artifact::load");
        // For an mmap-backed load, prefetch the header + section table
        // page up front (it is about to be parsed sequentially). On heap
        // buffers or non-unix targets this is a no-op.
        af_store::advise(&data[..data.len().min(4096)], af_store::Advice::WillNeed);
        let mut head = data;
        if get_u32(&mut head, "magic")? != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = get_u16(&mut head, "version")?;
        if !SUPPORTED_VERSIONS.contains(&version) {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: SUPPORTED_VERSIONS,
            });
        }
        let _flags = get_u16(&mut head, "flags")?;
        let n_sections = get_u32(&mut head, "section table")? as usize;
        // Each table entry is 18 bytes; reject counts the buffer cannot hold.
        if n_sections > head.remaining() / 18 {
            return Err(ArtifactError::Truncated("section table"));
        }
        let mut table = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let id = get_u16(&mut head, "section table")?;
            let offset = get_u64(&mut head, "section table")? as usize;
            let len = get_u64(&mut head, "section table")? as usize;
            table.push((id, offset, len));
        }
        let table_pad = (4 - (12 + n_sections * 18) % 4) % 4;
        if head.remaining() < table_pad {
            return Err(ArtifactError::Truncated("section table"));
        }
        head.split_to(table_pad);
        let payload = head; // everything after the table
        let section = |id: u16, name: &'static str| -> Result<Bytes, ArtifactError> {
            let &(_, offset, len) = table
                .iter()
                .find(|&&(i, _, _)| i == id)
                .ok_or(ArtifactError::MissingSection(name))?;
            let end = offset.checked_add(len).ok_or(ArtifactError::Truncated(name))?;
            if end > payload.len() {
                return Err(ArtifactError::Truncated(name));
            }
            Ok(payload.slice(offset..end))
        };

        let (cfg, feat_dim) = decode_config(&mut section(SEC_CONFIG, "CONFIG")?, version)?;
        let featurizer = af_embed::load_featurizer(&mut section(SEC_FEATURIZER, "FEATURIZER")?)?;
        if featurizer.dim() != feat_dim {
            return Err(ArtifactError::Invalid(
                "featurizer dimension disagrees with the stored model input dim",
            ));
        }
        let mut model = RepresentationModel::new(feat_dim, cfg);
        model.load_bytes(section(SEC_MODEL, "MODEL")?)?;
        let mut index_bytes = section(SEC_INDEX, "INDEX")?;
        // The INDEX section is served zero-copy and its cell tables are
        // read a sheet here, a sheet there — tell the kernel not to waste
        // read-ahead on it.
        af_store::advise(&index_bytes, af_store::Advice::Random);
        let load_index = af_obs::span!("artifact::load_index");
        let index = decode_index(&mut index_bytes, &cfg)?;
        load_index.end();
        Ok((AutoFormula::from_model(model, featurizer), index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexOptions;
    use crate::pipeline::PipelineVariant;
    use af_corpus::organization::{OrgSpec, Scale};
    use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
    use std::sync::Arc;

    fn small_system() -> (AutoFormula, ReferenceIndex, af_corpus::OrgCorpus) {
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let af =
            AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
        let members: Vec<usize> = (0..4).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        (af, index, corpus)
    }

    fn assert_identical_predictions(
        a: &AutoFormula,
        ia: &ReferenceIndex,
        b: &AutoFormula,
        ib: &ReferenceIndex,
        corpus: &af_corpus::OrgCorpus,
    ) -> usize {
        let mut compared = 0usize;
        for wb in corpus.workbooks.iter().take(4) {
            for sheet in &wb.sheets {
                for (target, _) in sheet.formulas() {
                    let x = a.predict_with(ia, sheet, target, PipelineVariant::Full);
                    let y = b.predict_with(ib, sheet, target, PipelineVariant::Full);
                    match (x, y) {
                        (Some(x), Some(y)) => {
                            assert_eq!(x.formula, y.formula);
                            assert_eq!(x.s2_distance.to_bits(), y.s2_distance.to_bits());
                            assert_eq!(x.reference_sheet, y.reference_sheet);
                        }
                        (None, None) => {}
                        (x, y) => panic!("prediction mismatch: {x:?} vs {y:?}"),
                    }
                    compared += 1;
                }
            }
        }
        compared
    }

    #[test]
    fn artifact_round_trips_predictions() {
        let (af, index, corpus) = small_system();
        let bytes = af.save(&index);
        let (loaded, loaded_index) = AutoFormula::load(&bytes).expect("load");
        assert_eq!(loaded_index.n_sheets(), index.n_sheets());
        assert_eq!(loaded_index.n_regions(), index.n_regions());
        let compared = assert_identical_predictions(&af, &index, &loaded, &loaded_index, &corpus);
        assert!(compared > 0);
    }

    #[test]
    fn compact_layout_is_bit_identical_under_f32() {
        // The one layout there is: cells in, cells out. A reloaded index
        // gathers every region and parameter window, and predicts, with
        // the built index's bits.
        let (af, index, corpus) = small_system();
        let saved = af.save(&index);
        let (loaded, loaded_index) = AutoFormula::load(&saved).expect("load");
        for rid in 0..index.n_regions() {
            assert_eq!(loaded_index.region_window(rid), index.region_window(rid), "region {rid}");
            for pi in 0..index.regions[rid].params.len() {
                assert_eq!(loaded_index.param_window(rid, pi), index.param_window(rid, pi));
            }
        }
        let compared = assert_identical_predictions(&af, &index, &loaded, &loaded_index, &corpus);
        assert!(compared > 0);
        // Round and round: a re-save of the loaded index is as long.
        assert_eq!(loaded.save(&loaded_index).len(), saved.len());
        // `compact_fine` is no longer read: either value writes these bytes.
        for compact_fine in [false, true] {
            let opts = StoreOptions { codec: Codec::F32, compact_fine };
            assert_eq!(af.save_with(&index, opts).expect("save")[..], saved[..]);
        }
    }

    #[test]
    fn quantized_artifacts_load_and_serve() {
        // The default index, and one with both optional structures: its
        // coarse region vectors and fine signatures are f16 tables that
        // stay quantized after load, served by all three variants.
        let (af, index, corpus) = small_system();
        let members: Vec<usize> = (0..4).collect();
        let both = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
        let full_index = af.build_index(&corpus.workbooks, &members, both);
        let variants =
            [PipelineVariant::Full, PipelineVariant::CoarseOnly, PipelineVariant::FineOnly];
        for (index, variants) in [(&index, &variants[..1]), (&full_index, &variants[..])] {
            let exact = af.save(index);
            let opts = StoreOptions { codec: Codec::F16, ..StoreOptions::default() };
            let bytes = af.save_with(index, opts).expect("save");
            assert!(bytes.len() < exact.len(), "{opts:?} must shrink the artifact");
            let (loaded, loaded_index) = AutoFormula::load(&bytes).expect("load");
            assert_eq!(loaded_index.n_sheets(), index.n_sheets());
            assert_eq!(loaded_index.n_regions(), index.n_regions());
            // Quantized serving stays on the rails: predictions exist
            // and the self-query case still finds itself.
            let sheet = &corpus.workbooks[0].sheets[0];
            let (target, _) = sheet.formulas().next().expect("formula cell");
            for &variant in variants {
                let pred = loaded
                    .predict_with(&loaded_index, sheet, target, variant)
                    .unwrap_or_else(|| panic!("{variant:?} must serve"));
                assert!(pred.s2_distance < 1e-2, "{variant:?}: self-region distance");
            }
        }
    }

    #[test]
    fn zero_sheet_compact_artifact_grows_without_poisoned_constants() {
        // Regression: an artifact saved over zero sheets wrote placeholder
        // zero constant rows; loading it left *non-empty* all-zero
        // constants, so the `is_empty()` capture guard never fired on
        // later adds and every window gathered afterwards held zero
        // blank/out-of-bounds slots — silently wrong distances.
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        let cfg = AutoFormulaConfig::test_tiny();
        let af =
            AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
        let empty_index = af.build_index(&corpus.workbooks, &[], IndexOptions::default());
        let bytes = af.save(&empty_index);
        let (loaded, mut grown) = AutoFormula::load(&bytes).expect("zero-sheet load");

        // Grow the loaded index, re-save, reload: must serve exactly like
        // an in-memory index grown the same way.
        grown.add_workbook(&loaded.embedder(), &corpus.workbooks[0], 0);
        let mut reference = af.build_index(&corpus.workbooks, &[], IndexOptions::default());
        reference.add_workbook(&af.embedder(), &corpus.workbooks[0], 0);
        let again = loaded.save(&grown);
        let (af2, idx2) = AutoFormula::load(&again).expect("reload");
        assert_eq!(idx2.n_regions(), reference.n_regions());
        for rid in 0..reference.n_regions() {
            assert_eq!(idx2.region_window(rid), reference.region_window(rid), "region {rid}");
        }
        let sheet = &corpus.workbooks[0].sheets[0];
        let (target, _) = sheet.formulas().next().expect("formula cell");
        let a = af.predict_with(&reference, sheet, target, PipelineVariant::Full);
        let b = af2.predict_with(&idx2, sheet, target, PipelineVariant::Full);
        assert_eq!(a.map(|p| p.formula), b.map(|p| p.formula));
    }

    #[test]
    fn load_mmap_round_trips_bit_identically() {
        let (af, index, corpus) = small_system();
        let bytes = af.save(&index);
        let mut path = std::env::temp_dir();
        path.push(format!("af_artifact_mmap_{}.afar", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, loaded_index) = AutoFormula::load_mmap(&path).expect("mmap load");
        let compared = assert_identical_predictions(&af, &index, &loaded, &loaded_index, &corpus);
        assert!(compared > 0);
        drop(loaded_index); // release the mapping before unlinking
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            AutoFormula::load_mmap(Path::new("/no/such/artifact.afar")),
            Err(ArtifactError::Io(_))
        ));
    }

    #[test]
    fn loaded_index_keeps_sheet_meta() {
        let (af, index, _) = small_system();
        let bytes = af.save(&index);
        let (_, loaded_index) = AutoFormula::load(&bytes).unwrap();
        for si in 0..index.n_sheets() {
            assert_eq!(loaded_index.sheet_meta(si), index.sheet_meta(si));
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let (af, index, _) = small_system();
        let bytes = af.save(&index);
        assert_eq!(AutoFormula::load(b"not an artifact").err(), Some(ArtifactError::BadMagic));
        let mut flipped = bytes.to_vec();
        flipped[5] ^= 0xFF; // version byte
        match AutoFormula::load(&flipped).err() {
            Some(ArtifactError::UnsupportedVersion { found, supported }) => {
                assert_ne!(found, VERSION);
                assert_eq!(supported, SUPPORTED_VERSIONS);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn future_version_reports_unsupported_not_a_section_error() {
        // Regression: a future-versioned artifact must name the version
        // problem directly instead of failing on some section decode.
        let (af, index, _) = small_system();
        let mut bytes = af.save(&index).to_vec();
        bytes[4..6].copy_from_slice(&9u16.to_be_bytes());
        assert_eq!(
            AutoFormula::load(&bytes).err(),
            Some(ArtifactError::UnsupportedVersion { found: 9, supported: SUPPORTED_VERSIONS })
        );
    }

    #[test]
    fn two_builds_from_the_same_inputs_save_identical_bytes() {
        // A save is a function of the inputs alone: no clock, no address,
        // no thread timing reaches the bytes, under either codec.
        let (af_a, index_a, _) = small_system();
        let (af_b, index_b, _) = small_system();
        for codec in [Codec::F32, Codec::F16] {
            let opts = StoreOptions { codec, ..StoreOptions::default() };
            let a = af_a.save_with(&index_a, opts).unwrap();
            let b = af_b.save_with(&index_b, opts).unwrap();
            assert!(a == b, "{codec:?}: two builds saved different bytes");
        }
    }

    #[test]
    fn v3_config_fields_survive_the_round_trip() {
        let (af, index, _) = small_system();
        let bytes = af.save(&index);
        let (loaded, _) = AutoFormula::load(&bytes).expect("load");
        assert_eq!(loaded.cfg().n_shards, af.cfg().n_shards);
        assert_eq!(loaded.cfg().delta_max_sheets, af.cfg().delta_max_sheets);
    }

    #[test]
    fn artifact_error_exposes_source() {
        use std::error::Error;
        let e = ArtifactError::from(SnapshotError::BadMagic);
        assert!(e.source().is_some());
        let e = ArtifactError::from(CodecError::Truncated);
        assert!(e.source().is_some());
        let e = ArtifactError::from(FeaturizerCodecError::Truncated);
        assert!(e.source().is_some());
        let e = ArtifactError::from(StoreError::Truncated("x"));
        assert!(e.source().is_some());
        assert!(ArtifactError::BadMagic.source().is_none());
        // Display lines are distinct and non-empty all the way down.
        assert!(!ArtifactError::Truncated("x").to_string().is_empty());
        assert!(!ArtifactError::UnsupportedVersion { found: 9, supported: SUPPORTED_VERSIONS }
            .to_string()
            .is_empty());
    }
}
