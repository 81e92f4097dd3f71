//! Product quantization: the fourth codec behind [`crate::VectorStore`].
//!
//! A [`PqStore`] splits each `dim`-d vector into `m` contiguous subspaces
//! and stores one byte per subspace — the index of the nearest centroid in
//! a per-subspace codebook of 256 k-means-trained centroids. At the
//! default sub-row width of 8 that is a 32× reduction over f32 (vs int8's
//! 4×), and because each subspace is quantized against its *own* codebook
//! the codec dodges int8's long-row trap (one affine step stretched
//! over magnitude-heterogeneous concatenated cell vectors — see
//! ARCHITECTURE.md §5): callers that know the semantic cell width pick
//! `m = dim / cell_dim` so sub-quantizer boundaries coincide with cell
//! boundaries.
//!
//! Distances are **asymmetric** (ADC): for PQ, [`PqStore::l2_sq_row`] is
//! *defined* as the sum over subspaces of the exact squared L2 distance
//! between the query's sub-slice and the row's selected centroid —
//! accumulated in the shared 8-lane structure
//! ([`crate::kernel::adc_reference`]). A scan precomputes those
//! sub-distances once per query into an `m × 256` table
//! ([`PqStore::adc_table`]) and gathers per row
//! ([`crate::kernel::adc_gather`]); the two paths are bit-identical, so
//! fusing the table into a scan can never change a ranking.
//!
//! A store holds raw f32 rows (exact distances, raw wire image) until it
//! has seen [`PQ_TRAIN_MIN`] rows, then trains its codebooks and encodes —
//! so tiny tables (per-sheet cell tables, test corpora) stay exact and
//! only corpus-scale tables pay the quantization error. Training and bulk
//! encoding are deterministic at any thread count.

use crate::dense::{Codec, StoreError, VectorStore};
use crate::f16::{f16_to_f32, f32_to_f16};
use crate::kernel::{adc_gather, adc_reference};
use af_nn::kernel::l2_sq;
use bytes::Bytes;

/// Centroids per subspace (one code byte addresses them all).
pub const PQ_CENTROIDS: usize = 256;
/// Rows a pending store buffers before it trains its codebooks on push.
pub const PQ_TRAIN_MIN: usize = 256;
/// Rows sampled (strided) for k-means training.
const TRAIN_SAMPLE: usize = 1024;
/// Lloyd iterations per subspace.
const TRAIN_ITERS: usize = 8;

/// Resolve a configured subspace count: `0` means auto (sub-rows of ~8,
/// the fine-cell width of the default config), and any request is clamped
/// so every subspace spans at least one component.
pub fn resolve_m(dim: usize, m: usize) -> usize {
    assert!(dim > 0);
    if m == 0 {
        dim.div_ceil(8)
    } else {
        m.min(dim)
    }
}

/// Trained per-subspace codebooks: `m` blocks of [`PQ_CENTROIDS`]
/// centroids. Subspace `j` covers the contiguous component range
/// `sub_start(j) .. sub_start(j) + sub_len(j)` — `dim / m` components,
/// with the first `dim % m` subspaces one wider. Centroid values are
/// f16-rounded at train time, so the in-memory table and its wire image
/// are the same numbers and a save/load round trip is bit-exact.
#[derive(Debug, Clone)]
pub struct PqCodebook {
    dim: usize,
    m: usize,
    /// Concatenated per-subspace blocks, block `j` holding
    /// `PQ_CENTROIDS · sub_len(j)` values at offset `PQ_CENTROIDS ·
    /// sub_start(j)`; `PQ_CENTROIDS · dim` values total.
    centroids: Vec<f32>,
}

impl PqCodebook {
    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces (= code bytes per row).
    pub fn m(&self) -> usize {
        self.m
    }

    /// First component of subspace `j`.
    #[inline]
    pub fn sub_start(&self, j: usize) -> usize {
        j * (self.dim / self.m) + j.min(self.dim % self.m)
    }

    /// Component count of subspace `j`.
    #[inline]
    pub fn sub_len(&self, j: usize) -> usize {
        self.dim / self.m + usize::from(j < self.dim % self.m)
    }

    /// Centroid `c` of subspace `j` (`sub_len(j)` values).
    #[inline]
    pub fn centroid(&self, j: usize, c: usize) -> &[f32] {
        let len = self.sub_len(j);
        let at = PQ_CENTROIDS * self.sub_start(j) + c * len;
        &self.centroids[at..at + len]
    }

    /// Train codebooks over `rows · dim` values (row-major). Strided
    /// sampling caps the training set at `TRAIN_SAMPLE` (1024) rows; subspaces
    /// train independently (in parallel — each is a pure function of the
    /// sample, so the result is identical at any worker count). Non-finite
    /// components are treated as 0 so centroids are always finite.
    pub fn train(dim: usize, m: usize, data: &[f32]) -> PqCodebook {
        assert!(dim > 0);
        assert_eq!(data.len() % dim, 0);
        let n = data.len() / dim;
        assert!(n > 0, "cannot train on an empty table");
        let m = resolve_m(dim, m);
        let step = (n / TRAIN_SAMPLE).max(1);
        let sample_rows: Vec<usize> = (0..n).step_by(step).take(TRAIN_SAMPLE).collect();

        let mut book = PqCodebook { dim, m, centroids: vec![0.0; PQ_CENTROIDS * dim] };
        let starts: Vec<usize> = (0..m).map(|j| book.sub_start(j)).collect();
        let lens: Vec<usize> = (0..m).map(|j| book.sub_len(j)).collect();

        let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(m).max(1);
        let per = m.div_ceil(workers);
        let subspaces: Vec<usize> = (0..m).collect();
        let mut blocks: Vec<(usize, Vec<f32>)> = Vec::with_capacity(m);
        std::thread::scope(|s| {
            let handles: Vec<_> = subspaces
                .chunks(per)
                .map(|subs| {
                    let (starts, lens, sample_rows) = (&starts, &lens, &sample_rows);
                    s.spawn(move || {
                        subs.iter()
                            .map(|&j| {
                                (j, train_subspace(data, dim, starts[j], lens[j], sample_rows))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                blocks.extend(h.join().expect("pq training worker"));
            }
        });
        for (j, block) in blocks {
            let at = PQ_CENTROIDS * starts[j];
            book.centroids[at..at + block.len()].copy_from_slice(&block);
        }
        book
    }

    /// Encode one row: per subspace, the index of the nearest centroid
    /// (ties to the lowest index). Non-finite components are treated as 0,
    /// matching training.
    pub fn encode_into(&self, row: &[f32], out: &mut Vec<u8>) {
        assert_eq!(row.len(), self.dim);
        let mut sub = Vec::new();
        for j in 0..self.m {
            let start = self.sub_start(j);
            sub.clear();
            sub.extend(row[start..start + self.sub_len(j)].iter().map(|&x| sanitize(x)));
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..PQ_CENTROIDS {
                let d = l2_sq(&sub, self.centroid(j, c));
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            out.push(best as u8);
        }
    }

    /// Exact sub-distance between the query's subspace-`j` slice and
    /// centroid `c` — the value the ADC table caches at `j·256 + c`.
    #[inline]
    fn sub_dist(&self, query: &[f32], j: usize, c: u8) -> f32 {
        let start = self.sub_start(j);
        l2_sq(&query[start..start + self.sub_len(j)], self.centroid(j, c as usize))
    }

    fn wire_bytes(&self) -> usize {
        PQ_CENTROIDS * self.dim * 2
    }
}

#[inline]
fn sanitize(x: f32) -> f32 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Train one subspace's codebook: deterministic strided seeding + Lloyd
/// iterations over the sampled sub-rows, f16-rounded at the end.
fn train_subspace(
    data: &[f32],
    dim: usize,
    start: usize,
    len: usize,
    sample_rows: &[usize],
) -> Vec<f32> {
    let sn = sample_rows.len();
    let mut sample = Vec::with_capacity(sn * len);
    for &r in sample_rows {
        sample.extend(data[r * dim + start..r * dim + start + len].iter().map(|&x| sanitize(x)));
    }
    let point = |i: usize| &sample[i * len..(i + 1) * len];
    let k = PQ_CENTROIDS.min(sn);

    // Strided seeding over the (already strided) sample: distinct rows,
    // spread across the corpus, no RNG needed.
    let mut cents = Vec::with_capacity(k * len);
    for c in 0..k {
        cents.extend_from_slice(point(c * sn / k));
    }
    let mut assign = vec![0usize; sn];
    for _ in 0..TRAIN_ITERS {
        let mut changed = false;
        for (i, a) in assign.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let d = l2_sq(point(i), &cents[c * len..(c + 1) * len]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![0.0f32; k * len];
        let mut counts = vec![0usize; k];
        for (i, &c) in assign.iter().enumerate() {
            counts[c] += 1;
            for (s, &x) in sums[c * len..(c + 1) * len].iter_mut().zip(point(i)) {
                *s += x;
            }
        }
        for c in 0..k {
            let dst = &mut sums[c * len..(c + 1) * len];
            if counts[c] == 0 {
                // Deterministic re-seed: a Weyl-sequence pick over the
                // sample (no RNG, same result on every run).
                let i = (c.wrapping_add(1).wrapping_mul(0x9E37_79B9)) % sn;
                dst.copy_from_slice(point(i));
            } else {
                let inv = 1.0 / counts[c] as f32;
                for s in dst.iter_mut() {
                    *s *= inv;
                }
            }
            cents[c * len..(c + 1) * len].copy_from_slice(dst);
        }
    }
    // f16-round so memory == wire; pad unused slots with real centroids
    // (slot c mirrors c mod k) so every addressable code stays meaningful
    // and finite.
    let mut block = vec![0.0f32; PQ_CENTROIDS * len];
    for c in 0..PQ_CENTROIDS {
        let src = c % k;
        for (o, &x) in block[c * len..(c + 1) * len].iter_mut().zip(&cents[src * len..]) {
            *o = f16_to_f32(f32_to_f16(x));
        }
    }
    block
}

/// Per-query ADC lookup table: `m` blocks of 256 precomputed
/// sub-distances, built once by [`PqStore::adc_table`] and gathered per
/// row by [`PqStore::l2_sq_adc`].
#[derive(Debug, Clone)]
pub struct AdcTable {
    lut: Vec<f32>,
}

/// Row storage of a trained store: owned while growing, zero-copy view
/// when adopted from an artifact buffer.
#[derive(Debug, Clone)]
enum PqCodes {
    Owned(Vec<u8>),
    View(Bytes),
}

#[derive(Debug, Clone)]
enum PqState {
    /// Raw f32 rows, buffered until [`PQ_TRAIN_MIN`]; distances are exact.
    Pending(Vec<f32>),
    /// Trained codebooks + `rows · m` code bytes.
    Trained { book: PqCodebook, codes: PqCodes },
}

/// Product-quantized rows behind [`VectorStore`] — see the module docs
/// for the layout and the pending → trained lifecycle.
#[derive(Debug, Clone)]
pub struct PqStore {
    dim: usize,
    m: usize,
    rows: usize,
    state: PqState,
}

impl PqStore {
    /// An empty store of `dim`-d vectors with `m` subspaces (`0` = auto;
    /// see [`resolve_m`]). Starts pending: raw rows, exact distances.
    pub fn new(dim: usize, m: usize) -> PqStore {
        assert!(dim > 0);
        PqStore { dim, m: resolve_m(dim, m), rows: 0, state: PqState::Pending(Vec::new()) }
    }

    /// Bulk conversion: train on (a strided sample of) *all* of `store`'s
    /// rows when there are at least [`PQ_TRAIN_MIN`], then encode every
    /// row — in parallel over disjoint row ranges, so the result is
    /// bit-identical at any worker count. Below the threshold the rows
    /// stay pending (raw, exact).
    pub fn encode_all(store: &dyn VectorStore, m: usize) -> PqStore {
        let (dim, rows) = (store.dim(), store.rows());
        let mut flat = vec![0.0f32; rows * dim];
        for (i, chunk) in flat.chunks_exact_mut(dim).enumerate() {
            store.row_into(i, chunk);
        }
        if rows < PQ_TRAIN_MIN {
            return PqStore { dim, m: resolve_m(dim, m), rows, state: PqState::Pending(flat) };
        }
        PqStore::trained_from_rows(dim, m, &flat)
    }

    /// Train codebooks on `data` (row-major) and encode every row,
    /// regardless of row count — [`PqStore::encode_all`] above the
    /// threshold, and the forced path tests use to exercise the trained
    /// machinery on tiny inputs.
    pub fn trained_from_rows(dim: usize, m: usize, data: &[f32]) -> PqStore {
        let book = PqCodebook::train(dim, m, data);
        let rows = data.len() / dim;
        let m = book.m();
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).clamp(1, 8);
        let per = rows.div_ceil(workers).max(1);
        let mut codes = vec![0u8; rows * m];
        std::thread::scope(|s| {
            // Disjoint row ranges into disjoint output chunks: encoding is
            // a pure per-row function, so the byte image is independent of
            // the split.
            let mut rest: &mut [u8] = &mut codes;
            let mut row0 = 0usize;
            let mut handles = Vec::new();
            while row0 < rows {
                let take = per.min(rows - row0);
                let (chunk, tail) = rest.split_at_mut(take * m);
                rest = tail;
                let book = &book;
                handles.push(s.spawn(move || {
                    let mut out = Vec::with_capacity(take * m);
                    for r in row0..row0 + take {
                        book.encode_into(&data[r * dim..(r + 1) * dim], &mut out);
                    }
                    chunk.copy_from_slice(&out);
                }));
                row0 += take;
            }
            for h in handles {
                h.join().expect("pq encode worker");
            }
        });
        PqStore { dim, m, rows, state: PqState::Trained { book, codes: PqCodes::Owned(codes) } }
    }

    /// Whether codebooks have been trained (false = raw pending rows).
    pub fn is_trained(&self) -> bool {
        matches!(self.state, PqState::Trained { .. })
    }

    /// The trained codebook, when there is one.
    pub fn codebook(&self) -> Option<&PqCodebook> {
        match &self.state {
            PqState::Trained { book, .. } => Some(book),
            PqState::Pending(_) => None,
        }
    }

    fn codes(&self) -> &[u8] {
        match &self.state {
            PqState::Trained { codes: PqCodes::Owned(v), .. } => v,
            PqState::Trained { codes: PqCodes::View(b), .. } => b,
            PqState::Pending(_) => &[],
        }
    }

    /// Code row `i` (`m` bytes) — trained stores only.
    pub fn row_codes(&self, i: usize) -> &[u8] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        assert!(self.is_trained(), "pending PQ stores have no code rows");
        &self.codes()[i * self.m..(i + 1) * self.m]
    }

    /// Precompute the per-query `m × 256` sub-distance table — `None`
    /// while pending (scan raw rows exactly instead). Building it costs
    /// about as much as 256 row distances, so it amortizes over any scan
    /// longer than that (and trained stores hold ≥ [`PQ_TRAIN_MIN`] rows).
    pub fn adc_table(&self, query: &[f32]) -> Option<AdcTable> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let book = self.codebook()?;
        let mut lut = vec![0.0f32; book.m() * PQ_CENTROIDS];
        for j in 0..book.m() {
            for (c, slot) in lut[j * PQ_CENTROIDS..(j + 1) * PQ_CENTROIDS].iter_mut().enumerate() {
                *slot = book.sub_dist(query, j, c as u8);
            }
        }
        Some(AdcTable { lut })
    }

    /// Fused table-gather distance to row `i` — bit-identical to
    /// [`PqStore::l2_sq_row`] with the query the table was built from.
    #[inline]
    pub fn l2_sq_adc(&self, table: &AdcTable, i: usize) -> f32 {
        adc_gather(&table.lut, self.row_codes(i))
    }
}

impl VectorStore for PqStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn codec(&self) -> Codec {
        Codec::Pq { m: self.m as u16 }
    }

    fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        match &mut self.state {
            PqState::Pending(raw) => {
                raw.extend_from_slice(v);
                self.rows += 1;
                if self.rows >= PQ_TRAIN_MIN {
                    *self = PqStore::trained_from_rows(self.dim, self.m, raw);
                }
            }
            PqState::Trained { book, codes } => {
                if let PqCodes::View(b) = codes {
                    *codes = PqCodes::Owned(b.to_vec());
                }
                let PqCodes::Owned(out) = codes else { unreachable!("just converted") };
                book.encode_into(v, out);
                self.rows += 1;
            }
        }
    }

    fn row_into(&self, i: usize, out: &mut [f32]) {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        match &self.state {
            PqState::Pending(raw) => out.copy_from_slice(&raw[i * self.dim..(i + 1) * self.dim]),
            PqState::Trained { book, .. } => {
                for (j, &c) in self.row_codes(i).iter().enumerate() {
                    let start = book.sub_start(j);
                    out[start..start + book.sub_len(j)].copy_from_slice(book.centroid(j, c.into()));
                }
            }
        }
    }

    /// For PQ this is *defined* as the ADC sum — per subspace, the exact
    /// squared L2 between the query's sub-slice and the selected centroid,
    /// accumulated in the shared lane structure. (Unlike the scalar
    /// codecs it is not the dequantize-then-`l2_sq` reduction order; see
    /// the module docs.) Pending stores compute the exact f32 distance.
    fn l2_sq_row(&self, query: &[f32], i: usize) -> f32 {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        match &self.state {
            PqState::Pending(raw) => l2_sq(query, &raw[i * self.dim..(i + 1) * self.dim]),
            PqState::Trained { book, .. } => {
                adc_reference(self.row_codes(i), |j, c| book.sub_dist(query, j, c))
            }
        }
    }

    fn encoded_vector_bytes(&self) -> usize {
        match &self.state {
            PqState::Pending(_) => self.rows * self.dim * 4,
            PqState::Trained { book, .. } => self.rows * self.m + book.wire_bytes(),
        }
    }
}

// ------------------------------------------------------------------ wire
//
// Payload after the shared `tag·dim·rows·pad` store header:
//   m        u16  BE   subspace count (1 ..= dim)
//   trained  u8        0 = pending, 1 = trained
//   pad-run            re-aligns to 4
//   if trained: 256·dim f16 LE centroid values (per-subspace blocks),
//               then rows·m code bytes (adopted zero-copy)
//   if pending: rows·dim f32 LE raw values
// Validation mirrors int8: counts bounded by the remaining buffer,
// centroids must all be finite (a bit-flipped exponent would otherwise
// poison every distance this table ever serves).

pub(crate) fn put_pq<S: crate::StoreSink>(buf: &mut S, store: &PqStore) {
    buf.write_u16(store.m as u16);
    buf.write_u8(store.is_trained() as u8);
    crate::dense::put_pad(buf);
    match &store.state {
        PqState::Pending(raw) => {
            for &x in raw {
                buf.write_bytes(&x.to_le_bytes());
            }
        }
        PqState::Trained { book, .. } => {
            for &x in &book.centroids {
                buf.write_bytes(&f32_to_f16(x).to_le_bytes());
            }
            buf.write_bytes(store.codes());
        }
    }
}

pub(crate) fn get_pq(data: &mut Bytes, dim: usize, rows: usize) -> Result<PqStore, StoreError> {
    use bytes::Buf;
    const W: &str = "pq store";
    let m = data.try_get_u16().ok_or(StoreError::Truncated(W))? as usize;
    let trained = data.try_get_u8().ok_or(StoreError::Truncated(W))?;
    if m == 0 || m > dim {
        return Err(StoreError::Invalid("pq subspace count out of range"));
    }
    if trained > 1 {
        return Err(StoreError::Invalid("pq trained flag out of range"));
    }
    crate::dense::get_pad(data, W)?;
    if trained == 0 {
        let need =
            rows.checked_mul(dim).and_then(|e| e.checked_mul(4)).ok_or(StoreError::Truncated(W))?;
        let block = crate::dense::take_block(data, need, "pq pending rows")?;
        let mut raw = vec![0.0f32; rows * dim];
        for (o, chunk) in raw.iter_mut().zip(block.chunks_exact(4)) {
            *o = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        return Ok(PqStore { dim, m, rows, state: PqState::Pending(raw) });
    }
    let cent_bytes = PQ_CENTROIDS * dim * 2;
    let block = crate::dense::take_block(data, cent_bytes, "pq centroids")?;
    let mut centroids = vec![0.0f32; PQ_CENTROIDS * dim];
    for (o, chunk) in centroids.iter_mut().zip(block.chunks_exact(2)) {
        let bits = u16::from_le_bytes(chunk.try_into().expect("2-byte chunk"));
        // f16 non-finite ⇔ all exponent bits set; reject before the bits
        // can reach a distance.
        if bits & 0x7C00 == 0x7C00 {
            return Err(StoreError::Invalid("pq centroid not finite"));
        }
        *o = f16_to_f32(bits);
    }
    let need = rows.checked_mul(m).ok_or(StoreError::Truncated(W))?;
    let codes = crate::dense::take_block(data, need, "pq codes")?;
    let codes = if codes.is_empty() { PqCodes::Owned(Vec::new()) } else { PqCodes::View(codes) };
    let book = PqCodebook { dim, m, centroids };
    Ok(PqStore { dim, m, rows, state: PqState::Trained { book, codes } })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{get_store, put_store, DenseStore};
    use bytes::BytesMut;

    fn vec_of(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 30) as f32 - 2.0) * 1.5
            })
            .collect()
    }

    fn rows_flat(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut flat = Vec::with_capacity(rows * dim);
        for r in 0..rows {
            flat.extend(vec_of(dim, seed.wrapping_add(r as u64)));
        }
        flat
    }

    #[test]
    fn resolve_m_defaults_and_clamps() {
        assert_eq!(resolve_m(64, 0), 8);
        assert_eq!(resolve_m(2560, 0), 320);
        assert_eq!(resolve_m(17, 0), 3);
        assert_eq!(resolve_m(4, 9), 4);
        assert_eq!(resolve_m(12, 3), 3);
    }

    #[test]
    fn subspace_boundaries_tile_the_dimension() {
        for (dim, m) in [(17, 3), (8, 8), (64, 8), (10, 4)] {
            let book = PqCodebook::train(dim, m, &rows_flat(4, dim, 7));
            let mut at = 0;
            for j in 0..book.m() {
                assert_eq!(book.sub_start(j), at, "dim={dim} m={m} j={j}");
                at += book.sub_len(j);
            }
            assert_eq!(at, dim, "dim={dim} m={m}");
        }
    }

    #[test]
    fn pending_rows_are_exact_and_round_trip() {
        let dim = 17;
        let mut s = PqStore::new(dim, 0);
        let data: Vec<Vec<f32>> = (0..5).map(|r| vec_of(dim, r)).collect();
        for r in &data {
            s.push(r);
        }
        assert!(!s.is_trained());
        for (i, r) in data.iter().enumerate() {
            assert_eq!(&s.row_owned(i), r, "pending rows must be exact");
            let q = vec_of(dim, 99);
            assert_eq!(s.l2_sq_row(&q, i).to_bits(), l2_sq(&q, r).to_bits());
        }
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Pq(s.clone()));
        let loaded = get_store(&mut buf.freeze()).unwrap();
        assert_eq!(loaded.codec(), s.codec());
        for i in 0..s.rows() {
            assert_eq!(loaded.row_owned(i), s.row_owned(i));
        }
    }

    #[test]
    fn push_past_the_threshold_trains() {
        let dim = 16;
        let mut s = PqStore::new(dim, 0);
        for r in 0..PQ_TRAIN_MIN + 10 {
            s.push(&vec_of(dim, r as u64));
            assert_eq!(s.is_trained(), r + 1 >= PQ_TRAIN_MIN, "row {r}");
        }
        assert_eq!(s.rows(), PQ_TRAIN_MIN + 10);
        assert_eq!(s.row_codes(0).len(), 2);
        // Quantized rows stay inside the data's range: 256 centroids per
        // 8-wide subspace over ~266 samples is coarse, but every decoded
        // component must land within the [-3, 0) input span (a bound that
        // only breaks if codes address garbage). Accuracy proper is gated
        // by the recall/agreement benchmarks, not this smoke test.
        let span = 3.0f32;
        let mut err = 0.0f32;
        for i in 0..s.rows() {
            let orig = vec_of(dim, i as u64);
            let dq = s.row_owned(i);
            err = err.max(orig.iter().zip(&dq).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max));
        }
        assert!(err < span, "max component error {err}");
    }

    #[test]
    fn fused_adc_is_bit_identical_to_l2_sq_row() {
        // The tentpole equivalence: table-gather == table-free definition,
        // bit for bit, across remainder-lane subspace counts.
        for (dim, m) in [(8, 1), (16, 2), (24, 3), (72, 9), (68, 0)] {
            let s = PqStore::trained_from_rows(dim, m, &rows_flat(40, dim, 3));
            for qseed in 0..4u64 {
                let q = vec_of(dim, 1000 + qseed);
                let table = s.adc_table(&q).expect("trained");
                for i in 0..s.rows() {
                    assert_eq!(
                        s.l2_sq_adc(&table, i).to_bits(),
                        s.l2_sq_row(&q, i).to_bits(),
                        "dim={dim} m={m} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn trained_wire_round_trip_is_bit_exact() {
        use bytes::Buf;
        let (dim, m) = (20, 4);
        let s = PqStore::trained_from_rows(dim, m, &rows_flat(30, dim, 11));
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Pq(s.clone()));
        let mut data = buf.freeze();
        let loaded = get_store(&mut data).expect("round trip");
        assert_eq!(data.remaining(), 0, "decode must consume exactly what encode wrote");
        let DenseStore::Pq(l) = &loaded else { panic!("pq") };
        assert!(l.is_trained());
        let q = vec_of(dim, 77);
        for i in 0..s.rows() {
            assert_eq!(l.row_codes(i), s.row_codes(i), "row {i}");
            assert_eq!(l.row_owned(i), s.row_owned(i), "row {i}");
            assert_eq!(l.l2_sq_row(&q, i).to_bits(), s.l2_sq_row(&q, i).to_bits(), "row {i}");
        }
    }

    #[test]
    fn trained_truncation_at_every_offset_errors_never_panics() {
        let s = PqStore::trained_from_rows(6, 2, &rows_flat(8, 6, 5));
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Pq(s));
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut head = bytes.slice(0..cut);
            assert!(get_store(&mut head).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn non_finite_centroids_and_bad_headers_rejected() {
        let s = PqStore::trained_from_rows(6, 2, &rows_flat(8, 6, 5));
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Pq(s));
        let good = buf.freeze().to_vec();
        // Locate the payload: tag(1) dim(4) rows(8) pad-run, then m(2)
        // trained(1) pad-run, then centroids.
        let pad0 = good[13] as usize;
        let m_at = 14 + pad0;
        let pad1 = good[m_at + 3] as usize;
        let cents_at = m_at + 4 + pad1;
        // An f16 Inf bit pattern in the first centroid must be rejected.
        let mut inf_cent = good.clone();
        inf_cent[cents_at..cents_at + 2].copy_from_slice(&0x7C00u16.to_le_bytes());
        assert!(matches!(
            get_store(&mut Bytes::from(inf_cent)).err(),
            Some(StoreError::Invalid(_))
        ));
        // And an f16 NaN.
        let mut nan_cent = good.clone();
        nan_cent[cents_at..cents_at + 2].copy_from_slice(&0x7E01u16.to_le_bytes());
        assert!(matches!(
            get_store(&mut Bytes::from(nan_cent)).err(),
            Some(StoreError::Invalid(_))
        ));
        // m = 0 and m > dim are structural errors.
        let mut zero_m = good.clone();
        zero_m[m_at..m_at + 2].copy_from_slice(&0u16.to_be_bytes());
        assert!(matches!(get_store(&mut Bytes::from(zero_m)).err(), Some(StoreError::Invalid(_))));
        let mut big_m = good.clone();
        big_m[m_at..m_at + 2].copy_from_slice(&7u16.to_be_bytes());
        assert!(matches!(get_store(&mut Bytes::from(big_m)).err(), Some(StoreError::Invalid(_))));
        // A trained flag beyond 1 is rejected too.
        let mut bad_flag = good.clone();
        bad_flag[m_at + 2] = 2;
        assert!(matches!(
            get_store(&mut Bytes::from(bad_flag)).err(),
            Some(StoreError::Invalid(_))
        ));
        // Flipping trained → 0 reinterprets the payload as raw pending
        // rows. Use a store whose trained payload is *smaller* than the
        // pending image would be (150·6·4 raw bytes > 256·6·2 centroid
        // bytes + 150·2 codes), so the reinterpretation must fail bounded
        // — never read past the buffer, never panic.
        let big = PqStore::trained_from_rows(6, 2, &rows_flat(150, 6, 5));
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Pq(big));
        let mut flag0 = buf.freeze().to_vec();
        let pad0 = flag0[13] as usize;
        flag0[14 + pad0 + 2] = 0;
        assert!(get_store(&mut Bytes::from(flag0)).is_err());
    }

    #[test]
    fn trained_store_grows_by_encoding_new_rows() {
        let dim = 12;
        let mut s = PqStore::trained_from_rows(dim, 3, &rows_flat(32, dim, 21));
        let before = s.rows();
        let v = vec_of(dim, 500);
        s.push(&v);
        assert_eq!(s.rows(), before + 1);
        assert_eq!(s.row_codes(before).len(), 3);
        // The pushed row decodes to its nearest centroids — within the
        // [-3, 0) input span on in-distribution data (32 training rows is
        // deliberately coarse; accuracy proper is benchmark-gated).
        let dq = s.row_owned(before);
        let err = v.iter().zip(&dq).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(err < 3.0, "err {err}");
    }

    #[test]
    fn non_finite_inputs_never_reach_centroids_or_codes() {
        let dim = 8;
        let mut flat = rows_flat(20, dim, 9);
        flat[3] = f32::NAN;
        flat[11] = f32::INFINITY;
        let s = PqStore::trained_from_rows(dim, 2, &flat);
        for i in 0..s.rows() {
            assert!(s.row_owned(i).iter().all(|x| x.is_finite()), "row {i}");
        }
        let q = vec_of(dim, 1);
        assert!(s.l2_sq_row(&q, 0).is_finite());
        // Its own wire image decodes (finite centroids).
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Pq(s));
        assert!(get_store(&mut buf.freeze()).is_ok());
    }

    #[test]
    fn parallel_training_and_encode_are_deterministic() {
        // Two runs over the same data must produce identical codebooks and
        // codes (within one process the worker count is fixed, but the
        // per-subspace/per-chunk work is partition-independent by
        // construction — this pins at least run-to-run determinism).
        let flat = rows_flat(300, 16, 13);
        let a = PqStore::trained_from_rows(16, 0, &flat);
        let b = PqStore::trained_from_rows(16, 0, &flat);
        assert_eq!(a.codes(), b.codes());
        let (ba, bb) = (a.codebook().unwrap(), b.codebook().unwrap());
        assert_eq!(ba.centroids, bb.centroids);
    }

    #[test]
    fn size_is_a_fraction_of_f32_at_scale() {
        // ratio = m/(4·dim) + 128/rows with auto m = dim/8, i.e.
        // 1/32 + codebook amortization — under 0.06 once a table holds a
        // few thousand rows, which ANN vector tables do at bench scale.
        let (rows, dim) = (6000, 32);
        let s = PqStore::trained_from_rows(dim, 0, &rows_flat(rows, dim, 17));
        let f32_bytes = rows * dim * 4;
        let ratio = s.encoded_vector_bytes() as f64 / f32_bytes as f64;
        assert!(ratio < 0.06, "pq must be ≤ 0.06× of f32 at scale, got {ratio}");
    }
}
