//! Dense row-major vector tables behind the [`VectorStore`] trait: one
//! codec-agnostic interface over two physical layouts.
//!
//! * [`F32Store`] — exact storage, today's aligned little-endian blocks.
//!   Owned or a **zero-copy view** into the buffer it was decoded from
//!   (an artifact `Bytes`, possibly an mmap), so adopting a table from
//!   disk costs no copy and no RAM beyond the mapped pages.
//! * [`F16Store`] — IEEE binary16, 2× smaller. Relative error ≤ 2⁻¹¹ in
//!   the normal range; distances are computed asymmetrically (f32 query
//!   vs f16 row) without materializing the row.
//!
//! [`DenseStore`] is the closed enum over the two, with a binary codec
//! ([`put_store`]/[`get_store`]) whose bulk payloads are little-endian and
//! 4-byte aligned via explicit pad runs — on little-endian hardware both
//! codecs adopt their decoded block zero-copy. Decoding is hardened: all
//! counts are bounded by the remaining buffer and the codec tag must be
//! known, so corrupt input yields [`StoreError`], never a panic.

use crate::f16::f32_to_f16;
use crate::kernel;
use bytes::{Buf, Bytes};
use std::fmt;

/// Physical layout of a vector table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Exact 4-byte floats (bit-identity guaranteed; the default).
    #[default]
    F32,
    /// IEEE binary16 — 2× smaller, ≤ 2⁻¹¹ relative error.
    F16,
}

impl Codec {
    /// Stable lower-case label (bench reports, JSON).
    pub fn label(&self) -> &'static str {
        match self {
            Codec::F32 => "f32",
            Codec::F16 => "f16",
        }
    }

    /// Wire tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Codec::F32 => 1,
            Codec::F16 => 2,
        }
    }

    /// Inverse of [`Codec::tag`]; `None` for unknown wire tags. Tags 3 and
    /// 4 belonged to the removed int8 and product-quantized codecs and are
    /// never reused, so a table written with either fails to decode
    /// instead of being misread.
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            1 => Some(Codec::F32),
            2 => Some(Codec::F16),
            _ => None,
        }
    }

    /// All codecs, for sweeps.
    pub const ALL: [Codec; 2] = [Codec::F32, Codec::F16];
}

/// Why a store failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The buffer ended before the structure did.
    Truncated(&'static str),
    /// Unknown codec tag byte.
    BadCodec(u8),
    /// A structural invariant does not hold (zero dimension, pad run out
    /// of range, …).
    Invalid(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated(what) => write!(f, "vector store truncated reading {what}"),
            StoreError::BadCodec(t) => write!(f, "unknown vector-store codec tag {t}"),
            StoreError::Invalid(what) => write!(f, "invalid vector store: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Codec-agnostic interface over a dense row-major vector table.
///
/// The two operations the serving path needs are `push` (quantize and
/// append one f32 vector) and [`VectorStore::l2_sq_row`] — the asymmetric
/// distance between an f32 query and a stored row, computed without
/// dequantizing the row into memory.
pub trait VectorStore: Send + Sync {
    /// Vector dimensionality (fixed at construction).
    fn dim(&self) -> usize;
    /// Number of stored vectors.
    fn rows(&self) -> usize;
    /// The codec this store encodes rows with.
    fn codec(&self) -> Codec;
    /// Quantize (if needed) and append one vector.
    fn push(&mut self, v: &[f32]);
    /// Dequantize row `i` into `out` (`out.len() == dim`).
    fn row_into(&self, i: usize, out: &mut [f32]);
    /// Asymmetric squared-L2 distance between `query` and row `i`. This
    /// equals dequantizing the row and calling `af_nn::kernel::l2_sq` —
    /// bit for bit (same lanes, same reduction tree), so quantization is
    /// the *only* error source.
    fn l2_sq_row(&self, query: &[f32], i: usize) -> f32;
    /// Bytes this store occupies on the wire (and, for views, on disk).
    fn encoded_vector_bytes(&self) -> usize;

    /// `rows() == 0`.
    fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Dequantize row `i` into a fresh vector.
    fn row_owned(&self, i: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.row_into(i, &mut out);
        out
    }
}

// ------------------------------------------------------------------- f32

/// Exact f32 rows; owned, or a verified zero-copy view (little-endian
/// target, 4-byte-aligned buffer of exactly `rows · dim · 4` bytes).
#[derive(Debug, Clone)]
pub struct F32Store {
    dim: usize,
    rows: usize,
    data: F32Data,
}

#[derive(Debug, Clone)]
enum F32Data {
    Owned(Vec<f32>),
    View(Bytes),
}

impl F32Store {
    /// An empty exact-f32 store of `dim`-d vectors.
    pub fn new(dim: usize) -> F32Store {
        assert!(dim > 0);
        F32Store { dim, rows: 0, data: F32Data::Owned(Vec::new()) }
    }

    /// Adopt `rows · dim` little-endian `f32`s: zero-copy when the target
    /// is little-endian and the buffer lands 4-byte aligned, otherwise an
    /// owned decode. `bytes.len()` must equal `rows · dim · 4`.
    pub fn from_le_bytes(dim: usize, rows: usize, bytes: Bytes) -> F32Store {
        assert!(dim > 0);
        assert_eq!(bytes.len(), rows * dim * 4, "byte length mismatch");
        let data = if cfg!(target_endian = "little") && (bytes.as_ptr() as usize).is_multiple_of(4)
        {
            F32Data::View(bytes)
        } else {
            F32Data::Owned(decode_le_f32s(&bytes))
        };
        F32Store { dim, rows, data }
    }

    /// Wrap an owned `rows · dim` flat buffer (no copy, no conversion).
    pub fn from_rows(dim: usize, data: Vec<f32>) -> F32Store {
        assert!(dim > 0);
        assert_eq!(data.len() % dim, 0);
        let rows = data.len() / dim;
        F32Store { dim, rows, data: F32Data::Owned(data) }
    }

    /// The whole table as one contiguous `&[f32]`.
    pub fn as_slice(&self) -> &[f32] {
        match &self.data {
            F32Data::Owned(data) => data,
            F32Data::View(bytes) => {
                // SAFETY: `from_le_bytes` only constructs a `View` on a
                // little-endian target with a 4-byte-aligned buffer of
                // exactly `rows · dim · 4` bytes, and the underlying
                // `Bytes` storage is immutable and pinned while this
                // store lives.
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr() as *const f32, self.rows * self.dim)
                }
            }
        }
    }

    /// Row `i` as a borrowed slice (exact — no dequantization needed).
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    fn make_owned(&mut self) {
        if let F32Data::View(bytes) = &self.data {
            self.data = F32Data::Owned(decode_le_f32s(bytes));
        }
    }

    /// Append the raw little-endian byte image of the whole table to `out`
    /// (the wire format [`F32Store::from_le_bytes`] adopts).
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        match &self.data {
            F32Data::View(bytes) => out.extend_from_slice(bytes),
            F32Data::Owned(data) => {
                out.reserve(data.len() * 4);
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// [`F32Store::extend_le_bytes`] straight into a sink — one copy, no
    /// intermediate buffer (tables are the bulk of an artifact, so the
    /// save path must not triple-buffer them). On little-endian targets
    /// the owned table's bytes are its wire image already.
    fn put_le_bytes<S: crate::StoreSink>(&self, buf: &mut S) {
        match &self.data {
            F32Data::View(bytes) => buf.write_bytes(bytes),
            F32Data::Owned(data) => {
                if cfg!(target_endian = "little") {
                    // SAFETY: any initialized &[f32] is valid to view as
                    // bytes (alignment 1, no invalid bit patterns in u8).
                    let raw = unsafe {
                        std::slice::from_raw_parts(data.as_ptr() as *const u8, data.len() * 4)
                    };
                    buf.write_bytes(raw);
                } else {
                    for v in data {
                        buf.write_bytes(&v.to_le_bytes());
                    }
                }
            }
        }
    }
}

fn decode_le_f32s(bytes: &[u8]) -> Vec<f32> {
    let mut out = vec![0f32; bytes.len() / 4];
    for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    out
}

impl VectorStore for F32Store {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn codec(&self) -> Codec {
        Codec::F32
    }

    fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        self.make_owned();
        let F32Data::Owned(data) = &mut self.data else { unreachable!("just converted") };
        data.extend_from_slice(v);
        self.rows += 1;
    }

    fn row_into(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(self.row(i));
    }

    fn l2_sq_row(&self, query: &[f32], i: usize) -> f32 {
        af_nn::kernel::l2_sq(query, self.row(i))
    }

    fn encoded_vector_bytes(&self) -> usize {
        self.rows * self.dim * 4
    }
}

// ------------------------------------------------------------------- f16

/// Binary16 rows; owned, or a verified zero-copy view (little-endian
/// target, 2-byte-aligned buffer of exactly `rows · dim · 2` bytes).
#[derive(Debug, Clone)]
pub struct F16Store {
    dim: usize,
    rows: usize,
    data: F16Data,
}

#[derive(Debug, Clone)]
enum F16Data {
    Owned(Vec<u16>),
    View(Bytes),
}

impl F16Store {
    /// An empty half-precision store of `dim`-d vectors.
    pub fn new(dim: usize) -> F16Store {
        assert!(dim > 0);
        F16Store { dim, rows: 0, data: F16Data::Owned(Vec::new()) }
    }

    /// Adopt `rows · dim` little-endian `u16` bit patterns (zero-copy when
    /// aligned on a little-endian target).
    pub fn from_le_bytes(dim: usize, rows: usize, bytes: Bytes) -> F16Store {
        assert!(dim > 0);
        assert_eq!(bytes.len(), rows * dim * 2, "byte length mismatch");
        let data = if cfg!(target_endian = "little") && (bytes.as_ptr() as usize).is_multiple_of(2)
        {
            F16Data::View(bytes)
        } else {
            F16Data::Owned(decode_le_u16s(&bytes))
        };
        F16Store { dim, rows, data }
    }

    fn as_slice(&self) -> &[u16] {
        match &self.data {
            F16Data::Owned(data) => data,
            F16Data::View(bytes) => {
                // SAFETY: `from_le_bytes` only constructs a `View` on a
                // little-endian target with a 2-byte-aligned buffer of
                // exactly `rows · dim · 2` bytes; the `Bytes` storage is
                // immutable and pinned while this store lives.
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr() as *const u16, self.rows * self.dim)
                }
            }
        }
    }

    /// Row `i` as raw IEEE 754 half-precision bit patterns.
    pub fn row_u16(&self, i: usize) -> &[u16] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// Write the raw little-endian wire image straight into the sink (see
    /// [`F32Store::put_le_bytes`]).
    fn put_le_bytes<S: crate::StoreSink>(&self, buf: &mut S) {
        match &self.data {
            F16Data::View(bytes) => buf.write_bytes(bytes),
            F16Data::Owned(data) => {
                if cfg!(target_endian = "little") {
                    // SAFETY: initialized &[u16] viewed as bytes.
                    let raw = unsafe {
                        std::slice::from_raw_parts(data.as_ptr() as *const u8, data.len() * 2)
                    };
                    buf.write_bytes(raw);
                } else {
                    for v in data {
                        buf.write_bytes(&v.to_le_bytes());
                    }
                }
            }
        }
    }
}

fn decode_le_u16s(bytes: &[u8]) -> Vec<u16> {
    let mut out = vec![0u16; bytes.len() / 2];
    for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = u16::from_le_bytes(chunk.try_into().expect("2-byte chunk"));
    }
    out
}

impl VectorStore for F16Store {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn codec(&self) -> Codec {
        Codec::F16
    }

    fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        if let F16Data::View(bytes) = &self.data {
            self.data = F16Data::Owned(decode_le_u16s(bytes));
        }
        let F16Data::Owned(data) = &mut self.data else { unreachable!("just converted") };
        data.extend(v.iter().map(|&x| f32_to_f16(x)));
        self.rows += 1;
    }

    fn row_into(&self, i: usize, out: &mut [f32]) {
        kernel::dequant_f16_into(self.row_u16(i), out);
    }

    fn l2_sq_row(&self, query: &[f32], i: usize) -> f32 {
        kernel::l2_sq_f16(query, self.row_u16(i))
    }

    fn encoded_vector_bytes(&self) -> usize {
        self.rows * self.dim * 2
    }
}

// -------------------------------------------------------------- the enum

/// The closed set of dense stores — enum dispatch for the scan hot paths
/// (a match, not a vtable, per distance), [`VectorStore`] for generic
/// code.
#[derive(Debug, Clone)]
pub enum DenseStore {
    /// Exact 32-bit floats (the default).
    F32(F32Store),
    /// IEEE 754 half precision, 2× smaller.
    F16(F16Store),
}

impl DenseStore {
    /// An empty store of the given codec.
    pub fn new(dim: usize, codec: Codec) -> DenseStore {
        match codec {
            Codec::F32 => DenseStore::F32(F32Store::new(dim)),
            Codec::F16 => DenseStore::F16(F16Store::new(dim)),
        }
    }

    /// Wrap an existing f32 table without copying.
    pub fn from_f32_rows(dim: usize, data: Vec<f32>) -> DenseStore {
        DenseStore::F32(F32Store::from_rows(dim, data))
    }

    fn inner(&self) -> &dyn VectorStore {
        match self {
            DenseStore::F32(s) => s,
            DenseStore::F16(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn VectorStore {
        match self {
            DenseStore::F32(s) => s,
            DenseStore::F16(s) => s,
        }
    }

    /// The contiguous f32 table — `Some` only for the exact codec.
    pub fn as_f32_slice(&self) -> Option<&[f32]> {
        match self {
            DenseStore::F32(s) => Some(s.as_slice()),
            _ => None,
        }
    }

    /// Row `i` as a borrowed f32 slice — exact codec only (quantized rows
    /// have no f32 image in memory; use [`VectorStore::row_into`]).
    pub fn row_f32(&self, i: usize) -> Option<&[f32]> {
        match self {
            DenseStore::F32(s) => Some(s.row(i)),
            _ => None,
        }
    }

    /// Re-encode every row into `codec` (identity codecs clone — O(1) for
    /// views). Quantized → exact round trips dequantize, so converting
    /// away from f32 and back is lossy exactly once.
    pub fn to_codec(&self, codec: Codec) -> DenseStore {
        if codec == self.codec() {
            return self.clone();
        }
        let mut out = DenseStore::new(self.dim(), codec);
        let mut scratch = vec![0.0f32; self.dim()];
        for i in 0..self.rows() {
            self.row_into(i, &mut scratch);
            out.push(&scratch);
        }
        out
    }
}

impl VectorStore for DenseStore {
    fn dim(&self) -> usize {
        self.inner().dim()
    }

    fn rows(&self) -> usize {
        self.inner().rows()
    }

    fn codec(&self) -> Codec {
        self.inner().codec()
    }

    fn push(&mut self, v: &[f32]) {
        self.inner_mut().push(v);
    }

    fn row_into(&self, i: usize, out: &mut [f32]) {
        self.inner().row_into(i, out);
    }

    #[inline]
    fn l2_sq_row(&self, query: &[f32], i: usize) -> f32 {
        match self {
            DenseStore::F32(s) => s.l2_sq_row(query, i),
            DenseStore::F16(s) => s.l2_sq_row(query, i),
        }
    }

    fn encoded_vector_bytes(&self) -> usize {
        self.inner().encoded_vector_bytes()
    }
}

// ------------------------------------------------------------------ wire

/// Append a pad run that 4-byte-aligns the position after it: one length
/// byte, then that many zeros. Alignment is buffer-local — callers keep
/// every enclosing section 4-byte aligned, so a local offset that is
/// 0 mod 4 is 0 mod 4 in the final artifact (and in a page-aligned mmap).
fn put_pad<S: crate::StoreSink>(buf: &mut S) {
    let pad = (4 - (buf.written() + 1) % 4) % 4;
    buf.write_u8(pad as u8);
    for _ in 0..pad {
        buf.write_u8(0);
    }
}

fn get_pad(data: &mut Bytes, what: &'static str) -> Result<(), StoreError> {
    let pad = data.try_get_u8().ok_or(StoreError::Truncated(what))? as usize;
    if pad > 3 {
        return Err(StoreError::Invalid("pad run out of range"));
    }
    if data.remaining() < pad {
        return Err(StoreError::Truncated(what));
    }
    data.split_to(pad);
    Ok(())
}

/// Split a bulk payload of exactly `need` bytes off `data`, bounded.
fn take_block(data: &mut Bytes, need: usize, what: &'static str) -> Result<Bytes, StoreError> {
    if data.remaining() < need {
        return Err(StoreError::Truncated(what));
    }
    Ok(data.split_to(need))
}

/// Append `store` (codec tag + header + aligned payload) to the sink —
/// one copy per table, no intermediate buffers. The sink may be an
/// in-memory [`bytes::BytesMut`] or a streaming file writer; pad runs align on
/// [`crate::StoreSink::written`], so both produce identical bytes when
/// they start at the same alignment.
pub fn put_store<S: crate::StoreSink>(buf: &mut S, store: &DenseStore) {
    buf.write_u8(store.codec().tag());
    buf.write_u32(store.dim() as u32);
    buf.write_u64(store.rows() as u64);
    put_pad(buf);
    match store {
        DenseStore::F32(s) => s.put_le_bytes(buf),
        DenseStore::F16(s) => s.put_le_bytes(buf),
    }
}

/// [`put_store`] with the payload re-encoded into `codec` — the identity
/// case writes the store directly, without the deep clone
/// [`DenseStore::to_codec`] would make of an owned table.
pub fn put_store_as<S: crate::StoreSink>(buf: &mut S, store: &DenseStore, codec: Codec) {
    if codec == store.codec() {
        put_store(buf, store);
    } else {
        put_store(buf, &store.to_codec(codec));
    }
}

/// Decode one store from the front of `data` (the cursor advances past
/// it). Bulk blocks are adopted zero-copy where alignment allows.
pub fn get_store(data: &mut Bytes) -> Result<DenseStore, StoreError> {
    const W: &str = "vector store";
    let tag = data.try_get_u8().ok_or(StoreError::Truncated(W))?;
    let codec = Codec::from_tag(tag).ok_or(StoreError::BadCodec(tag))?;
    let dim = data.try_get_u32().ok_or(StoreError::Truncated(W))? as usize;
    let rows = data.try_get_u64().ok_or(StoreError::Truncated(W))? as usize;
    if dim == 0 {
        return Err(StoreError::Invalid("store dimension must be positive"));
    }
    let elems = rows.checked_mul(dim).ok_or(StoreError::Truncated(W))?;
    get_pad(data, W)?;
    match codec {
        Codec::F32 => {
            let need = elems.checked_mul(4).ok_or(StoreError::Truncated(W))?;
            Ok(DenseStore::F32(F32Store::from_le_bytes(dim, rows, take_block(data, need, W)?)))
        }
        Codec::F16 => {
            let need = elems.checked_mul(2).ok_or(StoreError::Truncated(W))?;
            Ok(DenseStore::F16(F16Store::from_le_bytes(dim, rows, take_block(data, need, W)?)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| (0..dim).map(|j| ((i * dim + j) as f32 * 0.37).sin()).collect()).collect()
    }

    fn filled(codec: Codec, n: usize, dim: usize) -> DenseStore {
        let mut s = DenseStore::new(dim, codec);
        for r in rows(n, dim) {
            s.push(&r);
        }
        s
    }

    #[test]
    fn f32_store_is_exact() {
        let data = rows(7, 13);
        let s = filled(Codec::F32, 7, 13);
        for (i, r) in data.iter().enumerate() {
            assert_eq!(s.row_f32(i).unwrap(), &r[..]);
            assert_eq!(s.row_owned(i), *r);
        }
        assert!(s.as_f32_slice().is_some());
    }

    #[test]
    fn quantized_rows_stay_close() {
        let data = rows(9, 24);
        let s = filled(Codec::F16, 9, 24);
        assert!(s.row_f32(0).is_none());
        for (i, r) in data.iter().enumerate() {
            let dq = s.row_owned(i);
            for (a, b) in r.iter().zip(&dq) {
                assert!((a - b).abs() < 5e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn wire_round_trip_every_codec() {
        for codec in Codec::ALL {
            let s = filled(codec, 11, 17);
            let mut buf = BytesMut::new();
            put_store(&mut buf, &s);
            let mut data = buf.freeze();
            let loaded = get_store(&mut data).expect("round trip");
            assert_eq!(data.remaining(), 0, "decode must consume exactly what encode wrote");
            assert_eq!(loaded.codec(), codec);
            assert_eq!(loaded.rows(), 11);
            assert_eq!(loaded.dim(), 17);
            let q: Vec<f32> = (0..17).map(|j| (j as f32 * 0.13).cos()).collect();
            for i in 0..11 {
                assert_eq!(loaded.row_owned(i), s.row_owned(i), "{codec:?} row {i}");
                assert_eq!(
                    loaded.l2_sq_row(&q, i).to_bits(),
                    s.l2_sq_row(&q, i).to_bits(),
                    "{codec:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn empty_stores_round_trip_and_grow() {
        for codec in Codec::ALL {
            let s = DenseStore::new(5, codec);
            let mut buf = BytesMut::new();
            put_store(&mut buf, &s);
            let mut loaded = get_store(&mut buf.freeze()).unwrap();
            assert_eq!(loaded.rows(), 0);
            loaded.push(&[1.0, 2.0, 3.0, 4.0, 5.0]);
            assert_eq!(loaded.rows(), 1);
        }
    }

    #[test]
    fn truncation_at_every_offset_errors_never_panics() {
        for codec in Codec::ALL {
            let s = filled(codec, 6, 9);
            let mut buf = BytesMut::new();
            put_store(&mut buf, &s);
            let bytes = buf.freeze();
            for cut in 0..bytes.len() {
                let mut head = bytes.slice(0..cut);
                assert!(get_store(&mut head).is_err(), "{codec:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn removed_and_unknown_codec_tags_are_rejected() {
        // Tags 3 and 4 were the int8 and product-quantized codecs; they
        // decode like any unknown tag now.
        let mut buf = BytesMut::new();
        put_store(&mut buf, &filled(Codec::F16, 3, 4));
        let good = buf.freeze().to_vec();
        for tag in [0, 3, 4, 99] {
            let mut bad = good.clone();
            bad[0] = tag;
            assert_eq!(get_store(&mut Bytes::from(bad)).err(), Some(StoreError::BadCodec(tag)));
        }
    }

    #[test]
    fn to_codec_conversions() {
        let s = filled(Codec::F32, 8, 12);
        for codec in Codec::ALL {
            let c = s.to_codec(codec);
            assert_eq!(c.codec(), codec);
            assert_eq!(c.rows(), s.rows());
            for i in 0..s.rows() {
                let (a, b) = (s.row_owned(i), c.row_owned(i));
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 5e-3);
                }
            }
        }
        // f32 → f32 is exact; quantized identity conversion is a clone.
        let back = s.to_codec(Codec::F32);
        assert_eq!(back.row_owned(3), s.row_owned(3));
        let q = s.to_codec(Codec::F16);
        assert_eq!(q.to_codec(Codec::F16).row_owned(0), q.row_owned(0));
    }

    #[test]
    fn zero_copy_adoption_when_aligned() {
        // put_store pads so the payload is 4-aligned relative to the
        // buffer start; a freshly-frozen buffer starts at an allocation
        // (≥ 8-byte aligned), so the view path must engage.
        let s = filled(Codec::F32, 4, 8);
        let mut buf = BytesMut::new();
        put_store(&mut buf, &s);
        let loaded = get_store(&mut buf.freeze()).unwrap();
        let DenseStore::F32(f) = &loaded else { panic!("f32") };
        assert!(matches!(f.data, F32Data::View(_)), "aligned decode must adopt zero-copy");
    }

    #[test]
    fn size_ratios_match_the_codecs() {
        let s32 = filled(Codec::F32, 100, 64);
        let s16 = s32.to_codec(Codec::F16);
        assert_eq!(s16.encoded_vector_bytes() * 2, s32.encoded_vector_bytes());
    }
}
