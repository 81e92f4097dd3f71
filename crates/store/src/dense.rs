//! Dense row-major vector tables behind the [`VectorStore`] trait: one
//! codec-agnostic interface over three physical layouts.
//!
//! * [`F32Store`] — exact storage, today's aligned little-endian blocks.
//!   Owned or a **zero-copy view** into the buffer it was decoded from
//!   (an artifact `Bytes`, possibly an mmap), so adopting a table from
//!   disk costs no copy and no RAM beyond the mapped pages.
//! * [`F16Store`] — IEEE binary16, 2× smaller. Relative error ≤ 2⁻¹¹ in
//!   the normal range; distances are computed asymmetrically (f32 query
//!   vs f16 row) without materializing the row.
//! * [`Int8Store`] — per-vector affine scalar quantization
//!   (`offset + scale · code`, 256 levels spanning each vector's own
//!   min..max), 4× smaller (+8 bytes/vector). The classic SQ8 layout of
//!   large-scale ANN serving.
//!
//! [`DenseStore`] is the closed enum over the three, with a binary codec
//! ([`put_store`]/[`get_store`]) whose bulk payloads are little-endian and
//! 4-byte aligned via explicit pad runs — on little-endian hardware every
//! codec adopts its decoded block zero-copy. Decoding is hardened: all
//! counts are bounded by the remaining buffer and int8 scale/offset values
//! must be finite, so corrupt input yields [`StoreError`], never a panic
//! or a poisoned distance.

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
    /// Per-vector affine int8 — 4× smaller, error ≤ (max−min)/510.
    Int8,
    /// Product quantization — `m` sub-quantizers of 256 k-means-trained
    /// centroids, one code byte per subspace (~32× smaller at the default
    /// sub-row width of 8, plus a per-table codebook). `m = 0` means
    /// auto-resolve from the dimension ([`crate::pq::resolve_m`]); callers
    /// that know the semantic cell width pass `m = dim / cell_dim` so
    /// subspace boundaries coincide with cell boundaries.
    Pq {
        /// Requested subspace count (`0` = auto).
        m: u16,
    },
}

impl Codec {
    /// Stable lower-case label (bench reports, JSON).
    pub fn label(&self) -> &'static str {
        match self {
            Codec::F32 => "f32",
            Codec::F16 => "f16",
            Codec::Int8 => "int8",
            Codec::Pq { .. } => "pq",
        }
    }

    /// Wire tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Codec::F32 => 1,
            Codec::F16 => 2,
            Codec::Int8 => 3,
            Codec::Pq { .. } => 4,
        }
    }

    /// Inverse of [`Codec::tag`]; `None` for unknown wire tags. The PQ
    /// tag maps to `m = 0` (auto) — the store payload carries the real
    /// subspace count.
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            1 => Some(Codec::F32),
            2 => Some(Codec::F16),
            3 => Some(Codec::Int8),
            4 => Some(Codec::Pq { m: 0 }),
            _ => None,
        }
    }

    /// All codecs, for sweeps (PQ in its auto-`m` form).
    pub const ALL: [Codec; 4] = [Codec::F32, Codec::F16, Codec::Int8, Codec::Pq { m: 0 }];
}

/// Why a store failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The buffer ended before the structure did.
    Truncated(&'static str),
    /// Unknown codec tag byte.
    BadCodec(u8),
    /// A structural invariant does not hold (zero dimension, non-finite
    /// scale/offset, pad run out of range, …).
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
    /// Asymmetric squared-L2 distance between `query` and row `i`. For
    /// the scalar codecs this equals dequantizing the row and calling
    /// `af_nn::kernel::l2_sq` — bit for bit (same lanes, same reduction
    /// tree), so quantization is the *only* error source. For PQ it is
    /// instead *defined* as the ADC sum over subspaces (see
    /// [`crate::pq`]); the fused table-gather scan is bit-identical to
    /// that definition, so fusion is never an error source either.
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

// ------------------------------------------------------------------ int8

/// Per-vector affine int8: row `i` element `j` decodes to
/// `offsets[i] + scales[i] · codes[i·dim + j]`. Codes are owned or a
/// zero-copy view; the per-row scale/offset pairs (8 bytes a row — noise
/// next to the codes) are always owned.
#[derive(Debug, Clone)]
pub struct Int8Store {
    dim: usize,
    scales: Vec<f32>,
    offsets: Vec<f32>,
    codes: CodeData,
}

#[derive(Debug, Clone)]
enum CodeData {
    Owned(Vec<u8>),
    View(Bytes),
}

impl Int8Store {
    /// An empty int8 store of `dim`-d vectors.
    pub fn new(dim: usize) -> Int8Store {
        assert!(dim > 0);
        Int8Store {
            dim,
            scales: Vec::new(),
            offsets: Vec::new(),
            codes: CodeData::Owned(Vec::new()),
        }
    }

    fn codes(&self) -> &[u8] {
        match &self.codes {
            CodeData::Owned(data) => data,
            CodeData::View(bytes) => bytes,
        }
    }

    /// Row `i` as `(codes, scale, offset)` — element `j` decodes to
    /// `offset + scale · codes[j]`.
    pub fn row_codes(&self, i: usize) -> (&[u8], f32, f32) {
        assert!(i < self.rows(), "row {i} out of {}", self.rows());
        (&self.codes()[i * self.dim..(i + 1) * self.dim], self.scales[i], self.offsets[i])
    }
}

impl VectorStore for Int8Store {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.scales.len()
    }

    fn codec(&self) -> Codec {
        Codec::Int8
    }

    fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        if let CodeData::View(bytes) = &self.codes {
            self.codes = CodeData::Owned(bytes.to_vec());
        }
        let CodeData::Owned(codes) = &mut self.codes else { unreachable!("just converted") };
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in v {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        // Degenerate rows collapse to scale 0 with a finite offset (every
        // element decodes to exactly `offset`): constant rows, rows
        // containing non-finite values the kernels must never re-emit,
        // and rows whose range `hi − lo` overflows f32 — for those no
        // finite affine f32 code exists (decoding the top code computes
        // `offset + scale·255 ≈ hi`, so a "finite" scale would still
        // overflow on dequantization and poison every distance with
        // Inf/NaN, producing an artifact the decoder rejects).
        let range = hi - lo;
        let (scale, offset) = if lo.is_finite() && range.is_finite() && range > 0.0 {
            (range / 255.0, lo)
        } else {
            (0.0, if lo.is_finite() { lo } else { 0.0 })
        };
        if scale > 0.0 {
            codes.extend(v.iter().map(|&x| {
                // x − offset ≤ hi − lo may overflow to Inf for huge-range
                // rows; clamp maps it to the top code.
                let c = ((x - offset) / scale).round();
                c.clamp(0.0, 255.0) as u8
            }));
        } else {
            codes.extend(std::iter::repeat_n(0u8, self.dim));
        }
        self.scales.push(scale);
        self.offsets.push(offset);
    }

    fn row_into(&self, i: usize, out: &mut [f32]) {
        let (codes, scale, offset) = self.row_codes(i);
        kernel::dequant_u8_into(codes, scale, offset, out);
    }

    fn l2_sq_row(&self, query: &[f32], i: usize) -> f32 {
        let (codes, scale, offset) = self.row_codes(i);
        kernel::l2_sq_u8(query, codes, scale, offset)
    }

    fn encoded_vector_bytes(&self) -> usize {
        self.rows() * (self.dim + 8)
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
    /// Per-vector affine int8, 4× smaller.
    Int8(Int8Store),
    /// Product-quantized codes + per-table codebooks, ~32× smaller.
    Pq(crate::pq::PqStore),
}

impl DenseStore {
    /// An empty store of the given codec.
    pub fn new(dim: usize, codec: Codec) -> DenseStore {
        match codec {
            Codec::F32 => DenseStore::F32(F32Store::new(dim)),
            Codec::F16 => DenseStore::F16(F16Store::new(dim)),
            Codec::Int8 => DenseStore::Int8(Int8Store::new(dim)),
            Codec::Pq { m } => DenseStore::Pq(crate::pq::PqStore::new(dim, m as usize)),
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
            DenseStore::Int8(s) => s,
            DenseStore::Pq(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn VectorStore {
        match self {
            DenseStore::F32(s) => s,
            DenseStore::F16(s) => s,
            DenseStore::Int8(s) => s,
            DenseStore::Pq(s) => s,
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
    /// away from f32 and back is lossy exactly once. Converting to PQ is
    /// a bulk conversion: codebooks train on the *whole* table (not the
    /// first rows pushed), then every row encodes in parallel — see
    /// [`crate::pq::PqStore::encode_all`].
    pub fn to_codec(&self, codec: Codec) -> DenseStore {
        if let Codec::Pq { m } = codec {
            let m = crate::pq::resolve_m(self.dim(), m as usize);
            if self.codec() == (Codec::Pq { m: m as u16 }) {
                return self.clone();
            }
            return DenseStore::Pq(crate::pq::PqStore::encode_all(self, m));
        }
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
            DenseStore::Int8(s) => s.l2_sq_row(query, i),
            DenseStore::Pq(s) => s.l2_sq_row(query, i),
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
pub(crate) fn put_pad<S: crate::StoreSink>(buf: &mut S) {
    let pad = (4 - (buf.written() + 1) % 4) % 4;
    buf.write_u8(pad as u8);
    for _ in 0..pad {
        buf.write_u8(0);
    }
}

pub(crate) fn get_pad(data: &mut Bytes, what: &'static str) -> Result<(), StoreError> {
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
pub(crate) fn take_block(
    data: &mut Bytes,
    need: usize,
    what: &'static str,
) -> Result<Bytes, StoreError> {
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
        DenseStore::Int8(s) => {
            for &v in &s.scales {
                buf.write_bytes(&v.to_le_bytes());
            }
            for &v in &s.offsets {
                buf.write_bytes(&v.to_le_bytes());
            }
            buf.write_bytes(s.codes());
        }
        DenseStore::Pq(s) => crate::pq::put_pq(buf, s),
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
        Codec::Int8 => {
            let need = rows.checked_mul(4).ok_or(StoreError::Truncated(W))?;
            let scales = decode_le_f32s(&take_block(data, need, "int8 scales")?);
            let offsets = decode_le_f32s(&take_block(data, need, "int8 offsets")?);
            // A corrupted scale/offset would leak NaN/Inf into every
            // distance this row ever participates in — reject at the
            // boundary, like TopK rejects non-finite distances. The last
            // check mirrors the encoder's invariant: even a *finite*
            // scale is poison if dequantizing the top code overflows
            // (a bit-flipped exponent can produce one).
            if scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
                return Err(StoreError::Invalid("int8 scale not finite and non-negative"));
            }
            if offsets.iter().any(|o| !o.is_finite()) {
                return Err(StoreError::Invalid("int8 offset not finite"));
            }
            if scales.iter().zip(&offsets).any(|(s, o)| !(o + s * 255.0).is_finite()) {
                return Err(StoreError::Invalid("int8 dequantization range overflows"));
            }
            let codes = take_block(data, elems, "int8 codes")?;
            let codes =
                if codes.is_empty() { CodeData::Owned(Vec::new()) } else { CodeData::View(codes) };
            Ok(DenseStore::Int8(Int8Store { dim, scales, offsets, codes }))
        }
        Codec::Pq { .. } => Ok(DenseStore::Pq(crate::pq::get_pq(data, dim, rows)?)),
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
        for codec in [Codec::F16, Codec::Int8] {
            let data = rows(9, 24);
            let s = filled(codec, 9, 24);
            assert!(s.row_f32(0).is_none());
            for (i, r) in data.iter().enumerate() {
                let dq = s.row_owned(i);
                for (a, b) in r.iter().zip(&dq) {
                    assert!((a - b).abs() < 5e-3, "{codec:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn int8_error_bound_is_half_a_level() {
        let v: Vec<f32> = (0..32).map(|i| (i as f32 * 0.71).cos() * 3.0).collect();
        let (lo, hi) =
            v.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &x| (l.min(x), h.max(x)));
        let mut s = Int8Store::new(32);
        s.push(&v);
        let dq = s.row_owned(0);
        let bound = (hi - lo) / 510.0 + 1e-6;
        for (a, b) in v.iter().zip(&dq) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn int8_fat_rows_lose_precision_that_per_cell_rows_keep() {
        // Why artifacts store fine vectors one *cell* a row, and why a
        // layout that stored whole windows as int8 rows (removed) agreed
        // with f32 on only ~98% of predictions: int8 is *per-row* affine
        // over the row's min..max. A fat row — a whole fine window, many
        // concatenated per-cell vectors of very different magnitudes —
        // gets one coarse step for all of them, and the small-magnitude
        // cells drown in quantization noise. A per-cell row keeps a
        // per-cell step. This pins the mechanism: the identical payload
        // quantized both ways, with the fat error on the quiet block
        // orders of magnitude above the per-cell error.
        let cell = 8;
        let loud: Vec<f32> = (0..cell).map(|j| (j as f32 * 0.9).sin()).collect(); // ~±1
        let quiet: Vec<f32> = (0..cell).map(|j| (j as f32 * 0.7).cos() * 1e-3).collect(); // ~±1e-3
        let window: Vec<f32> = loud.iter().chain(&quiet).copied().collect();

        let mut fat = Int8Store::new(2 * cell);
        fat.push(&window);
        let mut compact = Int8Store::new(cell);
        compact.push(&loud);
        compact.push(&quiet);

        let fat_dq = fat.row_owned(0);
        let quiet_dq = compact.row_owned(1);
        let max_err = |a: &[f32], b: &[f32]| {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
        };
        let fat_quiet_err = max_err(&quiet, &fat_dq[cell..]);
        let compact_quiet_err = max_err(&quiet, &quiet_dq);
        // Per-cell quantization keeps the quiet block within its own
        // half-level bound; the fat row's step is set by the loud block
        // and is ~1000× too coarse for the quiet one.
        assert!(compact_quiet_err <= 2e-3 / 510.0 + 1e-7, "compact err {compact_quiet_err}");
        assert!(
            fat_quiet_err > 100.0 * compact_quiet_err.max(1e-9),
            "fat err {fat_quiet_err} vs compact err {compact_quiet_err}"
        );
    }

    #[test]
    fn int8_huge_range_rows_stay_finite_and_round_trip() {
        // Regression: `(hi − lo) / 255` overflowed to +Inf when a row
        // spanned more than f32::MAX — every distance came back NaN and
        // the decoder rejected the store's own serialized output. Such a
        // row has no finite affine f32 code (even a finite scale would
        // overflow re-multiplying by 255), so it collapses to the
        // degenerate constant encoding: lossy for a pathological row,
        // finite and decodable always.
        let mut s = Int8Store::new(2);
        s.push(&[3.0e38, -3.0e38]);
        let (_, scale, offset) = s.row_codes(0);
        assert_eq!(scale, 0.0, "over-range row must collapse to the constant encoding");
        assert!(offset.is_finite());
        let dq = s.row_owned(0);
        assert!(dq.iter().all(|x| x.is_finite()), "{dq:?}");
        assert!(!s.l2_sq_row(&[0.0, 0.0], 0).is_nan(), "a poisoned scale would yield NaN");
        // A row spanning *up to* f32::MAX still quantizes affinely, and
        // its extremes dequantize to finite values near the originals.
        s.push(&[1.6e38, -1.6e38]);
        let (_, scale2, _) = s.row_codes(1);
        assert!(scale2 > 0.0);
        let dq2 = s.row_owned(1);
        assert!(dq2.iter().all(|x| x.is_finite()));
        assert!((dq2[0] - 1.6e38).abs() <= 3.2e38 / 255.0 * 1.01);
        let mut buf = BytesMut::new();
        put_store(&mut buf, &DenseStore::Int8(s));
        assert!(get_store(&mut buf.freeze()).is_ok(), "own output must decode");
    }

    #[test]
    fn int8_degenerate_rows() {
        let mut s = Int8Store::new(4);
        s.push(&[2.5; 4]); // constant row → scale 0, offset 2.5
        assert_eq!(s.row_owned(0), vec![2.5; 4]);
        s.push(&[f32::NAN, 1.0, f32::INFINITY, -1.0]); // poisoned row
        let dq = s.row_owned(1);
        assert!(dq.iter().all(|x| x.is_finite()), "non-finite must never be re-emitted");
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
            // Compare against the *store's* codec: `Pq { m: 0 }` resolves
            // its auto subspace count on construction.
            assert_eq!(loaded.codec(), s.codec());
            assert_eq!(loaded.codec().tag(), codec.tag());
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
    fn bad_codec_tag_and_bad_scale_rejected() {
        let mut buf = BytesMut::new();
        put_store(&mut buf, &filled(Codec::Int8, 3, 4));
        let good = buf.freeze().to_vec();
        let mut bad_tag = good.clone();
        bad_tag[0] = 99;
        assert_eq!(get_store(&mut Bytes::from(bad_tag)).err(), Some(StoreError::BadCodec(99)));
        // The scales block starts right after tag+dim+rows+pad; poison the
        // first scale with a NaN bit pattern.
        let pad = good[13] as usize;
        let scales_at = 14 + pad;
        let mut bad_scale = good.clone();
        bad_scale[scales_at..scales_at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(matches!(
            get_store(&mut Bytes::from(bad_scale)).err(),
            Some(StoreError::Invalid(_))
        ));
        // And a negative scale.
        let mut neg_scale = good.clone();
        neg_scale[scales_at..scales_at + 4].copy_from_slice(&(-1.0f32).to_le_bytes());
        assert!(matches!(
            get_store(&mut Bytes::from(neg_scale)).err(),
            Some(StoreError::Invalid(_))
        ));
        // Regression: a *finite* but huge scale (one exponent bit-flip
        // away) passes the finiteness checks, but dequantizing its top
        // code overflows to Inf — it must be rejected at the boundary
        // too, like the encoder's own invariant promises.
        let mut huge_scale = good;
        huge_scale[scales_at..scales_at + 4].copy_from_slice(&3.0e37f32.to_le_bytes());
        assert!(matches!(
            get_store(&mut Bytes::from(huge_scale)).err(),
            Some(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn to_codec_conversions() {
        let s = filled(Codec::F32, 8, 12);
        for codec in Codec::ALL {
            let c = s.to_codec(codec);
            // Tags match exactly; `Pq { m: 0 }` resolves its auto subspace
            // count during conversion, so compare tags rather than values.
            assert_eq!(c.codec().tag(), codec.tag());
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
        let q = s.to_codec(Codec::Int8);
        assert_eq!(q.to_codec(Codec::Int8).row_owned(0), q.row_owned(0));
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
        let s8 = s32.to_codec(Codec::Int8);
        assert_eq!(s16.encoded_vector_bytes() * 2, s32.encoded_vector_bytes());
        // int8: dim + 8 bytes per row vs dim·4.
        assert_eq!(s8.encoded_vector_bytes(), 100 * (64 + 8));
    }
}
