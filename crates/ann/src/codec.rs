//! Binary (de)serialization of the index backends.
//!
//! Every [`VectorIndex`] implementation can encode its complete state —
//! vectors, graph adjacency (HNSW), inverted lists and centroids (IVF) —
//! into a tagged, length-prefixed byte stream, and [`load_index`] rebuilds
//! the matching concrete type behind a fresh `Box<dyn VectorIndex>`. This
//! is what lets a built reference index be shipped to a serving process
//! instead of being re-embedded and re-built from the raw corpus.
//!
//! Decoding is hardened: every length is validated against the remaining
//! buffer and every stored id is bounds-checked, so truncated or bit-
//! flipped input yields a [`CodecError`], never a panic. (The HNSW RNG is
//! not stored; it is replayed from the seed so post-load `add`s behave
//! exactly like adds to the never-serialized index.)

use crate::VectorIndex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Backend tags (one byte on the wire). The `*2` tags carry their vector
/// payloads as `af_store` blocks (any codec, aligned, zero-copy-adoptable);
/// the original tags are the legacy raw-f32 layout, still decoded so v1
/// artifacts keep loading.
pub(crate) const TAG_FLAT: u8 = 1;
pub(crate) const TAG_HNSW: u8 = 2;
pub(crate) const TAG_IVF: u8 = 3;
pub(crate) const TAG_FLAT2: u8 = 4;
pub(crate) const TAG_HNSW2: u8 = 5;
pub(crate) const TAG_IVF2: u8 = 6;

/// Decoding failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure did.
    Truncated,
    /// Unknown backend tag byte.
    BadTag(u8),
    /// A structural invariant does not hold (out-of-range id, mismatched
    /// lengths, zero dimension, …).
    Invalid(&'static str),
    /// A vector-store payload failed to decode (unknown or removed codec
    /// tag, truncated block, …).
    Store(af_store::StoreError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("index data truncated"),
            CodecError::BadTag(t) => write!(f, "unknown index backend tag {t}"),
            CodecError::Invalid(what) => write!(f, "invalid index data: {what}"),
            CodecError::Store(_) => f.write_str("index vector store failed to decode"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<af_store::StoreError> for CodecError {
    fn from(e: af_store::StoreError) -> Self {
        CodecError::Store(e)
    }
}

// ----------------------------------------------------- encoding helpers

/// Length-prefixed `f32` block. The payload is **little-endian** raw bytes
/// (unlike the big-endian scalar fields): embedding blocks dominate an
/// artifact by orders of magnitude, and LE decodes on the serving fleet's
/// little-endian hardware as a straight vectorized copy instead of a
/// per-element byte swap — this is what makes cold-start load fast.
pub(crate) fn put_f32s(buf: &mut BytesMut, values: &[f32]) {
    buf.put_u64(values.len() as u64);
    let mut raw = vec![0u8; values.len() * 4];
    for (chunk, v) in raw.chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    buf.put_slice(&raw);
}

pub(crate) fn put_u64s(buf: &mut BytesMut, values: impl ExactSizeIterator<Item = u64>) {
    buf.put_u64(values.len() as u64);
    for v in values {
        buf.put_u64(v);
    }
}

// ----------------------------------------------------- decoding helpers

pub(crate) fn get_u8(data: &mut Bytes) -> Result<u8, CodecError> {
    data.try_get_u8().ok_or(CodecError::Truncated)
}

pub(crate) fn get_u32(data: &mut Bytes) -> Result<u32, CodecError> {
    data.try_get_u32().ok_or(CodecError::Truncated)
}

pub(crate) fn get_u64(data: &mut Bytes) -> Result<u64, CodecError> {
    data.try_get_u64().ok_or(CodecError::Truncated)
}

/// Read a `u64` count that prefixes `elem_bytes`-sized elements, rejecting
/// counts the remaining buffer cannot possibly hold (so corrupt lengths
/// can never drive huge allocations or wrapped multiplications).
pub(crate) fn get_count(data: &mut Bytes, elem_bytes: usize) -> Result<usize, CodecError> {
    let n = get_u64(data)? as usize;
    let need = n.checked_mul(elem_bytes).ok_or(CodecError::Truncated)?;
    if data.remaining() < need {
        return Err(CodecError::Truncated);
    }
    Ok(n)
}

/// Read a length-prefixed `f32` vector (little-endian payload; see
/// [`put_f32s`]).
pub(crate) fn get_f32s(data: &mut Bytes) -> Result<Vec<f32>, CodecError> {
    let n = get_count(data, 4)?;
    let raw = data.split_to(n * 4);
    let mut out = vec![0f32; n];
    for (o, chunk) in out.iter_mut().zip(raw.chunks_exact(4)) {
        *o = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    Ok(out)
}

/// Read a length-prefixed `f32` vector whose length must be exactly `n`.
pub(crate) fn get_f32s_exact(data: &mut Bytes, n: usize) -> Result<Vec<f32>, CodecError> {
    let v = get_f32s(data)?;
    if v.len() != n {
        return Err(CodecError::Invalid("f32 block has the wrong length"));
    }
    Ok(v)
}

/// Read a length-prefixed `u64` vector as `usize`s.
pub(crate) fn get_u64s(data: &mut Bytes) -> Result<Vec<usize>, CodecError> {
    let n = get_count(data, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(data.get_u64() as usize);
    }
    Ok(out)
}

// ------------------------------------------------------------ public API

/// Append `idx` (tag + full state) to `buf`.
pub fn append_index(buf: &mut BytesMut, idx: &dyn VectorIndex) {
    idx.encode(buf);
}

/// Serialize an index into a standalone buffer.
pub fn save_index(idx: &dyn VectorIndex) -> Bytes {
    let mut buf = BytesMut::new();
    append_index(&mut buf, idx);
    buf.freeze()
}

/// Decode one index from the front of `data` (the cursor advances past
/// it), rebuilding the concrete backend named by the tag byte. Both wire
/// generations decode: the legacy raw-f32 tags and the store-backed tags
/// that [`VectorIndex::encode_with`] writes.
pub fn load_index(data: &mut Bytes) -> Result<Box<dyn VectorIndex>, CodecError> {
    match get_u8(data)? {
        TAG_FLAT => Ok(Box::new(crate::flat::FlatIndex::decode_state_v1(data)?)),
        TAG_HNSW => Ok(Box::new(crate::hnsw::HnswIndex::decode_state_v1(data)?)),
        TAG_IVF => Ok(Box::new(crate::ivf::IvfFlatIndex::decode_state(data, false)?)),
        TAG_FLAT2 => Ok(Box::new(crate::flat::FlatIndex::decode_state(data)?)),
        TAG_HNSW2 => Ok(Box::new(crate::hnsw::HnswIndex::decode_state(data)?)),
        TAG_IVF2 => Ok(Box::new(crate::ivf::IvfFlatIndex::decode_state(data, true)?)),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Serialize an index into a standalone buffer with its vector payload
/// re-encoded into `codec`.
pub fn save_index_with(idx: &dyn VectorIndex, codec: af_store::Codec) -> Bytes {
    let mut buf = BytesMut::new();
    idx.encode_with(&mut buf, codec);
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::lcg_vectors;
    use crate::{FlatIndex, HnswIndex, HnswParams, IvfFlatIndex, IvfParams};

    fn backends(data: &[f32], dim: usize) -> Vec<Box<dyn VectorIndex>> {
        vec![
            Box::new(FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()))),
            Box::new(HnswIndex::build(data, dim, HnswParams::default())),
            Box::new(IvfFlatIndex::build(
                data,
                dim,
                IvfParams { n_lists: 6, ..Default::default() },
            )),
        ]
    }

    #[test]
    fn round_trip_preserves_search_results() {
        let dim = 12;
        let data = lcg_vectors(250, dim, 9);
        let queries = lcg_vectors(20, dim, 10);
        for idx in backends(&data, dim) {
            let mut bytes = save_index(idx.as_ref());
            let loaded = load_index(&mut bytes).expect("round trip");
            assert_eq!(bytes.remaining(), 0, "decode must consume exactly what encode wrote");
            assert_eq!(loaded.len(), idx.len());
            assert_eq!(loaded.dim(), idx.dim());
            for q in queries.chunks(dim) {
                assert_eq!(loaded.search(q, 7), idx.search(q, 7));
            }
        }
    }

    #[test]
    fn add_after_load_matches_add_without_serialization() {
        // The codec must also preserve *growth* behavior: an index that
        // went through save/load and one that never did must serve
        // identical results after the same incremental adds (this is what
        // pins the HNSW RNG replay).
        let dim = 8;
        let data = lcg_vectors(120, dim, 11);
        let extra = lcg_vectors(40, dim, 12);
        let queries = lcg_vectors(10, dim, 13);
        for (live, reloaded) in backends(&data, dim).into_iter().zip(backends(&data, dim)) {
            let mut live = live;
            let mut bytes = save_index(reloaded.as_ref());
            let mut reloaded = load_index(&mut bytes).unwrap();
            for v in extra.chunks(dim) {
                assert_eq!(live.add(v), reloaded.add(v));
            }
            for q in queries.chunks(dim) {
                assert_eq!(live.search(q, 5), reloaded.search(q, 5));
            }
        }
    }

    #[test]
    fn empty_indexes_round_trip() {
        let dim = 5;
        for idx in backends(&[], dim) {
            let mut bytes = save_index(idx.as_ref());
            let mut loaded = load_index(&mut bytes).unwrap();
            assert_eq!(loaded.len(), 0);
            assert_eq!(loaded.dim(), dim);
            assert!(loaded.search(&[0.0; 5], 3).is_empty());
            // And stay usable: cold-start growth after load.
            let grow = lcg_vectors(40, dim, 14);
            for v in grow.chunks(dim) {
                loaded.add(v);
            }
            assert_eq!(loaded.search(&grow[..dim], 1)[0].id, 0);
        }
    }

    #[test]
    fn truncation_at_every_offset_errors_never_panics() {
        let dim = 6;
        let data = lcg_vectors(40, dim, 15);
        for idx in backends(&data, dim) {
            let bytes = save_index(idx.as_ref());
            for cut in 0..bytes.len() {
                let mut head = bytes.slice(0..cut);
                assert!(
                    load_index(&mut head).is_err(),
                    "truncation to {cut}/{} bytes must fail cleanly",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut data = Bytes::from(vec![99u8, 0, 0, 0]);
        assert_eq!(load_index(&mut data).err(), Some(CodecError::BadTag(99)));
        let mut empty = Bytes::from(Vec::new());
        assert_eq!(load_index(&mut empty).err(), Some(CodecError::Truncated));
    }

    #[test]
    fn clone_box_produces_independent_equal_indexes() {
        let dim = 7;
        let data = lcg_vectors(90, dim, 16);
        let q = lcg_vectors(1, dim, 17);
        for idx in backends(&data, dim) {
            let mut a = idx.clone_box();
            assert_eq!(a.search(&q, 5), idx.search(&q, 5));
            // Growing the clone must not disturb the original.
            let before = idx.len();
            a.add(&q);
            assert_eq!(a.len(), before + 1);
            assert_eq!(idx.len(), before);
        }
    }
}
