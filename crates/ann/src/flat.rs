//! Exact (brute-force) index — the ground truth the approximate indexes are
//! tested against, and fast enough in practice for the fine-grained
//! region index sizes this workspace produces.

use crate::codec::{self, CodecError};
use crate::metric::{Neighbor, TopK};
use crate::VectorIndex;
use af_store::{Codec, DenseStore, VectorStore};
use bytes::{BufMut, Bytes, BytesMut};

/// A flat index: vectors stored contiguously, searched by linear scan.
/// Scans parallelize across threads once the corpus is large enough to
/// amortize the spawn cost; both the threshold and the thread cap are
/// configurable (see [`FlatIndex::set_parallelism`]).
///
/// Vectors live in an [`af_store::DenseStore`], so the scan runs on any
/// codec: exact `f32` (the default — bit-identical to the pre-store
/// implementation), or `f16` rows compared against the f32 query with the
/// asymmetric kernel (no dequantized copy is ever materialized — the scan
/// reads half the bytes).
#[derive(Debug, Clone)]
pub struct FlatIndex {
    store: DenseStore,
    /// Element-work size below which the scan stays serial
    /// (0 = [`DEFAULT_PARALLEL_THRESHOLD`]).
    parallel_threshold: usize,
    /// Cap on scan worker threads (0 = all of `available_parallelism`).
    max_scan_threads: usize,
}

impl FlatIndex {
    /// An empty exact (`f32`) index over `dim`-dimensional vectors.
    pub fn new(dim: usize) -> FlatIndex {
        FlatIndex::with_codec(dim, Codec::F32)
    }

    /// An empty index storing vectors in `codec` (incoming vectors are
    /// quantized on [`VectorIndex::add`]).
    pub fn with_codec(dim: usize, codec: Codec) -> FlatIndex {
        assert!(dim > 0);
        FlatIndex { store: DenseStore::new(dim, codec), parallel_threshold: 0, max_scan_threads: 0 }
    }

    /// Re-encode the stored vectors into `codec` (identity is a cheap
    /// clone). Converting away from `f32` quantizes; converting back
    /// dequantizes — lossy exactly once.
    pub fn to_codec(&self, codec: Codec) -> FlatIndex {
        FlatIndex {
            store: self.store.to_codec(codec),
            parallel_threshold: self.parallel_threshold,
            max_scan_threads: self.max_scan_threads,
        }
    }

    /// Configure when and how wide searches parallelize: scans touching
    /// fewer than `threshold` elements stay single-threaded (0 keeps the
    /// crate default), and at most `max_threads` workers are spawned
    /// (0 = use every core `available_parallelism` reports).
    pub fn set_parallelism(&mut self, threshold: usize, max_threads: usize) {
        self.parallel_threshold = threshold;
        self.max_scan_threads = max_threads;
    }

    /// Builder-style [`FlatIndex::set_parallelism`].
    pub fn with_parallelism(mut self, threshold: usize, max_threads: usize) -> FlatIndex {
        self.set_parallelism(threshold, max_threads);
        self
    }

    /// Build from a batch of vectors.
    pub fn from_vectors(dim: usize, vectors: impl IntoIterator<Item = Vec<f32>>) -> FlatIndex {
        let mut idx = FlatIndex::new(dim);
        for v in vectors {
            idx.add(&v);
        }
        idx
    }

    /// Row `id` dequantized into a fresh vector (any codec).
    pub fn vector_owned(&self, id: usize) -> Vec<f32> {
        self.store.row_owned(id)
    }

    /// Rebuild from the legacy (v1, f32-only) wire layout.
    pub(crate) fn decode_state_v1(data: &mut Bytes) -> Result<FlatIndex, CodecError> {
        let dim = codec::get_u32(data)? as usize;
        if dim == 0 {
            return Err(CodecError::Invalid("flat index dimension must be positive"));
        }
        let parallel_threshold = codec::get_u64(data)? as usize;
        let max_scan_threads = codec::get_u64(data)? as usize;
        let vec_data = codec::get_f32s(data)?;
        if vec_data.len() % dim != 0 {
            return Err(CodecError::Invalid("flat data is not a whole number of vectors"));
        }
        Ok(FlatIndex {
            store: DenseStore::from_f32_rows(dim, vec_data),
            parallel_threshold,
            max_scan_threads,
        })
    }

    /// Rebuild from bytes written by [`VectorIndex::encode_with`].
    pub(crate) fn decode_state(data: &mut Bytes) -> Result<FlatIndex, CodecError> {
        let parallel_threshold = codec::get_u64(data)? as usize;
        let max_scan_threads = codec::get_u64(data)? as usize;
        let store = af_store::get_store(data)?;
        Ok(FlatIndex { store, parallel_threshold, max_scan_threads })
    }

    fn scan_range(&self, query: &[f32], k: usize, lo: usize, hi: usize) -> Vec<Neighbor> {
        let mut top = TopK::new(k);
        for id in lo..hi {
            let d = self.store.l2_sq_row(query, id);
            top.push(Neighbor::new(id, d));
        }
        top.into_sorted()
    }
}

/// Default work size below which a parallel scan is not worth spawning
/// threads (override per index with [`FlatIndex::set_parallelism`]).
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 21;

impl VectorIndex for FlatIndex {
    fn len(&self) -> usize {
        self.store.rows()
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn vector_owned(&self, id: usize) -> Vec<f32> {
        FlatIndex::vector_owned(self, id)
    }

    fn codec(&self) -> Codec {
        self.store.codec()
    }

    /// Append a vector (quantized to the store's codec), returning its id.
    fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim(), "vector dimension mismatch");
        let id = self.len();
        self.store.push(v);
        id
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim());
        let n = self.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let work = n * self.dim();
        let threshold = if self.parallel_threshold == 0 {
            DEFAULT_PARALLEL_THRESHOLD
        } else {
            self.parallel_threshold
        };
        let mut threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        if self.max_scan_threads != 0 {
            threads = threads.min(self.max_scan_threads);
        }
        if work < threshold || threads < 2 {
            return self.scan_range(query, k, 0, n);
        }
        // Never spawn more workers than there are vectors to scan.
        let n_chunks = threads.min(n);
        let chunk = n.div_ceil(n_chunks);
        let mut partials: Vec<Vec<Neighbor>> = Vec::with_capacity(n_chunks);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_chunks)
                .map(|c| {
                    let lo = c * chunk;
                    let hi = ((c + 1) * chunk).min(n);
                    s.spawn(move || self.scan_range(query, k, lo, hi))
                })
                .collect();
            for h in handles {
                partials.push(h.join().expect("scan worker panicked"));
            }
        });
        let mut top = TopK::new(k);
        for p in partials {
            for nb in p {
                top.push(nb);
            }
        }
        top.into_sorted()
    }

    fn encode_with(&self, buf: &mut BytesMut, codec: Codec) {
        buf.put_u8(codec::TAG_FLAT2);
        buf.put_u64(self.parallel_threshold as u64);
        buf.put_u64(self.max_scan_threads as u64);
        af_store::put_store_as(buf, &self.store, codec);
    }

    fn clone_box(&self) -> Box<dyn VectorIndex> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> FlatIndex {
        // 100 points on a line: id i at (i, 0).
        FlatIndex::from_vectors(2, (0..100).map(|i| vec![i as f32, 0.0]))
    }

    #[test]
    fn exact_nearest() {
        let idx = grid_index();
        let out = idx.search(&[42.4, 0.0], 3);
        let ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![42, 43, 41]);
    }

    #[test]
    fn k_larger_than_n() {
        let idx = FlatIndex::from_vectors(2, vec![vec![0.0, 0.0], vec![1.0, 0.0]]);
        let out = idx.search(&[0.0, 0.0], 10);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_index() {
        let idx = FlatIndex::new(4);
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 4], 5).is_empty());
    }

    #[test]
    fn threshold_query() {
        let idx = grid_index();
        let out = idx.search_within(&[10.0, 0.0], 10, 4.5);
        // ids 8..=12 are within distance² ≤ 4 of the query.
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|n| n.dist <= 4.5));
    }

    #[test]
    fn parallel_scan_agrees_with_serial() {
        // Force a corpus past the parallel threshold: 70k vectors × 32 dims
        // (one extra row serves as the query).
        let dim = 32;
        let n = 70_000;
        let all = crate::test_util::lcg_vectors(n + 1, dim, 1);
        let mut idx = FlatIndex::new(dim);
        for v in all[..n * dim].chunks(dim) {
            idx.add(v);
        }
        let query = &all[n * dim..];
        let fast = idx.search(query, 10);
        let slow = idx.scan_range(query, 10, 0, n);
        assert_eq!(fast, slow);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut idx = FlatIndex::new(3);
        idx.add(&[1.0, 2.0]);
    }

    #[test]
    fn configurable_parallelism_agrees_with_serial() {
        let q = [42.4, 0.0];
        let mut idx = grid_index();
        let serial = idx.scan_range(&q, 3, 0, idx.len());
        // Force the parallel path even on this tiny corpus.
        idx.set_parallelism(1, 0);
        assert_eq!(idx.search(&q, 3), serial);
        // A 1-thread cap forces the serial path regardless of threshold.
        idx.set_parallelism(1, 1);
        assert_eq!(idx.search(&q, 3), serial);
        // Builder form.
        let idx2 = grid_index().with_parallelism(1, 4);
        assert_eq!(idx2.search(&q, 3), serial);
    }
}
