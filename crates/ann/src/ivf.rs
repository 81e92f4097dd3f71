//! IVF-Flat: k-means coarse quantizer + inverted lists, the classic Faiss
//! index layout.

use crate::codec::{self, CodecError};
use crate::kmeans::{kmeans, KMeansResult};
use crate::metric::{l2_sq, Neighbor, TopK};
use crate::VectorIndex;
use af_store::{Codec, DenseStore, VectorStore};
use bytes::{BufMut, Bytes, BytesMut};

/// Build parameters for [`IvfFlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of inverted lists (clusters). Defaults to `√n` when zero.
    pub n_lists: usize,
    /// Number of lists probed per query.
    pub n_probe: usize,
    /// Lloyd iterations when training the coarse quantizer.
    pub kmeans_iters: usize,
    /// Seed for k-means++ initialization (builds are deterministic).
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams { n_lists: 0, n_probe: 8, kmeans_iters: 10, seed: 0x1f2e_3d4c }
    }
}

/// An IVF-Flat index: vectors are bucketed by nearest centroid; queries
/// probe the `n_probe` closest buckets.
///
/// List vectors live in per-list [`af_store::DenseStore`]s (centroids stay
/// f32 — there are √n of them, they are not worth compressing): `f32` by
/// default, or a quantized codec after loading a compressed artifact, in
/// which case probed lists are scanned with the asymmetric kernels.
#[derive(Clone)]
pub struct IvfFlatIndex {
    dim: usize,
    n: usize,
    params: IvfParams,
    /// Storage codec for list vectors (new lists inherit it).
    codec: Codec,
    quantizer: KMeansResult,
    /// `lists[c]` holds `(original_id, vector)` rows, vectors in a store.
    list_ids: Vec<Vec<usize>>,
    list_data: Vec<DenseStore>,
    /// False for an index born empty and grown purely by `add`: such an
    /// index retrains its quantizer at geometric size milestones (see
    /// [`VectorIndex::add`]) instead of staying pinned to the single
    /// lazily-seeded list forever. `build` on a real corpus sets this.
    trained: bool,
}

/// Corpus size at which a cold-start (lazily-seeded) index first retrains
/// its quantizer; it retrains again at every doubling, so the amortized
/// cost per insert stays constant and the list structure tracks growth.
const COLD_START_RETRAIN_MIN: usize = 32;

impl IvfFlatIndex {
    /// Build from row-major `data` (`n × dim`). An empty `data` yields a
    /// valid empty index (searches return nothing; the quantizer is seeded
    /// lazily by the first [`VectorIndex::add`]) so a cold-start corpus
    /// cannot change crash behavior across backends.
    pub fn build(data: &[f32], dim: usize, params: IvfParams) -> IvfFlatIndex {
        IvfFlatIndex::build_with_codec(data, dim, Codec::F32, params)
    }

    /// [`IvfFlatIndex::build`] with list vectors stored in `codec` (the
    /// k-means quantizer always trains on the exact input).
    pub fn build_with_codec(
        data: &[f32],
        dim: usize,
        codec: Codec,
        mut params: IvfParams,
    ) -> IvfFlatIndex {
        assert!(dim > 0);
        assert_eq!(data.len() % dim, 0);
        let n = data.len() / dim;
        if n == 0 {
            let quantizer = KMeansResult {
                k: 0,
                dim,
                centroids: Vec::new(),
                assignments: Vec::new(),
                inertia: 0.0,
            };
            return IvfFlatIndex {
                dim,
                n: 0,
                params,
                codec,
                quantizer,
                list_ids: Vec::new(),
                list_data: Vec::new(),
                trained: false,
            };
        }
        if params.n_lists == 0 {
            params.n_lists = (n as f64).sqrt().ceil() as usize;
        }
        params.n_lists = params.n_lists.clamp(1, n);
        let quantizer = kmeans(data, dim, params.n_lists, params.kmeans_iters, params.seed);
        let k = quantizer.k;
        let mut list_ids = vec![Vec::new(); k];
        let mut list_data: Vec<DenseStore> = (0..k).map(|_| DenseStore::new(dim, codec)).collect();
        for i in 0..n {
            let c = quantizer.assignments[i];
            list_ids[c].push(i);
            list_data[c].push(&data[i * dim..(i + 1) * dim]);
        }
        IvfFlatIndex { dim, n, params, codec, quantizer, list_ids, list_data, trained: true }
    }

    /// Re-encode every list into `codec` (identity is a cheap clone).
    pub fn to_codec(&self, codec: Codec) -> IvfFlatIndex {
        let mut out = self.clone();
        out.codec = codec;
        out.list_data = self.list_data.iter().map(|s| s.to_codec(codec)).collect();
        out
    }

    /// Number of inverted lists the quantizer currently maintains.
    pub fn n_lists(&self) -> usize {
        self.quantizer.k
    }

    /// Re-run k-means over every stored vector (in id order, so the result
    /// is deterministic regardless of the current list layout) and rebuild
    /// the inverted lists. `n_lists` follows the build rule: the configured
    /// value, or `√n` when zero, clamped to `1..=n`.
    fn retrain_quantizer(&mut self) {
        let mut rows: Vec<(usize, Vec<f32>)> = Vec::with_capacity(self.n);
        for (ids, data) in self.list_ids.iter().zip(&self.list_data) {
            for (j, &id) in ids.iter().enumerate() {
                rows.push((id, data.row_owned(j)));
            }
        }
        rows.sort_unstable_by_key(|(id, _)| *id);
        let mut flat = Vec::with_capacity(self.n * self.dim);
        for (_, v) in &rows {
            flat.extend_from_slice(v);
        }
        let mut k = self.params.n_lists;
        if k == 0 {
            k = (self.n as f64).sqrt().ceil() as usize;
        }
        k = k.clamp(1, self.n);
        let quantizer = kmeans(&flat, self.dim, k, self.params.kmeans_iters, self.params.seed);
        let k = quantizer.k;
        let mut list_ids = vec![Vec::new(); k];
        let mut list_data: Vec<DenseStore> =
            (0..k).map(|_| DenseStore::new(self.dim, self.codec)).collect();
        for (i, (id, _)) in rows.iter().enumerate() {
            let c = quantizer.assignments[i];
            list_ids[c].push(*id);
            list_data[c].push(&flat[i * self.dim..(i + 1) * self.dim]);
        }
        self.quantizer = quantizer;
        self.list_ids = list_ids;
        self.list_data = list_data;
    }

    /// Rebuild from bytes written by [`VectorIndex::encode_with`]. Per-
    /// point assignments are reconstructed from the inverted lists (the
    /// lists are the ground truth; the assignment table is redundant on
    /// the wire). `v2` selects the store-backed list payload; the legacy
    /// layout reads raw f32 blocks.
    pub(crate) fn decode_state(data: &mut Bytes, v2: bool) -> Result<IvfFlatIndex, CodecError> {
        let dim = codec::get_u32(data)? as usize;
        if dim == 0 {
            return Err(CodecError::Invalid("ivf dimension must be positive"));
        }
        let n = codec::get_u64(data)? as usize;
        let params = IvfParams {
            n_lists: codec::get_u64(data)? as usize,
            n_probe: codec::get_u64(data)? as usize,
            kmeans_iters: codec::get_u64(data)? as usize,
            seed: codec::get_u64(data)?,
        };
        let trained = match codec::get_u8(data)? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Invalid("ivf trained flag must be 0 or 1")),
        };
        let stored_codec = if v2 {
            let tag = codec::get_u8(data)?;
            Codec::from_tag(tag).ok_or(af_store::StoreError::BadCodec(tag))?
        } else {
            Codec::F32
        };
        let inertia = codec::get_u64(data).map(f64::from_bits)? as f32;
        let k = codec::get_count(data, dim.checked_mul(4).ok_or(CodecError::Truncated)?)?;
        if k == 0 && n > 0 {
            return Err(CodecError::Invalid("non-empty ivf without centroids"));
        }
        let centroids = codec::get_f32s_exact(data, k * dim)?;
        let mut list_ids: Vec<Vec<usize>> = Vec::with_capacity(k);
        let mut list_data: Vec<DenseStore> = Vec::with_capacity(k);
        let mut assignments = vec![usize::MAX; n];
        for c in 0..k {
            let ids = codec::get_u64s(data)?;
            let vecs = if v2 {
                let store = af_store::get_store(data)?;
                if store.dim() != dim {
                    return Err(CodecError::Invalid("ivf list dimension disagrees"));
                }
                if store.rows() != ids.len() {
                    return Err(CodecError::Invalid("ivf list row count disagrees with ids"));
                }
                store
            } else {
                let raw = codec::get_f32s_exact(
                    data,
                    ids.len().checked_mul(dim).ok_or(CodecError::Truncated)?,
                )?;
                DenseStore::from_f32_rows(dim, raw)
            };
            for &id in &ids {
                if id >= n {
                    return Err(CodecError::Invalid("ivf list id out of range"));
                }
                if assignments[id] != usize::MAX {
                    return Err(CodecError::Invalid("ivf id assigned to two lists"));
                }
                assignments[id] = c;
            }
            list_ids.push(ids);
            list_data.push(vecs);
        }
        if assignments.contains(&usize::MAX) {
            return Err(CodecError::Invalid("ivf lists do not cover every id"));
        }
        let quantizer = KMeansResult { k, dim, centroids, assignments, inertia };
        Ok(IvfFlatIndex {
            dim,
            n,
            params,
            codec: stored_codec,
            quantizer,
            list_ids,
            list_data,
            trained,
        })
    }
}

impl VectorIndex for IvfFlatIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Insert to the nearest inverted list (Faiss-style incremental add:
    /// a quantizer trained by `build` stays frozen, new vectors join the
    /// list of their closest centroid). An index born empty starts from a
    /// single lazily-seeded list and retrains its quantizer at every
    /// corpus doubling past `COLD_START_RETRAIN_MIN` (32), so the configured
    /// `n_lists`/`n_probe` behavior materializes as the corpus grows
    /// instead of degenerating into one exhaustive list forever.
    fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        if self.quantizer.k == 0 {
            self.quantizer.k = 1;
            self.quantizer.centroids = v.to_vec();
            self.list_ids.push(Vec::new());
            self.list_data.push(DenseStore::new(self.dim, self.codec));
        }
        let id = self.n;
        let c = self.quantizer.nearest(v);
        self.list_ids[c].push(id);
        self.list_data[c].push(v);
        self.n += 1;
        if !self.trained && self.n >= COLD_START_RETRAIN_MIN && self.n.is_power_of_two() {
            self.retrain_quantizer();
        }
        id
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim);
        if k == 0 {
            return Vec::new();
        }
        // Rank centroids by distance, probe the closest lists.
        let mut cd: Vec<(usize, f32)> =
            (0..self.quantizer.k).map(|c| (c, l2_sq(query, self.quantizer.centroid(c)))).collect();
        cd.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut top = TopK::new(k);
        for &(c, _) in cd.iter().take(self.params.n_probe.max(1)) {
            let data = &self.list_data[c];
            for (j, &id) in self.list_ids[c].iter().enumerate() {
                top.push(Neighbor::new(id, data.l2_sq_row(query, j)));
            }
        }
        top.into_sorted()
    }

    fn codec(&self) -> Codec {
        self.codec
    }

    /// Locate `id` by scanning the inverted lists — the assignment table
    /// only covers build/retrain-time vectors, so the lists are the ground
    /// truth. O(n) worst case, fine for the control plane (splitting,
    /// merging, compaction), wrong for a hot loop.
    fn vector_owned(&self, id: usize) -> Vec<f32> {
        assert!(id < self.n, "vector id out of range");
        for (ids, data) in self.list_ids.iter().zip(&self.list_data) {
            if let Some(pos) = ids.iter().position(|&x| x == id) {
                return data.row_owned(pos);
            }
        }
        unreachable!("every id in 0..len lives in exactly one inverted list")
    }

    fn encode_with(&self, buf: &mut BytesMut, codec: Codec) {
        buf.put_u8(codec::TAG_IVF2);
        buf.put_u32(self.dim as u32);
        buf.put_u64(self.n as u64);
        buf.put_u64(self.params.n_lists as u64);
        buf.put_u64(self.params.n_probe as u64);
        buf.put_u64(self.params.kmeans_iters as u64);
        buf.put_u64(self.params.seed);
        buf.put_u8(self.trained as u8);
        // The storage codec, explicitly: an empty index has no list
        // stores to carry it, and it must survive the round trip so
        // post-load `add`s quantize as configured.
        buf.put_u8(codec.tag());
        buf.put_u64((self.quantizer.inertia as f64).to_bits());
        buf.put_u64(self.quantizer.k as u64);
        codec::put_f32s(buf, &self.quantizer.centroids);
        for (ids, data) in self.list_ids.iter().zip(&self.list_data) {
            codec::put_u64s(buf, ids.iter().map(|&id| id as u64));
            af_store::put_store_as(buf, data, codec);
        }
    }

    fn clone_box(&self) -> Box<dyn VectorIndex> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::test_util::lcg_vectors as random_data;

    #[test]
    fn probing_all_lists_is_exact() {
        let dim = 8;
        let data = random_data(500, dim, 1);
        let ivf = IvfFlatIndex::build(
            &data,
            dim,
            IvfParams { n_lists: 10, n_probe: 10, ..Default::default() },
        );
        let flat = FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()));
        for q in 0..20 {
            let query = &data[q * dim..(q + 1) * dim];
            let a = ivf.search(query, 5);
            let b = flat.search(query, 5);
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn partial_probe_recall_reasonable() {
        let dim = 8;
        let n = 2000;
        let data = random_data(n, dim, 2);
        let ivf = IvfFlatIndex::build(
            &data,
            dim,
            IvfParams { n_lists: 40, n_probe: 8, ..Default::default() },
        );
        let flat = FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()));
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in 0..50 {
            let query = &data[q * dim..(q + 1) * dim];
            let approx: Vec<usize> = ivf.search(query, 10).iter().map(|n| n.id).collect();
            let exact: Vec<usize> = flat.search(query, 10).iter().map(|n| n.id).collect();
            total += exact.len();
            hits += exact.iter().filter(|id| approx.contains(id)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.6, "recall@10 {recall}");
    }

    #[test]
    fn self_query_returns_self() {
        let dim = 4;
        let data = random_data(100, dim, 3);
        let ivf = IvfFlatIndex::build(&data, dim, IvfParams::default());
        for q in [0usize, 17, 50, 99] {
            let query = &data[q * dim..(q + 1) * dim];
            let out = ivf.search(query, 1);
            assert_eq!(out[0].id, q);
            assert!(out[0].dist < 1e-9);
        }
    }

    #[test]
    fn empty_build_is_valid_not_a_panic() {
        // Regression: `build` used to assert `n > 0`, so a cold-start org
        // with no reference workbooks crashed on IVF but not Flat/HNSW.
        let ivf = IvfFlatIndex::build(&[], 8, IvfParams::default());
        assert!(ivf.is_empty());
        assert_eq!(ivf.dim(), 8);
        assert_eq!(ivf.n_lists(), 0);
        assert!(ivf.search(&[0.0; 8], 5).is_empty());
        assert!(ivf.search_within(&[0.0; 8], 5, 1.0).is_empty());
    }

    #[test]
    fn add_seeds_empty_index_then_grows() {
        let dim = 4;
        let mut ivf = IvfFlatIndex::build(&[], dim, IvfParams::default());
        let data = random_data(50, dim, 7);
        for (i, v) in data.chunks(dim).enumerate() {
            assert_eq!(ivf.add(v), i);
        }
        assert_eq!(ivf.len(), 50);
        // The cold-start retrain at n = 32 replaced the single seeded list
        // with √32 ≈ 6 clusters; n_probe = 8 still covers them all, so
        // searches stay exact against the flat ground truth.
        assert!(ivf.n_lists() > 1, "retrain must spread the seeded list");
        let flat = FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()));
        for q in [0usize, 13, 49] {
            let query = &data[q * dim..(q + 1) * dim];
            assert_eq!(
                ivf.search(query, 3).iter().map(|n| n.id).collect::<Vec<_>>(),
                flat.search(query, 3).iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cold_start_retrain_honors_configured_n_lists() {
        // Regression: an index born empty used to stay pinned to the one
        // lazily-seeded list forever, so the configured `n_lists` silently
        // never materialized and every query scanned the whole corpus.
        let dim = 4;
        let params = IvfParams { n_lists: 10, n_probe: 10, ..Default::default() };
        let mut ivf = IvfFlatIndex::build(&[], dim, params);
        let data = random_data(200, dim, 21);
        for v in data.chunks(dim) {
            ivf.add(v);
        }
        // Last retrain at n = 128 applied the configured list count.
        assert_eq!(ivf.n_lists(), 10);
        // And the re-bucketed index still searches correctly (full probe).
        let flat = FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()));
        for q in [0usize, 77, 199] {
            let query = &data[q * dim..(q + 1) * dim];
            assert_eq!(
                ivf.search(query, 5).iter().map(|n| n.id).collect::<Vec<_>>(),
                flat.search(query, 5).iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn incremental_add_assigns_nearest_list() {
        let dim = 8;
        let data = random_data(300, dim, 11);
        let mut ivf = IvfFlatIndex::build(
            &data,
            dim,
            IvfParams { n_lists: 12, n_probe: 12, ..Default::default() },
        );
        let extra = random_data(60, dim, 12);
        for (i, v) in extra.chunks(dim).enumerate() {
            assert_eq!(ivf.add(v), 300 + i);
        }
        assert_eq!(ivf.len(), 360);
        // Full-probe searches over the grown index are exact.
        let mut all = data.clone();
        all.extend_from_slice(&extra);
        let flat = FlatIndex::from_vectors(dim, all.chunks(dim).map(|c| c.to_vec()));
        for q in [5usize, 299, 310, 359] {
            let query = &all[q * dim..(q + 1) * dim];
            assert_eq!(
                ivf.search(query, 5).iter().map(|n| n.id).collect::<Vec<_>>(),
                flat.search(query, 5).iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn default_list_count_is_sqrt_n() {
        let dim = 4;
        let data = random_data(400, dim, 4);
        let ivf = IvfFlatIndex::build(&data, dim, IvfParams::default());
        assert_eq!(ivf.n_lists(), 20);
    }
}
