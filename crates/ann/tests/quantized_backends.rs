//! Quantized scan paths across all three backends: re-encoding an index
//! into `f16` must keep serving (high recall against the exact
//! scan, incremental `add` still works), `f32` must stay bit-identical,
//! and the legacy (v1) wire layout must keep decoding.

use af_ann::test_util::lcg_vectors;
use af_ann::{
    load_index, save_index, save_index_with, CodecError, FlatIndex, HnswIndex, HnswParams,
    IvfFlatIndex, IvfParams, VectorIndex,
};
use af_store::{Codec, StoreError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

fn backends(data: &[f32], dim: usize) -> Vec<(&'static str, Box<dyn VectorIndex>)> {
    vec![
        ("flat", Box::new(FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec())))),
        ("hnsw", Box::new(HnswIndex::build(data, dim, HnswParams::default()))),
        (
            "ivf",
            Box::new(IvfFlatIndex::build(
                data,
                dim,
                IvfParams { n_lists: 8, n_probe: usize::MAX, ..Default::default() },
            )),
        ),
    ]
}

fn recall_at_k(
    truth: &dyn VectorIndex,
    probe: &dyn VectorIndex,
    queries: &[f32],
    dim: usize,
    k: usize,
) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in queries.chunks(dim) {
        let exact: Vec<usize> = truth.search(q, k).iter().map(|n| n.id).collect();
        let approx: Vec<usize> = probe.search(q, k).iter().map(|n| n.id).collect();
        total += exact.len();
        hits += exact.iter().filter(|id| approx.contains(id)).count();
    }
    hits as f64 / total as f64
}

#[test]
fn quantized_round_trip_serves_with_high_recall_on_every_backend() {
    let dim = 16;
    let data = lcg_vectors(600, dim, 41);
    let queries = lcg_vectors(40, dim, 42);
    for (name, idx) in backends(&data, dim) {
        let codec = Codec::F16;
        let mut bytes = save_index_with(idx.as_ref(), codec);
        let loaded = load_index(&mut bytes).expect("quantized round trip");
        assert_eq!(bytes.remaining(), 0, "{name}/{codec:?}");
        assert_eq!(loaded.codec(), codec, "{name}");
        assert_eq!(loaded.len(), idx.len(), "{name}");
        let r = recall_at_k(idx.as_ref(), loaded.as_ref(), &queries, dim, 10);
        assert!(r >= 0.9, "{name}/{codec:?}: recall@10 {r}");
    }
}

#[test]
fn f32_encode_with_is_bit_identical_on_every_backend() {
    let dim = 12;
    let data = lcg_vectors(300, dim, 43);
    let queries = lcg_vectors(20, dim, 44);
    for (name, idx) in backends(&data, dim) {
        let mut bytes = save_index_with(idx.as_ref(), Codec::F32);
        let loaded = load_index(&mut bytes).unwrap();
        assert_eq!(loaded.codec(), Codec::F32);
        for q in queries.chunks(dim) {
            let (a, b) = (idx.search(q, 7), loaded.search(q, 7));
            assert_eq!(a.len(), b.len(), "{name}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "{name}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{name}");
            }
        }
    }
}

#[test]
fn add_after_quantized_load_keeps_serving() {
    // The production path: a corpus keeps growing after a compressed
    // artifact was loaded. New vectors are quantized on insert and must be
    // findable.
    let dim = 8;
    let data = lcg_vectors(200, dim, 45);
    let extra = lcg_vectors(30, dim, 46);
    for (name, idx) in backends(&data, dim) {
        let codec = Codec::F16;
        let mut bytes = save_index_with(idx.as_ref(), codec);
        let mut loaded = load_index(&mut bytes).unwrap();
        for (i, v) in extra.chunks(dim).enumerate() {
            assert_eq!(loaded.add(v), 200 + i, "{name}/{codec:?}");
        }
        // Self-query each appended vector: its quantized image must be
        // its own nearest neighbor (the quantization error is far
        // smaller than the inter-point distances of this corpus).
        for (i, v) in extra.chunks(dim).enumerate() {
            let hit = &loaded.search(v, 1)[0];
            assert_eq!(hit.id, 200 + i, "{name}/{codec:?}");
            assert!(hit.dist < 1e-3, "{name}/{codec:?}: {}", hit.dist);
        }
    }
}

#[test]
fn quantized_truncation_errors_never_panics() {
    let dim = 6;
    let data = lcg_vectors(50, dim, 47);
    for (name, idx) in backends(&data, dim) {
        let codec = Codec::F16;
        let bytes = save_index_with(idx.as_ref(), codec);
        for cut in 0..bytes.len() {
            let mut head = bytes.slice(0..cut);
            assert!(
                load_index(&mut head).is_err(),
                "{name}/{codec:?}: truncation to {cut}/{} must fail cleanly",
                bytes.len()
            );
        }
    }
}

#[test]
fn default_encode_preserves_the_index_codec() {
    let dim = 8;
    let data = lcg_vectors(100, dim, 48);
    let flat = FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()));
    let f16 = flat.to_codec(Codec::F16);
    // encode() (no codec argument) must round-trip the quantized state
    // losslessly: same rows, bit-identical searches.
    let mut bytes = save_index(&f16);
    let loaded = load_index(&mut bytes).unwrap();
    assert_eq!(loaded.codec(), Codec::F16);
    let q = lcg_vectors(1, dim, 49);
    let (a, b) = (f16.search(&q, 5), loaded.search(&q, 5));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
    }
}

#[test]
fn empty_ivf_round_trip_preserves_its_codec() {
    // Regression: an empty index has no list stores to carry the codec
    // tag, so a round trip silently downgraded a cold-start quantized
    // index to f32 — every later `add` stored more than the requested bytes.
    let dim = 6;
    let ivf = IvfFlatIndex::build_with_codec(&[], dim, Codec::F16, IvfParams::default());
    assert_eq!(ivf.codec(), Codec::F16);
    let mut bytes = save_index(&ivf);
    // The header's codec byte follows the backend tag, dim, n, the four
    // params and the trained flag; the removed codecs' tags are rejected.
    for tag in [3u8, 4] {
        let mut bad = bytes.to_vec();
        assert_eq!(bad[46], Codec::F16.tag());
        bad[46] = tag;
        assert_eq!(
            load_index(&mut Bytes::from(bad)).err(),
            Some(CodecError::Store(StoreError::BadCodec(tag)))
        );
    }
    let mut loaded = load_index(&mut bytes).expect("empty ivf round trip");
    assert_eq!(loaded.codec(), Codec::F16, "codec must survive an empty round trip");
    // Cold-start growth after the round trip still quantizes.
    let grow = lcg_vectors(40, dim, 52);
    for v in grow.chunks(dim) {
        loaded.add(v);
    }
    assert_eq!(loaded.codec(), Codec::F16);
    assert_eq!(loaded.search(&grow[..dim], 1)[0].id, 0);
}

#[test]
fn legacy_v1_flat_layout_still_decodes() {
    // Hand-rolled v1 wire image (tag 1): dim, parallel knobs, then a raw
    // length-prefixed little-endian f32 block. Old artifacts carry exactly
    // this; it must keep decoding bit-for-bit.
    let dim = 4usize;
    let data = lcg_vectors(25, dim, 50);
    let mut buf = BytesMut::new();
    buf.put_u8(1); // TAG_FLAT (legacy)
    buf.put_u32(dim as u32);
    buf.put_u64(0); // parallel_threshold
    buf.put_u64(0); // max_scan_threads
    buf.put_u64(data.len() as u64);
    for v in &data {
        buf.put_slice(&v.to_le_bytes());
    }
    let mut bytes = buf.freeze();
    let loaded = load_index(&mut bytes).expect("legacy layout decodes");
    assert_eq!(bytes.remaining(), 0);
    assert_eq!(loaded.len(), 25);
    assert_eq!(loaded.codec(), Codec::F32);
    let fresh = FlatIndex::from_vectors(dim, data.chunks(dim).map(|c| c.to_vec()));
    let q = lcg_vectors(1, dim, 51);
    assert_eq!(loaded.search(&q, 5), fresh.search(&q, 5));
}
