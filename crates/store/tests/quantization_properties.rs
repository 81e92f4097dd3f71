//! Property tests: the f16 codec's round-trip error against the f32
//! source must stay inside the analytic bound for arbitrary vectors —
//! half a ulp (≤ 2⁻¹¹ relative in the normal range) — and the asymmetric
//! distance kernel must agree bit-for-bit with dequantize-then-`l2_sq`
//! for arbitrary shapes including remainder lanes.

use af_nn::kernel::{l2_sq, LANES};
use af_store::{Codec, DenseStore, VectorStore};
use proptest::prelude::*;

fn dims_with_remainders() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..LANES).prop_map(|(chunks, rem)| (chunks * LANES + rem).max(1))
}

fn vec_of(n: usize, seed: u64) -> Vec<f32> {
    // Deterministic pseudo-random fill (proptest's seed drives variety).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 30) as f32 - 2.0) * 2.0
        })
        .collect()
}

proptest! {
    #[test]
    fn f16_round_trip_error_bound(dim in dims_with_remainders(), seed in 0u64..2000) {
        let v = vec_of(dim, seed);
        let mut s = DenseStore::new(dim, Codec::F16);
        s.push(&v);
        let dq = s.row_owned(0);
        for (a, b) in v.iter().zip(&dq) {
            // Normal-range half-ulp bound; everything val() produces is
            // far above the subnormal threshold or exactly zero.
            prop_assert!((a - b).abs() <= a.abs() * 4.9e-4 + 6.0e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn asymmetric_distance_equals_dequant_distance(
        dim in dims_with_remainders(),
        seed in 0u64..500,
    ) {
        let q = vec_of(dim, seed ^ 0xABCD);
        let mut s = DenseStore::new(dim, Codec::F16);
        for r in 0..3u64 {
            s.push(&vec_of(dim, seed.wrapping_add(r)));
        }
        for i in 0..3 {
            let dq = s.row_owned(i);
            prop_assert_eq!(s.l2_sq_row(&q, i).to_bits(), l2_sq(&q, &dq).to_bits(), "row {}", i);
        }
    }

    #[test]
    fn quantized_distances_track_exact_distances(
        dim in 8usize..64,
        seed in 0u64..500,
    ) {
        // The point of the whole exercise: on realistic vectors the
        // quantized distance is a small perturbation of the exact one.
        let q = vec_of(dim, seed ^ 0x5EED);
        let v = vec_of(dim, seed);
        let exact = l2_sq(&q, &v);
        let mut s = DenseStore::new(dim, Codec::F16);
        s.push(&v);
        let approx = s.l2_sq_row(&q, 0);
        prop_assert!((approx - exact).abs() <= 1e-2 * (1.0 + exact), "{} vs {}", approx, exact);
    }

    #[test]
    fn wire_round_trip_is_lossless_for_stored_state(
        dim in dims_with_remainders(),
        rows in 0usize..6,
        seed in 0u64..300,
    ) {
        use bytes::BytesMut;
        for codec in Codec::ALL {
            let mut s = DenseStore::new(dim, codec);
            for r in 0..rows as u64 {
                s.push(&vec_of(dim, seed.wrapping_add(r)));
            }
            let mut buf = BytesMut::new();
            af_store::put_store(&mut buf, &s);
            let loaded = af_store::get_store(&mut buf.freeze()).unwrap();
            prop_assert_eq!(loaded.rows(), s.rows());
            for i in 0..s.rows() {
                // The *stored* representation survives exactly — decode of
                // encode loses nothing beyond the original quantization.
                prop_assert_eq!(loaded.row_owned(i), s.row_owned(i));
            }
        }
    }
}
