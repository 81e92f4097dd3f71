//! Property tests: the unrolled kernels in `af_nn::kernel` must agree with
//! straightforward scalar reference implementations for arbitrary shapes —
//! including remainder lanes (`len % 8 != 0`) and the degenerate
//! `batch == 0` / `in_dim == 0` matmul shapes.

use af_nn::kernel::{
    axpy, dot, l2_sq, l2_sq_scaled, l2_sq_scaled_many, matmul_xwt, shifted_plane_axpy,
    shifted_plane_copy, sum, LANES,
};
use af_nn::tensor::{l2_normalize, l2_sq_normalized, l2_sq_normalized_many};
use proptest::prelude::*;

const TOL: f32 = 1e-4;

fn close(a: f32, b: f32, scale: f32) -> bool {
    (a - b).abs() <= TOL * (1.0 + scale.abs())
}

/// A strategy for f32 values that keeps sums well-conditioned.
fn val() -> std::ops::Range<f32> {
    -10.0f32..10.0f32
}

/// Lengths deliberately straddling multiples of [`LANES`] so remainder
/// lanes (1..=7 leftover elements) are always exercised.
fn len_with_remainders() -> impl Strategy<Value = usize> {
    (0usize..5, 0usize..LANES).prop_map(|(chunks, rem)| chunks * LANES + rem)
}

proptest! {
    #[test]
    fn dot_matches_reference(n in len_with_remainders(), seed in 0u64..1000) {
        let (a, b) = two_vecs(n, seed);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert!(close(dot(&a, &b), naive, naive), "n={} {} vs {}", n, dot(&a, &b), naive);
    }

    #[test]
    fn l2_sq_matches_reference(n in len_with_remainders(), seed in 0u64..1000) {
        let (a, b) = two_vecs(n, seed);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        prop_assert!(close(l2_sq(&a, &b), naive, naive));
        // A distance is never negative and is zero against itself.
        prop_assert!(l2_sq(&a, &b) >= 0.0);
        prop_assert_eq!(l2_sq(&a, &a), 0.0);
    }

    #[test]
    fn fused_normalized_distance_has_the_bits_of_normalize_then_l2_sq(
        n in len_with_remainders(),
        tiny in 0usize..4,
        seed in 0u64..1000,
    ) {
        // `n` covers len = 0 and every remainder; one case in four shrinks
        // `b` until its norm is at or under the threshold, where
        // `l2_normalize` leaves the vector as it is.
        let (a, mut b) = two_vecs(n, seed);
        if tiny == 0 {
            b.iter_mut().for_each(|x| *x *= 1e-14);
        }
        let mut unit = b.clone();
        let norm = l2_normalize(&mut unit);
        prop_assert_eq!(unit == b, norm <= 1e-12, "scaled exactly when the norm is over EPS");
        prop_assert_eq!(l2_sq_normalized(&a, &b).to_bits(), l2_sq(&a, &unit).to_bits(), "n={}", n);
        // The kernel alone: scaling in flight equals scaling in place.
        let scale = 0.37f32;
        let scaled: Vec<f32> = b.iter().map(|x| x * scale).collect();
        prop_assert_eq!(l2_sq_scaled(&a, &b, scale).to_bits(), l2_sq(&a, &scaled).to_bits());
    }

    #[test]
    fn many_query_distance_has_the_bits_of_one_call_per_query(
        n in (len_with_remainders(), 0usize..5).prop_map(|(n, wide)| if wide == 0 { 2560 } else { n }),
        nq in 0usize..10,
        tiny in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Every remainder mod 8 plus the default 2 560-float window; 0–9
        // queries: none, full blocks of four, and left-overs; one case in
        // four takes the zero-norm branch.
        let mut b = gen_vec(n, seed);
        if tiny == 0 {
            b.iter_mut().for_each(|x| *x *= 1e-14);
        }
        let queries: Vec<Vec<f32>> =
            (0..nq as u64).map(|q| gen_vec(n, seed ^ ((q + 1) << 20))).collect();
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let mut got = vec![f32::NAN; nq];
        l2_sq_normalized_many(&refs, &b, &mut got);
        for (q, g) in refs.iter().zip(&got) {
            prop_assert_eq!(g.to_bits(), l2_sq_normalized(q, &b).to_bits(), "n={} nq={}", n, nq);
        }
        let scale = 0.37f32;
        l2_sq_scaled_many(&refs, &b, scale, &mut got);
        for (q, g) in refs.iter().zip(&got) {
            prop_assert_eq!(g.to_bits(), l2_sq_scaled(q, &b, scale).to_bits(), "n={} nq={}", n, nq);
        }
    }

    #[test]
    fn sum_matches_reference(n in len_with_remainders(), seed in 0u64..1000) {
        let (a, _) = two_vecs(n, seed);
        let naive: f32 = a.iter().sum();
        prop_assert!(close(sum(&a), naive, naive));
    }

    #[test]
    fn axpy_matches_reference(n in len_with_remainders(), alpha in val(), seed in 0u64..1000) {
        let (x, y0) = two_vecs(n, seed);
        let mut y = y0.clone();
        axpy(alpha, &x, &mut y);
        for i in 0..n {
            let want = y0[i] + alpha * x[i];
            prop_assert!(close(y[i], want, want), "i={i}");
        }
    }

    #[test]
    fn matmul_matches_reference(
        batch in 0usize..5,
        dimsel in 0usize..2,
        out_dim in 1usize..6,
        seed in 0u64..500,
    ) {
        // in_dim is either 0 (degenerate) or 13 (remainder lanes: 13 % 8 != 0).
        let in_dim = dimsel * 13;
        let x = gen_vec(batch * in_dim, seed);
        let w = gen_vec(out_dim * in_dim, seed ^ 1);
        let bias = gen_vec(out_dim, seed ^ 2);
        let mut out = vec![f32::NAN; batch * out_dim];
        matmul_xwt(&x, &w, &bias, batch, in_dim, out_dim, &mut out);
        for b in 0..batch {
            for o in 0..out_dim {
                let naive: f32 =
                    bias[o] + (0..in_dim).map(|i| x[b * in_dim + i] * w[o * in_dim + i]).sum::<f32>();
                prop_assert!(close(out[b * out_dim + o], naive, naive), "b={b} o={o}");
            }
        }
    }

    #[test]
    fn matmul_matches_reference_random_shapes(
        batch in 1usize..4,
        in_dim in 1usize..40,
        out_dim in 1usize..8,
        seed in 0u64..200,
    ) {
        let x = gen_vec(batch * in_dim, seed);
        let w = gen_vec(out_dim * in_dim, seed ^ 3);
        let bias = gen_vec(out_dim, seed ^ 4);
        let mut out = vec![0.0f32; batch * out_dim];
        matmul_xwt(&x, &w, &bias, batch, in_dim, out_dim, &mut out);
        for b in 0..batch {
            for o in 0..out_dim {
                let naive: f32 =
                    bias[o] + (0..in_dim).map(|i| x[b * in_dim + i] * w[o * in_dim + i]).sum::<f32>();
                prop_assert!(close(out[b * out_dim + o], naive, naive), "b={b} o={o}");
            }
        }
    }

    #[test]
    fn shifted_plane_ops_match_reference(
        h in 1usize..7,
        w in 1usize..11,
        r in -3isize..4,
        s in -3isize..4,
        alpha in val(),
        seed in 0u64..300,
    ) {
        let x = gen_vec(h * w, seed);
        let base = gen_vec(h * w, seed ^ 5);

        // Reference: per-element shifted accumulate with zero padding.
        let shifted_ref = |i: usize, j: usize| -> f32 {
            let (ii, jj) = (i as isize + r, j as isize + s);
            if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                x[(ii * w as isize + jj) as usize]
            } else {
                0.0
            }
        };

        let mut got = base.clone();
        let mut scratch = Vec::new();
        shifted_plane_axpy(alpha, &x, &mut got, h, w, r, s, &mut scratch);
        let mut copied = vec![7.0f32; h * w];
        shifted_plane_copy(&x, &mut copied, h, w, r, s);
        for i in 0..h {
            for j in 0..w {
                let sh = shifted_ref(i, j);
                // axpy is exact (save/restore), copy overwrites fully.
                prop_assert_eq!(got[i * w + j], base[i * w + j] + alpha * sh);
                prop_assert_eq!(copied[i * w + j], sh);
            }
        }
    }
}

// ---------------------------------------------------------- deterministic data

/// Deterministic pseudo-random vector (the vendored proptest has no f32
/// collection shrinking; explicit generation keeps the reference simple).
fn gen_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) * 8.0 - 4.0
        })
        .collect()
}

fn two_vecs(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    (gen_vec(n, seed), gen_vec(n, seed ^ 0xABCD))
}
