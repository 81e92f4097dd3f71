//! Property tests: the unrolled kernels in `af_nn::kernel` must agree with
//! straightforward scalar reference implementations for arbitrary shapes —
//! including remainder lanes (`len % 8 != 0`) and the degenerate
//! `batch == 0` / `in_dim == 0` matmul shapes.
//!
//! The output-blocked kernels are held to bits, not tolerances: each
//! dispatched entry, its portable body (`kernel::portable`) and, where the
//! host has it, its AVX2 body (`kernel::avx2`) must equal the one-output
//! composition it replaced — `bias + dot` per output, `fill` then one
//! `axpy` per term, `l2_sq_normalized` per window — `to_bits` for
//! `to_bits`. The AVX2 entry is called explicitly, so a host without AVX2
//! still checks the portable body against the composition.

use af_nn::kernel::{
    axpy, dot, l2_sq, l2_sq_scaled, l2_sq_scaled4, l2_sq_scaled_many, matmul_wx, matmul_xwt,
    matmul_xwt_acc, norms_sq4, portable, shifted_plane_axpy, shifted_plane_copy, sum, LANES,
};
use af_nn::tensor::{l2_normalize, l2_sq_normalized, l2_sq_normalized_each, l2_sq_normalized_many};
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

// ------------------------------------------------ output-blocked kernels

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bodies this host can run, as `(name, matmul_xwt_acc, matmul_wx,
/// norms_sq4, l2_sq_scaled4, l2_sq_scaled_q4)`: the portable bodies, and
/// the AVX2 bodies where the host has AVX2.
type XwtAcc = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);
type Wx = fn(&[f32], &[f32], &[f32], usize, usize, usize, &mut [f32]);
type Norms4 = fn([&[f32]; 4]) -> [f32; 4];
type Scaled4 = fn(&[f32], [&[f32]; 4], [f32; 4]) -> [f32; 4];
type ScaledQ4 = fn([&[f32]; 4], &[f32], f32) -> [f32; 4];

type Bodies = (&'static str, XwtAcc, Wx, Norms4, Scaled4, ScaledQ4);

fn bodies() -> Vec<Bodies> {
    let mut v: Vec<Bodies> = vec![(
        "portable",
        portable::matmul_xwt_acc,
        portable::matmul_wx,
        portable::norms_sq4,
        portable::l2_sq_scaled4,
        portable::l2_sq_scaled_q4,
    )];
    #[cfg(target_arch = "x86_64")]
    if af_nn::kernel::avx2::available() {
        use af_nn::kernel::avx2;
        v.push((
            "avx2",
            avx2::matmul_xwt_acc,
            avx2::matmul_wx,
            avx2::norms_sq4,
            avx2::l2_sq_scaled4,
            avx2::l2_sq_scaled_q4,
        ));
    }
    v
}

/// `n` floats, one in `zero_every` (if non-zero) a signed zero, so the
/// `0.0 + (−0.0)` sums of the one-output kernels are exercised too.
fn gen_with_zeros(n: usize, seed: u64, zero_every: usize) -> Vec<f32> {
    let mut v = gen_vec(n, seed);
    if zero_every > 0 {
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % zero_every == 0) {
            *x = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    v
}

proptest! {
    #[test]
    fn blocked_matmul_has_the_bits_of_one_dot_per_output(
        batch in 0usize..4,
        chunks in 0usize..14,
        rem in 0usize..LANES,
        out_dim in 0usize..27,
        zero_every in 0usize..4,
        seed in 0u64..1000,
    ) {
        // in_dim: every remainder 0–7 over 0–13 whole chunks (up to 97+
        // wide, the featurizer's width); out_dim: whole blocks of eight
        // plus 0–7 left-over outputs.
        let in_dim = chunks * LANES + rem;
        let x = gen_with_zeros(batch * in_dim, seed, zero_every);
        let w = gen_with_zeros(out_dim * in_dim, seed ^ 1, zero_every);
        let bias = gen_with_zeros(out_dim, seed ^ 2, zero_every);
        let mut want = vec![0.0f32; batch * out_dim];
        for b in 0..batch {
            for o in 0..out_dim {
                let xr = &x[b * in_dim..][..in_dim];
                want[b * out_dim + o] = bias[o] + dot(xr, &w[o * in_dim..][..in_dim]);
            }
        }
        let mut got = vec![f32::NAN; batch * out_dim];
        matmul_xwt(&x, &w, &bias, batch, in_dim, out_dim, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "dispatched matmul_xwt");

        // The accumulating form on top of arbitrary values.
        let base = gen_with_zeros(batch * out_dim, seed ^ 3, zero_every);
        let mut want_acc = base.clone();
        for b in 0..batch {
            for o in 0..out_dim {
                let xr = &x[b * in_dim..][..in_dim];
                want_acc[b * out_dim + o] += dot(xr, &w[o * in_dim..][..in_dim]);
            }
        }
        let mut got = base.clone();
        matmul_xwt_acc(&x, &w, batch, in_dim, out_dim, &mut got);
        prop_assert_eq!(bits(&got), bits(&want_acc), "dispatched matmul_xwt_acc");
        for (name, xwt_acc, ..) in bodies() {
            let mut got = base.clone();
            xwt_acc(&x, &w, batch, in_dim, out_dim, &mut got);
            prop_assert_eq!(bits(&got), bits(&want_acc), "{} matmul_xwt_acc", name);
        }
    }

    #[test]
    fn tiled_conv_sum_has_the_bits_of_one_axpy_per_term(
        m in 0usize..11,
        k in 0usize..20,
        tiles in 0usize..4,
        rem in 0usize..16,
        zero_every in 0usize..4,
        seed in 0u64..1000,
    ) {
        // m: whole tiles of four rows plus 0–3 left-over rows; n: whole
        // 16-pixel tiles plus 0–15 left-over pixels (an 8-pixel tile and
        // a scalar tail), and n = 0 (a batch of no images).
        let n = tiles * 16 + rem;
        let w = gen_with_zeros(m * k, seed, zero_every);
        let init = gen_with_zeros(m, seed ^ 1, zero_every);
        let x = gen_with_zeros(k * n, seed ^ 2, zero_every);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &mut want[i * n..][..n];
            row.fill(init[i]);
            for j in 0..k {
                axpy(w[i * k + j], &x[j * n..][..n], row);
            }
        }
        let mut got = vec![f32::NAN; m * n];
        matmul_wx(&w, &init, &x, m, k, n, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "dispatched matmul_wx");
        for (name, _, wx, ..) in bodies() {
            let mut got = vec![f32::NAN; m * n];
            wx(&w, &init, &x, m, k, n, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "{} matmul_wx", name);
        }
    }

    #[test]
    fn four_window_distance_has_the_bits_of_one_call_per_window(
        n in (len_with_remainders(), 0usize..5).prop_map(|(n, wide)| if wide == 0 { 2560 } else { n }),
        n_windows in 0usize..10,
        tiny_mask in 0u32..16,
        seed in 0u64..1000,
    ) {
        // Every remainder mod 8 plus the default 2 560-float window; 0–9
        // windows (whole blocks of four and 0–3 left-overs); each of the
        // first four windows independently shrunk under the norm
        // threshold, so blocks mix the scaled and the `l2_sq` branch.
        let a = gen_vec(n, seed);
        let windows: Vec<Vec<f32>> = (0..n_windows as u64)
            .map(|i| {
                let mut b = gen_vec(n, seed ^ ((i + 1) << 20));
                if i < 4 && tiny_mask & (1 << i) != 0 {
                    b.iter_mut().for_each(|x| *x *= 1e-14);
                }
                b
            })
            .collect();
        let refs: Vec<&[f32]> = windows.iter().map(Vec::as_slice).collect();
        let want: Vec<f32> = refs.iter().map(|b| l2_sq_normalized(&a, b)).collect();
        let mut got = vec![f32::NAN; n_windows];
        l2_sq_normalized_each(&a, &refs, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "n={} windows={}", n, n_windows);

        for four in refs.chunks_exact(4) {
            let bs = [four[0], four[1], four[2], four[3]];
            let norms: Vec<f32> = bs.iter().map(|b| dot(b, b)).collect();
            let scales = [0.37f32, 1.0, 2.5, 1e-3];
            let scaled: Vec<f32> =
                bs.iter().zip(scales).map(|(b, s)| l2_sq_scaled(&a, b, s)).collect();
            prop_assert_eq!(bits(&norms_sq4(bs)), bits(&norms));
            prop_assert_eq!(bits(&l2_sq_scaled4(&a, bs, scales)), bits(&scaled));
            for (name, _, _, norms4, scaled4, _) in bodies() {
                prop_assert_eq!(bits(&norms4(bs)), bits(&norms), "{} norms_sq4", name);
                prop_assert_eq!(bits(&scaled4(&a, bs, scales)), bits(&scaled), "{} l2_sq_scaled4", name);
            }
        }
    }

    #[test]
    fn four_query_block_has_the_bits_of_one_call_per_query(
        n in (len_with_remainders(), 0usize..5).prop_map(|(n, wide)| if wide == 0 { 2560 } else { n }),
        zero_every in 0usize..4,
        unit in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Every remainder mod 8 plus the default 2 560-float window; signed
        // zeros in `b` and the queries; and half the time scale 1.0, the
        // scale of a window at or under the norm threshold.
        let b = gen_with_zeros(n, seed, zero_every);
        let queries: Vec<Vec<f32>> =
            (0..4u64).map(|q| gen_with_zeros(n, seed ^ ((q + 1) << 20), zero_every)).collect();
        let qs: [&[f32]; 4] = std::array::from_fn(|q| queries[q].as_slice());
        let scale = if unit { 1.0 } else { 0.37 };
        let want: Vec<f32> = qs.iter().map(|q| l2_sq_scaled(q, &b, scale)).collect();
        let mut got = [f32::NAN; 4];
        l2_sq_scaled_many(&qs, &b, scale, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "dispatched l2_sq_scaled_many");
        for (name, .., q4) in bodies() {
            prop_assert_eq!(bits(&q4(qs, &b, scale)), bits(&want), "{} l2_sq_scaled_q4", name);
        }
    }
}

/// A block holding one query of another length is never scored by a
/// four-query body — it panics, whichever body runs — and
/// `l2_sq_scaled_many` hands it to `l2_sq_scaled` query by query (whose
/// length check is a debug assertion, so that half runs in release).
#[test]
fn a_block_of_mixed_lengths_goes_query_by_query() {
    for n in [0, 5, 2560] {
        let b = gen_vec(n, 1);
        let queries: Vec<Vec<f32>> = (0..4).map(|q| gen_vec(n + usize::from(q == 2), q)).collect();
        let qs: [&[f32]; 4] = std::array::from_fn(|q| queries[q].as_slice());
        for (name, .., q4) in bodies() {
            let run = std::panic::catch_unwind(|| q4(qs, &b, 0.37));
            assert!(run.is_err(), "{name} scored a block of mixed lengths, n={n}");
        }
        if !cfg!(debug_assertions) {
            let want: Vec<f32> = qs.iter().map(|q| l2_sq_scaled(q, &b, 0.37)).collect();
            let mut got = [f32::NAN; 4];
            l2_sq_scaled_many(&qs, &b, 0.37, &mut got);
            assert_eq!(bits(&got), bits(&want), "n={n}");
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
