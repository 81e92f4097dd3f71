//! AVX2 bodies of the output-blocked kernels (x86-64 only). Each public
//! entry asserts [`available`] and produces the bits of its portable twin
//! in [`super::portable`]: the same lanes, the same tails, the same
//! reduction tree, and a separate `mul` and `add` for every term — never
//! an FMA, which would round once where the portable body rounds twice.
//!
//! The internal bodies are safe `#[target_feature(enable = "avx2")]`
//! functions. Their `unsafe` is the call from a context that checked the
//! feature, and the unaligned loads of the inner loops, which read through
//! raw pointers into slices taken (and so bounds-checked) just before the
//! loop — a bounds check per load cost more than the arithmetic.

use super::portable::{self, check_wx, check_xwt, OUT_BLOCK, PX_TILE, ROW_TILE};
use super::{dot, LANES};
use std::arch::x86_64::*;

/// Whether this host runs the AVX2 bodies. `std` detects the feature once
/// and caches the answer, so this is one load on every later call.
#[inline]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// AVX2 body of [`portable::matmul_xwt_acc`]. Panics if [`available`]
/// is false.
pub fn matmul_xwt_acc(
    x: &[f32],
    w: &[f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    assert!(available(), "AVX2 kernel called on a host without AVX2");
    check_xwt(x, w, batch, in_dim, out_dim, out);
    // SAFETY: the assert above established that the CPU supports AVX2.
    unsafe { xwt_acc(x, w, batch, in_dim, out_dim, out) }
}

/// AVX2 body of [`portable::matmul_wx`]. Panics if [`available`] is
/// false.
#[allow(clippy::too_many_arguments)]
pub fn matmul_wx(
    w: &[f32],
    init: &[f32],
    x: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert!(available(), "AVX2 kernel called on a host without AVX2");
    check_wx(w, init, x, m, k, n, out);
    // SAFETY: the assert above established that the CPU supports AVX2.
    unsafe { wx(w, init, x, m, k, n, out) }
}

/// AVX2 body of [`portable::norms_sq4`]. Panics if [`available`] is
/// false.
pub fn norms_sq4(bs: [&[f32]; 4]) -> [f32; 4] {
    assert!(available(), "AVX2 kernel called on a host without AVX2");
    let len = bs[0].len();
    assert!(bs.iter().all(|b| b.len() == len), "norms_sq4: windows of one length");
    // SAFETY: the assert above established that the CPU supports AVX2.
    unsafe { norms4(bs) }
}

/// AVX2 body of [`portable::l2_sq_scaled4`]. Panics if [`available`] is
/// false.
pub fn l2_sq_scaled4(a: &[f32], bs: [&[f32]; 4], scales: [f32; 4]) -> [f32; 4] {
    assert!(available(), "AVX2 kernel called on a host without AVX2");
    assert!(bs.iter().all(|b| b.len() == a.len()), "l2_sq_scaled4: windows of the query's length");
    // SAFETY: the assert above established that the CPU supports AVX2.
    unsafe { scaled4(a, bs, scales) }
}

/// AVX2 body of [`portable::l2_sq_scaled_q4`]. Panics if [`available`]
/// is false.
pub fn l2_sq_scaled_q4(queries: [&[f32]; 4], b: &[f32], scale: f32) -> [f32; 4] {
    assert!(available(), "AVX2 kernel called on a host without AVX2");
    assert!(queries.iter().all(|q| q.len() == b.len()), "l2_sq_scaled_q4: queries of b's length");
    // SAFETY: the assert above established that the CPU supports AVX2.
    unsafe { scaled_q4(queries, b, scale) }
}

/// Eight floats from the front of `s`.
#[inline]
#[target_feature(enable = "avx2")]
fn load(s: &[f32]) -> __m256 {
    let s = &s[..LANES];
    // SAFETY: `s` holds eight readable floats, and `loadu` has no
    // alignment requirement.
    unsafe { _mm256_loadu_ps(s.as_ptr()) }
}

/// Eight floats to the front of `s`.
#[inline]
#[target_feature(enable = "avx2")]
fn store(s: &mut [f32], v: __m256) {
    let s = &mut s[..LANES];
    // SAFETY: `s` holds eight writable floats, and `storeu` has no
    // alignment requirement.
    unsafe { _mm256_storeu_ps(s.as_mut_ptr(), v) }
}

/// `a + b·c`, rounded twice: the product, then the sum.
#[inline]
#[target_feature(enable = "avx2")]
fn mul_add(a: __m256, b: __m256, c: __m256) -> __m256 {
    _mm256_add_ps(a, _mm256_mul_ps(b, c))
}

/// `reduce_lanes` of eight lane vectors at once: lane `j` of the result is
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))` of `a[j]`. Two
/// rounds of `hadd` build each vector's pair sums and then its two
/// four-lane halves (low halves of `a[0..4]` in the low 128 bits of `q0`,
/// high halves in its high 128 bits); the cross-lane permutes line the
/// halves up for the last add — the transpose the tree needs, folded into
/// the tree.
#[inline]
#[target_feature(enable = "avx2")]
fn reduce8(a: [__m256; 8]) -> __m256 {
    let q0 = _mm256_hadd_ps(_mm256_hadd_ps(a[0], a[1]), _mm256_hadd_ps(a[2], a[3]));
    let q1 = _mm256_hadd_ps(_mm256_hadd_ps(a[4], a[5]), _mm256_hadd_ps(a[6], a[7]));
    let lo = _mm256_permute2f128_ps::<0x20>(q0, q1);
    let hi = _mm256_permute2f128_ps::<0x31>(q0, q1);
    _mm256_add_ps(lo, hi)
}

/// [`reduce8`] for four lane vectors.
#[inline]
#[target_feature(enable = "avx2")]
fn reduce4(a: [__m256; 4]) -> [f32; 4] {
    let q = _mm256_hadd_ps(_mm256_hadd_ps(a[0], a[1]), _mm256_hadd_ps(a[2], a[3]));
    let s = _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps::<1>(q));
    let mut out = [0.0f32; 8];
    store(&mut out, _mm256_castps128_ps256(s));
    [out[0], out[1], out[2], out[3]]
}

#[target_feature(enable = "avx2")]
fn xwt_acc(x: &[f32], w: &[f32], batch: usize, in_dim: usize, out_dim: usize, out: &mut [f32]) {
    let body = in_dim / LANES * LANES;
    let blocks = out_dim / OUT_BLOCK * OUT_BLOCK;
    for b in 0..batch {
        let xr = &x[b * in_dim..][..in_dim];
        let orow = &mut out[b * out_dim..][..out_dim];
        for o in (0..blocks).step_by(OUT_BLOCK) {
            let wb = &w[o * in_dim..][..OUT_BLOCK * in_dim];
            let mut acc = [_mm256_setzero_ps(); OUT_BLOCK];
            let (xp, wp) = (xr.as_ptr(), wb.as_ptr());
            for c in (0..body).step_by(LANES) {
                // SAFETY: `c + 8 <= body <= in_dim`, so `xr[c..c + 8]` and,
                // for `j < 8`, `wb[j·in_dim + c..][..8]` lie inside the
                // slices taken above; `loadu` needs no alignment.
                let xv = unsafe { _mm256_loadu_ps(xp.add(c)) };
                for (j, a) in acc.iter_mut().enumerate() {
                    // SAFETY: as above.
                    let wv = unsafe { _mm256_loadu_ps(wp.add(j * in_dim + c)) };
                    *a = mul_add(*a, xv, wv);
                }
            }
            let mut tail = _mm256_setzero_ps();
            for i in body..in_dim {
                let col: [f32; OUT_BLOCK] = std::array::from_fn(|j| wb[j * in_dim + i]);
                tail = mul_add(tail, _mm256_set1_ps(xr[i]), load(&col));
            }
            let sums = _mm256_add_ps(reduce8(acc), tail);
            let o8 = &mut orow[o..];
            store(o8, _mm256_add_ps(load(o8), sums));
        }
        for o in blocks..out_dim {
            orow[o] += dot(xr, &w[o * in_dim..][..in_dim]);
        }
    }
}

#[target_feature(enable = "avx2")]
fn wx(w: &[f32], init: &[f32], x: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if k == 0 {
        // No terms: every row is its initial value.
        return portable::matmul_wx(w, init, x, m, k, n, out);
    }
    let rows = m / ROW_TILE * ROW_TILE;
    let mut p0 = 0;
    while p0 < n {
        let width = n - p0;
        let step = if width >= PX_TILE {
            PX_TILE
        } else if width >= LANES {
            LANES
        } else {
            width
        };
        for i0 in (0..rows).step_by(ROW_TILE) {
            match step {
                PX_TILE => wx_tile::<2>(w, init, x, k, n, i0, p0, out),
                LANES => wx_tile::<1>(w, init, x, k, n, i0, p0, out),
                _ => portable::wx_tile(w, init, x, k, n, i0..i0 + ROW_TILE, p0..n, out),
            }
        }
        if rows < m {
            portable::wx_tile(w, init, x, k, n, rows..m, p0..p0 + step, out);
        }
        p0 += step;
    }
}

/// One full-height tile of [`wx`]: rows `i0..i0 + 4` × pixels
/// `p0..p0 + 8·H`, accumulated in `4·H` registers over every `j`.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2")]
fn wx_tile<const H: usize>(
    w: &[f32],
    init: &[f32],
    x: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    p0: usize,
    out: &mut [f32],
) {
    let wt = &w[i0 * k..][..ROW_TILE * k];
    let xt = &x[p0..][..(k - 1) * n + H * LANES];
    let mut acc: [[__m256; H]; ROW_TILE] =
        std::array::from_fn(|r| [_mm256_set1_ps(init[i0 + r]); H]);
    let (wp, xp) = (wt.as_ptr(), xt.as_ptr());
    for j in 0..k {
        // SAFETY: `j < k` and `h < H`, so `xt[j·n + 8h..][..8]` ends by
        // `(k − 1)·n + 8H`, the length of `xt`; `wt[r·k + j]` with `r < 4`
        // is inside `wt`. `loadu` needs no alignment.
        let xv: [__m256; H] =
            std::array::from_fn(|h| unsafe { _mm256_loadu_ps(xp.add(j * n + h * LANES)) });
        for (r, a) in acc.iter_mut().enumerate() {
            // SAFETY: as above.
            let wv = _mm256_set1_ps(unsafe { *wp.add(r * k + j) });
            for (av, xh) in a.iter_mut().zip(xv) {
                *av = mul_add(*av, wv, xh);
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        let o = &mut out[(i0 + r) * n + p0..][..H * LANES];
        for (h, v) in a.iter().enumerate() {
            store(&mut o[h * LANES..], *v);
        }
    }
}

#[target_feature(enable = "avx2")]
fn norms4(bs: [&[f32]; 4]) -> [f32; 4] {
    let len = bs[0].len();
    let body = len / LANES * LANES;
    let bp = bs.map(|b| b.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    for c in (0..body).step_by(LANES) {
        for (a, p) in acc.iter_mut().zip(bp) {
            // SAFETY: every window has length `len` (checked by the entry)
            // and `c + 8 <= body <= len`; `loadu` needs no alignment.
            let v = unsafe { _mm256_loadu_ps(p.add(c)) };
            *a = mul_add(*a, v, v);
        }
    }
    let sums = reduce4(acc);
    std::array::from_fn(|i| {
        let mut tail = 0.0f32;
        for x in &bs[i][body..] {
            tail += x * x;
        }
        sums[i] + tail
    })
}

#[target_feature(enable = "avx2")]
fn scaled4(a: &[f32], bs: [&[f32]; 4], scales: [f32; 4]) -> [f32; 4] {
    let body = a.len() / LANES * LANES;
    let sv = scales.map(|s| _mm256_set1_ps(s));
    let bp = bs.map(|b| b.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    for c in (0..body).step_by(LANES) {
        let av = load(&a[c..]);
        for ((acc, p), s) in acc.iter_mut().zip(bp).zip(sv) {
            // SAFETY: every window has `a`'s length (checked by the entry)
            // and `c + 8 <= body <= a.len()`; `loadu` needs no alignment.
            let bv = unsafe { _mm256_loadu_ps(p.add(c)) };
            let d = _mm256_sub_ps(av, _mm256_mul_ps(bv, s));
            *acc = mul_add(*acc, d, d);
        }
    }
    let sums = reduce4(acc);
    std::array::from_fn(|i| {
        let mut tail = 0.0f32;
        for (x, y) in a[body..].iter().zip(&bs[i][body..]) {
            let d = x - y * scales[i];
            tail += d * d;
        }
        sums[i] + tail
    })
}

/// One `b·scale` product per eight lanes, shared by the four queries; each
/// query subtracts it, squares and accumulates in its own register.
#[target_feature(enable = "avx2")]
fn scaled_q4(queries: [&[f32]; 4], b: &[f32], scale: f32) -> [f32; 4] {
    let body = b.len() / LANES * LANES;
    let s = _mm256_set1_ps(scale);
    let qp = queries.map(|q| q.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    for c in (0..body).step_by(LANES) {
        let sb = _mm256_mul_ps(load(&b[c..]), s);
        for (acc, p) in acc.iter_mut().zip(qp) {
            // SAFETY: every query has `b`'s length (checked by the entry)
            // and `c + 8 <= body <= b.len()`; `loadu` needs no alignment.
            let qv = unsafe { _mm256_loadu_ps(p.add(c)) };
            let d = _mm256_sub_ps(qv, sb);
            *acc = mul_add(*acc, d, d);
        }
    }
    let sums = reduce4(acc);
    std::array::from_fn(|i| {
        let mut tail = 0.0f32;
        for (x, y) in queries[i][body..].iter().zip(&b[body..]) {
            let d = x - y * scale;
            tail += d * d;
        }
        sums[i] + tail
    })
}
