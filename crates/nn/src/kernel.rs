//! Shared numeric kernels — the single implementation of dot / squared-L2 /
//! axpy / sum / row-major matmul used across the workspace. `af-nn` layers
//! and `af-ann` indexes both build on these (`af_ann::metric` re-exports
//! [`l2_sq`], so there is exactly one distance kernel to test and tune).
//!
//! All reduction kernels are written as 8-wide unrolled loops: a plain
//! `acc += a[i] * b[i]` loop cannot be autovectorized under IEEE-754
//! semantics because it pins the summation order, while eight independent
//! accumulators give LLVM a legal SIMD schedule. The lane count and the
//! final reduction tree are fixed at compile time, so results are
//! bit-deterministic run-to-run (they differ from a strictly sequential
//! sum only by the usual f32 rounding, within ~1e-4 relative — see the
//! property tests in `tests/kernel_properties.rs`).

/// Unroll width of the reduction kernels.
pub const LANES: usize = 8;

/// The fixed reduction tree over the eight lane sums. Kept out of line on
/// purpose: inlined, LLVM carries the tree's pairing back into the loop
/// and keeps the accumulators in a shuffled four-register layout (twelve
/// shuffles per eight floats); behind a call the loop is two plain
/// accumulators. Same arithmetic, same bits — a 2560-float [`dot`] went
/// from ~1000 ns to ~320 ns on the reference box.
#[inline(never)]
fn reduce_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..LANES {
            lanes[k] += xa[k] * xb[k];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_lanes(lanes) + tail
}

/// Squared L2 distance between two equal-length vectors. On unit vectors
/// this equals `2 − 2·cosθ`, so ranking by it matches cosine ranking.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..LANES {
            let d = xa[k] - xb[k];
            lanes[k] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce_lanes(lanes) + tail
}

/// `Σ (a[i] − b[i]·scale)²` — [`l2_sq`] against `b` scaled by `scale`,
/// without writing the scaled vector anywhere. Each product is rounded to
/// `f32` before the subtraction and the lanes accumulate in [`l2_sq`]'s
/// order, so the result has the bits of scaling `b` in place first.
#[inline]
pub fn l2_sq_scaled(a: &[f32], b: &[f32], scale: f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..LANES {
            let d = xa[k] - xb[k] * scale;
            lanes[k] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y * scale;
        tail += d * d;
    }
    reduce_lanes(lanes) + tail
}

/// Queries [`l2_sq_scaled_many`] scores in one pass over `b`.
const QUERY_BLOCK: usize = 4;

/// `out[q] = l2_sq_scaled(queries[q], b, scale)` for every query, bit for
/// bit, reading `b` once per block of four queries: each `b[i]·scale` is
/// rounded once and shared by the block, while every query keeps its own
/// eight lanes in [`l2_sq_scaled`]'s order, its own sequential tail and
/// its own `reduce_lanes`. Rust never contracts the `mul` and the `sub`
/// into an FMA, so a shared rounded product is the product each query
/// would have rounded itself. Left-over queries (and any block with a
/// query whose length is not `b`'s) go through [`l2_sq_scaled`] itself.
pub fn l2_sq_scaled_many(queries: &[&[f32]], b: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(queries.len(), out.len());
    let body = b.len() / LANES * LANES;
    let (b_body, b_tail) = b.split_at(body);
    let mut blocks = queries.chunks_exact(QUERY_BLOCK);
    let mut outs = out.chunks_exact_mut(QUERY_BLOCK);
    for (qs, os) in (&mut blocks).zip(&mut outs) {
        if qs.iter().any(|q| q.len() != b.len()) {
            for (q, o) in qs.iter().zip(os) {
                *o = l2_sq_scaled(q, b, scale);
            }
            continue;
        }
        let q = [&qs[0][..body], &qs[1][..body], &qs[2][..body], &qs[3][..body]];
        let mut lanes = [[0.0f32; LANES]; QUERY_BLOCK];
        for (c, xb) in b_body.chunks_exact(LANES).enumerate() {
            let mut sb = [0.0f32; LANES];
            for k in 0..LANES {
                sb[k] = xb[k] * scale;
            }
            for (lanes, qj) in lanes.iter_mut().zip(q) {
                let xa = &qj[c * LANES..(c + 1) * LANES];
                for k in 0..LANES {
                    let d = xa[k] - sb[k];
                    lanes[k] += d * d;
                }
            }
        }
        for ((o, lanes), qj) in os.iter_mut().zip(lanes).zip(qs) {
            let mut tail = 0.0f32;
            for (x, y) in qj[body..].iter().zip(b_tail) {
                let d = x - y * scale;
                tail += d * d;
            }
            *o = reduce_lanes(lanes) + tail;
        }
    }
    for (q, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
        *o = l2_sq_scaled(q, b, scale);
    }
}

/// Horizontal sum of a slice.
#[inline]
pub fn sum(a: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in &mut ca {
        for k in 0..LANES {
            lanes[k] += xa[k];
        }
    }
    let mut tail = 0.0f32;
    for x in ca.remainder() {
        tail += x;
    }
    reduce_lanes(lanes) + tail
}

/// `y[i] += alpha · x[i]` — elementwise, no reduction, so the 8-wide body
/// is pure bookkeeping that keeps the remainder handling uniform.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cx = x.chunks_exact(LANES);
    let mut cy = y.chunks_exact_mut(LANES);
    for (xa, ya) in (&mut cx).zip(&mut cy) {
        for k in 0..LANES {
            ya[k] += alpha * xa[k];
        }
    }
    for (xv, yv) in cx.remainder().iter().zip(cy.into_remainder()) {
        *yv += alpha * xv;
    }
}

/// Flattened-plane span of the shifted-plane kernels: one contiguous
/// `len`-element run covering every valid `(i, j)` of an `h×w` plane
/// shifted by `(r, s)`, plus the row ranges needed to enumerate the
/// row-boundary cells the flattened shift wraps across.
struct PlaneSpan {
    dst0: usize,
    src0: usize,
    len: usize,
    i_lo: usize,
    i_hi: usize,
}

fn plane_span(h: usize, w: usize, r: isize, s: isize) -> Option<PlaneSpan> {
    let i_lo = (-r).max(0) as usize;
    let i_hi = ((h as isize) - r).min(h as isize).max(0) as usize;
    if i_lo >= i_hi {
        return None;
    }
    let j_lo = (-s).max(0) as usize;
    let j_hi = ((w as isize) - s).min(w as isize).max(0) as usize;
    if j_lo >= j_hi {
        return None;
    }
    let n_rows = i_hi - i_lo;
    let len = (n_rows - 1) * w + (j_hi - j_lo);
    let dst0 = i_lo * w + j_lo;
    let src0 = ((i_lo as isize + r) * w as isize + j_lo as isize + s) as usize;
    Some(PlaneSpan { dst0, src0, len, i_lo, i_hi })
}

/// Visit the `(dst, src)` index pairs the flattened span wrongly couples
/// across row boundaries (the cells that should read zero padding).
#[inline]
fn for_each_wrapped(
    span: &PlaneSpan,
    w: usize,
    r: isize,
    s: isize,
    mut f: impl FnMut(usize, usize),
) {
    let delta = r * w as isize + s;
    if s > 0 {
        let su = s as usize;
        for i in span.i_lo..span.i_hi - 1 {
            for j in (w - su)..w {
                let d = i * w + j;
                f(d, (d as isize + delta) as usize);
            }
        }
    } else if s < 0 {
        let su = (-s) as usize;
        for i in span.i_lo + 1..span.i_hi {
            for j in 0..su {
                let d = i * w + j;
                f(d, (d as isize + delta) as usize);
            }
        }
    }
}

/// `out[i, j] += alpha · x[i + r, j + s]` over `h×w` planes with zero
/// padding outside — the inner operation of a stride-1 "same" convolution
/// tap. Executed as **one** long [`axpy`] over the flattened plane; the
/// row-boundary cells the flattened shift would contaminate are saved in
/// `scratch` beforehand and restored after, so the result is exactly the
/// per-row computation at a fraction of the call overhead (decisive for
/// narrow planes, e.g. the 40×8 sheet windows).
#[allow(clippy::too_many_arguments)]
pub fn shifted_plane_axpy(
    alpha: f32,
    x: &[f32],
    out: &mut [f32],
    h: usize,
    w: usize,
    r: isize,
    s: isize,
    scratch: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), h * w);
    debug_assert_eq!(out.len(), h * w);
    let Some(span) = plane_span(h, w, r, s) else { return };
    scratch.clear();
    for_each_wrapped(&span, w, r, s, |d, _| scratch.push(out[d]));
    axpy(alpha, &x[span.src0..span.src0 + span.len], &mut out[span.dst0..span.dst0 + span.len]);
    let mut at = 0usize;
    for_each_wrapped(&span, w, r, s, |d, _| {
        out[d] = scratch[at];
        at += 1;
    });
}

/// `out[i, j] = x[i + r, j + s]` over `h×w` planes with zero padding
/// outside — the im2col building block: one row of a tap-major column
/// matrix is the input plane shifted by the tap offset. `out` is fully
/// overwritten (zeros outside the valid span and at wrapped row-boundary
/// cells), via one long `copy_from_slice` over the flattened plane.
pub fn shifted_plane_copy(x: &[f32], out: &mut [f32], h: usize, w: usize, r: isize, s: isize) {
    debug_assert_eq!(x.len(), h * w);
    debug_assert_eq!(out.len(), h * w);
    let Some(span) = plane_span(h, w, r, s) else {
        out.fill(0.0);
        return;
    };
    // Zero only the cells the span copy does not overwrite.
    out[..span.dst0].fill(0.0);
    out[span.dst0..span.dst0 + span.len].copy_from_slice(&x[span.src0..span.src0 + span.len]);
    out[span.dst0 + span.len..].fill(0.0);
    for_each_wrapped(&span, w, r, s, |d, _| out[d] = 0.0);
}

/// `out[b, o] = bias[o] + Σ_i x[b, i] · w[o, i]` — the dense-layer kernel.
/// `w` is `[out_dim, in_dim]` row-major; the inner product streams both
/// operands contiguously through [`dot`]. Handles `batch == 0` and
/// `in_dim == 0` (output rows are then just the bias).
pub fn matmul_xwt(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), batch * in_dim);
    debug_assert_eq!(w.len(), out_dim * in_dim);
    debug_assert_eq!(bias.len(), out_dim);
    debug_assert_eq!(out.len(), batch * out_dim);
    for b in 0..batch {
        let xr = &x[b * in_dim..(b + 1) * in_dim];
        let or = &mut out[b * out_dim..(b + 1) * out_dim];
        for (o, ov) in or.iter_mut().enumerate() {
            *ov = bias[o] + dot(xr, &w[o * in_dim..(o + 1) * in_dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    #[test]
    fn dot_matches_naive_all_remainders() {
        for n in 0..40 {
            let a = seq(n, |i| i as f32 * 0.25 - 3.0);
            let b = seq(n, |i| (n - i) as f32 * 0.5);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() <= 1e-3 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn l2_matches_naive_all_remainders() {
        for n in 0..40 {
            let a = seq(n, |i| i as f32 * 0.5);
            let b = seq(n, |i| (n as f32) - i as f32 * 0.25);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((l2_sq(&a, &b) - naive).abs() <= 1e-3 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn sum_and_axpy() {
        let a = seq(19, |i| i as f32);
        assert_eq!(sum(&a), (0..19).sum::<i32>() as f32);
        let x = seq(11, |i| i as f32);
        let mut y = seq(11, |i| 100.0 + i as f32);
        axpy(2.0, &x, &mut y);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 100.0 + i as f32 + 2.0 * i as f32);
        }
    }

    #[test]
    fn matmul_degenerate_shapes() {
        // batch = 0: nothing written.
        let mut out: Vec<f32> = Vec::new();
        matmul_xwt(&[], &[1.0, 2.0], &[0.5], 0, 2, 1, &mut out);
        // in_dim = 0: rows are the bias.
        let mut out = [0.0f32; 4];
        matmul_xwt(&[], &[], &[7.0, 9.0], 2, 0, 2, &mut out);
        assert_eq!(out, [7.0, 9.0, 7.0, 9.0]);
    }

    #[test]
    fn matmul_matches_reference() {
        let (batch, ni, no) = (3, 13, 5);
        let x = seq(batch * ni, |i| (i as f32 * 0.37).sin());
        let w = seq(no * ni, |i| (i as f32 * 0.11).cos());
        let bias = seq(no, |i| i as f32 * 0.5);
        let mut out = vec![0.0; batch * no];
        matmul_xwt(&x, &w, &bias, batch, ni, no, &mut out);
        for b in 0..batch {
            for o in 0..no {
                let naive: f32 = (0..ni).map(|i| x[b * ni + i] * w[o * ni + i]).sum();
                let got = out[b * no + o];
                assert!((got - (bias[o] + naive)).abs() < 1e-4, "b={b} o={o}");
            }
        }
    }

    /// Naive per-element shifted accumulate: the reference semantics.
    fn naive_shift_axpy(
        alpha: f32,
        x: &[f32],
        out: &mut [f32],
        h: usize,
        w: usize,
        r: isize,
        s: isize,
    ) {
        for i in 0..h as isize {
            for j in 0..w as isize {
                let (ii, jj) = (i + r, j + s);
                if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                    out[(i * w as isize + j) as usize] +=
                        alpha * x[(ii * w as isize + jj) as usize];
                }
            }
        }
    }

    #[test]
    fn shifted_plane_axpy_matches_naive_exactly() {
        let (h, w) = (5, 4);
        let x: Vec<f32> = (0..h * w).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut scratch = Vec::new();
        for r in -3..=3i64 {
            for s in -3..=3i64 {
                let base: Vec<f32> = (0..h * w).map(|i| 100.0 + i as f32).collect();
                let mut got = base.clone();
                let mut want = base.clone();
                shifted_plane_axpy(0.7, &x, &mut got, h, w, r as isize, s as isize, &mut scratch);
                naive_shift_axpy(0.7, &x, &mut want, h, w, r as isize, s as isize);
                // Save/restore makes the fused version *bit*-exact.
                assert_eq!(got, want, "r={r} s={s}");
            }
        }
    }

    #[test]
    fn shifted_plane_copy_matches_naive() {
        let (h, w) = (4, 5);
        let x: Vec<f32> = (1..=h * w).map(|i| i as f32).collect();
        for r in -2..=2i64 {
            for s in -2..=2i64 {
                let (r, s) = (r as isize, s as isize);
                let mut got = vec![9.9f32; h * w];
                shifted_plane_copy(&x, &mut got, h, w, r, s);
                let mut want = vec![0.0f32; h * w];
                naive_shift_axpy(1.0, &x, &mut want, h, w, r, s);
                assert_eq!(got, want, "r={r} s={s}");
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let a = seq(1000, |i| (i as f32 * 0.013).sin());
        let b = seq(1000, |i| (i as f32 * 0.029).cos());
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
        assert_eq!(l2_sq(&a, &b).to_bits(), l2_sq(&a, &b).to_bits());
    }
}
