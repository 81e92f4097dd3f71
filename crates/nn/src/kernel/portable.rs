//! The portable blocked bodies of the output-blocked kernels: plain Rust,
//! any target. Each is the fallback where AVX2 is missing and the oracle
//! the AVX2 bodies are tested against bit for bit
//! (`tests/kernel_properties.rs`). Every output keeps the arithmetic of the
//! one-output kernel it replaces — see the contract in [`super`].

use super::{dot, reduce_lanes, LANES};

/// Outputs [`matmul_xwt_acc`] reduces per pass over an input row.
pub const OUT_BLOCK: usize = 8;
/// Output rows of one [`matmul_wx`] register tile.
pub const ROW_TILE: usize = 4;
/// Pixels (output columns) of one [`matmul_wx`] register tile.
pub const PX_TILE: usize = 16;

/// `out[b, o] += dot(x[b], w[o])` with [`dot`]'s bits. `x` is
/// `[batch, in_dim]`, `w` is `[out_dim, in_dim]`, `out` is
/// `[batch, out_dim]`, all row-major. Eight outputs share each pass over
/// an input row; each keeps its own eight lanes, its own sequential tail
/// and the `reduce_lanes` tree, evaluated for the block at once on the
/// transposed lanes.
pub fn matmul_xwt_acc(
    x: &[f32],
    w: &[f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    check_xwt(x, w, batch, in_dim, out_dim, out);
    let body = in_dim / LANES * LANES;
    for b in 0..batch {
        let xr = &x[b * in_dim..][..in_dim];
        let orow = &mut out[b * out_dim..][..out_dim];
        let blocks = out_dim / OUT_BLOCK * OUT_BLOCK;
        for o in (0..blocks).step_by(OUT_BLOCK) {
            let wb = &w[o * in_dim..][..OUT_BLOCK * in_dim];
            let mut lanes = [[0.0f32; LANES]; OUT_BLOCK];
            for c in (0..body).step_by(LANES) {
                let xa = &xr[c..c + LANES];
                for (j, lj) in lanes.iter_mut().enumerate() {
                    let wa = &wb[j * in_dim + c..][..LANES];
                    for k in 0..LANES {
                        lj[k] += xa[k] * wa[k];
                    }
                }
            }
            let sums = reduce_transposed(&lanes);
            for (j, s) in sums.into_iter().enumerate() {
                let mut tail = 0.0f32;
                for (xv, wv) in xr[body..].iter().zip(&wb[j * in_dim + body..][..in_dim - body]) {
                    tail += xv * wv;
                }
                orow[o + j] += s + tail;
            }
        }
        for o in blocks..out_dim {
            orow[o] += dot(xr, &w[o * in_dim..][..in_dim]);
        }
    }
}

/// `reduce_lanes` of each of eight lane vectors, computed as the same tree
/// over their transpose: `t[k][j] = lanes[j][k]`, and every tree node adds
/// two whole rows of `t`, so output `j` sees exactly
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))` of its own lanes.
fn reduce_transposed(lanes: &[[f32; LANES]; OUT_BLOCK]) -> [f32; OUT_BLOCK] {
    let mut t = [[0.0f32; OUT_BLOCK]; LANES];
    for (j, lj) in lanes.iter().enumerate() {
        for (k, v) in lj.iter().enumerate() {
            t[k][j] = *v;
        }
    }
    let add = |a: [f32; OUT_BLOCK], b: [f32; OUT_BLOCK]| -> [f32; OUT_BLOCK] {
        std::array::from_fn(|j| a[j] + b[j])
    };
    add(add(add(t[0], t[1]), add(t[2], t[3])), add(add(t[4], t[5]), add(t[6], t[7])))
}

/// `out[i, p] = init[i] + Σ_j w[i, j] · x[j, p]`, the sum taken in `j`
/// order with a `mul` then an `add` per term — the bits of
/// `out[i].fill(init[i])` followed by one [`super::axpy`] of `x[j]` per
/// `j`. `w` is `[m, k]`, `x` is `[k, n]`, `out` is `[m, n]`, all
/// row-major. Computed in register tiles of [`ROW_TILE`] rows ×
/// [`PX_TILE`] pixels, pixel tiles outermost so a tile's `x` columns stay
/// in cache across the rows.
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
    check_wx(w, init, x, m, k, n, out);
    for p0 in (0..n).step_by(PX_TILE) {
        let pn = PX_TILE.min(n - p0);
        for i0 in (0..m).step_by(ROW_TILE) {
            wx_tile(w, init, x, k, n, i0..(i0 + ROW_TILE).min(m), p0..p0 + pn, out);
        }
    }
}

/// One tile of [`matmul_wx`]: rows `rows` (at most [`ROW_TILE`]) ×
/// pixels `px` (at most [`PX_TILE`]). The AVX2 body hands its edge tiles
/// here.
#[allow(clippy::too_many_arguments)]
pub(super) fn wx_tile(
    w: &[f32],
    init: &[f32],
    x: &[f32],
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
    px: std::ops::Range<usize>,
    out: &mut [f32],
) {
    let pn = px.len();
    let mut acc = [[0.0f32; PX_TILE]; ROW_TILE];
    for (a, i) in acc.iter_mut().zip(rows.clone()) {
        a[..pn].fill(init[i]);
    }
    for j in 0..k {
        let xr = &x[j * n + px.start..][..pn];
        for (a, i) in acc.iter_mut().zip(rows.clone()) {
            let wv = w[i * k + j];
            for (av, xv) in a[..pn].iter_mut().zip(xr) {
                *av += wv * xv;
            }
        }
    }
    for (a, i) in acc.iter().zip(rows) {
        out[i * n + px.start..][..pn].copy_from_slice(&a[..pn]);
    }
}

/// `[dot(b, b) for b in bs]` with [`dot`]'s bits, the four windows
/// reduced in one pass (four independent lane sets). All four must have
/// one length.
pub fn norms_sq4(bs: [&[f32]; 4]) -> [f32; 4] {
    let len = bs[0].len();
    assert!(bs.iter().all(|b| b.len() == len), "norms_sq4: windows of one length");
    let body = len / LANES * LANES;
    let mut lanes = [[0.0f32; LANES]; 4];
    for c in (0..body).step_by(LANES) {
        for (l, b) in lanes.iter_mut().zip(bs) {
            let xb = &b[c..c + LANES];
            for k in 0..LANES {
                l[k] += xb[k] * xb[k];
            }
        }
    }
    std::array::from_fn(|i| {
        let mut tail = 0.0f32;
        for x in &bs[i][body..] {
            tail += x * x;
        }
        reduce_lanes(lanes[i]) + tail
    })
}

/// `[l2_sq_scaled(a, bs[i], scales[i]) for i in 0..4]` with
/// [`super::l2_sq_scaled`]'s bits, `a` read once for the four windows. Every
/// window must have `a`'s length.
pub fn l2_sq_scaled4(a: &[f32], bs: [&[f32]; 4], scales: [f32; 4]) -> [f32; 4] {
    assert!(bs.iter().all(|b| b.len() == a.len()), "l2_sq_scaled4: windows of the query's length");
    let body = a.len() / LANES * LANES;
    let mut lanes = [[0.0f32; LANES]; 4];
    for c in (0..body).step_by(LANES) {
        let xa = &a[c..c + LANES];
        for ((l, b), s) in lanes.iter_mut().zip(bs).zip(scales) {
            let xb = &b[c..c + LANES];
            for k in 0..LANES {
                let d = xa[k] - xb[k] * s;
                l[k] += d * d;
            }
        }
    }
    std::array::from_fn(|i| {
        let mut tail = 0.0f32;
        for (x, y) in a[body..].iter().zip(&bs[i][body..]) {
            let d = x - y * scales[i];
            tail += d * d;
        }
        reduce_lanes(lanes[i]) + tail
    })
}

/// `[l2_sq_scaled(q, b, scale) for q in queries]` with
/// [`super::l2_sq_scaled`]'s bits, `b` read once for the four queries —
/// the block of [`super::l2_sq_scaled_many`]. Each `b[i]·scale` is rounded
/// once and shared by the block, while every query keeps its own eight
/// lanes, its own sequential tail and its own `reduce_lanes`. Rust never
/// contracts the `mul` and the `sub` into an FMA, so a shared rounded
/// product is the product each query would have rounded itself. Every
/// query must have `b`'s length.
pub fn l2_sq_scaled_q4(queries: [&[f32]; 4], b: &[f32], scale: f32) -> [f32; 4] {
    assert!(queries.iter().all(|q| q.len() == b.len()), "l2_sq_scaled_q4: queries of b's length");
    let body = b.len() / LANES * LANES;
    let mut lanes = [[0.0f32; LANES]; 4];
    for c in (0..body).step_by(LANES) {
        let xb = &b[c..c + LANES];
        let sb: [f32; LANES] = std::array::from_fn(|k| xb[k] * scale);
        for (l, q) in lanes.iter_mut().zip(queries) {
            let xa = &q[c..c + LANES];
            for k in 0..LANES {
                let d = xa[k] - sb[k];
                l[k] += d * d;
            }
        }
    }
    std::array::from_fn(|i| {
        let mut tail = 0.0f32;
        for (x, y) in queries[i][body..].iter().zip(&b[body..]) {
            let d = x - y * scale;
            tail += d * d;
        }
        reduce_lanes(lanes[i]) + tail
    })
}

/// Shape checks shared by the portable and AVX2 bodies of
/// [`matmul_xwt_acc`]: hard asserts, so a bad shape panics the same way
/// whichever body runs.
pub(super) fn check_xwt(
    x: &[f32],
    w: &[f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    out: &[f32],
) {
    assert_eq!(x.len(), batch * in_dim, "matmul_xwt: x is [batch, in_dim]");
    assert_eq!(w.len(), out_dim * in_dim, "matmul_xwt: w is [out_dim, in_dim]");
    assert_eq!(out.len(), batch * out_dim, "matmul_xwt: out is [batch, out_dim]");
}

/// Shape checks of [`matmul_wx`], shared like [`check_xwt`].
#[allow(clippy::too_many_arguments)]
pub(super) fn check_wx(
    w: &[f32],
    init: &[f32],
    x: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &[f32],
) {
    assert_eq!(w.len(), m * k, "matmul_wx: w is [m, k]");
    assert_eq!(init.len(), m, "matmul_wx: one initial value per row");
    assert_eq!(x.len(), k * n, "matmul_wx: x is [k, n]");
    assert_eq!(out.len(), m * n, "matmul_wx: out is [m, n]");
}

#[cfg(test)]
mod tests {
    use super::super::l2_sq_scaled;
    use super::*;

    #[test]
    fn transposed_tree_is_reduce_lanes_per_output() {
        let lanes: [[f32; LANES]; OUT_BLOCK] =
            std::array::from_fn(|j| std::array::from_fn(|k| ((j * 8 + k) as f32 * 0.37).sin()));
        let got = reduce_transposed(&lanes);
        for j in 0..OUT_BLOCK {
            assert_eq!(got[j].to_bits(), reduce_lanes(lanes[j]).to_bits(), "j={j}");
        }
    }

    #[test]
    fn scaled4_is_four_scaled_calls() {
        let a: Vec<f32> = (0..21).map(|i| (i as f32 * 0.3).cos()).collect();
        let bs: Vec<Vec<f32>> =
            (0..4).map(|q| (0..21).map(|i| ((i + q * 5) as f32 * 0.7).sin()).collect()).collect();
        let scales = [0.5, 1.0, 1.7, 3.0];
        let got = l2_sq_scaled4(&a, [&bs[0], &bs[1], &bs[2], &bs[3]], scales);
        for i in 0..4 {
            assert_eq!(got[i].to_bits(), l2_sq_scaled(&a, &bs[i], scales[i]).to_bits());
        }
    }
}
