//! Asymmetric distance and dequantization kernels: an **f32 query** against
//! an **f16 table row**, fused — the row is never materialized as f32.
//!
//! These follow the shape of `af_nn::kernel` exactly (the same `LANES`-wide
//! independent accumulators and the same fixed reduction tree), so a fused
//! asymmetric distance is **bit-identical** to dequantizing the row and
//! calling [`af_nn::kernel::l2_sq`] — asserted in the tests below. That
//! equivalence is what lets the exactness tests reason about quantized
//! scans: the only error source is the codec, never the kernel.

use crate::f16::f16_to_f32;
use af_nn::kernel::LANES;

#[inline]
fn reduce_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Squared L2 distance between an f32 query and an f16 row.
#[inline]
pub fn l2_sq_f16(query: &[f32], row: &[u16]) -> f32 {
    debug_assert_eq!(query.len(), row.len());
    let mut lanes = [0.0f32; LANES];
    let mut cq = query.chunks_exact(LANES);
    let mut cr = row.chunks_exact(LANES);
    for (xq, xr) in (&mut cq).zip(&mut cr) {
        for k in 0..LANES {
            let d = xq[k] - f16_to_f32(xr[k]);
            lanes[k] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (q, r) in cq.remainder().iter().zip(cr.remainder()) {
        let d = q - f16_to_f32(*r);
        tail += d * d;
    }
    reduce_lanes(lanes) + tail
}

/// Dequantize an f16 row into `out`.
#[inline]
pub fn dequant_f16_into(row: &[u16], out: &mut [f32]) {
    debug_assert_eq!(row.len(), out.len());
    for (o, &h) in out.iter_mut().zip(row) {
        *o = f16_to_f32(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::f32_to_f16;
    use af_nn::kernel::l2_sq;

    fn query(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn f16_distance_is_bit_identical_to_dequant_plus_l2() {
        for n in [0, 1, 7, 8, 9, 16, 31, 240] {
            let q = query(n);
            let row: Vec<u16> = (0..n).map(|i| f32_to_f16((i as f32 * 0.11).cos())).collect();
            let mut dq = vec![0.0f32; n];
            dequant_f16_into(&row, &mut dq);
            assert_eq!(l2_sq_f16(&q, &row).to_bits(), l2_sq(&q, &dq).to_bits(), "n={n}");
        }
    }
}
