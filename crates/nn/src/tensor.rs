//! Row-major `f32` tensors with explicit shapes.
//!
//! The numeric kernels (`dot`, `l2_sq`, `matmul_xwt`) live in
//! [`crate::kernel`] and are re-exported here so existing call sites keep
//! working; this module only owns the [`Tensor`] container.

use std::fmt;

pub use crate::kernel::{dot, l2_sq, matmul_xwt};
use crate::kernel::{l2_sq_scaled, l2_sq_scaled_many};

/// A dense row-major tensor. Shapes follow the usual conventions:
/// `[batch, features]` for dense layers and `[batch, channels, height,
/// width]` for convolutional layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
}

impl Tensor {
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor { shape, data }
    }

    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n = shape.iter().product();
        Tensor { shape, data: vec![0.0; n] }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// First shape dimension (batch size by convention).
    pub fn batch(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Product of all dimensions after the first.
    pub fn features(&self) -> usize {
        self.shape.iter().skip(1).product()
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: Vec<usize>) -> Tensor {
        assert_eq!(shape.iter().product::<usize>(), self.data.len());
        self.shape = shape;
        self
    }

    /// Like [`Tensor::reshape`] but reuses the existing shape vector's
    /// capacity instead of taking a freshly allocated one — the hot-path
    /// variant used by the training loop.
    pub fn reshape_to(mut self, dims: &[usize]) -> Tensor {
        assert_eq!(dims.iter().product::<usize>(), self.data.len());
        self.shape.clear();
        self.shape.extend_from_slice(dims);
        self
    }

    /// Re-dimension this tensor in place to `dims`, zero-filled, reusing
    /// both the data and shape buffer capacity. This is the scratch-arena
    /// primitive: layers keep pool tensors and `reset_zeroed` them each
    /// step, so steady-state training performs no heap allocation once
    /// every pool has grown to its high-water mark.
    pub fn reset_zeroed(&mut self, dims: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(dims);
        let n: usize = dims.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
    }

    /// Like [`Tensor::reset_zeroed`] but without clearing existing
    /// contents — for pool buffers whose every element the caller fully
    /// overwrites (matmul outputs, im2col rows, featurized batch rows).
    /// Skipping the memset saves a full pass over the largest arenas each
    /// step; only newly grown capacity is zero-filled. Do NOT use for
    /// buffers that are accumulated into (`+=`) — those need
    /// [`Tensor::reset_zeroed`].
    pub fn reset_for_overwrite(&mut self, dims: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(dims);
        let n: usize = dims.iter().product();
        self.data.resize(n, 0.0);
    }

    /// Borrow row `i` of a 2-D view `[batch, features]`.
    pub fn row(&self, i: usize) -> &[f32] {
        let f = self.features();
        &self.data[i * f..(i + 1) * f]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let f = self.features();
        &mut self.data[i * f..(i + 1) * f]
    }
}

impl Default for Tensor {
    /// An empty `[0]` tensor — the idle state of a scratch pool.
    fn default() -> Tensor {
        Tensor { shape: vec![0], data: Vec::new() }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

/// Norm at or below which [`l2_normalize`] leaves a vector unscaled.
const NORMALIZE_EPS: f32 = 1e-12;

/// In-place L2 normalization; returns the original norm. Vectors with norm
/// below `eps` are left unchanged (and the norm returned is the true norm).
pub fn l2_normalize(v: &mut [f32]) -> f32 {
    let norm = dot(v, v).sqrt();
    if norm > NORMALIZE_EPS {
        let inv = 1.0 / norm;
        for x in v.iter_mut() {
            *x *= inv;
        }
    }
    norm
}

/// `l2_sq(a, b̂)` where `b̂` is `b` after [`l2_normalize`], without writing
/// `b̂`: the same norm, the same reciprocal and the same rounded products
/// summed in the same lane order, so the result is bit-identical to
/// normalizing a copy of `b` first. S3 scores every candidate window of a
/// neighbourhood this way from one scratch buffer.
pub fn l2_sq_normalized(a: &[f32], b: &[f32]) -> f32 {
    let norm = dot(b, b).sqrt();
    if norm > NORMALIZE_EPS {
        l2_sq_scaled(a, b, 1.0 / norm)
    } else {
        l2_sq(a, b)
    }
}

/// `out[q] = l2_sq_normalized(queries[q], b)` for every query, bit for
/// bit: `b`'s norm is computed once, and the queries are scored against
/// it together by [`l2_sq_scaled_many`]. S2 ranks a burst's targets
/// against each reference window this way.
pub fn l2_sq_normalized_many(queries: &[&[f32]], b: &[f32], out: &mut [f32]) {
    let norm = dot(b, b).sqrt();
    if norm > NORMALIZE_EPS {
        l2_sq_scaled_many(queries, b, 1.0 / norm, out)
    } else {
        for (q, o) in queries.iter().zip(out) {
            *o = l2_sq(q, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks() {
        let t = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.batch(), 2);
        assert_eq!(t.features(), 3);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic]
    fn bad_shape_panics() {
        Tensor::new(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn matmul_small() {
        // x = [[1,2]], w = [[1,0],[0,1],[1,1]], b = [10,20,30]
        let x = [1.0, 2.0];
        let w = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let b = [10.0, 20.0, 30.0];
        let mut out = [0.0; 3];
        matmul_xwt(&x, &w, &b, 1, 2, 3, &mut out);
        assert_eq!(out, [11.0, 22.0, 33.0]);
    }

    #[test]
    fn l2_helpers() {
        assert_eq!(l2_sq(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut v = vec![3.0, 4.0];
        let n = l2_normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((v[0] - 0.6).abs() < 1e-6 && (v[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut v = vec![0.0, 0.0];
        let n = l2_normalize(&mut v);
        assert_eq!(n, 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(vec![2, 2], vec![1., 2., 3., 4.]).reshape(vec![4]);
        assert_eq!(t.shape, vec![4]);
        assert_eq!(t.data, vec![1., 2., 3., 4.]);
        let t = t.reshape_to(&[1, 4]);
        assert_eq!(t.shape, vec![1, 4]);
        assert_eq!(t.data, vec![1., 2., 3., 4.]);
    }

    #[test]
    fn reset_zeroed_reuses_capacity() {
        let mut t = Tensor::new(vec![2, 3], vec![1.0; 6]);
        let cap = t.data.capacity();
        t.reset_zeroed(&[3, 2]);
        assert_eq!(t.shape, vec![3, 2]);
        assert_eq!(t.data, vec![0.0; 6]);
        assert_eq!(t.data.capacity(), cap, "shrinking must not reallocate");
        t.reset_zeroed(&[1, 2]);
        assert_eq!(t.len(), 2);
    }
}
