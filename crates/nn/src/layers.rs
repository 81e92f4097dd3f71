//! Layers with hand-written forward/backward passes.
//!
//! Every layer offers two entry points:
//! * [`Layer::forward`] — training-mode pass that caches activations for the
//!   matching [`Layer::backward`] call;
//! * [`Layer::infer`] — immutable inference pass (no caches), safe to call
//!   from many threads on a shared model.
//!
//! **Scratch-buffer story.** Training-mode layers own pool tensors for
//! their outputs and input-gradients. `forward` takes its output buffer
//! from the pool; `backward` recycles the incoming gradient tensor (shaped
//! like the next forward's output) and the cached input (shaped like the
//! next input-gradient) back into those pools. Buffers therefore circulate
//! through the network instead of being reallocated, and a steady-state
//! training step performs no heap allocation once every pool has reached
//! its high-water capacity. `infer` never touches the pools.

use crate::init::{he_uniform, xavier_uniform};
use crate::kernel::{
    axpy, dot, matmul_wx, matmul_xwt, matmul_xwt_acc, shifted_plane_axpy, shifted_plane_copy, sum,
};
use crate::tensor::{l2_normalize, Tensor};
use rand::rngs::StdRng;

/// A differentiable layer.
pub trait Layer: Send + Sync {
    /// Training forward pass (caches inputs for backprop).
    fn forward(&mut self, x: Tensor) -> Tensor;
    /// Backward pass; consumes the gradient w.r.t. the output, accumulates
    /// parameter gradients, and returns the gradient w.r.t. the input.
    fn backward(&mut self, grad: Tensor) -> Tensor;
    /// Inference pass, no caching.
    fn infer(&self, x: Tensor) -> Tensor;
    /// Visit `(param, grad)` slices in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));
    /// Visit parameter slices read-only, in the same stable order as
    /// [`Layer::visit_params`]. This is what snapshotting uses, so a live
    /// model can be serialized through `&self` while other threads keep
    /// running inference against it.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&[f32]));
    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        // visit_params requires &mut self; count via a separate default is
        // overridden by layers with parameters.
        let _ = &mut n;
        0
    }

    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 0.0));
    }
}

// ------------------------------------------------- flat parameter access

/// Append every parameter block of `layer` to `out` (stable visit order).
/// Returns the number of values appended.
pub fn export_params_into(layer: &mut dyn Layer, out: &mut Vec<f32>) -> usize {
    let before = out.len();
    layer.visit_params(&mut |p, _| out.extend_from_slice(p));
    out.len() - before
}

/// Overwrite parameters from a flat slice (stable visit order). Returns
/// the number of values consumed.
pub fn import_params_from(layer: &mut dyn Layer, src: &[f32]) -> usize {
    let mut off = 0usize;
    layer.visit_params(&mut |p, _| {
        p.copy_from_slice(&src[off..off + p.len()]);
        off += p.len();
    });
    off
}

/// Append every gradient block of `layer` to `out` (stable visit order).
/// Returns the number of values appended.
pub fn export_grads_into(layer: &mut dyn Layer, out: &mut Vec<f32>) -> usize {
    let before = out.len();
    layer.visit_params(&mut |_, g| out.extend_from_slice(g));
    out.len() - before
}

/// Add a flat gradient slice into the layer's gradients (stable visit
/// order) — the deterministic reduction step of data-parallel training.
/// Returns the number of values consumed.
pub fn accumulate_grads_from(layer: &mut dyn Layer, src: &[f32]) -> usize {
    let mut off = 0usize;
    layer.visit_params(&mut |_, g| {
        axpy(1.0, &src[off..off + g.len()], g);
        off += g.len();
    });
    off
}

// ---------------------------------------------------------------- Linear

/// Fully-connected layer `y = xWᵀ + b` with `w: [out, in]`.
pub struct Linear {
    pub in_dim: usize,
    pub out_dim: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    cache: Option<Tensor>,
    out_pool: Tensor,
    gx_pool: Tensor,
}

impl Linear {
    pub fn new(rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Linear {
        Linear {
            in_dim,
            out_dim,
            w: xavier_uniform(rng, in_dim, out_dim, in_dim * out_dim),
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            cache: None,
            out_pool: Tensor::default(),
            gx_pool: Tensor::default(),
        }
    }

    fn run(&self, x: &Tensor) -> Tensor {
        let batch = x.batch();
        assert_eq!(x.features(), self.in_dim, "Linear input dim mismatch");
        let mut out = Tensor::zeros(vec![batch, self.out_dim]);
        matmul_xwt(&x.data, &self.w, &self.b, batch, self.in_dim, self.out_dim, &mut out.data);
        out
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let batch = x.batch();
        assert_eq!(x.features(), self.in_dim, "Linear input dim mismatch");
        let mut out = std::mem::take(&mut self.out_pool);
        out.reset_for_overwrite(&[batch, self.out_dim]);
        matmul_xwt(&x.data, &self.w, &self.b, batch, self.in_dim, self.out_dim, &mut out.data);
        self.cache = Some(x);
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let x = self.cache.take().expect("forward before backward");
        let batch = x.batch();
        let (ni, no) = (self.in_dim, self.out_dim);
        let mut gx = std::mem::take(&mut self.gx_pool);
        gx.reset_zeroed(&[batch, ni]);
        for b in 0..batch {
            let gr = &grad.data[b * no..(b + 1) * no];
            let xr = &x.data[b * ni..(b + 1) * ni];
            let gxr = &mut gx.data[b * ni..(b + 1) * ni];
            for (o, &g) in gr.iter().enumerate() {
                self.gb[o] += g;
                if g == 0.0 {
                    continue; // ReLU-sparse gradients: adding zero is a no-op
                }
                axpy(g, xr, &mut self.gw[o * ni..(o + 1) * ni]);
                axpy(g, &self.w[o * ni..(o + 1) * ni], gxr);
            }
        }
        self.out_pool = grad; // sized like the next forward's output
        self.gx_pool = x; // sized like the next input-gradient
        gx
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.run(&x)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.w);
        f(&self.b);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

// ------------------------------------------------------------------ ReLU

/// Elementwise rectifier.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    pub fn new() -> Relu {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut x: Tensor) -> Tensor {
        // Mask, then clamp, in two plain passes: one loop that pushes per
        // element cannot vectorise. A NaN is masked out and passes through.
        self.mask.clear();
        self.mask.extend(x.data.iter().map(|v| *v > 0.0));
        for v in x.data.iter_mut() {
            if *v <= 0.0 {
                *v = 0.0;
            }
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        assert_eq!(grad.data.len(), self.mask.len(), "forward before backward");
        for (g, &m) in grad.data.iter_mut().zip(self.mask.iter()) {
            if !m {
                *g = 0.0;
            }
        }
        grad
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        for v in x.data.iter_mut() {
            if *v <= 0.0 {
                *v = 0.0;
            }
        }
        x
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&[f32])) {}
}

// ---------------------------------------------------------------- Conv2d

/// 2-D convolution with square kernel, stride 1 and "same" zero padding.
/// Input `[B, Cin, H, W]`, output `[B, Cout, H, W]`.
///
/// Both passes run over a **tap-major im2col matrix**: `cols[t]` (one row
/// per kernel tap `t = (ci, di, dj)`) is the whole input batch shifted by
/// the tap offset ([`shifted_plane_copy`]), so the forward pass is
/// `out[co] = bias[co] + Σ_t w[co, t] · cols[t]` over `B·H·W`-long rows
/// instead of millions of short row segments — the sheet windows this
/// workspace convolves are only 5–8 columns wide. [`matmul_wx`] computes it
/// in register tiles of 4 channels × 16 pixels, each pixel summed over the
/// taps in order, with the bits of one [`axpy`] per tap. The col matrix is
/// cached for the backward pass: weight gradients are
/// `dot(gradᵀ[co], cols[t])`, eight taps per pass over a gradient row
/// ([`matmul_xwt_acc`]); the col-space input gradient
/// `Σ_co w[co, t] · gradᵀ[co]` overwrites the col rows (tiled again by
/// [`matmul_wx`] over the transposed filter) and is scattered back tap by
/// tap with [`shifted_plane_axpy`].
pub struct Conv2d {
    pub in_ch: usize,
    pub out_ch: usize,
    pub kernel: usize,
    w: Vec<f32>, // [out_ch, in_ch, k, k]
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    cache: Option<Tensor>,
    out_pool: Tensor,
    gx_pool: Tensor,
    /// Tap-major im2col matrix `[cin·k², B·H·W]`, built in forward and
    /// consumed in backward.
    cols: Tensor,
    /// Channel-major staging `[max(out_ch, ...), B·H·W]`: output rows in
    /// forward, transposed upstream gradient in backward.
    chan: Tensor,
    /// The filter transposed to `[cin·k², out_ch]`, and one zero per tap:
    /// the operands of the col-space input gradient.
    wt: Vec<f32>,
    zeros: Vec<f32>,
    wrap_scratch: Vec<f32>,
}

impl Conv2d {
    pub fn new(rng: &mut StdRng, in_ch: usize, out_ch: usize, kernel: usize) -> Conv2d {
        assert!(kernel % 2 == 1, "same-padding requires an odd kernel");
        let fan_in = in_ch * kernel * kernel;
        Conv2d {
            in_ch,
            out_ch,
            kernel,
            w: he_uniform(rng, fan_in, out_ch * fan_in),
            b: vec![0.0; out_ch],
            gw: vec![0.0; out_ch * fan_in],
            gb: vec![0.0; out_ch],
            cache: None,
            out_pool: Tensor::default(),
            gx_pool: Tensor::default(),
            cols: Tensor::default(),
            chan: Tensor::default(),
            wt: Vec::new(),
            zeros: Vec::new(),
            wrap_scratch: Vec::new(),
        }
    }

    /// Tap offsets `(r, s)` of tap index `t` with padding `p`.
    #[inline]
    fn tap_shift(&self, t: usize) -> (isize, isize) {
        let k = self.kernel;
        let p = (k / 2) as isize;
        let di = (t / k) % k;
        let dj = t % k;
        (di as isize - p, dj as isize - p)
    }

    /// Build the tap-major im2col matrix for `x` into `cols`.
    fn im2col(&self, x: &Tensor, cols: &mut Tensor) {
        let [bsz, cin, h, w] = dims4(x);
        assert_eq!(cin, self.in_ch, "Conv2d channel mismatch");
        let k = self.kernel;
        let t_dim = cin * k * k;
        let n_px = bsz * h * w;
        cols.reset_for_overwrite(&[t_dim, n_px]);
        for t in 0..t_dim {
            let ci = t / (k * k);
            let (r, s) = self.tap_shift(t);
            for b in 0..bsz {
                let xplane = &x.data[((b * cin + ci) * h) * w..][..h * w];
                let dst = &mut cols.data[t * n_px + b * h * w..][..h * w];
                shifted_plane_copy(xplane, dst, h, w, r, s);
            }
        }
    }

    /// Forward from a built col matrix into `out` (`[bsz, out_ch, h, w]`),
    /// staging channel-major rows in `chan` when the batch has more than
    /// one image (one image's `[out_ch, h·w]` rows already are its planes).
    fn forward_from_cols(&self, cols: &Tensor, chan: &mut Tensor, out: &mut Tensor) {
        let [bsz, out_ch, h, w] = dims4(out);
        let n_px = bsz * h * w;
        let t_dim = self.in_ch * self.kernel * self.kernel;
        if bsz == 1 {
            matmul_wx(&self.w, &self.b, &cols.data, out_ch, t_dim, n_px, &mut out.data);
            return;
        }
        chan.reset_for_overwrite(&[out_ch, n_px]);
        matmul_wx(&self.w, &self.b, &cols.data, out_ch, t_dim, n_px, &mut chan.data);
        // Scatter channel-major rows into [b, co, h, w] planes.
        for b in 0..bsz {
            for co in 0..out_ch {
                out.data[((b * out_ch + co) * h) * w..][..h * w]
                    .copy_from_slice(&chan.data[co * n_px + b * h * w..][..h * w]);
            }
        }
    }

    fn run(&self, x: &Tensor) -> Tensor {
        let [bsz, _, h, w] = dims4(x);
        let mut out = Tensor::zeros(vec![bsz, self.out_ch, h, w]);
        let mut cols = Tensor::default();
        let mut chan = Tensor::default();
        self.im2col(x, &mut cols);
        self.forward_from_cols(&cols, &mut chan, &mut out);
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let [bsz, _, h, w] = dims4(&x);
        let mut out = std::mem::take(&mut self.out_pool);
        out.reset_for_overwrite(&[bsz, self.out_ch, h, w]);
        let mut cols = std::mem::take(&mut self.cols);
        let mut chan = std::mem::take(&mut self.chan);
        self.im2col(&x, &mut cols);
        self.forward_from_cols(&cols, &mut chan, &mut out);
        self.cols = cols;
        self.chan = chan;
        self.cache = Some(x);
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let x = self.cache.take().expect("forward before backward");
        let [bsz, cin, h, w] = dims4(&x);
        let k = self.kernel;
        let t_dim = cin * k * k;
        let n_px = bsz * h * w;
        let out_ch = self.out_ch;
        let mut gx = std::mem::take(&mut self.gx_pool);
        gx.reset_zeroed(&[bsz, cin, h, w]);
        // Transpose the upstream gradient to channel-major rows.
        let mut gt = std::mem::take(&mut self.chan);
        gt.reset_for_overwrite(&[out_ch, n_px]);
        for b in 0..bsz {
            for co in 0..out_ch {
                gt.data[co * n_px + b * h * w..][..h * w]
                    .copy_from_slice(&grad.data[((b * out_ch + co) * h) * w..][..h * w]);
            }
        }
        for co in 0..out_ch {
            self.gb[co] += sum(&gt.data[co * n_px..][..n_px]);
        }
        // Weight gradients from the cached cols, then the col-space input
        // gradient written over them, then each tap scattered back in tap
        // order: per value, the sums of a tap-at-a-time loop.
        let mut cols = std::mem::take(&mut self.cols);
        matmul_xwt_acc(&gt.data, &cols.data, out_ch, n_px, t_dim, &mut self.gw);
        self.wt.resize(t_dim * out_ch, 0.0);
        for co in 0..out_ch {
            for t in 0..t_dim {
                self.wt[t * out_ch + co] = self.w[co * t_dim + t];
            }
        }
        self.zeros.resize(t_dim, 0.0);
        matmul_wx(&self.wt, &self.zeros, &gt.data, t_dim, out_ch, n_px, &mut cols.data);
        for t in 0..t_dim {
            // col2im: scatter through the transposed tap shift.
            let ci = t / (k * k);
            let (r, s) = self.tap_shift(t);
            for b in 0..bsz {
                let src = &cols.data[t * n_px + b * h * w..][..h * w];
                let gxplane = &mut gx.data[((b * cin + ci) * h) * w..][..h * w];
                shifted_plane_axpy(1.0, src, gxplane, h, w, -r, -s, &mut self.wrap_scratch);
            }
        }
        self.cols = cols;
        self.chan = gt;
        self.out_pool = grad;
        self.gx_pool = x;
        gx
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.run(&x)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.w);
        f(&self.b);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

// ------------------------------------------------------------- MaxPool2d

/// Non-overlapping max pooling (`k × k` windows, stride `k`). Truncates
/// ragged borders like the usual floor-division convention.
pub struct MaxPool2d {
    pub k: usize,
    argmax: Vec<usize>,
    out_pool: Tensor,
    gx_pool: Tensor,
}

impl MaxPool2d {
    pub fn new(k: usize) -> MaxPool2d {
        assert!(k >= 1);
        MaxPool2d { k, argmax: Vec::new(), out_pool: Tensor::default(), gx_pool: Tensor::default() }
    }

    fn out_dims(&self, x: &Tensor) -> [usize; 4] {
        let [bsz, c, h, w] = dims4(x);
        let (oh, ow) = (h / self.k, w / self.k);
        assert!(oh > 0 && ow > 0, "pooling window larger than input");
        [bsz, c, oh, ow]
    }

    /// Pool into `out` (already shaped); optionally record argmax indices.
    fn run_into(&self, x: &Tensor, out: &mut Tensor, mut record: Option<&mut Vec<usize>>) {
        let [bsz, c, h, w] = dims4(x);
        let k = self.k;
        let [_, _, oh, ow] = self.out_dims(x);
        if let Some(r) = record.as_deref_mut() {
            r.clear();
            r.reserve(out.len());
        }
        for b in 0..bsz {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                for i in 0..oh {
                    for j in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for di in 0..k {
                            let row_start = base + (i * k + di) * w + j * k;
                            let row = &x.data[row_start..row_start + k];
                            for (dj, &v) in row.iter().enumerate() {
                                if v > best {
                                    best = v;
                                    best_idx = row_start + dj;
                                }
                            }
                        }
                        out.data[((b * c + ch) * oh + i) * ow + j] = best;
                        if let Some(r) = record.as_deref_mut() {
                            r.push(best_idx);
                        }
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let dims = self.out_dims(&x);
        let mut out = std::mem::take(&mut self.out_pool);
        out.reset_for_overwrite(&dims);
        let mut argmax = std::mem::take(&mut self.argmax);
        self.run_into(&x, &mut out, Some(&mut argmax));
        self.argmax = argmax;
        self.gx_pool = x; // keep the input buffer (and shape) for backward
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        // The pool holds the cached input, so its shape is already the
        // input shape; only the values need resetting.
        let mut gx = std::mem::take(&mut self.gx_pool);
        gx.data.iter_mut().for_each(|v| *v = 0.0);
        for (g, &idx) in grad.data.iter().zip(self.argmax.iter()) {
            gx.data[idx] += g;
        }
        self.out_pool = grad;
        gx
    }

    fn infer(&self, x: Tensor) -> Tensor {
        let dims = self.out_dims(&x);
        let mut out = Tensor::zeros(dims.to_vec());
        self.run_into(&x, &mut out, None);
        out
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&[f32])) {}
}

// -------------------------------------------------------- GlobalAvgPool

/// Mean over the spatial dimensions: `[B, C, H, W] → [B, C]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    out_pool: Tensor,
    gx_pool: Tensor,
}

impl GlobalAvgPool {
    pub fn new() -> GlobalAvgPool {
        GlobalAvgPool::default()
    }

    fn run_into(x: &Tensor, out: &mut Tensor) {
        let [bsz, c, h, w] = dims4(x);
        let hw = (h * w) as f32;
        for b in 0..bsz {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                out.data[b * c + ch] = sum(&x.data[base..base + h * w]) / hw;
            }
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let [bsz, c, _, _] = dims4(&x);
        let mut out = std::mem::take(&mut self.out_pool);
        out.reset_for_overwrite(&[bsz, c]);
        Self::run_into(&x, &mut out);
        self.gx_pool = x;
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let mut gx = std::mem::take(&mut self.gx_pool);
        let [bsz, c, h, w] = dims4(&gx);
        let hw = (h * w) as f32;
        for b in 0..bsz {
            for ch in 0..c {
                let g = grad.data[b * c + ch] / hw;
                let base = (b * c + ch) * h * w;
                gx.data[base..base + h * w].fill(g);
            }
        }
        self.out_pool = grad;
        gx
    }

    fn infer(&self, x: Tensor) -> Tensor {
        let [bsz, c, _, _] = dims4(&x);
        let mut out = Tensor::zeros(vec![bsz, c]);
        Self::run_into(&x, &mut out);
        out
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&[f32])) {}
}

// ---------------------------------------------------------- L2Normalize

/// Per-row L2 normalization (the output layer of both representation
/// models, §4.4.4). Rows with near-zero norm pass through unchanged.
#[derive(Default)]
pub struct L2Normalize {
    cache_y: Vec<f32>,
    cache_norm: Vec<f32>,
    features: usize,
}

impl L2Normalize {
    pub fn new() -> L2Normalize {
        L2Normalize::default()
    }
}

impl Layer for L2Normalize {
    fn forward(&mut self, mut x: Tensor) -> Tensor {
        let batch = x.batch();
        let f = x.features();
        self.features = f;
        self.cache_norm.clear();
        for b in 0..batch {
            let norm = l2_normalize(x.row_mut(b));
            self.cache_norm.push(norm);
        }
        self.cache_y.clear();
        self.cache_y.extend_from_slice(&x.data);
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let batch = grad.batch();
        let f = self.features;
        for b in 0..batch {
            let norm = self.cache_norm[b];
            if norm <= 1e-12 {
                continue; // forward was identity
            }
            let y = &self.cache_y[b * f..(b + 1) * f];
            let g = grad.row_mut(b);
            let ydotg = dot(y, g);
            for i in 0..f {
                g[i] = (g[i] - y[i] * ydotg) / norm;
            }
        }
        grad
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        let batch = x.batch();
        for b in 0..batch {
            l2_normalize(x.row_mut(b));
        }
        x
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&[f32])) {}
}

// ------------------------------------------------------------ Sequential

/// A stack of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    pub layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Sequential {
        Sequential::default()
    }

    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }
}

impl Layer for Sequential {
    fn forward(&mut self, mut x: Tensor) -> Tensor {
        for l in self.layers.iter_mut() {
            x = l.forward(x);
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        for l in self.layers.iter_mut().rev() {
            grad = l.backward(grad);
        }
        grad
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        for l in self.layers.iter() {
            x = l.infer(x);
        }
        x
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in self.layers.iter_mut() {
            l.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&[f32])) {
        for l in self.layers.iter() {
            l.visit_params_ref(f);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

fn dims4(x: &Tensor) -> [usize; 4] {
    assert_eq!(x.shape.len(), 4, "expected a 4-D tensor, got {:?}", x.shape);
    [x.shape[0], x.shape[1], x.shape[2], x.shape[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use rand::SeedableRng;

    /// Scalar objective: weighted sum of the output with fixed weights.
    fn objective(out: &Tensor, weights: &[f32]) -> f32 {
        out.data.iter().zip(weights).map(|(a, b)| a * b).sum()
    }

    /// Central-difference gradient check of `layer` on input `x`.
    fn grad_check(layer: &mut dyn Layer, x: Tensor, tol: f32) {
        let mut rng = StdRng::seed_from_u64(99);
        let out = layer.infer(x.clone());
        let wts: Vec<f32> = (0..out.len()).map(|_| rng.random_range(-1.0..1.0f32)).collect();

        // Analytic input gradient.
        layer.zero_grad();
        let out = layer.forward(x.clone());
        let grad = Tensor::new(out.shape.clone(), wts.clone());
        let gx = layer.backward(grad);

        // Numeric input gradient.
        let eps = 1e-2f32;
        for i in 0..x.len().min(40) {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let fp = objective(&layer.infer(xp), &wts);
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let fm = objective(&layer.infer(xm), &wts);
            let num = (fp - fm) / (2.0 * eps);
            let ana = gx.data[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Gradient check for parameters of `layer`.
    fn param_grad_check(layer: &mut dyn Layer, x: Tensor, tol: f32) {
        let mut rng = StdRng::seed_from_u64(5);
        let out = layer.infer(x.clone());
        let wts: Vec<f32> = (0..out.len()).map(|_| rng.random_range(-1.0..1.0f32)).collect();

        layer.zero_grad();
        let out = layer.forward(x.clone());
        let _ = layer.backward(Tensor::new(out.shape.clone(), wts.clone()));

        // Collect analytic parameter grads.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |_, g| analytic.push(g.to_vec()));

        fn nudge(layer: &mut dyn Layer, block: usize, i: usize, delta: f32) {
            let mut b = 0usize;
            layer.visit_params(&mut |p, _| {
                if b == block {
                    p[i] += delta;
                }
                b += 1;
            });
        }

        let eps = 1e-2f32;
        // Numerically perturb the first few entries of each param block.
        for (block, ana_block) in analytic.iter().enumerate() {
            for (i, &ana) in ana_block.iter().enumerate().take(12) {
                nudge(layer, block, i, eps);
                let fp = objective(&layer.infer(x.clone()), &wts);
                nudge(layer, block, i, -2.0 * eps);
                let fm = objective(&layer.infer(x.clone()), &wts);
                nudge(layer, block, i, eps); // restore
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "param grad mismatch block {block} idx {i}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    fn random_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let n = shape.iter().product();
        Tensor::new(shape, (0..n).map(|_| rng.random_range(-1.0..1.0f32)).collect())
    }

    #[test]
    fn linear_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 5, 3);
        let x = random_tensor(&mut rng, vec![4, 5]);
        grad_check(&mut l, x.clone(), 2e-2);
        param_grad_check(&mut l, x, 2e-2);
    }

    #[test]
    fn relu_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Relu::new();
        // Keep inputs away from the kink at zero so the finite-difference
        // probe does not straddle the non-differentiable point.
        let mut x = random_tensor(&mut rng, vec![3, 7]);
        for v in x.data.iter_mut() {
            if v.abs() < 0.05 {
                *v = 0.05_f32.copysign(*v);
            }
        }
        grad_check(&mut l, x, 2e-2);
    }

    #[test]
    fn conv_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Conv2d::new(&mut rng, 2, 3, 3);
        let x = random_tensor(&mut rng, vec![2, 2, 5, 4]);
        grad_check(&mut l, x.clone(), 3e-2);
        param_grad_check(&mut l, x, 3e-2);
    }

    #[test]
    fn maxpool_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = MaxPool2d::new(2);
        let x = random_tensor(&mut rng, vec![2, 2, 6, 4]);
        grad_check(&mut l, x, 2e-2);
    }

    #[test]
    fn gap_gradients() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = GlobalAvgPool::new();
        let x = random_tensor(&mut rng, vec![2, 3, 4, 4]);
        grad_check(&mut l, x, 2e-2);
    }

    #[test]
    fn l2norm_gradients() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut l = L2Normalize::new();
        let x = random_tensor(&mut rng, vec![3, 6]);
        grad_check(&mut l, x, 2e-2);
    }

    #[test]
    fn l2norm_output_has_unit_norm() {
        let mut rng = StdRng::seed_from_u64(7);
        let l = L2Normalize::new();
        let x = random_tensor(&mut rng, vec![4, 9]);
        let y = l.infer(x);
        for b in 0..4 {
            let n: f32 = y.row(b).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sequential_mlp_gradients() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Sequential::new();
        net.push(Linear::new(&mut rng, 6, 8));
        net.push(Relu::new());
        net.push(Linear::new(&mut rng, 8, 4));
        net.push(L2Normalize::new());
        let x = random_tensor(&mut rng, vec![3, 6]);
        grad_check(&mut net, x.clone(), 3e-2);
        param_grad_check(&mut net, x, 3e-2);
        assert_eq!(net.param_count(), 6 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new();
        net.push(Conv2d::new(&mut rng, 1, 2, 3));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2));
        net.push(GlobalAvgPool::new());
        let x = random_tensor(&mut rng, vec![2, 1, 8, 6]);
        let a = net.infer(x.clone());
        let b = net.forward(x);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_steps_reuse_pools() {
        // After the first forward/backward pair, the pools hold buffers of
        // the right size; later steps must not grow them.
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Sequential::new();
        net.push(Linear::new(&mut rng, 6, 8));
        net.push(Relu::new());
        net.push(Linear::new(&mut rng, 8, 4));
        net.push(L2Normalize::new());
        let x = random_tensor(&mut rng, vec![5, 6]);
        let mut outs = Vec::new();
        for _ in 0..3 {
            let out = net.forward(x.clone());
            outs.push(out.data.clone());
            net.backward(Tensor::zeros(out.shape.clone()));
        }
        // Zero upstream grad ⇒ no weight change ⇒ identical outputs; the
        // point is that pooled buffers start zeroed/overwritten each step.
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn maxpool_truncates_ragged_edges() {
        let l = MaxPool2d::new(2);
        let x = Tensor::new(vec![1, 1, 3, 5], (0..15).map(|v| v as f32).collect());
        let y = l.infer(x);
        assert_eq!(y.shape, vec![1, 1, 1, 2]);
        assert_eq!(y.data, vec![6.0, 8.0]);
    }

    #[test]
    fn flat_param_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = Linear::new(&mut rng, 3, 2);
        let mut b = Linear::new(&mut rng, 3, 2);
        let mut flat = Vec::new();
        let n = export_params_into(&mut a, &mut flat);
        assert_eq!(n, a.param_count());
        assert_eq!(import_params_from(&mut b, &flat), n);
        let (xa, xb) = (a.infer(Tensor::zeros(vec![1, 3])), b.infer(Tensor::zeros(vec![1, 3])));
        assert_eq!(xa.data, xb.data);
        // Gradient export/accumulate round trip: accumulate twice = 2×.
        let out = a.forward(Tensor::new(vec![1, 3], vec![1.0, 2.0, 3.0]));
        a.backward(Tensor::new(out.shape.clone(), vec![1.0, -1.0]));
        let mut g = Vec::new();
        export_grads_into(&mut a, &mut g);
        let mut c = Linear::new(&mut rng, 3, 2);
        c.zero_grad();
        accumulate_grads_from(&mut c, &g);
        accumulate_grads_from(&mut c, &g);
        let mut g2 = Vec::new();
        export_grads_into(&mut c, &mut g2);
        for (x, y) in g.iter().zip(&g2) {
            assert!((2.0 * x - y).abs() < 1e-6);
        }
    }
}
