//! `im2col`/`col2im` lowering: convolution as matrix multiplication.
//!
//! This is the same strategy cuDNN-era GPU frameworks used and the reason
//! structured (channel/filter) pruning maps directly to smaller GEMMs on
//! GPGPUs — the premise of the HeadStart paper. A `[C, H, W]` input patch
//! grid becomes a `[C·kh·kw, oh·ow]` matrix; convolving with filters
//! `[N, C·kh·kw]` is then a single matmul per sample.
//!
//! The `_into` variants ([`im2col_into`], [`col2im_into`]) lower a group
//! of `g` consecutive samples side by side into one `[C·kh·kw, g·oh·ow]`
//! matrix, so one matmul covers the whole group; `g = 1` is the
//! per-sample lowering. They write a caller-owned slice — typically
//! scratch from [`crate::workspace`] — so hot loops perform no heap
//! allocation, and they parallelize over channels on the persistent
//! [`crate::pool`] for large feature maps. Each task owns a disjoint
//! slice of the output, so results are bit-identical for every thread
//! count.

use crate::error::TensorError;
use crate::matmul::GROUP_ELEMS;
use crate::pool;
use crate::shape::Shape;
use crate::telem;
use crate::tensor::Tensor;

/// Lowered matrices smaller than this many elements are not worth pool
/// dispatch; they run on the calling thread.
const PARALLEL_ELEMS: usize = 1 << 16;

/// Static geometry of a 2-D convolution: input extents, kernel size,
/// stride and zero padding.
///
/// # Example
///
/// ```
/// use hs_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 32, 32, 3, 1, 1);
/// assert_eq!((g.out_h(), g.out_w()), (32, 32)); // "same" convolution
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero, or if the padded input is
    /// smaller than the kernel.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * padding >= kernel && in_w + 2 * padding >= kernel,
            "padded input {}x{} smaller than kernel {}",
            in_h + 2 * padding,
            in_w + 2 * padding,
            kernel
        );
        Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            padding,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the lowered matrix: `C·kh·kw`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the lowered matrix: `oh·ow`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements of one `[C, H, W]` input sample.
    pub fn input_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Elements of the lowered `[C·k·k, oh·ow]` matrix.
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }

    /// Samples per lowered group for a batch of `batch`: the most whose
    /// `[C·k·k, g·oh·ow]` matrix fits [`GROUP_ELEMS`] floats, never fewer
    /// than one nor more than the batch.
    pub fn group_size(&self, batch: usize) -> usize {
        (GROUP_ELEMS / self.col_len().max(1)).clamp(1, batch.max(1))
    }

    /// Geometry for the same layer after keeping only `channels` input
    /// channels (the pruning transformation).
    pub fn with_in_channels(&self, channels: usize) -> Self {
        Conv2dGeometry {
            in_channels: channels,
            ..*self
        }
    }
}

/// Gathers one input channel's patches into its `k·k` rows of the lowered
/// matrix. `out` starts at the sample's first column of the channel's
/// first row, and consecutive rows are `row_len` apart. `out` must be
/// pre-zeroed (padding cells stay zero).
fn im2col_channel(plane: &[f32], out: &mut [f32], row_len: usize, geom: &Conv2dGeometry) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let cols = oh * ow;
    let (h, w) = (geom.in_h as isize, geom.in_w as isize);
    for ky in 0..k {
        for kx in 0..k {
            let row = ky * k + kx;
            let dst = &mut out[row * row_len..row * row_len + cols];
            for oy in 0..oh {
                let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                if iy < 0 || iy >= h {
                    continue; // zero padding: leave zeros
                }
                let src_row = &plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                for (ox, d) in dst_row.iter_mut().enumerate() {
                    let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                    if ix >= 0 && ix < w {
                        *d = src_row[ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatters one channel's `k·k` lowered rows of one sample back onto its
/// input plane. `col` starts at the sample's first column of the
/// channel's first row, and consecutive rows are `row_len` apart.
fn col2im_channel(col: &[f32], row_len: usize, plane: &mut [f32], geom: &Conv2dGeometry) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let cols = oh * ow;
    let (h, w) = (geom.in_h as isize, geom.in_w as isize);
    for ky in 0..k {
        for kx in 0..k {
            let row = ky * k + kx;
            let col_row = &col[row * row_len..row * row_len + cols];
            for oy in 0..oh {
                let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                if iy < 0 || iy >= h {
                    continue;
                }
                let dst_row = &mut plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                let src_row = &col_row[oy * ow..(oy + 1) * ow];
                for (ox, &s) in src_row.iter().enumerate() {
                    let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                    if ix >= 0 && ix < w {
                        dst_row[ix as usize] += s;
                    }
                }
            }
        }
    }
}

/// Lowers `samples` consecutive `[C, H, W]` samples (as one flat slice)
/// into a caller-owned `[C·k·k, samples·oh·ow]` buffer without
/// allocating; sample `s` fills columns `s·oh·ow..(s+1)·oh·ow` of every
/// row. Large lowerings parallelize over channels on the persistent
/// pool.
///
/// # Panics
///
/// Panics if `input` or `out` lengths disagree with `geom` and `samples`.
pub fn im2col_into(input: &[f32], out: &mut [f32], geom: &Conv2dGeometry, samples: usize) {
    assert_eq!(
        input.len(),
        samples * geom.input_len(),
        "im2col_into: input length mismatch"
    );
    assert_eq!(
        out.len(),
        samples * geom.col_len(),
        "im2col_into: output length mismatch"
    );
    telem::im2col_calls().inc();
    telem::im2col_bytes().add(std::mem::size_of_val(out) as u64);
    out.fill(0.0);
    let plane = geom.in_h * geom.in_w;
    let (cols, row_len) = (geom.col_cols(), samples * geom.col_cols());
    let rows_per_c = geom.kernel * geom.kernel * row_len;
    let run = |c0: usize, c1: usize, out: &mut [f32]| {
        for c in c0..c1 {
            let rows = &mut out[(c - c0) * rows_per_c..(c - c0 + 1) * rows_per_c];
            for s in 0..samples {
                let first = (s * geom.in_channels + c) * plane;
                im2col_channel(
                    &input[first..first + plane],
                    &mut rows[s * cols..],
                    row_len,
                    geom,
                );
            }
        }
    };
    if out.len() < PARALLEL_ELEMS || geom.in_channels < 2 {
        run(0, geom.in_channels, out);
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per_c)
        .enumerate()
        .map(|(c, chunk)| {
            let run = &run;
            Box::new(move || run(c, c + 1, chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Adjoint of [`im2col_into`]: scatters a `[C·k·k, samples·oh·ow]`
/// patch-matrix gradient (flat slice) onto a caller-owned
/// `[samples, C, H, W]` buffer. Overlapping windows accumulate; with
/// `accumulate = false` the output is zeroed first, otherwise the scatter
/// adds to its existing contents.
///
/// # Panics
///
/// Panics if `col` or `out` lengths disagree with `geom` and `samples`.
pub fn col2im_into(
    col: &[f32],
    out: &mut [f32],
    geom: &Conv2dGeometry,
    samples: usize,
    accumulate: bool,
) {
    assert_eq!(
        col.len(),
        samples * geom.col_len(),
        "col2im_into: column length mismatch"
    );
    assert_eq!(
        out.len(),
        samples * geom.input_len(),
        "col2im_into: output length mismatch"
    );
    telem::col2im_calls().inc();
    if !accumulate {
        out.fill(0.0);
    }
    let plane = geom.in_h * geom.in_w;
    let channels = geom.in_channels;
    let (cols, row_len) = (geom.col_cols(), samples * geom.col_cols());
    let rows_per_c = geom.kernel * geom.kernel * row_len;
    // One (sample, channel) plane of the output per index `i`.
    let run = |i0: usize, i1: usize, out: &mut [f32]| {
        for i in i0..i1 {
            let (s, c) = (i / channels, i % channels);
            col2im_channel(
                &col[c * rows_per_c + s * cols..],
                row_len,
                &mut out[(i - i0) * plane..(i - i0 + 1) * plane],
                geom,
            );
        }
    };
    if col.len() < PARALLEL_ELEMS || channels < 2 || plane == 0 {
        run(0, samples * channels, out);
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(plane)
        .enumerate()
        .map(|(i, chunk)| {
            let run = &run;
            Box::new(move || run(i, i + 1, chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Lowers one `[C, H, W]` sample to the `[C·k·k, oh·ow]` patch matrix.
///
/// Allocates a fresh tensor; hot paths should prefer [`im2col_into`] with
/// workspace scratch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not rank 3 or its
/// dimensions disagree with the geometry.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let want = Shape::d3(geom.in_channels, geom.in_h, geom.in_w);
    if input.shape() != &want {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.shape().clone(),
            rhs: want,
        });
    }
    let mut out = vec![0.0f32; geom.col_len()];
    im2col_into(input.data(), &mut out, geom, 1);
    Tensor::from_vec(Shape::d2(geom.col_rows(), geom.col_cols()), out)
}

/// Adjoint of [`im2col`]: scatters a `[C·k·k, oh·ow]` patch-matrix gradient
/// back onto a `[C, H, W]` input gradient (overlaps accumulate).
///
/// Allocates a fresh tensor; hot paths should prefer [`col2im_into`] with
/// workspace scratch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `col` does not have the
/// geometry's lowered shape.
pub fn col2im(col: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let want = Shape::d2(geom.col_rows(), geom.col_cols());
    if col.shape() != &want {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: col.shape().clone(),
            rhs: want,
        });
    }
    let mut out = vec![0.0f32; geom.input_len()];
    col2im_into(col.data(), &mut out, geom, 1, false);
    Tensor::from_vec(Shape::d3(geom.in_channels, geom.in_h, geom.in_w), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn geometry_same_conv() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 1, 1);
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        assert_eq!(g.col_rows(), 16 * 9);
        assert_eq!(g.col_cols(), 32 * 32);
    }

    #[test]
    fn geometry_strided() {
        let g = Conv2dGeometry::new(3, 33, 33, 3, 2, 1);
        assert_eq!(g.out_h(), 17);
        assert_eq!(g.out_w(), 17);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn geometry_rejects_tiny_input() {
        Conv2dGeometry::new(1, 2, 2, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel1() {
        // With k=1, s=1, p=0 the lowered matrix is the input reshaped.
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(Shape::d3(4, 5, 5), &mut rng);
        let g = Conv2dGeometry::new(4, 5, 5, 1, 1, 0);
        let col = im2col(&x, &g).unwrap();
        assert_eq!(col.data(), x.data());
    }

    #[test]
    fn im2col_manual_3x3() {
        // 1 channel, 3x3 input, 3x3 kernel, no padding → single output
        // position: the column is the flattened input itself.
        let x = Tensor::from_fn(Shape::d3(1, 3, 3), |i| (i[1] * 3 + i[2]) as f32);
        let g = Conv2dGeometry::new(1, 3, 3, 3, 1, 0);
        let col = im2col(&x, &g).unwrap();
        assert_eq!(col.shape(), &Shape::d2(9, 1));
        assert_eq!(col.data(), x.data());
    }

    #[test]
    fn im2col_padding_zeros() {
        let x = Tensor::ones(Shape::d3(1, 2, 2));
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1);
        let col = im2col(&x, &g).unwrap();
        // Top-left output position: kernel window centered at (0,0) —
        // rows of the patch that fall outside are zero.
        // Patch row (ky=0,kx=0) reads input (-1,-1) → 0.
        assert_eq!(col.at(&[0, 0]), 0.0);
        // Patch row (ky=1,kx=1) reads input (0,0) → 1.
        assert_eq!(col.at(&[4, 0]), 1.0);
    }

    #[test]
    fn im2col_rejects_wrong_shape() {
        let x = Tensor::zeros(Shape::d3(2, 4, 4));
        let g = Conv2dGeometry::new(3, 4, 4, 3, 1, 1);
        assert!(im2col(&x, &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint identity,
        // which is exactly what backprop correctness requires.
        let mut rng = Rng::seed_from(7);
        let g = Conv2dGeometry::new(3, 6, 6, 3, 2, 1);
        let x = Tensor::randn(Shape::d3(3, 6, 6), &mut rng);
        let y = Tensor::randn(Shape::d2(g.col_rows(), g.col_cols()), &mut rng);
        let lhs: f32 = im2col(&x, &g)
            .unwrap()
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).unwrap().data())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // k=2, s=1, no padding on a 3-wide input: middle pixel is covered
        // by two windows; a patch matrix of ones must scatter 2 there.
        let g = Conv2dGeometry::new(1, 2, 3, 2, 1, 0);
        let ones = Tensor::ones(Shape::d2(g.col_rows(), g.col_cols()));
        let im = col2im(&ones, &g).unwrap();
        // Coverage counts: corners 1, horizontal-middle 2 (ow=2, oh=1).
        assert_eq!(im.at(&[0, 0, 0]), 1.0);
        assert_eq!(im.at(&[0, 0, 1]), 2.0);
        assert_eq!(im.at(&[0, 0, 2]), 1.0);
    }

    #[test]
    fn with_in_channels_shrinks() {
        let g = Conv2dGeometry::new(64, 8, 8, 3, 1, 1);
        let g2 = g.with_in_channels(32);
        assert_eq!(g2.in_channels, 32);
        assert_eq!(g2.out_h(), g.out_h());
    }

    #[test]
    fn parallel_im2col_matches_serial_layout() {
        // Big enough to take the pooled path; compare against per-channel
        // serial lowering.
        let mut rng = Rng::seed_from(9);
        let g = Conv2dGeometry::new(8, 40, 40, 3, 1, 1);
        let x = Tensor::randn(Shape::d3(8, 40, 40), &mut rng);
        assert!(g.col_len() >= PARALLEL_ELEMS);
        let col = im2col(&x, &g).unwrap();
        let mut want = vec![0.0f32; g.col_len()];
        let plane = g.in_h * g.in_w;
        let rows_per_c = g.kernel * g.kernel * g.col_cols();
        for c in 0..g.in_channels {
            im2col_channel(
                &x.data()[c * plane..(c + 1) * plane],
                &mut want[c * rows_per_c..(c + 1) * rows_per_c],
                g.col_cols(),
                &g,
            );
        }
        assert_eq!(col.data(), &want[..]);
    }

    #[test]
    fn grouped_lowering_places_each_sample_in_its_columns() {
        // Stride 2 and padding, with a group big enough for the pooled
        // path: each sample's columns must equal its own lowering, and
        // the grouped col2im must equal the per-sample col2im.
        let mut rng = Rng::seed_from(10);
        let g = Conv2dGeometry::new(4, 49, 49, 3, 2, 1);
        let samples = 3;
        assert!(samples * g.col_len() >= PARALLEL_ELEMS);
        let x = Tensor::randn(Shape::d4(samples, 4, 49, 49), &mut rng);
        let mut col = vec![0.0f32; samples * g.col_len()];
        im2col_into(x.data(), &mut col, &g, samples);
        let dy: Vec<f32> = (0..col.len()).map(|_| rng.normal()).collect();
        let mut dx = vec![0.0f32; x.len()];
        col2im_into(&dy, &mut dx, &g, samples, false);
        let (cols, row_len) = (g.col_cols(), samples * g.col_cols());
        for s in 0..samples {
            let sample = &x.data()[s * g.input_len()..(s + 1) * g.input_len()];
            let mut own = vec![0.0f32; g.col_len()];
            im2col_into(sample, &mut own, &g, 1);
            let mut own_dy = vec![0.0f32; g.col_len()];
            for r in 0..g.col_rows() {
                let grouped = &col[r * row_len + s * cols..r * row_len + (s + 1) * cols];
                assert_eq!(
                    grouped,
                    &own[r * cols..(r + 1) * cols],
                    "sample {s} row {r}"
                );
                own_dy[r * cols..(r + 1) * cols]
                    .copy_from_slice(&dy[r * row_len + s * cols..r * row_len + (s + 1) * cols]);
            }
            let mut own_dx = vec![0.0f32; g.input_len()];
            col2im_into(&own_dy, &mut own_dx, &g, 1, false);
            assert_eq!(&dx[s * g.input_len()..(s + 1) * g.input_len()], &own_dx[..]);
        }
    }

    #[test]
    fn group_size_fits_the_budget() {
        let g = Conv2dGeometry::new(64, 2, 2, 3, 1, 1); // 576 × 4 = 2304
        assert_eq!(g.group_size(32), GROUP_ELEMS / 2304);
        assert_eq!(g.group_size(5), 5);
        assert_eq!(g.group_size(0), 1);
        let big = Conv2dGeometry::new(16, 32, 32, 3, 1, 1);
        assert!(big.col_len() > GROUP_ELEMS);
        assert_eq!(big.group_size(32), 1);
    }

    #[test]
    fn col2im_into_accumulate_adds() {
        let g = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
        let col = vec![1.0f32; g.col_len()];
        let mut fresh = vec![0.0f32; g.input_len()];
        col2im_into(&col, &mut fresh, &g, 1, false);
        let mut twice = fresh.clone();
        col2im_into(&col, &mut twice, &g, 1, true);
        for (t, f) in twice.iter().zip(&fresh) {
            assert_eq!(*t, 2.0 * f);
        }
    }
}
