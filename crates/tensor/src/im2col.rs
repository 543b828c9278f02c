//! Convolution as matrix multiplication: the patch matrix and its
//! adjoint.
//!
//! This is the same strategy cuDNN-era GPU frameworks used and the reason
//! structured (channel/filter) pruning maps directly to smaller GEMMs on
//! GPGPUs — the premise of the HeadStart paper. A `[C, H, W]` input patch
//! grid is a `[C·kh·kw, oh·ow]` matrix; convolving with filters
//! `[N, C·kh·kw]` is then a single matmul per sample.
//!
//! The patch matrix is never built. [`Patches`] views `g` consecutive
//! samples as their `[C·kh·kw, g·oh·ow]` patch matrix (`g = 1` is the
//! per-sample layout), and [`crate::gemm_patches`] reads it, or its
//! transpose, straight from the image into the GEMM's packed panels
//! (implicit GEMM, as in cuDNN), or, when each panel is a run of one
//! output row, in place from a zero-padded copy of the image.
//! [`col2im_into`], the adjoint, scatters a patch-matrix gradient back
//! onto a caller-owned buffer — typically scratch from
//! [`crate::workspace`] — and parallelizes over `(sample, channel)`
//! planes on the persistent [`crate::pool`] for large inputs. Each task
//! owns one plane, so results are bit-identical for every thread count.
//! [`im2col`] still materializes one sample's patch matrix, element by
//! element, as the reference the tests compare against.

use crate::error::TensorError;
use crate::matmul::{GROUP_ELEMS, NR};
use crate::pool;
use crate::shape::Shape;
use crate::telem;
use crate::tensor::Tensor;
use crate::workspace::with_vec;
use std::cell::Cell;
use std::ops::Range;

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

    /// Output positions `o < out` along one axis whose tap `tap` reads
    /// inside an input of extent `len` rather than padding:
    /// `0 ≤ o·stride + tap − padding < len`.
    fn taps(&self, tap: usize, out: usize, len: usize) -> Range<usize> {
        let ceil = |v: usize| {
            if self.stride == 1 {
                v
            } else {
                v.div_ceil(self.stride)
            }
        };
        let hi = ceil((len + self.padding).saturating_sub(tap)).min(out);
        let lo = ceil(self.padding.saturating_sub(tap)).min(hi);
        lo..hi
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

/// `samples` consecutive `[C, H, W]` samples seen as their
/// `[C·k·k, samples·oh·ow]` patch matrix, without building it: row
/// `(c·k + ky)·k + kx` holds tap `(ky, kx)` of channel `c`, and sample
/// `s` fills columns `s·oh·ow..(s+1)·oh·ow`, or, for a
/// [`Patches::position_major`] view, position `q` fills columns
/// `q·samples..(q+1)·samples`. The GEMM reads it (or its transpose)
/// straight into its packed panels, or in place from a zero-padded copy,
/// through [`crate::gemm_patches`].
#[derive(Debug, Clone, Copy)]
pub struct Patches<'a> {
    pub(crate) input: &'a [f32],
    pub(crate) geom: Conv2dGeometry,
    pub(crate) samples: usize,
    pub(crate) position_major: bool,
}

impl<'a> Patches<'a> {
    /// Views `input`, `samples` consecutive `[C, H, W]` samples, as their
    /// patch matrix under `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` is not `samples` times the geometry's
    /// sample length.
    pub fn new(input: &'a [f32], geom: &Conv2dGeometry, samples: usize) -> Self {
        assert_eq!(
            input.len(),
            samples * geom.input_len(),
            "Patches: input length mismatch"
        );
        Patches {
            input,
            geom: *geom,
            samples,
            position_major: false,
        }
    }

    /// The same matrix with its columns in position-major order: column
    /// `q·samples + s` holds output position `q` of sample `s`. On maps
    /// smaller than a GEMM panel, each panel then holds one position of
    /// `NR` samples, and the GEMM skips the taps that position reads only
    /// as padding.
    pub fn position_major(self) -> Self {
        Patches {
            position_major: true,
            ..self
        }
    }

    /// Rows of the patch matrix: `C·k·k`.
    pub fn rows(&self) -> usize {
        self.geom.col_rows()
    }

    /// Columns of the patch matrix: `samples·oh·ow`.
    pub fn cols(&self) -> usize {
        self.samples * self.geom.col_cols()
    }

    /// Pushes onto `live`, in order, each channel that holds a nonzero
    /// value in some sample. A channel's scan stops at its first nonzero
    /// value, so a dense input costs about one read per channel; `-0.0`
    /// counts as zero.
    pub(crate) fn live_channels(&self, live: &mut Vec<u32>) {
        let (plane, len) = (self.geom.in_h * self.geom.in_w, self.geom.input_len());
        for c in 0..self.geom.in_channels {
            let mut planes = (0..self.samples).map(|s| &self.input[s * len + c * plane..][..plane]);
            if planes.any(|p| p.iter().any(|&v| v != 0.0)) {
                live.push(c as u32);
            }
        }
    }

    /// True when a GEMM panel of `NR` columns is `NR` consecutive
    /// positions of one output row: stride 1, sample-major, and output
    /// rows a whole number of panels. Such panels are read in place from
    /// [`Patches::pad_into`]'s copy instead of being packed.
    pub(crate) fn rows_of_panels(&self) -> bool {
        self.geom.stride == 1 && !self.position_major && self.geom.out_w().is_multiple_of(NR)
    }

    /// The padded image's row length `W + 2p` and plane `(H + 2p)(W + 2p)`.
    pub(crate) fn padded_plane(&self) -> (usize, usize) {
        let (g, pad) = (&self.geom, 2 * self.geom.padding);
        (g.in_w + pad, (g.in_h + pad) * (g.in_w + pad))
    }

    /// Copies channels `channels` of every sample into `padded`, the
    /// `[samples, C, H + 2p, W + 2p]` image with zero borders; the other
    /// channels' planes are left as they were.
    pub(crate) fn pad_into(&self, padded: &mut [f32], channels: &[u32]) {
        let g = &self.geom;
        let (pad, plane) = (g.padding, g.in_h * g.in_w);
        let (row, padded_plane) = self.padded_plane();
        for s in 0..self.samples {
            for &c in channels {
                let i = s * g.in_channels + c as usize;
                let dst = &mut padded[i * padded_plane..][..padded_plane];
                let (top, rest) = dst.split_at_mut(pad * row);
                let (image, bottom) = rest.split_at_mut(g.in_h * row);
                top.fill(0.0);
                bottom.fill(0.0);
                let src = &self.input[i * plane..][..plane];
                for (y, dst) in image.chunks_exact_mut(row).enumerate() {
                    dst[..pad].fill(0.0);
                    dst[pad..pad + g.in_w].copy_from_slice(&src[y * g.in_w..][..g.in_w]);
                    dst[pad + g.in_w..].fill(0.0);
                }
            }
        }
    }
}

/// One tap `(ky, kx)` of a [`col2im_into`] call whose output rows `rows`
/// and columns `cols` read inside the image; taps that read only padding
/// have no span.
struct Span {
    tap: (usize, usize),
    rows: Range<usize>,
    cols: Range<usize>,
}

thread_local! {
    static SPANS: Cell<Vec<Span>> = const { Cell::new(Vec::new()) };
}

/// Scatters one channel's `k·k` lowered rows of one sample back onto its
/// input plane. `col` starts at the sample's first column of the
/// channel's first row, and consecutive rows are `row_len` apart. Each
/// tap of `spans` adds its valid span of every valid row as one slice, in
/// the same order as an element-by-element scatter, so every input
/// element gets the same adds in the same order.
fn col2im_channel(
    col: &[f32],
    row_len: usize,
    plane: &mut [f32],
    geom: &Conv2dGeometry,
    spans: &[Span],
) {
    let (ow, stride, pad, k) = (geom.out_w(), geom.stride, geom.padding, geom.kernel);
    for Span {
        tap: (ky, kx),
        rows,
        cols,
    } in spans
    {
        let col_row = &col[(ky * k + kx) * row_len..];
        for oy in rows.clone() {
            let first = (oy * stride + ky - pad) * geom.in_w + cols.start * stride + kx - pad;
            let src = &col_row[oy * ow + cols.start..oy * ow + cols.end];
            if stride == 1 {
                for (d, &s) in plane[first..first + src.len()].iter_mut().zip(src) {
                    *d += s;
                }
            } else {
                for (d, &s) in plane[first..].iter_mut().step_by(stride).zip(src) {
                    *d += s;
                }
            }
        }
    }
}

/// Adjoint of the [`Patches`] view: scatters a `[C·k·k, samples·oh·ow]`
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
    let (k, rows_per_c) = (geom.kernel, geom.kernel * geom.kernel * row_len);
    with_vec(&SPANS, |spans| {
        for ky in 0..k {
            let rows = geom.taps(ky, geom.out_h(), geom.in_h);
            for kx in 0..k {
                let cols = geom.taps(kx, geom.out_w(), geom.in_w);
                if !rows.is_empty() && !cols.is_empty() {
                    let rows = rows.clone();
                    spans.push(Span {
                        tap: (ky, kx),
                        rows,
                        cols,
                    });
                }
            }
        }
        let spans = &spans[..];
        // One (sample, channel) plane of the output per index `i`.
        let run = |i0: usize, i1: usize, out: &mut [f32]| {
            for i in i0..i1 {
                let (s, c) = (i / channels, i % channels);
                col2im_channel(
                    &col[c * rows_per_c + s * cols..],
                    row_len,
                    &mut out[(i - i0) * plane..(i - i0 + 1) * plane],
                    geom,
                    spans,
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
    });
}

/// Lowers one `[C, H, W]` sample to the `[C·k·k, oh·ow]` patch matrix,
/// one bounds-checked element at a time.
///
/// Convolutions never call this: they read the patches in place through
/// [`Patches`]. It is the independent reference the tests compare that
/// view against.
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
    let (k, ow) = (geom.kernel, geom.out_w());
    let (h, w, pad) = (
        geom.in_h as isize,
        geom.in_w as isize,
        geom.padding as isize,
    );
    let out = Tensor::from_fn(Shape::d2(geom.col_rows(), geom.col_cols()), |idx| {
        let (c, ky, kx) = (idx[0] / (k * k), idx[0] / k % k, idx[0] % k);
        let (oy, ox) = (idx[1] / ow, idx[1] % ow);
        let iy = (oy * geom.stride + ky) as isize - pad;
        let ix = (ox * geom.stride + kx) as isize - pad;
        if iy < 0 || iy >= h || ix < 0 || ix >= w {
            0.0
        } else {
            input.at(&[c, iy as usize, ix as usize])
        }
    });
    Ok(out)
}

/// Adjoint of [`im2col`]: scatters a `[C·k·k, oh·ow]` patch-matrix gradient
/// back onto a `[C, H, W]` input gradient (overlaps accumulate).
///
/// Allocates a fresh tensor; hot paths use [`col2im_into`] with workspace
/// scratch.
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

    /// Geometries with every tap position against the border: strides
    /// 1, 2 and 4, padding 0 to 2, 1×1 and 2×2 maps, H ≠ W and 1×1 to
    /// 5×5 kernels.
    fn border_geometries() -> Vec<Conv2dGeometry> {
        let mut grid = Vec::new();
        for (h, w) in [(1, 1), (2, 2), (5, 7), (9, 4)] {
            for k in [1, 2, 3, 5] {
                for stride in [1, 2, 4] {
                    for pad in 0..=2 {
                        if h + 2 * pad >= k && w + 2 * pad >= k {
                            grid.push(Conv2dGeometry::new(2, h, w, k, stride, pad));
                        }
                    }
                }
            }
        }
        grid
    }

    /// The element-by-element scatter [`col2im_channel`] replaced.
    fn col2im_channel_reference(
        col: &[f32],
        row_len: usize,
        plane: &mut [f32],
        geom: &Conv2dGeometry,
    ) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let k = geom.kernel;
        let (h, w) = (geom.in_h as isize, geom.in_w as isize);
        for ky in 0..k {
            for kx in 0..k {
                let col_row = &col[(ky * k + kx) * row_len..];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix >= 0 && ix < w {
                            plane[iy as usize * geom.in_w + ix as usize] += col_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_by_spans_matches_the_element_scatter_bit_for_bit() {
        // Accumulating onto random planes makes the add order visible in
        // the bits.
        let mut rng = Rng::seed_from(11);
        for g in border_geometries() {
            let samples = 2;
            let col: Vec<f32> = (0..samples * g.col_len()).map(|_| rng.normal()).collect();
            let init: Vec<f32> = (0..samples * g.input_len()).map(|_| rng.normal()).collect();
            let mut got = init.clone();
            col2im_into(&col, &mut got, &g, samples, true);
            let mut want = init;
            let (plane, cols) = (g.in_h * g.in_w, g.col_cols());
            let rows_per_c = g.kernel * g.kernel * samples * cols;
            for s in 0..samples {
                for c in 0..g.in_channels {
                    let i = s * g.in_channels + c;
                    col2im_channel_reference(
                        &col[c * rows_per_c + s * cols..],
                        samples * cols,
                        &mut want[i * plane..(i + 1) * plane],
                        &g,
                    );
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{g:?}");
        }
    }

    #[test]
    fn grouped_col2im_matches_per_sample_col2im() {
        // Stride 2 and padding, with a group big enough for the pooled
        // path: the grouped scatter equals each sample's own.
        let mut rng = Rng::seed_from(10);
        let g = Conv2dGeometry::new(4, 49, 49, 3, 2, 1);
        let samples = 3;
        assert!(samples * g.col_len() >= PARALLEL_ELEMS);
        let dy: Vec<f32> = (0..samples * g.col_len()).map(|_| rng.normal()).collect();
        let mut dx = vec![0.0f32; samples * g.input_len()];
        col2im_into(&dy, &mut dx, &g, samples, false);
        let (cols, row_len) = (g.col_cols(), samples * g.col_cols());
        for s in 0..samples {
            let mut own_dy = vec![0.0f32; g.col_len()];
            for r in 0..g.col_rows() {
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
