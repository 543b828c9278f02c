//! 2-D convolution, the layer HeadStart prunes.

use hs_tensor::workspace::with_scratch;
use hs_tensor::{
    col2im_into, gemm_ex, gemm_patches, Conv2dGeometry, Init, Patches, Rng, Shape, Tensor, NR,
};

use crate::error::NnError;
use crate::param::Param;

/// 2-D convolution with square kernels, implemented as a GEMM over the
/// input's patch matrix, read in place ([`gemm_patches`]).
///
/// The weight layout is `[out_channels, in_channels, k, k]` — axis 0 is the
/// *filter* axis (pruned when this layer's own feature maps are dropped)
/// and axis 1 is the *channel* axis (pruned when the previous layer's
/// feature maps are dropped). This is exactly the `ΔN×C×k×k` /
/// `M×ΔN×k×k` bookkeeping of the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Filter bank, `[N, C, k, k]`.
    pub weight: Param,
    /// Per-filter bias, `[N]`.
    pub bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let weight =
            Init::KaimingNormal.sample(Shape::d4(out_channels, in_channels, kernel, kernel), rng);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new_no_decay(Tensor::zeros(Shape::d1(out_channels))),
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Builds a convolution from explicit weight/bias tensors (used by
    /// surgery when shrinking a trained layer, and by checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `weight` is not `[N, C, k, k]`
    /// with `k > 0`, `bias` does not match the filter count, or `stride`
    /// is zero.
    pub fn from_parts(
        weight: Tensor,
        bias: Tensor,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        let bad = |detail: String| NnError::BadInput {
            what: "Conv2d::from_parts",
            detail,
        };
        let dims = weight.shape();
        if dims.rank() != 4 || dims.dim(2) != dims.dim(3) || dims.dim(2) == 0 {
            return Err(bad(format!(
                "weight must be [N, C, k, k] with k > 0, got {dims}"
            )));
        }
        if bias.shape() != &Shape::d1(dims.dim(0)) {
            return Err(bad(format!(
                "bias {} does not match {} filters",
                bias.shape(),
                dims.dim(0)
            )));
        }
        if stride == 0 {
            return Err(bad("stride must be positive".to_string()));
        }
        let kernel = dims.dim(2);
        Ok(Conv2d {
            weight: Param::new(weight),
            bias: Param::new_no_decay(bias),
            kernel,
            stride,
            padding,
            cached_input: None,
        })
    }

    /// Number of filters (output channels / feature maps).
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Result<Conv2dGeometry, NnError> {
        let (k, p) = (self.kernel, self.padding);
        if k == 0 || self.stride == 0 || in_h + 2 * p < k || in_w + 2 * p < k {
            return Err(NnError::BadInput {
                what: "Conv2d",
                detail: format!(
                    "input {in_h}x{in_w} padded by {p} does not fit kernel {k} at stride {}",
                    self.stride
                ),
            });
        }
        Ok(Conv2dGeometry::new(
            self.in_channels(),
            in_h,
            in_w,
            k,
            self.stride,
            p,
        ))
    }

    /// Forward pass over a `[B, C, H, W]` batch.
    ///
    /// Consecutive samples are multiplied a group at a time
    /// ([`Conv2dGeometry::group_size`]) so one GEMM over the group's patch
    /// matrix covers it; a group of one multiplies straight into the
    /// output. A map smaller than a GEMM panel (`NR` positions) goes
    /// position-major in groups of `NR` samples, so each panel holds one
    /// position and skips the taps that read only padding there. That
    /// needs a batch of `NR` and a per-sample product already on the
    /// blocked side of `SMALL_THRESHOLD`, so no product changes side and
    /// every output keeps its bits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input is not rank 4, its
    /// channel count differs from the filters', or its padded extent is
    /// smaller than the kernel.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.rank() != 4 || shape.dim(1) != self.in_channels() {
            return Err(NnError::BadInput {
                what: "Conv2d",
                detail: format!("expected [B, {}, H, W], got {}", self.in_channels(), shape),
            });
        }
        let (batch, _, in_h, in_w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let geom = self.geometry(in_h, in_w)?;
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n = self.out_channels();
        let positions = oh * ow;
        let out_len = n * positions;
        // The [N, C, k, k] filter bank is already the [N, C·k·k] GEMM
        // operand row-major — use it in place, no clone/reshape.
        let w2d = self.weight.value.data();
        let bias = self.bias.value.data();
        let sample_len = geom.input_len();
        let position_major = positions < NR
            && batch >= NR
            && n * geom.col_rows() * positions >= hs_tensor::SMALL_THRESHOLD;
        let group = if position_major {
            NR
        } else {
            geom.group_size(batch)
        };
        let mut out = vec![0.0f32; batch * out_len];
        for b0 in (0..batch).step_by(group) {
            let g = group.min(batch - b0);
            let mut x = Patches::new(
                &input.data()[b0 * sample_len..(b0 + g) * sample_len],
                &geom,
                g,
            );
            if position_major {
                x = x.position_major();
            }
            let y = &mut out[b0 * out_len..(b0 + g) * out_len];
            if g == 1 {
                // [N, oh·ow] is already the sample's output layout.
                gemm_patches(y, w2d, n, &x, false, false);
            } else {
                // Workspace scratch: after warm-up this whole loop
                // performs zero heap allocations.
                with_scratch(g * out_len, |yg| {
                    gemm_patches(yg, w2d, n, &x, false, false);
                    scatter_group(yg, y, n, g, positions, position_major);
                });
            }
            add_bias(y, bias, positions);
        }
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
        }
        Ok(Tensor::from_vec(Shape::d4(batch, n, oh, ow), out)?)
    }

    /// Backward pass: accumulates `weight.grad` / `bias.grad` and returns
    /// the input gradient. Groups samples sample-major by
    /// [`Conv2dGeometry::group_size`], so one GEMM each gives a group's
    /// weight and input gradients; the group sets the weight gradient's
    /// summation order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if called before a training
    /// forward pass, or a shape error if `grad_out` is inconsistent.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .take()
            .ok_or(NnError::NoForwardCache { layer: "Conv2d" })?;
        let in_shape = input.shape().clone();
        let (batch, in_h, in_w) = (in_shape.dim(0), in_shape.dim(2), in_shape.dim(3));
        let geom = self.geometry(in_h, in_w)?;
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n = self.out_channels();
        let want = Shape::d4(batch, n, oh, ow);
        if grad_out.shape() != &want {
            return Err(NnError::BadInput {
                what: "Conv2d::backward",
                detail: format!("grad shape {} != {want}", grad_out.shape()),
            });
        }
        let positions = oh * ow;
        let out_len = n * positions;
        let col_rows = geom.col_rows();
        let sample_len = geom.input_len();
        let group = geom.group_size(batch);
        // Split-borrow the parameters so the weight value (GEMM operand)
        // and the weight gradient (GEMM accumulator) can be used together.
        let Conv2d { weight, bias, .. } = self;
        // [N, C, k, k] gradient flat == [N, C·k·k]: accumulate GEMM output
        // directly into the gradient buffer, no temporary + axpy.
        let (w, wgrad) = weight.value_and_grad_mut();
        let (w2d, wgrad) = (w.data(), wgrad.data_mut());
        let bgrad = bias.grad_mut().data_mut();
        let mut dx = vec![0.0f32; input.len()];
        for b0 in (0..batch).step_by(group) {
            let g = group.min(batch - b0);
            let cols = g * positions;
            let x = Patches::new(
                &input.data()[b0 * sample_len..(b0 + g) * sample_len],
                &geom,
                g,
            );
            let dy = &grad_out.data()[b0 * out_len..(b0 + g) * out_len];
            let dxg = &mut dx[b0 * sample_len..(b0 + g) * sample_len];
            with_lowered_grad(dy, g, n, positions, |dy2d| {
                // dW += dY · colᵀ, the patches read again from the cached
                // input: trades FLOPs for activation memory.
                gemm_patches(wgrad, dy2d, n, &x, true, true);
                with_scratch(g * geom.col_len(), |dcol| {
                    // dX = col2im(Wᵀ · dY)
                    gemm_ex(dcol, w2d, dy2d, col_rows, n, cols, true, false, false);
                    col2im_into(dcol, dxg, &geom, g, false);
                });
            });
            // db += Σ_positions dY, one sample at a time.
            for s in 0..g {
                for (f, gb) in bgrad.iter_mut().enumerate() {
                    let first = s * out_len + f * positions;
                    *gb += dy[first..first + positions]
                        .iter()
                        .map(|&v| v as f64)
                        .sum::<f64>() as f32;
                }
            }
        }
        Ok(Tensor::from_vec(in_shape, dx)?)
    }

    /// Passes the layer's parameters to `f` (weight first, then bias).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Broadcasts each filter's bias over its `positions` outputs, for one or
/// more `[N, oh·ow]` samples. Zero biases are skipped, so an output keeps
/// its exact GEMM bits (`-0.0` included).
fn add_bias(y: &mut [f32], bias: &[f32], positions: usize) {
    for (yf, &b) in y.chunks_mut(positions).zip(bias.iter().cycle()) {
        if b != 0.0 {
            yf.iter_mut().for_each(|v| *v += b);
        }
    }
}

/// Scatters a group's `[N, g·oh·ow]` GEMM output into its per-sample
/// `[g, N, oh·ow]` layout, un-permuting position-major columns
/// (`q·g + s`) in the same pass.
fn scatter_group(
    yg: &[f32],
    y: &mut [f32],
    n: usize,
    g: usize,
    positions: usize,
    position_major: bool,
) {
    if !position_major {
        return swap_leading_axes(yg, y, n, g, positions);
    }
    for (f, row) in yg.chunks_exact(g * positions).enumerate() {
        for (q, column) in row.chunks_exact(g).enumerate() {
            for (s, &v) in column.iter().enumerate() {
                y[(s * n + f) * positions + q] = v;
            }
        }
    }
}

/// Copies `[a, b, inner]` from `src` to `[b, a, inner]` in `dst`: moves a
/// group between its per-sample `[g, N, oh·ow]` layout and the GEMM's
/// `[N, g·oh·ow]` one.
fn swap_leading_axes(src: &[f32], dst: &mut [f32], a: usize, b: usize, inner: usize) {
    for i in 0..a {
        for j in 0..b {
            let (from, to) = ((i * b + j) * inner, (j * a + i) * inner);
            dst[to..to + inner].copy_from_slice(&src[from..from + inner]);
        }
    }
}

/// Runs `f` on a group's `[g, N, oh·ow]` output gradient laid out as the
/// `[N, g·oh·ow]` GEMM operand; a group of one is passed as is.
fn with_lowered_grad(dy: &[f32], g: usize, n: usize, positions: usize, f: impl FnOnce(&[f32])) {
    if g == 1 {
        return f(dy);
    }
    with_scratch(dy.len(), |dy2d| {
        swap_leading_axes(dy, dy2d, g, n, positions);
        f(dy2d)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(conv: &mut Conv2d, x: &Tensor, eps: f32, tol: f32) {
        // Scalar objective: sum of outputs. Analytic gradients via
        // backward(ones) vs numeric central differences.
        let y = conv.forward(x, true).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        let dx = conv.backward(&ones).unwrap();

        // Check input gradient at a few positions.
        for probe in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let fp = conv.forward(&xp, false).unwrap().sum();
            let fm = conv.forward(&xm, false).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.data()[probe];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "input grad at {probe}: numeric {numeric} analytic {analytic}"
            );
        }

        // Check weight gradient at a few positions.
        let wlen = conv.weight.value.len();
        for probe in [0usize, wlen / 2, wlen - 1] {
            let orig = conv.weight.value.data()[probe];
            conv.weight.value.data_mut()[probe] = orig + eps;
            let fp = conv.forward(x, false).unwrap().sum();
            conv.weight.value.data_mut()[probe] = orig - eps;
            let fm = conv.forward(x, false).unwrap().sum();
            conv.weight.value.data_mut()[probe] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = conv.weight.grad_mut().data()[probe];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "weight grad at {probe}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn forward_shape_same_padding() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(2, 3, 6, 6), &mut rng);
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d4(2, 8, 6, 6));
    }

    #[test]
    fn forward_rejects_channel_mismatch() {
        let mut rng = Rng::seed_from(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 4, 6, 6), &mut rng);
        assert!(conv.forward(&x, false).is_err());
    }

    #[test]
    fn kernel1_conv_is_channel_mix() {
        // A 1x1 convolution is a per-pixel linear map across channels.
        let mut rng = Rng::seed_from(2);
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(Shape::d4(1, 2, 1, 1), vec![2.0, -1.0]).unwrap();
        conv.bias.value = Tensor::from_vec(Shape::d1(1), vec![0.5]).unwrap();
        let x = Tensor::from_fn(Shape::d4(1, 2, 2, 2), |i| {
            (i[1] * 10 + i[2] * 2 + i[3]) as f32
        });
        let y = conv.forward(&x, false).unwrap();
        for h in 0..2 {
            for w in 0..2 {
                let expect = 2.0 * x.at(&[0, 0, h, w]) - x.at(&[0, 1, h, w]) + 0.5;
                assert!((y.at(&[0, 0, h, w]) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(2, 2, 5, 5), &mut rng);
        finite_diff_check(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn gradients_match_finite_differences_strided() {
        let mut rng = Rng::seed_from(4);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 2, 7, 7), &mut rng);
        finite_diff_check(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng::seed_from(5);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let g = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        assert!(matches!(
            conv.backward(&g),
            Err(NnError::NoForwardCache { layer: "Conv2d" })
        ));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = Rng::seed_from(6);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 4, 4), &mut rng);
        conv.forward(&x, false).unwrap();
        assert!(conv
            .backward(&Tensor::zeros(Shape::d4(1, 1, 4, 4)))
            .is_err());
    }

    #[test]
    fn from_parts_validates() {
        let w = Tensor::zeros(Shape::d4(2, 3, 3, 3));
        let b = Tensor::zeros(Shape::d1(2));
        assert!(Conv2d::from_parts(w.clone(), b.clone(), 1, 1).is_ok());
        let bad_bias = Tensor::zeros(Shape::d1(3));
        assert!(Conv2d::from_parts(w.clone(), bad_bias, 1, 1).is_err());
        let bad_w = Tensor::zeros(Shape::d3(2, 3, 3));
        assert!(Conv2d::from_parts(bad_w, b.clone(), 1, 1).is_err());
        assert!(matches!(
            Conv2d::from_parts(w, b.clone(), 0, 1),
            Err(NnError::BadInput { .. })
        ));
        let empty_kernel = Tensor::zeros(Shape::d4(2, 3, 0, 0));
        assert!(matches!(
            Conv2d::from_parts(empty_kernel, b, 1, 0),
            Err(NnError::BadInput { .. })
        ));
    }

    #[test]
    fn bad_geometry_is_a_typed_error_not_a_panic() {
        let mut rng = Rng::seed_from(8);
        // Padded input 3x3 smaller than the 5x5 kernel.
        let mut conv = Conv2d::new(1, 2, 5, 1, 0, &mut rng);
        let x = Tensor::randn(Shape::d4(2, 1, 3, 3), &mut rng);
        assert!(matches!(
            conv.forward(&x, true),
            Err(NnError::BadInput { .. })
        ));
        // One pixel of padding on each side makes it fit.
        let mut conv = Conv2d::new(1, 2, 5, 1, 1, &mut rng);
        assert_eq!(
            conv.forward(&x, false).unwrap().shape(),
            &Shape::d4(2, 2, 1, 1)
        );
        // `new` does not validate; the forward pass does.
        let mut conv = Conv2d::new(1, 2, 3, 0, 1, &mut rng);
        assert!(matches!(
            conv.forward(&x, false),
            Err(NnError::BadInput { .. })
        ));
    }

    /// Asserts `got` equals `want` bit for bit, or within `1e-5` of
    /// `want`'s largest magnitude (at least 1) when `exact` is false.
    fn assert_matches(got: &[f32], want: &[f32], exact: bool, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if exact {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
            } else {
                assert!((g - w).abs() <= 1e-5 * scale, "{what}[{i}]: {g} vs {w}");
            }
        }
    }

    /// `(in_channels, filters, kernel, stride, padding, input extent)`.
    /// Together they cover k = 1, 3, 5, stride 2, padding 0 and 1,
    /// oh·ow below `NR`, C·k·k above `KC`, groups from 2 samples up to
    /// the whole batch, and per-sample GEMMs on both sides of
    /// `SMALL_THRESHOLD`.
    const GROUP_CASES: [(usize, usize, usize, usize, usize, usize); 7] = [
        (3, 4, 3, 1, 1, 6),
        (32, 16, 3, 1, 1, 2),
        (8, 12, 5, 2, 1, 9),
        (16, 8, 1, 1, 0, 5),
        (6, 20, 3, 2, 0, 7),
        (4, 8, 3, 1, 1, 18),
        (2, 3, 5, 1, 1, 4),
    ];

    /// Builds a case's conv with every third bias zero, so both sides of
    /// the zero-bias rule run. Returns it with its geometry and whether
    /// its per-sample GEMMs take the blocked path (bit-identity
    /// expected).
    fn group_case(
        case: (usize, usize, usize, usize, usize, usize),
        rng: &mut Rng,
    ) -> (Conv2d, Conv2dGeometry, bool) {
        let (c, n, k, stride, padding, hw) = case;
        let mut conv = Conv2d::new(c, n, k, stride, padding, rng);
        conv.bias.value = Tensor::from_fn(Shape::d1(n), |i| {
            if i[0] % 3 == 0 {
                0.0
            } else {
                0.1 * i[0] as f32 - 0.55
            }
        });
        let geom = Conv2dGeometry::new(c, hw, hw, k, stride, padding);
        assert!(geom.group_size(33) > 1, "{case:?} never groups");
        let blocked = n * geom.col_rows() * geom.col_cols() >= hs_tensor::SMALL_THRESHOLD;
        (conv, geom, blocked)
    }

    #[test]
    fn group_cases_cover_the_dispatch_edges() {
        let mut rng = Rng::seed_from(12);
        let cases: Vec<_> = GROUP_CASES
            .iter()
            .map(|&case| group_case(case, &mut rng))
            .collect();
        assert!(cases.iter().any(|(_, _, blocked)| *blocked));
        assert!(cases.iter().any(|(_, _, blocked)| !*blocked));
        assert!(cases.iter().any(|(_, g, _)| g.col_cols() < hs_tensor::NR));
        assert!(cases.iter().any(|(_, g, _)| g.col_rows() > hs_tensor::KC));
    }

    #[test]
    fn grouped_forward_matches_per_sample_forwards() {
        let mut rng = Rng::seed_from(9);
        for case in GROUP_CASES {
            let (mut conv, geom, blocked) = group_case(case, &mut rng);
            let (c, hw) = (geom.in_channels, geom.in_h);
            for batch in [1, 3, 7, 33] {
                let x = Tensor::randn(Shape::d4(batch, c, hw, hw), &mut rng);
                let y = conv.forward(&x, false).unwrap();
                let per = y.len() / batch;
                for s in 0..batch {
                    let ys = conv.forward(&x.index_select(0, &[s]).unwrap(), false);
                    let what = format!("{case:?} batch {batch} sample {s}");
                    let got = &y.data()[s * per..(s + 1) * per];
                    assert_matches(got, ys.unwrap().data(), blocked, &what);
                }
            }
        }
    }

    #[test]
    fn grouped_backward_matches_per_sample_backwards() {
        let mut rng = Rng::seed_from(10);
        for case in GROUP_CASES {
            let (conv, geom, blocked) = group_case(case, &mut rng);
            let (c, hw) = (geom.in_channels, geom.in_h);
            for batch in [1, 3, 7, 33] {
                let x = Tensor::randn(Shape::d4(batch, c, hw, hw), &mut rng);
                let mut grouped = conv.clone();
                let y = grouped.forward(&x, true).unwrap();
                let dy = Tensor::randn(y.shape().clone(), &mut rng);
                let dx = grouped.backward(&dy).unwrap();
                // The same samples one at a time into one accumulator.
                let mut single = conv.clone();
                let per_in = dx.len() / batch;
                for s in 0..batch {
                    single
                        .forward(&x.index_select(0, &[s]).unwrap(), true)
                        .unwrap();
                    let dxs = single.backward(&dy.index_select(0, &[s]).unwrap());
                    let what = format!("{case:?} batch {batch} dX sample {s}");
                    let got = &dx.data()[s * per_in..(s + 1) * per_in];
                    assert_matches(got, dxs.unwrap().data(), blocked, &what);
                }
                let what = format!("{case:?} batch {batch}");
                assert_matches(
                    grouped.bias.grad_mut().data(),
                    single.bias.grad_mut().data(),
                    true,
                    &format!("{what} db"),
                );
                assert_matches(
                    grouped.weight.grad_mut().data(),
                    single.weight.grad_mut().data(),
                    false,
                    &format!("{what} dW"),
                );
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_across_groups() {
        let mut rng = Rng::seed_from(11);
        let mut conv = Conv2d::new(4, 3, 3, 1, 1, &mut rng);
        let geom = Conv2dGeometry::new(4, 18, 18, 3, 1, 1);
        assert_eq!(geom.group_size(3), 2, "batch of 3 must split 2 + 1");
        let x = Tensor::randn(Shape::d4(3, 4, 18, 18), &mut rng);
        finite_diff_check(&mut conv, &x, 1e-2, 2e-2);
    }

    /// Direct nested-loop convolution in f64: the forward output for `x`
    /// and, for the output gradient `dy`, the input, weight and bias
    /// gradients, each flat in its tensor's layout.
    fn direct_conv(conv: &Conv2d, x: &Tensor, dy: &Tensor) -> [Vec<f64>; 4] {
        let w = conv.weight.value.data();
        let (n, c, k) = (conv.out_channels(), conv.in_channels(), conv.kernel());
        let (batch, h, wd) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
        let (oh, ow) = (dy.shape().dim(2), dy.shape().dim(3));
        let (stride, pad) = (conv.stride() as isize, conv.padding() as isize);
        let mut y = vec![0.0f64; batch * n * oh * ow];
        let mut dx = vec![0.0f64; x.len()];
        let mut dw = vec![0.0f64; w.len()];
        let mut db = vec![0.0f64; n];
        for b in 0..batch {
            for (f, db_f) in db.iter_mut().enumerate() {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let yi = ((b * n + f) * oh + oy) * ow + ox;
                        let g = dy.data()[yi] as f64;
                        y[yi] = conv.bias.value.data()[f] as f64;
                        *db_f += g;
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = oy as isize * stride + ky as isize - pad;
                                    let ix = ox as isize * stride + kx as isize - pad;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                                        continue;
                                    }
                                    let xi = ((b * c + ci) * h + iy as usize) * wd + ix as usize;
                                    let wi = ((f * c + ci) * k + ky) * k + kx;
                                    y[yi] += w[wi] as f64 * x.data()[xi] as f64;
                                    dx[xi] += w[wi] as f64 * g;
                                    dw[wi] += x.data()[xi] as f64 * g;
                                }
                            }
                        }
                    }
                }
            }
        }
        [y, dx, dw, db]
    }

    /// `(C, N, k, stride, padding, H, W, batches)`.
    type OracleCase = (
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        &'static [usize],
    );

    /// Cases for the direct-loop oracle: k = 1, 3, 5 and 11 at strides 1,
    /// 2 and 4 and padding 0 to 2 on H ≠ W inputs; 1×1 and 2×2 maps at
    /// padding 1, as in the search net's deep layers, with oh·ow < `NR`
    /// and C·k·k > `KC`, at batches that group sample-major and, from
    /// `NR` on, position-major with a ragged last group; and a patch
    /// matrix larger than `KC`×`NC` floats.
    fn oracle_cases() -> Vec<OracleCase> {
        let mut cases = Vec::new();
        for k in [1, 3, 5, 11] {
            for stride in [1, 2, 4] {
                for pad in 0..=2 {
                    cases.push((2, 3, k, stride, pad, k + 2, k + 5, &[1, 7][..]));
                }
            }
        }
        cases.extend([
            (32, 16, 3, 1, 1, 1, 1, &[1, 7, 33][..]),
            (64, 16, 3, 1, 1, 1, 1, &[1, 7, 8, 9, 33][..]),
            (32, 16, 3, 1, 1, 2, 2, &[1, 7, 8, 9, 33][..]),
            (3, 8, 3, 1, 1, 9, 6, &[33][..]),
            (16, 4, 3, 1, 1, 64, 64, &[1][..]),
        ]);
        cases
    }

    #[test]
    fn forward_and_gradients_match_direct_loops() {
        let mut rng = Rng::seed_from(13);
        let (mut naive, mut blocked, mut ragged) = (false, false, false);
        let mut position_major = false;
        for (c, n, k, stride, pad, h, w, batches) in oracle_cases() {
            let conv = Conv2d::new(c, n, k, stride, pad, &mut rng);
            let geom = Conv2dGeometry::new(c, h, w, k, stride, pad);
            let work = n * geom.col_rows() * geom.col_cols();
            naive |= work < hs_tensor::SMALL_THRESHOLD;
            blocked |= work >= hs_tensor::SMALL_THRESHOLD;
            for &batch in batches {
                ragged |= batch % geom.group_size(batch) != 0;
                position_major |= geom.col_cols() < NR
                    && batch > NR
                    && work >= hs_tensor::SMALL_THRESHOLD
                    && batch % NR != 0;
                let mut conv = conv.clone();
                conv.bias.value = Tensor::randn(Shape::d1(n), &mut rng);
                let mut x = Tensor::randn(Shape::d4(batch, c, h, w), &mut rng);
                // Zero a random subset of channels in every sample, so the
                // GEMM leaves their depths out.
                let dead: Vec<bool> = (0..c).map(|_| rng.uniform() < 0.3).collect();
                for (i, v) in x.data_mut().iter_mut().enumerate() {
                    if dead[i / (h * w) % c] {
                        *v = 0.0;
                    }
                }
                let y = conv.forward(&x, true).unwrap();
                let dy = Tensor::randn(y.shape().clone(), &mut rng);
                let dx = conv.backward(&dy).unwrap();
                let want = direct_conv(&conv, &x, &dy);
                let (dw, db) = (conv.weight.grad_mut().clone(), conv.bias.grad_mut().clone());
                let got = [y.data(), dx.data(), dw.data(), db.data()];
                for ((name, got), want) in ["y", "dX", "dW", "db"].iter().zip(got).zip(&want) {
                    assert_eq!(got.len(), want.len(), "{name}");
                    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert!(
                            (*g as f64 - w).abs() <= 1e-4 * scale,
                            "{name}[{i}] {g} vs {w}: {geom:?} batch {batch}"
                        );
                    }
                }
            }
        }
        assert!(
            naive && blocked && ragged && position_major,
            "cases must cover both paths, a ragged group and a ragged position-major group"
        );
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let mut rng = Rng::seed_from(7);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 4, 4), &mut rng);
        let ones = Tensor::ones(Shape::d4(1, 1, 4, 4));
        conv.forward(&x, true).unwrap();
        conv.backward(&ones).unwrap();
        let g1 = conv.weight.grad_mut().clone();
        conv.forward(&x, true).unwrap();
        conv.backward(&ones).unwrap();
        let g2 = conv.weight.grad_mut().clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((2.0 * a - b).abs() < 1e-4, "{a} {b}");
        }
    }
}
