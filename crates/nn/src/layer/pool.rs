//! Spatial pooling layers.

use hs_tensor::{Shape, Tensor};

use crate::error::NnError;

/// Non-overlapping max pooling over `[B, C, H, W]`.
///
/// H and W must be divisible by the window size (the VGG/ResNet
/// configurations in this repository always satisfy that).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    in_shape: Shape,
    out_shape: Shape,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window (also used as
    /// the stride).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        MaxPool2d {
            window,
            cache: None,
        }
    }

    /// The pooling window / stride.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input is not rank 4 or not
    /// divisible by the window.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.rank() != 4
            || !shape.dim(2).is_multiple_of(self.window)
            || !shape.dim(3).is_multiple_of(self.window)
        {
            return Err(NnError::BadInput {
                what: "MaxPool2d",
                detail: format!("input {shape} not divisible by window {}", self.window),
            });
        }
        let (b, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let (oh, ow) = (h / self.window, w / self.window);
        let mut out = vec![0.0f32; b * c * oh * ow];
        let out_shape = Shape::d4(b, c, oh, ow);
        let planes = (input.data(), b * c, h, w);
        if train {
            let mut argmax = vec![0usize; out.len()];
            window_max::<true>(planes, self.window, &mut out, &mut argmax);
            self.cache = Some(PoolCache {
                argmax,
                in_shape: shape.clone(),
                out_shape: out_shape.clone(),
            });
        } else {
            window_max::<false>(planes, self.window, &mut out, &mut []);
            self.cache = None;
        }
        Ok(Tensor::from_vec(out_shape, out)?)
    }

    /// Backward pass: routes each gradient to the input position that won
    /// the max.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a training forward, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache { layer: "MaxPool2d" })?;
        if grad_out.shape() != &cache.out_shape {
            return Err(NnError::BadInput {
                what: "MaxPool2d::backward",
                detail: format!("grad shape {} != {}", grad_out.shape(), cache.out_shape),
            });
        }
        let mut dx = Tensor::zeros(cache.in_shape);
        for (i, &g) in grad_out.data().iter().enumerate() {
            dx.data_mut()[cache.argmax[i]] += g;
        }
        Ok(dx)
    }
}

/// The max of each `window`×`window` window of `(data, planes, h, w)`,
/// scanned row by row from `NEG_INFINITY` and replaced only by a larger
/// value, so the first of equal maxima wins and NaN never does. With
/// `ARGMAX` each winner's input index goes to `argmax`; without, the
/// update is a select instead of a branch.
fn window_max<const ARGMAX: bool>(
    (data, planes, h, w): (&[f32], usize, usize, usize),
    window: usize,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    let (oh, ow) = (h / window, w / window);
    for p in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for iy in oy * window..(oy + 1) * window {
                    for ix in ox * window..(ox + 1) * window {
                        let idx = (p * h + iy) * w + ix;
                        let v = data[idx];
                        if !ARGMAX {
                            best = if v > best { v } else { best };
                        } else if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                let o = (p * oh + oy) * ow + ox;
                out[o] = best;
                if ARGMAX {
                    argmax[o] = best_idx;
                }
            }
        }
    }
}

/// Non-overlapping window average pooling over `[B, C, H, W]`
/// (LeNet-style subsampling).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    in_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given square window (also
    /// used as the stride).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        AvgPool2d {
            window,
            in_shape: None,
        }
    }

    /// The pooling window / stride.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input is not rank 4 or not
    /// divisible by the window.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.rank() != 4
            || !shape.dim(2).is_multiple_of(self.window)
            || !shape.dim(3).is_multiple_of(self.window)
        {
            return Err(NnError::BadInput {
                what: "AvgPool2d",
                detail: format!("input {shape} not divisible by window {}", self.window),
            });
        }
        let (b, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let (oh, ow) = (h / self.window, w / self.window);
        let norm = 1.0 / (self.window * self.window) as f32;
        let mut out = vec![0.0f32; b * c * oh * ow];
        let data = input.data();
        for bc in 0..b * c {
            let in_base = bc * h * w;
            let out_base = bc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for dy in 0..self.window {
                        let iy = oy * self.window + dy;
                        for dx in 0..self.window {
                            acc += data[in_base + iy * w + ox * self.window + dx];
                        }
                    }
                    out[out_base + oy * ow + ox] = acc * norm;
                }
            }
        }
        if train {
            self.in_shape = Some(shape.clone());
        } else {
            self.in_shape = None;
        }
        Ok(Tensor::from_vec(Shape::d4(b, c, oh, ow), out)?)
    }

    /// Backward pass: spreads each gradient uniformly over its window.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a training forward, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let in_shape = self
            .in_shape
            .take()
            .ok_or(NnError::NoForwardCache { layer: "AvgPool2d" })?;
        let (b, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        let (oh, ow) = (h / self.window, w / self.window);
        if grad_out.shape() != &Shape::d4(b, c, oh, ow) {
            return Err(NnError::BadInput {
                what: "AvgPool2d::backward",
                detail: format!("grad shape {} != [{b}, {c}, {oh}, {ow}]", grad_out.shape()),
            });
        }
        let norm = 1.0 / (self.window * self.window) as f32;
        let mut dx = Tensor::zeros(in_shape);
        let g = grad_out.data();
        let data = dx.data_mut();
        for bc in 0..b * c {
            let in_base = bc * h * w;
            let out_base = bc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let share = g[out_base + oy * ow + ox] * norm;
                    for dy in 0..self.window {
                        let iy = oy * self.window + dy;
                        for dx_off in 0..self.window {
                            data[in_base + iy * w + ox * self.window + dx_off] += share;
                        }
                    }
                }
            }
        }
        Ok(dx)
    }
}

/// Global average pooling: `[B, C, H, W] → [B, C]`.
///
/// Used as the feature→classifier bridge in all models here so that
/// pruning the last convolution's feature maps maps one-to-one onto the
/// classifier's input features.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    in_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_shape: None }
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input is not rank 4.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.rank() != 4 {
            return Err(NnError::BadInput {
                what: "GlobalAvgPool",
                detail: format!("expected [B, C, H, W], got {shape}"),
            });
        }
        let (b, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let plane = h * w;
        let mut out = vec![0.0f32; b * c];
        for (bc, o) in out.iter_mut().enumerate() {
            let base = bc * plane;
            *o = input.data()[base..base + plane].iter().sum::<f32>() / plane as f32;
        }
        if train {
            self.in_shape = Some(shape.clone());
        } else {
            self.in_shape = None;
        }
        Ok(Tensor::from_vec(Shape::d2(b, c), out)?)
    }

    /// Backward pass: distributes each gradient uniformly over the plane.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a training forward, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let in_shape = self.in_shape.take().ok_or(NnError::NoForwardCache {
            layer: "GlobalAvgPool",
        })?;
        let (b, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        if grad_out.shape() != &Shape::d2(b, c) {
            return Err(NnError::BadInput {
                what: "GlobalAvgPool::backward",
                detail: format!("grad shape {} != [{b}, {c}]", grad_out.shape()),
            });
        }
        let plane = (h * w) as f32;
        let mut dx = Tensor::zeros(in_shape);
        for (bc, &g) in grad_out.data().iter().enumerate() {
            let share = g / plane;
            let base = bc * (h * w);
            for v in &mut dx.data_mut()[base..base + h * w] {
                *v = share;
            }
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Rng;

    #[test]
    fn maxpool_forward_manual() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_fn(Shape::d4(1, 1, 4, 4), |i| (i[2] * 4 + i[3]) as f32);
        let y = pool.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d4(1, 1, 2, 2));
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_fn(Shape::d4(1, 1, 2, 2), |i| (i[2] * 2 + i[3]) as f32);
        pool.forward(&x, true).unwrap();
        let g = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![5.0]).unwrap();
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_rejects_indivisible() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(Shape::d4(1, 1, 5, 4));
        assert!(pool.forward(&x, false).is_err());
    }

    #[test]
    fn maxpool_inference_equals_training_bit_for_bit() {
        // Windows of NaN, ±0 in both orders, ties, a lone -inf and mixes
        // of them; the rest random, so 3×3 windows also mix the kinds.
        let mut rng = Rng::seed_from(4);
        let specials = [
            [f32::NAN, 1.0, -2.0, f32::NAN],
            [f32::NAN; 4],
            [-0.0, 0.0, -0.0, -1.0],
            [0.0, -0.0, -3.0, -0.0],
            [2.5, 2.5, -2.5, 2.5],
            [f32::NEG_INFINITY; 4],
            [f32::NAN, -0.0, f32::NEG_INFINITY, 0.0],
        ];
        for window in [2, 3] {
            let mut x = Tensor::randn(Shape::d4(2, 3, 6, 6), &mut rng);
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if i % 3 != 2 {
                    *v = specials[i / 4 % specials.len()][i % 4];
                }
            }
            let mut pool = MaxPool2d::new(window);
            let train = pool.forward(&x, true).unwrap();
            let infer = pool.forward(&x, false).unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&infer), bits(&train), "window {window}");
            assert!(train
                .data()
                .iter()
                .any(|v| v.to_bits() == (-0.0f32).to_bits()));
        }
    }

    #[test]
    fn avgpool_forward_manual() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_fn(Shape::d4(1, 1, 4, 4), |i| (i[2] * 4 + i[3]) as f32);
        let y = pool.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d4(1, 1, 2, 2));
        // Window means: (0+1+4+5)/4 = 2.5, etc.
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::zeros(Shape::d4(1, 1, 2, 2));
        pool.forward(&x, true).unwrap();
        let g = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![8.0]).unwrap();
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradient_check() {
        let mut rng = Rng::seed_from(2);
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::randn(Shape::d4(1, 2, 4, 4), &mut rng);
        let wobj = Tensor::randn(Shape::d4(1, 2, 2, 2), &mut rng);
        pool.forward(&x, true).unwrap();
        let dx = pool.backward(&wobj).unwrap();
        let eps = 1e-2;
        let obj = |pool: &mut AvgPool2d, x: &Tensor| -> f32 {
            pool.forward(x, false)
                .unwrap()
                .data()
                .iter()
                .zip(wobj.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for probe in [0usize, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let numeric = (obj(&mut pool, &xp) - obj(&mut pool, &xm)) / (2.0 * eps);
            assert!((numeric - dx.data()[probe]).abs() < 1e-3);
        }
    }

    #[test]
    fn avgpool_rejects_indivisible() {
        let mut pool = AvgPool2d::new(3);
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        assert!(pool.forward(&x, false).is_err());
    }

    #[test]
    fn gap_averages_planes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_fn(Shape::d4(1, 2, 2, 2), |i| if i[1] == 0 { 1.0 } else { 3.0 });
        let y = gap.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(1, 2));
        assert_eq!(y.data(), &[1.0, 3.0]);
    }

    #[test]
    fn gap_backward_is_uniform() {
        let mut gap = GlobalAvgPool::new();
        let mut rng = Rng::seed_from(0);
        let x = Tensor::randn(Shape::d4(2, 3, 4, 4), &mut rng);
        gap.forward(&x, true).unwrap();
        let g = Tensor::ones(Shape::d2(2, 3));
        let dx = gap.backward(&g).unwrap();
        assert!(dx.data().iter().all(|&v| (v - 1.0 / 16.0).abs() < 1e-7));
    }

    #[test]
    fn gap_gradient_check() {
        let mut gap = GlobalAvgPool::new();
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(Shape::d4(1, 2, 3, 3), &mut rng);
        gap.forward(&x, true).unwrap();
        let w = Tensor::randn(Shape::d2(1, 2), &mut rng);
        let dx = gap.backward(&w).unwrap();
        let eps = 1e-2;
        let obj = |gap: &mut GlobalAvgPool, x: &Tensor| -> f32 {
            gap.forward(x, false)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for probe in [0usize, 9, 17] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let numeric = (obj(&mut gap, &xp) - obj(&mut gap, &xm)) / (2.0 * eps);
            assert!((numeric - dx.data()[probe]).abs() < 1e-3);
        }
    }
}
