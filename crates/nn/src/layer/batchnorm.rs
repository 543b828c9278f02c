//! Batch normalization over NCHW activations.

use hs_tensor::{Shape, Tensor};

use crate::error::NnError;
use crate::param::Param;

/// Per-channel batch normalization for `[B, C, H, W]` activations.
///
/// Training mode normalizes with batch statistics and updates exponential
/// running averages; evaluation mode uses the running averages, so a
/// pruned-and-frozen model is deterministic.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Scale (`γ`), `[C]`.
    pub gamma: Param,
    /// Shift (`β`), `[C]`.
    pub beta: Param,
    /// Running mean, `[C]` (not trained).
    pub running_mean: Tensor,
    /// Running variance, `[C]` (not trained).
    pub running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    batch_shape: Shape,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with `γ = 1`, `β = 0`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new_no_decay(Tensor::ones(Shape::d1(channels))),
            beta: Param::new_no_decay(Tensor::zeros(Shape::d1(channels))),
            running_mean: Tensor::zeros(Shape::d1(channels)),
            running_var: Tensor::ones(Shape::d1(channels)),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Builds a layer from explicit per-channel tensors (used by surgery).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the four tensors are not all rank-1
    /// of the same length.
    pub fn from_parts(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    ) -> Result<Self, NnError> {
        let c = gamma.len();
        let want = Shape::d1(c);
        for (name, t) in [
            ("gamma", &gamma),
            ("beta", &beta),
            ("running_mean", &running_mean),
            ("running_var", &running_var),
        ] {
            if t.shape() != &want {
                return Err(NnError::BadInput {
                    what: "BatchNorm2d::from_parts",
                    detail: format!("{name} has shape {}, expected {want}", t.shape()),
                });
            }
        }
        Ok(BatchNorm2d {
            gamma: Param::new_no_decay(gamma),
            beta: Param::new_no_decay(beta),
            running_mean,
            running_var,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        })
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input is not `[B, C, H, W]`
    /// with the layer's channel count.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.rank() != 4 || shape.dim(1) != self.channels() {
            return Err(NnError::BadInput {
                what: "BatchNorm2d",
                detail: format!("expected [B, {}, H, W], got {shape}", self.channels()),
            });
        }
        let (b, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let per_channel = b * h * w;
        let plane = h * w;
        let mut out = Tensor::zeros(shape.clone());
        // Only the backward pass reads `x_hat`, so inference never builds it.
        let mut x_hat = train.then(|| Tensor::zeros(shape.clone()));
        let mut inv_stds = vec![0.0f32; c];
        #[allow(clippy::needless_range_loop)] // `ch` also derives plane offsets
        for ch in 0..c {
            let (mean, var) = if train {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    for &v in &input.data()[base..base + plane] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / per_channel as f64) as f32;
                let var =
                    ((sq / per_channel as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                // Exponential running averages (unbiased variance like
                // PyTorch uses n/(n-1) but the difference is negligible at
                // our batch sizes; we keep the biased batch variance).
                let m = self.momentum;
                self.running_mean.data_mut()[ch] =
                    (1.0 - m) * self.running_mean.data()[ch] + m * mean;
                self.running_var.data_mut()[ch] = (1.0 - m) * self.running_var.data()[ch] + m * var;
                (mean, var)
            } else {
                (self.running_mean.data()[ch], self.running_var.data()[ch])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ch] = inv_std;
            let g = self.gamma.value.data()[ch];
            let be = self.beta.value.data()[ch];
            for bi in 0..b {
                let span = (bi * c + ch) * plane..(bi * c + ch + 1) * plane;
                let src = &input.data()[span.clone()];
                let dst = &mut out.data_mut()[span.clone()];
                if let Some(x_hat) = &mut x_hat {
                    let xh_dst = &mut x_hat.data_mut()[span];
                    for ((o, xh_slot), &x) in dst.iter_mut().zip(xh_dst).zip(src) {
                        let xh = (x - mean) * inv_std;
                        *xh_slot = xh;
                        *o = g * xh + be;
                    }
                } else {
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o = g * ((x - mean) * inv_std) + be;
                    }
                }
            }
        }
        self.cache = x_hat.map(|x_hat| BnCache {
            x_hat,
            inv_std: inv_stds,
            batch_shape: shape.clone(),
        });
        Ok(out)
    }

    /// Backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a training forward, or
    /// [`NnError::BadInput`] on a shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.take().ok_or(NnError::NoForwardCache {
            layer: "BatchNorm2d",
        })?;
        if grad_out.shape() != &cache.batch_shape {
            return Err(NnError::BadInput {
                what: "BatchNorm2d::backward",
                detail: format!("grad shape {} != {}", grad_out.shape(), cache.batch_shape),
            });
        }
        let shape = &cache.batch_shape;
        let (b, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let plane = h * w;
        let n = (b * plane) as f32;
        let mut dx = Tensor::zeros(shape.clone());
        for ch in 0..c {
            // Accumulate dγ, dβ, and the two reduction terms of the
            // standard batch-norm backward formula.
            let mut dgamma = 0.0f64;
            let mut dbeta = 0.0f64;
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    let go = grad_out.data()[i] as f64;
                    dgamma += go * cache.x_hat.data()[i] as f64;
                    dbeta += go;
                }
            }
            self.gamma.grad_mut().data_mut()[ch] += dgamma as f32;
            self.beta.grad_mut().data_mut()[ch] += dbeta as f32;
            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            let mean_dy = dbeta as f32 / n;
            let mean_dy_xhat = dgamma as f32 / n;
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    let xh = cache.x_hat.data()[i];
                    let go = grad_out.data()[i];
                    dx.data_mut()[i] = g * inv_std * (go - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        Ok(dx)
    }

    /// Passes `γ` then `β` to `f`.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Rng;

    #[test]
    fn training_output_is_normalized() {
        let mut rng = Rng::seed_from(0);
        let mut bn = BatchNorm2d::new(3);
        let x = {
            let mut t = Tensor::randn(Shape::d4(4, 3, 5, 5), &mut rng);
            t.map_inplace(|v| v * 3.0 + 2.0);
            t
        };
        let y = bn.forward(&x, true).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for b in 0..4 {
                for h in 0..5 {
                    for w in 0..5 {
                        vals.push(y.at(&[b, ch, h, w]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng::seed_from(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(Shape::d4(8, 2, 4, 4), &mut rng);
        // Train a few times to move running stats.
        for _ in 0..20 {
            bn.forward(&x, true).unwrap();
        }
        let y_eval = bn.forward(&x, false).unwrap();
        // Running stats converge towards batch stats, so eval output is
        // close to normalized too — but crucially it must be deterministic.
        let y_eval2 = bn.forward(&x, false).unwrap();
        assert_eq!(y_eval, y_eval2);
    }

    #[test]
    fn inference_output_is_the_running_stats_formula_bit_for_bit() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(Shape::d4(3, 2, 4, 5), &mut rng);
        let mut bn = BatchNorm2d::from_parts(
            Tensor::from_vec(Shape::d1(2), vec![1.5, -0.7]).unwrap(),
            Tensor::from_vec(Shape::d1(2), vec![0.2, 0.9]).unwrap(),
            Tensor::from_vec(Shape::d1(2), vec![0.3, -1.1]).unwrap(),
            Tensor::from_vec(Shape::d1(2), vec![0.8, 2.5]).unwrap(),
        )
        .unwrap();
        let y = bn.forward(&x, false).unwrap();
        assert!(bn.cache.is_none());
        let want = Tensor::from_fn(x.shape().clone(), |i| {
            let ch = i[1];
            let mean = bn.running_mean.data()[ch];
            let inv_std = 1.0 / (bn.running_var.data()[ch] + bn.eps).sqrt();
            let (g, be) = (bn.gamma.value.data()[ch], bn.beta.value.data()[ch]);
            g * ((x.at(i) - mean) * inv_std) + be
        });
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::seed_from(2);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_vec(Shape::d1(2), vec![1.5, 0.5]).unwrap();
        bn.beta.value = Tensor::from_vec(Shape::d1(2), vec![0.2, -0.3]).unwrap();
        let x = Tensor::randn(Shape::d4(3, 2, 3, 3), &mut rng);
        // Weighted-sum objective so the gradient isn't trivially zero
        // (sum of a normalized batch is ~constant).
        let wobj = Tensor::randn(Shape::d4(3, 2, 3, 3), &mut rng);
        let y = bn.forward(&x, true).unwrap();
        let _ = y;
        let dx = bn.backward(&wobj).unwrap();
        let eps = 1e-2;
        let objective = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, true).unwrap();
            bn.cache = None; // keep the layer re-usable
            y.data().iter().zip(wobj.data()).map(|(a, b)| a * b).sum()
        };
        // Freeze running stats so repeated forwards don't drift.
        let saved_mean = bn.running_mean.clone();
        let saved_var = bn.running_var.clone();
        for probe in [0usize, 17, 53] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            bn.running_mean = saved_mean.clone();
            bn.running_var = saved_var.clone();
            let fp = objective(&mut bn, &xp);
            let fm = objective(&mut bn, &xm);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[probe]).abs() < 3e-2 * (1.0 + numeric.abs()),
                "dx at {probe}: numeric {numeric}, analytic {}",
                dx.data()[probe]
            );
        }
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new(4);
        let x = Tensor::zeros(Shape::d4(1, 3, 2, 2));
        assert!(bn.forward(&x, true).is_err());
    }

    #[test]
    fn from_parts_validates_lengths() {
        let ok = BatchNorm2d::from_parts(
            Tensor::ones(Shape::d1(3)),
            Tensor::zeros(Shape::d1(3)),
            Tensor::zeros(Shape::d1(3)),
            Tensor::ones(Shape::d1(3)),
        );
        assert!(ok.is_ok());
        let bad = BatchNorm2d::from_parts(
            Tensor::ones(Shape::d1(3)),
            Tensor::zeros(Shape::d1(2)),
            Tensor::zeros(Shape::d1(3)),
            Tensor::ones(Shape::d1(3)),
        );
        assert!(bad.is_err());
    }
}
