//! Fully connected layer.

use hs_tensor::{gemm_ex, Init, Rng, Shape, Tensor};

use crate::error::NnError;
use crate::param::Param;

/// Fully connected layer: `y = x·Wᵀ + b` with `W: [out, in]`.
///
/// The weight's *input* axis (axis 1) is what channel surgery shrinks when
/// the last convolutional layer loses feature maps.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[out_features, in_features]`.
    pub weight: Param,
    /// Bias `[out_features]`.
    pub bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: Param::new(
                Init::XavierUniform.sample(Shape::d2(out_features, in_features), rng),
            ),
            bias: Param::new_no_decay(Tensor::zeros(Shape::d1(out_features))),
            cached_input: None,
        }
    }

    /// Builds a layer from explicit tensors (used by surgery).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on rank/length mismatch.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self, NnError> {
        if weight.shape().rank() != 2 {
            return Err(NnError::BadInput {
                what: "Linear::from_parts",
                detail: format!("weight must be [out, in], got {}", weight.shape()),
            });
        }
        if bias.shape() != &Shape::d1(weight.shape().dim(0)) {
            return Err(NnError::BadInput {
                what: "Linear::from_parts",
                detail: format!("bias {} vs {} outputs", bias.shape(), weight.shape().dim(0)),
            });
        }
        Ok(Linear {
            weight: Param::new(weight),
            bias: Param::new_no_decay(bias),
            cached_input: None,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Forward pass over `[B, in_features]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on shape mismatch.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if input.shape().rank() != 2 || input.shape().dim(1) != self.in_features() {
            return Err(NnError::BadInput {
                what: "Linear",
                detail: format!(
                    "expected [B, {}], got {}",
                    self.in_features(),
                    input.shape()
                ),
            });
        }
        let mut y = input.matmul_nt(&self.weight.value)?;
        let out = self.out_features();
        let bias = self.bias.value.data();
        for row in y.data_mut().chunks_mut(out) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
        }
        Ok(y)
    }

    /// Backward pass; accumulates parameter gradients and returns the
    /// input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a training forward, or
    /// shape errors on an inconsistent `grad_out`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .take()
            .ok_or(NnError::NoForwardCache { layer: "Linear" })?;
        let batch = input.shape().dim(0);
        let (out, inf) = (self.out_features(), self.in_features());
        if grad_out.shape() != &Shape::d2(batch, out) {
            return Err(NnError::BadInput {
                what: "Linear::backward",
                detail: format!("grad shape {} != [{batch}, {out}]", grad_out.shape()),
            });
        }
        // dW = dYᵀ · X, accumulated straight into the gradient buffer.
        gemm_ex(
            self.weight.grad_mut().data_mut(),
            grad_out.data(),
            input.data(),
            out,
            batch,
            inf,
            true,
            false,
            true,
        );
        // db += Σ_batch dY
        let bgrad = self.bias.grad_mut().data_mut();
        for row in grad_out.data().chunks(out) {
            for (g, &d) in bgrad.iter_mut().zip(row) {
                *g += d;
            }
        }
        // dX = dY · W
        Ok(grad_out.matmul(&self.weight.value)?)
    }

    /// Passes the layer's parameters to `f` (weight first, then bias).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng::seed_from(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        lin.weight.value =
            Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap();
        lin.bias.value = Tensor::from_vec(Shape::d1(2), vec![1.0, -1.0]).unwrap();
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![2.0, 4.0, 6.0]).unwrap();
        let y = lin.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[2.0 - 6.0 + 1.0, 1.0 + 2.0 + 3.0 - 1.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::seed_from(1);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(Shape::d2(5, 4), &mut rng);
        let y = lin.forward(&x, true).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let dx = lin.backward(&dy).unwrap();
        let eps = 1e-2;
        for probe in [0usize, 7, 19] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let fp = lin.forward(&xp, false).unwrap().sum();
            let fm = lin.forward(&xm, false).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - dx.data()[probe]).abs() < 1e-2 * (1.0 + numeric.abs()));
        }
        for probe in [0usize, 5, 11] {
            let orig = lin.weight.value.data()[probe];
            lin.weight.value.data_mut()[probe] = orig + eps;
            let fp = lin.forward(&x, false).unwrap().sum();
            lin.weight.value.data_mut()[probe] = orig - eps;
            let fm = lin.forward(&x, false).unwrap().sum();
            lin.weight.value.data_mut()[probe] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - lin.weight.grad_mut().data()[probe]).abs()
                    < 1e-2 * (1.0 + numeric.abs())
            );
        }
        // Bias gradient over a batch of 5 with unit output grads is 5.
        assert!(lin
            .bias
            .grad_mut()
            .data()
            .iter()
            .all(|&g| (g - 5.0).abs() < 1e-4));
    }

    #[test]
    fn rejects_wrong_width() {
        let mut rng = Rng::seed_from(2);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = Tensor::zeros(Shape::d2(2, 5));
        assert!(lin.forward(&x, false).is_err());
    }

    #[test]
    fn from_parts_validates() {
        assert!(
            Linear::from_parts(Tensor::zeros(Shape::d2(2, 3)), Tensor::zeros(Shape::d1(2))).is_ok()
        );
        assert!(
            Linear::from_parts(Tensor::zeros(Shape::d2(2, 3)), Tensor::zeros(Shape::d1(3)))
                .is_err()
        );
        assert!(
            Linear::from_parts(Tensor::zeros(Shape::d1(6)), Tensor::zeros(Shape::d1(2))).is_err()
        );
    }
}
