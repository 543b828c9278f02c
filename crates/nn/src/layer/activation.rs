//! Activation functions.

use hs_tensor::Tensor;

use crate::error::NnError;

/// Rectified linear unit, `max(0, x)`.
///
/// The APoZ pruning criterion (Hu et al. 2016) counts zeros *after* this
/// activation, which is why the network keeps ReLU as an explicit node
/// rather than fusing it.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }

    /// Forward pass (any shape).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(|x| x.max(0.0));
        if train {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        } else {
            self.mask = None;
        }
        out
    }

    /// Backward pass: zeroes gradients where the input was non-positive.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a training forward, or
    /// [`NnError::BadInput`] if `grad_out` has a different element count.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::NoForwardCache { layer: "ReLU" })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BadInput {
                what: "ReLU::backward",
                detail: format!(
                    "grad has {} elements, cache has {}",
                    grad_out.len(),
                    mask.len()
                ),
            });
        }
        let mut dx = grad_out.clone();
        // A select, not a branch: a branch mispredicts on random masks.
        for (g, &keep) in dx.data_mut().iter_mut().zip(mask.iter()) {
            *g = if keep { *g } else { 0.0 };
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Shape;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        let y = relu.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 2.0, 3.0]).unwrap();
        relu.forward(&x, true);
        let g = Tensor::ones(Shape::d1(4));
        let dx = relu.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = ReLU::new();
        assert!(relu.backward(&Tensor::ones(Shape::d1(2))).is_err());
    }
}
