//! Trainable parameters: a value tensor paired with its gradient
//! accumulator.

use hs_tensor::{Shape, Tensor};

/// A trainable parameter: value plus an optional gradient accumulator of
/// equal shape.
///
/// Gradients are training-only storage. A new parameter carries none; the
/// first backward accumulation allocates zeros of the value's shape, and
/// [`train_epoch`](crate::train::train_epoch) drops them again when it
/// returns. Pretrained, fine-tuned, cloned, loaded and compacted networks
/// therefore hold values only. A missing gradient reads as zeros.
///
/// Layers expose their parameters to optimizers through
/// [`Network::visit_params`](crate::Network::visit_params); the visit
/// order is deterministic, which is how optimizers associate per-parameter
/// state (momentum buffers etc.) without global IDs.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`), `None` while nothing
    /// has been accumulated.
    pub grad: Option<Tensor>,
    /// Whether weight decay applies (true for weights, false for biases
    /// and batch-norm affine parameters, following common practice).
    pub decay: bool,
}

impl Param {
    /// Wraps a value tensor, without a gradient, with weight decay on.
    pub fn new(value: Tensor) -> Self {
        Param {
            value,
            grad: None,
            decay: true,
        }
    }

    /// Wraps a value tensor with weight decay off (biases, BN affine).
    pub fn new_no_decay(value: Tensor) -> Self {
        Param {
            value,
            grad: None,
            decay: false,
        }
    }

    /// The gradient accumulator, allocated as zeros on first use.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        self.value_and_grad_mut().1
    }

    /// The value and the gradient accumulator (allocated as zeros on
    /// first use), borrowed together so a kernel can read one and
    /// accumulate into the other.
    pub fn value_and_grad_mut(&mut self) -> (&Tensor, &mut Tensor) {
        let Param { value, grad, .. } = self;
        let grad = grad.get_or_insert_with(|| Tensor::zeros(value.shape().clone()));
        (value, grad)
    }

    /// Zeroes the gradient accumulator; a no-op when there is none.
    pub fn zero_grad(&mut self) {
        if let Some(grad) = &mut self.grad {
            grad.fill(0.0);
        }
    }

    /// Releases the gradient accumulator.
    pub fn drop_grad(&mut self) {
        self.grad = None;
    }

    /// Gradient floats currently allocated (0 or [`Param::len`]).
    pub fn grad_len(&self) -> usize {
        self.grad.as_ref().map_or(0, Tensor::len)
    }

    /// Parameter element count.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// The parameter's shape.
    pub fn shape(&self) -> &Shape {
        self.value.shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_no_grad_until_first_use() {
        let mut p = Param::new(Tensor::ones(Shape::d2(2, 3)));
        assert_eq!(p.grad, None);
        assert_eq!(p.grad_len(), 0);
        assert!(p.decay);
        assert_eq!(p.len(), 6);
        assert_eq!(p.grad_mut(), &Tensor::zeros(Shape::d2(2, 3)));
        assert_eq!(p.grad_len(), 6);
        p.drop_grad();
        assert_eq!(p.grad_len(), 0);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new_no_decay(Tensor::ones(Shape::d1(4)));
        assert!(!p.decay);
        p.zero_grad();
        assert_eq!(p.grad, None, "zeroing a missing gradient allocates nothing");
        p.grad_mut().fill(3.0);
        p.zero_grad();
        assert!(p.grad_mut().data().iter().all(|&g| g == 0.0));
    }
}
