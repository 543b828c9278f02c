//! Optimizers: SGD with momentum (fine-tuning) and RMSprop (the paper's
//! choice for training the head-start policy networks).

use hs_tensor::workspace::with_scratch_zeroed;
use hs_tensor::{pool, Tensor};

use crate::network::Network;
use crate::param::Param;

/// Chunk size for pooled parameter updates. Fixed (not thread-derived) so
/// update order within each chunk — and the resulting floats — never
/// depend on `HS_NUM_THREADS`.
const UPDATE_CHUNK: usize = 1 << 15;

/// Applies `f` to matching fixed-size chunks of optimizer state, weights
/// and gradients, in parallel for large parameters.
fn par_zip3(
    state: &mut [f32],
    value: &mut [f32],
    grad: &[f32],
    f: impl Fn(&mut [f32], &mut [f32], &[f32]) + Sync,
) {
    debug_assert!(state.len() == value.len() && value.len() == grad.len());
    if value.len() <= UPDATE_CHUNK {
        f(state, value, grad);
        return;
    }
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = state
        .chunks_mut(UPDATE_CHUNK)
        .zip(value.chunks_mut(UPDATE_CHUNK))
        .zip(grad.chunks(UPDATE_CHUNK))
        .map(|((s, v), g)| Box::new(move || f(s, v, g)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    pool::run_tasks(tasks);
}

/// Runs `f` on a parameter's gradient, or on `len` zeros when none has
/// been accumulated, so a missing gradient updates exactly like a zeroed
/// one.
fn with_grad(grad: &Option<Tensor>, len: usize, f: impl FnOnce(&[f32])) {
    match grad {
        Some(grad) => f(grad.data()),
        None => with_scratch_zeroed(len, |zeros| f(zeros)),
    }
}

/// A gradient-descent optimizer over a [`Network`]'s parameters.
///
/// Per-parameter state (momentum buffers, second-moment estimates) is
/// keyed by the deterministic `visit_params` order, so an optimizer must
/// not be reused across networks with different parameter lists.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step using the currently accumulated gradients,
    /// then leaves gradients untouched (call [`Network::zero_grad`]
    /// before the next accumulation).
    fn step(&mut self, net: &mut Network);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and decoupled
/// L2 weight decay.
///
/// # Example
///
/// ```
/// use hs_nn::optim::{Optimizer, Sgd};
///
/// let mut sgd = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
/// assert_eq!(sgd.learning_rate(), 0.05);
/// sgd.set_learning_rate(0.01);
/// assert_eq!(sgd.learning_rate(), 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient (builder style).
    pub fn momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient (builder style). Applies only
    /// to parameters flagged [`Param::decay`].
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Discards per-parameter state (required when switching networks).
    pub fn reset_state(&mut self) {
        self.velocity.clear();
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Network) {
        let mut idx = 0usize;
        let (lr, mom, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        net.visit_params(&mut |p: &mut Param| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.shape().clone()));
            }
            let v = &mut velocity[idx];
            debug_assert_eq!(v.shape(), p.value.shape(), "optimizer state shape drift");
            let decay = if p.decay { wd } else { 0.0 };
            let Param { value, grad, .. } = p;
            with_grad(grad, value.len(), |grad| {
                par_zip3(v.data_mut(), value.data_mut(), grad, |vs, ws, gs| {
                    for ((vi, w), &gi) in vs.iter_mut().zip(ws.iter_mut()).zip(gs) {
                        let g = gi + decay * *w;
                        *vi = mom * *vi + g;
                        *w -= lr * *vi;
                    }
                });
            });
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSprop (Hinton lecture 6a), the optimizer the paper uses for the
/// head-start networks, with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    alpha: f32,
    eps: f32,
    weight_decay: f32,
    sq_avg: Vec<Tensor>,
}

impl RmsProp {
    /// Creates RMSprop with the given learning rate, smoothing `α = 0.99`
    /// and `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        RmsProp {
            lr,
            alpha: 0.99,
            eps: 1e-8,
            weight_decay: 0.0,
            sq_avg: Vec::new(),
        }
    }

    /// Sets the smoothing constant `α` (builder style).
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the L2 weight-decay coefficient (builder style).
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Discards per-parameter state.
    pub fn reset_state(&mut self) {
        self.sq_avg.clear();
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, net: &mut Network) {
        let mut idx = 0usize;
        let (lr, alpha, eps, wd) = (self.lr, self.alpha, self.eps, self.weight_decay);
        let sq_avg = &mut self.sq_avg;
        net.visit_params(&mut |p: &mut Param| {
            if sq_avg.len() <= idx {
                sq_avg.push(Tensor::zeros(p.value.shape().clone()));
            }
            debug_assert_eq!(
                sq_avg[idx].shape(),
                p.value.shape(),
                "optimizer state shape drift"
            );
            let decay = if p.decay { wd } else { 0.0 };
            // Split-borrow value and grad so no gradient copy is needed.
            let Param { value, grad, .. } = p;
            with_grad(grad, value.len(), |grad| {
                par_zip3(
                    sq_avg[idx].data_mut(),
                    value.data_mut(),
                    grad,
                    |ss, ws, gs| {
                        for ((w, &g0), s) in ws.iter_mut().zip(gs).zip(ss.iter_mut()) {
                            let g = g0 + decay * *w;
                            *s = alpha * *s + (1.0 - alpha) * g * g;
                            *w -= lr * g / (s.sqrt() + eps);
                        }
                    },
                );
            });
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// A step learning-rate schedule: multiply the rate by `gamma` every
/// `step_epochs` epochs (the classic VGG/ResNet schedule; the paper
/// keeps a constant rate during fine-tuning, so this is opt-in).
///
/// # Example
///
/// ```
/// use hs_nn::optim::{Optimizer, Sgd, StepLr};
///
/// let mut opt = Sgd::new(0.1);
/// let schedule = StepLr::new(0.1, 2, 0.5);
/// for epoch in 0..4 {
///     schedule.apply(&mut opt, epoch);
/// }
/// assert!((opt.learning_rate() - 0.05).abs() < 1e-7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLr {
    base_lr: f32,
    step_epochs: usize,
    gamma: f32,
}

impl StepLr {
    /// Creates a schedule starting at `base_lr`, decaying by `gamma`
    /// every `step_epochs` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `step_epochs` is zero or `gamma` is not in `(0, 1]`.
    pub fn new(base_lr: f32, step_epochs: usize, gamma: f32) -> Self {
        assert!(step_epochs > 0, "step_epochs must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        StepLr {
            base_lr,
            step_epochs,
            gamma,
        }
    }

    /// The learning rate the schedule prescribes for `epoch` (0-based).
    pub fn rate_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.gamma.powi((epoch / self.step_epochs) as i32)
    }

    /// Sets the optimizer's learning rate for `epoch`.
    pub fn apply(&self, opt: &mut dyn Optimizer, epoch: usize) {
        opt.set_learning_rate(self.rate_at(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Linear;
    use crate::network::{Network, Node};
    use hs_tensor::Rng;

    /// One-parameter quadratic: minimize (w - 3)² via a 1×1 linear layer
    /// driven by handcrafted gradients.
    fn quad_net(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        net.push(Node::Linear(Linear::new(1, 1, rng)));
        net
    }

    fn weight(net: &mut Network) -> f32 {
        let mut w = 0.0;
        net.visit_params(&mut |p| {
            if p.value.len() == 1 && p.decay {
                w = p.value.data()[0];
            }
        });
        w
    }

    fn set_grad_towards(net: &mut Network, target: f32) {
        net.visit_params(&mut |p| {
            if p.value.len() == 1 && p.decay {
                p.grad_mut().data_mut()[0] = p.value.data()[0] - target;
            } else {
                p.zero_grad();
            }
        });
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut rng = Rng::seed_from(0);
        let mut net = quad_net(&mut rng);
        let mut opt = Sgd::new(0.1).momentum(0.5);
        for _ in 0..200 {
            set_grad_towards(&mut net, 3.0);
            opt.step(&mut net);
        }
        assert!((weight(&mut net) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let mut rng = Rng::seed_from(1);
        let mut net = quad_net(&mut rng);
        let mut opt = RmsProp::new(0.05);
        for _ in 0..500 {
            set_grad_towards(&mut net, -2.0);
            opt.step(&mut net);
        }
        assert!((weight(&mut net) + 2.0).abs() < 0.05);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = Rng::seed_from(2);
        let mut net = quad_net(&mut rng);
        // Force a known weight.
        net.visit_params(&mut |p| {
            if p.decay {
                p.value.fill(1.0);
            }
        });
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        net.zero_grad();
        opt.step(&mut net);
        // w ← w − lr·wd·w = 1 − 0.05
        assert!((weight(&mut net) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn no_decay_params_skip_weight_decay() {
        let mut rng = Rng::seed_from(3);
        let mut net = quad_net(&mut rng);
        net.visit_params(&mut |p| p.value.fill(1.0));
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        net.zero_grad();
        opt.step(&mut net);
        net.visit_params(&mut |p| {
            if !p.decay {
                assert_eq!(p.value.data()[0], 1.0, "bias must not decay");
            }
        });
    }

    #[test]
    fn step_lr_decays_at_boundaries() {
        let s = StepLr::new(1.0, 3, 0.1);
        assert_eq!(s.rate_at(0), 1.0);
        assert_eq!(s.rate_at(2), 1.0);
        assert!((s.rate_at(3) - 0.1).abs() < 1e-7);
        assert!((s.rate_at(6) - 0.01).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn step_lr_rejects_bad_gamma() {
        StepLr::new(1.0, 2, 1.5);
    }

    #[test]
    fn set_learning_rate_takes_effect() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        let mut r = RmsProp::new(0.1);
        r.set_learning_rate(0.02);
        assert_eq!(r.learning_rate(), 0.02);
    }
}
