//! The network container: a sequence of nodes with masking, capture and
//! block-level control.

use hs_tensor::Tensor;

use crate::block::ResidualBlock;
use crate::error::NnError;
use crate::layer::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU,
};
use crate::param::Param;

/// One node of a [`Network`].
///
/// The enum (rather than trait objects) keeps surgery, accounting and
/// serialization straightforward: pruning code can pattern-match on the
/// exact layer kinds it needs to rewrite.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
// Nodes live in one short Vec per network; boxing the residual-block
// variant would complicate every match for a negligible size win.
#[allow(clippy::large_enum_variant)]
pub enum Node {
    Conv(Conv2d),
    Bn(BatchNorm2d),
    Relu(ReLU),
    Dropout(Dropout),
    MaxPool(MaxPool2d),
    AvgPool(AvgPool2d),
    Gap(GlobalAvgPool),
    Flatten(Flatten),
    Linear(Linear),
    Block(ResidualBlock),
}

impl Node {
    /// Short kind name, used in summaries and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Node::Conv(_) => "conv",
            Node::Bn(_) => "bn",
            Node::Relu(_) => "relu",
            Node::Dropout(_) => "dropout",
            Node::MaxPool(_) => "maxpool",
            Node::AvgPool(_) => "avgpool",
            Node::Gap(_) => "gap",
            Node::Flatten(_) => "flatten",
            Node::Linear(_) => "linear",
            Node::Block(_) => "block",
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        match self {
            Node::Conv(l) => l.forward(x, train),
            Node::Bn(l) => l.forward(x, train),
            Node::Relu(l) => Ok(l.forward(x, train)),
            Node::Dropout(l) => Ok(l.forward(x, train)),
            Node::MaxPool(l) => l.forward(x, train),
            Node::AvgPool(l) => l.forward(x, train),
            Node::Gap(l) => l.forward(x, train),
            Node::Flatten(l) => l.forward(x, train),
            Node::Linear(l) => l.forward(x, train),
            Node::Block(l) => l.forward(x, train),
        }
    }

    fn backward(&mut self, g: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Node::Conv(l) => l.backward(g),
            Node::Bn(l) => l.backward(g),
            Node::Relu(l) => l.backward(g),
            Node::Dropout(l) => l.backward(g),
            Node::MaxPool(l) => l.backward(g),
            Node::AvgPool(l) => l.backward(g),
            Node::Gap(l) => l.backward(g),
            Node::Flatten(l) => l.backward(g),
            Node::Linear(l) => l.backward(g),
            Node::Block(l) => l.backward(g),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Node::Conv(l) => l.visit_params(f),
            Node::Bn(l) => l.visit_params(f),
            Node::Linear(l) => l.visit_params(f),
            Node::Block(l) => l.visit_params(f),
            Node::Relu(_)
            | Node::Dropout(_)
            | Node::MaxPool(_)
            | Node::AvgPool(_)
            | Node::Gap(_)
            | Node::Flatten(_) => {}
        }
    }
}

/// A feed-forward network: an ordered list of [`Node`]s with optional
/// per-node output channel masks.
///
/// Masks simulate feature-map pruning without touching weights: a masked
/// channel is multiplied by zero on the forward pass (and its gradient is
/// zeroed on the backward pass). This is how HeadStart evaluates candidate
/// inceptions cheaply before committing to physical surgery.
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    masks: Vec<Option<Vec<f32>>>,
    /// When true, training forward passes cache pre-mask activations so
    /// that [`Network::take_mask_grad`] can report `∂L/∂mask` after the
    /// backward pass (used by learned-gate pruning such as AutoPruner).
    mask_grad_enabled: bool,
    premask: Vec<Option<Tensor>>,
    mask_grads: Vec<Option<Vec<f32>>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            masks: Vec::new(),
            mask_grad_enabled: false,
            premask: Vec::new(),
            mask_grads: Vec::new(),
        }
    }

    /// Appends a node, returning its index.
    pub fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.masks.push(None);
        self.premask.push(None);
        self.mask_grads.push(None);
        self.nodes.len() - 1
    }

    /// Removes and returns the node at `index`, shifting later nodes
    /// down. The per-node mask/premask/gradient bookkeeping shrinks in
    /// lockstep, so masks attached to other nodes follow them to their
    /// new indices. Used by structural compaction to drop inactive
    /// residual blocks (whose forward pass is the identity).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_node(&mut self, index: usize) -> Node {
        self.masks.remove(index);
        self.premask.remove(index);
        self.mask_grads.remove(index);
        self.nodes.remove(index)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: usize) -> &Node {
        &self.nodes[index]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node_mut(&mut self, index: usize) -> &mut Node {
        &mut self.nodes[index]
    }

    /// Iterates over the nodes in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.nodes.iter()
    }

    /// Indices of all convolution nodes, in execution order.
    pub fn conv_indices(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, Node::Conv(_)).then_some(i))
            .collect()
    }

    /// Indices of all residual-block nodes, in execution order.
    pub fn block_indices(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, Node::Block(_)).then_some(i))
            .collect()
    }

    /// Sets (or clears, with `None`) the channel mask applied to the
    /// output of node `index`.
    ///
    /// Mask length is validated lazily on the next forward pass (the
    /// channel count depends on the input shape for some nodes).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_channel_mask(&mut self, index: usize, mask: Option<Vec<f32>>) {
        self.masks[index] = mask;
    }

    /// Clears every mask.
    pub fn clear_masks(&mut self) {
        for m in &mut self.masks {
            *m = None;
        }
    }

    /// The mask currently attached to node `index`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn channel_mask(&self, index: usize) -> Option<&[f32]> {
        self.masks[index].as_deref()
    }

    fn apply_mask(output: &mut Tensor, mask: &[f32], node: usize) -> Result<(), NnError> {
        let shape = output.shape();
        let (channels, inner) = match shape.rank() {
            4 => (shape.dim(1), shape.dim(2) * shape.dim(3)),
            2 => (shape.dim(1), 1),
            _ => {
                return Err(NnError::BadMask {
                    detail: format!("mask on node {node} with unsupported output shape {shape}"),
                })
            }
        };
        if mask.len() != channels {
            return Err(NnError::BadMask {
                detail: format!(
                    "mask of length {} on node {node} with {channels} channels",
                    mask.len()
                ),
            });
        }
        let batch = shape.dim(0);
        let data = output.data_mut();
        for b in 0..batch {
            for (c, &m) in mask.iter().enumerate() {
                if m != 1.0 {
                    let base = (b * channels + c) * inner;
                    for v in &mut data[base..base + inner] {
                        *v *= m;
                    }
                }
            }
        }
        Ok(())
    }

    /// Forward pass through all nodes.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors and mask validation errors.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        self.forward_range(input, 0, train)
    }

    /// Enables or disables recording of `∂L/∂mask` for masked nodes
    /// during training passes (see [`Network::take_mask_grad`]).
    pub fn set_mask_grad_enabled(&mut self, enabled: bool) {
        self.mask_grad_enabled = enabled;
        // Serde skips these caches, so re-size defensively in case the
        // network was deserialized.
        self.premask.resize(self.nodes.len(), None);
        self.mask_grads.resize(self.nodes.len(), None);
        if !enabled {
            for p in &mut self.premask {
                *p = None;
            }
            for g in &mut self.mask_grads {
                *g = None;
            }
        }
    }

    /// Takes the gradient of the loss with respect to the channel mask at
    /// node `index`, recorded by the most recent backward pass. Returns
    /// `None` when mask-grad recording is off, the node is unmasked, or
    /// no backward has run since the last take.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn take_mask_grad(&mut self, index: usize) -> Option<Vec<f32>> {
        self.mask_grads[index].take()
    }

    /// Runs only the nodes `start..len` on `input` (which must be shaped
    /// like node `start`'s expected input). Masks attached to the executed
    /// nodes still apply.
    ///
    /// This is the fast path for action evaluation in RL pruning: the
    /// activations *before* the pruned layer never change across candidate
    /// actions, so they are computed once and only the suffix re-runs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadNodeIndex`] if `start > len`, plus any layer
    /// error.
    pub fn forward_range(
        &mut self,
        input: &Tensor,
        start: usize,
        train: bool,
    ) -> Result<Tensor, NnError> {
        if start > self.nodes.len() {
            return Err(NnError::BadNodeIndex {
                index: start,
                expected: "node range start",
            });
        }
        let mut x: Option<Tensor> = None;
        for i in start..self.nodes.len() {
            let mut y = self.nodes[i].forward(x.as_ref().unwrap_or(input), train)?;
            if let Some(mask) = &self.masks[i] {
                if train && self.mask_grad_enabled {
                    self.premask[i] = Some(y.clone());
                }
                Self::apply_mask(&mut y, mask, i)?;
            }
            x = Some(y);
        }
        Ok(x.unwrap_or_else(|| input.clone()))
    }

    /// Forward pass that additionally returns the outputs of the requested
    /// nodes (post-mask). Used by activation-statistics pruning criteria
    /// (APoZ, entropy, ThiNet).
    ///
    /// # Errors
    ///
    /// Propagates layer errors; requesting an out-of-range node returns
    /// [`NnError::BadNodeIndex`].
    pub fn forward_capture(
        &mut self,
        input: &Tensor,
        capture: &[usize],
        train: bool,
    ) -> Result<(Tensor, Vec<Tensor>), NnError> {
        for &c in capture {
            if c >= self.nodes.len() {
                return Err(NnError::BadNodeIndex {
                    index: c,
                    expected: "existing node",
                });
            }
        }
        let mut captured: Vec<Option<Tensor>> = vec![None; capture.len()];
        let mut x = input.clone();
        for i in 0..self.nodes.len() {
            x = self.nodes[i].forward(&x, train)?;
            if let Some(mask) = &self.masks[i] {
                Self::apply_mask(&mut x, mask, i)?;
            }
            for (slot, &c) in captured.iter_mut().zip(capture) {
                if c == i {
                    *slot = Some(x.clone());
                }
            }
        }
        let captured = captured
            .into_iter()
            .map(|t| t.expect("validated above"))
            .collect();
        Ok((x, captured))
    }

    /// Backward pass; must follow a `forward(.., train = true)`.
    ///
    /// # Errors
    ///
    /// Propagates layer errors ([`NnError::NoForwardCache`] if the forward
    /// pass is missing).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_output.clone();
        for i in (0..self.nodes.len()).rev() {
            if let Some(mask) = &self.masks[i] {
                // `g` here is ∂L/∂(post-mask output). The mask gradient is
                // ∂L/∂mask_c = Σ_{batch, spatial} g · (pre-mask activation).
                if self.mask_grad_enabled {
                    if let Some(pre) = self.premask[i].take() {
                        self.mask_grads[i] = Some(channel_inner_products(&g, &pre, mask.len())?);
                    }
                }
                Self::apply_mask(&mut g, mask, i)?;
            }
            g = self.nodes[i].backward(&g)?;
        }
        Ok(g)
    }

    /// Visits every trainable parameter in deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for node in &mut self.nodes {
            node.visit_params(f);
        }
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Releases every gradient accumulator (see [`Param`]).
    pub fn drop_grads(&mut self) {
        self.visit_params(&mut |p| p.drop_grad());
    }

    /// Gradient floats currently allocated across all parameters.
    pub fn grad_len(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.grad_len());
        count
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.len());
        count
    }

    /// Activates/deactivates the residual block at node `index`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadNodeIndex`] if the node is not a block, or
    /// [`NnError::BadMask`] when deactivating a downsample block.
    pub fn set_block_active(&mut self, index: usize, active: bool) -> Result<(), NnError> {
        match self.nodes.get_mut(index) {
            Some(Node::Block(b)) => b.set_active(active),
            _ => Err(NnError::BadNodeIndex {
                index,
                expected: "residual block",
            }),
        }
    }

    /// Returns the conv layer at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadNodeIndex`] if the node is not a convolution.
    pub fn conv(&self, index: usize) -> Result<&Conv2d, NnError> {
        match self.nodes.get(index) {
            Some(Node::Conv(c)) => Ok(c),
            _ => Err(NnError::BadNodeIndex {
                index,
                expected: "conv",
            }),
        }
    }
}

/// Per-channel inner product of two equal-shape activation tensors:
/// `out[c] = Σ_{b, spatial} a[b,c,..] · b[b,c,..]`.
fn channel_inner_products(a: &Tensor, b: &Tensor, channels: usize) -> Result<Vec<f32>, NnError> {
    if a.shape() != b.shape() {
        return Err(NnError::BadInput {
            what: "channel_inner_products",
            detail: format!("{} vs {}", a.shape(), b.shape()),
        });
    }
    let shape = a.shape();
    let (batch, c, inner) = match shape.rank() {
        4 => (shape.dim(0), shape.dim(1), shape.dim(2) * shape.dim(3)),
        2 => (shape.dim(0), shape.dim(1), 1),
        _ => {
            return Err(NnError::BadInput {
                what: "channel_inner_products",
                detail: format!("unsupported shape {shape}"),
            })
        }
    };
    if c != channels {
        return Err(NnError::BadMask {
            detail: format!("mask has {channels} channels, activation has {c}"),
        });
    }
    let mut out = vec![0.0f32; c];
    for bi in 0..batch {
        for (ch, o) in out.iter_mut().enumerate() {
            let base = (bi * c + ch) * inner;
            let mut acc = 0.0f32;
            for k in base..base + inner {
                acc += a.data()[k] * b.data()[k];
            }
            *o += acc;
        }
    }
    Ok(out)
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::{Rng, Shape};

    fn tiny_net(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        net.push(Node::Conv(Conv2d::new(1, 4, 3, 1, 1, rng)));
        net.push(Node::Bn(BatchNorm2d::new(4)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::MaxPool(MaxPool2d::new(2)));
        net.push(Node::Gap(GlobalAvgPool::new()));
        net.push(Node::Linear(Linear::new(4, 3, rng)));
        net
    }

    #[test]
    fn forward_produces_logits() {
        let mut rng = Rng::seed_from(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(2, 1, 8, 8), &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 3));
    }

    #[test]
    fn backward_runs_after_training_forward() {
        let mut rng = Rng::seed_from(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(2, 1, 8, 8), &mut rng);
        let y = net.forward(&x, true).unwrap();
        let dx = net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(dx.shape(), x.shape());
        // Some parameter gradient must be non-zero.
        let mut total = 0.0;
        net.visit_params(&mut |p| total += p.grad_mut().l1_norm());
        assert!(total > 0.0);
    }

    #[test]
    fn mask_zeroes_channels() {
        let mut rng = Rng::seed_from(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 8, 8), &mut rng);
        // Mask all 4 channels after the ReLU → GAP output is zero →
        // logits equal the linear bias (zero at init).
        net.set_channel_mask(2, Some(vec![0.0; 4]));
        let y = net.forward(&x, false).unwrap();
        assert!(y.data().iter().all(|&v| v == 0.0));
        net.clear_masks();
        let y2 = net.forward(&x, false).unwrap();
        assert!(y2.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn partial_mask_only_affects_masked_channels() {
        let mut rng = Rng::seed_from(3);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 8, 8), &mut rng);
        let base = net.forward(&x, false).unwrap();
        net.set_channel_mask(2, Some(vec![1.0, 1.0, 1.0, 1.0]));
        let same = net.forward(&x, false).unwrap();
        assert_eq!(base, same, "all-ones mask must be a no-op");
    }

    #[test]
    fn wrong_mask_length_errors() {
        let mut rng = Rng::seed_from(4);
        let mut net = tiny_net(&mut rng);
        net.set_channel_mask(2, Some(vec![1.0; 3]));
        let x = Tensor::randn(Shape::d4(1, 1, 8, 8), &mut rng);
        assert!(matches!(
            net.forward(&x, false),
            Err(NnError::BadMask { .. })
        ));
    }

    #[test]
    fn capture_returns_intermediate() {
        let mut rng = Rng::seed_from(5);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(2, 1, 8, 8), &mut rng);
        let (y, caps) = net.forward_capture(&x, &[2, 4], false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 3));
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].shape(), &Shape::d4(2, 4, 8, 8)); // post-ReLU
        assert_eq!(caps[1].shape(), &Shape::d2(2, 4)); // post-GAP
        assert!(caps[0].data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn capture_rejects_bad_index() {
        let mut rng = Rng::seed_from(6);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 8, 8), &mut rng);
        assert!(net.forward_capture(&x, &[99], false).is_err());
    }

    #[test]
    fn conv_indices_finds_convs() {
        let mut rng = Rng::seed_from(7);
        let net = tiny_net(&mut rng);
        assert_eq!(net.conv_indices(), vec![0]);
        assert!(net.block_indices().is_empty());
        assert!(net.conv(0).is_ok());
        assert!(net.conv(1).is_err());
    }

    #[test]
    fn masked_backward_matches_finite_difference() {
        // The mask participates in the chain rule: check dL/dx numerically
        // with a half-masked network.
        let mut rng = Rng::seed_from(8);
        let mut net = tiny_net(&mut rng);
        net.set_channel_mask(2, Some(vec![1.0, 0.0, 1.0, 0.0]));
        let x = Tensor::randn(Shape::d4(1, 1, 8, 8), &mut rng);
        let w = Tensor::randn(Shape::d2(1, 3), &mut rng);
        let y = net.forward(&x, true).unwrap();
        let _ = y;
        let dx = net.backward(&w).unwrap();
        let eps = 1e-2;
        let snap = net.clone();
        let obj = |net: &mut Network, x: &Tensor| -> f32 {
            net.forward(x, true)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for probe in [3usize, 30, 60] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let mut n1 = snap.clone();
            let mut n2 = snap.clone();
            let numeric = (obj(&mut n1, &xp) - obj(&mut n2, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[probe]).abs() < 5e-2 * (1.0 + numeric.abs()),
                "probe {probe}: numeric {numeric} analytic {}",
                dx.data()[probe]
            );
        }
    }

    #[test]
    fn forward_range_matches_full_forward() {
        let mut rng = Rng::seed_from(12);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(Shape::d4(2, 1, 8, 8), &mut rng);
        let full = net.forward(&x, false).unwrap();
        // Split at the ReLU (node 2): prefix = nodes 0..=2.
        let (_, caps) = net.forward_capture(&x, &[2], false).unwrap();
        let suffix = net.forward_range(&caps[0], 3, false).unwrap();
        assert_eq!(full, suffix);
        // Whole range from 0 equals plain forward.
        assert_eq!(net.forward_range(&x, 0, false).unwrap(), full);
        // Degenerate start == len is the identity.
        let id = net.forward_range(&full, net.len(), false).unwrap();
        assert_eq!(id, full);
        assert!(net.forward_range(&x, net.len() + 1, false).is_err());
    }

    #[test]
    fn mask_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from(10);
        let mut net = tiny_net(&mut rng);
        net.set_mask_grad_enabled(true);
        let mask = vec![1.0f32, 0.8, 0.5, 0.2];
        net.set_channel_mask(2, Some(mask.clone()));
        let x = Tensor::randn(Shape::d4(2, 1, 8, 8), &mut rng);
        let w = Tensor::randn(Shape::d2(2, 3), &mut rng);
        net.forward(&x, true).unwrap();
        net.backward(&w).unwrap();
        let analytic = net.take_mask_grad(2).expect("mask grad recorded");
        // Second take returns None until another backward pass runs.
        assert!(net.take_mask_grad(2).is_none());
        let eps = 1e-2;
        let snap = net.clone();
        let obj = |net: &mut Network, m: &[f32]| -> f32 {
            net.set_channel_mask(2, Some(m.to_vec()));
            net.forward(&x, true)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for probe in 0..4 {
            let mut mp = mask.clone();
            mp[probe] += eps;
            let mut mm = mask.clone();
            mm[probe] -= eps;
            let mut n1 = snap.clone();
            let mut n2 = snap.clone();
            let numeric = (obj(&mut n1, &mp) - obj(&mut n2, &mm)) / (2.0 * eps);
            assert!(
                (numeric - analytic[probe]).abs() < 5e-2 * (1.0 + numeric.abs()),
                "channel {probe}: numeric {numeric}, analytic {}",
                analytic[probe]
            );
        }
    }

    #[test]
    fn mask_grad_disabled_records_nothing() {
        let mut rng = Rng::seed_from(11);
        let mut net = tiny_net(&mut rng);
        net.set_channel_mask(2, Some(vec![1.0; 4]));
        let x = Tensor::randn(Shape::d4(1, 1, 8, 8), &mut rng);
        net.forward(&x, true).unwrap();
        net.backward(&Tensor::ones(Shape::d2(1, 3))).unwrap();
        assert!(net.take_mask_grad(2).is_none());
    }

    #[test]
    fn param_count_sums_everything() {
        let mut rng = Rng::seed_from(9);
        let mut net = tiny_net(&mut rng);
        // conv: 4*1*9 + 4; bn: 4 + 4; linear: 3*4 + 3.
        assert_eq!(net.param_count(), 36 + 4 + 8 + 12 + 3);
    }
}
