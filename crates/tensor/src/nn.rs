//! Neural-network building blocks on top of the autograd engine: linear
//! layers, mixture-of-experts layers with top-k gating, and optimizers
//! (SGD / AdamW).
//!
//! These power the *real* (CPU-scale) MoE fine-tuning experiments in
//! `ftsim-sim::moetrain` — the sparse-vs-dense trainability study (paper
//! Fig. 3) and the expert load-imbalance study (paper Fig. 11).

use crate::autograd::Var;
use crate::ops;
use crate::ops::Activation;
use crate::tensor::{Tensor, TensorError};
use rand::Rng;
use std::rc::Rc;

/// A fully-connected layer `y = x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Var,
    bias: Var,
}

impl Linear {
    /// Creates a layer with Kaiming-style uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let scale = (1.0 / in_dim as f32).sqrt();
        Linear {
            weight: Var::parameter(Tensor::rand_uniform([in_dim, out_dim], scale, rng)),
            bias: Var::parameter(Tensor::zeros([1, out_dim])),
        }
    }

    /// Applies the layer to a `[tokens, in_dim]` batch via the fused
    /// matmul+bias kernel (bit-identical to the composed
    /// matmul-then-add_row path).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension.
    pub fn forward(&self, x: &Var) -> Result<Var, TensorError> {
        self.forward_act(x, Activation::Identity)
    }

    /// Fused `act(x @ W + b)` as a single graph node.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension.
    pub fn forward_act(&self, x: &Var, act: Activation) -> Result<Var, TensorError> {
        x.linear_act(&self.weight, &self.bias, act)
    }

    /// Reference composed path — matmul, row-bias, and activation as
    /// separate graph nodes. Retained so equivalence tests can prove the
    /// fused path bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension.
    pub fn forward_naive(&self, x: &Var, act: Activation) -> Result<Var, TensorError> {
        self.bias_act_naive(&x.matmul(&self.weight)?, act)
    }

    /// The composed tail of [`Linear::forward_naive`]: row-bias add, then
    /// the activation as its own node.
    fn bias_act_naive(&self, xw: &Var, act: Activation) -> Result<Var, TensorError> {
        let pre = xw.add_row(&self.bias)?;
        Ok(match act {
            Activation::Identity => pre,
            act => pre.activate(act),
        })
    }

    /// [`Linear::forward_act`] (`fused = true`) or [`Linear::forward_naive`]
    /// (`fused = false`) applied to the rows `rows` of `x` only; row `i` of
    /// the result is the layer applied to row `rows[i]` of `x`, and the
    /// backward pass scatters the input gradient back into those rows.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension, or an
    /// invalid-argument error if a row index is out of range.
    pub fn forward_rows(
        &self,
        x: &Var,
        rows: &Rc<[usize]>,
        act: Activation,
        fused: bool,
    ) -> Result<Var, TensorError> {
        if fused {
            return x.linear_act_rows(rows, &self.weight, &self.bias, act);
        }
        self.bias_act_naive(&x.matmul_rows(rows, &self.weight)?, act)
    }

    /// Rebuilds a layer from snapshot tensors, in the order
    /// [`Linear::parameters`] reports them (weight, then bias).
    ///
    /// This is how the data-parallel trainer constructs per-thread model
    /// replicas: `Var` graphs are thread-local (`Rc`-based), so each step
    /// helper builds its own model from tensors it creates on its thread
    /// instead of sharing variables.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not a matrix or `bias` does not hold one
    /// element per output column.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        let (_, out_dim) = weight
            .shape()
            .as_matrix()
            .expect("linear weight must be a matrix");
        assert_eq!(bias.numel(), out_dim, "bias length must match out_dim");
        Linear {
            weight: Var::parameter(weight),
            bias: Var::parameter(bias),
        }
    }

    /// The trainable parameters of this layer.
    pub fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.with_value(Tensor::numel) + self.bias.with_value(Tensor::numel)
    }
}

/// Expert feed-forward architecture, mirroring the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ExpertKind {
    /// `W2( gelu(W1 x) )` — BlackMamba-style expert.
    GeluFfn,
    /// `W2( silu(W1 x) ⊙ (W3 x) )` — Mixtral-style SwiGLU expert.
    SwiGlu,
}

/// One expert network of an MoE layer.
#[derive(Debug, Clone)]
pub struct Expert {
    kind: ExpertKind,
    w1: Linear,
    w2: Linear,
    w3: Option<Linear>,
}

impl Expert {
    /// Creates an expert with hidden width `hidden` and inner width `inner`.
    pub fn new(kind: ExpertKind, hidden: usize, inner: usize, rng: &mut impl Rng) -> Self {
        Expert {
            kind,
            w1: Linear::new(hidden, inner, rng),
            w2: Linear::new(inner, hidden, rng),
            w3: match kind {
                ExpertKind::SwiGlu => Some(Linear::new(hidden, inner, rng)),
                ExpertKind::GeluFfn => None,
            },
        }
    }

    /// Applies the expert to a `[tokens, hidden]` batch via the fused
    /// linear+activation kernels.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying linear layers.
    pub fn forward(&self, x: &Var) -> Result<Var, TensorError> {
        let all: Rc<[usize]> = (0..x.shape().dims()[0]).collect();
        self.forward_rows(x, &all, true)
    }

    /// Applies the expert to the rows `rows` of a `[tokens, hidden]` batch
    /// only, returning a `[rows.len(), hidden]` result (row `i` belongs to
    /// token `rows[i]`). `fused = true` runs the fused kernels (the
    /// production path), `fused = false` the composed naive ops (the
    /// retained reference path); the two are bit-identical.
    ///
    /// Each first linear (W1, and W3 for SwiGLU) gathers its rows from `x`
    /// itself and scatters its input gradient straight back into `x`, so
    /// `x`'s gradient receives one contribution per layer in the same order
    /// as when the expert ran on the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying linear layers, and
    /// rejects out-of-range row indices.
    pub fn forward_rows(
        &self,
        x: &Var,
        rows: &Rc<[usize]>,
        fused: bool,
    ) -> Result<Var, TensorError> {
        let layer = |l: &Linear, x: &Var, act: Activation| {
            if fused {
                l.forward_act(x, act)
            } else {
                l.forward_naive(x, act)
            }
        };
        match self.kind {
            ExpertKind::GeluFfn => {
                let h = self.w1.forward_rows(x, rows, Activation::Gelu, fused)?;
                layer(&self.w2, &h, Activation::Identity)
            }
            ExpertKind::SwiGlu => {
                let gate = self.w1.forward_rows(x, rows, Activation::Silu, fused)?;
                let up = self
                    .w3
                    .as_ref()
                    .expect("SwiGlu expert always has W3")
                    .forward_rows(x, rows, Activation::Identity, fused)?;
                layer(&self.w2, &gate.mul(&up)?, Activation::Identity)
            }
        }
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.w1.parameters();
        p.extend(self.w2.parameters());
        if let Some(w3) = &self.w3 {
            p.extend(w3.parameters());
        }
        p
    }

    /// Rebuilds an expert from snapshot tensors drawn off `params`, in the
    /// order [`Expert::parameters`] reports them (w1, w2, then w3 for
    /// SwiGLU experts; weight before bias within each layer).
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields too few tensors or tensors of
    /// inconsistent shapes.
    pub fn from_parameters(kind: ExpertKind, params: &mut impl Iterator<Item = Tensor>) -> Self {
        let mut linear = |which: &str| {
            let weight = params
                .next()
                .unwrap_or_else(|| panic!("missing {which} weight"));
            let bias = params
                .next()
                .unwrap_or_else(|| panic!("missing {which} bias"));
            Linear::from_parts(weight, bias)
        };
        let w1 = linear("w1");
        let w2 = linear("w2");
        let w3 = match kind {
            ExpertKind::SwiGlu => Some(linear("w3")),
            ExpertKind::GeluFfn => None,
        };
        Expert { kind, w1, w2, w3 }
    }
}

/// Routing decision for one forward pass of an [`MoeLayer`].
#[derive(Debug, Clone, Default)]
pub struct RoutingStats {
    /// `tokens_per_expert[e]` = number of (token, expert) assignments sent to
    /// expert `e` during the pass.
    pub tokens_per_expert: Vec<usize>,
}

impl RoutingStats {
    /// Population variance of the per-expert token counts — the imbalance
    /// metric of the paper's Fig. 11.
    pub fn imbalance_variance(&self) -> f64 {
        let counts: Vec<f64> = self.tokens_per_expert.iter().map(|&c| c as f64).collect();
        ops::variance(&counts)
    }

    /// Counts normalized to percentages of all assignments.
    pub fn distribution_pct(&self) -> Vec<f64> {
        let total: usize = self.tokens_per_expert.iter().sum();
        if total == 0 {
            return vec![0.0; self.tokens_per_expert.len()];
        }
        self.tokens_per_expert
            .iter()
            .map(|&c| 100.0 * c as f64 / total as f64)
            .collect()
    }
}

/// A mixture-of-experts layer with top-k softmax gating, implementing the
/// pseudo-code of the paper's Fig. 12.
///
/// With `top_k == num_experts` this is the *dense* configuration; the paper's
/// *sparse* configuration uses `top_k = 2` of 8 experts.
#[derive(Debug, Clone)]
pub struct MoeLayer {
    gate: Linear,
    experts: Vec<Expert>,
    top_k: usize,
}

impl MoeLayer {
    /// Creates an MoE layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `top_k` is zero or exceeds
    /// `num_experts`, or if `num_experts` is zero.
    pub fn new(
        kind: ExpertKind,
        hidden: usize,
        inner: usize,
        num_experts: usize,
        top_k: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, TensorError> {
        if num_experts == 0 {
            return Err(TensorError::InvalidArgument(
                "num_experts must be > 0".into(),
            ));
        }
        if top_k == 0 || top_k > num_experts {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {top_k} out of range 1..={num_experts}"
            )));
        }
        Ok(MoeLayer {
            gate: Linear::new(hidden, num_experts, rng),
            experts: (0..num_experts)
                .map(|_| Expert::new(kind, hidden, inner, rng))
                .collect(),
            top_k,
        })
    }

    /// Rebuilds an MoE layer from snapshot tensors drawn off `params`, in
    /// the order [`MoeLayer::parameters`] reports them (gate first, then
    /// experts in order).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for the same `top_k` /
    /// `num_experts` violations as [`MoeLayer::new`].
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields too few tensors or tensors of
    /// inconsistent shapes.
    pub fn from_parameters(
        kind: ExpertKind,
        num_experts: usize,
        top_k: usize,
        params: &mut impl Iterator<Item = Tensor>,
    ) -> Result<Self, TensorError> {
        if num_experts == 0 {
            return Err(TensorError::InvalidArgument(
                "num_experts must be > 0".into(),
            ));
        }
        if top_k == 0 || top_k > num_experts {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {top_k} out of range 1..={num_experts}"
            )));
        }
        let gate = Linear::from_parts(
            params.next().expect("missing gate weight"),
            params.next().expect("missing gate bias"),
        );
        let experts = (0..num_experts)
            .map(|_| Expert::from_parameters(kind, params))
            .collect();
        Ok(MoeLayer {
            gate,
            experts,
            top_k,
        })
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// Experts activated per token.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Sets the number of experts activated per token (sparse ↔ dense).
    ///
    /// # Errors
    ///
    /// Returns an error if `top_k` is out of range.
    pub fn set_top_k(&mut self, top_k: usize) -> Result<(), TensorError> {
        if top_k == 0 || top_k > self.experts.len() {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {top_k} out of range 1..={}",
                self.experts.len()
            )));
        }
        self.top_k = top_k;
        Ok(())
    }

    /// Routes `x` (`[tokens, hidden]`) through the gated experts, returning
    /// the combined output and the routing statistics of this pass.
    ///
    /// Gradients flow into the gate through the selected softmax weights and
    /// into each expert through its weighted contribution.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the gate or experts.
    pub fn forward(&self, x: &Var) -> Result<(Var, RoutingStats), TensorError> {
        self.forward_with(x, true)
    }

    /// [`MoeLayer::forward`] with an explicit kernel choice: `fused = true`
    /// routes every linear layer through the fused matmul+bias+activation
    /// kernel, `fused = false` uses the composed naive ops. Both paths are
    /// bit-identical in values and gradients.
    ///
    /// Dispatch is token-gathered, as in the expert loop of the paper's
    /// Fig. 12: each expert runs only on the rows routed to it, its output
    /// is weighted by those rows' gathered router weights, and the result is
    /// scatter-added into the `[tokens, hidden]` output. Experts that
    /// received no token build no graph at all. With `top_k ==
    /// num_experts` every row is routed to every expert.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the gate or experts.
    pub fn forward_with(&self, x: &Var, fused: bool) -> Result<(Var, RoutingStats), TensorError> {
        let logits = if fused {
            self.gate.forward_act(x, Activation::Identity)?
        } else {
            self.gate.forward_naive(x, Activation::Identity)?
        };
        let (tokens, e) = logits.shape().as_matrix().expect("gate output is a matrix");
        // Top-k selection (non-differentiable index choice, like torch.topk).
        // Rows are collected in ascending token order, which keeps every
        // gathered accumulation in the order the full batch would use.
        let mut masks = vec![vec![false; e]; tokens];
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); e];
        logits.with_value(|lv| {
            for (t, mask) in masks.iter_mut().enumerate() {
                for (idx, _) in ops::topk(lv.row(t), self.top_k) {
                    mask[idx] = true;
                    routed[idx].push(t);
                }
            }
        });
        let stats = RoutingStats {
            tokens_per_expert: routed.iter().map(Vec::len).collect(),
        };
        // softmax over the selected experts only (paper Fig. 12, lines 2-3).
        let weights = logits.masked_softmax_rows(&masks)?;

        // out = Σ_e scatter(rows_e, w[rows_e, e] ⊙ expert_e(x[rows_e])).
        let mut out: Option<Var> = None;
        for (ei, (expert, rows)) in self.experts.iter().zip(routed).enumerate() {
            if rows.is_empty() {
                continue;
            }
            let rows: Rc<[usize]> = rows.into();
            let col = weights.gather_col(&rows, ei)?;
            let contribution = expert.forward_rows(x, &rows, fused)?.mul_col(&col)?;
            out = Some(contribution.scatter_add_rows(&rows, out.as_ref(), tokens)?);
        }
        let out = out.expect("top_k >= 1 guarantees at least one active expert");
        Ok((out, stats))
    }

    /// All trainable parameters (gate first, then experts in order).
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.gate.parameters();
        for e in &self.experts {
            p.extend(e.parameters());
        }
        p
    }

    /// Parameters of the gate (router) only — useful for router-only studies.
    pub fn gate_parameters(&self) -> Vec<Var> {
        self.gate.parameters()
    }

    /// Routing statistics for `x` without building a gradient graph.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the gate.
    pub fn route_only(&self, x: &Tensor) -> Result<RoutingStats, TensorError> {
        // The same fused `x @ W + b` kernel as the gate in `forward`, so the
        // logits — and hence the top-k choice — match training bit for bit.
        let logits = self.gate.weight.with_value(|w| {
            self.gate
                .bias
                .with_value(|b| ops::matmul_bias_act(x, w, Some(b), Activation::Identity))
        })?;
        let (tokens, e) = logits.shape().as_matrix().expect("matrix");
        let mut stats = RoutingStats {
            tokens_per_expert: vec![0; e],
        };
        for t in 0..tokens {
            for (idx, _) in ops::topk(logits.row(t), self.top_k) {
                stats.tokens_per_expert[idx] += 1;
            }
        }
        Ok(stats)
    }
}

/// Stochastic gradient descent with optional weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Applies one update step to every parameter with a gradient, then
    /// clears the gradients.
    pub fn step(&self, params: &[Var]) {
        let (lr, wd) = (self.lr, self.weight_decay);
        for p in params {
            p.update_with_grad(|v, g| {
                for (vi, gi) in v.data_mut().iter_mut().zip(g.data()) {
                    *vi -= lr * (gi + wd * *vi);
                }
            });
        }
    }
}

/// AdamW optimizer (decoupled weight decay), the optimizer used for the
/// paper's fine-tuning runs.
#[derive(Debug)]
pub struct AdamW {
    /// Learning rate (the paper uses 5e-5 for LLM fine-tuning).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    step_count: u64,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl AdamW {
    /// Creates an AdamW optimizer with standard betas for `params_len`
    /// parameter tensors.
    pub fn new(lr: f32, params_len: usize) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            step_count: 0,
            moments: vec![(Vec::new(), Vec::new()); params_len],
        }
    }

    /// Applies one AdamW step to `params` (order must stay stable across
    /// calls), then clears gradients.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the length given to [`AdamW::new`].
    pub fn step(&mut self, params: &[Var]) {
        assert_eq!(
            params.len(),
            self.moments.len(),
            "parameter list length must match optimizer state"
        );
        self.step_count += 1;
        let t = self.step_count as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for (p, (m, v)) in params.iter().zip(self.moments.iter_mut()) {
            p.update_with_grad(|val, g| {
                if m.is_empty() {
                    m.resize(g.numel(), 0.0);
                    v.resize(g.numel(), 0.0);
                }
                // Zipped, not indexed: without per-element bounds checks
                // the loop vectorizes.
                let lanes = val.data_mut().iter_mut().zip(g.data()).zip(m.iter_mut());
                for (((w, &gi), mi), vi) in lanes.zip(v.iter_mut()) {
                    *mi = b1 * *mi + (1.0 - b1) * gi;
                    *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                    let mhat = *mi / bc1;
                    let vhat = *vi / bc2;
                    *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::zeros([2, 4]));
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(l.param_count(), 4 * 3 + 3);
    }

    #[test]
    fn expert_swiglu_has_three_matrices() {
        let mut rng = StdRng::seed_from_u64(2);
        let swiglu = Expert::new(ExpertKind::SwiGlu, 4, 8, &mut rng);
        let gelu = Expert::new(ExpertKind::GeluFfn, 4, 8, &mut rng);
        assert_eq!(swiglu.parameters().len(), 6); // 3 weights + 3 biases
        assert_eq!(gelu.parameters().len(), 4);
        let x = Var::constant(Tensor::zeros([3, 4]));
        assert_eq!(swiglu.forward(&x).unwrap().shape().dims(), &[3, 4]);
        assert_eq!(gelu.forward(&x).unwrap().shape().dims(), &[3, 4]);
    }

    #[test]
    fn moe_rejects_bad_top_k() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 0, &mut rng).is_err());
        assert!(MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 5, &mut rng).is_err());
        assert!(MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 0, 1, &mut rng).is_err());
    }

    #[test]
    fn moe_routing_counts_match_top_k() {
        let mut rng = StdRng::seed_from_u64(4);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 6, 12, 8, 2, &mut rng).unwrap();
        let x = Var::constant(Tensor::rand_uniform([10, 6], 1.0, &mut rng));
        let (out, stats) = moe.forward(&x).unwrap();
        assert_eq!(out.shape().dims(), &[10, 6]);
        assert_eq!(stats.tokens_per_expert.iter().sum::<usize>(), 10 * 2);
    }

    #[test]
    fn dense_moe_assigns_every_expert_every_token() {
        let mut rng = StdRng::seed_from_u64(5);
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 4, &mut rng).unwrap();
        let x = Var::constant(Tensor::rand_uniform([7, 4], 1.0, &mut rng));
        let (_, stats) = moe.forward(&x).unwrap();
        assert!(stats.tokens_per_expert.iter().all(|&c| c == 7));
        assert_eq!(stats.imbalance_variance(), 0.0);
    }

    #[test]
    fn moe_gradients_reach_gate_and_experts() {
        let mut rng = StdRng::seed_from_u64(6);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 2, &mut rng).unwrap();
        let x = Var::constant(Tensor::rand_uniform([6, 4], 1.0, &mut rng));
        let (out, stats) = moe.forward(&x).unwrap();
        out.mean().backward();
        let with_grad = moe
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        // Gate always gets gradients; active experts do too.
        assert!(with_grad >= 2, "only {with_grad} parameters got gradients");
        let active = stats.tokens_per_expert.iter().filter(|&&c| c > 0).count();
        assert!(active >= 2);
    }

    #[test]
    fn route_only_matches_forward_routing() {
        let mut rng = StdRng::seed_from_u64(7);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform([12, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 4).collect();
        let check = |tag: &str| {
            let quick = moe.route_only(&x).unwrap();
            let (_, full) = moe.forward(&Var::constant(x.clone())).unwrap();
            assert_eq!(quick.tokens_per_expert, full.tokens_per_expert, "{tag}");
            full
        };
        // A fresh gate has a zero bias.
        check("untrained gate");
        // Training moves the gate bias off zero; routing must still use it.
        let params = moe.parameters();
        let mut opt = AdamW::new(0.1, params.len());
        for _ in 0..20 {
            let (h, _) = moe.forward(&Var::constant(x.clone())).unwrap();
            h.cross_entropy(&labels).unwrap().backward();
            opt.step(&params);
        }
        let full = check("trained gate");
        // The bias matters here: routing on `x @ W` alone would differ.
        let logits = moe.gate.weight.with_value(|w| x.matmul(w)).unwrap();
        let mut biasless = vec![0; 4];
        for t in 0..12 {
            for (idx, _) in ops::topk(logits.row(t), 2) {
                biasless[idx] += 1;
            }
        }
        assert_ne!(
            biasless, full.tokens_per_expert,
            "bias did not affect routing"
        );
    }

    #[test]
    fn sgd_descends_quadratic() {
        let w = Var::parameter(Tensor::scalar(5.0));
        let opt = Sgd::new(0.1);
        for _ in 0..100 {
            let loss = w.mul(&w).unwrap().mean();
            loss.backward();
            opt.step(std::slice::from_ref(&w));
        }
        assert!(w.value().item().abs() < 1e-3);
    }

    #[test]
    fn adamw_descends_quadratic() {
        let w = Var::parameter(Tensor::scalar(5.0));
        let mut opt = AdamW::new(0.3, 1);
        opt.weight_decay = 0.0;
        for _ in 0..200 {
            let loss = w.mul(&w).unwrap().mean();
            loss.backward();
            opt.step(std::slice::from_ref(&w));
        }
        assert!(w.value().item().abs() < 1e-2, "w = {}", w.value().item());
    }

    #[test]
    fn adamw_step_is_bit_identical_to_the_indexed_loop() {
        /// Reference: the same AdamW update written element by element
        /// with indexing; `t` is the 1-based step number.
        fn indexed_step(opt: &AdamW, t: u64, params: &[Var], moments: &mut [(Vec<f32>, Vec<f32>)]) {
            let t = t as f32;
            let bc1 = 1.0 - opt.beta1.powf(t);
            let bc2 = 1.0 - opt.beta2.powf(t);
            let (lr, b1, b2, eps, wd) = (opt.lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay);
            for (p, (m, v)) in params.iter().zip(moments.iter_mut()) {
                p.update_with_grad(|val, g| {
                    if m.is_empty() {
                        m.resize(g.numel(), 0.0);
                        v.resize(g.numel(), 0.0);
                    }
                    for i in 0..val.numel() {
                        let gi = g.data()[i];
                        m[i] = b1 * m[i] + (1.0 - b1) * gi;
                        v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
                        let mhat = m[i] / bc1;
                        let vhat = v[i] / bc2;
                        let w = &mut val.data_mut()[i];
                        *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
                    }
                });
            }
        }

        let mut rng = StdRng::seed_from_u64(77);
        let shapes = [[3, 5], [1, 7], [4, 4], [9, 2]];
        // Parameter 2 never receives a gradient, like an expert no token
        // was routed to.
        let skipped = 2;
        let init: Vec<Tensor> = shapes
            .iter()
            .map(|&s| Tensor::rand_uniform(s, 1.0, &mut rng))
            .collect();
        let zipped: Vec<Var> = init.iter().cloned().map(Var::parameter).collect();
        let indexed: Vec<Var> = init.iter().cloned().map(Var::parameter).collect();
        let mut opt = AdamW::new(0.05, zipped.len());
        let mut moments = vec![(Vec::new(), Vec::new()); indexed.len()];
        for step in 1..=5u64 {
            for (i, (a, b)) in zipped.iter().zip(&indexed).enumerate() {
                if i == skipped {
                    continue;
                }
                let mut g = Tensor::rand_uniform(shapes[i], 1.0, &mut rng);
                for (j, gj) in g.data_mut().iter_mut().enumerate() {
                    if (j + step as usize).is_multiple_of(3) {
                        *gj = 0.0;
                    }
                }
                a.seed_grad(g.clone());
                b.seed_grad(g);
            }
            opt.step(&zipped);
            indexed_step(&opt, step, &indexed, &mut moments);
            for (i, (a, b)) in zipped.iter().zip(&indexed).enumerate() {
                let (a, b) = (a.value(), b.value());
                assert!(
                    a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "parameter {i} diverged at step {step}"
                );
            }
        }
        assert_eq!(zipped[skipped].value(), init[skipped]);
        assert_ne!(zipped[0].value(), init[0]);
    }

    /// Trains a small 4-expert MoE classifier with top-`top_k` routing for
    /// `steps` steps on fixed data and returns (per-step losses, final
    /// parameter tensors).
    fn train_moe(
        kind: ExpertKind,
        top_k: usize,
        fused: bool,
        steps: usize,
    ) -> (Vec<f32>, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(40);
        let moe = MoeLayer::new(kind, 4, 8, 4, top_k, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform([20, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let mut params = moe.parameters();
        params.extend(head.parameters());
        let mut opt = AdamW::new(0.02, params.len());
        let mut losses = Vec::new();
        for _ in 0..steps {
            let xv = Var::constant(x.clone());
            let (h, _) = moe.forward_with(&xv, fused).unwrap();
            let logits = if fused {
                head.forward_act(&h, Activation::Identity).unwrap()
            } else {
                head.forward_naive(&h, Activation::Identity).unwrap()
            };
            let loss = logits.cross_entropy(&labels).unwrap();
            losses.push(loss.value().item());
            loss.backward();
            opt.step(&params);
        }
        (losses, params.iter().map(|p| p.value()).collect())
    }

    #[test]
    fn fused_training_bit_identical_to_naive_over_steps() {
        // The tentpole equivalence guarantee: fused kernels + reusable tape
        // produce bit-identical losses AND parameter trajectories to the
        // composed naive ops over multiple optimizer steps, under sparse
        // top-2 routing and dense routing (every expert active).
        for (kind, top_k) in [
            (ExpertKind::GeluFfn, 2),
            (ExpertKind::SwiGlu, 2),
            (ExpertKind::SwiGlu, 4),
        ] {
            let (fused_losses, fused_params) = train_moe(kind, top_k, true, 4);
            let (naive_losses, naive_params) = train_moe(kind, top_k, false, 4);
            for (s, (a, b)) in fused_losses.iter().zip(&naive_losses).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{kind:?} top-{top_k} loss diverged at step {s}: {a} vs {b}"
                );
            }
            for (i, (a, b)) in fused_params.iter().zip(&naive_params).enumerate() {
                assert_eq!(
                    a, b,
                    "{kind:?} top-{top_k} parameter {i} diverged after training"
                );
            }
        }
    }

    #[test]
    fn moe_training_is_bit_identical_without_the_node_arena() {
        // The reference is the composed naive path with the node arena off
        // (every graph node freshly allocated and freed); the production
        // path is fused with the arena recycling nodes. They must agree on
        // a real MoE step, under sparse and dense routing.
        for top_k in [2, 4] {
            crate::autograd::set_arena_enabled(false);
            let (ref_losses, ref_params) = train_moe(ExpertKind::SwiGlu, top_k, false, 4);
            crate::autograd::set_arena_enabled(true);
            let (losses, params) = train_moe(ExpertKind::SwiGlu, top_k, true, 4);
            for (s, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "top-{top_k} loss diverged at step {s}"
                );
            }
            assert_eq!(params, ref_params, "top-{top_k} parameters diverged");
        }
    }

    #[test]
    fn steady_state_training_steps_allocate_nothing() {
        // After the warm-up step, every tensor a step needs comes back out
        // of the buffer pool — the zero-allocation property the benchmark
        // reports as `pool.fresh_allocs_per_step`. Thread-local pools make
        // this counter deterministic.
        let mut rng = StdRng::seed_from_u64(41);
        // Dense routing (top_k == num_experts) keeps the per-step op
        // structure exactly identical, making the counter airtight.
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 4, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform([16, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let mut params = moe.parameters();
        params.extend(head.parameters());
        let mut opt = AdamW::new(0.02, params.len());
        let mut step = |expect_zero: bool, tag: &str| {
            let before = crate::pool::stats();
            let nodes_before = crate::autograd::arena_stats();
            let xv = Var::constant(x.clone());
            let (h, _) = moe.forward(&xv).unwrap();
            let loss = head.forward(&h).unwrap().cross_entropy(&labels).unwrap();
            loss.backward();
            opt.step(&params);
            drop(loss);
            drop(h);
            drop(xv);
            let fresh = crate::pool::stats().allocs_since(&before);
            let fresh_nodes = crate::autograd::arena_stats().allocs_since(&nodes_before);
            if expect_zero {
                assert_eq!(fresh, 0, "{tag}: {fresh} fresh allocations in steady state");
                assert_eq!(
                    fresh_nodes, 0,
                    "{tag}: {fresh_nodes} fresh graph nodes in steady state"
                );
            }
        };
        // Two warm-up steps: the first populates the pool shelves, the
        // second settles the arena's one-step-deferred value release
        // (a reclaimed node keeps its value tensor until it is reused).
        step(false, "warmup");
        step(false, "warmup 2");
        for i in 0..3 {
            step(true, &format!("steady step {i}"));
        }
    }

    #[test]
    fn steady_state_sparse_training_steps_allocate_nothing() {
        // The sparse analogue of the dense steady-state test above: with
        // top-2 routing the set of active experts varies step to step, and
        // the batch size alternates between 15 and 16 rows.
        //
        // Warm-up is derived from the pool's bucket invariant: a request
        // for `len` elements is served only from bucket `ceil_pow2(len)`.
        // Under token-gathered dispatch an expert's tensors have one row
        // per routed token, so which buckets a step draws from — and how
        // many buffers from each — follows the routing, which drifts as the
        // router trains. No fixed number of warm-up steps covers routings
        // not yet seen. Training is deterministic, though, so a replica
        // rebuilt from the same initial parameters routes every step of the
        // same schedule identically. Rehearsing the whole schedule on that
        // replica first issues exactly the requests the measured run will
        // issue, so the shelves already hold every bucket at the depth the
        // measured steps need; any fresh allocation they still make is
        // storage that was not recycled. The arena is cleared between the
        // two runs: parked nodes keep their last value until reused, so the
        // rehearsal's leftovers would otherwise withhold buffers, and an
        // empty free list makes the measured run's node reuse (and hence
        // its deferred releases) replay the rehearsal's exactly.
        let mut rng = StdRng::seed_from_u64(43);
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 2, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let batches: Vec<(Tensor, Vec<usize>)> = [15usize, 16]
            .iter()
            .map(|&rows| {
                (
                    Tensor::rand_uniform([rows, 4], 1.0, &mut rng),
                    (0..rows).map(|i| i % 3).collect(),
                )
            })
            .collect();
        let mut snapshot = moe.parameters();
        snapshot.extend(head.parameters());
        let snapshot: Vec<Tensor> = snapshot.iter().map(Var::value).collect();
        let replica = || {
            let mut params = snapshot.clone().into_iter();
            let moe = MoeLayer::from_parameters(ExpertKind::SwiGlu, 4, 2, &mut params).unwrap();
            let head = Linear::from_parts(params.next().unwrap(), params.next().unwrap());
            (moe, head)
        };
        // Two cycles through both batch shapes (the second also settles
        // the arena's one-step-deferred value release), then the measured
        // steps.
        const WARMUP: usize = 4;
        let schedule: Vec<&(Tensor, Vec<usize>)> = (0..WARMUP + 4)
            .map(|i| &batches[i % batches.len()])
            .collect();
        let train = |moe: &MoeLayer, head: &Linear, armed: bool| {
            let mut params = moe.parameters();
            params.extend(head.parameters());
            let mut opt = AdamW::new(0.02, params.len());
            for (i, batch) in schedule.iter().enumerate() {
                let before = crate::pool::stats();
                let nodes_before = crate::autograd::arena_stats();
                let xv = Var::constant(batch.0.clone());
                let (h, stats) = moe.forward(&xv).unwrap();
                assert_eq!(
                    stats.tokens_per_expert.iter().sum::<usize>(),
                    batch.1.len() * 2,
                    "top-2 routing must stay sparse"
                );
                let loss = head.forward(&h).unwrap().cross_entropy(&batch.1).unwrap();
                loss.backward();
                opt.step(&params);
                drop(loss);
                drop(h);
                drop(xv);
                let fresh = crate::pool::stats().allocs_since(&before);
                let fresh_nodes = crate::autograd::arena_stats().allocs_since(&nodes_before);
                if armed && i >= WARMUP {
                    let tag = format!("sparse steady step {}", i - WARMUP);
                    assert_eq!(fresh, 0, "{tag}: {fresh} fresh allocations in steady state");
                    assert_eq!(
                        fresh_nodes, 0,
                        "{tag}: {fresh_nodes} fresh graph nodes in steady state"
                    );
                }
            }
        };
        let (rehearsal_moe, rehearsal_head) = replica();
        train(&rehearsal_moe, &rehearsal_head, false);
        drop((rehearsal_moe, rehearsal_head));
        crate::autograd::arena_clear();
        train(&moe, &head, true);
    }

    #[test]
    fn replica_from_parameters_trains_bit_identically() {
        // The data-parallel trainer rebuilds models from parameter
        // snapshots; a rebuilt replica must be indistinguishable from the
        // original — same forward values, same gradients.
        let mut rng = StdRng::seed_from_u64(44);
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform([9, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let snapshot: Vec<Tensor> = moe.parameters().iter().map(Var::value).collect();
        let replica =
            MoeLayer::from_parameters(ExpertKind::SwiGlu, 4, 2, &mut snapshot.into_iter()).unwrap();
        let run = |m: &MoeLayer| -> (f32, Vec<Option<Tensor>>) {
            let (h, _) = m.forward(&Var::constant(x.clone())).unwrap();
            let loss = h.cross_entropy(&labels).unwrap();
            let out = loss.value().item();
            loss.backward();
            (out, m.parameters().iter().map(Var::take_grad).collect())
        };
        let (loss_a, grads_a) = run(&moe);
        let (loss_b, grads_b) = run(&replica);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "loss diverged");
        for (i, (a, b)) in grads_a.iter().zip(&grads_b).enumerate() {
            assert_eq!(a, b, "gradient {i} diverged between original and replica");
        }
    }

    /// The dense-masked MoE forward the gathered dispatch replaced, kept as
    /// the test oracle: every active expert runs on *all* tokens, its output
    /// is multiplied by its router-weight column — zero on unrouted rows,
    /// extracted through an `[E, 1]` one-hot selector matmul — and the
    /// contributions are summed.
    fn dense_masked_forward(moe: &MoeLayer, x: &Var, fused: bool) -> Var {
        let layer = |l: &Linear, x: &Var, act: Activation| {
            if fused {
                l.forward_act(x, act).unwrap()
            } else {
                l.forward_naive(x, act).unwrap()
            }
        };
        let logits = layer(&moe.gate, x, Activation::Identity);
        let lv = logits.value();
        let (tokens, e) = lv.shape().as_matrix().unwrap();
        let mut masks = vec![vec![false; e]; tokens];
        let mut counts = vec![0usize; e];
        for (t, mask) in masks.iter_mut().enumerate() {
            for (idx, _) in ops::topk(lv.row(t), moe.top_k) {
                mask[idx] = true;
                counts[idx] += 1;
            }
        }
        let weights = logits.masked_softmax_rows(&masks).unwrap();
        let mut out: Option<Var> = None;
        for (ei, expert) in moe.experts.iter().enumerate() {
            if counts[ei] == 0 {
                continue;
            }
            let mut selector = Tensor::zeros([e, 1]);
            selector.set2(ei, 0, 1.0);
            let col = weights.matmul(&Var::constant(selector)).unwrap();
            let y = match expert.kind {
                ExpertKind::GeluFfn => {
                    let h = layer(&expert.w1, x, Activation::Gelu);
                    layer(&expert.w2, &h, Activation::Identity)
                }
                ExpertKind::SwiGlu => {
                    let gate = layer(&expert.w1, x, Activation::Silu);
                    let up = layer(expert.w3.as_ref().unwrap(), x, Activation::Identity);
                    layer(&expert.w2, &gate.mul(&up).unwrap(), Activation::Identity)
                }
            };
            let contribution = y.mul_col(&col).unwrap();
            out = Some(match out {
                Some(acc) => acc.add(&contribution).unwrap(),
                None => contribution,
            });
        }
        out.unwrap()
    }

    /// Runs the gathered forward and the dense-masked oracle on identical
    /// copies of one layer and input; returns the first bitwise difference
    /// in the output, the input gradient or any parameter gradient.
    fn gathered_vs_dense_masked(
        kind: ExpertKind,
        tokens: usize,
        experts: usize,
        top_k: usize,
        fused: bool,
        seed: u64,
    ) -> Result<RoutingStats, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (hidden, inner) = (3, 5);
        let moe = MoeLayer::new(kind, hidden, inner, experts, top_k, &mut rng).unwrap();
        let xt = Tensor::rand_uniform([tokens, hidden], 1.0, &mut rng);
        // A random upstream weighting so every output element carries a
        // distinct gradient.
        let mix = Tensor::rand_uniform([tokens, hidden], 1.0, &mut rng);
        let snapshot: Vec<Tensor> = moe.parameters().iter().map(Var::value).collect();
        let oracle =
            MoeLayer::from_parameters(kind, experts, top_k, &mut snapshot.into_iter()).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

        let x1 = Var::parameter(xt.clone());
        let (y1, stats) = moe.forward_with(&x1, fused).unwrap();
        y1.mul(&Var::constant(mix.clone()))
            .unwrap()
            .sum()
            .backward();
        let x2 = Var::parameter(xt);
        let y2 = dense_masked_forward(&oracle, &x2, fused);
        y2.mul(&Var::constant(mix)).unwrap().sum().backward();

        if bits(&y1.value()) != bits(&y2.value()) {
            return Err("outputs differ".into());
        }
        if bits(&x1.grad().unwrap()) != bits(&x2.grad().unwrap()) {
            return Err("input gradients differ".into());
        }
        for (i, (a, b)) in moe.parameters().iter().zip(oracle.parameters()).enumerate() {
            match (a.grad(), b.grad()) {
                (None, None) => {}
                (Some(ga), Some(gb)) if bits(&ga) == bits(&gb) => {}
                (ga, gb) => {
                    return Err(format!("parameter {i} gradient differs: {ga:?} vs {gb:?}"))
                }
            }
        }
        Ok(stats)
    }

    proptest::proptest! {
        /// Token-gathered dispatch is bit-identical to the dense-masked loop
        /// it replaced — output, input gradient and every parameter
        /// gradient — across token counts, expert counts, every top-k, both
        /// expert kinds and both kernel paths.
        #[test]
        fn prop_gathered_dispatch_bit_identical_to_dense_masked(
            tokens in 1usize..40,
            experts in 1usize..=8,
            k_pick in 0usize..64,
            kind_pick in 0usize..2,
            fused_pick in 0usize..2,
            seed in 0u64..1000,
        ) {
            let kind = [ExpertKind::GeluFfn, ExpertKind::SwiGlu][kind_pick];
            let fused = fused_pick == 1;
            let top_k = 1 + k_pick % experts;
            let outcome = gathered_vs_dense_masked(kind, tokens, experts, top_k, fused, seed);
            proptest::prop_assert!(
                outcome.is_ok(),
                "{kind:?} tokens={tokens} experts={experts} top_k={top_k} fused={fused}: {:?}",
                outcome.err()
            );
        }
    }

    #[test]
    fn gathered_dispatch_matches_dense_masked_at_the_edges() {
        for kind in [ExpertKind::GeluFfn, ExpertKind::SwiGlu] {
            for fused in [true, false] {
                // One token, top-1 of 4: three experts receive no token and
                // must get no gradient on either path.
                let stats = gathered_vs_dense_masked(kind, 1, 4, 1, fused, 9).unwrap();
                assert_eq!(
                    stats.tokens_per_expert.iter().filter(|&&c| c == 0).count(),
                    3
                );
                // top_k = E: every row is routed to every expert.
                let stats = gathered_vs_dense_masked(kind, 13, 5, 5, fused, 10).unwrap();
                assert!(stats.tokens_per_expert.iter().all(|&c| c == 13));
            }
        }
    }

    #[test]
    fn adamw_trains_moe_to_fit_labels() {
        // A real end-to-end training smoke test: the MoE must fit a small
        // synthetic classification problem.
        let mut rng = StdRng::seed_from_u64(8);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 4, 16, 4, 2, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform([30, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let mut params = moe.parameters();
        params.extend(head.parameters());
        let mut opt = AdamW::new(0.02, params.len());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let xv = Var::constant(x.clone());
            let (h, _) = moe.forward(&xv).unwrap();
            let logits = head.forward(&h).unwrap();
            let loss = logits.cross_entropy(&labels).unwrap();
            last = loss.value().item();
            first.get_or_insert(last);
            loss.backward();
            opt.step(&params);
        }
        let first = first.unwrap();
        assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
    }
}
