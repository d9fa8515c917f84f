use crate::Param;
use apt_tensor::Tensor;

/// Whether a forward pass is part of training (batch-norm uses batch
/// statistics and caches activations) or evaluation (running statistics, no
/// caching requirements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: batch statistics, activations cached for backward.
    #[default]
    Train,
    /// Inference: running statistics, gradients not required.
    Eval,
}

/// Which compute kernels a frozen plan's weight steps use.
///
/// A lane is chosen once per compile via
/// [`Network::freeze`](crate::Network::freeze); the training path never
/// consults it, so training keeps its bit-identical-across-threads
/// invariant untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelLane {
    /// Dequantise each weight **once** at compile time and serve from the
    /// cached f32 copy — the exact arithmetic of
    /// `forward(input, Mode::Eval)`, at the cost of an f32 weight copy
    /// held resident.
    #[default]
    DequantCache,
    /// The dequant-free integer lane: linear weights stay integer codes,
    /// packed once into [`apt_quant::WeightPanel`]s and multiplied through
    /// the fused `apt_tensor::ops::int_gemm` kernels against per-row 8-bit
    /// requantised activations. Bit-*close* (weight side exact, activation
    /// rounding ≤ εx/2 per element), not bit-exact. Weights that cannot
    /// build a panel (float/master-copy/projected storage, `k > 16`) and
    /// every convolution compile to [`DequantCache`](Self::DequantCache).
    IntGemm,
}

impl KernelLane {
    /// Stable lower-case name used by CLI flags, bench CSV columns and
    /// logs.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelLane::DequantCache => "dequant-cache",
            KernelLane::IntGemm => "int-gemm",
        }
    }

    /// Parses a name produced by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dequant-cache" => Some(KernelLane::DequantCache),
            "int-gemm" => Some(KernelLane::IntGemm),
            _ => None,
        }
    }
}

/// A differentiable network layer with manual forward/backward passes.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`forward`](Layer::forward) consumes an input batch and caches
///    whatever it needs for the backward pass (in [`Mode::Train`]).
/// 2. [`backward`](Layer::backward) consumes `∂L/∂output`, **accumulates**
///    parameter gradients into its [`Param`]s, and returns `∂L/∂input`.
///
/// Layers also self-report the multiply-accumulate count of their last
/// forward pass ([`macs_last_forward`](Layer::macs_last_forward)), which the
/// energy model multiplies by the bit-dependent per-MAC cost.
///
/// The trait is object-safe; networks store `Box<dyn Layer>`. Layers are
/// plain data (tensors, code stores, counters) and must be `Send + Sync`
/// so a frozen [`crate::Network`] can be `Arc`-shared across serving
/// threads.
pub trait Layer: Send + Sync {
    /// Unique (within the network) layer name, e.g. `"stage1.block0.conv1"`.
    fn name(&self) -> &str;

    /// Runs the layer on `input`. In [`Mode::Train`] it caches the
    /// activations [`backward`](Layer::backward) needs and records its MAC
    /// count; in [`Mode::Eval`] it runs the evaluation arithmetic
    /// (batch-norm running statistics, quantised grids) and mutates no
    /// training scratch. `forward(input, Mode::Eval)` is the reference
    /// oracle the frozen plan is differentially tested against.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError`] for shape mismatches.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor>;

    /// Back-propagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] if no activations
    /// are cached, and shape errors for mismatched gradients.
    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor>;

    /// Visits every learnable parameter mutably (optimiser / precision
    /// controller entry point).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every learnable parameter immutably (metrics / accounting).
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param));

    /// Multiply-accumulate operations executed by the most recent forward
    /// pass (whole batch). Layers without arithmetic return 0.
    fn macs_last_forward(&self) -> u64 {
        0
    }

    /// Visits each (weight-parameter name, MACs of the last forward pass)
    /// pair — the association the energy model needs, since a composite
    /// block's convolutions may carry *different* adaptive bitwidths.
    /// Layers without weight arithmetic visit nothing.
    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        let _ = f;
    }

    /// Visits every non-learnable state buffer mutably (batch-norm running
    /// statistics), for checkpointing. Layers without buffers visit
    /// nothing.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        let _ = f;
    }

    /// Lowers this layer into the freeze compiler's step program by
    /// appending steps to `builder`. Composite layers lower their children
    /// in evaluation order (including branch/merge steps for residual
    /// adds).
    ///
    /// The default implementation returns
    /// [`NnError::Unfreezable`](crate::NnError::Unfreezable): the frozen
    /// plan is the only inference executor, so a network with such a
    /// layer fails to load for serving with an error naming the layer.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::Unfreezable`] when the layer has no plan
    /// lowering, and shape errors when the incoming value's dimensions are
    /// incompatible.
    fn lower(&self, _builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        Err(crate::NnError::Unfreezable {
            layer: self.name().to_string(),
            reason: "layer type has no frozen-plan lowering".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_train() {
        assert_eq!(Mode::default(), Mode::Train);
        assert_ne!(Mode::Train, Mode::Eval);
    }

    #[test]
    fn layer_is_object_safe() {
        fn _takes_dyn(_: &dyn Layer) {}
    }

    #[test]
    fn lane_names_round_trip() {
        for lane in [KernelLane::DequantCache, KernelLane::IntGemm] {
            assert_eq!(KernelLane::parse(lane.as_str()), Some(lane));
        }
        assert_eq!(KernelLane::parse("turbo"), None);
        assert_eq!(KernelLane::parse("fp32"), None);
        assert_eq!(KernelLane::default(), KernelLane::DequantCache);
    }
}
