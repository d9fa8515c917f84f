//! Frozen inference sessions over `.aptc` checkpoints.
//!
//! An [`InferenceSession`] is the serving counterpart of the trainer: the
//! network is loaded once and compiled into an immutable [`FrozenPlan`]
//! (BatchNorm folded, activations fused, intermediates arena-planned),
//! which is the only thing a request ever executes. Both are shared
//! behind `Arc`s. Quantised weights stay resident at their physical packed
//! width in the network (the code store is loaded verbatim from the
//! checkpoint); the network is kept for the registry's integrity digests.
//!
//! The plan is compiled for a [`KernelLane`]: the default
//! [`KernelLane::DequantCache`] dequantises each weight once at load (the
//! arithmetic of `forward(Mode::Eval)`), while [`KernelLane::IntGemm`]
//! serves linear layers straight from packed integer panels through the
//! fused integer GEMM kernels (bit-close, documented bound).
//! [`InferenceSession::resident_bytes`] counts the parameter stores plus
//! the plan, so registry eviction budgets see the real footprint.
//!
//! A network that cannot be frozen cannot be served: loading it fails
//! with the typed [`apt_nn::NnError::Unfreezable`] naming the layer.
//!
//! Staging, scratch and output buffers go through a [`ScratchArena`], so
//! steady-state request handling performs no heap allocation.

use crate::ServeError;
use apt_nn::{checkpoint, models, FrozenPlan, KernelLane, Network, PlanReport, QuantScheme};
use apt_tensor::{rng, Tensor};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Which model-zoo architecture a checkpoint belongs to. A `.aptc` blob
/// stores parameters by name, not architecture, so the loader must be told
/// what to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelArch {
    /// Multilayer perceptron; `dims` is `[input, hidden…, output]`.
    Mlp(Vec<usize>),
    /// CifarNet (two conv stages + two linear layers).
    Cifarnet,
    /// VGG-small.
    VggSmall,
    /// ResNet-20.
    Resnet20,
    /// ResNet-110.
    Resnet110,
    /// MobileNetV2.
    MobilenetV2,
}

impl FromStr for ModelArch {
    type Err = ServeError;

    /// Parses `"cifarnet"`, `"vgg_small"`, `"resnet20"`, `"resnet110"`,
    /// `"mobilenet_v2"`, or `"mlp:IN-HIDDEN-…-OUT"` (e.g. `mlp:784-128-10`).
    fn from_str(s: &str) -> Result<Self, ServeError> {
        match s {
            "cifarnet" => Ok(ModelArch::Cifarnet),
            "vgg_small" => Ok(ModelArch::VggSmall),
            "resnet20" => Ok(ModelArch::Resnet20),
            "resnet110" => Ok(ModelArch::Resnet110),
            "mobilenet_v2" => Ok(ModelArch::MobilenetV2),
            other => {
                if let Some(dims) = other.strip_prefix("mlp:") {
                    let parsed: Result<Vec<usize>, _> =
                        dims.split('-').map(|d| d.parse::<usize>()).collect();
                    match parsed {
                        Ok(d) if d.len() >= 2 => return Ok(ModelArch::Mlp(d)),
                        _ => {
                            return Err(ServeError::BadRequest {
                                reason: format!("bad mlp dims `{dims}` (want e.g. mlp:784-128-10)"),
                            })
                        }
                    }
                }
                Err(ServeError::BadRequest {
                    reason: format!(
                        "unknown model `{other}` (known: cifarnet, vgg_small, resnet20, \
                         resnet110, mobilenet_v2, mlp:IN-…-OUT)"
                    ),
                })
            }
        }
    }
}

/// Everything needed to rebuild the architecture a checkpoint was trained
/// on. The quantisation scheme does **not** need to match training:
/// checkpoint loading replaces each parameter's store wholesale, so any
/// scheme works as a construction placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The backbone to instantiate.
    pub arch: ModelArch,
    /// Classifier output count.
    pub classes: usize,
    /// Input image side length (ignored for [`ModelArch::Mlp`]).
    pub img_size: usize,
    /// Width multiplier (ignored for [`ModelArch::Mlp`]).
    pub width_mult: f32,
}

impl ModelSpec {
    /// Instantiates the architecture with placeholder weights, ready for
    /// [`checkpoint::load`].
    ///
    /// # Errors
    ///
    /// Propagates model-constructor configuration errors.
    pub fn build(&self) -> Result<Network, ServeError> {
        // Seed is irrelevant: every parameter is overwritten by the load.
        let mut r = rng::seeded(0);
        let scheme = QuantScheme::paper_apt();
        let net = match &self.arch {
            ModelArch::Mlp(dims) => models::mlp("mlp", dims, &scheme, &mut r)?,
            ModelArch::Cifarnet => models::cifarnet(
                self.classes,
                self.img_size,
                self.width_mult,
                &scheme,
                &mut r,
            )?,
            ModelArch::VggSmall => models::vgg_small(
                self.classes,
                self.img_size,
                self.width_mult,
                &scheme,
                &mut r,
            )?,
            ModelArch::Resnet20 => {
                models::resnet20(self.classes, self.width_mult, &scheme, &mut r)?
            }
            ModelArch::Resnet110 => {
                models::resnet110(self.classes, self.width_mult, &scheme, &mut r)?
            }
            ModelArch::MobilenetV2 => {
                models::mobilenet_v2(self.classes, self.width_mult, &scheme, &mut r)?
            }
        };
        Ok(net)
    }

    /// Shape of one input sample (without the batch axis).
    pub fn sample_dims(&self) -> Vec<usize> {
        match &self.arch {
            ModelArch::Mlp(dims) => vec![dims[0]],
            _ => vec![3, self.img_size, self.img_size],
        }
    }
}

/// A bounded free-list of staging buffers. `take` prefers a recycled
/// buffer; `put` returns one for reuse. Bounded so a burst can't pin
/// unbounded memory.
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Mutex<Vec<Vec<f32>>>,
}

/// Maximum buffers the arena retains; beyond this, `put` just drops.
const ARENA_CAP: usize = 16;

impl ScratchArena {
    /// Fetches an empty buffer with at least `capacity` reserved,
    /// recycling a previously returned one when available.
    pub fn take(&self, capacity: usize) -> Vec<f32> {
        let recycled = match self.free.lock() {
            Ok(mut free) => free.pop(),
            Err(_) => None,
        };
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity.saturating_sub(buf.capacity()));
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a buffer to the free list (dropped if the arena is full).
    pub fn put(&self, buf: Vec<f32>) {
        if let Ok(mut free) = self.free.lock() {
            if free.len() < ARENA_CAP {
                free.push(buf);
            }
        }
    }

    /// Number of buffers currently parked in the free list.
    pub fn parked(&self) -> usize {
        self.free.lock().map(|f| f.len()).unwrap_or(0)
    }
}

/// An immutable, `Arc`-shared frozen plan plus the bookkeeping the
/// batcher and server need: sample geometry, output width, and a scratch
/// arena for staging buffers.
///
/// Cloning a session is cheap — clones share the network, the plan and
/// the arena.
#[derive(Debug, Clone)]
pub struct InferenceSession {
    net: Arc<Network>,
    /// The compiled program every request executes.
    plan: Arc<FrozenPlan>,
    arena: Arc<ScratchArena>,
}

impl InferenceSession {
    /// Loads a `.aptc` checkpoint blob (any supported version: v1, v2, v3)
    /// into the architecture described by `spec` and freezes the result
    /// for the default [`KernelLane::DequantCache`].
    ///
    /// # Errors
    ///
    /// Propagates architecture construction, checkpoint decode and
    /// freeze errors, and fails if a probe run of the plan errors.
    pub fn from_checkpoint(spec: &ModelSpec, blob: &[u8]) -> Result<Self, ServeError> {
        Self::from_checkpoint_with_lane(spec, blob, KernelLane::default())
    }

    /// [`from_checkpoint`](Self::from_checkpoint) with an explicit kernel
    /// lane request; see [`from_network_with_lane`]
    /// (Self::from_network_with_lane) for lane semantics.
    ///
    /// # Errors
    ///
    /// Same contract as [`from_checkpoint`](Self::from_checkpoint).
    pub fn from_checkpoint_with_lane(
        spec: &ModelSpec,
        blob: &[u8],
        lane: KernelLane,
    ) -> Result<Self, ServeError> {
        let mut net = spec.build()?;
        checkpoint::load(&mut net, blob)?;
        Self::from_network_with_lane(net, &spec.sample_dims(), lane)
    }

    /// Freezes an already-constructed network (e.g. straight out of a
    /// trainer) into a session for the default
    /// [`KernelLane::DequantCache`]. `sample_dims` is the shape of one
    /// input sample without the batch axis.
    ///
    /// # Errors
    ///
    /// Returns [`apt_nn::NnError::Unfreezable`] (wrapped in
    /// [`ServeError::Nn`]) naming the layer when the network cannot be
    /// compiled — a layer without a plan lowering, or a sample shape the
    /// layers cannot thread — and fails if the probe run (one zero
    /// sample) errors, so mismatches surface at construction time rather
    /// than on the first request.
    pub fn from_network(net: Network, sample_dims: &[usize]) -> Result<Self, ServeError> {
        Self::from_network_with_lane(net, sample_dims, KernelLane::default())
    }

    /// [`from_network`](Self::from_network) with an explicit kernel lane.
    /// The network is compiled into a [`FrozenPlan`] for the requested
    /// lane; the session records the **achieved** lane (weights that
    /// cannot build an integer panel, and every convolution, compile to
    /// the dequant cache), readable via [`lane`](Self::lane).
    ///
    /// # Errors
    ///
    /// Same contract as [`from_network`](Self::from_network).
    pub fn from_network_with_lane(
        net: Network,
        sample_dims: &[usize],
        lane: KernelLane,
    ) -> Result<Self, ServeError> {
        if sample_dims.is_empty() || sample_dims.contains(&0) {
            return Err(ServeError::BadRequest {
                reason: format!("invalid sample dims {sample_dims:?}"),
            });
        }
        let plan = net.freeze(sample_dims, lane)?;
        // A zero-sample probe validates the compiled program end to end.
        let mut probe_out = vec![0.0f32; plan.output_len()];
        plan.execute(
            &vec![0.0f32; plan.sample_len()],
            1,
            &mut Vec::new(),
            &mut probe_out,
        )?;
        Ok(InferenceSession {
            net: Arc::new(net),
            plan: Arc::new(plan),
            arena: Arc::new(ScratchArena::default()),
        })
    }

    /// The network the plan was compiled from (parameter stores and
    /// integrity digests; requests never run through it).
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// The compiled program every request executes; the batcher groups
    /// requests by its `Arc` identity.
    pub(crate) fn plan(&self) -> &Arc<FrozenPlan> {
        &self.plan
    }

    /// The compile report of the frozen plan. Always `Some`: every
    /// session serves from a compiled plan.
    pub fn plan_report(&self) -> Option<&PlanReport> {
        Some(self.plan.report())
    }

    /// Bytes this session keeps resident for serving: the parameter
    /// stores plus the compiled plan's weights. This is the figure
    /// registry budgets must count.
    pub fn resident_bytes(&self) -> u64 {
        self.net.resident_bytes() + self.plan.resident_bytes()
    }

    /// The kernel lane the plan actually achieved at load time:
    /// `IntGemm` only when every weight step packed an integer panel.
    pub fn lane(&self) -> KernelLane {
        self.plan.lane()
    }

    /// Shape of one input sample (no batch axis).
    pub fn sample_dims(&self) -> &[usize] {
        self.plan.sample_dims()
    }

    /// Scalar count of one input sample.
    pub fn sample_len(&self) -> usize {
        self.plan.sample_len()
    }

    /// Scalar count of one output row (e.g. class logits).
    pub fn num_outputs(&self) -> usize {
        self.plan.output_len()
    }

    /// The session's staging-buffer arena.
    pub fn arena(&self) -> &ScratchArena {
        &self.arena
    }

    /// Runs a pre-shaped batch `[n, sample_dims…]` through the frozen
    /// plan.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn infer_batch(&self, batch: &Tensor) -> Result<Tensor, ServeError> {
        Ok(self.plan.infer(batch)?)
    }

    /// Zero-allocation inference into a caller-provided output buffer:
    /// `input` is `n` concatenated flat samples, `output` must hold
    /// `n * num_outputs` floats. Steady state performs **no heap
    /// allocation** — the plan's scratch arena is recycled through the
    /// session arena and every intermediate lives at a precomputed offset.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] on geometry mismatches.
    pub fn infer_into(
        &self,
        input: &[f32],
        n: usize,
        output: &mut [f32],
    ) -> Result<(), ServeError> {
        if input.len() != n * self.sample_len() {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "expected {} input floats for {n} samples, got {}",
                    n * self.sample_len(),
                    input.len()
                ),
            });
        }
        if output.len() != n * self.num_outputs() {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "expected {} output floats for {n} samples, got {}",
                    n * self.num_outputs(),
                    output.len()
                ),
            });
        }
        let mut scratch = self.arena.take(self.plan.arena_floats_per_sample() * n);
        self.plan.execute(input, n, &mut scratch, output)?;
        self.arena.put(scratch);
        Ok(())
    }

    /// Runs a set of flat samples as one coalesced batch and returns one
    /// output row per sample. This is the micro-batcher's execution path:
    /// samples are staged into an arena buffer and run straight into a
    /// recycled output buffer — no tensor wrapping, no per-request
    /// intermediate allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] if any sample has the wrong
    /// length, and propagates forward-pass errors.
    pub fn infer_samples(&self, samples: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let n = samples.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        for (i, s) in samples.iter().enumerate() {
            if s.len() != self.sample_len() {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "sample {i}: expected {} values, got {}",
                        self.sample_len(),
                        s.len()
                    ),
                });
            }
        }
        let mut staging = self.arena.take(n * self.sample_len());
        for s in samples {
            staging.extend_from_slice(s);
        }
        let mut out = self.arena.take(n * self.num_outputs());
        out.resize(n * self.num_outputs(), 0.0);
        self.infer_into(&staging, n, &mut out)?;
        let rows = out
            .chunks(self.num_outputs())
            .map(<[f32]>::to_vec)
            .collect();
        self.arena.put(staging);
        self.arena.put(out);
        Ok(rows)
    }

    /// Convenience single-sample inference (a batch of one).
    ///
    /// # Errors
    ///
    /// Same contract as [`infer_samples`](Self::infer_samples).
    pub fn infer_one(&self, sample: &[f32]) -> Result<Vec<f32>, ServeError> {
        let mut rows = self.infer_samples(std::slice::from_ref(&sample.to_vec()))?;
        rows.pop().ok_or(ServeError::Internal {
            reason: "batch of one produced no rows".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::Mode;

    fn mlp_session() -> InferenceSession {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![6, 10, 4]),
            classes: 4,
            img_size: 0,
            width_mult: 1.0,
        };
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        InferenceSession::from_checkpoint(&spec, &blob).unwrap()
    }

    #[test]
    fn arch_parsing() {
        assert_eq!(
            "cifarnet".parse::<ModelArch>().unwrap(),
            ModelArch::Cifarnet
        );
        assert_eq!(
            "mlp:784-128-10".parse::<ModelArch>().unwrap(),
            ModelArch::Mlp(vec![784, 128, 10])
        );
        assert!("mlp:784".parse::<ModelArch>().is_err());
        assert!("mlp:a-b".parse::<ModelArch>().is_err());
        assert!("alexnet".parse::<ModelArch>().is_err());
        for name in ["vgg_small", "resnet20", "resnet110", "mobilenet_v2"] {
            assert!(name.parse::<ModelArch>().is_ok(), "{name}");
        }
    }

    #[test]
    fn session_probe_and_shapes() {
        let s = mlp_session();
        assert_eq!(s.sample_dims(), &[6]);
        assert_eq!(s.sample_len(), 6);
        assert_eq!(s.num_outputs(), 4);
    }

    #[test]
    fn session_matches_eval_forward() {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![6, 10, 4]),
            classes: 4,
            img_size: 0,
            width_mult: 1.0,
        };
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        let session = InferenceSession::from_checkpoint(&spec, &blob).unwrap();
        let x = apt_tensor::rng::normal(&[3, 6], 1.0, &mut rng::seeded(7));
        let want = net.forward(&x, Mode::Eval).unwrap();
        let got = session.infer_batch(&x).unwrap();
        assert_eq!(want.data(), got.data());
    }

    #[test]
    fn infer_samples_splits_rows() {
        let s = mlp_session();
        let a = vec![0.5; 6];
        let b = vec![-0.25; 6];
        let rows = s.infer_samples(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
        assert_eq!(rows[0], s.infer_one(&a).unwrap());
        assert_eq!(rows[1], s.infer_one(&b).unwrap());
    }

    #[test]
    fn arena_recycles_staging() {
        let s = mlp_session();
        let _ = s.infer_one(&[1.0; 6]).unwrap();
        assert!(s.arena().parked() >= 1, "staging buffer should be recycled");
        let before = s.arena().parked();
        let _ = s.infer_one(&[1.0; 6]).unwrap();
        assert_eq!(s.arena().parked(), before, "steady state reuses buffers");
    }

    #[test]
    fn wrong_sample_length_is_bad_request() {
        let s = mlp_session();
        assert!(matches!(
            s.infer_one(&[1.0, 2.0]),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(s.infer_samples(&[]).unwrap().is_empty());
    }

    #[test]
    fn concurrent_inference_through_arc() {
        let s = mlp_session();
        let base = s.infer_one(&[0.1; 6]).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            let base = base.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    assert_eq!(s.infer_one(&[0.1; 6]).unwrap(), base);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn invalid_sample_dims_rejected() {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![4, 2]),
            classes: 2,
            img_size: 0,
            width_mult: 1.0,
        };
        let net = spec.build().unwrap();
        assert!(InferenceSession::from_network(net, &[]).is_err());
        let net2 = spec.build().unwrap();
        assert!(InferenceSession::from_network(net2, &[0]).is_err());
        // the freeze compiler catches arch/sample mismatch up front
        let net3 = spec.build().unwrap();
        assert!(matches!(
            InferenceSession::from_network(net3, &[5]),
            Err(ServeError::Nn(apt_nn::NnError::Unfreezable { .. }))
        ));
    }

    #[test]
    fn unfreezable_network_is_a_typed_load_error_naming_the_layer() {
        // A layer without a plan lowering cannot be served: loading
        // fails with the layer's name.
        #[derive(Debug)]
        struct Opaque;
        impl apt_nn::Layer for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn forward(&mut self, input: &Tensor, _mode: Mode) -> apt_nn::Result<Tensor> {
                Ok(input.clone())
            }
            fn backward(&mut self, grad: &Tensor) -> apt_nn::Result<Tensor> {
                Ok(grad.clone())
            }
            fn visit_params(&mut self, _f: &mut dyn FnMut(&mut apt_nn::Param)) {}
            fn visit_params_ref(&self, _f: &mut dyn FnMut(&apt_nn::Param)) {}
        }
        let net = Network::new("n", vec![Box::new(Opaque)]);
        match InferenceSession::from_network(net, &[4]) {
            Err(ServeError::Nn(apt_nn::NnError::Unfreezable { layer, .. })) => {
                assert_eq!(layer, "opaque")
            }
            other => panic!("expected a typed Unfreezable error, got {other:?}"),
        }
    }
}
