//! Differential coverage for the dequant-free integer serving lane.
//!
//! Every claim is against the one reference oracle, the trainer's
//! `forward(Mode::Eval)`:
//!
//! 1. **Dequant cache is eval-exact up to BN folding.** A session on
//!    [`KernelLane::DequantCache`] runs the eval arithmetic from weights
//!    dequantised once at load; the only drift is the float
//!    reassociation of BatchNorm folding (none at all on the MLP).
//! 2. **Integer lane is bit-close with a documented bound.** Under
//!    [`KernelLane::IntGemm`] the plan's linear steps compute entirely on
//!    integer codes; their only approximation is the per-row 8-bit
//!    activation requantisation (weight side exact, integer bracket exact
//!    in `i64`). Per layer that is an error of at most `εx/2 · Σ|ŵ|`; end
//!    to end we assert logits within 6% of the largest exact logit
//!    magnitude on every supported backbone, and across every checkpoint
//!    version (v1/v2/v3) and both code-store backends on a *trained*
//!    network.
//!
//! Convolutions always compile to f32 weights (an integer conv would break
//! the plan's zero-allocation arena contract), so a conv net honestly
//! reports the weakened `dequant-cache` lane under an `int-gemm` request —
//! asserted below — while an all-linear net achieves the full integer
//! lane.
//!
//! The store backend is a process global, so this file holds a single
//! serial `#[test]` (integration tests compile to their own binary, so
//! this cannot race `differential.rs`).

use apt_core::{PolicyConfig, TrainConfig, Trainer};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_nn::{checkpoint, Mode, Network};
use apt_optim::LrSchedule;
use apt_quant::{set_store_backend, StoreBackend};
use apt_serve::{InferenceSession, KernelLane, ModelArch, ModelSpec};
use apt_tensor::Tensor;

fn cifar_spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: 3,
        img_size: 8,
        width_mult: 0.25,
    }
}

/// A short real training run so the checkpoint carries non-trivial
/// quantisers and batch-norm state (mirrors `differential.rs`).
fn trained_network() -> Network {
    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 3,
        train_per_class: 16,
        test_per_class: 6,
        img_size: 8,
        seed: 7,
        ..Default::default()
    })
    .unwrap();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        interval: 1,
        policy: Some(PolicyConfig::default()),
        ..Default::default()
    };
    let net = cifar_spec().build().unwrap();
    let mut t = Trainer::new(net, cfg).unwrap();
    t.train(&data.train, &data.test).unwrap();
    let blob = checkpoint::save_full(t.network_mut());
    let mut fresh = cifar_spec().build().unwrap();
    checkpoint::load(&mut fresh, &blob).unwrap();
    fresh
}

fn synth_samples(n: usize, sample_len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..sample_len)
                .map(|j| ((i * 31 + j * 7) % 23) as f32 * 0.08 - 0.9)
                .collect()
        })
        .collect()
}

/// The trainer's eval forward on `samples`, one output row per sample.
fn eval_rows(net: &mut Network, spec: &ModelSpec, samples: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut dims = vec![samples.len()];
    dims.extend(spec.sample_dims());
    let flat = samples.iter().flatten().copied().collect();
    let out = net
        .forward(&Tensor::from_vec(flat, &dims).unwrap(), Mode::Eval)
        .unwrap();
    let width = out.len() / samples.len();
    out.data().chunks(width).map(<[f32]>::to_vec).collect()
}

/// Logit-level closeness: every element within `rel` of the largest exact
/// logit magnitude (floored at 1 so near-zero logits don't demand exact
/// zeros). Also proves no row was lost or resized — "zero corrupted or
/// lost responses" at the session level.
fn assert_rows_close(got: &[Vec<f32>], want: &[Vec<f32>], rel: f32, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    let scale = want.iter().flatten().fold(1.0f32, |a, &v| a.max(v.abs()));
    for (i, (gr, wr)) in got.iter().zip(want).enumerate() {
        assert_eq!(gr.len(), wr.len(), "{ctx}: row {i} width");
        for (g, w) in gr.iter().zip(wr) {
            assert!(g.is_finite(), "{ctx}: non-finite logit {g}");
            assert!(
                (g - w).abs() <= rel * scale,
                "{ctx}: row {i}: {g} vs {w} (± {} = {rel}·{scale})",
                rel * scale
            );
        }
    }
}

#[test]
fn integer_lane_is_bit_close_and_dequant_cache_matches_eval() {
    set_store_backend(StoreBackend::Tiered);
    // ── Claim 1 + 2 across every supported backbone (fresh paper-APT
    //    quantised weights straight from the model zoo). ──
    let backbones = [
        ModelSpec {
            arch: ModelArch::Mlp(vec![48, 32, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        },
        cifar_spec(),
        ModelSpec {
            arch: ModelArch::VggSmall,
            ..cifar_spec()
        },
        ModelSpec {
            arch: ModelArch::Resnet20,
            ..cifar_spec()
        },
        ModelSpec {
            arch: ModelArch::Resnet110,
            ..cifar_spec()
        },
        ModelSpec {
            arch: ModelArch::MobilenetV2,
            ..cifar_spec()
        },
    ];
    for spec in &backbones {
        let ctx = format!("{:?}", spec.arch);
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        let sample_len: usize = spec.sample_dims().iter().product();
        let samples = synth_samples(2, sample_len);
        let want = eval_rows(&mut net, spec, &samples);

        let cached =
            InferenceSession::from_checkpoint_with_lane(spec, &blob, KernelLane::DequantCache)
                .unwrap();
        assert_eq!(cached.lane(), KernelLane::DequantCache);
        assert_rows_close(&cached.infer_samples(&samples).unwrap(), &want, 1e-4, &ctx);

        // Lane honesty: an all-linear plan packs integer panels and keeps
        // the full lane; a plan with convs degrades to dequant-cache
        // (convs compile f32) and must say so.
        let int =
            InferenceSession::from_checkpoint_with_lane(spec, &blob, KernelLane::IntGemm).unwrap();
        let expect_lane = if matches!(spec.arch, ModelArch::Mlp(_)) {
            KernelLane::IntGemm
        } else {
            KernelLane::DequantCache
        };
        assert_eq!(int.lane(), expect_lane, "{ctx}");
        assert!(
            int.plan_report().unwrap().packed_panels > 0,
            "{ctx}: paper-APT linear weights are quantised, they must pack"
        );
        assert!(
            int.resident_bytes() > int.network().resident_bytes(),
            "{ctx}: the compiled plan's weights must be counted resident"
        );
        assert_rows_close(&int.infer_samples(&samples).unwrap(), &want, 0.06, &ctx);
    }

    // ── Claim 2 on a trained network, across checkpoint versions and
    //    both store backends. ──
    let spec = cifar_spec();
    let samples = synth_samples(4, 3 * 8 * 8);
    for backend in [StoreBackend::I64, StoreBackend::Tiered] {
        set_store_backend(backend);
        let mut net = trained_network();
        let want = eval_rows(&mut net, &spec, &samples);
        for version in [1u16, 2, 3] {
            let vblob = checkpoint::save_full_as(&mut net, version).unwrap();
            let session =
                InferenceSession::from_checkpoint_with_lane(&spec, &vblob, KernelLane::IntGemm)
                    .unwrap();
            assert_eq!(session.plan_report().unwrap().packed_panels, 2);
            let ctx = format!("trained cifarnet v{version} {backend:?}");
            assert_rows_close(&session.infer_samples(&samples).unwrap(), &want, 0.06, &ctx);
        }
    }
    set_store_backend(StoreBackend::Tiered);
}
