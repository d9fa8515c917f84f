//! Differential proof that the serving path is the training eval path:
//! an [`InferenceSession`] loaded from a checkpoint must reproduce the
//! trainer's own `forward(Mode::Eval)` on the network that wrote the
//! checkpoint — across every checkpoint version the loader accepts (v1
//! unframed, v2 byte-granular, v3 packed+CRC) and both code-store backends
//! (legacy one-`i64`-per-code and tiered physical).
//!
//! The session serves from a frozen plan that folds BatchNorm into conv
//! weights at compile time, which reassociates per-channel float
//! multiplies, so its logits agree with the trainer's within a small
//! relative tolerance of each row's largest magnitude.
//!
//! The backend is selected through the process-global override, so this
//! file holds a single serial `#[test]`.

use apt_core::{PolicyConfig, TrainConfig, Trainer};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_nn::{checkpoint, Mode, Network};
use apt_optim::LrSchedule;
use apt_quant::{set_store_backend, StoreBackend};
use apt_serve::{InferenceSession, ModelArch, ModelSpec};
use apt_tensor::Tensor;

fn spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: 3,
        img_size: 8,
        width_mult: 0.25,
    }
}

/// A short real training run (APT policy on, batch norm collecting running
/// stats) so the checkpoint carries non-trivial quantisers and BN state.
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
    let net = spec().build().unwrap();
    let mut t = Trainer::new(net, cfg).unwrap();
    t.train(&data.train, &data.test).unwrap();
    // Steal the trained network back out of the trainer via a checkpoint
    // round trip (Trainer keeps ownership of its Network).
    let blob = checkpoint::save_full(t.network_mut());
    let mut fresh = spec().build().unwrap();
    checkpoint::load(&mut fresh, &blob).unwrap();
    fresh
}

#[test]
fn session_matches_trainer_eval_across_versions_and_backends() {
    let samples: Vec<Vec<f32>> = (0..4)
        .map(|i| {
            (0..3 * 8 * 8)
                .map(|j| ((i * 97 + j * 13) % 29) as f32 * 0.07 - 1.0)
                .collect()
        })
        .collect();
    let flat: Vec<f32> = samples.iter().flatten().copied().collect();
    let batch = Tensor::from_vec(flat, &[4, 3, 8, 8]).unwrap();

    for backend in [StoreBackend::I64, StoreBackend::Tiered] {
        set_store_backend(backend);
        let mut net = trained_network();
        let want = net.forward(&batch, Mode::Eval).unwrap();

        for version in [1u16, 2, 3] {
            let blob = checkpoint::save_full_as(&mut net, version).unwrap();
            let session = InferenceSession::from_checkpoint(&spec(), &blob).unwrap();
            let rows = session.infer_samples(&samples).unwrap();
            assert_eq!(rows.len(), 4);
            for (row, want_row) in rows.iter().zip(want.data().chunks(3)) {
                assert_eq!(row.len(), want_row.len());
                let scale = want_row.iter().fold(1.0f32, |m, v| m.max(v.abs()));
                for (&g, &e) in row.iter().zip(want_row) {
                    assert!(
                        (e - g).abs() <= 1e-4 * scale,
                        "serving logits drifted from trainer eval: {e} vs {g} \
                         (checkpoint v{version}, backend {backend:?})"
                    );
                }
            }
        }
    }
    set_store_backend(StoreBackend::Tiered);
}
