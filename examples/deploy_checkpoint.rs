//! Train → ship → resume: the deployment loop an edge fleet needs.
//!
//! ```bash
//! cargo run --release --example deploy_checkpoint
//! ```
//!
//! Trains a model with APT, saves it **at its adapted per-layer bitwidths**
//! (integer codes, no fp32 anywhere), "ships" the blob into a frozen
//! [`InferenceSession`] (the serving runtime's loader), verifies it against
//! the trainer's eval forward, then resumes in-situ training from the same
//! checkpoint — the paper's §I scenario of a device that "has to learn
//! in-situ frequently after deployment".

use apt::core::{PolicyConfig, TrainConfig, Trainer};
use apt::data::{SynthCifar, SynthCifarConfig};
use apt::nn::{checkpoint, models, Mode, QuantScheme};
use apt::optim::LrSchedule;
use apt::serve::{InferenceSession, ModelArch, ModelSpec};
use apt::tensor::rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 10,
        train_per_class: 50,
        test_per_class: 15,
        img_size: 12,
        seed: 41,
        ..Default::default()
    })?;

    // Phase 1: train with APT "at the factory".
    let net = models::cifarnet(10, 12, 0.25, &QuantScheme::paper_apt(), &mut rng::seeded(1))?;
    let cfg = TrainConfig {
        epochs: 12,
        batch_size: 32,
        schedule: LrSchedule::paper_cifar10(12),
        policy: Some(PolicyConfig::paper_default()),
        seed: 2,
        ..Default::default()
    };
    let mut trainer = Trainer::new(net, cfg.clone())?;
    let report = trainer.train(&data.train, &data.test)?;
    println!(
        "factory training: {:.1}% accuracy, adapted bits: {:?}",
        100.0 * report.final_accuracy,
        trainer.layer_bits()
    );

    // Phase 2: checkpoint at the adapted precision.
    let mut trained = trainer.into_network();
    let blob = checkpoint::save_full(&mut trained);
    let fp32_equiv = trained.num_params() * 4;
    println!(
        "checkpoint: {} bytes on flash ({} bytes would hold the fp32 weights alone)",
        blob.len(),
        fp32_equiv
    );

    // Phase 3: "ship" — the device loads the blob into a frozen inference
    // session (exactly what `apt serve` does). Folding BatchNorm into the
    // conv weights reassociates one multiply per weight, so the served
    // logits match the trainer's eval forward to float rounding.
    let spec = ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: 10,
        img_size: 12,
        width_mult: 0.25,
    };
    let session = InferenceSession::from_checkpoint(&spec, &blob)?;
    let x = data.test.image(0).clone().reshape(&[1, 3, 12, 12])?;
    let a = trained.forward(&x, Mode::Eval)?;
    let b = session.infer_batch(&x)?;
    let scale = a.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    assert!(
        a.data()
            .iter()
            .zip(b.data())
            .all(|(e, g)| (e - g).abs() <= 1e-4 * scale),
        "shipped model must match the trainer: {:?} vs {:?}",
        a.data(),
        b.data()
    );
    let logits = session.infer_one(x.data())?;
    assert_eq!(
        logits,
        b.data(),
        "single-sample path matches the batch path"
    );
    println!(
        "shipped model verified against the trainer in the serving session \
         ({} resident bytes, {} outputs)",
        session.network().resident_bytes(),
        session.num_outputs()
    );

    // Phase 4: resume learning in-situ on the device's own (shifted) data.
    // Training needs a mutable network, so load the same blob once more.
    let mut device = models::cifarnet(
        10,
        12,
        0.25,
        &QuantScheme::paper_apt(),
        &mut rng::seeded(99),
    )?;
    checkpoint::load(&mut device, &blob)?;
    let local = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 10,
        train_per_class: 20,
        test_per_class: 10,
        img_size: 12,
        seed: 43, // different environment
        ..Default::default()
    })?;
    let mut onboard = Trainer::new(
        device,
        TrainConfig {
            epochs: 6,
            schedule: LrSchedule::Constant(0.01),
            ..cfg
        },
    )?;
    let before = onboard.evaluate(&local.test)?;
    let resumed = onboard.train(&local.train, &local.test)?;
    println!(
        "in-situ adaptation on new environment: {:.1}% -> {:.1}% using {:.1} µJ",
        100.0 * before,
        100.0 * resumed.final_accuracy,
        resumed.total_energy_pj / 1e6
    );
    Ok(())
}
