//! `train_dist`: `DistTrainer` runs 2 ranks exchanging 4-bit gradients,
//! training the wide APT MLP `[108, 512, 256, 10]` on 10-class 6×6
//! SynthCifar (batch 16 per rank, compute pool at 1 thread). The traced run
//! adds a 1-rank baseline on the same data and per-rank batch, and times
//! the public `GradCodec` on the replica's parameter sizes.

use crate::stats::{median, quantile};
use crate::train::{same_report, set_outcomes};
use crate::{Outcome, Result};
use apt_core::{CoreError, PolicyConfig, TrainConfig};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_dist::{DistConfig, DistReport, DistTrainer};
use apt_nn::{models, Network, QuantScheme};
use apt_optim::LrSchedule;
use apt_quant::{Bitwidth, GradCodec};
use apt_tensor::rng;
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const IMG: usize = 6;
const PER_CLASS: usize = 80;
const BATCH: usize = 16;
const EPOCHS: usize = 6;
const WORLD: usize = 2;
const GRAD_BITS: u32 = 4;
const DIMS: [usize; 4] = [108, 512, 256, 10];
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

fn replica(seed: u64) -> apt_core::Result<Network> {
    models::mlp(
        "dist-wide",
        &DIMS,
        &QuantScheme::paper_apt(),
        &mut rng::seeded(seed ^ 0x9E37_79B9),
    )
    .map_err(CoreError::from)
}

type Fleet = DistTrainer<Box<dyn Fn() -> apt_core::Result<Network> + Sync>>;

/// Set-up: data generation and a validated trainer for `world` ranks.
fn setup(seed: u64, world: usize) -> Result<(SynthCifar, Fleet)> {
    let data = SynthCifar::generate(&SynthCifarConfig::cifar10_like(PER_CLASS, IMG, seed))?;
    let cfg = DistConfig {
        world,
        grad_bits: Bitwidth::new(GRAD_BITS)?,
        train: TrainConfig {
            epochs: EPOCHS,
            batch_size: BATCH,
            schedule: LrSchedule::paper_cifar10(EPOCHS),
            policy: Some(PolicyConfig::paper_default()),
            seed,
            threads: Some(1),
            ..TrainConfig::default()
        },
        max_recovery_rounds: 0,
    };
    let fleet = DistTrainer::new(cfg, Box::new(move || replica(seed)) as Box<_>)?;
    Ok((data, fleet))
}

struct Run {
    report: DistReport,
    wall: f64,
    samples: usize,
}

impl Run {
    fn steps(&self) -> u64 {
        let r = self.report.report();
        // A 1-rank run exchanges nothing; count its steps from the shard.
        match self.report.exchange().steps {
            0 => (r.epochs.len() * self.samples.div_ceil(BATCH)) as u64,
            s => s,
        }
    }
    fn samples_per_s(&self) -> f64 {
        (EPOCHS * self.samples) as f64 / self.wall
    }
    fn step_s(&self) -> f64 {
        self.wall / self.steps() as f64
    }
}

fn train(data: &SynthCifar, fleet: &Fleet) -> Result<Run> {
    let t = Instant::now();
    let report = fleet.train(&data.train, &data.test)?;
    Ok(Run {
        report,
        wall: t.elapsed().as_secs_f64(),
        samples: data.train.len(),
    })
}

/// The gates every 2-rank run must pass, and determinism against the first.
fn check(out: &mut Outcome, run: &Run, first: Option<&Run>) {
    let ex = run.report.exchange();
    let expected = (EPOCHS * (run.samples / WORLD).div_ceil(BATCH)) as u64;
    out.check(run.report.replicas_in_lockstep(), || {
        "replicas left lockstep".into()
    });
    out.check(ex.steps == expected && ex.digest_checks == ex.steps, || {
        format!(
            "{} digest checks over {} steps, expected {expected} of each",
            ex.digest_checks, ex.steps
        )
    });
    if let Some(first) = first {
        out.check(
            same_report(first.report.report(), run.report.report())
                && first.report.exchange() == ex,
            || "a repeated 2-rank run differs from the first".into(),
        );
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome> {
    if trace {
        return run_traced(seed, budget);
    }
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut runs: Vec<Run> = Vec::new();
    let mut last_wall = 0.0;
    while runs.len() < 2 || start.elapsed().as_secs_f64() + last_wall <= budget.as_secs_f64() {
        let t = Instant::now();
        let (data, fleet) = setup(seed, WORLD)?;
        setups.push(t.elapsed().as_secs_f64());
        let run = train(&data, &fleet)?;
        last_wall = run.wall;
        check(&mut out, &run, runs.first());
        runs.push(run);
    }
    while setups.len() < SETUPS {
        let t = Instant::now();
        drop(setup(seed, WORLD)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.note(format!("{} 2-rank runs of {EPOCHS} epochs", runs.len()));
    let rates: Vec<f64> = runs.iter().map(Run::samples_per_s).collect();
    let steps: Vec<f64> = runs.iter().map(Run::step_s).collect();
    out.set("setup_s", median(&setups));
    out.set("samples_per_s", median(&rates));
    out.set("latency_p50_ms", median(&steps) * 1e3);
    out.set(
        "model_kib",
        runs[0].report.report().peak_resident_bytes as f64 / 1024.0,
    );
    Ok(out)
}

/// Nanoseconds per element to encode and to decode every parameter of one
/// replica through the public codec.
fn codec_ns_per_elem(seed: u64) -> Result<(f64, f64)> {
    let codec = GradCodec::new(Bitwidth::new(GRAD_BITS)?);
    let mut r = rng::seeded(seed);
    let sizes: Vec<usize> = DIMS.windows(2).flat_map(|w| [w[0] * w[1], w[1]]).collect();
    let grads: Vec<Vec<f32>> = sizes
        .iter()
        .map(|&n| (0..n).map(|_| r.gen_range(-0.05f32..0.05)).collect())
        .collect();
    let elems: usize = sizes.iter().sum();
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let (mut e, mut d) = (0.0, 0.0);
        for g in &grads {
            let mut residual = vec![0.0f32; g.len()];
            let scale = codec.scale(g.iter().fold(0.0f32, |m, x| m.max(x.abs())));
            let t = Instant::now();
            let store = codec.encode(black_box(g), &mut residual, scale);
            e += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(codec.decode(&store, scale));
            d += t.elapsed().as_secs_f64();
        }
        encode.push(e);
        decode.push(d);
    }
    let per_elem = |v: &[f64]| median(v) / elems as f64 * 1e9;
    Ok((per_elem(&encode), per_elem(&decode)))
}

fn run_traced(seed: u64, budget: Duration) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (data, fleet) = setup(seed, WORLD)?;
    let (_, single) = setup(seed, 1)?;
    let start = Instant::now();
    let (mut two, mut one): (Vec<Run>, Vec<Run>) = (Vec::new(), Vec::new());
    // Alternate the 2-rank run and its 1-rank baseline so host drift hits
    // both alike.
    while two.len() < 2 || start.elapsed() < budget / 2 {
        let run = train(&data, &fleet)?;
        check(&mut out, &run, two.first());
        two.push(run);
        one.push(train(&data, &single)?);
    }
    let step = median(&two.iter().map(Run::step_s).collect::<Vec<_>>());
    let compute = median(&one.iter().map(Run::step_s).collect::<Vec<_>>());
    let rate2 = median(&two.iter().map(Run::samples_per_s).collect::<Vec<_>>());
    let rate1 = median(&one.iter().map(Run::samples_per_s).collect::<Vec<_>>());
    out.note(format!(
        "{} paired runs; 2-rank step p99 over runs {:.2} ms",
        two.len(),
        quantile(&two.iter().map(Run::step_s).collect::<Vec<_>>(), 0.99) * 1e3
    ));
    let ex = two[0].report.exchange();
    out.set("dist.step_ms", step * 1e3);
    out.set("dist.compute_step_ms", compute * 1e3);
    out.set("dist.exchange_ms_per_step", (step - compute) * 1e3);
    out.set("dist.scaling_x", rate2 / rate1);
    out.set(
        "dist.wire_bytes_per_step",
        ex.bytes_on_wire as f64 / ex.steps as f64,
    );
    out.set("dist.wire_ratio", ex.wire_ratio());
    out.set("dist.digest_checks", ex.digest_checks as f64);
    let (enc, dec) = codec_ns_per_elem(seed)?;
    out.set("quant.codec_encode_ns_per_elem", enc);
    out.set("quant.codec_decode_ns_per_elem", dec);
    // No per-epoch clock reaches inside DistTrainer: epochs are taken as
    // equally long, so time-to-accuracy is the wall time pro rata.
    let report = two[0].report.report();
    let wall = median(&two.iter().map(|r| r.wall).collect::<Vec<_>>());
    let ends: Vec<f64> = (1..=EPOCHS)
        .map(|e| wall * e as f64 / EPOCHS as f64)
        .collect();
    set_outcomes(&mut out, report, &ends);
    Ok(out)
}
