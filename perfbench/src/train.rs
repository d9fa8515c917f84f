//! `train_apt`: the paper's workload. APT (Algorithms 1–2, 6-bit initial
//! weights, `t_min` 6) trains ResNet-20 at width 0.25 on 10-class 12×12
//! SynthCifar through `Trainer::train`, with the compute pool at 2 threads.
//!
//! The untraced run repeats whole training runs and times them from the
//! outside; a `StepHook` only stamps the clock before each step. The traced
//! run re-drives the same loop through the same public calls in the same
//! order, with a span around every call, and must reproduce the trainer's
//! report bit for bit.

use crate::stats::{median, quantile, Spans};
use crate::{Outcome, Result};
use apt_core::{
    apply_policy, EpochRecord, GavgProfiler, PolicyConfig, StepAction, StepHook, StepInfo,
    TrainConfig, TrainReport, Trainer,
};
use apt_data::{Batch, Batcher, Dataset, SynthCifar, SynthCifarConfig};
use apt_energy::{EnergyBreakdown, EnergyMeter};
use apt_nn::{models, Mode, Network, ParamKind, QuantScheme};
use apt_optim::{LrSchedule, Sgd};
use apt_tensor::ops::{reduce::argmax_rows, softmax::cross_entropy};
use apt_tensor::{par, rng};
use std::time::{Duration, Instant};

const CLASSES: usize = 10;
const IMG: usize = 12;
const PER_CLASS: usize = 80;
const BATCH: usize = 32;
const EPOCHS: usize = 6;
const THREADS: usize = 2;
const WIDTH: f32 = 0.25;
/// Test accuracy that `core.time_to_acc_s` waits for.
pub const TARGET_ACC: f64 = 0.3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps the traced run records at least.
const TRACE_STEPS: usize = 1000;

pub fn config(seed: u64, epochs: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: BATCH,
        schedule: LrSchedule::paper_cifar10(epochs),
        policy: Some(PolicyConfig::paper_default()),
        seed,
        threads: Some(threads),
        ..TrainConfig::default()
    }
}

fn network(seed: u64) -> Result<Network> {
    let mut r = rng::seeded(seed ^ 0x9E37_79B9);
    Ok(models::resnet20(
        CLASSES,
        WIDTH,
        &QuantScheme::paper_apt(),
        &mut r,
    )?)
}

/// Set-up: data generation, model build and trainer construction.
fn setup(seed: u64) -> Result<(SynthCifar, Trainer)> {
    let data = SynthCifar::generate(&SynthCifarConfig::cifar10_like(PER_CLASS, IMG, seed))?;
    let trainer = Trainer::new(network(seed)?, config(seed, EPOCHS, THREADS))?;
    Ok((data, trainer))
}

/// Stamps the clock before every step; touches nothing else.
#[derive(Default)]
pub struct StepClock {
    stamps: Vec<(usize, Instant)>,
}

impl StepHook for StepClock {
    fn before_step(&mut self, info: &StepInfo, _batch: &mut Batch) -> StepAction {
        self.stamps.push((info.epoch, Instant::now()));
        StepAction::Continue
    }
}

impl StepClock {
    /// Seconds between consecutive steps of one epoch (the epoch-end policy
    /// and evaluation fall between epochs and are excluded).
    pub fn step_intervals(&self) -> Vec<f64> {
        self.stamps
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| (w[1].1 - w[0].1).as_secs_f64())
            .collect()
    }

    /// Seconds from `start` to the end of each epoch: the first stamp of the
    /// next epoch, or `end` for the last one.
    pub fn epoch_ends(&self, start: Instant, end: Instant) -> Vec<f64> {
        let mut ends: Vec<f64> = self
            .stamps
            .windows(2)
            .filter(|w| w[0].0 != w[1].0)
            .map(|w| (w[1].1 - start).as_secs_f64())
            .collect();
        ends.push((end - start).as_secs_f64());
        ends
    }
}

/// `(seconds, epochs)` until test accuracy first reaches [`TARGET_ACC`];
/// `None` when it never does.
pub fn time_to_acc(report: &TrainReport, epoch_ends: &[f64]) -> Option<(f64, usize)> {
    report
        .epochs
        .iter()
        .zip(epoch_ends)
        .position(|(e, _)| e.test_accuracy >= TARGET_ACC)
        .map(|i| (epoch_ends[i], i + 1))
}

/// The fields the bit-identity gate compares, with floats as raw bits.
pub fn same_report(a: &TrainReport, b: &TrainReport) -> bool {
    a.epochs.len() == b.epochs.len()
        && a.total_energy_pj.to_bits() == b.total_energy_pj.to_bits()
        && a.epochs.iter().zip(&b.epochs).all(|(x, y)| {
            x.train_loss.to_bits() == y.train_loss.to_bits()
                && x.test_accuracy.to_bits() == y.test_accuracy.to_bits()
                && x.cumulative_energy_pj.to_bits() == y.cumulative_energy_pj.to_bits()
                && x.layer_bits == y.layer_bits
                && x == y
        })
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome> {
    if trace {
        return run_traced(seed);
    }
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut steps = Vec::new();
    let mut reference: Option<TrainReport> = None;
    let mut last_wall = 0.0;
    let mut reps = 0;
    while reps < 2 || start.elapsed().as_secs_f64() + last_wall <= budget.as_secs_f64() {
        let t = Instant::now();
        let (data, mut trainer) = setup(seed)?;
        setups.push(t.elapsed().as_secs_f64());
        let mut clock = StepClock::default();
        let t = Instant::now();
        let report = trainer.train_with_hooks(&data.train, &data.test, &mut clock)?;
        let end = Instant::now();
        last_wall = (end - t).as_secs_f64();
        let ends = clock.epoch_ends(t, end);
        let mut prev = 0.0;
        for e in ends {
            rates.push(data.train.len() as f64 / (e - prev));
            prev = e;
        }
        steps.extend(clock.step_intervals());
        reps += 1;
        let finite = report.epochs.iter().all(|e| e.train_loss.is_finite());
        out.check(finite, || "non-finite training loss".into());
        match &reference {
            None => {
                out.set("model_kib", report.peak_resident_bytes as f64 / 1024.0);
                reference = Some(report);
            }
            Some(first) => out.check(same_report(first, &report), || {
                "a repeated training run differs from the first".into()
            }),
        }
    }
    while setups.len() < SETUPS {
        let t = Instant::now();
        drop(setup(seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.note(format!(
        "{reps} training runs of {EPOCHS} epochs, {} step intervals",
        steps.len()
    ));
    out.set("setup_s", median(&setups));
    // Per-epoch rates (evaluation included) and per-step latencies, so a
    // passing host stall moves a few samples rather than the median.
    out.set("samples_per_s", median(&rates));
    out.set("latency_p50_ms", median(&steps) * 1e3);
    Ok(out)
}

fn evaluate(net: &mut Network, data: &Dataset) -> Result<f64> {
    let batcher = Batcher::new(BATCH, None, 0)?;
    let mut correct = 0usize;
    for batch in batcher.eval_batches(data)? {
        let logits = net.forward(&batch.images, Mode::Eval)?;
        let preds = argmax_rows(&logits)?;
        correct += preds
            .iter()
            .zip(&batch.labels)
            .filter(|(p, l)| p == l)
            .count();
    }
    Ok(correct as f64 / data.len() as f64)
}

fn layer_bits(net: &Network) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    net.visit_params_ref(&mut |p| {
        if p.kind() == ParamKind::Weight {
            if let Some(b) = p.bits() {
                out.push((p.name().to_string(), b.get()));
            }
        }
    });
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// What the traced loop leaves besides its spans.
struct Traced {
    epochs: Vec<EpochRecord>,
    energy: EnergyBreakdown,
    wall: f64,
    macs_forward: u64,
    underflowed: usize,
    quantized_total: usize,
}

/// `Trainer::train`'s loop for this configuration (no sentinel, guard,
/// checkpoint, reducer or gradient quantisation), one span per public call.
fn traced_loop(seed: u64, data: &SynthCifar, spans: &mut Spans) -> Result<Traced> {
    let cfg = config(seed, EPOCHS, THREADS);
    par::set_global_threads(THREADS);
    let mut net = network(seed)?;
    let mut sgd = Sgd::new(cfg.sgd, cfg.seed);
    let mut profiler = GavgProfiler::new(cfg.ema_alpha);
    let mut meter = EnergyMeter::default();
    let policy = cfg.policy.expect("train_apt runs with the APT policy");
    let batcher = Batcher::new(cfg.batch_size, cfg.augment, cfg.seed)?;
    let mut t = Traced {
        epochs: Vec::new(),
        energy: EnergyBreakdown::default(),
        wall: 0.0,
        macs_forward: 0,
        underflowed: 0,
        quantized_total: 0,
    };
    let start = Instant::now();
    for epoch in 0..cfg.epochs {
        let lr = cfg.schedule.lr_at(epoch);
        let batches = spans.time("data.epoch_batches", || batcher.epoch(&data.train, epoch))?;
        let (mut loss_sum, mut loss_count) = (0.0f64, 0usize);
        let (mut underflowed, mut quantized_total) = (0usize, 0usize);
        for (iter, source) in batches.iter().enumerate() {
            let batch = spans.time("data.batch_copy", || source.clone());
            let logits = spans.time("nn.forward", || {
                net.zero_grads();
                net.forward(&batch.images, Mode::Train)
            })?;
            t.macs_forward += net.macs_last_forward();
            let ce = spans.time("tensor.loss", || cross_entropy(&logits, &batch.labels))?;
            loss_sum += f64::from(ce.loss);
            loss_count += 1;
            spans.time("nn.backward", || net.backward(&ce.grad_logits))?;
            if iter % cfg.interval == 0 {
                spans.time("core.gavg", || profiler.sample(&net));
            }
            let stats = spans.time("optim.step", || sgd.step(&mut net, lr))?;
            underflowed += stats.underflowed;
            quantized_total += stats.quantized_total;
            spans.time("energy.record", || meter.record_iteration(&net));
        }
        let changes = spans.time("core.policy", || {
            apply_policy(&mut net, &profiler.profile(), &policy)
        })?;
        let acc = spans.time("core.eval", || evaluate(&mut net, &data.test))?;
        t.underflowed += underflowed;
        t.quantized_total += quantized_total;
        t.epochs.push(EpochRecord {
            epoch,
            lr,
            train_loss: if loss_count == 0 {
                0.0
            } else {
                loss_sum / loss_count as f64
            },
            test_accuracy: acc,
            cumulative_energy_pj: meter.total_pj(),
            memory_bits: net.memory_bits(),
            resident_bytes: net.resident_bytes(),
            layer_bits: layer_bits(&net),
            gavg: profiler.profile(),
            underflow_rate: if quantized_total == 0 {
                0.0
            } else {
                underflowed as f64 / quantized_total as f64
            },
            changes,
        });
    }
    t.wall = start.elapsed().as_secs_f64();
    t.energy = meter.breakdown();
    Ok(t)
}

fn run_traced(seed: u64) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (data, mut trainer) = setup(seed)?;
    let mut clock = StepClock::default();
    let start = Instant::now();
    let report = trainer.train_with_hooks(&data.train, &data.test, &mut clock)?;
    let end = Instant::now();
    let untraced_wall = (end - start).as_secs_f64();
    // Repeat the traced loop until every per-step span has enough samples
    // for its p99 to have 10 beyond it.
    let mut spans = Spans::default();
    let mut walls = Vec::new();
    let mut macs_forward = 0u64;
    let t = loop {
        let t = traced_loop(seed, &data, &mut spans)?;
        let traced_report = TrainReport {
            epochs: t.epochs.clone(),
            total_energy_pj: t.energy.total_pj(),
            ..TrainReport::default()
        };
        out.check(same_report(&report, &traced_report), || {
            "traced loop differs from Trainer::train".into()
        });
        walls.push(t.wall);
        macs_forward += t.macs_forward;
        if spans.get("nn.forward").len() >= TRACE_STEPS {
            break t;
        }
    };
    let traced_wall: f64 = walls.iter().sum();
    let coverage = spans.total() / traced_wall;
    out.check((coverage - 1.0).abs() <= 0.05, || {
        format!(
            "spans cover {:.1} % of the traced wall time",
            coverage * 100.0
        )
    });

    for (span, name, scale) in [
        ("data.epoch_batches", "data.epoch_batches_ms", 1e3),
        ("data.batch_copy", "data.batch_copy_us", 1e6),
        ("nn.forward", "nn.forward_ms", 1e3),
        ("nn.backward", "nn.backward_ms", 1e3),
        ("tensor.loss", "tensor.loss_us", 1e6),
        ("core.gavg", "core.gavg_us", 1e6),
        ("core.policy", "core.policy_us", 1e6),
        ("core.eval", "core.eval_ms", 1e3),
        ("optim.step", "optim.step_ms", 1e3),
        ("energy.record", "energy.record_us", 1e6),
    ] {
        let v = spans.get(span);
        set_span(&mut out, name, v, scale);
        let share = v.iter().sum::<f64>() / traced_wall * 100.0;
        out.note(format!("span {span:<20} {share:5.1} % of traced wall"));
    }
    let fwd: f64 = spans.get("nn.forward").iter().sum();
    let bwd: f64 = spans.get("nn.backward").iter().sum();
    out.set("nn.fwd_gmacs_per_s", macs_forward as f64 / fwd / 1e9);
    // Backward computes the input and weight gradients: two forward's worth.
    out.set("nn.bwd_gmacs_per_s", 2.0 * macs_forward as f64 / bwd / 1e9);
    out.set(
        "quant.update_effective_ratio",
        1.0 - t.underflowed as f64 / t.quantized_total.max(1) as f64,
    );
    let bits = &report.epochs.last().ok_or("no epochs")?.layer_bits;
    out.set(
        "model.mean_bits",
        bits.iter().map(|&(_, b)| f64::from(b)).sum::<f64>() / bits.len().max(1) as f64,
    );
    let steps = t.energy.iterations as f64;
    out.set("energy.compute_pj_per_step", t.energy.compute_pj / steps);
    out.set("energy.memory_pj_per_step", t.energy.memory_pj / steps);
    out.set("trace.span_coverage", coverage);
    out.set(
        "trace.overhead_pct",
        (median(&walls) - untraced_wall) / untraced_wall * 100.0,
    );
    set_outcomes(&mut out, &report, &clock.epoch_ends(start, end));
    Ok(out)
}

/// p50, p99 and sample count of one span, scaled from seconds.
fn set_span(out: &mut Outcome, name: &str, secs: &[f64], scale: f64) {
    out.set(format!("{name}.p50"), quantile(secs, 0.5) * scale);
    out.set(format!("{name}.p99"), quantile(secs, 0.99) * scale);
    out.set(format!("{name}.n"), secs.len() as f64);
}

/// Accuracy, energy and time-to-accuracy of a finished training run.
pub fn set_outcomes(out: &mut Outcome, report: &TrainReport, epoch_ends: &[f64]) {
    out.set("core.final_acc", report.final_accuracy);
    out.set("energy.total_uj", report.total_energy_pj / 1e6);
    match time_to_acc(report, epoch_ends) {
        Some((secs, epochs)) => {
            out.set("core.time_to_acc_s", secs);
            out.set("core.epochs_to_acc", epochs as f64);
        }
        None => out.note(format!(
            "test accuracy never reached {TARGET_ACC} (best {:.3})",
            report.best_accuracy
        )),
    }
}
