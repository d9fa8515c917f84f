//! distributed — scaling / bandwidth / recovery campaign for the
//! data-parallel trainer with k-bit gradient exchange.
//!
//! Sweeps world size × gradient bitwidth on the synthetic-CIFAR MLP
//! workload, running every cell twice to check bit-reproducibility, then
//! runs a PowerCut recovery campaign (kill a rank mid-run, measure the
//! fleet-rollback cost and verify the recovered run is bit-identical to
//! the uninterrupted one), an exchange-cost cell and a rank-scaling
//! measurement on a larger replica. Outputs `results/distributed.csv` +
//! `BENCH_distributed.json`.
//!
//! ```text
//! cargo run --release -p apt-bench --bin distributed            # full sweep
//! cargo run --release -p apt-bench --bin distributed -- --smoke # CI gate
//! ```
//!
//! `--smoke` enforces the acceptance gates and **fails the process** on
//! violation:
//!
//! 1. bytes-on-wire: the k = 4, N = 4 exchange moves ≤ 0.2× the fp32 bytes;
//! 2. determinism: N = 2 runs are bit-identical run-to-run, and so are the
//!    wide replica's N = 2 and N = 3 runs (N = 3 sums are 6 bits wide and
//!    straddle words); the 1-worker fleet reproduces the single-process
//!    trainer to the bit;
//! 3. zero replica divergence: every step is digest-gated and every cell's
//!    replicas agree on all replicated state;
//! 4. recovery: a rank power-cut mid-run rolls back once and finishes
//!    bit-identical to the uninterrupted fleet;
//! 5. rank scaling: with ≥ 4 cores, 4 workers beat 1 worker ≥ 1.5× on the
//!    compute-bound replica (auto-relaxed to a loud SKIP on smaller hosts —
//!    gates 1–4 are the primary, core-count-independent contract).

use apt_bench::results_dir;
use apt_core::{CheckpointConfig, PolicyConfig, TrainConfig, Trainer};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_dist::{DistConfig, DistFault, DistReport, DistTrainer};
use apt_nn::{models, Network, QuantScheme};
use apt_quant::Bitwidth;
use apt_tensor::{par, rng};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn workload() -> SynthCifar {
    SynthCifar::generate(&SynthCifarConfig {
        num_classes: 2,
        train_per_class: 16,
        test_per_class: 4,
        img_size: 6,
        seed: 3,
        ..SynthCifarConfig::default()
    })
    .expect("dataset")
}

/// The sweep replica: small enough that every (world, bits) cell runs
/// twice in seconds.
fn replica() -> apt_core::Result<Network> {
    models::mlp(
        "dist-mlp",
        &[108, 24, 2],
        &QuantScheme::paper_apt(),
        &mut rng::seeded(7),
    )
    .map_err(apt_core::CoreError::from)
}

/// The scaling replica: wide enough that per-step compute dominates the
/// exchange, so rank speedup is measurable.
fn wide_replica() -> apt_core::Result<Network> {
    models::mlp(
        "dist-wide",
        &[108, 512, 256, 2],
        &QuantScheme::paper_apt(),
        &mut rng::seeded(7),
    )
    .map_err(apt_core::CoreError::from)
}

fn base_cfg(ckpt_root: Option<&Path>) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 2,
        interval: 1,
        policy: Some(PolicyConfig::default()),
        seed: 11,
        checkpoint: ckpt_root.map(|dir| CheckpointConfig {
            dir: dir.to_path_buf(),
            every: 2,
            keep: 3,
        }),
        ..TrainConfig::default()
    }
}

fn dist_cfg(world: usize, bits: u32, ckpt_root: Option<&Path>) -> DistConfig {
    DistConfig {
        world,
        grad_bits: Bitwidth::new(bits).expect("valid bitwidth"),
        train: base_cfg(ckpt_root),
        max_recovery_rounds: 3,
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-bench-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One (world, bits) sweep cell: timings, wire accounting, and the
/// determinism/lockstep verdicts from running the cell twice.
struct Cell {
    world: usize,
    bits: u32,
    steps: u64,
    wall_ms: f64,
    final_accuracy: f64,
    bytes_on_wire: u64,
    fp32_bytes: u64,
    wire_ratio: f64,
    digest_checks: u64,
    deterministic: bool,
    lockstep: bool,
}

impl Cell {
    fn csv(&self) -> String {
        format!(
            "sweep,{},{},{},{:.1},{:.4},{},{},{:.4},{},{},{},,",
            self.world,
            self.bits,
            self.steps,
            self.wall_ms,
            self.final_accuracy,
            self.bytes_on_wire,
            self.fp32_bytes,
            self.wire_ratio,
            self.digest_checks,
            self.deterministic,
            self.lockstep,
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"world\":{},\"bits\":{},\"steps\":{},\"wall_ms\":{:.1},\
             \"final_accuracy\":{:.4},\"bytes_on_wire\":{},\"fp32_bytes\":{},\
             \"wire_ratio\":{:.4},\"digest_checks\":{},\"deterministic\":{},\
             \"lockstep\":{}}}",
            self.world,
            self.bits,
            self.steps,
            self.wall_ms,
            self.final_accuracy,
            self.bytes_on_wire,
            self.fp32_bytes,
            self.wire_ratio,
            self.digest_checks,
            self.deterministic,
            self.lockstep,
        )
    }
}

/// A replica constructor: [`replica`] or [`wide_replica`].
type Replica = fn() -> apt_core::Result<Network>;

fn run_once(
    world: usize,
    bits: u32,
    data: &SynthCifar,
    ckpt: Option<&Path>,
    net: Replica,
) -> (DistReport, f64) {
    let t = Instant::now();
    let report = DistTrainer::new(dist_cfg(world, bits, ckpt), net)
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("training");
    (report, t.elapsed().as_secs_f64() * 1e3)
}

fn run_cell(world: usize, bits: u32, data: &SynthCifar, net: Replica) -> Cell {
    let (a, wall_a) = run_once(world, bits, data, None, net);
    let (b, wall_b) = run_once(world, bits, data, None, net);
    let ex = a.exchange();
    Cell {
        world,
        bits,
        steps: ex.steps.max(
            // world = 1 skips the exchange; count optimiser steps instead.
            (base_cfg(None).epochs * (data.train.len() / world) / base_cfg(None).batch_size) as u64,
        ),
        wall_ms: wall_a.min(wall_b),
        final_accuracy: a.report().final_accuracy,
        bytes_on_wire: ex.bytes_on_wire,
        fp32_bytes: ex.fp32_bytes,
        wire_ratio: ex.wire_ratio(),
        digest_checks: ex.digest_checks,
        deterministic: a == b,
        lockstep: a.replicas_in_lockstep(),
    }
}

/// The exchange cell: the wide replica at k = 4 on 2 ranks against 1 rank
/// with the same per-rank batch, so the per-step difference is what the
/// exchange costs (digest gate, encode, integer reduce, decode, waits).
struct ExchangeCell {
    steps: u64,
    step_ms: f64,
    compute_step_ms: f64,
}

impl ExchangeCell {
    fn exchange_ms_per_step(&self) -> f64 {
        self.step_ms - self.compute_step_ms
    }

    fn json(&self) -> String {
        format!(
            "{{\"replica\":\"wide\",\"world\":2,\"bits\":4,\"steps\":{},\
             \"step_ms\":{:.3},\"compute_step_ms\":{:.3},\"exchange_ms_per_step\":{:.3}}}",
            self.steps,
            self.step_ms,
            self.compute_step_ms,
            self.exchange_ms_per_step(),
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Medians over alternating 2-rank / 1-rank runs, so host drift hits both
/// alike.
fn exchange_cell(data: &SynthCifar) -> ExchangeCell {
    let cfg = base_cfg(None);
    let one_steps = (cfg.epochs * data.train.len() / cfg.batch_size) as f64;
    let (mut two, mut one) = (Vec::new(), Vec::new());
    let mut steps = 0;
    for _ in 0..5 {
        let (report, wall) = run_once(2, 4, data, None, wide_replica);
        steps = report.exchange().steps;
        two.push(wall / steps as f64);
        let (_, wall) = run_once(1, 4, data, None, wide_replica);
        one.push(wall / one_steps);
    }
    ExchangeCell {
        steps,
        step_ms: median(two),
        compute_step_ms: median(one),
    }
}

/// One recovery cell: kill `rank` at `at_step`, compare against the clean
/// fleet, and report the rollback cost.
struct RecoveryCell {
    rank: usize,
    at_step: u64,
    recovery_rounds: usize,
    clean_wall_ms: f64,
    hurt_wall_ms: f64,
    bit_identical: bool,
}

impl RecoveryCell {
    fn csv(&self) -> String {
        format!(
            "recovery,2,4,{},{:.1},,,,,,,,{},{}",
            self.at_step, self.hurt_wall_ms, self.recovery_rounds, self.bit_identical,
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"rank\":{},\"at_step\":{},\"recovery_rounds\":{},\
             \"clean_wall_ms\":{:.1},\"hurt_wall_ms\":{:.1},\"bit_identical\":{}}}",
            self.rank,
            self.at_step,
            self.recovery_rounds,
            self.clean_wall_ms,
            self.hurt_wall_ms,
            self.bit_identical,
        )
    }
}

/// PowerCut campaign at world = 2, k = 4: the 12-step run is killed at
/// `at_steps` (alternating ranks), each time recovering from the lockstep
/// checkpoints.
fn recovery_campaign(data: &SynthCifar, at_steps: &[u64]) -> Vec<RecoveryCell> {
    let dir_clean = tmp("clean");
    let t = Instant::now();
    let clean = DistTrainer::new(dist_cfg(2, 4, Some(&dir_clean)), replica)
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("clean run");
    let clean_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir_clean);

    let mut cells = Vec::new();
    for (i, &at_step) in at_steps.iter().enumerate() {
        let rank = i % 2;
        let dir = tmp(&format!("kill-{at_step}-{rank}"));
        let t = Instant::now();
        let hurt = DistTrainer::new(dist_cfg(2, 4, Some(&dir)), replica)
            .expect("trainer")
            .train_with_fault(&data.train, &data.test, Some(DistFault { rank, at_step }))
            .expect("recovered run");
        let hurt_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_dir_all(&dir);
        cells.push(RecoveryCell {
            rank,
            at_step,
            recovery_rounds: hurt.recovery_rounds,
            clean_wall_ms,
            hurt_wall_ms,
            bit_identical: hurt.reports == clean.reports,
        });
    }
    cells
}

/// Wall-clock of the wide replica at `world` ranks (inner-op threading
/// pinned to 1, so worker ranks are the only parallelism).
fn scaling_wall_ms(world: usize, data: &SynthCifar) -> f64 {
    let cfg = DistConfig {
        world,
        grad_bits: Bitwidth::new(4).expect("valid bitwidth"),
        train: TrainConfig {
            epochs: 2,
            batch_size: 2,
            interval: 1,
            policy: Some(PolicyConfig::default()),
            seed: 11,
            ..TrainConfig::default()
        },
        max_recovery_rounds: 0,
    };
    let t = Instant::now();
    DistTrainer::new(cfg, wide_replica)
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("scaling run");
    t.elapsed().as_secs_f64() * 1e3
}

fn write_outputs(
    cells: &[Cell],
    recovery: &[RecoveryCell],
    exchange: Option<&ExchangeCell>,
    scaling: Option<(f64, f64)>,
) {
    let header = "kind,world,bits,steps,wall_ms,final_accuracy,bytes_on_wire,\
                  fp32_bytes,wire_ratio,digest_checks,deterministic,lockstep,\
                  recovery_rounds,bit_identical";
    let mut rows = vec![header.to_string()];
    rows.extend(cells.iter().map(Cell::csv));
    rows.extend(recovery.iter().map(RecoveryCell::csv));
    let csv_path = results_dir().join("distributed.csv");
    std::fs::write(&csv_path, rows.join("\n") + "\n").expect("write csv");
    println!("wrote {}", csv_path.display());

    let scaling_json = match scaling {
        Some((w1, w4)) => format!(
            "{{\"world1_wall_ms\":{:.1},\"world4_wall_ms\":{:.1},\"speedup\":{:.2}}}",
            w1,
            w4,
            w1 / w4.max(1e-9)
        ),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n\"available_parallelism\": {},\n\"scaling\": {},\n\"exchange\": {},\n\"cells\": [\n{}\n],\n\"recovery\": [\n{}\n]\n}}\n",
        par::default_threads(),
        scaling_json,
        exchange.map_or("null".to_string(), ExchangeCell::json),
        cells
            .iter()
            .map(|c| format!("  {}", c.json()))
            .collect::<Vec<_>>()
            .join(",\n"),
        recovery
            .iter()
            .map(|c| format!("  {}", c.json()))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let mut f =
        std::fs::File::create("BENCH_distributed.json").expect("create BENCH_distributed.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_distributed.json");
    println!("wrote BENCH_distributed.json");
}

fn print_cell(c: &Cell) {
    println!(
        "world={} k={}: {:>4} steps {:>8.1} ms acc {:.3} wire {:>8} B ({:.3}x fp32) \
         deterministic={} lockstep={}",
        c.world,
        c.bits,
        c.steps,
        c.wall_ms,
        c.final_accuracy,
        c.bytes_on_wire,
        c.wire_ratio,
        c.deterministic,
        c.lockstep,
    );
}

fn smoke() -> bool {
    let mut ok = true;
    let data = workload();
    let cores = par::default_threads();

    // Gate 1: bytes on wire at the paper's operating point.
    println!("# smoke gate 1: k=4 N=4 exchange <= 0.2x fp32 bytes");
    let cell = run_cell(4, 4, &data, replica);
    print_cell(&cell);
    if cell.wire_ratio <= 0.2 {
        println!("ok: wire ratio {:.3}", cell.wire_ratio);
    } else {
        println!("FAIL: wire ratio {:.3} > 0.2", cell.wire_ratio);
        ok = false;
    }

    // Gate 2: determinism — N=2 bit-reproducible, world=1 == Trainer.
    println!("# smoke gate 2: bit-reproducible runs, world=1 == single-process");
    let two = run_cell(2, 4, &data, replica);
    print_cell(&two);
    let single = Trainer::new(replica().expect("net"), base_cfg(None))
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("single-process run");
    let (one, _) = run_once(1, 4, &data, None, replica);
    let one_matches = one.reports.len() == 1 && one.reports[0] == single;
    let wide: Vec<Cell> = [2, 3]
        .into_iter()
        .map(|world| run_cell(world, 4, &data, wide_replica))
        .collect();
    wide.iter().for_each(print_cell);
    let wide_ok = wide.iter().all(|c| c.deterministic && c.lockstep);
    if two.deterministic && one_matches && wide_ok {
        println!("ok: N=2 and wide N=2/N=3 reproducible, 1-worker fleet bit-identical to Trainer");
    } else {
        println!(
            "FAIL: deterministic={} wide_deterministic={} one_worker_matches_trainer={}",
            two.deterministic, wide_ok, one_matches
        );
        ok = false;
    }

    // Gate 3: zero replica divergence, every step digest-gated.
    println!("# smoke gate 3: zero post-reduce divergence, digest-gated every step");
    let gated = [&cell, &two]
        .iter()
        .all(|c| c.lockstep && c.digest_checks == c.steps);
    if gated {
        println!(
            "ok: {} digest checks across both cells",
            cell.digest_checks + two.digest_checks
        );
    } else {
        println!("FAIL: a cell diverged or skipped digest gating");
        ok = false;
    }

    // Gate 4: kill-anywhere recovery stays bit-identical.
    println!("# smoke gate 4: power-cut rank recovers bit-identically");
    let recovery = recovery_campaign(&data, &[5]);
    for r in &recovery {
        println!(
            "kill rank {} at step {}: rounds={} clean {:.1} ms hurt {:.1} ms bit_identical={}",
            r.rank, r.at_step, r.recovery_rounds, r.clean_wall_ms, r.hurt_wall_ms, r.bit_identical
        );
        if r.recovery_rounds != 1 || !r.bit_identical {
            println!("FAIL: recovery must take one rollback and reproduce the clean run");
            ok = false;
        }
    }
    if recovery
        .iter()
        .all(|r| r.recovery_rounds == 1 && r.bit_identical)
    {
        println!("ok: fleet rollback reproduced the uninterrupted run");
    }

    // Gate 5: rank scaling — needs real cores to mean anything.
    let scaling = if cores >= 4 {
        println!("# smoke gate 5: 4 workers >= 1.5x faster than 1 on the wide replica");
        let w1 = scaling_wall_ms(1, &data);
        let w4 = scaling_wall_ms(4, &data);
        let speedup = w1 / w4.max(1e-9);
        if speedup >= 1.5 {
            println!("ok: {speedup:.2}x ({w1:.0} ms vs {w4:.0} ms)");
        } else {
            println!("FAIL: only {speedup:.2}x ({w1:.0} ms vs {w4:.0} ms)");
            ok = false;
        }
        Some((w1, w4))
    } else {
        println!(
            "# smoke gate 5 SKIPPED: only {cores} core(s); rank scaling needs >= 4 \
             (gates 1-4 are the core-count-independent contract)"
        );
        None
    };

    write_outputs(&[cell, two], &recovery, None, scaling);
    ok
}

fn full_sweep() {
    let data = workload();
    let mut cells = Vec::new();
    for world in [1usize, 2, 4] {
        for bits in [2u32, 4, 8] {
            let cell = run_cell(world, bits, &data, replica);
            print_cell(&cell);
            cells.push(cell);
        }
    }
    println!("# recovery campaign: world=2 k=4, kill at steps 1/5/9");
    let recovery = recovery_campaign(&data, &[1, 5, 9]);
    for r in &recovery {
        println!(
            "kill rank {} at step {}: rounds={} clean {:.1} ms hurt {:.1} ms bit_identical={}",
            r.rank, r.at_step, r.recovery_rounds, r.clean_wall_ms, r.hurt_wall_ms, r.bit_identical
        );
    }
    let exchange = exchange_cell(&data);
    println!(
        "# exchange (wide replica, k=4): {:.3} ms/step at 2 ranks, {:.3} ms/step at 1 \
         -> {:.3} ms exchange per step",
        exchange.step_ms,
        exchange.compute_step_ms,
        exchange.exchange_ms_per_step()
    );
    let scaling = if par::default_threads() >= 4 {
        let w1 = scaling_wall_ms(1, &data);
        let w4 = scaling_wall_ms(4, &data);
        println!(
            "# rank scaling (wide replica): {w1:.0} ms @ 1 worker, {w4:.0} ms @ 4 ({:.2}x)",
            w1 / w4.max(1e-9)
        );
        Some((w1, w4))
    } else {
        println!(
            "# rank scaling SKIPPED: only {} core(s)",
            par::default_threads()
        );
        None
    };
    write_outputs(&cells, &recovery, Some(&exchange), scaling);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    // Rank threads are the unit of parallelism being measured; pin the
    // inner-op pool so it does not compete with them (overridable).
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    par::set_global_threads(threads);

    if smoke_mode {
        println!("# distributed --smoke: bandwidth / determinism / divergence / recovery gates");
        if !smoke() {
            std::process::exit(1);
        }
        return;
    }

    println!("# distributed: world x grad-bits sweep, recovery campaign, rank scaling");
    full_sweep();
}
