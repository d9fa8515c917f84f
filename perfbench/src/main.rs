//! The repository's benchmark: three workloads that each stress different
//! crates of the APT workspace, timed from outside through the crates'
//! public functions and counters.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_apt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed correctness check makes the command exit with code 1 after that
//! line. See `perfbench/README.md` for the workloads and every metric.

mod dist;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// End-to-end metrics, reported by every workload with tracing off. Each is
/// defined per workload in `README.md`; every value is non-zero.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("samples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("model_kib", "KiB"),
];

/// Per-layer metrics of the traced run. Every workload reports every name;
/// a layer the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // apt-data, apt-nn, apt-tensor, apt-core, apt-optim/apt-quant,
    // apt-energy: spans of the traced train_apt loop.
    ("data.epoch_batches_ms.p50", "ms"),
    ("data.epoch_batches_ms.p99", "ms"),
    ("data.epoch_batches_ms.n", "count"),
    ("data.batch_copy_us.p50", "us"),
    ("data.batch_copy_us.p99", "us"),
    ("data.batch_copy_us.n", "count"),
    ("nn.forward_ms.p50", "ms"),
    ("nn.forward_ms.p99", "ms"),
    ("nn.forward_ms.n", "count"),
    ("nn.backward_ms.p50", "ms"),
    ("nn.backward_ms.p99", "ms"),
    ("nn.backward_ms.n", "count"),
    ("tensor.loss_us.p50", "us"),
    ("tensor.loss_us.p99", "us"),
    ("tensor.loss_us.n", "count"),
    ("core.gavg_us.p50", "us"),
    ("core.gavg_us.p99", "us"),
    ("core.gavg_us.n", "count"),
    ("core.policy_us.p50", "us"),
    ("core.policy_us.p99", "us"),
    ("core.policy_us.n", "count"),
    ("core.eval_ms.p50", "ms"),
    ("core.eval_ms.p99", "ms"),
    ("core.eval_ms.n", "count"),
    ("optim.step_ms.p50", "ms"),
    ("optim.step_ms.p99", "ms"),
    ("optim.step_ms.n", "count"),
    ("energy.record_us.p50", "us"),
    ("energy.record_us.p99", "us"),
    ("energy.record_us.n", "count"),
    ("nn.fwd_gmacs_per_s", "GMAC/s"),
    ("nn.bwd_gmacs_per_s", "GMAC/s"),
    ("quant.update_effective_ratio", "ratio"),
    ("model.mean_bits", "bits"),
    ("energy.compute_pj_per_step", "pJ"),
    ("energy.memory_pj_per_step", "pJ"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    // Training outcomes (train_apt and train_dist).
    ("core.time_to_acc_s", "s"),
    ("core.epochs_to_acc", "count"),
    ("core.final_acc", "ratio"),
    ("energy.total_uj", "uJ"),
    // apt-dist and the GradCodec of apt-quant (train_dist).
    ("dist.step_ms", "ms"),
    ("dist.compute_step_ms", "ms"),
    ("dist.exchange_ms_per_step", "ms"),
    ("dist.scaling_x", "x"),
    ("dist.wire_bytes_per_step", "B"),
    ("dist.wire_ratio", "ratio"),
    ("dist.digest_checks", "count"),
    ("quant.codec_encode_ns_per_elem", "ns"),
    ("quant.codec_decode_ns_per_elem", "ns"),
    // apt-serve and the frozen plan of apt-nn (serve_open).
    ("serve.session_us_per_sample.b1", "us"),
    ("serve.session_us_per_sample.b8", "us"),
    ("nn.plan_packed_panels", "count"),
    ("serve.lane_int", "bool"),
    ("serve.max_rps", "1/s"),
    ("serve.lat_p50_us.low", "us"),
    ("serve.lat_p99_us.low", "us"),
    ("serve.lat_p50_us.high", "us"),
    ("serve.lat_p99_us.high", "us"),
    ("serve.lat_n.low", "count"),
    ("serve.lat_n.high", "count"),
    ("serve.server_p50_us.low", "us"),
    ("serve.server_p50_us.high", "us"),
    ("serve.transport_us.low", "us"),
    ("serve.transport_us.high", "us"),
    ("serve.mean_batch.low", "count"),
    ("serve.mean_batch.high", "count"),
    ("serve.gen_lag_us_p99.low", "us"),
    ("serve.gen_lag_us_p99.high", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
];

/// Collected metric values plus the correctness tally of one run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records one correctness check; a failing one is described in the notes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "train_apt" | "serve_open" | "train_dist" => workload = Some(value),
                other => return Err(format!("unknown workload `{other}`").into()),
            },
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`").into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// First line of a command's output, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) -> String {
    let nproc = command_line("nproc", &[]);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "# provenance workload={} seed={} seconds={} trace={} git_sha={} nproc={} \
         available_parallelism={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "HEAD"]),
        nproc,
        parallelism,
        command_line("rustc", &["--version"]),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let budget = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "train_apt" => train::run(args.seed, budget, args.trace),
        "serve_open" => serve::run(args.seed, budget, args.trace),
        _ => dist::run(args.seed, budget, args.trace),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let undeclared: Vec<&String> = out
        .metrics
        .keys()
        .filter(|k| !table.iter().any(|(name, _)| name == k))
        .collect();
    assert!(undeclared.is_empty(), "undeclared metrics {undeclared:?}");
    let mut fields = Vec::with_capacity(table.len());
    let mut lines = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        // JSON has no NaN or infinity, and no end-to-end metric can be 0:
        // either is a bug, and a non-finite value is printed as 0.
        let finite = value.is_finite();
        out.check(finite && (args.trace || value > 0.0), || {
            format!("{name} is {value}")
        });
        let value = if finite { value } else { 0.0 };
        lines.push(format!("# {name:<36} {value:>16.4} {unit}"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for line in &lines {
        println!("{line}");
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
