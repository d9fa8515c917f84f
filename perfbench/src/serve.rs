//! `serve_open`: single-sample requests against a running `Server` that
//! serves a frozen 4-bit CifarNet (width 0.25, 12×12) with the int-gemm
//! lane requested, the default batch policy and the compute pool at 1
//! thread.
//!
//! In an open-loop phase, two generator threads each own one pipelined TCP
//! connection, written with the public `protocol` framing, and sleep until
//! each request's due time on a seeded Poisson schedule; a reader thread
//! per connection times every response from that due time. In a
//! closed-loop phase, one connection keeps eight requests outstanding.
//! Every response is checked against the in-process output of the same
//! session for that sample.

use crate::stats::{median, quantile};
use crate::{Outcome, Result};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_nn::{checkpoint, models, KernelLane, Mode, QuantScheme};
use apt_quant::Bitwidth;
use apt_serve::protocol::{self, OP_INFER, STATUS_OK};
use apt_serve::{InferenceSession, ModelArch, ModelSpec, Server, ServerConfig, StatsSnapshot};
use apt_tensor::{par, rng, Tensor};
use rand::Rng;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

const CLASSES: usize = 10;
const IMG: usize = 12;
const WIDTH: f32 = 0.25;
const BITS: u32 = 4;
/// Distinct request samples (the training split of a 10-class SynthCifar).
const PER_CLASS: usize = 40;
const CONNS: usize = 2;
/// The most frames a generator writes at once, so a lagging generator
/// stays small (the server's default per-connection pipeline cap).
const PIPELINE: usize = 32;
/// The fixed `low` and `high` offered rates, requests per second.
const LOW_RPS: f64 = 250.0;
const HIGH_RPS: f64 = 4000.0;
/// Requests per fixed-rate phase of the traced run: at least 10 beyond
/// every p99.
const LOW_REQUESTS: usize = 1200;
const HIGH_REQUESTS: usize = 8000;
/// Requests per low-rate round of the untraced run; closed-loop phases per
/// round, and seconds per closed-loop phase. Each phase starts a fresh
/// server.
const LOW_ROUND: usize = 300;
const CLOSED_PER_ROUND: u64 = 4;
const CLOSED_SECS: f64 = 0.5;
/// Requests outstanding in the closed loop: eight callers that each wait
/// for their reply, on one pipelined connection (the default max_batch).
const CLOSED_WINDOW: usize = 8;
/// The `max_rps` ladder: 4000 · 2^(k/4) requests per second for k = 0..=12
/// (4000 to 32000), and the p99 limit, from the due time, a rung must meet.
const LADDER_BASE: f64 = 4000.0;
const LADDER_RUNGS: i32 = 13;
const P99_LIMIT_US: f64 = 50_000.0;
/// Each rung offers this many seconds of traffic, and at least 1000
/// requests so its p99 has 10 samples beyond it.
const RUNG_SECS: f64 = 1.0;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Logit closeness to `Network::forward(Mode::Eval)`: every element within
/// this share of the largest reference logit magnitude (floored at 1).
const ROWS_CLOSE_REL: f32 = 0.06;

fn spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: CLASSES,
        img_size: IMG,
        width_mult: WIDTH,
    }
}

struct Setup {
    samples: Vec<Vec<f32>>,
    blob: Vec<u8>,
    session: InferenceSession,
    server: Server,
}

/// Set-up: data generation, model build, checkpoint save and load, freeze,
/// and server start.
fn setup(seed: u64) -> Result<Setup> {
    let data = SynthCifar::generate(&SynthCifarConfig::cifar10_like(PER_CLASS, IMG, seed))?;
    let samples: Vec<Vec<f32>> = (0..data.train.len())
        .map(|i| data.train.image(i).data().to_vec())
        .collect();
    let scheme = QuantScheme::fully_quantized(Bitwidth::new(BITS)?);
    let mut net = models::cifarnet(CLASSES, IMG, WIDTH, &scheme, &mut rng::seeded(seed ^ 0x5E))?;
    let blob = checkpoint::save_full(&mut net);
    let session = InferenceSession::from_checkpoint_with_lane(&spec(), &blob, KernelLane::IntGemm)?;
    let server = start(&session)?;
    Ok(Setup {
        samples,
        blob,
        session,
        server,
    })
}

fn start(session: &InferenceSession) -> Result<Server> {
    Ok(Server::start(
        session.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            model_name: "cifarnet-k4".into(),
            ..ServerConfig::default()
        },
    )?)
}

/// The encoded `STATUS_OK` payload the server must send for each sample:
/// the session's own in-process output, one sample at a time.
fn expected_payloads(session: &InferenceSession, samples: &[Vec<f32>]) -> Result<Vec<Vec<u8>>> {
    let dims = [1, 3, IMG, IMG];
    samples
        .iter()
        .map(|s| {
            let out = session.infer_batch(&Tensor::from_vec(s.clone(), &dims)?)?;
            Ok(protocol::encode_f32s(out.data()))
        })
        .collect()
}

/// Checks the session against the trainable network's eval forward.
fn check_rows_close(out: &mut Outcome, s: &Setup) -> Result<()> {
    let mut net = spec().build()?;
    checkpoint::load(&mut net, &s.blob)?;
    for chunk in s.samples.chunks(32) {
        let flat: Vec<f32> = chunk.iter().flatten().copied().collect();
        let batch = Tensor::from_vec(flat, &[chunk.len(), 3, IMG, IMG])?;
        let want = net.forward(&batch, Mode::Eval)?;
        let got = s.session.infer_batch(&batch)?;
        let scale = want.data().iter().fold(1.0f32, |a, v| a.max(v.abs()));
        let close = got.data().len() == want.data().len()
            && got
                .data()
                .iter()
                .zip(want.data())
                .all(|(g, w)| g.is_finite() && (g - w).abs() <= ROWS_CLOSE_REL * scale);
        out.check(close, || {
            "session output is not rows-close to Network::forward(Eval)".into()
        });
    }
    Ok(())
}

/// What one open-loop phase measured.
struct Phase {
    /// Latency of each response from its request's due time, µs.
    latency_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    lag_us: Vec<f64>,
    /// Responses that were missing, not OK, or not the expected output.
    bad: u64,
    requests: usize,
    stats: StatsSnapshot,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    /// A rung is sustainable when every response was right, the p99 meets
    /// the limit and the last tenth of requests still meets it too (no
    /// growing backlog).
    fn sustainable(&self) -> bool {
        let tail = &self.latency_us[self.latency_us.len() * 9 / 10..];
        self.bad == 0 && self.p(0.99) <= P99_LIMIT_US && median(tail) <= P99_LIMIT_US
    }
}

/// Offers `requests` single-sample requests at `rate` per second over
/// [`CONNS`] connections to a fresh server for the session.
fn phase(
    session: &InferenceSession,
    expected: &[Vec<u8>],
    frames: &[Vec<u8>],
    rate: f64,
    requests: usize,
    seed: u64,
) -> Result<Phase> {
    let mut server = start(session)?;
    let addr = server.addr();
    let per_conn = requests.div_ceil(CONNS);
    let mut r = rng::seeded(seed);
    // Seeded Poisson arrivals: exponential gaps at rate/CONNS per link.
    let plans: Vec<Vec<(Duration, usize)>> = (0..CONNS)
        .map(|_| {
            let mut t = 0.0f64;
            (0..per_conn)
                .map(|_| {
                    t += -(1.0 - r.gen::<f64>()).ln() / (rate / CONNS as f64);
                    (Duration::from_secs_f64(t), r.gen_range(0..frames.len()))
                })
                .collect()
        })
        .collect();
    let streams = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            Ok(s)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase {
        latency_us: Vec::with_capacity(requests),
        lag_us: Vec::with_capacity(requests),
        bad: 0,
        requests: CONNS * per_conn,
        stats: server.stats(),
    };
    thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::new();
        for (stream, plan) in streams.into_iter().zip(&plans) {
            let mut writer = stream.try_clone()?;
            let generator = scope.spawn(move || -> std::io::Result<Vec<f64>> {
                let mut lag = Vec::with_capacity(plan.len());
                let mut buf = Vec::new();
                let mut i = 0;
                while i < plan.len() {
                    let due = t0 + plan[i].0;
                    let now = Instant::now();
                    if now < due {
                        thread::sleep(due - now);
                        continue;
                    }
                    // Send what is already due in one write, at most a
                    // pipeline's worth so a lagging generator stays small.
                    buf.clear();
                    let first = i;
                    while i < plan.len() && i - first < PIPELINE && t0 + plan[i].0 <= now {
                        buf.extend_from_slice(&frames[plan[i].1]);
                        lag.push((now - (t0 + plan[i].0)).as_secs_f64() * 1e6);
                        i += 1;
                    }
                    writer.write_all(&buf)?;
                }
                Ok(lag)
            });
            let reader = scope.spawn(move || -> (Vec<f64>, u64) {
                let mut lat = Vec::with_capacity(plan.len());
                let mut bad = 0u64;
                let mut rd = BufReader::new(stream);
                for &(offset, sample) in plan {
                    match protocol::read_frame(&mut rd) {
                        Ok((status, payload)) => {
                            let now = Instant::now();
                            lat.push(
                                now.saturating_duration_since(t0 + offset).as_secs_f64() * 1e6,
                            );
                            if status != STATUS_OK || payload != expected[sample] {
                                bad += 1;
                            }
                        }
                        Err(_) => {
                            bad += (plan.len() - lat.len()) as u64;
                            break;
                        }
                    }
                }
                (lat, bad)
            });
            handles.push((generator, reader));
        }
        for (generator, reader) in handles {
            let lag = generator.join().map_err(|_| "generator panicked")??;
            let (lat, bad) = reader.join().map_err(|_| "reader panicked")?;
            phase.lag_us.extend(lag);
            phase.latency_us.extend(lat);
            phase.bad += bad;
        }
        Ok(())
    })?;
    phase.stats = server.stats();
    server.shutdown();
    Ok(phase)
}

/// The highest sustainable rate. Walks up the ladder until a rung fails
/// twice in a row (one retry absorbs a lone host stall), then interpolates,
/// in log rate and log p99, where the p99 crosses the limit between the
/// last sustainable rung and the failing one.
fn max_rps(
    out: &mut Outcome,
    session: &InferenceSession,
    expected: &[Vec<u8>],
    frames: &[Vec<u8>],
    seed: u64,
) -> Result<f64> {
    let mut last: Option<(f64, f64)> = None;
    for k in 0..LADDER_RUNGS {
        let rate = LADDER_BASE * 2f64.powf(f64::from(k) / 4.0);
        let n = ((rate * RUNG_SECS) as usize).max(1000);
        let mut best_p99 = f64::INFINITY;
        let mut passed = false;
        for attempt in 0..2u64 {
            let p = phase(
                session,
                expected,
                frames,
                rate,
                n,
                seed ^ (k as u64 * 2 + attempt + 1),
            )?;
            // Above capacity a rung may answer late, never wrongly.
            count(out, &p);
            let p99 = p.p(0.99);
            out.note(format!(
                "rung {rate:>6.0}/s: p50 {:>6.0} us p99 {p99:>7.0} us tail p50 {:>7.0} us",
                p.p(0.5),
                median(&p.latency_us[p.latency_us.len() * 9 / 10..])
            ));
            best_p99 = best_p99.min(p99);
            if p.sustainable() {
                passed = true;
                break;
            }
        }
        if passed {
            last = Some((rate, best_p99));
            continue;
        }
        let Some((r0, q0)) = last else {
            out.note("the lowest ladder rung is not sustainable".into());
            return Ok(rate * P99_LIMIT_US / best_p99.max(P99_LIMIT_US));
        };
        let q1 = best_p99.max(P99_LIMIT_US * 1.0001);
        let f = (P99_LIMIT_US / q0).ln() / (q1 / q0).ln();
        return Ok((r0.ln() + f.clamp(0.0, 1.0) * (rate / r0).ln()).exp());
    }
    out.note("every ladder rung was sustainable: max_rps is the top rung".into());
    Ok(LADDER_BASE * 2f64.powf(f64::from(LADDER_RUNGS - 1) / 4.0))
}

fn count(out: &mut Outcome, p: &Phase) {
    out.attempted += p.requests as u64;
    out.failed += p.bad;
    if p.bad > 0 {
        out.note(format!(
            "FAILED: {} of {} responses wrong or missing",
            p.bad, p.requests
        ));
    }
}

/// A closed loop: one connection keeps [`CLOSED_WINDOW`] requests
/// outstanding for `secs`, sending the next as each reply arrives. Returns
/// the requests completed and the wall seconds.
fn closed_loop(
    out: &mut Outcome,
    session: &InferenceSession,
    expected: &[Vec<u8>],
    frames: &[Vec<u8>],
    secs: f64,
    seed: u64,
) -> Result<(u64, f64)> {
    let mut server = start(session)?;
    let mut r = rng::seeded(seed);
    let stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    let mut rd = BufReader::new(stream);
    let mut outstanding = std::collections::VecDeque::with_capacity(CLOSED_WINDOW);
    let (mut done, mut bad) = (0u64, 0u64);
    let start_at = Instant::now();
    let stop_at = start_at + Duration::from_secs_f64(secs);
    for _ in 0..CLOSED_WINDOW {
        let k = r.gen_range(0..frames.len());
        writer.write_all(&frames[k])?;
        outstanding.push_back(k);
    }
    while let Some(k) = outstanding.pop_front() {
        match protocol::read_frame(&mut rd) {
            Ok((status, payload)) => {
                done += 1;
                bad += u64::from(status != STATUS_OK || payload != expected[k]);
            }
            Err(_) => {
                bad += 1 + outstanding.len() as u64;
                break;
            }
        }
        if Instant::now() < stop_at {
            let k = r.gen_range(0..frames.len());
            writer.write_all(&frames[k])?;
            outstanding.push_back(k);
        }
    }
    let wall = start_at.elapsed().as_secs_f64();
    server.shutdown();
    out.attempted += done;
    out.failed += bad;
    if bad > 0 {
        out.note(format!(
            "FAILED: {bad} closed-loop responses wrong or missing"
        ));
    }
    Ok((done, wall))
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome> {
    // The reactor and the batch worker already keep both CPUs of the
    // reference host busy. A second pool thread would split every batch
    // across CPUs at the cost of a cross-CPU wake-up per batch, which made
    // throughput swing between 12k and 20k requests/s from run to run.
    par::set_global_threads(1);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fresh = setup(seed)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(mut old) = s.replace(fresh) {
            old.server.shutdown();
        }
    }
    let mut s: Setup = s.expect("at least one set-up");
    s.server.shutdown();
    let expected = expected_payloads(&s.session, &s.samples)?;
    check_rows_close(&mut out, &s)?;
    let frames: Vec<Vec<u8>> = s
        .samples
        .iter()
        .map(|x| protocol::encode_frame(OP_INFER, &protocol::encode_f32s(x)))
        .collect();
    if trace {
        run_traced(&mut out, &s, &expected, &frames, seed)?;
        return Ok(out);
    }
    // Interleave short low-rate rounds and closed-loop phases through the
    // run. The latency is the median round's p50, so a passing host stall
    // moves one round only. The throughput is all closed-loop work over all
    // its time.
    let (mut lows, mut closed) = (Vec::new(), Vec::new());
    let (mut closed_done, mut closed_wall) = (0u64, 0.0f64);
    let start = Instant::now();
    let mut round = 0u64;
    while round < 3 || start.elapsed() < budget.mul_f64(0.8) {
        let p = phase(
            &s.session,
            &expected,
            &frames,
            LOW_RPS,
            LOW_ROUND,
            seed ^ round,
        )?;
        count(&mut out, &p);
        lows.push(p.p(0.5));
        for k in 0..CLOSED_PER_ROUND {
            let (done, wall) = closed_loop(
                &mut out,
                &s.session,
                &expected,
                &frames,
                CLOSED_SECS,
                seed ^ (round * CLOSED_PER_ROUND + k),
            )?;
            closed.push(done as f64 / wall);
            closed_done += done;
            closed_wall += wall;
        }
        round += 1;
    }
    out.note(format!(
        "{round} rounds; low-rate p50 per round (us): {:?}; closed-loop rps per phase: {:?}",
        lows.iter().map(|v| v.round()).collect::<Vec<_>>(),
        closed.iter().map(|v| v.round()).collect::<Vec<_>>()
    ));
    out.set("setup_s", median(&setups));
    out.set("samples_per_s", closed_done as f64 / closed_wall);
    out.set("latency_p50_ms", median(&lows) / 1e3);
    out.set("model_kib", s.session.resident_bytes() as f64 / 1024.0);
    Ok(out)
}

fn run_traced(
    out: &mut Outcome,
    s: &Setup,
    expected: &[Vec<u8>],
    frames: &[Vec<u8>],
    seed: u64,
) -> Result<()> {
    let low = phase(&s.session, expected, frames, LOW_RPS, LOW_REQUESTS, seed)?;
    count(out, &low);
    let high = phase(
        &s.session,
        expected,
        frames,
        HIGH_RPS,
        HIGH_REQUESTS,
        seed ^ 0xF00,
    )?;
    count(out, &high);
    let max = max_rps(out, &s.session, expected, frames, seed ^ 0xA11)?;
    out.set("serve.max_rps", max);
    for (rate, p) in [("low", &low), ("high", &high)] {
        out.set(format!("serve.lat_p50_us.{rate}"), p.p(0.5));
        out.set(format!("serve.lat_p99_us.{rate}"), p.p(0.99));
        out.set(format!("serve.lat_n.{rate}"), p.latency_us.len() as f64);
        out.set(format!("serve.server_p50_us.{rate}"), p.stats.p50_us as f64);
        out.set(
            format!("serve.transport_us.{rate}"),
            p.p(0.5) - p.stats.p50_us as f64,
        );
        out.set(format!("serve.mean_batch.{rate}"), p.stats.mean_batch);
        out.set(
            format!("serve.gen_lag_us_p99.{rate}"),
            quantile(&p.lag_us, 0.99),
        );
    }
    out.set("serve.shed", (low.stats.shed + high.stats.shed) as f64);
    out.set(
        "serve.deadline_expired",
        (low.stats.deadline_expired + high.stats.deadline_expired) as f64,
    );
    for (batch, name) in [
        (1usize, "serve.session_us_per_sample.b1"),
        (8, "serve.session_us_per_sample.b8"),
    ] {
        let flat: Vec<f32> = s.samples[..batch].iter().flatten().copied().collect();
        let input = Tensor::from_vec(flat, &[batch, 3, IMG, IMG])?;
        let mut times = Vec::new();
        for _ in 0..(4000 / batch) {
            let t = Instant::now();
            std::hint::black_box(s.session.infer_batch(&input)?);
            times.push(t.elapsed().as_secs_f64());
        }
        out.set(name, median(&times) / batch as f64 * 1e6);
    }
    out.set(
        "nn.plan_packed_panels",
        s.session
            .plan_report()
            .map_or(0.0, |r| r.packed_panels as f64),
    );
    out.set(
        "serve.lane_int",
        f64::from(u8::from(s.session.lane() == KernelLane::IntGemm)),
    );
    Ok(())
}
