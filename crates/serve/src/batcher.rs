//! Work-conserving micro-batching with admission control.
//!
//! Single-sample requests land on a **bounded** MPSC queue. A dedicated
//! worker thread pops the first request, adds whatever is *already* queued
//! behind it, up to [`BatchPolicy::max_batch`], and runs the batch at once.
//! It never waits for co-batchees: a lone request is served immediately,
//! and batches grow only while requests arrive faster than the worker
//! drains them. The batch runs once through the frozen
//! [`InferenceSession`] and each requester gets its own output row back as
//! a [`Completion`] on the reactor's channel.
//!
//! Backpressure is typed, not implicit: a full queue sheds the request
//! with [`ServeError::Overloaded`] instead of queueing unboundedly, and a
//! draining runtime answers [`ServeError::ShuttingDown`]. Shutdown is
//! graceful — everything already admitted is executed before the worker
//! exits.
//!
//! **Fleet routing**: every job carries the [`InferenceSession`] it was
//! resolved against at admission time, so one worker serves many models.
//! A coalesced batch is partitioned by plan identity (the `Arc` pointer of
//! the session's [`FrozenPlan`]) before execution — requests resolved
//! against an old plan finish on that old plan even if a hot-swap
//! published a new one mid-flight, which is exactly the drain guarantee
//! the registry's `Arc`-swap relies on.

use crate::{InferenceSession, ServeError, ServeStats, StatsSnapshot};
use apt_nn::FrozenPlan;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// The batch-coalescing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch the worker coalesces from already-queued requests.
    pub max_batch: usize,
    /// Bound of the admission queue; requests beyond it are shed.
    pub queue_depth: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            queue_depth: 128,
        }
    }
}

impl BatchPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for zero `max_batch` or
    /// `queue_depth`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 || self.queue_depth == 0 {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "batch policy needs max_batch ≥ 1 and queue_depth ≥ 1, got {self:?}"
                ),
            });
        }
        Ok(())
    }
}

/// Where a finished (or shed) request's result goes: a [`Completion`]
/// tagged with the connection token and per-connection sequence number on
/// the reactor's shared channel, so the reactor never blocks on inference.
#[derive(Debug)]
struct Reply {
    conn: u64,
    seq: u64,
    tx: mpsc::Sender<Completion>,
}

impl Reply {
    /// Completions carry the *encoded* response payload so the
    /// serialisation cost lands on the worker thread, not the reactor. A
    /// hung-up reactor is not an error; the result is dropped.
    fn send(self, result: Result<Vec<f32>, ServeError>) {
        let result = result.map(|row| crate::protocol::encode_f32s(&row));
        let _ = self.tx.send(Completion {
            conn: self.conn,
            seq: self.seq,
            result,
        });
    }
}

/// One finished request routed back to the event loop.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Connection token assigned by the reactor at accept time.
    pub conn: u64,
    /// Per-connection request sequence number.
    pub seq: u64,
    /// The encoded response payload (or a typed shed/failure). Inference
    /// completions carry `encode_f32s` bytes; out-of-band completions
    /// (e.g. reload reports) carry their own payload.
    pub result: Result<Vec<u8>, ServeError>,
}

/// One admitted request: the flat sample, the plan it was resolved
/// against, its enqueue time (for the latency histogram), an optional
/// absolute deadline, and where the result goes.
struct Job {
    sample: Vec<f32>,
    session: InferenceSession,
    enqueued: Instant,
    deadline: Option<Instant>,
    resp: Reply,
}

impl Job {
    /// `true` once the job's deadline has passed — such work is shed
    /// *before* inference, not run and discarded after.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// How often the idle worker wakes to check the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// The micro-batching runtime: owns the worker thread and the queue.
/// Request submission goes through [`BatcherHandle`]s.
#[derive(Debug)]
pub(crate) struct MicroBatcher {
    tx: mpsc::SyncSender<Job>,
    stats: Arc<ServeStats>,
    draining: Arc<AtomicBool>,
    queue_depth: usize,
    worker: Option<thread::JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the batching worker, recording into a shared stats collector
    /// so the registry, server, and batcher report as one fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an invalid policy.
    pub(crate) fn spawn(policy: &BatchPolicy, stats: Arc<ServeStats>) -> Result<Self, ServeError> {
        policy.validate()?;
        let (tx, rx) = mpsc::sync_channel::<Job>(policy.queue_depth);
        let draining = Arc::new(AtomicBool::new(false));
        let worker = {
            let stats = Arc::clone(&stats);
            let draining = Arc::clone(&draining);
            let max_batch = policy.max_batch;
            thread::spawn(move || worker_loop(&rx, &stats, &draining, max_batch))
        };
        Ok(MicroBatcher {
            tx,
            stats,
            draining,
            queue_depth: policy.queue_depth,
            worker: Some(worker),
        })
    }

    /// A submission handle.
    pub(crate) fn handle(&self) -> BatcherHandle {
        BatcherHandle {
            tx: self.tx.clone(),
            stats: Arc::clone(&self.stats),
            draining: Arc::clone(&self.draining),
            queue_depth: self.queue_depth,
        }
    }

    /// Snapshot of the serving counters.
    pub(crate) fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Graceful drain: stop admitting, execute everything already queued,
    /// then join the worker. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The request-submission side of a [`MicroBatcher`].
#[derive(Debug)]
pub(crate) struct BatcherHandle {
    tx: mpsc::SyncSender<Job>,
    stats: Arc<ServeStats>,
    draining: Arc<AtomicBool>,
    queue_depth: usize,
}

impl BatcherHandle {
    /// Non-blocking submission for the event-loop front-end: the request
    /// runs on `session` (resolved against the registry at admission
    /// time), carries an optional absolute `deadline` past which it is
    /// shed with [`ServeError::DeadlineExceeded`] instead of run, and its
    /// result comes back as a [`Completion`] on `tx`, tagged `(conn, seq)`.
    ///
    /// # Errors
    ///
    /// Admission failures ([`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`]) are returned synchronously — in that
    /// case **no** completion will arrive for this `(conn, seq)`.
    pub(crate) fn submit_event(
        &self,
        session: InferenceSession,
        sample: Vec<f32>,
        deadline: Option<Instant>,
        conn: u64,
        seq: u64,
        tx: mpsc::Sender<Completion>,
    ) -> Result<(), ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let job = Job {
            sample,
            session,
            enqueued: Instant::now(),
            deadline,
            resp: Reply { conn, seq, tx },
        };
        match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(_)) => {
                self.stats.record_shed();
                Err(ServeError::Overloaded {
                    queue_depth: self.queue_depth,
                })
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }
}

/// The worker: coalesce → execute → respond, until drained.
fn worker_loop(
    rx: &mpsc::Receiver<Job>,
    stats: &ServeStats,
    draining: &AtomicBool,
    max_batch: usize,
) {
    loop {
        let first = match rx.recv_timeout(IDLE_POLL) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if draining.load(Ordering::SeqCst) {
                    // Admission is closed; whatever try_recv still sees
                    // was accepted before the flag flipped. Execute it.
                    drain_remaining(rx, stats, max_batch);
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        // An already-expired head is shed without coalescing a batch.
        if first.expired(Instant::now()) {
            shed_expired(first, stats);
            continue;
        }
        let batch = coalesce(rx, first, max_batch);
        let live = shed_expired_jobs(batch, stats);
        if !live.is_empty() {
            run_batches(stats, live);
        }
    }
}

/// Answers one expired job with a typed deadline error; inference never
/// runs for it.
fn shed_expired(job: Job, stats: &ServeStats) {
    stats.record_deadline_expired();
    let waited_us = job.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    job.resp
        .send(Err(ServeError::DeadlineExceeded { waited_us }));
}

/// Splits a batch into live jobs (returned) and expired ones (answered
/// with typed errors immediately).
fn shed_expired_jobs(jobs: Vec<Job>, stats: &ServeStats) -> Vec<Job> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.expired(now) {
            shed_expired(job, stats);
        } else {
            live.push(job);
        }
    }
    live
}

/// Work-conserving coalescing: `first` plus the jobs already queued
/// behind it, up to `max_batch`. Never waits for more to arrive.
fn coalesce(rx: &mpsc::Receiver<Job>, first: Job, max_batch: usize) -> Vec<Job> {
    let mut jobs = vec![first];
    jobs.extend(rx.try_iter().take(max_batch - 1));
    jobs
}

/// Executes everything still in the queue as final batches.
fn drain_remaining(rx: &mpsc::Receiver<Job>, stats: &ServeStats, max_batch: usize) {
    let mut jobs = Vec::new();
    while let Ok(job) = rx.try_recv() {
        // Deadlines hold during drain too: expired queued work gets a
        // typed error, not a hang and not a post-deadline answer.
        if job.expired(Instant::now()) {
            shed_expired(job, stats);
            continue;
        }
        jobs.push(job);
        if jobs.len() == max_batch {
            run_batches(stats, std::mem::take(&mut jobs));
        }
    }
    if !jobs.is_empty() {
        run_batches(stats, jobs);
    }
}

/// Partitions a coalesced batch by plan identity (the `Arc` pointer of
/// each job's [`FrozenPlan`]) and executes one sub-batch per plan,
/// preserving submission order within each plan. In the common
/// single-model case this is one group and zero extra copies.
fn run_batches(stats: &ServeStats, jobs: Vec<Job>) {
    let mut groups: Vec<(*const FrozenPlan, Vec<Job>)> = Vec::new();
    for job in jobs {
        let key = Arc::as_ptr(job.session.plan());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    for (_, group) in groups {
        run_batch(stats, group);
    }
}

/// Runs one same-plan batch and distributes per-row results. Input vectors
/// are recycled through the session arena after staging.
fn run_batch(stats: &ServeStats, jobs: Vec<Job>) {
    stats.record_batch(jobs.len());
    let session = jobs[0].session.clone();
    let mut samples = Vec::with_capacity(jobs.len());
    let mut waiters = Vec::with_capacity(jobs.len());
    for job in jobs {
        samples.push(job.sample);
        waiters.push((job.enqueued, job.resp));
    }
    match session.infer_samples(&samples) {
        Ok(rows) => {
            for ((enqueued, resp), row) in waiters.into_iter().zip(rows) {
                let latency_us = enqueued.elapsed().as_micros().min(u128::from(u64::MAX));
                stats.record_completed(latency_us as u64);
                resp.send(Ok(row));
            }
        }
        Err(e) => {
            for (_, resp) in waiters {
                stats.record_error();
                resp.send(Err(e.duplicate()));
            }
        }
    }
    for sample in samples {
        session.arena().put(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelArch, ModelSpec};
    use apt_nn::checkpoint;
    use std::sync::Barrier;

    fn session() -> InferenceSession {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![5, 8, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        };
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        InferenceSession::from_checkpoint(&spec, &blob).unwrap()
    }

    fn batcher(policy: &BatchPolicy) -> MicroBatcher {
        MicroBatcher::spawn(policy, Arc::new(ServeStats::default())).unwrap()
    }

    /// A job on `session` whose sample is all 0.7, answered on `tx`.
    fn job(session: &InferenceSession, seq: u64, tx: &mpsc::Sender<Completion>) -> Job {
        Job {
            sample: vec![0.7; session.sample_len()],
            session: session.clone(),
            enqueued: Instant::now(),
            deadline: None,
            resp: Reply {
                conn: 1,
                seq,
                tx: tx.clone(),
            },
        }
    }

    /// Submits one sample the way the reactor does and waits on its
    /// completion channel, decoding the output row. A completion sender
    /// dropped unanswered (worker teardown) reads as `ShuttingDown`.
    fn infer(
        h: &BatcherHandle,
        session: &InferenceSession,
        sample: Vec<f32>,
        deadline: Option<Instant>,
    ) -> Result<Vec<f32>, ServeError> {
        let (tx, rx) = mpsc::channel();
        h.submit_event(session.clone(), sample, deadline, 0, 0, tx)?;
        let done = rx.recv().map_err(|_| ServeError::ShuttingDown)?;
        crate::protocol::decode_f32s(&done.result?)
    }

    #[test]
    fn single_request_round_trip() {
        let s = session();
        let want = s.infer_one(&[0.3; 5]).unwrap();
        let batcher = batcher(&BatchPolicy::default());
        let got = infer(&batcher.handle(), &s, vec![0.3; 5], None).unwrap();
        assert_eq!(got, want);
        let snap = batcher.stats();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn coalesce_takes_only_what_is_already_queued() {
        let s = session();
        let (done, _done_rx) = mpsc::channel();
        let (tx, rx) = mpsc::sync_channel(16);
        for (queued, max_batch) in [(0, 4), (2, 4), (3, 4), (7, 4), (5, 1)] {
            for seq in 0..queued {
                tx.send(job(&s, seq, &done)).unwrap();
            }
            // `tx` stays live, so a waiting coalescer would block here.
            let batch = coalesce(&rx, job(&s, u64::MAX, &done), max_batch);
            let want = (queued as usize + 1).min(max_batch);
            assert_eq!(batch.len(), want, "{queued} queued, max_batch {max_batch}");
            let seqs: Vec<u64> = batch.iter().map(|j| j.resp.seq).collect();
            let mut expect = vec![u64::MAX];
            expect.extend(0..want as u64 - 1);
            assert_eq!(seqs, expect, "head first, then queue order");
            assert_eq!(rx.try_iter().count(), queued as usize + 1 - want);
        }
    }

    #[test]
    fn concurrent_requests_batch_and_match_single_sample() {
        let s = session();
        let policy = BatchPolicy {
            max_batch: 4,
            queue_depth: 64,
        };
        let batcher = batcher(&policy);
        const N: usize = 12;
        let start = Arc::new(Barrier::new(N));
        let mut threads = Vec::new();
        for t in 0..N {
            let h = batcher.handle();
            let s = s.clone();
            let start = Arc::clone(&start);
            threads.push(thread::spawn(move || {
                let sample = vec![t as f32 * 0.1; 5];
                start.wait();
                let got = infer(&h, &s, sample.clone(), None).unwrap();
                let want = s.infer_one(&sample).unwrap();
                assert_eq!(got, want, "batched result must be bit-identical");
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let snap = batcher.stats();
        assert_eq!(snap.completed, 12);
        assert!(
            snap.batches < 12,
            "some coalescing expected, got {} batches",
            snap.batches
        );
        assert!(snap.batch_hist.iter().all(|&(size, _)| size <= 4));
    }

    #[test]
    fn wrong_length_sample_fails_typed() {
        let batcher = batcher(&BatchPolicy::default());
        let err = infer(&batcher.handle(), &session(), vec![1.0; 3], None).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }), "{err}");
        assert_eq!(batcher.stats().errors, 1);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let mut batcher = batcher(&BatchPolicy::default());
        let h = batcher.handle();
        batcher.shutdown();
        let (tx, rx) = mpsc::channel();
        assert!(matches!(
            h.submit_event(session(), vec![0.0; 5], None, 0, 0, tx),
            Err(ServeError::ShuttingDown)
        ));
        assert!(rx.recv().is_err(), "a refused request gets no completion");
    }

    #[test]
    fn expired_deadline_is_shed_before_inference() {
        let s = session();
        let batcher = batcher(&BatchPolicy::default());
        let h = batcher.handle();
        let past = Instant::now() - Duration::from_millis(5);
        match infer(&h, &s, vec![0.2; 5], Some(past)) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snap = batcher.stats();
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.completed, 0, "expired work must never run");
        // A live deadline still gets a real answer.
        let future = Instant::now() + Duration::from_secs(30);
        assert!(infer(&h, &s, vec![0.2; 5], Some(future)).is_ok());
        assert_eq!(batcher.stats().completed, 1);
    }

    /// Drain contract: every request admitted before shutdown gets exactly
    /// one response — in-flight work completes bit-exactly, queued-but-
    /// expired work gets a typed deadline error, and nothing hangs, is
    /// lost, or is answered twice.
    #[test]
    fn drain_completes_inflight_and_sheds_expired() {
        let s = session();
        let policy = BatchPolicy {
            max_batch: 4,
            queue_depth: 64,
        };
        let mut batcher = batcher(&policy);
        const N: usize = 24;
        let mut threads = Vec::new();
        for t in 0..N {
            let h = batcher.handle();
            let s = s.clone();
            // Odd requests carry a 10ms deadline that may or may not pass
            // before the worker reaches them; either way the answer must
            // be typed.
            let deadline = (t % 2 == 1).then(|| Instant::now() + Duration::from_millis(10));
            threads.push(thread::spawn(move || {
                let sample = vec![t as f32 * 0.05; 5];
                let result = infer(&h, &s, sample.clone(), deadline);
                let want = s.infer_one(&sample).unwrap();
                (result, want)
            }));
        }
        // Begin drain while the queue is still full.
        thread::sleep(Duration::from_millis(5));
        batcher.shutdown();

        let mut ok = 0u64;
        let mut expired = 0u64;
        let mut shed = 0u64;
        for t in threads {
            match t.join().unwrap() {
                (Ok(row), want) => {
                    assert_eq!(row, want, "drained response must stay bit-exact");
                    ok += 1;
                }
                (Err(ServeError::DeadlineExceeded { .. }), _) => expired += 1,
                (Err(ServeError::Overloaded { .. }), _) => shed += 1,
                (Err(ServeError::ShuttingDown), _) => shed += 1,
                (Err(e), _) => panic!("untyped drain failure: {e}"),
            }
        }
        assert_eq!(ok + expired + shed, N as u64, "every request answered once");
        assert!(ok >= 1, "some admitted work must have completed");
        let snap = batcher.stats();
        assert_eq!(snap.completed, ok, "no duplicated or lost completions");
        assert_eq!(snap.deadline_expired, expired);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy {
            max_batch: 0,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            queue_depth: 0,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy::default().validate().is_ok());
    }

    #[test]
    fn mixed_plan_batch_splits_and_stays_exact() {
        // Two distinct plans with identical geometry but different weights:
        // interleaved submissions must each run on the plan they were
        // resolved against, even when coalesced into one batch.
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![5, 8, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        };
        let make = |seed: u64| {
            let mut net = apt_nn::models::mlp(
                "mlp",
                &[5, 8, 3],
                &apt_nn::QuantScheme::paper_apt(),
                &mut apt_tensor::rng::seeded(seed),
            )
            .unwrap();
            let blob = checkpoint::save_full(&mut net);
            InferenceSession::from_checkpoint(&spec, &blob).unwrap()
        };
        let a = make(11);
        let b = make(22);
        let sample = vec![0.7; 5];
        let want_a = a.infer_one(&sample).unwrap();
        let want_b = b.infer_one(&sample).unwrap();
        assert_ne!(want_a, want_b, "plans must actually differ");

        let policy = BatchPolicy {
            max_batch: 16,
            queue_depth: 64,
        };
        let batcher = batcher(&policy);
        let h = batcher.handle();
        let (tx, rx) = mpsc::channel();
        const N: u64 = 10;
        for seq in 0..N {
            let session = if seq % 2 == 0 { a.clone() } else { b.clone() };
            h.submit_event(session, sample.clone(), None, 1, seq, tx.clone())
                .unwrap();
        }
        let check = |rx: &mpsc::Receiver<Completion>| {
            for _ in 0..N {
                let c = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                let payload = c.result.expect("no typed failures expected");
                let row = crate::protocol::decode_f32s(&payload).unwrap();
                let want = [&want_a, &want_b][(c.seq % 2) as usize];
                assert_eq!(&row, want, "seq {} answered by the wrong plan", c.seq);
            }
        };
        check(&rx);
        assert_eq!(batcher.stats().completed, N);

        // Whatever the worker happened to coalesce above, one interleaved
        // batch runs as exactly one sub-batch per plan.
        let stats = ServeStats::default();
        let jobs = (0..N)
            .map(|seq| job(if seq % 2 == 0 { &a } else { &b }, seq, &tx))
            .collect();
        run_batches(&stats, jobs);
        check(&rx);
        assert_eq!(stats.snapshot().batches, 2);
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        // A policy that admits one queued request at a time and runs one
        // per batch, so 16 concurrent callers overrun the queue.
        let policy = BatchPolicy {
            max_batch: 1,
            queue_depth: 1,
        };
        let batcher = batcher(&policy);
        let s = session();
        let mut threads = Vec::new();
        for _ in 0..16 {
            let h = batcher.handle();
            let s = s.clone();
            threads.push(thread::spawn(move || {
                infer(&h, &s, vec![0.5; 5], None).map(|_| ())
            }));
        }
        let results: Vec<Result<(), ServeError>> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
            .count();
        assert_eq!(ok + shed, 16, "only Ok or Overloaded allowed: {results:?}");
        assert!(ok >= 1);
        let snap = batcher.stats();
        assert_eq!(snap.completed as usize, ok);
        assert_eq!(snap.shed as usize, shed);
    }
}
