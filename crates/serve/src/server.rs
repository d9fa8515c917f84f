//! The std-only, readiness-driven TCP serving front-end.
//!
//! One **reactor thread** owns every connection: the listener and all
//! accepted sockets run in nonblocking mode, and the reactor drives them
//! with a poll loop — accept, flush pending writes, read whatever bytes
//! the kernel has, feed them to each connection's incremental
//! [`protocol::FrameDecoder`], and dispatch complete frames. No thread is
//! ever parked on a single peer, so a slow or hostile client costs one
//! connection-table slot, not a thread.
//!
//! Overload protection is layered and typed:
//!
//! * **Connection limit** — accepts beyond [`ConnLimits::max_connections`]
//!   are answered with a `STATUS_OVERLOADED` refusal frame and closed
//!   (counted as `refused_accept`).
//! * **Idle deadline** — connections with no traffic for
//!   [`ConnLimits::idle_timeout`] are reaped (`idle_reaped`).
//! * **Read/write deadline** — a connection stuck mid-frame (slowloris) or
//!   not draining its responses for [`ConnLimits::read_timeout`] is reaped
//!   (`slow_reaped`).
//! * **Request deadline** — every infer request carries
//!   `now + request_timeout` into the micro-batcher; work still queued
//!   at its deadline is shed with [`ServeError::DeadlineExceeded`]
//!   *before* inference runs.
//! * **Pipelining bound + fairness** — at most
//!   [`ConnLimits::max_pipeline`] in-flight requests per connection, one
//!   bounded read per connection per tick, and a rotating round-robin scan
//!   so no peer can monopolise the loop.
//!
//! Inference itself never runs on the reactor: requests are submitted to
//! the batcher without blocking, and results come back over a completion
//! channel tagged with a connection token and per-connection sequence
//! number, so responses are written strictly in request order.

use crate::batcher::{BatcherHandle, Completion, MicroBatcher};
use crate::protocol::{
    self, FrameDecoder, OP_HEALTH, OP_INFER, OP_INFER_MODEL, OP_RELOAD, OP_STATS,
    STATUS_BAD_REQUEST, STATUS_OK, STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use crate::{
    BatchPolicy, InferenceSession, ModelRegistry, RegistryConfig, ServeError, ServeStats,
    StatsSnapshot,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Connection-plane limits: how much concurrency the front door admits and
/// how patient it is with slow peers. All deadlines are wall-clock.
#[derive(Debug, Clone)]
pub struct ConnLimits {
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// refused with a typed `Overloaded` frame.
    pub max_connections: usize,
    /// A connection with no traffic for this long is closed (`idle_reaped`).
    pub idle_timeout: Duration,
    /// A connection stalled mid-frame, or not draining its responses, for
    /// this long is closed (`slow_reaped`) — the slowloris defence.
    pub read_timeout: Duration,
    /// Deadline attached to every infer request; queued work older than
    /// this is shed before inference ([`ServeError::DeadlineExceeded`]).
    /// Zero disables request deadlines.
    pub request_timeout: Duration,
    /// Most in-flight infer requests one connection may pipeline; further
    /// frames wait in the socket until responses drain.
    pub max_pipeline: usize,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(5),
            max_pipeline: 32,
        }
    }
}

impl ConnLimits {
    /// Validates the limits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for zero `max_connections` or
    /// `max_pipeline`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_connections == 0 || self.max_pipeline == 0 {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "connection limits need max_connections ≥ 1 and max_pipeline ≥ 1, got {self:?}"
                ),
            });
        }
        Ok(())
    }
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` (`:0` picks a free port).
    pub addr: String,
    /// The micro-batching policy behind the socket.
    pub policy: BatchPolicy,
    /// Human-readable model identity reported by the health op.
    pub model_name: String,
    /// Connection-plane limits (connection cap, deadlines, pipelining).
    pub limits: ConnLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            policy: BatchPolicy::default(),
            model_name: "unnamed".to_string(),
            limits: ConnLimits::default(),
        }
    }
}

/// Per-read budget: one bounded read per connection per tick keeps a
/// fire-hose peer from starving the rest of the scan.
const READ_CHUNK: usize = 16 * 1024;
/// Frames dispatched per connection per tick (fairness for op floods).
const FRAMES_PER_TICK: usize = 64;
/// Pending-write backlog past which reads pause (per-connection flow
/// control; responses must drain before more work is admitted).
const OUT_SOFT_CAP: usize = 1024 * 1024;
/// Accepts processed per tick.
const ACCEPTS_PER_TICK: usize = 128;
/// Deadline-sweep cadence.
const SWEEP_EVERY: Duration = Duration::from_millis(20);
/// Shortest idle sleep; doubles per idle tick up to [`IDLE_SLEEP_MAX`].
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(100);
/// Longest idle sleep (bounds wake-up latency for new connections).
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(4);
/// How long a draining server waits for in-flight responses to flush.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

/// A running server. Dropping (or calling [`shutdown`](Server::shutdown))
/// stops accepting, drains in-flight requests, and joins the reactor.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    batcher: MicroBatcher,
    registry: Arc<ModelRegistry>,
    reactor_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Single-model convenience: wraps `session` in a fresh unbounded
    /// [`ModelRegistry`] published under [`ServerConfig::model_name`] and
    /// starts the fleet server on it.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and policy/limit validation errors.
    pub fn start(session: InferenceSession, config: ServerConfig) -> Result<Server, ServeError> {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
        registry.publish(&config.model_name, session)?;
        Server::start_with_registry(registry, config)
    }

    /// Binds the listener, spawns the batcher and the reactor thread over
    /// an existing model fleet, and returns immediately.
    /// [`ServerConfig::model_name`] names the **default model** — the plan
    /// `OP_INFER` requests (which carry no model id) resolve to; it must be
    /// resident at start. Publishing to the registry while the server runs
    /// hot-swaps plans under live traffic.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, policy/limit validation errors, and a
    /// missing default model.
    pub fn start_with_registry(
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        config.limits.validate()?;
        // The default model must be resident at start.
        registry.get(&config.model_name)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = registry.stats_handle();
        let batcher = MicroBatcher::spawn(&config.policy, Arc::clone(&stats))?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor_thread = {
            let ctx = ConnCtx {
                handle: batcher.handle(),
                registry: Arc::clone(&registry),
                default_model: config.model_name,
                stats,
                reload_busy: Arc::new(AtomicBool::new(false)),
            };
            let stop = Arc::clone(&stop);
            let limits = config.limits.clone();
            thread::spawn(move || Reactor::new(listener, ctx, limits, stop).run())
        };
        Ok(Server {
            addr,
            stop,
            batcher,
            registry,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model fleet behind this server. Publishing or ingesting through
    /// it while the server runs performs an atomic hot-swap: requests
    /// resolved after the publish run the new plan, in-flight requests
    /// finish on the old one.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.batcher.stats()
    }

    /// Graceful shutdown: stop accepting, flush responses for everything
    /// already in flight, close every connection, then drain and join the
    /// batcher. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        self.batcher.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything request dispatch needs, owned by the reactor.
#[derive(Debug)]
struct ConnCtx {
    handle: BatcherHandle,
    registry: Arc<ModelRegistry>,
    /// The model `OP_INFER` (no model id on the wire) resolves to.
    default_model: String,
    stats: Arc<ServeStats>,
    /// At most one directory rescan runs at a time; concurrent `OP_RELOAD`
    /// requests are refused typed rather than queued.
    reload_busy: Arc<AtomicBool>,
}

/// Why a connection is being closed (drives the shed taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer closed / I/O error / protocol violation / normal teardown.
    Plain,
    /// Idle deadline expired.
    Idle,
    /// Stalled mid-frame or mid-write past the read deadline.
    Slow,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending outgoing bytes (encoded frames) and the flush cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to append to `out` (strict response order).
    next_write: u64,
    /// Responses that are ready but waiting for earlier sequence numbers.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Requests submitted to the batcher and not yet completed.
    inflight: usize,
    /// Last time bytes arrived or a write made progress.
    last_activity: Instant,
    /// Last time a pending write advanced (write-stall detection).
    last_write_progress: Instant,
    /// When the currently-buffered partial frame started arriving.
    partial_since: Option<Instant>,
    /// Peer sent EOF; serve out what's in flight, then close.
    peer_closed: bool,
    /// Close after the out buffer flushes (protocol violation).
    closing: bool,
    /// Shutdown notice has been queued (drain mode).
    notice_sent: bool,
    /// Remove this connection at the end of the tick.
    dead: Option<CloseReason>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            last_activity: now,
            last_write_progress: now,
            partial_since: None,
            peer_closed: false,
            closing: false,
            notice_sent: false,
            dead: None,
        }
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Everything answered and flushed — nothing owed to the peer.
    fn drained(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty() && self.out_pending() == 0
    }

    /// Queues one response frame at its sequence slot, then pours every
    /// now-contiguous response into the out buffer in order.
    fn push_response(&mut self, seq: u64, frame: Vec<u8>, now: Instant) {
        self.ready.insert(seq, frame);
        while let Some(f) = self.ready.remove(&self.next_write) {
            if self.out_pending() == 0 {
                self.last_write_progress = now;
            }
            self.out.extend_from_slice(&f);
            self.next_write += 1;
        }
    }

    /// Appends raw pre-encoded bytes outside the sequence stream (the
    /// shutdown notice).
    fn push_raw(&mut self, frame: &[u8], now: Instant) {
        if self.out_pending() == 0 {
            self.last_write_progress = now;
        }
        self.out.extend_from_slice(frame);
    }

    /// Flushes as much of the out buffer as the socket accepts.
    /// Returns `true` on progress.
    fn flush(&mut self, now: Instant) -> bool {
        let mut progress = false;
        while self.out_pending() > 0 {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = Some(CloseReason::Plain);
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_write_progress = now;
                    self.last_activity = now;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = Some(CloseReason::Plain);
                    break;
                }
            }
        }
        if self.out_pending() == 0 && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
        }
        progress
    }
}

/// The single-threaded readiness loop driving every connection.
struct Reactor {
    listener: Option<TcpListener>,
    ctx: ConnCtx,
    limits: ConnLimits,
    conns: HashMap<u64, Conn>,
    /// Round-robin scan order (tokens); start index rotates every tick.
    order: Vec<u64>,
    rr: usize,
    next_token: u64,
    completions_rx: mpsc::Receiver<Completion>,
    completions_tx: mpsc::Sender<Completion>,
    stop: Arc<AtomicBool>,
    stopping: Option<Instant>,
    last_sweep: Instant,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        ctx: ConnCtx,
        limits: ConnLimits,
        stop: Arc<AtomicBool>,
    ) -> Reactor {
        let (completions_tx, completions_rx) = mpsc::channel();
        Reactor {
            listener: Some(listener),
            ctx,
            limits,
            conns: HashMap::new(),
            order: Vec::new(),
            rr: 0,
            next_token: 0,
            completions_rx,
            completions_tx,
            stop,
            stopping: None,
            last_sweep: Instant::now(),
        }
    }

    fn run(mut self) {
        let mut idle_ticks = 0u32;
        loop {
            let mut progress = false;
            if self.stop.load(Ordering::SeqCst) && self.stopping.is_none() {
                self.begin_drain();
                progress = true;
            }
            progress |= self.drain_completions();
            progress |= self.accept_new();
            progress |= self.io_pass();
            self.reap_dead();
            let now = Instant::now();
            if self.stopping.is_none() && now.duration_since(self.last_sweep) >= SWEEP_EVERY {
                self.sweep(now);
                self.last_sweep = now;
            }
            if let Some(since) = self.stopping {
                if self.conns.is_empty() || since.elapsed() > SHUTDOWN_GRACE {
                    return;
                }
            }
            if progress {
                idle_ticks = 0;
            } else {
                idle_ticks = idle_ticks.saturating_add(1);
                let sleep =
                    (IDLE_SLEEP_MIN * 2u32.saturating_pow(idle_ticks.min(8))).min(IDLE_SLEEP_MAX);
                // The sleep doubles as completion delivery: a finishing
                // batch wakes the reactor immediately instead of waiting
                // out the timeout.
                match self.completions_rx.recv_timeout(sleep) {
                    Ok(c) => {
                        self.route_completion(c);
                        idle_ticks = 0;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // Unreachable while we hold completions_tx; exit safe.
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        }
    }

    /// Enters drain mode: the listener closes (new connects are refused by
    /// the OS), reads stop, and each connection is held open just long
    /// enough to flush responses for its in-flight requests.
    fn begin_drain(&mut self) {
        self.stopping = Some(Instant::now());
        self.listener = None;
    }

    /// Delivers every completed batch result waiting on the channel.
    fn drain_completions(&mut self) -> bool {
        let mut progress = false;
        while let Ok(c) = self.completions_rx.try_recv() {
            self.route_completion(c);
            progress = true;
        }
        progress
    }

    fn route_completion(&mut self, c: Completion) {
        // A completion for a connection that died in the meantime is
        // dropped, like a hung-up blocking requester.
        if let Some(conn) = self.conns.get_mut(&c.conn) {
            conn.inflight = conn.inflight.saturating_sub(1);
            let frame = match c.result {
                Ok(payload) => protocol::encode_frame(STATUS_OK, &payload),
                Err(e) => {
                    protocol::encode_frame(protocol::status_for(&e), e.to_string().as_bytes())
                }
            };
            conn.push_response(c.seq, frame, Instant::now());
        }
    }

    /// Accepts waiting connections, refusing typed past the limit.
    fn accept_new(&mut self) -> bool {
        let Some(listener) = &self.listener else {
            return false;
        };
        let mut progress = false;
        for _ in 0..ACCEPTS_PER_TICK {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progress = true;
                    if self.conns.len() >= self.limits.max_connections {
                        // Count before writing the frame: a client that
                        // has read the typed refusal must already see it
                        // in the stats.
                        self.ctx.stats.record_refused_accept();
                        refuse(stream, self.limits.max_connections);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(token, Conn::new(stream, Instant::now()));
                    self.order.push(token);
                    self.ctx.stats.record_conn_open();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept errors (e.g. aborted handshake).
                Err(_) => break,
            }
        }
        progress
    }

    /// One round-robin scan: flush writes, then read/dispatch, for every
    /// connection. The start index rotates so no connection is always
    /// served first.
    fn io_pass(&mut self) -> bool {
        let mut progress = false;
        let n = self.order.len();
        if n == 0 {
            return false;
        }
        self.rr = (self.rr + 1) % n;
        for i in 0..n {
            let token = self.order[(self.rr + i) % n];
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.dead.is_some() {
                continue;
            }
            let now = Instant::now();
            progress |= conn.flush(now);
            if conn.dead.is_some() {
                continue;
            }
            let readable = self.stopping.is_none()
                && !conn.closing
                && !conn.peer_closed
                && conn.inflight < self.limits.max_pipeline
                && conn.out_pending() <= OUT_SOFT_CAP;
            if readable {
                progress |=
                    read_and_dispatch(conn, token, &self.ctx, &self.limits, &self.completions_tx);
            }
            // Close-after-flush states.
            if conn.dead.is_none() {
                let now = Instant::now();
                if self.stopping.is_some() {
                    if conn.drained() && !conn.notice_sent {
                        conn.push_raw(
                            &protocol::encode_frame(STATUS_SHUTTING_DOWN, b"server stopping"),
                            now,
                        );
                        conn.notice_sent = true;
                        conn.flush(now);
                    }
                    if conn.notice_sent && conn.out_pending() == 0 {
                        conn.dead = Some(CloseReason::Plain);
                    }
                } else if (conn.closing || conn.peer_closed) && conn.drained() {
                    conn.dead = Some(CloseReason::Plain);
                }
            }
        }
        progress
    }

    /// Applies idle and slow-peer deadlines.
    fn sweep(&mut self, now: Instant) {
        for conn in self.conns.values_mut() {
            if conn.dead.is_some() {
                continue;
            }
            // Write stall: responses pending, peer not draining them.
            if conn.out_pending() > 0
                && now.duration_since(conn.last_write_progress) > self.limits.read_timeout
            {
                conn.dead = Some(CloseReason::Slow);
                continue;
            }
            // Slowloris: a frame started arriving but never completes.
            // (Connections paused by the pipelining bound are exempt —
            // the stall is ours, not the peer's.)
            if conn.inflight < self.limits.max_pipeline {
                if let Some(since) = conn.partial_since {
                    if now.duration_since(since) > self.limits.read_timeout {
                        conn.dead = Some(CloseReason::Slow);
                        continue;
                    }
                }
            }
            // Idle: nothing owed either way for the whole idle window.
            if conn.drained()
                && !conn.decoder.mid_frame()
                && now.duration_since(conn.last_activity) > self.limits.idle_timeout
            {
                conn.dead = Some(CloseReason::Idle);
            }
        }
    }

    /// Removes connections marked dead this tick and rebuilds the scan
    /// order.
    fn reap_dead(&mut self) {
        if self.conns.values().all(|c| c.dead.is_none()) {
            return;
        }
        let stats = &self.ctx.stats;
        self.conns.retain(|_, c| match c.dead {
            None => true,
            Some(reason) => {
                match reason {
                    CloseReason::Idle => stats.record_idle_reaped(),
                    CloseReason::Slow => stats.record_slow_reaped(),
                    CloseReason::Plain => {}
                }
                stats.record_conn_close();
                false
            }
        });
        self.order.retain(|t| self.conns.contains_key(t));
        self.rr = 0;
    }
}

/// Best-effort typed refusal for an over-limit accept: one `Overloaded`
/// frame, then close.
fn refuse(stream: TcpStream, limit: usize) {
    if stream.set_nonblocking(true).is_ok() {
        let msg = format!("overloaded: connection limit ({limit}) reached");
        let frame = protocol::encode_frame(STATUS_OVERLOADED, msg.as_bytes());
        let mut s = &stream;
        let _ = s.write(&frame);
    }
}

/// Reads one bounded chunk from the socket, advances the frame decoder,
/// and dispatches every complete frame. Returns `true` on progress.
fn read_and_dispatch(
    conn: &mut Conn,
    token: u64,
    ctx: &ConnCtx,
    limits: &ConnLimits,
    completions: &mpsc::Sender<Completion>,
) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    let now = Instant::now();
    let mut got_bytes = false;
    match conn.stream.read(&mut buf) {
        Ok(0) => {
            conn.peer_closed = true;
        }
        Ok(n) => {
            conn.decoder.feed(&buf[..n]);
            conn.last_activity = now;
            got_bytes = true;
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
        Err(_) => {
            conn.dead = Some(CloseReason::Plain);
            return false;
        }
    }

    let mut frames = 0usize;
    let mut dispatched = false;
    while frames < FRAMES_PER_TICK && conn.inflight < limits.max_pipeline && !conn.closing {
        match conn.decoder.try_frame() {
            Ok(Some((op, payload))) => {
                frames += 1;
                dispatch(conn, token, op, &payload, ctx, limits, completions);
                dispatched = true;
            }
            Ok(None) => break,
            Err(e) => {
                // Framing violation: answer once, close after flush — the
                // stream offset can no longer be trusted.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.push_response(
                    seq,
                    protocol::encode_frame(STATUS_BAD_REQUEST, e.to_string().as_bytes()),
                    now,
                );
                conn.closing = true;
            }
        }
    }
    // Track when the currently-buffered partial frame started arriving
    // (the clock a slowloris read-deadline runs against).
    if conn.decoder.mid_frame() {
        if dispatched || conn.partial_since.is_none() {
            conn.partial_since = Some(now);
        }
    } else {
        conn.partial_since = None;
    }
    got_bytes || dispatched
}

/// Handles one complete request frame: infer goes to the batcher with a
/// deadline attached (the sample resolved against the fleet registry at
/// admission time); reloads run on a spawned thread and answer through the
/// completion channel; stats/health/errors are answered immediately.
fn dispatch(
    conn: &mut Conn,
    token: u64,
    op: u8,
    payload: &[u8],
    ctx: &ConnCtx,
    limits: &ConnLimits,
    completions: &mpsc::Sender<Completion>,
) {
    let now = Instant::now();
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let immediate: Result<Vec<u8>, ServeError> = match op {
        OP_INFER => {
            let admitted = protocol::decode_f32s(payload).and_then(|sample| {
                submit_infer(
                    &ctx.default_model,
                    sample,
                    now,
                    token,
                    seq,
                    ctx,
                    limits,
                    completions,
                )
            });
            match admitted {
                Ok(()) => {
                    conn.inflight += 1;
                    return; // response arrives via the completion channel
                }
                Err(e) => Err(e), // typed refusal, answered now
            }
        }
        OP_INFER_MODEL => {
            let admitted = protocol::decode_model_infer(payload).and_then(|(model, sample)| {
                submit_infer(&model, sample, now, token, seq, ctx, limits, completions)
            });
            match admitted {
                Ok(()) => {
                    conn.inflight += 1;
                    return;
                }
                Err(e) => Err(e),
            }
        }
        OP_RELOAD => {
            if ctx.registry.config().model_dir.is_none() {
                Err(ServeError::BadRequest {
                    reason: "server has no model directory to rescan".to_string(),
                })
            } else if ctx.reload_busy.swap(true, Ordering::SeqCst) {
                Err(ServeError::Overloaded { queue_depth: 1 })
            } else {
                // Rescans validate checkpoints (probe forwards included),
                // which is far too slow for the reactor thread: run it on
                // a one-shot thread and deliver the report as a normal
                // sequenced completion.
                let registry = Arc::clone(&ctx.registry);
                let busy = Arc::clone(&ctx.reload_busy);
                let tx = completions.clone();
                thread::spawn(move || {
                    let result = registry.rescan().map(|r| r.to_json().into_bytes());
                    busy.store(false, Ordering::SeqCst);
                    let _ = tx.send(Completion {
                        conn: token,
                        seq,
                        result,
                    });
                });
                conn.inflight += 1;
                return;
            }
        }
        OP_STATS => Ok(ctx.stats.snapshot().to_json().into_bytes()),
        OP_HEALTH => {
            let resident = ctx.stats.snapshot().models_resident;
            let body = match ctx.registry.peek(&ctx.default_model) {
                Some(s) => format!(
                    "{{\"status\":\"ok\",\"model\":\"{}\",\"sample_len\":{},\
                     \"num_outputs\":{},\"models_resident\":{resident}}}",
                    ctx.default_model,
                    s.sample_len(),
                    s.num_outputs()
                ),
                // The default model was evicted or never came back: the
                // process is alive but degraded; say so instead of lying.
                None => format!(
                    "{{\"status\":\"degraded\",\"model\":\"{}\",\"sample_len\":0,\
                     \"num_outputs\":0,\"models_resident\":{resident}}}",
                    ctx.default_model
                ),
            };
            Ok(body.into_bytes())
        }
        unknown => Err(ServeError::BadRequest {
            reason: format!("unknown op {unknown}"),
        }),
    };
    let frame = match immediate {
        Ok(body) => protocol::encode_frame(STATUS_OK, &body),
        Err(e) => protocol::encode_frame(protocol::status_for(&e), e.to_string().as_bytes()),
    };
    conn.push_response(seq, frame, now);
}

/// Resolves `model` against the fleet and submits the sample to the
/// batcher. `Ok(())` means a completion will arrive for `(token, seq)`.
#[allow(clippy::too_many_arguments)]
fn submit_infer(
    model: &str,
    sample: Vec<f32>,
    now: Instant,
    token: u64,
    seq: u64,
    ctx: &ConnCtx,
    limits: &ConnLimits,
    completions: &mpsc::Sender<Completion>,
) -> Result<(), ServeError> {
    // The hot-swap read point: the plan is pinned here, so this request
    // finishes on it even if a new version is published a microsecond
    // later.
    let session = ctx.registry.get(model)?;
    // Geometry is checked against the pinned plan before admission, so a
    // wrong-length sample can never reach (and fail) a coalesced batch
    // that also carries other connections' requests.
    if sample.len() != session.sample_len() {
        return Err(ServeError::BadRequest {
            reason: format!(
                "model `{model}` expects {} input values, got {}",
                session.sample_len(),
                sample.len()
            ),
        });
    }
    let deadline = (!limits.request_timeout.is_zero()).then(|| now + limits.request_timeout);
    ctx.handle
        .submit_event(session, sample, deadline, token, seq, completions.clone())
}
