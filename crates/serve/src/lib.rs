//! `apt-serve` — the quantized inference serving runtime.
//!
//! Turns a trained `.aptc` checkpoint into a servable model in three
//! layers, each usable on its own:
//!
//! 1. **[`InferenceSession`]** — loads a checkpoint and compiles it into
//!    an immutable, `Arc`-shared frozen plan (BN folded, activations
//!    fused, intermediates arena-planned) — the only inference executor.
//!    Packed quantized weights stay resident at their physical width, and
//!    request samples stage through a recycled [`ScratchArena`] so the
//!    steady-state hot path does not touch the heap. The plan is compiled
//!    for a [`KernelLane`]: the default dequant cache keeps outputs within
//!    float reassociation of the trainer's `Mode::Eval` forward, while the
//!    opt-in `int-gemm` lane serves linear layers dequant-free from packed
//!    integer panels (bit-close, documented bound).
//! 2. **Micro-batcher** — a work-conserving batcher behind the server
//!    that takes the first queued single-sample request plus whatever is
//!    already queued behind it, up to [`BatchPolicy::max_batch`], and
//!    executes them at once as one batched forward on the
//!    `apt_tensor::par` worker pool. It never waits for co-batchees, so a
//!    lone request is served immediately. Admission control is typed: a
//!    bounded queue ([`BatchPolicy::queue_depth`]) sheds excess load with
//!    [`ServeError::Overloaded`] instead of building an unbounded backlog.
//!    Batching is lossless — batch-invariant kernels mean a coalesced
//!    batch answers every request bit-identically to running it alone.
//! 3. **[`Server`]** — a std-only TCP front-end built on a nonblocking
//!    readiness-driven reactor: one thread drives every connection through
//!    incremental per-connection frame state machines, so slow or hostile
//!    peers cost a table slot, not a thread. Overload protection is typed
//!    end-to-end ([`ConnLimits`]): connection caps refuse at accept, idle
//!    and mid-frame deadlines reap slowloris peers, request deadlines
//!    propagate into the batcher so expired work is shed *before*
//!    inference, and per-connection pipelining bounds plus a round-robin
//!    scan keep healthy clients fair under attack. Lock-free serving
//!    metrics ([`ServeStats`]) expose the full shed taxonomy
//!    (refused-at-accept, deadline-expired, idle-reaped, slow-reaped)
//!    alongside p50/p90/p99 latency and batch histograms. [`ServeClient`]
//!    is the matching blocking client, with optional socket timeouts
//!    ([`ClientConfig`]) and bounded exponential-backoff retry
//!    ([`RetryPolicy`]).
//!
//! Above the session sits the **[`ModelRegistry`]** — a crash-safe
//! multi-tenant fleet keyed by model id. Checkpoints pass a validation
//! ladder (structural verify → full decode + probe forward → digest
//! stability) before they can serve; rejected files are quarantined with a
//! `.reason` sidecar. Publishing is an atomic `Arc` swap: new requests run
//! the new plan instantly while in-flight requests finish on the old one.
//! A resident-bytes budget evicts least-recently-used models, and missing
//! or evicted models answer a typed [`ServeError::ModelUnavailable`]
//! (`STATUS_MODEL_UNAVAILABLE` on the wire) — degradation, never OOM.
//!
//! The CLI front-end is `apt serve`; the measurement harness is the
//! `serving` bench binary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batcher;
mod client;
mod error;
mod registry;
mod server;
mod session;
mod stats;

pub mod protocol;

pub use apt_nn::KernelLane;
pub use batcher::BatchPolicy;
pub use client::{ClientConfig, RetryPolicy, ServeClient};
pub use error::ServeError;
pub use registry::{ModelInfo, ModelRegistry, PublishOutcome, RegistryConfig, RescanReport};
pub use server::{ConnLimits, Server, ServerConfig};
pub use session::{InferenceSession, ModelArch, ModelSpec, ScratchArena};
pub use stats::{ServeStats, StatsSnapshot};
