//! The deterministic k-bit all-reduce behind the trainer's
//! [`GradReducer`] seam.
//!
//! ## Why this is bit-exact, in any world size, run after run
//!
//! The only floating-point reductions in the protocol are **max** folds
//! (order-independent), and the root consumes uplinks in fixed rank order
//! anyway. The value reduction itself — the part where order could matter —
//! happens in the **integer domain**: each rank ships symmetric `k`-bit
//! codes, the root accumulates exact integer sums (codes are bounded by
//! `m = 2^(k−1)−1`, so `N` of them fit `k + ⌈log₂N⌉ ≤ 32` bits with no
//! overflow), and every rank applies the identical `sum · s / N` in f32.
//! Integer addition is associative and commutative, so the reduced
//! gradient is a pure function of the rank set, not of arrival order or
//! thread scheduling.
//!
//! ## One pass per phase, on packed words
//!
//! Each phase touches every gradient element once, reading and writing the
//! parameters in place through [`Network::visit_params_ref`] and
//! [`Network::visit_params`]:
//!
//! 1. *Begin* — one visit shapes the residuals, folds the replica digest
//!    and takes each parameter's `max |g + r|`.
//! 2. *Encode* — every rank quantises `g + r` 64 elements at a time
//!    straight into packed `k`-bit words ([`GradCodec::encode_words`]).
//! 3. *Integer reduce* — the root sums its own words and every uplink a
//!    64-code chunk at a time and packs the sums at `k + ⌈log₂N⌉` bits
//!    ([`PackedCodes::sum_data_words`]).
//! 4. *Decode* — every rank writes the mean from the packed sum words
//!    directly into its gradients ([`PackedCodes::decode_data_words`]).
//!
//! Residuals and the root's own-codes buffer live across steps; the
//! payload buffer circulates through the frames (a peer's uplink becomes
//! the root's downlink buffer, the downlink becomes the peer's next
//! uplink), so a steady-state 2-rank step allocates no payload. Every
//! malformed frame — wrong kind, wrong word count, nonzero padding bits, a
//! short `amax`/`gmax` — is a typed [`CoreError::Corrupt`].
//!
//! ## Error feedback and the checkpoint cadence
//!
//! What the quantiser drops each step is banked in a per-parameter
//! residual and re-injected next step (EF-SGD style). Residuals are
//! rank-local and are **not** part of the APTS checkpoint, so they are
//! flushed on the checkpoint cadence (`global_step % every == 0`): at any
//! step a fleet might resume from, the residual state is exactly what a
//! fresh resume would reconstruct — zeros — which is what makes a
//! post-crash run bit-identical to the uninterrupted one.
//!
//! ## Divergence gate
//!
//! Replicas are supposed to be bit-identical at every step boundary. Each
//! reduce starts by folding the replica's parameter integrity digests into
//! one word and comparing them at the root; any mismatch aborts the fleet
//! with an `IntegrityViolation` rather than silently averaging diverged
//! models.

use crate::fabric::{Frame, Links};
use crate::ExchangeStats;
use apt_core::{CoreError, GradReducer, StepInfo};
use apt_nn::Network;
use apt_quant::{Bitwidth, GradCodec, PackedCodes};

/// FNV-1a offset basis and prime of the replica-digest fold.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Flat-tree quantised all-reduce over an in-process channel fabric.
///
/// Built by the coordinator, one per rank, around that rank's
/// [`Links`]; plugged into
/// [`Trainer::train_with_reducer`](apt_core::Trainer::train_with_reducer).
#[derive(Debug)]
pub struct TreeReducer {
    links: Links,
    codec: GradCodec,
    sum_bits: Bitwidth,
    /// Flush residuals when `global_step % reset_every == 0` (0 = never):
    /// the checkpoint cadence, so rank-local residual state never outlives
    /// what a checkpoint captures.
    reset_every: u64,
    /// Per-parameter error-feedback residuals, in layer order; their
    /// lengths are the parameter inventory the payloads are checked
    /// against.
    residuals: Vec<Vec<f32>>,
    /// Root only: its own packed `k`-bit codes.
    own: Vec<u64>,
    /// Payload words: leaves in each frame this rank sends and is replaced
    /// by the payload of a frame it receives.
    words: Vec<u64>,
    stats: ExchangeStats,
}

impl TreeReducer {
    /// A reducer for `links.rank` of a `links.world`-rank fleet,
    /// exchanging gradients at `grad_bits`, flushing error-feedback
    /// residuals every `reset_every` steps (pass the checkpoint cadence,
    /// or 0 when checkpointing is off).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a world of fewer than two ranks (a
    /// single rank has nobody to exchange with — the coordinator skips the
    /// reducer entirely); [`CoreError::Quant`] when
    /// `grad_bits + ⌈log₂world⌉` exceeds the 32-bit code limit.
    pub(crate) fn new(
        links: Links,
        grad_bits: Bitwidth,
        reset_every: u64,
    ) -> apt_core::Result<Self> {
        if links.world < 2 {
            return Err(CoreError::BadConfig {
                reason: "TreeReducer needs world ≥ 2 (a single rank reduces nothing)".into(),
            });
        }
        let codec = GradCodec::new(grad_bits);
        let sum_bits = codec.sum_bits(links.world)?;
        Ok(TreeReducer {
            links,
            codec,
            sum_bits,
            reset_every,
            residuals: Vec::new(),
            own: Vec::new(),
            words: Vec::new(),
            stats: ExchangeStats::default(),
        })
    }

    /// Exchange statistics accumulated so far.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    fn corrupt(&self, what: &str) -> CoreError {
        CoreError::Corrupt {
            reason: format!(
                "rank {}: gradient-exchange protocol violation: {what}",
                self.links.rank
            ),
        }
    }

    fn divergence(info: &StepInfo) -> CoreError {
        CoreError::IntegrityViolation {
            epoch: info.epoch,
            iteration: info.iter,
            kind: "replica-divergence".into(),
            incidents: 1,
        }
    }

    /// Words one parameter of `n` elements occupies at `bits`.
    fn words_for(n: usize, bits: Bitwidth) -> usize {
        (n * bits.get() as usize).div_ceil(64)
    }

    /// Checks a concatenated payload's word count against the parameter
    /// inventory at `bits`; per-parameter padding is checked as it is
    /// decoded.
    fn check_payload(&self, words: &[u64], bits: Bitwidth) -> apt_core::Result<()> {
        let want: usize = self
            .residuals
            .iter()
            .map(|r| Self::words_for(r.len(), bits))
            .sum();
        match words.len() {
            n if n < want => {
                Err(self.corrupt("rank payload shorter than the replica's parameter inventory"))
            }
            n if n > want => {
                Err(self.corrupt("rank payload longer than the replica's parameter inventory"))
            }
            _ => Ok(()),
        }
    }

    /// Phase-1 pass: shapes the residuals to the parameter inventory,
    /// folds the per-parameter integrity digests into one replica digest
    /// (fixed layer order, so the fold is deterministic), and takes each
    /// parameter's local `max |g + r|`.
    fn begin(&mut self, net: &Network) -> (u64, Vec<f32>) {
        let residuals = &mut self.residuals;
        let mut digest = FNV_OFFSET;
        let mut amax = Vec::with_capacity(residuals.len());
        net.visit_params_ref(&mut |p| {
            let g = p.grad().data();
            let i = amax.len();
            if i == residuals.len() {
                residuals.push(Vec::new());
            }
            if residuals[i].len() != g.len() {
                residuals[i] = vec![0.0f32; g.len()];
            }
            for b in p.name().bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            digest = (digest ^ p.integrity_digest()).wrapping_mul(FNV_PRIME);
            amax.push(abs_max(g, &residuals[i]));
        });
        residuals.truncate(amax.len());
        (digest, amax)
    }

    /// Quantises this rank's gradients into packed `k`-bit words,
    /// appended to `words`.
    fn encode(&mut self, net: &Network, scales: &[f32], words: &mut Vec<u64>) {
        let (codec, residuals) = (self.codec, &mut self.residuals);
        let mut i = 0usize;
        net.visit_params_ref(&mut |p| {
            codec.encode_words(p.grad().data(), &mut residuals[i], scales[i], words);
            i += 1;
        });
    }

    /// Root side of phase 2: encodes its own gradients, sums them with
    /// every peer's uplink on the packed words, broadcasts the sums and
    /// applies the mean. Returns the bytes it moved.
    fn root_exchange(&mut self, net: &mut Network, scales: &[f32]) -> apt_core::Result<u64> {
        let world = self.links.world;
        let (k, ks) = (self.codec.bits(), self.sum_bits);
        let mut own = std::mem::take(&mut self.own);
        own.clear();
        self.encode(net, scales, &mut own);

        let mut observed = 0u64;
        let mut uplinks = Vec::with_capacity(world - 1);
        // Fixed rank order 1..world — determinism by construction.
        for slot in 0..world - 1 {
            let (frame, bytes) = self.links.recv(slot)?;
            observed += bytes;
            let Frame::Codes(words) = frame else {
                return Err(self.corrupt("expected Codes uplink"));
            };
            self.check_payload(&words, k)?;
            uplinks.push(words);
        }

        let mut down = std::mem::take(&mut self.words);
        down.clear();
        let mut payloads: Vec<&[u64]> = Vec::with_capacity(world);
        let mut at = 0usize;
        for r in &self.residuals {
            let w = Self::words_for(r.len(), k);
            payloads.clear();
            payloads.push(&own[at..at + w]);
            payloads.extend(uplinks.iter().map(|u| &u[at..at + w]));
            PackedCodes::sum_data_words(&payloads, r.len(), k, ks, &mut down)
                .map_err(|e| self.corrupt(&format!("Codes uplink: {e}")))?;
            at += w;
        }
        drop(payloads);
        self.own = own;

        // The root decodes its own copy of the downlink, kept in a spent
        // uplink buffer (sized for sums by the peer that sent it).
        let mut mine = uplinks.pop().unwrap_or_default();
        mine.clear();
        mine.extend_from_slice(&down);
        for slot in 0..world - 2 {
            observed += self.links.send(slot, Frame::Sums(down.clone()))?;
        }
        observed += self.links.send(world - 2, Frame::Sums(down))?;
        apply_sums(net, &mine, ks, scales, world)
            .map_err(|e| self.corrupt(&format!("integer sums: {e}")))?;
        self.words = mine;
        Ok(observed)
    }

    /// Peer side of phase 2: encodes its gradients into one packed uplink,
    /// then decodes the root's packed sums straight into its gradients.
    /// Returns the bytes it moved.
    fn peer_exchange(&mut self, net: &mut Network, scales: &[f32]) -> apt_core::Result<u64> {
        let ks = self.sum_bits;
        let mut words = std::mem::take(&mut self.words);
        words.clear();
        // Sized for the downlink, which reuses this buffer at the root.
        words.reserve(
            self.residuals
                .iter()
                .map(|r| Self::words_for(r.len(), ks))
                .sum(),
        );
        self.encode(net, scales, &mut words);
        let mut observed = self.links.send(0, Frame::Codes(words))?;

        let (frame, bytes) = self.links.recv(0)?;
        observed += bytes;
        let Frame::Sums(words) = frame else {
            return Err(self.corrupt("expected Sums downlink"));
        };
        self.check_payload(&words, ks)?;
        apply_sums(net, &words, ks, scales, self.links.world)
            .map_err(|e| self.corrupt(&format!("Sums downlink: {e}")))?;
        self.words = words;
        Ok(observed)
    }
}

/// Writes the mean gradient `sum · s / N` — the identical f32 expression
/// on every rank — from the packed sums (`ks` bits, parameters end to end,
/// word count already checked) straight into the parameters' gradients.
fn apply_sums(
    net: &mut Network,
    words: &[u64],
    ks: Bitwidth,
    scales: &[f32],
    world: usize,
) -> apt_quant::Result<()> {
    let inv = 1.0f32 / world as f32;
    let (mut i, mut at, mut result) = (0usize, 0usize, Ok(()));
    net.visit_params(&mut |p| {
        let s = scales[i];
        let g = p.grad_mut().data_mut();
        let (n, w) = (g.len(), TreeReducer::words_for(g.len(), ks));
        if result.is_ok() {
            result = PackedCodes::decode_data_words(&words[at..at + w], n, ks, |first, q| {
                for (g, &q) in g[first..].iter_mut().zip(q) {
                    *g = q as f32 * s * inv;
                }
            });
        }
        at += w;
        i += 1;
    });
    result
}

/// `max |g + r|` over one parameter, bit-equal to the sequential
/// `f32::max` fold: `max` is exact and `|·|` never yields `-0.0`, so eight
/// interleaved lanes find the same maximum, and a NaN loses every `>`
/// comparison just as `f32::max` drops it.
fn abs_max(grad: &[f32], residual: &[f32]) -> f32 {
    let max = |m: f32, v: f32| if v > m { v } else { m };
    let (g8, r8) = (grad.chunks_exact(8), residual.chunks_exact(8));
    let tail = g8.remainder().iter().zip(r8.remainder());
    let mut lanes = [0.0f32; 8];
    for (g, r) in g8.zip(r8) {
        for l in 0..8 {
            lanes[l] = max(lanes[l], (g[l] + r[l]).abs());
        }
    }
    let m = tail.fold(0.0f32, |m, (g, r)| max(m, (g + r).abs()));
    lanes.into_iter().fold(m, max)
}

impl GradReducer for TreeReducer {
    fn reduce(&mut self, info: &StepInfo, net: &mut Network) -> apt_core::Result<u64> {
        let world = self.links.world;
        let rank = self.links.rank;
        let k = u64::from(self.codec.bits().get());
        let ks = u64::from(self.sum_bits.get());

        // Residual flush on the checkpoint cadence — see the module doc.
        if self.reset_every > 0 && info.global_step.is_multiple_of(self.reset_every) {
            for r in &mut self.residuals {
                r.iter_mut().for_each(|x| *x = 0.0);
            }
        }

        // ---- Phase 1: divergence gate + order-independent max fold ----
        let (digest, amax) = self.begin(net);
        let params = amax.len();
        let mut observed = 0u64;
        let gmax: Vec<f32> = if rank == 0 {
            let mut acc = amax;
            let mut ok = true;
            // Fixed rank order 1..world — determinism by construction.
            for slot in 0..world - 1 {
                let (frame, bytes) = self.links.recv(slot)?;
                observed += bytes;
                let Frame::Begin { digest: d, amax: a } = frame else {
                    return Err(self.corrupt("expected Begin uplink"));
                };
                if a.len() != acc.len() {
                    return Err(self.corrupt("parameter count mismatch across replicas"));
                }
                ok &= d == digest;
                for (g, x) in acc.iter_mut().zip(&a) {
                    *g = g.max(*x);
                }
            }
            for slot in 0..world - 1 {
                observed += self.links.send(
                    slot,
                    Frame::Scales {
                        ok,
                        gmax: acc.clone(),
                    },
                )?;
            }
            if !ok {
                return Err(Self::divergence(info));
            }
            acc
        } else {
            observed += self.links.send(0, Frame::Begin { digest, amax })?;
            let (frame, bytes) = self.links.recv(0)?;
            observed += bytes;
            let Frame::Scales { ok, gmax } = frame else {
                return Err(self.corrupt("expected Scales downlink"));
            };
            if !ok {
                return Err(Self::divergence(info));
            }
            if gmax.len() != params {
                return Err(self.corrupt("parameter count mismatch across replicas"));
            }
            gmax
        };
        self.stats.digest_checks += 1;

        // ---- Phase 2: k-bit encode, exact integer sum, broadcast ----
        let scales: Vec<f32> = gmax.iter().map(|&g| self.codec.scale(g)).collect();
        observed += if rank == 0 {
            self.root_exchange(net, &scales)?
        } else {
            self.peer_exchange(net, &scales)?
        };

        // ---- Accounting: analytic fabric totals, identical on all ranks ----
        let elems: u64 = self.residuals.iter().map(|r| r.len() as u64).sum();
        let codes_bytes: u64 = self
            .residuals
            .iter()
            .map(|r| 8 * (r.len() as u64 * k).div_ceil(64))
            .sum();
        let sums_bytes: u64 = self
            .residuals
            .iter()
            .map(|r| 8 * (r.len() as u64 * ks).div_ceil(64))
            .sum();
        let params = params as u64;
        let per_link = (8 + 4 * params) + (1 + 4 * params) + codes_bytes + sums_bytes;
        let fabric_total = (world as u64 - 1) * per_link;
        // The root terminates every link, so it must have observed the
        // whole fabric; peers observe exactly their own link.
        debug_assert_eq!(
            observed,
            if rank == 0 { fabric_total } else { per_link },
            "analytic byte accounting drifted from the frames actually moved"
        );
        self.stats.steps += 1;
        self.stats.bytes_on_wire += fabric_total;
        self.stats.fp32_bytes += (world as u64 - 1) * 2 * 4 * elems;
        // Each rank charges an equal share: the energy account is part of
        // the replicated state, so the charge must be rank-independent.
        Ok(fabric_total / world as u64)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fabric;
    use apt_core::StepInfo;
    use apt_nn::{models, Mode, QuantScheme};
    use apt_tensor::rng::{normal, seeded};
    use rand::Rng;
    use std::thread;

    fn net_with_grads(seed_net: u64, seed_batch: u64) -> Network {
        let mut net = models::mlp(
            "m",
            &[6, 5, 3],
            &QuantScheme::float32(),
            &mut seeded(seed_net),
        )
        .unwrap();
        let x = normal(&[2, 6], 1.0, &mut seeded(seed_batch));
        let _ = net.forward(&x, Mode::Train).unwrap();
        net.backward(&normal(&[2, 3], 1.0, &mut seeded(seed_batch + 9)))
            .unwrap();
        net
    }

    fn grads_of(net: &mut Network) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| out.push(p.grad().data().to_vec()));
        out
    }

    fn exchange(world: usize, bits: u32, batch_seeds: &[u64]) -> (Vec<Vec<Vec<f32>>>, Vec<u64>) {
        let info = StepInfo {
            epoch: 0,
            iter: 0,
            global_step: 1,
        };
        let links = fabric(world);
        let mut handles = Vec::new();
        for (rank, l) in links.into_iter().enumerate() {
            let seed_batch = batch_seeds[rank];
            handles.push(thread::spawn(move || {
                // Same net seed on every rank (replicas), different batch.
                let mut net = net_with_grads(7, seed_batch);
                let mut red = TreeReducer::new(l, Bitwidth::new(bits).unwrap(), 0).unwrap();
                let bytes = red.reduce(&info, &mut net).unwrap();
                (grads_of(&mut net), bytes)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let bytes = results.iter().map(|(_, b)| *b).collect();
        (results.into_iter().map(|(g, _)| g).collect(), bytes)
    }

    #[test]
    fn all_ranks_apply_the_same_reduced_gradient() {
        let (grads, bytes) = exchange(3, 6, &[11, 22, 33]);
        assert_eq!(grads[0], grads[1]);
        assert_eq!(grads[0], grads[2]);
        // Equal-share accounting is rank-independent by construction.
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[0], bytes[2]);
        assert!(bytes[0] > 0);
    }

    #[test]
    fn reduction_is_reproducible_run_to_run() {
        let (a, _) = exchange(4, 4, &[1, 2, 3, 4]);
        let (b, _) = exchange(4, 4, &[1, 2, 3, 4]);
        assert_eq!(a, b, "same inputs ⇒ bit-identical reduction");
    }

    #[test]
    fn wide_codes_recover_the_exact_mean_gradient() {
        // At high precision with error feedback off to one side, the
        // reduced gradient must approach the true mean closely.
        let seeds = [5u64, 6];
        let (grads, _) = exchange(2, 16, &seeds);
        let mut nets: Vec<_> = seeds.iter().map(|&s| net_with_grads(7, s)).collect();
        let locals: Vec<_> = nets.iter_mut().map(grads_of).collect();
        for (pi, reduced) in grads[0].iter().enumerate() {
            for (j, &g) in reduced.iter().enumerate() {
                let mean = (locals[0][pi][j] + locals[1][pi][j]) / 2.0;
                assert!(
                    (g - mean).abs() <= 1e-3 * mean.abs().max(1e-3),
                    "param {pi}[{j}]: reduced {g} vs mean {mean}"
                );
            }
        }
    }

    #[test]
    fn diverged_replica_is_caught_by_the_digest_gate() {
        let info = StepInfo {
            epoch: 2,
            iter: 5,
            global_step: 40,
        };
        let links = fabric(2);
        let mut handles = Vec::new();
        for (rank, l) in links.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                // Different net seeds: replicas diverged before the step.
                let mut net = net_with_grads(7 + rank as u64, 1);
                let mut red = TreeReducer::new(l, Bitwidth::new(4).unwrap(), 0).unwrap();
                red.reduce(&info, &mut net)
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            match err {
                CoreError::IntegrityViolation { kind, epoch, .. } => {
                    assert_eq!(kind, "replica-divergence");
                    assert_eq!(epoch, 2);
                }
                other => panic!("expected divergence abort, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_rank_world_is_rejected() {
        let mut links = fabric(1);
        let err = TreeReducer::new(links.pop().unwrap(), Bitwidth::new(4).unwrap(), 0).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }));
    }

    const STEP: StepInfo = StepInfo {
        epoch: 0,
        iter: 0,
        global_step: 1,
    };

    fn lens_of(net: &mut Network) -> Vec<usize> {
        let mut lens = Vec::new();
        net.visit_params(&mut |p| lens.push(p.len()));
        lens
    }

    fn bits_of(values: &[Vec<f32>]) -> Vec<Vec<u32>> {
        values
            .iter()
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    // ---- Differential oracle: unpacked codes and i64 sums ----

    /// The reference encoder: `f32::round` into a `CodeStore`, then the
    /// store's canonical wire words.
    fn oracle_encode(k: u32, grad: &[f32], residual: &mut [f32], scale: f32) -> Vec<u64> {
        let m = (1i64 << (k - 1)) - 1;
        let raw: Vec<i64> = grad
            .iter()
            .zip(residual.iter_mut())
            .map(|(&g, r)| {
                let a = g + *r;
                let c = if scale > 0.0 && a.is_finite() {
                    ((a / scale).round() as i64).clamp(-m, m)
                } else {
                    0
                };
                *r = a - c as f32 * scale;
                c + m + 1
            })
            .collect();
        let store = apt_quant::CodeStore::from_codes(&raw, Bitwidth::new(k).unwrap());
        store.to_packed().data_words().to_vec()
    }

    /// One oracle step: `max` fold in rank order, per-rank encode, wire →
    /// `i64` unpack, `i64` sums, `PackedCodes::from_signed` at the sum
    /// width and back. Returns the gradient every rank applies and updates
    /// `residuals[rank][param]` in place.
    fn oracle_step(
        k: u32,
        grads: &[Vec<Vec<f32>>],
        residuals: &mut [Vec<Vec<f32>>],
    ) -> Vec<Vec<f32>> {
        let world = grads.len();
        let bits = Bitwidth::new(k).unwrap();
        let codec = GradCodec::new(bits);
        let ks = codec.sum_bits(world).unwrap();
        let inv = 1.0f32 / world as f32;
        (0..grads[0].len())
            .map(|i| {
                let n = grads[0][i].len();
                let amax = |r: usize| {
                    grads[r][i]
                        .iter()
                        .zip(&residuals[r][i])
                        .map(|(a, b)| (a + b).abs())
                        .fold(0.0f32, f32::max)
                };
                let gmax = (1..world).fold(amax(0), |g, r| g.max(amax(r)));
                let scale = codec.scale(gmax);
                let mut sum = vec![0i64; n];
                for r in 0..world {
                    let wire = oracle_encode(k, &grads[r][i], &mut residuals[r][i], scale);
                    let codes = PackedCodes::from_data_words(wire, n, bits).unwrap();
                    for (s, c) in sum.iter_mut().zip(codes.to_signed_vec()) {
                        *s += c;
                    }
                }
                let down = PackedCodes::from_signed(&sum, ks).unwrap();
                let back = PackedCodes::from_data_words(down.data_words().to_vec(), n, ks).unwrap();
                back.to_signed_vec()
                    .iter()
                    .map(|&q| q as f32 * scale * inv)
                    .collect()
            })
            .collect()
    }

    /// Odd-length parameters (so codes and sums end mid-word): the first
    /// carries a NaN on rank 1, the second is all zeros (scale 0), the last
    /// carries +∞ on rank 0 (non-finite gmax, scale 0).
    fn hostile_grads(world: usize, step: u64, lens: &[usize]) -> Vec<Vec<Vec<f32>>> {
        (0..world)
            .map(|rank| {
                let mut r = seeded(100 * step + rank as u64);
                let last = lens.len() - 1;
                lens.iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        let mut g: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                        match (i, rank) {
                            (1, _) => g.fill(0.0),
                            (0, 1) => g[3] = f32::NAN,
                            (i, 0) if i == last => g[n - 1] = f32::INFINITY,
                            _ => {}
                        }
                        g
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs one reduce per step on every rank with the given gradients
    /// (`inputs[step][rank][param]`); returns each rank's reduced
    /// gradients and residuals per step.
    #[allow(clippy::type_complexity)]
    fn run_fleet(
        k: u32,
        inputs: &[Vec<Vec<Vec<f32>>>],
    ) -> Vec<Vec<(Vec<Vec<f32>>, Vec<Vec<f32>>)>> {
        let world = inputs[0].len();
        let handles: Vec<_> = fabric(world)
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                let mine: Vec<_> = inputs.iter().map(|step| step[rank].clone()).collect();
                thread::spawn(move || {
                    let mut net = odd_net();
                    let mut red = TreeReducer::new(l, Bitwidth::new(k).unwrap(), 0).unwrap();
                    mine.iter()
                        .enumerate()
                        .map(|(step, grads)| {
                            let mut i = 0;
                            net.visit_params(&mut |p| {
                                p.grad_mut().data_mut().copy_from_slice(&grads[i]);
                                i += 1;
                            });
                            let info = StepInfo {
                                global_step: step as u64 + 1,
                                ..STEP
                            };
                            red.reduce(&info, &mut net).unwrap();
                            (grads_of(&mut net), red.residuals.clone())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_rank: Vec<Vec<_>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (0..inputs.len())
            .map(|step| per_rank.iter().map(|r| r[step].clone()).collect())
            .collect()
    }

    /// A replica whose parameters all have odd lengths (333, 37, 185, 5).
    fn odd_net() -> Network {
        models::mlp("odd", &[9, 37, 5], &QuantScheme::float32(), &mut seeded(7)).unwrap()
    }

    #[test]
    fn word_level_exchange_is_bit_identical_to_the_unpacked_oracle() {
        let lens = lens_of(&mut odd_net());
        assert!(lens.iter().all(|n| n % 2 == 1));
        for world in 2..=4usize {
            for k in [2u32, 3, 4, 5, 8, 16] {
                // Two steps, so the second re-injects (NaN/∞-carrying)
                // residuals.
                let inputs: Vec<_> = (0..2).map(|s| hostile_grads(world, s, &lens)).collect();
                let got = run_fleet(k, &inputs);
                let mut residuals: Vec<Vec<Vec<f32>>> = (0..world)
                    .map(|_| lens.iter().map(|&n| vec![0.0f32; n]).collect())
                    .collect();
                for (step, ranks) in got.iter().enumerate() {
                    let want = oracle_step(k, &inputs[step], &mut residuals);
                    for (rank, (grads, res)) in ranks.iter().enumerate() {
                        let at = format!("world={world} k={k} step={step} rank={rank}");
                        assert_eq!(bits_of(grads), bits_of(&want), "{at}: gradients");
                        assert_eq!(bits_of(res), bits_of(&residuals[rank]), "{at}: residuals");
                    }
                }
            }
        }
    }

    // ---- Malformed frames: typed Corrupt errors, never a panic ----

    #[derive(Clone, Copy, Debug)]
    enum Bad {
        Short,
        Long,
        Padding,
        WrongKind,
    }

    const BAD: [Bad; 4] = [Bad::Short, Bad::Long, Bad::Padding, Bad::WrongKind];

    /// A phase-2 payload for `lens` at `bits`, spoiled by `bad`; `sums`
    /// selects the frame kind the receiver expects.
    fn spoiled(lens: &[usize], bits: usize, bad: Bad, sums: bool) -> Frame {
        let total = lens.iter().map(|&n| (n * bits).div_ceil(64)).sum();
        assert_ne!(
            lens.last().unwrap() * bits % 64,
            0,
            "last word must have padding"
        );
        let mut words = vec![0u64; total];
        match bad {
            Bad::Short => drop(words.pop()),
            Bad::Long => words.push(0),
            Bad::Padding => *words.last_mut().unwrap() |= 1 << 63,
            Bad::WrongKind => {}
        }
        if sums ^ matches!(bad, Bad::WrongKind) {
            Frame::Sums(words)
        } else {
            Frame::Codes(words)
        }
    }

    /// The replica digest folded from `Network::integrity_digests`.
    fn replica_digest(net: &Network) -> u64 {
        net.integrity_digests()
            .iter()
            .fold(FNV_OFFSET, |acc, (name, d)| {
                let acc = name
                    .bytes()
                    .fold(acc, |a, b| (a ^ u64::from(b)).wrapping_mul(FNV_PRIME));
                (acc ^ d).wrapping_mul(FNV_PRIME)
            })
    }

    /// Runs the real reducer on `rank` of a 2-rank fabric against a
    /// hand-built endpoint driven by `other`; returns the reducer's result.
    fn against(rank: usize, other: impl FnOnce(Links, Vec<usize>, u64)) -> apt_core::Result<u64> {
        let mut links = fabric(2);
        let (them, us) = if rank == 0 {
            let peer = links.pop().unwrap();
            (peer, links.pop().unwrap())
        } else {
            let us = links.pop().unwrap();
            (links.pop().unwrap(), us)
        };
        let h = thread::spawn(move || {
            let mut net = net_with_grads(7, 1);
            let mut red = TreeReducer::new(us, Bitwidth::new(4).unwrap(), 0).unwrap();
            red.reduce(&STEP, &mut net)
        });
        let mut net = net_with_grads(7, 2);
        let lens = lens_of(&mut net);
        other(them, lens, replica_digest(&net));
        h.join().expect("the reducer must not panic")
    }

    fn assert_corrupt(result: apt_core::Result<u64>, what: &str) {
        match result {
            Err(CoreError::Corrupt { .. }) => {}
            other => panic!("{what}: expected a Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn single_pass_digest_fold_matches_the_replica_digest() {
        let net = net_with_grads(7, 1);
        let mut red = TreeReducer::new(fabric(2).remove(0), Bitwidth::new(4).unwrap(), 0).unwrap();
        assert_eq!(red.begin(&net).0, replica_digest(&net));
    }

    #[test]
    fn malformed_uplinks_are_corrupt_at_the_root() {
        for bad in BAD {
            let result = against(0, |peer, lens, digest| {
                let amax = vec![1.0; lens.len()];
                peer.send(0, Frame::Begin { digest, amax }).unwrap();
                let (scales, _) = peer.recv(0).unwrap();
                assert!(matches!(scales, Frame::Scales { ok: true, .. }));
                peer.send(0, spoiled(&lens, 4, bad, false)).unwrap();
            });
            assert_corrupt(result, &format!("root, Codes {bad:?}"));
        }
        // Phase 1: the wrong frame kind, and a short `amax`.
        let result = against(0, |peer, lens, _| {
            peer.send(0, spoiled(&lens, 4, Bad::Short, false)).unwrap();
        });
        assert_corrupt(result, "root, Codes instead of Begin");
        let result = against(0, |peer, lens, digest| {
            let amax = vec![1.0; lens.len() - 1];
            peer.send(0, Frame::Begin { digest, amax }).unwrap();
        });
        assert_corrupt(result, "root, short amax");
    }

    #[test]
    fn malformed_downlinks_are_corrupt_at_a_peer() {
        for bad in BAD {
            let result = against(1, |root, lens, _| {
                let (begin, _) = root.recv(0).unwrap();
                let Frame::Begin { amax, .. } = begin else {
                    panic!("expected Begin");
                };
                root.send(
                    0,
                    Frame::Scales {
                        ok: true,
                        gmax: amax,
                    },
                )
                .unwrap();
                let (codes, _) = root.recv(0).unwrap();
                assert!(matches!(codes, Frame::Codes(_)));
                root.send(0, spoiled(&lens, 5, bad, true)).unwrap();
            });
            assert_corrupt(result, &format!("peer, Sums {bad:?}"));
        }
        // Phase 1: the wrong frame kind, and a short `gmax`.
        let result = against(1, |root, lens, _| {
            let _ = root.recv(0).unwrap();
            root.send(0, spoiled(&lens, 5, Bad::Short, true)).unwrap();
        });
        assert_corrupt(result, "peer, Sums instead of Scales");
        let result = against(1, |root, lens, _| {
            let _ = root.recv(0).unwrap();
            let gmax = vec![1.0; lens.len() - 1];
            root.send(0, Frame::Scales { ok: true, gmax }).unwrap();
        });
        assert_corrupt(result, "peer, short gmax");
    }
}
