//! `k`-bit gradient codec for distributed exchange (RCT-style quantised
//! communication).
//!
//! Data-parallel ranks cannot afford to ship fp32 gradients: a replica
//! exchange costs `32N` bits per step per peer. This module encodes a
//! gradient tensor as **symmetric `k`-bit signed codes on a shared scale**,
//! written straight into the canonical [`PackedCodes`](crate::PackedCodes)
//! data words, so
//! `k = 4` traffic really is one eighth of fp32 on the wire.
//!
//! ## Encoding
//!
//! Given the step's global gradient magnitude `gmax` (an all-reduce *max*,
//! which is order-independent and therefore deterministic), every rank
//! uses the same scale
//!
//! ```text
//! s = gmax / (2^(k−1) − 1)
//! ```
//!
//! and encodes `c = clamp(round((g + r) / s), −m, m)` with `m = 2^(k−1)−1`
//! and `round` half away from zero. The clamp range is symmetric — the
//! pattern `−2^(k−1)` is never produced — so a sum of `N` rank codes is
//! bounded by `N·m` and fits exactly in `k + ceil(log2 N)` bits: the
//! reduce can stay in the integer domain (DQT-style) with **no rounding
//! and no overflow**, which is what makes the reduction bit-exact
//! regardless of arrival order.
//!
//! ## The hot path
//!
//! One quantiser serves both encoders: a branch-free loop (non-finite
//! inputs and a zero scale are lane selects, rounding is
//! truncate-and-compare in f64 rather than a libm `roundf` call and a
//! saturating cast) that writes `i32` codes. [`GradCodec::encode_words`]
//! runs it 64 elements at a time and packs each chunk into exactly `k`
//! words appended to a caller-owned buffer, so encoding a gradient
//! allocates nothing and touches each element once. The words are, word
//! for word, what `PackedCodes::from_signed(codes, k).data_words()` would
//! hold; the receiving side sums and unpacks them chunk-wise with
//! [`PackedCodes::sum_data_words`](crate::PackedCodes::sum_data_words) and
//! [`PackedCodes::decode_data_words`](crate::PackedCodes::decode_data_words).
//!
//! ## Error feedback
//!
//! The quantisation error `r' = (g + r) − c·s` is carried to the next step
//! (1-bit-SGD / EF-SGD style residual): nothing the quantiser drops is
//! lost, it is just delayed. The residual state lives with the caller —
//! one `Vec<f32>` per parameter per rank.

use crate::code_store::pack_with;
use crate::{Bitwidth, CodeStore};

/// Shared-scale symmetric `k`-bit gradient quantiser.
///
/// Stateless: the per-parameter error-feedback residual is owned by the
/// caller and threaded through every encode call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradCodec {
    bits: Bitwidth,
}

impl GradCodec {
    /// Creates a codec at `bits` precision.
    pub fn new(bits: Bitwidth) -> Self {
        GradCodec { bits }
    }

    /// The codec's bitwidth.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Largest code magnitude: `m = 2^(k−1) − 1` (symmetric range).
    pub fn max_mag(&self) -> i64 {
        (1i64 << (self.bits.get() - 1)) - 1
    }

    /// The shared scale for a step whose global gradient magnitude is
    /// `gmax`. Returns `0.0` when `gmax` is zero or non-finite — the
    /// all-zero-codes sentinel every rank agrees on.
    pub fn scale(&self, gmax: f32) -> f32 {
        if gmax.is_finite() && gmax > 0.0 {
            gmax / self.max_mag() as f32
        } else {
            0.0
        }
    }

    /// Bitwidth wide enough to hold any sum of `world` codes from this
    /// codec: `k + ceil(log2 world)`, clamped into the legal `[2, 32]`
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError`] when the sum width would exceed 32 bits
    /// (`k + ceil(log2 world) > 32`).
    pub fn sum_bits(&self, world: usize) -> crate::Result<Bitwidth> {
        let extra = usize::BITS - world.max(1).next_power_of_two().leading_zeros() - 1;
        Bitwidth::new(self.bits.get() + extra)
    }

    /// The one quantiser behind both encoders: writes the signed codes of
    /// `grad + residual` to `codes` and the error feedback into `residual`.
    #[inline]
    fn quantise(&self, grad: &[f32], residual: &mut [f32], scale: f32, codes: &mut [i32]) {
        debug_assert!(grad.len() == residual.len() && grad.len() == codes.len());
        // f64 holds every f32 and every code exactly, and adding 2^52 to a
        // non-negative f64 below 2^52 rounds it to an integer held in the
        // low mantissa bits: rounding and the float → int conversion need
        // neither libm nor a saturating cast, so the loop vectorises.
        const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
        let m = self.max_mag() as f64;
        let live = scale > 0.0;
        for ((&g, r), c) in grad.iter().zip(residual.iter_mut()).zip(codes.iter_mut()) {
            let a = g + *r;
            let x = if live && a.is_finite() {
                a / scale
            } else {
                0.0
            };
            // Clamping the magnitude before rounding is the same as after:
            // m is an integer.
            let y = f64::from(x.abs());
            let y = if y > m { m } else { y };
            // Truncate and compare: round half away from zero.
            let t = (y + MAGIC) - MAGIC; // nearest integer, ties to even
            let t = if t > y { t - 1.0 } else { t }; // trunc(y)
            let y = if y - t >= 0.5 { t + 1.0 } else { t };
            let q = ((y + MAGIC).to_bits() - MAGIC.to_bits()) as i32;
            let q = if x < 0.0 { -q } else { q };
            *r = a - q as f32 * scale;
            *c = q;
        }
    }

    /// Quantises `grad + residual` onto the shared `scale` grid, updating
    /// `residual` with the error feedback, and appends the codes to `out`
    /// as packed `k`-bit data words — the exchange's uplink payload for one
    /// parameter. The appended words equal
    /// `PackedCodes::from_signed(codes, k).data_words()`.
    ///
    /// A `scale` that is not positive, and any non-finite `grad + residual`
    /// entry, produce code 0 and bank the whole input into the residual.
    ///
    /// # Panics
    ///
    /// Debug-asserts `grad.len() == residual.len()`.
    pub fn encode_words(&self, grad: &[f32], residual: &mut [f32], scale: f32, out: &mut Vec<u64>) {
        debug_assert_eq!(grad.len(), residual.len());
        out.reserve((grad.len() * self.bits.get() as usize).div_ceil(64));
        pack_with(
            self.bits,
            grad.len(),
            |first, codes| {
                let at = first..first + codes.len();
                self.quantise(&grad[at.clone()], &mut residual[at], scale, codes);
            },
            out,
        );
    }

    /// Quantises `grad + residual` exactly like
    /// [`encode_words`](Self::encode_words), but returns the codes in a
    /// [`CodeStore`] (process-backend tiering, like every other store).
    ///
    /// # Panics
    ///
    /// Debug-asserts `grad.len() == residual.len()`.
    pub fn encode(&self, grad: &[f32], residual: &mut [f32], scale: f32) -> CodeStore {
        let mut codes = vec![0i32; grad.len()];
        self.quantise(grad, residual, scale, &mut codes);
        let half = 1i64 << (self.bits.get() - 1);
        let raw: Vec<i64> = codes.iter().map(|&c| i64::from(c) + half).collect();
        CodeStore::from_codes(&raw, self.bits)
    }

    /// Dequantises signed codes back to gradient values: `g = c · scale`.
    pub fn decode(&self, store: &CodeStore, scale: f32) -> Vec<f32> {
        let half = 1i64 << (self.bits.get() - 1);
        (0..store.len())
            .map(|i| (store.get(i) - half) as f32 * scale)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedCodes, StoreBackend};
    use apt_tensor::rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    /// Signed codes of `grad + residual`, through the quantiser.
    fn codes_of(codec: &GradCodec, grad: &[f32], residual: &mut [f32], scale: f32) -> Vec<i32> {
        let mut codes = vec![0i32; grad.len()];
        codec.quantise(grad, residual, scale, &mut codes);
        codes
    }

    /// Every code the words hold, sign-extended.
    fn decode_words(words: &[u64], len: usize, bits: Bitwidth) -> Vec<i32> {
        let mut out = Vec::with_capacity(len);
        PackedCodes::decode_data_words(words, len, bits, |base, codes| {
            assert_eq!(base, out.len());
            out.extend_from_slice(codes);
        })
        .unwrap();
        out
    }

    #[test]
    fn zero_scale_banks_everything_into_residual() {
        let codec = GradCodec::new(b(4));
        let grad = [0.5f32, -0.25, 1.0];
        let mut residual = vec![0.0f32; 3];
        assert_eq!(codes_of(&codec, &grad, &mut residual, 0.0), vec![0, 0, 0]);
        assert_eq!(residual, grad);
    }

    #[test]
    fn non_finite_inputs_give_code_zero_and_keep_the_residual() {
        let codec = GradCodec::new(b(4));
        let grad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        let mut residual = vec![0.0f32; 4];
        let codes = codes_of(&codec, &grad, &mut residual, 0.25);
        assert_eq!(codes, vec![0, 0, 0, 2]);
        assert!(residual[0].is_nan());
        assert_eq!(&residual[1..3], &[f32::INFINITY, f32::NEG_INFINITY]);
    }

    #[test]
    fn rounding_is_half_away_from_zero_like_f32_round() {
        // The truncate-and-compare rounding must agree with `f32::round`
        // on ties, near-ties, large magnitudes and the clamp rails.
        let below_half = f32::from_bits(0.5f32.to_bits() - 1);
        let mut xs = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            below_half,
            -below_half,
            6.5,
            -6.5,
            6.49,
            7.5,
            -7.5,
            8.0,
            1e9,
            -1e9,
            3.0e38,
            -3.0e38,
        ];
        let mut r = rng::seeded(3);
        xs.extend((0..2000).map(|_| r.gen_range(-9.0f32..9.0)));
        for k in [2u32, 4, 8, 16, 24, 25, 26, 31, 32] {
            let codec = GradCodec::new(b(k));
            let m = codec.max_mag();
            let mut residual = vec![0.0f32; xs.len()];
            let codes = codes_of(&codec, &xs, &mut residual, 1.0);
            for ((&x, &c), &res) in xs.iter().zip(&codes).zip(&residual) {
                let a = x + 0.0; // what grad + residual sums to
                let want = (a.round() as i64).clamp(-m, m);
                assert_eq!(i64::from(c), want, "k={k} x={x}");
                assert_eq!(res.to_bits(), (a - want as f32).to_bits(), "k={k} x={x}");
            }
        }
    }

    #[test]
    fn error_feedback_conserves_mass() {
        // g + r_in == c·s + r_out exactly (all ops are f32 arithmetic on
        // both sides of the identity).
        let codec = GradCodec::new(b(3));
        let mut r = rng::seeded(5);
        let grad: Vec<f32> = (0..64).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let mut residual: Vec<f32> = (0..64).map(|_| r.gen_range(-0.1f32..0.1)).collect();
        let before: Vec<f32> = grad.iter().zip(&residual).map(|(g, r)| g + r).collect();
        let scale = codec.scale(1.1);
        let store = codec.encode(&grad, &mut residual, scale);
        let decoded = codec.decode(&store, scale);
        for ((a, d), res) in before.iter().zip(&decoded).zip(&residual) {
            assert_eq!(*a, d + res, "identity must hold bitwise in f32");
        }
    }

    #[test]
    fn scale_handles_degenerate_gmax() {
        let codec = GradCodec::new(b(8));
        assert_eq!(codec.scale(0.0), 0.0);
        assert_eq!(codec.scale(-1.0), 0.0);
        assert_eq!(codec.scale(f32::NAN), 0.0);
        assert_eq!(codec.scale(f32::INFINITY), 0.0);
        assert_eq!(codec.scale(127.0), 1.0);
    }

    #[test]
    fn sum_bits_covers_world_sums() {
        let codec = GradCodec::new(b(4));
        assert_eq!(codec.sum_bits(1).unwrap().get(), 4);
        assert_eq!(codec.sum_bits(2).unwrap().get(), 5);
        assert_eq!(codec.sum_bits(3).unwrap().get(), 6);
        assert_eq!(codec.sum_bits(4).unwrap().get(), 6);
        assert_eq!(codec.sum_bits(8).unwrap().get(), 7);
        // N·m fits the sum width's symmetric range.
        for world in 1..=8usize {
            let ks = codec.sum_bits(world).unwrap();
            let bound = world as i64 * codec.max_mag();
            let half = 1i64 << (ks.get() - 1);
            assert!(bound < half, "world={world}");
        }
        // 16-bit grads for 65536 ranks would need 32 bits: still legal.
        assert!(GradCodec::new(b(16)).sum_bits(1 << 16).is_ok());
        assert!(GradCodec::new(b(32)).sum_bits(2).is_err());
    }

    #[test]
    fn saturating_grads_clamp_symmetrically() {
        let codec = GradCodec::new(b(2)); // m = 1
        let grad = [10.0f32, -10.0];
        let mut residual = vec![0.0f32; 2];
        let codes = codes_of(&codec, &grad, &mut residual, codec.scale(1.0));
        assert_eq!(codes, vec![1, -1]);
        // The clamped mass is all in the residual.
        assert_eq!(residual, vec![9.0, -9.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The word encoder writes exactly the canonical packed words of
        /// the codes the quantiser produces, and leaves the same residual.
        #[test]
        fn encoded_words_equal_the_canonical_packed_words(
            seed in 0u64..500,
            k in 2u32..=16,
            n in 1usize..200,
        ) {
            let codec = GradCodec::new(b(k));
            let mut r = rng::seeded(seed);
            let grad: Vec<f32> = (0..n).map(|_| r.gen_range(-2.0f32..2.0)).collect();
            let scale = codec.scale(1.5);
            let mut res_codes = vec![0.0f32; n];
            let codes = codes_of(&codec, &grad, &mut res_codes, scale);
            let signed: Vec<i64> = codes.iter().map(|&c| i64::from(c)).collect();
            let canonical = PackedCodes::from_signed(&signed, b(k)).unwrap();
            let mut res_words = vec![0.0f32; n];
            let mut words = vec![u64::MAX]; // appends after existing words
            codec.encode_words(&grad, &mut res_words, scale, &mut words);
            prop_assert_eq!(&words[1..], canonical.data_words());
            prop_assert_eq!(res_words, res_codes);
        }

        /// Roundtrip across every exchange bitwidth and both store
        /// backends: wire words decode to the exact signed codes that were
        /// encoded, and the wire is backend-independent.
        #[test]
        fn wire_roundtrip_across_bitwidths_and_backends(
            seed in 0u64..500,
            k in 2u32..=16,
            n in 1usize..200,
        ) {
            let codec = GradCodec::new(b(k));
            let mut r = rng::seeded(seed);
            let grad: Vec<f32> = (0..n).map(|_| r.gen_range(-2.0f32..2.0)).collect();
            let gmax = grad.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = codec.scale(gmax);
            let mut residual = vec![0.0f32; n];
            let mut wire = Vec::new();
            codec.encode_words(&grad, &mut residual, scale, &mut wire);
            // Physical wire width is the packed k-bit footprint.
            prop_assert_eq!(wire.len(), (n * k as usize).div_ceil(64));
            let codes = decode_words(&wire, n, b(k));
            // Stores of the same codes serialise to the same words under
            // every backend.
            let half = 1i64 << (k - 1);
            let raw: Vec<i64> = codes.iter().map(|&c| i64::from(c) + half).collect();
            for backend in [StoreBackend::Tiered, StoreBackend::I64] {
                let store = CodeStore::with_backend(backend, &raw, b(k));
                let packed = store.to_packed();
                prop_assert_eq!(packed.data_words(), &wire[..]);
            }
            // Every code obeys the symmetric bound.
            let m = codec.max_mag() as i32;
            prop_assert!(codes.iter().all(|&c| -m <= c && c <= m));
        }

        /// The packed-word sum of every rank's codes equals their exact
        /// sum, packed canonically at the widened sum width.
        #[test]
        fn integer_sum_is_exact(
            seed in 0u64..200,
            k in 2u32..=8,
            world in 1usize..5,
        ) {
            let codec = GradCodec::new(b(k));
            let n = 137usize;
            let mut r = rng::seeded(seed);
            let mut payloads = Vec::new();
            let mut exact = vec![0i64; n];
            for _ in 0..world {
                let grad: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                let mut words = Vec::new();
                codec.encode_words(&grad, &mut vec![0.0f32; n], codec.scale(1.0), &mut words);
                for (e, c) in exact.iter_mut().zip(decode_words(&words, n, b(k))) {
                    *e += i64::from(c);
                }
                payloads.push(words);
            }
            let ks = codec.sum_bits(world).unwrap();
            let payloads: Vec<&[u64]> = payloads.iter().map(Vec::as_slice).collect();
            let mut down = Vec::new();
            PackedCodes::sum_data_words(&payloads, n, b(k), ks, &mut down).unwrap();
            let canonical = PackedCodes::from_signed(&exact, ks).unwrap();
            prop_assert_eq!(&down[..], canonical.data_words());
            let sums: Vec<i64> = decode_words(&down, n, ks).into_iter().map(i64::from).collect();
            prop_assert_eq!(sums, exact);
        }
    }
}
