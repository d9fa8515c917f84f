//! Physical storage backends for quantised integer codes.
//!
//! The paper's central resource claim is that training a layer at `k` bits
//! costs `k` bits per weight of training memory (§III-B, Table I, Fig. 5).
//! Storing every code in a `Vec<i64>` — the original layout of
//! [`crate::QuantizedTensor`] — only *simulates* that saving: a "6-bit"
//! layer physically occupies 64 bits per element. This module makes the
//! saving physical:
//!
//! * [`PackedCodes`] — `k`-bit **signed** codes packed end-to-end into
//!   little-endian `u64` words, with branch-free two-word extract/insert
//!   and sign extension. Works for every `k` in `[2, 32]` and doubles as
//!   the canonical (backend-independent) serialisation of a store.
//! * [`CodeStore`] — the tiered container the rest of the crate holds
//!   codes in: an `i8` fast tier for `k ≤ 8`, an `i16` tier for `k ≤ 16`,
//!   [`PackedCodes`] above that, and the legacy one-`i64`-per-code layout
//!   kept as the differential reference backend.
//!
//! ## Representation
//!
//! The affine grid code `q` is unsigned, `q ∈ [0, 2^k − 1]`. The packed
//! tiers store the **centered** code `c = q − 2^(k−1)` as a `k`-bit
//! two's-complement field. The two encodings differ only in an inverted
//! most-significant bit (`pattern(c) = q XOR 2^(k−1)`, offset-binary vs.
//! two's complement), so flipping *any* physical stored bit `b` — a
//! single-event upset in real memory — changes the logical code by exactly
//! `q ^= 1 << b`, matching the SEU model the fault-injection campaign
//! documents. Bits above `k` in the `i8`/`i16` tiers are sign copies; the
//! SEU model targets the `k` payload bits in every tier.
//!
//! ## Backend selection
//!
//! New stores pick their representation through a process-wide
//! [`StoreBackend`] (default [`StoreBackend::Tiered`]; the environment
//! variable `APT_CODE_BACKEND=i64` or [`set_store_backend`] forces the
//! legacy layout). The differential test trains the same model under both
//! backends and asserts byte-identical results.

use crate::{Bitwidth, QuantError};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which physical representation newly created code stores use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// Narrowest tier for the bitwidth: `i8` for `k ≤ 8`, `i16` for
    /// `k ≤ 16`, bit-packed `u64` words above. The default.
    #[default]
    Tiered,
    /// One `i64` per code — the legacy layout, kept as the differential
    /// reference.
    I64,
}

const FORCED_UNSET: u8 = 0;
const FORCED_TIERED: u8 = 1;
const FORCED_I64: u8 = 2;

/// Process-wide override installed by [`set_store_backend`].
static FORCED: AtomicU8 = AtomicU8::new(FORCED_UNSET);

/// Backend implied by the `APT_CODE_BACKEND` environment variable, read
/// once per process.
fn env_backend() -> StoreBackend {
    static ENV: OnceLock<StoreBackend> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("APT_CODE_BACKEND").as_deref() {
        Ok("i64") => StoreBackend::I64,
        _ => StoreBackend::Tiered,
    })
}

/// The backend new stores are created with: an explicit
/// [`set_store_backend`] override if one was installed, else
/// `APT_CODE_BACKEND=i64` from the environment, else
/// [`StoreBackend::Tiered`].
pub fn store_backend() -> StoreBackend {
    match FORCED.load(Ordering::Relaxed) {
        FORCED_TIERED => StoreBackend::Tiered,
        FORCED_I64 => StoreBackend::I64,
        _ => env_backend(),
    }
}

/// Forces the process-wide backend for newly created stores.
///
/// Existing stores keep their representation. Intended for differential
/// tests and benches that own their process; library code should not call
/// this (unit tests use [`CodeStore::with_backend`] instead, which cannot
/// leak across parallel tests).
pub fn set_store_backend(backend: StoreBackend) {
    let v = match backend {
        StoreBackend::Tiered => FORCED_TIERED,
        StoreBackend::I64 => FORCED_I64,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Codes per packing chunk: 64 `k`-bit fields fill exactly `k` words, so
/// every chunk of a payload starts on a word boundary and chunks pack and
/// unpack independently.
const PACK_CHUNK: usize = 64;

/// Repeats `$body` for `$j` = 0, 1, …, 63 as straight-line code, so that
/// with a const width every field's word index and shift are constants.
macro_rules! for_each_field {
    ($j:ident => $body:block) => {
        for_each_field!(@ $j => $body; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20
            21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
            48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63)
    };
    (@ $j:ident => $body:block; $($n:literal)*) => {
        $( { let $j: usize = $n; $body } )*
    };
}

/// Calls `$f::<K>(args…)` with the const `K` equal to the runtime width
/// `$k` (a validated [`Bitwidth`], so always in `[2, 32]`).
macro_rules! with_width {
    ($k:expr, $f:ident $args:tt) => {
        with_width!(@ $k, $f $args; 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21
            22 23 24 25 26 27 28 29 30 31 32)
    };
    (@ $k:expr, $f:ident $args:tt; $($n:literal)*) => {
        match $k {
            $($n => $f::<$n> $args,)*
            _ => unreachable!("Bitwidth is validated to [2, 32]"),
        }
    };
}

/// Packs `codes[..n]` (the fields past `n` must be zero, which keeps the
/// trailing bits zero) at `bits` and appends the `⌈n·k/64⌉` words they
/// occupy. Kept out of line: the one copy of the per-width code.
#[inline(never)]
fn pack_chunk(bits: Bitwidth, codes: &[i32; PACK_CHUNK], n: usize, out: &mut Vec<u64>) {
    // k words of fields plus one word the last field may spill into.
    let mut words = [0u64; 33];
    with_width!(bits.get(), pack_fields(codes, &mut words));
    out.extend_from_slice(&words[..(n * bits.get() as usize).div_ceil(64)]);
}

fn pack_fields<const K: usize>(codes: &[i32; PACK_CHUNK], words: &mut [u64; 33]) {
    let mask = (1u64 << K) - 1;
    for_each_field!(j => {
        let bit = j * K;
        let field = codes[j] as u64 & mask;
        words[bit / 64] |= field << (bit % 64);
        if bit % 64 + K > 64 {
            words[bit / 64 + 1] |= field >> (64 - bit % 64);
        }
    });
}

/// Sign-extends the 64 fields of one chunk at `bits` (at most `k` words;
/// missing words read as zero). Kept out of line like [`pack_chunk`].
#[inline(never)]
fn unpack_chunk(bits: Bitwidth, chunk: &[u64], codes: &mut [i32; PACK_CHUNK]) {
    let mut words = [0u64; 33];
    words[..chunk.len()].copy_from_slice(chunk);
    with_width!(bits.get(), unpack_fields(&words, codes));
}

fn unpack_fields<const K: usize>(words: &[u64; 33], codes: &mut [i32; PACK_CHUNK]) {
    let shift = 64 - K as u32;
    for_each_field!(j => {
        let bit = j * K;
        let mut field = words[bit / 64] >> (bit % 64);
        if bit % 64 + K > 64 {
            field |= words[bit / 64 + 1] << (64 - bit % 64);
        }
        codes[j] = (((field << shift) as i64) >> shift) as i32;
    });
}

/// Appends the packed data words of `len` signed codes at `bits`. The
/// codes are produced [`PACK_CHUNK`] at a time by `fill(first, chunk)`,
/// which must write in-range codes for indices `first..first + chunk.len()`.
pub(crate) fn pack_with(
    bits: Bitwidth,
    len: usize,
    mut fill: impl FnMut(usize, &mut [i32]),
    out: &mut Vec<u64>,
) {
    let mut codes = [0i32; PACK_CHUNK];
    for first in (0..len).step_by(PACK_CHUNK) {
        let n = (len - first).min(PACK_CHUNK);
        fill(first, &mut codes[..n]);
        codes[n..].fill(0);
        pack_chunk(bits, &codes, n, out);
    }
}

/// `k`-bit signed codes packed end-to-end into little-endian `u64` words.
///
/// Element `i` occupies bits `[i·k, i·k + k)` of the word stream; the
/// field holds the `k`-bit two's-complement pattern of a signed code in
/// `[−2^(k−1), 2^(k−1) − 1]`. One always-zero word is kept past the data
/// words so extract/insert can read an aligned two-word window without
/// branching on word boundaries. Trailing bits beyond `len·k` are kept
/// zero at all times, so equal logical content means equal words — the
/// property checkpoint byte-determinism and integrity digests rely on.
///
/// ```
/// use apt_quant::{Bitwidth, PackedCodes};
/// let p = PackedCodes::from_signed(&[-4, -1, 0, 3], Bitwidth::new(3)?)?;
/// assert_eq!(p.to_signed_vec(), vec![-4, -1, 0, 3]);
/// assert_eq!(p.resident_bytes(), 16); // 1 data word + 1 padding word
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCodes {
    /// Data words followed by one always-zero padding word.
    words: Vec<u64>,
    len: usize,
    bits: Bitwidth,
}

impl PackedCodes {
    /// Low-`k` bitmask (valid for `k ≤ 32`).
    fn mask(bits: Bitwidth) -> u64 {
        (1u64 << bits.get()) - 1
    }

    /// Number of `u64` data words needed for `len` codes at `k` bits
    /// (excludes the padding word).
    fn data_word_count(len: usize, bits: Bitwidth) -> usize {
        (len * bits.get() as usize).div_ceil(64)
    }

    /// Packs signed codes, validating each against the `k`-bit
    /// two's-complement range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptStore`] if any code is outside
    /// `[−2^(k−1), 2^(k−1) − 1]`.
    pub fn from_signed(codes: &[i64], bits: Bitwidth) -> crate::Result<Self> {
        let half = 1i64 << (bits.get() - 1);
        if codes.iter().any(|&c| c < -half || c >= half) {
            return Err(QuantError::CorruptStore {
                reason: "signed code outside the k-bit two's-complement range",
            });
        }
        let mut p = PackedCodes {
            words: vec![0u64; Self::data_word_count(codes.len(), bits) + 1],
            len: codes.len(),
            bits,
        };
        for (i, &c) in codes.iter().enumerate() {
            p.set(i, c);
        }
        Ok(p)
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Field width.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Extracts element `i`, sign-extended to `i64`.
    ///
    /// Branch-free: reads the two words the field can straddle as one
    /// `u128` window (the padding word makes `words[w + 1]` always valid),
    /// shifts the field down, and sign-extends via a left/right shift
    /// pair.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len);
        let k = self.bits.get();
        let bit = i * k as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let pair = self.words[w] as u128 | ((self.words[w + 1] as u128) << 64);
        let field = (pair >> off) as u64 & Self::mask(self.bits);
        let shift = 64 - k;
        ((field << shift) as i64) >> shift
    }

    /// Stores signed code `c` into element `i` (low `k` bits of `c`).
    #[inline]
    pub fn set(&mut self, i: usize, c: i64) {
        debug_assert!(i < self.len);
        let k = self.bits.get();
        debug_assert!({
            let half = 1i64 << (k - 1);
            (-half..half).contains(&c)
        });
        let mask = Self::mask(self.bits);
        let field = (c as u64) & mask;
        let bit = i * k as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let pair = self.words[w] as u128 | ((self.words[w + 1] as u128) << 64);
        let merged = (pair & !((mask as u128) << off)) | ((field as u128) << off);
        self.words[w] = merged as u64;
        self.words[w + 1] = (merged >> 64) as u64;
    }

    /// Flips physical bit `bit` (`< k`) of element `i` — one XOR on the
    /// stored word, exactly what a single-event upset does to the RAM cell
    /// holding that bit. Returns the new signed value of the element.
    pub fn flip_bit(&mut self, i: usize, bit: u32) -> i64 {
        debug_assert!(i < self.len && bit < self.bits.get());
        let pos = i * self.bits.get() as usize + bit as usize;
        self.words[pos / 64] ^= 1u64 << (pos % 64);
        self.get(i)
    }

    /// Unpacks every element, sign-extended.
    pub fn to_signed_vec(&self) -> Vec<i64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The data words (padding word excluded) — the canonical serialised
    /// form used by checkpoint format v3.
    pub fn data_words(&self) -> &[u64] {
        &self.words[..self.words.len() - 1]
    }

    /// Rebuilds a store from serialised data words (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptStore`] if the word count disagrees
    /// with `len · k` or any trailing bit beyond `len · k` is set. Every
    /// in-range bit pattern decodes to a valid field, so no per-element
    /// validation is needed.
    pub fn from_data_words(words: Vec<u64>, len: usize, bits: Bitwidth) -> crate::Result<Self> {
        Self::check_data_words(&words, len, bits)?;
        let mut words = words;
        words.push(0);
        Ok(PackedCodes { words, len, bits })
    }

    /// The word-count and padding validation behind
    /// [`from_data_words`](Self::from_data_words).
    fn check_data_words(words: &[u64], len: usize, bits: Bitwidth) -> crate::Result<()> {
        if words.len() != Self::data_word_count(len, bits) {
            return Err(QuantError::CorruptStore {
                reason: "packed word count disagrees with the logical length",
            });
        }
        let rem = (len * bits.get() as usize) % 64;
        if rem != 0 {
            if let Some(&last) = words.last() {
                if last >> rem != 0 {
                    return Err(QuantError::CorruptStore {
                        reason: "nonzero padding bits in packed payload",
                    });
                }
            }
        }
        Ok(())
    }

    /// Validates serialised data words exactly like
    /// [`from_data_words`](Self::from_data_words), then hands the `len`
    /// sign-extended codes to `f` 64 at a time (fewer in the last chunk),
    /// together with the index of each chunk's first code — the store is
    /// never built.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptStore`] (before calling `f`) on a word
    /// count / padding mismatch.
    pub fn decode_data_words(
        words: &[u64],
        len: usize,
        bits: Bitwidth,
        mut f: impl FnMut(usize, &[i32]),
    ) -> crate::Result<()> {
        Self::check_data_words(words, len, bits)?;
        let mut codes = [0i32; PACK_CHUNK];
        for (c, chunk) in words.chunks(bits.get() as usize).enumerate() {
            unpack_chunk(bits, chunk, &mut codes);
            let first = c * PACK_CHUNK;
            f(first, &codes[..(len - first).min(PACK_CHUNK)]);
        }
        Ok(())
    }

    /// The integer reduce on packed words: validates each of `payloads`
    /// (`len` codes at `bits`) like [`from_data_words`](Self::from_data_words),
    /// adds them element-wise, and appends the sums packed at `sum_bits` to
    /// `out` — one pass, 64 codes at a time, with no unpacked buffer. The
    /// appended words equal `from_signed(sums, sum_bits).data_words()`.
    ///
    /// Any sum of `P` codes fits `sum_bits` when `P ≤ 2^(sum_bits − bits)`
    /// (the symmetric gradient codes of [`crate::GradCodec`] never reach
    /// `−2^(bits−1)`, but a hostile payload may), so that bound is the
    /// range check, made once up front.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptStore`] (and appends nothing) on a
    /// payload's word count / padding mismatch, or when the sums could
    /// leave the `sum_bits` range.
    pub fn sum_data_words(
        payloads: &[&[u64]],
        len: usize,
        bits: Bitwidth,
        sum_bits: Bitwidth,
        out: &mut Vec<u64>,
    ) -> crate::Result<()> {
        let (k, ks) = (bits.get(), sum_bits.get());
        if ks < k || payloads.len() > 1 << (ks - k) {
            return Err(QuantError::CorruptStore {
                reason: "integer sum could leave the sum width's two's-complement range",
            });
        }
        for p in payloads {
            Self::check_data_words(p, len, bits)?;
        }
        let k = k as usize;
        out.reserve(Self::data_word_count(len, sum_bits));
        let (mut codes, mut sums) = ([0i32; PACK_CHUNK], [0i32; PACK_CHUNK]);
        for (c, first) in (0..len).step_by(PACK_CHUNK).enumerate() {
            sums.fill(0);
            for p in payloads {
                let chunk = &p[c * k..((c + 1) * k).min(p.len())];
                unpack_chunk(bits, chunk, &mut codes);
                for (s, &x) in sums.iter_mut().zip(&codes) {
                    *s += x;
                }
            }
            let n = (len - first).min(PACK_CHUNK);
            pack_chunk(sum_bits, &sums, n, out);
        }
        Ok(())
    }

    /// Physical bytes held by this store (data words plus the one padding
    /// word).
    pub fn resident_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// Private representation behind [`CodeStore`].
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// Legacy reference tier: one `i64` per raw grid code `q`.
    I64(Vec<i64>),
    /// `k ≤ 8`: centered code `c = q − 2^(k−1)` as one byte.
    I8(Vec<i8>),
    /// `k ≤ 16`: centered code as one `i16`.
    I16(Vec<i16>),
    /// `k > 16`: centered codes bit-packed into `u64` words.
    Packed(PackedCodes),
}

/// The physical container for a tensor's quantised codes.
///
/// The public API speaks raw affine grid codes `q ∈ [0, 2^k − 1]` — the
/// same values [`crate::AffineQuantizer`] produces — while the tiered
/// representations store the centered signed form internally (see the
/// module docs for the encoding and its SEU property).
///
/// ```
/// use apt_quant::{Bitwidth, CodeStore, StoreBackend};
/// let k6 = Bitwidth::new(6)?;
/// let s = CodeStore::with_backend(StoreBackend::Tiered, &[0, 31, 63], k6);
/// assert_eq!(s.to_vec(), vec![0, 31, 63]);
/// assert_eq!(s.resident_bytes(), 3); // i8 tier: one byte per code
/// let r = CodeStore::with_backend(StoreBackend::I64, &[0, 31, 63], k6);
/// assert_eq!(r.resident_bytes(), 24);
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CodeStore {
    repr: Repr,
    bits: Bitwidth,
}

impl CodeStore {
    /// `2^(k−1)`, the offset between raw and centered codes.
    fn half(bits: Bitwidth) -> i64 {
        1i64 << (bits.get() - 1)
    }

    /// Builds a store from raw grid codes using the process-wide backend
    /// ([`store_backend`]). Codes must already be on the `[0, 2^k − 1]`
    /// grid; callers validate (debug builds assert).
    pub fn from_codes(codes: &[i64], bits: Bitwidth) -> Self {
        Self::with_backend(store_backend(), codes, bits)
    }

    /// Builds a store from raw grid codes with an explicit backend
    /// (unit tests; immune to the process-wide override).
    pub fn with_backend(backend: StoreBackend, codes: &[i64], bits: Bitwidth) -> Self {
        debug_assert!({
            let max = bits.num_steps() as i64;
            codes.iter().all(|&q| (0..=max).contains(&q))
        });
        let half = Self::half(bits);
        let repr = match (backend, bits.get()) {
            (StoreBackend::I64, _) => Repr::I64(codes.to_vec()),
            (StoreBackend::Tiered, ..=8) => {
                Repr::I8(codes.iter().map(|&q| (q - half) as i8).collect())
            }
            (StoreBackend::Tiered, ..=16) => {
                Repr::I16(codes.iter().map(|&q| (q - half) as i16).collect())
            }
            (StoreBackend::Tiered, _) => {
                let centered: Vec<i64> = codes.iter().map(|&q| q - half).collect();
                Repr::Packed(
                    PackedCodes::from_signed(&centered, bits)
                        .expect("centered grid codes fit the k-bit range"),
                )
            }
        };
        CodeStore { repr, bits }
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::I64(v) => v.len(),
            Repr::I8(v) => v.len(),
            Repr::I16(v) => v.len(),
            Repr::Packed(p) => p.len(),
        }
    }

    /// `true` if no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical precision of the stored codes.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Reads the raw grid code of element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        let half = Self::half(self.bits);
        match &self.repr {
            Repr::I64(v) => v[i],
            Repr::I8(v) => i64::from(v[i]) + half,
            Repr::I16(v) => i64::from(v[i]) + half,
            Repr::Packed(p) => p.get(i) + half,
        }
    }

    /// Writes raw grid code `q` (must be on the grid) into element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, q: i64) {
        debug_assert!((0..=self.bits.num_steps() as i64).contains(&q));
        let half = Self::half(self.bits);
        match &mut self.repr {
            Repr::I64(v) => v[i] = q,
            Repr::I8(v) => v[i] = (q - half) as i8,
            Repr::I16(v) => v[i] = (q - half) as i16,
            Repr::Packed(p) => p.set(i, q - half),
        }
    }

    /// Materialises every raw grid code.
    pub fn to_vec(&self) -> Vec<i64> {
        let half = Self::half(self.bits);
        match &self.repr {
            Repr::I64(v) => v.clone(),
            Repr::I8(v) => v.iter().map(|&c| i64::from(c) + half).collect(),
            Repr::I16(v) => v.iter().map(|&c| i64::from(c) + half).collect(),
            Repr::Packed(p) => (0..p.len()).map(|i| p.get(i) + half).collect(),
        }
    }

    /// Counts codes sitting on a grid rail (`q == 0` or `q == max_code`),
    /// compared in each tier's native domain.
    pub fn count_rails(&self, max_code: i64) -> usize {
        let half = Self::half(self.bits);
        match &self.repr {
            Repr::I64(v) => v.iter().filter(|&&q| q == 0 || q == max_code).count(),
            Repr::I8(v) => {
                let (lo, hi) = ((-half) as i8, (max_code - half) as i8);
                v.iter().filter(|&&c| c == lo || c == hi).count()
            }
            Repr::I16(v) => {
                let (lo, hi) = ((-half) as i16, (max_code - half) as i16);
                v.iter().filter(|&&c| c == lo || c == hi).count()
            }
            Repr::Packed(p) => {
                let (lo, hi) = (-half, max_code - half);
                (0..p.len())
                    .filter(|&i| {
                        let c = p.get(i);
                        c == lo || c == hi
                    })
                    .count()
            }
        }
    }

    /// Flips bit `bit` (`< k`) of element `elem`'s stored pattern and
    /// returns the new raw grid code.
    ///
    /// In every tier the logical effect is `q ^= 1 << bit` (the centered
    /// pattern is `q XOR 2^(k−1)`, so pattern-bit flips and raw-code bit
    /// flips coincide); in the packed tier this is literally one XOR on
    /// the resident `u64` word.
    pub fn flip_bit(&mut self, elem: usize, bit: u32) -> i64 {
        let k = self.bits.get();
        debug_assert!(bit < k);
        let half = Self::half(self.bits);
        match &mut self.repr {
            Repr::I64(v) => {
                v[elem] ^= 1i64 << bit;
                v[elem]
            }
            Repr::I8(v) => {
                // Flip the pattern bit, then re-sign-extend the byte from
                // bit k−1 so the tier invariant (sign-copied high bits)
                // holds.
                let sh = 8 - k;
                let flipped = (v[elem] as u8) ^ (1u8 << bit);
                v[elem] = ((flipped << sh) as i8) >> sh;
                i64::from(v[elem]) + half
            }
            Repr::I16(v) => {
                let sh = 16 - k;
                let flipped = (v[elem] as u16) ^ (1u16 << bit);
                v[elem] = ((flipped << sh) as i16) >> sh;
                i64::from(v[elem]) + half
            }
            Repr::Packed(p) => p.flip_bit(elem, bit) + half,
        }
    }

    /// Physical bytes resident in this store: `8N` for the `i64` tier,
    /// `N`/`2N` for `i8`/`i16`, and the word count (padding included) for
    /// the packed tier.
    pub fn resident_bytes(&self) -> u64 {
        match &self.repr {
            Repr::I64(v) => v.len() as u64 * 8,
            Repr::I8(v) => v.len() as u64,
            Repr::I16(v) => v.len() as u64 * 2,
            Repr::Packed(p) => p.resident_bytes(),
        }
    }

    /// Physical bits occupied per code, rounded up — what a memory-energy
    /// model should charge for traffic, as opposed to the logical `k`.
    /// Empty stores report the tier's element width.
    pub fn resident_bits_per_code(&self) -> u32 {
        match &self.repr {
            Repr::I64(_) => 64,
            Repr::I8(_) => 8,
            Repr::I16(_) => 16,
            Repr::Packed(p) => {
                if p.is_empty() {
                    64
                } else {
                    (p.resident_bytes() * 8).div_ceil(p.len() as u64) as u32
                }
            }
        }
    }

    /// Name of the active tier (`"i64"`, `"i8"`, `"i16"`, `"packed"`) for
    /// diagnostics and bench output.
    pub fn tier_name(&self) -> &'static str {
        match &self.repr {
            Repr::I64(_) => "i64",
            Repr::I8(_) => "i8",
            Repr::I16(_) => "i16",
            Repr::Packed(_) => "packed",
        }
    }

    /// Feeds the physical representation to `f` word by word — the basis
    /// of integrity digests, which must change when any resident bit
    /// flips. The `i64` tier emits one word per code (preserving the
    /// legacy digest definition); `i8`/`i16` chunk their bytes
    /// little-endian, zero-padded; the packed tier emits its data words.
    pub fn for_each_word(&self, mut f: impl FnMut(u64)) {
        match &self.repr {
            Repr::I64(v) => {
                for &q in v {
                    f(q as u64);
                }
            }
            Repr::I8(v) => {
                for chunk in v.chunks(8) {
                    let mut bytes = [0u8; 8];
                    for (b, &c) in bytes.iter_mut().zip(chunk) {
                        *b = c as u8;
                    }
                    f(u64::from_le_bytes(bytes));
                }
            }
            Repr::I16(v) => {
                for chunk in v.chunks(4) {
                    let mut w = 0u64;
                    for (j, &c) in chunk.iter().enumerate() {
                        w |= u64::from(c as u16) << (16 * j);
                    }
                    f(w);
                }
            }
            Repr::Packed(p) => {
                for &w in p.data_words() {
                    f(w);
                }
            }
        }
    }

    /// Converts to the canonical bit-packed form — identical words for
    /// identical logical content regardless of the active tier, which is
    /// what checkpoint v3 serialises.
    pub fn to_packed(&self) -> PackedCodes {
        if let Repr::Packed(p) = &self.repr {
            return p.clone();
        }
        let half = Self::half(self.bits);
        let centered: Vec<i64> = match &self.repr {
            Repr::I64(v) => v.iter().map(|&q| q - half).collect(),
            Repr::I8(v) => v.iter().map(|&c| i64::from(c)).collect(),
            Repr::I16(v) => v.iter().map(|&c| i64::from(c)).collect(),
            Repr::Packed(_) => unreachable!(),
        };
        PackedCodes::from_signed(&centered, self.bits).expect("grid codes fit the k-bit range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng;
    use rand::Rng;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    /// Random grid codes at `k` bits with the rails always present.
    fn grid_codes(k: u32, n: usize, seed: u64) -> Vec<i64> {
        let max = b(k).num_steps() as i64;
        let mut r = rng::seeded(seed);
        let mut v: Vec<i64> = (0..n).map(|_| r.gen_range(0..=max)).collect();
        if n >= 2 {
            v[0] = 0;
            v[1] = max;
        }
        v
    }

    #[test]
    fn packed_roundtrips_every_bitwidth() {
        for k in 2..=32u32 {
            let half = 1i64 << (k - 1);
            let mut r = rng::seeded(u64::from(k));
            let mut signed: Vec<i64> = (0..257).map(|_| r.gen_range(-half..half)).collect();
            signed[0] = -half;
            signed[1] = half - 1;
            signed[2] = 0;
            let p = PackedCodes::from_signed(&signed, b(k)).unwrap();
            assert_eq!(p.to_signed_vec(), signed, "k={k}");
            assert_eq!(p.len(), 257);
            // Exactly ceil(257k/64) data words plus one padding word.
            assert_eq!(
                p.resident_bytes(),
                ((257 * k as u64).div_ceil(64) + 1) * 8,
                "k={k}"
            );
        }
    }

    #[test]
    fn packed_rejects_out_of_range_and_corrupt_words() {
        assert!(PackedCodes::from_signed(&[4], b(3)).is_err());
        assert!(PackedCodes::from_signed(&[-5], b(3)).is_err());
        let p = PackedCodes::from_signed(&[1, -2, 3], b(5)).unwrap();
        // Wrong word count.
        assert!(PackedCodes::from_data_words(vec![0, 0], 3, b(5)).is_err());
        // Nonzero padding bit beyond 15 used bits.
        let mut words = p.data_words().to_vec();
        words[0] |= 1u64 << 40;
        assert!(PackedCodes::from_data_words(words, 3, b(5)).is_err());
        // Clean words round-trip.
        let re = PackedCodes::from_data_words(p.data_words().to_vec(), 3, b(5)).unwrap();
        assert_eq!(re, p);
    }

    /// Random valid payload words: `len` arbitrary `k`-bit fields, padding
    /// zero.
    fn random_payload(len: usize, k: u32, r: &mut impl Rng) -> Vec<u64> {
        let half = 1i64 << (k - 1);
        let codes: Vec<i64> = (0..len).map(|_| r.gen_range(-half..half)).collect();
        PackedCodes::from_signed(&codes, b(k))
            .unwrap()
            .data_words()
            .to_vec()
    }

    #[test]
    fn packed_word_sums_equal_unpacked_sums_for_any_payload() {
        let mut r = rng::seeded(41);
        for k in 2..=30u32 {
            for count in 1..=4usize {
                let ks = b(k + usize::BITS - (count.next_power_of_two() - 1).leading_zeros());
                let len = r.gen_range(1..300usize);
                let payloads: Vec<Vec<u64>> =
                    (0..count).map(|_| random_payload(len, k, &mut r)).collect();
                let mut exact = vec![0i64; len];
                for p in &payloads {
                    let codes = PackedCodes::from_data_words(p.clone(), len, b(k)).unwrap();
                    for (e, c) in exact.iter_mut().zip(codes.to_signed_vec()) {
                        *e += c;
                    }
                }
                let views: Vec<&[u64]> = payloads.iter().map(Vec::as_slice).collect();
                let mut out = vec![9u64];
                PackedCodes::sum_data_words(&views, len, b(k), ks, &mut out).unwrap();
                let want = PackedCodes::from_signed(&exact, ks).unwrap();
                assert_eq!(&out[1..], want.data_words(), "k={k} count={count}");
            }
        }
    }

    #[test]
    fn packed_word_sums_refuse_bad_payloads_and_overflowing_counts() {
        let mut r = rng::seeded(42);
        let good = random_payload(37, 4, &mut r);
        let mut padded = good.clone();
        *padded.last_mut().unwrap() |= 1 << 63;
        let short = &good[..good.len() - 1];
        let sum = |payloads: &[&[u64]], ks: u32, out: &mut Vec<u64>| {
            PackedCodes::sum_data_words(payloads, 37, b(4), b(ks), out)
        };
        let mut out = vec![9u64];
        assert!(sum(&[&good, short], 5, &mut out).is_err());
        assert!(sum(&[&good, &padded], 5, &mut out).is_err());
        // Three 4-bit payloads may sum to −24, outside 5 bits.
        assert!(sum(&[&good, &good, &good], 5, &mut out).is_err());
        assert!(
            sum(&[&good], 3, &mut out).is_err(),
            "narrower than the codes"
        );
        assert_eq!(out, vec![9], "a refused sum appends nothing");
        assert!(sum(&[&good, &good, &good], 6, &mut out).is_ok());
    }

    #[test]
    fn packed_set_keeps_neighbours_and_padding_intact() {
        for k in [3u32, 7, 13, 17, 31] {
            let half = 1i64 << (k - 1);
            let mut r = rng::seeded(100 + u64::from(k));
            let signed: Vec<i64> = (0..100).map(|_| r.gen_range(-half..half)).collect();
            let mut p = PackedCodes::from_signed(&signed, b(k)).unwrap();
            for _ in 0..500 {
                let i = r.gen_range(0..100usize);
                let c = r.gen_range(-half..half);
                p.set(i, c);
                assert_eq!(p.get(i), c);
            }
            // Trailing/padding bits never became nonzero.
            let rem = (100 * k as usize) % 64;
            if rem != 0 {
                let last = *p.data_words().last().unwrap();
                assert_eq!(last >> rem, 0, "k={k}");
            }
            assert_eq!(*p.words.last().unwrap(), 0, "padding word k={k}");
        }
    }

    #[test]
    fn tiering_matches_bitwidth() {
        let s = |k: u32| CodeStore::with_backend(StoreBackend::Tiered, &grid_codes(k, 16, 1), b(k));
        assert_eq!(s(2).tier_name(), "i8");
        assert_eq!(s(8).tier_name(), "i8");
        assert_eq!(s(9).tier_name(), "i16");
        assert_eq!(s(16).tier_name(), "i16");
        assert_eq!(s(17).tier_name(), "packed");
        assert_eq!(s(32).tier_name(), "packed");
        let r = CodeStore::with_backend(StoreBackend::I64, &grid_codes(6, 16, 1), b(6));
        assert_eq!(r.tier_name(), "i64");
    }

    #[test]
    fn all_backends_agree_on_content() {
        for k in 2..=32u32 {
            let codes = grid_codes(k, 129, 7 + u64::from(k));
            let tiered = CodeStore::with_backend(StoreBackend::Tiered, &codes, b(k));
            let legacy = CodeStore::with_backend(StoreBackend::I64, &codes, b(k));
            assert_eq!(tiered.to_vec(), codes, "k={k}");
            assert_eq!(legacy.to_vec(), codes, "k={k}");
            for (i, &code) in codes.iter().enumerate() {
                assert_eq!(tiered.get(i), code);
            }
            let max = b(k).num_steps() as i64;
            assert_eq!(tiered.count_rails(max), legacy.count_rails(max), "k={k}");
            assert_eq!(
                tiered.to_packed().data_words(),
                legacy.to_packed().data_words(),
                "canonical packing must be backend-independent (k={k})"
            );
        }
    }

    #[test]
    fn set_and_get_roundtrip_across_tiers() {
        for k in [2u32, 8, 9, 16, 17, 32] {
            let codes = grid_codes(k, 65, 11);
            let max = b(k).num_steps() as i64;
            let mut s = CodeStore::with_backend(StoreBackend::Tiered, &codes, b(k));
            let mut r = rng::seeded(13);
            for _ in 0..200 {
                let i = r.gen_range(0..65usize);
                let q = r.gen_range(0..=max);
                s.set(i, q);
                assert_eq!(s.get(i), q, "k={k}");
            }
        }
    }

    #[test]
    fn flip_bit_matches_logical_xor_in_every_tier() {
        for k in [2u32, 5, 8, 11, 16, 21, 32] {
            let codes = grid_codes(k, 33, 17 + u64::from(k));
            for backend in [StoreBackend::Tiered, StoreBackend::I64] {
                let mut s = CodeStore::with_backend(backend, &codes, b(k));
                let mut expect = codes.clone();
                let mut r = rng::seeded(19);
                for _ in 0..300 {
                    let i = r.gen_range(0..33usize);
                    let bit = r.gen_range(0..k);
                    let got = s.flip_bit(i, bit);
                    expect[i] ^= 1i64 << bit;
                    assert_eq!(got, expect[i], "k={k} backend={backend:?}");
                    assert!((0..=b(k).num_steps() as i64).contains(&got));
                }
                assert_eq!(s.to_vec(), expect);
            }
        }
    }

    #[test]
    fn packed_flip_is_physically_one_word_bit() {
        let k = 21u32; // fields straddle word boundaries
        let codes = grid_codes(k, 40, 23);
        let mut s = CodeStore::with_backend(StoreBackend::Tiered, &codes, b(k));
        let before = s.to_packed();
        let elem = 3usize; // bits [63, 84): straddles words 0 and 1
        let bit = 2u32;
        s.flip_bit(elem, bit);
        let after = s.to_packed();
        let pos = elem * k as usize + bit as usize;
        let mut diff_bits = 0u32;
        for (i, (a, b_)) in before
            .data_words()
            .iter()
            .zip(after.data_words())
            .enumerate()
        {
            let d = a ^ b_;
            diff_bits += d.count_ones();
            if d != 0 {
                assert_eq!(i, pos / 64);
                assert_eq!(d, 1u64 << (pos % 64));
            }
        }
        assert_eq!(diff_bits, 1, "exactly one physical bit must change");
    }

    #[test]
    fn resident_bytes_shrink_with_the_tier() {
        let n = 1000usize;
        let k6 = CodeStore::with_backend(StoreBackend::Tiered, &grid_codes(6, n, 29), b(6));
        let k12 = CodeStore::with_backend(StoreBackend::Tiered, &grid_codes(12, n, 29), b(12));
        let k20 = CodeStore::with_backend(StoreBackend::Tiered, &grid_codes(20, n, 29), b(20));
        let ref64 = CodeStore::with_backend(StoreBackend::I64, &grid_codes(6, n, 29), b(6));
        assert_eq!(k6.resident_bytes(), 1000);
        assert_eq!(k12.resident_bytes(), 2000);
        assert_eq!(k20.resident_bytes(), (((1000 * 20) / 64) + 1 + 1) * 8);
        assert_eq!(ref64.resident_bytes(), 8000);
        assert!(k6.resident_bytes() * 4 <= ref64.resident_bytes());
        assert_eq!(k6.resident_bits_per_code(), 8);
        assert_eq!(k12.resident_bits_per_code(), 16);
        assert_eq!(ref64.resident_bits_per_code(), 64);
        // Packed: 20 logical bits cost ~20.2 physical (padding amortised).
        assert!(k20.resident_bits_per_code() >= 20 && k20.resident_bits_per_code() <= 22);
    }

    #[test]
    fn for_each_word_covers_every_resident_bit() {
        // A digest built on for_each_word must see any single stored-bit
        // change; spot-check by flipping one code bit per tier.
        for k in [6u32, 12, 24] {
            let codes = grid_codes(k, 50, 31);
            let mut s = CodeStore::with_backend(StoreBackend::Tiered, &codes, b(k));
            let collect = |s: &CodeStore| {
                let mut v = Vec::new();
                s.for_each_word(|w| v.push(w));
                v
            };
            let before = collect(&s);
            s.flip_bit(49, k - 1); // sign bit of the last element
            let after = collect(&s);
            assert_ne!(before, after, "k={k}");
            assert_eq!(before.len(), after.len());
        }
    }

    #[test]
    fn backend_override_round_trips() {
        // Serialised: this test owns the global for its duration only in
        // the sense that it restores the env-derived default afterwards.
        let initial = store_backend();
        set_store_backend(StoreBackend::I64);
        assert_eq!(store_backend(), StoreBackend::I64);
        set_store_backend(StoreBackend::Tiered);
        assert_eq!(store_backend(), StoreBackend::Tiered);
        set_store_backend(initial);
    }

    #[test]
    fn empty_store_is_well_behaved() {
        let s = CodeStore::with_backend(StoreBackend::Tiered, &[], b(6));
        assert!(s.is_empty());
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.to_vec(), Vec::<i64>::new());
        assert_eq!(s.count_rails(63), 0);
        assert_eq!(s.to_packed().data_words().len(), 0);
        let p = PackedCodes::from_signed(&[], b(20)).unwrap();
        assert_eq!(p.resident_bytes(), 8); // just the padding word
    }
}
