//! Dense matrix multiplication.
//!
//! Three kernels cover every use in the training stack:
//!
//! * [`matmul`] — `C = A·B` (forward pass of linear layers, im2col conv).
//! * [`matmul_at_b`] — `C = Aᵀ·B` (weight gradients).
//! * [`matmul_a_bt`] — `C = A·Bᵀ` (input gradients).
//!
//! Each is a register/cache-blocked micro-kernel parallelised over output
//! rows with the [`crate::par`] pool. `matmul` tiles the shared dimension
//! (so a `KC`-row panel of B stays hot in cache) and processes C in quads
//! of rows that share each B-row load; `matmul_a_bt` packs Bᵀ into a
//! contiguous panel once and reuses the same blocked core (falling back to
//! a four-wide register dot kernel when C has too few rows to amortise the
//! transpose). Every per-element accumulation runs in the same order as
//! the naive serial loop (k ascending for `matmul` and `matmul_at_b`,
//! j ascending for `matmul_a_bt`), so results are bit-identical for every
//! thread count and across both `matmul_a_bt` paths.
//!
//! The old kernels skipped `aik == 0.0` terms; that branch defeated
//! autovectorisation and silently swallowed NaN/Inf coming from B (a
//! `0.0 × NaN` term was dropped instead of poisoning C), which could hide
//! corruption from the integrity sentinels. The blocked kernels have no
//! such branch: IEEE-754 propagation is faithful.
//!
//! The slice-level `gemm*` entry points are shared with the conv kernels,
//! which call them directly on im2col scratch buffers to avoid per-call
//! tensor allocation.

use crate::{par, Result, Tensor, TensorError};
use std::cell::RefCell;

/// Shared-dimension tile: one tile of B (`KC × n` floats) is streamed
/// through while a block of C rows stays resident.
const KC: usize = 128;
/// C-row quad size: four output rows share each B-row load.
const MR: usize = 4;
/// Minimum C-row count before [`gemm_a_bt`] packs Bᵀ into a contiguous
/// panel: below this the one-off transpose rivals the GEMM itself and the
/// register-dot kernel wins.
const ABT_PACK_MIN_ROWS: usize = 8;

thread_local! {
    /// Packed Bᵀ panel for the blocked `gemm_a_bt` path, grown
    /// monotonically and reused across calls.
    static BT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-chunk zeroed accumulator for the blocked `gemm_a_bt` path (so
    /// callers that `+=` into non-zero C keep the one-add-per-element
    /// semantics of the dot kernel).
    static ABT_ACC_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn check_matrix(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

// ---------------------------------------------------------------------------
// Slice-level kernels (shared with ops::conv)
// ---------------------------------------------------------------------------

/// `C[m×n] += A[m×k] · B[k×n]` on raw slices, parallel over C row chunks.
pub(crate) fn gemm(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), k * n);
    debug_assert_eq!(cd.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let row_cost = 2 * k.max(1) * n;
    if !par::worth_parallelising(m * row_cost) {
        gemm_rows(ad, bd, cd, 0, k, n);
        return;
    }
    let rows_per_chunk = par::chunk_items(m, row_cost);
    par::for_each_chunk_mut(cd, rows_per_chunk * n, |ci, c_rows| {
        gemm_rows(ad, bd, c_rows, ci * rows_per_chunk, k, n);
    });
}

/// Serial core of [`gemm`] for C rows `row0..row0 + c_rows.len()/n`.
///
/// k is tiled so the active B panel stays cached, and C rows are walked
/// in quads that reuse each B row four times. Both blockings leave every
/// C element's accumulation order k-ascending — identical to the naive
/// i-k-j loop.
///
/// Forced inline: with `a_packed_bt_rows` as a third caller the compiler
/// no longer inlines it into [`gemm`] on its own, which costs serial 192³
/// matmul about 7 %.
#[inline(always)]
fn gemm_rows(ad: &[f32], bd: &[f32], c_rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = c_rows.len() / n;
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let mut i = 0;
        while i + MR <= rows {
            let block = &mut c_rows[i * n..(i + MR) * n];
            let (c0, rest) = block.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            let a0 = &ad[(row0 + i) * k..(row0 + i + 1) * k];
            let a1 = &ad[(row0 + i + 1) * k..(row0 + i + 2) * k];
            let a2 = &ad[(row0 + i + 2) * k..(row0 + i + 3) * k];
            let a3 = &ad[(row0 + i + 3) * k..(row0 + i + 4) * k];
            for kk in k0..k1 {
                let b_row = &bd[kk * n..(kk + 1) * n];
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                // Zip chain (not indexing) so the bounds checks vanish and
                // the loop vectorises into four FMA streams.
                let quads = b_row
                    .iter()
                    .zip(c0.iter_mut())
                    .zip(c1.iter_mut())
                    .zip(c2.iter_mut())
                    .zip(c3.iter_mut());
                for ((((&bv, v0), v1), v2), v3) in quads {
                    *v0 += x0 * bv;
                    *v1 += x1 * bv;
                    *v2 += x2 * bv;
                    *v3 += x3 * bv;
                }
            }
            i += MR;
        }
        while i < rows {
            let c_row = &mut c_rows[i * n..(i + 1) * n];
            let a_row = &ad[(row0 + i) * k..(row0 + i + 1) * k];
            for kk in k0..k1 {
                let x = a_row[kk];
                let b_row = &bd[kk * n..(kk + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *cv += x * bv;
                }
            }
            i += 1;
        }
        k0 = k1;
    }
}

/// `C[k×n] += Aᵀ·B` (A stored `[m×k]`) on raw slices, parallel over C row
/// chunks. Per C element the accumulation walks i = 0..m ascending,
/// matching the naive serial loop.
pub(crate) fn gemm_at_b(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(ad.len(), m * k);
    debug_assert_eq!(bd.len(), m * n);
    debug_assert_eq!(cd.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    let row_cost = 2 * m.max(1) * n;
    if !par::worth_parallelising(k * row_cost) {
        at_b_rows(ad, bd, cd, 0, m, k, n);
        return;
    }
    let rows_per_chunk = par::chunk_items(k, row_cost);
    par::for_each_chunk_mut(cd, rows_per_chunk * n, |ci, c_rows| {
        at_b_rows(ad, bd, c_rows, ci * rows_per_chunk, m, k, n);
    });
}

/// Serial core of [`gemm_at_b`] for C rows `kk0..kk0 + c_rows.len()/n`.
fn at_b_rows(ad: &[f32], bd: &[f32], c_rows: &mut [f32], kk0: usize, m: usize, k: usize, n: usize) {
    let kkn = c_rows.len() / n;
    for i in 0..m {
        let b_row = &bd[i * n..(i + 1) * n];
        let a_i = &ad[i * k + kk0..i * k + kk0 + kkn];
        for (r, &x) in a_i.iter().enumerate() {
            let c_row = &mut c_rows[r * n..(r + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += x * bv;
            }
        }
    }
}

/// `C[m×k] += A·Bᵀ` (B stored `[k×n]`) on raw slices, parallel over C row
/// chunks. Each C element is a j-ascending dot product, matching the
/// naive serial loop.
pub(crate) fn gemm_a_bt(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(ad.len(), m * n);
    debug_assert_eq!(bd.len(), k * n);
    debug_assert_eq!(cd.len(), m * k);
    if m == 0 || k == 0 {
        return;
    }
    if m >= ABT_PACK_MIN_ROWS && n > 0 {
        gemm_a_bt_packed(ad, bd, cd, m, k, n);
        return;
    }
    let row_cost = 2 * k * n.max(1);
    if !par::worth_parallelising(m * row_cost) {
        a_bt_rows(ad, bd, cd, 0, k, n);
        return;
    }
    let rows_per_chunk = par::chunk_items(m, row_cost);
    par::for_each_chunk_mut(cd, rows_per_chunk * k, |ci, c_rows| {
        a_bt_rows(ad, bd, c_rows, ci * rows_per_chunk, k, n);
    });
}

/// Packed-Bᵀ path of [`gemm_a_bt`]: transposes B once into a contiguous
/// `[n×k]` panel so the inner kernel streams unit-stride rows (the strided
/// dot kernel ran at roughly half the `gemm` throughput), then reuses the
/// blocked [`gemm_rows`] core with the roles of `k` and `n` swapped.
///
/// Bit-compatibility with [`a_bt_rows`]: each C element there is a single
/// register dot product (j-ascending from `0.0`) added to C once. Here the
/// same j-ascending chain accumulates in a zeroed scratch element — the KC
/// tiling only pauses the chain, never reorders it — and is then added to C
/// once, so the f32 operation sequence per element is identical for both
/// zeroed (matmul) and pre-accumulated (conv backward-weight) destinations.
fn gemm_a_bt_packed(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    BT_SCRATCH.with(|cell| {
        let mut bt_buf = cell.borrow_mut();
        if bt_buf.len() < n * k {
            bt_buf.resize(n * k, 0.0);
        }
        let bt = &mut bt_buf[..n * k];
        for kk in 0..k {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (j, &v) in b_row.iter().enumerate() {
                bt[j * k + kk] = v;
            }
        }
        let bt: &[f32] = bt;
        let row_cost = 2 * k * n;
        if !par::worth_parallelising(m * row_cost) {
            a_packed_bt_rows(ad, bt, cd, 0, k, n);
            return;
        }
        let rows_per_chunk = par::chunk_items(m, row_cost);
        par::for_each_chunk_mut(cd, rows_per_chunk * k, |ci, c_rows| {
            a_packed_bt_rows(ad, bt, c_rows, ci * rows_per_chunk, k, n);
        });
    });
}

/// Serial core of the packed path of [`gemm_a_bt`] for C rows
/// `row0..row0 + c_rows.len()/k`, with Bᵀ already packed as `bt[n×k]`.
/// Also called directly by conv backward-weight, which lowers its im2col
/// rows straight into that packed layout.
pub(crate) fn a_packed_bt_rows(
    ad: &[f32],
    bt: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    ABT_ACC_SCRATCH.with(|acc_cell| {
        let mut acc_buf = acc_cell.borrow_mut();
        if acc_buf.len() < c_rows.len() {
            acc_buf.resize(c_rows.len(), 0.0);
        }
        let acc = &mut acc_buf[..c_rows.len()];
        acc.fill(0.0);
        // Shared dim is n, output width is k: C_chunk = A_chunk · Bᵀ.
        gemm_rows(ad, bt, acc, row0, n, k);
        for (cv, &sv) in c_rows.iter_mut().zip(acc.iter()) {
            *cv += sv;
        }
    });
}

/// Serial core of [`gemm_a_bt`] for C rows `row0..row0 + c_rows.len()/k`.
/// Four dot products run per pass over the A row, sharing its loads.
fn a_bt_rows(ad: &[f32], bd: &[f32], c_rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = c_rows.len() / k;
    for r in 0..rows {
        let a_row = &ad[(row0 + r) * n..(row0 + r + 1) * n];
        let c_row = &mut c_rows[r * k..(r + 1) * k];
        let mut kk = 0;
        while kk + 4 <= k {
            let b0 = &bd[kk * n..(kk + 1) * n];
            let b1 = &bd[(kk + 1) * n..(kk + 2) * n];
            let b2 = &bd[(kk + 2) * n..(kk + 3) * n];
            let b3 = &bd[(kk + 3) * n..(kk + 4) * n];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (j, &av) in a_row.iter().enumerate() {
                s0 += av * b0[j];
                s1 += av * b1[j];
                s2 += av * b2[j];
                s3 += av * b3[j];
            }
            c_row[kk] += s0;
            c_row[kk + 1] += s1;
            c_row[kk + 2] += s2;
            c_row[kk + 3] += s3;
            kk += 4;
        }
        while kk < k {
            let b_row = &bd[kk * n..(kk + 1) * n];
            let mut s = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                s += av * bv;
            }
            c_row[kk] += s;
            kk += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Public tensor-level API
// ---------------------------------------------------------------------------

/// `C[m×n] = A[m×k] · B[k×n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless both operands are rank 2 and
/// [`TensorError::ShapeMismatch`] unless the inner dimensions agree.
///
/// ```
/// use apt_tensor::{Tensor, ops};
/// let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19., 22., 43., 50.]);
/// # Ok::<(), apt_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_matrix("matmul", a)?;
    let (kb, n) = check_matrix("matmul", b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[m, n]);
    gemm(a.data(), b.data(), c.data_mut(), m, ka, n);
    Ok(c)
}

/// `C[k×n] = Aᵀ[k×m] · B[m×n]` where `A` is stored as `[m×k]`.
///
/// Used for weight gradients (`dW = Xᵀ·dY`) without materialising a
/// transpose.
///
/// # Errors
///
/// Same contract as [`matmul`]; the shared dimension is `A`'s rows.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix("matmul_at_b", a)?;
    let (mb, n) = check_matrix("matmul_at_b", b)?;
    if m != mb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[k, n]);
    gemm_at_b(a.data(), b.data(), c.data_mut(), m, k, n);
    Ok(c)
}

/// `C[m×k] = A[m×n] · Bᵀ[n×k]` where `B` is stored as `[k×n]`.
///
/// Used for input gradients (`dX = dY·Wᵀ`) without materialising a
/// transpose.
///
/// # Errors
///
/// Same contract as [`matmul`]; the shared dimension is both operands'
/// columns.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n) = check_matrix("matmul_a_bt", a)?;
    let (k, nb) = check_matrix("matmul_a_bt", b)?;
    if n != nb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[m, k]);
    gemm_a_bt(a.data(), b.data(), c.data_mut(), m, k, n);
    Ok(c)
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = check_matrix("transpose", a)?;
    let mut out = Tensor::zeros(&[n, m]);
    let (ad, od) = (a.data(), out.data_mut());
    for i in 0..m {
        for j in 0..n {
            od[j * m + i] = ad[i * n + j];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                c.data_mut()[i * n + j] = s;
            }
        }
        c
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = crate::rng::seeded(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 2, 9), (16, 16, 16)] {
            let a = crate::rng::normal(&[m, k], 1.0, &mut rng);
            let b = crate::rng::normal(&[k, n], 1.0, &mut rng);
            assert!(close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4));
        }
    }

    #[test]
    fn blocked_matmul_is_bitwise_naive() {
        // The blocked kernel keeps each C element's accumulation order
        // k-ascending, so it must agree with the naive triple loop to the
        // last bit — not just to a tolerance.
        let mut rng = crate::rng::seeded(7);
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 2), (9, 17, 11), (33, 40, 29)] {
            let a = crate::rng::normal(&[m, k], 1.0, &mut rng);
            let b = crate::rng::normal(&[k, n], 1.0, &mut rng);
            let c = matmul(&a, &b).unwrap();
            let r = naive(&a, &b);
            assert!(c
                .data()
                .iter()
                .zip(r.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = crate::rng::seeded(2);
        let a = crate::rng::normal(&[6, 3], 1.0, &mut rng);
        let b = crate::rng::normal(&[6, 4], 1.0, &mut rng);
        let expected = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert!(close(&matmul_at_b(&a, &b).unwrap(), &expected, 1e-4));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = crate::rng::seeded(3);
        let a = crate::rng::normal(&[5, 7], 1.0, &mut rng);
        let b = crate::rng::normal(&[4, 7], 1.0, &mut rng);
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert!(close(&matmul_a_bt(&a, &b).unwrap(), &expected, 1e-4));
    }

    #[test]
    fn packed_a_bt_is_bitwise_dot_kernel() {
        // The packed-Bᵀ path must reproduce the register-dot kernel to the
        // last bit — for zeroed C (matmul_a_bt) AND for destinations that
        // already hold partial sums (conv2d_backward_weight accumulates
        // per-image gradients straight into dW).
        let mut rng = crate::rng::seeded(11);
        for &(m, k, n) in &[
            (8, 1, 1),
            (8, 4, 3),
            (9, 7, 5),
            (33, 13, 150),
            (64, 32, 257),
        ] {
            let a = crate::rng::normal(&[m, n], 1.0, &mut rng);
            let b = crate::rng::normal(&[k, n], 1.0, &mut rng);
            let seed = crate::rng::normal(&[m, k], 1.0, &mut rng);

            let mut packed = seed.data().to_vec();
            gemm_a_bt(a.data(), b.data(), &mut packed, m, k, n);
            assert!(
                m >= ABT_PACK_MIN_ROWS,
                "shape must exercise the packed path"
            );

            let mut dotk = seed.data().to_vec();
            a_bt_rows(a.data(), b.data(), &mut dotk, 0, k, n);

            assert!(packed
                .iter()
                .zip(dotk.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn packed_a_bt_matches_explicit_transpose() {
        let mut rng = crate::rng::seeded(12);
        let a = crate::rng::normal(&[16, 40], 1.0, &mut rng);
        let b = crate::rng::normal(&[9, 40], 1.0, &mut rng);
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert!(close(&matmul_a_bt(&a, &b).unwrap(), &expected, 1e-4));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let c = matmul(&a, &Tensor::eye(3)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn zero_times_nan_in_b_reaches_c() {
        // Regression: the old kernel's `aik == 0.0` early-continue dropped
        // the 0·NaN product, so a NaN planted in B was invisible whenever
        // the matching A element was zero — corruption the integrity
        // sentinels could never see. IEEE-754 says 0·NaN = NaN.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison C in matmul");
        assert_eq!(c.data()[1], 1.0 * 4.0 + 0.0 * 2.0);

        // Aᵀ·B: A = [[0], [1]] (stored [2×1]), NaN in B row 0.
        let a_t = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]).unwrap();
        let c = matmul_at_b(&a_t, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison C in matmul_at_b");

        // A·Bᵀ: zero in A meets NaN in the matching B column.
        let b_t = Tensor::from_vec(vec![f32::NAN, 3.0], &[1, 2]).unwrap();
        let c = matmul_a_bt(&a, &b_t).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison C in matmul_a_bt");
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_at_b(&a, &b).is_err());
        assert!(matmul_a_bt(&a, &b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&v, &b).is_err());
        assert!(transpose(&v).is_err());
    }

    #[test]
    fn degenerate_dims_are_fine() {
        for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            let c = matmul(&a, &b).unwrap();
            assert_eq!(c.dims(), &[m, n]);
            let c = matmul_at_b(&a, &Tensor::zeros(&[m, n])).unwrap();
            assert_eq!(c.dims(), &[k, n]);
            let c = matmul_a_bt(&a, &Tensor::zeros(&[n, k])).unwrap();
            assert_eq!(c.dims(), &[m, n]);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(transpose(&t).unwrap().data(), a.data());
    }
}
