//! 2-D convolution (NCHW) via im2col + GEMM.
//!
//! Three kernels implement the full training path of a conv layer:
//!
//! * [`conv2d`] — forward.
//! * [`conv2d_backward_input`] — gradient w.r.t. the input (col2im of
//!   `Wᵀ·dY`).
//! * [`conv2d_backward_weight`] — gradient w.r.t. the weights
//!   (`dY·colᵀ`).
//!
//! Grouped convolution is supported so `apt-nn` can build MobileNetV2's
//! depthwise layers (`groups == in_channels`). All kernels take a
//! [`Conv2dParams`] describing stride/padding/groups, validated once.
//!
//! The im2col/col2im staging matrices live in a per-thread scratch
//! buffer that is grown once and reused for every subsequent call, so
//! steady-state training allocates nothing here beyond the output tensor
//! (and, for backward-weight, one weight-sized staging buffer). The GEMMs
//! run on the scratch slices directly via the `pub(crate)` kernels in
//! `matmul_impl`.
//!
//! Forward and backward-input are parallelised over images: each image
//! owns a disjoint output slice. Backward-weight sums a contribution from
//! every image into the same dW, so it is parallelised over im2col rows
//! (dW's columns) instead, in one parallel region per call. Each chunk of
//! rows lowers only its own rows of each image (`im2col_rows`, straight
//! into the packed Bᵀ layout of the `dY · colᵀ` GEMM) and runs the images
//! in ascending order, calling the serial GEMM core once per image; the
//! chunks' blocks are then copied into dW. Every kernel keeps each
//! element's accumulation order fixed, so all three are bit-identical for
//! every thread count.

use crate::ops::matmul_impl::{a_packed_bt_rows, gemm, gemm_at_b};
use crate::{par, Result, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Per-thread im2col/col2im staging buffer, grown monotonically and
    /// reused across calls (and across training steps).
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's scratch buffer, grown to at least `len`.
/// Shared with the fused conv kernel in [`crate::ops::fused`] so frozen
/// plans reuse the same warm per-thread staging memory.
pub(crate) fn with_col_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    COL_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along height and width.
    pub stride: usize,
    /// Zero padding applied symmetrically along height and width.
    pub padding: usize,
    /// Number of channel groups (1 = dense, `in_channels` = depthwise).
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }
}

impl Conv2dParams {
    /// Convenience constructor.
    pub fn new(stride: usize, padding: usize, groups: usize) -> Self {
        Conv2dParams {
            stride,
            padding,
            groups,
        }
    }

    /// Output spatial size for an input spatial size and kernel size.
    pub fn out_size(&self, in_size: usize, kernel: usize) -> usize {
        (in_size + 2 * self.padding).saturating_sub(kernel) / self.stride + 1
    }

    /// Checks operand dims and returns `(n, c_in, h, w, c_out, kh, kw)`.
    /// Takes dims, not tensors, so the backward kernels validate without
    /// materialising the operand they only know the shape of.
    fn validate(
        &self,
        input: &[usize],
        weight: &[usize],
    ) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
        for dims in [input, weight] {
            if dims.len() != 4 {
                return Err(TensorError::RankMismatch {
                    op: "conv2d",
                    expected: 4,
                    actual: dims.len(),
                });
            }
        }
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: "stride must be >= 1".into(),
            });
        }
        let (n, c_in, h, w) = (input[0], input[1], input[2], input[3]);
        let (c_out, c_in_per_group, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
        if self.groups == 0 || c_in % self.groups != 0 || c_out % self.groups != 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: format!(
                    "groups {} must divide in_channels {} and out_channels {}",
                    self.groups, c_in, c_out
                ),
            });
        }
        if c_in / self.groups != c_in_per_group {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: input.to_vec(),
                rhs: weight.to_vec(),
            });
        }
        if h + 2 * self.padding < kh || w + 2 * self.padding < kw {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: format!("kernel {kh}x{kw} larger than padded input {h}x{w}"),
            });
        }
        Ok((n, c_in, h, w, c_out, kh, kw))
    }
}

/// Lowers im2col rows `row0..row0 + rows` of one image into `col`, where
/// `rows = col.len() / (oh·ow)`. Row `r` is input channel `r / (kh·kw)` at
/// kernel tap `(r / kw % kh, r % kw)`, so group `grp`'s rows are the
/// contiguous range starting at `grp·c_in_g·kh·kw`. Without `TRANSPOSED`,
/// `col` is the row-major `[rows, oh·ow]` matrix that [`conv2d`] and
/// [`crate::ops::fused`] feed to `gemm` one group at a time; with it, `col`
/// is the packed `[oh·ow, rows]` Bᵀ panel that [`conv2d_backward_weight`]
/// feeds to `a_packed_bt_rows` one chunk segment at a time. The layout is
/// a const parameter, and the row-major path keeps its own fill and copy
/// loops, because a runtime switch measurably slowed the forward lowering.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_rows<const TRANSPOSED: bool>(
    input: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    oh: usize,
    ow: usize,
    row0: usize,
    col: &mut [f32],
) {
    let (col_w, rows) = (oh * ow, col.len() / (oh * ow));
    if rows == 0 {
        return;
    }
    for c in row0 / (kh * kw)..=(row0 + rows - 1) / (kh * kw) {
        let chan = &input[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let Some(r) = ((c * kh + ki) * kw + kj)
                    .checked_sub(row0)
                    .filter(|&r| r < rows)
                else {
                    continue;
                };
                for oi in 0..oh {
                    let ii = (oi * p.stride + ki) as isize - p.padding as isize;
                    let in_h = ii >= 0 && (ii as usize) < h;
                    let tap = |oj: usize| {
                        let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                        if in_h && jj >= 0 && (jj as usize) < w {
                            chan[ii as usize * w + jj as usize]
                        } else {
                            0.0
                        }
                    };
                    if TRANSPOSED {
                        for oj in 0..ow {
                            col[(oi * ow + oj) * rows + r] = tap(oj);
                        }
                        continue;
                    }
                    let dst = &mut col[r * col_w + oi * ow..r * col_w + (oi + 1) * ow];
                    if !in_h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &chan[ii as usize * w..(ii as usize + 1) * w];
                    for (oj, d) in dst.iter_mut().enumerate() {
                        let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                        *d = if jj < 0 || jj as usize >= w {
                            0.0
                        } else {
                            src_row[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Scatters an im2col-shaped gradient back onto the input (col2im).
#[allow(clippy::too_many_arguments)]
fn col2im_group(
    col: &[f32],
    c_start: usize,
    c_g: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let col_w = oh * ow;
    for c in 0..c_g {
        let chan = &mut out[(c_start + c) * h * w..(c_start + c + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((c * kh + ki) * kw + kj) * col_w;
                for oi in 0..oh {
                    let ii = (oi * p.stride + ki) as isize - p.padding as isize;
                    if ii < 0 || ii as usize >= h {
                        continue;
                    }
                    let src = &col[row + oi * ow..row + (oi + 1) * ow];
                    for (oj, &v) in src.iter().enumerate() {
                        let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                        if jj >= 0 && (jj as usize) < w {
                            chan[ii as usize * w + jj as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// * `input` — `[n, c_in, h, w]`
/// * `weight` — `[c_out, c_in/groups, kh, kw]`
///
/// Returns `[n, c_out, oh, ow]`.
///
/// # Errors
///
/// Returns shape/rank/argument errors for malformed operands; see
/// [`Conv2dParams`].
pub fn conv2d(input: &Tensor, weight: &Tensor, params: &Conv2dParams) -> Result<Tensor> {
    let (n, c_in, h, w, c_out, kh, kw) = params.validate(input.dims(), weight.dims())?;
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    let g = params.groups;
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kh * kw;
    let col_w = oh * ow;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let img_len = c_out * col_w;
    if n == 0 || img_len == 0 {
        return Ok(out);
    }
    let img_cost = 2 * c_out * col_rows * col_w;
    let imgs_per_chunk = par::chunk_items(n, img_cost);
    let (in_data, w_data) = (input.data(), weight.data());
    par::for_each_chunk_mut(out.data_mut(), imgs_per_chunk * img_len, |ci, out_chunk| {
        for (local, out_img) in out_chunk.chunks_mut(img_len).enumerate() {
            let img = ci * imgs_per_chunk + local;
            let in_img = &in_data[img * c_in * h * w..(img + 1) * c_in * h * w];
            with_col_scratch(col_rows * col_w, |col| {
                for grp in 0..g {
                    im2col_rows::<false>(in_img, h, w, kh, kw, params, oh, ow, grp * col_rows, col);
                    let w_grp = &w_data[grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                    let dst = &mut out_img[grp * c_out_g * col_w..(grp + 1) * c_out_g * col_w];
                    gemm(w_grp, col, dst, c_out_g, col_rows, col_w);
                }
            });
        }
    });
    Ok(out)
}

/// Gradient of [`conv2d`] w.r.t. the input.
///
/// * `grad_output` — `[n, c_out, oh, ow]`
///
/// Returns `[n, c_in, h, w]` where `input_dims = [n, c_in, h, w]` are the
/// original input dimensions.
///
/// # Errors
///
/// Returns shape errors when `grad_output`/`weight`/`input_dims` disagree.
pub fn conv2d_backward_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    params: &Conv2dParams,
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_input",
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c_in, h, w, c_out, kh, kw) = params.validate(input_dims, weight.dims())?;
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    if grad_output.dims() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_input",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, c_out, oh, ow],
        });
    }
    let g = params.groups;
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kh * kw;
    let col_w = oh * ow;

    let mut grad_in = Tensor::zeros(input_dims);
    let img_len = c_in * h * w;
    if n == 0 || img_len == 0 {
        return Ok(grad_in);
    }
    let img_cost = 2 * c_out * col_rows * col_w;
    let imgs_per_chunk = par::chunk_items(n, img_cost);
    let (go_data, w_data) = (grad_output.data(), weight.data());
    par::for_each_chunk_mut(
        grad_in.data_mut(),
        imgs_per_chunk * img_len,
        |ci, gi_chunk| {
            for (local, gi_img) in gi_chunk.chunks_mut(img_len).enumerate() {
                let img = ci * imgs_per_chunk + local;
                with_col_scratch(col_rows * col_w, |dcol| {
                    for grp in 0..g {
                        let go_base = img * c_out * col_w + grp * c_out_g * col_w;
                        let go = &go_data[go_base..go_base + c_out_g * col_w];
                        let w_grp =
                            &w_data[grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                        // dCol[col_rows, col_w] = Wᵀ · dY
                        dcol.fill(0.0);
                        gemm_at_b(w_grp, go, dcol, c_out_g, col_rows, col_w);
                        col2im_group(
                            dcol,
                            grp * c_in_g,
                            c_in_g,
                            h,
                            w,
                            kh,
                            kw,
                            params,
                            oh,
                            ow,
                            gi_img,
                        );
                    }
                });
            }
        },
    );
    Ok(grad_in)
}

/// Fewest im2col rows in a [`conv2d_backward_weight`] chunk. Each chunk
/// runs one `dY · colᵀ` GEMM per image whose output width is its row
/// count; below this the GEMM is too narrow to vectorise and the per-image
/// call overhead dominates.
const MIN_CHUNK_ROWS: usize = 16;

/// Im2col rows per [`conv2d_backward_weight`] chunk for `rows` rows that
/// each cost `row_cost` scalar ops over the whole batch. Shape-only, as
/// every `par` chunking is.
fn backward_weight_chunk_rows(rows: usize, row_cost: usize) -> usize {
    if par::worth_parallelising(rows * row_cost) {
        par::chunk_items(rows, row_cost).max(MIN_CHUNK_ROWS)
    } else {
        rows
    }
}

/// Gradient of [`conv2d`] w.r.t. the weights.
///
/// Returns a tensor shaped like `weight_dims = [c_out, c_in/groups, kh, kw]`.
///
/// # Errors
///
/// Returns shape errors when operands disagree.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    weight_dims: &[usize],
    params: &Conv2dParams,
) -> Result<Tensor> {
    if weight_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_weight",
            expected: 4,
            actual: weight_dims.len(),
        });
    }
    let (n, c_in, h, w, c_out, kh, kw) = params.validate(input.dims(), weight_dims)?;
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    if grad_output.dims() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_weight",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, c_out, oh, ow],
        });
    }
    let g = params.groups;
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kh * kw;
    let col_w = oh * ow;

    let mut grad_w = Tensor::zeros(weight_dims);
    if n == 0 || grad_w.is_empty() {
        return Ok(grad_w);
    }
    // One parallel region over im2col rows, i.e. over dW's columns. A
    // chunk lowers only its own rows of each image and runs the images
    // ascending, so every dW element sums its per-image dots in the same
    // order as a serial image loop. A chunk may straddle a group
    // boundary, so it works per group segment: each segment's rows pair
    // with that group's dY, and its `[c_out_g, seg_len]` block of dW
    // lands in `staged` at the segment's offset within the chunk.
    let rows = g * col_rows;
    let rows_per_chunk = backward_weight_chunk_rows(rows, 2 * n * c_out_g * col_w);
    let segments = |row0: usize, row_end: usize| {
        (row0 / col_rows..=(row_end - 1) / col_rows).map(move |grp| {
            (
                grp,
                row0.max(grp * col_rows)..row_end.min((grp + 1) * col_rows),
            )
        })
    };
    let mut staged = vec![0.0f32; rows * c_out_g];
    let (in_data, go_data) = (input.data(), grad_output.data());
    par::for_each_chunk_mut(&mut staged, rows_per_chunk * c_out_g, |ci, chunk| {
        let row0 = ci * rows_per_chunk;
        let row_end = row0 + chunk.len() / c_out_g;
        with_col_scratch((row_end - row0) * col_w, |col| {
            for img in 0..n {
                let in_img = &in_data[img * c_in * h * w..(img + 1) * c_in * h * w];
                for (grp, seg) in segments(row0, row_end) {
                    let go_base = (img * c_out + grp * c_out_g) * col_w;
                    let go = &go_data[go_base..go_base + c_out_g * col_w];
                    let col_t = &mut col[..seg.len() * col_w];
                    im2col_rows::<true>(in_img, h, w, kh, kw, params, oh, ow, seg.start, col_t);
                    let (a, b) = (seg.start - row0, seg.end - row0);
                    // dW[c_out_g, seg] += dY · col[seg]ᵀ
                    a_packed_bt_rows(
                        go,
                        col_t,
                        &mut chunk[a * c_out_g..b * c_out_g],
                        0,
                        b - a,
                        col_w,
                    );
                }
            }
        });
    });
    let dw = grad_w.data_mut();
    for (ci, chunk) in staged.chunks(rows_per_chunk * c_out_g).enumerate() {
        let row0 = ci * rows_per_chunk;
        for (grp, seg) in segments(row0, row0 + chunk.len() / c_out_g) {
            let block = &chunk[(seg.start - row0) * c_out_g..(seg.end - row0) * c_out_g];
            for (co, src) in block.chunks_exact(seg.len()).enumerate() {
                let dst = (grp * c_out_g + co) * col_rows + seg.start - grp * col_rows;
                dw[dst..dst + seg.len()].copy_from_slice(src);
            }
        }
    }
    Ok(grad_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul_impl::gemm_a_bt;
    use crate::rng;

    /// Direct (non-im2col) reference convolution.
    fn naive_conv(input: &Tensor, weight: &Tensor, p: &Conv2dParams) -> Tensor {
        let (n, _c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, c_in_g, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let g = p.groups;
        let c_out_g = c_out / g;
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for img in 0..n {
            for co in 0..c_out {
                let grp = co / c_out_g;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c_in_g {
                            let c_abs = grp * c_in_g + ci;
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ii = (oi * p.stride + ki) as isize - p.padding as isize;
                                    let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                                    if ii < 0 || jj < 0 || ii as usize >= h || jj as usize >= w {
                                        continue;
                                    }
                                    acc +=
                                        input.at(&[img, c_abs, ii as usize, jj as usize]).unwrap()
                                            * weight.at(&[co, ci, ki, kj]).unwrap();
                                }
                            }
                        }
                        out.set(&[img, co, oi, oj], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn forward_matches_naive_dense() {
        let mut r = rng::seeded(10);
        for &(stride, padding) in &[(1, 0), (1, 1), (2, 1)] {
            let p = Conv2dParams::new(stride, padding, 1);
            let x = rng::normal(&[2, 3, 6, 6], 1.0, &mut r);
            let w = rng::normal(&[4, 3, 3, 3], 1.0, &mut r);
            let got = conv2d(&x, &w, &p).unwrap();
            assert!(
                close(&got, &naive_conv(&x, &w, &p), 1e-4),
                "s={stride} p={padding}"
            );
        }
    }

    #[test]
    fn forward_matches_naive_grouped_and_depthwise() {
        let mut r = rng::seeded(11);
        // grouped: 4 channels, 2 groups
        let p = Conv2dParams::new(1, 1, 2);
        let x = rng::normal(&[1, 4, 5, 5], 1.0, &mut r);
        let w = rng::normal(&[6, 2, 3, 3], 1.0, &mut r);
        assert!(close(
            &conv2d(&x, &w, &p).unwrap(),
            &naive_conv(&x, &w, &p),
            1e-4
        ));
        // depthwise: groups == channels
        let p = Conv2dParams::new(2, 1, 4);
        let w = rng::normal(&[4, 1, 3, 3], 1.0, &mut r);
        assert!(close(
            &conv2d(&x, &w, &p).unwrap(),
            &naive_conv(&x, &w, &p),
            1e-4
        ));
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut r = rng::seeded(12);
        let p = Conv2dParams::new(1, 1, 1);
        let x = rng::normal(&[1, 2, 4, 4], 1.0, &mut r);
        let w = rng::normal(&[3, 2, 3, 3], 1.0, &mut r);
        let go = rng::normal(&[1, 3, 4, 4], 1.0, &mut r);
        let gi = conv2d_backward_input(&go, &w, x.dims(), &p).unwrap();
        // loss = sum(conv(x) * go); d loss / d x[k] via central differences
        let eps = 1e-2;
        for k in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let lp: f32 = conv2d(&xp, &w, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d(&xm, &w, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gi.data()[k]).abs() < 2e-2,
                "k={k} fd={fd} an={}",
                gi.data()[k]
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut r = rng::seeded(13);
        let p = Conv2dParams::new(2, 1, 1);
        let x = rng::normal(&[2, 2, 5, 5], 1.0, &mut r);
        let w = rng::normal(&[3, 2, 3, 3], 1.0, &mut r);
        let oh = p.out_size(5, 3);
        let go = rng::normal(&[2, 3, oh, oh], 1.0, &mut r);
        let gw = conv2d_backward_weight(&x, &go, w.dims(), &p).unwrap();
        let eps = 1e-2;
        for k in [0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[k] += eps;
            let mut wm = w.clone();
            wm.data_mut()[k] -= eps;
            let lp: f32 = conv2d(&x, &wp, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d(&x, &wm, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw.data()[k]).abs() < 5e-2,
                "k={k} fd={fd} an={}",
                gw.data()[k]
            );
        }
    }

    /// The per-image backward-weight loop this kernel replaced: images
    /// serial, one `dY · colᵀ` GEMM per image and group into dW.
    fn backward_weight_oracle(
        input: &Tensor,
        grad_output: &Tensor,
        weight_dims: &[usize],
        p: &Conv2dParams,
    ) -> Tensor {
        let (n, c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, kh, kw) = (weight_dims[0], weight_dims[2], weight_dims[3]);
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let g = p.groups;
        let c_out_g = c_out / g;
        let col_rows = c_in / g * kh * kw;
        let col_w = oh * ow;
        let mut grad_w = Tensor::zeros(weight_dims);
        let mut col = vec![0.0f32; col_rows * col_w];
        for img in 0..n {
            let in_img = &input.data()[img * c_in * h * w..(img + 1) * c_in * h * w];
            for grp in 0..g {
                im2col_rows::<false>(in_img, h, w, kh, kw, p, oh, ow, grp * col_rows, &mut col);
                let go_base = (img * c_out + grp * c_out_g) * col_w;
                let go = &grad_output.data()[go_base..go_base + c_out_g * col_w];
                let dst = &mut grad_w.data_mut()
                    [grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                gemm_a_bt(go, &col, dst, c_out_g, col_rows, col_w);
            }
        }
        grad_w
    }

    #[test]
    fn backward_weight_is_bit_identical_to_per_image_oracle() {
        let mut r = rng::seeded(15);
        let mut split_groups = 0;
        // (n, c_in, c_out, hw, groups): dense, grouped and depthwise, with
        // c_out/groups on both sides of the oracle GEMM's packing cutoff.
        for &(n, c_in, c_out, hw, g) in &[
            (3usize, 5usize, 6usize, 9usize, 1usize),
            (2, 4, 16, 8, 1),
            (3, 6, 4, 9, 2),
            (2, 6, 16, 7, 2),
            (4, 8, 8, 16, 8),
            (2, 3, 2, 5, 1),
        ] {
            for &(stride, padding) in &[(1, 0), (1, 1), (2, 0), (2, 1)] {
                let p = Conv2dParams::new(stride, padding, g);
                let x = rng::normal(&[n, c_in, hw, hw], 1.0, &mut r);
                let w_dims = [c_out, c_in / g, 3, 3];
                let oh = p.out_size(hw, 3);
                let go = rng::normal(&[n, c_out, oh, oh], 1.0, &mut r);
                let want: Vec<u32> = backward_weight_oracle(&x, &go, &w_dims, &p)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                // Confirm the premise that some shapes here put a chunk
                // boundary inside a group.
                let row_cost = 2 * n * (c_out / g) * oh * oh;
                let chunk_rows = backward_weight_chunk_rows(c_in * 9, row_cost);
                if chunk_rows < c_in * 9 && (c_in / g * 9) % chunk_rows != 0 {
                    split_groups += 1;
                }
                for threads in [1, 2, 3, 7] {
                    let got: Vec<u32> = par::with_threads(threads, || {
                        conv2d_backward_weight(&x, &go, &w_dims, &p).unwrap()
                    })
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                    assert_eq!(
                        got, want,
                        "n={n} c_in={c_in} c_out={c_out} hw={hw} g={g} \
                         s={stride} p={padding} threads={threads}"
                    );
                }
            }
        }
        assert!(split_groups > 0, "no case splits a group across chunks");
    }

    #[test]
    fn depthwise_backward_consistency() {
        let mut r = rng::seeded(14);
        let p = Conv2dParams::new(1, 1, 3);
        let x = rng::normal(&[1, 3, 4, 4], 1.0, &mut r);
        let w = rng::normal(&[3, 1, 3, 3], 1.0, &mut r);
        let go = rng::normal(&[1, 3, 4, 4], 1.0, &mut r);
        let gi = conv2d_backward_input(&go, &w, x.dims(), &p).unwrap();
        assert_eq!(gi.dims(), x.dims());
        let eps = 1e-2;
        let k = 10;
        let mut xp = x.clone();
        xp.data_mut()[k] += eps;
        let mut xm = x.clone();
        xm.data_mut()[k] -= eps;
        let f = |t: &Tensor| -> f32 {
            conv2d(t, &w, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
        assert!((fd - gi.data()[k]).abs() < 2e-2);
    }

    #[test]
    fn rejects_invalid_configs() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[4, 3, 3, 3]);
        assert!(conv2d(&x, &w, &Conv2dParams::new(0, 0, 1)).is_err());
        assert!(conv2d(&x, &w, &Conv2dParams::new(1, 0, 2)).is_err());
        let w_big = Tensor::zeros(&[4, 3, 9, 9]);
        assert!(conv2d(&x, &w_big, &Conv2dParams::default()).is_err());
        let w_badch = Tensor::zeros(&[4, 2, 3, 3]);
        assert!(conv2d(&x, &w_badch, &Conv2dParams::default()).is_err());
        let x3 = Tensor::zeros(&[3, 4, 4]);
        assert!(conv2d(&x3, &w, &Conv2dParams::default()).is_err());
    }

    #[test]
    fn output_shape_formula() {
        let p = Conv2dParams::new(2, 1, 1);
        assert_eq!(p.out_size(32, 3), 16);
        let p = Conv2dParams::new(1, 1, 1);
        assert_eq!(p.out_size(32, 3), 32);
    }
}
