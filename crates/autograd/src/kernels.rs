//! `f32` row kernels shared by the tape (the
//! [`Tensor::matmul`](crate::Tensor::matmul) family, layer norm, causal
//! softmax) and by tape-free decoders (the KV-cached sampler in
//! `chatfuzz-lm`), so both compute every row with the same operations.
//!
//! The matmul kernels compute one output row `out = row · W`, where `W`
//! is the row-major matrix `w` with `n` columns and `row.len()` rows.
//! They keep a block of 16 output columns in a register accumulator for
//! the whole `k` loop and write the block once, then finish the last
//! `< 16` columns in one narrower pass. [`layer_norm_into`],
//! [`softmax_in_place`] and [`transpose_into`] complete the set.
//!
//! # Accumulation-order contract
//!
//! Every output element is `((0.0 + row[0]·W[0][j]) + row[1]·W[1][j]) + …`:
//! `k` ascending from `+0.0`, one `f32` multiply then one `f32` add per
//! term, no fused multiply-add and no reassociation. [`row_matmul_into`]
//! skips every term whose `row[k] == 0.0` (either sign), so a zero never
//! multiplies an infinite weight into NaN; [`row_matmul_dense_into`]
//! keeps every term, as a plain dot product does. Blocking changes only
//! which columns run side by side, never the operations applied to one
//! element, so the results are bit-identical to the scalar loops.

/// Output columns held in the accumulator per pass.
const BLOCK: usize = 16;

/// `out[j] = Σ_k row[k]·w[k·n + j]` for every `j < out.len()`, skipping
/// the terms with `row[k] == 0.0` (see the module docs for the order).
///
/// `out` may cover only the first columns of `W`: the KV-cached decoder
/// scores its cached keys as a prefix of a fixed-width table.
///
/// # Panics
///
/// Panics if `w.len() != row.len() * n` or `out.len() > n`.
pub fn row_matmul_into(row: &[f32], w: &[f32], n: usize, out: &mut [f32]) {
    // Only a zero in the row makes the skip observable; rows without one
    // take the branch-free loop.
    if row.contains(&0.0) {
        row_matmul::<true>(row, w, n, out);
    } else {
        row_matmul::<false>(row, w, n, out);
    }
}

/// [`row_matmul_into`] without the zero skip: every element is a plain
/// dot product of `row` with one column of `W`. This is the form of a
/// product against a transposed operand.
///
/// # Panics
///
/// Panics if `w.len() != row.len() * n` or `out.len() > n`.
pub fn row_matmul_dense_into(row: &[f32], w: &[f32], n: usize, out: &mut [f32]) {
    row_matmul::<false>(row, w, n, out);
}

fn row_matmul<const SKIP_ZERO: bool>(row: &[f32], w: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(w.len(), row.len() * n, "row_matmul dims");
    assert!(out.len() <= n, "row_matmul out dims");
    if out.is_empty() {
        return;
    }
    let mut col = 0;
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for block in &mut blocks {
        let mut acc = [0.0f32; BLOCK];
        accumulate::<SKIP_ZERO>(row, w, n, col, &mut acc);
        block.copy_from_slice(&acc);
        col += BLOCK;
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut acc = [0.0f32; BLOCK];
        let acc = &mut acc[..tail.len()];
        accumulate::<SKIP_ZERO>(row, w, n, col, acc);
        tail.copy_from_slice(acc);
    }
}

/// `acc[c] += row[k]·W[k][col + c]` for `k` ascending.
#[inline(always)]
fn accumulate<const SKIP_ZERO: bool>(
    row: &[f32],
    w: &[f32],
    n: usize,
    col: usize,
    acc: &mut [f32],
) {
    let cols = col..col + acc.len();
    for (&a, w_row) in row.iter().zip(w.chunks_exact(n)) {
        if SKIP_ZERO && a == 0.0 {
            continue;
        }
        for (c, &b) in acc.iter_mut().zip(&w_row[cols.clone()]) {
            *c += a * b;
        }
    }
}

/// One row of a layer norm: `xhat[c] = (row[c] - mean)·rstd` and
/// `out[c] = xhat[c]·gain[c] + bias[c]`, the mean and the variance summed
/// in index order and `rstd = 1 / sqrt(var + 1e-5)`. Returns `rstd`,
/// which the backward pass needs beside `xhat`.
///
/// # Panics
///
/// Panics if any slice differs in length from `row`.
pub fn layer_norm_into(
    row: &[f32],
    gain: &[f32],
    bias: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) -> f32 {
    const EPS: f32 = 1e-5;
    let n = row.len();
    assert!(
        gain.len() == n && bias.len() == n && xhat.len() == n && out.len() == n,
        "layer_norm dims"
    );
    let mean = row.iter().sum::<f32>() / n as f32;
    let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
    let rstd = 1.0 / (var + EPS).sqrt();
    for ((((&x, xh), o), g), b) in row.iter().zip(xhat).zip(out).zip(gain).zip(bias) {
        *xh = (x - mean) * rstd;
        *o = *xh * g + b;
    }
    rstd
}

/// In-place softmax, `x[j] = exp(x[j] - max) / Σ_i exp(x[i] - max)`:
/// the maximum folds from `f32::MIN`, each `exp` is computed once, and
/// the denominator sums in index order before the divisions.
pub fn softmax_in_place(x: &mut [f32]) {
    let max = x.iter().copied().fold(f32::MIN, f32::max);
    let mut denom = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        denom += *v;
    }
    for v in x.iter_mut() {
        *v /= denom;
    }
}

/// Writes the transpose of the row-major `[rows, cols]` matrix `src`
/// into `dst` (row-major `[cols, rows]`).
///
/// # Panics
///
/// Panics if `src` or `dst` does not hold `rows * cols` elements.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose src dims");
    assert_eq!(dst.len(), rows * cols, "transpose dst dims");
    for (r, src_row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &x) in src_row.iter().enumerate() {
            dst[c * rows + r] = x;
        }
    }
}
