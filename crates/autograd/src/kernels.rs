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
//! [`softmax_in_place`] and [`transpose_into`] complete the set, beside
//! the activation kernels [`tanh_into`], [`gelu_into`],
//! [`gelu_bias_in_place`] and [`gelu_grad_into`].
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
//!
//! # tanh and GELU contract
//!
//! [`tanh`] is fdlibm's `tanhf` with its `expm1f`, the single-precision
//! pair glibc 2.36 ships, ported operation for operation: it returns the
//! bits `f32::tanh` returns on such a system for all 2^32 inputs, NaN
//! payloads included, and the same bits on every platform. The row
//! kernels run it on chunks of eight values. A chunk whose values all lie
//! in `2^-24 ≤ |x| < 22` takes a branch-free lane path that computes the
//! same operations, with two exact rewrites: `expm1f`'s exponent add is a
//! multiply by `2^k`, and its `1 - 2^-k` is computed in `f32`. Any other
//! chunk takes the scalar port. So every kernel output equals the scalar
//! expression applied to each element:
//!
//! * GELU (tanh approximation, as in GPT-2):
//!   `0.5·x·(1 + tanh(s·(x + c·x·x·x)))` with `s = 0.7978846` (√(2/π))
//!   and `c = 0.044715`, evaluated left to right;
//! * its derivative `0.5·(1 + t) + 0.5·x·(1 - t·t)·s·(1 + 3·c·x·x)`, with
//!   `t` the same `tanh`, times the incoming gradient;
//! * [`gelu_bias_in_place`] forms `a + bias` inside the kernel, as the
//!   tape's `add_row` does: `-0.0 + 0.0` is `+0.0`, so the sum cannot be
//!   left to the caller's zero bias.

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

/// Values per chunk of the activation kernels.
const LANES: usize = 8;

const GELU_S: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_C: f32 = 0.044_715;

/// `out[i] = tanh(x[i])`, bit-identical to [`tanh`] (see the module
/// docs).
///
/// # Panics
///
/// Panics if `out` and `x` differ in length.
pub fn tanh_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "tanh dims");
    for (x, out) in x.chunks(LANES).zip(out.chunks_mut(LANES)) {
        let mut t = load(x);
        tanh_chunk(&mut t);
        out.copy_from_slice(&t[..out.len()]);
    }
}

/// `out[i] = gelu(x[i])`, the forward of the tape's GELU.
///
/// # Panics
///
/// Panics if `out` and `x` differ in length.
pub fn gelu_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu dims");
    for (x, out) in x.chunks(LANES).zip(out.chunks_mut(LANES)) {
        let x = load(x);
        let t = gelu_tanh(&x);
        for ((o, x), t) in out.iter_mut().zip(x).zip(t) {
            *o = 0.5 * x * (1.0 + t);
        }
    }
}

/// `a[i] = gelu(a[i] + bias[i])`: the decoder's feed-forward activation,
/// the tape's `add_row` then GELU on one row.
///
/// # Panics
///
/// Panics if `a` and `bias` differ in length.
pub fn gelu_bias_in_place(a: &mut [f32], bias: &[f32]) {
    assert_eq!(a.len(), bias.len(), "gelu bias dims");
    for (a, bias) in a.chunks_mut(LANES).zip(bias.chunks(LANES)) {
        let mut x = load(a);
        for (x, b) in x.iter_mut().zip(bias) {
            *x += b;
        }
        let t = gelu_tanh(&x);
        for ((a, x), t) in a.iter_mut().zip(x).zip(t) {
            *a = 0.5 * x * (1.0 + t);
        }
    }
}

/// `out[i] = g[i]·gelu'(x[i])`, the backward of the tape's GELU.
///
/// # Panics
///
/// Panics if `g`, `x` and `out` differ in length.
pub fn gelu_grad_into(g: &[f32], x: &[f32], out: &mut [f32]) {
    assert!(g.len() == x.len() && out.len() == x.len(), "gelu grad dims");
    for ((g, x), out) in g.chunks(LANES).zip(x.chunks(LANES)).zip(out.chunks_mut(LANES)) {
        let x = load(x);
        let t = gelu_tanh(&x);
        for (((o, g), x), t) in out.iter_mut().zip(g).zip(x).zip(t) {
            let dinner = GELU_S * (1.0 + 3.0 * GELU_C * x * x);
            *o = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner);
        }
    }
}

/// Up to [`LANES`] values, the rest of the chunk filled with `1.0`,
/// which lies in the lane domain, as does GELU's `tanh` argument at `1.0`.
#[inline(always)]
fn load(src: &[f32]) -> [f32; LANES] {
    let mut v = [1.0; LANES];
    v[..src.len()].copy_from_slice(src);
    v
}

/// `tanh(s·(x + c·x·x·x))` for each value: GELU's `tanh` term.
#[inline(always)]
fn gelu_tanh(x: &[f32; LANES]) -> [f32; LANES] {
    let mut t = x.map(|x| GELU_S * (x + GELU_C * x * x * x));
    tanh_chunk(&mut t);
    t
}

/// [`tanh`] of every value: the lane path if all of them lie in its
/// domain, else the scalar port one by one.
#[inline(always)]
fn tanh_chunk(v: &mut [f32; LANES]) {
    let in_domain = |x: f32| (0x3380_0000..0x41b0_0000).contains(&(x.to_bits() & 0x7fff_ffff));
    if v.iter().fold(true, |all, &x| all & in_domain(x)) {
        for x in v.iter_mut() {
            *x = tanh_lane(*x);
        }
    } else {
        for x in v.iter_mut() {
            *x = tanh(*x);
        }
    }
}

// fdlibm's `expm1f` constants, as f32 bits.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Hyperbolic tangent: fdlibm's `tanhf` (glibc 2.36,
/// `sysdeps/ieee754/flt-32/s_tanhf.c`) in Rust, operation for operation,
/// so its result does not depend on the platform's libm.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 != 0;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1; a NaN comes back quieted, payload kept.
        return if negative { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    }
    let z = if ix >= 0x41b0_0000 {
        1.0 // |x| ≥ 22: `1 - tiny` rounds to 1
    } else if ix == 0 {
        return x;
    } else if ix < 0x2400_0000 {
        return x * (1.0 + x); // |x| < 2^-55
    } else if ix >= 0x3f80_0000 {
        let t = expm1(x.abs() + x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(x.abs() * -2.0);
        -t / (t + 2.0)
    };
    if negative {
        -z
    } else {
        z
    }
}

/// fdlibm's `expm1f` on the arguments [`tanh`] passes it: `2|x|` with
/// `1 ≤ |x| < 22`, and `-2|x|` with `2^-55 ≤ |x| < 1`. Its branches for
/// other arguments (overflow, infinities, NaN, `x < -27·ln 2`, and
/// `k = 1`, which needs a positive `x` below `1.5·ln 2`) are left out.
fn expm1(x: f32) -> f32 {
    debug_assert!(x > -2.0 && x < 44.0, "expm1({x}) outside tanh's arguments");
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction: x = k·ln2 + (reduced x) + c.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            (x + LN2_HI, -LN2_LO, -1) // below 1.5·ln2, so x < 0
        } else {
            let k = (INVLN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let reduced = hi - lo;
        (reduced, (hi - reduced) - lo, k)
    } else if hx < 0x3300_0000 {
        return x; // |x| < 2^-25
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    // `y` times 2^k, by adding k to its exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k == -1 {
        0.5 * (x - e) - 0.5
    } else if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x100_0000 >> k)); // 1 - 2^-k
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        scale((x - (e + t)) + 1.0)
    }
}

/// [`tanh`] for `2^-24 ≤ |x| < 22`, without branches: each of `expm1`'s
/// cases is computed and the one its `k` names is selected, so a chunk
/// of these compiles to vector code. On this domain `expm1`'s argument
/// `±2|x|` takes the reduction (never the `|x| < 2^-25` return), `k` is
/// one of 0, −1, −2, −3 and 3..=63, and `y·2^k` and `1 - 2^-k` are exact.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let a = if big { ax + ax } else { ax * -2.0 };
    let ha = a.to_bits() & 0x7fff_ffff;
    let rounded = (INVLN2 * a + if big { 0.5 } else { -0.5 }) as i32;
    let k = if ha <= 0x3eb1_7218 {
        0
    } else if ha < 0x3f85_1592 {
        -1
    } else {
        rounded
    };
    // With k = 0 this reduction leaves `a` unchanged and c = +0.0, and
    // with k = -1 it is the `a + ln2_hi`, `-ln2_lo` split.
    let kf = k as f32;
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    // At k = 0, c = +0.0 makes this `r·e - hxs` exactly.
    let e = (r * (e - c) - c) - hxs;
    let two_k = f32::from_bits(((0x7f + k) << 23) as u32);
    let two_minus_k = f32::from_bits(((0x7f - k) << 23) as u32);
    // k = 0, then k = -1.
    let near = r - e;
    let half = 0.5 * near - 0.5;
    // 2 ≤ k < 23 (`y·2^k`), and k ≤ -2 or k > 56 (`y·2^k - 1`); the
    // `- 0.0` leaves the positive `y·2^k` unchanged.
    let small_k = (2..23).contains(&k);
    let base = if small_k { 1.0 - two_minus_k } else { 1.0 };
    let outer = (base - (e - r)) * two_k - if small_k { 0.0 } else { 1.0 };
    // 23 ≤ k ≤ 56.
    let large_k = ((r - (e + two_minus_k)) + 1.0) * two_k;
    // expm1(a), then tanh(|x|).
    let t = match k {
        0 => near,
        -1 => half,
        23..=56 => large_k,
        _ => outer,
    };
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    f32::from_bits(z.to_bits() | (x.to_bits() & 0x8000_0000))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FNV-1a-64 over the little-endian bytes of each value's bits.
    fn fnv1a(bits: impl Iterator<Item = u32>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bits.flat_map(u32::to_le_bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The port's output over every 4099th bit pattern (1,047,809 of
    /// them: NaN payloads, subnormals, both zeros and infinities
    /// included), hashed. The constant is the hash of glibc 2.36's
    /// `tanhf` (`f32::tanh`) over the same sweep, so the port reproduces
    /// it on every platform.
    #[test]
    fn the_port_reproduces_glibc_tanhf_on_a_strided_sweep() {
        let sweep = (0..=u32::MAX).step_by(4099);
        assert_eq!(sweep.clone().count(), 1_047_809);
        let hash = fnv1a(sweep.map(|b| tanh(f32::from_bits(b)).to_bits()));
        assert_eq!(hash, 0xf9b8_c6a9_7656_4d6b, "got {hash:#018x}");
    }

    /// Every value of the lane domain, `2^-24 ≤ |x| < 22` (476,053,504 of
    /// them), through the lane path and through the scalar port, on two
    /// threads: about 5 s in release on a 2-vCPU VM. `cargo test
    /// --release -p chatfuzz-autograd -- --ignored` runs it.
    #[test]
    #[ignore = "exhaustive: about 5 s in release"]
    fn the_lane_path_equals_the_scalar_port_on_its_whole_domain() {
        const DOMAIN: std::ops::Range<u32> = 0x3380_0000..0x41b0_0000;
        let check = |sign: u32| {
            let mut count = 0u64;
            let mut chunk = [0.0f32; LANES];
            for start in DOMAIN.step_by(LANES) {
                for (l, x) in chunk.iter_mut().enumerate() {
                    *x = f32::from_bits((start + l as u32) | sign);
                }
                let mut lanes = chunk;
                tanh_chunk(&mut lanes);
                for (x, lane) in chunk.iter().zip(lanes) {
                    let scalar = tanh(*x);
                    assert_eq!(
                        lane.to_bits(),
                        scalar.to_bits(),
                        "x = {x:e} ({:#010x})",
                        x.to_bits()
                    );
                    count += 1;
                }
            }
            count
        };
        let counts = std::thread::scope(|s| {
            let negative = s.spawn(|| check(0x8000_0000));
            [check(0), negative.join().expect("negative half")]
        });
        assert_eq!(counts[0] + counts[1], 476_053_504);
    }

    /// Rows of ordinary values (`|x| < 8`, where GELU's `tanh` argument
    /// reaches every `k` of the lane path) with, at a density picked per
    /// row, values that send their chunk to the scalar port: ±0,
    /// subnormals, NaN, ±inf, |x| ≥ 22 and 0 < |x| < 2^-24.
    fn row(len: usize) -> impl Strategy<Value = Vec<f32>> {
        let cells = proptest::collection::vec((0u32..64, -8.0f32..8.0, any::<u32>()), len);
        (0usize..4, cells).prop_map(|(density, cells)| {
            let awkward_below = [0, 2, 8, 32][density];
            cells
                .into_iter()
                .map(|(pick, x, b)| {
                    let sign = b & 0x8000_0000;
                    match pick {
                        p if p >= awkward_below => x,
                        p => match p % 8 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => f32::from_bits(sign | (b % 0x007f_ffff + 1)),
                            3 => f32::from_bits(b | 0x7f80_0001),
                            4 => f32::INFINITY,
                            5 => f32::NEG_INFINITY,
                            6 => f32::from_bits(sign | (0x41b0_0000 + b % 0x3d00_0000)),
                            _ => f32::from_bits(sign | (b % 0x337f_ffff + 1)),
                        },
                    }
                })
                .collect()
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN made one: which payload the sum or product
    /// of two NaNs carries depends on the operand order codegen picks.
    fn bits_any_nan(v: &[f32]) -> Vec<u32> {
        v.iter().map(|&x| (if x.is_nan() { f32::NAN } else { x }).to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each kernel equals its scalar expression on every element, for
        /// rows of any length (tails shorter than a chunk included) whose
        /// chunks take the lane path, the scalar port or a mix.
        #[test]
        fn kernels_equal_the_scalar_expressions_bit_for_bit(
            n in 0usize..40,
            rows in row(120),
        ) {
            let (x, bias, g) = (&rows[..n], &rows[40..40 + n], &rows[80..80 + n]);
            let inner = |x: f32| GELU_S * (x + GELU_C * x * x * x);
            let gelu = |x: f32| 0.5 * x * (1.0 + tanh(inner(x)));
            let grad = |x: f32| {
                let t = tanh(inner(x));
                let dinner = GELU_S * (1.0 + 3.0 * GELU_C * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            };

            let mut out = vec![0.0; n];
            tanh_into(x, &mut out);
            prop_assert_eq!(bits(&out), bits(&x.iter().map(|&x| tanh(x)).collect::<Vec<_>>()));
            gelu_into(x, &mut out);
            prop_assert_eq!(bits(&out), bits(&x.iter().map(|&x| gelu(x)).collect::<Vec<_>>()));
            let mut a = x.to_vec();
            gelu_bias_in_place(&mut a, bias);
            let want: Vec<f32> = x.iter().zip(bias).map(|(&a, b)| gelu(a + b)).collect();
            prop_assert_eq!(bits_any_nan(&a), bits_any_nan(&want));
            gelu_grad_into(g, x, &mut out);
            let want: Vec<f32> = g.iter().zip(x).map(|(&g, &x)| g * grad(x)).collect();
            prop_assert_eq!(bits_any_nan(&out), bits_any_nan(&want));
        }
    }
}
