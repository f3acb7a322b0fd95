//! Dense 2-D `f32` tensors (the only shape the mini-GPT needs).

use rand::Rng;
use std::fmt;

use crate::kernels::{row_matmul_dense_into, row_matmul_into, transpose_into};

/// A row-major 2-D tensor.
///
/// # Examples
///
/// ```
/// use chatfuzz_autograd::Tensor;
///
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.rows(), 2);
/// assert_eq!(t.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Gaussian-initialised tensor (Box–Muller, seeded by the caller's RNG).
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Tensor {
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(1e-7f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            data.push(mag * (2.0 * std::f32::consts::PI * u2).cos() * std);
            if data.len() < rows * cols {
                data.push(mag * (2.0 * std::f32::consts::PI * u2).sin() * std);
            }
        }
        Tensor { rows, cols, data }
    }

    /// Builds a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Tensor {
        assert!(!rows.is_empty(), "empty tensor");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`.
    ///
    /// Every element sums `self[i][k]·other[k][j]` with `k` ascending from
    /// `0.0`, skipping the terms where `self[i][k] == 0.0` (see
    /// [`kernels`](crate::kernels) for the full accumulation-order
    /// contract).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul dims");
        self.rows_times(other, row_matmul_into)
    }

    /// Matrix product `self @ other^T`.
    ///
    /// Every element is a plain dot product of a row of `self` with a row
    /// of `other`, `k` ascending from `0.0` with no zero skip. `other` is
    /// transposed once per call.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt dims");
        self.rows_times(&other.transposed(), row_matmul_dense_into)
    }

    /// Matrix product `self^T @ other`: exactly
    /// `self.transposed().matmul(other)`, so the same `k`-ascending,
    /// skip-on-zero order as [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn dims");
        self.transposed().matmul(other)
    }

    /// Applies a row kernel to every row of `self` against `w`.
    fn rows_times(&self, w: &Tensor, kernel: fn(&[f32], &[f32], usize, &mut [f32])) -> Tensor {
        let mut out = Tensor::zeros(self.rows, w.cols);
        for i in 0..self.rows {
            kernel(self.row(i), &w.data, w.cols, &mut out.data[i * w.cols..(i + 1) * w.cols]);
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, c: f32) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // The scalar loops the row kernels replaced, kept verbatim (with
    // `self` spelled `a`) as the arithmetic the kernels must reproduce
    // bit for bit.

    fn matmul_reference_loop(a: &Tensor, other: &Tensor) -> Tensor {
        assert_eq!(a.cols, other.rows, "matmul dims");
        let mut out = Tensor::zeros(a.rows, other.cols);
        // i-k-j loop order for cache-friendly row-major access.
        for i in 0..a.rows {
            for k in 0..a.cols {
                let a = a.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, o) in crow.iter_mut().zip(orow) {
                    *c += a * o;
                }
            }
        }
        out
    }

    fn matmul_nt_reference_loop(a: &Tensor, other: &Tensor) -> Tensor {
        assert_eq!(a.cols, other.cols, "matmul_nt dims");
        let mut out = Tensor::zeros(a.rows, other.rows);
        for i in 0..a.rows {
            let arow = a.row(i);
            for j in 0..other.rows {
                let brow = other.row(j);
                let mut acc = 0.0;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn matmul_tn_reference_loop(a: &Tensor, other: &Tensor) -> Tensor {
        assert_eq!(a.rows, other.rows, "matmul_tn dims");
        let mut out = Tensor::zeros(a.cols, other.cols);
        for k in 0..a.rows {
            let arow = a.row(k);
            let brow = other.row(k);
            for (i, a) in arow.iter().enumerate() {
                if *a == 0.0 {
                    continue;
                }
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, b) in crow.iter_mut().zip(brow) {
                    *c += a * b;
                }
            }
        }
        out
    }

    /// A `rows × cols` tensor whose entries are mostly Gaussian, with
    /// `+0.0`, `-0.0`, subnormals, `±inf` and large magnitudes mixed in.
    fn awkward(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        let mut t = Tensor::randn(rows, cols, 1.0, rng);
        for x in t.data_mut() {
            *x = match rng.gen_range(0u32..16) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)), // subnormal
                3 => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                4 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                6 => *x * 1e30,
                _ => *x,
            };
        }
        t
    }

    fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
        (t.rows, t.cols, t.data.iter().map(|x| x.to_bits()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// All three products equal the scalar loops bit for bit, over
        /// shapes that exercise the 16-column blocks, the narrower tail
        /// pass, `n = 1` and `n < 16`, and inputs where a skipped zero
        /// decides between a number and NaN.
        #[test]
        fn row_kernels_match_the_scalar_loops_bit_for_bit(
            m in 1usize..6,
            k in 0usize..40,
            n in prop_oneof![Just(1usize), 2usize..16, 16usize..80],
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = awkward(m, k, &mut rng);
            let b = awkward(k, n, &mut rng);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&matmul_reference_loop(&a, &b)));
            let bt = awkward(n, k, &mut rng);
            prop_assert_eq!(bits(&a.matmul_nt(&bt)), bits(&matmul_nt_reference_loop(&a, &bt)));
            let at = awkward(k, m, &mut rng);
            let g = awkward(k, n, &mut rng);
            prop_assert_eq!(bits(&at.matmul_tn(&g)), bits(&matmul_tn_reference_loop(&at, &g)));
        }
    }

    #[test]
    fn matmul_reference() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transposed()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.matmul_tn(&b), a.transposed().matmul(&b));
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        use rand::SeedableRng;
        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(Tensor::randn(3, 3, 1.0, &mut r1), Tensor::randn(3, 3, 1.0, &mut r2));
    }

    #[test]
    fn randn_scale_tracks_std() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t = Tensor::randn(64, 64, 0.5, &mut rng);
        let var: f32 = t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
