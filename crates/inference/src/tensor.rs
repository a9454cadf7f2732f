//! Minimal dense tensor types: a 1-D activation vector and a 2-D weight
//! matrix in row-major layout, plus the matrix–vector kernels both backends
//! build on.

use crate::error::InferenceError;

/// A dense 2-D matrix of `f32` in row-major order (`rows` × `cols`).
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element accessor (row, col).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols + col]
    }

    /// Mutable element accessor (row, col).
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row * self.cols + col] = value;
    }

    /// Number of parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the parameters in bytes (`f32` elements).
    #[must_use]
    pub fn byte_len(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Returns the transpose (used by the TVM-style backend's weight
    /// pre-transformation).
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Checks that every parameter is finite.
    pub fn validate_finite(&self) -> Result<(), InferenceError> {
        if self.data.iter().all(|x| x.is_finite()) {
            Ok(())
        } else {
            Err(InferenceError::NonFiniteParameter)
        }
    }

    /// `y = W · x` where the matrix is `rows × cols` and `x` has length
    /// `cols`.  Writes into `out` (length `rows`).  This is the hot kernel of
    /// the TFLM-style interpreter (row-major weights, gather per row).
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (r, out_val) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            *out_val = acc;
        }
    }

    /// `y = Wᵀ · x` computed from an already-transposed matrix (`cols × rows`
    /// of the logical weight): iterating columns of the transposed layout is
    /// the cache-friendlier access pattern the TVM-style backend pre-pays
    /// `RUNTIME_INIT` time for.
    ///
    /// Each output `out[o]` starts at `+0.0` and adds `x[k] * self[k][o]`
    /// for every nonzero `x[k]`, one term at a time in increasing `k`, each
    /// term a multiply rounded to `f32` followed by an add (never a fused
    /// multiply-add).  That is [`Matrix::matvec_into`]'s order and rounding
    /// on the untransposed matrix minus the zero inputs, whose terms cannot
    /// change a sum that starts at `+0.0` when the weights are finite.  So
    /// the result is bit-identical to it whatever the kernel's shape: one
    /// pass over `out` applies the rows of four nonzero inputs (the last one
    /// to three go one per pass), and on x86_64 CPUs with AVX2 those loops
    /// run eight lanes wide.
    pub fn matvec_transposed_into(&self, x: &[f32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just above.
            #[allow(unsafe_code)]
            unsafe {
                self.matvec_transposed_avx2(x, out);
            }
            return;
        }
        self.matvec_transposed_body(x, out);
    }

    /// [`Matrix::matvec_transposed_into`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn matvec_transposed_avx2(&self, x: &[f32], out: &mut [f32]) {
        self.matvec_transposed_body(x, out);
    }

    /// The kernel itself, inlined into each caller so that it is compiled
    /// once portable and once with AVX2 enabled.
    #[inline(always)]
    fn matvec_transposed_body(&self, x: &[f32], out: &mut [f32]) {
        // Here `self` is the transposed weight: shape (in_dim x out_dim).
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        let term = |k: usize| (x[k], &self.data[k * self.cols..(k + 1) * self.cols]);
        out.fill(0.0);
        let mut group = [0usize; 4];
        let mut grouped = 0;
        for (k, xi) in x.iter().enumerate() {
            if *xi == 0.0 {
                continue;
            }
            group[grouped] = k;
            grouped += 1;
            if grouped == group.len() {
                add_terms(out, group.map(term));
                grouped = 0;
            }
        }
        for &k in &group[..grouped] {
            add_terms(out, [term(k)]);
        }
    }
}

/// `out[o] += x * row[o]` for each `(x, row)` of `terms` in order, as one
/// pass over `out`.
#[inline(always)]
fn add_terms<const N: usize>(out: &mut [f32], terms: [(f32, &[f32]); N]) {
    let terms = terms.map(|(x, row)| (x, &row[..out.len()]));
    for (o, acc) in out.iter_mut().enumerate() {
        for (x, row) in &terms {
            *acc += x * row[o];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert_eq!(m.byte_len(), 24);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_data_length_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 0.5, -1.0];
        let mut out = [0.0; 2];
        m.matvec_into(&x, &mut out);
        assert_eq!(out, [1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn transposed_matvec_agrees_with_row_major() {
        let m = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.5 - 2.0).collect());
        let x = [0.3, -1.2, 2.0, 0.7];
        let mut direct = [0.0f32; 3];
        m.matvec_into(&x, &mut direct);
        let mut via_transpose = [0.0f32; 3];
        m.transposed()
            .matvec_transposed_into(&x, &mut via_transpose);
        assert_eq!(bits(&direct), bits(&via_transpose));
    }

    #[test]
    fn avx2_and_portable_kernels_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // Output widths on both sides of the 8- and 16-lane loop bounds;
            // up to 13 inputs, about half of them zero, so every remainder of
            // the nonzero count mod 4 occurs.
            for rows in [1, 7, 8, 9, 15, 16, 17, 31, 64, 129] {
                for cols in 1..=13 {
                    let (m, x) = sample(rows, cols, (rows * 100 + cols) as u64);
                    let transposed = m.transposed();
                    let mut portable = vec![f32::NAN; rows];
                    let mut avx2 = vec![f32::NAN; rows];
                    transposed.matvec_transposed_body(&x, &mut portable);
                    // SAFETY: AVX2 was detected just above.
                    #[allow(unsafe_code)]
                    unsafe {
                        transposed.matvec_transposed_avx2(&x, &mut avx2);
                    }
                    assert_eq!(bits(&portable), bits(&avx2), "{rows}x{cols}");
                }
            }
            return;
        }
        eprintln!("skipped the AVX2 matvec kernel: no AVX2 here");
    }

    #[test]
    fn validate_finite_detects_nan_and_inf() {
        let good = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        assert!(good.validate_finite().is_ok());
        let nan = Matrix::from_vec(1, 2, vec![1.0, f32::NAN]);
        assert!(nan.validate_finite().is_err());
        let inf = Matrix::from_vec(1, 2, vec![f32::INFINITY, 0.0]);
        assert!(inf.validate_finite().is_err());
    }

    #[test]
    fn transpose_is_involutive() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.transposed().transposed(), m);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A `rows × cols` matrix of values in [-1, 1) and a `cols`-long input
    /// about half of whose values are `0.0` or `-0.0`, drawn from `seed`.
    fn sample(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<f32>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
        };
        let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect());
        let x = (0..cols)
            .map(|_| {
                let value = next();
                if next() < 0.0 {
                    0.0f32.copysign(value)
                } else {
                    value
                }
            })
            .collect();
        (m, x)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matvec_implementations_agree(
            rows in 1usize..40,
            cols in 1usize..70,
            seed in 0u64..1000,
        ) {
            let (m, x) = sample(rows, cols, seed);
            let mut a = vec![0.0; rows];
            let mut b = vec![0.0; rows];
            m.matvec_into(&x, &mut a);
            m.transposed().matvec_transposed_into(&x, &mut b);
            prop_assert_eq!(bits(&a), bits(&b));
        }
    }
}
