//! A minimal dense row-major matrix used by the GRM and neural-network
//! kernels.

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use gb_core::matrix::Matrix;
/// let mut m = Matrix::zeros(2, 3);
/// m[(1, 2)] = 5.0;
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    // PANIC-FREE: documented `# Panics` precondition; a shape/data mismatch
    // is a construction bug, not a data-dependent runtime path.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    // PANIC-FREE: documented `# Panics` precondition; kernel callers iterate
    // rows in `0..rows()`, so the guard never fires on suite inputs.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    // PANIC-FREE: documented `# Panics` precondition, as for `row`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose of this matrix.
    // PANIC-FREE: `t` is `cols x rows`, so `(c, r)` is inside it whenever
    // `(r, c)` is inside `self`.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Naive `self * other` matrix product (reference implementation; the
    /// optimized blocked kernel lives in `gb-popgen`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// `dst[i] += a * src[i]` over the shorter of the two slices — the one
/// inner loop of the dense kernels (conv, LSTM, dense, grm).
///
/// Every `dst[i]` is a separate sum, so the loop vectorizes without
/// reassociating anything: a caller that feeds each output its terms in a
/// fixed order gets the same bits at any vector width. The product and
/// the sum round separately (no `mul_add`), as the scalar loops this
/// replaced did.
///
/// # Examples
///
/// ```
/// let mut acc = [1.0f32, 2.0];
/// gb_core::matrix::axpy(&mut acc, 2.0, &[10.0, 20.0]);
/// assert_eq!(acc, [21.0, 42.0]);
/// ```
// xtask: hot
#[inline]
pub fn axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl gb_substrate::Codec for Matrix {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.rows);
        e.put_usize(self.cols);
        for &v in &self.data {
            e.put_f32(v);
        }
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Matrix> {
        let rows = d.get_usize()?;
        let cols = d.get_usize()?;
        let len = rows.checked_mul(cols)?;
        if len.checked_mul(4)? > d.remaining() {
            return None;
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(d.get_f32()?);
        }
        Some(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_shape() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 1.0;
        m[(1, 2)] = 2.0;
        assert_eq!(m.as_slice(), &[0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let eye = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(m.matmul(&eye), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
