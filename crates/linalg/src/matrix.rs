//! Column-major dense matrix storage.
//!
//! All distributed buffers in ChASE (`H` blocks, `C`, `C2`, `B`, `B2`, `A`)
//! are plain column-major rectangles, so a single owned type plus cheap
//! column-range views covers every kernel in the workspace. Views are always
//! column-contiguous (the leading dimension equals the parent's row count),
//! which keeps the hot GEMM paths free of stride arithmetic.

use crate::scalar::Scalar;
use rand::Rng;
use std::ops::{Index, IndexMut, Range};

/// Owned column-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Identity-like rectangle: ones on the main diagonal.
    pub fn identity(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows.min(cols) {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing column-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Matrix with i.i.d. standard-normal entries (complex: `E|x|^2 = 1`).
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(T::sample_standard(rng));
        }
        Self { rows, cols, data }
    }

    /// Square diagonal matrix from real values.
    pub fn from_diag(d: &[T::Real]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::from_real(d[i]);
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct mutable columns at once (`i != j`).
    pub fn two_cols_mut(&mut self, i: usize, j: usize) -> (&mut [T], &mut [T]) {
        assert!(i != j && i < self.cols && j < self.cols);
        let r = self.rows;
        if i < j {
            let (lo, hi) = self.data.split_at_mut(j * r);
            (&mut lo[i * r..(i + 1) * r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(i * r);
            let a = &mut hi[..r];
            (a, &mut lo[j * r..(j + 1) * r])
        }
    }

    /// Borrow a contiguous range of columns.
    pub fn cols_ref(&self, range: Range<usize>) -> ColsRef<'_, T> {
        assert!(range.end <= self.cols);
        ColsRef {
            rows: self.rows,
            cols: range.len(),
            data: &self.data[range.start * self.rows..range.end * self.rows],
        }
    }

    /// Mutably borrow a contiguous range of columns.
    pub fn cols_mut(&mut self, range: Range<usize>) -> ColsMut<'_, T> {
        assert!(range.end <= self.cols);
        ColsMut {
            rows: self.rows,
            cols: range.len(),
            data: &mut self.data[range.start * self.rows..range.end * self.rows],
        }
    }

    /// Whole-matrix view.
    pub fn as_ref(&self) -> ColsRef<'_, T> {
        self.cols_ref(0..self.cols)
    }

    /// Whole-matrix mutable view.
    pub fn as_mut(&mut self) -> ColsMut<'_, T> {
        let c = self.cols;
        self.cols_mut(0..c)
    }

    /// Copy of a column range as an owned matrix.
    pub fn copy_cols(&self, range: Range<usize>) -> Matrix<T> {
        let v = self.cols_ref(range);
        Matrix {
            rows: v.rows,
            cols: v.cols,
            data: v.data.to_vec(),
        }
    }

    /// Overwrite columns `dst_start..dst_start + src.cols()` with `src`.
    pub fn set_cols(&mut self, dst_start: usize, src: &Matrix<T>) {
        assert_eq!(self.rows, src.rows);
        assert!(dst_start + src.cols <= self.cols);
        let r = self.rows;
        self.data[dst_start * r..(dst_start + src.cols) * r].copy_from_slice(&src.data);
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copy of the rows listed by `rows` (in iteration order), all columns —
    /// the gather primitive for block-cyclic layouts.
    pub fn select_rows(&self, rows: impl Iterator<Item = usize>) -> Matrix<T> {
        let idx: Vec<usize> = rows.collect();
        Matrix::from_fn(idx.len(), self.cols, |i, j| self[(idx[i], j)])
    }

    /// Copy of the contiguous sub-block `rows x cols` starting at `(r0, c0)`.
    pub fn sub(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix<T> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        Matrix::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Overwrite the sub-block at `(r0, c0)` with `src`.
    pub fn set_sub(&mut self, r0: usize, c0: usize, src: &Matrix<T>) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols);
        for j in 0..src.cols {
            for i in 0..src.rows {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> T::Real {
        crate::blas1::nrm2(&self.data)
    }

    /// Max |a_ij - b_ij| over all entries.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> T::Real {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut m = <T::Real as Scalar>::zero();
        for (a, b) in self.data.iter().zip(&other.data) {
            let d = (*a - *b).abs();
            if d > m {
                m = d;
            }
        }
        m
    }

    /// Deviation from the identity: `max |A - I|` entrywise (A square or tall).
    pub fn orthogonality_error(&self) -> T::Real {
        use crate::scalar::RealScalar;
        let mut m = <T::Real as Scalar>::zero();
        for j in 0..self.cols {
            for i in 0..self.rows {
                let target = if i == j { T::one() } else { T::zero() };
                m = m.max_r((self[(i, j)] - target).abs());
            }
        }
        m
    }

    /// Memory footprint of the element buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

/// Immutable column-contiguous view over a range of columns.
#[derive(Clone, Copy, Debug)]
pub struct ColsRef<'a, T> {
    rows: usize,
    cols: usize,
    data: &'a [T],
}

impl<'a, T: Scalar> ColsRef<'a, T> {
    /// View over a raw column-major slice.
    pub fn new(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
    #[inline]
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }
}

/// Mutable column-contiguous view over a range of columns.
#[derive(Debug)]
pub struct ColsMut<'a, T> {
    rows: usize,
    cols: usize,
    data: &'a mut [T],
}

impl<'a, T: Scalar> ColsMut<'a, T> {
    /// Mutable view over a raw column-major slice.
    pub fn new(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.data
    }
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data
    }
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }
    /// Reborrow as an immutable view.
    pub fn as_ref(&self) -> ColsRef<'_, T> {
        ColsRef {
            rows: self.rows,
            cols: self.cols,
            data: self.data,
        }
    }
    /// Overwrite from a view of identical shape.
    pub fn copy_from(&mut self, src: ColsRef<'_, T>) {
        assert_eq!((self.rows, self.cols), (src.rows, src.cols));
        self.data.copy_from_slice(src.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;
    use rand::SeedableRng;

    #[test]
    fn index_column_major() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 1)], 21.0);
        // column-major layout: col 0 first
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
    }

    #[test]
    fn identity_and_diag() {
        let m = Matrix::<C64>::identity(3, 3);
        assert_eq!(m.orthogonality_error(), 0.0);
        let d = Matrix::<f64>::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn adjoint_conjugates() {
        let m = Matrix::<C64>::from_fn(2, 3, |i, j| C64::new(i as f64, j as f64));
        let a = m.adjoint();
        assert_eq!(a.rows(), 3);
        assert_eq!(a[(2, 1)], C64::new(1.0, -2.0));
    }

    #[test]
    fn cols_views_roundtrip() {
        let mut m = Matrix::<f64>::from_fn(4, 5, |i, j| (i + 10 * j) as f64);
        let v = m.cols_ref(1..3);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), 10.0);
        let cpy = m.copy_cols(1..3);
        m.set_cols(3, &cpy);
        assert_eq!(m[(0, 3)], 10.0);
        assert_eq!(m[(3, 4)], 23.0);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        let (a, b) = m.two_cols_mut(3, 1);
        a[0] = 5.0;
        b[2] = 7.0;
        assert_eq!(m[(0, 3)], 5.0);
        assert_eq!(m[(2, 1)], 7.0);
    }

    #[test]
    fn sub_block_roundtrip() {
        let m = Matrix::<f64>::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let s = m.sub(1, 2, 2, 3);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        let mut t = Matrix::<f64>::zeros(5, 5);
        t.set_sub(1, 2, &s);
        assert_eq!(t[(2, 4)], m[(2, 4)]);
        assert_eq!(t[(0, 0)], 0.0);
    }

    #[test]
    fn random_is_seeded() {
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let a = Matrix::<C64>::random(4, 4, &mut r1);
        let b = Matrix::<C64>::random(4, 4, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn from_vec_len_checked() {
        let _ = Matrix::<f64>::from_vec(2, 2, vec![0.0; 3]);
    }
}
