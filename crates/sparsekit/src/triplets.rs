//! Coordinate-format (COO) assembly buffer.

use crate::csc::Csc;
use crate::csr::Csr;

/// A coordinate-format sparse-matrix builder.
///
/// Device stamps push `(row, col, value)` entries without worrying about
/// duplicates; conversion to [`Csr`]/[`Csc`] sums duplicate coordinates,
/// matching SPICE-style MNA assembly semantics.
///
/// # Example
///
/// ```
/// use sparsekit::Triplets;
///
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed on conversion
/// let csr = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Triplets {
    /// Creates an empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Triplets {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty builder with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Triplets {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of raw (pre-deduplication) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no entries have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends one entry. Zero values are kept (they pin the pattern,
    /// which lets repeated factorisations reuse symbolic work).
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(row < self.nrows, "triplet row {row} out of bounds");
        assert!(col < self.ncols, "triplet col {col} out of bounds");
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Clears all entries, keeping allocations (for per-Newton reassembly).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Scales every stored value by `s` (pattern unchanged).
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.vals {
            *v *= s;
        }
    }

    /// Appends every entry of `other` with its value scaled by `s` — the
    /// building block for Jacobian combinations like `a0/h·C + θ·G`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn append_scaled(&mut self, other: &Triplets, s: f64) {
        assert_eq!(self.nrows, other.nrows, "append_scaled: row mismatch");
        assert_eq!(self.ncols, other.ncols, "append_scaled: col mismatch");
        self.rows.extend_from_slice(&other.rows);
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend(other.vals.iter().map(|v| v * s));
    }

    /// Iterates over raw `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicates.
    pub fn to_csr(&self) -> Csr {
        // Counting sort by row, then per-row sort by column and fold dups.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let nnz_raw = self.vals.len();
        let mut order = vec![0usize; nnz_raw];
        let mut cursor = counts.clone();
        for (k, &r) in self.rows.iter().enumerate() {
            order[cursor[r]] = k;
            cursor[r] += 1;
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(nnz_raw);
        let mut data = Vec::with_capacity(nnz_raw);
        indptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for &k in &order[counts[r]..counts[r + 1]] {
                scratch.push((self.cols[k], self.vals[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == col {
                    v += scratch[j].1;
                    j += 1;
                }
                indices.push(col);
                data.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(self.nrows, self.ncols, indptr, indices, data)
    }

    /// Converts to CSC, summing duplicates.
    pub fn to_csc(&self) -> Csc {
        self.to_csr().to_csc()
    }

    /// Converts to a dense matrix (mostly for tests and small systems).
    pub fn to_dense(&self) -> numkit::DMat {
        let mut m = numkit::DMat::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut t = Triplets::new(3, 3);
        assert!(t.is_empty());
        t.push(0, 0, 1.0);
        t.push(2, 1, -2.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds_panics() {
        let mut t = Triplets::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn duplicates_sum_on_conversion() {
        let mut t = Triplets::new(2, 2);
        t.push(1, 1, 1.5);
        t.push(1, 1, 2.5);
        t.push(0, 1, -1.0);
        let csr = t.to_csr();
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn to_dense_matches() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 2, 5.0);
        t.push(1, 0, 3.0);
        t.push(0, 2, 1.0);
        let d = t.to_dense();
        assert_eq!(d[(0, 2)], 6.0);
        assert_eq!(d[(1, 0)], 3.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn scale_and_append_scaled() {
        let mut c = Triplets::new(2, 2);
        c.push(0, 0, 2.0);
        c.push(1, 1, 4.0);
        let mut g = Triplets::new(2, 2);
        g.push(0, 1, 1.0);
        g.push(1, 1, -2.0);
        // J = 10·C + 0.5·G.
        let mut j = Triplets::new(2, 2);
        j.append_scaled(&c, 10.0);
        j.append_scaled(&g, 0.5);
        let d = j.to_dense();
        assert_eq!(d[(0, 0)], 20.0);
        assert_eq!(d[(0, 1)], 0.5);
        assert_eq!(d[(1, 1)], 39.0);
        // In-place scale.
        j.scale(2.0);
        assert_eq!(j.to_dense()[(1, 1)], 78.0);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn csc_roundtrip_values() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(2, 2, 3.0);
        t.push(0, 2, 4.0);
        let csc = t.to_csc();
        let d = csc.to_dense();
        assert_eq!(d[(1, 0)], 2.0);
        assert_eq!(d[(0, 2)], 4.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    fn empty_rows_handled() {
        let t = Triplets::new(4, 4);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 0);
        let y = csr.matvec(&[1.0; 4]);
        assert_eq!(y, vec![0.0; 4]);
    }
}
