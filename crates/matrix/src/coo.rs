//! Coordinate-list (COO) sparse matrices.
//!
//! COO is the natural construction format for traffic matrices built from
//! packet streams: every observed packet contributes a `(source, destination,
//! count)` triple, and duplicate coordinates are summed when the matrix is
//! finalized — the "hypersparse traffic matrix construction" workflow the
//! paper's introduction cites.

use crate::csr::CsrMatrix;
use crate::error::{MatrixError, Result};

/// A sparse matrix stored as unordered `(row, col, value)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Copy + PartialEq + std::ops::Add<Output = T> + Default> CooMatrix<T> {
    /// An empty matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// An empty matrix with pre-allocated space for `capacity` entries.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored triples (including duplicates not yet coalesced).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a triple without bounds checking against existing duplicates.
    ///
    /// Panics in debug builds when the coordinates are out of range; use
    /// [`CooMatrix::try_push`] for checked insertion.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        debug_assert!(
            row < self.rows && col < self.cols,
            "coordinate out of range"
        );
        self.entries.push((row, col, value));
    }

    /// Append a triple, validating coordinates.
    pub fn try_push(&mut self, row: usize, col: usize, value: T) -> Result<()> {
        if row >= self.rows {
            return Err(MatrixError::IndexOutOfBounds {
                index: row,
                bound: self.rows,
                axis: "row",
            });
        }
        if col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: col,
                bound: self.cols,
                axis: "column",
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// The stored triples in insertion order.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Sum duplicate coordinates and drop entries equal to `T::default()`
    /// (zero for numeric types). Entries end up sorted by `(row, col)`.
    pub fn coalesce(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut write = 0usize;
        for read in 0..self.entries.len() {
            if write > 0
                && self.entries[write - 1].0 == self.entries[read].0
                && self.entries[write - 1].1 == self.entries[read].1
            {
                let v = self.entries[write - 1].2 + self.entries[read].2;
                self.entries[write - 1].2 = v;
            } else {
                self.entries[write] = self.entries[read];
                write += 1;
            }
        }
        self.entries.truncate(write);
        self.entries.retain(|&(_, _, v)| v != T::default());
    }

    /// Convert to CSR, coalescing duplicates first.
    pub fn to_csr(mut self) -> CsrMatrix<T> {
        self.coalesce();
        CsrMatrix::from_sorted_coo(self.rows, self.cols, self.entries)
    }

    /// Coalesce and return the sorted, duplicate-free entry vector.
    ///
    /// This is the shard-local half of the blocked-COO merge used by the
    /// ingest pipeline: each shard coalesces independently (on any thread) and
    /// the sorted blocks are stitched together with
    /// [`CsrMatrix::from_row_disjoint_blocks`].
    pub fn into_sorted_entries(mut self) -> Vec<(usize, usize, T)> {
        self.coalesce();
        self.entries
    }

    /// Merge another COO matrix of the same shape into this one.
    pub fn extend_from(&mut self, other: &CooMatrix<T>) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch(format!(
                "cannot merge {:?} into {:?}",
                other.shape(),
                self.shape()
            )));
        }
        self.entries.extend_from_slice(&other.entries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_shape() {
        let mut m = CooMatrix::<u32>::with_capacity(4, 4, 8);
        m.push(0, 1, 3);
        m.push(2, 3, 1);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.nnz(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.entries()[1], (2, 3, 1));
    }

    #[test]
    fn try_push_bounds() {
        let mut m = CooMatrix::<u32>::new(2, 3);
        assert!(m.try_push(1, 2, 1).is_ok());
        assert!(matches!(
            m.try_push(2, 0, 1),
            Err(MatrixError::IndexOutOfBounds { axis: "row", .. })
        ));
        assert!(matches!(
            m.try_push(0, 3, 1),
            Err(MatrixError::IndexOutOfBounds { axis: "column", .. })
        ));
    }

    #[test]
    fn coalesce_sums_duplicates_and_drops_zeros() {
        let mut m = CooMatrix::<i64>::new(3, 3);
        m.push(1, 1, 2);
        m.push(0, 0, 5);
        m.push(1, 1, 3);
        m.push(2, 2, 4);
        m.push(2, 2, -4); // cancels to zero, must be dropped
        m.coalesce();
        assert_eq!(m.entries(), &[(0, 0, 5), (1, 1, 5)]);
    }

    #[test]
    fn coalesce_empty_is_noop() {
        let mut m = CooMatrix::<u32>::new(3, 3);
        m.coalesce();
        assert!(m.is_empty());
    }

    #[test]
    fn extend_from_requires_same_shape() {
        let mut a = CooMatrix::<u32>::new(2, 2);
        let mut b = CooMatrix::<u32>::new(2, 2);
        b.push(0, 1, 9);
        a.extend_from(&b).unwrap();
        assert_eq!(a.nnz(), 1);
        let c = CooMatrix::<u32>::new(3, 2);
        assert!(a.extend_from(&c).is_err());
    }

    #[test]
    fn to_csr_round_trip_values() {
        let mut m = CooMatrix::<u32>::new(3, 4);
        m.push(0, 1, 2);
        m.push(2, 3, 7);
        m.push(0, 1, 1);
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 1), 3);
        assert_eq!(csr.get(2, 3), 7);
        assert_eq!(csr.get(1, 1), 0);
        assert_eq!(csr.nnz(), 2);
    }
}
