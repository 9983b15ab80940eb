//! The window digest: shape, nnz and a hash over every stored cell.
//!
//! The serve-side stream wrapper digests each window before `serve` sees it;
//! every student digests the matrix it decoded. Equal digests for the same
//! window index mean the codec, framing and socket path delivered the window
//! cell for cell.

use tw_matrix::CsrMatrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Digest one window matrix (FNV-1a over 64-bit words).
pub fn window_digest(matrix: &CsrMatrix<u64>) -> u64 {
    let (rows, cols) = matrix.shape();
    let mut hash = mix(
        mix(mix(FNV_OFFSET, rows as u64), cols as u64),
        matrix.nnz() as u64,
    );
    for (row, col, value) in matrix.iter() {
        hash = mix(mix(mix(hash, row as u64), col as u64), value);
    }
    hash
}

/// A well-mixed 64-bit value from `x` (splitmix64 finalizer); used to derive
/// per-session seeds from the run seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
