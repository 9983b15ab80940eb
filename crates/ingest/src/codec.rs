//! A compact, versioned binary codec for [`WindowReport`]s.
//!
//! Recorded scenarios are replayed in class many times from one capture, so
//! the on-disk window format must be both small and stable. Version 1 encodes
//! the CSR matrix row by row with LEB128 varints and delta-compressed
//! coordinates — hypersparse windows (a few entries per row, clustered
//! columns) shrink to a handful of bytes per stored cell — followed by the
//! window's [`IngestStats`]. Every integer field is varint-encoded, so the
//! format has no architecture-dependent widths, and decoding validates
//! structure (magic, version, bounds, exact length) before any matrix is
//! built. Streams with a key-frame cadence go through [`CadenceEncoder`],
//! which ships each window between key frames as a sparse v3 delta against
//! its predecessor only when that delta is smaller than the window in full.
//!
//! ```
//! use tw_ingest::codec::{decode_window, encode_window};
//! use tw_ingest::{Pipeline, PipelineConfig, Scenario};
//!
//! let mut pipeline = Pipeline::new(Scenario::Ddos.source(64, 1), PipelineConfig::default());
//! let report = pipeline.next_window().unwrap();
//! let bytes = encode_window(&report);
//! let decoded = decode_window(&bytes).unwrap();
//! assert_eq!(decoded.matrix, report.matrix);
//! assert_eq!(decoded.stats, report.stats);
//! ```

use crate::window::{IngestStats, WindowReport};
use std::fmt;
use std::time::Duration;
use tw_matrix::CsrMatrix;
use tw_metrics::{Counter, MetricsRegistry};

/// Leading magic of an encoded window.
pub const WINDOW_MAGIC: [u8; 4] = *b"TWWR";
/// The newest codec version this module reads.
///
/// Version 2 appends the [`IngestStats::reordered`] counter to the stats
/// block; version-1 windows (recorded before the watermark stage existed)
/// still decode, with `reordered` reported as `0`. Version 3 is the
/// *delta-window* layout ([`encode_window_delta`]): sparse cell changes
/// against the previous window, decodable only through a
/// [`DecodeScratch`] holding that base. Full windows are still written as
/// version 2 — the layout gained nothing in v3 — so archives recorded
/// without key-frame cadence stay readable by v2-era builds.
pub const WINDOW_CODEC_VERSION: u8 = 3;
/// The version byte of a full (self-contained) window, as written by
/// [`encode_window`].
pub const FULL_WINDOW_VERSION: u8 = 2;
/// The version byte of a delta window, as written by
/// [`encode_window_delta`].
pub const DELTA_WINDOW_VERSION: u8 = 3;
/// The largest matrix dimension the codec accepts (16 Mi addresses).
///
/// This bounds the `row_ptr` allocation a decoder performs for a *claimed*
/// dimension, so a corrupt or hostile header cannot demand an absurd
/// allocation (or overflow `Vec`'s capacity) before validation fails.
/// 16,777,216 addresses is far beyond any classroom scenario and well above
/// what a dense-row-pointer CSR is sensible for.
pub const MAX_DIMENSION: usize = 1 << 24;

/// Errors produced while decoding a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with [`WINDOW_MAGIC`].
    BadMagic,
    /// The version byte is newer than this codec understands.
    UnsupportedVersion(u8),
    /// The buffer ended inside the named structure.
    Truncated(&'static str),
    /// A varint ran past 64 bits.
    VarintOverflow(&'static str),
    /// A structurally invalid field; the message names the violation.
    Corrupt(&'static str),
    /// A claimed matrix dimension is beyond [`MAX_DIMENSION`]; the error
    /// carries the offending dimension and the limit it broke.
    DimensionTooLarge {
        /// The dimension the header claimed.
        dimension: usize,
        /// The codec's [`MAX_DIMENSION`] bound it exceeded.
        limit: usize,
    },
    /// A delta window's base is not the window the decoder holds: `expected`
    /// is the base window index the delta names, `actual` is the decoder's
    /// current base (`None` when it holds no window at all — e.g. a delta
    /// handed to [`decode_window`], which is stateless by design).
    DeltaBaseMismatch {
        /// The base window index the delta was encoded against.
        expected: u64,
        /// The window index the decoder currently holds, if any.
        actual: Option<u64>,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an encoded window (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "window codec version {v} is not supported (this build reads versions 1..={WINDOW_CODEC_VERSION})"
                )
            }
            CodecError::Truncated(what) => {
                write!(f, "encoded window truncated while reading {what}")
            }
            CodecError::VarintOverflow(what) => write!(f, "varint overflow while reading {what}"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoded window: {what}"),
            CodecError::DimensionTooLarge { dimension, limit } => write!(
                f,
                "matrix dimension {dimension} exceeds the codec limit of {limit} addresses"
            ),
            CodecError::DeltaBaseMismatch {
                expected,
                actual: Some(actual),
            } => write!(
                f,
                "delta window is encoded against base window {expected}, but the decoder holds window {actual}"
            ),
            CodecError::DeltaBaseMismatch {
                expected,
                actual: None,
            } => write!(
                f,
                "delta window is encoded against base window {expected}, but the decoder holds no base window"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a LEB128 varint.
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A cursor over the encoded bytes.
pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub(crate) fn byte(&mut self, what: &'static str) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::Truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    pub(crate) fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        // Fast path: hypersparse windows make almost every field (column
        // deltas, small packet counts, row gaps) a single varint byte.
        if let Some(&b) = self.data.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_slow(what)
    }

    #[cold]
    fn varint_slow(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte(what)?;
            let payload = u64::from(byte & 0x7F);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(CodecError::VarintOverflow(what));
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    #[inline]
    pub(crate) fn usize_varint(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.varint(what)?).map_err(|_| CodecError::VarintOverflow(what))
    }
}

/// Append the stats block shared by the full and delta layouts.
fn push_stats(buf: &mut Vec<u8>, stats: &IngestStats) {
    push_varint(buf, stats.window_index);
    push_varint(buf, stats.events);
    push_varint(buf, stats.packets);
    push_varint(buf, stats.nnz as u64);
    push_varint(buf, stats.dropped_late);
    push_varint(buf, stats.reordered);
    let nanos = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
    push_varint(buf, nanos);
}

/// Parse the stats block shared by the full and delta layouts.
fn parse_stats(r: &mut Reader<'_>, version: u8) -> Result<IngestStats, CodecError> {
    let window_index = r.varint("window_index")?;
    let events = r.varint("events")?;
    let packets = r.varint("packets")?;
    let nnz = r.usize_varint("stats nnz")?;
    let dropped_late = r.varint("dropped_late")?;
    // Version 1 predates the reordering stage; its streams were strictly
    // sorted, so a zero count is the accurate value, not a placeholder.
    let reordered = if version >= 2 {
        r.varint("reordered")?
    } else {
        0
    };
    let elapsed = Duration::from_nanos(r.varint("elapsed")?);
    Ok(IngestStats {
        window_index,
        events,
        packets,
        nnz,
        dropped_late,
        reordered,
        elapsed,
    })
}

/// Read and validate the magic and version prefix.
fn parse_header(r: &mut Reader<'_>) -> Result<u8, CodecError> {
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.byte("magic")?;
    }
    if magic != WINDOW_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.byte("version")?;
    if version == 0 || version > WINDOW_CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(version)
}

/// Encode one window into the full ([`FULL_WINDOW_VERSION`]) binary format.
pub fn encode_window(report: &WindowReport) -> Vec<u8> {
    let matrix = &report.matrix;
    let stats = &report.stats;
    let (rows, cols) = matrix.shape();
    assert!(
        rows <= MAX_DIMENSION && cols <= MAX_DIMENSION,
        "window matrices larger than {MAX_DIMENSION} addresses are not encodable"
    );
    // Magic + version + ~2 varints per stored entry is a good initial guess.
    let mut buf = Vec::with_capacity(32 + matrix.nnz() * 4);
    buf.extend_from_slice(&WINDOW_MAGIC);
    buf.push(FULL_WINDOW_VERSION);
    push_stats(&mut buf, stats);

    push_varint(&mut buf, rows as u64);
    push_varint(&mut buf, cols as u64);
    push_varint(&mut buf, matrix.nnz() as u64);
    let occupied = (0..rows).filter(|&r| matrix.row_nnz(r) > 0).count();
    push_varint(&mut buf, occupied as u64);

    // Rows appear in increasing order, delta-compressed: the first occupied
    // row is absolute, later ones store (gap - 1). Columns within a row are
    // strictly increasing, so the first is absolute and later ones store
    // (delta - 1). Values follow their column inline.
    let mut prev_row: Option<usize> = None;
    for r in 0..rows {
        let row_nnz = matrix.row_nnz(r);
        if row_nnz == 0 {
            continue;
        }
        match prev_row {
            None => push_varint(&mut buf, r as u64),
            Some(p) => push_varint(&mut buf, (r - p - 1) as u64),
        }
        prev_row = Some(r);
        push_varint(&mut buf, row_nnz as u64);
        let mut prev_col: Option<usize> = None;
        for (c, v) in matrix.row(r) {
            match prev_col {
                None => push_varint(&mut buf, c as u64),
                Some(p) => push_varint(&mut buf, (c - p - 1) as u64),
            }
            prev_col = Some(c);
            push_varint(&mut buf, v);
        }
    }
    buf
}

/// Decode a window previously produced by [`encode_window`].
///
/// Round-trip guarantee: the decoded matrix equals the encoded one
/// cell for cell (including shape), and the stats are identical.
///
/// This entry point is stateless, so it can only materialize full windows;
/// a [`DELTA_WINDOW_VERSION`] payload is rejected with
/// [`CodecError::DeltaBaseMismatch`] — use [`decode_window_into`] with a
/// [`DecodeScratch`] that has decoded the base window.
pub fn decode_window(data: &[u8]) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let version = parse_header(&mut r)?;
    if version == DELTA_WINDOW_VERSION {
        let _ = parse_stats(&mut r, version)?;
        let expected = r.varint("base window index")?;
        return Err(CodecError::DeltaBaseMismatch {
            expected,
            actual: None,
        });
    }
    let (mut row_ptr, mut col_idx, mut values) = (Vec::new(), Vec::new(), Vec::new());
    let (rows, cols, stats) =
        parse_full_body(&mut r, version, &mut row_ptr, &mut col_idx, &mut values)?;
    let matrix = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .map_err(|_| CodecError::Corrupt("decoded arrays are not a valid CSR matrix"))?;
    Ok(WindowReport { matrix, stats })
}

/// Parse everything after the version byte of a full window into the given
/// (cleared and refilled) CSR arrays, returning the shape and stats.
fn parse_full_body(
    r: &mut Reader<'_>,
    version: u8,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(usize, usize, IngestStats), CodecError> {
    let stats = parse_stats(r, version)?;

    let rows = r.usize_varint("rows")?;
    let cols = r.usize_varint("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    let nnz = r.usize_varint("nnz")?;
    let occupied = r.usize_varint("occupied row count")?;
    if occupied > rows || nnz < occupied {
        return Err(CodecError::Corrupt("row/entry counts are inconsistent"));
    }

    // The arrays are assembled directly in CSR layout — no intermediate
    // triple buffer, no counting pass — which is what makes replay decode
    // a fraction of live-ingest cost. Capacities are clamped by the buffer
    // length so a corrupt header cannot force a huge allocation.
    row_ptr.clear();
    row_ptr.resize(rows + 1, 0);
    col_idx.clear();
    col_idx.reserve(nnz.min(r.data.len()));
    values.clear();
    values.reserve(nnz.min(r.data.len()));
    let mut row = 0usize;
    let mut next_row_fill = 0usize;
    for i in 0..occupied {
        let gap = r.usize_varint("row gap")?;
        row = if i == 0 {
            gap
        } else {
            row.checked_add(gap + 1)
                .ok_or(CodecError::Corrupt("row overflow"))?
        };
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        // Rows between the previous occupied row and this one are empty.
        for slot in &mut row_ptr[next_row_fill..=row] {
            *slot = col_idx.len();
        }
        next_row_fill = row + 1;
        let row_nnz = r.usize_varint("row nnz")?;
        if row_nnz == 0 {
            return Err(CodecError::Corrupt("occupied row with zero entries"));
        }
        let mut col = 0usize;
        for j in 0..row_nnz {
            let delta = r.usize_varint("column delta")?;
            col = if j == 0 {
                delta
            } else {
                col.checked_add(delta + 1)
                    .ok_or(CodecError::Corrupt("column overflow"))?
            };
            if col >= cols {
                return Err(CodecError::Corrupt("column index out of bounds"));
            }
            let value = r.varint("value")?;
            col_idx.push(col);
            values.push(value);
        }
    }
    if col_idx.len() != nnz {
        return Err(CodecError::Corrupt("entry count disagrees with header"));
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    for slot in &mut row_ptr[next_row_fill..=rows] {
        *slot = nnz;
    }
    Ok((rows, cols, stats))
}

/// Encode one window as a sparse delta ([`DELTA_WINDOW_VERSION`]) against
/// the previous window of the same stream.
///
/// Consecutive windows of a steady scenario share most cells, so the delta
/// — per changed row: deleted columns and upserted `(column, value)` pairs,
/// all delta-compressed like the full layout — is a fraction of the full
/// encoding. The payload names its base window index;
/// [`decode_window_into`] refuses to apply it to anything else. Both
/// matrices must share one shape (a stream invariant). Streams should go
/// through [`CadenceEncoder`], which ships a delta only where it is smaller
/// than the full window.
pub fn encode_window_delta(prev: &WindowReport, cur: &WindowReport) -> Vec<u8> {
    let (rows, cols) = cur.matrix.shape();
    assert_eq!(
        prev.matrix.shape(),
        (rows, cols),
        "delta windows require a same-shape base window"
    );
    assert!(
        rows <= MAX_DIMENSION && cols <= MAX_DIMENSION,
        "window matrices larger than {MAX_DIMENSION} addresses are not encodable"
    );
    let mut walk = DeltaWalk::new(prev, cur);
    let len = walk.advance(usize::MAX).unwrap_or_default();
    let mut buf = Vec::with_capacity(len);
    walk.write(&mut buf, &mut RowLists::default());
    buf
}

/// The exact length of [`encode_window_delta`]`(prev, cur)` when it is
/// below `limit` bytes; `None` when it is not, or when the shapes differ
/// (no delta exists).
///
/// The answer comes from one merge walk over the two CSR matrices that
/// stops as soon as the running size reaches `limit`; nothing is encoded
/// and nothing is allocated.
pub fn delta_window_len(prev: &WindowReport, cur: &WindowReport, limit: usize) -> Option<usize> {
    if prev.matrix.shape() != cur.matrix.shape() {
        return None;
    }
    DeltaWalk::new(prev, cur).advance(limit)
}

/// Bytes one LEB128 varint of `v` occupies (the length [`push_varint`]
/// writes).
#[inline]
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Bytes [`push_stats`] writes for `stats`.
fn stats_len(stats: &IngestStats) -> usize {
    let nanos = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
    [
        stats.window_index,
        stats.events,
        stats.packets,
        stats.nnz as u64,
        stats.dropped_late,
        stats.reordered,
        nanos,
    ]
    .iter()
    .map(|&v| varint_len(v))
    .sum()
}

/// A lower bound on [`encode_window`]`(report).len()`: the magic, version
/// and stats, plus at least a column byte and a value byte per stored cell.
fn full_len_floor(report: &WindowReport) -> usize {
    WINDOW_MAGIC.len() + 1 + stats_len(&report.stats) + 2 * report.matrix.nnz()
}

/// Row `r` of a matrix as its `(columns, values)` slices.
#[inline]
fn row_slices(matrix: &CsrMatrix<u64>, r: usize) -> (&[usize], &[u64]) {
    let (start, end) = (matrix.row_ptr()[r], matrix.row_ptr()[r + 1]);
    (
        &matrix.col_indices()[start..end],
        &matrix.values()[start..end],
    )
}

/// Walk one row's cell changes from `prev` to `cur` in column order,
/// calling `f(col, None)` for a deleted cell and `f(col, Some(value))` for
/// an upserted one: the merge [`CsrMatrix::diff`] performs, without
/// building its change list.
#[inline(always)]
fn row_changes(
    (prev_cols, prev_vals): (&[usize], &[u64]),
    (cur_cols, cur_vals): (&[usize], &[u64]),
    mut f: impl FnMut(usize, Option<u64>),
) {
    let (mut i, mut j) = (0, 0);
    while i < prev_cols.len() && j < cur_cols.len() {
        let (pc, cc) = (prev_cols[i], cur_cols[j]);
        if pc < cc {
            f(pc, None);
            i += 1;
        } else if cc < pc {
            f(cc, Some(cur_vals[j]));
            j += 1;
        } else {
            if prev_vals[i] != cur_vals[j] {
                f(cc, Some(cur_vals[j]));
            }
            i += 1;
            j += 1;
        }
    }
    for &c in &prev_cols[i..] {
        f(c, None);
    }
    for (&c, &v) in cur_cols[j..].iter().zip(&cur_vals[j..]) {
        f(c, Some(v));
    }
}

/// Column delta against the previous column of the same list: the first
/// is absolute, later ones store (delta - 1).
#[inline]
fn col_gap(prev: Option<usize>, col: usize) -> u64 {
    match prev {
        None => col as u64,
        Some(p) => (col - p - 1) as u64,
    }
}

/// Encoded bytes of one changed row's list counts and both lists, sized in
/// a single merge walk.
fn row_delta_len(prev: (&[usize], &[u64]), cur: (&[usize], &[u64])) -> usize {
    let (mut dels, mut sets, mut bytes) = (0u64, 0u64, 0usize);
    let (mut last_del, mut last_set) = (None, None);
    row_changes(prev, cur, |c, v| match v {
        Some(v) => {
            sets += 1;
            bytes += varint_len(col_gap(last_set, c)) + varint_len(v);
            last_set = Some(c);
        }
        None => {
            dels += 1;
            bytes += varint_len(col_gap(last_del, c));
            last_del = Some(c);
        }
    });
    varint_len(dels) + varint_len(sets) + bytes
}

/// Scratch for one row's encoded delete and upsert lists while the row is
/// written (its counts precede both lists on the wire).
#[derive(Debug, Default)]
struct RowLists {
    dels: Vec<u8>,
    sets: Vec<u8>,
}

/// A resumable, budgeted merge walk sizing the v3 delta from `prev` to
/// `cur` (same shape) row by row, and then writing it.
struct DeltaWalk<'a> {
    prev: &'a WindowReport,
    cur: &'a WindowReport,
    /// The first row not yet sized.
    next_row: usize,
    /// Bytes of the header and the rows sized so far (without the
    /// changed-row count, whose width is known only at the end).
    len: usize,
    changed_rows: usize,
    last_row: Option<usize>,
}

impl<'a> DeltaWalk<'a> {
    fn new(prev: &'a WindowReport, cur: &'a WindowReport) -> Self {
        let (rows, cols) = cur.matrix.shape();
        DeltaWalk {
            prev,
            cur,
            next_row: 0,
            len: WINDOW_MAGIC.len()
                + 1
                + stats_len(&cur.stats)
                + varint_len(prev.stats.window_index)
                + varint_len(rows as u64)
                + varint_len(cols as u64)
                + varint_len(cur.matrix.nnz() as u64),
            changed_rows: 0,
            last_row: None,
        }
    }

    /// Size rows until the delta's exact length is known, returning it when
    /// it is below `limit`, or until the length reaches `limit` (`None`). A
    /// later call with a larger limit resumes where this one stopped.
    fn advance(&mut self, limit: usize) -> Option<usize> {
        let rows = self.cur.matrix.rows();
        while self.next_row < rows {
            // The changed-row count still to come takes at least one byte.
            if self.len + 1 >= limit {
                return None;
            }
            let r = self.next_row;
            self.next_row += 1;
            let (p, c) = (
                row_slices(&self.prev.matrix, r),
                row_slices(&self.cur.matrix, r),
            );
            if p == c {
                continue;
            }
            self.len += varint_len(col_gap(self.last_row, r)) + row_delta_len(p, c);
            self.last_row = Some(r);
            self.changed_rows += 1;
        }
        let len = self.len + varint_len(self.changed_rows as u64);
        (len < limit).then_some(len)
    }

    /// Append the delta to `buf`; [`DeltaWalk::advance`] must have sized
    /// every row.
    fn write(&self, buf: &mut Vec<u8>, lists: &mut RowLists) {
        let (prev, cur) = (self.prev, self.cur);
        let (rows, cols) = cur.matrix.shape();
        buf.extend_from_slice(&WINDOW_MAGIC);
        buf.push(DELTA_WINDOW_VERSION);
        push_stats(buf, &cur.stats);
        push_varint(buf, prev.stats.window_index);
        push_varint(buf, rows as u64);
        push_varint(buf, cols as u64);
        push_varint(buf, cur.matrix.nnz() as u64);
        push_varint(buf, self.changed_rows as u64);

        // Per changed row (rows delta-compressed like the full layout): the
        // deleted-column list, then the upserted (column, value) list, each
        // with first-absolute / later (delta - 1) column compression.
        let mut last_row: Option<usize> = None;
        for r in 0..rows {
            let (p, c) = (row_slices(&prev.matrix, r), row_slices(&cur.matrix, r));
            if p == c {
                continue;
            }
            let RowLists { dels, sets } = lists;
            dels.clear();
            sets.clear();
            let (mut del_count, mut set_count) = (0u64, 0u64);
            let (mut last_del, mut last_set) = (None, None);
            row_changes(p, c, |col, v| match v {
                Some(v) => {
                    set_count += 1;
                    push_varint(sets, col_gap(last_set, col));
                    push_varint(sets, v);
                    last_set = Some(col);
                }
                None => {
                    del_count += 1;
                    push_varint(dels, col_gap(last_del, col));
                    last_del = Some(col);
                }
            });
            push_varint(buf, col_gap(last_row, r));
            last_row = Some(r);
            push_varint(buf, del_count);
            push_varint(buf, set_count);
            buf.extend_from_slice(dels);
            buf.extend_from_slice(sets);
        }
    }
}

/// Reusable decode state: the delta base window plus recycled CSR buffers.
///
/// A scratch makes [`decode_window_into`] allocation-free after warm-up:
/// decoded matrices are built straight into buffers recycled through
/// [`DecodeScratch::recycle`], and the delta base is refreshed in place
/// (`Vec::clone_from`) rather than reallocated. One scratch serves one
/// stream — it remembers the last window it materialized, and a delta
/// payload must name that window as its base.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The last window materialized through this scratch: `(index, matrix)`.
    base: Option<(u64, CsrMatrix<u64>)>,
    /// Recycled `(row_ptr, col_idx, values)` triples.
    pool: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)>,
    /// Reused change-list buffer for delta application.
    changes: Vec<(usize, usize, Option<u64>)>,
    reuse_hits: u64,
    reuse_counter: Option<Counter>,
}

/// How many recycled buffer triples a scratch keeps; more than this are
/// dropped on [`DecodeScratch::recycle`] (a steady decode loop needs one).
const SCRATCH_POOL_LIMIT: usize = 4;

impl DecodeScratch {
    /// A fresh scratch with no base window and empty buffer pool.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Count buffer-reuse hits into `codec.decode_reuse_hits` of the given
    /// registry (in addition to the local [`DecodeScratch::reuse_hits`]).
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.reuse_counter = Some(registry.counter("codec.decode_reuse_hits"));
    }

    /// Hand a no-longer-needed matrix's buffers back for the next decode.
    pub fn recycle(&mut self, matrix: CsrMatrix<u64>) {
        if self.pool.len() < SCRATCH_POOL_LIMIT {
            let (_, _, row_ptr, col_idx, values) = matrix.into_raw_parts();
            self.pool.push((row_ptr, col_idx, values));
        }
    }

    /// How many decodes built into recycled buffers instead of allocating.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// The window index of the current delta base, if any.
    pub fn base_window(&self) -> Option<u64> {
        self.base.as_ref().map(|(index, _)| *index)
    }

    /// Forget the base window (e.g. before seeking a recording): the next
    /// payload must then be a full window. Recycled buffers are kept.
    pub fn reset(&mut self) {
        if let Some((_, matrix)) = self.base.take() {
            self.recycle(matrix);
        }
    }

    /// Pop a recycled buffer triple (cleared), or fresh empty vectors.
    fn take_buffers(&mut self) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        match self.pool.pop() {
            Some((mut row_ptr, mut col_idx, mut values)) => {
                row_ptr.clear();
                col_idx.clear();
                values.clear();
                self.reuse_hits += 1;
                if let Some(counter) = &self.reuse_counter {
                    counter.inc();
                }
                (row_ptr, col_idx, values)
            }
            None => (Vec::new(), Vec::new(), Vec::new()),
        }
    }
}

/// Decode a full or delta window through a [`DecodeScratch`].
///
/// Full windows (versions 1 and 2) decode exactly as [`decode_window`] and
/// additionally become the scratch's base; delta windows
/// ([`DELTA_WINDOW_VERSION`]) are applied to that base. Either way the
/// returned matrix is built into recycled buffers when any are pooled —
/// hand finished matrices back via [`DecodeScratch::recycle`] and the loop
/// stops allocating once buffers reach their high-water marks.
pub fn decode_window_into(
    data: &[u8],
    scratch: &mut DecodeScratch,
) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let version = parse_header(&mut r)?;
    let (mut row_ptr, mut col_idx, mut values) = scratch.take_buffers();
    let parsed = if version == DELTA_WINDOW_VERSION {
        let DecodeScratch { base, changes, .. } = &mut *scratch;
        parse_delta_body(
            &mut r,
            base.as_ref(),
            changes,
            &mut row_ptr,
            &mut col_idx,
            &mut values,
        )
    } else {
        parse_full_body(&mut r, version, &mut row_ptr, &mut col_idx, &mut values)
    };
    let (rows, cols, stats) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            if scratch.pool.len() < SCRATCH_POOL_LIMIT {
                scratch.pool.push((row_ptr, col_idx, values));
            }
            return Err(e);
        }
    };
    let matrix = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .map_err(|_| CodecError::Corrupt("decoded arrays are not a valid CSR matrix"))?;
    match &mut scratch.base {
        Some((index, base)) => {
            *index = stats.window_index;
            base.clone_from(&matrix);
        }
        // tw-analyze: allow(hot-path-no-alloc, "runs once per stream: the first decode seeds the delta base, later windows clone_from into it")
        None => scratch.base = Some((stats.window_index, matrix.clone())),
    }
    Ok(WindowReport { matrix, stats })
}

/// Parse everything after the version byte of a delta window and apply it
/// to `base`, filling the given CSR arrays with the patched window.
fn parse_delta_body(
    r: &mut Reader<'_>,
    base: Option<&(u64, CsrMatrix<u64>)>,
    changes: &mut Vec<(usize, usize, Option<u64>)>,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(usize, usize, IngestStats), CodecError> {
    let stats = parse_stats(r, DELTA_WINDOW_VERSION)?;
    let expected = r.varint("base window index")?;
    let Some((actual, base)) = base else {
        return Err(CodecError::DeltaBaseMismatch {
            expected,
            actual: None,
        });
    };
    if *actual != expected {
        return Err(CodecError::DeltaBaseMismatch {
            expected,
            actual: Some(*actual),
        });
    }

    let rows = r.usize_varint("rows")?;
    let cols = r.usize_varint("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    if (rows, cols) != base.shape() {
        return Err(CodecError::Corrupt("delta shape disagrees with its base"));
    }
    let final_nnz = r.usize_varint("final nnz")?;
    let changed_rows = r.usize_varint("changed row count")?;
    if changed_rows > rows {
        return Err(CodecError::Corrupt("changed row count exceeds the rows"));
    }

    changes.clear();
    let mut row = 0usize;
    for i in 0..changed_rows {
        let gap = r.usize_varint("row gap")?;
        row = if i == 0 {
            gap
        } else {
            row.checked_add(gap + 1)
                .ok_or(CodecError::Corrupt("row overflow"))?
        };
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        let dels = r.usize_varint("deleted column count")?;
        let sets = r.usize_varint("upserted column count")?;
        if dels == 0 && sets == 0 {
            return Err(CodecError::Corrupt("changed row with no changes"));
        }
        let row_start = changes.len();
        for list in [(dels, false), (sets, true)] {
            let (count, is_set) = list;
            let mut col = 0usize;
            for j in 0..count {
                let delta = r.usize_varint("column delta")?;
                col = if j == 0 {
                    delta
                } else {
                    col.checked_add(delta + 1)
                        .ok_or(CodecError::Corrupt("column overflow"))?
                };
                if col >= cols {
                    return Err(CodecError::Corrupt("column index out of bounds"));
                }
                let value = if is_set {
                    Some(r.varint("value")?)
                } else {
                    None
                };
                changes.push((row, col, value));
            }
        }
        // Deletes and upserts were parsed as two sorted runs; restore the
        // single by-column order `apply_delta_into` requires. A column in
        // both runs survives the sort and is rejected as a duplicate below.
        changes[row_start..].sort_unstable_by_key(|&(_, c, _)| c);
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    base.apply_delta_into(changes, row_ptr, col_idx, values)
        .map_err(|_| CodecError::Corrupt("delta changes do not apply to the base window"))?;
    if col_idx.len() != final_nnz {
        return Err(CodecError::Corrupt("delta result disagrees with header"));
    }
    Ok((rows, cols, stats))
}

/// The `codec.*` counters: encoder cadence and decoder buffer reuse.
///
/// A [`CadenceEncoder`] drives `delta_windows`, `keyframes` and
/// `bytes_saved`; decoding contexts wire `decode_reuse_hits` through
/// [`DecodeScratch::instrument`].
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    /// Windows shipped as deltas.
    pub delta_windows: Counter,
    /// Windows shipped in full: cadence key frames plus the windows whose
    /// delta was no smaller than their full encoding.
    pub keyframes: Counter,
    /// Bytes saved by shipping deltas: each window's full length minus the
    /// length shipped (zero for a full window).
    pub bytes_saved: Counter,
    /// Decodes that built into recycled buffers instead of allocating.
    pub decode_reuse_hits: Counter,
}

impl CodecMetrics {
    /// Register the `codec.*` counters in a registry.
    pub fn new(registry: &MetricsRegistry) -> Self {
        CodecMetrics {
            delta_windows: registry.counter("codec.delta_windows"),
            keyframes: registry.counter("codec.keyframes"),
            bytes_saved: registry.counter("codec.bytes_saved"),
            decode_reuse_hits: registry.counter("codec.decode_reuse_hits"),
        }
    }
}

/// One window as a [`CadenceEncoder`] shipped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedWindow {
    /// The codec payload: a full v2 window or a v3 delta.
    pub bytes: Vec<u8>,
    /// Whether `bytes` is a delta (a `DeltaWindow` frame on the wire).
    pub delta: bool,
}

/// The per-window full-vs-delta choice of a key-frame cadence stream, shared
/// by the archive recorder and the serving tier.
///
/// With cadence `K > 0`, every `K`-th window (counting from the first) is a
/// key frame. A window between key frames ships as a v3 delta against its
/// predecessor only when the delta is strictly smaller than its own full v2
/// encoding; otherwise (ties included) it ships in full. A full window is a
/// valid anchor anywhere in a chain — [`decode_window_into`] takes one at
/// any point — so a size fallback never breaks a reader. `K = 0` ships
/// every window in full and keeps no base.
#[derive(Debug)]
pub struct CadenceEncoder {
    keyframe_every: u64,
    /// Windows encoded so far (the cadence position).
    encoded: u64,
    /// The previous window: the next delta's base (`K > 0` only).
    base: Option<WindowReport>,
    lists: RowLists,
    metrics: Option<CodecMetrics>,
}

impl CadenceEncoder {
    /// An encoder with key-frame cadence `keyframe_every` (0 = all full).
    pub fn new(keyframe_every: u64) -> Self {
        CadenceEncoder {
            keyframe_every,
            encoded: 0,
            base: None,
            lists: RowLists::default(),
            metrics: None,
        }
    }

    /// Count shipped windows into the `codec.*` counters of the registry.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(CodecMetrics::new(registry));
    }

    /// Take back the last [`CadenceEncoder::encode`], for a window its
    /// caller failed to store: the cadence position steps back, and the
    /// next window ships in full, since no delta may name a base that never
    /// reached the reader. A full window off the cadence is a valid anchor,
    /// so the stream stays decodable and its key frames stay in place.
    pub fn rewind(&mut self) {
        self.encoded = self.encoded.saturating_sub(1);
        self.base = None;
    }

    /// Encode the stream's next window: full at a key frame, otherwise the
    /// smaller of the delta against the previous window and the full
    /// encoding.
    ///
    /// The delta is sized by a budgeted walk before any of it is written.
    /// The walk first runs against a floor under the full length: a delta
    /// below it wins without the full window being encoded at all. Past
    /// the floor the full window is encoded and the walk resumes against
    /// its exact length, so a losing delta costs a partial merge walk, not
    /// an encoding.
    pub fn encode(&mut self, report: &WindowReport) -> EncodedWindow {
        let keyframe = self.keyframe_every == 0 || self.encoded.is_multiple_of(self.keyframe_every);
        self.encoded += 1;
        let mut full: Option<Vec<u8>> = None;
        let delta = match &self.base {
            Some(base) if !keyframe && base.matrix.shape() == report.matrix.shape() => {
                let mut walk = DeltaWalk::new(base, report);
                let len = walk.advance(full_len_floor(report)).or_else(|| {
                    let full_len = full.insert(encode_window(report)).len();
                    walk.advance(full_len)
                });
                len.map(|len| {
                    let mut buf = Vec::with_capacity(len);
                    walk.write(&mut buf, &mut self.lists);
                    buf
                })
            }
            _ => None,
        };
        if self.keyframe_every != 0 {
            match &mut self.base {
                Some(base) => base.clone_from(report),
                None => self.base = Some(report.clone()),
            }
        }
        if let Some(m) = &self.metrics {
            match &delta {
                Some(d) => {
                    // A delta that won under the floor never needed the
                    // full encoding; only the counter does.
                    let full_len = full
                        .as_ref()
                        .map_or_else(|| encode_window(report).len(), Vec::len);
                    m.delta_windows.inc();
                    m.bytes_saved.add((full_len - d.len()) as u64);
                }
                None => m.keyframes.inc(),
            }
        }
        match delta {
            Some(bytes) => EncodedWindow { bytes, delta: true },
            None => EncodedWindow {
                bytes: full.unwrap_or_else(|| encode_window(report)),
                delta: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: usize, cols: usize, entries: &[(usize, usize, u64)]) -> WindowReport {
        let matrix = CsrMatrix::from_sorted_triples(rows, cols, entries);
        let stats = IngestStats {
            window_index: 3,
            events: entries.len() as u64,
            packets: entries
                .iter()
                .fold(0u64, |acc, &(_, _, v)| acc.saturating_add(v)),
            nnz: entries.len(),
            dropped_late: 1,
            reordered: 2,
            elapsed: Duration::from_micros(1234),
        };
        WindowReport { matrix, stats }
    }

    #[test]
    fn round_trips_a_small_window() {
        let original = report(6, 6, &[(0, 1, 5), (0, 4, 1), (2, 2, 9), (5, 0, u64::MAX)]);
        let bytes = encode_window(&original);
        let decoded = decode_window(&bytes).unwrap();
        assert_eq!(decoded.matrix, original.matrix);
        assert_eq!(decoded.stats, original.stats);
    }

    #[test]
    fn round_trips_an_empty_window() {
        let original = report(100, 100, &[]);
        let decoded = decode_window(&encode_window(&original)).unwrap();
        assert_eq!(decoded.matrix, original.matrix);
        assert_eq!(decoded.matrix.shape(), (100, 100));
        assert_eq!(decoded.stats, original.stats);
    }

    #[test]
    fn hypersparse_windows_encode_compactly() {
        // 4 entries over a 100k-address space: delta compression keeps the
        // whole window under a hundred bytes where raw CSR arrays (usize
        // row_ptr alone) would take ~800 KB.
        let original = report(
            100_000,
            100_000,
            &[
                (5, 99_999, 1),
                (70_000, 3, 2),
                (70_000, 4, 7),
                (99_999, 0, 1),
            ],
        );
        let bytes = encode_window(&original);
        assert!(bytes.len() < 100, "got {} bytes", bytes.len());
        let decoded = decode_window(&bytes).unwrap();
        assert_eq!(decoded.matrix, original.matrix);
    }

    #[test]
    fn rejects_bad_magic_and_future_versions() {
        let mut bytes = encode_window(&report(2, 2, &[(0, 1, 1)]));
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode_window(&wrong), Err(CodecError::BadMagic));
        bytes[4] = WINDOW_CODEC_VERSION + 1;
        assert_eq!(
            decode_window(&bytes),
            Err(CodecError::UnsupportedVersion(WINDOW_CODEC_VERSION + 1))
        );
        assert_eq!(decode_window(b""), Err(CodecError::Truncated("magic")));
    }

    #[test]
    fn rejects_dimensions_beyond_the_codec_limit() {
        // Hand-assemble a header claiming a huge dimension: the decoder must
        // reject it before allocating row storage, and the error must name
        // both the offending dimension and the limit.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WINDOW_MAGIC);
        bytes.push(FULL_WINDOW_VERSION);
        for _ in 0..7 {
            super::push_varint(&mut bytes, 0); // stats fields
        }
        super::push_varint(&mut bytes, (MAX_DIMENSION as u64) + 1); // rows
        super::push_varint(&mut bytes, 4); // cols
        let expected = Err(CodecError::DimensionTooLarge {
            dimension: MAX_DIMENSION + 1,
            limit: MAX_DIMENSION,
        });
        assert_eq!(decode_window(&bytes).map(|_| ()), expected);

        // Mirror of the guard on the delta path: same header shape after the
        // base window index.
        let mut delta = Vec::new();
        delta.extend_from_slice(&WINDOW_MAGIC);
        delta.push(DELTA_WINDOW_VERSION);
        for _ in 0..7 {
            super::push_varint(&mut delta, 0); // stats fields
        }
        super::push_varint(&mut delta, 0); // base window index
        super::push_varint(&mut delta, (MAX_DIMENSION as u64) + 1); // rows
        super::push_varint(&mut delta, 4); // cols
        let mut scratch = DecodeScratch::new();
        scratch.base = Some((0, CsrMatrix::empty(2, 2)));
        assert_eq!(
            decode_window_into(&delta, &mut scratch).map(|_| ()),
            expected
        );
    }

    #[test]
    fn version_one_windows_still_decode() {
        // Hand-assemble a pre-watermark (version 1) window: the stats block
        // has no `reordered` varint. Recordings captured before the codec
        // bump must keep replaying, with `reordered` reported as zero.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WINDOW_MAGIC);
        bytes.push(1); // version 1
        for v in [3u64, 1, 5, 1, 7] {
            super::push_varint(&mut bytes, v); // index, events, packets, nnz, late
        }
        super::push_varint(&mut bytes, 1_234_000); // elapsed ns
        for v in [2u64, 2, 1, 1] {
            super::push_varint(&mut bytes, v); // rows, cols, nnz, occupied rows
        }
        for v in [0u64, 1, 1, 5] {
            super::push_varint(&mut bytes, v); // row 0, one entry, col 1, value 5
        }
        let decoded = decode_window(&bytes).unwrap();
        assert_eq!(decoded.stats.window_index, 3);
        assert_eq!(decoded.stats.dropped_late, 7);
        assert_eq!(decoded.stats.reordered, 0, "v1 predates the counter");
        assert_eq!(decoded.stats.elapsed, Duration::from_nanos(1_234_000));
        assert_eq!(decoded.matrix.nnz(), 1);
        assert_eq!(decoded.matrix.get(0, 1), 5);
        // Version 0 never existed; reject it rather than guessing a layout.
        bytes[4] = 0;
        assert_eq!(
            decode_window(&bytes),
            Err(CodecError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let bytes = encode_window(&report(6, 6, &[(0, 1, 5), (2, 2, 9)]));
        for len in 0..bytes.len() {
            assert!(
                decode_window(&bytes[..len]).is_err(),
                "truncated at {len} must error"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_window(&padded),
            Err(CodecError::Corrupt("trailing bytes after the last entry"))
        );
    }

    #[test]
    fn decoder_never_panics_on_corrupt_flips() {
        let bytes = encode_window(&report(16, 16, &[(1, 2, 3), (1, 3, 4), (9, 15, 1_000_000)]));
        for pos in 0..bytes.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= xor;
                let _ = decode_window(&corrupt); // must not panic
            }
        }
    }

    #[test]
    fn display_messages_name_the_failure() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(CodecError::Truncated("value").to_string().contains("value"));
        assert!(CodecError::VarintOverflow("rows")
            .to_string()
            .contains("rows"));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
        let too_large = CodecError::DimensionTooLarge {
            dimension: MAX_DIMENSION + 1,
            limit: MAX_DIMENSION,
        }
        .to_string();
        assert!(too_large.contains(&(MAX_DIMENSION + 1).to_string()));
        assert!(too_large.contains(&MAX_DIMENSION.to_string()));
        let mismatch = CodecError::DeltaBaseMismatch {
            expected: 7,
            actual: Some(5),
        }
        .to_string();
        assert!(mismatch.contains('7') && mismatch.contains('5'));
        assert!(CodecError::DeltaBaseMismatch {
            expected: 7,
            actual: None,
        }
        .to_string()
        .contains("no base"));
    }

    fn assert_reports_equal(a: &WindowReport, b: &WindowReport) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.matrix, b.matrix);
    }

    #[test]
    fn full_windows_still_encode_as_version_two() {
        // K=0 archives must stay byte-compatible with pre-delta readers:
        // the full encoding never mentions version 3.
        let bytes = encode_window(&report(8, 8, &[(0, 1, 2), (3, 4, 5)]));
        assert_eq!(bytes[4], FULL_WINDOW_VERSION);
    }

    #[test]
    fn delta_round_trips_through_a_scratch() {
        let prev = report(16, 16, &[(1, 2, 3), (1, 3, 4), (9, 15, 7)]);
        let mut cur = report(16, 16, &[(1, 2, 3), (2, 0, 9), (9, 15, 8)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let delta = encode_window_delta(&prev, &cur);
        assert_eq!(delta[4], DELTA_WINDOW_VERSION);

        let mut scratch = DecodeScratch::new();
        let got_prev = decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        assert_reports_equal(&got_prev, &prev);
        let got_cur = decode_window_into(&delta, &mut scratch).unwrap();
        assert_reports_equal(&got_cur, &cur);
        assert_eq!(scratch.base_window(), Some(cur.stats.window_index));
    }

    #[test]
    fn delta_chains_reuse_recycled_buffers() {
        // A keyframe + three deltas decoded in a recycle loop: after the
        // first decode hands its buffers back, every later decode is a
        // pool hit.
        let mut reports = vec![report(32, 32, &[(0, 0, 1), (5, 9, 2)])];
        for (i, cells) in [
            vec![(0, 0, 2), (5, 9, 2)],
            vec![(5, 9, 2)],
            vec![(5, 9, 2), (30, 31, 4)],
        ]
        .into_iter()
        .enumerate()
        {
            let mut next = report(32, 32, &cells);
            next.stats.window_index = reports[0].stats.window_index + i as u64 + 1;
            reports.push(next);
        }
        let mut encoded = vec![encode_window(&reports[0])];
        for pair in reports.windows(2) {
            encoded.push(encode_window_delta(&pair[0], &pair[1]));
        }

        let mut scratch = DecodeScratch::new();
        for (bytes, want) in encoded.iter().zip(&reports) {
            let got = decode_window_into(bytes, &mut scratch).unwrap();
            assert_reports_equal(&got, want);
            scratch.recycle(got.matrix);
        }
        assert_eq!(scratch.reuse_hits(), encoded.len() as u64 - 1);
    }

    #[test]
    fn delta_requires_its_exact_base() {
        let prev = report(8, 8, &[(1, 1, 1)]);
        let mut cur = report(8, 8, &[(1, 1, 2)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let delta = encode_window_delta(&prev, &cur);

        // A scratch that never saw a window holds no base.
        let mut cold = DecodeScratch::new();
        assert_eq!(
            decode_window_into(&delta, &mut cold).map(|_| ()),
            Err(CodecError::DeltaBaseMismatch {
                expected: prev.stats.window_index,
                actual: None,
            })
        );

        // A scratch holding a different window refuses to patch it.
        let mut wrong = report(8, 8, &[(1, 1, 1)]);
        wrong.stats.window_index = prev.stats.window_index + 10;
        let mut stale = DecodeScratch::new();
        decode_window_into(&encode_window(&wrong), &mut stale).unwrap();
        assert_eq!(
            decode_window_into(&delta, &mut stale).map(|_| ()),
            Err(CodecError::DeltaBaseMismatch {
                expected: prev.stats.window_index,
                actual: Some(wrong.stats.window_index),
            })
        );

        // The stateless decoder can never supply a base.
        assert_eq!(
            decode_window(&delta),
            Err(CodecError::DeltaBaseMismatch {
                expected: prev.stats.window_index,
                actual: None,
            })
        );

        // After reset() the base is forgotten again.
        stale.reset();
        assert_eq!(stale.base_window(), None);
        assert!(decode_window_into(&delta, &mut stale).is_err());
    }

    #[test]
    fn delta_decoder_never_panics_on_corrupt_flips() {
        let prev = report(16, 16, &[(1, 2, 3), (1, 3, 4), (9, 15, 1_000_000)]);
        let mut cur = report(16, 16, &[(1, 2, 3), (4, 4, 4), (9, 15, 999_999)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let bytes = encode_window_delta(&prev, &cur);
        for pos in 0..bytes.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= xor;
                let mut scratch = DecodeScratch::new();
                decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
                // Must not panic; a lucky flip may still decode to something.
                let _ = decode_window_into(&corrupt, &mut scratch);
            }
        }
    }

    #[test]
    fn delta_rejects_shape_and_count_lies() {
        let prev = report(8, 8, &[(1, 1, 1), (2, 2, 2)]);
        let mut cur = report(8, 8, &[(1, 1, 5)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let bytes = encode_window_delta(&prev, &cur);

        // A base with another shape is refused even when indices match.
        let mut scratch = DecodeScratch::new();
        let mut misshapen = report(4, 4, &[(1, 1, 1)]);
        misshapen.stats.window_index = prev.stats.window_index;
        decode_window_into(&encode_window(&misshapen), &mut scratch).unwrap();
        assert_eq!(
            decode_window_into(&bytes, &mut scratch).map(|_| ()),
            Err(CodecError::Corrupt("delta shape disagrees with its base"))
        );

        // Trailing garbage after a valid delta is refused.
        let mut padded = bytes.clone();
        padded.push(0);
        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        assert_eq!(
            decode_window_into(&padded, &mut scratch).map(|_| ()),
            Err(CodecError::Corrupt("trailing bytes after the last entry"))
        );
    }

    #[test]
    fn varint_len_matches_push_varint() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn cadence_encoder_places_key_frames_and_falls_back_to_full() {
        let cells: Vec<(usize, usize, u64)> =
            (0..12).map(|i| (i, (i * 5) % 16, 40 + i as u64)).collect();
        let mut windows = Vec::new();
        for w in 0..4u64 {
            let mut window_cells = cells.clone();
            window_cells[w as usize].2 += 1;
            let mut window = report(16, 16, &window_cells);
            window.stats.window_index = w;
            windows.push(window);
        }
        // A window whose base has another shape has no delta at all.
        let mut reshaped = report(8, 8, &[(1, 1, 1)]);
        reshaped.stats.window_index = 4;
        windows.push(reshaped);

        // K = 0: every window full, no base kept.
        let mut zero = CadenceEncoder::new(0);
        for window in &windows {
            let encoded = zero.encode(window);
            assert!(!encoded.delta);
            assert_eq!(encoded.bytes, encode_window(window));
        }
        assert!(zero.base.is_none());

        // K = 3: windows 0 and 3 are key frames; 1 and 2 ship the smaller
        // delta; 4 changes shape and falls back to full.
        let mut three = CadenceEncoder::new(3);
        let shipped: Vec<bool> = windows.iter().map(|w| three.encode(w).delta).collect();
        assert_eq!(shipped, [false, true, true, false, false]);

        // A delta above the floor under the full length (3-byte values,
        // most cells rewritten) is found by the walk resumed against the
        // full encoding.
        let wide: Vec<(usize, usize, u64)> = (0..64)
            .map(|i| (i / 4, (i % 4) * 4, 100_000 + i as u64))
            .collect();
        let mut rewritten = wide.clone();
        for cell in rewritten.iter_mut().take(40) {
            cell.2 += 1;
        }
        let (before, mut after) = (report(16, 16, &wide), report(16, 16, &rewritten));
        after.stats.window_index = before.stats.window_index + 1;
        let mut encoder = CadenceEncoder::new(2);
        assert!(!encoder.encode(&before).delta);
        let shipped = encoder.encode(&after);
        assert!(shipped.delta);
        let len = shipped.bytes.len();
        assert!(full_len_floor(&after) <= len && len < encode_window(&after).len());
    }

    #[test]
    fn codec_metrics_register_all_counters() {
        let registry = MetricsRegistry::new();
        let metrics = CodecMetrics::new(&registry);
        metrics.delta_windows.inc();
        metrics.keyframes.inc();
        metrics.bytes_saved.add(10);
        let mut scratch = DecodeScratch::new();
        scratch.instrument(&registry);
        scratch.recycle(CsrMatrix::empty(2, 2));
        let got = decode_window_into(&encode_window(&report(2, 2, &[])), &mut scratch).unwrap();
        assert_eq!(got.matrix.nnz(), 0);
        let snapshot = registry.snapshot();
        for (name, want) in [
            ("codec.delta_windows", 1),
            ("codec.keyframes", 1),
            ("codec.bytes_saved", 10),
            ("codec.decode_reuse_hits", 1),
        ] {
            assert_eq!(snapshot.counter(name), want, "{name}");
        }
    }
}
