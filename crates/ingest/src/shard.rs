//! Sharded hypersparse accumulation.
//!
//! The accumulator hash-partitions events **by source row** into per-shard
//! COO blocks. Partitioning by row (rather than round-robin) is what makes
//! the merge exact and cheap:
//!
//! 1. every row's entries live in exactly one shard, so shards can coalesce
//!    (sort + sum duplicates) independently, on any thread;
//! 2. the coalesced blocks have pairwise-disjoint row sets, so
//!    [`CsrMatrix::from_row_disjoint_blocks`] stitches them into a CSR matrix
//!    with a counting pass instead of a global sort.
//!
//! **Serial-equivalence guarantee.** For any event stream and any shard
//! count, [`ShardedAccumulator::merge`] equals [`window_matrix`] (one COO
//! matrix built serially, then coalesced) cell-for-cell: addition of packet
//! counts is commutative and associative, every event lands in the shard
//! owning its row, and the blocked merge preserves each row's coalesced run.
//! The same argument extends to [`ShardedAccumulator::route_batch`]: worker
//! threads only change *which order* a shard's entries arrive in, never which
//! shard owns a row, and coalescing sorts before summing. The property tests
//! in `tests/proptest_shard.rs` exercise exactly these statements over
//! arbitrary streams, shard counts and routing thread counts.
//!
//! **One grain rule for threads.** Routing and merging fan out over the
//! rayon shim only when at least two workers each get about [`PAR_GRAIN`]
//! items; otherwise they run inline on the calling thread, because below
//! that the thread spawns and joins cost more than the work they split.
//! `route_batch` fans out from `2 * PAR_GRAIN` events and uses at most one
//! worker per `PAR_GRAIN` events. A merge runs one worker per shard up to
//! the hardware thread count, so it fans out from that many times
//! `PAR_GRAIN` pending entries (`2 * PAR_GRAIN` with two shards or two
//! threads). A strict-mode pipeline never routes more than one pulled batch
//! per call, so with the default 8,192-event batch it always routes inline.
//!
//! **Rotation-scratch recycling.** Merging at window rotation used to be the
//! allocation hot spot of the whole pipeline: fresh shard `Vec`s, fresh
//! coalesce outputs and fresh CSR arrays every window. [`MergeScratch`]
//! (mirroring the codec's `DecodeScratch`) keeps all of that capacity alive
//! across windows, so a steady pipeline reaches zero steady-state allocation
//! per window once warmed up — see [`ShardedAccumulator::scratch_reuse_hits`].

use rayon::prelude::*;
use tw_matrix::stream::PacketEvent;
use tw_matrix::{CooMatrix, CsrMatrix};

/// Serial reference: one COO matrix built from the whole stream.
///
/// This is the single-threaded baseline the sharded path must match
/// cell-for-cell (and beat in throughput — see the `ingest` bench).
pub fn window_matrix(node_count: usize, events: &[PacketEvent]) -> CsrMatrix<u64> {
    let mut coo = CooMatrix::with_capacity(node_count, node_count, events.len());
    for e in events {
        coo.push(
            e.source as usize,
            e.destination as usize,
            u64::from(e.packets),
        );
    }
    coo.to_csr()
}

/// The shard owning `row`: a multiplicative (Fibonacci) hash so strided row
/// patterns (scans, block replays) still spread across shards, reduced into
/// range by multiply-shift instead of `%` — no integer division on the
/// per-event hot path.
#[inline]
fn shard_of(row: usize, shard_count: usize) -> usize {
    let hashed = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((hashed >> 32) * shard_count as u64) >> 32) as usize
}

/// One routing worker's thread-local output: per-shard packed entries plus
/// the event/packet counts it observed. Buffers are pooled by the
/// accumulator so steady-state routing allocates nothing.
#[derive(Debug)]
struct RouteBuffer {
    shards: Vec<Vec<(u64, u64)>>,
    events: u64,
    packets: u64,
}

impl RouteBuffer {
    fn with_shards(shard_count: usize) -> Self {
        RouteBuffer {
            shards: vec![Vec::new(); shard_count],
            events: 0,
            packets: 0,
        }
    }

    /// Route a chunk of events into this buffer's per-shard fragments.
    fn route(&mut self, events: &[PacketEvent], node_count: usize) {
        let shard_count = self.shards.len();
        for e in events {
            let row = e.source as usize;
            debug_assert!(row < node_count && (e.destination as usize) < node_count);
            let key = (u64::from(e.source) << 32) | u64::from(e.destination);
            self.shards[shard_of(row, shard_count)].push((key, u64::from(e.packets)));
            self.events += 1;
            self.packets += u64::from(e.packets);
        }
    }
}

/// Per-shard coalescing scratch: carries the previous window's entry/distinct
/// counts (for the adaptive strategy choice) and the dense-accumulate arrays
/// the bucket path reuses window over window.
#[derive(Debug, Default)]
struct ShardScratch {
    prev_entries: usize,
    prev_distinct: usize,
    used_bucket: bool,
    /// Shard count `local_of`/`owned_rows` were built for (0 = not built).
    partition_shards: usize,
    /// Global row -> index into `owned_rows`, `u32::MAX` for rows this shard
    /// does not own. Under the multiply-shift partition each shard owns
    /// `~node_count / shard_count` rows, so shard-local row indices stay
    /// small enough for a counting sort.
    local_of: Vec<u32>,
    /// This shard's rows in ascending global order, so walking local rows
    /// `0..owned` emits global rows in ascending order.
    owned_rows: Vec<u32>,
    /// Counting-sort offsets, one per owned row (dense bucket path only).
    counts: Vec<u32>,
    /// Entries packed as `(key, packets)` — the radix path's key is the
    /// shard-local `(row, col)` pair, the dense path's is the column — and
    /// one event's packet count fits `u32`, so each slot is 8 bytes
    /// instead of 16.
    ordered: Vec<(u32, u32)>,
    /// Radix scatter ping-pong buffer.
    ordered2: Vec<(u32, u32)>,
    /// Radix digit histograms / scatter cursors.
    count_low: Vec<u32>,
    count_high: Vec<u32>,
    /// Dense per-column totals, valid only where `stamp[col] == epoch`.
    dense: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Columns touched in the current row, sorted before emission.
    touched: Vec<u32>,
}

impl ShardScratch {
    /// Build (or reuse) the shard-local row maps for `shard_index` of
    /// `shard_count`. Rebuilt only when the geometry changes, i.e. once per
    /// accumulator in practice.
    fn ensure_partition(&mut self, node_count: usize, shard_index: usize, shard_count: usize) {
        if self.partition_shards == shard_count && self.local_of.len() == node_count {
            return;
        }
        self.local_of.clear();
        self.local_of.resize(node_count, u32::MAX);
        self.owned_rows.clear();
        for row in 0..node_count {
            if shard_of(row, shard_count) == shard_index {
                self.local_of[row] = self.owned_rows.len() as u32;
                self.owned_rows.push(row as u32);
            }
        }
        self.partition_shards = shard_count;
    }
}

/// Window-rotation scratch (the merge-side sibling of the codec's
/// `DecodeScratch`): per-shard coalesce state, the coalesced block vectors,
/// and a small pool of retired CSR arrays awaiting reuse.
#[derive(Debug, Default)]
struct MergeScratch {
    per_shard: Vec<ShardScratch>,
    /// Per-shard coalesced output, packed as `(row << 32 | col, total)` —
    /// the shard-entry key format carried through to the CSR build, so
    /// nothing is unpacked into triples on the way.
    blocks: Vec<Vec<(u64, u64)>>,
    csr_pool: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)>,
    /// True once one merge has populated the scratch, i.e. the next merge
    /// runs entirely on recycled capacity.
    warm: bool,
}

/// Cumulative merge-side counters: scratch reuse and the per-shard coalesce
/// strategy tallies. Snapshot via [`ShardedAccumulator::merge_totals`];
/// [`ShardedAccumulator::finish`] returns the final snapshot so the last
/// window's deltas are not lost with the accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeTotals {
    /// Merges that ran entirely on recycled scratch capacity.
    pub scratch_reuse_hits: u64,
    /// Non-empty shard coalesces that took the packed-key sort path.
    pub sort_merges: u64,
    /// Non-empty shard coalesces that took the dense bucket path.
    pub bucket_merges: u64,
}

/// Retired CSR arrays kept for reuse; matches `DecodeScratch`'s pool cap.
const MAX_POOLED_CSR: usize = 4;
/// Routing buffers kept for reuse across batches.
const MAX_SPARE_BUFFERS: usize = 32;
/// Work per thread below which fanning out costs more than it saves: events
/// per routing worker in [`ShardedAccumulator::route_batch`], pending entries
/// per shard worker in [`ShardedAccumulator::merge`]. Each fan-out pays for
/// fresh scoped threads plus their joins, so both run inline on the calling
/// thread unless at least two workers each get this much.
///
/// Crossover, measured on a 2-vCPU x86-64 VM (one warm 1024-node `Mixed`
/// window over 2 shards, inline vs fanned out, medians of three interleaved
/// runs): merge 110–170 vs 220–290 µs at 9.1k entries, 550–780 vs 650–850
/// µs at 40k, a tie at 100k (1.7–2.0 vs 1.5–2.2 ms); routing over 2 threads
/// 25–36 vs 117–146 µs at 9.1k events, 116–171 vs 224–270 µs at 40k,
/// 370–420 vs 390–700 µs at 100k. When serve and student threads share the
/// cores, fan-out loses further. A 100 ms `Mixed` pipeline window (~9.1k
/// events) stays inline with a ~14× margin.
///
/// Above the grain the fan-out merge wins only when the second vCPU is
/// really free. On the same VM (15–31 interleaved rounds of `Mixed` merges
/// of 150k–1M entries over 2–16 shards, medians), one session had fan-out
/// winning at every size (1M, warm: 13–17 vs 17–24 ms); in five later
/// sessions, with the host's other tenants busy, inline won or tied (1M,
/// warm: 22–36 vs 21–31 ms). The fan-out branch is kept for hosts with idle
/// cores.
pub const PAR_GRAIN: usize = 1 << 16;
/// Below one entry per node, bucket-accumulate still pays off when entries
/// outnumber distinct cells by at least this factor (observed on the
/// *previous* window): duplicates collapse in the dense pass for free.
const BUCKET_DUP_RATIO: usize = 2;
/// Widest packed `(local row, col)` key the two-pass radix coalesce takes;
/// wider shard geometries use the dense-stamp bucket path instead (a 2^24
/// key space already covers 16k nodes across 8 shards).
const RADIX_MAX_BITS: u32 = 24;

/// Accumulates one window's events into per-shard COO blocks, merged into a
/// CSR matrix at window rotation.
///
/// Each shard stores its COO triples packed as `(row << 32 | col, packets)`
/// pairs: 16-byte sort elements instead of 24-byte tuples, which makes the
/// per-shard coalescing sort (the hot loop of the whole pipeline)
/// measurably faster on top of the win from sorting `shard_count` small,
/// cache-resident runs instead of one window-sized one.
#[derive(Debug)]
pub struct ShardedAccumulator {
    node_count: usize,
    shards: Vec<Vec<(u64, u64)>>,
    /// Filled routing buffers awaiting hand-off to their owning shards.
    routed: Vec<RouteBuffer>,
    /// Empty routing buffers pooled for the next batch.
    spare: Vec<RouteBuffer>,
    scratch: MergeScratch,
    adaptive: bool,
    events: u64,
    packets: u64,
    scratch_reuse_hits: u64,
    sort_merges: u64,
    bucket_merges: u64,
}

impl ShardedAccumulator {
    /// An accumulator over `node_count` addresses with `shard_count` shards.
    pub fn new(node_count: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        assert!(
            node_count <= u32::MAX as usize + 1,
            "row indices must pack into 32 bits"
        );
        ShardedAccumulator {
            node_count,
            shards: vec![Vec::new(); shard_count],
            routed: Vec::new(),
            spare: Vec::new(),
            scratch: MergeScratch::default(),
            adaptive: true,
            events: 0,
            packets: 0,
            scratch_reuse_hits: 0,
            sort_merges: 0,
            bucket_merges: 0,
        }
    }

    /// A shard count matched to the available hardware threads.
    pub fn with_auto_shards(node_count: usize) -> Self {
        Self::new(node_count, rayon::current_num_threads().max(1))
    }

    /// Enable or disable the adaptive sort-vs-bucket coalesce choice.
    /// Disabled, every shard always takes the packed-key sort path.
    pub fn set_adaptive_coalesce(&mut self, adaptive: bool) {
        self.adaptive = adaptive;
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Addresses per axis.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Events accumulated since the last [`ShardedAccumulator::merge`].
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Packets accumulated since the last [`ShardedAccumulator::merge`].
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Merges that ran entirely on recycled scratch capacity (every merge
    /// after the first, unless [`ShardedAccumulator::release_scratch`]
    /// intervened). Cumulative over the accumulator's lifetime.
    pub fn scratch_reuse_hits(&self) -> u64 {
        self.scratch_reuse_hits
    }

    /// Non-empty shard coalesces that took the packed-key sort path.
    /// Cumulative over the accumulator's lifetime.
    pub fn sort_merges(&self) -> u64 {
        self.sort_merges
    }

    /// Non-empty shard coalesces that took the dense bucket-accumulate path.
    /// Cumulative over the accumulator's lifetime.
    pub fn bucket_merges(&self) -> u64 {
        self.bucket_merges
    }

    /// Snapshot of the cumulative merge-side counters.
    pub fn merge_totals(&self) -> MergeTotals {
        MergeTotals {
            scratch_reuse_hits: self.scratch_reuse_hits,
            sort_merges: self.sort_merges,
            bucket_merges: self.bucket_merges,
        }
    }

    /// Route one event into its row's shard.
    #[inline]
    pub fn ingest(&mut self, event: &PacketEvent) {
        let row = event.source as usize;
        let shard = shard_of(row, self.shards.len());
        debug_assert!(row < self.node_count && (event.destination as usize) < self.node_count);
        let key = (u64::from(event.source) << 32) | u64::from(event.destination);
        self.shards[shard].push((key, u64::from(event.packets)));
        self.events += 1;
        self.packets += u64::from(event.packets);
    }

    /// Route a batch of events serially.
    pub fn ingest_batch(&mut self, events: &[PacketEvent]) {
        for e in events {
            self.ingest(e);
        }
    }

    /// Route a batch of events across up to `threads` workers.
    ///
    /// Batches under `2 *` [`PAR_GRAIN`] events, and any batch with
    /// `threads <= 1`, are routed inline by
    /// [`ShardedAccumulator::ingest_batch`]. Larger batches are split into
    /// near-equal contiguous chunks, at most one per [`PAR_GRAIN`] events
    /// and at most `threads` of them; each worker routes
    /// its chunk into a thread-local [`RouteBuffer`] (pooled, so steady-state
    /// routing allocates nothing), and the filled buffers are handed to the
    /// owning shards at the next merge.
    ///
    /// Cell-for-cell equal to serial routing for any thread count: chunking
    /// only permutes the order a shard's entries arrive in, and the merge
    /// sorts before summing.
    pub fn route_batch(&mut self, events: &[PacketEvent], threads: usize) {
        let workers = threads.min(events.len() / PAR_GRAIN);
        if workers < 2 {
            self.ingest_batch(events);
            return;
        }
        let chunk_len = events.len().div_ceil(workers);
        let shard_count = self.shards.len();
        let mut jobs: Vec<(RouteBuffer, &[PacketEvent])> = Vec::with_capacity(workers);
        for chunk in events.chunks(chunk_len) {
            let mut buf = self
                .spare
                .pop()
                .unwrap_or_else(|| RouteBuffer::with_shards(shard_count));
            buf.events = 0;
            buf.packets = 0;
            jobs.push((buf, chunk));
        }
        let node_count = self.node_count;
        let filled: Vec<RouteBuffer> = jobs
            .into_par_iter()
            .map(move |(mut buf, chunk)| {
                buf.route(chunk, node_count);
                buf
            })
            // tw-analyze: allow(hot-path-no-alloc, "the rayon bridge needs an owned job list; the RouteBuffers inside are recycled and the vec holds pointers only")
            .collect();
        for buf in &filled {
            self.events += buf.events;
            self.packets += buf.packets;
        }
        self.routed.extend(filled);
    }

    /// Hand every routed fragment to its owning shard and return the emptied
    /// buffers to the pool. Fragments swap straight into empty shards
    /// (zero-copy) and append otherwise.
    fn absorb_routed(&mut self) {
        if self.routed.is_empty() {
            return;
        }
        for mut buf in std::mem::take(&mut self.routed) {
            for (shard, frag) in self.shards.iter_mut().zip(buf.shards.iter_mut()) {
                if shard.is_empty() {
                    std::mem::swap(shard, frag);
                } else {
                    shard.extend_from_slice(frag);
                    frag.clear();
                }
            }
            if self.spare.len() < MAX_SPARE_BUFFERS {
                self.spare.push(buf);
            }
        }
    }

    /// Coalesce every shard and merge the row-disjoint blocks into one CSR
    /// matrix, resetting the accumulator for the next window.
    ///
    /// Shards coalesce in parallel over the rayon shim, one worker per shard
    /// up to the hardware thread count, only when every worker gets at least
    /// [`PAR_GRAIN`] pending entries on average; otherwise they coalesce in a
    /// plain loop on the calling thread.
    ///
    /// Everything the merge needs — shard storage, coalesce outputs, dense
    /// accumulate arrays, CSR arrays — comes from [`MergeScratch`] once the
    /// first window has warmed it, so steady-state rotation allocates
    /// nothing. The per-shard coalesce strategy (packed-key sort vs dense
    /// bucket accumulate) is chosen from the *previous* window's observed
    /// entry/distinct counts; both strategies are cell-for-cell identical.
    pub fn merge(&mut self) -> CsrMatrix<u64> {
        self.absorb_routed();
        self.events = 0;
        self.packets = 0;
        let shard_count = self.shards.len();
        if self.scratch.warm {
            self.scratch_reuse_hits += 1;
        } else {
            self.scratch.warm = true;
        }
        self.scratch
            .per_shard
            .resize_with(shard_count, ShardScratch::default);
        // tw-analyze: allow(hot-path-no-alloc, "resize_with constructs only on the first window; the scratch is warm on every later call")
        self.scratch.blocks.resize_with(shard_count, Vec::new);
        let node_count = self.node_count;
        let adaptive = self.adaptive;
        let entries: usize = self.shards.iter().map(Vec::len).sum();
        let fan_out = merge_fans_out(entries, shard_count);
        let MergeScratch {
            per_shard, blocks, ..
        } = &mut self.scratch;
        let jobs = self
            .shards
            .iter_mut()
            .zip(per_shard.iter_mut())
            .zip(blocks.iter_mut())
            .enumerate()
            .map(|(index, ((shard, sc), block))| (index, shard, sc, block));
        if !fan_out {
            for (index, shard, sc, block) in jobs {
                coalesce_shard_into(shard, sc, block, node_count, adaptive, index, shard_count);
            }
        } else {
            // tw-analyze: allow(hot-path-no-alloc, "the rayon bridge needs an owned job list; entries are mutable borrows, not copies")
            let jobs: Vec<_> = jobs.collect();
            jobs.into_par_iter().for_each(|(index, shard, sc, block)| {
                coalesce_shard_into(shard, sc, block, node_count, adaptive, index, shard_count);
            });
        }
        for sc in &self.scratch.per_shard {
            if sc.prev_entries == 0 {
                continue;
            }
            if sc.used_bucket {
                self.bucket_merges += 1;
            } else {
                self.sort_merges += 1;
            }
        }
        let (row_ptr, col_idx, values) = self.scratch.csr_pool.pop().unwrap_or_default();
        CsrMatrix::from_row_disjoint_packed_blocks_into(
            node_count,
            node_count,
            &self.scratch.blocks,
            row_ptr,
            col_idx,
            values,
        )
    }

    /// Merge the final window and release every retained buffer.
    ///
    /// [`ShardedAccumulator::merge`] deliberately keeps shard, scratch and
    /// pool capacity alive for the next window; at end-of-stream there is no
    /// next window, so `finish` consumes the accumulator and drops it all,
    /// returning the final matrix together with the closing counter snapshot.
    pub fn finish(mut self) -> (CsrMatrix<u64>, MergeTotals) {
        let matrix = self.merge();
        (matrix, self.merge_totals())
    }

    /// Return a retired window matrix's CSR arrays to the merge pool so the
    /// next [`ShardedAccumulator::merge`] builds into them instead of
    /// allocating. Pool is capped at [`MAX_POOLED_CSR`]; excess is dropped.
    pub fn recycle(&mut self, matrix: CsrMatrix<u64>) {
        if self.scratch.csr_pool.len() < MAX_POOLED_CSR {
            let (_, _, mut row_ptr, mut col_idx, mut values) = matrix.into_raw_parts();
            row_ptr.clear();
            col_idx.clear();
            values.clear();
            self.scratch.csr_pool.push((row_ptr, col_idx, values));
        }
    }

    /// Drop all recycled capacity: merge scratch, CSR pool, routing-buffer
    /// pool and shard storage. The next merge re-allocates from scratch —
    /// this is the fresh-allocation reference mode the recycling proptest
    /// compares against (`recycle_scratch: false` in the pipeline).
    pub fn release_scratch(&mut self) {
        self.scratch = MergeScratch::default();
        self.spare = Vec::new();
        for shard in &mut self.shards {
            *shard = Vec::new();
        }
    }
}

/// Whether a merge of `entries` pending entries over `shard_count` shards
/// fans out: the shim runs one worker per shard up to the hardware thread
/// count, and each needs at least [`PAR_GRAIN`] entries to pay for itself.
fn merge_fans_out(entries: usize, shard_count: usize) -> bool {
    let workers = shard_count.min(rayon::current_num_threads());
    workers >= 2 && entries >= workers * PAR_GRAIN
}

/// Coalesce one shard in place into `block`, leaving the shard cleared (with
/// capacity retained) and the strategy stats updated for the next window.
fn coalesce_shard_into(
    shard: &mut Vec<(u64, u64)>,
    sc: &mut ShardScratch,
    block: &mut Vec<(u64, u64)>,
    node_count: usize,
    adaptive: bool,
    shard_index: usize,
    shard_count: usize,
) {
    block.clear();
    let entries = shard.len();
    if entries == 0 {
        sc.prev_entries = 0;
        sc.prev_distinct = 0;
        sc.used_bucket = false;
        return;
    }
    // Strategy choice: the O(rows + entries) bucket pass replaces one
    // O(entries log entries) comparison sort with a two-pass counting sort
    // by row plus per-row column sorts over far smaller sets, so it wins
    // whenever the entries amortize its O(node_count) row table — and, on
    // the evidence of the *previous* window's duplicate ratio, even below
    // that point when duplicates are heavy (the dense accumulate collapses
    // them before anything is sorted).
    let use_bucket = adaptive
        && (entries >= node_count
            || (entries * 4 >= node_count
                && sc.prev_entries >= BUCKET_DUP_RATIO * sc.prev_distinct.max(1)));
    if use_bucket {
        sc.ensure_partition(node_count, shard_index, shard_count);
        // Bits to hold any column index; the shard-local row rides above.
        let col_bits = usize::BITS - (node_count - 1).leading_zeros();
        let owned = sc.owned_rows.len() as u64;
        let key_bound = ((owned - 1) << col_bits) | ((1u64 << col_bits) - 1);
        if u64::BITS - key_bound.leading_zeros() <= RADIX_MAX_BITS {
            radix_coalesce(shard, sc, block, col_bits);
        } else {
            bucket_coalesce(shard, sc, block, node_count);
        }
    } else {
        sort_coalesce(shard, block);
    }
    sc.prev_entries = entries;
    sc.prev_distinct = block.len();
    sc.used_bucket = use_bucket;
    shard.clear();
}

/// Sort one shard's packed entries and sum duplicate coordinates, leaving the
/// result in the packed key order. Sorting the packed `u64` key orders by
/// `(row, col)` exactly like [`CooMatrix::coalesce`] does, and zero totals
/// are dropped the same way coalesce drops them (zero-packet flow records
/// exist in real telemetry), so the blocked merge is cell-for-cell identical
/// to the serial path.
fn sort_coalesce(shard: &mut [(u64, u64)], block: &mut Vec<(u64, u64)>) {
    shard.sort_unstable_by_key(|&(key, _)| key);
    let mut push = |key: u64, packets: u64| {
        if packets != 0 {
            block.push((key, packets));
        }
    };
    let mut iter = shard.iter().copied();
    let Some((mut run_key, mut run_packets)) = iter.next() else {
        return;
    };
    for (key, packets) in iter {
        if key == run_key {
            run_packets += packets;
        } else {
            push(run_key, run_packets);
            run_key = key;
            run_packets = packets;
        }
    }
    push(run_key, run_packets);
}

/// Two-pass LSD radix coalesce: pack each entry's `(shard-local row, col)`
/// into one narrow key (the caller guarantees it fits [`RADIX_MAX_BITS`]),
/// histogram both digits in the packing pass, scatter twice through
/// L1-resident cursors, then run-sum duplicates off the fully sorted buffer.
/// Shard-local rows ascend with global rows (see `owned_rows`), so sorted
/// key order *is* global `(row, col)` order: rows ascend, columns sorted
/// within each row, zero totals dropped — identical output to
/// [`sort_coalesce`], in O(entries + 2^(bits/2)) with no comparison sort.
fn radix_coalesce(
    shard: &[(u64, u64)],
    sc: &mut ShardScratch,
    block: &mut Vec<(u64, u64)>,
    col_bits: u32,
) {
    let ShardScratch {
        local_of,
        owned_rows,
        ordered,
        ordered2,
        count_low,
        count_high,
        ..
    } = sc;
    let owned = owned_rows.len() as u32;
    let key_bound = ((u64::from(owned) - 1) << col_bits) | ((1u64 << col_bits) - 1);
    let total_bits = u64::BITS - key_bound.leading_zeros();
    let low_bits = total_bits.div_ceil(2);
    let low_mask = (1u32 << low_bits) - 1;
    count_low.clear();
    count_low.resize(1usize << low_bits, 0);
    count_high.clear();
    count_high.resize(((key_bound >> low_bits) + 1) as usize, 0);
    ordered.clear();
    ordered.resize(shard.len(), (0, 0));
    ordered2.clear();
    ordered2.resize(shard.len(), (0, 0));
    // Pass 0: pack keys and histogram both digits at once.
    for (slot, &(key, packets)) in shard.iter().enumerate() {
        // Every shard entry is one event, whose packet count is a u32.
        debug_assert!(packets <= u64::from(u32::MAX));
        let local = local_of[(key >> 32) as usize];
        debug_assert!(local != u32::MAX, "entry routed to non-owning shard");
        let k = (local << col_bits) | (key as u32);
        count_low[(k & low_mask) as usize] += 1;
        count_high[(k >> low_bits) as usize] += 1;
        ordered[slot] = (k, packets as u32);
    }
    // Exclusive prefix sums turn the histograms into scatter cursors.
    for counts in [&mut *count_low, &mut *count_high] {
        let mut run = 0u32;
        for c in counts.iter_mut() {
            let n = *c;
            *c = run;
            run += n;
        }
    }
    // Pass 1: stable scatter by low digit.
    for &(k, packets) in ordered.iter() {
        let digit = (k & low_mask) as usize;
        let slot = count_low[digit] as usize;
        count_low[digit] += 1;
        ordered2[slot] = (k, packets);
    }
    // Pass 2: stable scatter by high digit — fully sorted by packed key.
    for &(k, packets) in ordered2.iter() {
        let digit = (k >> low_bits) as usize;
        let slot = count_high[digit] as usize;
        count_high[digit] += 1;
        ordered[slot] = (k, packets);
    }
    // Run-sum duplicates and unpack to global coordinates.
    let col_mask = (1u32 << col_bits) - 1;
    let mut emit = |k: u32, total: u64| {
        if total != 0 {
            let row = u64::from(owned_rows[(k >> col_bits) as usize]);
            let col = u64::from(k & col_mask);
            block.push(((row << 32) | col, total));
        }
    };
    let mut iter = ordered.iter().copied();
    let Some((mut run_key, first)) = iter.next() else {
        return;
    };
    let mut run_total = u64::from(first);
    for (k, packets) in iter {
        if k == run_key {
            run_total += u64::from(packets);
        } else {
            emit(run_key, run_total);
            run_key = k;
            run_total = u64::from(packets);
        }
    }
    emit(run_key, run_total);
}

/// Dense bucket accumulate: counting-sort entries by shard-local row into one
/// contiguous buffer (each shard owns `~node_count / shard_count` rows, so
/// the count/offset table is tiny and stays in L1, and the scatter targets a
/// single warm allocation instead of per-row vectors), then sum each row's
/// run into a dense per-column array guarded by epoch stamps (no clearing
/// between rows or windows). O(owned_rows + entries + Σ touched·log touched)
/// — cheaper than sorting when entries ≫ node_count. Emits rows in
/// ascending order, columns sorted within each row, zero totals dropped:
/// identical output to [`sort_coalesce`].
fn bucket_coalesce(
    shard: &[(u64, u64)],
    sc: &mut ShardScratch,
    block: &mut Vec<(u64, u64)>,
    node_count: usize,
) {
    let ShardScratch {
        local_of,
        owned_rows,
        counts,
        ordered,
        dense,
        stamp,
        epoch,
        touched,
        ..
    } = sc;
    let owned = owned_rows.len();
    counts.clear();
    counts.resize(owned, 0);
    for &(key, _) in shard {
        let local = local_of[(key >> 32) as usize];
        debug_assert!(local != u32::MAX, "entry routed to non-owning shard");
        counts[local as usize] += 1;
    }
    // Exclusive prefix sum: counts[i] becomes row i's start offset, and the
    // scatter below advances it to row i's end (== row i+1's start).
    let mut run = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = run;
        run += n;
    }
    ordered.clear();
    ordered.resize(shard.len(), (0, 0));
    for &(key, packets) in shard {
        // Every shard entry is one event, whose packet count is a u32.
        debug_assert!(packets <= u64::from(u32::MAX));
        let local = local_of[(key >> 32) as usize] as usize;
        let slot = counts[local];
        counts[local] += 1;
        ordered[slot as usize] = (key as u32, packets as u32);
    }
    if dense.len() < node_count {
        dense.resize(node_count, 0);
        stamp.resize(node_count, 0);
    }
    let mut start = 0usize;
    for local in 0..owned {
        let end = counts[local] as usize;
        let entries = &ordered[start..end];
        start = end;
        if entries.is_empty() {
            continue;
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            // Stamp wrap: invalidate everything once per 2^32 rows.
            stamp.fill(0);
            *epoch = 1;
        }
        touched.clear();
        for &(col, packets) in entries {
            let col = col as usize;
            if stamp[col] != *epoch {
                stamp[col] = *epoch;
                dense[col] = u64::from(packets);
                touched.push(col as u32);
            } else {
                dense[col] += u64::from(packets);
            }
        }
        touched.sort_unstable();
        let row_key = u64::from(owned_rows[local]) << 32;
        for &col in touched.iter() {
            let total = dense[col as usize];
            if total != 0 {
                block.push((row_key | u64::from(col), total));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_matrix::ops::reduce_all;
    use tw_matrix::stream::synthetic_events;
    use tw_matrix::PlusTimes;

    #[test]
    fn sharded_merge_matches_serial_reference() {
        let events = synthetic_events(128, 40_000, 21);
        for shard_count in [1, 2, 3, 7, 16] {
            let mut acc = ShardedAccumulator::new(128, shard_count);
            acc.ingest_batch(&events);
            assert_eq!(acc.events(), 40_000);
            let merged = acc.merge();
            assert_eq!(
                merged,
                window_matrix(128, &events),
                "shard_count={shard_count}"
            );
            assert!(acc.is_empty(), "merge resets the accumulator");
        }
    }

    #[test]
    fn route_batch_matches_serial_for_any_thread_count() {
        // Just below and at the fan-out threshold, with an uneven last chunk,
        // and at 8 * PAR_GRAIN where eight threads really run eight workers:
        // the inline and the fanned-out branch of both `route_batch` and
        // `merge` must each equal the serial reference cell for cell.
        let all = synthetic_events(96, 8 * PAR_GRAIN, 5);
        for len in [
            2 * PAR_GRAIN - 1,
            2 * PAR_GRAIN,
            3 * PAR_GRAIN + 1,
            8 * PAR_GRAIN,
        ] {
            let events = &all[..len];
            let reference = window_matrix(96, events);
            for threads in [0, 1, 2, 3, 8] {
                let mut acc = ShardedAccumulator::new(96, 4);
                acc.route_batch(events, threads);
                let workers = if threads > 1 && len >= 2 * PAR_GRAIN {
                    threads.min(len / PAR_GRAIN)
                } else {
                    0
                };
                assert_eq!(acc.routed.len(), workers, "len={len} threads={threads}");
                assert_eq!(acc.events(), len as u64, "len={len} threads={threads}");
                assert_eq!(acc.merge(), reference, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn merge_matches_serial_on_both_sides_of_the_grain() {
        // Two shards give two merge workers on any host with two or more
        // hardware threads, so the merge fans out from exactly
        // 2 * PAR_GRAIN pending entries; both branches equal the reference.
        let all = synthetic_events(80, 2 * PAR_GRAIN, 17);
        let parallel = rayon::current_num_threads() >= 2;
        for len in [2 * PAR_GRAIN - 1, 2 * PAR_GRAIN] {
            let events = &all[..len];
            assert_eq!(merge_fans_out(len, 2), parallel && len >= 2 * PAR_GRAIN);
            let mut acc = ShardedAccumulator::new(80, 2);
            acc.ingest_batch(events);
            assert_eq!(acc.merge(), window_matrix(80, events), "len={len}");
        }
        // With more shards than threads the threshold scales with the
        // workers the shim actually runs.
        let workers = 16.min(rayon::current_num_threads());
        if workers >= 2 {
            assert!(!merge_fans_out(workers * PAR_GRAIN - 1, 16));
            assert!(merge_fans_out(workers * PAR_GRAIN, 16));
        }
        assert!(!merge_fans_out(usize::MAX, 1), "one shard never fans out");
    }

    #[test]
    fn routed_and_ingested_events_mix_in_one_window() {
        let events = synthetic_events(64, 2 * PAR_GRAIN + 8_000, 9);
        let (head, tail) = events.split_at(2 * PAR_GRAIN);
        let mut acc = ShardedAccumulator::new(64, 3);
        acc.route_batch(head, 4);
        assert_eq!(acc.routed.len(), 2, "the head fans out to two workers");
        acc.ingest_batch(tail);
        assert_eq!(acc.events(), events.len() as u64);
        assert_eq!(acc.merge(), window_matrix(64, &events));
    }

    #[test]
    fn merge_resets_between_windows() {
        let events = synthetic_events(64, 5_000, 2);
        let (first_half, second_half) = events.split_at(2_500);
        let mut acc = ShardedAccumulator::new(64, 4);
        acc.ingest_batch(first_half);
        let w0 = acc.merge();
        acc.ingest_batch(second_half);
        let w1 = acc.merge();
        assert_eq!(w0, window_matrix(64, first_half));
        assert_eq!(w1, window_matrix(64, second_half));
        let total = reduce_all(&PlusTimes, &w0) + reduce_all(&PlusTimes, &w1);
        assert_eq!(
            total,
            events.iter().map(|e| u64::from(e.packets)).sum::<u64>()
        );
    }

    #[test]
    fn scratch_reuse_hits_count_warm_merges() {
        let events = synthetic_events(32, 4_000, 7);
        let mut acc = ShardedAccumulator::new(32, 2);
        assert_eq!(acc.scratch_reuse_hits(), 0);
        for window in 0..4 {
            acc.ingest_batch(&events);
            let m = acc.merge();
            assert_eq!(acc.scratch_reuse_hits(), window as u64);
            acc.recycle(m);
        }
        // Releasing the scratch makes the next merge cold again.
        acc.release_scratch();
        acc.ingest_batch(&events);
        let _ = acc.merge();
        assert_eq!(acc.scratch_reuse_hits(), 3);
        acc.ingest_batch(&events);
        let _ = acc.merge();
        assert_eq!(acc.scratch_reuse_hits(), 4);
    }

    #[test]
    fn bucket_coalesce_matches_sort_path_over_windows() {
        // Dense, duplicate-heavy traffic over a tiny node set: after the
        // first (sorted) window the adaptive heuristic flips to the bucket
        // path, which must stay cell-for-cell identical.
        let events = synthetic_events(16, 25_000, 3);
        let reference = window_matrix(16, &events);
        let mut adaptive = ShardedAccumulator::new(16, 2);
        let mut sorted_only = ShardedAccumulator::new(16, 2);
        sorted_only.set_adaptive_coalesce(false);
        for window in 0..3 {
            adaptive.ingest_batch(&events);
            sorted_only.ingest_batch(&events);
            assert_eq!(adaptive.merge(), reference, "window={window}");
            assert_eq!(sorted_only.merge(), reference, "window={window}");
        }
        assert!(
            adaptive.bucket_merges() > 0,
            "duplicate-heavy windows must trigger the bucket path"
        );
        assert_eq!(
            sorted_only.bucket_merges(),
            0,
            "adaptive=false must pin the sort path"
        );
        assert!(sorted_only.sort_merges() >= adaptive.sort_merges());
    }

    #[test]
    fn wide_geometry_dense_fallback_matches_sort_path() {
        // 8192 nodes over 2 shards: ~4096 owned rows x 13 column bits needs
        // a 25-bit packed key, over RADIX_MAX_BITS, so the bucket path must
        // take the dense-stamp fallback — still cell-for-cell identical.
        let node_count = 8192usize;
        let col_bits = usize::BITS - (node_count - 1).leading_zeros();
        let owned_bound = node_count.div_ceil(2) as u64;
        let key_bound = ((owned_bound - 1) << col_bits) | ((1u64 << col_bits) - 1);
        assert!(
            u64::BITS - key_bound.leading_zeros() > RADIX_MAX_BITS,
            "geometry must overflow the radix key budget"
        );
        let events = synthetic_events(node_count as u32, 20_000, 13);
        let reference = window_matrix(node_count, &events);
        let mut adaptive = ShardedAccumulator::new(node_count, 2);
        for window in 0..3 {
            adaptive.ingest_batch(&events);
            assert_eq!(adaptive.merge(), reference, "window={window}");
        }
        assert!(
            adaptive.bucket_merges() > 0,
            "duplicate-heavy windows must trigger the bucket path"
        );
    }

    #[test]
    fn finish_consumes_and_matches_merge() {
        let events = synthetic_events(48, 2 * PAR_GRAIN, 11);
        let mut reference = ShardedAccumulator::new(48, 4);
        reference.ingest_batch(&events);
        let expected = reference.merge();
        let mut acc = ShardedAccumulator::new(48, 4);
        acc.route_batch(&events, 2);
        assert_eq!(acc.routed.len(), 2, "the batch fans out to two workers");
        let (matrix, totals) = acc.finish();
        assert_eq!(matrix, expected);
        assert_eq!(totals.scratch_reuse_hits, 0, "single cold merge");
        assert_eq!(totals.sort_merges + totals.bucket_merges, 4);
    }

    #[test]
    fn packet_and_event_counters_track_ingest() {
        let mut acc = ShardedAccumulator::new(8, 3);
        acc.ingest(&PacketEvent {
            source: 1,
            destination: 2,
            packets: 5,
            timestamp_us: 0,
        });
        acc.ingest(&PacketEvent {
            source: 7,
            destination: 0,
            packets: 2,
            timestamp_us: 1,
        });
        assert_eq!(acc.events(), 2);
        assert_eq!(acc.packets(), 7);
        assert_eq!(acc.node_count(), 8);
        assert_eq!(acc.shard_count(), 3);
        let m = acc.merge();
        assert_eq!(m.get(1, 2), 5);
        assert_eq!(m.get(7, 0), 2);
    }

    #[test]
    fn empty_merge_is_an_empty_matrix() {
        let mut acc = ShardedAccumulator::with_auto_shards(16);
        assert!(acc.shard_count() >= 1);
        let m = acc.merge();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.shape(), (16, 16));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedAccumulator::new(8, 0);
    }
}
