//! Offline shim for the subset of `rayon` used by this workspace.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the rayon API surface the matrix kernels rely on — `into_par_iter()` on
//! ranges and vectors, `par_chunks()` on slices, `map`/`collect`/`reduce`,
//! and `current_num_threads()` — implemented as an eager fork/join over
//! `std::thread::scope`. `map` really does fan work out across OS threads
//! (one contiguous chunk per hardware thread); it is not work-stealing, but
//! row-partitioned kernels split evenly so the difference is minor at these
//! sizes.

use std::ops::Range;
use std::sync::OnceLock;

/// Number of worker threads a parallel `map` will use: the hardware's
/// `available_parallelism`, read once per process (the query costs a few
/// syscalls, and real rayon also fixes its pool size at startup).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f` over every item on a pool of scoped threads, preserving order.
fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    let threads = current_num_threads().min(len).max(1);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(handle.join().expect("rayon-shim worker thread panicked"));
        }
        out
    })
}

/// An eager "parallel iterator": the item sequence is materialized and each
/// `map` runs across scoped threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// `rayon::iter::ParallelIterator::map_init`: like [`ParIter::map`], but
    /// every worker thread builds one scoped state value with `init` and
    /// threads `&mut` to it through each of its items. The state never
    /// crosses threads and is dropped when the worker finishes its chunk —
    /// scratch buffers built in `init` are shared across a worker's items
    /// but never contended.
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParIter<R>
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        let len = self.items.len();
        let threads = current_num_threads().min(len).max(1);
        if threads <= 1 {
            let mut state = init();
            return ParIter {
                items: self.items.into_iter().map(|t| f(&mut state, t)).collect(),
            };
        }
        let chunk_len = len.div_ceil(threads);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
        let mut iter = self.items.into_iter();
        loop {
            let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let (init, f) = (&init, &f);
        let items = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut state = init();
                        chunk
                            .into_iter()
                            .map(|t| f(&mut state, t))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(len);
            for handle in handles {
                out.extend(handle.join().expect("rayon-shim worker thread panicked"));
            }
            out
        });
        ParIter { items }
    }

    pub fn filter_map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync,
    {
        let mapped = parallel_map(self.items, f);
        ParIter {
            items: mapped.into_iter().flatten().collect(),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        parallel_map(self.items, f);
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }
}

/// Conversion into a [`ParIter`], mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {
        $(impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        })*
    };
}

impl_range_into_par_iter!(usize, u32, u64, i32, i64);

/// `par_chunks`, mirroring `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let doubled: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_matches_serial_fold() {
        let total = (0..1000u64)
            .collect::<Vec<_>>()
            .into_par_iter()
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 499_500);
    }

    #[test]
    fn par_chunks_covers_every_element() {
        let data: Vec<u32> = (0..103).collect();
        let sums: Vec<u32> = data.par_chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u32>(), data.iter().sum::<u32>());
    }

    #[test]
    fn current_num_threads_reports_the_hardware() {
        // Regression pin: `ShardedAccumulator::with_auto_shards` and the
        // ingest routing pool size off this value, so it must track the real
        // hardware (`available_parallelism`), never a baked-in constant.
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(super::current_num_threads(), expected);
        assert!(super::current_num_threads() >= 1);
        // The value is cached on first use, like real rayon's pool size:
        // every later call, from any thread, returns the same number.
        for _ in 0..3 {
            assert_eq!(super::current_num_threads(), expected);
        }
        let from_other_thread = std::thread::spawn(super::current_num_threads)
            .join()
            .expect("probe thread panicked");
        assert_eq!(from_other_thread, expected);
    }

    #[test]
    fn map_init_builds_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (0..10_000usize)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    // The scoped state really is reusable scratch that
                    // persists across a worker's items.
                    scratch.push(i);
                    i * 2
                },
            )
            .collect();
        assert_eq!(out, (0..10_000).map(|i| i * 2).collect::<Vec<_>>());
        // One state per worker thread (not per item), at most one per
        // hardware thread and at least one overall.
        let states = inits.load(Ordering::SeqCst);
        assert!(states >= 1 && states <= super::current_num_threads());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.into_par_iter().map(|b| b + 1).collect();
        assert!(out.is_empty());
        assert_eq!((0..0usize).into_par_iter().reduce(|| 7, |a, b| a + b), 7);
    }
}
