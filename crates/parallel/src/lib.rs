//! # dsspy-parallel — the parallel runtime behind the recommended actions
//!
//! DSspy's recommendations (paper §III-B) tell the engineer to *parallelize
//! the insert operation*, *employ a parallel queue*, or *split the list into
//! smaller chunks and search them in parallel*. The paper's evaluation
//! executes those transformations with .NET's Task Parallel Library; this
//! crate is our equivalent substrate, built from scratch on scoped threads
//! so the reproduction does not lean on an external data-parallelism
//! framework:
//!
//! * [`ops`] — chunked `par_map` / `par_for_init` over slices (the
//!   Long-Insert and array-initialization actions);
//! * [`search`] — parallel `find_first` (early exit), `find_all`,
//!   `max_by_key` (the Frequent-Search / Frequent-Long-Read actions, incl.
//!   the priority-queue-on-a-list search of the paper's Algorithmia case);
//! * [`sort`] — parallel sort that splits at the median and sorts both
//!   halves concurrently (the Sort-After-Insert action);
//! * [`queue`] / [`pipeline`] — a blocking MPMC queue and the
//!   producer/consumer pattern over it (the Implement-Queue action).
//!
//! Every chunked kernel runs through one private runner: `threads`
//! contiguous chunks, each on a scoped thread (one chunk runs inline),
//! results in chunk order, and a worker's panic re-raised in the caller.
//!
//! All entry points take an explicit thread count so callers can sweep it;
//! [`default_threads`] mirrors the machine's available parallelism (the
//! paper used an 8-core AMD FX 8120).

#![warn(missing_docs)]

pub mod ops;
pub mod pipeline;
pub mod queue;
pub mod search;
pub mod sort;

pub use ops::{par_for_init, par_map};
pub use pipeline::produce_consume;
pub use queue::BlockingQueue;
pub use search::{par_find_all, par_find_first, par_max_by_key};
pub use sort::par_merge_sort;

/// The number of worker threads to use when the caller does not care:
/// the machine's available parallelism, with a fallback of 4.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Split `len` items into at most `threads` contiguous chunk ranges of
/// near-equal size. Returns `(start, end)` pairs covering `0..len` exactly.
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    if len == 0 || threads == 0 {
        return Vec::new();
    }
    let threads = threads.min(len);
    let base = len / threads;
    let extra = len % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Run `f(start, end)` over the [`chunk_ranges`] of `len` items (`threads`
/// of 0 counts as 1) and return the per-chunk results in chunk order.
///
/// A single chunk runs on the calling thread and spawns nothing; two or
/// more each get a scoped thread while the caller waits. Keeping the caller
/// out of multi-chunk work is deliberate: the results of `par_map` calls
/// such as capture decoding and per-instance analysis outlive the call, and
/// when the caller allocated its share of them on the main thread's heap,
/// fragmentation there raised the offline-synth benchmark's peak resident
/// memory by about a quarter. A panic in any chunk is re-raised in the
/// caller once every worker has stopped.
pub(crate) fn run_chunks<R: Send>(
    len: usize,
    threads: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let ranges = chunk_ranges(len, threads.max(1));
    if ranges.len() <= 1 {
        return ranges.iter().map(|&(a, b)| f(a, b)).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(a, b)| s.spawn(move || f(a, b)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Concatenate per-chunk vectors in order, reusing the buffer of a single
/// chunk.
pub(crate) fn concat<U>(mut parts: Vec<Vec<U>>) -> Vec<U> {
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101, 1024] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, threads);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= threads);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} threads={threads}: {sizes:?}");
            }
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn zero_threads_yields_no_ranges() {
        assert!(chunk_ranges(10, 0).is_empty());
    }

    #[test]
    fn a_panic_in_any_chunk_reaches_the_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let input: Vec<usize> = (0..64).collect();
        for threads in [1usize, 2, 8] {
            // One chunk (threads == 1) runs inline on the calling thread.
            for (start, _) in chunk_ranges(input.len(), threads) {
                let bomb = |v: &usize| {
                    assert!(*v != start, "chunk at {start} fails");
                    *v
                };
                let mapped = catch_unwind(AssertUnwindSafe(|| par_map(&input, threads, bomb)));
                assert!(mapped.is_err(), "par_map threads={threads} chunk={start}");
                let found = catch_unwind(AssertUnwindSafe(|| {
                    par_find_all(&input, threads, |v| bomb(v) == 0)
                }));
                assert!(
                    found.is_err(),
                    "par_find_all threads={threads} chunk={start}"
                );
            }
        }
    }
}
