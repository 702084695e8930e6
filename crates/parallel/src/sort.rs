//! Parallel sort — the Sort-After-Insert recommended action.
//!
//! When a sort follows a long insertion phase, insertion order is irrelevant
//! (paper §III-B, SAI): the insert can be parallelized and the sort itself
//! can run in parallel. [`par_merge_sort`] splits the slice at its median
//! with one linear selection pass, then sorts the two halves concurrently
//! with the std unstable sort, recursing with half the thread budget each.
//! Every element already sits on its final side of the split, so no merge
//! step follows.

/// Sort `data` ascending using up to `threads` workers.
///
/// Produces exactly the same result as `data.sort_unstable()`; equal
/// elements may be reordered (unstable), which matches the paper's setting
/// where order after a bulk insert is explicitly irrelevant. The name is
/// historical: the halves are separated by a median split, not merged.
pub fn par_merge_sort<T: Ord + Send>(data: &mut [T], threads: usize) {
    if threads <= 1 || data.len() < 2 {
        data.sort_unstable();
        return;
    }
    let mid = data.len() / 2;
    data.select_nth_unstable(mid);
    let (low, high) = data.split_at_mut(mid);
    let low_threads = threads / 2;
    std::thread::scope(|s| {
        s.spawn(|| par_merge_sort(high, threads - low_threads));
        par_merge_sort(low, low_threads);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn sorts_like_std() {
        let mut rng = xorshift(0x9E3779B97F4A7C15);
        for len in [0usize, 1, 2, 10, 1000, 4097, 65_536] {
            let data: Vec<u64> = (0..len).map(|_| rng() % 10_000).collect();
            for threads in [0usize, 1, 2, 3, 8] {
                let mut a = data.clone();
                let mut b = data.clone();
                par_merge_sort(&mut a, threads);
                b.sort_unstable();
                assert_eq!(a, b, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn sorts_descending_through_reverse() {
        let mut data: Vec<std::cmp::Reverse<i64>> = (0..10_000)
            .map(|i| std::cmp::Reverse((i * 31) % 1000))
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        par_merge_sort(&mut data, 8);
        assert_eq!(data, expect);
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let mut asc: Vec<u32> = (0..10_000).collect();
        let expect = asc.clone();
        par_merge_sort(&mut asc, 8);
        assert_eq!(asc, expect);

        let mut desc: Vec<u32> = (0..10_000).rev().collect();
        par_merge_sort(&mut desc, 8);
        assert_eq!(desc, expect);
    }

    #[test]
    fn all_equal_elements() {
        let mut data = vec![7u8; 5000];
        par_merge_sort(&mut data, 8);
        assert!(data.iter().all(|v| *v == 7));
        assert_eq!(data.len(), 5000);
    }

    #[test]
    fn odd_thread_counts() {
        let mut rng = xorshift(42);
        let data: Vec<u64> = (0..9_999).map(|_| rng()).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        for threads in [3usize, 5, 7, 13] {
            let mut a = data.clone();
            par_merge_sort(&mut a, threads);
            assert_eq!(a, expect, "threads={threads}");
        }
    }
}
