//! Property tests: every parallel kernel agrees with its sequential
//! counterpart for arbitrary inputs and thread counts — the data-race
//! freedom story told through outputs.

use dsspy_parallel::{
    par_find_all, par_find_first, par_map, par_max_by_key, par_merge_sort, BlockingQueue,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn map_matches(input in proptest::collection::vec(any::<i32>(), 0..2000), threads in 1usize..9) {
        let seq: Vec<i64> = input.iter().map(|v| i64::from(*v) * 3 - 1).collect();
        let par = par_map(&input, threads, |v| i64::from(*v) * 3 - 1);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn find_first_matches(input in proptest::collection::vec(0u8..8, 0..2000), needle in 0u8..8, threads in 1usize..9) {
        let seq = input.iter().position(|v| *v == needle);
        let par = par_find_first(&input, threads, |v| *v == needle);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn find_all_matches(input in proptest::collection::vec(0u8..4, 0..2000), threads in 1usize..9) {
        let seq: Vec<usize> = input.iter().enumerate().filter(|(_, v)| **v == 0).map(|(i, _)| i).collect();
        let par = par_find_all(&input, threads, |v| *v == 0);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn max_by_key_matches(input in proptest::collection::vec(any::<i16>(), 0..2000), threads in 1usize..9) {
        let seq = {
            let mut best: Option<(usize, i16)> = None;
            for (i, v) in input.iter().enumerate() {
                match best {
                    Some((_, bv)) if bv >= *v => {}
                    _ => best = Some((i, *v)),
                }
            }
            best.map(|(i, _)| i)
        };
        let par = par_max_by_key(&input, threads, |v| *v);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn merge_sort_matches(
        // Either wide values, or few distinct values and often fewer
        // elements than threads.
        input in prop_oneof![
            proptest::collection::vec(any::<i32>(), 0..3000),
            proptest::collection::vec(0i32..4, 0..40),
        ],
        threads in 0usize..17,
    ) {
        let mut seq = input.clone();
        seq.sort_unstable();
        let mut par = input;
        par_merge_sort(&mut par, threads);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn queue_is_a_permutation(items in proptest::collection::vec(any::<u32>(), 0..500), consumers in 1usize..5) {
        let q: BlockingQueue<u32> = BlockingQueue::unbounded();
        for &v in &items {
            q.push(v).unwrap();
        }
        q.close();
        let mut got: Vec<u32> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut part = Vec::new();
                        while let Some(v) = q.pop() {
                            part.push(v);
                        }
                        part
                    })
                })
                .collect();
            for h in handles {
                got.extend(h.join().unwrap());
            }
        });
        let mut expect = items;
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
