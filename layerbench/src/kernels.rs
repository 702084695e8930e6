//! The four §V recommended-action kernels: each sequential reference
//! against its `dsspy-parallel` version at `threads` workers.

use dsspy_parallel::{par_find_all, par_for_init, par_max_by_key, par_merge_sort};
use dsspy_usecases::UseCaseKind;
use dsspy_workloads::Scale;

use crate::common::{median_ns, Rng, Run};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    MaxSearch,
    FindAll,
    ForInit,
    MergeSort,
}

impl Kernel {
    pub const ALL: [Kernel; 4] = [
        Kernel::MaxSearch,
        Kernel::FindAll,
        Kernel::ForInit,
        Kernel::MergeSort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::MaxSearch => "max_search",
            Kernel::FindAll => "find_all",
            Kernel::ForInit => "for_init",
            Kernel::MergeSort => "merge_sort",
        }
    }

    /// The kernel that carries out a use case's recommended action:
    /// Long-Insert → parallel initialization, Sort-After-Insert → parallel
    /// sort, Frequent-Search → chunked search, Frequent-Long-Read → parallel
    /// linear max-search (the priority-queue case of §V). Implement-Queue's
    /// producer/consumer action and the sequential use cases have none.
    pub fn for_use_case(kind: UseCaseKind) -> Option<Kernel> {
        match kind {
            UseCaseKind::LongInsert => Some(Kernel::ForInit),
            UseCaseKind::SortAfterInsert => Some(Kernel::MergeSort),
            UseCaseKind::FrequentSearch => Some(Kernel::FindAll),
            UseCaseKind::FrequentLongRead => Some(Kernel::MaxSearch),
            _ => None,
        }
    }
}

/// Median sequential and parallel time of one kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelTime {
    pub seq_ns: f64,
    pub par_ns: f64,
}

/// Time `kernel` on `n` seeded elements, `reps` times each way, checking
/// that the parallel result equals the sequential one.
pub fn time_kernel(run: &mut Run, kernel: Kernel, n: usize, reps: usize) -> KernelTime {
    let threads = run.threads;
    let mut rng = Rng::new(run.seed ^ n as u64);
    // Distinct values, so the maximum and the sort order are unambiguous.
    let mut data: Vec<u64> = (0..n as u64).map(|i| i * 7919 + 3).collect();
    rng.shuffle(&mut data);
    let hit = |v: &u64| v.is_multiple_of(1009);
    let init = |i: usize| (i as f64 * 0.001).sin();
    let (seq_ns, par_ns, ok) = match kernel {
        Kernel::MaxSearch => {
            let seq = || {
                let mut best = 0usize;
                for (i, v) in data.iter().enumerate() {
                    if *v > data[best] {
                        best = i;
                    }
                }
                best
            };
            let ok = par_max_by_key(&data, threads, |v| *v).map(|i| data[i]) == Some(data[seq()]);
            let s = median_ns(reps, || {
                std::hint::black_box(seq());
            });
            let p = median_ns(reps, || {
                std::hint::black_box(par_max_by_key(std::hint::black_box(&data), threads, |v| *v));
            });
            (s, p, ok)
        }
        Kernel::FindAll => {
            let seq = || -> Vec<usize> {
                data.iter()
                    .enumerate()
                    .filter(|(_, v)| hit(v))
                    .map(|(i, _)| i)
                    .collect()
            };
            let ok = par_find_all(&data, threads, hit) == seq();
            let s = median_ns(reps, || {
                std::hint::black_box(seq());
            });
            let p = median_ns(reps, || {
                std::hint::black_box(par_find_all(std::hint::black_box(&data), threads, hit));
            });
            (s, p, ok)
        }
        Kernel::ForInit => {
            let seq = || -> Vec<f64> { (0..std::hint::black_box(n)).map(init).collect() };
            let ok = par_for_init(n, threads, init) == seq();
            let s = median_ns(reps, || {
                std::hint::black_box(seq());
            });
            let p = median_ns(reps, || {
                std::hint::black_box(par_for_init(std::hint::black_box(n), threads, init));
            });
            (s, p, ok)
        }
        Kernel::MergeSort => {
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut got = data.clone();
            par_merge_sort(&mut got, threads);
            let ok = got == expect;
            let s = median_ns(reps, || {
                let mut d = data.clone();
                d.sort_unstable();
                std::hint::black_box(d);
            });
            let p = median_ns(reps, || {
                let mut d = data.clone();
                par_merge_sort(&mut d, threads);
                std::hint::black_box(d);
            });
            (s, p, ok)
        }
    };
    run.check(ok, || {
        format!("{} on {n} elements: parallel result differs", kernel.name())
    });
    KernelTime { seq_ns, par_ns }
}

/// The size at which the kernels are compared for speedup, and a size
/// below any sensible sequential cutoff for the small-input ratio.
pub fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (1 << 20, 1 << 10),
        Scale::Test => (1 << 14, 1 << 8),
    }
}

/// `recommend_speedup` for a report's use cases: Σ sequential ÷ Σ parallel
/// time of the kernels that carry out the report's recommended actions,
/// each kernel once however many use cases call for it.
pub fn recommend_speedup(run: &mut Run, kinds: &[UseCaseKind], reps: usize) -> f64 {
    let mut seq = 0.0;
    let mut par = 0.0;
    for k in Kernel::ALL {
        if kinds.iter().any(|&u| Kernel::for_use_case(u) == Some(k)) {
            let t = time_kernel(run, k, sizes(run.scale).0, reps);
            seq += t.seq_ns;
            par += t.par_ns;
        }
    }
    crate::common::ratio(seq, par)
}
