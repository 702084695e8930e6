//! The recommended actions, measured: parallel search / init / max / sort
//! against their sequential baselines across thread counts. These are the
//! §V per-use-case speedups (the paper's 2.30 priority-queue search, the
//! 1.77 array init, ...) as Criterion benches. Each iteration black-boxes
//! the collected result itself, so the optimizer cannot drop the work that
//! builds it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsspy_parallel::{par_find_all, par_for_init, par_max_by_key, par_merge_sort};

const N: usize = 100_000;

fn data() -> Vec<u64> {
    (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_003)
        .collect()
}

fn bench_max_search(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("recommended/pq_max_search_100k");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut best = 0usize;
            for (i, v) in data.iter().enumerate() {
                if *v > data[best] {
                    best = i;
                }
            }
            std::hint::black_box(best)
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(par_max_by_key(&data, t, |v| *v)))
        });
    }
    group.finish();
}

fn bench_init(c: &mut Criterion) {
    let mut group = c.benchmark_group("recommended/list_init_100k");
    group.throughput(Throughput::Elements(N as u64));
    let f = |i: usize| (i as f64 * 0.001).sin();
    group.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box((0..N).map(f).collect::<Vec<f64>>()))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(par_for_init(N, t, f)))
        });
    }
    group.finish();
}

fn bench_search_all(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("recommended/chunked_search_100k");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            std::hint::black_box(
                data.iter()
                    .enumerate()
                    .filter(|(_, v)| **v % 1009 == 0)
                    .map(|(i, _)| i)
                    .collect::<Vec<usize>>(),
            )
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(par_find_all(&data, t, |v| *v % 1009 == 0)))
        });
    }
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("recommended/sort_after_insert_100k");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut d = data.clone();
            d.sort_unstable();
            std::hint::black_box(d)
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| {
                let mut d = data.clone();
                par_merge_sort(&mut d, t);
                std::hint::black_box(d)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_max_search,
    bench_init,
    bench_search_all,
    bench_sort
);
criterion_main!(benches);
