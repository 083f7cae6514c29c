//! Microbenchmarks for the kernel hot-path primitives.
//!
//! The end-to-end trajectory lives in `kernel_throughput`; this bench
//! isolates the three per-op building blocks it is made of, so a
//! regression can be attributed without re-profiling the whole session:
//!
//! * `lru/*` — the packed nibble-permutation [`LruOrder`] (`touch`,
//!   `position`, `demote`) at the 16-way L2 and 4-way L1 widths;
//! * `set/*` — the struct-of-arrays tag probe and single-probe hit path
//!   of [`SetAssocCache`];
//! * `stream/*` — [`SyntheticStream::next_op`], the synthetic workload
//!   generator that feeds every retired op;
//! * `harness/*` — the two set-up steps of every cache-served sweep and
//!   report: opening the committed result store (`store_open`) and
//!   expanding and keying the `--mid` spec (`combo_jobs`). One
//!   iteration is one whole step, not a `BATCH`.
//!
//! The kernel closures run a fixed batch of operations per iteration
//! and report the mean per batch; divide by `BATCH` for per-op cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sim_cache::{LruOrder, SetAssocCache};
use sim_mem::{Geometry, OpStream};
use snug_harness::{BudgetPreset, ResultStore, SweepSpec};
use snug_workloads::Benchmark;
use std::path::Path;

/// Operations per timed batch.
const BATCH: usize = 10_000;

/// A tiny deterministic LCG, so the benches measure the primitive and
/// not a generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn bench_lru(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru");
    for ways in [4usize, 16] {
        g.bench_function(format!("touch_{ways}way"), |b| {
            let mut order = LruOrder::new(ways);
            let mut rng = Lcg(7);
            b.iter(|| {
                for _ in 0..BATCH {
                    order.touch(rng.next() as usize % ways);
                }
                black_box(order.lru_way())
            });
        });
        g.bench_function(format!("position_{ways}way"), |b| {
            let mut order = LruOrder::new(ways);
            let mut rng = Lcg(11);
            for _ in 0..ways * 4 {
                order.touch(rng.next() as usize % ways);
            }
            b.iter(|| {
                let mut acc = 0usize;
                for _ in 0..BATCH {
                    acc += order.position(rng.next() as usize % ways);
                }
                black_box(acc)
            });
        });
        g.bench_function(format!("demote_{ways}way"), |b| {
            let mut order = LruOrder::new(ways);
            let mut rng = Lcg(13);
            b.iter(|| {
                for _ in 0..BATCH {
                    order.demote(rng.next() as usize % ways);
                }
                black_box(order.lru_way())
            });
        });
    }
    g.finish();
}

fn bench_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("set");
    // One 16-way set, fully populated: every probe is a hit somewhere
    // in the tag lane, like the steady-state L2 slice.
    g.bench_function("probe_hit_16way", |b| {
        let geo = Geometry::new(64, 1, 16);
        let mut cache = SetAssocCache::new(geo);
        let blocks: Vec<_> = (0..16u64).map(|t| geo.compose(0, t)).collect();
        for &blk in &blocks {
            cache.access(blk, false);
        }
        let mut rng = Lcg(17);
        b.iter(|| {
            let mut hits = 0usize;
            for _ in 0..BATCH {
                let blk = blocks[rng.next() as usize % blocks.len()];
                hits += usize::from(cache.probe(blk).is_some());
            }
            black_box(hits)
        });
    });
    // The full L1-shaped access path (probe + touch + stats) on a
    // 4-way cache with a resident working set: the per-op hit path.
    g.bench_function("access_hit_l1shape", |b| {
        let geo = Geometry::new(64, 64, 4);
        let mut cache = SetAssocCache::new(geo);
        let blocks: Vec<_> = (0..64u64)
            .flat_map(|s| (0..4u64).map(move |t| geo.compose(s as usize, t)))
            .collect();
        for &blk in &blocks {
            cache.access(blk, false);
        }
        let mut rng = Lcg(19);
        b.iter(|| {
            let mut dist = 0usize;
            for _ in 0..BATCH {
                let blk = blocks[rng.next() as usize % blocks.len()];
                dist += cache.access(blk, false).distance.unwrap_or(0);
            }
            black_box(dist)
        });
    });
    g.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream");
    // ammp: pooled pattern with bursts — the generator's common case.
    g.bench_function("next_op_ammp", |b| {
        let geo = Geometry::new(64, 1024, 16);
        let mut stream = Benchmark::Ammp.spec().stream(geo, 0);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                acc ^= stream.next_op().access.addr.0;
            }
            black_box(acc)
        });
    });
    g.bench_function("next_op_swim", |b| {
        let geo = Geometry::new(64, 1024, 16);
        let mut stream = Benchmark::Swim.spec().stream(geo, 0);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                acc ^= stream.next_op().access.addr.0;
            }
            black_box(acc)
        });
    });
    g.finish();
}

fn bench_harness(c: &mut Criterion) {
    let mut g = c.benchmark_group("harness");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed = ResultStore::open(&results).expect("the committed store opens");
    assert!(
        !committed.is_empty(),
        "no committed store under {}",
        results.display()
    );
    g.bench_function("store_open", |b| {
        b.iter(|| ResultStore::open(&results).map(|store| store.len()))
    });
    let mid = SweepSpec::full(BudgetPreset::Mid);
    g.bench_function("combo_jobs", |b| b.iter(|| mid.combo_jobs()));
    g.finish();
}

criterion_group!(benches, bench_lru, bench_set, bench_stream, bench_harness);
criterion_main!(benches);
