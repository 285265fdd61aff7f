//! Criterion micro-benchmarks: the paged sparse flat store against the
//! `BTreeMap<u64, i64>` it replaced as the core's functional memory.
//!
//! The access pattern mirrors what the simulator actually does per
//! instruction: stores and loads clustered in a small data segment (a few
//! pages), a sprinkling of far checkpoint-slot traffic, and periodic
//! whole-memory checkpoints (`clone` of a memory whose pages are shared
//! with a snapshot) — O(pages) Arc bumps for `PagedMem` versus a deep tree
//! copy for the map.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use turnpike_sim::PagedMem;

/// Deterministic (addr, value) workload: mostly sequential data-segment
/// words with a strided revisit pattern, plus occasional far addresses.
fn workload(n: usize) -> Vec<(u64, i64)> {
    let mut out = Vec::with_capacity(n);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = if i % 31 == 0 {
            0x8000_0000 + (x % 64) * 8 // checkpoint-slot page, far away
        } else {
            0x1000 + (x % 4096) * 8 // ~64 KiB data segment
        };
        out.push((addr, x as i64));
    }
    out
}

fn bench_store_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_store_load");
    group.sample_size(20);
    let ops = workload(50_000);
    group.bench_with_input(BenchmarkId::new("paged", "50k"), &ops, |b, ops| {
        b.iter(|| {
            let mut m = PagedMem::new();
            let mut acc = 0i64;
            for &(a, v) in ops {
                m.insert(a, v);
                acc ^= m.get(a ^ 8).unwrap_or(0);
            }
            acc
        });
    });
    group.bench_with_input(BenchmarkId::new("btree", "50k"), &ops, |b, ops| {
        b.iter(|| {
            let mut m: BTreeMap<u64, i64> = BTreeMap::new();
            let mut acc = 0i64;
            for &(a, v) in ops {
                m.insert(a, v);
                acc ^= m.get(&(a ^ 8)).copied().unwrap_or(0);
            }
            acc
        });
    });
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_checkpoint");
    group.sample_size(20);
    let ops = workload(50_000);
    // Populate once and share the pages as a snapshot capture does, then
    // measure snapshot (clone) plus a short burst of post-snapshot writes —
    // the COW path the fork API leans on.
    let mut paged: PagedMem = ops.iter().copied().collect();
    let _capture = paged.share();
    let btree: BTreeMap<u64, i64> = ops.iter().copied().collect();
    group.bench_with_input(BenchmarkId::new("paged", "clone+64w"), &paged, |b, m| {
        b.iter(|| {
            let snap = m.clone();
            let mut live = m.clone();
            for i in 0..64u64 {
                live.insert(0x1000 + i * 8, i as i64);
            }
            (snap.len(), live.get(0x1000))
        });
    });
    group.bench_with_input(BenchmarkId::new("btree", "clone+64w"), &btree, |b, m| {
        b.iter(|| {
            let snap = m.clone();
            let mut live = m.clone();
            for i in 0..64u64 {
                live.insert(0x1000 + i * 8, i as i64);
            }
            (snap.len(), live.get(&0x1000).copied())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_store_load, bench_checkpoint);
criterion_main!(benches);
