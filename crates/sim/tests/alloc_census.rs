//! Heap allocations of fault-free runs, counted by a global allocator.
//!
//! A fault-free run's per-instruction and per-region work allocates
//! nothing: memory pages and cache chunks are written in place, the colour
//! maps and the CLQ update their state without temporary buffers, and the
//! growable queues (store buffer, RBB, unverified colours) reach their
//! working size early. What is left is the core's fixed setup — data
//! pages, cache chunks, the translation — so a run of a full-scale catalog
//! kernel allocates far less often than it passes a region boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use turnpike_compiler::{compile, CompilerConfig};
use turnpike_sim::{ClqKind, Core, FaultPlan, SimConfig};
use turnpike_workloads::{all_kernels, Scale};

/// Counts the allocations of the calling thread (the test harness runs
/// tests on several threads at once).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the count only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn fault_free_turnpike_runs_allocate_far_less_often_than_they_pass_regions() {
    let (mut total_allocs, mut total_regions) = (0, 0);
    for k in all_kernels(Scale::Full) {
        let program = compile(&k.program, &CompilerConfig::turnpike(4))
            .unwrap()
            .program;
        // The default compact CLQ, and the ideal one of Figures 14/15.
        for clq in [ClqKind::Compact(2), ClqKind::Ideal] {
            let sc = SimConfig {
                clq,
                ..SimConfig::turnpike(4, 10)
            };
            let before = allocs();
            let out = Core::new(&program, sc).run(&FaultPlan::none()).unwrap();
            let n = allocs() - before;
            let regions = out.stats.boundaries;
            assert!(
                n * 4 < regions.max(400),
                "{} {clq:?}: {n} allocations over {regions} regions",
                k.name
            );
            total_allocs += n;
            total_regions += regions;
        }
    }
    assert!(
        total_allocs * 20 < total_regions,
        "{total_allocs} allocations over {total_regions} regions"
    );
}
