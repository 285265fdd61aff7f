//! Property tests pinning [`PagedMem`] to a `BTreeMap` reference model.
//!
//! The paged store replaced the simulator's `BTreeMap<u64, i64>` functional
//! memories, so its observable semantics must be exactly the map's: loads
//! of never-inserted addresses return `None` (even next to written slots),
//! inserted zeros are distinct from untouched words, and checkpoints
//! (clones) freeze the state they were taken from while later writes go
//! copy-on-write in both directions. Address generation is biased toward
//! page boundaries (the page span is 512 addresses, so 0x1ff/0x200 sit on
//! adjacent pages) where the directory and slot arithmetic are easiest to
//! get wrong, and mixes aligned words (stored in the pages) with unaligned
//! addresses (kept in the overflow map) up to `u64::MAX`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use turnpike_sim::PagedMem;

/// One step of the random workload.
#[derive(Debug, Clone)]
enum Op {
    Load(u64),
    Store(u64, i64),
    /// Clone the memory (the substrate of the core's snapshots) and keep
    /// the pair for an end-of-run comparison against the model's clone.
    Checkpoint,
    /// Write into an earlier checkpoint (the `n % len`-th): a forked run
    /// writing its copy, which must not reach the memory it came from.
    StoreToCheckpoint(usize, u64, i64),
}

/// Addresses concentrated where bugs live: around page boundaries
/// (multiples of 0x200), the zero page, and a far page — plus a fully
/// random tail for coverage.
fn addr_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Within ±2 of a page boundary in the first few pages.
        (0u64..8, 0u64..5).prop_map(|(page, off)| page * 0x200 + 0x1fe + off),
        // Anywhere in the first two pages (same-page traffic).
        0u64..0x400,
        // Aligned words of the first two pages.
        (0u64..0x80).prop_map(|w| w * 8),
        // A distant page, exercising directory insertion order.
        prop_oneof![Just(0x8000_0000u64), Just(u64::MAX), Just(u64::MAX - 1)],
        // Unconstrained.
        any::<u64>(),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The union is unweighted; repeat entries to bias the mix toward
    // stores and loads over checkpoints.
    prop_oneof![
        addr_strategy().prop_map(Op::Load),
        addr_strategy().prop_map(Op::Load),
        (addr_strategy(), any::<i64>()).prop_map(|(a, v)| Op::Store(a, v)),
        (addr_strategy(), any::<i64>()).prop_map(|(a, v)| Op::Store(a, v)),
        (addr_strategy(), any::<i64>()).prop_map(|(a, v)| Op::Store(a, v)),
        Just(Op::Checkpoint),
        (0usize..64, addr_strategy(), any::<i64>())
            .prop_map(|(n, a, v)| Op::StoreToCheckpoint(n, a, v)),
    ]
}

proptest! {
    /// Every load observes exactly what the reference map would, every
    /// checkpoint freezes the model state at its cycle, and the final
    /// `to_btree` view is the reference map itself.
    #[test]
    fn paged_mem_matches_btree_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut mem = PagedMem::new();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        let mut checkpoints: Vec<(PagedMem, BTreeMap<u64, i64>)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Load(addr) => {
                    prop_assert_eq!(mem.get(addr), model.get(&addr).copied(), "addr {:#x}", addr);
                }
                Op::Store(addr, value) => {
                    mem.insert(addr, value);
                    model.insert(addr, value);
                }
                Op::Checkpoint => {
                    checkpoints.push((mem.clone(), model.clone()));
                }
                Op::StoreToCheckpoint(n, addr, value) => {
                    if !checkpoints.is_empty() {
                        let k = n % checkpoints.len();
                        let (snap, snap_model) = &mut checkpoints[k];
                        snap.insert(addr, value);
                        snap_model.insert(addr, value);
                    }
                }
            }
        }
        prop_assert_eq!(mem.len(), model.len());
        prop_assert_eq!(mem.is_empty(), model.is_empty());
        prop_assert_eq!(mem.to_btree(), model.clone());
        // Later stores must not have leaked into any checkpoint (COW), and
        // each checkpoint must replay its model snapshot exactly.
        for (snap, snap_model) in &checkpoints {
            prop_assert_eq!(snap.to_btree(), snap_model.clone());
            prop_assert_eq!(snap.len(), snap_model.len());
            for &addr in snap_model.keys() {
                prop_assert_eq!(snap.get(addr), snap_model.get(&addr).copied());
            }
        }
        // `content_eq` is map equality, whether pages are shared (clones)
        // or not (a memory rebuilt from the model shares nothing).
        let mut all: Vec<(PagedMem, BTreeMap<u64, i64>)> = checkpoints;
        all.push((model.iter().map(|(&a, &v)| (a, v)).collect(), model.clone()));
        all.push((mem, model));
        for (a, model_a) in &all {
            for (b, model_b) in &all {
                prop_assert_eq!(a.content_eq(b), model_a == model_b);
                prop_assert_eq!(a == b, model_a == model_b);
            }
        }
    }

    /// Untouched words next to written ones stay `None` on both sides of a
    /// page boundary — presence is per address, never per page.
    #[test]
    fn neighbors_of_written_words_stay_untouched(
        page in 0u64..16,
        value in any::<i64>(),
    ) {
        let boundary = (page + 1) * 0x200;
        let mut mem = PagedMem::new();
        mem.insert(boundary - 1, value); // last slot of `page`
        mem.insert(boundary, value);     // first slot of the next page
        prop_assert_eq!(mem.get(boundary - 1), Some(value));
        prop_assert_eq!(mem.get(boundary), Some(value));
        prop_assert_eq!(mem.get(boundary - 2), None);
        prop_assert_eq!(mem.get(boundary + 1), None);
        prop_assert_eq!(mem.len(), 2);
    }
}
