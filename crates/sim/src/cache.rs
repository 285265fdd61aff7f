//! Set-associative cache timing model.
//!
//! Timing only: data values live in the functional memory map; the cache
//! tracks tags with LRU replacement to decide hit/miss latencies. Write-back,
//! write-allocate, matching the configured L1D/L2 hierarchy.

use crate::core::Refusal;
use std::sync::Arc;

/// Most lines one copy-on-write chunk holds (fewer when the cache is
/// smaller, or when the associativity does not divide it).
const CHUNK_LINES: usize = 64;

/// Highest supported associativity: [`Cache::replay_equivalent`] orders a
/// set's lines in a stack buffer of this many entries.
const MAX_WAYS: usize = 64;

/// One set-associative, LRU, tag-only cache level.
///
/// Lines live in fixed-size chunks of whole sets behind [`Arc`], with a
/// per-set occupancy count instead of a `Vec` per set: an access indexes a
/// contiguous slice of one chunk, and cloning the cache — which the core's
/// snapshot API does per capture and per fork — costs one reference-count
/// bump per chunk plus the occupancy array. Writes go through
/// [`Arc::make_mut`], so a run copies only the chunks it touches after a
/// clone (copy-on-write, like [`PagedMem`](crate::PagedMem) pages).
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line storage: set `s` owns the `ways` lines from
    /// `(s % sets_per_chunk) * ways` on in chunk `s / sets_per_chunk`, of
    /// which the first `occ[s]` are valid.
    chunks: Box<[Arc<[CacheLine]>]>,
    /// Valid lines per set (fill order; eviction keeps slots dense).
    occ: Box<[u8]>,
    ways: usize,
    /// `log2(sets_per_chunk)`.
    chunk_shift: u32,
    /// `log2(line_bytes)`: every geometry knob is a power of two, so the
    /// per-access line/set/tag split is shifts and a mask, not division.
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheLine {
    tag: u64,
    lru: u64,
}

impl Cache {
    /// Create a cache of `bytes` capacity with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into at least one
    /// power-of-two set count (line size must be a power of two as well),
    /// or if `ways` exceeds 64.
    pub fn new(bytes: u64, ways: u32, line_bytes: u64) -> Self {
        let num_sets = bytes / line_bytes / ways as u64;
        assert!(num_sets > 0, "cache too small for its geometry");
        assert!(
            line_bytes.is_power_of_two() && num_sets.is_power_of_two(),
            "cache geometry must be a power of two"
        );
        let ways = ways as usize;
        assert!(ways <= MAX_WAYS, "associativity above {MAX_WAYS} ways");
        // Whole sets per chunk, a power of two so the split is a shift.
        let sets_per_chunk = (1u64 << (CHUNK_LINES / ways).max(1).ilog2()).min(num_sets);
        let blank = CacheLine { tag: 0, lru: 0 };
        Cache {
            chunks: (0..num_sets / sets_per_chunk)
                .map(|_| vec![blank; sets_per_chunk as usize * ways].into())
                .collect(),
            occ: vec![0; num_sets as usize].into_boxed_slice(),
            ways,
            chunk_shift: sets_per_chunk.trailing_zeros(),
            line_shift: line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            set_mask: num_sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// The chunk holding set `set_idx` and the set's first line in it.
    #[inline(always)]
    fn place(&self, set_idx: usize) -> (usize, usize) {
        let in_chunk = set_idx & ((1 << self.chunk_shift) - 1);
        (set_idx >> self.chunk_shift, in_chunk * self.ways)
    }

    /// The valid lines of set `set_idx`.
    fn set(&self, set_idx: usize) -> &[CacheLine] {
        let (c, first) = self.place(set_idx);
        &self.chunks[c][first..first + self.occ[set_idx] as usize]
    }

    /// Access `addr` at logical time `now`; returns `true` on hit.
    /// Misses allocate (write-allocate for stores, fill for loads).
    ///
    /// One pass over the set serves both lookups a miss needs: the tag
    /// probe and the LRU victim. Tracking the running minimum costs a
    /// compare per line on the (early-returning) hit path but saves the
    /// second full scan every miss — the case that dominates on
    /// cache-averse kernels. `<` keeps the first minimum, matching what
    /// `min_by_key` picked before, so victim choice is bit-identical.
    pub fn access(&mut self, addr: u64, now: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let occ = self.occ[set_idx] as usize;
        let (c, first) = self.place(set_idx);
        // Every access writes (a hit restamps its line, a miss fills one).
        let set = &mut Arc::make_mut(&mut self.chunks[c])[first..first + self.ways];
        let (mut victim, mut victim_lru) = (0usize, u64::MAX);
        for (i, l) in set[..occ].iter_mut().enumerate() {
            if l.tag == tag {
                l.lru = now;
                self.hits += 1;
                return true;
            }
            if l.lru < victim_lru {
                victim = i;
                victim_lru = l.lru;
            }
        }
        self.misses += 1;
        if occ < self.ways {
            set[occ] = CacheLine { tag, lru: now };
            self.occ[set_idx] += 1;
        } else {
            set[victim] = CacheLine { tag, lru: now };
        }
        false
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Replay equivalence against a golden-run cache whose logical clock
    /// trails this one's by `self_now - golden_now`: identical future
    /// hit/miss/eviction behavior for any access sequence issued at shifted
    /// times. Requires (per set): equal occupancy, equal tags in slot
    /// order, the same `(lru, slot)` order of the slots (eviction picks the
    /// first minimum, so only relative order matters among stamps that are
    /// all in the past), and agreement on which lines are stamped *exactly
    /// now* — a future same-cycle access can tie only with those. The
    /// hit/miss counters are statistics, synthesized separately.
    ///
    /// A chunk both caches still share through the copy-on-write ancestry
    /// holds identical sets, which pass as soon as none of their lines is
    /// stamped at either clock; so does any other pair of identical sets.
    /// The remaining sets' `(lru, slot)` orders are compared by sorting
    /// their slots in a stack buffer.
    ///
    /// A refused set is classified for the early-exit census: the same tags
    /// in another slot or LRU order is [`CacheDiff::Rank`], anything else
    /// (a different occupancy or tag set) is [`CacheDiff::Tags`].
    pub(crate) fn replay_equivalent(
        &self,
        golden: &Cache,
        self_now: u64,
        golden_now: u64,
    ) -> Result<(), CacheDiff> {
        if self.occ != golden.occ {
            return Err(CacheDiff::Tags);
        }
        debug_assert_eq!(self.ways, golden.ways);
        // Identical lines (a chunk both caches still share, or two equal
        // sets) pass unless one is stamped at exactly one of the two clocks
        // (no early exit: the scan vectorizes).
        let stamped = |lines: &[CacheLine]| {
            self_now != golden_now
                && lines.iter().fold(false, |hit, l| {
                    hit | (l.lru == self_now) | (l.lru == golden_now)
                })
        };
        let sets_per_chunk = 1 << self.chunk_shift;
        for (c, (a, b)) in self.chunks.iter().zip(&golden.chunks[..]).enumerate() {
            if Arc::ptr_eq(a, b) && !stamped(a) {
                continue;
            }
            for set_idx in c * sets_per_chunk..(c + 1) * sets_per_chunk {
                let (a, b) = (self.set(set_idx), golden.set(set_idx));
                if a == b && !stamped(a) {
                    continue;
                }
                let same =
                    a.iter().zip(b).all(|(x, y)| {
                        x.tag == y.tag && (x.lru == self_now) == (y.lru == golden_now)
                    }) && same_lru_order(a, b);
                if !same {
                    let tags = |set: &[CacheLine]| {
                        let mut t: Vec<u64> = set.iter().map(|l| l.tag).collect();
                        t.sort_unstable();
                        t
                    };
                    return Err(if tags(a) == tags(b) {
                        CacheDiff::Rank
                    } else {
                        CacheDiff::Tags
                    });
                }
            }
        }
        Ok(())
    }
}

/// Whether two equally occupied sets order their slots alike by
/// `(lru, slot)` — the order in which LRU eviction would pick them. Sorts
/// slot numbers in stack buffers; no allocation.
fn same_lru_order(a: &[CacheLine], b: &[CacheLine]) -> bool {
    let n = a.len();
    let order = |set: &[CacheLine]| {
        let mut slots = [0u8; MAX_WAYS];
        for (i, s) in slots[..n].iter_mut().enumerate() {
            *s = i as u8;
        }
        slots[..n].sort_unstable_by_key(|&i| (set[i as usize].lru, i));
        slots
    };
    order(a)[..n] == order(b)[..n]
}

/// Why [`Cache::replay_equivalent`] refused a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheDiff {
    /// Occupancy or resident tag set differs.
    Tags,
    /// Same resident tags, different slot order or LRU ranks.
    Rank,
}

/// Two-level hierarchy returning full access latencies.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l1_hit: u64,
    l2_hit: u64,
    mem_latency: u64,
}

impl Hierarchy {
    /// Build from a [`SimConfig`](crate::SimConfig).
    pub fn new(cfg: &crate::SimConfig) -> Self {
        Hierarchy {
            l1: Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes),
            l1_hit: cfg.l1_hit,
            l2_hit: cfg.l2_hit,
            mem_latency: cfg.mem_latency,
        }
    }

    /// Latency of a data access at `addr`, updating both levels.
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        if self.l1.access(addr, now) {
            self.l1_hit
        } else if self.l2.access(addr, now) {
            self.l1_hit + self.l2_hit
        } else {
            self.l1_hit + self.l2_hit + self.mem_latency
        }
    }

    /// Touch for a store release (no pipeline latency charged).
    pub fn touch(&mut self, addr: u64, now: u64) {
        let _ = self.access(addr, now);
    }

    /// (L1 hits, L1 misses, L2 hits, L2 misses).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let (h1, m1) = self.l1.stats();
        let (h2, m2) = self.l2.stats();
        (h1, m1, h2, m2)
    }

    /// [`Cache::replay_equivalent`] across both levels, naming the first
    /// level (and kind of difference) that refused.
    pub(crate) fn replay_equivalent(
        &self,
        golden: &Hierarchy,
        self_now: u64,
        golden_now: u64,
    ) -> Result<(), Refusal> {
        self.l1
            .replay_equivalent(&golden.l1, self_now, golden_now)
            .map_err(|d| match d {
                CacheDiff::Tags => Refusal::L1Tags,
                CacheDiff::Rank => Refusal::L1Rank,
            })?;
        self.l2
            .replay_equivalent(&golden.l2, self_now, golden_now)
            .map_err(|d| match d {
                CacheDiff::Tags => Refusal::L2Tags,
                CacheDiff::Rank => Refusal::L2Rank,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0x1000, 0));
        assert!(c.access(0x1000, 1));
        assert!(c.access(0x1008, 2)); // same line
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 1 set of interest: three conflicting lines.
        let mut c = Cache::new(128, 2, 64); // 1 set
        assert!(!c.access(0x0000, 0));
        assert!(!c.access(0x1000, 1));
        assert!(!c.access(0x2000, 2)); // evicts 0x0000
        assert!(!c.access(0x0000, 3)); // miss again
        assert!(c.access(0x2000, 4)); // still resident
    }

    #[test]
    fn hierarchy_latencies() {
        let cfg = crate::SimConfig::baseline();
        let mut h = Hierarchy::new(&cfg);
        // Cold: full miss.
        assert_eq!(h.access(0x4000, 0), 2 + 20 + 100);
        // Warm L1.
        assert_eq!(h.access(0x4000, 1), 2);
        let (h1, m1, _h2, m2) = h.stats();
        assert_eq!((h1, m1, m2), (1, 1, 1));
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = crate::SimConfig {
            l1_bytes: 128,
            l1_ways: 1,
            l2_bytes: 4096,
            l2_ways: 4,
            ..crate::SimConfig::baseline()
        };
        let mut h = Hierarchy::new(&cfg);
        h.access(0x0000, 0);
        h.access(0x0080, 1); // conflicts in L1 (2 sets, same set 0)
        h.access(0x0100, 2);
        // 0x0000 evicted from tiny L1 but still in L2.
        assert_eq!(h.access(0x0000, 3), 2 + 20);
    }

    #[test]
    #[should_panic(expected = "cache too small")]
    fn rejects_impossible_geometry() {
        let _ = Cache::new(64, 2, 64);
    }

    /// Deterministic SplitMix64 stream for the randomized tests.
    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The valid lines of every set, in set order.
    fn lines(c: &Cache) -> Vec<Vec<CacheLine>> {
        (0..c.occ.len()).map(|s| c.set(s).to_vec()).collect()
    }

    #[test]
    fn writes_after_a_clone_stay_in_their_copy() {
        // The ladder's L2 geometry: several sets per chunk, many chunks.
        for (bytes, ways) in [(128 * 1024, 16), (64 * 1024, 2), (4096, 32)] {
            let mut next = rng(ways as u64);
            let mut addr = || next() % (1 << 20);
            let mut a = Cache::new(bytes, ways, 64);
            for t in 0..2000 {
                a.access(addr(), t);
            }
            let a_then = lines(&a);
            let mut b = a.clone();
            for t in 2000..4000 {
                b.access(addr(), t);
            }
            assert_eq!(lines(&a), a_then, "clone's writes reached the source");
            assert_ne!(lines(&b), a_then);
            let b_then = lines(&b);
            let mut c = b.clone();
            for t in 4000..6000 {
                let x = addr();
                a.access(x, t);
                // A clone behaves exactly like its source from here on.
                assert_eq!(c.access(x, t), b.access(x, t));
            }
            assert_eq!(lines(&b), lines(&c));
            assert_ne!(lines(&b), b_then);
            assert_eq!(lines(&a.clone()), lines(&a));
        }
    }

    /// The `(lru, slot)` rank definition the sort-based
    /// [`same_lru_order`] replaced: slot `i` of both sets must have the
    /// same number of slots ordered before it. Kept as the oracle.
    fn same_ranks(a: &[CacheLine], b: &[CacheLine]) -> bool {
        let rank = |set: &[CacheLine], i: usize| {
            let key = (set[i].lru, i);
            set.iter()
                .enumerate()
                .filter(|&(j, l)| (l.lru, j) < key)
                .count()
        };
        (0..a.len()).all(|i| rank(a, i) == rank(b, i))
    }

    #[test]
    fn sorted_lru_order_matches_the_rank_definition() {
        let mut next = rng(21);
        let (mut same, mut differ) = (0, 0);
        for ways in [1u64, 2, 4, 8, 16, 32] {
            for _ in 0..2000 {
                let occ = 1 + next() % ways;
                // Few distinct stamps, so ties are common.
                let spread = 1 + next() % 6;
                let a: Vec<CacheLine> = (0..occ)
                    .map(|tag| CacheLine {
                        tag,
                        lru: next() % spread,
                    })
                    .collect();
                // A strictly increasing remap keeps the order; a random
                // one usually does not.
                let (scale, shift) = (1 + next() % 3, next() % 1000);
                let remap = next().is_multiple_of(2);
                let b: Vec<CacheLine> = a
                    .iter()
                    .map(|l| CacheLine {
                        tag: l.tag,
                        lru: if remap {
                            next() % spread
                        } else {
                            l.lru * scale + shift
                        },
                    })
                    .collect();
                let want = same_ranks(&a, &b);
                assert_eq!(same_lru_order(&a, &b), want, "{a:?} vs {b:?}");
                if want {
                    same += 1;
                } else {
                    differ += 1;
                }
            }
        }
        assert!(same > 1000 && differ > 1000, "{same} same, {differ} differ");
    }

    #[test]
    fn shifted_and_cloned_caches_are_replay_equivalent() {
        const DC: u64 = 37;
        let mut next = rng(5);
        let addrs: Vec<u64> = (0..3000).map(|_| next() % (1 << 19)).collect();
        let (mut golden, mut run) = (
            Cache::new(128 * 1024, 16, 64),
            Cache::new(128 * 1024, 16, 64),
        );
        for (t, &x) in addrs.iter().enumerate() {
            golden.access(x, t as u64);
            run.access(x, t as u64 + DC);
        }
        let now = addrs.len() as u64;
        assert_eq!(run.replay_equivalent(&golden, now + DC, now), Ok(()));
        // Shared chunks pass as a whole, unless a line is stamped at
        // exactly one of the two clocks.
        let fork = golden.clone();
        assert_eq!(fork.replay_equivalent(&golden, now + DC, now), Ok(()));
        assert_eq!(
            fork.replay_equivalent(&golden, now + DC, now - 1),
            Err(CacheDiff::Rank)
        );
        let mut diverged = fork.clone();
        diverged.access(1 << 40, now);
        assert_eq!(
            diverged.replay_equivalent(&golden, now + DC, now),
            Err(CacheDiff::Tags)
        );
    }
}
