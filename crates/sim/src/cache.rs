//! Set-associative cache timing model.
//!
//! Timing only: data values live in the functional memory map; the cache
//! tracks tags with LRU replacement to decide hit/miss latencies. Write-back,
//! write-allocate, matching the configured L1D/L2 hierarchy.

use crate::core::Refusal;

/// One set-associative, LRU, tag-only cache level.
///
/// Lines live in one flat `num_sets * ways` array with a per-set occupancy
/// count instead of a `Vec` per set: accesses index a contiguous slice, and
/// cloning the whole cache — which the core's snapshot API does per capture
/// and per fork — is two `memcpy`s instead of one allocation per set.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Flat line storage; set `s` owns `lines[s * ways .. (s + 1) * ways]`,
    /// of which the first `occ[s]` slots are valid.
    lines: Box<[CacheLine]>,
    /// Valid lines per set (fill order; eviction keeps slots dense).
    occ: Box<[u32]>,
    ways: usize,
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
    /// power-of-two set count (line size must be a power of two as well).
    pub fn new(bytes: u64, ways: u32, line_bytes: u64) -> Self {
        let num_sets = bytes / line_bytes / ways as u64;
        assert!(num_sets > 0, "cache too small for its geometry");
        assert!(
            line_bytes.is_power_of_two() && num_sets.is_power_of_two(),
            "cache geometry must be a power of two"
        );
        Cache {
            lines: vec![CacheLine { tag: 0, lru: 0 }; (num_sets * ways as u64) as usize]
                .into_boxed_slice(),
            occ: vec![0; num_sets as usize].into_boxed_slice(),
            ways: ways as usize,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            set_mask: num_sets - 1,
            hits: 0,
            misses: 0,
        }
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
        let set = &mut self.lines[set_idx * self.ways..set_idx * self.ways + occ];
        let (mut victim, mut victim_lru) = (0usize, u64::MAX);
        for (i, l) in set.iter_mut().enumerate() {
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
            self.lines[set_idx * self.ways + occ] = CacheLine { tag, lru: now };
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
    /// order, the same `(lru, slot)` rank permutation (eviction picks the
    /// first minimum, so only relative order matters among stamps that are
    /// all in the past), and agreement on which lines are stamped *exactly
    /// now* — a future same-cycle access can tie only with those. The
    /// hit/miss counters are statistics, synthesized separately.
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
        let rank = |set: &[CacheLine], i: usize| {
            let key = (set[i].lru, i);
            set.iter()
                .enumerate()
                .filter(|&(j, l)| (l.lru, j) < key)
                .count()
        };
        for set_idx in 0..self.occ.len() {
            let occ = self.occ[set_idx] as usize;
            let a = &self.lines[set_idx * self.ways..set_idx * self.ways + occ];
            let b = &golden.lines[set_idx * self.ways..set_idx * self.ways + occ];
            let same = a
                .iter()
                .zip(b)
                .all(|(x, y)| x.tag == y.tag && (x.lru == self_now) == (y.lru == golden_now))
                && (0..occ).all(|i| rank(a, i) == rank(b, i));
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
        Ok(())
    }
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
}
