//! Committed load queue designs (paper §4.3.1).
//!
//! The CLQ proves a committing regular store *WAR-free*: its address was not
//! read by any still-unverified region, so even if its (unverified) value is
//! corrupted, re-executing from the oldest unverified region rewrites it
//! before anything reads it and recovery still succeeds (paper Figure 12).
//! WAR-free stores bypass the gated store buffer entirely. The check must
//! span *all* unverified regions — recovery rolls back to the oldest one, so
//! a load anywhere in the unverified window is replayed and would observe a
//! prematurely released value.
//!
//! Two designs share the [`Clq`] trait:
//!
//! * [`IdealClq`] — unbounded per-region address matching (CAM); the
//!   100%-accurate comparison point of Figures 14/15.
//! * [`CompactClq`] — N entries (default 2), one `[min, max]` address range
//!   per region; conservative (a store inside the range counts as WAR even
//!   if the exact address was never loaded) and subject to overflow, which
//!   triggers the selective-control automaton of Figure 13: fast release is
//!   disabled, the queue is cleared, and insertion resumes at a region
//!   boundary once the prior region has been verified.

/// Statistics every CLQ design collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClqStats {
    /// Regular stores checked against the CLQ.
    pub stores_checked: u64,
    /// Stores proven WAR-free (fast released).
    pub war_free: u64,
    /// Loads recorded.
    pub loads_recorded: u64,
    /// Overflows (compact design only).
    pub overflows: u64,
    /// Sum of entry occupancy sampled at each load (for the average).
    pub occupancy_sum: u64,
    /// Samples taken for the average.
    pub occupancy_samples: u64,
    /// Peak entries populated.
    pub peak_entries: u32,
}

impl ClqStats {
    /// Average populated entries over the run.
    pub fn avg_entries(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Fraction of checked stores proven WAR-free.
    pub fn war_free_ratio(&self) -> f64 {
        if self.stores_checked == 0 {
            0.0
        } else {
            self.war_free as f64 / self.stores_checked as f64
        }
    }
}

/// Common interface of the CLQ designs.
///
/// `Send + Sync` because a CLQ rides inside [`crate::CoreSnapshot`]s,
/// which fault campaigns share across worker threads; every design is
/// plain data. [`Clq::boxed_clone`] makes the
/// trait object cloneable for the same snapshot machinery.
pub trait Clq: std::fmt::Debug + Send + Sync {
    /// Record a committed load in the current region.
    fn record_load(&mut self, addr: u64, region_seq: u64);
    /// Check (and count) whether a store may bypass verification.
    fn check_war_free(&mut self, addr: u64, region_seq: u64) -> bool;
    /// A new region starts.
    fn on_region_start(&mut self, region_seq: u64, prior_verified: bool);
    /// A region was verified; its entries can be reclaimed.
    fn on_region_verified(&mut self, region_seq: u64);
    /// Error recovery: reset transient state.
    fn on_recovery(&mut self);
    /// Collected statistics.
    fn stats(&self) -> ClqStats;
    /// Clone the design behind the trait object (snapshot support).
    fn boxed_clone(&self) -> Box<dyn Clq>;
    /// Append a canonical encoding of every piece of state that affects
    /// future queries, with region sequence numbers made relative to
    /// `seq_base`. Two same-design CLQs whose signatures agree answer every
    /// future call sequence identically (the early-exit replay compares a
    /// strike run at `seq_base = ds` against a golden snapshot at `0`).
    /// Statistics counters are deliberately excluded — the replay
    /// synthesizes them.
    fn replay_signature(&self, seq_base: u64, out: &mut Vec<u64>);
}

impl Clone for Box<dyn Clq> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// A CLQ that never exists: every store is quarantined (Turnstile).
#[derive(Debug, Clone, Default)]
pub struct NoClq {
    stats: ClqStats,
}

impl Clq for NoClq {
    fn record_load(&mut self, _addr: u64, _region_seq: u64) {}
    fn check_war_free(&mut self, _addr: u64, _region_seq: u64) -> bool {
        self.stats.stores_checked += 1;
        false
    }
    fn on_region_start(&mut self, _region_seq: u64, _prior_verified: bool) {}
    fn on_region_verified(&mut self, _region_seq: u64) {}
    fn on_recovery(&mut self) {}
    fn stats(&self) -> ClqStats {
        self.stats
    }

    fn boxed_clone(&self) -> Box<dyn Clq> {
        Box::new(self.clone())
    }

    fn replay_signature(&self, _seq_base: u64, _out: &mut Vec<u64>) {
        // Stateless: every answer is "quarantine".
    }
}

/// Unbounded address-matching CLQ.
///
/// The per-region address sets live in one flat buffer, region after
/// region, so a new region costs no allocation once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct IdealClq {
    /// `(region, address count)` in order of each region's first load.
    regions: Vec<(u64, usize)>,
    /// The regions' sorted-unique load addresses, concatenated in `regions`
    /// order.
    addrs: Vec<u64>,
    stats: ClqStats,
}

impl IdealClq {
    /// The position of `region_seq` in `regions` and the range its
    /// addresses occupy in `addrs`.
    fn region(&self, region_seq: u64) -> Option<(usize, std::ops::Range<usize>)> {
        let mut from = 0;
        for (i, &(seq, len)) in self.regions.iter().enumerate() {
            if seq == region_seq {
                return Some((i, from..from + len));
            }
            from += len;
        }
        None
    }
}

impl Clq for IdealClq {
    fn record_load(&mut self, addr: u64, region_seq: u64) {
        self.stats.loads_recorded += 1;
        let (i, range) = self.region(region_seq).unwrap_or_else(|| {
            self.regions.push((region_seq, 0));
            (self.regions.len() - 1, self.addrs.len()..self.addrs.len())
        });
        if let Err(pos) = self.addrs[range.clone()].binary_search(&addr) {
            self.addrs.insert(range.start + pos, addr);
            self.regions[i].1 += 1;
        }
        let occ = self.regions.len() as u64;
        self.stats.occupancy_sum += occ;
        self.stats.occupancy_samples += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(occ as u32);
    }

    fn check_war_free(&mut self, addr: u64, _region_seq: u64) -> bool {
        self.stats.stores_checked += 1;
        // Any unverified region's load blocks the release, not only the
        // storing region's own: rollback replays the whole unverified window.
        let mut rest = &self.addrs[..];
        let war = self.regions.iter().any(|&(_, len)| {
            let (addrs, tail) = rest.split_at(len);
            rest = tail;
            addrs.binary_search(&addr).is_ok()
        });
        if !war {
            self.stats.war_free += 1;
        }
        !war
    }

    fn on_region_start(&mut self, _region_seq: u64, _prior_verified: bool) {}

    fn on_region_verified(&mut self, region_seq: u64) {
        if let Some((i, range)) = self.region(region_seq) {
            self.regions.remove(i);
            self.addrs.drain(range);
        }
    }

    fn on_recovery(&mut self) {
        self.regions.clear();
        self.addrs.clear();
    }

    fn stats(&self) -> ClqStats {
        self.stats
    }

    fn boxed_clone(&self) -> Box<dyn Clq> {
        Box::new(self.clone())
    }

    fn replay_signature(&self, seq_base: u64, out: &mut Vec<u64>) {
        let mut rest = &self.addrs[..];
        for &(seq, len) in &self.regions {
            let (addrs, tail) = rest.split_at(len);
            rest = tail;
            out.push(seq.wrapping_sub(seq_base));
            out.push(len as u64);
            out.extend_from_slice(addrs);
        }
    }
}

/// Range-compressed CLQ with the Figure-13 overflow automaton.
#[derive(Debug, Clone)]
pub struct CompactClq {
    entries: Vec<RangeEntry>,
    capacity: usize,
    enabled: bool,
    stats: ClqStats,
}

#[derive(Debug, Clone, Copy)]
struct RangeEntry {
    region_seq: u64,
    min: u64,
    max: u64,
}

impl CompactClq {
    /// A compact CLQ with `entries` range entries (the paper defaults to 2).
    pub fn new(entries: u32) -> Self {
        CompactClq {
            entries: Vec::new(),
            capacity: entries.max(1) as usize,
            enabled: true,
            stats: ClqStats::default(),
        }
    }

    /// Whether fast release is currently enabled (Figure 13 state).
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

impl Clq for CompactClq {
    fn record_load(&mut self, addr: u64, region_seq: u64) {
        if !self.enabled {
            return;
        }
        self.stats.loads_recorded += 1;
        match self.entries.iter_mut().find(|e| e.region_seq == region_seq) {
            Some(e) => {
                e.min = e.min.min(addr);
                e.max = e.max.max(addr);
            }
            None => {
                if self.entries.len() >= self.capacity {
                    // Overflow: disable fast release and wipe the queue.
                    self.enabled = false;
                    self.entries.clear();
                    self.stats.overflows += 1;
                    return;
                }
                self.entries.push(RangeEntry {
                    region_seq,
                    min: addr,
                    max: addr,
                });
            }
        }
        let occ = self.entries.len() as u64;
        self.stats.occupancy_sum += occ;
        self.stats.occupancy_samples += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(occ as u32);
    }

    fn check_war_free(&mut self, addr: u64, _region_seq: u64) -> bool {
        self.stats.stores_checked += 1;
        if !self.enabled {
            return false;
        }
        let war = self.entries.iter().any(|e| addr >= e.min && addr <= e.max);
        if !war {
            self.stats.war_free += 1;
        }
        !war
    }

    fn on_region_start(&mut self, _region_seq: u64, prior_verified: bool) {
        if !self.enabled && prior_verified {
            self.enabled = true;
        }
    }

    fn on_region_verified(&mut self, region_seq: u64) {
        self.entries.retain(|e| e.region_seq != region_seq);
    }

    fn on_recovery(&mut self) {
        self.entries.clear();
        self.enabled = true;
    }

    fn stats(&self) -> ClqStats {
        self.stats
    }

    fn boxed_clone(&self) -> Box<dyn Clq> {
        Box::new(self.clone())
    }

    fn replay_signature(&self, seq_base: u64, out: &mut Vec<u64>) {
        out.push(u64::from(self.enabled));
        for e in &self.entries {
            out.push(e.region_seq.wrapping_sub(seq_base));
            out.push(e.min);
            out.push(e.max);
        }
    }
}

/// Bounded content-addressed CLQ: exact address matching like the ideal
/// design, but with a fixed number of address entries and the Figure-13
/// overflow automaton. This is the design the paper argues against on
/// hardware-cost grounds (CAM search per store); it bounds the precision
/// loss the compact range design accepts in exchange for RAM-only lookups.
#[derive(Debug, Clone)]
pub struct CamClq {
    /// (region, address) pairs.
    entries: Vec<(u64, u64)>,
    capacity: usize,
    enabled: bool,
    stats: ClqStats,
}

impl CamClq {
    /// A CAM CLQ holding at most `entries` load addresses.
    pub fn new(entries: u32) -> Self {
        CamClq {
            entries: Vec::new(),
            capacity: entries.max(1) as usize,
            enabled: true,
            stats: ClqStats::default(),
        }
    }

    /// Whether fast release is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

impl Clq for CamClq {
    fn record_load(&mut self, addr: u64, region_seq: u64) {
        if !self.enabled {
            return;
        }
        self.stats.loads_recorded += 1;
        if self.entries.contains(&(region_seq, addr)) {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.enabled = false;
            self.entries.clear();
            self.stats.overflows += 1;
            return;
        }
        self.entries.push((region_seq, addr));
        let occ = self.entries.len() as u64;
        self.stats.occupancy_sum += occ;
        self.stats.occupancy_samples += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(occ as u32);
    }

    fn check_war_free(&mut self, addr: u64, _region_seq: u64) -> bool {
        self.stats.stores_checked += 1;
        if !self.enabled {
            return false;
        }
        let war = self.entries.iter().any(|&(_, a)| a == addr);
        if !war {
            self.stats.war_free += 1;
        }
        !war
    }

    fn on_region_start(&mut self, _region_seq: u64, prior_verified: bool) {
        if !self.enabled && prior_verified {
            self.enabled = true;
        }
    }

    fn on_region_verified(&mut self, region_seq: u64) {
        self.entries.retain(|&(r, _)| r != region_seq);
    }

    fn on_recovery(&mut self) {
        self.entries.clear();
        self.enabled = true;
    }

    fn stats(&self) -> ClqStats {
        self.stats
    }

    fn boxed_clone(&self) -> Box<dyn Clq> {
        Box::new(self.clone())
    }

    fn replay_signature(&self, seq_base: u64, out: &mut Vec<u64>) {
        out.push(u64::from(self.enabled));
        for &(seq, addr) in &self.entries {
            out.push(seq.wrapping_sub(seq_base));
            out.push(addr);
        }
    }
}

/// Construct the CLQ named by a [`ClqKind`](crate::ClqKind).
pub fn build_clq(kind: crate::ClqKind) -> Box<dyn Clq> {
    match kind {
        crate::ClqKind::Off => Box::new(NoClq::default()),
        crate::ClqKind::Ideal => Box::new(IdealClq::default()),
        crate::ClqKind::Compact(n) => Box::new(CompactClq::new(n)),
        crate::ClqKind::Cam(n) => Box::new(CamClq::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_detects_exact_war() {
        let mut c = IdealClq::default();
        c.record_load(0x100, 0);
        c.record_load(0x200, 0);
        assert!(!c.check_war_free(0x100, 0)); // WAR
        assert!(c.check_war_free(0x180, 0)); // between loads: still free
                                             // Another region's store still conflicts while region 0 is
                                             // unverified: rollback replays region 0's loads.
        assert!(!c.check_war_free(0x100, 1));
        c.on_region_verified(0);
        assert!(c.check_war_free(0x100, 1)); // reclaimed: free
        assert_eq!(c.stats().war_free, 2);
        assert_eq!(c.stats().stores_checked, 4);
    }

    #[test]
    fn compact_ranges_are_conservative() {
        let mut c = CompactClq::new(2);
        c.record_load(0x100, 0);
        c.record_load(0x200, 0);
        assert!(
            !c.check_war_free(0x180, 0),
            "inside range: conservative WAR"
        );
        assert!(c.check_war_free(0x300, 0));
        assert!(c.check_war_free(0x080, 0));
    }

    #[test]
    fn compact_overflow_disables_until_verified_boundary() {
        let mut c = CompactClq::new(1);
        c.record_load(0x100, 0);
        c.record_load(0x100, 1); // needs a second entry: overflow
        assert!(!c.enabled());
        assert_eq!(c.stats().overflows, 1);
        // While disabled, everything is quarantined.
        assert!(!c.check_war_free(0x999, 1));
        // Region boundary without prior verification: stays disabled.
        c.on_region_start(2, false);
        assert!(!c.enabled());
        // Boundary with prior region verified: re-enables.
        c.on_region_start(3, true);
        assert!(c.enabled());
        assert!(c.check_war_free(0x999, 3));
    }

    #[test]
    fn verification_reclaims_entries() {
        let mut c = CompactClq::new(2);
        c.record_load(0x100, 0);
        c.record_load(0x500, 1);
        assert_eq!(c.stats().peak_entries, 2);
        c.on_region_verified(0);
        c.record_load(0x900, 2); // fits again, no overflow
        assert!(c.enabled());
        assert_eq!(c.stats().overflows, 0);
    }

    #[test]
    fn no_clq_never_bypasses() {
        let mut c = NoClq::default();
        c.record_load(0x100, 0);
        assert!(!c.check_war_free(0x200, 0));
        assert_eq!(c.stats().war_free, 0);
        assert_eq!(c.stats().stores_checked, 1);
    }

    #[test]
    fn recovery_resets_compact_state() {
        let mut c = CompactClq::new(1);
        c.record_load(0x100, 0);
        c.record_load(0x100, 1);
        assert!(!c.enabled());
        c.on_recovery();
        assert!(c.enabled());
        assert!(c.check_war_free(0x100, 5));
    }

    #[test]
    fn stats_ratios() {
        let mut s = ClqStats::default();
        assert_eq!(s.avg_entries(), 0.0);
        assert_eq!(s.war_free_ratio(), 0.0);
        s.stores_checked = 4;
        s.war_free = 3;
        s.occupancy_sum = 10;
        s.occupancy_samples = 5;
        assert!((s.war_free_ratio() - 0.75).abs() < 1e-12);
        assert!((s.avg_entries() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cam_matches_exactly_and_overflows() {
        let mut c = CamClq::new(2);
        c.record_load(0x100, 0);
        c.record_load(0x200, 0);
        assert!(!c.check_war_free(0x100, 0), "exact WAR");
        assert!(
            c.check_war_free(0x180, 0),
            "between loads: free (unlike range)"
        );
        // Third distinct address overflows.
        c.record_load(0x300, 0);
        assert!(!c.enabled());
        assert!(!c.check_war_free(0x999, 0), "disabled quarantines all");
        c.on_region_start(1, true);
        assert!(c.enabled());
        // Duplicate loads do not consume entries.
        c.record_load(0x500, 1);
        c.record_load(0x500, 1);
        assert!(c.enabled());
        // Unverified region 1's load blocks any region's store to 0x500.
        assert!(!c.check_war_free(0x500, 2));
        c.on_region_verified(1);
        assert!(c.check_war_free(0x500, 2));
    }

    #[test]
    fn replay_signatures_are_shift_invariant() {
        // Same load pattern, one run offset by 3 region seqs: signatures
        // agree once the strike side rebases by its shift.
        for kind in [
            crate::ClqKind::Off,
            crate::ClqKind::Ideal,
            crate::ClqKind::Compact(2),
            crate::ClqKind::Cam(4),
        ] {
            let mut golden = build_clq(kind);
            let mut strike = build_clq(kind);
            for (addr, seq) in [(0x100u64, 0u64), (0x200, 0), (0x140, 1)] {
                golden.record_load(addr, seq);
                strike.record_load(addr, seq + 3);
            }
            let (mut g, mut s) = (Vec::new(), Vec::new());
            golden.replay_signature(0, &mut g);
            strike.replay_signature(3, &mut s);
            assert_eq!(g, s, "{kind:?}");
            // A divergent address breaks the match (stateful designs).
            strike.record_load(0x999, 4);
            s.clear();
            strike.replay_signature(3, &mut s);
            if !matches!(kind, crate::ClqKind::Off) {
                assert_ne!(g, s, "{kind:?}");
            }
        }
    }

    #[test]
    fn ideal_flat_buffer_matches_per_region_sets() {
        // The per-region address sets the flat buffer replaced, kept as
        // the oracle: same answers, same signature words.
        let mut model: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut c = IdealClq::default();
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut seq = 0;
        for _ in 0..20_000 {
            let addr = 8 * next(64);
            match next(10) {
                0..=4 => {
                    // Loads of the running region, or of one still open.
                    let r = seq - next(2).min(seq);
                    c.record_load(addr, r);
                    match model.iter_mut().find(|(s, _)| *s == r) {
                        Some((_, a)) => {
                            if let Err(p) = a.binary_search(&addr) {
                                a.insert(p, addr);
                            }
                        }
                        None => model.push((r, vec![addr])),
                    }
                }
                5..=6 => {
                    let war = model.iter().any(|(_, a)| a.binary_search(&addr).is_ok());
                    assert_eq!(c.check_war_free(addr, seq), !war);
                }
                7 => seq += 1,
                8 => {
                    let r = model.first().map_or(seq, |&(s, _)| s);
                    c.on_region_verified(r);
                    model.retain(|(s, _)| *s != r);
                }
                _ if next(20) == 0 => {
                    c.on_recovery();
                    model.clear();
                }
                _ => {}
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            c.replay_signature(seq / 2, &mut got);
            for (s, a) in &model {
                want.extend([s.wrapping_sub(seq / 2), a.len() as u64]);
                want.extend_from_slice(a);
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn builder_dispatches() {
        let c = build_clq(crate::ClqKind::Off);
        assert_eq!(c.stats().stores_checked, 0);
        let c = build_clq(crate::ClqKind::Ideal);
        assert_eq!(c.stats().loads_recorded, 0);
        let c = build_clq(crate::ClqKind::Compact(2));
        assert_eq!(c.stats().overflows, 0);
    }
}
