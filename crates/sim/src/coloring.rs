//! Hardware coloring for checkpoint fast release (paper §4.3.2).
//!
//! Releasing a checkpoint store to cache *without* verification is unsafe in
//! general: a corrupted checkpoint would overwrite the last good value in the
//! register's checkpoint slot, so recovery would restore garbage (paper
//! Figure 16). Coloring fixes this with alternative storage: each register
//! owns a pool of colored slots, and three maps track them —
//!
//! * **AC** (available colors): colors free for the next checkpoint;
//! * **UC** (used colors): per unverified region, the color each checkpoint
//!   took (kept alongside the RBB entry);
//! * **VC** (verified colors): the color of the last *verified* checkpoint,
//!   which recovery reads.
//!
//! A checkpoint that finds a free color in AC writes slot `(reg, color)`
//! immediately and bypasses the store buffer; if AC is empty it falls back
//! to the quarantine path. When a region is verified, its used colors become
//! verified (the old verified colors return to AC); when a region is
//! squashed by recovery, its used colors return to AC and VC is untouched.

/// The three color maps of one core.
#[derive(Debug, Clone)]
pub struct Coloring {
    colors: u8,
    /// Bitmask of available colors per register.
    ac: Vec<u8>,
    /// Verified color per register.
    vc: Vec<Option<u8>>,
    /// (region_seq, reg, color) tuples for unverified regions.
    uc: Vec<(u64, u8, u8)>,
    /// Checkpoints that took the fast path.
    pub fast_released: u64,
    /// Checkpoints that fell back to quarantine because AC was empty.
    pub fallbacks: u64,
}

impl Coloring {
    /// A coloring pool with `colors` slots per register (the paper uses 4)
    /// over `num_regs` registers.
    pub fn new(num_regs: usize, colors: u8) -> Self {
        assert!((1..=8).contains(&colors), "1..=8 colors supported");
        let full = if colors == 8 {
            0xff
        } else {
            (1u8 << colors) - 1
        };
        Coloring {
            colors,
            ac: vec![full; num_regs],
            vc: vec![None; num_regs],
            uc: Vec::new(),
            fast_released: 0,
            fallbacks: 0,
        }
    }

    /// Pre-verify color 0 of `reg` (loader-initialized program inputs).
    pub fn preverify(&mut self, reg: u8) {
        let r = reg as usize;
        self.vc[r] = Some(0);
        self.ac[r] &= !1;
    }

    /// Try to take a color for a checkpoint of `reg` in region `region_seq`.
    /// Returns the assigned color, or `None` when the pool is exhausted
    /// (caller falls back to SB quarantine).
    pub fn try_assign(&mut self, reg: u8, region_seq: u64) -> Option<u8> {
        let r = reg as usize;
        // Reuse the color this region already holds for the register (a
        // re-executed or repeated checkpoint overwrites its own slot).
        if let Some(&(_, _, c)) = self
            .uc
            .iter()
            .find(|&&(s, rr, _)| s == region_seq && rr == reg)
        {
            self.fast_released += 1;
            return Some(c);
        }
        // The slot recovery reads must never hold unverified data. While a
        // register has a verified color, that color is absent from AC by
        // construction; while it has none, recovery falls back to slot 0,
        // so color 0 is equally off-limits until a checkpoint verifies.
        let avail = if self.vc[r].is_none() {
            self.ac[r] & !1
        } else {
            self.ac[r]
        };
        if avail == 0 {
            self.fallbacks += 1;
            return None;
        }
        let c = avail.trailing_zeros() as u8;
        self.ac[r] &= !(1 << c);
        self.uc.push((region_seq, reg, c));
        self.fast_released += 1;
        Some(c)
    }

    /// The verified color of `reg` (what recovery reads); color 0 when the
    /// register has never had a verified checkpoint.
    pub fn verified_color(&self, reg: u8) -> u8 {
        self.vc[reg as usize].unwrap_or(0)
    }

    /// Region `region_seq` was verified: its used colors become the verified
    /// colors; displaced verified colors return to AC.
    pub fn on_region_verified(&mut self, region_seq: u64) {
        self.uc.retain(|&(s, reg, c)| {
            if s != region_seq {
                return true;
            }
            let r = reg as usize;
            if let Some(old) = self.vc[r] {
                self.ac[r] |= 1 << old;
            }
            self.vc[r] = Some(c);
            false
        });
    }

    /// Regions at or after `from_seq` were squashed: their colors return to
    /// AC; VC is untouched.
    pub fn on_squash(&mut self, from_seq: u64) {
        self.uc.retain(|&(s, reg, c)| {
            if s < from_seq {
                return true;
            }
            self.ac[reg as usize] |= 1 << c;
            false
        });
    }

    /// Number of colors configured per register.
    pub fn colors(&self) -> u8 {
        self.colors
    }

    /// Replay equivalence against a golden-run pool whose region sequence
    /// numbers trail this one's by `ds`. AC/VC must match exactly (they are
    /// per-register state with no time component); UC must match in order
    /// with shifted sequence numbers — `try_assign`'s reuse scan and the
    /// verify/squash retains walk UC in order, so order is behavior. The
    /// `fast_released`/`fallbacks` counters feed no simulation output and
    /// are not compared.
    pub(crate) fn replay_equivalent(&self, golden: &Coloring, ds: u64) -> bool {
        self.ac == golden.ac
            && self.vc == golden.vc
            && self.uc.len() == golden.uc.len()
            && self
                .uc
                .iter()
                .zip(golden.uc.iter())
                .all(|(&(s, r, c), &(gs, gr, gc))| s == gs.wrapping_add(ds) && r == gr && c == gc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_walks_the_pool() {
        let mut c = Coloring::new(32, 4);
        // Slot 0 is the recovery default while nothing is verified, so the
        // usable pool is colors 1..4 until a checkpoint verifies.
        assert_eq!(c.try_assign(3, 0), Some(1));
        assert_eq!(c.try_assign(3, 1), Some(2));
        assert_eq!(c.try_assign(3, 2), Some(3));
        assert_eq!(c.try_assign(3, 3), None); // exhausted
        assert_eq!(c.fallbacks, 1);
        assert_eq!(c.fast_released, 3);
        // Other registers unaffected.
        assert_eq!(c.try_assign(4, 4), Some(1));
    }

    #[test]
    fn same_region_reuses_its_color() {
        let mut c = Coloring::new(32, 4);
        assert_eq!(c.try_assign(7, 0), Some(1));
        assert_eq!(c.try_assign(7, 0), Some(1)); // coalesce, no new color
        assert_eq!(c.try_assign(7, 1), Some(2));
    }

    #[test]
    fn verification_rotates_vc_and_reclaims() {
        let mut c = Coloring::new(32, 4);
        // Paper Figure 17 rotation, offset by the reserved default slot:
        // region R0 takes color 1, R1 takes color 2.
        assert_eq!(c.try_assign(2, 0), Some(1));
        assert_eq!(c.try_assign(2, 1), Some(2));
        assert_eq!(c.verified_color(2), 0); // nothing verified: default slot
        c.on_region_verified(0);
        assert_eq!(c.verified_color(2), 1);
        // Now slot 0 is assignable (recovery reads slot 1).
        assert_eq!(c.try_assign(2, 2), Some(0));
        c.on_region_verified(1);
        assert_eq!(c.verified_color(2), 2);
        // Color 1 returned to AC and is reusable.
        assert_eq!(c.try_assign(2, 3), Some(1));
    }

    #[test]
    fn squash_returns_colors_without_touching_vc() {
        let mut c = Coloring::new(32, 4);
        assert_eq!(c.try_assign(5, 0), Some(1));
        c.on_region_verified(0);
        assert_eq!(c.verified_color(5), 1);
        assert_eq!(c.try_assign(5, 1), Some(0));
        assert_eq!(c.try_assign(5, 2), Some(2));
        c.on_squash(1);
        assert_eq!(c.verified_color(5), 1); // unchanged
                                            // Colors 0 and 2 are free again.
        assert_eq!(c.try_assign(5, 3), Some(0));
        assert_eq!(c.try_assign(5, 4), Some(2));
    }

    #[test]
    fn unverified_checkpoint_never_lands_in_the_recovery_slot() {
        // Regression: a corrupted first checkpoint must not occupy slot 0
        // (what recovery reads while VC is empty) — squash returns the
        // color but cannot erase the slot's data.
        let mut c = Coloring::new(32, 2);
        let got = c.try_assign(6, 0).expect("one usable color");
        assert_ne!(got, c.verified_color(6));
        // With a single color the fast path must refuse entirely.
        let mut c1 = Coloring::new(32, 1);
        assert_eq!(c1.try_assign(6, 0), None);
        assert_eq!(c1.fallbacks, 1);
    }

    #[test]
    fn preverified_params_pin_color_zero() {
        let mut c = Coloring::new(32, 4);
        c.preverify(9);
        assert_eq!(c.verified_color(9), 0);
        // Color 0 is not handed out again until displaced.
        assert_eq!(c.try_assign(9, 0), Some(1));
        c.on_region_verified(0);
        assert_eq!(c.verified_color(9), 1);
        // Now color 0 is back in the pool.
        assert_eq!(c.try_assign(9, 1), Some(0));
    }

    #[test]
    #[should_panic(expected = "1..=8 colors")]
    fn rejects_zero_colors() {
        let _ = Coloring::new(32, 0);
    }
}
