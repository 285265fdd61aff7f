//! Simulator configuration.

/// Preset default for [`SimConfig::translate`]: on, unless the
/// `TURNPIKE_TRANSLATE=0` environment variable disables it (read once per
/// process — the CI byte-diff jobs use it to force the per-instruction
/// reference path without touching any call site).
fn translate_default() -> bool {
    static TRANSLATE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TRANSLATE.get_or_init(|| std::env::var_os("TURNPIKE_TRANSLATE").is_none_or(|v| v != "0"))
}

/// Which committed-load-queue design the core uses (paper §4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClqKind {
    /// No CLQ: no WAR-free fast release (Turnstile hardware).
    Off,
    /// Ideal design: unbounded per-region address matching (the paper's
    /// 100%-accurate comparison point in Figures 14/15).
    Ideal,
    /// Compact design: `entries` per-region `[min, max]` address ranges with
    /// the selective-control overflow automaton of Figure 13.
    Compact(u32),
    /// Bounded content-addressed design: exact matching over `entries` load
    /// addresses (the costly alternative §4.3.1 argues against).
    Cam(u32),
}

/// Full microarchitectural configuration of the simulated core.
///
/// Defaults model the paper's target: an ARM Cortex-A53-class dual-issue
/// in-order core at 2.5 GHz with 64 KB L1D (2-way, 2-cycle), 128 KB L2
/// (16-way, 20-cycle), a 4-entry store buffer, and a 10-cycle worst-case
/// detection latency.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Instructions issued per cycle (in order).
    pub issue_width: u32,
    /// Extra cycles after a taken conditional branch (fetch redirect).
    pub branch_penalty: u64,
    /// Extra cycles after an unconditional jump.
    pub jump_penalty: u64,
    /// L1 data cache hit latency in cycles.
    pub l1_hit: u64,
    /// L1D size in bytes.
    pub l1_bytes: u64,
    /// L1D associativity.
    pub l1_ways: u32,
    /// L2 hit latency in cycles (L1 miss, L2 hit total = l1 + l2).
    pub l2_hit: u64,
    /// L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Main memory latency in cycles beyond an L2 miss.
    pub mem_latency: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Store buffer entries.
    pub sb_size: u32,
    /// Region boundary buffer entries (outstanding unverified regions).
    /// Sized to cover a full WCDL window of short regions, as in Turnstile.
    pub rbb_size: u32,
    /// Worst-case sensor detection latency in cycles.
    pub wcdl: u64,
    /// Quarantine stores for region verification at all. `false` models the
    /// baseline core without resilience (stores release immediately).
    pub resilient: bool,
    /// Fast release of WAR-free regular stores (requires a CLQ).
    pub war_free: bool,
    /// Hardware coloring for checkpoint fast release.
    pub coloring: bool,
    /// Committed load queue design.
    pub clq: ClqKind,
    /// Colors per register in the coloring pool.
    pub colors: u8,
    /// Abort the simulation after this many cycles.
    pub cycle_limit: u64,
    /// Fixed pipeline-flush cost charged on each recovery, on top of the
    /// recovery block's own instructions.
    pub recovery_flush_cycles: u64,
    /// Record latency histograms (SB residency, verification latency,
    /// detection latency, recovery penalty) into the run's stats. Off by
    /// default: disabled runs skip every recording site behind one `None`
    /// check, and the timing model is identical either way.
    pub histograms: bool,
    /// Dispatch through pre-decoded superblocks
    /// ([`Translation`](crate::Translation)) whenever the core is in a
    /// quiet state (no pending faults/detections, no trace sink, no
    /// corruption flag). Pure execution strategy: results, stats,
    /// snapshots and early-exit probes are bit-identical with it on or
    /// off — `false` takes the per-instruction loop (`issue::<false>`)
    /// everywhere (the reference path CI diffs against). Defaults to
    /// `true`; the `TURNPIKE_TRANSLATE=0` environment variable flips the
    /// preset default off process-wide.
    pub translate: bool,
    /// Snapshot cadence (cycles) for fault campaigns: the fault-free golden
    /// run captures a copy-on-write [`CoreSnapshot`](crate::CoreSnapshot)
    /// at this interval and every strike run forks from the latest snapshot
    /// before its strike instead of replaying the prefix. `None` runs every
    /// campaign simulation from cycle 0 (the from-scratch reference path).
    /// Ordinary (non-campaign) runs never capture snapshots, so this knob
    /// cannot affect any simulation outcome.
    pub snapshot_interval: Option<u64>,
}

impl SimConfig {
    /// The unprotected baseline core (normalization target of every figure).
    pub fn baseline() -> Self {
        SimConfig {
            issue_width: 2,
            branch_penalty: 2,
            jump_penalty: 1,
            l1_hit: 2,
            l1_bytes: 64 * 1024,
            l1_ways: 2,
            l2_hit: 20,
            l2_bytes: 128 * 1024,
            l2_ways: 16,
            mem_latency: 100,
            line_bytes: 64,
            sb_size: 4,
            rbb_size: 32,
            wcdl: 10,
            resilient: false,
            war_free: false,
            coloring: false,
            clq: ClqKind::Off,
            colors: 4,
            cycle_limit: 2_000_000_000,
            recovery_flush_cycles: 5,
            histograms: false,
            translate: translate_default(),
            snapshot_interval: Some(512),
        }
    }

    /// Turnstile hardware: gated SB + RBB, no Turnpike structures.
    pub fn turnstile(sb_size: u32, wcdl: u64) -> Self {
        SimConfig {
            sb_size,
            wcdl,
            resilient: true,
            ..SimConfig::baseline()
        }
    }

    /// Full Turnpike hardware: WAR-free fast release through a compact
    /// 2-entry CLQ plus 4-color checkpoint coloring.
    pub fn turnpike(sb_size: u32, wcdl: u64) -> Self {
        SimConfig {
            sb_size,
            wcdl,
            resilient: true,
            war_free: true,
            coloring: true,
            clq: ClqKind::Compact(2),
            ..SimConfig::baseline()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::turnpike(4, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let b = SimConfig::baseline();
        assert!(!b.resilient && !b.war_free && !b.coloring);
        assert_eq!(b.clq, ClqKind::Off);
        let t = SimConfig::turnstile(4, 30);
        assert!(t.resilient && !t.war_free);
        assert_eq!(t.wcdl, 30);
        let p = SimConfig::turnpike(4, 10);
        assert!(p.resilient && p.war_free && p.coloring);
        assert_eq!(p.clq, ClqKind::Compact(2));
        assert_eq!(SimConfig::default(), p);
    }

    #[test]
    fn geometry_matches_the_paper() {
        let c = SimConfig::baseline();
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.l1_bytes, 64 * 1024);
        assert_eq!(c.l1_ways, 2);
        assert_eq!(c.l2_bytes, 128 * 1024);
        assert_eq!(c.l2_ways, 16);
        assert_eq!(c.l1_hit, 2);
        assert_eq!(c.l2_hit, 20);
        assert_eq!(c.sb_size, 4);
    }
}
