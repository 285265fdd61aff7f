//! The cycle-level dual-issue in-order core.
//!
//! Timing is event-skip: instructions are processed in program order, each
//! assigned the earliest issue cycle compatible with its hazards (operand
//! readiness, the single memory port, store-buffer capacity, RBB capacity,
//! and the dual-issue slot budget). Functional state updates at issue, which
//! is exact for an in-order machine without speculation: a taken branch
//! simply delays the next fetch by the redirect penalty.
//!
//! Resilience machinery wired into the issue loop:
//!
//! * every store either *fast-releases* (WAR-free via the CLQ, or a colored
//!   checkpoint) or allocates a gated-store-buffer entry quarantined until
//!   its region is verified (region end + WCDL with no detection);
//! * region boundaries allocate RBB instances; verification drains the SB at
//!   one entry per cycle and rotates checkpoint colors;
//! * injected faults corrupt register state; parity trips on first read,
//!   the acoustic sensor fires within WCDL regardless; recovery discards
//!   unverified SB entries and colors, runs the region's recovery block, and
//!   re-executes from the recovery PC.

use crate::cache::Hierarchy;
use crate::clq::{build_clq, Clq};
use crate::coloring::Coloring;
use crate::config::{ClqKind, SimConfig};
use crate::fault::{Fault, FaultKind, FaultPlan};
use crate::mem::PagedMem;
use crate::rbb::Rbb;
use crate::stats::{SimHists, SimStats};
use crate::store_buffer::{EntryKind, SbEntry, StoreBuffer};
use crate::trace::{StallKind, TraceEvent, TraceSink};
use crate::translate::{decode, DAddr, DKind, DOperand, DecodedOp, Translation};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use turnpike_isa::{MachProgram, ProtectionMode, RegionId, NUM_PHYS_REGS};
use turnpike_metrics::Counter;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle limit was exceeded (livelock guard).
    CycleLimit(u64),
    /// PC ran outside the program.
    PcOutOfRange(u64),
    /// A store stalled forever on a full SB whose entries can never release
    /// (a region exceeded the SB size — the compiler must prevent this).
    StoreDeadlock {
        /// Cycle at which the deadlock was diagnosed.
        cycle: u64,
    },
    /// A fault's detection latency exceeds the configured WCDL, or a
    /// resumed core's plan strikes at or before its snapshot cycle.
    BadFaultPlan,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit(n) => write!(f, "cycle limit {n} exceeded"),
            SimError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range"),
            SimError::StoreDeadlock { cycle } => {
                write!(f, "store buffer deadlock at cycle {cycle}")
            }
            SimError::BadFaultPlan => {
                f.write_str("fault latency above WCDL or strike at or before the fork point")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Program return value.
    pub ret: Option<i64>,
    /// Final architectural data memory (SB fully drained), handed over as
    /// the run left it: pages a forked run never wrote are still shared
    /// with its snapshot, so comparing it with the golden run's memory
    /// skips them. [`PagedMem::to_btree`] gives the `BTreeMap` view.
    pub memory: PagedMem,
    /// Final checkpoint storage (colored slots included), held like
    /// [`SimOutcome::memory`].
    pub ckpt_memory: PagedMem,
    /// Statistics.
    pub stats: SimStats,
    /// `Some(saved)` when the run exited early through [`ReplayGuide`]
    /// convergence, skipping `saved` simulated cycles. An early-exited
    /// outcome carries the golden run's return value, fully synthesized
    /// stats, and **empty** memories — the convergence proof already
    /// established that the final memories equal the golden run's, so they
    /// are not rematerialized.
    pub replay_saved: Option<u64>,
    /// How the run's early-exit probes went (all zero for an unguided
    /// run). Diagnostics about the simulator's shortcut, not about the
    /// simulated machine: equality of outcomes ignores it.
    pub replay_census: ReplayCensus,
}

/// Outcomes are equal when the simulated runs are: the
/// [`SimOutcome::replay_census`] describes how a guided run was probed, so
/// a guided run and its unguided twin still compare equal.
impl PartialEq for SimOutcome {
    fn eq(&self, other: &Self) -> bool {
        let SimOutcome {
            ret,
            memory,
            ckpt_memory,
            stats,
            replay_saved,
            replay_census: _,
        } = self;
        *ret == other.ret
            && *memory == other.memory
            && *ckpt_memory == other.ckpt_memory
            && *stats == other.stats
            && *replay_saved == other.replay_saved
    }
}

/// Why an early-exit probe that passed the register prefilter was refused:
/// the first state component of [`Core`]'s deep compare that differed from
/// the golden snapshot, or the part of the exit synthesis that could not be
/// proven exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Fetch or register readiness neither shifted nor past on both sides.
    Readiness,
    /// Region boundary buffer (instances, sequence offset, timing).
    Rbb,
    /// Gated store buffer.
    Sb,
    /// Checkpoint coloring maps.
    Coloring,
    /// Committed-load queue signature.
    Clq,
    /// L1 occupancy or resident tag set.
    L1Tags,
    /// L1 slot order or LRU ranks over the same tags.
    L1Rank,
    /// L2 occupancy or resident tag set.
    L2Tags,
    /// L2 slot order or LRU ranks over the same tags.
    L2Rank,
    /// Architectural data memory.
    Memory,
    /// Checkpoint storage.
    CkptMemory,
    /// A peak statistic (SB or CLQ occupancy) could not be synthesized.
    Peak,
    /// A latency histogram could not be synthesized.
    Histogram,
    /// The synthesized completion would overrun the run's cycle limit.
    CycleLimit,
}

impl Refusal {
    /// Every reason, in declaration order ([`ReplayCensus::refusals`] is
    /// indexed by position here).
    pub const ALL: [Refusal; 14] = [
        Refusal::Readiness,
        Refusal::Rbb,
        Refusal::Sb,
        Refusal::Coloring,
        Refusal::Clq,
        Refusal::L1Tags,
        Refusal::L1Rank,
        Refusal::L2Tags,
        Refusal::L2Rank,
        Refusal::Memory,
        Refusal::CkptMemory,
        Refusal::Peak,
        Refusal::Histogram,
        Refusal::CycleLimit,
    ];

    /// The `campaign.replay_refused.*` counter campaigns total this
    /// reason under (its name's last segment names the reason).
    pub fn counter(self) -> Counter {
        match self {
            Refusal::Readiness => Counter::CampaignReplayRefusedReadiness,
            Refusal::Rbb => Counter::CampaignReplayRefusedRbb,
            Refusal::Sb => Counter::CampaignReplayRefusedSb,
            Refusal::Coloring => Counter::CampaignReplayRefusedColoring,
            Refusal::Clq => Counter::CampaignReplayRefusedClq,
            Refusal::L1Tags => Counter::CampaignReplayRefusedL1Tags,
            Refusal::L1Rank => Counter::CampaignReplayRefusedL1Rank,
            Refusal::L2Tags => Counter::CampaignReplayRefusedL2Tags,
            Refusal::L2Rank => Counter::CampaignReplayRefusedL2Rank,
            Refusal::Memory => Counter::CampaignReplayRefusedMemory,
            Refusal::CkptMemory => Counter::CampaignReplayRefusedCkptMemory,
            Refusal::Peak => Counter::CampaignReplayRefusedPeak,
            Refusal::Histogram => Counter::CampaignReplayRefusedHistogram,
            Refusal::CycleLimit => Counter::CampaignReplayRefusedCycleLimit,
        }
    }
}

/// Early-exit probe record of one strike run ([`SimOutcome::replay_census`]).
/// A probe that misses the register prefilter (another loop iteration, or
/// a live register still corrupted) is not a refusal and is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCensus {
    /// Refused probes by reason, indexed like [`Refusal::ALL`].
    pub refusals: [u32; Refusal::ALL.len()],
    /// The refusals spent the whole probe budget, so the run dropped its
    /// guide and simulated the rest of its suffix unguided.
    pub budget_exhausted: bool,
    /// The run was guided, and no probe ever found its live registers
    /// equal to a golden snapshot's.
    pub never_matched: bool,
}

/// Divergence-bounded early-exit support for fault-campaign strike runs:
/// everything a run needs to recognize that its state has *reconverged*
/// with the fault-free golden run and stop simulating. Holds the golden
/// run's snapshots (the compare targets), its final stats (the synthesis
/// deltas), and its return value, plus the program's live-in register
/// masks (see [`Core::attach_replay`] for why only live registers are
/// compared) and an index of the snapshots by capture PC and by a
/// fingerprint of a few live registers (see `PcProbe`).
///
/// Built once per campaign from the golden run's artifacts and shared
/// read-only across every strike run (it is `Sync`).
#[derive(Debug)]
pub struct ReplayGuide<'g> {
    snapshots: &'g [CoreSnapshot],
    golden_stats: &'g SimStats,
    golden_ret: Option<i64>,
    /// [`MachProgram::live_in`] of the guided program.
    live_in: Vec<u32>,
    /// How a probe at each PC fingerprints its state. Both dispatch loops
    /// test it at the top of every instruction, so a PC with no snapshot
    /// costs one load.
    probes: Vec<PcProbe>,
    /// `(pc, fingerprint, snapshot index)` of every indexed snapshot,
    /// sorted: the snapshots sharing a PC and fingerprint are adjacent and
    /// ascend in cycle.
    index: Box<[(u32, u64, u32)]>,
}

/// Live registers per PC a [`PcProbe`] fingerprint hashes.
const KEY_REGS: usize = 2;

/// The early-exit probe of one PC. A probe fingerprints its state by up to
/// [`KEY_REGS`] registers live at the PC, chosen as the ones whose values
/// vary most across the golden snapshots (loop counters and pointers tell
/// loop iterations apart). A snapshot whose live registers equal the
/// probing state's has equal key registers, so an equal fingerprint: the
/// probe looks only among those, and the usual probe — another loop
/// iteration — stops at the Bloom filter.
#[derive(Debug, Clone, Copy, Default)]
struct PcProbe {
    /// Bit `fingerprint >> 58` is set for every indexed snapshot captured
    /// at this PC; 0 when there is none, and no probe happens here.
    bloom: u64,
    /// The key registers.
    regs: [u8; KEY_REGS],
    /// Their odd hash multipliers; 0 for an unused slot, so it adds nothing.
    mults: [u64; KEY_REGS],
}

impl PcProbe {
    /// A hash of `pc` and of the key registers' values in `regs` (a sum of
    /// products: the high bits, which the Bloom filter reads, depend on
    /// every input bit).
    #[inline(always)]
    fn fingerprint(&self, pc: u64, regs: &[i64; NUM_PHYS_REGS as usize]) -> u64 {
        let mut h = pc.wrapping_mul(0x94D0_49BB_1331_11EB);
        for k in 0..KEY_REGS {
            h = h.wrapping_add((regs[self.regs[k] as usize] as u64).wrapping_mul(self.mults[k]));
        }
        h
    }

    #[inline(always)]
    fn bloom_bit(fingerprint: u64) -> u64 {
        1 << (fingerprint >> 58)
    }
}

impl<'g> ReplayGuide<'g> {
    /// Index `snapshots` (from the golden
    /// [`Core::run_collecting_snapshots`] run of `program`) for early-exit
    /// probing. `golden_stats`/`golden_ret` come from the same run's
    /// outcome. Snapshots that are not quiet (a pending detection or a
    /// corruption flag — possible only when the collecting run had strikes)
    /// are never compare targets. Every core the guide is attached to must
    /// run `program`.
    pub fn new(
        program: &MachProgram,
        snapshots: &'g [CoreSnapshot],
        golden_stats: &'g SimStats,
        golden_ret: Option<i64>,
    ) -> Self {
        const NO_FLAGS: [bool; NUM_PHYS_REGS as usize] = [false; NUM_PHYS_REGS as usize];
        const MULTS: [u64; KEY_REGS] = [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9];
        let live_in = program.live_in();
        let quiet = |s: &&CoreSnapshot| {
            s.pending_detect.is_empty()
                && s.pending_datapath.is_none()
                && s.parity_bad == NO_FLAGS
                && s.tainted == NO_FLAGS
        };
        // Registers by how many distinct values they hold across the
        // indexed snapshots, most first (ties: lower register first).
        let distinct = |r: usize| {
            let mut v: Vec<i64> = snapshots.iter().filter(quiet).map(|s| s.regs[r]).collect();
            v.sort_unstable();
            v.dedup();
            std::cmp::Reverse(v.len())
        };
        let mut rank: Vec<usize> = (0..NUM_PHYS_REGS as usize).collect();
        rank.sort_by_cached_key(|&r| distinct(r));
        let mut probes = vec![PcProbe::default(); live_in.len()];
        let mut indexed = Vec::new();
        for (i, s) in snapshots.iter().enumerate() {
            debug_assert!(i == 0 || snapshots[i - 1].cycle <= s.cycle, "capture order");
            if !quiet(&s) {
                continue;
            }
            let pc = s.pc as usize;
            let probe = &mut probes[pc];
            if probe.bloom == 0 {
                let live = rank.iter().filter(|&&r| live_in[pc] & (1 << r) != 0);
                for (k, &r) in live.take(KEY_REGS).enumerate() {
                    probe.regs[k] = r as u8;
                    probe.mults[k] = MULTS[k];
                }
            }
            let fp = probe.fingerprint(s.pc, &s.regs);
            probe.bloom |= PcProbe::bloom_bit(fp);
            indexed.push((s.pc as u32, fp, i as u32));
        }
        indexed.sort_unstable();
        ReplayGuide {
            snapshots,
            golden_stats,
            golden_ret,
            live_in,
            probes,
            index: indexed.into(),
        }
    }

    /// Whether some indexed snapshot was captured at `pc`.
    #[inline(always)]
    fn probes_at(&self, pc: u64) -> bool {
        self.probes.get(pc as usize).is_some_and(|p| p.bloom != 0)
    }

    /// The index entries of the snapshots captured at `pc` (a PC
    /// [`ReplayGuide::probes_at`] accepts) whose fingerprint is that of
    /// `regs`, ascending in cycle.
    #[inline(always)]
    fn candidates(&self, pc: u64, regs: &[i64; NUM_PHYS_REGS as usize]) -> &[(u32, u64, u32)] {
        let probe = &self.probes[pc as usize];
        let fp = probe.fingerprint(pc, regs);
        if probe.bloom & PcProbe::bloom_bit(fp) == 0 {
            return &[];
        }
        let key = (pc as u32, fp);
        let from = self.index.partition_point(|&(p, f, _)| (p, f) < key);
        let len = self.index[from..].partition_point(|&(p, f, _)| (p, f) == key);
        &self.index[from..from + len]
    }
}

/// Failed deep compares (or synthesis refusals) a run tolerates before
/// dropping its [`ReplayGuide`] for good. Runs that never reconverge (true
/// SDCs, divergent control flow) stop paying the compare cost after this
/// many attempts.
const REPLAY_BUDGET: u32 = 64;

/// Resolved per-static-region protection switches, precomputed from the
/// program's [`MachProgram::region_modes`] metadata and the core config at
/// construction. Uniform programs (empty metadata) resolve every region to
/// exactly the config's own switches, so their behavior is bit-identical to
/// a core without this table. Derived state: never snapshotted, always
/// rebuilt from (program, config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModeFlags {
    /// Strikes landing while this region runs are detected (parity flags
    /// set, sensor detection scheduled). Unprotected regions silently
    /// absorb the corruption instead.
    detects: bool,
    /// Data stores quarantine in the gated SB until region verification.
    gate_stores: bool,
    /// Data stores may fast-release through the CLQ WAR check (requires
    /// the core's `war_free` hardware; Turnstile-mode regions force it off
    /// even when present).
    war_free: bool,
    /// Checkpoints may fast-release through coloring (same hardware note).
    coloring: bool,
    /// Sensor window the region's instances must wait out before
    /// verification (zero for unprotected regions).
    wcdl: u64,
}

impl ModeFlags {
    fn for_mode(mode: ProtectionMode, cfg: &SimConfig) -> ModeFlags {
        match mode {
            ProtectionMode::Turnpike => ModeFlags {
                detects: true,
                gate_stores: true,
                war_free: cfg.war_free,
                coloring: cfg.coloring,
                wcdl: cfg.wcdl,
            },
            ProtectionMode::Turnstile => ModeFlags {
                detects: true,
                gate_stores: true,
                war_free: false,
                coloring: false,
                wcdl: cfg.wcdl,
            },
            // Unprotected: no detection, no gating, zero window. Checkpoints
            // keep the protected path (colored or quarantined): a protected
            // *neighbor's* recovery reads the slots this region writes, so
            // they must never clobber verified slots out of turn. WAR-free
            // release stays available as the fallback when the immediate
            // path is blocked by an older unverified protected region —
            // gating harder than Turnpike would make "unprotected" slower.
            ProtectionMode::Unprotected => ModeFlags {
                detects: false,
                gate_stores: false,
                war_free: cfg.war_free,
                coloring: cfg.coloring,
                wcdl: 0,
            },
        }
    }
}

fn build_mode_flags(program: &MachProgram, cfg: &SimConfig) -> Vec<ModeFlags> {
    (0..program.num_regions())
        .map(|i| ModeFlags::for_mode(program.region_mode(RegionId(i)), cfg))
        .collect()
}

/// The simulated core.
pub struct Core<'a> {
    cfg: SimConfig,
    program: &'a MachProgram,
    regs: [i64; NUM_PHYS_REGS as usize],
    reg_ready: [u64; NUM_PHYS_REGS as usize],
    /// Parity-corrupted registers (strike while at rest).
    parity_bad: [bool; NUM_PHYS_REGS as usize],
    /// Taint from datapath corruption (wrong value, valid parity).
    tainted: [bool; NUM_PHYS_REGS as usize],
    memory: PagedMem,
    ckpt_memory: PagedMem,
    caches: Hierarchy,
    sb: StoreBuffer,
    rbb: Rbb,
    clq: Box<dyn Clq>,
    coloring: Coloring,
    stats: SimStats,
    faults: Vec<Fault>,
    next_fault: usize,
    /// Pending sensor detections as `(detect_cycle, strike_cycle)`, sorted
    /// by detection time (the strike cycle rides along for detection-latency
    /// accounting).
    pending_detect: Vec<(u64, u64)>,
    /// Most recent strike cycle (attribution for parity detections).
    last_strike: Option<u64>,
    pc: u64,
    /// Current issue cycle.
    cycle: u64,
    /// Issue slots left in `cycle`.
    slots_left: u32,
    /// Memory-port slots left in `cycle`.
    mem_left: u32,
    /// Earliest fetch time (branch redirects).
    fetch_ready: u64,
    /// A datapath strike waiting to corrupt the next register write, as
    /// `(bit, detectable)`. Strikes in unprotected regions corrupt the
    /// value without tainting it (no detection hardware there).
    pending_datapath: Option<(u8, bool)>,
    /// Cycle of the snapshot a resumed core started from; strikes must land
    /// strictly after it. `None` for a core built by [`Core::new`].
    fork_cycle: Option<u64>,
    /// Per-static-region protection switches, indexed by region id.
    /// Derived from (program, cfg); rebuilt on resume, never snapshotted.
    mode_flags: Vec<ModeFlags>,
    /// Attached resilience-event consumer ([`Core::attach_sink`]); the
    /// shared handle lets the caller keep reading the sink after `run`
    /// consumes the core.
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Latency histograms ([`SimConfig::histograms`]); `None` keeps every
    /// recording site a single branch.
    hists: Option<Box<SimHists>>,
    /// Earliest cycle at which [`Core::settle`] can have any effect (the
    /// front RBB verification point or front SB release, whichever comes
    /// first). Settle calls below this are one compare; 0 forces the full
    /// path, which recomputes it. Derived state: mutation sites that end a
    /// region or rebuild the RBB/SB reset it to 0.
    settle_due: u64,
    /// Snapshot cadence in cycles; 0 disables capture (every run except
    /// [`Core::run_collecting_snapshots`]). Doubles when thinning kicks in.
    /// Capture happens at the top of an instruction in either dispatch loop
    /// ([`Core::prologue`]).
    snap_every: u64,
    /// Next cycle at or after which a snapshot is captured.
    next_snap: u64,
    /// Captured snapshots, in cycle order.
    snapshots: Vec<CoreSnapshot>,
    /// The pre-decoded program both dispatch loops issue from. Built when
    /// a run starts, or shared across runs of one program via
    /// [`Core::attach_translation`] (fault campaigns translate once).
    translation: Option<Arc<Translation>>,
    /// Early-exit replay guide with its remaining deep-compare budget.
    /// Convergence probes happen at the top of an instruction — the golden
    /// capture point — in either dispatch loop ([`Core::prologue`]);
    /// dropped permanently once the budget runs out.
    replay: Option<(&'a ReplayGuide<'a>, u32)>,
    /// This run's early-exit probe record, returned in its outcome.
    census: ReplayCensus,
}

/// Full microarchitectural state of a [`Core`] at the top of an issue-loop
/// iteration, captured by [`Core::run_collecting_snapshots`] and resumed
/// through [`Core::from_snapshot`].
///
/// Cloning is cheap: the functional memories share pages copy-on-write
/// ([`PagedMem`]), and everything else is flat data. Snapshots are
/// `Send + Sync`, so a fault campaign can fork many runs from one snapshot
/// across worker threads.
///
/// # Determinism contract
///
/// A snapshot taken during a fault-free run at cycle `C` lies on the
/// execution path of *any* fault plan whose earliest strike is strictly
/// after `C`: before the first strike `S`, no fault has fired, and the
/// detection bound `min(strike + latency) >= S > C` never clamps a
/// settle or redirects a stall, so the pre-strike state is identical to
/// the fault-free prefix. A resumed core run under such a plan therefore
/// reproduces the from-scratch faulty run bit-for-bit — stats included,
/// because the snapshot carries the prefix's stats and histograms.
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    cfg: SimConfig,
    regs: [i64; NUM_PHYS_REGS as usize],
    reg_ready: [u64; NUM_PHYS_REGS as usize],
    parity_bad: [bool; NUM_PHYS_REGS as usize],
    tainted: [bool; NUM_PHYS_REGS as usize],
    memory: PagedMem,
    ckpt_memory: PagedMem,
    caches: Hierarchy,
    sb: StoreBuffer,
    rbb: Rbb,
    clq: Box<dyn Clq>,
    coloring: Coloring,
    stats: SimStats,
    pending_detect: Vec<(u64, u64)>,
    last_strike: Option<u64>,
    pc: u64,
    cycle: u64,
    slots_left: u32,
    mem_left: u32,
    fetch_ready: u64,
    pending_datapath: Option<(u8, bool)>,
    hists: Option<Box<SimHists>>,
}

impl CoreSnapshot {
    /// The issue cycle the snapshot was captured at. Fault campaigns fork a
    /// run from the latest snapshot whose cycle is strictly before the
    /// run's earliest strike.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

impl<'a> Core<'a> {
    /// Build a core around a program, in the loader's initial state: data
    /// segment and register inputs installed, cycle 0.
    pub fn new(program: &'a MachProgram, cfg: SimConfig) -> Self {
        let mut memory = PagedMem::new();
        for (i, w) in program.data.words.iter().enumerate() {
            memory.insert(program.data.base + i as u64 * 8, *w);
        }
        let mut regs = [0i64; NUM_PHYS_REGS as usize];
        let mut ckpt_memory = PagedMem::new();
        let mut coloring = Coloring::new(NUM_PHYS_REGS as usize, cfg.colors);
        for &(r, v) in &program.reg_init {
            regs[r.index()] = v;
            // The loader pre-verifies program inputs: color-0 slots hold
            // them and VC points there, so region-0 recovery works.
            ckpt_memory.insert(turnpike_ir::ckpt_slot_addr(r.raw(), 0), v);
            coloring.preverify(r.raw());
        }
        let region0_wcdl = if program.num_regions() == 0 {
            cfg.wcdl
        } else {
            ModeFlags::for_mode(program.region_mode(RegionId(0)), &cfg).wcdl
        };
        // The initial state is moved, not cloned, into the core: a clone
        // would keep a second handle on every memory page, and the first
        // write to each page would then copy it.
        let initial = CoreSnapshot {
            regs,
            reg_ready: [0; NUM_PHYS_REGS as usize],
            parity_bad: [false; NUM_PHYS_REGS as usize],
            tainted: [false; NUM_PHYS_REGS as usize],
            memory,
            ckpt_memory,
            caches: Hierarchy::new(&cfg),
            sb: StoreBuffer::new(cfg.sb_size),
            rbb: Rbb::new(cfg.rbb_size, region0_wcdl),
            clq: build_clq(if cfg.war_free { cfg.clq } else { ClqKind::Off }),
            coloring,
            stats: SimStats::default(),
            pending_detect: Vec::new(),
            last_strike: None,
            pc: 0,
            cycle: 0,
            slots_left: cfg.issue_width,
            mem_left: 1,
            fetch_ready: 0,
            pending_datapath: None,
            hists: cfg.histograms.then(Box::<SimHists>::default),
            cfg,
        };
        Self::from_state(program, initial, None)
    }

    /// Build a core that continues from `snap` (captured by
    /// [`Core::run_collecting_snapshots`] on the same program).
    ///
    /// Per the [`CoreSnapshot`] determinism contract, running it under a
    /// plan whose every strike lands strictly after `snap.cycle()` is
    /// bit-identical to running the same plan from scratch; [`Core::run`]
    /// rejects any other plan with [`SimError::BadFaultPlan`].
    pub fn from_snapshot(program: &'a MachProgram, snap: &CoreSnapshot) -> Self {
        Self::from_state(program, snap.clone(), Some(snap.cycle))
    }

    fn from_state(program: &'a MachProgram, s: CoreSnapshot, fork_cycle: Option<u64>) -> Self {
        Core {
            mode_flags: build_mode_flags(program, &s.cfg),
            cfg: s.cfg,
            program,
            regs: s.regs,
            reg_ready: s.reg_ready,
            parity_bad: s.parity_bad,
            tainted: s.tainted,
            memory: s.memory,
            ckpt_memory: s.ckpt_memory,
            caches: s.caches,
            sb: s.sb,
            rbb: s.rbb,
            clq: s.clq,
            coloring: s.coloring,
            stats: s.stats,
            faults: Vec::new(),
            next_fault: 0,
            pending_detect: s.pending_detect,
            last_strike: s.last_strike,
            pc: s.pc,
            cycle: s.cycle,
            slots_left: s.slots_left,
            mem_left: s.mem_left,
            fetch_ready: s.fetch_ready,
            pending_datapath: s.pending_datapath,
            fork_cycle,
            sink: None,
            hists: s.hists,
            settle_due: 0,
            snap_every: 0,
            next_snap: 0,
            snapshots: Vec::new(),
            translation: None,
            replay: None,
            census: ReplayCensus::default(),
        }
    }

    /// Share a pre-built [`Translation`] of this core's program, so callers
    /// running one program many times (fault campaigns) pay the pre-decode
    /// cost once instead of once per run.
    ///
    /// # Panics
    ///
    /// Panics if `tr` was built from a program of a different length.
    pub fn attach_translation(&mut self, tr: Arc<Translation>) {
        assert_eq!(
            tr.len(),
            self.program.insts.len(),
            "translation does not match the program"
        );
        self.translation = Some(tr);
    }

    /// Attach a trace sink; every resilience event of the run is forwarded
    /// to it. The caller retains the other `Rc` handle and reads the sink
    /// back after the run (see [`shared_sink`](crate::shared_sink)).
    pub fn attach_sink(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.sink = Some(sink);
    }

    /// Attach an early-exit [`ReplayGuide`]: once the run's strikes have
    /// fired and resolved, its state is probed against the guide's golden
    /// snapshots and the run stops at the first provable reconvergence (see
    /// [`SimOutcome::replay_saved`]). When convergence is never established
    /// the outcome is bit-identical to an unguided run.
    ///
    /// # Only live registers must match
    ///
    /// Recovery reloads a region's live-in registers only, so a strike into
    /// a register that is dead at the rollback point stays in the register
    /// file for good. The probe therefore compares register *values* only
    /// where [`MachProgram::live_in`] sets the bit at the probe PC. This is
    /// sound: a probe happens only in a quiet state, where no strike,
    /// detection or recovery can happen again (and the golden run is
    /// fault-free), so the instructions' source operands are the only
    /// readers of a register from here on. A register that is not live-in
    /// at the PC is overwritten before any read on every path, so its value
    /// reaches no computed value, address, branch, store, checkpoint,
    /// timing decision or return value, and [`SimOutcome`] carries no
    /// registers. Register *readiness* is still compared for every
    /// register, as is every other component of the state.
    ///
    /// The guide's live table comes from the program it was built for;
    /// every core probing one guide must run that program.
    pub fn attach_replay(&mut self, guide: &'a ReplayGuide<'a>) {
        self.replay = Some((guide, REPLAY_BUDGET));
        self.census.never_matched = true;
    }

    /// Forward an event to the attached sink. The untraced path must cost
    /// one predictable branch per call site: the handle test is forced
    /// inline and the actual dispatch outlined as cold, so building the
    /// event sinks into the taken branch.
    #[inline(always)]
    fn emit(&mut self, ev: TraceEvent) {
        if self.sink.is_some() {
            self.emit_to_sink(ev);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_to_sink(&mut self, ev: TraceEvent) {
        if let Some(s) = &self.sink {
            s.borrow_mut().record(&ev);
        }
    }

    /// Run to completion under `plan` ([`FaultPlan::none`] for a
    /// fault-free run).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(mut self, plan: &FaultPlan) -> Result<SimOutcome, SimError> {
        self.install(plan)?;
        self.run_loop()
    }

    /// Validate and install a fault plan. The watchdog clamp is the same
    /// for fresh and resumed cores, so a forked run aborts a hang at the
    /// same absolute cycle as its from-scratch twin.
    fn install(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let fork = self.fork_cycle;
        if plan
            .faults()
            .iter()
            .any(|f| f.detect_latency > self.cfg.wcdl || fork.is_some_and(|c| f.strike_cycle <= c))
        {
            return Err(SimError::BadFaultPlan);
        }
        if let Some(w) = plan.watchdog() {
            self.cfg.cycle_limit = self.cfg.cycle_limit.min(w);
        }
        self.faults = plan.faults().to_vec();
        Ok(())
    }

    /// [`Core::run`], capturing a [`CoreSnapshot`] roughly every
    /// `interval` cycles (at the top of the issue loop, so the event-skip
    /// clock may overshoot a capture point; the next loop iteration takes
    /// it). Snapshot count is bounded: past 128 live snapshots every other
    /// one is dropped and the interval doubles, deterministically.
    ///
    /// Intended for fault-free golden runs: fault campaigns capture the
    /// prefix once and resume each strike run ([`Core::from_snapshot`])
    /// from the latest snapshot strictly before its first strike. Capture
    /// is pure observation — the outcome is identical to [`Core::run`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_collecting_snapshots(
        mut self,
        plan: &FaultPlan,
        interval: u64,
    ) -> Result<(SimOutcome, Vec<CoreSnapshot>), SimError> {
        self.install(plan)?;
        self.snap_every = interval.max(1);
        self.next_snap = self.snap_every;
        let outcome = self.run_loop()?;
        Ok((outcome, std::mem::take(&mut self.snapshots)))
    }

    fn run_loop(&mut self) -> Result<SimOutcome, SimError> {
        let tr = self
            .translation
            .get_or_insert_with(|| Arc::new(Translation::new(self.program)))
            .clone();
        loop {
            // Quiet state + translation enabled: dispatch superblocks until
            // the program returns. They issue through the quiet instance of
            // `issue`, which skips only the work the quiet guard proves is a
            // no-op, so results are bit-identical (see `fast_path_quiet`). A
            // core holding a replay guide or a snapshot schedule takes the
            // hooked loop, which runs the `prologue`; every other core takes
            // the plain one, whose loop has no hook at all.
            if self.cfg.translate && self.fast_path_quiet() {
                let done = if self.replay.is_some() || self.snap_every != 0 {
                    self.run_superblocks::<true>(&tr)?
                } else {
                    self.run_superblocks::<false>(&tr)?
                };
                if let Some(out) = done {
                    return Ok(out);
                }
                // Fast path bailed (PC out of range, or a state change that
                // ended quiescence): fall through to the per-instruction loop.
            }
            if let Some(out) = self.prologue::<false>()? {
                return Ok(out);
            }
            // Settle background machinery up to the current cycle.
            self.settle(self.cycle);
            // Fire strikes and detections that are due.
            self.process_faults();

            let dop = tr
                .ops
                .get(self.pc as usize)
                .ok_or(SimError::PcOutOfRange(self.pc))?;

            if let Issued::Ret(ret) = self.issue::<false>(dop)? {
                // Completion is only certifiable once the verification tail
                // is clean: a strike still in flight whose detection lands
                // within the tail invalidates the final regions, so recover
                // and re-execute instead of finishing.
                let tail = self.cycle + self.cfg.wcdl;
                if self.cfg.resilient && self.next_detection_bound() <= tail {
                    let bound = self.next_detection_bound();
                    self.cycle = self.cycle.max(bound);
                    self.process_faults();
                    continue;
                }
                return self.finish(ret);
            }
        }
    }

    /// The work both dispatch loops do at the top of an instruction, in
    /// this order: the early-exit probe (only at a PC the guide indexes, and
    /// only while quiet), snapshot capture once `next_snap` is due, and the
    /// cycle-limit check. Probing here — before settle — is what makes a
    /// probe compare like with like: the golden run captured its snapshots
    /// at exactly this point, and capture here keeps a resumed core's first
    /// iteration identical to the collecting run's. `QUIET` callers (the
    /// superblock loop) have already proved the state quiet. `Ok(Some(_))`
    /// is the outcome of an early exit.
    #[inline(always)]
    fn prologue<const QUIET: bool>(&mut self) -> Result<Option<SimOutcome>, SimError> {
        if let Some((guide, _)) = self.replay {
            if guide.probes_at(self.pc) && (QUIET || self.fast_path_quiet()) {
                let cands = guide.candidates(self.pc, &self.regs);
                if !cands.is_empty() {
                    if let Some(out) = self.try_replay_exit(guide, cands) {
                        return Ok(Some(out));
                    }
                }
            }
        }
        if self.snap_every != 0 && self.cycle >= self.next_snap {
            self.capture_snapshot();
        }
        self.check_cycle_limit()?;
        Ok(None)
    }

    /// Abort once the clock has passed the configured cycle limit.
    #[inline(always)]
    fn check_cycle_limit(&self) -> Result<(), SimError> {
        if self.cycle > self.cfg.cycle_limit {
            return Err(SimError::CycleLimit(self.cfg.cycle_limit));
        }
        Ok(())
    }

    /// Record the current state into the snapshot list and schedule the
    /// next capture. Bounds memory deterministically: past 128 snapshots,
    /// every other one is dropped and the cadence doubles.
    fn capture_snapshot(&mut self) {
        self.snapshots.push(CoreSnapshot {
            cfg: self.cfg.clone(),
            regs: self.regs,
            reg_ready: self.reg_ready,
            parity_bad: self.parity_bad,
            tainted: self.tainted,
            memory: self.memory.clone(),
            ckpt_memory: self.ckpt_memory.clone(),
            caches: self.caches.clone(),
            sb: self.sb.clone(),
            rbb: self.rbb.clone(),
            clq: self.clq.clone(),
            coloring: self.coloring.clone(),
            stats: self.stats.clone(),
            pending_detect: self.pending_detect.clone(),
            last_strike: self.last_strike,
            pc: self.pc,
            cycle: self.cycle,
            slots_left: self.slots_left,
            mem_left: self.mem_left,
            fetch_ready: self.fetch_ready,
            pending_datapath: self.pending_datapath,
            hists: self.hists.clone(),
        });
        const CAP: usize = 128;
        if self.snapshots.len() > CAP {
            let mut keep = false;
            self.snapshots.retain(|_| {
                keep = !keep;
                keep
            });
            self.snap_every *= 2;
        }
        self.next_snap = self.cycle + self.snap_every;
    }

    /// Whether the core is *quiet*: the per-instruction loop's fault
    /// processing and the parity and taint work of [`Core::issue`] are
    /// provably no-ops — no trace sink is attached, no strike or detection
    /// is pending or future, and no corruption flag is set. Quiet states
    /// admit the superblock fast path and its quiet `issue` instance (the
    /// prologue's probe and capture are not no-ops, so the hooked loop runs
    /// them):
    ///
    /// * `process_faults` can fire nothing, so no recovery, parity trip, or
    ///   datapath corruption can occur mid-block;
    /// * `next_detection_bound` is infinite, so settles are never clamped
    ///   and the SB/RBB stall loops never take their detection escapes;
    /// * every access-time parity/taint check is false, and with no pending
    ///   datapath corruption, `define` can never set a flag — quiescence is
    ///   invariant until the run ends.
    fn fast_path_quiet(&self) -> bool {
        const NO_FLAGS: [bool; NUM_PHYS_REGS as usize] = [false; NUM_PHYS_REGS as usize];
        self.sink.is_none()
            && self.next_fault >= self.faults.len()
            && self.pending_detect.is_empty()
            && self.pending_datapath.is_none()
            && self.parity_bad == NO_FLAGS
            && self.tainted == NO_FLAGS
    }

    /// Probe the replay guide's snapshots `cands` (captured at the current
    /// PC, with this state's fingerprint) for a provable reconvergence with
    /// the golden run; on success, return the fully synthesized outcome.
    /// Failed deep compares and synthesis refusals are counted in the
    /// census by reason and burn [`REPLAY_BUDGET`]; exhaustion drops the
    /// guide permanently.
    ///
    /// Every snapshot at this PC whose live registers equal this state's
    /// is in `cands`, in the same ascending-cycle order as the PC's full
    /// list, so the candidates that pass the exact check and reach the
    /// deep compare, and their order, are exactly a full scan's.
    #[inline(never)]
    fn try_replay_exit(
        &mut self,
        guide: &ReplayGuide<'_>,
        cands: &[(u32, u64, u32)],
    ) -> Option<SimOutcome> {
        debug_assert!(self.fast_path_quiet());
        let live = guide.live_in[self.pc as usize];
        for &(_, _, i) in cands {
            let snap = &guide.snapshots[i as usize];
            // Candidates ascend in cycle: the rest lie in this run's future.
            if snap.cycle > self.cycle {
                break;
            }
            // Exact check: the key registers match, the other live ones
            // may not (or the fingerprints merely collide).
            if !self.live_regs_match(&snap.regs, live) {
                continue;
            }
            self.census.never_matched = false;
            if self.slots_left != snap.slots_left || self.mem_left != snap.mem_left {
                continue;
            }
            let dc = self.cycle - snap.cycle;
            let refusal = match self.replay_converged(snap, dc) {
                Ok(()) => match self.synthesize_exit(guide, snap, dc) {
                    Ok(out) => return Some(out),
                    Err(r) => r,
                },
                Err(r) => r,
            };
            self.census.refusals[refusal as usize] += 1;
            if let Some((_, budget)) = &mut self.replay {
                *budget -= 1;
                if *budget == 0 {
                    self.replay = None;
                    self.census.budget_exhausted = true;
                    return None;
                }
            }
        }
        None
    }

    /// Whether every register whose bit is set in `live` holds the same
    /// value as in `golden` (the rule is [`Core::attach_replay`]'s).
    fn live_regs_match(&self, golden: &[i64; NUM_PHYS_REGS as usize], mut live: u32) -> bool {
        while live != 0 {
            let r = live.trailing_zeros() as usize;
            if self.regs[r] != golden[r] {
                return false;
            }
            live &= live - 1;
        }
        true
    }

    /// Whether the core's state at the top of the issue loop is *future-
    /// behavior equivalent* to the golden snapshot `snap`, with this run's
    /// clock ahead by `dc` cycles and its region sequence numbers ahead by
    /// some `ds >= 0`: from here on, both runs issue the same instructions
    /// with the same timing (shifted by `dc`), produce the same final
    /// memories, and accrue the same statistics deltas. The caller has
    /// matched the PC, the live registers and the issue-slot budgets; the
    /// error names the first other component that differs.
    ///
    /// Both sides are quiet (the caller guarantees it for this run, and
    /// [`ReplayGuide::new`] indexes quiet snapshots only), so the
    /// comparison is purely structural. Timestamps that only matter while
    /// they are in the future — register and fetch readiness — may instead
    /// be stale on both sides (a recovery rewound them); everything else
    /// must match under the shift.
    fn replay_converged(&self, snap: &CoreSnapshot, dc: u64) -> Result<(), Refusal> {
        // The campaign watchdog clamps a strike run's cycle limit below the
        // golden run's; the limit is not core state, and `synthesize_exit`
        // separately refuses any synthesized completion that would overrun
        // it (matching the from-scratch abort). Everything else must agree.
        debug_assert_eq!(
            SimConfig {
                cycle_limit: snap.cfg.cycle_limit,
                ..self.cfg.clone()
            },
            snap.cfg
        );
        debug_assert_eq!(self.pc, snap.pc);
        let refuse = |ok: bool, why: Refusal| if ok { Ok(()) } else { Err(why) };
        // A readiness time is either exactly shifted or already in the past
        // on both sides — a past time only ever participates in `max` and
        // `wait_until` computations it cannot win.
        let ready_equiv = |a: u64, b: u64| a == b + dc || (a <= self.cycle && b <= snap.cycle);
        refuse(
            ready_equiv(self.fetch_ready, snap.fetch_ready)
                && (0..NUM_PHYS_REGS as usize)
                    .all(|r| ready_equiv(self.reg_ready[r], snap.reg_ready[r])),
            Refusal::Readiness,
        )?;
        let ds = self
            .rbb
            .current_seq()
            .checked_sub(snap.rbb.current_seq())
            .ok_or(Refusal::Rbb)?;
        refuse(self.rbb.replay_equivalent(&snap.rbb, dc, ds), Refusal::Rbb)?;
        refuse(
            self.sb
                .replay_equivalent(&snap.sb, dc, ds, self.cycle, snap.cycle),
            Refusal::Sb,
        )?;
        refuse(
            self.coloring.replay_equivalent(&snap.coloring, ds),
            Refusal::Coloring,
        )?;
        let (mut sig_a, mut sig_b) = (Vec::new(), Vec::new());
        self.clq.replay_signature(ds, &mut sig_a);
        snap.clq.replay_signature(0, &mut sig_b);
        refuse(sig_a == sig_b, Refusal::Clq)?;
        self.caches
            .replay_equivalent(&snap.caches, self.cycle, snap.cycle)?;
        refuse(self.memory.content_eq(&snap.memory), Refusal::Memory)?;
        refuse(
            self.ckpt_memory.content_eq(&snap.ckpt_memory),
            Refusal::CkptMemory,
        )
    }

    /// Build the final outcome for a run that reconverged with the golden
    /// snapshot `snap` while `dc` cycles ahead: every additive counter is
    /// `converged + (golden_final - golden_at_snapshot)`, cycle-valued
    /// results shift by `dc`, and peak/extreme statistics are synthesized
    /// only when provably exact — an error refuses the exit (the run simply
    /// keeps simulating and the refusal counts against the probe budget).
    fn synthesize_exit(
        &mut self,
        guide: &ReplayGuide<'_>,
        snap: &CoreSnapshot,
        dc: u64,
    ) -> Result<SimOutcome, Refusal> {
        let gf = guide.golden_stats;
        let gs = &snap.stats;
        // The true run's final clock; past the limit the real execution
        // would abort with `CycleLimit`, so let it.
        let cycles = gf.cycles + dc;
        if cycles > self.cfg.cycle_limit {
            return Err(Refusal::CycleLimit);
        }
        // Peaks: a golden future that sets a new peak transfers exactly
        // (future occupancies are identical on both sides); otherwise the
        // converged value must already dominate the unknown golden-future
        // maximum's upper bound.
        fn peak(conv: u64, at_snap: u64, at_end: u64) -> Option<u64> {
            if at_end > at_snap {
                Some(conv.max(at_end))
            } else if conv >= at_snap {
                Some(conv)
            } else {
                None
            }
        }
        let sb_peak = peak(self.sb.peak as u64, snap.sb.peak as u64, gf.sb_peak as u64)
            .ok_or(Refusal::Peak)?;
        let conv_clq = self.clq.stats();
        let snap_clq = snap.clq.stats();
        let clq_peak = peak(
            u64::from(conv_clq.peak_entries),
            u64::from(snap_clq.peak_entries),
            u64::from(gf.clq.peak_entries),
        )
        .ok_or(Refusal::Peak)?;
        let hists = match (&self.hists, &snap.hists, &gf.hists) {
            (Some(conv), Some(at_snap), Some(at_end)) => {
                let extend = |h: fn(&SimHists) -> &turnpike_metrics::Histogram| {
                    h(conv)
                        .extend_by_delta(h(at_snap), h(at_end))
                        .ok_or(Refusal::Histogram)
                };
                Some(Box::new(SimHists {
                    sb_residency: extend(|h| &h.sb_residency)?,
                    verify_latency: extend(|h| &h.verify_latency)?,
                    detect_latency: extend(|h| &h.detect_latency)?,
                    recovery_penalty: extend(|h| &h.recovery_penalty)?,
                }))
            }
            (None, None, None) => None,
            // Histogram presence must agree (same config).
            _ => return Err(Refusal::Histogram),
        };
        let rbb_insts_sum = self.rbb.insts_sum + (gf.rbb_insts_sum - snap.rbb.insts_sum);
        let rbb_completed = self.rbb.completed + (gf.rbb_completed - snap.rbb.completed);
        let avg_region_insts = if rbb_completed == 0 {
            0.0
        } else {
            rbb_insts_sum as f64 / rbb_completed as f64
        };
        let s = &self.stats;
        let (l1h, l1m, l2h, l2m) = self.caches.stats();
        let (g_l1h, g_l1m, g_l2h, g_l2m) = snap.caches.stats();
        let stats = SimStats {
            cycles,
            insts: s.insts + (gf.insts - gs.insts),
            stall_sb_full: s.stall_sb_full + (gf.stall_sb_full - gs.stall_sb_full),
            stall_data_hazard: s.stall_data_hazard + (gf.stall_data_hazard - gs.stall_data_hazard),
            stall_ckpt_hazard: s.stall_ckpt_hazard + (gf.stall_ckpt_hazard - gs.stall_ckpt_hazard),
            stall_mem_port: s.stall_mem_port + (gf.stall_mem_port - gs.stall_mem_port),
            stall_rbb_full: s.stall_rbb_full + (gf.stall_rbb_full - gs.stall_rbb_full),
            recovery_cycles: s.recovery_cycles + (gf.recovery_cycles - gs.recovery_cycles),
            loads: s.loads + (gf.loads - gs.loads),
            stores: s.stores + (gf.stores - gs.stores),
            ckpts: s.ckpts + (gf.ckpts - gs.ckpts),
            war_free_released: s.war_free_released + (gf.war_free_released - gs.war_free_released),
            colored_released: s.colored_released + (gf.colored_released - gs.colored_released),
            quarantined: s.quarantined + (gf.quarantined - gs.quarantined),
            sb_coalesced: self.sb.coalesced + (gf.sb_coalesced - snap.sb.coalesced),
            sb_discarded: self.sb.discarded + (gf.sb_discarded - snap.sb.discarded),
            boundaries: s.boundaries + (gf.boundaries - gs.boundaries),
            detections: s.detections + (gf.detections - gs.detections),
            parity_detections: s.parity_detections + (gf.parity_detections - gs.parity_detections),
            sensor_detections: s.sensor_detections + (gf.sensor_detections - gs.sensor_detections),
            recoveries: s.recoveries + (gf.recoveries - gs.recoveries),
            avg_region_insts,
            clq: crate::clq::ClqStats {
                stores_checked: conv_clq.stores_checked
                    + (gf.clq.stores_checked - snap_clq.stores_checked),
                war_free: conv_clq.war_free + (gf.clq.war_free - snap_clq.war_free),
                loads_recorded: conv_clq.loads_recorded
                    + (gf.clq.loads_recorded - snap_clq.loads_recorded),
                overflows: conv_clq.overflows + (gf.clq.overflows - snap_clq.overflows),
                occupancy_sum: conv_clq.occupancy_sum
                    + (gf.clq.occupancy_sum - snap_clq.occupancy_sum),
                occupancy_samples: conv_clq.occupancy_samples
                    + (gf.clq.occupancy_samples - snap_clq.occupancy_samples),
                peak_entries: clq_peak as u32,
            },
            cache: (
                l1h + (gf.cache.0 - g_l1h),
                l1m + (gf.cache.1 - g_l1m),
                l2h + (gf.cache.2 - g_l2h),
                l2m + (gf.cache.3 - g_l2m),
            ),
            sb_peak: sb_peak as usize,
            rbb_insts_sum,
            rbb_completed,
            hists,
        };
        Ok(SimOutcome {
            ret: guide.golden_ret,
            memory: PagedMem::new(),
            ckpt_memory: PagedMem::new(),
            stats,
            replay_saved: Some(cycles - self.cycle),
            replay_census: self.census,
        })
    }

    /// Execute pre-decoded superblocks until the run ends (`Ok(Some(_))`:
    /// the program returned, or a `HOOKED` probe proved an early exit) or
    /// the fast path must hand back to the per-instruction loop
    /// (`Ok(None)`: the PC left the program, or — defensively — an issue
    /// helper reported a recovery redirect that cannot happen while quiet).
    ///
    /// Per instruction this runs the per-instruction loop's sequence —
    /// prologue, settle, [`Core::issue`] — without its fault processing,
    /// through the quiet instance of `issue`, per the
    /// [`Core::fast_path_quiet`] proof, so cycles, stats, and architectural
    /// state are bit-identical. The plain instance (`HOOKED = false`, no
    /// guide and no snapshot schedule) reduces the prologue to its
    /// cycle-limit check.
    fn run_superblocks<const HOOKED: bool>(
        &mut self,
        tr: &Translation,
    ) -> Result<Option<SimOutcome>, SimError> {
        debug_assert!(self.cfg.translate && self.fast_path_quiet());
        loop {
            let pc = self.pc as usize;
            let Some(&run) = tr.run_len.get(pc) else {
                return Ok(None); // out of range: the per-instruction loop raises it
            };
            // A block is a run of straight-line ops or one control op.
            let n = (run as usize).max(1);
            for dop in &tr.ops[pc..pc + n] {
                if HOOKED {
                    if let Some(out) = self.prologue::<true>()? {
                        return Ok(Some(out));
                    }
                } else {
                    self.check_cycle_limit()?;
                }
                self.settle(self.cycle);
                match self.issue::<true>(dop)? {
                    Issued::Next => {}
                    Issued::Redirected => return Ok(None), // unreachable while quiet
                    // Quiet implies no detection can land in the tail
                    // (`next_detection_bound` is infinite), so completion
                    // is certifiable immediately.
                    Issued::Ret(ret) => return self.finish(ret).map(Some),
                }
            }
        }
    }

    /// Issue one pre-decoded instruction: the fetch-redirect gate, the
    /// register parity and hardened AGU/branch checks, the operand wait,
    /// then the operation through the shared timing and store/checkpoint
    /// helpers. Both dispatch loops issue through it.
    ///
    /// The `QUIET` instance is for cores [`Core::fast_path_quiet`] holds
    /// for: no register is parity-flagged or tainted and no datapath
    /// corruption is pending, so it skips the parity and taint checks and
    /// the flag updates of [`Core::define`], which would all be no-ops.
    #[inline(always)]
    fn issue<const QUIET: bool>(&mut self, dop: &DecodedOp) -> Result<Issued, SimError> {
        let srcs = &dop.srcs[..dop.nsrcs as usize];
        // Fetch redirect gate.
        self.wait_until(self.fetch_ready, StallCause::None);
        // The unprotected baseline core has no parity or recovery.
        if !QUIET && self.cfg.resilient {
            // Hardened AGU / branch path: a datapath-corrupted value feeding
            // a store's address base or a branch condition is caught
            // immediately.
            let hardened = match dop.kind {
                DKind::Store {
                    addr: DAddr::RegOff(b, _),
                    ..
                }
                | DKind::BranchNz { cond: b, .. } => Some(b),
                _ => None,
            };
            // Parity check on register read (models per-register parity).
            if srcs.iter().any(|&r| self.parity_bad[r as usize])
                || hardened.is_some_and(|b| self.tainted[b as usize])
            {
                self.note_parity_detection();
                self.trigger_recovery(self.cycle, self.cycle);
                return Ok(Issued::Redirected);
            }
        }
        // Operand readiness.
        let mut ready = 0u64;
        for &r in srcs {
            ready = ready.max(self.reg_ready[r as usize]);
        }
        self.wait_until(
            ready,
            StallCause::Data {
                is_ckpt: matches!(dop.kind, DKind::Ckpt { .. }),
            },
        );
        let taint = !QUIET && srcs.iter().any(|&r| self.tainted[r as usize]);
        let mut next_pc = self.pc + 1;
        match dop.kind {
            DKind::Bin {
                op,
                dst,
                lhs,
                rhs,
                lat,
            } => {
                self.take_slot(false);
                let v = op.eval(self.regs[lhs as usize], self.dread(rhs));
                self.define::<QUIET>(dst, v, self.cycle + lat, taint);
            }
            DKind::Cmp { op, dst, lhs, rhs } => {
                self.take_slot(false);
                let v = op.eval(self.regs[lhs as usize], self.dread(rhs));
                self.define::<QUIET>(dst, v, self.cycle + 1, taint);
            }
            DKind::Mov { dst, src } => {
                self.take_slot(false);
                let v = self.dread(src);
                self.define::<QUIET>(dst, v, self.cycle + 1, taint);
            }
            DKind::Load {
                dst,
                addr,
                ckpt_slot,
            } => {
                if self.mem_left == 0 {
                    self.wait_until(self.cycle + 1, StallCause::MemPort);
                }
                self.take_slot(true);
                let a = self.dresolve(addr);
                let (value, latency) = if ckpt_slot {
                    // Only recovery blocks use this mode; L1 access.
                    (self.ckpt_memory.get(a).unwrap_or(0), self.cfg.l1_hit)
                } else if let Some(v) = self.sb.forward(a) {
                    (v, 1) // store-to-load forwarding
                } else {
                    let lat = self.caches.access(a, self.cycle);
                    (self.memory.get(a).unwrap_or(0), lat)
                };
                self.define::<QUIET>(dst, value, self.cycle + latency, taint);
                self.stats.loads += 1;
                if self.cfg.resilient && !ckpt_slot {
                    let seq = self.rbb.current_seq();
                    self.clq.record_load(a, seq);
                }
            }
            DKind::Store { src, addr } => {
                if self.mem_left == 0 {
                    self.wait_until(self.cycle + 1, StallCause::MemPort);
                }
                let a = self.dresolve(addr);
                let value = self.dread(src);
                self.stats.stores += 1;
                if !self.do_store(a, value)? {
                    return Ok(Issued::Redirected);
                }
            }
            DKind::Ckpt { reg } => {
                if self.mem_left == 0 {
                    self.wait_until(self.cycle + 1, StallCause::MemPort);
                }
                let value = self.regs[reg as usize];
                self.stats.ckpts += 1;
                if !self.do_ckpt(reg, value)? {
                    return Ok(Issued::Redirected);
                }
            }
            DKind::Boundary { id } => {
                if self.cfg.resilient && !self.exec_boundary(id)? {
                    return Ok(Issued::Redirected);
                }
            }
            DKind::Jump { target } => {
                self.take_slot(false);
                next_pc = u64::from(target);
                self.fetch_ready = self.cycle + 1 + self.cfg.jump_penalty;
            }
            DKind::BranchNz { cond, target } => {
                self.take_slot(false);
                if self.regs[cond as usize] != 0 {
                    next_pc = u64::from(target);
                    self.fetch_ready = self.cycle + 1 + self.cfg.branch_penalty;
                }
            }
            DKind::Ret { value } => {
                self.take_slot(false);
                self.count_inst();
                return Ok(Issued::Ret(value.map(|v| self.dread(v))));
            }
            DKind::Nop => {
                self.take_slot(false);
            }
        }
        self.count_inst();
        self.pc = next_pc;
        Ok(Issued::Next)
    }

    fn dread(&self, op: DOperand) -> i64 {
        match op {
            DOperand::Reg(r) => self.regs[r as usize],
            DOperand::Imm(v) => v,
        }
    }

    fn dresolve(&self, addr: DAddr) -> u64 {
        match addr {
            DAddr::RegOff(b, o) => self.regs[b as usize].wrapping_add(o) as u64,
            DAddr::Abs(a) => a,
            DAddr::Ckpt(r) => turnpike_ir::ckpt_slot_addr(r, self.coloring.verified_color(r)),
        }
    }

    /// Write `value` to `dst`, ready at `ready_at`. A pending datapath
    /// strike corrupts it (tainting it when the region detects), a write
    /// clears the register's parity flag, and the result is tainted when a
    /// source was. The `QUIET` instance ([`Core::issue`]) writes the value
    /// and readiness only: no strike is pending and every flag is already
    /// clear.
    #[inline(always)]
    fn define<const QUIET: bool>(&mut self, dst: u8, value: i64, ready_at: u64, taint: bool) {
        let d = dst as usize;
        let (mut v, mut t) = (value, taint);
        if QUIET {
            debug_assert!(self.pending_datapath.is_none() && !taint);
        } else if let Some((bit, detectable)) = self.pending_datapath.take() {
            v ^= 1i64 << bit;
            t = t || detectable;
        }
        self.regs[d] = v;
        self.reg_ready[d] = ready_at;
        if !QUIET {
            self.parity_bad[d] = false;
            self.tainted[d] = t;
        }
    }

    /// Earliest pending or future error-detection instant. Verification and
    /// drains must never settle past this bound: a region whose verification
    /// point lies at or after a detection is not error-free.
    fn next_detection_bound(&self) -> u64 {
        let pending = self.pending_detect.first().map(|&(d, _)| d);
        let future = self.faults[self.next_fault..]
            .iter()
            .map(|f| f.strike_cycle + f.detect_latency)
            .min();
        match (pending, future) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => u64::MAX,
        }
    }

    /// Lazy verification, SB drain, CLQ/coloring rotation up to `now`
    /// (clamped so no region verifies at or past a pending detection).
    ///
    /// Called several times per issued instruction, so the common "nothing
    /// can verify or drain yet" case is a single compare against the cached
    /// next event time; [`Core::settle_slow`] does the real work and
    /// refreshes the cache.
    #[inline]
    fn settle(&mut self, now: u64) {
        if now < self.settle_due {
            return;
        }
        self.settle_slow(now);
    }

    fn settle_slow(&mut self, now: u64) {
        if !self.cfg.resilient {
            // The baseline core has nothing to settle, ever.
            self.settle_due = u64::MAX;
            return;
        }
        let now = now.min(self.next_detection_bound());
        while let Some(inst) = self.rbb.verify_next(now) {
            let vt = inst.end_cycle.expect("ended") + inst.wcdl;
            self.sb.mark_verified(inst.seq, vt);
            self.clq.on_region_verified(inst.seq);
            self.coloring.on_region_verified(inst.seq);
            self.emit(TraceEvent::RegionVerified {
                cycle: vt,
                seq: inst.seq,
            });
            if let Some(h) = self.hists.as_mut() {
                h.verify_latency.record(vt.saturating_sub(inst.start_cycle));
            }
        }
        let mut emptied = false;
        while let Some(e) = self.sb.drain_next(now) {
            emptied = true;
            self.release_and_note(e, now);
        }
        if emptied {
            self.emit(TraceEvent::SbOccupancy {
                cycle: now,
                entries: self.sb.len() as u32,
                seq: self.rbb.current_seq(),
            });
        }
        // Nothing settles again until the front region's verification point
        // passes or the front SB entry's release time arrives. The detection
        // bound is deliberately not part of this: it only clamps, so when no
        // event is due, a settle call is a no-op at any bound.
        let verify_due = self.rbb.earliest_verify_time().map_or(u64::MAX, |v| v + 1);
        let drain_due = self.sb.earliest_release().unwrap_or(u64::MAX);
        self.settle_due = verify_due.min(drain_due);
    }

    /// Release one SB entry, narrating the release (SbRelease, plus a
    /// CacheWriteback for data stores) and recording its SB residency.
    fn release_and_note(&mut self, e: SbEntry, now: u64) {
        let rel = e.release_at.unwrap_or(now);
        self.emit(TraceEvent::SbRelease {
            cycle: rel,
            seq: e.region_seq,
        });
        if let EntryKind::Data { addr } = e.kind {
            self.emit(TraceEvent::CacheWriteback {
                cycle: rel,
                addr,
                seq: e.region_seq,
            });
        }
        if let Some(h) = self.hists.as_mut() {
            h.sb_residency.record(rel.saturating_sub(e.issued_at));
        }
        self.release_entry(e, now);
    }

    fn release_entry(&mut self, e: SbEntry, now: u64) {
        match e.kind {
            EntryKind::Data { addr } => {
                self.memory.insert(addr, e.value);
                self.caches.touch(addr, now);
            }
            EntryKind::CkptFallback { reg } => {
                let color = self.coloring.verified_color(reg);
                self.ckpt_memory
                    .insert(turnpike_ir::ckpt_slot_addr(reg, color), e.value);
            }
        }
    }

    /// Apply strikes up to the current cycle; fire pending detections.
    fn process_faults(&mut self) {
        while self.next_fault < self.faults.len()
            && self.faults[self.next_fault].strike_cycle <= self.cycle
        {
            let f = self.faults[self.next_fault];
            self.next_fault += 1;
            self.emit(TraceEvent::Strike {
                cycle: f.strike_cycle,
            });
            // A strike lands in whatever region is running. Unprotected
            // regions have no parity/sensor hardware: the bit still flips,
            // but nothing is flagged and no detection is scheduled.
            let detects = self.region_flags().detects;
            match f.kind {
                FaultKind::RegisterParity { reg, bit } => {
                    let r = (reg % NUM_PHYS_REGS) as usize;
                    self.regs[r] ^= 1i64 << (bit % 64);
                    if detects {
                        self.parity_bad[r] = true;
                    }
                }
                FaultKind::Datapath { bit } => {
                    // Corrupt the most recently produced value: model as
                    // flipping the destination of the *next* defining
                    // instruction (the one in flight). Recorded as a pending
                    // datapath corruption applied at the next def.
                    self.pending_datapath = Some((bit % 64, detects));
                }
            }
            self.last_strike = Some(f.strike_cycle);
            if detects {
                self.pending_detect
                    .push((f.strike_cycle + f.detect_latency, f.strike_cycle));
                self.pending_detect.sort_unstable();
            }
        }
        while let Some(&(d, s)) = self.pending_detect.first() {
            if d <= self.cycle {
                self.pending_detect.remove(0);
                self.stats.sensor_detections += 1;
                if let Some(h) = self.hists.as_mut() {
                    h.detect_latency.record(d.saturating_sub(s));
                }
                self.trigger_recovery(d, d.max(self.cycle));
            } else {
                break;
            }
        }
    }

    /// `detect_at` is the instant the error was detected (the sensor
    /// interrupt time); `now` is the issue cycle at which the core notices,
    /// which can be later when the event-skip clock leapt over `detect_at`.
    /// Regions are only error-free if verified strictly before `detect_at` —
    /// settling to `now` would wrongly verify the struck region (its
    /// detection bound was just popped from the pending list).
    fn trigger_recovery(&mut self, detect_at: u64, now: u64) {
        self.stats.detections += 1;
        if !self.cfg.resilient {
            // Unprotected baseline: the corruption stands (potential SDC).
            self.emit(TraceEvent::Detection { cycle: now });
            return;
        }
        self.stats.recoveries += 1;
        // Verification strictly before the detection instant; everything
        // else (including the struck region) is squashed below. Settle
        // first so the timeline narrates pre-detection verifications
        // before the detection itself.
        self.settle(detect_at);
        self.emit(TraceEvent::Detection { cycle: now });
        self.sb.discard_unverified();
        // Entries already verified but still draining hold values the
        // recovery block may need (e.g. a just-verified checkpoint);
        // release them now, as hardware would read them through the SB.
        let (scheduled, _) = self.sb.drain_all_scheduled();
        for e in scheduled {
            self.release_and_note(e, now);
        }
        let target = self.rbb.recover(now);
        self.coloring.on_squash(target.seq);
        self.clq.on_recovery();
        // Clear corruption flags: restored registers are rewritten; dead
        // ones are guaranteed to be written before read. A struck dead
        // register keeps its flipped value, which is why the early-exit
        // probe compares live registers only (`Core::attach_replay`).
        self.parity_bad = [false; NUM_PHYS_REGS as usize];
        self.tainted = [false; NUM_PHYS_REGS as usize];
        self.pending_datapath = None;
        // Drop detections already satisfied by this recovery (all strikes
        // so far are cured by the rollback).
        self.pending_detect
            .retain(|&(d, _)| d > now + self.cfg.wcdl);
        // Recovery rebuilt the RBB and SB fronts.
        self.settle_due = 0;
        // Execute the recovery block functionally, charging its cycles.
        let mut cost = self.cfg.recovery_flush_cycles;
        if let Some(block) = self.program.recovery.get(&target.static_id) {
            for &inst in &block.insts {
                cost += match decode(inst).kind {
                    DKind::Load {
                        dst,
                        addr,
                        ckpt_slot,
                    } => {
                        let a = self.dresolve(addr);
                        let mem = if ckpt_slot {
                            &self.ckpt_memory
                        } else {
                            &self.memory
                        };
                        self.regs[dst as usize] = mem.get(a).unwrap_or(0);
                        self.cfg.l1_hit
                    }
                    DKind::Bin {
                        op, dst, lhs, rhs, ..
                    } => {
                        self.regs[dst as usize] = op.eval(self.regs[lhs as usize], self.dread(rhs));
                        1
                    }
                    DKind::Cmp { op, dst, lhs, rhs } => {
                        self.regs[dst as usize] = op.eval(self.regs[lhs as usize], self.dread(rhs));
                        1
                    }
                    DKind::Mov { dst, src } => {
                        self.regs[dst as usize] = self.dread(src);
                        1
                    }
                    _ => 1,
                };
            }
        }
        self.stats.recovery_cycles += cost;
        if let Some(h) = self.hists.as_mut() {
            h.recovery_penalty.record(cost);
        }
        self.cycle = now + cost;
        self.fetch_ready = self.cycle;
        self.slots_left = self.cfg.issue_width;
        self.mem_left = 1;
        self.reg_ready = [self.cycle; NUM_PHYS_REGS as usize];
        self.pc = target.entry_pc as u64;
        self.emit(TraceEvent::Recovery {
            cycle: now,
            target_seq: target.seq,
            resume_pc: target.entry_pc,
        });
    }

    /// Advance the issue clock to at least `t`, accounting the stall to
    /// `account` when the wait exceeds the natural slot progression.
    fn wait_until(&mut self, t: u64, account: StallCause) {
        if t > self.cycle {
            let gap = t - self.cycle;
            let kind = match account {
                StallCause::None => None,
                StallCause::SbFull => {
                    self.stats.stall_sb_full += gap;
                    Some(StallKind::SbFull)
                }
                StallCause::Data { is_ckpt } => {
                    self.stats.stall_data_hazard += gap;
                    if is_ckpt {
                        self.stats.stall_ckpt_hazard += gap;
                    }
                    Some(if is_ckpt {
                        StallKind::CkptHazard
                    } else {
                        StallKind::DataHazard
                    })
                }
                StallCause::MemPort => {
                    self.stats.stall_mem_port += gap;
                    Some(StallKind::MemPort)
                }
                StallCause::RbbFull => {
                    self.stats.stall_rbb_full += gap;
                    Some(StallKind::RbbFull)
                }
            };
            if let Some(kind) = kind {
                self.emit(TraceEvent::Stall {
                    cycle: self.cycle,
                    pc: self.pc as u32,
                    seq: self.rbb.current_seq(),
                    kind,
                    cycles: gap,
                });
            }
            self.cycle = t;
            self.slots_left = self.cfg.issue_width;
            self.mem_left = 1;
            self.settle(self.cycle);
        }
    }

    /// Consume an issue slot (advancing the clock when the cycle is full).
    fn take_slot(&mut self, is_mem: bool) {
        if self.slots_left == 0 || (is_mem && self.mem_left == 0) {
            self.cycle += 1;
            self.slots_left = self.cfg.issue_width;
            self.mem_left = 1;
            self.settle(self.cycle);
        }
        self.slots_left -= 1;
        if is_mem {
            self.mem_left -= 1;
        }
    }

    /// Protection switches for a static region, defaulting out-of-range ids
    /// (region 0 of a region-free program, the pseudo-boundary closing the
    /// final region) to the config's own switches.
    #[inline]
    fn flags_for(&self, id: RegionId) -> ModeFlags {
        self.mode_flags
            .get(id.index())
            .copied()
            .unwrap_or_else(|| ModeFlags::for_mode(ProtectionMode::Turnpike, &self.cfg))
    }

    /// Protection switches of the running region.
    #[inline]
    fn region_flags(&self) -> ModeFlags {
        self.flags_for(self.rbb.current().static_id)
    }

    /// Pass a region boundary (resilient cores only): allocate an RBB
    /// instance, stalling for room if needed. Returns `Ok(false)` when the
    /// stall ran into an error detection — the marker is abandoned and
    /// re-executed after recovery.
    fn exec_boundary(&mut self, id: turnpike_isa::RegionId) -> Result<bool, SimError> {
        if !self.rbb.has_room() {
            // Stall until the oldest region verifies.
            let t = self
                .rbb
                .earliest_verify_time()
                .map(|v| v + 1)
                .unwrap_or(self.cycle + 1)
                .max(self.cycle + 1);
            let bound = self.next_detection_bound();
            if bound <= t {
                self.wait_until(bound.max(self.cycle), StallCause::RbbFull);
                self.process_faults();
                return Ok(false);
            }
            self.wait_until(t, StallCause::RbbFull);
            self.settle(self.cycle);
            if !self.rbb.has_room() {
                return Err(SimError::StoreDeadlock { cycle: self.cycle });
            }
        }
        // Boundaries are PC markers, not executed operations:
        // the RBB allocates as the marker passes commit, without
        // consuming an issue slot (their cost is code size and
        // RBB occupancy).
        let prior_all_verified = self.rbb.unverified_count() <= 1;
        let wcdl = self.flags_for(id).wcdl;
        self.rbb
            .on_boundary(id, self.pc as u32 + 1, self.cycle, wcdl);
        // The ended region gives the RBB front a verification
        // point the cached settle time doesn't know about.
        self.settle_due = 0;
        let seq = self.rbb.current_seq();
        self.clq.on_region_start(seq, prior_all_verified);
        self.stats.boundaries += 1;
        self.emit(TraceEvent::RegionStart {
            cycle: self.cycle,
            seq,
        });
        Ok(true)
    }

    fn count_inst(&mut self) {
        self.stats.insts += 1;
        if self.cfg.resilient {
            self.rbb.count_inst();
        }
    }

    /// A parity/hardened-path check caught a corrupted value at access
    /// time. Detection latency is attributed to the most recent strike
    /// (exact for single-strike plans; an approximation when several
    /// strikes overlap one access window).
    fn note_parity_detection(&mut self) {
        self.stats.parity_detections += 1;
        if let Some(h) = self.hists.as_mut() {
            let lat = self.last_strike.map_or(0, |s| self.cycle.saturating_sub(s));
            h.detect_latency.record(lat);
        }
    }

    fn do_store(&mut self, a: u64, value: i64) -> Result<bool, SimError> {
        if !self.cfg.resilient {
            self.take_slot(true);
            self.memory.insert(a, value);
            self.caches.touch(a, self.cycle);
            return Ok(true);
        }
        let seq = self.rbb.current_seq();
        let flags = self.region_flags();
        // Unprotected region: release straight to memory when provably
        // safe — every older region has verified (a verified region's
        // window already cleared every detection that could roll execution
        // back before this region, and strikes *inside* this region are
        // never detected, so no rollback can reach this store again) and
        // no older gated store to the same address would drain over it.
        // Otherwise fall through to the quarantine path; the region's
        // zero-length window releases the entry at region end anyway.
        if !flags.gate_stores && self.rbb.unverified_count() <= 1 && !self.sb.has_pending_data(a) {
            self.take_slot(true);
            self.memory.insert(a, value);
            self.caches.touch(a, self.cycle);
            return Ok(true);
        }
        // WAR-free fast release? Blocked when an older store to the same
        // address is still gated: releasing past it would reorder the
        // store stream (the gated entry drains over the newer value).
        if flags.war_free && !self.sb.has_pending_data(a) {
            let war_free = self.clq.check_war_free(a, seq);
            self.emit(TraceEvent::ClqCheck {
                cycle: self.cycle,
                addr: a,
                seq,
                war_free,
            });
            if war_free {
                self.take_slot(true);
                self.memory.insert(a, value);
                self.caches.touch(a, self.cycle);
                self.stats.war_free_released += 1;
                self.emit(TraceEvent::WarFreeRelease {
                    cycle: self.cycle,
                    addr: a,
                });
                return Ok(true);
            }
        }
        // Quarantine: may need to stall for a slot.
        let kind = EntryKind::Data { addr: a };
        self.quarantine(kind, value, seq)
    }

    fn do_ckpt(&mut self, reg: u8, value: i64) -> Result<bool, SimError> {
        if !self.cfg.resilient {
            self.take_slot(true);
            self.ckpt_memory
                .insert(turnpike_ir::ckpt_slot_addr(reg, 0), value);
            return Ok(true);
        }
        let seq = self.rbb.current_seq();
        // Checkpoints keep the protected path in every mode (coloring or
        // quarantine): releasing a checkpoint straight into the verified
        // slot would clobber the value a neighboring protected region's
        // recovery restores from (the unsafe-checkpoint problem).
        if self.region_flags().coloring {
            if let Some(color) = self.coloring.try_assign(reg, seq) {
                self.take_slot(true);
                self.ckpt_memory
                    .insert(turnpike_ir::ckpt_slot_addr(reg, color), value);
                self.stats.colored_released += 1;
                self.emit(TraceEvent::ColoredRelease {
                    cycle: self.cycle,
                    reg,
                    color,
                });
                return Ok(true);
            }
        }
        self.quarantine(EntryKind::CkptFallback { reg }, value, seq)
    }

    /// Quarantine a store, stalling for a slot. Returns `false` when the
    /// stall ran into an error detection: the instruction is abandoned and
    /// re-executed after recovery.
    fn quarantine(&mut self, kind: EntryKind, value: i64, seq: u64) -> Result<bool, SimError> {
        // Stall while the SB is full and the store cannot coalesce.
        let mut guard = 0;
        while self.sb.is_full() && !self.sb.can_coalesce(kind, seq) {
            let t = match self.sb.earliest_release() {
                Some(t) => t.max(self.cycle) + 1,
                None => {
                    // Oldest entry's region not yet verified: wait for its
                    // verification (it must have ended, else deadlock).
                    match self.rbb.earliest_verify_time() {
                        Some(v) => v.max(self.cycle) + 1,
                        None => return Err(SimError::StoreDeadlock { cycle: self.cycle }),
                    }
                }
            };
            let bound = self.next_detection_bound();
            if bound <= t {
                self.wait_until(bound.max(self.cycle), StallCause::SbFull);
                self.process_faults();
                return Ok(false);
            }
            self.wait_until(t, StallCause::SbFull);
            guard += 1;
            if guard > 1_000_000 {
                return Err(SimError::StoreDeadlock { cycle: self.cycle });
            }
        }
        self.take_slot(true);
        self.sb.push(kind, value, seq, self.cycle);
        self.stats.quarantined += 1;
        if self.sink.is_some() {
            self.emit_to_sink(TraceEvent::Quarantined {
                cycle: self.cycle,
                seq,
            });
            self.emit_to_sink(TraceEvent::SbOccupancy {
                cycle: self.cycle,
                entries: self.sb.len() as u32,
                seq,
            });
        }
        Ok(true)
    }

    fn finish(&mut self, ret: Option<i64>) -> Result<SimOutcome, SimError> {
        // Verification tail: the last region ends at program completion and
        // verifies WCDL later; everything drains.
        let mut end = self.cycle;
        if self.cfg.resilient {
            // Close the running region so it can verify, waiting out the
            // RBB if older regions are still in their WCDL windows.
            let mut t = self.cycle;
            while !self.rbb.has_room() {
                t = self
                    .rbb
                    .earliest_verify_time()
                    .map(|v| v + 1)
                    .unwrap_or(t + 1)
                    .max(t + 1);
                self.settle(t);
            }
            // The pseudo-boundary closing the final region is out of range
            // for the mode table, so the tail conservatively waits out the
            // config's full window (an upper bound on any region's WCDL).
            self.rbb.on_boundary(
                turnpike_isa::RegionId(u32::MAX),
                self.pc as u32,
                t,
                self.cfg.wcdl,
            );
            self.settle_due = 0;
            let tail = t + self.cfg.wcdl + 1;
            self.settle(tail + self.sb.len() as u64 + 2);
            let (rest, last) = self.sb.drain_all_scheduled();
            for e in rest {
                self.release_and_note(e, last);
            }
            end = end.max(tail).max(last);
            debug_assert!(self.sb.is_empty(), "all stores must drain at exit");
        }
        self.stats.cycles = end;
        self.stats.avg_region_insts = self.rbb.avg_region_insts();
        self.stats.clq = self.clq.stats();
        self.stats.cache = self.caches.stats();
        self.stats.sb_peak = self.sb.peak;
        self.stats.sb_coalesced = self.sb.coalesced;
        self.stats.sb_discarded = self.sb.discarded;
        self.stats.rbb_insts_sum = self.rbb.insts_sum;
        self.stats.rbb_completed = self.rbb.completed;
        self.stats.hists = self.hists.take();
        Ok(SimOutcome {
            ret,
            memory: std::mem::take(&mut self.memory),
            ckpt_memory: std::mem::take(&mut self.ckpt_memory),
            stats: std::mem::take(&mut self.stats),
            replay_saved: None,
            replay_census: self.census,
        })
    }
}

/// What [`Core::issue`] did with one instruction.
enum Issued {
    /// Issued; the PC moved on (to the next instruction or a branch target).
    Next,
    /// A check or a stall ran into an error detection: recovery moved the
    /// PC, and the instruction runs again after the recovery block.
    Redirected,
    /// The program returned this value.
    Ret(Option<i64>),
}

/// Stall attribution for the accounting in [`SimStats`].
#[derive(Debug, Clone, Copy)]
enum StallCause {
    None,
    SbFull,
    Data { is_ckpt: bool },
    MemPort,
    RbbFull,
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnpike_ir::{BinOp, CmpOp, DataSegment};
    use turnpike_isa::{MOperand, MachAddr, MachInst, PhysReg};

    fn r(i: u8) -> PhysReg {
        PhysReg::new(i).unwrap()
    }

    /// store-heavy loop: st to A[i], i++ until 8, with boundaries.
    fn store_loop(with_regions: bool) -> MachProgram {
        let mut insts = vec![MachInst::Mov {
            dst: r(1),
            src: MOperand::Imm(0),
        }];
        let loop_start = insts.len() as u32;
        if with_regions {
            insts.push(MachInst::RegionBoundary { id: RegionId(1) });
        }
        insts.extend([
            MachInst::Bin {
                op: BinOp::Shl,
                dst: r(2),
                lhs: r(1),
                rhs: MOperand::Imm(3),
            },
            MachInst::Bin {
                op: BinOp::Add,
                dst: r(2),
                lhs: r(2),
                rhs: MOperand::Reg(r(0)),
            },
            MachInst::Store {
                src: MOperand::Reg(r(1)),
                addr: MachAddr::RegOffset(r(2), 0),
            },
            MachInst::Bin {
                op: BinOp::Add,
                dst: r(1),
                lhs: r(1),
                rhs: MOperand::Imm(1),
            },
            MachInst::Ckpt { reg: r(1) },
            MachInst::Cmp {
                op: CmpOp::Lt,
                dst: r(3),
                lhs: r(1),
                rhs: MOperand::Imm(8),
            },
            MachInst::BranchNz {
                cond: r(3),
                target: loop_start,
            },
            MachInst::Ret {
                value: Some(MOperand::Reg(r(1))),
            },
        ]);
        let mut p = MachProgram::from_insts("loop", insts, DataSegment::zeroed(0x1000, 8));
        p.reg_init = vec![(r(0), 0x1000)];
        if with_regions {
            // Recovery metadata the compiler would emit: region 0 restores
            // the program input; region 1 additionally restores the
            // loop-carried counter.
            use turnpike_isa::RecoveryBlock;
            let load = |reg| MachInst::Load {
                dst: reg,
                addr: MachAddr::CkptSlot(reg),
            };
            p.recovery.insert(
                RegionId(0),
                RecoveryBlock {
                    insts: vec![load(r(0))],
                },
            );
            p.recovery.insert(
                RegionId(1),
                RecoveryBlock {
                    insts: vec![load(r(0)), load(r(1))],
                },
            );
        }
        p
    }

    #[test]
    fn baseline_runs_and_matches_functional_interp() {
        let p = store_loop(false);
        let golden = turnpike_isa::interp::run(&p, &Default::default()).unwrap();
        let out = Core::new(&p, SimConfig::baseline())
            .run(&FaultPlan::none())
            .unwrap();
        assert_eq!(out.ret, golden.ret);
        assert_eq!(out.memory.to_btree(), golden.memory);
        assert!(out.stats.cycles > 0);
        assert!(out.stats.ipc() > 0.1);
    }

    #[test]
    fn turnstile_matches_functionally_but_runs_slower() {
        let p = store_loop(true);
        let base = Core::new(&p, SimConfig::baseline())
            .run(&FaultPlan::none())
            .unwrap();
        let ts = Core::new(&p, SimConfig::turnstile(4, 30))
            .run(&FaultPlan::none())
            .unwrap();
        assert_eq!(ts.ret, base.ret);
        assert_eq!(ts.memory, base.memory);
        assert!(
            ts.stats.cycles > base.stats.cycles,
            "quarantine must cost cycles ({} vs {})",
            ts.stats.cycles,
            base.stats.cycles
        );
        assert!(ts.stats.quarantined > 0);
        assert!(ts.stats.boundaries > 0);
    }

    #[test]
    fn turnpike_bypasses_and_beats_turnstile() {
        let p = store_loop(true);
        let ts = Core::new(&p, SimConfig::turnstile(4, 30))
            .run(&FaultPlan::none())
            .unwrap();
        let tp = Core::new(&p, SimConfig::turnpike(4, 30))
            .run(&FaultPlan::none())
            .unwrap();
        assert_eq!(tp.ret, ts.ret);
        assert_eq!(tp.memory, ts.memory);
        assert!(
            tp.stats.war_free_released > 0,
            "stores to fresh addresses are WAR-free"
        );
        assert!(tp.stats.colored_released > 0, "ckpts take the colored path");
        assert!(
            tp.stats.cycles <= ts.stats.cycles,
            "turnpike must not be slower ({} vs {})",
            tp.stats.cycles,
            ts.stats.cycles
        );
    }

    #[test]
    fn wcdl_scaling_hurts_turnstile_more() {
        let p = store_loop(true);
        let t10 = Core::new(&p, SimConfig::turnstile(4, 10))
            .run(&FaultPlan::none())
            .unwrap();
        let t50 = Core::new(&p, SimConfig::turnstile(4, 50))
            .run(&FaultPlan::none())
            .unwrap();
        assert!(t50.stats.cycles > t10.stats.cycles);
        let p10 = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(&FaultPlan::none())
            .unwrap();
        let p50 = Core::new(&p, SimConfig::turnpike(4, 50))
            .run(&FaultPlan::none())
            .unwrap();
        let ts_growth = t50.stats.cycles as f64 / t10.stats.cycles as f64;
        let tp_growth = p50.stats.cycles as f64 / p10.stats.cycles as f64;
        assert!(
            tp_growth <= ts_growth + 1e-9,
            "turnpike should scale no worse with WCDL ({tp_growth} vs {ts_growth})"
        );
    }

    #[test]
    fn parity_fault_recovers_without_sdc() {
        let p = store_loop(true);
        let golden = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(&FaultPlan::none())
            .unwrap();
        for cycle in [3, 10, 25, 40] {
            let plan = FaultPlan::new(vec![Fault {
                strike_cycle: cycle,
                detect_latency: 5,
                kind: FaultKind::RegisterParity { reg: 1, bit: 3 },
            }]);
            let out = Core::new(&p, SimConfig::turnpike(4, 10))
                .run(&plan)
                .unwrap();
            assert_eq!(out.ret, golden.ret, "strike at {cycle}");
            assert_eq!(out.memory, golden.memory, "strike at {cycle}");
            assert!(out.stats.recoveries >= 1);
            assert!(out.stats.cycles >= golden.stats.cycles);
        }
    }

    #[test]
    fn datapath_fault_recovers_without_sdc() {
        let p = store_loop(true);
        let golden = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(&FaultPlan::none())
            .unwrap();
        for cycle in [2, 7, 19, 33] {
            let plan = FaultPlan::new(vec![Fault {
                strike_cycle: cycle,
                detect_latency: 9,
                kind: FaultKind::Datapath { bit: 17 },
            }]);
            let out = Core::new(&p, SimConfig::turnpike(4, 10))
                .run(&plan)
                .unwrap();
            assert_eq!(out.ret, golden.ret, "strike at {cycle}");
            assert_eq!(out.memory, golden.memory, "strike at {cycle}");
        }
    }

    #[test]
    fn unprotected_baseline_can_corrupt() {
        // The same fault on the baseline core is not recovered; it may (and
        // with this plan, does) produce a different result — the SDC that
        // the resilient configurations must never show.
        let p = store_loop(false);
        let golden = Core::new(&p, SimConfig::baseline())
            .run(&FaultPlan::none())
            .unwrap();
        let plan = FaultPlan::new(vec![Fault {
            strike_cycle: 4,
            detect_latency: 5,
            kind: FaultKind::RegisterParity { reg: 1, bit: 40 },
        }]);
        let out = Core::new(&p, SimConfig::baseline()).run(&plan).unwrap();
        assert!(
            out.memory != golden.memory || out.ret != golden.ret,
            "baseline has no recovery: corruption must be visible"
        );
    }

    #[test]
    fn fault_beyond_wcdl_is_rejected() {
        let p = store_loop(true);
        let plan = FaultPlan::new(vec![Fault {
            strike_cycle: 1,
            detect_latency: 99,
            kind: FaultKind::Datapath { bit: 1 },
        }]);
        let err = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(&plan)
            .unwrap_err();
        assert_eq!(err, SimError::BadFaultPlan);
    }

    #[test]
    fn resumed_core_rejects_strikes_at_or_before_the_fork_point_and_beyond_wcdl() {
        let p = store_loop(true);
        let cfg = SimConfig::turnpike(4, 10);
        let (golden, snaps) = Core::new(&p, cfg.clone())
            .run_collecting_snapshots(&FaultPlan::none(), 8)
            .unwrap();
        let snap = snaps.last().expect("the loop outlives one interval");
        let strike = |strike_cycle, detect_latency| {
            FaultPlan::new(vec![Fault {
                strike_cycle,
                detect_latency,
                kind: FaultKind::Datapath { bit: 1 },
            }])
        };
        for at in [0, snap.cycle()] {
            let err = Core::from_snapshot(&p, snap)
                .run(&strike(at, 5))
                .unwrap_err();
            assert_eq!(err, SimError::BadFaultPlan, "strike at {at}");
        }
        let err = Core::from_snapshot(&p, snap)
            .run(&strike(snap.cycle() + 1, 99))
            .unwrap_err();
        assert_eq!(err, SimError::BadFaultPlan);
        // A strike strictly after the fork point resumes to the
        // from-scratch outcome, and a fault-free resume to the golden one.
        let plan = strike(snap.cycle() + 1, 5);
        let scratch = Core::new(&p, cfg).run(&plan).unwrap();
        assert_eq!(Core::from_snapshot(&p, snap).run(&plan).unwrap(), scratch);
        let resumed = Core::from_snapshot(&p, snap)
            .run(&FaultPlan::none())
            .unwrap();
        assert_eq!(resumed, golden);
    }

    /// The early-exit prefilter compares exactly the registers live-in at
    /// the probe PC. Resumed from a golden snapshot with one register
    /// flipped, a run must exit at once when the register is dead there,
    /// and must never exit when it is live — its outcome then equals the
    /// unguided run's, which differs from the golden one.
    #[test]
    fn replay_prefilter_compares_live_registers_only() {
        const LIVE: usize = 1; // the loop counter
        const DEAD: usize = 7; // never touched by the program
        let p = store_loop(true);
        let (golden, snaps) = Core::new(&p, SimConfig::turnpike(4, 10))
            .run_collecting_snapshots(&FaultPlan::none(), 4)
            .unwrap();
        let guide = ReplayGuide::new(&p, &snaps, &golden.stats, golden.ret);
        let live = p.live_in();
        let snap = snaps
            .iter()
            .find(|s| live[s.pc as usize] & (1 << LIVE) != 0)
            .expect("a capture inside the loop");
        assert_eq!(live[snap.pc as usize] & (1 << DEAD), 0);
        let resume = |reg: usize, guided: bool| {
            let mut core = Core::from_snapshot(&p, snap);
            core.regs[reg] ^= 1 << 40;
            if guided {
                core.attach_replay(&guide);
            }
            core.run(&FaultPlan::none()).unwrap()
        };

        let unguided = resume(LIVE, false);
        assert_ne!(unguided.ret, golden.ret, "the flip must matter");
        let guided = resume(LIVE, true);
        assert_eq!(guided.replay_saved, None, "exited on a live mismatch");
        assert_eq!(guided, unguided);
        assert!(guided.replay_census.never_matched);

        let exited = resume(DEAD, true);
        assert!(
            exited.replay_saved.is_some(),
            "a dead register blocked the exit"
        );
        assert_eq!(exited.ret, golden.ret);
        assert_eq!(exited.stats.cycles, golden.stats.cycles);
    }

    #[test]
    fn store_to_load_forwarding_from_quarantine() {
        // A load of a quarantined (not yet released) address must see the
        // pending value.
        let insts = vec![
            MachInst::Mov {
                dst: r(1),
                src: MOperand::Imm(42),
            },
            MachInst::Store {
                src: MOperand::Reg(r(1)),
                addr: MachAddr::Abs(0x1000),
            },
            MachInst::Load {
                dst: r(2),
                addr: MachAddr::Abs(0x1000),
            },
            MachInst::Ret {
                value: Some(MOperand::Reg(r(2))),
            },
        ];
        let p = MachProgram::from_insts("fwd", insts, DataSegment::zeroed(0x1000, 1));
        // Turnstile: store sits in the SB; the load still returns 42.
        let out = Core::new(&p, SimConfig::turnstile(4, 50))
            .run(&FaultPlan::none())
            .unwrap();
        assert_eq!(out.ret, Some(42));
        assert_eq!(out.memory.get(0x1000), Some(42));
    }
}
