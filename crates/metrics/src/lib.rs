//! Unified metrics spine for the Turnpike reproduction.
//!
//! Every layer of the stack — compiler passes, the cycle-level simulator,
//! the recovery controller, fault campaigns — records its statistics into
//! one shared registry type, [`MetricSet`], keyed by the closed enums
//! [`Counter`] (integer event counts) and [`Gauge`] (floating-point point
//! samples). The evaluation harness reads figures out of the same registry
//! by key instead of reaching into per-layer stat structs.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap in the hot loop.** Keys are dense enum discriminants and a
//!    [`MetricSet`] is a pair of fixed arrays, so [`MetricSet::add`] is an
//!    indexed integer add — no hashing, no allocation, no locks.
//! 2. **Mergeable across runs.** [`MetricSet::merge`] folds one run's
//!    metrics into an accumulator under each key's [`MergePolicy`]
//!    (campaign reports are exactly this fold), and
//!    [`MetricSet::delta_since`] recovers per-phase contributions (the
//!    pass manager uses it for per-pass attribution).
//! 3. **One schema.** The key enums are the single catalogue of everything
//!    the stack measures; adding a metric means adding a variant here, and
//!    every consumer can enumerate the catalogue via [`Counter::ALL`].
//!
//! The [`telemetry`] module builds the *observer* layer on top: streaming
//! rate estimation with Wilson confidence bounds, windowed throughput, a
//! bounded reservoir sampler, and Prometheus-style text exposition of a
//! [`MetricSet`]. The [`json`] module is the one JSON layer every crate
//! renders its documents through (reports, payloads, wire lines, traces).

use std::fmt;

pub mod json;
pub mod telemetry;

pub use json::Json;
pub use telemetry::{prometheus_text, RateEstimator, Reservoir, ThroughputMeter};

/// How two samples of the same counter combine under [`MetricSet::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Event counts: occurrences add up across runs/phases.
    Sum,
    /// High-water marks: the combined value is the larger observation.
    Max,
}

macro_rules! counters {
    ($( $(#[$meta:meta])* $variant:ident => ($name:literal, $policy:ident), )+) => {
        /// Integer metric keys, the closed catalogue of event counters the
        /// stack records. Dotted names namespace the producing layer
        /// (`compile.*`, `sim.*`, `sim.clq.*`, `sim.cache.*`, `campaign.*`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $( $(#[$meta])* $variant, )+
        }

        impl Counter {
            /// Every counter key, in declaration order.
            pub const ALL: &'static [Counter] = &[ $(Counter::$variant,)+ ];

            /// The dotted string name (stable; used for display and JSON).
            pub fn name(self) -> &'static str {
                match self { $(Counter::$variant => $name,)+ }
            }

            /// How samples of this counter combine across runs.
            pub fn merge_policy(self) -> MergePolicy {
                match self { $(Counter::$variant => MergePolicy::$policy,)+ }
            }
        }
    };
}

counters! {
    // — compiler passes —
    /// Checkpoints present after eager insertion (before pruning/LICM).
    CkptsInserted => ("compile.ckpts_inserted", Sum),
    /// Checkpoints removed by optimal pruning.
    CkptsPruned => ("compile.ckpts_pruned", Sum),
    /// Net checkpoints removed by LICM loop-exit sinking.
    CkptsLicmRemoved => ("compile.ckpts_licm_removed", Sum),
    /// Checkpoints shed because no protected region's recovery reads them
    /// (per-region protection policies only).
    CkptsShed => ("compile.ckpts_shed", Sum),
    /// Spill stores emitted by register allocation.
    SpillStores => ("compile.spill_stores", Sum),
    /// Spill reload loads emitted by register allocation.
    SpillLoads => ("compile.spill_loads", Sum),
    /// Virtual registers spilled.
    SpilledVregs => ("compile.spilled_vregs", Sum),
    /// Loop induction variables merged away by LIVM.
    IvsMerged => ("compile.ivs_merged", Sum),
    /// Region boundaries in the final code.
    Boundaries => ("compile.boundaries", Sum),
    /// Extra boundary-splitting fixpoint iterations taken.
    SplitIterations => ("compile.split_iterations", Sum),
    /// Machine instructions in the final program.
    FinalInsts => ("compile.final_insts", Sum),
    /// Machine instructions of a resilience-free compile of the same
    /// function (the code-size denominator).
    BaselineInsts => ("compile.baseline_insts", Sum),

    // — simulator core —
    /// Total cycles (including the verification/drain tail).
    Cycles => ("sim.cycles", Sum),
    /// Dynamic instructions committed (recovery re-execution included).
    Insts => ("sim.insts", Sum),
    /// Cycles lost waiting for a free store buffer slot.
    StallSbFull => ("sim.stall.sb_full", Sum),
    /// Cycles lost waiting on register operands.
    StallDataHazard => ("sim.stall.data_hazard", Sum),
    /// Data-hazard cycles where the stalled instruction was a checkpoint.
    StallCkptHazard => ("sim.stall.ckpt_hazard", Sum),
    /// Cycles lost to the single memory port.
    StallMemPort => ("sim.stall.mem_port", Sum),
    /// Cycles lost waiting for RBB room at a boundary.
    StallRbbFull => ("sim.stall.rbb_full", Sum),
    /// Cycles spent in recovery (flush + recovery block execution).
    RecoveryCycles => ("sim.recovery_cycles", Sum),
    /// Dynamic loads.
    Loads => ("sim.loads", Sum),
    /// Dynamic regular stores.
    Stores => ("sim.stores", Sum),
    /// Dynamic checkpoint stores.
    Ckpts => ("sim.ckpts", Sum),
    /// Regular stores fast-released via the WAR-free path.
    WarFreeReleased => ("sim.war_free_released", Sum),
    /// Checkpoints fast-released via coloring.
    ColoredReleased => ("sim.colored_released", Sum),
    /// Stores (regular + checkpoint) quarantined in the SB.
    Quarantined => ("sim.quarantined", Sum),
    /// Quarantined stores that coalesced into an existing SB entry.
    SbCoalesced => ("sim.sb_coalesced", Sum),
    /// SB entries discarded (squashed) by error recovery.
    SbDiscarded => ("sim.sb_discarded", Sum),
    /// Region boundaries committed.
    RegionsCommitted => ("sim.boundaries", Sum),
    /// Errors detected (sensor or parity).
    Detections => ("sim.detections", Sum),
    /// Detections raised by register parity / hardened-path checks.
    ParityDetections => ("sim.parity_detections", Sum),
    /// Detections raised by the acoustic sensor (WCDL-bounded).
    SensorDetections => ("sim.sensor_detections", Sum),
    /// Recoveries executed by the recovery controller.
    Recoveries => ("sim.recoveries", Sum),
    /// Peak store-buffer occupancy.
    SbPeak => ("sim.sb_peak", Max),

    // — committed load queue —
    /// Regular stores checked against the CLQ.
    ClqStoresChecked => ("sim.clq.stores_checked", Sum),
    /// Stores proven WAR-free (fast released).
    ClqWarFree => ("sim.clq.war_free", Sum),
    /// Loads recorded in the CLQ.
    ClqLoadsRecorded => ("sim.clq.loads_recorded", Sum),
    /// CLQ overflows (compact design only).
    ClqOverflows => ("sim.clq.overflows", Sum),
    /// Sum of entry occupancy sampled at each load.
    ClqOccupancySum => ("sim.clq.occupancy_sum", Sum),
    /// Occupancy samples taken.
    ClqOccupancySamples => ("sim.clq.occupancy_samples", Sum),
    /// Peak CLQ entries populated.
    ClqPeakEntries => ("sim.clq.peak_entries", Max),

    // — cache hierarchy —
    /// L1 data cache hits.
    L1Hits => ("sim.cache.l1_hits", Sum),
    /// L1 data cache misses.
    L1Misses => ("sim.cache.l1_misses", Sum),
    /// L2 cache hits.
    L2Hits => ("sim.cache.l2_hits", Sum),
    /// L2 cache misses.
    L2Misses => ("sim.cache.l2_misses", Sum),

    // — fault campaigns —
    /// Injected runs executed.
    CampaignRuns => ("campaign.runs", Sum),
    /// Runs whose final state differed from the fault-free run (SDC).
    CampaignSdc => ("campaign.sdc", Sum),
    /// Strikes that landed at or after program completion (no effect).
    CampaignPostCompletion => ("campaign.post_completion", Sum),
    CampaignHangs => ("campaign.hangs", Sum),
    /// Injected runs forked from a fault-free prefix snapshot.
    CampaignForkHits => ("campaign.fork_hits", Sum),
    /// Injected runs simulated from scratch (no usable snapshot).
    CampaignForkMisses => ("campaign.fork_misses", Sum),
    /// Fault-free prefix cycles skipped by forking (sum over forked runs).
    CampaignForkCyclesSaved => ("campaign.fork_cycles_saved", Sum),
    /// Strike runs that exited early by reconverging with the golden run.
    CampaignReplayExits => ("campaign.replay_exits", Sum),
    /// Post-convergence cycles skipped by early exit (sum over such runs).
    CampaignReplayCyclesSaved => ("campaign.replay_cycles_saved", Sum),
    /// Early-exit probes refused: fetch or register readiness differed.
    CampaignReplayRefusedReadiness => ("campaign.replay_refused.readiness", Sum),
    /// Early-exit probes refused: region boundary buffer differed.
    CampaignReplayRefusedRbb => ("campaign.replay_refused.rbb", Sum),
    /// Early-exit probes refused: gated store buffer differed.
    CampaignReplayRefusedSb => ("campaign.replay_refused.sb", Sum),
    /// Early-exit probes refused: checkpoint coloring differed.
    CampaignReplayRefusedColoring => ("campaign.replay_refused.coloring", Sum),
    /// Early-exit probes refused: CLQ signature differed.
    CampaignReplayRefusedClq => ("campaign.replay_refused.clq", Sum),
    /// Early-exit probes refused: L1 occupancy or tag set differed.
    CampaignReplayRefusedL1Tags => ("campaign.replay_refused.l1_tags", Sum),
    /// Early-exit probes refused: L1 slot order or LRU ranks differed.
    CampaignReplayRefusedL1Rank => ("campaign.replay_refused.l1_rank", Sum),
    /// Early-exit probes refused: L2 occupancy or tag set differed.
    CampaignReplayRefusedL2Tags => ("campaign.replay_refused.l2_tags", Sum),
    /// Early-exit probes refused: L2 slot order or LRU ranks differed.
    CampaignReplayRefusedL2Rank => ("campaign.replay_refused.l2_rank", Sum),
    /// Early-exit probes refused: data memory differed.
    CampaignReplayRefusedMemory => ("campaign.replay_refused.memory", Sum),
    /// Early-exit probes refused: checkpoint storage differed.
    CampaignReplayRefusedCkptMemory => ("campaign.replay_refused.ckpt_memory", Sum),
    /// Early-exit probes refused: a peak statistic was not synthesizable.
    CampaignReplayRefusedPeak => ("campaign.replay_refused.peak", Sum),
    /// Early-exit probes refused: a histogram was not synthesizable.
    CampaignReplayRefusedHistogram => ("campaign.replay_refused.histogram", Sum),
    /// Early-exit probes refused: the exit would overrun the cycle limit.
    CampaignReplayRefusedCycleLimit => ("campaign.replay_refused.cycle_limit", Sum),
    /// Strike runs whose refusals used up the whole probe budget.
    CampaignReplayBudgetExhausted => ("campaign.replay_budget_exhausted", Sum),
    /// Guided strike runs that never matched a golden snapshot's live
    /// registers.
    CampaignReplayNeverMatched => ("campaign.replay_never_matched", Sum),

    // — evaluation harness —
    /// Compile requests served from the engine's compile cache.
    BenchCompileHits => ("bench.compile_cache_hits", Sum),
    /// Compile requests that ran the compiler.
    BenchCompileMisses => ("bench.compile_cache_misses", Sum),
    /// Simulation requests served from the engine's run cache.
    BenchRunHits => ("bench.run_cache_hits", Sum),
    /// Simulation requests that ran the simulator.
    BenchRunMisses => ("bench.run_cache_misses", Sum),
    /// Figure tables generated.
    BenchFigures => ("bench.figures", Sum),

    // — serving layer —
    /// Jobs admitted into the server's work queue.
    ServeAccepted => ("serve.accepted", Sum),
    /// Jobs rejected by admission control (queue full).
    ServeRejected => ("serve.rejected", Sum),
    /// Jobs that completed and returned a result.
    ServeCompleted => ("serve.completed", Sum),
    /// Jobs that failed with an error.
    ServeFailed => ("serve.failed", Sum),
    /// Jobs canceled (per-job timeout or shutdown deadline).
    ServeCanceled => ("serve.canceled", Sum),
    /// Job results served from the persistent artifact store.
    ServeStoreHits => ("serve.store_hits", Sum),
    /// Job results computed because the artifact store had no entry.
    ServeStoreMisses => ("serve.store_misses", Sum),
    /// Corrupt artifact-store entries quarantined on read.
    ServeStoreQuarantined => ("serve.store_quarantined", Sum),
    /// Peak work-queue depth observed at admission.
    ServeQueuePeak => ("serve.queue_peak", Max),
    /// Microseconds workers spent executing jobs (summed across the
    /// pool): with the server's uptime this yields worker utilization,
    /// the per-worker load signal of the `watch --workers` fleet view.
    ServeBusyMicros => ("serve.busy_us", Sum),
}

/// Floating-point metric keys (point samples, not event counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Average dynamic instructions per region (paper Fig 26).
    AvgRegionInsts,
}

impl Gauge {
    /// Every gauge key, in declaration order.
    pub const ALL: &'static [Gauge] = &[Gauge::AvgRegionInsts];

    /// The dotted string name (stable; used for display and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::AvgRegionInsts => "sim.avg_region_insts",
        }
    }
}

/// Latency-distribution metric keys. Unlike [`Counter`]s, which collapse a
/// run to one number, each histogram key retains the *shape* of a latency
/// population (the paper's claims are latency claims — SB residency,
/// detection latency, recovery penalty — and a mean hides the tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Cycles a quarantined store spent in the gated SB before draining.
    SbResidency,
    /// Cycles from region start to region verification (region length
    /// plus the WCDL epilogue plus any drain backpressure).
    VerifyLatency,
    /// Cycles from a particle strike to its detection (sensor or parity).
    DetectLatency,
    /// Cycles charged to one recovery (flush plus recovery-block
    /// re-execution).
    RecoveryPenalty,
    /// Wall-clock microseconds per compile in the evaluation harness.
    CompileMicros,
    /// Wall-clock microseconds per simulation in the evaluation harness.
    SimMicros,
    /// Wall-clock microseconds per served job, admission to final event
    /// (server side).
    ServeJobMicros,
    /// Microseconds a served job waited in the work queue before a worker
    /// picked it up.
    ServeQueueMicros,
}

impl Hist {
    /// Every histogram key, in declaration order.
    pub const ALL: &'static [Hist] = &[
        Hist::SbResidency,
        Hist::VerifyLatency,
        Hist::DetectLatency,
        Hist::RecoveryPenalty,
        Hist::CompileMicros,
        Hist::SimMicros,
        Hist::ServeJobMicros,
        Hist::ServeQueueMicros,
    ];

    /// The dotted string name (stable; used for display and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Hist::SbResidency => "sim.hist.sb_residency_cycles",
            Hist::VerifyLatency => "sim.hist.verify_latency_cycles",
            Hist::DetectLatency => "sim.hist.detect_latency_cycles",
            Hist::RecoveryPenalty => "sim.hist.recovery_penalty_cycles",
            Hist::CompileMicros => "bench.hist.compile_us",
            Hist::SimMicros => "bench.hist.sim_us",
            Hist::ServeJobMicros => "serve.hist.job_us",
            Hist::ServeQueueMicros => "serve.hist.queue_wait_us",
        }
    }
}

/// Number of counter keys (array dimension of [`MetricSet`]).
pub const NUM_COUNTERS: usize = Counter::ALL.len();
/// Number of gauge keys (array dimension of [`MetricSet`]).
pub const NUM_GAUGES: usize = Gauge::ALL.len();
/// Number of histogram keys (array dimension of [`MetricSet`]).
pub const NUM_HISTS: usize = Hist::ALL.len();

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`
/// range, plus a dedicated zero bucket.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed latency histogram.
///
/// Bucket 0 counts exact zeros; bucket `i >= 1` counts values in
/// `[2^(i-1), 2^i)`, so the 65 fixed buckets cover the whole `u64` range
/// with ~1 bit of relative precision — enough to separate "drained next
/// cycle" from "sat a full WCDL" without tuning bucket bounds per metric.
/// Recording is an increment plus a `leading_zeros`, cheap enough for the
/// simulator hot loop. Like counters, histograms are **merge-aware**
/// (bucket-wise add across runs; see [`Histogram::merge`]) and
/// **delta-aware** (bucket-wise subtract for per-phase attribution; see
/// [`Histogram::delta_since`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index `v` falls in: 0 for zero, else `64 - clz(v)`.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by bucket `i`
    /// (bucket 0 is the degenerate `[0, 1)`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether any sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside the
    /// containing bucket. Exact for values that share a bucket with no
    /// neighbours; within a factor of two otherwise. `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                // Interpolate across the *attainable* values of the bucket
                // — the closed range `[lo, hi - 1]` clamped to observed
                // extremes — so single-bucket histograms report the exact
                // value and `quantile(1.0)` is exactly `max`, never the
                // bucket's exclusive bound.
                let (lo, hi) = Self::bucket_range(i);
                let lo = lo.max(self.min) as f64;
                let hi = (hi - 1).min(self.max) as f64;
                let frac = (rank - seen as f64) / c as f64;
                return lo + (hi - lo).max(0.0) * frac.clamp(0.0, 1.0);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Fold `other`'s population into `self` (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `before` was captured (bucket-wise
    /// saturating subtract). `min`/`max` keep the current extremes — like
    /// `Max`-policy counters, extremes are not invertible.
    pub fn delta_since(&self, before: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (i, slot) in d.buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(before.buckets[i]);
        }
        d.count = self.count.saturating_sub(before.count);
        d.sum = self.sum.saturating_sub(before.sum);
        d.min = self.min;
        d.max = self.max;
        d
    }

    /// The histogram a run would hold after recording, on top of `self`,
    /// exactly the samples `to` gained since `from` — the synthesis step of
    /// the simulator's early-exit strike replay, where `self` is the strike
    /// run's histogram at its convergence point and `from`/`to` are the
    /// golden run's histogram at the matching snapshot and at completion.
    ///
    /// Buckets, `count`, and `sum` are exact by construction (the future
    /// sample population is `to - from`, bucket-wise). The extremes are
    /// returned only when they are provably exact, else `None` and the
    /// caller must refuse the shortcut:
    ///
    /// * no future samples: the extremes are `self`'s;
    /// * `self.min <= to.min`: every future sample is `>= to.min`;
    /// * `to.min < from.min`: the future population attains `to.min`;
    /// * symmetrically for `max`.
    pub fn extend_by_delta(&self, from: &Histogram, to: &Histogram) -> Option<Histogram> {
        let mut out = Histogram::new();
        for (i, slot) in out.buckets.iter_mut().enumerate() {
            *slot = self.buckets[i] + (to.buckets[i] - from.buckets[i]);
        }
        out.count = self.count + (to.count - from.count);
        out.sum = self.sum.saturating_add(to.sum - from.sum);
        if to.count == from.count {
            out.min = self.min;
            out.max = self.max;
        } else {
            // Raw fields on purpose: the empty sentinel (`min == u64::MAX`)
            // orders an empty `self` below nothing and an empty `from`
            // above everything, which is exactly the comparison needed.
            out.min = if self.min <= to.min {
                self.min
            } else if to.min < from.min {
                to.min
            } else {
                return None;
            };
            out.max = if self.max >= to.max {
                self.max
            } else if to.max > from.max {
                to.max
            } else {
                return None;
            };
        }
        Some(out)
    }

    /// Iterate the nonempty buckets as `(lo, hi, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, c)
            })
    }
}

/// A dense registry holding one value per metric key.
///
/// This is the unit that flows through the stack: the pass manager hands
/// one to every compiler pass, the simulator exports its run totals as one,
/// campaigns fold per-run sets into one, and the figure generators read
/// them by key. Cloning and merging are fixed-size array operations.
#[derive(Debug, Clone)]
pub struct MetricSet {
    counters: [u64; NUM_COUNTERS],
    gauges: [f64; NUM_GAUGES],
    gauge_set: u32,
    /// Histogram storage, allocated lazily on the first
    /// [`MetricSet::record_hist`]/[`MetricSet::set_hist`] so sets that
    /// never sample a distribution stay a pair of flat arrays.
    hists: Option<Box<[Histogram; NUM_HISTS]>>,
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet {
            counters: [0; NUM_COUNTERS],
            gauges: [0.0; NUM_GAUGES],
            gauge_set: 0,
            hists: None,
        }
    }
}

impl MetricSet {
    /// An empty registry (all counters zero, no gauges set).
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Add `v` to a counter.
    #[inline]
    pub fn add(&mut self, key: Counter, v: u64) {
        self.counters[key as usize] += v;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, key: Counter) {
        self.add(key, 1);
    }

    /// Raise a high-water-mark counter to at least `v`.
    #[inline]
    pub fn record_peak(&mut self, key: Counter, v: u64) {
        let slot = &mut self.counters[key as usize];
        *slot = (*slot).max(v);
    }

    /// Read a counter.
    #[inline]
    pub fn counter(&self, key: Counter) -> u64 {
        self.counters[key as usize]
    }

    /// Set a gauge (overwrites any prior sample).
    #[inline]
    pub fn set_gauge(&mut self, key: Gauge, v: f64) {
        self.gauges[key as usize] = v;
        self.gauge_set |= 1 << key as u32;
    }

    /// Read a gauge; unset gauges read as `0.0`.
    #[inline]
    pub fn gauge(&self, key: Gauge) -> f64 {
        self.gauges[key as usize]
    }

    /// Whether a gauge has been set.
    pub fn has_gauge(&self, key: Gauge) -> bool {
        self.gauge_set & (1 << key as u32) != 0
    }

    /// Record one sample into a histogram (allocates the histogram block
    /// on first use).
    #[inline]
    pub fn record_hist(&mut self, key: Hist, v: u64) {
        self.hists_mut()[key as usize].record(v);
    }

    /// Replace a histogram wholesale (producers that accumulate privately
    /// and publish once).
    pub fn set_hist(&mut self, key: Hist, h: Histogram) {
        self.hists_mut()[key as usize] = h;
    }

    /// Fold `other` bucket-wise into the histogram under `key` — a
    /// single-key [`merge`](Self::merge) for consumers that aggregate one
    /// distribution without adopting the producer's counters.
    pub fn merge_hist(&mut self, key: Hist, other: &Histogram) {
        if !other.is_empty() {
            self.hists_mut()[key as usize].merge(other);
        }
    }

    /// Read a histogram; `None` when no sample was ever recorded under
    /// `key`.
    pub fn hist(&self, key: Hist) -> Option<&Histogram> {
        self.hists
            .as_ref()
            .map(|h| &h[key as usize])
            .filter(|h| !h.is_empty())
    }

    /// Iterate the nonempty histograms as `(key, histogram)`.
    pub fn nonzero_hists(&self) -> impl Iterator<Item = (Hist, &Histogram)> + '_ {
        Hist::ALL
            .iter()
            .filter_map(move |&k| self.hist(k).map(|h| (k, h)))
    }

    fn hists_mut(&mut self) -> &mut [Histogram; NUM_HISTS] {
        self.hists
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| Histogram::new())))
    }

    /// Fold `other` into `self`: `Sum` counters add, `Max` counters take
    /// the larger observation, histograms combine bucket-wise, and gauges
    /// set in `other` overwrite (last writer wins — merge-order-sensitive,
    /// so accumulate gauges only when one producer owns the key).
    pub fn merge(&mut self, other: &MetricSet) {
        for &key in Counter::ALL {
            let i = key as usize;
            match key.merge_policy() {
                MergePolicy::Sum => self.counters[i] += other.counters[i],
                MergePolicy::Max => self.counters[i] = self.counters[i].max(other.counters[i]),
            }
        }
        for &key in Gauge::ALL {
            if other.has_gauge(key) {
                self.set_gauge(key, other.gauge(key));
            }
        }
        for (key, h) in other.nonzero_hists() {
            self.hists_mut()[key as usize].merge(h);
        }
    }

    /// The contribution made since `before` was captured: `Sum` counters
    /// subtract, `Max` counters keep the current high-water mark, and
    /// gauges carry over where set. The pass manager uses this for
    /// per-pass attribution, so for `Sum` keys
    /// `before + delta == self` holds field-wise.
    pub fn delta_since(&self, before: &MetricSet) -> MetricSet {
        let mut d = MetricSet::new();
        for &key in Counter::ALL {
            let i = key as usize;
            d.counters[i] = match key.merge_policy() {
                MergePolicy::Sum => self.counters[i].saturating_sub(before.counters[i]),
                MergePolicy::Max => self.counters[i],
            };
        }
        for &key in Gauge::ALL {
            if self.has_gauge(key) {
                d.set_gauge(key, self.gauge(key));
            }
        }
        for (key, h) in self.nonzero_hists() {
            let dh = h.delta_since(before.hist(key).unwrap_or(&Histogram::new()));
            if !dh.is_empty() {
                d.set_hist(key, dh);
            }
        }
        d
    }

    /// Whether every counter is zero, no gauge is set, and no histogram
    /// holds a sample.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauge_set == 0
            && self.nonzero_hists().next().is_none()
    }

    /// Iterate the nonzero counters as `(key, value)`.
    pub fn nonzero_counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .filter(|&&k| self.counter(k) != 0)
            .map(|&k| (k, self.counter(k)))
    }

    // — derived metrics —
    //
    // The ratio formulas below are the single definition the whole stack
    // (stat displays, figure generators) uses; each guards its denominator
    // and divides in the same order so results are bit-stable.

    /// `num / den` as `f64`, `0.0` when the denominator is zero.
    fn ratio(&self, num: Counter, den: Counter) -> f64 {
        let d = self.counter(den);
        if d == 0 {
            0.0
        } else {
            self.counter(num) as f64 / d as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.ratio(Counter::Insts, Counter::Cycles)
    }

    /// Fraction of dynamic instructions that are checkpoints (Fig 4).
    pub fn ckpt_ratio(&self) -> f64 {
        self.ratio(Counter::Ckpts, Counter::Insts)
    }

    /// Total dynamic stores including checkpoints.
    pub fn all_stores(&self) -> u64 {
        self.counter(Counter::Stores) + self.counter(Counter::Ckpts)
    }

    /// Fraction of all stores released without verification
    /// (WAR-free + colored).
    pub fn bypass_ratio(&self) -> f64 {
        let all = self.all_stores();
        if all == 0 {
            0.0
        } else {
            (self.counter(Counter::WarFreeReleased) + self.counter(Counter::ColoredReleased)) as f64
                / all as f64
        }
    }

    /// Average CLQ entries populated over the run (Fig 24).
    pub fn clq_avg_entries(&self) -> f64 {
        self.ratio(Counter::ClqOccupancySum, Counter::ClqOccupancySamples)
    }

    /// Fraction of CLQ-checked stores proven WAR-free (Figs 15/24).
    pub fn clq_war_free_ratio(&self) -> f64 {
        self.ratio(Counter::ClqWarFree, Counter::ClqStoresChecked)
    }

    /// Code-size increase of the resilient binary over the baseline, as a
    /// fraction (e.g. `0.05` = 5%). Zero when baseline size is unknown.
    pub fn code_size_increase(&self) -> f64 {
        let base = self.counter(Counter::BaselineInsts);
        if base == 0 {
            0.0
        } else {
            self.counter(Counter::FinalInsts) as f64 / base as f64 - 1.0
        }
    }
}

impl PartialEq for MetricSet {
    /// Structural equality over *recorded* data: a lazily-unallocated
    /// histogram block equals an allocated block with no samples.
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.gauge_set == other.gauge_set
            && Hist::ALL.iter().all(|&k| self.hist(k) == other.hist(k))
    }
}

impl fmt::Display for MetricSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (key, v) in self.nonzero_counters() {
            if !first {
                writeln!(f)?;
            }
            write!(f, "{} = {v}", key.name())?;
            first = false;
        }
        for &key in Gauge::ALL {
            if self.has_gauge(key) {
                if !first {
                    writeln!(f)?;
                }
                write!(f, "{} = {}", key.name(), self.gauge(key))?;
                first = false;
            }
        }
        for (key, h) in self.nonzero_hists() {
            if !first {
                writeln!(f)?;
            }
            write!(
                f,
                "{} = n={} p50={:.1} p99={:.1} max={}",
                key.name(),
                h.count(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max()
            )?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read() {
        let mut m = MetricSet::new();
        assert!(m.is_empty());
        m.add(Counter::Cycles, 10);
        m.inc(Counter::Cycles);
        assert_eq!(m.counter(Counter::Cycles), 11);
        assert_eq!(m.counter(Counter::Insts), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn peaks_take_max() {
        let mut m = MetricSet::new();
        m.record_peak(Counter::SbPeak, 3);
        m.record_peak(Counter::SbPeak, 2);
        assert_eq!(m.counter(Counter::SbPeak), 3);
    }

    #[test]
    fn gauges_track_set_state() {
        let mut m = MetricSet::new();
        assert!(!m.has_gauge(Gauge::AvgRegionInsts));
        assert_eq!(m.gauge(Gauge::AvgRegionInsts), 0.0);
        m.set_gauge(Gauge::AvgRegionInsts, 12.5);
        assert!(m.has_gauge(Gauge::AvgRegionInsts));
        assert_eq!(m.gauge(Gauge::AvgRegionInsts), 12.5);
    }

    #[test]
    fn merge_respects_policies() {
        let mut a = MetricSet::new();
        a.add(Counter::Cycles, 100);
        a.record_peak(Counter::SbPeak, 4);
        let mut b = MetricSet::new();
        b.add(Counter::Cycles, 50);
        b.record_peak(Counter::SbPeak, 2);
        b.set_gauge(Gauge::AvgRegionInsts, 7.0);
        a.merge(&b);
        assert_eq!(a.counter(Counter::Cycles), 150);
        assert_eq!(a.counter(Counter::SbPeak), 4);
        assert_eq!(a.gauge(Gauge::AvgRegionInsts), 7.0);
    }

    #[test]
    fn delta_recovers_contributions() {
        let mut before = MetricSet::new();
        before.add(Counter::CkptsInserted, 5);
        let mut after = before.clone();
        after.add(Counter::CkptsInserted, 3);
        after.add(Counter::SpillStores, 2);
        let d = after.delta_since(&before);
        assert_eq!(d.counter(Counter::CkptsInserted), 3);
        assert_eq!(d.counter(Counter::SpillStores), 2);
        let mut sum = before.clone();
        sum.merge(&d);
        assert_eq!(sum.counter(Counter::CkptsInserted), 8);
    }

    #[test]
    fn derived_ratios_match_fixed_field_formulas() {
        let mut m = MetricSet::new();
        m.add(Counter::Cycles, 100);
        m.add(Counter::Insts, 150);
        m.add(Counter::Ckpts, 30);
        m.add(Counter::Stores, 30);
        m.add(Counter::WarFreeReleased, 15);
        m.add(Counter::ColoredReleased, 15);
        assert!((m.ipc() - 1.5).abs() < 1e-12);
        assert!((m.ckpt_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(m.all_stores(), 60);
        assert!((m.bypass_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(MetricSet::new().ipc(), 0.0);
        assert_eq!(MetricSet::new().code_size_increase(), 0.0);
        m.add(Counter::BaselineInsts, 100);
        m.add(Counter::FinalInsts, 105);
        assert!((m.code_size_increase() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique_and_namespaced() {
        let mut seen = std::collections::HashSet::new();
        for &k in Counter::ALL {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert!(k.name().contains('.'), "{} lacks a namespace", k.name());
        }
        for &g in Gauge::ALL {
            assert!(seen.insert(g.name()), "duplicate name {}", g.name());
        }
        for &h in Hist::ALL {
            assert!(seen.insert(h.name()), "duplicate name {}", h.name());
            assert!(h.name().contains('.'), "{} lacks a namespace", h.name());
        }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1000 → [512,1024).
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets[0], (0, 1, 1));
        assert_eq!(buckets[1], (1, 2, 1));
        assert_eq!(buckets[2], (2, 4, 2));
        assert_eq!(buckets[3], (4, 8, 1));
        assert_eq!(buckets[4], (512, 1024, 1));
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(8);
        }
        // All mass in one bucket clamped to the observed extremes.
        assert!((h.quantile(0.5) - 8.0).abs() < 1.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.99) - 8.0).abs() < 1.0);
        h.record(1 << 20);
        assert!(h.quantile(1.0) > 1e6);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_extreme_quantiles_stay_within_observed_range() {
        // A single-value population is exact at every quantile — including
        // q=1.0, which must be `max`, not the bucket's exclusive bound.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(8);
        }
        for q in [0.0, 0.001, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 8.0, "q={q}");
        }
        // With a tail sample, extreme quantiles interpolate inside the tail
        // bucket but never exceed the observed max or undershoot the min.
        h.record(1 << 20);
        assert_eq!(h.quantile(1.0), (1u64 << 20) as f64);
        // Low quantiles stay within the min's bucket (factor-of-two
        // resolution), never below the observed min.
        let p0 = h.quantile(0.0);
        assert!((8.0..16.0).contains(&p0), "{p0}");
        let p999 = h.quantile(0.999);
        assert!((8.0..=(1u64 << 20) as f64).contains(&p999), "{p999}");
        // q=1.0 lands on the max even when the top bucket holds a spread,
        // and no quantile leaves the observed [min, max] envelope.
        let mut s = Histogram::new();
        s.record(1000); // bucket [512, 1024)
        s.record(600);
        assert_eq!(s.quantile(1.0), 1000.0);
        for q in [0.0, 0.25, 0.5, 0.75, 0.999] {
            let v = s.quantile(q);
            assert!((600.0..=1000.0).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn histogram_merge_and_delta_roundtrip() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(40);
        let before = a.clone();
        a.record(7);
        a.record(9000);
        let d = a.delta_since(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 9007);
        let mut sum = before.clone();
        sum.merge(&d);
        assert_eq!(sum.count(), a.count());
        assert_eq!(sum.sum(), a.sum());
    }

    #[test]
    fn metricset_hists_merge_and_compare() {
        let mut a = MetricSet::new();
        assert!(a.hist(Hist::SbResidency).is_none());
        a.record_hist(Hist::SbResidency, 12);
        a.record_hist(Hist::SbResidency, 13);
        let mut b = MetricSet::new();
        b.record_hist(Hist::SbResidency, 100);
        a.merge(&b);
        let h = a.hist(Hist::SbResidency).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 100);
        // Lazily-unallocated and allocated-but-empty blocks compare equal.
        let mut c = MetricSet::new();
        c.record_hist(Hist::SimMicros, 1);
        let d = c.delta_since(&c.clone());
        assert_eq!(d, MetricSet::new());
        assert!(d.is_empty());
    }

    #[test]
    fn display_lists_nonzero_entries() {
        let mut m = MetricSet::new();
        assert_eq!(m.to_string(), "(empty)");
        m.add(Counter::Cycles, 7);
        m.set_gauge(Gauge::AvgRegionInsts, 1.5);
        let s = m.to_string();
        assert!(s.contains("sim.cycles = 7"));
        assert!(s.contains("sim.avg_region_insts = 1.5"));
    }
}
