//! Fault-injection campaigns with SDC audits.
//!
//! A campaign compiles a kernel under a scheme, records the fault-free
//! result, then re-runs it many times with injected particle strikes
//! (register parity flips and datapath corruptions, per the paper's §5 fault
//! model) and compares the final architectural memory and return value
//! against the fault-free run. For resilient schemes every run must match —
//! the acoustic-sensor guarantee is *zero* silent data corruption.

use crate::driver::{RunError, RunResult, RunSpec};
use crate::par::par_map;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use turnpike_compiler::compile;
use turnpike_ir::Program;
use turnpike_metrics::{Json, RateEstimator, ThroughputMeter};
use turnpike_sensor::StrikeSampler;
use turnpike_sim::{
    Core, Fault, FaultKind, FaultPlan, Refusal, ReplayCensus, ReplayGuide, SimError, SimOutcome,
    Translation,
};

/// Process-wide default for [`CampaignConfig::early_exit`]: on unless the
/// `TURNPIKE_EARLY_EXIT` environment variable is set to `0` (the CI golden
/// jobs use the kill switch to prove byte-identity against full replay).
fn early_exit_default() -> bool {
    use std::sync::OnceLock;
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::env::var_os("TURNPIKE_EARLY_EXIT").is_none_or(|v| v != "0"))
}

/// When a campaign stops injecting.
///
/// Sequential stopping decisions are made only at fixed chunk boundaries
/// (every [`STOP_CHUNK`] completed runs, in run-index order), never on a
/// per-thread whim — so the set of runs a stopped campaign executed is a
/// pure function of the config, and the report stays identical across
/// thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Run exactly [`CampaignConfig::runs`] injected runs.
    Fixed,
    /// Stop at the first chunk boundary where the 95% Wilson interval on
    /// the per-run SDC rate is no wider than `half_width` on each side of
    /// the point estimate, or after `cap` runs, whichever comes first.
    /// [`CampaignConfig::runs`] is ignored; the reported statistics are
    /// exact over the runs actually executed.
    CiWidth {
        /// Maximum acceptable half-width of the 95% Wilson interval.
        half_width: f64,
        /// Hard upper bound on injected runs.
        cap: usize,
    },
}

/// Runs between sequential-stop decisions (see [`StopRule`]). A constant —
/// deriving it from the thread count would make the stop point, and with
/// it the whole report, depend on parallelism.
pub const STOP_CHUNK: usize = 16;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injected runs.
    pub runs: usize,
    /// RNG seed (campaigns are deterministic given a seed).
    pub seed: u64,
    /// Strikes per run (the paper's model is single-event upsets; >1
    /// stresses repeated recovery).
    pub strikes_per_run: usize,
    /// Let strike runs stop at the first provable reconvergence with the
    /// golden run instead of simulating to completion (requires prefix
    /// snapshots, i.e. a `Some` snapshot interval on the spec). Reports,
    /// records, and metrics are bit-identical either way; only the
    /// [`ForkStats`] replay accounting observes the difference. Defaults to
    /// on; the `TURNPIKE_EARLY_EXIT=0` environment kill switch flips the
    /// default off process-wide.
    pub early_exit: bool,
    /// When to stop injecting. [`StopRule::Fixed`] (the default) keeps the
    /// historical behavior: exactly [`CampaignConfig::runs`] runs.
    pub stop: StopRule,
    /// Global index of the first run: the campaign executes the runs at
    /// indices `first_run .. first_run + runs`. Each run's fault plan
    /// derives from `(seed, global run index)` alone, so a nonzero start
    /// makes the campaign one *shard* of a larger one — sharding is a
    /// partition of the run-index space, not an approximation.
    /// Concatenating shard records in ascending range order reproduces the
    /// unsharded record stream, and [`CampaignReport::absorb`]ing shard
    /// reports in the same order reproduces the unsharded report bit for
    /// bit (the distributed coordinator in the bench harness is built on
    /// this). Sequential stopping ([`StopRule::CiWidth`]) is a
    /// whole-campaign decision with no meaning per shard; sharded callers
    /// use [`StopRule::Fixed`]. Defaults to 0, the whole campaign.
    pub first_run: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 20,
            seed: 0xF00D,
            strikes_per_run: 1,
            early_exit: early_exit_default(),
            stop: StopRule::Fixed,
            first_run: 0,
        }
    }
}

/// Campaign outcome.
///
/// (`PartialEq` only: the embedded metrics registry carries `f64` gauges.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Runs executed.
    pub runs: usize,
    /// Runs whose final state differed from the fault-free run (SDC).
    pub sdc: usize,
    /// Total recoveries observed.
    pub recoveries: u64,
    /// Total detections observed.
    pub detections: u64,
    /// Detections via register parity / hardened access paths.
    pub parity_detections: u64,
    /// Detections via the acoustic sensor.
    pub sensor_detections: u64,
    /// Strikes that landed at or after program completion (no effect) —
    /// counted per strike, not per run, so multi-strike runs where only
    /// some strikes land in-run are attributed correctly.
    pub post_completion: usize,
    /// Runs aborted by the campaign watchdog: the corruption steered
    /// control flow into a non-terminating loop and nothing detected it
    /// (possible only when strikes land in unprotected regions — uniform
    /// resilient schemes detect and roll back every strike). A hang is
    /// detectable unresponsiveness, not silent corruption, so it is
    /// counted apart from [`CampaignReport::sdc`].
    pub hangs: usize,
    /// Every injected run's metrics folded together (`Sum` counters add,
    /// peaks take the campaign-wide max), plus the `campaign.*` counters.
    pub metrics: turnpike_metrics::MetricSet,
}

impl CampaignReport {
    /// Whether the scheme kept its zero-SDC guarantee.
    pub fn sdc_free(&self) -> bool {
        self.sdc == 0
    }

    /// Fold another shard's report into this one.
    ///
    /// Shards must be absorbed in ascending run-index order for the result
    /// to be bit-identical to the unsharded campaign: every scalar field
    /// adds, and the embedded [`MetricSet`](turnpike_metrics::MetricSet)
    /// merges under the same policies the unsharded fold uses (`Sum`
    /// counters add, `Max` counters take the high-water mark, histograms
    /// combine bucket-wise, gauges keep the last shard that set them —
    /// which in ascending order is exactly the last run that set them).
    /// The `campaign.*` counters each shard appended over its own totals
    /// sum to the whole campaign's totals, so no post-merge fixup is
    /// needed.
    pub fn absorb(&mut self, other: &CampaignReport) {
        self.runs += other.runs;
        self.sdc += other.sdc;
        self.recoveries += other.recoveries;
        self.detections += other.detections;
        self.parity_detections += other.parity_detections;
        self.sensor_detections += other.sensor_detections;
        self.post_completion += other.post_completion;
        self.hangs += other.hangs;
        self.metrics.merge(&other.metrics);
    }
}

/// How much prefix re-execution snapshot forking saved a campaign.
///
/// Kept out of [`CampaignReport`] on purpose: the report (metrics included)
/// is bit-identical whether runs fork from snapshots or simulate from
/// scratch, and folding fork accounting into it would break that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Injected runs forked from a fault-free prefix snapshot.
    pub hits: usize,
    /// Injected runs simulated from scratch (snapshots disabled, or the
    /// earliest strike landed before the first capture point).
    pub misses: usize,
    /// Fault-free prefix cycles skipped, summed over forked runs (each
    /// fork's snapshot cycle — execution the from-scratch path would redo).
    pub prefix_cycles_saved: u64,
    /// Strike runs that exited early by reconverging with the golden run
    /// ([`CampaignConfig::early_exit`]).
    pub replay_exits: usize,
    /// Post-convergence cycles skipped, summed over early-exited runs (the
    /// simulated suffix the full-replay path would have executed).
    pub replay_cycles_saved: u64,
    /// Refused early-exit probes by reason, indexed like [`Refusal::ALL`],
    /// summed over runs that finished (a watchdog-aborted run returns no
    /// census).
    pub replay_refusals: [u64; Refusal::ALL.len()],
    /// Runs whose refusals used up the whole probe budget.
    pub replay_budget_exhausted: usize,
    /// Guided runs that finished without any probe matching a golden
    /// snapshot's live registers.
    pub replay_never_matched: usize,
}

impl ForkStats {
    /// The `campaign.fork_*`/`campaign.replay_*` counters as a standalone
    /// registry, for harness observability (merged into the bench registry,
    /// never into [`CampaignReport::metrics`]).
    pub fn to_metrics(&self) -> turnpike_metrics::MetricSet {
        use turnpike_metrics::Counter;
        let mut m = turnpike_metrics::MetricSet::new();
        m.add(Counter::CampaignForkHits, self.hits as u64);
        m.add(Counter::CampaignForkMisses, self.misses as u64);
        m.add(Counter::CampaignForkCyclesSaved, self.prefix_cycles_saved);
        m.add(Counter::CampaignReplayExits, self.replay_exits as u64);
        m.add(Counter::CampaignReplayCyclesSaved, self.replay_cycles_saved);
        for (&reason, &n) in Refusal::ALL.iter().zip(&self.replay_refusals) {
            m.add(reason.counter(), n);
        }
        m.add(
            Counter::CampaignReplayBudgetExhausted,
            self.replay_budget_exhausted as u64,
        );
        m.add(
            Counter::CampaignReplayNeverMatched,
            self.replay_never_matched as u64,
        );
        m
    }

    /// Fold one finished run's early-exit probe census.
    fn absorb_census(&mut self, census: &ReplayCensus) {
        for (total, &n) in self.replay_refusals.iter_mut().zip(&census.refusals) {
            *total += u64::from(n);
        }
        self.replay_budget_exhausted += usize::from(census.budget_exhausted);
        self.replay_never_matched += usize::from(census.never_matched);
    }
}

/// Outcome class of one injected strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeOutcome {
    /// The strike landed in-run, was detected, and the run's final state
    /// matched the fault-free run.
    Recovered,
    /// The strike landed at or past program completion: no architectural
    /// effect, nothing to detect.
    PostCompletion,
    /// The run's final state differed from the fault-free run (silent data
    /// corruption) — attributed to every strike of that run.
    Sdc,
    /// The run tripped the campaign watchdog (corrupted control flow never
    /// terminated, and no protection machinery caught it) — attributed to
    /// every strike of that run.
    Hang,
}

impl StrikeOutcome {
    /// Stable snake_case name used in the JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            StrikeOutcome::Recovered => "recovered",
            StrikeOutcome::PostCompletion => "post_completion",
            StrikeOutcome::Sdc => "sdc",
            StrikeOutcome::Hang => "hang",
        }
    }
}

/// One structured record per injected strike, in deterministic
/// `(run, strike)` order. `recovery_cycles` and `detection_latency` are the
/// run's totals/observations attributed to the strike; for the default
/// single-strike campaigns they are exact per-strike values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrikeRecord {
    /// Campaign run index.
    pub run: usize,
    /// Strike index within the run (0 for single-strike campaigns).
    pub strike: usize,
    /// Cycle the particle hit.
    pub strike_cycle: u64,
    /// Sensor detection latency the plan assigned to the strike (cycles).
    pub detect_latency: u64,
    /// Cycles the run spent in recovery (flush + recovery blocks).
    pub recovery_cycles: u64,
    /// Detections the run observed (parity + sensor).
    pub detections: u64,
    /// Outcome class.
    pub outcome: StrikeOutcome,
}

impl StrikeRecord {
    /// The record as one JSONL object (`Display` renders the line). Key
    /// order is part of the schema: golden-file diffs rely on it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("run", self.run.into()),
            ("strike", self.strike.into()),
            ("strike_cycle", self.strike_cycle.into()),
            ("detect_latency", self.detect_latency.into()),
            ("recovery_cycles", self.recovery_cycles.into()),
            ("detections", self.detections.into()),
            ("outcome", self.outcome.name().into()),
        ])
    }
}

/// Stream strike records as JSONL, one record per line, in order.
///
/// When `cap` is `Some(n)` the output is bounded at `n` records drawn
/// uniformly by a seeded reservoir sampler
/// ([`Reservoir`](turnpike_metrics::Reservoir)), so campaign JSONL stays
/// O(cap) at any campaign size. Capped output is prefixed with one header
/// line documenting the sampling:
///
/// ```json
/// {"header":"strike_records","sampling":"reservoir","total":1000000,"written":4096,"cap":4096,"seed":61453}
/// ```
///
/// Sampled records keep their original relative order. `cap: None` writes
/// every record with no header line (`seed` is then unused).
///
/// # Errors
///
/// Propagates write failures; `cap: Some(0)` is rejected as
/// [`InvalidInput`](std::io::ErrorKind::InvalidInput), since a reservoir
/// keeps at least one record and the header would misstate the cap.
pub fn write_strike_records<W: std::io::Write>(
    records: &[StrikeRecord],
    cap: Option<usize>,
    seed: u64,
    w: &mut W,
) -> std::io::Result<()> {
    let Some(cap) = cap else {
        for r in records {
            writeln!(w, "{}", r.to_json())?;
        }
        return Ok(());
    };
    if cap == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "strike-record cap must be at least 1",
        ));
    }
    let mut reservoir = turnpike_metrics::Reservoir::new(cap, seed);
    for i in 0..records.len() {
        reservoir.offer(i);
    }
    let mut kept = reservoir.into_sample();
    kept.sort_unstable();
    let header = Json::obj([
        ("header", Json::from("strike_records")),
        ("sampling", "reservoir".into()),
        ("total", records.len().into()),
        ("written", kept.len().into()),
        ("cap", cap.into()),
        ("seed", seed.into()),
    ]);
    writeln!(w, "{header}")?;
    for i in kept {
        writeln!(w, "{}", records[i].to_json())?;
    }
    Ok(())
}

/// [`write_strike_records`] to a file at `path`, creating any missing
/// parent directories first — campaign output paths are routinely nested
/// (`results/<kernel>/<scheme>/strikes.jsonl`) and a missing directory
/// should not be an error.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_strike_records_to_path<P: AsRef<std::path::Path>>(
    records: &[StrikeRecord],
    cap: Option<usize>,
    seed: u64,
    path: P,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_strike_records(records, cap, seed, &mut w)?;
    std::io::Write::flush(&mut w)
}

/// Caller hooks into a running campaign: cooperative cancellation plus a
/// per-run progress callback. The default hook (`CampaignHook::default()`)
/// is inert.
///
/// Cancellation is checked once per injected run, so a campaign stops
/// within one simulation of the flag being raised. A canceled campaign
/// returns [`RunError::Canceled`] and discards partial results — reports
/// are all-or-nothing so the determinism contract ("same config, same
/// report") never observes a truncated fold.
#[derive(Default, Clone, Copy)]
pub struct CampaignHook<'a> {
    /// Raise to abandon the campaign at the next per-run check.
    pub cancel: Option<&'a AtomicBool>,
    /// Called after each injected run completes with
    /// `(runs_completed, runs_total)`. Runs execute on worker threads in
    /// any order, so `runs_completed` is a monotone count, not an index.
    pub on_run: Option<&'a (dyn Fn(usize, usize) + Sync)>,
    /// Called with a [`CampaignProgress`] snapshot every
    /// [`progress_every`](CampaignHook::progress_every) completed runs and
    /// on the campaign's final run. Calls are serialized (never
    /// concurrent) but may arrive from any worker thread. Snapshots are
    /// observational only: enabling them never changes the report.
    pub on_progress: Option<&'a (dyn Fn(&CampaignProgress) + Sync)>,
    /// Snapshot cadence in completed runs; `0` picks a default of one
    /// snapshot per ~5% of the campaign (min every run).
    pub progress_every: usize,
}

impl std::fmt::Debug for CampaignHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignHook")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("on_run", &self.on_run.map(|_| "fn"))
            .field("on_progress", &self.on_progress.map(|_| "fn"))
            .field("progress_every", &self.progress_every)
            .finish()
    }
}

impl CampaignHook<'_> {
    fn canceled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// A point-in-time view of a running campaign, delivered through
/// [`CampaignHook::on_progress`].
///
/// Counts are exact over the `done` completed runs (the emitting run's
/// own outcome included); rates carry 95% Wilson confidence bounds via
/// [`RateEstimator`]. Throughput and ETA are windowed over recent
/// completions, so they track current pace, not the cold start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignProgress {
    /// Runs completed so far.
    pub done: usize,
    /// Target run count ([`CampaignConfig::runs`], or the stop rule's cap).
    pub total: usize,
    /// Completed runs that detected and recovered every in-run strike.
    pub recovered: usize,
    /// Completed runs whose strikes all landed at or past completion.
    pub post_completion: usize,
    /// Completed runs with silent data corruption.
    pub sdc: usize,
    /// Completed runs aborted by the campaign watchdog.
    pub hangs: usize,
    /// Total detections across completed runs.
    pub detections: u64,
    /// Per-run SDC rate over the completed runs, with Wilson bounds.
    pub sdc_rate: RateEstimator,
    /// Per-run detection rate (runs that recovered) with Wilson bounds.
    pub detection_rate: RateEstimator,
    /// Injected strikes per second, windowed.
    pub strikes_per_sec: f64,
    /// Host nanoseconds per simulated instruction, windowed.
    pub ns_per_inst: f64,
    /// Milliseconds since the first injected run started.
    pub elapsed_ms: u64,
    /// Estimated milliseconds to finish the remaining runs at the
    /// windowed pace; `0` when the pace is not yet known.
    pub eta_ms: u64,
}

/// Shared observer state behind [`CampaignHook::on_progress`]. Lives
/// entirely outside the report fold: workers bump outcome counts with
/// relaxed atomics *before* the release bump of the completion counter, so
/// when the last worker reports `done == total` every outcome has been
/// tallied and the final snapshot is exact. Intermediate snapshots derive
/// `done` from the outcome tallies themselves (a concurrent worker may
/// have tallied its outcome but not yet bumped the completion counter, so
/// the caller's `done` can lag the counts) — every snapshot's counts
/// partition its `done` exactly by construction.
struct ProgressShared<'a> {
    started: Instant,
    total: usize,
    strikes_per_run: usize,
    every: usize,
    recovered: AtomicUsize,
    post_completion: AtomicUsize,
    sdc: AtomicUsize,
    hangs: AtomicUsize,
    detections: AtomicU64,
    insts: AtomicU64,
    /// The throughput meter plus the highest `done` already delivered:
    /// workers race to the lock, so a staler snapshot can arrive after a
    /// fresher one — it is dropped, keeping deliveries monotone in `done`.
    meter: Mutex<(ThroughputMeter, usize)>,
    emit: &'a (dyn Fn(&CampaignProgress) + Sync),
}

impl<'a> ProgressShared<'a> {
    fn new(
        total: usize,
        strikes_per_run: usize,
        every: usize,
        emit: &'a (dyn Fn(&CampaignProgress) + Sync),
    ) -> Self {
        ProgressShared {
            started: Instant::now(),
            total,
            strikes_per_run,
            every: every.max(1),
            recovered: AtomicUsize::new(0),
            post_completion: AtomicUsize::new(0),
            sdc: AtomicUsize::new(0),
            hangs: AtomicUsize::new(0),
            detections: AtomicU64::new(0),
            insts: AtomicU64::new(0),
            meter: Mutex::new((ThroughputMeter::new(8), 0)),
            emit,
        }
    }

    /// Classify one completed run into the outcome tallies. Must run
    /// before the completion counter is bumped for that run.
    fn count_run(&self, run: Option<&RunResult>, golden: &RunResult) {
        match run {
            None => {
                self.hangs.fetch_add(1, Ordering::Relaxed);
            }
            Some(r) => {
                let sdc = is_sdc(&r.outcome, &golden.outcome);
                let detections = r.outcome.stats.detections;
                if sdc {
                    self.sdc.fetch_add(1, Ordering::Relaxed);
                } else if detections > 0 {
                    self.recovered.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.post_completion.fetch_add(1, Ordering::Relaxed);
                }
                self.detections.fetch_add(detections, Ordering::Relaxed);
                self.insts.fetch_add(
                    r.metrics.counter(turnpike_metrics::Counter::Insts),
                    Ordering::Relaxed,
                );
            }
        }
    }

    /// Emit a snapshot if `done` is on the cadence (or final). Serialized
    /// under the meter lock so callbacks never observe interleaved state.
    fn maybe_emit(&self, done: usize) {
        if !done.is_multiple_of(self.every) && done != self.total {
            return;
        }
        let mut guard = self.meter.lock().expect("progress meter poisoned");
        let (meter, emitted) = &mut *guard;
        // The snapshot's `done` is the sum of the outcome tallies read
        // under the lock, not the caller's completion count: tallies land
        // before the completion bump, so the caller's `done` can trail
        // them, and summing the loads is the only way the reported counts
        // partition the reported `done` exactly. Tallies only grow, so
        // the `emitted` guard keeps deliveries strictly monotone even
        // when workers race to the lock out of order.
        let recovered = self.recovered.load(Ordering::Relaxed);
        let post_completion = self.post_completion.load(Ordering::Relaxed);
        let sdc = self.sdc.load(Ordering::Relaxed);
        let hangs = self.hangs.load(Ordering::Relaxed);
        let done = recovered + post_completion + sdc + hangs;
        if done <= *emitted {
            return;
        }
        *emitted = done;
        let elapsed = self.started.elapsed();
        let strikes_done = (done * self.strikes_per_run) as u64;
        meter.observe(
            elapsed.as_nanos() as u64,
            strikes_done,
            self.insts.load(Ordering::Relaxed),
        );
        let remaining = (self.total.saturating_sub(done) * self.strikes_per_run) as u64;
        let snapshot = CampaignProgress {
            done,
            total: self.total,
            recovered,
            post_completion,
            sdc,
            hangs,
            detections: self.detections.load(Ordering::Relaxed),
            sdc_rate: RateEstimator::from_counts(sdc as u64, done as u64),
            detection_rate: RateEstimator::from_counts(recovered as u64, done as u64),
            strikes_per_sec: meter.units_per_sec(),
            ns_per_inst: meter.ns_per_inst(),
            elapsed_ms: elapsed.as_millis() as u64,
            eta_ms: meter.eta_ns(remaining) / 1_000_000,
        };
        (self.emit)(&snapshot);
    }
}

/// SplitMix64-style mix of the campaign seed and a run index, giving every
/// run its own statistically independent RNG stream. Deriving streams from
/// `(seed, run_index)` — instead of threading one sequential RNG through
/// the whole campaign — is what makes runs order-independent, so they can
/// execute on any thread in any order with identical results.
fn run_seed(seed: u64, run_index: u64) -> u64 {
    let mut z = seed.wrapping_add(
        run_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CampaignConfig {
    /// The fault plan of run `run_index` (a global index, `first_run`
    /// included) of a campaign on `spec`, a pure function of the seed, the
    /// run index and the fault-free `horizon` (the golden run's cycles, at
    /// least 2). Public so a test can re-run any campaign run from scratch
    /// and audit its verdict independently.
    pub fn run_plan(&self, spec: &RunSpec, run_index: usize, horizon: u64) -> FaultPlan {
        let s = run_seed(self.seed, run_index as u64);
        let mut rng = StdRng::seed_from_u64(s);
        let mut sampler = StrikeSampler::new(s ^ 0x5eed, spec.wcdl);
        let mut faults = Vec::with_capacity(self.strikes_per_run);
        for _ in 0..self.strikes_per_run {
            let strike = sampler.sample(horizon);
            let kind = if rng.gen_bool(0.5) {
                FaultKind::RegisterParity {
                    reg: rng.gen_range(0..32),
                    bit: rng.gen_range(0..64),
                }
            } else {
                FaultKind::Datapath {
                    bit: rng.gen_range(0..64),
                }
            };
            faults.push(Fault {
                strike_cycle: strike.cycle,
                detect_latency: strike.detect_latency,
                kind,
            });
        }
        FaultPlan::new(faults).with_watchdog(watchdog_for(horizon))
    }
}

/// Watchdog cycle bound for injected runs: generous headroom over the
/// fault-free horizon (recoveries re-execute at most a region suffix per
/// strike, nowhere near 8x the whole run), so no legitimately terminating
/// run can ever trip it — only a corruption that spins forever does.
fn watchdog_for(horizon: u64) -> u64 {
    horizon.saturating_mul(8).saturating_add(65_536)
}

/// Run a fault-injection campaign on up to `threads` worker threads,
/// returning the report, one [`StrikeRecord`] per injected strike in
/// deterministic `(run, strike)` order, and the campaign's [`ForkStats`].
///
/// The kernel is compiled once; each run derives its fault plan from
/// `(seed, run_index)` and simulates independently, so the report is
/// identical for every thread count. When the spec's
/// [`SimConfig::snapshot_interval`](turnpike_sim::SimConfig) is set, the
/// fault-free golden run captures prefix snapshots and every strike run
/// forks from the latest snapshot strictly before its earliest strike
/// instead of re-executing the fault-free prefix; the
/// [`CoreSnapshot`](turnpike_sim::CoreSnapshot) determinism contract makes
/// report and records bit-identical either way. The `hook` cancels the
/// campaign or observes its progress (the serving layer streams it to
/// clients); hooks never change the report.
///
/// # Errors
///
/// Propagates compile/simulate failures (not SDCs — those are counted), and
/// returns [`RunError::Canceled`] if the hook's cancel flag is raised before
/// the last injected run completes.
pub fn fault_campaign_hooked(
    program: &Program,
    spec: &RunSpec,
    config: &CampaignConfig,
    threads: usize,
    hook: CampaignHook<'_>,
) -> Result<(CampaignReport, Vec<StrikeRecord>, ForkStats), RunError> {
    let compiled = compile(program, &spec.compiler_config())?;
    if hook.canceled() {
        return Err(RunError::Canceled);
    }
    let sc = spec.sim_config();
    // Shared across the whole campaign, built once: the pre-decode of the
    // compiled program, which the golden run and every strike run issue
    // from, and the early-exit replay guide over the golden run's
    // snapshots. Neither changes any simulated outcome.
    let translation = Arc::new(Translation::new(&compiled.program));
    let mut core = Core::new(&compiled.program, sc.clone());
    core.attach_translation(translation.clone());
    let (outcome, snapshots) = match sc.snapshot_interval {
        Some(interval) => core.run_collecting_snapshots(&FaultPlan::none(), interval)?,
        None => (core.run(&FaultPlan::none())?, Vec::new()),
    };
    let golden = RunResult::assemble(&compiled, outcome);
    let guide = (config.early_exit && !snapshots.is_empty()).then(|| {
        ReplayGuide::new(
            &compiled.program,
            &snapshots,
            &golden.outcome.stats,
            golden.outcome.ret,
        )
    });
    let horizon = golden.outcome.stats.cycles.max(2);
    // The target run count and the granularity at which results are folded
    // (and, for sequential stopping, at which stop decisions are taken).
    // Fixed campaigns use one chunk — exactly the historical single
    // `par_map` over all runs. CI-width campaigns fold every `STOP_CHUNK`
    // runs; the boundary set is independent of the thread count, so the
    // executed-run set (and the report) is too.
    let (target, chunk) = match config.stop {
        StopRule::Fixed => (config.runs, config.runs.max(1)),
        StopRule::CiWidth { cap, .. } => (cap.max(1), STOP_CHUNK),
    };
    let completed = AtomicUsize::new(0);
    let progress = hook.on_progress.map(|emit| {
        let every = if hook.progress_every == 0 {
            (target / 20).max(1)
        } else {
            hook.progress_every
        };
        ProgressShared::new(target, config.strikes_per_run, every, emit)
    });
    let worker = |_: usize, &i: &usize| {
        // Cooperative cancellation: one check per injected run, so a raised
        // flag abandons the campaign within a single simulation.
        if hook.canceled() {
            return Err(RunError::Canceled);
        }
        // `i` is the *global* run index (`first_run` included): the plan,
        // and with it the run's outcome, must be the one the unsharded
        // campaign would compute at this index.
        let plan = config.run_plan(spec, i, horizon);
        // Fork from the latest snapshot strictly before the run's earliest
        // strike (snapshots are in capture order, i.e. ascending cycles):
        // every strike then lands strictly after the fork point, which is
        // exactly the snapshot determinism contract.
        let fork_point = plan
            .faults()
            .iter()
            .map(|f| f.strike_cycle)
            .min()
            .and_then(|first| snapshots.iter().take_while(|s| s.cycle() < first).last());
        let mut core = match fork_point {
            Some(snap) => Core::from_snapshot(&compiled.program, snap),
            None => Core::new(&compiled.program, sc.clone()),
        };
        core.attach_translation(translation.clone());
        if let Some(g) = &guide {
            core.attach_replay(g);
        }
        // A watchdog abort is a campaign outcome (the strike hung the
        // program), not an infrastructure failure. Both the forked and the
        // from-scratch path clamp to the same absolute cycle bound, so the
        // classification is identical either way.
        let run = match core.run(&plan) {
            Ok(outcome) => Some(RunResult::assemble(&compiled, outcome)),
            Err(SimError::CycleLimit(_)) => None,
            Err(e) => return Err(e.into()),
        };
        // Outcome tallies land before the release bump so any snapshot
        // taken at `done == n` has seen all n outcomes.
        if let Some(p) = progress.as_ref() {
            p.count_run(run.as_ref(), &golden);
        }
        let done = completed.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(on_run) = hook.on_run {
            on_run(done, target);
        }
        if let Some(p) = progress.as_ref() {
            p.maybe_emit(done);
        }
        Ok((plan, fork_point.map(|s| s.cycle()), run))
    };
    let mut report = CampaignReport::default();
    let mut fork = ForkStats::default();
    let mut records = Vec::with_capacity(target.min(4096) * config.strikes_per_run);
    let mut executed = 0usize;
    while executed < target {
        let end = target.min(executed + chunk);
        let first = config.first_run;
        let indices: Vec<usize> = (first + executed..first + end).collect();
        let runs = par_map(&indices, threads, worker);
        for (&i, run) in indices.iter().zip(runs) {
            fold_run(i, run?, &golden, &mut report, &mut fork, &mut records);
        }
        executed = end;
        if let StopRule::CiWidth { half_width, .. } = config.stop {
            let est = RateEstimator::from_counts(report.sdc as u64, executed as u64);
            if est.half_width() <= half_width {
                break;
            }
        }
    }
    report.runs = executed;
    {
        use turnpike_metrics::Counter;
        report
            .metrics
            .add(Counter::CampaignRuns, report.runs as u64);
        report.metrics.add(Counter::CampaignSdc, report.sdc as u64);
        report.metrics.add(
            Counter::CampaignPostCompletion,
            report.post_completion as u64,
        );
        report
            .metrics
            .add(Counter::CampaignHangs, report.hangs as u64);
    }
    Ok((report, records, fork))
}

/// Whether a finished strike run silently corrupted its result. An
/// early-exited run proved its final state equals the golden run's (that
/// is what the convergence check establishes), so its empty memories
/// must not be mistaken for a wiped memory. Memories compare by content
/// ([`PagedMem::content_eq`](turnpike_sim::PagedMem::content_eq)), skipping
/// the pages a forked run still shares with the golden run.
fn is_sdc(run: &SimOutcome, golden: &SimOutcome) -> bool {
    run.replay_saved.is_none() && (run.ret != golden.ret || run.memory != golden.memory)
}

/// Fold injected run `i` into the campaign accumulators: fork accounting,
/// aggregate report fields, and one [`StrikeRecord`] per strike. `run` is
/// the worker's `(plan, fork cycle, result)`, with no result when the
/// watchdog aborted the run. Pure per-run bookkeeping, called in ascending
/// run order.
fn fold_run(
    i: usize,
    run: (FaultPlan, Option<u64>, Option<RunResult>),
    golden: &RunResult,
    report: &mut CampaignReport,
    fork: &mut ForkStats,
    records: &mut Vec<StrikeRecord>,
) {
    let (plan, forked_at, run) = run;
    match forked_at {
        Some(cycle) => {
            fork.hits += 1;
            fork.prefix_cycles_saved += cycle;
        }
        None => fork.misses += 1,
    }
    let Some(run) = run else {
        // Watchdog abort: the run hung. Every strike of the run is
        // classified as a hang; there is no final state to audit.
        report.hangs += 1;
        for (k, f) in plan.faults().iter().enumerate() {
            records.push(StrikeRecord {
                run: i,
                strike: k,
                strike_cycle: f.strike_cycle,
                detect_latency: f.detect_latency,
                recovery_cycles: 0,
                detections: 0,
                outcome: StrikeOutcome::Hang,
            });
        }
        return;
    };
    if let Some(saved) = run.outcome.replay_saved {
        fork.replay_exits += 1;
        fork.replay_cycles_saved += saved;
    }
    fork.absorb_census(&run.outcome.replay_census);
    report.recoveries += run.outcome.stats.recoveries;
    report.detections += run.outcome.stats.detections;
    report.parity_detections += run.outcome.stats.parity_detections;
    report.sensor_detections += run.outcome.stats.sensor_detections;
    let sdc = is_sdc(&run.outcome, &golden.outcome);
    if sdc {
        report.sdc += 1;
    }
    // Strikes that outnumber detections landed at or past program
    // completion and had no architectural effect — unless the run ended
    // in SDC, where the undetected strikes are precisely the corruption
    // (a strike in an unprotected region lands in-run with nothing
    // watching). Counted per strike, not per run: a 3-strike run with
    // one in-run strike contributes 2.
    let detections = run.outcome.stats.detections;
    if !sdc {
        report.post_completion += plan.faults().len().saturating_sub(detections as usize);
    }
    // Classify each strike. In a clean run the earliest `detections`
    // strikes by cycle are the ones that landed in-run and the rest hit
    // after completion; an SDC verdict is attributed to every strike of
    // the run, since nothing observed which one corrupted the state.
    let mut order: Vec<usize> = (0..plan.faults().len()).collect();
    order.sort_by_key(|&k| plan.faults()[k].strike_cycle);
    for (rank, &k) in order.iter().enumerate() {
        let f = &plan.faults()[k];
        let outcome = if sdc {
            StrikeOutcome::Sdc
        } else if (rank as u64) < detections {
            StrikeOutcome::Recovered
        } else {
            StrikeOutcome::PostCompletion
        };
        records.push(StrikeRecord {
            run: i,
            strike: k,
            strike_cycle: f.strike_cycle,
            detect_latency: f.detect_latency,
            recovery_cycles: run.outcome.stats.recovery_cycles,
            detections,
            outcome,
        });
    }
    report.metrics.merge(&run.metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use turnpike_workloads::{kernel_by_name, Scale, Suite};

    /// The campaign on `threads` workers with an inert hook.
    fn campaign(
        p: &Program,
        spec: &RunSpec,
        cfg: &CampaignConfig,
        threads: usize,
    ) -> (CampaignReport, Vec<StrikeRecord>, ForkStats) {
        fault_campaign_hooked(p, spec, cfg, threads, CampaignHook::default()).unwrap()
    }

    fn kernel(suite: Suite, name: &str) -> Program {
        kernel_by_name(suite, name, Scale::Smoke)
            .expect("known kernel")
            .program
    }

    #[test]
    fn turnpike_is_sdc_free_on_diverse_kernels() {
        for (suite, name) in [
            (Suite::Cpu2006, "bwaves"),
            (Suite::Cpu2006, "hmmer"),
            (Suite::Cpu2017, "leela"),
            (Suite::Splash3, "radix"),
        ] {
            let p = kernel(suite, name);
            let report = campaign(
                &p,
                &RunSpec::new(Scheme::Turnpike),
                &CampaignConfig {
                    runs: 12,
                    seed: 42,
                    strikes_per_run: 1,
                    ..Default::default()
                },
                1,
            )
            .0;
            assert!(report.sdc_free(), "{name}: {report:?}");
            assert!(report.detections > 0, "{name}: no strike landed in-run");
        }
    }

    #[test]
    fn turnstile_is_sdc_free_too() {
        let p = kernel(Suite::Cpu2006, "libquan");
        let report = campaign(
            &p,
            &RunSpec::new(Scheme::Turnstile),
            &CampaignConfig {
                runs: 12,
                seed: 7,
                strikes_per_run: 1,
                ..Default::default()
            },
            1,
        )
        .0;
        assert!(report.sdc_free(), "{report:?}");
    }

    #[test]
    fn multiple_strikes_per_run_still_recover() {
        let p = kernel(Suite::Cpu2006, "leslie3d");
        let report = campaign(
            &p,
            &RunSpec::new(Scheme::Turnpike),
            &CampaignConfig {
                runs: 8,
                seed: 3,
                strikes_per_run: 3,
                ..Default::default()
            },
            1,
        )
        .0;
        assert!(report.sdc_free(), "{report:?}");
        assert!(report.recoveries >= report.runs as u64 / 2);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let p = kernel(Suite::Cpu2006, "bwaves");
        let cfg = CampaignConfig {
            runs: 5,
            seed: 99,
            strikes_per_run: 1,
            ..Default::default()
        };
        let a = campaign(&p, &RunSpec::new(Scheme::Turnpike), &cfg, 1).0;
        let b = campaign(&p, &RunSpec::new(Scheme::Turnpike), &cfg, 1).0;
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let p = kernel(Suite::Cpu2006, "hmmer");
        let cfg = CampaignConfig {
            runs: 8,
            seed: 1234,
            strikes_per_run: 2,
            ..Default::default()
        };
        let spec = RunSpec::new(Scheme::Turnpike);
        let serial = campaign(&p, &spec, &cfg, 1).0;
        for threads in [2, 4, 8] {
            let par = campaign(&p, &spec, &cfg, threads).0;
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn report_metrics_agree_with_fixed_fields() {
        use turnpike_metrics::Counter;
        let p = kernel(Suite::Cpu2006, "bwaves");
        let report = campaign(
            &p,
            &RunSpec::new(Scheme::Turnpike),
            &CampaignConfig {
                runs: 6,
                seed: 11,
                strikes_per_run: 1,
                ..Default::default()
            },
            1,
        )
        .0;
        let m = &report.metrics;
        assert_eq!(m.counter(Counter::CampaignRuns), report.runs as u64);
        assert_eq!(m.counter(Counter::CampaignSdc), report.sdc as u64);
        assert_eq!(
            m.counter(Counter::CampaignPostCompletion),
            report.post_completion as u64
        );
        assert_eq!(m.counter(Counter::Recoveries), report.recoveries);
        assert_eq!(m.counter(Counter::Detections), report.detections);
        // The fold summed every injected run's cycles.
        assert!(m.counter(Counter::Cycles) > 0);
    }

    #[test]
    fn strike_records_cover_every_strike_in_order() {
        let p = kernel(Suite::Cpu2006, "bwaves");
        let cfg = CampaignConfig {
            runs: 6,
            seed: 11,
            strikes_per_run: 2,
            ..Default::default()
        };
        let spec = RunSpec::new(Scheme::Turnpike);
        let (report, records, _) = campaign(&p, &spec, &cfg, 1);
        assert_eq!(records.len(), cfg.runs * cfg.strikes_per_run);
        // Deterministic (run, strike-by-cycle) order.
        for w in records.windows(2) {
            assert!(
                w[0].run < w[1].run
                    || (w[0].run == w[1].run && w[0].strike_cycle <= w[1].strike_cycle),
                "{w:?}"
            );
        }
        // Outcome classes reconcile with the aggregate report.
        let post = records
            .iter()
            .filter(|r| r.outcome == StrikeOutcome::PostCompletion)
            .count();
        assert_eq!(post, report.post_completion);
        assert!(records.iter().all(|r| r.outcome != StrikeOutcome::Sdc));
        // Parallel production is byte-identical.
        let (_, records4, _) = campaign(&p, &spec, &cfg, 4);
        assert_eq!(records, records4);
    }

    #[test]
    fn strike_records_stream_as_stable_jsonl() {
        let r = StrikeRecord {
            run: 3,
            strike: 0,
            strike_cycle: 120,
            detect_latency: 7,
            recovery_cycles: 42,
            detections: 1,
            outcome: StrikeOutcome::Recovered,
        };
        assert_eq!(
            r.to_json().to_string(),
            "{\"run\":3,\"strike\":0,\"strike_cycle\":120,\"detect_latency\":7,\
             \"recovery_cycles\":42,\"detections\":1,\"outcome\":\"recovered\"}"
        );
        let mut buf = Vec::new();
        write_strike_records(&[r.clone(), r], None, 0, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn path_writer_creates_missing_parent_directories() {
        let r = StrikeRecord {
            run: 0,
            strike: 0,
            strike_cycle: 10,
            detect_latency: 3,
            recovery_cycles: 9,
            detections: 1,
            outcome: StrikeOutcome::Recovered,
        };
        let dir = std::env::temp_dir().join(format!(
            "turnpike-strikes-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/strikes.jsonl");
        write_strike_records_to_path(&[r.clone(), r], None, 0, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"run\":0,"));
        // A bare filename (no parent component) must also work.
        let mut bare = Vec::new();
        write_strike_records(&[], None, 0, &mut bare).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hooked_campaign_matches_unhooked_and_reports_progress() {
        use std::sync::atomic::AtomicUsize;
        let p = kernel(Suite::Cpu2006, "bwaves");
        let cfg = CampaignConfig {
            runs: 6,
            seed: 11,
            strikes_per_run: 1,
            ..Default::default()
        };
        let spec = RunSpec::new(Scheme::Turnpike);
        let plain = campaign(&p, &spec, &cfg, 2);
        let calls = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let on_run = |done: usize, total: usize| {
            assert_eq!(total, 6);
            calls.fetch_add(1, Ordering::Relaxed);
            peak.fetch_max(done, Ordering::Relaxed);
        };
        let hook = CampaignHook {
            cancel: None,
            on_run: Some(&on_run),
            ..CampaignHook::default()
        };
        let hooked = fault_campaign_hooked(&p, &spec, &cfg, 2, hook).unwrap();
        assert_eq!(plain, hooked, "hooks must not change the report");
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!(peak.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn raised_cancel_flag_abandons_the_campaign() {
        let p = kernel(Suite::Cpu2006, "bwaves");
        let cfg = CampaignConfig {
            runs: 4,
            seed: 5,
            strikes_per_run: 1,
            ..Default::default()
        };
        let cancel = AtomicBool::new(true);
        let hook = CampaignHook {
            cancel: Some(&cancel),
            on_run: None,
            ..CampaignHook::default()
        };
        let err = fault_campaign_hooked(&p, &RunSpec::new(Scheme::Turnpike), &cfg, 1, hook)
            .expect_err("pre-raised cancel flag");
        assert_eq!(err, RunError::Canceled);
    }

    #[test]
    fn ci_width_stop_rule_stops_early_with_tight_ci() {
        let p = kernel(Suite::Cpu2006, "bwaves");
        let spec = RunSpec::new(Scheme::Turnpike);
        let cfg = CampaignConfig {
            seed: 21,
            strikes_per_run: 1,
            stop: StopRule::CiWidth {
                half_width: 0.06,
                cap: 64,
            },
            ..Default::default()
        };
        let report = campaign(&p, &spec, &cfg, 2).0;
        // Turnpike is SDC-free, so the Wilson interval on 0/n tightens
        // past 0.06 at the second chunk boundary — well before the cap.
        assert_eq!(report.runs, 2 * STOP_CHUNK, "{report:?}");
        assert!(report.sdc_free());
        let est =
            turnpike_metrics::RateEstimator::from_counts(report.sdc as u64, report.runs as u64);
        assert!(est.half_width() <= 0.06, "{}", est.half_width());
        // The executed-run set is a function of the config alone: any
        // thread count stops at the same boundary with the same report.
        for threads in [1, 4] {
            let again = campaign(&p, &spec, &cfg, threads).0;
            assert_eq!(report, again, "threads={threads}");
        }
        // The campaign counters reflect the runs actually executed.
        use turnpike_metrics::Counter;
        assert_eq!(
            report.metrics.counter(Counter::CampaignRuns),
            report.runs as u64
        );
        // A hopeless half-width exhausts the cap instead of stopping.
        let capped = CampaignConfig {
            stop: StopRule::CiWidth {
                half_width: 1e-6,
                cap: 8,
            },
            ..cfg
        };
        let report = campaign(&p, &spec, &capped, 2).0;
        assert_eq!(report.runs, 8);
    }

    #[test]
    fn progress_snapshots_reconcile_and_never_change_the_report() {
        let p = kernel(Suite::Cpu2006, "bwaves");
        let cfg = CampaignConfig {
            runs: 6,
            seed: 11,
            strikes_per_run: 1,
            ..Default::default()
        };
        let spec = RunSpec::new(Scheme::Turnpike);
        let plain = campaign(&p, &spec, &cfg, 2);
        let snapshots: Mutex<Vec<CampaignProgress>> = Mutex::new(Vec::new());
        let on_progress = |s: &CampaignProgress| {
            snapshots.lock().unwrap().push(*s);
        };
        let hook = CampaignHook {
            on_progress: Some(&on_progress),
            progress_every: 2,
            ..CampaignHook::default()
        };
        let hooked = fault_campaign_hooked(&p, &spec, &cfg, 2, hook).unwrap();
        assert_eq!(
            plain, hooked,
            "progress snapshots must not change the report"
        );
        let snapshots = snapshots.into_inner().unwrap();
        assert!(!snapshots.is_empty());
        // The final snapshot is exact: it fires after every run's outcome
        // has been tallied, so the counts reconcile with the report.
        let last = snapshots.last().unwrap();
        assert_eq!(last.done, 6);
        assert_eq!(last.total, 6);
        assert_eq!(
            last.recovered + last.post_completion + last.sdc + last.hangs,
            6
        );
        let report = &hooked.0;
        assert_eq!(last.sdc, report.sdc);
        assert_eq!(last.hangs, report.hangs);
        assert_eq!(last.detections, report.detections);
        assert_eq!(last.sdc_rate.trials(), 6);
        assert_eq!(last.sdc_rate.successes(), report.sdc as u64);
        let (lo, hi) = last.sdc_rate.wilson_bounds();
        assert!(lo <= last.sdc_rate.rate() && last.sdc_rate.rate() <= hi);
        // Deliveries are strictly monotone in `done`: a staler snapshot
        // losing the race to the lock is dropped, never delivered late.
        for w in snapshots.windows(2) {
            assert!(w[0].done < w[1].done, "{w:?}");
        }
    }

    #[test]
    fn capped_record_stream_is_bounded_documented_and_deterministic() {
        let p = kernel(Suite::Cpu2006, "bwaves");
        let cfg = CampaignConfig {
            runs: 6,
            seed: 11,
            strikes_per_run: 2,
            ..Default::default()
        };
        let (_, records, _) = campaign(&p, &RunSpec::new(Scheme::Turnpike), &cfg, 1);
        assert_eq!(records.len(), 12);
        // Uncapped output is every record, one per line — no header, no
        // sampling.
        let plain: String = records
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        let mut uncapped = Vec::new();
        write_strike_records(&records, None, 0, &mut uncapped).unwrap();
        assert_eq!(plain.as_bytes(), uncapped);
        // Capped output: one header line documenting the sampling, then
        // `cap` records in original order, reproducible for a seed.
        let mut capped = Vec::new();
        write_strike_records(&records, Some(5), 99, &mut capped).unwrap();
        let text = String::from_utf8(capped.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            "{\"header\":\"strike_records\",\"sampling\":\"reservoir\",\"total\":12,\
             \"written\":5,\"cap\":5,\"seed\":99}"
        );
        let full: Vec<String> = records.iter().map(|r| r.to_json().to_string()).collect();
        let mut last_pos = 0;
        for line in &lines[1..] {
            let pos = full.iter().position(|l| l == line).expect("sampled record");
            assert!(pos >= last_pos, "sampled records keep original order");
            last_pos = pos;
        }
        let mut again = Vec::new();
        write_strike_records(&records, Some(5), 99, &mut again).unwrap();
        assert_eq!(capped, again);
        // A cap at or above the population writes everything.
        let mut all = Vec::new();
        write_strike_records(&records, Some(64), 99, &mut all).unwrap();
        let all = String::from_utf8(all).unwrap();
        assert_eq!(all.lines().count(), 13);
        assert!(all.contains("\"written\":12,\"cap\":64"));
        // A zero cap cannot be honored (a reservoir keeps at least one
        // record), so it is rejected instead of mislabeled.
        let mut zero = Vec::new();
        let err = write_strike_records(&records, Some(0), 99, &mut zero).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(zero.is_empty());
    }

    #[test]
    fn run_streams_are_independent() {
        // Distinct run indices derive distinct seeds; same index is stable.
        let seen: std::collections::BTreeSet<u64> =
            (0..100).map(|i| super::run_seed(7, i)).collect();
        assert_eq!(seen.len(), 100);
        assert_eq!(super::run_seed(7, 3), super::run_seed(7, 3));
        assert_ne!(super::run_seed(7, 3), super::run_seed(8, 3));
    }
}
