//! Compile-and-simulate driver.

use crate::preset::CacheGeom;
use crate::scheme::Scheme;
use turnpike_compiler::{
    compile, CompileError, CompileOutput, CompilerConfig, PassStats, ProtectionPolicy,
};
use turnpike_ir::Program;
use turnpike_sim::{ClqKind, Core, CoreSnapshot, FaultPlan, SimConfig, SimError, SimOutcome};

/// A fully-specified run: scheme, platform knobs, and optional hardware
/// overrides for the sensitivity studies.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Design point.
    pub scheme: Scheme,
    /// Store buffer entries.
    pub sb_size: u32,
    /// Worst-case detection latency in cycles.
    pub wcdl: u64,
    /// Override the CLQ design (Figures 14/15/24/25); `None` keeps the
    /// scheme's default.
    pub clq_override: Option<ClqKind>,
    /// Record latency histograms (SB residency, verification latency,
    /// detection latency, recovery penalty) into the run's stats and
    /// metrics. Recording never changes the timing model.
    pub histograms: bool,
    /// Override the scheme's snapshot cadence
    /// ([`SimConfig::snapshot_interval`]): `Some(interval)` replaces it,
    /// `None` keeps the scheme default. Fault campaigns read the resulting
    /// config to decide whether to fork strike runs from fault-free prefix
    /// snapshots; `with_snapshot_interval(None)` forces the from-scratch
    /// path. Snapshots never change any simulated outcome.
    pub snapshot_override: Option<Option<u64>>,
    /// Override the scheme's per-region protection policy (degenerate
    /// equivalence tests, custom thresholds); `None` keeps the scheme's
    /// own policy. Applied in [`RunSpec::compiler_config`], so it rides
    /// through campaigns and the engine's compile cache untouched.
    pub policy_override: Option<ProtectionPolicy>,
    /// Override the color-pool size (the explorer's color axis); `None`
    /// keeps the scheme's default. Only meaningful when the scheme's
    /// configuration has coloring on — otherwise the simulator ignores it.
    pub colors_override: Option<u8>,
    /// Override the cache geometry (the explorer's cache axis); `None`
    /// keeps the simulator's Cortex-A53-like default.
    pub geom_override: Option<CacheGeom>,
}

impl RunSpec {
    /// A spec with the paper's defaults (4-entry SB, 10-cycle WCDL).
    pub fn new(scheme: Scheme) -> Self {
        RunSpec {
            scheme,
            sb_size: 4,
            wcdl: 10,
            clq_override: None,
            histograms: false,
            snapshot_override: None,
            policy_override: None,
            colors_override: None,
            geom_override: None,
        }
    }

    /// Same spec with a different WCDL.
    pub fn with_wcdl(mut self, wcdl: u64) -> Self {
        self.wcdl = wcdl;
        self
    }

    /// Same spec with a different SB size.
    pub fn with_sb(mut self, sb: u32) -> Self {
        self.sb_size = sb;
        self
    }

    /// Same spec with a CLQ override.
    pub fn with_clq(mut self, clq: ClqKind) -> Self {
        self.clq_override = Some(clq);
        self
    }

    /// Same spec with latency histograms recorded.
    pub fn with_histograms(mut self) -> Self {
        self.histograms = true;
        self
    }

    /// Same spec with the snapshot cadence overridden: `Some(n)` captures a
    /// fault-free prefix snapshot roughly every `n` cycles during campaign
    /// golden runs, `None` disables snapshots (campaigns then simulate every
    /// strike run from scratch). Either way the campaign output is
    /// bit-identical — snapshots only change how much prefix work is redone.
    pub fn with_snapshot_interval(mut self, interval: Option<u64>) -> Self {
        self.snapshot_override = Some(interval);
        self
    }

    /// Same spec with the protection policy overridden.
    pub fn with_policy(mut self, policy: ProtectionPolicy) -> Self {
        self.policy_override = Some(policy);
        self
    }

    /// Same spec with the color-pool size overridden.
    pub fn with_colors(mut self, colors: u8) -> Self {
        self.colors_override = Some(colors);
        self
    }

    /// Same spec with the cache geometry overridden.
    pub fn with_geom(mut self, geom: CacheGeom) -> Self {
        self.geom_override = Some(geom);
        self
    }

    /// The compiler configuration this spec compiles under. Two specs with
    /// equal configurations produce identical machine code, which is what
    /// lets the evaluation engine share one compile across run points.
    pub fn compiler_config(&self) -> CompilerConfig {
        let mut cc = self.scheme.compiler_config(self.sb_size);
        if let Some(policy) = self.policy_override {
            cc.policy = policy;
        }
        cc
    }

    /// The simulator configuration this spec runs under, with the CLQ
    /// override (and its implied WAR-free gating) applied.
    pub fn sim_config(&self) -> SimConfig {
        let mut sc = self.scheme.sim_config(self.sb_size, self.wcdl);
        if let Some(clq) = self.clq_override {
            sc.clq = clq;
            sc.war_free = !matches!(clq, ClqKind::Off) && sc.resilient;
        }
        sc.histograms = self.histograms;
        if let Some(interval) = self.snapshot_override {
            sc.snapshot_interval = interval;
        }
        if let Some(colors) = self.colors_override {
            sc.colors = colors;
        }
        if let Some(geom) = self.geom_override {
            sc.l1_bytes = geom.l1_bytes;
            sc.l1_ways = geom.l1_ways;
            sc.l2_bytes = geom.l2_bytes;
            sc.l2_ways = geom.l2_ways;
        }
        sc
    }
}

/// Result of a run: simulation outcome plus the compiler statistics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulator outcome (cycles, stats, final memory).
    pub outcome: SimOutcome,
    /// Compiler pass statistics (store breakdown, code size).
    pub compile_stats: PassStats,
    /// The run's unified metrics registry: the compile's `compile.*` keys
    /// merged with the simulation's `sim.*` keys. The evaluation harness
    /// reads every statistic from here.
    pub metrics: turnpike_metrics::MetricSet,
}

impl RunResult {
    /// Assemble a result from a compile and a simulation, merging both
    /// layers' metrics into the unified registry.
    pub(crate) fn assemble(compiled: &CompileOutput, outcome: SimOutcome) -> Self {
        let mut metrics = compiled.metrics.clone();
        metrics.merge(&outcome.stats.to_metrics());
        RunResult {
            outcome,
            compile_stats: compiled.stats.clone(),
            metrics,
        }
    }
}

/// Driver failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Sim(SimError),
    /// The caller's cancellation hook fired before the work finished (see
    /// [`crate::campaign::CampaignHook`]); partial results are discarded.
    Canceled,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "compile: {e}"),
            RunError::Sim(e) => write!(f, "simulate: {e}"),
            RunError::Canceled => write!(f, "canceled"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Compile `program` under `spec` and simulate it fault-free.
///
/// # Errors
///
/// Propagates compiler and simulator failures.
pub fn run_kernel(program: &Program, spec: &RunSpec) -> Result<RunResult, RunError> {
    let compiled = compile(program, &spec.compiler_config())?;
    run_compiled(&compiled, &spec.sim_config())
}

/// Simulate an already-compiled program fault-free under an explicit
/// simulator configuration. The evaluation engine's run cache sits on top
/// of this: one compile feeds every (WCDL, CLQ, colors, ...) sim point.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_compiled(compiled: &CompileOutput, sc: &SimConfig) -> Result<RunResult, RunError> {
    let outcome = Core::new(&compiled.program, sc.clone()).run(&FaultPlan::none())?;
    Ok(RunResult::assemble(compiled, outcome))
}

/// Simulate an already-compiled program under `spec` and `faults`,
/// capturing a [`CoreSnapshot`] roughly every `interval` cycles. Capture is
/// pure observation: the outcome is the one [`Core::run`] gives. Fault
/// campaigns run the fault-free golden execution through this once and
/// resume each strike run ([`Core::from_snapshot`]) from the latest usable
/// snapshot.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_compiled_collecting_snapshots(
    compiled: &CompileOutput,
    spec: &RunSpec,
    faults: &FaultPlan,
    interval: u64,
) -> Result<(RunResult, Vec<CoreSnapshot>), RunError> {
    let (outcome, snaps) = Core::new(&compiled.program, spec.sim_config())
        .run_collecting_snapshots(faults, interval)?;
    Ok((RunResult::assemble(compiled, outcome), snaps))
}

/// Normalized execution time of `spec` relative to the unprotected baseline
/// on the same kernel (the paper's y-axis on every performance figure).
///
/// # Errors
///
/// Propagates compiler and simulator failures.
pub fn normalized_time(program: &Program, spec: &RunSpec) -> Result<f64, RunError> {
    let base = run_kernel(
        program,
        &RunSpec::new(Scheme::Baseline).with_sb(spec.sb_size),
    )?;
    let run = run_kernel(program, spec)?;
    Ok(run.outcome.stats.cycles as f64 / base.outcome.stats.cycles as f64)
}

/// Geometric mean of a nonempty slice (used for per-suite summaries).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnpike_workloads::{kernel_by_name, Scale, Suite};

    fn kernel(name: &str) -> Program {
        kernel_by_name(Suite::Cpu2006, name, Scale::Smoke)
            .expect("known kernel")
            .program
    }

    #[test]
    fn baseline_and_turnpike_agree_functionally() {
        for name in ["bwaves", "hmmer", "mcf", "gcc"] {
            let p = kernel(name);
            let base = run_kernel(&p, &RunSpec::new(Scheme::Baseline)).unwrap();
            let tp = run_kernel(&p, &RunSpec::new(Scheme::Turnpike)).unwrap();
            assert_eq!(base.outcome.ret, tp.outcome.ret, "{name}");
        }
    }

    #[test]
    fn ladder_overheads_are_ordered_on_average() {
        // Turnpike must beat Turnstile on the geomean over a few kernels.
        let names = ["bwaves", "hmmer", "leslie3d", "libquan"];
        let mut ts = Vec::new();
        let mut tp = Vec::new();
        for n in names {
            let p = kernel(n);
            ts.push(normalized_time(&p, &RunSpec::new(Scheme::Turnstile)).unwrap());
            tp.push(normalized_time(&p, &RunSpec::new(Scheme::Turnpike)).unwrap());
        }
        let (g_ts, g_tp) = (geomean(&ts), geomean(&tp));
        assert!(
            g_tp < g_ts,
            "turnpike ({g_tp:.3}) must beat turnstile ({g_ts:.3})"
        );
        assert!(g_ts > 1.0, "turnstile costs something: {g_ts:.3}");
    }

    #[test]
    fn clq_override_applies() {
        let p = kernel("bwaves");
        let ideal = run_kernel(
            &p,
            &RunSpec::new(Scheme::FastRelease).with_clq(ClqKind::Ideal),
        )
        .unwrap();
        let compact = run_kernel(
            &p,
            &RunSpec::new(Scheme::FastRelease).with_clq(ClqKind::Compact(2)),
        )
        .unwrap();
        // The ideal design proves at least as many stores WAR-free.
        assert!(ideal.outcome.stats.clq.war_free >= compact.outcome.stats.clq.war_free);
    }

    #[test]
    fn run_metrics_span_compile_and_sim() {
        use turnpike_metrics::Counter;
        let p = kernel("bwaves");
        let r = run_kernel(&p, &RunSpec::new(Scheme::Turnpike)).unwrap();
        // Both layers' keys are present in the one registry...
        assert_eq!(r.metrics.counter(Counter::Cycles), r.outcome.stats.cycles);
        assert_eq!(
            r.metrics.counter(Counter::CkptsInserted),
            u64::from(r.compile_stats.ckpts_inserted)
        );
        assert!(r.metrics.counter(Counter::CkptsInserted) > 0);
        // ...and the typed views agree with the registry.
        assert_eq!(r.metrics.ipc(), r.outcome.stats.ipc());
        assert_eq!(
            r.metrics.code_size_increase(),
            r.compile_stats.code_size_increase()
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn spec_builders_chain() {
        let s = RunSpec::new(Scheme::Turnstile)
            .with_wcdl(50)
            .with_sb(8)
            .with_clq(ClqKind::Ideal);
        assert_eq!(s.wcdl, 50);
        assert_eq!(s.sb_size, 8);
        assert_eq!(s.clq_override, Some(ClqKind::Ideal));
    }

    #[test]
    fn colors_and_geom_overrides_reach_the_sim_config() {
        use crate::preset::cache_geom;
        let slim = cache_geom("slim").unwrap();
        let s = RunSpec::new(Scheme::Turnpike)
            .with_colors(8)
            .with_geom(slim);
        let sc = s.sim_config();
        assert_eq!(sc.colors, 8);
        assert_eq!(sc.l1_bytes, slim.l1_bytes);
        assert_eq!(sc.l1_ways, slim.l1_ways);
        assert_eq!(sc.l2_bytes, slim.l2_bytes);
        assert_eq!(sc.l2_ways, slim.l2_ways);
        // The default spec leaves both knobs at the scheme's values.
        let default = RunSpec::new(Scheme::Turnpike).sim_config();
        assert_eq!(default.colors, 4);
        assert_eq!(default.l1_bytes, 64 * 1024);
    }
}
