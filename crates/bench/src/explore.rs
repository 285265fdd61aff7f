//! The design-space explorer's execution driver.
//!
//! `turnpike_explore` owns the pure domain (grid enumeration, pricing,
//! epsilon-dominance filtering); this module owns *execution*: every grid
//! point becomes ordinary [`JobRequest`]s — fault-free runs for the
//! overhead objective, campaign shards for the coverage objective — and
//! those jobs flow through the exact same path as everything else in the
//! repo: the [`EngineExecutor`] (direct mode) or a `turnpike-serve` worker
//! fleet (`--workers`), both backed by the memoizing engine and the
//! content-addressed artifact store. One consequence is `--resume` for
//! free: a re-run re-issues the same jobs, and every job whose artifact is
//! already stored is a store hit instead of a simulation.
//!
//! The search is staged:
//!
//! 1. **Screen** — every canonical point is evaluated at smoke scale
//!    (cheap runs for overhead, a small fixed-size campaign for coverage)
//!    and the set is pruned with staged epsilon dominance
//!    ([`staged_eps_prune`]).
//! 2. **Promote** — survivors are re-evaluated at the requested scale over
//!    the full kernel list, with the campaign cells extended in
//!    [`STOP_CHUNK`]-run shard rounds until the Wilson 95% CI on the SDC
//!    rate is narrower than the target (or the run cap is reached) — the
//!    same client-side sequential stopping the telemetry harness uses.
//! 3. **Frontier** — an exact Pareto pass over the promoted objectives
//!    flags the frontier. The pruning stages use *epsilon* dominance
//!    (strictly stronger than plain dominance, so no exact-Pareto point
//!    is ever screened out — the explore crate's property test); the
//!    final pass uses plain dominance so ties on a saturated axis (many
//!    points reach SDC 0) don't inflate the frontier.
//!
//! Determinism: batches are issued in a deterministic order (BTreeMap on
//! the request's wire line, or explicit survivor order), results land by
//! index, every payload is rendered by the shared renderers, and the
//! stopping rule reads only merged campaign counts — so the same grid and
//! seed produce a byte-identical frontier at any thread or worker count.

use std::collections::BTreeMap;

use turnpike_explore::{
    area_unit, clq_name, enumerate, exact_pareto_mask, staged_eps_prune, DesignPoint, Objectives,
    DEFAULT_EPSILON,
};
use turnpike_metrics::RateEstimator;
use turnpike_model::CostModel;
use turnpike_resilience::{geomean, par_map, CacheGeom, ExploreAxes, EXPLORE_AXES, STOP_CHUNK};
use turnpike_serve::{Client, JobKind, JobRequest, Json, Outcome, StoreStatus};
use turnpike_workloads::Scale;

use crate::service::{CampaignTotals, EngineExecutor};

/// Chunk size of the screening stage's staged pruner. Any value gives the
/// same survivor set (chunked-then-final filtering is equivalent to the
/// one-shot filter — see the pruner's property test); the constant only
/// shapes intermediate work.
const SCREEN_PRUNE_CHUNK: usize = 64;

/// How a batch of explore jobs executes.
pub enum JobRunner {
    /// In-process: jobs fan out over `threads` via [`par_map`], each
    /// executing on the shared (serial-engine) executor. Campaign cells
    /// are whole jobs here, so batch-level parallelism replaces
    /// campaign-internal parallelism.
    Direct {
        /// The executor (attach a store for `--resume`).
        exec: EngineExecutor,
        /// Batch-level thread budget.
        threads: usize,
    },
    /// Dispatch to a `turnpike-serve` worker fleet, round-robin by job
    /// index. Each worker gets one connection per batch and executes its
    /// share sequentially; results land by index, so the assignment (and
    /// the output) is independent of worker timing.
    Fleet {
        /// Worker addresses.
        workers: Vec<String>,
    },
}

impl JobRunner {
    /// Execute one batch, returning `(payload, store_hit)` per request in
    /// input order.
    fn execute(&self, reqs: &[JobRequest]) -> Result<Vec<(String, bool)>, String> {
        match self {
            JobRunner::Direct { exec, threads } => {
                let outs = par_map(reqs, *threads, |_, req| {
                    exec.execute_direct(req)
                        .map(|o| (o.result, o.store == StoreStatus::Hit))
                });
                outs.into_iter().collect()
            }
            JobRunner::Fleet { workers } => {
                let w = workers.len();
                if w == 0 {
                    return Err("no workers configured".to_string());
                }
                let ids: Vec<usize> = (0..w).collect();
                let shares = par_map(&ids, w, |_, &wi| -> Vec<(usize, Result<_, String>)> {
                    let mut client = match Client::connect(workers[wi].as_str()) {
                        Ok(c) => c,
                        Err(e) => {
                            return (wi..reqs.len())
                                .step_by(w)
                                .map(|i| (i, Err(format!("connect {}: {e}", workers[wi]))))
                                .collect()
                        }
                    };
                    (wi..reqs.len())
                        .step_by(w)
                        .map(|i| (i, submit_retrying(&mut client, &reqs[i])))
                        .collect()
                });
                let mut out: Vec<Option<(String, bool)>> = vec![None; reqs.len()];
                for (i, r) in shares.into_iter().flatten() {
                    out[i] = Some(r?);
                }
                Ok(out
                    .into_iter()
                    .map(|o| o.expect("every index assigned"))
                    .collect())
            }
        }
    }

    /// The in-process executor, if this is a direct runner (tests peek at
    /// its engine counters).
    pub fn executor(&self) -> Option<&EngineExecutor> {
        match self {
            JobRunner::Direct { exec, .. } => Some(exec),
            JobRunner::Fleet { .. } => None,
        }
    }
}

/// Submit one job, absorbing transient `overloaded` rejections with the
/// server's suggested backoff (bounded, so a wedged server still errors
/// out instead of hanging the sweep).
fn submit_retrying(client: &mut Client, req: &JobRequest) -> Result<(String, bool), String> {
    for _ in 0..100 {
        match client.submit(req).map_err(|e| e.to_string())? {
            Outcome::Done { store, result, .. } => return Ok((result, store == "hit")),
            Outcome::Overloaded { retry_after_ms } => {
                std::thread::sleep(std::time::Duration::from_millis(
                    retry_after_ms.clamp(1, 500),
                ));
            }
            Outcome::ShuttingDown => return Err("worker is shutting down".to_string()),
            Outcome::Error { message, .. } => return Err(message),
        }
    }
    Err("worker overloaded beyond retry budget".to_string())
}

/// Everything that parameterizes one exploration. The default grids live
/// in `resilience::preset` ([`EXPLORE_AXES`]); tests swap in tiny axes.
pub struct ExploreConfig {
    /// The declarative grid.
    pub axes: ExploreAxes,
    /// Scale of the promote stage (screening always runs at smoke scale).
    pub scale: Scale,
    /// Kernels for the screening stage's overhead objective.
    pub screen_kernels: Vec<String>,
    /// Kernels for the promoted overhead objective (geomean).
    pub kernels: Vec<String>,
    /// The kernel carrying the coverage (fault-campaign) objective.
    pub campaign_kernel: String,
    /// Campaign RNG seed (part of the frontier's identity).
    pub seed: u64,
    /// Dominance epsilon (see `turnpike_explore::pareto`).
    pub epsilon: f64,
    /// Campaign runs per point in the screening stage.
    pub screen_runs: u64,
    /// Promote stage: stop a point's campaign once the Wilson 95% CI
    /// half-width on its SDC rate drops to this.
    pub ci_half_width: f64,
    /// Promote stage: hard cap on campaign runs per point.
    pub ci_cap: u64,
}

impl ExploreConfig {
    /// Smoke-scale exploration: the CI configuration. Small fixed
    /// screening campaigns, a loose CI target, and a low cap keep the
    /// whole sweep minutes-scale while still exercising every stage.
    pub fn smoke() -> ExploreConfig {
        ExploreConfig {
            axes: EXPLORE_AXES,
            scale: Scale::Smoke,
            screen_kernels: vec!["bwaves".into(), "mcf".into()],
            kernels: vec!["bwaves".into(), "hmmer".into(), "mcf".into(), "gcc".into()],
            campaign_kernel: "bwaves".into(),
            seed: 0xF00D,
            epsilon: DEFAULT_EPSILON,
            screen_runs: 8,
            ci_half_width: 0.15,
            ci_cap: 32,
        }
    }

    /// Full-scale exploration: same grid, full-scale promote stage with a
    /// tight CI target.
    pub fn full() -> ExploreConfig {
        ExploreConfig {
            scale: Scale::Full,
            screen_runs: 16,
            ci_half_width: 0.05,
            ci_cap: 96,
            ..ExploreConfig::smoke()
        }
    }
}

/// One promoted point's final evaluation.
#[derive(Debug, Clone)]
pub struct Promoted {
    /// Final objectives (promote-scale overhead, area, SDC rate).
    pub objectives: Objectives,
    /// SDC count over the point's campaign runs.
    pub sdc: u64,
    /// Campaign runs executed (the sequential-stopping total).
    pub runs: u64,
    /// On the final Pareto frontier?
    pub frontier: bool,
}

/// One canonical grid point's evaluation across the stages.
#[derive(Debug, Clone)]
pub struct PointEval {
    /// The design point.
    pub point: DesignPoint,
    /// Added-hardware area (µm²) from the cost model.
    pub area_um2: f64,
    /// Added-hardware access energy (pJ) from the cost model.
    pub energy_pj: f64,
    /// Screening-stage objectives (smoke overhead, area, smoke SDC rate).
    pub screen: Objectives,
    /// Promote-stage results; `None` for screened-out points.
    pub promoted: Option<Promoted>,
}

/// Stage-by-stage accounting, reported in the `"explore"` block: the
/// pruning evidence (canonical < raw, promoted < canonical) and the job
/// traffic (store hits are what `--resume` skips).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreCounts {
    /// Raw cartesian-product size of the grid.
    pub raw: usize,
    /// Canonical points after collapsing no-effect axis values.
    pub canonical: usize,
    /// Points promoted past the screening prune.
    pub promoted: usize,
    /// Points on the final frontier.
    pub frontier: usize,
    /// Jobs issued (all stages, after batch-level dedup).
    pub jobs: usize,
    /// Jobs served from the artifact store.
    pub store_hits: usize,
    /// Promote-stage campaign runs executed across all points.
    pub campaign_runs: u64,
}

/// The exploration's complete result.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Per-point evaluations, in canonical enumeration order.
    pub points: Vec<PointEval>,
    /// Stage accounting.
    pub counts: ExploreCounts,
}

/// The job evaluating `point` on `kernel` (run or campaign kind).
fn point_job(kind: JobKind, point: &DesignPoint, kernel: &str, scale: Scale) -> JobRequest {
    let mut req = JobRequest::new(kind);
    req.kernel = kernel.to_string();
    req.scheme = point.scheme.cli_name().to_string();
    req.scale = scale.name().to_string();
    req.sb = point.sb_size;
    req.wcdl = point.wcdl;
    if let Some(clq) = point.clq {
        req.clq = clq_name(clq);
    }
    if let Some(colors) = point.colors {
        req.colors = u64::from(colors);
    }
    req.geom = point.geom.name.to_string();
    req
}

/// The unprotected-baseline run normalizing `point`'s overhead: same SB
/// size and cache geometry, baseline scheme. WCDL/CLQ/colors stay at
/// defaults (the baseline core has none of that hardware), so all points
/// sharing `(sb, geom)` share one baseline job.
fn baseline_job(sb: u32, geom: &CacheGeom, kernel: &str, scale: Scale) -> JobRequest {
    let mut req = JobRequest::new(JobKind::Run);
    req.kernel = kernel.to_string();
    req.scheme = "baseline".to_string();
    req.scale = scale.name().to_string();
    req.sb = sb;
    req.geom = geom.name.to_string();
    req
}

/// A dedup'd job batch: requests keyed (and later executed) in wire-line
/// order, so execution order is a pure function of the request set.
#[derive(Default)]
struct Batch {
    reqs: BTreeMap<String, JobRequest>,
}

impl Batch {
    fn add(&mut self, req: JobRequest) {
        self.reqs.insert(req.to_line(), req);
    }

    /// Execute the batch; returns payload + store-hit keyed by wire line.
    fn execute(
        self,
        runner: &JobRunner,
        counts: &mut ExploreCounts,
    ) -> Result<BTreeMap<String, (String, bool)>, String> {
        let (lines, reqs): (Vec<String>, Vec<JobRequest>) = self.reqs.into_iter().unzip();
        counts.jobs += reqs.len();
        let outs = runner.execute(&reqs)?;
        counts.store_hits += outs.iter().filter(|(_, hit)| *hit).count();
        Ok(lines.into_iter().zip(outs).collect())
    }
}

/// Cycle count of a rendered run payload.
fn cycles_of(payload: &str) -> Result<u64, String> {
    Json::parse(payload)
        .map_err(|e| e.to_string())?
        .get("stats")
        .and_then(|s| s.get("cycles"))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("run payload without stats.cycles: {payload}"))
}

/// Geomean overhead of `point` over `kernels`, from a batch's payloads.
fn overhead_of(
    point: &DesignPoint,
    kernels: &[String],
    scale: Scale,
    payloads: &BTreeMap<String, (String, bool)>,
) -> Result<f64, String> {
    let mut ratios = Vec::with_capacity(kernels.len());
    for kernel in kernels {
        let run = point_job(JobKind::Run, point, kernel, scale).to_line();
        let base = baseline_job(point.sb_size, &point.geom, kernel, scale).to_line();
        let run_cycles = cycles_of(&payloads[&run].0)?;
        let base_cycles = cycles_of(&payloads[&base].0)?;
        ratios.push(run_cycles as f64 / base_cycles as f64);
    }
    Ok(geomean(&ratios))
}

/// Run the staged exploration. `log` receives one line per stage event
/// (grid size, pruning counts, campaign rounds, store traffic) — the
/// driver never truncates silently.
///
/// # Errors
///
/// The first job failure (invalid request, simulation error, unreachable
/// worker) aborts the sweep with a human-readable message.
pub fn run_explore(
    runner: &JobRunner,
    cfg: &ExploreConfig,
    log: &mut dyn FnMut(String),
) -> Result<ExploreReport, String> {
    let grid = enumerate(&cfg.axes);
    let mut counts = ExploreCounts {
        raw: grid.raw,
        canonical: grid.points.len(),
        ..ExploreCounts::default()
    };
    log(format!(
        "grid: {} raw combinations -> {} canonical points ({} no-effect combinations collapsed)",
        counts.raw,
        counts.canonical,
        counts.raw - counts.canonical
    ));
    let model = CostModel::calibrated();
    let unit = area_unit();

    // --- Stage 1: screen every canonical point at smoke scale. ---
    let mut batch = Batch::default();
    for point in &grid.points {
        for kernel in &cfg.screen_kernels {
            batch.add(point_job(JobKind::Run, point, kernel, Scale::Smoke));
            batch.add(baseline_job(
                point.sb_size,
                &point.geom,
                kernel,
                Scale::Smoke,
            ));
        }
        let mut campaign = point_job(JobKind::Campaign, point, &cfg.campaign_kernel, Scale::Smoke);
        campaign.runs = cfg.screen_runs;
        campaign.seed = cfg.seed;
        batch.add(campaign);
    }
    let before = counts.store_hits;
    let payloads = batch.execute(runner, &mut counts)?;
    log(format!(
        "screen: {} jobs ({} from store)",
        payloads.len(),
        counts.store_hits - before
    ));

    let mut evals: Vec<PointEval> = Vec::with_capacity(grid.points.len());
    for point in &grid.points {
        let price = point.price(&model);
        let mut campaign = point_job(JobKind::Campaign, point, &cfg.campaign_kernel, Scale::Smoke);
        campaign.runs = cfg.screen_runs;
        campaign.seed = cfg.seed;
        let totals = CampaignTotals::from_payload(&payloads[&campaign.to_line()].0)
            .ok_or_else(|| "unparsable campaign payload".to_string())?;
        evals.push(PointEval {
            point: *point,
            area_um2: price.area_um2,
            energy_pj: price.energy_pj,
            screen: Objectives {
                overhead: overhead_of(point, &cfg.screen_kernels, Scale::Smoke, &payloads)?,
                area: price.area_um2 / unit,
                sdc: totals.sdc as f64 / totals.runs.max(1) as f64,
            },
            promoted: None,
        });
    }

    // --- Stage 2: epsilon-dominance prune, then promote the survivors. ---
    let screen_objs: Vec<Objectives> = evals.iter().map(|e| e.screen).collect();
    let survivors = staged_eps_prune(&screen_objs, SCREEN_PRUNE_CHUNK, cfg.epsilon);
    counts.promoted = survivors.len();
    log(format!(
        "screen prune: {} of {} points dominated (eps={}), promoting {} to {} scale",
        counts.canonical - counts.promoted,
        counts.canonical,
        cfg.epsilon,
        counts.promoted,
        cfg.scale.name()
    ));

    // Promote-stage overhead runs (full kernel list, requested scale).
    let mut batch = Batch::default();
    for &i in &survivors {
        let point = &evals[i].point;
        for kernel in &cfg.kernels {
            batch.add(point_job(JobKind::Run, point, kernel, cfg.scale));
            batch.add(baseline_job(point.sb_size, &point.geom, kernel, cfg.scale));
        }
    }
    let before = counts.store_hits;
    let payloads = batch.execute(runner, &mut counts)?;
    log(format!(
        "promote runs: {} jobs ({} from store)",
        payloads.len(),
        counts.store_hits - before
    ));

    // Promote-stage campaigns: STOP_CHUNK-run shard rounds with Wilson
    // CI-width sequential stopping, merged client-side exactly like the
    // distributed coordinator merges a fleet's shards.
    let mut totals: BTreeMap<usize, CampaignTotals> = BTreeMap::new();
    let mut active: Vec<usize> = survivors.clone();
    let chunk = STOP_CHUNK as u64;
    let mut round = 0u64;
    while !active.is_empty() {
        let reqs: Vec<JobRequest> = active
            .iter()
            .map(|&i| {
                let mut req = point_job(
                    JobKind::Campaign,
                    &evals[i].point,
                    &cfg.campaign_kernel,
                    cfg.scale,
                );
                req.runs = chunk.min(cfg.ci_cap.saturating_sub(round * chunk)).max(1);
                req.run_offset = round * chunk;
                req.seed = cfg.seed;
                req
            })
            .collect();
        let shards = runner.execute(&reqs)?;
        counts.jobs += reqs.len();
        counts.store_hits += shards.iter().filter(|(_, hit)| *hit).count();
        let mut stopped = 0usize;
        let mut next_active = Vec::with_capacity(active.len());
        for (&i, (payload, _)) in active.iter().zip(&shards) {
            let shard = CampaignTotals::from_payload(payload)
                .ok_or_else(|| "unparsable campaign shard payload".to_string())?;
            let t = totals.entry(i).or_default();
            t.absorb(&shard);
            let half_width = RateEstimator::from_counts(t.sdc, t.runs).half_width();
            if half_width <= cfg.ci_half_width || t.runs >= cfg.ci_cap {
                stopped += 1;
            } else {
                next_active.push(i);
            }
        }
        log(format!(
            "campaign round {}: {} cells x {} runs, {} reached their CI target",
            round + 1,
            active.len(),
            chunk.min(cfg.ci_cap.saturating_sub(round * chunk)),
            stopped
        ));
        active = next_active;
        round += 1;
    }

    // --- Stage 3: final objectives and the frontier. ---
    let mut promoted_objs = Vec::with_capacity(survivors.len());
    for &i in &survivors {
        let t = totals[&i];
        counts.campaign_runs += t.runs;
        let objectives = Objectives {
            overhead: overhead_of(&evals[i].point, &cfg.kernels, cfg.scale, &payloads)?,
            area: evals[i].area_um2 / unit,
            sdc: t.sdc as f64 / t.runs.max(1) as f64,
        };
        promoted_objs.push(objectives);
        evals[i].promoted = Some(Promoted {
            objectives,
            sdc: t.sdc,
            runs: t.runs,
            frontier: false,
        });
    }
    let mask = exact_pareto_mask(&promoted_objs);
    for (&i, keep) in survivors.iter().zip(mask) {
        if let Some(p) = &mut evals[i].promoted {
            p.frontier = keep;
        }
    }
    counts.frontier = evals
        .iter()
        .filter(|e| e.promoted.as_ref().is_some_and(|p| p.frontier))
        .count();
    log(format!(
        "frontier: {} of {} promoted points survive the final exact Pareto pass \
         ({} campaign runs total, {} jobs, {} store hits)",
        counts.frontier, counts.promoted, counts.campaign_runs, counts.jobs, counts.store_hits
    ));
    Ok(ExploreReport {
        points: evals,
        counts,
    })
}

/// Render the frontier artifact: a self-describing JSON document carrying
/// every *promoted* point (objectives, price, campaign evidence, frontier
/// flag) plus the search's identity (scale, seed, epsilon, grid counts).
/// Rendering is fully deterministic — points in canonical enumeration
/// order, [`Json::pretty`] layout, no timestamps — so the artifact is
/// byte-identical across thread and worker counts and golden-diffable in
/// CI.
pub fn frontier_json(cfg: &ExploreConfig, report: &ExploreReport) -> String {
    let c = report.counts;
    let points = report.points.iter().filter_map(|eval| {
        let p = eval.promoted.as_ref()?;
        let point = &eval.point;
        Some(Json::obj([
            ("id", point.id().into()),
            ("scheme", point.scheme.cli_name().into()),
            ("wcdl", point.wcdl.into()),
            ("sb", point.sb_size.into()),
            ("clq", point.clq.map(clq_name).into()),
            ("colors", point.colors.into()),
            ("geom", point.geom.name.into()),
            ("area_um2", eval.area_um2.into()),
            ("energy_pj", eval.energy_pj.into()),
            ("overhead", p.objectives.overhead.into()),
            ("sdc_rate", p.objectives.sdc.into()),
            ("sdc", p.sdc.into()),
            ("runs", p.runs.into()),
            ("frontier", p.frontier.into()),
        ]))
    });
    let doc = Json::obj([
        ("schema", Json::from("turnpike-explore-frontier-v1")),
        ("scale", cfg.scale.name().into()),
        ("seed", cfg.seed.into()),
        ("epsilon", cfg.epsilon.into()),
        ("area_unit_um2", area_unit().into()),
        (
            "grid",
            Json::obj([
                ("raw", c.raw.into()),
                ("canonical", c.canonical.into()),
                ("promoted", c.promoted.into()),
                ("frontier", c.frontier.into()),
            ]),
        ),
        ("objectives", Json::arr(["overhead", "area", "sdc"])),
        ("points", Json::arr(points)),
    ]);
    doc.pretty() + "\n"
}

/// The frontier as a printable figure: one row per frontier point (in
/// canonical order), columns for all reported dimensions. This is what
/// `reproduce explore` prints to stdout.
pub fn frontier_table(report: &ExploreReport) -> crate::table::Table {
    let mut t = crate::table::Table::new(
        "explore",
        "Design-space exploration: Pareto frontier over (overhead, area, SDC rate)",
        &["overhead", "area_sb4", "energy_pj", "sdc_rate", "runs"],
    );
    for eval in &report.points {
        if let Some(p) = eval.promoted.as_ref().filter(|p| p.frontier) {
            t.push(
                eval.point.id(),
                vec![
                    p.objectives.overhead,
                    p.objectives.area,
                    eval.energy_pj,
                    p.objectives.sdc,
                    p.runs as f64,
                ],
            );
        }
    }
    t
}
