//! The design-space explorer's execution driver.
//!
//! `turnpike_explore` owns the pure domain (grid enumeration, pricing,
//! exact Pareto filtering); this module owns *execution*: every grid point
//! becomes ordinary [`JobRequest`]s — fault-free runs for the overhead
//! objective, campaign shards for the coverage objective — and those jobs
//! flow through the exact same path as everything else in the repo: the
//! [`EngineExecutor`] (direct mode) or a `turnpike-serve` worker fleet
//! (`--workers`) through the coordinator's [`dispatch`], both backed by the
//! memoizing engine and the content-addressed artifact store. One
//! consequence is `--resume` for free: a re-run re-issues the same jobs,
//! and every job whose artifact is already stored is a store hit instead
//! of a simulation.
//!
//! Every canonical point is evaluated once, at the requested scale:
//!
//! 1. **Overhead** — fault-free runs of the point and of its unprotected
//!    baseline over the full kernel list (geomean cycle ratio).
//! 2. **Coverage** — the point's campaign extends in [`STOP_CHUNK`]-run
//!    shard rounds until the Wilson 95% CI on the SDC rate is narrower
//!    than the target (or the run cap is reached) — the same client-side
//!    sequential stopping the telemetry harness uses.
//! 3. **Frontier** — an exact Pareto pass over all points flags the
//!    frontier; plain dominance, so ties on a saturated axis (many points
//!    reach SDC 0) don't inflate it.
//!
//! Determinism: batches are issued in a deterministic order (BTreeMap on
//! the request's wire line, or canonical point order), results land by
//! index, every payload is rendered by the shared renderers, and the
//! stopping rule reads only merged campaign counts — so the same grid and
//! seed produce a byte-identical frontier at any thread or worker count,
//! and with dead or draining workers in the fleet.

use std::collections::BTreeMap;

use turnpike_explore::{
    area_unit, clq_name, enumerate, exact_pareto_mask, DesignPoint, Objectives,
};
use turnpike_metrics::RateEstimator;
use turnpike_model::CostModel;
use turnpike_resilience::{geomean, par_map, CacheGeom, ExploreAxes, EXPLORE_AXES, STOP_CHUNK};
use turnpike_serve::{JobKind, JobRequest, Json, StoreStatus};
use turnpike_workloads::Scale;

use crate::coordinate::{dispatch, MAX_RETRIES};
use crate::service::{CampaignTotals, EngineExecutor};

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
    /// Dispatch to a `turnpike-serve` worker fleet through the
    /// coordinator's work-stealing [`dispatch`]: a dead or draining
    /// worker's jobs go to the survivors, and results land by index, so
    /// the output is independent of worker timing.
    Fleet {
        /// Worker addresses.
        workers: Vec<String>,
    },
}

impl JobRunner {
    /// Execute one batch, returning `(payload, store_hit)` per request in
    /// input order, and add it to the job and store-hit counts.
    fn execute(
        &self,
        reqs: &[JobRequest],
        counts: &mut ExploreCounts,
    ) -> Result<Vec<(String, bool)>, String> {
        let outs = match self {
            JobRunner::Direct { exec, threads } => par_map(reqs, *threads, |_, req| {
                exec.execute_direct(req)
                    .map(|o| (o.result, o.store == StoreStatus::Hit))
            })
            .into_iter()
            .collect::<Result<Vec<_>, String>>()?,
            JobRunner::Fleet { workers } => dispatch(workers, reqs, MAX_RETRIES, None)?.results,
        };
        counts.jobs += reqs.len();
        counts.store_hits += outs.iter().filter(|(_, hit)| *hit).count();
        Ok(outs)
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

/// Everything that parameterizes one exploration. The default grids live
/// in `resilience::preset` ([`EXPLORE_AXES`]); tests swap in tiny axes.
pub struct ExploreConfig {
    /// The declarative grid.
    pub axes: ExploreAxes,
    /// Scale of every run and campaign.
    pub scale: Scale,
    /// Kernels for the overhead objective (geomean).
    pub kernels: Vec<String>,
    /// The kernel carrying the coverage (fault-campaign) objective.
    pub campaign_kernel: String,
    /// Campaign RNG seed (part of the frontier's identity).
    pub seed: u64,
    /// Stop a point's campaign once the Wilson 95% CI half-width on its
    /// SDC rate drops to this.
    pub ci_half_width: f64,
    /// Hard cap on campaign runs per point.
    pub ci_cap: u64,
}

impl ExploreConfig {
    /// Smoke-scale exploration: the CI configuration. A loose CI target
    /// and a low cap keep the whole sweep seconds-scale.
    pub fn smoke() -> ExploreConfig {
        ExploreConfig {
            axes: EXPLORE_AXES,
            scale: Scale::Smoke,
            kernels: vec!["bwaves".into(), "hmmer".into(), "mcf".into(), "gcc".into()],
            campaign_kernel: "bwaves".into(),
            seed: 0xF00D,
            ci_half_width: 0.15,
            ci_cap: 32,
        }
    }

    /// Full-scale exploration: same grid, full-scale runs and campaigns
    /// with a tight CI target.
    pub fn full() -> ExploreConfig {
        ExploreConfig {
            scale: Scale::Full,
            ci_half_width: 0.05,
            ci_cap: 96,
            ..ExploreConfig::smoke()
        }
    }
}

/// One canonical grid point's evaluation.
#[derive(Debug, Clone)]
pub struct PointEval {
    /// The design point.
    pub point: DesignPoint,
    /// Added-hardware area (µm²) from the cost model.
    pub area_um2: f64,
    /// Added-hardware access energy (pJ) from the cost model.
    pub energy_pj: f64,
    /// Objectives (overhead, area, SDC rate).
    pub objectives: Objectives,
    /// SDC count over the point's campaign runs.
    pub sdc: u64,
    /// Campaign runs executed (the sequential-stopping total).
    pub runs: u64,
    /// On the final Pareto frontier?
    pub frontier: bool,
}

/// Stage-by-stage accounting, reported in the `"explore"` block: the grid
/// collapse (canonical < raw), the points evaluated and the job traffic
/// (store hits are what `--resume` skips).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreCounts {
    /// Raw cartesian-product size of the grid.
    pub raw: usize,
    /// Canonical points after collapsing no-effect axis values.
    pub canonical: usize,
    /// Points evaluated at the requested scale (every canonical point).
    pub promoted: usize,
    /// Points on the final frontier.
    pub frontier: usize,
    /// Jobs issued (all stages, after batch-level dedup).
    pub jobs: usize,
    /// Jobs served from the artifact store.
    pub store_hits: usize,
    /// Campaign runs executed across all points.
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
    payloads: &BTreeMap<String, String>,
) -> Result<f64, String> {
    let mut ratios = Vec::with_capacity(kernels.len());
    for kernel in kernels {
        let run = point_job(JobKind::Run, point, kernel, scale).to_line();
        let base = baseline_job(point.sb_size, &point.geom, kernel, scale).to_line();
        let run_cycles = cycles_of(&payloads[&run])?;
        let base_cycles = cycles_of(&payloads[&base])?;
        ratios.push(run_cycles as f64 / base_cycles as f64);
    }
    Ok(geomean(&ratios))
}

/// Run the exploration. `log` receives one line per stage event (grid
/// size, points promoted, campaign rounds, store traffic) — the driver
/// never truncates silently.
///
/// # Errors
///
/// The first job failure (invalid request, simulation error, no worker
/// left) aborts the sweep with a human-readable message.
pub fn run_explore(
    runner: &JobRunner,
    cfg: &ExploreConfig,
    log: &mut dyn FnMut(String),
) -> Result<ExploreReport, String> {
    let grid = enumerate(&cfg.axes);
    let n = grid.points.len();
    let mut counts = ExploreCounts {
        raw: grid.raw,
        canonical: n,
        promoted: n,
        ..ExploreCounts::default()
    };
    log(format!(
        "grid: {} raw combinations -> {} canonical points ({} no-effect combinations collapsed)",
        counts.raw,
        counts.canonical,
        counts.raw - counts.canonical
    ));
    // Every canonical point is promoted. The line keeps the stage marker
    // perfbench's traced explore probe splits its timeline on.
    log(format!(
        "screen prune: none, promoting {n} to {} scale",
        cfg.scale.name()
    ));

    // Overhead runs (full kernel list, requested scale), dedup'd and
    // issued in wire-line order, so execution order is a pure function of
    // the request set.
    let mut runs: BTreeMap<String, JobRequest> = BTreeMap::new();
    for point in &grid.points {
        for kernel in &cfg.kernels {
            for req in [
                point_job(JobKind::Run, point, kernel, cfg.scale),
                baseline_job(point.sb_size, &point.geom, kernel, cfg.scale),
            ] {
                runs.insert(req.to_line(), req);
            }
        }
    }
    let (lines, reqs): (Vec<String>, Vec<JobRequest>) = runs.into_iter().unzip();
    let outs = runner.execute(&reqs, &mut counts)?;
    let payloads: BTreeMap<String, String> = lines
        .into_iter()
        .zip(outs.into_iter().map(|(p, _)| p))
        .collect();
    log(format!(
        "promote runs: {} jobs ({} from store)",
        payloads.len(),
        counts.store_hits
    ));

    // Campaigns: STOP_CHUNK-run shard rounds with Wilson CI-width
    // sequential stopping, merged client-side exactly like the
    // distributed coordinator merges a fleet's shards.
    let mut totals = vec![CampaignTotals::default(); n];
    let mut active: Vec<usize> = (0..n).collect();
    let chunk = STOP_CHUNK as u64;
    let mut round = 0u64;
    while !active.is_empty() {
        let reqs: Vec<JobRequest> = active
            .iter()
            .map(|&i| {
                let mut req = point_job(
                    JobKind::Campaign,
                    &grid.points[i],
                    &cfg.campaign_kernel,
                    cfg.scale,
                );
                req.runs = chunk.min(cfg.ci_cap.saturating_sub(round * chunk)).max(1);
                req.run_offset = round * chunk;
                req.seed = cfg.seed;
                req
            })
            .collect();
        let shards = runner.execute(&reqs, &mut counts)?;
        let mut stopped = 0usize;
        let mut next_active = Vec::with_capacity(active.len());
        for (&i, (payload, _)) in active.iter().zip(&shards) {
            let shard = CampaignTotals::from_payload(payload)
                .ok_or_else(|| "unparsable campaign shard payload".to_string())?;
            let t = &mut totals[i];
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

    // Final objectives and the frontier.
    let model = CostModel::calibrated();
    let unit = area_unit();
    let mut points = Vec::with_capacity(n);
    for (point, t) in grid.points.iter().zip(&totals) {
        let price = point.price(&model);
        counts.campaign_runs += t.runs;
        points.push(PointEval {
            point: *point,
            area_um2: price.area_um2,
            energy_pj: price.energy_pj,
            objectives: Objectives {
                overhead: overhead_of(point, &cfg.kernels, cfg.scale, &payloads)?,
                area: price.area_um2 / unit,
                sdc: t.sdc as f64 / t.runs.max(1) as f64,
            },
            sdc: t.sdc,
            runs: t.runs,
            frontier: false,
        });
    }
    let objectives: Vec<Objectives> = points.iter().map(|p| p.objectives).collect();
    for (p, keep) in points.iter_mut().zip(exact_pareto_mask(&objectives)) {
        p.frontier = keep;
    }
    counts.frontier = points.iter().filter(|p| p.frontier).count();
    log(format!(
        "frontier: {} of {} promoted points survive the final exact Pareto pass \
         ({} campaign runs total, {} jobs, {} store hits)",
        counts.frontier, counts.promoted, counts.campaign_runs, counts.jobs, counts.store_hits
    ));
    Ok(ExploreReport { points, counts })
}

/// Render the frontier artifact: a self-describing JSON document carrying
/// every point (objectives, price, campaign evidence, frontier flag) plus
/// the search's identity (scale, seed, grid counts). Rendering is fully
/// deterministic — points in canonical enumeration order, [`Json::pretty`]
/// layout, no timestamps — so the artifact is byte-identical across thread
/// and worker counts and golden-diffable in CI.
pub fn frontier_json(cfg: &ExploreConfig, report: &ExploreReport) -> String {
    let c = report.counts;
    let points = report.points.iter().map(|p| {
        let point = &p.point;
        Json::obj([
            ("id", point.id().into()),
            ("scheme", point.scheme.cli_name().into()),
            ("wcdl", point.wcdl.into()),
            ("sb", point.sb_size.into()),
            ("clq", point.clq.map(clq_name).into()),
            ("colors", point.colors.into()),
            ("geom", point.geom.name.into()),
            ("area_um2", p.area_um2.into()),
            ("energy_pj", p.energy_pj.into()),
            ("overhead", p.objectives.overhead.into()),
            ("sdc_rate", p.objectives.sdc.into()),
            ("sdc", p.sdc.into()),
            ("runs", p.runs.into()),
            ("frontier", p.frontier.into()),
        ])
    });
    let doc = Json::obj([
        ("schema", Json::from("turnpike-explore-frontier-v1")),
        ("scale", cfg.scale.name().into()),
        ("seed", cfg.seed.into()),
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
    for p in report.points.iter().filter(|p| p.frontier) {
        t.push(
            p.point.id(),
            vec![
                p.objectives.overhead,
                p.objectives.area,
                p.energy_pj,
                p.objectives.sdc,
                p.runs as f64,
            ],
        );
    }
    t
}
