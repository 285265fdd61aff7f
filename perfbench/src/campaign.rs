//! `campaign_ladder`: full-scale fault campaigns over every ladder rung.
//!
//! One repetition runs a 64-strike single-threaded campaign for each of
//! six kernels spanning the workload templates under each of the nine
//! `Scheme::LADDER` rungs (54 campaigns). A request is one campaign call;
//! throughput is strikes per second of campaign time. Strike-run latencies
//! come from the campaign's `on_run` callback timestamps (per-layer only:
//! early exit makes their distribution bimodal, so their median jumps
//! between the modes from seed to seed).
//!
//! Traced repetitions additionally call `compile`,
//! `run_compiled_collecting_snapshots`, `run_compiled` and
//! `Translation::new` on each campaign's inputs (probes) to price the
//! campaign's prefix; the campaign call is then split into that prefix,
//! the strike runs between `on_run` timestamps, and the report merge after
//! the last run.

use std::sync::Mutex;
use std::time::Instant;

use turnpike_compiler::{compile, CompileOutput};
use turnpike_metrics::Counter;
use turnpike_resilience::{
    fault_campaign_hooked, run_compiled, run_compiled_collecting_snapshots, CampaignConfig,
    CampaignHook, RunSpec, Scheme, StrikeOutcome,
};
use turnpike_sim::{FaultPlan, Translation};
use turnpike_workloads::{all_kernels, Kernel, Scale};

use crate::stats::{median, percentile, ratio};
use crate::trace::{Tracer, PROBE};
use crate::{repeat, timed_setup, Ctx, Outcome, SETUP_REPS};

/// One kernel per workload template: streaming, pointer_chase, branchy,
/// rmw_table, matrix, butterfly.
pub const KERNELS: [&str; 6] = ["bwaves", "mcf", "gcc", "hmmer", "soplex", "fft"];

/// Strike runs per campaign.
pub const RUNS: usize = 64;

/// Strike runs of the set-up's warm-up campaign.
const WARMUP_RUNS: usize = 16;

/// The simulated statistics one campaign must reproduce exactly on every
/// repetition: runs, SDC, detections, recoveries, hangs, post-completion
/// strikes, simulated cycles and instructions.
type Identity = [u64; 8];

/// Per-pass compile time accumulator: the compiler's pass name and
/// nanoseconds, in first-seen order.
#[derive(Default)]
pub struct PassTimes(pub Vec<(&'static str, u128)>);

impl PassTimes {
    /// Add one compile's per-pass records.
    pub fn add(&mut self, out: &CompileOutput) {
        for rec in &out.passes {
            match self.0.iter_mut().find(|(n, _)| *n == rec.name) {
                Some((_, ns)) => *ns += rec.nanos,
                None => self.0.push((rec.name, rec.nanos)),
            }
        }
    }

    /// Total recorded pass time, seconds.
    pub fn total_s(&self) -> f64 {
        self.0.iter().map(|(_, ns)| *ns as f64 * 1e-9).sum()
    }

    /// Report each pass as `compiler.pass.<name>_s`, scaled so the passes
    /// together take `scale_to_s` (or unscaled when `None`).
    pub fn report(&self, out: &mut Outcome, scale_to_s: Option<f64>) {
        let factor = scale_to_s.map_or(1.0, |s| ratio(s, self.total_s()));
        for (name, ns) in &self.0 {
            if let Some(key) = pass_metric(name) {
                out.layer(key, *ns as f64 * 1e-9 * factor);
            }
        }
    }
}

/// The per-layer metric name of a compiler pass.
fn pass_metric(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "legalize" => "compiler.pass.legalize_s",
        "livm+dce" => "compiler.pass.livm_dce_s",
        "dce" => "compiler.pass.dce_s",
        "regalloc" => "compiler.pass.regalloc_s",
        "baseline-size" => "compiler.pass.baseline_size_s",
        "partition" => "compiler.pass.partition_s",
        "checkpoint" => "compiler.pass.checkpoint_s",
        "prune" => "compiler.pass.prune_s",
        "licm" => "compiler.pass.licm_s",
        "sched" => "compiler.pass.sched_s",
        "vulnerability" => "compiler.pass.vulnerability_s",
        "codegen" => "compiler.pass.codegen_s",
        _ => return None,
    })
}

/// Pick `names` out of the catalog at `scale`, in order.
pub fn catalog(names: &[&str], scale: Scale) -> Result<Vec<Kernel>, String> {
    let all = all_kernels(scale);
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|k| k.name == *n)
                .cloned()
                .ok_or_else(|| format!("kernel '{n}' is not in the catalog"))
        })
        .collect()
}

/// Sums over one repetition.
#[derive(Default)]
struct Rep {
    campaign_s: f64,
    campaign_ms: Vec<f64>,
    strikes: u64,
    run_us: Vec<f64>,
    identities: Vec<Identity>,
    sdc: u64,
    detections: u64,
    cycles: u64,
    insts: u64,
    fork_hits: u64,
    fork_misses: u64,
    replay_exits: u64,
    replay_cycles_saved: u64,
    // Traced only.
    strike_busy_s: f64,
    merge_s: f64,
    compile_s: f64,
    compiles: u64,
    passes: PassTimes,
    golden_s: f64,
    goldens: u64,
    golden_insts: u64,
    snapshot_s: f64,
    snapshots: u64,
    translate_s: f64,
}

/// Probe timings of one campaign's prefix (traced repetitions).
struct Prefix {
    compile_s: f64,
    snapshot_s: f64,
    translate_s: f64,
}

fn probe_prefix(
    kernel: &Kernel,
    spec: &RunSpec,
    tracer: &mut Tracer,
    root: usize,
    op: u64,
    rep: &mut Rep,
) -> Result<Prefix, String> {
    let t0 = Instant::now();
    let compiled = compile(&kernel.program, &spec.compiler_config())
        .map_err(|e| format!("{}: compile: {e}", kernel.name))?;
    let t1 = Instant::now();
    tracer.span("compile", PROBE, t0, t1, Some(root), op);
    rep.compiles += 1;
    rep.compile_s += (t1 - t0).as_secs_f64();
    rep.passes.add(&compiled);

    let sc = spec.sim_config();
    let golden =
        run_compiled(&compiled, &sc).map_err(|e| format!("{}: golden: {e}", kernel.name))?;
    let t2 = Instant::now();
    tracer.span("golden", PROBE, t1, t2, Some(root), op);
    rep.goldens += 1;
    rep.golden_s += (t2 - t1).as_secs_f64();
    rep.golden_insts += golden.metrics.counter(Counter::Insts);

    let mut snapshot_s = 0.0;
    if let Some(interval) = sc.snapshot_interval {
        let (_, snaps) =
            run_compiled_collecting_snapshots(&compiled, spec, &FaultPlan::none(), interval)
                .map_err(|e| format!("{}: snapshots: {e}", kernel.name))?;
        rep.snapshots += snaps.len() as u64;
        snapshot_s = t2.elapsed().as_secs_f64();
    }
    let t3 = Instant::now();
    tracer.span("snapshots", PROBE, t2, t3, Some(root), op);
    rep.snapshot_s += snapshot_s;

    let mut translate_s = 0.0;
    if sc.translate {
        std::hint::black_box(Translation::new(&compiled.program));
        translate_s = t3.elapsed().as_secs_f64();
    }
    let t4 = Instant::now();
    tracer.span("translate", PROBE, t3, t4, Some(root), op);
    rep.translate_s += translate_s;
    Ok(Prefix {
        compile_s: (t1 - t0).as_secs_f64(),
        snapshot_s,
        translate_s,
    })
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: "1".to_string(),
        ..Outcome::default()
    };
    // Set-up: build the kernels and one seed per campaign, then warm the
    // process with one small campaign. Each campaign gets its own seed: with
    // one shared seed, run i of every campaign would share its fault shape,
    // leaving 64 independent samples per repetition instead of 3456.
    let (kernels, seeds) = timed_setup(SETUP_REPS, &mut out, || {
        let kernels = catalog(&KERNELS, Scale::Full)?;
        let seeds: Vec<u64> = (0..KERNELS.len() * Scheme::LADDER.len())
            .map(|i| ctx.derive(16 + i as u64))
            .collect();
        let warm = catalog(&KERNELS[..1], Scale::Full)?;
        // A fixed seed: the warm-up is the same work on every run.
        let warm_config = CampaignConfig {
            runs: WARMUP_RUNS,
            ..CampaignConfig::default()
        };
        fault_campaign_hooked(
            &warm[0].program,
            &RunSpec::new(Scheme::Turnpike),
            &warm_config,
            1,
            CampaignHook::default(),
        )
        .map_err(|e| format!("warm-up campaign: {e}"))?;
        Ok::<_, String>((kernels, seeds))
    })?;
    out.params = vec![
        ("kernels", KERNELS.join(",")),
        ("rungs", Scheme::LADDER.len().to_string()),
        ("runs_per_campaign", RUNS.to_string()),
        (
            "campaign_seeds",
            "one per (kernel, rung), derived from the workload seed".to_string(),
        ),
        (
            "early_exit",
            CampaignConfig::default().early_exit.to_string(),
        ),
        ("scale", "full".to_string()),
    ];

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut golden_identity: Option<Vec<Identity>> = None;
    let mut op = 0u64;
    let counts = repeat(ctx, 3, |traced| {
        let mut rep = Rep::default();
        let rep_start = Instant::now();
        let root =
            traced.then(|| tracer.span_ns("rep", "bench", tracer.ns(rep_start), 0, None, op));
        for (ki, kernel) in kernels.iter().enumerate() {
            for (si, scheme) in Scheme::LADDER.into_iter().enumerate() {
                op += 1;
                out.attempted += 1;
                let spec = RunSpec::new(scheme);
                let what = format!("{}/{}", kernel.name, scheme.cli_name());
                let prefix = match root {
                    Some(root) => {
                        match probe_prefix(kernel, &spec, &mut tracer, root, op, &mut rep) {
                            Ok(p) => Some(p),
                            Err(e) => {
                                out.fail(e);
                                continue;
                            }
                        }
                    }
                    None => None,
                };
                let stamps = Mutex::new(Vec::with_capacity(RUNS));
                let on_run = |_: usize, _: usize| {
                    let now = Instant::now();
                    stamps.lock().expect("stamp lock").push(now);
                };
                let hook = CampaignHook {
                    on_run: Some(&on_run),
                    ..CampaignHook::default()
                };
                let config = CampaignConfig {
                    runs: RUNS,
                    seed: seeds[ki * Scheme::LADDER.len() + si],
                    strikes_per_run: 1,
                    ..CampaignConfig::default()
                };
                let c0 = Instant::now();
                let res = fault_campaign_hooked(&kernel.program, &spec, &config, 1, hook);
                let c1 = Instant::now();
                let stamps = stamps.into_inner().expect("stamp lock");
                let (report, records, fork) = match res {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("{what}: campaign: {e}"));
                        continue;
                    }
                };
                rep.campaign_s += (c1 - c0).as_secs_f64();
                rep.campaign_ms.push((c1 - c0).as_secs_f64() * 1e3);
                rep.strikes += (report.runs * config.strikes_per_run) as u64;
                rep.run_us
                    .extend(stamps.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e6));

                // Output checks: every run accounted for, and zero SDC on
                // every uniform resilient rung.
                let count = |o: StrikeOutcome| records.iter().filter(|r| r.outcome == o).count();
                let (sdc, hangs) = (count(StrikeOutcome::Sdc), count(StrikeOutcome::Hang));
                let classified = count(StrikeOutcome::Recovered)
                    + count(StrikeOutcome::PostCompletion)
                    + sdc
                    + hangs;
                if report.runs != RUNS
                    || records.len() != RUNS
                    || classified != RUNS
                    || stamps.len() != RUNS
                    || fork.hits + fork.misses != RUNS
                    || sdc != report.sdc
                    || hangs != report.hangs
                {
                    out.fail(format!(
                        "{what}: runs not accounted for (report {} runs, {} records, {} \
                         classified, {} on_run calls, {} forks)",
                        report.runs,
                        records.len(),
                        classified,
                        stamps.len(),
                        fork.hits + fork.misses
                    ));
                } else if scheme != Scheme::Adaptive && (report.sdc > 0 || report.hangs > 0) {
                    out.fail(format!(
                        "{what}: uniform resilient rung lost coverage ({} SDC, {} hangs)",
                        report.sdc, report.hangs
                    ));
                }

                let cycles = report.metrics.counter(Counter::Cycles);
                let insts = report.metrics.counter(Counter::Insts);
                rep.identities.push([
                    report.runs as u64,
                    report.sdc as u64,
                    report.detections,
                    report.recoveries,
                    report.hangs as u64,
                    report.post_completion as u64,
                    cycles,
                    insts,
                ]);
                rep.sdc += report.sdc as u64;
                rep.detections += report.detections;
                rep.cycles += cycles;
                rep.insts += insts;
                rep.fork_hits += fork.hits as u64;
                rep.fork_misses += fork.misses as u64;
                rep.replay_exits += fork.replay_exits as u64;
                rep.replay_cycles_saved += fork.replay_cycles_saved;

                if let (Some(root), Some(p)) = (root, prefix) {
                    // Split the campaign call: prefix priced by the probes,
                    // strike runs between `on_run` timestamps, merge after.
                    let span =
                        tracer.span("campaign", "resilience.campaign", c0, c1, Some(root), op);
                    let mut at = tracer.ns(c0);
                    let first = stamps.first().map_or(tracer.ns(c1), |&t| tracer.ns(t));
                    for (name, layer, s) in [
                        ("compile", "compiler", p.compile_s),
                        ("snapshots", "sim.snapshot", p.snapshot_s),
                        ("translate", "sim.translate", p.translate_s),
                    ] {
                        let end = (at + (s * 1e9) as u64).min(first);
                        tracer.span_ns(name, layer, at, end, Some(span), op);
                        at = end;
                    }
                    let mut prev = at;
                    for &t in &stamps {
                        let end = tracer.ns(t);
                        rep.strike_busy_s += end.saturating_sub(prev) as f64 * 1e-9;
                        tracer.span_ns(
                            "strike_run",
                            "resilience.strike_run",
                            prev,
                            end,
                            Some(span),
                            op,
                        );
                        prev = end;
                    }
                    rep.merge_s += (tracer.ns(c1).saturating_sub(prev)) as f64 * 1e-9;
                    tracer.span_ns(
                        "merge",
                        "resilience.merge",
                        prev,
                        tracer.ns(c1),
                        Some(span),
                        op,
                    );
                }
            }
        }
        if let Some(root) = root {
            let end = tracer.ns(Instant::now());
            tracer.set_end(root, end);
        }
        out.sample(
            if traced {
                "rep_wall_s.traced"
            } else {
                "rep_wall_s"
            },
            rep_start.elapsed().as_secs_f64(),
        );
        // Simulated-statistic identity across repetitions and modes.
        match &golden_identity {
            None => golden_identity = Some(rep.identities.clone()),
            Some(first) if *first != rep.identities => out.fail(format!(
                "simulated statistics differ between repetitions ({} traced)",
                if traced { "this rep" } else { "an earlier rep" }
            )),
            Some(_) => {}
        }
        reps.push((traced, rep));
    });
    out.reps = counts;

    let plain: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let per_rep = |reps: &[&Rep], f: &dyn Fn(&Rep) -> f64| -> f64 {
        median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let throughput: Vec<f64> = plain
        .iter()
        .map(|r| ratio(r.strikes as f64, r.campaign_s))
        .collect();
    for &t in &throughput {
        out.sample("strikes_per_s", t);
    }
    out.e2e.insert("throughput_per_s", median(&throughput));
    let campaign_ms: Vec<&[f64]> = plain.iter().map(|r| r.campaign_ms.as_slice()).collect();
    out.latencies(&campaign_ms);

    if let Some(first) = reps.first().map(|(_, r)| r) {
        let runs = (first.fork_hits + first.fork_misses) as f64;
        out.layer(
            "resilience.replay.exit_ratio",
            ratio(first.replay_exits as f64, runs),
        );
        out.layer(
            "resilience.replay.cycles_saved_share",
            ratio(first.replay_cycles_saved as f64, first.cycles as f64),
        );
        out.layer(
            "resilience.fork.hit_ratio",
            ratio(first.fork_hits as f64, runs),
        );
        out.layer("sim.cycles", first.cycles as f64);
        out.layer("sim.insts", first.insts as f64);
        out.layer("campaign.detections", first.detections as f64);
        out.layer("campaign.sdc_runs", first.sdc as f64);
    }
    if !traced.is_empty() {
        let run_us: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.run_us.iter().copied())
            .collect();
        out.layer("resilience.strike_run_us_p50", percentile(&run_us, 0.5));
        out.layer("resilience.strike_run_us_p99", percentile(&run_us, 0.99));
        out.layer(
            "resilience.strike_run.busy_s",
            per_rep(&traced, &|r| r.strike_busy_s),
        );
        out.layer("resilience.merge.busy_s", per_rep(&traced, &|r| r.merge_s));
        out.layer("sim.snapshot.busy_s", per_rep(&traced, &|r| r.snapshot_s));
        out.layer("sim.snapshot.count", traced[0].snapshots as f64);
        out.layer("sim.translate.busy_s", per_rep(&traced, &|r| r.translate_s));
        out.layer("sim.golden.calls", traced[0].goldens as f64);
        out.layer("sim.golden.busy_s", per_rep(&traced, &|r| r.golden_s));
        out.layer(
            "sim.golden.ns_per_inst",
            per_rep(&traced, &|r| ratio(r.golden_s * 1e9, r.golden_insts as f64)),
        );
        out.layer("compiler.calls", traced[0].compiles as f64);
        out.layer("compiler.busy_s", per_rep(&traced, &|r| r.compile_s));
        let mid = traced.len() / 2;
        traced[mid].passes.report(&mut out, None);
        let plain_wall = median(&out.series["rep_wall_s"]);
        let traced_wall = median(&out.series["rep_wall_s.traced"]);
        out.layer(
            "trace.overhead_share",
            ratio(traced_wall - plain_wall, plain_wall),
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}
