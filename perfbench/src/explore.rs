//! `explore_smoke`: `run_explore` with `ExploreConfig::smoke()`, direct,
//! one thread, on a fresh serial engine per repetition.
//!
//! A request is one whole exploration, checked byte-for-byte against the
//! committed frontier golden; throughput is explore jobs per second. The
//! explorer's `log` callback fires once per stage, so traced repetitions
//! timestamp it to split the call into grid, screen (with the epsilon
//! prune), promote, campaign rounds and the final Pareto pass, and read the
//! engine's compile/simulate timers at each boundary. Each traced
//! repetition also runs the exploration once through the explorer's fleet
//! path against an in-process server (a probe), which measures the serve
//! layer on this workload.

use std::sync::Arc;
use std::time::Instant;

use turnpike_bench::explore::{frontier_json, run_explore, ExploreConfig, JobRunner};
use turnpike_bench::{Engine, EngineExecutor};
use turnpike_compiler::compile;
use turnpike_explore::enumerate;
use turnpike_metrics::{Counter, Hist, MetricSet};
use turnpike_resilience::{RunSpec, Scheme};
use turnpike_serve::{Executor, JobKind, JobRequest, Server, ServerConfig};
use turnpike_workloads::Scale;

use crate::campaign::{catalog, PassTimes};
use crate::served::TimedExecutor;
use crate::stats::{median, percentile, ratio, sum};
use crate::trace::{Tracer, PROBE};
use crate::{repeat, timed_setup, Ctx, Outcome, SETUP_REPS};

/// The committed smoke frontier every exploration must reproduce.
const GOLDEN: &str = include_str!("../../crates/bench/golden/explore_smoke.json");

/// Stage metrics, in the order the explorer's log lines close them.
const STAGES: [(&str, &str); 5] = [
    ("grid", "explore.grid_s"),
    ("screen", "explore.screen_s"),
    ("promote", "explore.promote_s"),
    ("campaign", "explore.campaign_s"),
    ("pareto", "explore.pareto_s"),
];

/// Which stage a log line closes (`None` for lines that do not close one:
/// the screen prune line is charged to the screen stage, every campaign
/// round to the campaign stage).
fn stage_of(line: &str) -> Option<usize> {
    [
        ("grid:", 0),
        ("screen prune:", 1),
        ("promote runs:", 2),
        ("campaign round", 3),
        ("frontier:", 4),
    ]
    .iter()
    .find(|(p, _)| line.starts_with(p))
    .map(|&(_, i)| i)
}

fn hist_us(m: &MetricSet, h: Hist) -> u64 {
    m.hist(h).map_or(0, |x| x.sum())
}

/// What the fleet probe saw: per-job execute times (ms), the server's
/// registry, and the probe's wall time (s).
type FleetProbe = (Vec<f64>, MetricSet, f64);

/// Run the same exploration through the explorer's fleet path against an
/// in-process one-worker `Server` (no store), so the serve layer (parse,
/// queue, execute, render, write) is measured on this workload too. The
/// fleet frontier must equal the direct one byte for byte.
fn fleet_probe(cfg: &ExploreConfig) -> Result<FleetProbe, String> {
    let exec = Arc::new(TimedExecutor::new(EngineExecutor::new(Engine::serial())));
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Arc::clone(&exec) as Arc<dyn Executor>)
        .map_err(|e| format!("fleet probe: server start: {e}"))?;
    let runner = JobRunner::Fleet {
        workers: vec![server.addr().to_string()],
    };
    let t0 = Instant::now();
    let report = run_explore(&runner, cfg, &mut |_| {});
    let wall = t0.elapsed().as_secs_f64();
    let metrics = server.metrics();
    server.shutdown();
    if frontier_json(cfg, &report.map_err(|e| format!("fleet probe: {e}"))?) != GOLDEN {
        return Err("fleet probe: frontier JSON differs from the golden".to_string());
    }
    let execute_ms = exec
        .log
        .lock()
        .expect("timing log")
        .iter()
        .map(|(_, t)| (t.end - t.start).as_secs_f64() * 1e3)
        .collect();
    Ok((execute_ms, metrics, wall))
}

#[derive(Default)]
struct Rep {
    wall_s: f64,
    jobs: u64,
    stage_s: [f64; 5],
    compile_s: f64,
    compiles: u64,
    sim_s: f64,
    sims: u64,
    counters: [u64; 4],
    promoted_ratio: f64,
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    run_reps(ctx, 3)
}

/// Measure the explore, serve and engine-cache layers for a traced run of
/// another workload: one untraced and one traced smoke exploration (with
/// its fleet probe), whose `explore.*`, `serve.*` and `bench.engine.*`
/// metrics, operations and check failures are merged into `out`. The
/// exploration's own spans stay out of `out`'s ledger.
pub fn probe(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let sub = run_reps(
        &Ctx {
            seed: ctx.seed,
            seconds: 0.0,
            traced: true,
            scratch: ctx.scratch.clone(),
        },
        1,
    )?;
    for (&key, &v) in &sub.layers {
        if ["explore.", "serve.", "bench.engine."]
            .iter()
            .any(|p| key.starts_with(p))
        {
            out.layer(key, v);
        }
    }
    out.attempted += sub.attempted;
    out.failed += sub.failed;
    out.failures.extend(
        sub.failures
            .into_iter()
            .map(|f| format!("explore probe: {f}")),
    );
    out.params.push((
        "explore_probe",
        "1 untraced + 1 traced smoke exploration".to_string(),
    ));
    Ok(())
}

fn run_reps(ctx: &Ctx, min_reps: usize) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: "1".to_string(),
        ..Outcome::default()
    };
    let cfg = ExploreConfig::smoke();
    // Set-up: enumerate the grid, build the probe kernels, and warm the
    // process with one run job and one campaign job on a fresh executor.
    let kernels = timed_setup(SETUP_REPS, &mut out, || {
        std::hint::black_box(enumerate(&cfg.axes));
        let warm = EngineExecutor::new(Engine::serial());
        for kind in [JobKind::Run, JobKind::Campaign] {
            warm.execute_direct(&JobRequest::new(kind))
                .map_err(|e| format!("warm-up job: {e}"))?;
        }
        catalog(
            &cfg.kernels.iter().map(String::as_str).collect::<Vec<_>>(),
            Scale::Smoke,
        )
    })?;
    out.params = vec![
        ("config", "ExploreConfig::smoke()".to_string()),
        ("explore_seed", cfg.seed.to_string()),
        (
            "seed_use",
            "none: the frontier golden pins the exploration's own seed".to_string(),
        ),
    ];

    let mut tracer = Tracer::new(Instant::now());
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut probe_passes: Vec<PassTimes> = Vec::new();
    let mut fleet: Vec<FleetProbe> = Vec::new();
    let mut op = 0u64;
    let counts = repeat(ctx, min_reps, |traced| {
        op += 1;
        out.attempted += 1;
        let runner = JobRunner::Direct {
            exec: EngineExecutor::new(Engine::serial()),
            threads: 1,
        };
        let engine = runner.executor().expect("direct runner").engine().clone();
        let mut rep = Rep::default();
        let start = Instant::now();
        // (stage, time, compile µs, sim µs) at each stage-closing log line.
        let mut marks: Vec<(usize, Instant, u64, u64)> = Vec::new();
        let mut log = |line: String| {
            if !traced {
                return;
            }
            if let Some(stage) = stage_of(&line) {
                let m = engine.metrics();
                marks.push((
                    stage,
                    Instant::now(),
                    hist_us(&m, Hist::CompileMicros),
                    hist_us(&m, Hist::SimMicros),
                ));
            }
        };
        let report = run_explore(&runner, &cfg, &mut log);
        let t_explore = Instant::now();
        let result = report.map(|r| (frontier_json(&cfg, &r), r.counts));
        rep.wall_s = start.elapsed().as_secs_f64();
        match &result {
            Ok((json, counts)) => {
                rep.jobs = counts.jobs as u64;
                rep.promoted_ratio = ratio(counts.promoted as f64, counts.canonical as f64);
                if json != GOLDEN {
                    out.fail(
                        "frontier JSON differs from crates/bench/golden/explore_smoke.json"
                            .to_string(),
                    );
                }
            }
            Err(e) => out.fail(format!("explore: {e}")),
        }
        let m = engine.metrics();
        rep.compiles = m.hist(Hist::CompileMicros).map_or(0, |h| h.count());
        rep.sims = m.hist(Hist::SimMicros).map_or(0, |h| h.count());
        rep.compile_s = hist_us(&m, Hist::CompileMicros) as f64 * 1e-6;
        rep.sim_s = hist_us(&m, Hist::SimMicros) as f64 * 1e-6;
        rep.counters = [
            m.counter(Counter::BenchCompileHits),
            m.counter(Counter::BenchCompileMisses),
            m.counter(Counter::BenchRunHits),
            m.counter(Counter::BenchRunMisses),
        ];
        if traced {
            let root = tracer.span("explore", "bench", start, start, None, op);
            let call = tracer.span(
                "run_explore",
                "bench.explore",
                start,
                t_explore,
                Some(root),
                op,
            );
            tracer.span(
                "render",
                "bench.explore",
                t_explore,
                Instant::now(),
                Some(root),
                op,
            );
            // Stages tile the call: each ends at its closing log line (the
            // last at the call's return); engine timers split each stage.
            let (mut at, mut c_prev, mut s_prev) = (start, 0u64, 0u64);
            for (stage, (name, _)) in STAGES.iter().enumerate() {
                let Some(&(_, end, c_us, s_us)) = marks.iter().rev().find(|m| m.0 == stage) else {
                    continue;
                };
                let end = if stage == STAGES.len() - 1 {
                    t_explore
                } else {
                    end
                };
                let span = tracer.span(*name, "explore", at, end, Some(call), op);
                let s0 = tracer.ns(at);
                let (c_ns, s_ns) = ((c_us - c_prev) * 1000, (s_us - s_prev) * 1000);
                tracer.span_ns("compile", "compiler", s0, s0 + c_ns, Some(span), op);
                tracer.span_ns(
                    "simulate",
                    "sim.golden",
                    s0 + c_ns,
                    s0 + c_ns + s_ns,
                    Some(span),
                    op,
                );
                rep.stage_s[stage] = (end - at).as_secs_f64();
                (at, c_prev, s_prev) = (end, c_us, s_us);
            }
            if marks.len() < STAGES.len() {
                out.fail(format!("explorer logged {} stage boundaries", marks.len()));
            }
            // Per-pass compile split, probed on the explorer's kernels.
            let mut passes = PassTimes::default();
            let mut schemes = vec![Scheme::Baseline];
            schemes.extend(Scheme::LADDER);
            for k in &kernels {
                for &scheme in &schemes {
                    let t0 = Instant::now();
                    match compile(&k.program, &RunSpec::new(scheme).compiler_config()) {
                        Ok(c) => passes.add(&c),
                        Err(e) => out.fail(format!("{}: compile: {e}", k.name)),
                    }
                    tracer.span("compile", PROBE, t0, Instant::now(), Some(root), op);
                }
            }
            probe_passes.push(passes);
            let t0 = Instant::now();
            match fleet_probe(&cfg) {
                Ok(p) => fleet.push(p),
                Err(e) => out.fail(e),
            }
            tracer.span("fleet_explore", PROBE, t0, Instant::now(), Some(root), op);
            let end = tracer.ns(Instant::now());
            tracer.set_end(root, end);
        }
        out.sample(
            if traced {
                "explore_wall_s.traced"
            } else {
                "explore_wall_s"
            },
            // Traced: the whole repetition, probes included.
            start.elapsed().as_secs_f64(),
        );
        reps.push((traced, rep));
    });
    out.reps = counts;

    let plain: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let walls_ms: Vec<f64> = plain.iter().map(|r| r.wall_s * 1e3).collect();
    let jobs_per_s: Vec<f64> = plain
        .iter()
        .map(|r| ratio(r.jobs as f64, r.wall_s))
        .collect();
    for &v in &jobs_per_s {
        out.sample("jobs_per_s", v);
    }
    out.e2e.insert("throughput_per_s", median(&jobs_per_s));
    out.e2e.insert("latency_p50_ms", median(&walls_ms));
    out.e2e
        .insert("latency_p99_ms", percentile(&walls_ms, 0.99));
    out.latency_samples = walls_ms.len();
    if let Some((_, first)) = reps.first() {
        for (_, r) in &reps[1..] {
            if r.jobs != first.jobs || r.counters != first.counters {
                out.fail("explore job counts differ between repetitions".to_string());
            }
        }
        out.layer("explore.jobs", first.jobs as f64);
        out.layer("explore.promoted_ratio", first.promoted_ratio);
    }

    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    if !traced.is_empty() {
        let med =
            |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
        for (i, (_, key)) in STAGES.iter().enumerate() {
            out.layer(key, med(&|r| r.stage_s[i]));
        }
        let compile_s = med(&|r| r.compile_s);
        out.layer("compiler.calls", traced[0].compiles as f64);
        out.layer("compiler.busy_s", compile_s);
        out.layer("sim.golden.calls", traced[0].sims as f64);
        out.layer("sim.golden.busy_s", med(&|r| r.sim_s));
        for (key, v) in [
            "bench.engine.compile_hits",
            "bench.engine.compile_misses",
            "bench.engine.run_hits",
            "bench.engine.run_misses",
        ]
        .into_iter()
        .zip(traced[0].counters)
        {
            out.layer(key, v as f64);
        }
        if let Some(p) = probe_passes.get(probe_passes.len() / 2) {
            p.report(&mut out, Some(compile_s));
        }
        if let Some((execute_ms, m, wall)) = fleet.get(fleet.len() / 2) {
            let queue = m.hist(Hist::ServeQueueMicros);
            let q = |p: f64| queue.map_or(0.0, |h| h.quantile(p) * 1e-3);
            out.layer("serve.queue_wait_ms_p50", q(0.5));
            out.layer("serve.queue_wait_ms_p99", q(0.99));
            out.layer("serve.execute_ms_p50", percentile(execute_ms, 0.5));
            out.layer("serve.execute_ms_p99", percentile(execute_ms, 0.99));
            out.layer("serve.busy_ratio", ratio(sum(execute_ms) * 1e-3, *wall));
            out.layer("serve.rejected", m.counter(Counter::ServeRejected) as f64);
        }
        let plain_wall = median(&out.series["explore_wall_s"]);
        let traced_wall = median(&out.series["explore_wall_s.traced"]);
        out.layer(
            "trace.overhead_share",
            ratio(traced_wall - plain_wall, plain_wall),
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}
