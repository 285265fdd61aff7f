//! `figures_full`: every `figures::TARGETS` entry at full scale on
//! `Engine::new(1).without_cache()` — the `reproduce all --full --no-cache
//! --threads 1` headline.
//!
//! A request is one figure call (`Target::generate`); throughput is
//! simulations per second over a whole pass (the engine's simulation count
//! over the pass wall time, so it moves inversely with `figures.wall_s`).
//! Traced repetitions split each target's call into the engine's own
//! compile and simulate timers (`Engine::metrics`) and the figure code
//! around them, then probe the compiler's per-pass split and the golden
//! simulator's ns/instruction on the 36 kernels directly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use turnpike_bench::{figures::TARGETS, Engine};
use turnpike_compiler::compile;
use turnpike_metrics::{Counter, Hist, MetricSet};
use turnpike_resilience::{geomean, run_compiled, RunSpec, Scheme};
use turnpike_workloads::{all_kernels, Kernel, Scale};

use crate::campaign::PassTimes;
use crate::stats::{median, ratio};
use crate::trace::{Tracer, PROBE};
use crate::{fnv, repeat, timed_setup, Ctx, Outcome, FNV_OFFSET, SETUP_REPS};

/// Sum (µs) and count of one engine timer histogram.
fn hist(m: &MetricSet, h: Hist) -> (u64, u64) {
    m.hist(h).map_or((0, 0), |x| (x.sum(), x.count()))
}

#[derive(Default)]
struct Rep {
    wall_s: f64,
    figure_ms: Vec<f64>,
    sims: u64,
    digest: u64,
    geomean: f64,
    // Traced only.
    compile_s: f64,
    compiles: u64,
    sim_s: f64,
    figure_self_s: f64,
    counters: [u64; 4],
}

/// Golden-run and compile probes over the catalog (traced repetitions).
#[derive(Default)]
struct Probe {
    passes: PassTimes,
    golden_s: f64,
    insts: u64,
    cycles: u64,
    geomean: f64,
}

fn probe(kernels: &[Kernel], tracer: &mut Tracer, root: usize, op: u64) -> Result<Probe, String> {
    let mut p = Probe::default();
    let mut ratios = Vec::with_capacity(kernels.len());
    let mut schemes = vec![Scheme::Baseline];
    schemes.extend(Scheme::LADDER);
    for k in kernels {
        let mut cycles = [0u64; 2];
        for &scheme in &schemes {
            let spec = RunSpec::new(scheme);
            let t0 = Instant::now();
            let compiled = compile(&k.program, &spec.compiler_config())
                .map_err(|e| format!("{}: compile: {e}", k.name))?;
            let t1 = Instant::now();
            tracer.span("compile", PROBE, t0, t1, Some(root), op);
            p.passes.add(&compiled);
            let slot = match scheme {
                Scheme::Baseline => 0,
                Scheme::Turnpike => 1,
                _ => continue,
            };
            let r = run_compiled(&compiled, &spec.sim_config())
                .map_err(|e| format!("{}: golden: {e}", k.name))?;
            let t2 = Instant::now();
            tracer.span("golden", PROBE, t1, t2, Some(root), op);
            p.golden_s += (t2 - t1).as_secs_f64();
            p.insts += r.metrics.counter(Counter::Insts);
            p.cycles += r.metrics.counter(Counter::Cycles);
            cycles[slot] = r.metrics.counter(Counter::Cycles);
        }
        ratios.push(cycles[1] as f64 / cycles[0] as f64);
    }
    p.geomean = geomean(&ratios);
    Ok(p)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: "1".to_string(),
        ..Outcome::default()
    };
    // Set-up: build the catalog the probes use, then warm the process with
    // one small figure on a fresh engine.
    let kernels = timed_setup(SETUP_REPS, &mut out, || {
        let warm = Engine::new(1).without_cache();
        std::hint::black_box(turnpike_bench::fig26(&warm, Scale::Full));
        all_kernels(Scale::Full)
    });
    out.params = vec![
        ("targets", TARGETS.len().to_string()),
        ("scale", "full".to_string()),
        ("engine", "Engine::new(1).without_cache()".to_string()),
        (
            "seed_use",
            "none: figures are a pure function of the catalog".to_string(),
        ),
    ];

    let mut tracer = Tracer::new(Instant::now());
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut probes: Vec<Probe> = Vec::new();
    let mut op = 0u64;
    let counts = repeat(ctx, 3, |traced| {
        let engine = Engine::new(1).without_cache();
        let mut rep = Rep {
            digest: FNV_OFFSET,
            ..Rep::default()
        };
        op += 1;
        let start = Instant::now();
        let root = traced.then(|| tracer.span_ns("pass", "bench", tracer.ns(start), 0, None, op));
        for target in &TARGETS {
            out.attempted += 1;
            let before = root.map(|_| engine.metrics());
            let t0 = Instant::now();
            let table = catch_unwind(AssertUnwindSafe(|| (target.generate)(&engine, Scale::Full)));
            let t1 = Instant::now();
            let table = match table {
                Ok(t) => t,
                Err(_) => {
                    out.fail(format!("{}: generator panicked", target.name));
                    continue;
                }
            };
            rep.figure_ms.push((t1 - t0).as_secs_f64() * 1e3);
            rep.digest = fnv(rep.digest, table.to_json().as_bytes());
            if target.name == "fig19" {
                rep.geomean = table.row("geomean.all").map_or(f64::NAN, |r| r[0]);
            }
            if let (Some(root), Some(before)) = (root, before) {
                let after = engine.metrics();
                let (c_us, c_n) = hist(&after, Hist::CompileMicros);
                let (c0_us, c0_n) = hist(&before, Hist::CompileMicros);
                let (s_us, _) = hist(&after, Hist::SimMicros);
                let (s0_us, _) = hist(&before, Hist::SimMicros);
                let (c_ns, s_ns) = ((c_us - c0_us) * 1000, (s_us - s0_us) * 1000);
                let span = tracer.span(target.name, "bench", t0, t1, Some(root), op);
                let at = tracer.ns(t0);
                tracer.span_ns("compile", "compiler", at, at + c_ns, Some(span), op);
                tracer.span_ns(
                    "simulate",
                    "sim.golden",
                    at + c_ns,
                    at + c_ns + s_ns,
                    Some(span),
                    op,
                );
                rep.compile_s += c_ns as f64 * 1e-9;
                rep.compiles += c_n - c0_n;
                rep.sim_s += s_ns as f64 * 1e-9;
                rep.figure_self_s +=
                    ((t1 - t0).as_nanos() as u64).saturating_sub(c_ns + s_ns) as f64 * 1e-9;
            }
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.sims = engine.sim_count() as u64;
        if let Some(root) = root {
            let m = engine.metrics();
            rep.counters = [
                m.counter(Counter::BenchCompileHits),
                m.counter(Counter::BenchCompileMisses),
                m.counter(Counter::BenchRunHits),
                m.counter(Counter::BenchRunMisses),
            ];
            match probe(&kernels, &mut tracer, root, op) {
                Ok(p) => {
                    if p.geomean.to_bits() != rep.geomean.to_bits() {
                        out.fail(format!(
                            "fig19 Turnpike geomean {} differs from the direct golden runs' {}",
                            rep.geomean, p.geomean
                        ));
                    }
                    let moved = probes
                        .first()
                        .is_some_and(|q: &Probe| (q.cycles, q.insts) != (p.cycles, p.insts));
                    if moved {
                        out.fail(
                            "golden-run cycles or instructions differ between repetitions"
                                .to_string(),
                        );
                    }
                    probes.push(p);
                }
                Err(e) => out.fail(e),
            }
            let end = tracer.ns(Instant::now());
            tracer.set_end(root, end);
        }
        out.sample(
            if traced {
                "pass_wall_s.traced"
            } else {
                "pass_wall_s"
            },
            start.elapsed().as_secs_f64(),
        );
        reps.push((traced, rep));
    });
    out.reps = counts;

    // Output identity: every repetition renders the same tables and the
    // same headline geomean, traced or not.
    if let Some((_, first)) = reps.first() {
        for (traced, r) in &reps[1..] {
            if r.digest != first.digest || r.geomean.to_bits() != first.geomean.to_bits() {
                out.fail(format!(
                    "rendered tables differ between repetitions (digest {:016x} vs {:016x}, \
                     traced {traced})",
                    r.digest, first.digest
                ));
            }
        }
        out.layer("model.turnpike_overhead_geomean", first.geomean);
        out.params
            .push(("tables_digest", format!("{:016x}", first.digest)));
    }
    let plain: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let sims_per_s: Vec<f64> = plain
        .iter()
        .map(|r| ratio(r.sims as f64, r.wall_s))
        .collect();
    for &v in &sims_per_s {
        out.sample("sims_per_s", v);
    }
    out.e2e.insert("throughput_per_s", median(&sims_per_s));
    let figure_ms: Vec<&[f64]> = plain.iter().map(|r| r.figure_ms.as_slice()).collect();
    out.latencies(&figure_ms);

    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    if !traced.is_empty() {
        let med =
            |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
        let compile_s = med(&|r| r.compile_s);
        out.layer("compiler.calls", traced[0].compiles as f64);
        out.layer("compiler.busy_s", compile_s);
        out.layer("sim.golden.calls", traced[0].sims as f64);
        out.layer("sim.golden.busy_s", med(&|r| r.sim_s));
        out.layer("bench.self_s", med(&|r| r.figure_self_s));
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
        if let Some(p) = probes.get(probes.len() / 2) {
            // The engine's compile time, split by the probe's pass shares.
            p.passes.report(&mut out, Some(compile_s));
            out.layer(
                "sim.golden.ns_per_inst",
                ratio(p.golden_s * 1e9, p.insts as f64),
            );
            out.layer("sim.cycles", p.cycles as f64);
            out.layer("sim.insts", p.insts as f64);
        }
        let plain_wall = median(&out.series["pass_wall_s"]);
        let traced_wall = median(&out.series["pass_wall_s.traced"]);
        out.layer(
            "trace.overhead_share",
            ratio(traced_wall - plain_wall, plain_wall),
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}
