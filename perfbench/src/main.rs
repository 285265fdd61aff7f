//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the library's public functions for
//! `--seconds` seconds, checks its outputs, and prints one JSON object as
//! the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]);
//! with `--trace 1` they are the per-layer ledger ([`PER_LAYER`]), built
//! from spans recorded around every layer call. A provenance line (JSON)
//! precedes the result line; the human-readable ledger goes to stderr.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod campaign;
mod explore;
mod figures;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload does not exercise reads `0`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("resilience.replay.exit_ratio", "ratio"),
    ("resilience.replay.cycles_saved_share", "ratio"),
    ("resilience.fork.hit_ratio", "ratio"),
    ("resilience.strike_run_us_p50", "us"),
    ("resilience.strike_run_us_p99", "us"),
    ("resilience.strike_run.busy_s", "s"),
    ("resilience.merge.busy_s", "s"),
    ("sim.snapshot.busy_s", "s"),
    ("sim.snapshot.count", "count"),
    ("sim.translate.busy_s", "s"),
    ("sim.golden.calls", "count"),
    ("sim.golden.busy_s", "s"),
    ("sim.golden.ns_per_inst", "ns"),
    ("compiler.calls", "count"),
    ("compiler.busy_s", "s"),
    ("compiler.pass.legalize_s", "s"),
    ("compiler.pass.livm_dce_s", "s"),
    ("compiler.pass.dce_s", "s"),
    ("compiler.pass.regalloc_s", "s"),
    ("compiler.pass.baseline_size_s", "s"),
    ("compiler.pass.partition_s", "s"),
    ("compiler.pass.checkpoint_s", "s"),
    ("compiler.pass.prune_s", "s"),
    ("compiler.pass.licm_s", "s"),
    ("compiler.pass.sched_s", "s"),
    ("compiler.pass.vulnerability_s", "s"),
    ("compiler.pass.codegen_s", "s"),
    ("bench.self_s", "s"),
    ("bench.engine.compile_hits", "count"),
    ("bench.engine.compile_misses", "count"),
    ("bench.engine.run_hits", "count"),
    ("bench.engine.run_misses", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.execute_ms_p99", "ms"),
    ("serve.execute_hit_ms_p50", "ms"),
    ("serve.execute_miss_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.busy_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("loadgen.lateness_ms_p99", "ms"),
    ("explore.grid_s", "s"),
    ("explore.screen_s", "s"),
    ("explore.promote_s", "s"),
    ("explore.campaign_s", "s"),
    ("explore.pareto_s", "s"),
    ("explore.jobs", "count"),
    ("explore.promoted_ratio", "ratio"),
    ("sim.cycles", "count"),
    ("sim.insts", "count"),
    ("campaign.detections", "count"),
    ("campaign.sdc_runs", "count"),
    ("model.turnpike_overhead_geomean", "ratio"),
    ("ops_failed_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

/// Workload names (`BENCHMARK.json` gates on `campaign_ladder` and
/// `figures_full`).
pub const WORKLOADS: [&str; 4] = [
    "campaign_ladder",
    "figures_full",
    "served_mix",
    "explore_smoke",
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Hard stop for the measurement loop, whatever the minimum repetition
/// count: a run must finish well inside three minutes.
const MAX_MEASURE_S: f64 = 120.0;

/// What one run is asked to do.
pub struct Ctx {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run: interleave traced repetitions with untraced ones.
    pub traced: bool,
    /// Scratch directory for this run, removed at exit when empty. Artifact
    /// stores written here are kept: removing thousands of fsync'd entries
    /// at the end of every run measurably slowed the following runs on an
    /// ext4 volume mounted with online discard.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A seed for one generated input of the workload, derived from the
    /// workload seed and a fixed per-input salt.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut s = self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
        splitmix(&mut s)
    }
}

/// SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (campaigns, figure passes, jobs, explorations).
    pub attempted: u64,
    /// Operations that errored, were refused or lost, or failed a check.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// `throughput_per_s`, `latency_p50_ms`, `latency_p99_ms`, from the
    /// untraced repetitions.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (names from [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-repetition samples behind the reported medians (provenance).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Untraced and traced repetitions measured.
    pub reps: (usize, usize),
    /// Threads the workload computes on / generates load from.
    pub threads: String,
    /// Samples behind the latency percentiles.
    pub latency_samples: usize,
    /// Spans of the traced repetitions.
    pub tracer: Option<Tracer>,
    /// Workload parameters for the provenance line.
    pub params: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Record a per-repetition sample.
    pub fn sample(&mut self, key: &str, v: f64) {
        self.series.entry(key.to_string()).or_default().push(v);
    }

    /// Set `latency_p50_ms` and `latency_p99_ms` from per-repetition
    /// request latencies: each percentile is taken within every repetition
    /// and the median over repetitions reported, so one slow repetition
    /// cannot set the tail.
    pub fn latencies(&mut self, per_rep_ms: &[&[f64]]) {
        for (key, p) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
            let xs: Vec<f64> = per_rep_ms.iter().map(|r| stats::percentile(r, p)).collect();
            self.e2e.insert(key, stats::median(&xs));
            self.series.insert(key.to_string(), xs);
        }
        self.latency_samples = per_rep_ms.iter().map(|r| r.len()).sum();
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, key: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(k, _)| *k == key),
            "undeclared metric {key}"
        );
        self.layers.insert(key, v);
    }
}

/// Run `rep(traced)` until the next repetition would overrun the
/// measurement budget (judged by the last repetition of the same kind),
/// once at least `min_reps` repetitions of each needed kind ran. Traced
/// runs alternate untraced and traced repetitions (untraced first), so
/// both see the same machine state and the difference is the tracing
/// overhead.
pub fn repeat(ctx: &Ctx, min_reps: usize, mut rep: impl FnMut(bool)) -> (usize, usize) {
    let start = Instant::now();
    let (mut plain, mut traced) = (0usize, 0usize);
    let mut last_s = [0.0f64; 2];
    loop {
        let t = ctx.traced && plain > traced;
        let t0 = Instant::now();
        let c0 = schedstat();
        rep(t);
        let c1 = schedstat();
        last_s[usize::from(t)] = t0.elapsed().as_secs_f64();
        eprintln!(
            "# rep {} ({}): {:.4} s cpu {:.4} s runq {:.4} s",
            plain + traced,
            if t { "traced" } else { "untraced" },
            last_s[usize::from(t)],
            c1.0.saturating_sub(c0.0) as f64 * 1e-9,
            c1.1.saturating_sub(c0.1) as f64 * 1e-9,
        );
        if t {
            traced += 1;
        } else {
            plain += 1;
        }
        let enough = plain >= min_reps && (!ctx.traced || traced >= min_reps);
        let next = ctx.traced && plain > traced;
        let elapsed = start.elapsed().as_secs_f64();
        if (enough && elapsed + last_s[usize::from(next)] > ctx.seconds) || elapsed >= MAX_MEASURE_S
        {
            return (plain, traced);
        }
    }
}

/// This thread's CPU time and run-queue wait so far, nanoseconds (Linux
/// schedstat; zeros elsewhere). Printed per repetition so a slow
/// repetition can be told apart: run-queue wait means preemption, CPU time
/// tracking wall time means the CPU itself ran slower.
fn schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Time `n` set-up repetitions, returning the last one's product.
pub fn timed_setup<T>(n: usize, out: &mut Outcome, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        out.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("at least one set-up repetition")
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a start value.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// The revision measured: the git commit when the checkout has one, else a
/// digest of the sources the benchmark builds (the benchmark also runs in
/// plain exported trees).
fn revision() -> String {
    let git = std::fs::read_to_string(".git/HEAD").ok().and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
                .ok()
                .map(|s| s.trim().to_string()),
            None => Some(head.to_string()),
        }
    });
    if let Some(rev) = git {
        return format!("git-{rev}");
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.extend(
        ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
            .iter()
            .map(PathBuf::from),
    );
    files.sort();
    let mut h = FNV_OFFSET;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h = fnv(h, f.to_string_lossy().as_bytes());
            h = fnv(h, &bytes);
        }
    }
    format!("src-{h:016x}")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <campaign_ladder|figures_full|served_mix|explore_smoke> \
     --seed <n> --seconds <1..600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err("--seconds must be an integer in 1..=600".to_string()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".to_string()),
            },
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch state lives in the working tree's ignored output directory,
    // one directory per process.
    let out_dir = PathBuf::from(".perfbench_out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        scratch: scratch.clone(),
    };
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        // The gated workloads carry the explore and serve layers: a traced
        // campaign run also measures one smoke exploration.
        "campaign_ladder" if ctx.traced => {
            campaign::run(&ctx).and_then(|mut o| explore::probe(&ctx, &mut o).map(|()| o))
        }
        "campaign_ladder" => campaign::run(&ctx),
        "figures_full" => figures::run(&ctx),
        "served_mix" => served::run(&ctx),
        "explore_smoke" => explore::run(&ctx),
        _ => unreachable!("validated in parse_args"),
    };
    let _ = std::fs::remove_dir(&scratch);
    match outcome {
        Ok(mut o) => {
            if let Some(tracer) = &o.tracer {
                let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
                match tracer.write_jsonl(&path) {
                    Ok(()) => eprintln!("# perfbench: spans written to {}", path.display()),
                    Err(e) => eprintln!("# perfbench: could not write {}: {e}", path.display()),
                }
            }
            report(&args, &mut o, started);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Print the ledger (stderr), the provenance line and the result line.
fn report(args: &Args, o: &mut Outcome, started: Instant) {
    o.attempted = o.attempted.max(o.failed).max(1);
    let failed_ratio = o.failed as f64 / o.attempted as f64;
    for f in &o.failures {
        eprintln!("# perfbench: FAILED CHECK: {f}");
    }
    let mut e2e: BTreeMap<&str, f64> = o.e2e.clone();
    e2e.insert("setup_s", stats::median(&o.setup_s));
    e2e.insert("peak_rss_mb", peak_rss_mb());
    e2e.insert("ops_ok_ratio", 1.0 - failed_ratio);
    o.layer("ops_failed_ratio", failed_ratio);
    if let Some(share) = o.tracer.as_ref().map(Tracer::unaccounted_share) {
        o.layer("trace.unaccounted_share", share);
    }
    if let Some(t) = &o.tracer {
        eprintln!(
            "# ledger ({}): self time per layer over traced repetitions",
            args.workload
        );
        let ledger = t.ledger();
        let probe = ledger.get(trace::PROBE).copied().unwrap_or(0.0);
        let total = t.root_s() - probe;
        for (layer, s) in &ledger {
            let share = if *layer == trace::PROBE {
                "(tracing probes)".to_string()
            } else {
                format!("{:6.2}%", 100.0 * stats::ratio(*s, total))
            };
            eprintln!("#   {layer:28} {s:10.4} s  {share}");
        }
    }

    // Provenance: what was measured, where, and how often.
    let mut prov = format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"mode\":{},\"revision\":{},\"nproc\":{},\
         \"threads\":{},\"seconds\":{},\"wall_s\":{},\"reps_untraced\":{},\"reps_traced\":{},\
         \"setup_reps\":{},\"latency_samples\":{},\"attempted\":{},\"failed\":{}",
        json_str(&args.workload),
        args.seed,
        json_str(if args.trace { "traced" } else { "untraced" }),
        json_str(&revision()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&o.threads),
        args.seconds,
        json_num(started.elapsed().as_secs_f64()),
        o.reps.0,
        o.reps.1,
        o.setup_s.len(),
        o.latency_samples,
        o.attempted,
        o.failed,
    );
    for (k, v) in &o.params {
        prov.push_str(&format!(",{}:{}", json_str(k), json_str(v)));
    }
    let mut series = o.series.clone();
    series.insert("setup_s".to_string(), o.setup_s.clone());
    prov.push_str(",\"series\":{");
    for (i, (k, xs)) in series.iter().enumerate() {
        let (q1, q3) = stats::quartiles(xs);
        prov.push_str(&format!(
            "{}{}:{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(k),
            xs.len(),
            json_num(stats::median(xs)),
            json_num(q1),
            json_num(q3)
        ));
    }
    prov.push_str("}}}");
    println!("{prov}");

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let v = if args.trace {
            o.layers.get(name).copied().unwrap_or(0.0)
        } else {
            e2e.get(name).copied().unwrap_or(f64::NAN)
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }
    let correct = o.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}
