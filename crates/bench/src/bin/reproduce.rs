//! `reproduce` — regenerate the paper's tables and figures, and drive the
//! serving, distributed and design-space layers from the command line.
//!
//! [`COMMANDS`] is the one table of subcommands and their flags: argv is
//! checked against it, and both the usage text and `reproduce --list` are
//! rendered from it. A usage or flag error names the subcommand and the
//! flag, prints that subcommand's flags and exits 2; a runtime failure
//! exits 1; a `submit` the server rejects as overloaded exits 3.
//!
//! `reproduce <target>` prints one paper figure or table (`all`: every
//! target, in registry order). `--smoke` runs the reduced-size kernels
//! (fast; used by CI); the default is full evaluation scale. Stdout is
//! byte-identical at any `--threads` count and with `--no-cache`, which
//! disables the engine's compile/run memoization.
//!
//! `serve` runs the batch job server (`turnpike-serve`): line-delimited
//! JSON over TCP, bounded queue with typed `overloaded` rejections, worker
//! pool over the shared evaluation engine, optional persistent artifact
//! store (`--store DIR`, shared with `submit --direct`), graceful drain on
//! a client `shutdown` request. The bound address is its only stdout line.
//! `submit` sends one compile/run/campaign/figure job (or `--stats` /
//! `--shutdown`) and prints the result payload — byte-identical whether
//! served or executed in-process via `--direct`. `submit --progress`
//! renders a live progress bar for campaign jobs (SDC rate with its Wilson
//! interval, strikes/s, ETA). `watch` polls a server's `stats` and
//! `metrics` exposition (or a `--workers` fleet's stats). `serve
//! --flight-dir DIR` dumps failed, deadline-canceled or quarantine-tripping
//! jobs' lifecycle rings as `DIR/job-<id>.jsonl`. Served latency under
//! open-loop load is measured by the repository benchmark's `served_mix`
//! workload (`perfbench/`).
//!
//! `coordinate` shards one campaign by run-index range across a fleet of
//! `serve` workers, re-dispatches the shards of a worker that dies, and
//! prints the merged payload — byte-identical to `submit --direct`.
//!
//! `telemetry` runs every Fig-21 ladder rung's campaign once without and
//! once with streaming progress snapshots, fails unless the two reports
//! are bit-identical, prints the deterministic reports, and records the
//! wall-clock overhead. `--stop-ci W` adds a campaign that stops once the
//! SDC-rate Wilson half-width reaches `W`; `--records FILE` writes the
//! turnpike rung's strike records as JSONL.
//!
//! `explore` sweeps the cross-layer design space (scheme x WCDL x SB size
//! x CLQ x colors x cache geometry), evaluating every canonical point, and
//! prints the Pareto frontier over (runtime overhead, hardware cost, SDC
//! rate); the frontier artifact (`--out`) and the table are byte-identical
//! at any `--threads` count and between direct execution and a `--workers`
//! fleet, which shares `coordinate`'s work-stealing dispatcher and so
//! survives dead or draining workers.
//! `--store DIR` memoizes every job's payload; `--resume` re-runs a sweep
//! against that store.
//!
//! `trace` exports one kernel's resilience-event timeline under a scheme
//! as Chrome trace-event JSON (load it in ui.perfetto.dev) or raw JSONL.
//! Resilient schemes get one deterministic datapath strike at 25% of the
//! fault-free cycle count, so the export shows a full
//! strike→detection→recovery arc.
//!
//! Figure targets, `telemetry` and `explore` each record a perf block in
//! `BENCH_reproduce.json`, a JSON object keyed by block name that every
//! writer merges into (see `report.rs`). Timing goes there and to stderr,
//! never to stdout. Simulator speed is measured by the repository
//! benchmark (`perfbench/`), whose traced `figures_full` run reports the
//! golden path's nanoseconds per instruction.

use std::fmt::Display;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use turnpike_bench::{
    coordinate, export_trace, fault_probe_metrics, find_kernel, hist_summary_json, target_by_name,
    write_block, CoordinateConfig, Engine, EngineExecutor, Table, Target, TraceFormat, TARGETS,
};
use turnpike_metrics::{Hist, Json, MetricSet};
use turnpike_resilience::{par_map, RunSpec, Scheme};
use turnpike_serve::{Client, JobKind, JobRequest, Outcome, Server, ServerConfig, Store};
use turnpike_sim::Refusal;
use turnpike_workloads::Scale;

/// One command-line flag: its name, the placeholder of its value (`""`
/// for a switch) and its help text.
struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

/// Declare each flag once, as a `const` that subcommands list by name:
/// `IDENT = "--name" "VALUE" "help";` (`""` as the value for a switch).
macro_rules! flags {
    ($($id:ident = $name:literal $value:literal $help:literal;)*) => {
        $(const $id: Flag = Flag { name: $name, value: $value, help: $help };)*
    };
}

/// One subcommand: its name (`""` for the figure targets), its operand
/// placeholder (`""` when it takes none), a one-line summary, its flag
/// groups and its entry point.
struct Command {
    name: &'static str,
    operand: &'static str,
    summary: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Cli,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }
}

flags! {
    SMOKE = "--smoke" "" "reduced-size kernels (fast; the CI scale)";
    FULL = "--full" "" "evaluation-scale kernels (the default)";
    THREADS = "--threads" "N" "evaluation threads, N >= 1 (default: all hardware threads)";
    JSON = "--json" "" "print machine-readable tables";
    NO_CACHE = "--no-cache" "" "disable compile/run memoization";
    LIST = "--list" "" "name every target and subcommand";
    FORMAT = "--format" "F" "chrome (ui.perfetto.dev) or jsonl";
    OUT = "--out" "FILE" "write the trace or frontier artifact to FILE";
    ADDR = "--addr" "A" "server address (default 127.0.0.1:8642; serve: 127.0.0.1:0, any port)";
    WORKERS = "--workers" "N|A,B,..." "serve: job-pool size N >= 1; else the fleet's addresses";
    QUEUE = "--queue" "N" "bounded job-queue capacity, N >= 1";
    TIMEOUT_SECS = "--timeout-secs" "N" "per-job deadline, N >= 1 seconds";
    STORE = "--store" "DIR" "persistent artifact store directory";
    STORE_CAP = "--store-cap" "BYTES" "store byte budget, plain or with a k/m/g suffix";
    FLIGHT_DIR = "--flight-dir" "DIR" "dump failed/deadlined/quarantined jobs' event rings to DIR";
    TRACE_OUT = "--trace-out" "FILE" "write served-job spans as a Chrome trace";
    DIRECT = "--direct" "" "run the job in-process instead of on a server";
    PROGRESS = "--progress" "" "live progress bar (rate +/- Wilson CI, strikes/s, ETA)";
    STATS = "--stats" "" "print the server's stats snapshot";
    SHUTDOWN = "--shutdown" "" "drain the server and shut it down";
    SHARDS = "--shards" "N" "run-index shards, N >= 1 (default: one per worker)";
    MAX_RETRIES = "--max-retries" "N" "dispatch retries per shard (default 100)";
    INTERVAL_MS = "--interval-ms" "N" "poll period, N >= 50 ms (default 1000)";
    ONCE = "--once" "" "print one snapshot and exit";
    STOP_CI = "--stop-ci" "W" "add a campaign stopping at SDC-rate half-width W in (0, 0.5)";
    RECORDS = "--records" "FILE" "write turnpike strike records as JSONL";
    MAX_RECORDS = "--max-records" "N" "reservoir-cap the records at N >= 1";
    RESUME = "--resume" "" "serve already-evaluated jobs from --store";
    KIND = "--kind" "K" "compile, run, campaign or figure";
    KERNEL = "--kernel" "K" "catalog kernel (default bwaves)";
    SCHEME = "--scheme" "S" "baseline or a ladder rung (default turnpike)";
    SCALE = "--scale" "S" "smoke or full (default smoke)";
    SB = "--sb" "N" "store-buffer entries (default 4)";
    WCDL = "--wcdl" "N" "worst-case detection latency, cycles (default 10)";
    RUNS = "--runs" "N" "fault-injection runs per campaign";
    SEED = "--seed" "N" "campaign RNG seed";
    STRIKES = "--strikes" "N" "strikes per injected run (default 1)";
    CLQ = "--clq" "C" "CLQ design override, e.g. cam-4";
    COLORS = "--colors" "N" "color-count override, N <= 255 (0: default)";
    GEOM = "--geom" "G" "cache-geometry override, e.g. slim";
    TARGET = "--target" "T" "figure target of a figure job (default summary)";
    TAG = "--tag" "T" "client tag echoed in the job's events";
}

/// The job-field flags `submit` and `coordinate` share (see [`job_request`]).
const JOB: &[Flag] = &[
    KIND, KERNEL, SCHEME, SCALE, SB, WCDL, RUNS, SEED, STRIKES, CLQ, COLORS, GEOM, TARGET, TAG,
];

/// Every subcommand, the figure targets first.
const COMMANDS: &[Command] = &[
    Command {
        name: "",
        operand: "<target>",
        summary: "print one paper figure or table (`all`: every target)",
        flags: &[&[SMOKE, FULL, JSON, NO_CACHE, THREADS, LIST]],
        run: figures_main,
    },
    Command {
        name: "trace",
        operand: "<kernel>",
        summary: "export one kernel's resilience-event timeline",
        flags: &[&[SCHEME, SMOKE, FULL, FORMAT, OUT]],
        run: trace_main,
    },
    Command {
        name: "serve",
        operand: "",
        summary: "batch job server; prints its bound address",
        flags: &[&[
            ADDR,
            WORKERS,
            QUEUE,
            TIMEOUT_SECS,
            STORE,
            STORE_CAP,
            FLIGHT_DIR,
            TRACE_OUT,
            THREADS,
        ]],
        run: serve_main,
    },
    Command {
        name: "submit",
        operand: "",
        summary: "send one job to a server, or run it in-process with --direct",
        flags: &[
            &[ADDR, DIRECT, STORE, THREADS, PROGRESS, STATS, SHUTDOWN],
            JOB,
        ],
        run: submit_main,
    },
    Command {
        name: "coordinate",
        operand: "",
        summary: "shard a campaign across a worker fleet; merged payload",
        flags: &[&[WORKERS, SHARDS, MAX_RETRIES, PROGRESS], JOB],
        run: coordinate_main,
    },
    Command {
        name: "watch",
        operand: "",
        summary: "poll a server's stats + metrics (--workers: fleet view)",
        flags: &[&[ADDR, WORKERS, INTERVAL_MS, ONCE]],
        run: watch_main,
    },
    Command {
        name: "telemetry",
        operand: "",
        summary: "progress snapshots leave ladder campaigns bit-identical; their overhead",
        flags: &[&[
            SMOKE,
            FULL,
            KERNEL,
            RUNS,
            SEED,
            THREADS,
            STOP_CI,
            RECORDS,
            MAX_RECORDS,
        ]],
        run: telemetry_main,
    },
    Command {
        name: "explore",
        operand: "",
        summary: "design-space exploration; Pareto frontier artifact",
        flags: &[&[SMOKE, FULL, THREADS, WORKERS, STORE, RESUME, SEED, OUT]],
        run: explore_main,
    },
];

/// Why a subcommand stopped: a usage error (exit 2, followed by the
/// subcommand's flags) or a runtime failure (exit 1).
enum Stop {
    Usage(String),
    Failed(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Usage(msg)
    }
}

fn failed(e: impl Display) -> Stop {
    Stop::Failed(e.to_string())
}

type Cli = Result<ExitCode, Stop>;

/// A subcommand's argv checked against its flags: every flag is known and
/// every value-taking flag has its value. The typed getters validate the
/// values; an error names the flag.
struct Args {
    cmd: &'static Command,
    operand: Option<String>,
    /// `(flag, value)` in argv order; switches carry `""`.
    given: Vec<(&'static str, String)>,
}

impl Args {
    fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            cmd,
            operand: None,
            given: Vec::new(),
        };
        let mut rest = argv;
        while let [arg, tail @ ..] = rest {
            rest = tail;
            if let Some(f) = cmd.flags().find(|f| f.name == arg.as_str()) {
                let mut value = String::new();
                if !f.value.is_empty() {
                    match rest {
                        [v, tail @ ..] if !v.starts_with("--") => {
                            value = v.clone();
                            rest = tail;
                        }
                        _ => return Err(format!("{} needs a value ({})", f.name, f.value)),
                    }
                }
                args.given.push((f.name, value));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else if cmd.operand.is_empty() || args.operand.is_some() {
                return Err(format!("unexpected argument '{arg}'"));
            } else {
                args.operand = Some(arg.clone());
            }
        }
        Ok(args)
    }

    /// The last value given for `name` (`""` for a switch).
    fn text(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.flags().any(|f| f.name == name),
            "{name} is not a flag of `{}`",
            self.cmd.name
        );
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn on(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of `name` through `parse`, which rejects with `None`.
    fn get<T>(
        &self,
        name: &str,
        takes: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.text(name)
            .map(|v| parse(v).ok_or_else(|| format!("{name} takes {takes}, got '{v}'")))
            .transpose()
    }

    fn int<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        min: T,
    ) -> Result<Option<T>, String> {
        self.get(name, &format!("an integer >= {min}"), |v| {
            v.parse().ok().filter(|n| *n >= min)
        })
    }

    fn threads(&self) -> Result<usize, String> {
        Ok(self.int("--threads", 1)?.unwrap_or_else(default_threads))
    }

    /// The last of `--smoke` / `--full`; full scale by default.
    fn scale(&self) -> Scale {
        let mut latest_first = self.given.iter().rev().map(|(n, _)| *n);
        match latest_first.find(|n| *n == "--smoke" || *n == "--full") {
            Some("--smoke") => Scale::Smoke,
            _ => Scale::Full,
        }
    }

    fn operand(&self) -> Result<&str, String> {
        self.operand
            .as_deref()
            .ok_or_else(|| format!("missing {}", self.cmd.operand))
    }

    fn requires(&self, name: &str, needs: &str) -> Result<(), String> {
        if self.on(name) && !self.on(needs) {
            return Err(format!("{name} needs {needs}"));
        }
        Ok(())
    }

    fn excludes(&self, name: &str, other: &str) -> Result<(), String> {
        if self.on(name) && self.on(other) {
            return Err(format!("{name} cannot be combined with {other}"));
        }
        Ok(())
    }
}

/// Usage text for `cmds`: a synopsis and summary, then one line per flag.
fn usage(cmds: &[Command]) -> String {
    let mut out = String::new();
    for c in cmds {
        let synopsis = [c.name, c.operand].join(" ");
        out.push_str(&format!(
            "usage: reproduce {} [flags]\n  {}\n",
            synopsis.trim(),
            c.summary
        ));
        for f in c.flags() {
            let spec = format!("{} {}", f.name, f.value);
            out.push_str(&format!("    {:20} {}\n", spec.trim_end(), f.help));
        }
    }
    out
}

/// The target list rendered from the registry, one aligned line per target.
fn target_listing() -> String {
    let width = TARGETS
        .iter()
        .map(|t| t.name.len())
        .max()
        .unwrap_or(0)
        .max("all".len());
    let mut out = String::new();
    for t in &TARGETS {
        out.push_str(&format!("  {:width$}  {}\n", t.name, t.paper_ref));
    }
    out.push_str(&format!(
        "  {:width$}  every target above, in that order\n",
        "all"
    ));
    out
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Merge `record` into `BENCH_reproduce.json` as block `key`; a write
/// failure only warns.
fn record_block(key: &str, record: Json) {
    if let Err(e) = write_block("BENCH_reproduce.json", key, record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
}

/// `reproduce trace <kernel>` — export one kernel's resilience-event
/// timeline.
fn trace_main(a: &Args) -> Cli {
    let schemes: Vec<&str> = [Scheme::Baseline]
        .iter()
        .chain(Scheme::LADDER.iter())
        .map(|s| s.cli_name())
        .collect();
    let scheme = a
        .get(
            "--scheme",
            &format!("one of: {}", schemes.join(" ")),
            Scheme::parse,
        )?
        .unwrap_or(Scheme::Turnpike);
    let format = a
        .get("--format", "chrome or jsonl", TraceFormat::parse)?
        .unwrap_or(TraceFormat::Chrome);
    let name = a.operand()?;
    let k = find_kernel(name, a.scale()).ok_or_else(|| format!("unknown kernel '{name}'"))?;
    let text = export_trace(&k, &RunSpec::new(scheme), format)
        .map_err(|e| failed(format!("{name}: {e}")))?;
    match a.text("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| failed(format!("write {path}: {e}")))?;
            eprintln!(
                "# wrote {path} ({} bytes, {} scheme {}){}",
                text.len(),
                name,
                scheme.cli_name(),
                if format == TraceFormat::Chrome {
                    " — load it in ui.perfetto.dev"
                } else {
                    ""
                }
            );
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Default server address of `submit` and `watch` (`serve` defaults to
/// port 0 — OS-assigned — and prints the bound address).
const DEFAULT_ADDR: &str = "127.0.0.1:8642";

/// The job the shared [`JOB`] flags describe, on top of `kind`'s request
/// defaults.
fn job_request(a: &Args, kind: JobKind) -> Result<JobRequest, String> {
    let mut req = JobRequest::new(kind);
    if let Some(k) = a.get("--kind", "compile|run|campaign|figure", JobKind::parse)? {
        req.kind = k;
    }
    for (name, field) in [
        ("--kernel", &mut req.kernel),
        ("--scheme", &mut req.scheme),
        ("--scale", &mut req.scale),
        ("--clq", &mut req.clq),
        ("--geom", &mut req.geom),
        ("--target", &mut req.target),
        ("--tag", &mut req.tag),
    ] {
        if let Some(v) = a.text(name) {
            *field = v.to_string();
        }
    }
    for (name, field) in [
        ("--wcdl", &mut req.wcdl),
        ("--runs", &mut req.runs),
        ("--seed", &mut req.seed),
        ("--strikes", &mut req.strikes),
    ] {
        if let Some(v) = a.int(name, 0)? {
            *field = v;
        }
    }
    req.sb = a.int("--sb", 0)?.unwrap_or(req.sb);
    req.colors = a
        .get("--colors", "an integer <= 255", |v| {
            v.parse().ok().filter(|&c| c <= 255)
        })?
        .unwrap_or(req.colors);
    Ok(req)
}

/// Parse a byte budget: a plain integer, optionally suffixed `k`/`m`/`g`
/// (binary multiples, case-insensitive). `None` on overflow.
fn parse_bytes(v: &str) -> Option<u64> {
    let (digits, unit) = match v.char_indices().last()? {
        (i, c) if c.is_ascii_alphabetic() => (&v[..i], c.to_ascii_lowercase()),
        _ => (v, ' '),
    };
    let n: u64 = digits.parse().ok()?;
    let scale = match unit {
        ' ' => 1,
        'k' => 1 << 10,
        'm' => 1 << 20,
        'g' => 1 << 30,
        _ => return None,
    };
    n.checked_mul(scale)
}

/// `reproduce serve` — run the job server until a client sends `shutdown`.
fn serve_main(a: &Args) -> Cli {
    a.requires("--store-cap", "--store")?;
    let mut config = ServerConfig::default();
    if let Some(addr) = a.text("--addr") {
        config.addr = addr.to_string();
    }
    config.workers = a.int("--workers", 1)?.unwrap_or(config.workers);
    config.queue_capacity = a.int("--queue", 1)?.unwrap_or(config.queue_capacity);
    if let Some(secs) = a.int("--timeout-secs", 1)? {
        config.job_timeout = Duration::from_secs(secs);
    }
    config.flight_dir = a.text("--flight-dir").map(Into::into);
    config.trace_path = a.text("--trace-out").map(Into::into);
    let threads = a.threads()?;
    let store = a.text("--store");
    let store_cap = a.get(
        "--store-cap",
        "a byte budget (plain bytes or k/m/g suffix), e.g. 256m",
        |v| parse_bytes(v).filter(|&n| n >= 1),
    )?;
    let mut executor = EngineExecutor::new(Engine::new(threads));
    if let Some(dir) = store {
        executor = executor.with_store(Store::open(dir));
    }
    if let Some(cap) = store_cap {
        executor = executor.with_store_cap(cap);
    }
    let server = Server::start(config.clone(), Arc::new(executor))
        .map_err(|e| failed(format!("bind {}: {e}", config.addr)))?;
    // The bound address goes to stdout (and nothing else does) so scripts
    // using --addr 127.0.0.1:0 can discover the OS-assigned port.
    println!("serving {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "# serve: {} workers, queue {}, timeout {}s, {} engine threads, store {}, flight {}",
        config.workers,
        config.queue_capacity,
        config.job_timeout.as_secs(),
        threads,
        match (store, store_cap) {
            (Some(dir), Some(cap)) => format!("{dir} (cap {cap} bytes)"),
            (Some(dir), None) => dir.to_string(),
            (None, _) => "off".to_string(),
        },
        config
            .flight_dir
            .as_deref()
            .map_or("off", |p| p.to_str().unwrap_or("on")),
    );
    server.join();
    eprintln!("# serve: drained and shut down");
    Ok(ExitCode::SUCCESS)
}

/// `reproduce submit` — send one job (or `--stats`/`--shutdown`) to a
/// server, or run it locally with `--direct` through the exact same
/// executor and artifact store.
fn submit_main(a: &Args) -> Cli {
    a.requires("--store", "--direct")?;
    a.requires("--threads", "--direct")?;
    for server_only in ["--stats", "--shutdown", "--addr", "--progress"] {
        a.excludes("--direct", server_only)?;
    }
    let req = job_request(a, JobKind::Run)?;
    let threads = a.threads()?;
    let addr = a.text("--addr").unwrap_or(DEFAULT_ADDR);
    let connect = || Client::connect(addr).map_err(|e| failed(format!("connect {addr}: {e}")));
    if a.on("--stats") {
        println!("{}", connect()?.stats().map_err(failed)?);
        return Ok(ExitCode::SUCCESS);
    }
    if a.on("--shutdown") {
        connect()?.shutdown().map_err(failed)?;
        eprintln!("# server is shutting down");
        return Ok(ExitCode::SUCCESS);
    }
    if a.on("--direct") {
        let mut executor = EngineExecutor::new(Engine::new(threads));
        if let Some(dir) = a.text("--store") {
            executor = executor.with_store(Store::open(dir));
        }
        let out = executor.execute_direct(&req).map_err(failed)?;
        println!("{}", out.result);
        eprintln!("# store: {}", out.store.name());
        return Ok(ExitCode::SUCCESS);
    }
    let mut client = connect()?;
    // --progress rewrites one live line in place on a TTY (bare per-run
    // ticks included); piped stderr gets only the estimator-bearing
    // snapshots, one line each, so logs stay bounded.
    let progress = a.on("--progress");
    let tty = std::io::IsTerminal::is_terminal(&std::io::stderr());
    let mut rendered_live = false;
    let on_progress = |done: u64, total: u64, stats: Option<&turnpike_serve::ProgressStats>| {
        if !progress {
            eprintln!("# progress: {done}/{total}");
            return;
        }
        let line = turnpike_bench::progress_line(done, total, stats);
        if tty {
            eprint!("\r\x1b[2K{line}");
            rendered_live = true;
        } else if stats.is_some() || done == total {
            eprintln!("# {line}");
        }
    };
    let outcome = client.submit_streaming(&req, on_progress);
    if rendered_live {
        eprintln!();
    }
    match outcome.map_err(failed)? {
        Outcome::Done { job, store, result } => {
            println!("{result}");
            eprintln!("# job {job} done, store: {store}");
            Ok(ExitCode::SUCCESS)
        }
        Outcome::Overloaded { retry_after_ms } => {
            eprintln!("reproduce submit: server overloaded, retry after {retry_after_ms} ms");
            Ok(ExitCode::from(3))
        }
        Outcome::ShuttingDown => Err(failed("server is shutting down")),
        Outcome::Error { job, message } => Err(failed(format!("job {job}: {message}"))),
    }
}

/// `reproduce watch` — poll a running server's `stats` snapshot and
/// `metrics` exposition (or every `--workers` address's stats), printing
/// a compact health summary per tick (see `watch.rs` for the renderers).
fn watch_main(a: &Args) -> Cli {
    let addr = a.text("--addr").unwrap_or(DEFAULT_ADDR);
    let interval = Duration::from_millis(a.int("--interval-ms", 50)?.unwrap_or(1000));
    loop {
        match a.text("--workers") {
            // Fleet mode: one aggregated view over every worker. A dead
            // worker is rendered as unreachable instead of failing the
            // watch — seeing the hole in the fleet is the point.
            Some(list) => {
                let snapshot: Vec<(String, Result<String, String>)> = list
                    .split(',')
                    .map(|w| {
                        let stats = Client::connect(w)
                            .and_then(|mut c| c.stats())
                            .map_err(|e| e.to_string());
                        (w.to_string(), stats)
                    })
                    .collect();
                print!("{}", turnpike_bench::render_fleet_watch(&snapshot));
            }
            None => {
                let text = Client::connect(addr)
                    .and_then(|mut c| {
                        let stats = c.stats()?;
                        let metrics = c.metrics()?;
                        Ok(turnpike_bench::render_watch(&stats, &metrics))
                    })
                    .map_err(|e| failed(format!("{addr}: {e}")))?;
                print!("{text}");
            }
        }
        if a.on("--once") {
            return Ok(ExitCode::SUCCESS);
        }
        println!("---");
        std::thread::sleep(interval);
    }
}

/// Resolve `host:port[,host:port...]`; `None` if any address fails.
fn resolve_all(list: &str) -> Option<Vec<SocketAddr>> {
    list.split(',')
        .map(|w| w.to_socket_addrs().ok()?.next())
        .collect()
}

/// `reproduce coordinate` — shard one campaign by run-index range across
/// a fleet of `reproduce serve` workers and print the merged payload,
/// byte-identical to running the same campaign in a single process. A
/// worker that dies mid-campaign has its shard re-dispatched to the
/// survivors; only a fleet-wide failure (or a deterministic job error)
/// fails the coordination.
fn coordinate_main(a: &Args) -> Cli {
    let mut cfg = CoordinateConfig::default();
    cfg.request = job_request(a, cfg.request.kind)?;
    cfg.shards = a.int("--shards", 1)?.unwrap_or(cfg.shards);
    cfg.max_retries = a.int("--max-retries", 0)?.unwrap_or(cfg.max_retries);
    let workers = a
        .get("--workers", "host:port[,host:port...]", resolve_all)?
        .ok_or_else(|| "--workers host:port[,host:port...] is required".to_string())?;
    // Live progress only on a TTY: worker threads report concurrently and
    // a log file full of interleaved bar rewrites helps nobody.
    let live = a.on("--progress") && std::io::IsTerminal::is_terminal(&std::io::stderr());
    let on_progress = |done: u64, total: u64| {
        eprint!(
            "\r\x1b[2K{}",
            turnpike_bench::progress_line(done, total, None)
        );
    };
    let hook: Option<&(dyn Fn(u64, u64) + Sync)> = if live { Some(&on_progress) } else { None };
    let report = coordinate(&workers, &cfg, hook);
    if live {
        eprintln!();
    }
    let report = report.map_err(failed)?;
    // Stdout carries only the merged payload so scripts can byte-diff it
    // against `submit --direct` output.
    println!("{}", report.payload);
    eprintln!(
        "# coordinate: {} workers, {} shards ({} reassigned), {} runs in {} ms ({:.1} runs/s)",
        report.workers.len(),
        report.shards,
        report.reassigned,
        cfg.request.runs,
        report.wall_us / 1000,
        cfg.request.runs as f64 * 1.0e6 / report.wall_us.max(1) as f64,
    );
    for w in &report.workers {
        eprintln!(
            "#   {}  {} shards, {} runs{}",
            w.addr,
            w.shards_done,
            w.runs_done,
            if w.alive { "" } else { " (left the fleet)" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `reproduce telemetry` — measure the telemetry spine itself. Every
/// Fig-21 ladder rung's campaign runs twice, untelemetered and with
/// streaming progress snapshots; the two reports must be bit-identical
/// (that is the spine's core guarantee) and the wall-clock delta is
/// recorded as the `telemetry` block of `BENCH_reproduce.json`.
///
/// Stdout carries only the deterministic per-rung reports (plus the
/// deterministic `--stop-ci` outcome), so CI can byte-diff it across
/// thread counts; timing goes to stderr and the JSON block.
fn telemetry_main(a: &Args) -> Cli {
    use turnpike_metrics::RateEstimator;
    use turnpike_resilience::{
        fault_campaign_hooked, write_strike_records_to_path, CampaignConfig, CampaignHook,
        CampaignProgress, StopRule,
    };

    let scale = a.scale();
    let kernel_name = a.text("--kernel").unwrap_or("bwaves");
    let runs = a.int("--runs", 1)?.unwrap_or(48);
    let seed = a.int("--seed", 0)?.unwrap_or(7);
    let threads = a.threads()?;
    let stop_ci = a.get("--stop-ci", "a half-width in (0, 0.5)", |v| {
        v.parse().ok().filter(|w: &f64| *w > 0.0 && *w < 0.5)
    })?;
    let records_path = a.text("--records");
    let max_records = a.int("--max-records", 1)?;
    let kernel =
        find_kernel(kernel_name, scale).ok_or_else(|| format!("unknown kernel '{kernel_name}'"))?;
    let config = CampaignConfig {
        runs,
        seed,
        strikes_per_run: 1,
        ..Default::default()
    };
    eprintln!(
        "# telemetry: {kernel_name}, {} ladder rungs x {runs} runs, seed {seed}, {threads} threads",
        Scheme::LADDER.len()
    );
    let snapshots = std::sync::atomic::AtomicUsize::new(0);
    let (mut wall_off_us, mut wall_on_us) = (0u128, 0u128);
    let mut rung_rows = Vec::new();
    let mut turnpike_records = Vec::new();
    for scheme in Scheme::LADDER {
        let spec = RunSpec::new(scheme);
        let t0 = Instant::now();
        let off = fault_campaign_hooked(
            &kernel.program,
            &spec,
            &config,
            threads,
            CampaignHook::default(),
        );
        let off_us = t0.elapsed().as_micros();
        let on_progress = |p: &CampaignProgress| {
            snapshots.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Touch the full payload the way a renderer would, so the
            // measured overhead includes building every estimator field.
            std::hint::black_box((p.sdc_rate.wilson_bounds(), p.strikes_per_sec, p.eta_ms));
        };
        let hook = CampaignHook {
            on_progress: Some(&on_progress),
            ..CampaignHook::default()
        };
        let t0 = Instant::now();
        let on = fault_campaign_hooked(&kernel.program, &spec, &config, threads, hook);
        let on_us = t0.elapsed().as_micros();
        let ((off_report, off_records, _), (on_report, _, _)) = match (off, on) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                return Err(failed(format!("{}: {e}", scheme.cli_name())));
            }
        };
        if off_report != on_report {
            return Err(failed(format!(
                "{}: progress snapshots changed the report\n  off: {off_report:?}\n  on:  {on_report:?}",
                scheme.cli_name()
            )));
        }
        wall_off_us += off_us;
        wall_on_us += on_us;
        println!(
            "{:32} runs {:4}  sdc {:3}  recoveries {:6}  detections {:6}  post {:4}  hangs {:3}",
            scheme.cli_name(),
            off_report.runs,
            off_report.sdc,
            off_report.recoveries,
            off_report.detections,
            off_report.post_completion,
            off_report.hangs,
        );
        rung_rows.push(Json::obj([
            ("scheme", Json::from(scheme.cli_name())),
            ("runs", off_report.runs.into()),
            ("sdc", off_report.sdc.into()),
            ("detections", off_report.detections.into()),
            ("hangs", off_report.hangs.into()),
        ]));
        if scheme == Scheme::Turnpike {
            turnpike_records = off_records;
        }
    }
    let snapshots = snapshots.load(std::sync::atomic::Ordering::Relaxed) / 2;
    let overhead_pct = if wall_off_us > 0 {
        (wall_on_us as f64 - wall_off_us as f64) * 100.0 / wall_off_us as f64
    } else {
        0.0
    };
    eprintln!(
        "# telemetry: untelemetered {} ms, with progress {} ms, overhead {overhead_pct:.2}% \
         ({snapshots} snapshots per pass)",
        wall_off_us / 1000,
        wall_on_us / 1000,
    );

    let mut stop_json = None;
    if let Some(half_width) = stop_ci {
        let stop_config = CampaignConfig {
            stop: StopRule::CiWidth {
                half_width,
                cap: runs,
            },
            ..config
        };
        let spec = RunSpec::new(Scheme::Turnpike);
        let (report, _, _) = fault_campaign_hooked(
            &kernel.program,
            &spec,
            &stop_config,
            threads,
            CampaignHook::default(),
        )
        .map_err(|e| failed(format!("stop-ci campaign: {e}")))?;
        let est = RateEstimator::from_counts(report.sdc as u64, report.runs as u64);
        println!(
            "stop-ci {half_width}: executed {}/{} runs, sdc-rate half-width {:.4}",
            report.runs,
            runs,
            est.half_width()
        );
        stop_json = Some(Json::obj([
            ("half_width", Json::from(half_width)),
            ("cap", runs.into()),
            ("executed", report.runs.into()),
            ("final_half_width", Json::fixed(est.half_width(), 4)),
        ]));
    }

    if let Some(path) = records_path {
        write_strike_records_to_path(&turnpike_records, max_records, seed, path)
            .map_err(|e| failed(format!("write {path}: {e}")))?;
        eprintln!(
            "# wrote {path}: {} strike records{}",
            turnpike_records
                .len()
                .min(max_records.unwrap_or(usize::MAX)),
            match max_records {
                Some(cap) => format!(" (reservoir cap {cap} of {})", turnpike_records.len()),
                None => String::new(),
            }
        );
    }

    let record = [
        ("scale", Json::from(scale.name())),
        ("kernel", kernel_name.into()),
        ("runs", runs.into()),
        ("seed", seed.into()),
        ("threads", threads.into()),
        ("wall_off_ms", (wall_off_us / 1000).into()),
        ("wall_on_ms", (wall_on_us / 1000).into()),
        ("overhead_pct", Json::fixed(overhead_pct, 2)),
        ("snapshots_per_pass", snapshots.into()),
    ]
    .into_iter()
    .chain(stop_json.map(|stop| ("stop_ci", stop)))
    .chain([("rungs", Json::Arr(rung_rows))]);
    record_block("telemetry", Json::obj(record));
    Ok(ExitCode::SUCCESS)
}

/// `reproduce explore` — run the cross-layer design-space exploration and
/// emit the Pareto frontier.
///
/// The frontier table goes to stdout (golden-diffable: byte-identical at
/// any `--threads` count and identical between direct execution and a
/// `--workers` fleet); the full frontier artifact goes to `--out`
/// (default `explore_frontier.json`); stage-by-stage progress — grid
/// size, points promoted, campaign rounds, store traffic — goes to stderr;
/// and the run records the `explore` block of `BENCH_reproduce.json`.
/// `--resume` (requires `--store`) re-runs a sweep against its artifact
/// store so every already-evaluated job is a store hit instead of a
/// simulation; the stderr summary reports how many jobs were skipped.
fn explore_main(a: &Args) -> Cli {
    use turnpike_bench::explore::{
        frontier_json, frontier_table, run_explore, ExploreConfig, JobRunner,
    };

    a.requires("--resume", "--store")?;
    a.excludes("--workers", "--store")?;
    let mut cfg = match a.scale() {
        Scale::Smoke => ExploreConfig::smoke(),
        Scale::Full => ExploreConfig::full(),
    };
    cfg.seed = a.int("--seed", 0)?.unwrap_or(cfg.seed);
    let threads = a.threads()?;
    let workers: Vec<String> = a
        .get("--workers", "host:port[,host:port...]", resolve_all)?
        .map_or_else(Vec::new, |addrs| {
            addrs.iter().map(SocketAddr::to_string).collect()
        });
    let out_path = a.text("--out").unwrap_or("explore_frontier.json");
    let runner = if workers.is_empty() {
        // The executor's engine is serial: explore parallelism is
        // batch-level (whole jobs fan out over `--threads`), which keeps
        // every payload — including campaign payloads — independent of
        // the thread count by construction.
        let mut exec = EngineExecutor::new(Engine::serial());
        if let Some(dir) = a.text("--store") {
            exec = exec.with_store(Store::open(dir));
        }
        JobRunner::Direct { exec, threads }
    } else {
        JobRunner::Fleet {
            workers: workers.clone(),
        }
    };
    eprintln!(
        "# explore: {} scale, seed {:#x}, {}",
        cfg.scale.name(),
        cfg.seed,
        if workers.is_empty() {
            format!("{threads} threads")
        } else {
            format!("{} workers", workers.len())
        }
    );
    let t0 = Instant::now();
    let report =
        run_explore(&runner, &cfg, &mut |line| eprintln!("# explore: {line}")).map_err(failed)?;
    let wall_ms = t0.elapsed().as_millis();
    if a.on("--resume") {
        eprintln!(
            "# explore: resume: {} of {} jobs served from the store",
            report.counts.store_hits, report.counts.jobs
        );
    }

    println!("{}", frontier_table(&report));
    let artifact = frontier_json(&cfg, &report);
    std::fs::write(out_path, &artifact).map_err(|e| failed(format!("write {out_path}: {e}")))?;
    eprintln!(
        "# explore: wrote {out_path} ({} bytes, {} promoted points, {} on the frontier) in {wall_ms} ms",
        artifact.len(),
        report.counts.promoted,
        report.counts.frontier
    );

    let c = report.counts;
    let record = Json::obj([
        ("scale", Json::from(cfg.scale.name())),
        ("seed", cfg.seed.into()),
        ("grid_raw", c.raw.into()),
        ("grid_canonical", c.canonical.into()),
        ("promoted", c.promoted.into()),
        ("frontier", c.frontier.into()),
        ("jobs", c.jobs.into()),
        ("store_hits", c.store_hits.into()),
        ("campaign_runs", c.campaign_runs.into()),
        ("threads", threads.into()),
        ("workers", workers.len().into()),
        ("wall_ms", wall_ms.into()),
    ]);
    record_block("explore", record);
    Ok(ExitCode::SUCCESS)
}

/// One generated figure: its table, wall-clock, and the run-cache traffic
/// attributed to it (see [`Engine::figure_scope`]).
struct FigureRun {
    table: Table,
    wall_ms: u128,
    run_hits: usize,
    run_misses: usize,
}

fn generate_one(t: &Target, scale: Scale, engine: &Engine) -> FigureRun {
    let scoped = engine.figure_scope();
    let t0 = Instant::now();
    let table = (t.generate)(&scoped, scale);
    scoped.note_figure();
    let (run_hits, run_misses) = scoped.figure_cache_stats();
    FigureRun {
        table,
        wall_ms: t0.elapsed().as_millis(),
        run_hits,
        run_misses,
    }
}

/// Generate one target, or every target for `all`, with per-figure
/// wall-clock. For `all`, figures run concurrently (each with a slice of
/// the thread budget) while compiles and baseline runs dedup through the
/// shared caches; results are gathered in [`TARGETS`] order so output is
/// deterministic.
fn generate(target: &str, scale: Scale, engine: &Engine) -> Vec<FigureRun> {
    if let Some(t) = target_by_name(target) {
        return vec![generate_one(t, scale, engine)];
    }
    let outer = engine.threads().min(TARGETS.len());
    let inner = (engine.threads() / outer.max(1)).max(1);
    let per_figure = engine.with_threads(inner);
    par_map(&TARGETS, outer, |_, t| generate_one(t, scale, &per_figure))
}

/// The perf block of a figure run in `BENCH_reproduce.json`.
fn bench_json(
    target: &str,
    scale: Scale,
    threads: usize,
    cache: bool,
    wall_ms: u128,
    figures: &[FigureRun],
    registry: &MetricSet,
) -> Json {
    use turnpike_metrics::Counter;
    let count = |c: Counter| Json::from(registry.counter(c));
    let hits_misses = |hits: Json, misses: Json| Json::obj([("hits", hits), ("misses", misses)]);
    let refusals = Refusal::ALL.iter().map(|&r| {
        let name = r.counter().name().rsplit('.').next().unwrap_or_default();
        (name, count(r.counter()))
    });
    let fork = Json::obj([
        ("hits", count(Counter::CampaignForkHits)),
        ("misses", count(Counter::CampaignForkMisses)),
        (
            "prefix_cycles_saved",
            count(Counter::CampaignForkCyclesSaved),
        ),
        ("replay_exits", count(Counter::CampaignReplayExits)),
        (
            "replay_cycles_saved",
            count(Counter::CampaignReplayCyclesSaved),
        ),
        ("replay_refusals", Json::obj(refusals)),
        (
            "replay_budget_exhausted",
            count(Counter::CampaignReplayBudgetExhausted),
        ),
        (
            "replay_never_matched",
            count(Counter::CampaignReplayNeverMatched),
        ),
    ]);
    // `cached` distinguishes a figure served from the run cache from one
    // that simulated: `wall_ms: 0` alone can't (static tables are also
    // instant). Hit/miss counts make partially-cached figures visible.
    let figures = figures.iter().map(|f| {
        Json::obj([
            ("id", Json::from(f.table.id.as_str())),
            ("wall_ms", f.wall_ms.into()),
            ("cached", (f.run_misses == 0 && f.run_hits > 0).into()),
            (
                "run_cache",
                hits_misses(f.run_hits.into(), f.run_misses.into()),
            ),
        ])
    });
    Json::obj([
        ("target", Json::from(target)),
        ("scale", scale.name().into()),
        ("threads", threads.into()),
        ("cache", cache.into()),
        ("wall_ms", wall_ms.into()),
        (
            "compile_cache",
            hits_misses(
                count(Counter::BenchCompileHits),
                count(Counter::BenchCompileMisses),
            ),
        ),
        (
            "run_cache",
            hits_misses(count(Counter::BenchRunHits), count(Counter::BenchRunMisses)),
        ),
        ("fork", fork),
        ("histograms", hist_summary_json(registry)),
        ("figures", Json::arr(figures)),
    ])
}

/// `reproduce <target>` — print one figure or table (`all`: every
/// target), or with `--list` name every target and subcommand.
fn figures_main(a: &Args) -> Cli {
    if a.on("--list") {
        println!("{}subcommands:", target_listing());
        for c in COMMANDS.iter().filter(|c| !c.name.is_empty()) {
            println!("  {:15} {}", c.name, c.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let scale = a.scale();
    let json = a.on("--json");
    let cache = !a.on("--no-cache");
    let threads = a.threads()?;
    let target = a.operand()?;
    if target != "all" && target_by_name(target).is_none() {
        return Err(format!(
            "unknown target '{target}'; known targets:\n{}",
            target_listing()
        )
        .into());
    }
    let mut engine = Engine::new(threads);
    if !cache {
        engine = engine.without_cache();
    }
    // Run header on stderr (stdout is golden-diffed): the effective thread
    // count matters because --threads defaults to the machine's available
    // parallelism, so two hosts run the same command differently. Output is
    // byte-identical at any thread count; `--threads 1` additionally makes
    // the execution schedule itself deterministic.
    eprintln!(
        "# reproduce {target}: {threads} threads, {} scale, cache {}",
        scale.name(),
        if cache { "on" } else { "off" },
    );
    let t0 = Instant::now();
    let tables = generate(target, scale, &engine);
    let wall_ms = t0.elapsed().as_millis();
    for f in &tables {
        if json {
            println!("{}", f.table.to_json());
        } else {
            println!("{}", f.table);
        }
    }
    for f in &tables {
        eprintln!("# {}: {} ms", f.table.id, f.wall_ms);
    }
    eprintln!(
        "# total: {wall_ms} ms ({} threads, cache {}, {} compiles, {} sims)",
        threads,
        if cache { "on" } else { "off" },
        engine.compile_count(),
        engine.sim_count()
    );
    // The figure grid is fault-free, so the detection-latency and
    // recovery-penalty histograms need a small seeded strike campaign.
    let mut registry = engine.metrics();
    match fault_probe_metrics(threads) {
        Ok((probe, fork)) => {
            for key in [Hist::DetectLatency, Hist::RecoveryPenalty] {
                if let Some(h) = probe.hist(key) {
                    registry.merge_hist(key, h);
                }
            }
            // Fork accounting feeds the bench registry only — campaign
            // reports stay bit-identical with or without snapshots.
            registry.merge(&fork.to_metrics());
        }
        Err(e) => eprintln!("# warning: fault probe failed: {e}"),
    }
    record_block(
        target,
        bench_json(target, scale, threads, cache, wall_ms, &tables, &registry),
    );
    // The adaptive rung additionally records its per-kernel comparison
    // against the best uniform scheme (under the "adaptive" key, replacing
    // the generic perf block when the target itself was `adaptive`).
    if let Some(f) = tables.iter().find(|f| f.table.id == "adaptive") {
        record_block("adaptive", adaptive_block_json(&f.table, scale, f.wall_ms));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `adaptive` block of `BENCH_reproduce.json`: per-kernel normalized
/// time of the adaptive rung against the best uniform scheme, plus the
/// figure's wall-clock (columns are pinned by the `adaptive` generator).
fn adaptive_block_json(table: &Table, scale: Scale, wall_ms: u128) -> Json {
    let kernels = table
        .rows
        .iter()
        .filter(|(label, _)| !label.starts_with("geomean"))
        .map(|(label, v)| {
            Json::obj([
                ("kernel", Json::from(label.as_str())),
                ("adaptive", Json::fixed(v[0], 4)),
                ("best_uniform", Json::fixed(v[1], 4)),
                ("ratio", Json::fixed(v[2], 4)),
                ("win", (v[3] > 0.0).into()),
            ])
        });
    let g = table.row("geomean.all").unwrap_or(&[0.0; 4]);
    Json::obj([
        ("scale", Json::from(scale.name())),
        ("wall_ms", wall_ms.into()),
        ("geomean_ratio_vs_best_uniform", Json::fixed(g[2], 4)),
        ("win_rate", Json::fixed(g[3], 4)),
        ("kernels", Json::arr(kernels)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{}targets:\n{}", usage(COMMANDS), target_listing());
        return ExitCode::from(2);
    }
    let (cmd, rest) = match COMMANDS.iter().find(|c| c.name == argv[0]) {
        Some(c) => (c, &argv[1..]),
        None => (&COMMANDS[0], &argv[..]),
    };
    let stop = match Args::parse(cmd, rest)
        .map_err(Stop::Usage)
        .and_then(|args| (cmd.run)(&args))
    {
        Ok(code) => return code,
        Err(stop) => stop,
    };
    let who = format!("reproduce {}", cmd.name);
    match stop {
        Stop::Usage(msg) => {
            let usage = usage(std::slice::from_ref(cmd));
            eprint!("{}: {msg}\n{usage}", who.trim_end());
            ExitCode::from(2)
        }
        Stop::Failed(msg) => {
            eprintln!("{}: {msg}", who.trim_end());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_budgets_parse_with_binary_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("3k"), Some(3 << 10));
        assert_eq!(parse_bytes("256M"), Some(256 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("5t"), None);
        assert_eq!(parse_bytes(""), None);
    }

    #[test]
    fn byte_budgets_that_overflow_are_rejected() {
        assert_eq!(parse_bytes("20000000000g"), None);
        assert_eq!(parse_bytes("17179869184g"), None);
        assert_eq!(parse_bytes("17179869183g"), Some(17179869183 << 30));
    }

    #[test]
    fn each_flag_name_has_one_definition_and_appears_once_per_command() {
        let mut seen: Vec<&Flag> = Vec::new();
        for c in COMMANDS {
            let mut own: Vec<&str> = Vec::new();
            for f in c.flags() {
                assert!(
                    !own.contains(&f.name),
                    "`{}` lists {} twice",
                    c.name,
                    f.name
                );
                own.push(f.name);
                match seen.iter().find(|s| s.name == f.name) {
                    Some(s) => assert!(
                        s.value == f.value && s.help == f.help,
                        "{} has two definitions",
                        f.name
                    ),
                    None => seen.push(f),
                }
            }
        }
    }
}
