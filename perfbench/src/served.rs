//! `served_mix`: an open-loop, seeded Poisson schedule against an
//! in-process `Server` with one worker, an `EngineExecutor` and a fresh
//! artifact `Store`.
//!
//! Jobs are explorer-style `run` jobs (a canonical design point of the
//! explorer's grid on one of the explorer's overhead kernels) and
//! coordinator-style `campaign` shards (`run_offset` advancing through one
//! campaign per kernel and rung); every fourth job repeats an earlier one,
//! so store reads sit beside store writes. One generator thread sends every
//! job on its schedule over two pipelined connections and matches answers
//! by `tag`; latency runs from the *scheduled* send, so a stall delays
//! every later job's clock. The executor is wrapped to timestamp
//! `Executor::execute`, which splits each job's latency into generator
//! lateness, wait (parse, admission, queue), execute, and the return path
//! (render, relay, write, read).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use turnpike_bench::explore::ExploreConfig;
use turnpike_bench::{Engine, EngineExecutor};
use turnpike_explore::{clq_name, enumerate};
use turnpike_metrics::{Counter, Hist, MetricSet};
use turnpike_resilience::{Scheme, EXPLORE_AXES, STOP_CHUNK};
use turnpike_serve::poll::{poll, PollFd};
use turnpike_serve::{
    ExecOutput, Executor, JobCtl, JobKind, JobRequest, Json, LineReader, Server, ServerConfig,
    Store, StoreStatus,
};

use crate::campaign::KERNELS;
use crate::stats::{median, percentile, ratio, sum};
use crate::trace::Tracer;
use crate::{splitmix, Ctx, Outcome, SETUP_REPS};

/// Offered load, jobs per second (one worker; see README for the
/// utilization it produces).
pub const RATE_PER_S: f64 = 50.0;
/// Scale of every generated job.
const SCALE: &str = "full";
/// Every `REPEAT_EVERY`-th job repeats an earlier one.
const REPEAT_EVERY: usize = 4;
/// Share of fresh jobs that are campaign shards, in eighths.
const SHARD_EIGHTHS: u64 = 2;
/// Connections the generator spreads jobs over (round-robin).
const CONNS: usize = 2;
/// Jobs sent before the measured window to fill caches.
const WARMUP_JOBS: usize = 24;
/// A repeat copies a fresh job at least this many jobs back, so the
/// original has been answered (and stored) by then.
const REPEAT_DISTANCE: usize = 16;
/// The generator stops sleeping this long before a scheduled send and
/// polls without blocking instead, so sends leave on time.
const SPIN: Duration = Duration::from_millis(1);
/// How long to wait for answers after the last scheduled send.
const DRAIN_S: f64 = 30.0;
/// Served payloads re-executed directly and compared byte for byte.
const CHECK_SAMPLE: usize = 8;
/// Latency charged to a failed, refused or lost job (it misses any limit).
const FAILED_LATENCY_MS: f64 = DRAIN_S * 1e3;

/// One job's execute timestamps.
#[derive(Clone, Copy)]
pub struct ExecTiming {
    pub start: Instant,
    pub end: Instant,
    hit: bool,
    compile_us: u64,
    sim_us: u64,
}

/// `EngineExecutor` with `execute` timestamped from outside; traced jobs
/// (tag ending in `t`) also read the engine's compile/simulate timers.
pub struct TimedExecutor {
    inner: EngineExecutor,
    /// `(tag, timing)` of every executed job, in execution order.
    pub log: Mutex<Vec<(String, ExecTiming)>>,
}

impl TimedExecutor {
    /// Wrap `inner`.
    pub fn new(inner: EngineExecutor) -> TimedExecutor {
        TimedExecutor {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }
}

fn engine_us(m: &MetricSet) -> (u64, u64) {
    let us = |h| {
        m.hist(h)
            .map_or(0, |x: &turnpike_metrics::Histogram| x.sum())
    };
    (us(Hist::CompileMicros), us(Hist::SimMicros))
}

impl Executor for TimedExecutor {
    fn execute(&self, req: &JobRequest, ctl: &JobCtl) -> Result<ExecOutput, String> {
        let traced = req.tag.ends_with('t');
        let before = traced.then(|| engine_us(&self.inner.engine().metrics()));
        let start = Instant::now();
        let res = self.inner.execute(req, ctl);
        let end = Instant::now();
        let (compile_us, sim_us) = match before {
            Some((c0, s0)) => {
                let (c1, s1) = engine_us(&self.inner.engine().metrics());
                (c1 - c0, s1 - s0)
            }
            None => (0, 0),
        };
        let hit = matches!(&res, Ok(o) if o.store == StoreStatus::Hit);
        self.log.lock().expect("timing log").push((
            req.tag.clone(),
            ExecTiming {
                start,
                end,
                hit,
                compile_us,
                sim_us,
            },
        ));
        res
    }
}

/// The generated inputs of one run.
struct Plan {
    jobs: Vec<JobRequest>,
    /// Offsets of each job's scheduled send from the run's start.
    schedule: Vec<Duration>,
    /// For repeats, the index of the job repeated.
    repeat_of: Vec<Option<usize>>,
}

fn unit(rng: &mut u64) -> f64 {
    (splitmix(rng) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deals items in seeded random order, reshuffling after each full pass,
/// so every stretch of jobs sees each item about equally often whatever
/// the seed.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        let next = items.len();
        Deck { items, next }
    }

    fn deal(&mut self, rng: &mut u64) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = (splitmix(rng) % (i as u64 + 1)) as usize;
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// Build the job list and Poisson schedule from the seed. The mix is
/// stratified: every eight fresh jobs hold exactly `SHARD_EIGHTHS` campaign
/// shards, shards cycle through every (kernel, rung) pair and run jobs
/// through the explorer's kernels, so seeds differ in order and design
/// points, not in how much work they offer.
fn plan(seed: u64, jobs: usize) -> Plan {
    let mut rng = seed;
    let kernels = ExploreConfig::full().kernels;
    let points = enumerate(&EXPLORE_AXES).points;
    let mut run_kernels = Deck::new((0..kernels.len()).collect());
    let mut shard_cells = Deck::new(
        (0..KERNELS.len())
            .flat_map(|k| (0..Scheme::LADDER.len()).map(move |s| (k, s)))
            .collect(),
    );
    let mut kinds = Deck::new((0..8).map(|i| i < SHARD_EIGHTHS).collect());
    let mut seen = HashSet::new();
    let mut shard_next: HashMap<(usize, usize), u64> = HashMap::new();
    // The wire's integers are exact up to 2^53; keep the seed well inside.
    let campaign_seed = splitmix(&mut rng) >> 32;
    let mut out = Plan {
        jobs: Vec::with_capacity(jobs),
        schedule: Vec::with_capacity(jobs),
        repeat_of: Vec::with_capacity(jobs),
    };
    let mut t = 0.0f64;
    for i in 0..jobs {
        t += -(1.0 - unit(&mut rng)).max(f64::MIN_POSITIVE).ln() / RATE_PER_S;
        out.schedule.push(Duration::from_secs_f64(t));
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 && i >= REPEAT_DISTANCE {
            let fresh: Vec<usize> = (0..=i - REPEAT_DISTANCE)
                .filter(|&j| out.repeat_of[j].is_none())
                .collect();
            let j = fresh[(splitmix(&mut rng) % fresh.len() as u64) as usize];
            out.jobs.push(out.jobs[j].clone());
            out.repeat_of.push(Some(j));
            continue;
        }
        let req = if kinds.deal(&mut rng) {
            let (k, s) = shard_cells.deal(&mut rng);
            let shard = shard_next.entry((k, s)).or_insert(0);
            let mut req = JobRequest::new(JobKind::Campaign);
            req.kernel = KERNELS[k].to_string();
            req.scheme = Scheme::LADDER[s].cli_name().to_string();
            req.runs = STOP_CHUNK as u64;
            req.run_offset = *shard * STOP_CHUNK as u64;
            req.seed = campaign_seed;
            *shard += 1;
            req
        } else {
            let kernel = &kernels[run_kernels.deal(&mut rng)];
            loop {
                let p = points[(splitmix(&mut rng) % points.len() as u64) as usize];
                let mut req = JobRequest::new(JobKind::Run);
                req.kernel = kernel.to_string();
                req.scale = SCALE.to_string();
                req.scheme = p.scheme.cli_name().to_string();
                req.sb = p.sb_size;
                req.wcdl = p.wcdl;
                req.clq = p.clq.map(clq_name).unwrap_or_default();
                req.colors = p.colors.map_or(0, u64::from);
                req.geom = p.geom.name.to_string();
                if seen.insert(req.to_line()) {
                    break req;
                }
            }
        };
        out.jobs.push(req);
        out.repeat_of.push(None);
    }
    out
}

/// A running server with its connections.
struct Rig {
    server: Server,
    exec: Arc<TimedExecutor>,
    conns: Vec<TcpStream>,
}

fn start_rig(store_dir: &Path) -> Result<Rig, String> {
    let exec = Arc::new(TimedExecutor::new(
        EngineExecutor::new(Engine::new(1)).with_store(Store::open(store_dir)),
    ));
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Arc::clone(&exec) as Arc<dyn Executor>)
        .map_err(|e| format!("server start: {e}"))?;
    let conns = (0..CONNS)
        .map(|_| {
            let c = TcpStream::connect(server.addr())?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    // Readiness and warm-up: one small campaign job round trip per
    // connection (its store key differs from every generated job's).
    for (ci, mut conn) in conns.iter().enumerate() {
        let mut req = JobRequest::new(JobKind::Campaign);
        req.tag = format!("setup{ci}");
        conn.write_all((req.to_line() + "\n").as_bytes())
            .map_err(|e| format!("warm-up send: {e}"))?;
        let mut reader = LineReader::new();
        let mut buf = [0u8; 4096];
        'answer: loop {
            let got = conn
                .read(&mut buf)
                .map_err(|e| format!("warm-up read: {e}"))?;
            if got == 0 {
                return Err("server closed the warm-up connection".to_string());
            }
            reader.push(&buf[..got]);
            while let Some(line) = reader.next_line() {
                if line.starts_with("{\"event\":\"done\"") {
                    break 'answer;
                }
                if line.starts_with("{\"event\":\"error\"") {
                    return Err(format!("warm-up job failed: {line}"));
                }
            }
        }
    }
    Ok(Rig {
        server,
        exec,
        conns,
    })
}

/// What the generator saw for one job.
#[derive(Clone, Default)]
struct Seen {
    sent: Option<Instant>,
    done: Option<Instant>,
    answers: u32,
    ok: bool,
    payload: Option<String>,
    error: Option<String>,
}

/// The verbatim `result` of a `done` line (the envelope's markers contain
/// quotes no JSON string our encoder emits can contain unescaped).
fn result_of(line: &str) -> Option<&str> {
    let at = line.find(",\"store\":\"")?;
    let marker = ",\"result\":";
    let start = line[at..].find(marker)? + at + marker.len();
    line.get(start..line.len() - 1)
}

/// Send every job on its schedule and collect the answers, on this one
/// thread. Returns the run's start instant.
fn generate(
    rig: &mut Rig,
    plan: &Plan,
    traced: &[bool],
    seen: &mut [Seen],
) -> Result<Instant, String> {
    let n = plan.jobs.len();
    let tag_of = |i: usize| format!("j{i}{}", if traced[i] { "t" } else { "" });
    let lines: Vec<String> = (0..n)
        .map(|i| {
            let mut req = plan.jobs[i].clone();
            req.tag = tag_of(i);
            req.to_line() + "\n"
        })
        .collect();
    let mut readers: Vec<LineReader> = (0..CONNS).map(|_| LineReader::new()).collect();
    // Jobs in flight per connection, in send order: a connection answers
    // its requests in order, so an answer the server could not tag (a
    // request it failed to parse) belongs to the oldest one.
    let mut in_flight: Vec<VecDeque<usize>> = vec![VecDeque::new(); CONNS];
    let mut buf = vec![0u8; 1 << 16];
    let t0 = Instant::now() + Duration::from_millis(10);
    let mut next = 0usize;
    let mut answered = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    while answered < n {
        let now = Instant::now();
        while next < n && t0 + plan.schedule[next] <= now {
            seen[next].sent = Some(Instant::now());
            rig.conns[next % CONNS]
                .write_all(lines[next].as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            in_flight[next % CONNS].push_back(next);
            next += 1;
        }
        let timeout = if next < n {
            // poll(2) sleeps in whole milliseconds, rounded up: sleep to
            // within SPIN of the next send, then poll without blocking.
            (t0 + plan.schedule[next])
                .saturating_duration_since(Instant::now())
                .saturating_sub(SPIN)
        } else {
            let deadline =
                *drain_deadline.get_or_insert_with(|| now + Duration::from_secs_f64(DRAIN_S));
            if now >= deadline {
                break;
            }
            (deadline - now).min(Duration::from_millis(100))
        };
        let mut fds: Vec<PollFd> = rig
            .conns
            .iter()
            .map(|c| PollFd::new(c, true, false))
            .collect();
        poll(&mut fds, Some(timeout)).map_err(|e| format!("poll: {e}"))?;
        for (ci, fd) in fds.iter().enumerate() {
            let r = fd.readiness();
            if !(r.readable || r.hangup || r.error) {
                continue;
            }
            let got = rig.conns[ci]
                .read(&mut buf)
                .map_err(|e| format!("read: {e}"))?;
            if got == 0 {
                return Err("server closed a connection".to_string());
            }
            let at = Instant::now();
            readers[ci].push(&buf[..got]);
            while let Some(line) = readers[ci].next_line() {
                let v = Json::parse(&line).map_err(|e| format!("bad event '{line}': {e}"))?;
                let event = v.get("event").and_then(Json::as_str).unwrap_or("");
                if event == "accepted" || event == "progress" {
                    continue;
                }
                let tagged = v
                    .get("tag")
                    .and_then(Json::as_str)
                    .and_then(|t| {
                        t.trim_start_matches('j')
                            .trim_end_matches('t')
                            .parse::<usize>()
                            .ok()
                    })
                    .filter(|&i| i < n);
                let Some(i) = tagged.or_else(|| in_flight[ci].front().copied()) else {
                    return Err(format!("answer to no request in flight: {line}"));
                };
                in_flight[ci].retain(|&j| j != i);
                let s = &mut seen[i];
                s.answers += 1;
                if s.answers == 1 {
                    answered += 1;
                    s.done = Some(at);
                    if event == "done" {
                        s.ok = true;
                        s.payload = result_of(&line).map(str::to_string);
                    } else {
                        s.error = Some(line.clone());
                    }
                }
            }
        }
    }
    Ok(t0)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: "generator 1 + server loop 1 + server worker 1".to_string(),
        ..Outcome::default()
    };
    let measured = (RATE_PER_S * ctx.seconds).round() as usize;
    let total = WARMUP_JOBS + measured;
    // Set-up: generate the inputs, start a fresh server on a fresh store,
    // connect, and warm each connection with one job. Earlier set-up
    // repetitions are shut down again. The stores stay on disk (see
    // `Ctx::scratch`).
    let mut setup: Option<(Rig, Plan)> = None;
    for i in 0..SETUP_REPS {
        if let Some((rig, _)) = setup.take() {
            drop(rig.conns);
            rig.server.shutdown();
        }
        let t0 = Instant::now();
        let p = plan(ctx.derive(2), total);
        let rig = start_rig(&ctx.scratch.join(format!("store-{i}")))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some((rig, p));
    }
    let (mut rig, plan) = setup.expect("at least one set-up repetition");
    out.params = vec![
        ("rate_per_s", RATE_PER_S.to_string()),
        ("arrival", "poisson".to_string()),
        ("jobs", measured.to_string()),
        ("warmup_jobs", WARMUP_JOBS.to_string()),
        ("connections", CONNS.to_string()),
        ("server_workers", "1".to_string()),
        ("repeat_every", REPEAT_EVERY.to_string()),
        ("scale", SCALE.to_string()),
    ];

    // Traced runs trace every other measured job (the rest is the
    // untraced baseline the tracing overhead is measured against).
    let traced: Vec<bool> = (0..total)
        .map(|i| ctx.traced && i >= WARMUP_JOBS && i % 2 == 1)
        .collect();
    let mut seen = vec![Seen::default(); total];
    let gen = generate(&mut rig, &plan, &traced, &mut seen);
    drop(rig.conns);
    let server_metrics = rig.server.metrics();
    rig.server.shutdown();
    let t0 = gen?;
    let timings: HashMap<String, ExecTiming> = rig
        .exec
        .log
        .lock()
        .expect("timing log")
        .iter()
        .cloned()
        .collect();

    // Checks: every job answered exactly once and successfully; repeats
    // return the original's bytes; a sample matches direct execution.
    out.attempted = measured as u64;
    let mut failed_job = vec![false; total];
    for (i, s) in seen.iter().enumerate() {
        let problem = if s.answers == 0 {
            Some("lost (never answered)".to_string())
        } else if s.answers > 1 {
            Some(format!("answered {} times", s.answers))
        } else if !s.ok || s.payload.is_none() {
            Some(format!(
                "failed: {}",
                s.error.as_deref().unwrap_or("no payload")
            ))
        } else if let Some(j) = plan.repeat_of[i] {
            (seen[j].payload.is_some() && s.payload != seen[j].payload)
                .then(|| format!("repeat of job {j} returned different bytes"))
        } else {
            None
        };
        if let Some(p) = problem {
            failed_job[i] = true;
            if i >= WARMUP_JOBS {
                out.fail(format!("job {i}: {p}"));
            }
        }
    }
    let direct = EngineExecutor::new(Engine::new(1));
    let mut rng = ctx.derive(4);
    let fresh: Vec<usize> = (WARMUP_JOBS..total)
        .filter(|&i| plan.repeat_of[i].is_none() && !failed_job[i])
        .collect();
    for _ in 0..CHECK_SAMPLE.min(fresh.len()) {
        let i = fresh[(splitmix(&mut rng) % fresh.len() as u64) as usize];
        match direct.execute_direct(&plan.jobs[i]) {
            Ok(o) if Some(&o.result) == seen[i].payload.as_ref() => {}
            Ok(_) => out.fail(format!(
                "job {i}: served payload differs from direct execution"
            )),
            Err(e) => out.fail(format!("job {i}: direct execution failed: {e}")),
        }
    }

    // Per-job ledger over the measured window.
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut latency = Vec::with_capacity(measured);
    let (mut lateness, mut wait, mut execute, mut ret) = (vec![], vec![], vec![], vec![]);
    let (mut exec_hit, mut exec_miss) = (vec![], vec![]);
    let (mut lat_plain, mut lat_traced) = (vec![], vec![]);
    let mut tracer = Tracer::new(t0);
    let mut last_done = t0;
    for i in WARMUP_JOBS..total {
        let s = &seen[i];
        let sched = t0 + plan.schedule[i];
        let timing = timings.get(&format!("j{i}{}", if traced[i] { "t" } else { "" }));
        let (Some(sent), Some(done), Some(x), false) = (s.sent, s.done, timing, failed_job[i])
        else {
            latency.push(FAILED_LATENCY_MS);
            continue;
        };
        last_done = last_done.max(done);
        let l = ms(done.saturating_duration_since(sched));
        latency.push(l);
        if traced[i] {
            &mut lat_traced
        } else {
            &mut lat_plain
        }
        .push(l);
        lateness.push(ms(sent.saturating_duration_since(sched)));
        wait.push(ms(x.start.saturating_duration_since(sent)));
        execute.push(ms(x.end - x.start));
        ret.push(ms(done.saturating_duration_since(x.end)));
        if x.hit { &mut exec_hit } else { &mut exec_miss }.push(ms(x.end - x.start));
        if traced[i] {
            let op = i as u64;
            let job = &plan.jobs[i];
            let name = format!("{}:{}:{}", job.kind.name(), job.kernel, job.scheme);
            let root = tracer.span(name, "serve", sched, done, None, op);
            tracer.span("lateness", "loadgen", sched, sent, Some(root), op);
            tracer.span("wait", "serve.wait", sent, x.start, Some(root), op);
            let e = tracer.span("execute", "serve.execute", x.start, x.end, Some(root), op);
            let at = tracer.ns(x.start);
            let (c, s) = (x.compile_us * 1000, x.sim_us * 1000);
            tracer.span_ns("compile", "compiler", at, at + c, Some(e), op);
            tracer.span_ns("simulate", "sim.golden", at + c, at + c + s, Some(e), op);
            tracer.span("return", "serve.return", x.end, done, Some(root), op);
        }
    }
    let window_s = last_done
        .saturating_duration_since(t0 + plan.schedule[WARMUP_JOBS])
        .as_secs_f64();
    let completed = latency.iter().filter(|&&l| l < FAILED_LATENCY_MS).count();
    out.e2e
        .insert("throughput_per_s", ratio(completed as f64, window_s));
    out.e2e.insert("latency_p50_ms", percentile(&latency, 0.5));
    out.e2e.insert("latency_p99_ms", percentile(&latency, 0.99));
    out.latency_samples = latency.len();
    for block in latency.chunks(latency.len().div_ceil(4).max(1)) {
        out.sample("block_latency_ms_p50", percentile(block, 0.5));
        out.sample("block_latency_ms_p99", percentile(block, 0.99));
    }
    out.reps = (1, usize::from(ctx.traced));

    let hits = exec_hit.len() as f64;
    out.layer("serve.queue_wait_ms_p50", percentile(&wait, 0.5));
    out.layer("serve.queue_wait_ms_p99", percentile(&wait, 0.99));
    out.layer("serve.execute_ms_p50", percentile(&execute, 0.5));
    out.layer("serve.execute_ms_p99", percentile(&execute, 0.99));
    out.layer("serve.execute_hit_ms_p50", median(&exec_hit));
    out.layer("serve.execute_miss_ms_p50", median(&exec_miss));
    out.layer("serve.overhead_ms_p50", percentile(&ret, 0.5));
    out.layer("serve.store.hit_ratio", ratio(hits, execute.len() as f64));
    out.layer("serve.busy_ratio", ratio(sum(&execute) * 1e-3, window_s));
    out.layer(
        "serve.rejected",
        server_metrics.counter(Counter::ServeRejected) as f64,
    );
    out.layer("loadgen.lateness_ms_p99", percentile(&lateness, 0.99));
    let m = rig.exec.inner.engine().metrics();
    for (key, c) in [
        ("bench.engine.compile_hits", Counter::BenchCompileHits),
        ("bench.engine.compile_misses", Counter::BenchCompileMisses),
        ("bench.engine.run_hits", Counter::BenchRunHits),
        ("bench.engine.run_misses", Counter::BenchRunMisses),
    ] {
        out.layer(key, m.counter(c) as f64);
    }
    // Simulated statistics of the payloads: cycles and instructions of run
    // jobs, detections of campaign shards (all exact and seed-determined).
    let (mut cycles, mut insts, mut detections) = (0u64, 0u64, 0u64);
    for s in &seen[WARMUP_JOBS..] {
        let Some(v) = s.payload.as_deref().and_then(|p| Json::parse(p).ok()) else {
            continue;
        };
        let field = |path: &[&str]| {
            path.iter()
                .try_fold(&v, |v, k| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        cycles += field(&["stats", "cycles"]);
        insts += field(&["stats", "insts"]);
        detections += field(&["detections"]);
    }
    out.layer("sim.cycles", cycles as f64);
    out.layer("sim.insts", insts as f64);
    out.layer("campaign.detections", detections as f64);
    for (calls, busy, h) in [
        ("compiler.calls", "compiler.busy_s", Hist::CompileMicros),
        ("sim.golden.calls", "sim.golden.busy_s", Hist::SimMicros),
    ] {
        let (n, us) = m.hist(h).map_or((0, 0), |x| (x.count(), x.sum()));
        out.layer(calls, n as f64);
        out.layer(busy, us as f64 * 1e-6);
    }
    if ctx.traced {
        let plain = sum(&lat_plain) / lat_plain.len().max(1) as f64;
        let traced_mean = sum(&lat_traced) / lat_traced.len().max(1) as f64;
        out.layer("trace.overhead_share", ratio(traced_mean - plain, plain));
        out.tracer = Some(tracer);
    }
    Ok(out)
}
