//! Distributed campaign coordinator: shard a fault-injection campaign by
//! run-index range across a fleet of `reproduce serve` workers and merge
//! the shard reports into a payload **byte-identical** to a single-process
//! run.
//!
//! Correctness rests on three properties the rest of the workspace already
//! pins down:
//!
//! 1. every run's outcome is a pure function of `(campaign seed, global
//!    run index)` — `run_seed` derives the per-run RNG from the global
//!    index, so a shard executing runs `[offset, offset+n)` produces
//!    exactly the runs the whole campaign would;
//! 2. campaign counters are sums over runs, so shard totals absorb into
//!    whole-campaign totals regardless of which worker ran which shard
//!    (the `shard_merge` property test exercises 1..=8-way partitions
//!    across the Fig-21 ladder);
//! 3. the payload is re-rendered from the merged totals through the same
//!    [`campaign_payload`] the serve executor uses, so the merged report
//!    is the same *bytes*, not merely the same numbers.
//!
//! Fault tolerance lives in [`dispatch`], the one fleet dispatcher the
//! coordinator and the design-space explorer share: jobs live in a shared
//! queue, each worker thread pulls the next job, and a worker that dies
//! mid-job (connection drop, rejection budget exhausted, draining server)
//! puts the job back for the survivors. Results land by job index, so which
//! worker ran what never shows in the output.

use std::collections::VecDeque;
use std::fmt::Display;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use turnpike_serve::{Backoff, Client, JobKind, JobRequest, Json, Outcome};

use crate::service::{campaign_payload, CampaignTotals};

/// Default for how many `overloaded` rejections in a row a job attempt
/// absorbs before the worker gives the job back and leaves the fleet.
pub const MAX_RETRIES: usize = 100;

/// Coordinator tuning knobs (the campaign itself rides in `request`).
#[derive(Debug, Clone)]
pub struct CoordinateConfig {
    /// Whole-campaign request; must be `kind: campaign` with
    /// `run_offset == 0`. The coordinator derives shard requests from it.
    pub request: JobRequest,
    /// Shard count; `0` means one shard per worker. Clamped to `runs` so
    /// no shard is empty.
    pub shards: usize,
    /// Give up on a shard attempt after this many `overloaded` rejections
    /// in a row (the shard is then re-queued for another worker).
    pub max_retries: usize,
}

impl Default for CoordinateConfig {
    fn default() -> CoordinateConfig {
        CoordinateConfig {
            request: JobRequest::new(JobKind::Campaign),
            shards: 0,
            max_retries: MAX_RETRIES,
        }
    }
}

/// Per-worker share of a finished dispatch, for the report.
#[derive(Debug, Clone)]
pub struct WorkerShare {
    /// Worker address as given.
    pub addr: String,
    /// Jobs (for the coordinator: shards) this worker completed.
    pub shards_done: u64,
    /// The `runs` of those jobs: injected runs, for campaign shards.
    pub runs_done: u64,
    /// Whether the worker was still healthy when the dispatch finished.
    pub alive: bool,
}

/// What a [`coordinate`] call produced.
#[derive(Debug, Clone)]
pub struct CoordinateReport {
    /// Merged campaign payload — its compact rendering is byte-identical
    /// to a single-process run of the same request.
    pub payload: Json,
    /// The merged counters behind `payload`.
    pub totals: CampaignTotals,
    /// Shards the campaign was split into.
    pub shards: usize,
    /// Shard attempts that were re-queued after a worker failure.
    pub reassigned: u64,
    /// Per-worker completion shares, in the order workers were given.
    pub workers: Vec<WorkerShare>,
    /// Wall-clock of the whole coordination, in microseconds.
    pub wall_us: u64,
}

impl CoordinateReport {
    /// The report as one JSON object with fixed key order, the merged
    /// campaign payload last.
    pub fn to_json(&self) -> Json {
        let workers = self.workers.iter().map(|w| {
            Json::obj([
                ("addr", w.addr.as_str().into()),
                ("shards_done", w.shards_done.into()),
                ("runs_done", w.runs_done.into()),
                ("alive", w.alive.into()),
            ])
        });
        Json::obj([
            ("shards", self.shards.into()),
            ("reassigned", self.reassigned.into()),
            ("wall_us", self.wall_us.into()),
            ("workers", Json::arr(workers)),
            ("campaign", self.payload.clone()),
        ])
    }
}

/// Split `runs` into `shards` contiguous `(offset, runs)` ranges covering
/// `[0, runs)`. Earlier shards take the remainder so sizes differ by at
/// most one.
fn partition(runs: u64, shards: usize) -> Vec<(u64, u64)> {
    let shards = shards.max(1) as u64;
    let base = runs / shards;
    let rem = runs % shards;
    let mut out = Vec::with_capacity(shards as usize);
    let mut offset = 0u64;
    for i in 0..shards {
        let n = base + u64::from(i < rem);
        if n == 0 {
            break;
        }
        out.push((offset, n));
        offset += n;
    }
    out
}

/// What a [`dispatch`] call produced.
#[derive(Debug, Clone)]
pub struct Dispatched {
    /// `(payload, store_hit)` per request, in request order.
    pub results: Vec<(String, bool)>,
    /// Job attempts re-queued after a worker failure.
    pub reassigned: u64,
    /// Per-worker shares, in the order workers were given.
    pub workers: Vec<WorkerShare>,
}

/// Why a queue lock can fail: a worker thread panicked while holding it.
const POISONED: &str = "a fleet worker thread panicked holding the queue lock";

/// The work-stealing queue one [`dispatch`] call shares across its worker
/// threads.
struct Queue<'a> {
    reqs: &'a [JobRequest],
    /// Indices nobody has finished yet; workers pull from the front and
    /// push failed attempts to the back.
    pending: Mutex<VecDeque<usize>>,
    /// Finished jobs' `(payload, store_hit)`, by request index.
    results: Mutex<Vec<Option<(String, bool)>>>,
    done: AtomicUsize,
    /// Runs inside finished jobs (progress numerator base).
    completed_runs: AtomicU64,
    /// Per-worker progress inside the job currently in flight.
    in_flight: Vec<AtomicU64>,
    /// Jobs re-queued after a worker failure.
    reassigned: AtomicU64,
    /// A deterministic job failure (bad kernel, executor error). Fatal:
    /// re-dispatching it would fail identically on every worker.
    fatal: Mutex<Option<String>>,
    total_runs: u64,
}

impl Queue<'_> {
    fn finished(&self) -> bool {
        self.done.load(Ordering::SeqCst) == self.reqs.len()
            || self.fatal.lock().expect(POISONED).is_some()
    }

    fn progress_done(&self) -> u64 {
        self.completed_runs.load(Ordering::Relaxed)
            + self
                .in_flight
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .sum::<u64>()
    }
}

/// Run one worker thread: pull jobs, submit them to `addr`, retry
/// rejections with jittered backoff, and re-queue the job on any
/// worker-side failure. Returns `(jobs_done, runs_done, alive)`.
fn worker_loop(
    addr: impl ToSocketAddrs,
    index: usize,
    q: &Queue,
    max_retries: usize,
    on_progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> (u64, u64, bool) {
    let mut jobs_done = 0u64;
    let mut runs_done = 0u64;
    let mut client: Option<Client> = None;
    let mut backoff = Backoff::new(1, 1_000, index as u64);
    loop {
        if q.finished() {
            return (jobs_done, runs_done, true);
        }
        let Some(i) = q.pending.lock().expect(POISONED).pop_front() else {
            // Nothing pending but jobs are still in flight elsewhere; if
            // one of those workers dies, its job lands back in the queue
            // for us. Poll instead of exiting.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let req = &q.reqs[i];
        let leave = || {
            q.pending.lock().expect(POISONED).push_back(i);
            q.reassigned.fetch_add(1, Ordering::Relaxed);
            q.in_flight[index].store(0, Ordering::Relaxed);
            (jobs_done, runs_done, false)
        };

        let mut retries = 0usize;
        loop {
            // (Re)connect lazily: a worker that was killed and restarted
            // rejoins the fleet on the next job attempt.
            let c = match &mut client {
                Some(c) => c,
                None => match Client::connect(&addr) {
                    Ok(c) => client.insert(c),
                    Err(_) => return leave(),
                },
            };
            let outcome = c.submit_with(req, |done, _total| {
                q.in_flight[index].store(done, Ordering::Relaxed);
                if let Some(f) = on_progress {
                    f(q.progress_done(), q.total_runs);
                }
            });
            match outcome {
                Ok(Outcome::Done { result, store, .. }) => {
                    q.in_flight[index].store(0, Ordering::Relaxed);
                    q.completed_runs.fetch_add(req.runs, Ordering::Relaxed);
                    q.results.lock().expect(POISONED)[i] = Some((result, store == "hit"));
                    q.done.fetch_add(1, Ordering::SeqCst);
                    if let Some(f) = on_progress {
                        f(q.progress_done(), q.total_runs);
                    }
                    jobs_done += 1;
                    runs_done += req.runs;
                    backoff.reset();
                    break;
                }
                Ok(Outcome::Overloaded { retry_after_ms }) => {
                    retries += 1;
                    if retries > max_retries {
                        return leave();
                    }
                    std::thread::sleep(backoff.next_delay(retry_after_ms));
                }
                // Draining server: it finishes what it has but takes no new
                // work — the worker leaves the fleet. A dead connection
                // (worker killed mid-job) hands the job to the survivors.
                Ok(Outcome::ShuttingDown) | Err(_) => return leave(),
                Ok(Outcome::Error { message, .. }) => {
                    // Deterministic job error: every worker would fail the
                    // same way, so abort the dispatch instead of looping.
                    *q.fatal.lock().expect(POISONED) = Some(message);
                    q.in_flight[index].store(0, Ordering::Relaxed);
                    return (jobs_done, runs_done, true);
                }
            }
        }
    }
}

/// Execute `reqs` on a fleet of `turnpike-serve` workers, one thread and
/// one connection per worker, through a shared work-stealing queue.
///
/// `on_progress(done_runs, total_runs)` is invoked from worker threads as
/// progress streams in; `done_runs` aggregates finished jobs' `runs` plus
/// live in-flight progress across the fleet.
///
/// # Errors
///
/// - no workers;
/// - a deterministic job error reported by a worker (re-dispatching would
///   fail identically);
/// - every worker failing while jobs remain (nobody left to run them).
pub fn dispatch<A: ToSocketAddrs + Display + Sync>(
    workers: &[A],
    reqs: &[JobRequest],
    max_retries: usize,
    on_progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> Result<Dispatched, String> {
    if workers.is_empty() {
        return Err("at least one worker address is required".to_string());
    }
    let q = Queue {
        reqs,
        pending: Mutex::new((0..reqs.len()).collect()),
        results: Mutex::new(vec![None; reqs.len()]),
        done: AtomicUsize::new(0),
        completed_runs: AtomicU64::new(0),
        in_flight: workers.iter().map(|_| AtomicU64::new(0)).collect(),
        reassigned: AtomicU64::new(0),
        fatal: Mutex::new(None),
        total_runs: reqs.iter().map(|r| r.runs).sum(),
    };
    let shares: Vec<(u64, u64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let q = &q;
                scope.spawn(move || worker_loop(addr, i, q, max_retries, on_progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker thread panicked"))
            .collect()
    });

    if let Some(message) = q.fatal.into_inner().expect(POISONED) {
        return Err(format!("worker job error: {message}"));
    }
    let results: Option<Vec<(String, bool)>> = q
        .results
        .into_inner()
        .expect(POISONED)
        .into_iter()
        .collect();
    let Some(results) = results else {
        return Err(format!(
            "{} of {} jobs finished and no workers remain",
            q.done.into_inner(),
            reqs.len()
        ));
    };
    Ok(Dispatched {
        results,
        reassigned: q.reassigned.into_inner(),
        workers: workers
            .iter()
            .zip(shares)
            .map(|(addr, (shards_done, runs_done, alive))| WorkerShare {
                addr: addr.to_string(),
                shards_done,
                runs_done,
                alive,
            })
            .collect(),
    })
}

/// Shard `cfg.request` across `workers` and merge the results.
///
/// The shards go through [`dispatch`]; `on_progress` is its progress
/// callback.
///
/// # Errors
///
/// - an invalid request (not a campaign, nonzero `run_offset`, or zero
///   runs);
/// - any [`dispatch`] error, no workers among them;
/// - a shard payload that does not parse back into campaign totals.
pub fn coordinate(
    workers: &[SocketAddr],
    cfg: &CoordinateConfig,
    on_progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> std::io::Result<CoordinateReport> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg.to_string());
    if cfg.request.kind != JobKind::Campaign {
        return Err(bad("coordinate requires a campaign request"));
    }
    if cfg.request.run_offset != 0 {
        return Err(bad("the whole-campaign request must have run_offset 0"));
    }
    if cfg.request.runs == 0 {
        return Err(bad("a campaign with zero runs has nothing to shard"));
    }

    let shard_want = if cfg.shards == 0 {
        workers.len()
    } else {
        cfg.shards
    };
    let shards: Vec<JobRequest> =
        partition(cfg.request.runs, shard_want.min(cfg.request.runs as usize))
            .into_iter()
            .map(|(offset, runs)| {
                let mut req = cfg.request.clone();
                req.run_offset = offset;
                req.runs = runs;
                req.tag = format!("shard-{offset}");
                req
            })
            .collect();

    let started = Instant::now();
    let fleet =
        dispatch(workers, &shards, cfg.max_retries, on_progress).map_err(std::io::Error::other)?;
    let wall_us = started.elapsed().as_micros() as u64;

    // Merge in ascending global-run order (the shard order). Counter
    // addition commutes, but a canonical order makes the merge auditable
    // against the shard list.
    let mut totals = CampaignTotals::default();
    for (payload, _) in &fleet.results {
        let shard = CampaignTotals::from_payload(payload)
            .ok_or_else(|| std::io::Error::other(format!("unparsable shard payload: {payload}")))?;
        totals.absorb(&shard);
    }
    let payload = campaign_payload(&cfg.request, &cfg.request.scale, &totals);

    Ok(CoordinateReport {
        payload,
        totals,
        shards: shards.len(),
        reassigned: fleet.reassigned,
        workers: fleet.workers,
        wall_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_the_range_contiguously() {
        for runs in [1u64, 2, 7, 8, 9, 100] {
            for shards in 1usize..=8 {
                let parts = partition(runs, shards);
                assert!(parts.len() <= shards);
                let mut next = 0u64;
                for &(offset, n) in &parts {
                    assert_eq!(offset, next, "runs={runs} shards={shards}");
                    assert!(n > 0);
                    next += n;
                }
                assert_eq!(next, runs, "runs={runs} shards={shards}");
                // Balanced: sizes differ by at most one.
                let max = parts.iter().map(|&(_, n)| n).max().unwrap();
                let min = parts.iter().map(|&(_, n)| n).min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn invalid_requests_are_rejected_before_any_connection() {
        let workers = ["127.0.0.1:1".parse().unwrap()];
        let mut cfg = CoordinateConfig::default();
        cfg.request.kind = JobKind::Run;
        assert!(coordinate(&workers, &cfg, None).is_err());
        let mut cfg = CoordinateConfig::default();
        cfg.request.run_offset = 3;
        assert!(coordinate(&workers, &cfg, None).is_err());
        let mut cfg = CoordinateConfig::default();
        cfg.request.runs = 0;
        assert!(coordinate(&workers, &cfg, None).is_err());
        let cfg = CoordinateConfig::default();
        assert!(coordinate(&[], &cfg, None).is_err());
    }
}
