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
//! Fault tolerance is work-stealing re-dispatch: shards live in a shared
//! queue, each worker thread pulls the next shard, and a worker that dies
//! mid-shard (connection drop, rejection budget exhausted, draining
//! server) puts the shard back for the survivors. A shard is only marked
//! finished when its payload parsed back into totals, so a half-streamed
//! result can never count.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use turnpike_serve::{Backoff, Client, JobKind, JobRequest, Json, Outcome};

use crate::service::{campaign_payload, CampaignTotals};

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
            max_retries: 100,
        }
    }
}

/// Per-worker share of a finished coordination, for the report.
#[derive(Debug, Clone)]
pub struct WorkerShare {
    /// Worker address as given.
    pub addr: String,
    /// Shards this worker completed.
    pub shards_done: u64,
    /// Injected runs inside those shards.
    pub runs_done: u64,
    /// Whether the worker was still healthy when the campaign finished.
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

/// One pending unit of work: global run offset and run count.
type Shard = (u64, u64);

/// Split `runs` into `shards` contiguous ranges covering `[0, runs)`.
/// Earlier shards take the remainder so sizes differ by at most one.
fn partition(runs: u64, shards: usize) -> Vec<Shard> {
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

struct FleetState {
    /// Shards nobody has finished yet; workers pull from the front and
    /// push failed attempts to the back.
    pending: Mutex<VecDeque<Shard>>,
    /// Finished shards: `(offset, runs, totals)`.
    done: Mutex<Vec<(u64, u64, CampaignTotals)>>,
    /// Runs inside finished shards (progress numerator base).
    completed_runs: AtomicU64,
    /// Per-worker progress inside the shard currently in flight.
    in_flight: Vec<AtomicU64>,
    /// Shards re-queued after a worker failure.
    reassigned: AtomicU64,
    /// A deterministic job failure (bad kernel, executor error). Fatal:
    /// re-dispatching it would fail identically on every worker.
    fatal: Mutex<Option<String>>,
    shard_count: usize,
}

impl FleetState {
    fn finished(&self) -> bool {
        self.done.lock().unwrap().len() == self.shard_count || self.fatal.lock().unwrap().is_some()
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

/// Run one worker thread: pull shards, submit them to `addr`, retry
/// rejections with jittered backoff, and re-queue the shard on any
/// worker-side failure. Returns `(shards_done, runs_done, alive)`.
fn worker_loop(
    addr: SocketAddr,
    index: usize,
    state: &FleetState,
    cfg: &CoordinateConfig,
    on_progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> (u64, u64, bool) {
    let total = cfg.request.runs;
    let mut shards_done = 0u64;
    let mut runs_done = 0u64;
    let mut client: Option<Client> = None;
    let mut backoff = Backoff::new(1, 1_000, index as u64);
    loop {
        if state.finished() {
            return (shards_done, runs_done, true);
        }
        let Some((offset, runs)) = state.pending.lock().unwrap().pop_front() else {
            // Nothing pending but shards are still in flight elsewhere; if
            // one of those workers dies, its shard lands back in the queue
            // for us. Poll instead of exiting.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };

        let requeue = |state: &FleetState| {
            state.pending.lock().unwrap().push_back((offset, runs));
            state.reassigned.fetch_add(1, Ordering::Relaxed);
            state.in_flight[index].store(0, Ordering::Relaxed);
        };

        let mut req = cfg.request.clone();
        req.run_offset = offset;
        req.runs = runs;
        req.tag = format!("shard-{offset}");

        let mut retries = 0usize;
        loop {
            // (Re)connect lazily: a worker that was killed and restarted
            // rejoins the fleet on the next shard attempt.
            let c = match &mut client {
                Some(c) => c,
                None => match Client::connect(addr) {
                    Ok(c) => client.insert(c),
                    Err(_) => {
                        requeue(state);
                        return (shards_done, runs_done, false);
                    }
                },
            };
            let outcome = c.submit_with(&req, |done, _total| {
                state.in_flight[index].store(done, Ordering::Relaxed);
                if let Some(f) = on_progress {
                    f(state.progress_done(), total);
                }
            });
            match outcome {
                Ok(Outcome::Done { result, .. }) => {
                    let Some(totals) = CampaignTotals::from_payload(&result) else {
                        // A payload we can't read back is a protocol-level
                        // worker failure, not a merge input.
                        requeue(state);
                        return (shards_done, runs_done, false);
                    };
                    state.in_flight[index].store(0, Ordering::Relaxed);
                    state.completed_runs.fetch_add(runs, Ordering::Relaxed);
                    state.done.lock().unwrap().push((offset, runs, totals));
                    if let Some(f) = on_progress {
                        f(state.progress_done(), total);
                    }
                    shards_done += 1;
                    runs_done += runs;
                    backoff.reset();
                    break;
                }
                Ok(Outcome::Overloaded { retry_after_ms }) => {
                    retries += 1;
                    if retries > cfg.max_retries {
                        requeue(state);
                        return (shards_done, runs_done, false);
                    }
                    std::thread::sleep(backoff.next_delay(retry_after_ms));
                }
                Ok(Outcome::ShuttingDown) => {
                    // Draining server: it finishes what it has but takes no
                    // new work — treat as the worker leaving the fleet.
                    requeue(state);
                    return (shards_done, runs_done, false);
                }
                Ok(Outcome::Error { message, .. }) => {
                    // Deterministic job error: every worker would fail the
                    // same way, so abort the campaign instead of looping.
                    *state.fatal.lock().unwrap() = Some(message);
                    state.in_flight[index].store(0, Ordering::Relaxed);
                    return (shards_done, runs_done, true);
                }
                Err(_) => {
                    // Connection died mid-shard (worker killed); hand the
                    // shard to the survivors.
                    requeue(state);
                    return (shards_done, runs_done, false);
                }
            }
        }
    }
}

/// Shard `cfg.request` across `workers` and merge the results.
///
/// `on_progress(done_runs, total_runs)` is invoked from worker threads as
/// shard progress streams in; `done_runs` aggregates finished shards plus
/// live in-flight progress across the fleet.
///
/// # Errors
///
/// - an invalid request (not a campaign, nonzero `run_offset`, zero runs,
///   or no workers);
/// - a deterministic job error reported by a worker (re-dispatching would
///   fail identically);
/// - every worker failing while shards remain (nobody left to run them).
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
    if workers.is_empty() {
        return Err(bad("at least one worker address is required"));
    }

    let shard_want = if cfg.shards == 0 {
        workers.len()
    } else {
        cfg.shards
    };
    let shards = partition(cfg.request.runs, shard_want.min(cfg.request.runs as usize));
    let state = FleetState {
        pending: Mutex::new(shards.iter().copied().collect()),
        done: Mutex::new(Vec::with_capacity(shards.len())),
        completed_runs: AtomicU64::new(0),
        in_flight: (0..workers.len()).map(|_| AtomicU64::new(0)).collect(),
        reassigned: AtomicU64::new(0),
        fatal: Mutex::new(None),
        shard_count: shards.len(),
    };

    let started = Instant::now();
    let shares: Vec<(u64, u64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let state = &state;
                scope.spawn(move || worker_loop(addr, i, state, cfg, on_progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coordinator worker thread panicked"))
            .collect()
    });
    let wall_us = started.elapsed().as_micros() as u64;

    if let Some(message) = state.fatal.into_inner().unwrap() {
        return Err(std::io::Error::other(format!(
            "worker job error: {message}"
        )));
    }
    let mut done = state.done.into_inner().unwrap();
    if done.len() != shards.len() {
        return Err(std::io::Error::other(format!(
            "campaign incomplete: {} of {} shards finished and no workers remain",
            done.len(),
            shards.len()
        )));
    }

    // Merge in ascending global-run order. Counter addition commutes, but
    // a canonical order makes the merge auditable against the shard list.
    done.sort_unstable_by_key(|&(offset, _, _)| offset);
    let mut totals = CampaignTotals::default();
    for (_, _, t) in &done {
        totals.absorb(t);
    }
    let payload = campaign_payload(&cfg.request, &cfg.request.scale, &totals);

    Ok(CoordinateReport {
        payload,
        totals,
        shards: shards.len(),
        reassigned: state.reassigned.into_inner(),
        workers: workers
            .iter()
            .zip(&shares)
            .map(|(addr, &(shards_done, runs_done, alive))| WorkerShare {
                addr: addr.to_string(),
                shards_done,
                runs_done,
                alive,
            })
            .collect(),
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
