//! Distributed campaign execution, end to end: a coordinator sharding a
//! campaign across live in-process servers must produce a payload
//! byte-identical to the single-process run — including when part of the
//! fleet is dead or leaves mid-campaign — and deterministic job errors
//! must fail the coordination instead of being re-dispatched forever.

use std::net::SocketAddr;
use std::sync::Arc;

use turnpike_bench::{coordinate, CoordinateConfig, Engine, EngineExecutor};
use turnpike_serve::{Client, Executor, JobKind, JobRequest, Server, ServerConfig};

fn start_worker() -> Server {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let exec = EngineExecutor::new(Engine::new(1));
    Server::start(config, Arc::new(exec) as Arc<dyn Executor>).expect("bind worker")
}

fn campaign(runs: u64) -> JobRequest {
    let mut req = JobRequest::new(JobKind::Campaign);
    req.runs = runs;
    req.seed = 0xC0FFEE;
    req.strikes = 1;
    req
}

fn direct_payload(req: &JobRequest) -> String {
    EngineExecutor::new(Engine::new(1))
        .execute_direct(req)
        .expect("direct campaign")
        .result
}

#[test]
fn coordinated_fleet_matches_the_single_process_payload_byte_for_byte() {
    let workers = [start_worker(), start_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(Server::addr).collect();
    let cfg = CoordinateConfig {
        request: campaign(48),
        shards: 6,
        ..CoordinateConfig::default()
    };
    let report = coordinate(&addrs, &cfg, None).expect("coordinate");
    assert_eq!(report.payload.to_string(), direct_payload(&cfg.request));
    assert_eq!(report.shards, 6);
    assert_eq!(report.totals.runs, 48);
    assert_eq!(
        report.workers.iter().map(|w| w.runs_done).sum::<u64>(),
        48,
        "every run is owned by exactly one worker"
    );
    for s in workers {
        s.shutdown();
    }
}

#[test]
fn dead_worker_shards_are_redispatched_and_the_merge_is_still_identical() {
    // Worker 1 is live; worker 0's address points at a freed port. Every
    // shard the coordinator hands to the dead worker must come back to
    // the queue and land on the survivor.
    let dead_addr = {
        let s = start_worker();
        let addr = s.addr();
        s.shutdown();
        addr
    };
    let live = start_worker();
    let addrs = [dead_addr, live.addr()];
    let cfg = CoordinateConfig {
        request: campaign(40),
        shards: 5,
        ..CoordinateConfig::default()
    };
    let report = coordinate(&addrs, &cfg, None).expect("coordinate with a dead worker");
    assert_eq!(report.payload.to_string(), direct_payload(&cfg.request));
    assert!(
        report.reassigned >= 1,
        "the dead worker's shard was re-queued"
    );
    assert!(!report.workers[0].alive);
    assert_eq!(report.workers[0].shards_done, 0);
    assert_eq!(report.workers[1].runs_done, 40);
    live.shutdown();
}

#[test]
fn worker_leaving_mid_campaign_does_not_change_the_merged_bytes() {
    // A graceful drain mid-campaign: the leaving worker finishes what it
    // holds, then rejects further shards; the survivor absorbs the rest.
    // (CI's distributed-smoke job covers the harsher kill -9 variant with
    // real processes.) Whether the drain lands before or after the last
    // shard is timing — the byte-identity must hold either way.
    let leaver = start_worker();
    let survivor = start_worker();
    let addrs = [leaver.addr(), survivor.addr()];
    let leaver_addr = leaver.addr();
    let cfg = CoordinateConfig {
        request: campaign(2048),
        shards: 16,
        ..CoordinateConfig::default()
    };
    let (report, ()) = std::thread::scope(|scope| {
        let work = scope.spawn(|| coordinate(&addrs, &cfg, None));
        let drain = scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            if let Ok(mut c) = Client::connect(leaver_addr) {
                let _ = c.shutdown();
            }
        });
        (
            work.join().expect("coordinate thread"),
            drain.join().expect("drain thread"),
        )
    });
    let report = report.expect("coordinate during drain");
    assert_eq!(report.payload.to_string(), direct_payload(&cfg.request));
    assert_eq!(report.totals.runs, 2048);
    leaver.join();
    survivor.shutdown();
}

#[test]
fn deterministic_job_errors_abort_instead_of_looping() {
    let worker = start_worker();
    let mut cfg = CoordinateConfig {
        request: campaign(8),
        ..CoordinateConfig::default()
    };
    cfg.request.kernel = "no-such-kernel".into();
    let err = coordinate(&[worker.addr()], &cfg, None).expect_err("bad kernel must fail");
    assert!(err.to_string().contains("kernel"), "{err}");
    worker.shutdown();
}
