//! End-to-end guarantees of the design-space explorer, on a tiny grid so
//! the whole suite stays seconds-scale:
//!
//! - the frontier artifact is byte-identical at any thread count;
//! - dispatching the same exploration through a `turnpike-serve` worker
//!   fleet produces the identical bytes, also when one worker address is
//!   dead or a worker drains mid-sweep;
//! - a resumed exploration (fresh process state, same artifact store)
//!   serves every job from the store and simulates nothing.

use std::net::SocketAddr;
use std::sync::Arc;

use turnpike_bench::explore::{frontier_json, run_explore, ExploreConfig, JobRunner};
use turnpike_bench::{Engine, EngineExecutor};
use turnpike_resilience::{CacheGeom, ExploreAxes, Scheme};
use turnpike_serve::{Client, Server, ServerConfig, Store};
use turnpike_sim::ClqKind;
use turnpike_workloads::Scale;

/// One geometry, two color pools: turnstile collapses to 1 canonical
/// point, turnpike keeps both colors — 3 points, every stage exercised.
static TINY_GEOMS: [CacheGeom; 1] = [CacheGeom {
    name: "a53",
    l1_bytes: 64 * 1024,
    l1_ways: 2,
    l2_bytes: 128 * 1024,
    l2_ways: 16,
}];
static TINY_AXES: ExploreAxes = ExploreAxes {
    schemes: &[Scheme::Turnstile, Scheme::Turnpike],
    wcdls: &[10],
    sb_sizes: &[4],
    clqs: &[ClqKind::Compact(2)],
    colors: &[2, 4],
    geoms: &TINY_GEOMS,
};

fn tiny_config() -> ExploreConfig {
    ExploreConfig {
        axes: TINY_AXES,
        scale: Scale::Smoke,
        kernels: vec!["bwaves".into(), "mcf".into()],
        campaign_kernel: "bwaves".into(),
        seed: 7,
        ci_half_width: 0.2,
        ci_cap: 8,
    }
}

fn direct_runner(threads: usize) -> JobRunner {
    JobRunner::Direct {
        exec: EngineExecutor::new(Engine::serial()),
        threads,
    }
}

fn start_worker() -> Server {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(EngineExecutor::new(Engine::serial()))).unwrap()
}

fn fleet(addrs: Vec<SocketAddr>) -> JobRunner {
    JobRunner::Fleet {
        workers: addrs.iter().map(SocketAddr::to_string).collect(),
    }
}

fn explore_artifact(runner: &JobRunner) -> String {
    let cfg = tiny_config();
    let report = run_explore(runner, &cfg, &mut |_| {}).expect("tiny exploration");
    frontier_json(&cfg, &report)
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("turnpike-explore-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn frontier_is_byte_identical_across_thread_counts() {
    let one = explore_artifact(&direct_runner(1));
    let two = explore_artifact(&direct_runner(2));
    let four = explore_artifact(&direct_runner(4));
    assert_eq!(one, two, "1 vs 2 threads");
    assert_eq!(one, four, "1 vs 4 threads");
    // Sanity: the artifact actually carries the tiny grid's shape.
    assert!(one.contains("\"canonical\": 3"), "{one}");
    assert!(one.contains("turnpike|wcdl=10|sb=4|clq=compact-2|colors=4|geom=a53"));
}

#[test]
fn fleet_execution_matches_direct_byte_for_byte() {
    let direct = explore_artifact(&direct_runner(2));
    // Two in-process workers, one engine thread each — the work-stealing
    // dispatch and by-index result placement must make worker timing
    // invisible.
    let servers: Vec<Server> = (0..2).map(|_| start_worker()).collect();
    let runner = fleet(servers.iter().map(Server::addr).collect());
    let served = explore_artifact(&runner);
    assert_eq!(served, direct, "fleet vs direct artifact bytes");
    for server in servers {
        let mut c = Client::connect(server.addr()).unwrap();
        c.shutdown().unwrap();
        server.join();
    }
}

#[test]
fn dead_worker_address_is_routed_around() {
    // Worker 0's address points at a freed port: every job handed to it
    // must come back to the queue and land on the live worker.
    let direct = explore_artifact(&direct_runner(1));
    let dead = {
        let s = start_worker();
        let addr = s.addr();
        s.shutdown();
        addr
    };
    let live = start_worker();
    let served = explore_artifact(&fleet(vec![dead, live.addr()]));
    assert_eq!(served, direct, "fleet with a dead worker vs direct bytes");
    live.shutdown();
}

#[test]
fn worker_draining_mid_sweep_does_not_change_the_frontier() {
    // A graceful drain mid-sweep, between the overhead runs and the first
    // campaign round: the leaving worker finishes what it holds, then
    // rejects further jobs; the survivor absorbs the campaign rounds.
    let direct = explore_artifact(&direct_runner(1));
    let leaver = start_worker();
    let survivor = start_worker();
    let leaver_addr = leaver.addr();
    let cfg = tiny_config();
    let mut drained = false;
    let mut drain_after_runs = |line: String| {
        if line.starts_with("promote runs:") {
            Client::connect(leaver_addr).unwrap().shutdown().unwrap();
            drained = true;
        }
    };
    let runner = fleet(vec![leaver_addr, survivor.addr()]);
    let report = run_explore(&runner, &cfg, &mut drain_after_runs).expect("sweep during drain");
    assert!(drained, "the drain fired mid-sweep");
    assert_eq!(
        frontier_json(&cfg, &report),
        direct,
        "fleet with a draining worker vs direct bytes"
    );
    leaver.join();
    survivor.shutdown();
}

#[test]
fn resumed_exploration_serves_every_job_from_the_store() {
    let root = scratch("resume");

    // Cold sweep: computes everything, persists every payload.
    let cold = JobRunner::Direct {
        exec: EngineExecutor::new(Engine::serial()).with_store(Store::open(&root)),
        threads: 2,
    };
    let cfg = tiny_config();
    let cold_report = run_explore(&cold, &cfg, &mut |_| {}).unwrap();
    // Every job of a sweep is distinct (runs are dedup'd, campaign
    // rounds differ in run offset), so a cold sweep computes everything.
    assert_eq!(
        cold_report.counts.store_hits, 0,
        "cold sweep must compute: {:?}",
        cold_report.counts
    );
    let cold_artifact = frontier_json(&cfg, &cold_report);

    // Resumed sweep: a brand-new executor (fresh engine, fresh caches —
    // a new process in all but pid) sharing only the store directory.
    let warm = JobRunner::Direct {
        exec: EngineExecutor::new(Engine::serial()).with_store(Store::open(&root)),
        threads: 2,
    };
    let warm_report = run_explore(&warm, &cfg, &mut |_| {}).unwrap();
    assert_eq!(
        warm_report.counts.store_hits, warm_report.counts.jobs,
        "every resumed job must be a store hit"
    );
    let exec = warm.executor().expect("direct runner");
    assert_eq!(exec.engine().sim_count(), 0, "resume must not simulate");
    assert_eq!(exec.engine().compile_count(), 0, "resume must not compile");
    assert_eq!(
        frontier_json(&cfg, &warm_report),
        cold_artifact,
        "resumed artifact bytes"
    );

    std::fs::remove_dir_all(&root).unwrap();
}
