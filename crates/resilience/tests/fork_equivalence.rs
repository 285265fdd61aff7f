//! Forked fault campaigns must be observationally identical to running
//! every strike from scratch.
//!
//! The snapshot/fork fast path only skips re-simulating the fault-free
//! prefix of each injected run; a snapshot taken at cycle C lies on the
//! execution path of any plan whose earliest strike lands strictly after
//! C, so the resumed run must reproduce the from-scratch run bit for bit —
//! report, per-strike records, and metrics alike. This pins that contract
//! across the full Fig-21 scheme ladder.

use turnpike_resilience::{
    fault_campaign_hooked, CampaignConfig, CampaignHook, CampaignReport, ForkStats, RunSpec,
    Scheme, StrikeRecord,
};
use turnpike_workloads::{kernel_by_name, Scale, Suite};

/// The campaign on `threads` workers with an inert hook.
fn campaign(
    program: &turnpike_ir::Program,
    spec: &RunSpec,
    config: &CampaignConfig,
    threads: usize,
) -> (CampaignReport, Vec<StrikeRecord>, ForkStats) {
    fault_campaign_hooked(program, spec, config, threads, CampaignHook::default()).unwrap()
}

fn config() -> CampaignConfig {
    CampaignConfig {
        runs: 10,
        seed: 0x51AB,
        strikes_per_run: 1,
        ..Default::default()
    }
}

#[test]
fn forked_campaign_matches_from_scratch_across_ladder() {
    let program = kernel_by_name(Suite::Cpu2006, "bwaves", Scale::Smoke)
        .expect("bwaves is in the catalog")
        .program;
    for scheme in Scheme::LADDER {
        let spec = RunSpec::new(scheme).with_histograms();
        let (forked_report, forked_records, forked_stats) = campaign(
            &program,
            &spec.clone().with_snapshot_interval(Some(64)),
            &config(),
            2,
        );
        let (scratch_report, scratch_records, scratch_stats) =
            campaign(&program, &spec.with_snapshot_interval(None), &config(), 2);

        assert_eq!(forked_report, scratch_report, "{scheme}: reports diverge");
        assert_eq!(forked_records, scratch_records, "{scheme}: records diverge");
        // The scratch path must not have forked anything; the fast path
        // must actually exercise forking (a dense interval on a smoke
        // kernel guarantees a usable snapshot before every strike window).
        assert_eq!(scratch_stats.hits, 0, "{scheme}: scratch path forked");
        assert_eq!(scratch_stats.prefix_cycles_saved, 0, "{scheme}");
        assert!(forked_stats.hits > 0, "{scheme}: no run forked");
        assert!(
            forked_stats.prefix_cycles_saved > 0,
            "{scheme}: forks saved no prefix cycles"
        );
        assert_eq!(
            forked_stats.hits + forked_stats.misses,
            config().runs,
            "{scheme}: every run is a hit or a miss"
        );
    }
}

#[test]
fn fork_equivalence_holds_with_multiple_strikes_per_run() {
    let program = kernel_by_name(Suite::Cpu2006, "leslie3d", Scale::Smoke)
        .expect("leslie3d is in the catalog")
        .program;
    let cfg = CampaignConfig {
        runs: 6,
        seed: 9,
        strikes_per_run: 3,
        ..Default::default()
    };
    let spec = RunSpec::new(Scheme::Turnpike).with_histograms();
    let (forked_report, forked_records, _) = campaign(
        &program,
        &spec.clone().with_snapshot_interval(Some(32)),
        &cfg,
        2,
    );
    let (scratch_report, scratch_records, _) =
        campaign(&program, &spec.with_snapshot_interval(None), &cfg, 2);
    assert_eq!(forked_report, scratch_report);
    assert_eq!(forked_records, scratch_records);
}
