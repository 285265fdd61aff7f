//! Early-exit strike replay must be observationally identical to running
//! every strike to completion.
//!
//! A strike run that reaches a quiet state matching a golden snapshot
//! (modulo a uniform time shift) is provably on the golden timeline for the
//! rest of its execution, so exiting with synthesized stats must reproduce
//! the full run's report, records, and metrics byte for byte — across the
//! Fig-21 scheme ladder and at every thread count. The only observable
//! difference is the [`ForkStats`] replay accounting.

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

fn config(early_exit: bool) -> CampaignConfig {
    CampaignConfig {
        runs: 10,
        seed: 0x51AB,
        strikes_per_run: 1,
        early_exit,
        ..Default::default()
    }
}

#[test]
fn early_exit_campaign_is_byte_identical_across_ladder() {
    let program = kernel_by_name(Suite::Cpu2006, "bwaves", Scale::Smoke)
        .expect("bwaves is in the catalog")
        .program;
    let mut ladder_exits = 0;
    for scheme in Scheme::LADDER {
        let spec = RunSpec::new(scheme)
            .with_histograms()
            .with_snapshot_interval(Some(64));
        for threads in [1, 4] {
            let (on_report, on_records, on_stats) =
                campaign(&program, &spec, &config(true), threads);
            let (off_report, off_records, off_stats) =
                campaign(&program, &spec, &config(false), threads);
            assert_eq!(
                on_report, off_report,
                "{scheme} x{threads}: reports diverge"
            );
            assert_eq!(
                on_records, off_records,
                "{scheme} x{threads}: records diverge"
            );
            // The kill switch really kills the path...
            assert_eq!(off_stats.replay_exits, 0, "{scheme} x{threads}");
            assert_eq!(off_stats.replay_cycles_saved, 0, "{scheme} x{threads}");
            // ...and exits only ever ride along with saved cycles.
            assert_eq!(
                on_stats.replay_exits == 0,
                on_stats.replay_cycles_saved == 0,
                "{scheme} x{threads}: exits and savings disagree"
            );
            if threads == 1 {
                ladder_exits += on_stats.replay_exits;
            }
        }
    }
    // Not every scheme converges (an undetected baseline corruption keeps
    // its parity flag forever), but the resilient schemes recover onto the
    // golden path and must actually exercise the exit somewhere.
    assert!(ladder_exits > 0, "no strike run ever exited early");
}

#[test]
fn early_exit_equivalence_holds_with_multiple_strikes_per_run() {
    // Each recovery perturbs cache residency/LRU order a little more, so
    // heavily-struck runs on short kernels often never pass the structural
    // cache check and simply run to completion — mcf at two strikes is a
    // configuration where some runs provably realign.
    let program = kernel_by_name(Suite::Cpu2006, "mcf", Scale::Smoke)
        .expect("mcf is in the catalog")
        .program;
    let spec = RunSpec::new(Scheme::Turnpike)
        .with_histograms()
        .with_snapshot_interval(Some(64));
    let cfg = |early_exit| CampaignConfig {
        runs: 6,
        seed: 9,
        strikes_per_run: 2,
        early_exit,
        ..Default::default()
    };
    let (on_report, on_records, on_stats) = campaign(&program, &spec, &cfg(true), 2);
    let (off_report, off_records, _) = campaign(&program, &spec, &cfg(false), 2);
    assert_eq!(on_report, off_report);
    assert_eq!(on_records, off_records);
    assert!(
        on_stats.replay_exits > 0,
        "multi-strike runs should still reconverge after the last recovery"
    );
}

#[test]
fn early_exit_needs_snapshots() {
    // Without a snapshot interval there is no guide; the flag must be a
    // no-op rather than an error.
    let program = kernel_by_name(Suite::Cpu2006, "hmmer", Scale::Smoke)
        .expect("hmmer is in the catalog")
        .program;
    let spec = RunSpec::new(Scheme::Turnpike).with_snapshot_interval(None);
    let (report, _, stats) = campaign(
        &program,
        &spec,
        &CampaignConfig {
            runs: 4,
            seed: 3,
            strikes_per_run: 1,
            early_exit: true,
            ..Default::default()
        },
        2,
    );
    assert!(report.sdc_free());
    assert_eq!(stats.replay_exits, 0);
    assert_eq!(stats.hits, 0);
}
