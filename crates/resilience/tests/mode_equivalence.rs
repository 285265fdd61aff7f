//! Degenerate per-region policies must reproduce the uniform schemes.
//!
//! `ProtectionPolicy::ForceUniform(m)` tags every static region with mode
//! `m` explicitly. Semantically that is the same machine the uniform
//! pipeline builds implicitly, so campaign reports and per-strike records
//! must be byte-identical to the plain scheme — at every thread count, for
//! arbitrary campaign parameters. This pins the refactor's central
//! contract: region-granular modes are a strict generalization, not a
//! behavioral fork, of the uniform spine.

use proptest::prelude::*;
use turnpike_compiler::ProtectionPolicy;
use turnpike_isa::ProtectionMode;
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

fn program(name: &str) -> turnpike_ir::Program {
    kernel_by_name(Suite::Cpu2006, name, Scale::Smoke)
        .expect("kernel is in the catalog")
        .program
}

fn config() -> CampaignConfig {
    CampaignConfig {
        runs: 8,
        seed: 0xDE6E,
        strikes_per_run: 1,
        ..Default::default()
    }
}

#[test]
fn force_uniform_matches_plain_scheme_at_every_thread_count() {
    let prog = program("bwaves");
    for (scheme, mode) in [
        (Scheme::Turnpike, ProtectionMode::Turnpike),
        (Scheme::Turnstile, ProtectionMode::Turnstile),
    ] {
        let plain = RunSpec::new(scheme).with_histograms();
        let forced = plain
            .clone()
            .with_policy(ProtectionPolicy::ForceUniform(mode));
        for threads in [1usize, 2, 4] {
            let (pr, precs, _) = campaign(&prog, &plain, &config(), threads);
            let (fr, frecs, _) = campaign(&prog, &forced, &config(), threads);
            assert_eq!(pr, fr, "{scheme} vs forced {mode:?} at {threads} threads");
            assert_eq!(precs, frecs, "{scheme} records at {threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The degenerate equivalence is parameter-independent: any seed, run
    /// count, and strike multiplicity produces the same report either way.
    #[test]
    fn force_uniform_turnpike_is_turnpike_for_any_campaign(
        seed in any::<u64>(),
        runs in 1usize..6,
        strikes in 1usize..3,
    ) {
        let prog = program("leslie3d");
        let cfg = CampaignConfig { runs, seed, strikes_per_run: strikes, ..Default::default() };
        let plain = RunSpec::new(Scheme::Turnpike);
        let forced = plain
            .clone()
            .with_policy(ProtectionPolicy::ForceUniform(ProtectionMode::Turnpike));
        let (pr, precs, _) = campaign(&prog, &plain, &cfg, 2);
        let (fr, frecs, _) = campaign(&prog, &forced, &cfg, 2);
        prop_assert_eq!(pr, fr);
        prop_assert_eq!(precs, frecs);
    }
}
