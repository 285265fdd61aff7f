//! Early exit for strike runs whose corruption outlives recovery in a dead
//! register.
//!
//! Recovery reloads only a region's live-in registers, so a parity strike
//! into a register the kernel never reads leaves its flipped bit in the
//! register file for the rest of the run. The early-exit probe compares
//! only the registers live at the probe PC, so such a run still proves its
//! reconvergence with the golden run and stops early; the outcome must be
//! the one full simulation computes.

use turnpike::compiler::compile;
use turnpike::isa::{MachInst, MachProgram};
use turnpike::resilience::{
    fault_campaign_hooked, CampaignConfig, CampaignHook, ForkStats, RunSpec, Scheme,
};
use turnpike::sim::{
    Core, CoreSnapshot, Fault, FaultKind, FaultPlan, Refusal, ReplayGuide, SimOutcome,
};
use turnpike::workloads::{all_kernels, kernel_by_name, Scale, Suite};

/// Snapshot cadence of the golden run (the ladder's default).
const INTERVAL: u64 = 512;

/// Registers no instruction of the program or of its recovery blocks
/// reads or writes: a flipped bit there stays flipped until the run ends.
fn untouched_registers(p: &MachProgram) -> Vec<u8> {
    let recovery = p.recovery.values().flat_map(|b| b.insts.iter());
    let touched: Vec<u8> = p
        .insts
        .iter()
        .chain(recovery)
        .flat_map(|i: &MachInst| i.uses().iter().copied().chain(i.def()).collect::<Vec<_>>())
        .map(|r| r.raw())
        .collect();
    (0..32).filter(|r| !touched.contains(r)).collect()
}

fn fork_point(snaps: &[CoreSnapshot], strike: u64) -> Option<&CoreSnapshot> {
    snaps.iter().take_while(|s| s.cycle() < strike).last()
}

#[test]
fn strike_into_an_unread_register_exits_early_with_the_full_outcome() {
    let spec = RunSpec::new(Scheme::Turnpike);
    let sc = spec.sim_config();
    let (mut strikes, mut exits) = (0, 0);
    for name in ["bwaves", "hmmer", "mcf"] {
        let k = kernel_by_name(Suite::Cpu2006, name, Scale::Smoke).expect("catalog kernel");
        let program = compile(&k.program, &spec.compiler_config())
            .unwrap()
            .program;
        let unread = untouched_registers(&program);
        let &reg = unread.last().expect("the kernel leaves a register unused");
        let (golden, snaps) = Core::new(&program, sc.clone())
            .run_collecting_snapshots(&FaultPlan::none(), INTERVAL)
            .unwrap();
        let guide = ReplayGuide::new(&program, &snaps, &golden.stats, golden.ret);
        let horizon = golden.stats.cycles;
        for eighth in 1..8 {
            let strike = horizon * eighth / 8;
            let plan = FaultPlan::new(vec![Fault {
                strike_cycle: strike,
                detect_latency: sc.wcdl / 2,
                kind: FaultKind::RegisterParity { reg, bit: 7 },
            }]);
            let core = || match fork_point(&snaps, strike) {
                Some(s) => Core::from_snapshot(&program, s),
                None => Core::new(&program, sc.clone()),
            };
            let full = core().run(&plan).unwrap();
            let mut guided_core = core();
            guided_core.attach_replay(&guide);
            let guided = guided_core.run(&plan).unwrap();
            let what = format!("{name}: r{reg} struck at {strike}");
            // The sensor caught the strike and recovery ran, but the
            // register is not restored: the run never again matches any
            // golden snapshot's whole register file. Its live registers do.
            assert_eq!(full.stats.recoveries, 1, "{what}");
            assert!(!guided.replay_census.never_matched, "{what}");
            strikes += 1;
            exits += usize::from(guided.replay_saved.is_some());
            assert_eq!(full.memory, golden.memory, "{what}");
            let synthesized = SimOutcome {
                memory: full.memory.clone(),
                ckpt_memory: full.ckpt_memory.clone(),
                replay_saved: None,
                ..guided
            };
            assert_eq!(synthesized, full, "{what}");
        }
    }
    // Measured 18 of 21; the other three were refused on checkpoint
    // coloring at every snapshot left.
    assert!(
        exits * 4 >= strikes * 3,
        "{exits} of {strikes} strike runs exited"
    );
}

/// Smoke campaigns of the six workload templates under every ladder rung
/// (campaigns are deterministic): each report and record stream equals
/// full replay's, and the uniform rungs exit early on most strike runs.
/// Comparing the whole register file gave those rungs an exit ratio of
/// 0.411 (316 of 768 runs); comparing live registers gives 0.727 (558).
/// The summed [`ForkStats`] of the early-exit campaigns are pinned.
#[test]
fn ladder_campaigns_match_full_replay_and_mostly_exit_early() {
    const FLOOR: f64 = 0.70;
    let names = ["bwaves", "mcf", "gcc", "hmmer", "soplex", "fft"];
    let all = all_kernels(Scale::Smoke);
    let (mut runs, mut exits) = (0, 0);
    let mut census = ForkStats::default();
    for (i, name) in names.iter().enumerate() {
        let k = all
            .iter()
            .find(|k| k.name == *name)
            .expect("catalog kernel");
        for scheme in Scheme::LADDER {
            let campaign = |early_exit| {
                let cfg = CampaignConfig {
                    runs: 16,
                    seed: 100 + i as u64,
                    early_exit,
                    ..CampaignConfig::default()
                };
                let spec = RunSpec::new(scheme);
                fault_campaign_hooked(&k.program, &spec, &cfg, 1, CampaignHook::default()).unwrap()
            };
            let (report, records, fork) = campaign(true);
            let (full_report, full_records, full_fork) = campaign(false);
            let what = format!("{name}/{scheme:?}");
            assert_eq!(format!("{report:?}"), format!("{full_report:?}"), "{what}");
            assert_eq!(records, full_records, "{what}");
            assert!(
                fork.replay_never_matched + fork.replay_exits <= report.runs,
                "{what}"
            );
            // Full replay never probes, so it records no census.
            assert_eq!(full_fork.replay_never_matched, 0, "{what}");
            assert!(full_fork.replay_refusals.iter().all(|&n| n == 0), "{what}");
            census.hits += fork.hits;
            census.misses += fork.misses;
            census.prefix_cycles_saved += fork.prefix_cycles_saved;
            census.replay_exits += fork.replay_exits;
            census.replay_cycles_saved += fork.replay_cycles_saved;
            for (total, n) in census.replay_refusals.iter_mut().zip(fork.replay_refusals) {
                *total += n;
            }
            census.replay_budget_exhausted += fork.replay_budget_exhausted;
            census.replay_never_matched += fork.replay_never_matched;
            if scheme != Scheme::Adaptive {
                runs += report.runs;
                exits += fork.replay_exits;
            }
        }
    }
    // The probe census of all 54 campaigns, pinned as measured before the
    // probe was indexed by live-register fingerprint. A probe that loses
    // a candidate (or visits them in another order) leaves every outcome
    // identical and shows up only here: as fewer exits, fewer cycles
    // saved, or another refusal mix.
    let mut refusals = [0; Refusal::ALL.len()];
    for (reason, n) in [
        (Refusal::Readiness, 8),
        (Refusal::Rbb, 56),
        (Refusal::Coloring, 73),
        (Refusal::L1Tags, 5),
        (Refusal::Memory, 5),
        (Refusal::CkptMemory, 8),
    ] {
        refusals[reason as usize] = n;
    }
    let pinned = ForkStats {
        hits: 599,
        misses: 265,
        prefix_cycles_saved: 1_871_552,
        replay_exits: 622,
        replay_cycles_saved: 1_618_789,
        replay_refusals: refusals,
        replay_budget_exhausted: 0,
        replay_never_matched: 54,
    };
    assert_eq!(census, pinned, "early-exit probe census of the ladder");
    let ratio = exits as f64 / runs as f64;
    assert!(
        ratio >= FLOOR,
        "uniform-rung exit ratio {ratio:.3} below {FLOOR}"
    );
}
