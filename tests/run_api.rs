//! The run API, end to end: a core started fresh or resumed from a
//! snapshot, with or without the optional sharing (a pre-built
//! translation, an early-exit replay guide), and a campaign run whole or as
//! `first_run` shards must all produce the same simulated results. Two
//! smoke kernels under the uniform Turnpike rung and the mixed-mode
//! Adaptive rung.

use std::sync::Arc;
use turnpike::compiler::compile;
use turnpike::ir::DataSegment;
use turnpike::isa::{MachInst, MachProgram};
use turnpike::resilience::{
    fault_campaign_hooked, CampaignConfig, CampaignHook, CampaignReport, RunSpec, Scheme,
};
use turnpike::sim::{
    Core, CoreSnapshot, Fault, FaultKind, FaultPlan, ReplayGuide, SimConfig, SimError, SimOutcome,
    Translation,
};
use turnpike::workloads::{kernel_by_name, Kernel, Scale, Suite};

const SCHEMES: [Scheme; 2] = [Scheme::Turnpike, Scheme::Adaptive];
const INTERVAL: u64 = 64;

fn kernels() -> Vec<Kernel> {
    ["bwaves", "mcf"]
        .iter()
        .map(|name| kernel_by_name(Suite::Cpu2006, name, Scale::Smoke).expect("in the catalog"))
        .collect()
}

/// One datapath strike at `cycle`, detected within the WCDL, with the
/// campaign-style watchdog so a strike that hangs an unprotected region
/// ends as `CycleLimit` instead of spinning to the default limit.
fn strike(cycle: u64, sc: &SimConfig, horizon: u64) -> FaultPlan {
    FaultPlan::new(vec![Fault {
        strike_cycle: cycle,
        detect_latency: sc.wcdl.min(5),
        kind: FaultKind::Datapath { bit: 13 },
    }])
    .with_watchdog(horizon * 8 + 65_536)
}

/// The latest snapshot strictly before `cycle`, as campaigns fork.
fn fork_point(snaps: &[CoreSnapshot], cycle: u64) -> Option<&CoreSnapshot> {
    snaps.iter().take_while(|s| s.cycle() < cycle).last()
}

/// A program without a `Ret` runs off its end. The superblock loop hands
/// the out-of-range PC back to the per-instruction loop, which raises the
/// error, so the run fails the same way with translation on and off, and
/// in the hooked loop of a snapshot-collecting run.
#[test]
fn falling_off_the_end_is_pc_out_of_range() {
    let program = MachProgram::from_insts(
        "no-ret",
        vec![MachInst::Nop],
        DataSegment::zeroed(0x1000, 0),
    );
    for translate in [false, true] {
        let mut sc = SimConfig::turnpike(4, 10);
        sc.translate = translate;
        let plain = Core::new(&program, sc.clone()).run(&FaultPlan::none());
        assert_eq!(
            plain.unwrap_err(),
            SimError::PcOutOfRange(1),
            "translate {translate}"
        );
        let hooked = Core::new(&program, sc).run_collecting_snapshots(&FaultPlan::none(), 1);
        assert_eq!(
            hooked.unwrap_err(),
            SimError::PcOutOfRange(1),
            "translate {translate}"
        );
    }
}

#[test]
fn resumed_runs_match_fresh_runs_with_translation_on_and_off() {
    for k in kernels() {
        for scheme in SCHEMES {
            let spec = RunSpec::new(scheme);
            let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
            let program = &compiled.program;
            let translation = Arc::new(Translation::new(program));
            for translate in [false, true] {
                let mut sc = spec.sim_config();
                sc.translate = translate;
                let core = |snap: Option<&CoreSnapshot>| {
                    let mut core = match snap {
                        Some(s) => Core::from_snapshot(program, s),
                        None => Core::new(program, sc.clone()),
                    };
                    if translate {
                        core.attach_translation(translation.clone());
                    }
                    core
                };
                let what = format!("{}/{scheme} translate={translate}", k.name);
                let (golden, snaps) = core(None)
                    .run_collecting_snapshots(&FaultPlan::none(), INTERVAL)
                    .unwrap();
                assert!(snaps.len() >= 3, "{what}: too few snapshots");
                assert_eq!(
                    core(None).run(&FaultPlan::none()).unwrap(),
                    golden,
                    "{what}"
                );
                let horizon = golden.stats.cycles;
                for snap in [&snaps[0], &snaps[snaps.len() / 2], &snaps[snaps.len() - 1]] {
                    let at = snap.cycle();
                    assert_eq!(
                        core(Some(snap)).run(&FaultPlan::none()).unwrap(),
                        golden,
                        "{what}: fault-free resume from cycle {at}"
                    );
                    for cycle in [at + 1, at + (horizon - at) / 2 + 1] {
                        let plan = strike(cycle, &sc, horizon);
                        assert_eq!(
                            core(Some(snap)).run(&plan),
                            core(None).run(&plan),
                            "{what}: strike at {cycle} resumed from {at}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn guided_runs_match_unguided_outcomes() {
    let mut exits = 0;
    for k in kernels() {
        for scheme in SCHEMES {
            let spec = RunSpec::new(scheme);
            let sc = spec.sim_config();
            let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
            let program = &compiled.program;
            let (golden, snaps) = Core::new(program, sc.clone())
                .run_collecting_snapshots(&FaultPlan::none(), INTERVAL)
                .unwrap();
            let guide = ReplayGuide::new(program, &snaps, &golden.stats, golden.ret);
            let horizon = golden.stats.cycles;
            for eighth in 1..8 {
                let cycle = horizon * eighth / 8;
                let plan = strike(cycle, &sc, horizon);
                let core = || match fork_point(&snaps, cycle) {
                    Some(s) => Core::from_snapshot(program, s),
                    None => Core::new(program, sc.clone()),
                };
                let unguided = core().run(&plan);
                let mut guided_core = core();
                guided_core.attach_replay(&guide);
                let guided = guided_core.run(&plan);
                let what = format!("{}/{scheme} strike at {cycle}", k.name);
                match (&guided, &unguided) {
                    (Ok(g), Ok(u)) if g.replay_saved.is_some() => {
                        // The documented differences of an early exit: the
                        // saved-cycle count and memory maps left empty,
                        // because the convergence proof matched them
                        // against the golden run's.
                        exits += 1;
                        assert!(g.memory.is_empty() && g.ckpt_memory.is_empty(), "{what}");
                        assert_eq!(u.memory, golden.memory, "{what}");
                        assert_eq!(u.ckpt_memory, golden.ckpt_memory, "{what}");
                        let synthesized = SimOutcome {
                            memory: u.memory.clone(),
                            ckpt_memory: u.ckpt_memory.clone(),
                            replay_saved: None,
                            ..g.clone()
                        };
                        assert_eq!(&synthesized, u, "{what}");
                    }
                    _ => assert_eq!(guided, unguided, "{what}"),
                }
            }
        }
    }
    assert!(exits > 0, "no guided run exited early");
}

#[test]
fn first_run_shards_absorb_into_the_whole_campaign() {
    for k in kernels() {
        for scheme in SCHEMES {
            let spec = RunSpec::new(scheme);
            let config = CampaignConfig {
                runs: 12,
                seed: 0x5EED,
                strikes_per_run: 1,
                ..CampaignConfig::default()
            };
            let campaign = |config: &CampaignConfig| {
                fault_campaign_hooked(&k.program, &spec, config, 2, CampaignHook::default())
                    .unwrap()
            };
            let (whole, whole_records, whole_fork) = campaign(&config);
            let mut merged = CampaignReport::default();
            let mut records = Vec::new();
            let (mut hits, mut misses) = (0, 0);
            for (first_run, runs) in [(0, 5), (5, 4), (9, 3)] {
                let (report, recs, fork) = campaign(&CampaignConfig {
                    first_run,
                    runs,
                    ..config.clone()
                });
                assert_eq!(report.runs, runs);
                merged.absorb(&report);
                records.extend(recs);
                hits += fork.hits;
                misses += fork.misses;
            }
            let what = format!("{}/{scheme}", k.name);
            assert_eq!(merged, whole, "{what}: merged report");
            assert_eq!(records, whole_records, "{what}: records");
            assert_eq!(
                (hits, misses),
                (whole_fork.hits, whole_fork.misses),
                "{what}"
            );
        }
    }
}
