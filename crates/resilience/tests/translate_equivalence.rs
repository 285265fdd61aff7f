//! Superblock-translated dispatch must be observationally identical to the
//! per-instruction interpreter.
//!
//! The fast path elides work the quiet guard proves is a no-op — it must
//! never change a cycle count, a stat, a stall attribution, or a byte of
//! final memory. These tests pin that across the whole kernel catalog and
//! the scheme ladder, under random fault plans (where translation engages
//! only once every strike has resolved), with snapshot capture at
//! intervals that straddle superblock edges (capture points land
//! mid-block), and with an early-exit replay guide attached (probes run at
//! the top of translated instructions): outcomes, probe census and
//! campaign fork statistics must not depend on the dispatch strategy.

use proptest::prelude::*;
use std::process::Command;
use std::sync::Arc;
use turnpike_compiler::{compile, CompileOutput};
use turnpike_resilience::{fault_campaign_hooked, CampaignConfig, CampaignHook, RunSpec, Scheme};
use turnpike_sim::{
    Core, CoreSnapshot, Fault, FaultKind, FaultPlan, ReplayGuide, SimError, SimOutcome, Translation,
};
use turnpike_workloads::{all_kernels, Scale};

/// A fresh core on `compiled` with translation switched `translate`
/// (sharing a pre-built translation when on, as campaigns do).
fn core<'a>(spec: &RunSpec, compiled: &'a CompileOutput, translate: bool) -> Core<'a> {
    let mut cfg = spec.sim_config();
    cfg.translate = translate;
    let mut core = Core::new(&compiled.program, cfg);
    if translate {
        core.attach_translation(Arc::new(Translation::new(&compiled.program)));
    }
    core
}

/// One strike at `cycle` from proptest's `(parity, reg, bit)`, with the
/// campaign watchdog so a strike that hangs an unprotected region ends as
/// `CycleLimit`.
fn one_strike(spec: &RunSpec, cycle: u64, fault: (bool, u8, u8), horizon: u64) -> FaultPlan {
    let (parity, reg, bit) = fault;
    FaultPlan::new(vec![Fault {
        strike_cycle: cycle,
        detect_latency: spec.sim_config().wcdl.min(5),
        kind: if parity {
            FaultKind::RegisterParity { reg, bit }
        } else {
            FaultKind::Datapath { bit }
        },
    }])
    .with_watchdog(horizon * 8 + 65_536)
}

#[test]
fn translated_golden_path_matches_interpreter_over_catalog() {
    for k in all_kernels(Scale::Smoke) {
        for scheme in std::iter::once(Scheme::Baseline).chain(Scheme::LADDER.iter().copied()) {
            let spec = RunSpec::new(scheme);
            let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
            let golden = |translate| {
                core(&spec, &compiled, translate)
                    .run(&FaultPlan::none())
                    .unwrap()
            };
            let (interp, fast) = (golden(false), golden(true));
            assert_eq!(
                interp, fast,
                "{}/{:?} {scheme}: translated golden run diverges",
                k.name, k.suite
            );
            assert!(interp.stats.insts > 0, "{} ran nothing", k.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strike runs: translation may only engage after the last fault has
    /// fired and resolved, and the handoff back and forth must not disturb
    /// the outcome — stats, stall cycles, recovery counts, final memory.
    #[test]
    fn translated_strike_runs_match_interpreter(
        kernel_idx in 0usize..36,
        scheme_idx in 0usize..8,
        strikes in prop::collection::vec(
            (1u64..30_000, 0u64..8, any::<bool>(), 0u8..24, 0u8..64),
            1..3,
        ),
    ) {
        let k = &all_kernels(Scale::Smoke)[kernel_idx];
        let scheme = Scheme::LADDER[scheme_idx % Scheme::LADDER.len()];
        let spec = RunSpec::new(scheme);
        let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
        let wcdl = spec.sim_config().wcdl;
        let plan = FaultPlan::new(
            strikes
                .iter()
                .map(|&(cycle, lat, parity, reg, bit)| Fault {
                    strike_cycle: cycle,
                    detect_latency: lat.min(wcdl),
                    kind: if parity {
                        FaultKind::RegisterParity { reg, bit }
                    } else {
                        FaultKind::Datapath { bit }
                    },
                })
                .collect(),
        );
        let run = |translate: bool| core(&spec, &compiled, translate).run(&plan).unwrap();
        prop_assert_eq!(run(false), run(true), "{} {}: strike run diverges", k.name, scheme);
    }

    /// Snapshot capture runs at the top of translated instructions too, so
    /// a translated config with an interval — including ones far shorter
    /// than a superblock, so capture points land mid-block — must reproduce
    /// the untranslated run exactly: same outcome, same snapshot cadence,
    /// same captured state. Each snapshot pair is checked by resuming both
    /// (the interpreter's capture resumes interpreted, the translated one
    /// translated) under a strike just after the capture point.
    #[test]
    fn snapshot_intervals_straddling_blocks_are_unaffected(
        kernel_idx in 0usize..36,
        turnpike in any::<bool>(),
        interval in 1u64..400,
        fault in (any::<bool>(), 0u8..24, 0u8..64),
    ) {
        let k = &all_kernels(Scale::Smoke)[kernel_idx];
        let scheme = if turnpike { Scheme::Turnpike } else { Scheme::Baseline };
        let spec = RunSpec::new(scheme);
        let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
        let run = |translate: bool| {
            core(&spec, &compiled, translate)
                .run_collecting_snapshots(&FaultPlan::none(), interval)
                .unwrap()
        };
        let (out_i, snaps_i) = run(false);
        let (out_t, snaps_t) = run(true);
        prop_assert_eq!(&out_i, &out_t, "{}: snapshot run outcome diverges", k.name);
        prop_assert_eq!(snaps_i.len(), snaps_t.len(), "{}: snapshot cadence diverges", k.name);
        let resume = |snap: &CoreSnapshot, plan: &FaultPlan| {
            Core::from_snapshot(&compiled.program, snap).run(plan)
        };
        let horizon = out_i.stats.cycles;
        for (a, b) in snaps_i.iter().zip(&snaps_t) {
            prop_assert_eq!(a.cycle(), b.cycle(), "{}: capture cycles diverge", k.name);
            let plan = one_strike(&spec, a.cycle() + 1, fault, horizon);
            prop_assert_eq!(
                resume(a, &plan),
                resume(b, &plan),
                "{}: strike resumed from cycle {} diverges",
                k.name,
                a.cycle()
            );
        }
        for (a, b) in snaps_i.iter().zip(&snaps_t).take(1).chain(
            snaps_i.iter().zip(&snaps_t).last(),
        ) {
            let none = FaultPlan::none();
            prop_assert_eq!(resume(a, &none), resume(b, &none), "{}: resumed outcomes diverge", k.name);
        }
    }

    /// Guided strike runs: early-exit probes run at the top of translated
    /// instructions exactly as in the interpreter, so the outcome — exit or
    /// not, synthesized or simulated — and the probe census (which
    /// `SimOutcome`'s equality ignores) agree with translation on and off.
    #[test]
    fn guided_strike_runs_match_interpreter(
        kernel_idx in 0usize..36,
        scheme_idx in 0usize..9,
        interval in 16u64..400,
        permille in 0u64..1000,
        fault in (any::<bool>(), 0u8..24, 0u8..64),
    ) {
        let k = &all_kernels(Scale::Smoke)[kernel_idx];
        let scheme = Scheme::LADDER[scheme_idx % Scheme::LADDER.len()];
        let spec = RunSpec::new(scheme);
        let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
        let run = |translate: bool| -> Result<SimOutcome, SimError> {
            let (golden, snaps) = core(&spec, &compiled, translate)
                .run_collecting_snapshots(&FaultPlan::none(), interval)?;
            let guide = ReplayGuide::new(&compiled.program, &snaps, &golden.stats, golden.ret);
            let horizon = golden.stats.cycles;
            let cycle = 1 + horizon * permille / 1000;
            let plan = one_strike(&spec, cycle, fault, horizon);
            let mut strike = match snaps.iter().take_while(|s| s.cycle() < cycle).last() {
                Some(snap) => Core::from_snapshot(&compiled.program, snap),
                None => core(&spec, &compiled, translate),
            };
            strike.attach_replay(&guide);
            strike.run(&plan)
        };
        let (interp, fast) = (run(false), run(true));
        if let (Ok(i), Ok(f)) = (&interp, &fast) {
            prop_assert_eq!(
                i.replay_census,
                f.replay_census,
                "{} {}: probe census diverges",
                k.name,
                scheme
            );
        }
        prop_assert_eq!(interp, fast, "{} {}: guided strike run diverges", k.name, scheme);
    }
}

/// Campaigns over the six template kernels at every ladder rung, each as
/// one line: the rung, the kernel, its `ForkStats` (hits, early exits,
/// refusal census) and its report.
fn ladder_campaigns() -> Vec<String> {
    let names = ["bwaves", "mcf", "gcc", "hmmer", "soplex", "fft"];
    let config = CampaignConfig {
        runs: 48,
        early_exit: true,
        ..CampaignConfig::default()
    };
    let mut lines = Vec::new();
    for k in all_kernels(Scale::Smoke)
        .iter()
        .filter(|k| names.contains(&k.name))
    {
        for scheme in Scheme::LADDER {
            let (report, _, fork) = fault_campaign_hooked(
                &k.program,
                &RunSpec::new(scheme),
                &config,
                1,
                CampaignHook::default(),
            )
            .unwrap();
            lines.push(format!("{scheme} {} {fork:?} {report:?}", k.name));
        }
    }
    lines
}

/// Campaign fork statistics — forks, early exits and every refusal count —
/// are equal with translation on and off across the ladder. The process
/// reads its translation default once, so the other setting runs in a
/// child process of this test binary (`TURNPIKE_TRANSLATE` flipped).
#[test]
fn campaign_fork_stats_are_translation_invariant() {
    const CHILD: &str = "TRANSLATE_EQUIVALENCE_CHILD";
    let translate = RunSpec::new(Scheme::Turnpike).sim_config().translate;
    let lines = ladder_campaigns();
    if std::env::var_os(CHILD).is_some() {
        println!("{CHILD} translate={translate}");
        for line in &lines {
            println!("{CHILD} {line}");
        }
        return;
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "campaign_fork_stats_are_translation_invariant",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(CHILD, "1")
        .env("TURNPIKE_TRANSLATE", if translate { "0" } else { "1" })
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The harness may print the test's name on the same line as the
    // child's first output line.
    let mut child = stdout
        .lines()
        .filter_map(|l| l.split_once(CHILD).map(|(_, rest)| rest.trim_start()));
    assert_eq!(
        child.next(),
        Some(format!("translate={}", !translate).as_str())
    );
    let child: Vec<&str> = child.collect();
    assert_eq!(child.len(), lines.len(), "campaign count");
    for (ours, theirs) in lines.iter().zip(child) {
        assert_eq!(ours, theirs, "translation changed a campaign");
    }
    assert!(
        lines.iter().any(|l| !l.contains("replay_exits: 0,")),
        "no campaign exercised early exit"
    );
}
