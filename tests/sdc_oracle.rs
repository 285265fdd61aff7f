//! A positive SDC oracle for fault campaigns.
//!
//! The campaign decides "silent data corruption" by comparing each strike
//! run's final state with the golden *simulated* run, after forking from a
//! snapshot and possibly exiting early. This test decides it without any of
//! that: every run of an Adaptive-rung or unprotected (Baseline) campaign
//! is re-simulated from scratch (no fork, no replay guide) under the
//! campaign's own fault plan, and its return value and data memory are
//! compared with the IR interpreter's fault-free result, which shares no
//! code with the simulator or the campaign fold. The two verdicts must
//! agree run by run, and the SDC counts are pinned. Some SDC runs return
//! the golden value, so a verdict that ignores memory cannot pass.

use std::collections::BTreeMap;
use turnpike::compiler::{compile, SPILL_BASE};
use turnpike::ir::interp;
use turnpike::resilience::{
    fault_campaign_hooked, CampaignConfig, CampaignHook, RunSpec, Scheme, StrikeOutcome,
};
use turnpike::sim::{Core, FaultPlan, SimError};
use turnpike::workloads::{all_kernels, Scale};

/// Memory with spill slots masked out (they are an artifact of register
/// allocation, not program semantics).
fn data_only(mem: BTreeMap<u64, i64>) -> BTreeMap<u64, i64> {
    mem.into_iter().filter(|&(a, _)| a < SPILL_BASE).collect()
}

/// The oracle's verdict on one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Clean,
    Sdc,
    Hang,
}

/// Run 48-run campaigns of `scheme` on six smoke kernels, check every
/// run's campaign verdict against the oracle's, and return the SDC count
/// and how many of those SDC runs returned the golden value.
fn oracle_sdc_counts(scheme: Scheme) -> (usize, usize) {
    const RUNS: usize = 48;
    let spec = RunSpec::new(scheme);
    let sc = spec.sim_config();
    let all = all_kernels(Scale::Smoke);
    let (mut sdc, mut sdc_with_golden_ret) = (0, 0);
    for (i, name) in ["bwaves", "mcf", "gcc", "hmmer", "soplex", "fft"]
        .iter()
        .enumerate()
    {
        let k = all
            .iter()
            .find(|k| k.name == *name)
            .expect("catalog kernel");
        let config = CampaignConfig {
            runs: RUNS,
            seed: 0x5dc + i as u64,
            ..CampaignConfig::default()
        };
        let (report, records, _) =
            fault_campaign_hooked(&k.program, &spec, &config, 1, CampaignHook::default()).unwrap();
        let (golden_ret, golden_mem) = interp::golden(&k.program).unwrap();
        let golden_mem = data_only(golden_mem);
        let program = compile(&k.program, &spec.compiler_config())
            .unwrap()
            .program;
        let horizon = Core::new(&program, sc.clone())
            .run(&FaultPlan::none())
            .unwrap()
            .stats
            .cycles
            .max(2);
        // Single-strike campaign: one record per run, in run order.
        assert_eq!(records.len(), RUNS, "{name}");
        for (run, record) in records.iter().enumerate() {
            assert_eq!(record.run, run);
            let plan = config.run_plan(&spec, run, horizon);
            let oracle = match Core::new(&program, sc.clone()).run(&plan) {
                Ok(out) => {
                    let corrupt =
                        out.ret != golden_ret || data_only(out.memory.to_btree()) != golden_mem;
                    if corrupt && out.ret == golden_ret {
                        sdc_with_golden_ret += 1;
                    }
                    if corrupt {
                        Verdict::Sdc
                    } else {
                        Verdict::Clean
                    }
                }
                Err(SimError::CycleLimit(_)) => Verdict::Hang,
                Err(e) => panic!("{name} run {run}: {e}"),
            };
            let campaign = match record.outcome {
                StrikeOutcome::Sdc => Verdict::Sdc,
                StrikeOutcome::Hang => Verdict::Hang,
                StrikeOutcome::Recovered | StrikeOutcome::PostCompletion => Verdict::Clean,
            };
            assert_eq!(campaign, oracle, "{name} run {run}: {plan:?}");
            sdc += usize::from(oracle == Verdict::Sdc);
        }
        assert_eq!(
            report.sdc,
            records
                .iter()
                .filter(|r| r.outcome == StrikeOutcome::Sdc)
                .count(),
            "{name}"
        );
    }
    (sdc, sdc_with_golden_ret)
}

#[test]
fn adaptive_campaign_sdc_verdicts_match_an_interpreter_oracle() {
    // Measured: 35 SDC runs, 33 of them with the golden return value.
    assert_eq!(oracle_sdc_counts(Scheme::Adaptive), (35, 33));
}

#[test]
fn baseline_campaign_sdc_verdicts_match_an_interpreter_oracle() {
    // The unprotected rung: every strike that corrupts state escapes.
    // Measured: 135 SDC runs, 82 of them with the golden return value.
    assert_eq!(oracle_sdc_counts(Scheme::Baseline), (135, 82));
}
