//! Stress the full stack with generated random kernels: every seed, under
//! every scheme, must match the interpreter and survive fault injection.

use std::collections::BTreeMap;
use turnpike::compiler::SPILL_BASE;
use turnpike::ir::interp;
use turnpike::ir::Program;
use turnpike::resilience::{
    fault_campaign_hooked, run_kernel, CampaignConfig, CampaignHook, CampaignReport, RunError,
    RunSpec, Scheme,
};
use turnpike::workloads::{generate, GeneratorConfig};

/// A serial campaign with an inert hook, reporting only the aggregate.
fn campaign(
    program: &Program,
    spec: &RunSpec,
    config: &CampaignConfig,
) -> Result<CampaignReport, RunError> {
    fault_campaign_hooked(program, spec, config, 1, CampaignHook::default())
        .map(|(report, _records, _fork)| report)
}

fn data_only(mem: &BTreeMap<u64, i64>) -> BTreeMap<u64, i64> {
    mem.iter()
        .filter(|(a, _)| **a < SPILL_BASE)
        .map(|(a, v)| (*a, *v))
        .collect()
}

#[test]
fn generated_kernels_are_equivalent_under_all_schemes() {
    for seed in 0..10u64 {
        let cfg = GeneratorConfig {
            loops: 1 + (seed % 3) as usize,
            trip: 20 + (seed * 7 % 30) as i64,
            body_ops: 8 + (seed % 10) as usize,
            store_density: 0.1 + (seed % 4) as f64 * 0.15,
            load_density: 0.25,
            accumulators: 2 + (seed % 3) as usize,
            data_words: 32,
        };
        let p = generate(seed, &cfg);
        let golden = interp::golden(&p).unwrap();
        for scheme in [
            Scheme::Baseline,
            Scheme::Turnstile,
            Scheme::FastRelease,
            Scheme::Turnpike,
        ] {
            let run = run_kernel(&p, &RunSpec::new(scheme))
                .unwrap_or_else(|e| panic!("seed {seed} {scheme:?}: {e}"));
            assert_eq!(run.outcome.ret, golden.0, "seed {seed} {scheme:?}");
            assert_eq!(
                data_only(&run.outcome.memory.to_btree()),
                data_only(&golden.1),
                "seed {seed} {scheme:?}"
            );
        }
    }
}

#[test]
fn generated_kernels_survive_fault_campaigns() {
    for seed in 0..6u64 {
        let p = generate(seed, &GeneratorConfig::default());
        let report = campaign(
            &p,
            &RunSpec::new(Scheme::Turnpike),
            &CampaignConfig {
                runs: 6,
                seed: seed * 31 + 1,
                strikes_per_run: 1,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.sdc_free(), "seed {seed}: {report:?}");
    }
}

#[test]
fn store_density_extremes_compile_under_tight_sb() {
    for density in [0.0, 0.5, 0.9] {
        let cfg = GeneratorConfig {
            store_density: density,
            ..GeneratorConfig::default()
        };
        let p = generate(42, &cfg);
        for sb in [2u32, 4] {
            let run = run_kernel(&p, &RunSpec::new(Scheme::Turnstile).with_sb(sb));
            assert!(run.is_ok(), "density {density} SB {sb}: {run:?}");
        }
    }
}
