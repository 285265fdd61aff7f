//! Criterion micro-benchmarks: simulator throughput per scheme.
//!
//! These measure the *reproduction's* performance (host-seconds per
//! simulated kernel), complementing the `reproduce` binary which measures
//! the *simulated* cycles the paper reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use turnpike_resilience::{run_kernel, RunSpec, Scheme};
use turnpike_workloads::{kernel_by_name, Scale, Suite};

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    for (suite, name) in [
        (Suite::Cpu2006, "bwaves"),
        (Suite::Cpu2006, "hmmer"),
        (Suite::Cpu2017, "leela"),
    ] {
        let kernel = kernel_by_name(suite, name, Scale::Smoke).expect("kernel exists");
        for scheme in [Scheme::Baseline, Scheme::Turnstile, Scheme::Turnpike] {
            group.bench_with_input(
                BenchmarkId::new(format!("{scheme:?}"), name),
                &kernel,
                |b, k| {
                    b.iter(|| run_kernel(&k.program, &RunSpec::new(scheme)).expect("runs"));
                },
            );
        }
    }
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    use turnpike_resilience::{fault_campaign_hooked, CampaignConfig, CampaignHook};
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    let kernel = kernel_by_name(Suite::Cpu2006, "leslie3d", Scale::Smoke).expect("kernel exists");
    group.bench_function("turnpike_5_strikes", |b| {
        b.iter(|| {
            fault_campaign_hooked(
                &kernel.program,
                &RunSpec::new(Scheme::Turnpike),
                &CampaignConfig {
                    runs: 5,
                    seed: 1,
                    strikes_per_run: 1,
                    ..Default::default()
                },
                1,
                CampaignHook::default(),
            )
            .expect("campaign runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schemes, bench_campaign);
criterion_main!(benches);
