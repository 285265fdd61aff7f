//! Sharded campaign execution must be a partition, not an approximation.
//!
//! Every run's fault plan derives from `(seed, global run index)` alone, so
//! executing the index ranges of any contiguous partition as independent
//! shards ([`CampaignConfig::first_run`]) and folding the shard reports
//! back together ([`CampaignReport::absorb`], ascending range order) must
//! reproduce the unsharded campaign bit for bit — report, metrics, strike
//! records, and fork accounting. The distributed coordinator in the bench
//! harness byte-diffs merged fleet reports against single-process runs on
//! the strength of this property.

use proptest::prelude::*;
use turnpike_resilience::{
    fault_campaign_hooked, CampaignConfig, CampaignHook, CampaignReport, ForkStats, RunSpec,
    Scheme, StrikeRecord,
};
use turnpike_workloads::{kernel_by_name, Scale, Suite};

const RUNS: usize = 12;

fn config(runs: usize) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed: 0x5AAD,
        strikes_per_run: 1,
        ..Default::default()
    }
}

/// Turn sorted, deduplicated interior cut points into the contiguous
/// `[start, end)` ranges of a partition of `0..RUNS`.
fn ranges_from_cuts(cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut bounds = vec![0];
    bounds.extend(cuts.iter().copied());
    bounds.push(RUNS);
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

fn run_sharded(
    program: &turnpike_ir::Program,
    spec: &RunSpec,
    ranges: &[(usize, usize)],
    threads: usize,
) -> (CampaignReport, Vec<StrikeRecord>, ForkStats) {
    let mut merged = CampaignReport::default();
    let mut records = Vec::new();
    let mut fork = ForkStats::default();
    for &(start, end) in ranges {
        let shard = CampaignConfig {
            first_run: start,
            ..config(end - start)
        };
        let (report, recs, f) =
            fault_campaign_hooked(program, spec, &shard, threads, CampaignHook::default()).unwrap();
        assert_eq!(report.runs, end - start);
        merged.absorb(&report);
        records.extend(recs);
        fork.hits += f.hits;
        fork.misses += f.misses;
        fork.prefix_cycles_saved += f.prefix_cycles_saved;
        fork.replay_exits += f.replay_exits;
        fork.replay_cycles_saved += f.replay_cycles_saved;
        for (total, n) in fork.replay_refusals.iter_mut().zip(f.replay_refusals) {
            *total += n;
        }
        fork.replay_budget_exhausted += f.replay_budget_exhausted;
        fork.replay_never_matched += f.replay_never_matched;
    }
    (merged, records, fork)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any contiguous partition of the run indices into 1..=8 shards,
    /// merged in range order, matches the unsharded campaign bit for bit —
    /// at every rung of the Fig-21 ladder.
    #[test]
    fn any_partition_merges_to_the_unsharded_report(
        scheme_idx in 0usize..Scheme::LADDER.len(),
        raw_cuts in prop::collection::vec(1usize..RUNS, 0..7),
        threads in 1usize..4,
    ) {
        let mut cuts = raw_cuts;
        cuts.sort_unstable();
        cuts.dedup();
        let ranges = ranges_from_cuts(&cuts);
        prop_assert!(ranges.len() <= 8);

        let program = kernel_by_name(Suite::Cpu2006, "bwaves", Scale::Smoke)
            .expect("bwaves is in the catalog")
            .program;
        let scheme = Scheme::LADDER[scheme_idx];
        // Histograms and prefix snapshots on: the richest metrics surface
        // (bucket merges, fork/replay paths) must survive the shard fold.
        let spec = RunSpec::new(scheme)
            .with_histograms()
            .with_snapshot_interval(Some(64));

        let (whole, whole_records, whole_fork) =
            fault_campaign_hooked(&program, &spec, &config(RUNS), 2, CampaignHook::default()).unwrap();
        let (merged, merged_records, merged_fork) =
            run_sharded(&program, &spec, &ranges, threads);

        prop_assert_eq!(&merged, &whole, "{:?} ranges={:?}", scheme, ranges);
        prop_assert_eq!(&merged_records, &whole_records, "{:?}", scheme);
        prop_assert_eq!(merged_fork, whole_fork, "{:?}", scheme);
    }
}

/// The degenerate partitions (one shard, all-singleton shards) are the
/// boundary cases worth pinning outside the property sweep.
#[test]
fn singleton_and_whole_shards_match() {
    let program = kernel_by_name(Suite::Cpu2006, "hmmer", Scale::Smoke)
        .expect("hmmer is in the catalog")
        .program;
    let spec = RunSpec::new(Scheme::Turnpike).with_histograms();
    let runs = 6;
    let (whole, whole_records, _) =
        fault_campaign_hooked(&program, &spec, &config(runs), 2, CampaignHook::default()).unwrap();

    let singles: Vec<(usize, usize)> = (0..runs).map(|i| (i, i + 1)).collect();
    let (merged, merged_records, _) = run_sharded(&program, &spec, &singles, 1);
    assert_eq!(merged, whole);
    assert_eq!(merged_records, whole_records);

    let (one, one_records, _) = run_sharded(&program, &spec, &[(0, runs)], 2);
    assert_eq!(one, whole);
    assert_eq!(one_records, whole_records);
}
