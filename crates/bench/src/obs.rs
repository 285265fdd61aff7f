//! Harness observability: timeline export and histogram summaries.
//!
//! Backs `reproduce trace` (a Perfetto-loadable Chrome trace or raw JSONL
//! event stream of one kernel under one scheme) and the histogram summary
//! block of `BENCH_reproduce.json`. Trace runs are deterministic: for a
//! resilient scheme one datapath strike is injected at 25% of the kernel's
//! fault-free cycle count, so every export shows a full
//! strike→detection→recovery arc at a reproducible spot.

use turnpike_metrics::{Hist, Json, MetricSet};
use turnpike_resilience::{
    fault_campaign_hooked, CampaignConfig, CampaignHook, ForkStats, RunError, RunSpec, Scheme,
};
use turnpike_sim::{shared_sink, ChromeTrace, Core, Fault, FaultKind, FaultPlan, JsonlSink};
use turnpike_workloads::{all_kernels, Kernel, Scale};

/// Trace output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev).
    Chrome,
    /// One [`turnpike_sim::TraceEvent`] per line, stable schema.
    Jsonl,
}

impl TraceFormat {
    /// Parse a CLI name (`chrome` | `jsonl`).
    pub fn parse(name: &str) -> Option<TraceFormat> {
        match name {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }
}

/// Find a kernel by name across all suites.
pub fn find_kernel(name: &str, scale: Scale) -> Option<Kernel> {
    all_kernels(scale).into_iter().find(|k| k.name == name)
}

/// The deterministic fault plan of a trace run: one datapath strike at 25%
/// of the fault-free cycle count, detected within `min(wcdl, 7)` cycles.
/// Baseline (non-resilient) schemes trace fault-free.
fn trace_plan(spec: &RunSpec, fault_free_cycles: u64) -> FaultPlan {
    if !spec.scheme.is_resilient() {
        return FaultPlan::none();
    }
    FaultPlan::new(vec![Fault {
        strike_cycle: (fault_free_cycles / 4).max(1),
        detect_latency: spec.wcdl.min(7),
        kind: FaultKind::Datapath { bit: 21 },
    }])
}

/// Trace `kernel` under `spec` and render the event stream in `format`.
///
/// # Errors
///
/// Propagates compile/simulate failures.
pub fn export_trace(
    kernel: &Kernel,
    spec: &RunSpec,
    format: TraceFormat,
) -> Result<String, RunError> {
    let compiled = turnpike_compiler::compile(&kernel.program, &spec.compiler_config())?;
    let sc = spec.sim_config();
    // Fault-free probe run fixes the strike point.
    let horizon = Core::new(&compiled.program, sc.clone())
        .run(&FaultPlan::none())?
        .stats
        .cycles;
    let plan = trace_plan(spec, horizon);
    match format {
        TraceFormat::Chrome => {
            let sink = shared_sink(ChromeTrace::new());
            let mut core = Core::new(&compiled.program, sc);
            core.attach_sink(sink.clone());
            core.run(&plan)?;
            let rendered = sink.borrow().render();
            Ok(rendered)
        }
        TraceFormat::Jsonl => {
            let sink = shared_sink(JsonlSink::new(Vec::new()));
            let mut core = Core::new(&compiled.program, sc);
            core.attach_sink(sink.clone());
            core.run(&plan)?;
            // The run consumed the core, releasing its sink handle.
            let Ok(js) = std::rc::Rc::try_unwrap(sink) else {
                unreachable!("core released its sink handle")
            };
            let js = js.into_inner();
            Ok(String::from_utf8(js.into_inner()).expect("trace events are ASCII"))
        }
    }
}

/// Deterministic fault-injection probe feeding the detection-latency and
/// recovery-penalty histograms of the `BENCH_reproduce.json` summary: the
/// figure grid is fault-free, so those two distributions need strikes. One
/// smoke kernel, full Turnpike, 8 seeded single-strike runs. Also returns
/// the campaign's [`ForkStats`] — the `"fork"` block of
/// `BENCH_reproduce.json` — showing how many strike runs forked from
/// fault-free prefix snapshots instead of re-simulating from scratch.
///
/// # Errors
///
/// Propagates compile/simulate failures.
pub fn fault_probe_metrics(threads: usize) -> Result<(MetricSet, ForkStats), RunError> {
    let kernel = find_kernel("bwaves", Scale::Smoke).expect("bwaves is in the catalog");
    let spec = RunSpec::new(Scheme::Turnpike).with_histograms();
    let cfg = CampaignConfig {
        runs: 8,
        seed: 0xB0B5,
        strikes_per_run: 1,
        ..Default::default()
    };
    let (report, _records, fork) = fault_campaign_hooked(
        &kernel.program,
        &spec,
        &cfg,
        threads.max(1),
        CampaignHook::default(),
    )?;
    Ok((report.metrics, fork))
}

/// The histogram keys summarized in `BENCH_reproduce.json`, in output order.
const SUMMARY_KEYS: [Hist; 6] = [
    Hist::SbResidency,
    Hist::VerifyLatency,
    Hist::DetectLatency,
    Hist::RecoveryPenalty,
    Hist::CompileMicros,
    Hist::SimMicros,
];

/// The registry's histograms as the `"histograms"` object of
/// `BENCH_reproduce.json`: per key, sample count, p50, p99, and max.
/// Keys with no samples are omitted.
pub fn hist_summary_json(m: &MetricSet) -> Json {
    Json::obj(SUMMARY_KEYS.into_iter().filter_map(|key| {
        let h = m.hist(key)?;
        let summary = Json::obj([
            ("count", Json::from(h.count())),
            ("p50", h.quantile(0.50).into()),
            ("p99", h.quantile(0.99).into()),
            ("max", h.max().into()),
        ]);
        Some((key.name(), summary))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec::new(Scheme::Turnpike)
    }

    #[test]
    fn chrome_trace_loads_for_every_ladder_scheme() {
        let k = find_kernel("bwaves", Scale::Smoke).unwrap();
        for scheme in Scheme::LADDER {
            let json = export_trace(&k, &RunSpec::new(scheme), TraceFormat::Chrome).unwrap();
            assert!(json.starts_with("{\"traceEvents\":["), "{scheme}");
            assert!(json.ends_with("]}\n") || json.ends_with("]}"), "{scheme}");
            // The injected strike shows up as a detection/recovery arc.
            // Under the adaptive rung the fixed strike may land in an
            // unprotected region, where it is silently absorbed by design.
            assert!(json.contains("\"strike\""), "{scheme}: no strike slice");
            if scheme != Scheme::Adaptive {
                assert!(json.contains("\"recovery\""), "{scheme}: no recovery");
            }
        }
    }

    #[test]
    fn jsonl_trace_is_deterministic() {
        let k = find_kernel("hmmer", Scale::Smoke).unwrap();
        let a = export_trace(&k, &spec(), TraceFormat::Jsonl).unwrap();
        let b = export_trace(&k, &spec(), TraceFormat::Jsonl).unwrap();
        assert_eq!(a, b);
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(a.contains("\"kind\":\"strike\""));
    }

    #[test]
    fn fault_probe_fills_detection_histograms() {
        let (m, fork) = fault_probe_metrics(2).unwrap();
        assert!(m.hist(Hist::DetectLatency).unwrap().count() >= 8);
        assert!(m.hist(Hist::RecoveryPenalty).unwrap().count() >= 8);
        // Every injected run is accounted as a fork hit or a miss.
        assert_eq!(fork.hits + fork.misses, 8);
        let json = hist_summary_json(&m).to_string();
        assert!(json.contains("\"sim.hist.detect_latency_cycles\""));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn summary_omits_empty_histograms() {
        assert_eq!(hist_summary_json(&MetricSet::new()), Json::Obj(Vec::new()));
    }

    #[test]
    fn format_and_kernel_lookup() {
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert!(find_kernel("bwaves", Scale::Smoke).is_some());
        assert!(find_kernel("not-a-kernel", Scale::Smoke).is_none());
    }
}
