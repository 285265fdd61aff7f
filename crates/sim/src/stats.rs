//! Simulation statistics.

use crate::clq::ClqStats;
use turnpike_metrics::{Histogram, Json};

/// The simulator's latency distributions, recorded when
/// [`SimConfig::histograms`](crate::SimConfig::histograms) is on.
///
/// The bundle lives behind an `Option<Box<_>>` on both the core and
/// [`SimStats`], so disabled runs carry a null pointer and every recording
/// site is one `None` check. [`SimStats::to_metrics`] projects the bundle
/// into the [`turnpike_metrics::Hist`] registry keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimHists {
    /// Cycles quarantined stores spent in the gated SB before draining.
    pub sb_residency: Histogram,
    /// Region start → verification latency.
    pub verify_latency: Histogram,
    /// Strike → detection latency (sensor exact; parity attributed to the
    /// most recent strike).
    pub detect_latency: Histogram,
    /// Cycles charged per recovery (flush + recovery block).
    pub recovery_penalty: Histogram,
}

/// Cycle accounting by stall cause plus event counters for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles (including the verification/drain tail).
    pub cycles: u64,
    /// Dynamic instructions committed (recovery re-execution included).
    pub insts: u64,
    /// Cycles lost waiting for a free store buffer slot (structural hazard).
    pub stall_sb_full: u64,
    /// Cycles lost waiting on register operands (data hazards).
    pub stall_data_hazard: u64,
    /// Data-hazard cycles where the stalled instruction was a checkpoint.
    pub stall_ckpt_hazard: u64,
    /// Cycles lost to the single memory port.
    pub stall_mem_port: u64,
    /// Cycles lost waiting for RBB room at a boundary.
    pub stall_rbb_full: u64,
    /// Cycles spent in recovery (flush + recovery block execution).
    pub recovery_cycles: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic regular stores.
    pub stores: u64,
    /// Dynamic checkpoint stores.
    pub ckpts: u64,
    /// Regular stores fast-released via the WAR-free path.
    pub war_free_released: u64,
    /// Checkpoints fast-released via coloring.
    pub colored_released: u64,
    /// Stores (regular + checkpoint) quarantined in the SB.
    pub quarantined: u64,
    /// Quarantined stores that coalesced into an existing SB entry.
    pub sb_coalesced: u64,
    /// SB entries discarded (squashed) by error recovery.
    pub sb_discarded: u64,
    /// Region boundaries committed.
    pub boundaries: u64,
    /// Errors detected (sensor or parity).
    pub detections: u64,
    /// Detections raised by register parity / hardened-path checks on
    /// access (before the acoustic sensor reported the strike).
    pub parity_detections: u64,
    /// Detections raised by the acoustic sensor (WCDL-bounded).
    pub sensor_detections: u64,
    /// Recoveries executed.
    pub recoveries: u64,
    /// Average dynamic instructions per region (Fig 26).
    pub avg_region_insts: f64,
    /// CLQ statistics (Figs 14/15/24/25).
    pub clq: ClqStats,
    /// (L1 hits, L1 misses, L2 hits, L2 misses).
    pub cache: (u64, u64, u64, u64),
    /// Peak SB occupancy.
    pub sb_peak: usize,
    /// Sum of dynamic instruction counts over completed regions — the
    /// numerator behind [`avg_region_insts`](Self::avg_region_insts),
    /// carried separately so the campaign early-exit replay can synthesize
    /// the average exactly. Excluded from [`to_json`](Self::to_json) and
    /// [`to_metrics`](Self::to_metrics).
    pub rbb_insts_sum: u64,
    /// Completed-region count — the denominator behind
    /// [`avg_region_insts`](Self::avg_region_insts); same carry role and
    /// exclusions as [`rbb_insts_sum`](Self::rbb_insts_sum).
    pub rbb_completed: u64,
    /// Latency distributions; `None` unless the run enabled
    /// [`SimConfig::histograms`](crate::SimConfig::histograms).
    pub hists: Option<Box<SimHists>>,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Fraction of dynamic instructions that are checkpoints (Fig 4).
    pub fn ckpt_ratio(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.ckpts as f64 / self.insts as f64
        }
    }

    /// Total dynamic stores including checkpoints.
    pub fn all_stores(&self) -> u64 {
        self.stores + self.ckpts
    }

    /// Fraction of all stores released without verification
    /// (WAR-free + colored).
    pub fn bypass_ratio(&self) -> f64 {
        let all = self.all_stores();
        if all == 0 {
            0.0
        } else {
            (self.war_free_released + self.colored_released) as f64 / all as f64
        }
    }

    /// Export the run's totals as a metrics registry (`sim.*` keys).
    ///
    /// `SimStats` stays the dense accumulator the pipeline hot loop bumps;
    /// this projection is how everything downstream (drivers, campaigns,
    /// figure generators) reads the numbers. The derived-ratio helpers on
    /// [`turnpike_metrics::MetricSet`] use the same formulas as the ones
    /// here, so either view reports identical values.
    pub fn to_metrics(&self) -> turnpike_metrics::MetricSet {
        use turnpike_metrics::{Counter, Gauge, Hist, MetricSet};
        let mut m = MetricSet::new();
        m.add(Counter::Cycles, self.cycles);
        m.add(Counter::Insts, self.insts);
        m.add(Counter::StallSbFull, self.stall_sb_full);
        m.add(Counter::StallDataHazard, self.stall_data_hazard);
        m.add(Counter::StallCkptHazard, self.stall_ckpt_hazard);
        m.add(Counter::StallMemPort, self.stall_mem_port);
        m.add(Counter::StallRbbFull, self.stall_rbb_full);
        m.add(Counter::RecoveryCycles, self.recovery_cycles);
        m.add(Counter::Loads, self.loads);
        m.add(Counter::Stores, self.stores);
        m.add(Counter::Ckpts, self.ckpts);
        m.add(Counter::WarFreeReleased, self.war_free_released);
        m.add(Counter::ColoredReleased, self.colored_released);
        m.add(Counter::Quarantined, self.quarantined);
        m.add(Counter::SbCoalesced, self.sb_coalesced);
        m.add(Counter::SbDiscarded, self.sb_discarded);
        m.add(Counter::RegionsCommitted, self.boundaries);
        m.add(Counter::Detections, self.detections);
        m.add(Counter::ParityDetections, self.parity_detections);
        m.add(Counter::SensorDetections, self.sensor_detections);
        m.add(Counter::Recoveries, self.recoveries);
        m.record_peak(Counter::SbPeak, self.sb_peak as u64);
        m.add(Counter::ClqStoresChecked, self.clq.stores_checked);
        m.add(Counter::ClqWarFree, self.clq.war_free);
        m.add(Counter::ClqLoadsRecorded, self.clq.loads_recorded);
        m.add(Counter::ClqOverflows, self.clq.overflows);
        m.add(Counter::ClqOccupancySum, self.clq.occupancy_sum);
        m.add(Counter::ClqOccupancySamples, self.clq.occupancy_samples);
        m.record_peak(Counter::ClqPeakEntries, u64::from(self.clq.peak_entries));
        let (l1h, l1m, l2h, l2m) = self.cache;
        m.add(Counter::L1Hits, l1h);
        m.add(Counter::L1Misses, l1m);
        m.add(Counter::L2Hits, l2h);
        m.add(Counter::L2Misses, l2m);
        m.set_gauge(Gauge::AvgRegionInsts, self.avg_region_insts);
        if let Some(h) = &self.hists {
            m.set_hist(Hist::SbResidency, h.sb_residency.clone());
            m.set_hist(Hist::VerifyLatency, h.verify_latency.clone());
            m.set_hist(Hist::DetectLatency, h.detect_latency.clone());
            m.set_hist(Hist::RecoveryPenalty, h.recovery_penalty.clone());
        }
        m
    }

    /// The run totals as one JSON object with a fixed key order — the
    /// serialization the serving layer's artifact store persists for `run`
    /// jobs (compact rendering). Key order is part of the schema:
    /// byte-identical replay across processes is what makes store entries
    /// diffable against freshly computed results. Latency histograms are
    /// intentionally omitted; they live in the metrics registry, and the
    /// store payload is the architectural result.
    pub fn to_json(&self) -> Json {
        let (l1h, l1m, l2h, l2m) = self.cache;
        let clq = &self.clq;
        Json::obj([
            ("cycles", self.cycles.into()),
            ("insts", self.insts.into()),
            ("ipc", Json::fixed(self.ipc(), 6)),
            ("stall_sb_full", self.stall_sb_full.into()),
            ("stall_data_hazard", self.stall_data_hazard.into()),
            ("stall_ckpt_hazard", self.stall_ckpt_hazard.into()),
            ("stall_mem_port", self.stall_mem_port.into()),
            ("stall_rbb_full", self.stall_rbb_full.into()),
            ("recovery_cycles", self.recovery_cycles.into()),
            ("loads", self.loads.into()),
            ("stores", self.stores.into()),
            ("ckpts", self.ckpts.into()),
            ("war_free_released", self.war_free_released.into()),
            ("colored_released", self.colored_released.into()),
            ("quarantined", self.quarantined.into()),
            ("sb_coalesced", self.sb_coalesced.into()),
            ("sb_discarded", self.sb_discarded.into()),
            ("boundaries", self.boundaries.into()),
            ("detections", self.detections.into()),
            ("parity_detections", self.parity_detections.into()),
            ("sensor_detections", self.sensor_detections.into()),
            ("recoveries", self.recoveries.into()),
            ("avg_region_insts", Json::fixed(self.avg_region_insts, 6)),
            (
                "clq",
                Json::obj([
                    ("stores_checked", clq.stores_checked.into()),
                    ("war_free", clq.war_free.into()),
                    ("loads_recorded", clq.loads_recorded.into()),
                    ("overflows", clq.overflows.into()),
                    ("peak_entries", clq.peak_entries.into()),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("l1_hits", l1h.into()),
                    ("l1_misses", l1m.into()),
                    ("l2_hits", l2h.into()),
                    ("l2_misses", l2m.into()),
                ]),
            ),
            ("sb_peak", self.sb_peak.into()),
        ])
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles {} insts {} (ipc {:.2})",
            self.cycles,
            self.insts,
            self.ipc()
        )?;
        writeln!(
            f,
            "stalls: sb_full {} data {} (ckpt {}) mem_port {} rbb {} recovery {}",
            self.stall_sb_full,
            self.stall_data_hazard,
            self.stall_ckpt_hazard,
            self.stall_mem_port,
            self.stall_rbb_full,
            self.recovery_cycles
        )?;
        writeln!(
            f,
            "mem: {} loads, {} stores, {} ckpts; bypass {:.1}% (war-free {}, colored {}), quarantined {}",
            self.loads,
            self.stores,
            self.ckpts,
            self.bypass_ratio() * 100.0,
            self.war_free_released,
            self.colored_released,
            self.quarantined
        )?;
        write!(
            f,
            "regions: {} boundaries, {:.1} insts/region; {} detections, {} recoveries",
            self.boundaries, self.avg_region_insts, self.detections, self.recoveries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = SimStats {
            cycles: 100,
            insts: 150,
            ckpts: 30,
            stores: 30,
            war_free_released: 15,
            colored_released: 15,
            ..SimStats::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.ckpt_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(s.all_stores(), 60);
        assert!((s.bypass_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_projection_matches_fields() {
        use turnpike_metrics::{Counter, Gauge};
        let s = SimStats {
            cycles: 100,
            insts: 150,
            ckpts: 30,
            stores: 30,
            war_free_released: 15,
            colored_released: 15,
            sb_peak: 3,
            avg_region_insts: 12.5,
            cache: (7, 1, 1, 0),
            clq: ClqStats {
                stores_checked: 20,
                war_free: 15,
                occupancy_sum: 8,
                occupancy_samples: 4,
                peak_entries: 2,
                ..ClqStats::default()
            },
            ..SimStats::default()
        };
        let m = s.to_metrics();
        assert_eq!(m.counter(Counter::Cycles), s.cycles);
        assert_eq!(m.counter(Counter::SbPeak), s.sb_peak as u64);
        assert_eq!(m.counter(Counter::L1Hits), 7);
        assert_eq!(m.gauge(Gauge::AvgRegionInsts), s.avg_region_insts);
        // The registry's derived helpers agree with the fixed-field ones.
        assert_eq!(m.ipc(), s.ipc());
        assert_eq!(m.ckpt_ratio(), s.ckpt_ratio());
        assert_eq!(m.all_stores(), s.all_stores());
        assert_eq!(m.bypass_ratio(), s.bypass_ratio());
        assert_eq!(m.clq_avg_entries(), s.clq.avg_entries());
        assert_eq!(m.clq_war_free_ratio(), s.clq.war_free_ratio());
    }

    #[test]
    fn zero_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.ckpt_ratio(), 0.0);
        assert_eq!(s.bypass_ratio(), 0.0);
        assert!(s.to_string().contains("cycles 0"));
    }

    #[test]
    fn json_is_single_line_with_stable_keys() {
        let s = SimStats {
            cycles: 100,
            insts: 150,
            cache: (7, 1, 1, 0),
            ..SimStats::default()
        };
        let j = s.to_json().to_string();
        assert!(!j.contains('\n'), "artifact payloads are one line");
        assert!(j.starts_with("{\"cycles\":100,\"insts\":150,\"ipc\":1.500000,"));
        assert!(j.contains("\"clq\":{\"stores_checked\":0,"));
        assert!(j.contains("\"cache\":{\"l1_hits\":7,\"l1_misses\":1,"));
        assert!(j.ends_with("\"sb_peak\":0}"));
        // Byte-stable across calls: the store diffs entries byte-for-byte.
        assert_eq!(j, s.to_json().to_string());
    }
}
