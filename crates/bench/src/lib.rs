//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! Each `figN`/`table1` function produces a [`Table`] whose rows mirror the
//! series the paper plots; the `reproduce` binary prints them (optionally as
//! JSON). The numbers are produced by the same public APIs a downstream user
//! would call — nothing here bypasses the library.
//!
//! Shapes, not absolutes: our substrate is a from-scratch simulator and the
//! workloads are synthetic stand-ins, so the claims to check are orderings,
//! trends, and rough factors (see `EXPERIMENTS.md` for paper-vs-measured).

pub mod coordinate;
pub mod engine;
pub mod explore;
pub mod figures;
pub mod obs;
pub mod report;
pub mod service;
pub mod table;
pub mod watch;

pub use coordinate::{coordinate, CoordinateConfig, CoordinateReport, WorkerShare};
pub use engine::Engine;
pub use figures::*;
pub use obs::{export_trace, fault_probe_metrics, find_kernel, hist_summary_json, TraceFormat};
pub use report::{upsert_block, write_block};
pub use service::{campaign_payload, uniform_store_key_material, CampaignTotals, EngineExecutor};
pub use table::Table;
pub use watch::{fmt_eta, progress_line, render_fleet_watch, render_watch};
