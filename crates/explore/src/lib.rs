//! Cross-layer design-space exploration (the CLEAR framing applied to
//! Turnpike).
//!
//! CLEAR evaluates soft-error resilience as a sweep over protection
//! technique × hardware cost × workload rather than a handful of
//! hand-picked configurations. This crate is the *domain* layer of that
//! sweep for the Turnpike reproduction:
//!
//! * [`grid`] — enumerate the canonical points of a declarative
//!   [`ExploreAxes`](turnpike_resilience::ExploreAxes) grid (scheme × WCDL
//!   × SB size × CLQ design × color count × cache geometry), collapsing
//!   axis values that provably cannot affect a scheme, and map each point
//!   to the [`RunSpec`](turnpike_resilience::RunSpec) that evaluates it
//!   and the [`StructureCost`](turnpike_model::StructureCost) that prices
//!   it;
//! * [`pareto`] — exact Pareto filtering over the three objectives
//!   (runtime overhead, hardware area, SDC rate).
//!
//! The crate is pure data-flow: no I/O, no threads, no randomness. The
//! bench crate's explore driver owns execution (jobs through the memoizing
//! engine or a serve fleet) and reporting; everything here is
//! deterministic by construction, which is what lets the driver promise a
//! byte-identical frontier at any thread or worker count.

pub mod grid;
pub mod pareto;

pub use grid::{clq_name, enumerate, parse_clq, DesignPoint, Grid};
pub use pareto::{area_unit, exact_pareto_mask, Objectives};
