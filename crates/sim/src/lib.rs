//! Cycle-level dual-issue in-order core simulator for the Turnpike
//! reproduction.
//!
//! Models the paper's evaluation platform — an ARM Cortex-A53-class core
//! (2-issue, in-order, 64 KB 2-way L1D @ 2 cycles, 128 KB 16-way L2 @ 20
//! cycles, 4-entry store buffer) — plus the resilience microarchitecture:
//!
//! * a **gated store buffer** ([`store_buffer`]) quarantining stores until
//!   their region is verified error-free;
//! * the **region boundary buffer** ([`rbb`]) with the WCDL-based
//!   verification timing logic;
//! * both **committed load queue** designs ([`clq`]): ideal address matching
//!   and the compact per-region range entries with the Figure-13 overflow
//!   automaton;
//! * **hardware coloring** ([`coloring`]) with the AC/UC/VC maps over a
//!   4-color checkpoint-slot pool;
//! * a fault model ([`fault`]) and full **error recovery** (discard, restore
//!   from verified checkpoints, re-execute) wired into the core ([`core`]).
//!
//! # Example
//!
//! ```
//! use turnpike_sim::{Core, FaultPlan, SimConfig};
//! use turnpike_isa::{MachInst, MachProgram, MOperand, PhysReg};
//! use turnpike_ir::DataSegment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let r0 = PhysReg::new(0)?;
//! let prog = MachProgram::from_insts(
//!     "answer",
//!     vec![
//!         MachInst::Mov { dst: r0, src: MOperand::Imm(42) },
//!         MachInst::Ret { value: Some(MOperand::Reg(r0)) },
//!     ],
//!     DataSegment::zeroed(0x1000, 0),
//! );
//! let out = Core::new(&prog, SimConfig::baseline()).run(&FaultPlan::none())?;
//! assert_eq!(out.ret, Some(42));
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod clq;
pub mod coloring;
pub mod config;
pub mod core;
pub mod fault;
pub mod mem;
pub mod rbb;
mod slot;
pub mod stats;
pub mod store_buffer;
pub mod trace;
pub mod translate;

pub use clq::{CamClq, Clq, ClqStats, CompactClq, IdealClq};
pub use coloring::Coloring;
pub use config::{ClqKind, SimConfig};
pub use core::{Core, CoreSnapshot, Refusal, ReplayCensus, ReplayGuide, SimError, SimOutcome};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use mem::PagedMem;
pub use rbb::Rbb;
pub use stats::{SimHists, SimStats};
pub use store_buffer::StoreBuffer;
pub use trace::{shared_sink, ChromeTrace, JsonlSink, StallKind, Trace, TraceEvent, TraceSink};
pub use translate::Translation;
