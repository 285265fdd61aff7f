//! Machine programs, regions, and recovery blocks.

use crate::inst::MachInst;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use turnpike_ir::DataSegment;

/// Identifier of a *static* region: region `k` starts at the `k`-th region
/// boundary in instruction order ([`RegionId(0)`](RegionId) is the implicit
/// region starting at PC 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Protection applied to one static region.
///
/// Region metadata attached by the compiler's vulnerability policy
/// ([`MachProgram::region_modes`]); the simulator consults the *running*
/// region's mode so machinery can be dropped region-by-region. The modes
/// form a lattice `Unprotected < Turnstile < Turnpike`: each step keeps
/// every guarantee of the one below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtectionMode {
    /// No detection and no store gating: strikes inside the region are
    /// never detected (they may corrupt output), its stores release
    /// immediately when safe, and its verification window is zero.
    /// Checkpoints still follow the protected path — recovery of the
    /// region itself, or of a protected neighbor, must observe correct
    /// checkpoint slots.
    Unprotected,
    /// Detection plus gated stores, but no Turnpike fast-release
    /// structures (per-region WAR-free release and checkpoint coloring are
    /// forced off even when the core has the hardware).
    Turnstile,
    /// Full protection: detection, gated stores, and whatever fast-release
    /// hardware the core config enables. On a core without that hardware
    /// this is identical to [`ProtectionMode::Turnstile`].
    Turnpike,
}

impl fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionMode::Unprotected => write!(f, "unprotected"),
            ProtectionMode::Turnstile => write!(f, "turnstile"),
            ProtectionMode::Turnpike => write!(f, "turnpike"),
        }
    }
}

/// Code executed by the recovery controller before re-running a region.
///
/// A recovery block restores the region's live-in registers from their
/// checkpoint storage (via [`MachAddr::CkptSlot`](crate::MachAddr::CkptSlot)
/// loads, which the hardware resolves through the verified-colors map) and
/// reconstructs any registers whose checkpoints were pruned. It must not
/// contain stores or control flow.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryBlock {
    /// Straight-line restoration code.
    pub insts: Vec<MachInst>,
}

impl RecoveryBlock {
    /// An empty recovery block (region with no live-in registers).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Structural defects detected by [`MachProgram::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A jump/branch targets an instruction index out of range.
    BadTarget {
        /// PC of the offending instruction.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// The program does not end in an unconditional control transfer, so
    /// execution could fall off the end.
    FallsOffEnd,
    /// A recovery block contains a store or control-flow instruction.
    BadRecoveryInst {
        /// Region whose recovery block is malformed.
        region: RegionId,
    },
    /// Region ids on boundary instructions are not 1,2,3,... in PC order.
    NonSequentialRegions {
        /// PC of the offending boundary.
        pc: u32,
    },
    /// A protection-mode entry names a region the program does not have.
    UnknownModeRegion {
        /// The out-of-range region id.
        region: RegionId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadTarget { pc, target } => {
                write!(f, "instruction at pc {pc} targets out-of-range {target}")
            }
            ValidateError::FallsOffEnd => write!(f, "program may fall off the end"),
            ValidateError::BadRecoveryInst { region } => {
                write!(f, "recovery block of {region} contains a store or branch")
            }
            ValidateError::NonSequentialRegions { pc } => {
                write!(f, "region boundary at pc {pc} breaks sequential numbering")
            }
            ValidateError::UnknownModeRegion { region } => {
                write!(f, "protection mode attached to unknown region {region}")
            }
        }
    }
}

impl Error for ValidateError {}

/// A complete machine program: flat instruction stream, static data, initial
/// register values, and per-region recovery metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachProgram {
    /// Program name (propagated from the IR function).
    pub name: String,
    /// Flat instruction stream; branch targets index into this vector.
    pub insts: Vec<MachInst>,
    /// Static data image.
    pub data: DataSegment,
    /// Initial register values applied before cycle 0 (program inputs and
    /// materialized addresses).
    pub reg_init: Vec<(crate::PhysReg, i64)>,
    /// Recovery blocks keyed by static region id. Region 0 (function entry)
    /// always has an entry; its block restores the program inputs.
    pub recovery: BTreeMap<RegionId, RecoveryBlock>,
    /// Per-region protection modes attached by the compiler's vulnerability
    /// policy. Empty for uniform configurations: every region then follows
    /// the core configuration, exactly as before this metadata existed.
    /// Absent ids default to [`ProtectionMode::Turnpike`] (full protection).
    pub region_modes: BTreeMap<RegionId, ProtectionMode>,
}

impl MachProgram {
    /// Minimal constructor for a program with no regions or recovery blocks
    /// (used in tests and by the baseline, resilience-free configuration).
    pub fn from_insts(name: &str, insts: Vec<MachInst>, data: DataSegment) -> Self {
        MachProgram {
            name: name.to_string(),
            insts,
            data,
            reg_init: Vec::new(),
            recovery: BTreeMap::new(),
            region_modes: BTreeMap::new(),
        }
    }

    /// The protection mode of static region `id`: explicit metadata if the
    /// compiler attached any, full protection otherwise.
    pub fn region_mode(&self, id: RegionId) -> ProtectionMode {
        self.region_modes
            .get(&id)
            .copied()
            .unwrap_or(ProtectionMode::Turnpike)
    }

    /// Number of static regions (boundary count + the implicit entry region).
    pub fn num_regions(&self) -> u32 {
        1 + self
            .insts
            .iter()
            .filter(|i| matches!(i, MachInst::RegionBoundary { .. }))
            .count() as u32
    }

    /// The PC at which static region `id` begins executing: PC 0 for region
    /// 0, one past the boundary instruction otherwise. Returns `None` for an
    /// unknown region id.
    pub fn region_entry(&self, id: RegionId) -> Option<u32> {
        if id.0 == 0 {
            return Some(0);
        }
        self.insts.iter().enumerate().find_map(|(pc, i)| match i {
            MachInst::RegionBoundary { id: rid } if *rid == id => Some(pc as u32 + 1),
            _ => None,
        })
    }

    /// Registers live on entry to each instruction: one mask per PC, bit
    /// `r` set when some path from that PC reads [`PhysReg`](crate::PhysReg)
    /// `r` (a [`MachInst::uses`] operand, which includes checkpoint sources
    /// and the returned value) before any instruction defines it.
    ///
    /// A backward fixpoint over the flat instruction stream. Successors are
    /// the fall-through, a `Jump` target, both `BranchNz` edges, and nothing
    /// after `Ret`; a successor outside the program counts as reading every
    /// register, so a malformed program errs toward "live".
    pub fn live_in(&self) -> Vec<u32> {
        const _: () = assert!(crate::reg::NUM_PHYS_REGS as u32 <= u32::BITS);
        const ALL: u32 = u32::MAX >> (u32::BITS - crate::reg::NUM_PHYS_REGS as u32);
        let mut live = vec![0u32; self.insts.len()];
        loop {
            let mut changed = false;
            for pc in (0..self.insts.len()).rev() {
                let at = |t: usize| live.get(t).copied().unwrap_or(ALL);
                let inst = self.insts[pc];
                let out = match inst {
                    MachInst::Ret { .. } => 0,
                    MachInst::Jump { target } => at(target as usize),
                    MachInst::BranchNz { target, .. } => at(pc + 1) | at(target as usize),
                    _ => at(pc + 1),
                };
                let def = inst.def().map_or(0, |r| 1u32 << r.index());
                let uses = inst.uses().iter().fold(0u32, |m, r| m | 1 << r.index());
                let mask = (out & !def) | uses;
                if mask != live[pc] {
                    live[pc] = mask;
                    changed = true;
                }
            }
            if !changed {
                return live;
            }
        }
    }

    /// Static code size in bytes under the fixed 8-byte encoding.
    pub fn code_bytes(&self) -> u64 {
        self.insts.len() as u64 * 8
    }

    /// Check structural invariants.
    ///
    /// # Errors
    ///
    /// See [`ValidateError`] for the catalogue of defects.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let n = self.insts.len() as u32;
        let mut next_region = 1u32;
        for (pc, inst) in self.insts.iter().enumerate() {
            let pc = pc as u32;
            match *inst {
                MachInst::Jump { target } | MachInst::BranchNz { target, .. } if target >= n => {
                    return Err(ValidateError::BadTarget { pc, target });
                }
                MachInst::RegionBoundary { id } => {
                    if id.0 != next_region {
                        return Err(ValidateError::NonSequentialRegions { pc });
                    }
                    next_region += 1;
                }
                _ => {}
            }
        }
        match self.insts.last() {
            Some(MachInst::Ret { .. }) | Some(MachInst::Jump { .. }) => {}
            _ => return Err(ValidateError::FallsOffEnd),
        }
        for (&region, block) in &self.recovery {
            for inst in &block.insts {
                if inst.is_store() || inst.is_control() {
                    return Err(ValidateError::BadRecoveryInst { region });
                }
            }
        }
        if let Some((&region, _)) = self.region_modes.range(RegionId(next_region)..).next() {
            return Err(ValidateError::UnknownModeRegion { region });
        }
        Ok(())
    }

    /// Disassembly listing with PCs, for debugging and docs.
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "; {} ({} insts)", self.name, self.insts.len());
        for (pc, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(s, "{pc:5}: {inst}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{MOperand, PhysReg};
    use turnpike_ir::BinOp;

    fn r(i: u8) -> PhysReg {
        PhysReg::new(i).unwrap()
    }

    fn ret() -> MachInst {
        MachInst::Ret { value: None }
    }

    #[test]
    fn region_numbering_and_entries() {
        let p = MachProgram::from_insts(
            "p",
            vec![
                MachInst::Nop,
                MachInst::RegionBoundary { id: RegionId(1) },
                MachInst::Nop,
                MachInst::RegionBoundary { id: RegionId(2) },
                ret(),
            ],
            DataSegment::zeroed(0, 0),
        );
        assert_eq!(p.num_regions(), 3);
        assert_eq!(p.region_entry(RegionId(0)), Some(0));
        assert_eq!(p.region_entry(RegionId(1)), Some(2));
        assert_eq!(p.region_entry(RegionId(2)), Some(4));
        assert_eq!(p.region_entry(RegionId(9)), None);
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.code_bytes(), 40);
    }

    #[test]
    fn validate_rejects_bad_target() {
        let p = MachProgram::from_insts(
            "b",
            vec![MachInst::Jump { target: 5 }, ret()],
            DataSegment::zeroed(0, 0),
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadTarget { pc: 0, target: 5 })
        );
    }

    #[test]
    fn validate_rejects_fallthrough_end() {
        let p = MachProgram::from_insts("f", vec![MachInst::Nop], DataSegment::zeroed(0, 0));
        assert_eq!(p.validate(), Err(ValidateError::FallsOffEnd));
    }

    #[test]
    fn validate_rejects_nonsequential_regions() {
        let p = MachProgram::from_insts(
            "r",
            vec![MachInst::RegionBoundary { id: RegionId(2) }, ret()],
            DataSegment::zeroed(0, 0),
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::NonSequentialRegions { pc: 0 })
        );
    }

    #[test]
    fn region_modes_default_and_validate() {
        let mut p = MachProgram::from_insts(
            "m",
            vec![
                MachInst::Nop,
                MachInst::RegionBoundary { id: RegionId(1) },
                ret(),
            ],
            DataSegment::zeroed(0, 0),
        );
        // Empty metadata: every region defaults to full protection.
        assert_eq!(p.region_mode(RegionId(0)), ProtectionMode::Turnpike);
        p.region_modes
            .insert(RegionId(1), ProtectionMode::Unprotected);
        assert_eq!(p.region_mode(RegionId(1)), ProtectionMode::Unprotected);
        assert_eq!(p.region_mode(RegionId(0)), ProtectionMode::Turnpike);
        assert_eq!(p.validate(), Ok(()));
        p.region_modes
            .insert(RegionId(7), ProtectionMode::Turnstile);
        assert_eq!(
            p.validate(),
            Err(ValidateError::UnknownModeRegion {
                region: RegionId(7)
            })
        );
    }

    #[test]
    fn protection_modes_form_a_lattice() {
        assert!(ProtectionMode::Unprotected < ProtectionMode::Turnstile);
        assert!(ProtectionMode::Turnstile < ProtectionMode::Turnpike);
        assert_eq!(ProtectionMode::Unprotected.to_string(), "unprotected");
    }

    #[test]
    fn validate_rejects_store_in_recovery() {
        let mut p = MachProgram::from_insts("s", vec![ret()], DataSegment::zeroed(0, 0));
        p.recovery.insert(
            RegionId(0),
            RecoveryBlock {
                insts: vec![MachInst::Ckpt { reg: r(0) }],
            },
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadRecoveryInst {
                region: RegionId(0)
            })
        );
    }

    #[test]
    fn recovery_block_with_alu_ok() {
        let mut p = MachProgram::from_insts("ok", vec![ret()], DataSegment::zeroed(0, 0));
        p.recovery.insert(
            RegionId(0),
            RecoveryBlock {
                insts: vec![
                    MachInst::Load {
                        dst: r(1),
                        addr: crate::MachAddr::CkptSlot(r(1)),
                    },
                    MachInst::Bin {
                        op: BinOp::Add,
                        dst: r(2),
                        lhs: r(1),
                        rhs: MOperand::Imm(9),
                    },
                ],
            },
        );
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn live_in_follows_every_edge() {
        let bit = |i: u8| 1u32 << i;
        let p = MachProgram::from_insts(
            "l",
            vec![
                // 0: r1 = r0 + 1   (r0 read, r1 defined)
                MachInst::Bin {
                    op: BinOp::Add,
                    dst: r(1),
                    lhs: r(0),
                    rhs: MOperand::Imm(1),
                },
                // 1: ckpt r1
                MachInst::Ckpt { reg: r(1) },
                // 2: if r2 goto 0
                MachInst::BranchNz {
                    cond: r(2),
                    target: 0,
                },
                // 3: ret r3
                MachInst::Ret {
                    value: Some(MOperand::Reg(r(3))),
                },
                // 4: jump past the end
                MachInst::Jump { target: 9 },
            ],
            DataSegment::zeroed(0, 0),
        );
        let live = p.live_in();
        let loop_live = bit(0) | bit(2) | bit(3);
        assert_eq!(live[0], loop_live, "r1 is defined before its checkpoint");
        assert_eq!(live[1], bit(1) | loop_live);
        assert_eq!(live[2], loop_live, "the back edge keeps r0 live");
        assert_eq!(live[3], bit(3), "nothing is live after ret");
        assert_eq!(live[4], u32::MAX, "an out-of-range target reads everything");
    }

    #[test]
    fn disasm_contains_pcs() {
        let p = MachProgram::from_insts("d", vec![MachInst::Nop, ret()], DataSegment::zeroed(0, 0));
        let d = p.disasm();
        assert!(d.contains("0: nop"));
        assert!(d.contains("1: ret"));
    }
}
