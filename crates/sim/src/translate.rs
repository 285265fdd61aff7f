//! Pre-decode of a program into the ops the core issues.
//!
//! Everything the core's issue step needs from a [`MachInst`] — the source
//! register set (`uses`), the addressing-mode base, the latency class, the
//! checkpoint flag — is fixed per static instruction, so a [`Translation`]
//! computes it once per program:
//!
//! * every instruction becomes a `DecodedOp` with its operand slots
//!   (source registers as a flat array), its destination, its latency, and
//!   its resolved addressing mode (`decode` is the crate's one mapping
//!   from a `MachInst` to an operation; recovery blocks go through it too);
//! * consecutive non-control instructions are grouped into **superblocks**:
//!   `run_len[pc]` is the number of straight-line ops starting at `pc`
//!   before the next control-flow instruction. The core's fast path
//!   dispatches one superblock at a time, so its inner loop only walks a
//!   slice of ops; every op still passes the fetch-redirect gate, the
//!   operand wait and the settle, exactly as in the per-instruction loop.
//!
//! Both dispatch loops issue through one `Core::issue`, instantiated twice.
//! The per-instruction loop runs every state; the superblock loop runs only
//! *quiet* states (no pending faults or detections, no trace sink, no
//! corruption flag), and its instance skips the per-instruction work that
//! is provably a no-op there — fault processing, parity and taint checks —
//! so cycles, stats, and architectural results are bit-identical. The
//! top-of-instruction work that is not a no-op — early-exit replay probes
//! and snapshot capture — runs in the fast path too: a core holding a
//! replay guide or a snapshot schedule dispatches through a hooked
//! instance of the loop that runs the prologue before every instruction,
//! and every other core through the plain instance, which has no hook.

use turnpike_ir::{BinOp, CmpOp};
use turnpike_isa::{MOperand, MachAddr, MachInst, MachProgram, RegionId};

/// A pre-decoded operand: register index or immediate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOperand {
    /// Register index.
    Reg(u8),
    /// Immediate value.
    Imm(i64),
}

impl DOperand {
    fn from_op(op: MOperand) -> Self {
        match op {
            MOperand::Reg(r) => DOperand::Reg(r.raw()),
            MOperand::Imm(v) => DOperand::Imm(v),
        }
    }
}

/// A pre-decoded addressing mode.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DAddr {
    /// Base register plus signed byte offset.
    RegOff(u8, i64),
    /// Absolute byte address.
    Abs(u64),
    /// Checkpoint slot of a register (recovery-block addressing).
    Ckpt(u8),
}

impl DAddr {
    fn from_addr(a: MachAddr) -> Self {
        match a {
            MachAddr::RegOffset(r, o) => DAddr::RegOff(r.raw(), o),
            MachAddr::Abs(a) => DAddr::Abs(a),
            MachAddr::CkptSlot(r) => DAddr::Ckpt(r.raw()),
        }
    }
}

/// The operation class of a [`DecodedOp`], with every per-kind field the
/// issue loop needs resolved at translation time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DKind {
    /// `dst = lhs op rhs` with the op's precomputed latency.
    Bin {
        op: BinOp,
        dst: u8,
        lhs: u8,
        rhs: DOperand,
        lat: u64,
    },
    /// `dst = (lhs op rhs) ? 1 : 0`.
    Cmp {
        op: CmpOp,
        dst: u8,
        lhs: u8,
        rhs: DOperand,
    },
    /// `dst = src`.
    Mov { dst: u8, src: DOperand },
    /// `dst = memory[addr]`; `ckpt_slot` marks recovery-block addressing
    /// (no CLQ recording, checkpoint storage access).
    Load {
        dst: u8,
        addr: DAddr,
        ckpt_slot: bool,
    },
    /// `memory[addr] = src`.
    Store { src: DOperand, addr: DAddr },
    /// Checkpoint of a register.
    Ckpt { reg: u8 },
    /// Region boundary marker.
    Boundary { id: RegionId },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Branch if `cond != 0`.
    BranchNz { cond: u8, target: u32 },
    /// Program end.
    Ret { value: Option<DOperand> },
    /// No operation.
    Nop,
}

/// One pre-decoded instruction: operation plus its flat source-register
/// slots (what [`MachInst::uses`] returns).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// The operation.
    pub kind: DKind,
    /// Source registers, `srcs[..nsrcs]` valid.
    pub srcs: [u8; 3],
    /// Number of valid source slots.
    pub nsrcs: u8,
}

/// A translated program: pre-decoded ops plus the superblock run lengths.
#[derive(Debug)]
pub struct Translation {
    pub(crate) ops: Vec<DecodedOp>,
    /// Number of consecutive straight-line (non-control) ops starting at
    /// each pc; `0` at control-flow instructions.
    pub(crate) run_len: Vec<u32>,
}

impl Translation {
    /// Pre-decode `program` in one linear pass.
    pub fn new(program: &MachProgram) -> Self {
        let ops: Vec<DecodedOp> = program.insts.iter().map(|&i| decode(i)).collect();
        let mut run_len = vec![0u32; ops.len()];
        for i in (0..ops.len()).rev() {
            let straight = !matches!(
                ops[i].kind,
                DKind::Jump { .. } | DKind::BranchNz { .. } | DKind::Ret { .. }
            );
            if straight {
                run_len[i] = 1 + if i + 1 < ops.len() { run_len[i + 1] } else { 0 };
            }
        }
        Translation { ops, run_len }
    }

    /// Number of translated instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Pre-decode one instruction.
pub(crate) fn decode(inst: MachInst) -> DecodedOp {
    let uses = inst.uses();
    let mut srcs = [0u8; 3];
    for (slot, r) in srcs.iter_mut().zip(uses.iter()) {
        *slot = r.raw();
    }
    let kind = match inst {
        MachInst::Bin { op, dst, lhs, rhs } => DKind::Bin {
            op,
            dst: dst.raw(),
            lhs: lhs.raw(),
            rhs: DOperand::from_op(rhs),
            lat: u64::from(inst.latency()),
        },
        MachInst::Cmp { op, dst, lhs, rhs } => DKind::Cmp {
            op,
            dst: dst.raw(),
            lhs: lhs.raw(),
            rhs: DOperand::from_op(rhs),
        },
        MachInst::Mov { dst, src } => DKind::Mov {
            dst: dst.raw(),
            src: DOperand::from_op(src),
        },
        MachInst::Load { dst, addr } => DKind::Load {
            dst: dst.raw(),
            addr: DAddr::from_addr(addr),
            ckpt_slot: matches!(addr, MachAddr::CkptSlot(_)),
        },
        MachInst::Store { src, addr } => DKind::Store {
            src: DOperand::from_op(src),
            addr: DAddr::from_addr(addr),
        },
        MachInst::Ckpt { reg } => DKind::Ckpt { reg: reg.raw() },
        MachInst::RegionBoundary { id } => DKind::Boundary { id },
        MachInst::Jump { target } => DKind::Jump { target },
        MachInst::BranchNz { cond, target } => DKind::BranchNz {
            cond: cond.raw(),
            target,
        },
        MachInst::Ret { value } => DKind::Ret {
            value: value.map(DOperand::from_op),
        },
        MachInst::Nop => DKind::Nop,
    };
    DecodedOp {
        kind,
        srcs,
        nsrcs: uses.len() as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnpike_ir::DataSegment;
    use turnpike_isa::PhysReg;

    fn r(i: u8) -> PhysReg {
        PhysReg::new(i).unwrap()
    }

    #[test]
    fn run_lengths_stop_at_control_flow() {
        let insts = vec![
            MachInst::Mov {
                dst: r(1),
                src: MOperand::Imm(1),
            },
            MachInst::Bin {
                op: BinOp::Add,
                dst: r(1),
                lhs: r(1),
                rhs: MOperand::Imm(1),
            },
            MachInst::BranchNz {
                cond: r(1),
                target: 0,
            },
            MachInst::Nop,
            MachInst::Ret { value: None },
        ];
        let p = MachProgram::from_insts("t", insts, DataSegment::zeroed(0x1000, 0));
        let t = Translation::new(&p);
        assert_eq!(t.len(), 5);
        assert_eq!(t.run_len, vec![2, 1, 0, 1, 0]);
    }

    #[test]
    fn decode_captures_sources_and_latency() {
        let insts = vec![
            MachInst::Bin {
                op: BinOp::Mul,
                dst: r(2),
                lhs: r(3),
                rhs: MOperand::Reg(r(4)),
            },
            MachInst::Store {
                src: MOperand::Reg(r(2)),
                addr: MachAddr::RegOffset(r(5), 8),
            },
            MachInst::Ret { value: None },
        ];
        let p = MachProgram::from_insts("t", insts, DataSegment::zeroed(0x1000, 0));
        let t = Translation::new(&p);
        let mul = &t.ops[0];
        assert_eq!(&mul.srcs[..mul.nsrcs as usize], &[3, 4]);
        match mul.kind {
            DKind::Bin { lat, .. } => assert_eq!(
                lat,
                u64::from(
                    MachInst::Bin {
                        op: BinOp::Mul,
                        dst: r(2),
                        lhs: r(3),
                        rhs: MOperand::Reg(r(4)),
                    }
                    .latency()
                )
            ),
            _ => panic!("expected Bin"),
        }
        let st = &t.ops[1];
        assert_eq!(&st.srcs[..st.nsrcs as usize], &[2, 5]);
        assert!(matches!(
            st.kind,
            DKind::Store {
                addr: DAddr::RegOff(5, 8),
                ..
            }
        ));
    }

    #[test]
    fn empty_program_translates() {
        let p = MachProgram::from_insts("t", vec![], DataSegment::zeroed(0x1000, 0));
        let t = Translation::new(&p);
        assert!(t.is_empty());
    }
}
