//! `MachProgram::live_in` against an independent oracle. The early-exit
//! replay probe skips registers the table calls dead, so a register missing
//! from a mask would let a corrupted value slip past the convergence proof.
//!
//! The oracle shares no code with the analysis: its own read/write sets per
//! instruction (not `MachInst::uses`/`def`) and, for every (pc, register), a
//! forward search over the paths leaving pc. A register is live-in exactly
//! when some path reads it — or leaves the program — before writing it.

use proptest::prelude::*;
use turnpike::compiler::compile;
use turnpike::ir::DataSegment;
use turnpike::isa::{BinOp, CmpOp, MOperand, MachAddr, MachInst, MachProgram, PhysReg};
use turnpike::resilience::{RunSpec, Scheme};
use turnpike::workloads::{all_kernels, generate, GeneratorConfig, Scale};

/// Registers `inst` reads, spelled out per variant.
fn reads(inst: &MachInst) -> Vec<u8> {
    let op = |o: &MOperand| match o {
        MOperand::Reg(r) => vec![r.raw()],
        MOperand::Imm(_) => vec![],
    };
    let addr = |a: &MachAddr| match a {
        MachAddr::RegOffset(b, _) => vec![b.raw()],
        MachAddr::Abs(_) | MachAddr::CkptSlot(_) => vec![],
    };
    match inst {
        MachInst::Bin { lhs, rhs, .. } | MachInst::Cmp { lhs, rhs, .. } => {
            [vec![lhs.raw()], op(rhs)].concat()
        }
        MachInst::Mov { src, .. } => op(src),
        MachInst::Load { addr: a, .. } => addr(a),
        MachInst::Store { src, addr: a } => [op(src), addr(a)].concat(),
        MachInst::Ckpt { reg } => vec![reg.raw()],
        MachInst::BranchNz { cond, .. } => vec![cond.raw()],
        MachInst::Ret { value } => value.as_ref().map_or(vec![], op),
        MachInst::RegionBoundary { .. } | MachInst::Jump { .. } | MachInst::Nop => vec![],
    }
}

/// The register `inst` writes, if any.
fn writes(inst: &MachInst) -> Option<u8> {
    match inst {
        MachInst::Bin { dst, .. }
        | MachInst::Cmp { dst, .. }
        | MachInst::Mov { dst, .. }
        | MachInst::Load { dst, .. } => Some(dst.raw()),
        _ => None,
    }
}

/// Whether some path from `pc` reads `r` (or leaves the program) before
/// any instruction writes it.
fn read_before_write(p: &MachProgram, pc: usize, r: u8) -> bool {
    let mut seen = vec![false; p.insts.len()];
    let mut stack = vec![pc];
    while let Some(at) = stack.pop() {
        let Some(inst) = p.insts.get(at) else {
            return true; // off the program: assume everything is read
        };
        if std::mem::replace(&mut seen[at], true) {
            continue;
        }
        if reads(inst).contains(&r) {
            return true;
        }
        if writes(inst) == Some(r) {
            continue;
        }
        match *inst {
            MachInst::Ret { .. } => {}
            MachInst::Jump { target } => stack.push(target as usize),
            MachInst::BranchNz { target, .. } => stack.extend([at + 1, target as usize]),
            _ => stack.push(at + 1),
        }
    }
    false
}

fn check(p: &MachProgram, what: &str) {
    let live = p.live_in();
    assert_eq!(live.len(), p.insts.len(), "{what}");
    for (pc, &mask) in live.iter().enumerate() {
        for r in 0..32u8 {
            let oracle = read_before_write(p, pc, r);
            assert_eq!(
                mask >> r & 1 == 1,
                oracle,
                "{what}: r{r} at pc {pc} ({}): table says {}, a path search says {}",
                p.insts[pc],
                if mask >> r & 1 == 1 { "live" } else { "dead" },
                if oracle { "live" } else { "dead" },
            );
        }
    }
}

#[test]
fn live_in_matches_path_search_on_every_ladder_compile() {
    for k in all_kernels(Scale::Smoke) {
        for scheme in Scheme::LADDER {
            let compiled = compile(&k.program, &RunSpec::new(scheme).compiler_config())
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: {e}", k.name));
            check(&compiled.program, &format!("{}/{scheme:?}", k.name));
        }
    }
}

/// One arbitrary machine instruction over the first `regs` registers with
/// branch targets up to two past the end (so out-of-range edges occur).
fn inst_strategy(len: u32, regs: u8) -> impl Strategy<Value = MachInst> {
    let reg = move |x: u8| PhysReg::new(x % regs).unwrap();
    (0u8..9, any::<u8>(), any::<u8>(), any::<u8>(), 0..len + 2).prop_map(
        move |(kind, a, b, c, target)| match kind {
            0 => MachInst::Bin {
                op: BinOp::Add,
                dst: reg(a),
                lhs: reg(b),
                rhs: MOperand::Reg(reg(c)),
            },
            1 => MachInst::Cmp {
                op: CmpOp::Lt,
                dst: reg(a),
                lhs: reg(b),
                rhs: MOperand::Imm(i64::from(c)),
            },
            2 => MachInst::Mov {
                dst: reg(a),
                src: MOperand::Reg(reg(b)),
            },
            3 => MachInst::Load {
                dst: reg(a),
                addr: MachAddr::RegOffset(reg(b), 8),
            },
            4 => MachInst::Store {
                src: MOperand::Reg(reg(a)),
                addr: MachAddr::RegOffset(reg(b), 0),
            },
            5 => MachInst::Ckpt { reg: reg(a) },
            6 => MachInst::BranchNz {
                cond: reg(a),
                target,
            },
            7 => MachInst::Jump { target },
            _ => MachInst::Ret {
                value: (c % 2 == 0).then(|| MOperand::Reg(reg(a))),
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_in_matches_path_search_on_random_machine_code(
        insts in prop::collection::vec(inst_strategy(24, 6), 1..24)
    ) {
        let p = MachProgram::from_insts("random", insts, DataSegment::zeroed(0x1000, 0));
        check(&p, "random");
    }

    #[test]
    fn live_in_matches_path_search_on_generated_kernels(
        seed in 0u64..1_000,
        loops in 1usize..4,
        body_ops in 4usize..16,
        rung in 0usize..Scheme::LADDER.len(),
    ) {
        let cfg = GeneratorConfig {
            loops,
            trip: 8,
            body_ops,
            store_density: 0.3,
            load_density: 0.25,
            accumulators: 3,
            data_words: 32,
        };
        let scheme = Scheme::LADDER[rung];
        let compiled = compile(&generate(seed, &cfg), &RunSpec::new(scheme).compiler_config())
            .unwrap_or_else(|e| panic!("seed {seed}/{scheme:?}: {e}"));
        check(&compiled.program, &format!("generated seed {seed}/{scheme:?}"));
    }
}
