//! Recovery-path edge cases: strikes landing at the nastiest moments —
//! while a store is stalled on a full SB, exactly at region boundaries, in
//! rapid succession, and immediately before verification instants. Every
//! case must end bit-identical to the fault-free run.

use turnpike_ir::{BinOp, CmpOp, DataSegment};
use turnpike_isa::{MOperand, MachAddr, MachInst, MachProgram, PhysReg, RecoveryBlock, RegionId};
use turnpike_sim::{shared_sink, Core, Fault, FaultKind, FaultPlan, SimConfig, SimOutcome, Trace};

/// Run `core` under `plan` with a ring-buffer [`Trace`] of the last `cap`
/// events attached.
fn traced_run(mut core: Core<'_>, plan: &FaultPlan, cap: usize) -> (SimOutcome, Trace) {
    let sink = shared_sink(Trace::new(cap));
    core.attach_sink(sink.clone());
    let out = core.run(plan).unwrap();
    let trace = sink.borrow().clone();
    (out, trace)
}

fn r(i: u8) -> PhysReg {
    PhysReg::new(i).unwrap()
}

/// A store-dense region-structured loop that keeps the 4-entry SB full
/// under Turnstile (no fast release), maximizing stall windows.
fn dense_program(iters: i64) -> MachProgram {
    let insts = vec![
        MachInst::Mov {
            dst: r(1),
            src: MOperand::Imm(0),
        },
        // loop:
        MachInst::RegionBoundary { id: RegionId(1) },
        MachInst::Bin {
            op: BinOp::Shl,
            dst: r(2),
            lhs: r(1),
            rhs: MOperand::Imm(3),
        },
        MachInst::Bin {
            op: BinOp::Add,
            dst: r(2),
            lhs: r(2),
            rhs: MOperand::Reg(r(0)),
        },
        MachInst::Store {
            src: MOperand::Reg(r(1)),
            addr: MachAddr::RegOffset(r(2), 0),
        },
        MachInst::Store {
            src: MOperand::Reg(r(2)),
            addr: MachAddr::RegOffset(r(2), 512),
        },
        MachInst::Bin {
            op: BinOp::Add,
            dst: r(1),
            lhs: r(1),
            rhs: MOperand::Imm(1),
        },
        MachInst::Ckpt { reg: r(1) },
        MachInst::Cmp {
            op: CmpOp::Lt,
            dst: r(3),
            lhs: r(1),
            rhs: MOperand::Imm(iters),
        },
        MachInst::BranchNz {
            cond: r(3),
            target: 1,
        },
        MachInst::Ret {
            value: Some(MOperand::Reg(r(1))),
        },
    ];
    let mut p = MachProgram::from_insts("dense", insts, DataSegment::zeroed(0x1000, 200));
    p.reg_init = vec![(r(0), 0x1000)];
    let load = |reg| MachInst::Load {
        dst: reg,
        addr: MachAddr::CkptSlot(reg),
    };
    p.recovery.insert(
        RegionId(0),
        RecoveryBlock {
            insts: vec![load(r(0))],
        },
    );
    p.recovery.insert(
        RegionId(1),
        RecoveryBlock {
            insts: vec![load(r(0)), load(r(1))],
        },
    );
    p
}

fn check_plan(cfg: SimConfig, plan: FaultPlan) {
    let p = dense_program(12);
    let golden = Core::new(&p, cfg.clone()).run(&FaultPlan::none()).unwrap();
    let run = Core::new(&p, cfg).run(&plan).unwrap();
    assert_eq!(run.ret, golden.ret, "{plan:?}");
    assert_eq!(run.memory, golden.memory, "{plan:?}");
}

#[test]
fn strike_during_sb_stall_window() {
    // Turnstile with a long WCDL: stores stall on a full SB constantly.
    // Sweep strikes across the whole run so many land inside stall waits.
    let p = dense_program(12);
    let golden = Core::new(&p, SimConfig::turnstile(4, 40))
        .run(&FaultPlan::none())
        .unwrap();
    let horizon = golden.stats.cycles;
    for k in 1..24 {
        let cycle = horizon * k / 24;
        let plan = FaultPlan::new(vec![Fault {
            strike_cycle: cycle,
            detect_latency: 1 + (k % 40),
            kind: FaultKind::RegisterParity {
                reg: (k % 4) as u8,
                bit: (k % 64) as u8,
            },
        }]);
        check_plan(SimConfig::turnstile(4, 40), plan);
    }
}

#[test]
fn strike_sweep_on_turnpike() {
    let p = dense_program(12);
    let golden = Core::new(&p, SimConfig::turnpike(4, 10))
        .run(&FaultPlan::none())
        .unwrap();
    let horizon = golden.stats.cycles;
    for k in 1..24 {
        let cycle = horizon * k / 24;
        let plan = FaultPlan::new(vec![Fault {
            strike_cycle: cycle,
            detect_latency: 1 + (k % 10),
            kind: if k % 2 == 0 {
                FaultKind::Datapath {
                    bit: (k % 64) as u8,
                }
            } else {
                FaultKind::RegisterParity {
                    reg: (k % 6) as u8,
                    bit: (k % 64) as u8,
                }
            },
        }]);
        check_plan(SimConfig::turnpike(4, 10), plan);
    }
}

#[test]
fn back_to_back_strikes() {
    // Second strike lands inside the first recovery's re-execution.
    for gap in [1u64, 3, 7, 15, 30] {
        let plan = FaultPlan::new(vec![
            Fault {
                strike_cycle: 20,
                detect_latency: 5,
                kind: FaultKind::RegisterParity { reg: 1, bit: 9 },
            },
            Fault {
                strike_cycle: 25 + gap,
                detect_latency: 4,
                kind: FaultKind::Datapath { bit: 33 },
            },
        ]);
        check_plan(SimConfig::turnpike(4, 10), plan);
    }
}

#[test]
fn strike_exactly_at_verification_instants() {
    // Discover region end cycles from a traced clean run, then strike one
    // cycle before, at, and after each verification instant.
    let p = dense_program(8);
    let (golden, trace) = traced_run(
        Core::new(&p, SimConfig::turnpike(4, 10)),
        &FaultPlan::none(),
        100_000,
    );
    let verify_cycles: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            turnpike_sim::TraceEvent::RegionVerified { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .take(6)
        .collect();
    assert!(!verify_cycles.is_empty());
    for v in verify_cycles {
        for delta in [-1i64, 0, 1] {
            let cycle = v.saturating_add_signed(delta).max(1);
            if cycle >= golden.stats.cycles {
                continue;
            }
            let plan = FaultPlan::new(vec![Fault {
                strike_cycle: cycle,
                detect_latency: 10,
                kind: FaultKind::RegisterParity { reg: 1, bit: 1 },
            }]);
            let run = Core::new(&p, SimConfig::turnpike(4, 10))
                .run(&plan)
                .unwrap();
            assert_eq!(run.ret, golden.ret, "strike at {cycle}");
            assert_eq!(run.memory, golden.memory, "strike at {cycle}");
        }
    }
}

#[test]
fn post_completion_strikes_are_harmless() {
    let p = dense_program(6);
    let golden = Core::new(&p, SimConfig::turnpike(4, 10))
        .run(&FaultPlan::none())
        .unwrap();
    let plan = FaultPlan::new(vec![Fault {
        strike_cycle: golden.stats.cycles + 1000,
        detect_latency: 5,
        kind: FaultKind::RegisterParity { reg: 1, bit: 1 },
    }]);
    let run = Core::new(&p, SimConfig::turnpike(4, 10))
        .run(&plan)
        .unwrap();
    assert_eq!(run.ret, golden.ret);
    assert_eq!(run.memory, golden.memory);
    assert_eq!(run.stats.recoveries, 0);
}
