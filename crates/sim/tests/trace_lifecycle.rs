//! End-to-end trace tests: the resilience event stream of a run must tell a
//! consistent story (regions start before they verify, recoveries follow
//! detections, quarantined entries eventually release).

use turnpike_ir::{BinOp, CmpOp, DataSegment};
use turnpike_isa::{MOperand, MachAddr, MachInst, MachProgram, PhysReg, RecoveryBlock, RegionId};
use turnpike_sim::{
    shared_sink, Core, Fault, FaultKind, FaultPlan, SimConfig, SimOutcome, Trace, TraceEvent,
};

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

/// A small region-structured store loop with recovery metadata.
fn program() -> MachProgram {
    let insts = vec![
        MachInst::Mov {
            dst: r(1),
            src: MOperand::Imm(0),
        },
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
            rhs: MOperand::Imm(6),
        },
        MachInst::BranchNz {
            cond: r(3),
            target: 1,
        },
        MachInst::Ret {
            value: Some(MOperand::Reg(r(1))),
        },
    ];
    let mut p = MachProgram::from_insts("trace", insts, DataSegment::zeroed(0x1000, 6));
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

#[test]
fn fault_free_trace_is_consistent() {
    let p = program();
    let (out, trace) = traced_run(
        Core::new(&p, SimConfig::turnstile(4, 10)),
        &FaultPlan::none(),
        4096,
    );
    assert_eq!(out.ret, Some(6));
    let evs = trace.events();
    assert!(!evs.is_empty());
    // Cycles are non-decreasing per event category's own clock; globally the
    // stream is ordered by emission, so starts come before their verify.
    let starts: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RegionStart { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    let verified: Vec<u64> = evs
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RegionVerified { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert!(starts.len() >= 6, "one region per iteration: {starts:?}");
    for v in &verified {
        // Every verified instance (except implicit region 0) started.
        assert!(
            *v == 0 || starts.contains(v),
            "verify of unknown region {v}"
        );
    }
    // All quarantined entries eventually released (fault-free run).
    let q = evs
        .iter()
        .filter(|e| matches!(e, TraceEvent::Quarantined { .. }))
        .count();
    let rel = evs
        .iter()
        .filter(|e| matches!(e, TraceEvent::SbRelease { .. }))
        .count();
    assert_eq!(q, rel, "quarantine/release imbalance");
    // No faults: no strikes, detections, or recoveries.
    assert!(evs
        .iter()
        .all(|e| !matches!(e, TraceEvent::Strike { .. } | TraceEvent::Detection { .. })));
}

#[test]
fn faulted_trace_shows_detection_then_recovery() {
    let p = program();
    let plan = FaultPlan::new(vec![Fault {
        strike_cycle: 12,
        detect_latency: 6,
        kind: FaultKind::RegisterParity { reg: 1, bit: 2 },
    }]);
    let (out, trace) = traced_run(Core::new(&p, SimConfig::turnpike(4, 10)), &plan, 4096);
    assert_eq!(out.ret, Some(6), "recovered run matches");
    let evs = trace.events();
    let strike = evs
        .iter()
        .position(|e| matches!(e, TraceEvent::Strike { .. }));
    let detect = evs
        .iter()
        .position(|e| matches!(e, TraceEvent::Detection { .. }));
    let recover = evs
        .iter()
        .position(|e| matches!(e, TraceEvent::Recovery { .. }));
    let (s, d, rv) = (strike.unwrap(), detect.unwrap(), recover.unwrap());
    assert!(s < d, "strike precedes detection");
    assert!(d < rv, "detection precedes recovery");
    // The recovery names a region instance that had started (or region 0).
    if let TraceEvent::Recovery { target_seq, .. } = evs[rv] {
        let started: Vec<u64> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RegionStart { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert!(target_seq == 0 || started.contains(&target_seq));
    }
}

#[test]
fn turnpike_trace_shows_fast_releases() {
    let p = program();
    let (_, trace) = traced_run(
        Core::new(&p, SimConfig::turnpike(4, 10)),
        &FaultPlan::none(),
        4096,
    );
    let colored = trace
        .filter(|e| matches!(e, TraceEvent::ColoredRelease { .. }))
        .count();
    let war_free = trace
        .filter(|e| matches!(e, TraceEvent::WarFreeRelease { .. }))
        .count();
    assert!(colored > 0, "checkpoints should take the colored path");
    assert!(war_free > 0, "streaming stores should be WAR-free");
}
