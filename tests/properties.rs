//! Property-based tests over randomly generated programs: the entire
//! compile-and-simulate stack must preserve the interpreter's semantics for
//! any well-formed input, under any optimization combination, and the
//! partitioner's store-budget invariant must hold.

use proptest::prelude::*;
use std::collections::BTreeMap;
use turnpike::compiler::{compile, CompilerConfig, SPILL_BASE};
use turnpike::ir::{interp, BinOp, CmpOp, DataSegment, FunctionBuilder, Operand, Program, Reg};
use turnpike::resilience::{run_kernel, RunSpec, Scheme};
use turnpike::sim::{Core, SimConfig};

const DATA: u64 = 0x1_0000;
const CELLS: i64 = 16;

/// One random straight-line-with-one-loop program from a script of ops.
#[derive(Debug, Clone)]
enum Op {
    Alu(u8, u8, u8, i8),
    Cmp(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    Mov(u8, i8),
}

fn build(script: &[Op], trip: u8) -> Program {
    let mut b = FunctionBuilder::new("prop");
    let base = b.param();
    let regs: Vec<Reg> = (0..6).map(|_| b.fresh_reg()).collect();
    let i = b.fresh_reg();
    let c = b.fresh_reg();
    let t = b.fresh_reg();
    let body = b.create_block();
    let done = b.create_block();
    for (k, &r) in regs.iter().enumerate() {
        b.mov(r, k as i64 + 1);
    }
    b.mov(i, 0i64);
    b.jump(body);
    b.switch_to(body);
    let binops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor, BinOp::And];
    let cmpops = [CmpOp::Lt, CmpOp::Eq, CmpOp::Gt];
    for op in script {
        match *op {
            Op::Alu(o, d, s, imm) => {
                let bo = binops[o as usize % binops.len()];
                let d = regs[d as usize % regs.len()];
                let s = regs[s as usize % regs.len()];
                if imm % 2 == 0 {
                    b.bin(bo, d, d, Operand::Reg(s));
                } else {
                    b.bin(bo, d, s, imm as i64);
                }
            }
            Op::Cmp(o, d, s) => {
                let co = cmpops[o as usize % cmpops.len()];
                let d = regs[d as usize % regs.len()];
                let s = regs[s as usize % regs.len()];
                b.cmp(co, d, s, 3i64);
            }
            Op::Load(d, cell) => {
                let d = regs[d as usize % regs.len()];
                let off = (cell as i64 % CELLS) * 8;
                b.bin(BinOp::Add, t, base, off);
                b.load(d, t, 0);
            }
            Op::Store(s, cell) => {
                let s = regs[s as usize % regs.len()];
                let off = (cell as i64 % CELLS) * 8;
                b.bin(BinOp::Add, t, base, off);
                b.store(s, t, 0);
            }
            Op::Mov(d, v) => {
                let d = regs[d as usize % regs.len()];
                b.mov(d, v as i64);
            }
        }
    }
    b.add(i, i, 1i64);
    b.cmp(CmpOp::Lt, c, i, (trip % 12 + 2) as i64);
    b.branch(c, body, done);
    b.switch_to(done);
    let acc = regs[0];
    for &r in &regs[1..] {
        b.add(acc, acc, r);
    }
    b.ret(Some(Operand::Reg(acc)));
    Program::with_params(
        b.finish().expect("generated programs are well-formed"),
        DataSegment::zeroed(DATA, CELLS as usize),
        vec![DATA as i64],
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i8>())
            .prop_map(|(o, d, s, i)| Op::Alu(o, d, s, i)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, d, s)| Op::Cmp(o, d, s)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, c)| Op::Load(d, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, c)| Op::Store(s, c)),
        (any::<u8>(), any::<i8>()).prop_map(|(d, v)| Op::Mov(d, v)),
    ]
}

fn data_only(mem: &BTreeMap<u64, i64>) -> BTreeMap<u64, i64> {
    mem.iter()
        .filter(|(a, _)| **a < SPILL_BASE)
        .map(|(a, v)| (*a, *v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random program, compiled under any optimization mix, simulated on
    /// the resilient core, matches the reference interpreter.
    #[test]
    fn compile_simulate_equals_interpret(
        script in prop::collection::vec(op_strategy(), 1..24),
        trip in any::<u8>(),
        bits in 0u32..32,
    ) {
        let program = build(&script, trip);
        let golden = interp::golden(&program).expect("interprets");
        let config = CompilerConfig {
            resilient: true,
            sb_size: 4,
            livm: bits & 1 != 0,
            prune: bits & 2 != 0,
            licm: bits & 4 != 0,
            sched: bits & 8 != 0,
            store_aware_ra: bits & 16 != 0,
            policy: turnpike::compiler::ProtectionPolicy::Uniform,
        };
        let out = compile(&program, &config).expect("compiles");
        let sim = Core::new(&out.program, SimConfig::turnpike(4, 10))
            .run(&turnpike::sim::FaultPlan::none())
            .expect("simulates");
        prop_assert_eq!(sim.ret, golden.0);
        prop_assert_eq!(data_only(&sim.memory.to_btree()), data_only(&golden.1));
    }

    /// The partitioner keeps every region within the store budget, for any
    /// program and SB size.
    #[test]
    fn region_budget_invariant(
        script in prop::collection::vec(op_strategy(), 1..32),
        trip in any::<u8>(),
        sb in 2u32..12,
    ) {
        let program = build(&script, trip);
        let out = compile(&program, &CompilerConfig::turnstile(sb));
        // Compilation may legitimately fail only via RegionOverflow —
        // and the pipeline must never emit a program beyond the SB bound.
        if let Ok(out) = out {
            // Count the max stores between boundaries along the flat
            // instruction stream (a conservative dynamic-path check for the
            // generated single-loop shape).
            let mut run = 0u32;
            let mut max = 0u32;
            for inst in &out.program.insts {
                use turnpike::isa::MachInst;
                match inst {
                    MachInst::RegionBoundary { .. } => run = 0,
                    i if i.is_store() => {
                        run += 1;
                        max = max.max(run);
                    }
                    _ => {}
                }
            }
            prop_assert!(max <= sb, "straight-line run of {max} stores > SB {sb}");
        }
    }

    /// Turnpike run with a single injected parity fault always recovers to
    /// the fault-free result.
    #[test]
    fn single_fault_never_corrupts(
        script in prop::collection::vec(op_strategy(), 4..20),
        trip in any::<u8>(),
        strike in 1u64..400,
        reg in 0u8..32,
        bit in 0u8..64,
    ) {
        let program = build(&script, trip);
        let spec = RunSpec::new(Scheme::Turnpike);
        let golden = run_kernel(&program, &spec).expect("fault-free run");
        let plan = turnpike::sim::FaultPlan::new(vec![turnpike::sim::Fault {
            strike_cycle: strike % golden.outcome.stats.cycles.max(2),
            detect_latency: 1 + strike % 10,
            kind: turnpike::sim::FaultKind::RegisterParity { reg, bit },
        }]);
        let compiled = compile(&program, &spec.compiler_config()).expect("compiles");
        let run = Core::new(&compiled.program, spec.sim_config())
            .run(&plan)
            .expect("faulted run completes");
        prop_assert_eq!(run.ret, golden.outcome.ret);
        prop_assert_eq!(run.memory, golden.outcome.memory);
    }
}
