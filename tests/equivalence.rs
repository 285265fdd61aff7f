//! Cross-crate equivalence: for every kernel in the catalog and every
//! scheme, compiling and simulating must reproduce the IR interpreter's
//! architectural result exactly (return value and data memory).

use std::collections::BTreeMap;
use turnpike::compiler::SPILL_BASE;
use turnpike::ir::interp;
use turnpike::resilience::{run_kernel, RunSpec, Scheme};
use turnpike::workloads::{all_kernels, Scale};

/// Golden (ret, memory) with spill slots masked out (they are an artifact
/// of register allocation, not program semantics).
fn data_only(mem: &BTreeMap<u64, i64>) -> BTreeMap<u64, i64> {
    mem.iter()
        .filter(|(a, _)| **a < SPILL_BASE)
        .map(|(a, v)| (*a, *v))
        .collect()
}

fn check_scheme(scheme: Scheme) {
    for k in all_kernels(Scale::Smoke) {
        let golden =
            interp::golden(&k.program).unwrap_or_else(|e| panic!("{}: interp: {e}", k.name));
        let run = run_kernel(&k.program, &RunSpec::new(scheme))
            .unwrap_or_else(|e| panic!("{}/{:?}: {e}", k.name, scheme));
        assert_eq!(run.outcome.ret, golden.0, "{} ret under {scheme:?}", k.name);
        assert_eq!(
            data_only(&run.outcome.memory.to_btree()),
            data_only(&golden.1),
            "{} memory under {scheme:?}",
            k.name
        );
    }
}

#[test]
fn baseline_matches_interpreter_on_all_kernels() {
    check_scheme(Scheme::Baseline);
}

#[test]
fn turnstile_matches_interpreter_on_all_kernels() {
    check_scheme(Scheme::Turnstile);
}

#[test]
fn turnpike_matches_interpreter_on_all_kernels() {
    check_scheme(Scheme::Turnpike);
}

#[test]
fn middle_ladder_rungs_match_interpreter() {
    check_scheme(Scheme::FastRelease);
    check_scheme(Scheme::FastReleasePruneLicm);
}

#[test]
fn all_schemes_agree_with_each_other_on_a_sample() {
    let kernels = all_kernels(Scale::Smoke);
    for k in kernels.iter().step_by(7) {
        let mut results = Vec::new();
        for s in Scheme::LADDER {
            let run = run_kernel(&k.program, &RunSpec::new(s))
                .unwrap_or_else(|e| panic!("{}/{s:?}: {e}", k.name));
            results.push((
                s,
                run.outcome.ret,
                data_only(&run.outcome.memory.to_btree()),
            ));
        }
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{}: {:?} vs {:?}", k.name, w[0].0, w[1].0);
            assert_eq!(w[0].2, w[1].2, "{}: {:?} vs {:?}", k.name, w[0].0, w[1].0);
        }
    }
}

#[test]
fn machine_encoding_round_trips_compiled_kernels() {
    for k in all_kernels(Scale::Smoke).iter().step_by(5) {
        let cc = Scheme::Turnpike.compiler_config(4);
        let out = turnpike::compiler::compile(&k.program, &cc)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let bytes = turnpike::isa::encode_program(&out.program.insts)
            .unwrap_or_else(|e| panic!("{}: encode: {e}", k.name));
        let back = turnpike::isa::decode_program(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode: {e}", k.name));
        assert_eq!(back, out.program.insts, "{}", k.name);
    }
}

#[test]
fn compiled_kernels_validate_structurally() {
    for k in all_kernels(Scale::Smoke) {
        for scheme in [Scheme::Baseline, Scheme::Turnstile, Scheme::Turnpike] {
            let cc = scheme.compiler_config(4);
            let out = turnpike::compiler::compile(&k.program, &cc)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            out.program
                .validate()
                .unwrap_or_else(|e| panic!("{}/{scheme:?}: {e}", k.name));
        }
    }
}
