//! The 36-benchmark catalog.
//!
//! One entry per benchmark of the paper's evaluation (16 × SPEC CPU2006,
//! 13 × SPEC CPU2017, 7 × SPLASH3). Each maps onto a [`crate::templates`] shape
//! with parameters chosen to echo what makes the original interesting for
//! the paper's mechanisms; see the module docs of [`crate`] for the axes.

use crate::templates::{
    branchy, butterfly, gap_stencil, high_pressure, matrix, pointer_chase, reduction, rmw_table,
    sort_pass, stencil, streaming,
};
use turnpike_ir::Program;

/// Benchmark suite a kernel stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006.
    Cpu2006,
    /// SPEC CPU2017.
    Cpu2017,
    /// SPLASH3.
    Splash3,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Cpu2006 => write!(f, "SPEC CPU2006"),
            Suite::Cpu2017 => write!(f, "SPEC CPU2017"),
            Suite::Splash3 => write!(f, "SPLASH3"),
        }
    }
}

/// How large the kernels should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small trip counts for unit/integration tests.
    Smoke,
    /// Evaluation size, used by the `reproduce` harness.
    Full,
}

impl Scale {
    /// The scale's lowercase name (`"smoke"` / `"full"`), as used on the
    /// command line, in job requests and in perf records.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }

    fn f(self, full: i64) -> i64 {
        match self {
            Scale::Smoke => (full / 16).max(8),
            Scale::Full => full,
        }
    }
}

/// Stable identity of a catalog kernel. Two kernels with the same id have
/// byte-identical programs — `build` is a pure function of `(name, suite,
/// scale)` — so the id is a sound memoization key for compile and
/// simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelId {
    /// Which suite the kernel stands in for.
    pub suite: Suite,
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// The size the kernel was built at.
    pub scale: Scale,
}

/// A named kernel with its suite and program.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Which suite it stands in for.
    pub suite: Suite,
    /// The size this instance was built at.
    pub scale: Scale,
    /// The IR program.
    pub program: Program,
}

impl Kernel {
    /// The kernel's cache identity (see [`KernelId`]).
    pub fn id(&self) -> KernelId {
        KernelId {
            suite: self.suite,
            name: self.name,
            scale: self.scale,
        }
    }
}

fn build(name: &'static str, suite: Suite, s: Scale) -> Kernel {
    use Suite::*;
    let program = match (name, suite) {
        // ---- SPEC CPU2006 -------------------------------------------------
        ("astar", Cpu2006) => pointer_chase(name, 256, s.f(2400), 9),
        ("bwaves", Cpu2006) => streaming(name, s.f(1500), 3, 6),
        ("bzip2", Cpu2006) => sort_pass(name, s.f(900) as usize, 16),
        ("gcc", Cpu2006) => branchy(name, s.f(2200)),
        ("gemsfdtd", Cpu2006) => high_pressure(name, s.f(1000), 8, 26),
        ("gobmk", Cpu2006) => branchy(name, s.f(1800)),
        ("hmmer", Cpu2006) => rmw_table(name, s.f(1600), 64),
        ("leslie3d", Cpu2006) => stencil(name, s.f(700), 4, 3),
        ("libquan", Cpu2006) => streaming(name, s.f(1800), 2, 5),
        ("mcf", Cpu2006) => pointer_chase(name, 2048, s.f(2000), 11),
        ("milc", Cpu2006) => gap_stencil(name, s.f(900), 0),
        ("omnetpp", Cpu2006) => pointer_chase(name, 1024, s.f(1800), 5),
        ("perlbench", Cpu2006) => rmw_table(name, s.f(1500), 128),
        ("soplex", Cpu2006) => matrix(name, s.f(70)),
        ("xalan", Cpu2006) => pointer_chase(name, 512, s.f(1600), 7),
        ("zeusmp", Cpu2006) => stencil(name, s.f(500), 8, 4),
        // ---- SPEC CPU2017 -------------------------------------------------
        ("bwaves", Cpu2017) => streaming(name, s.f(1200), 4, 8),
        ("cactubssn", Cpu2017) => stencil(name, s.f(600), 10, 3),
        ("deepsjeng", Cpu2017) => reduction(name, s.f(2000), 2, 64),
        ("exchange2", Cpu2017) => streaming(name, s.f(1400), 2, 8),
        ("fotonik3d", Cpu2017) => gap_stencil(name, s.f(850), 1),
        ("lbm", Cpu2017) => high_pressure(name, s.f(1100), 10, 24),
        ("leela", Cpu2017) => reduction(name, s.f(2400), 2, 128),
        ("mcf", Cpu2017) => pointer_chase(name, 4096, s.f(2200), 13),
        ("nab", Cpu2017) => reduction(name, s.f(1800), 2, 96),
        ("roms", Cpu2017) => streaming(name, s.f(1000), 3, 7),
        ("x264", Cpu2017) => rmw_table(name, s.f(1700), 256),
        ("xalan", Cpu2017) => pointer_chase(name, 768, s.f(1500), 6),
        ("xz", Cpu2017) => rmw_table(name, s.f(1500), 512),
        // ---- SPLASH3 ------------------------------------------------------
        ("cholesky", Splash3) => matrix(name, s.f(80)),
        ("fft", Splash3) => butterfly(name, 256, s.f(48) / 8),
        ("lu-cg", Splash3) => matrix(name, s.f(64)),
        ("ocean-ng", Splash3) => gap_stencil(name, s.f(950), 0),
        ("radiosity", Splash3) => branchy(name, s.f(1900)),
        ("radix", Splash3) => sort_pass(name, s.f(1100) as usize, 32),
        ("water-sp", Splash3) => reduction(name, s.f(2100), 2, 64),
        _ => unreachable!("unknown kernel {name}/{suite:?}"),
    };
    Kernel {
        name,
        suite,
        scale: s,
        program,
    }
}

/// The names per suite, in the paper's figure order.
pub const CPU2006: [&str; 16] = [
    "astar",
    "bwaves",
    "bzip2",
    "gcc",
    "gemsfdtd",
    "gobmk",
    "hmmer",
    "leslie3d",
    "libquan",
    "mcf",
    "milc",
    "omnetpp",
    "perlbench",
    "soplex",
    "xalan",
    "zeusmp",
];

/// SPEC CPU2017 names.
pub const CPU2017: [&str; 13] = [
    "bwaves",
    "cactubssn",
    "deepsjeng",
    "exchange2",
    "fotonik3d",
    "lbm",
    "leela",
    "mcf",
    "nab",
    "roms",
    "x264",
    "xalan",
    "xz",
];

/// SPLASH3 names.
pub const SPLASH3: [&str; 7] = [
    "cholesky",
    "fft",
    "lu-cg",
    "ocean-ng",
    "radiosity",
    "radix",
    "water-sp",
];

/// All 36 kernels in the paper's figure order.
pub fn all_kernels(scale: Scale) -> Vec<Kernel> {
    let mut v = Vec::with_capacity(36);
    for n in CPU2006 {
        v.push(build(n, Suite::Cpu2006, scale));
    }
    for n in CPU2017 {
        v.push(build(n, Suite::Cpu2017, scale));
    }
    for n in SPLASH3 {
        v.push(build(n, Suite::Splash3, scale));
    }
    v
}

/// Look up one kernel by suite and name.
pub fn kernel_by_name(suite: Suite, name: &str, scale: Scale) -> Option<Kernel> {
    let names: &[&'static str] = match suite {
        Suite::Cpu2006 => &CPU2006,
        Suite::Cpu2017 => &CPU2017,
        Suite::Splash3 => &SPLASH3,
    };
    names
        .iter()
        .find(|&&n| n == name)
        .map(|&n| build(n, suite, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnpike_ir::interp;

    #[test]
    fn all_36_build_and_terminate() {
        let kernels = all_kernels(Scale::Smoke);
        assert_eq!(kernels.len(), 36);
        for k in &kernels {
            turnpike_ir::verify_function(&k.program.func)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let out = interp::run(&k.program, &interp::InterpConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(out.dyn_insts > 50, "{} too trivial", k.name);
        }
    }

    #[test]
    fn full_scale_is_larger_than_smoke() {
        let smoke = kernel_by_name(Suite::Cpu2017, "leela", Scale::Smoke).unwrap();
        let full = kernel_by_name(Suite::Cpu2017, "leela", Scale::Full).unwrap();
        let a = interp::run(&smoke.program, &interp::InterpConfig::default()).unwrap();
        let b = interp::run(&full.program, &interp::InterpConfig::default()).unwrap();
        assert!(b.dyn_insts > 4 * a.dyn_insts);
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name(Suite::Cpu2006, "mcf", Scale::Smoke).is_some());
        assert!(kernel_by_name(Suite::Cpu2017, "mcf", Scale::Smoke).is_some());
        assert!(kernel_by_name(Suite::Splash3, "mcf", Scale::Smoke).is_none());
        assert!(kernel_by_name(Suite::Splash3, "radix", Scale::Smoke).is_some());
    }

    #[test]
    fn suite_display() {
        assert_eq!(Suite::Cpu2006.to_string(), "SPEC CPU2006");
        assert_eq!(Suite::Splash3.to_string(), "SPLASH3");
    }

    #[test]
    fn same_name_different_suite_differs() {
        let a = kernel_by_name(Suite::Cpu2006, "bwaves", Scale::Smoke).unwrap();
        let b = kernel_by_name(Suite::Cpu2017, "bwaves", Scale::Smoke).unwrap();
        assert_ne!(a.program, b.program);
    }
}
