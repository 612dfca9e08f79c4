//! The differential executor: one generated program through every
//! engine configuration, observables compared against the
//! interpreter.
//!
//! The matrix spans the paper's engine space: pure interpretation
//! (with and without picoJava-style folding), translate-on-first-
//! invocation JIT, a threshold policy, the tiered policy, the
//! bounded code cache at a pathological capacity under each eviction
//! policy — the configurations where eviction demotes running frames
//! mid-flight and re-translation churns, which is exactly where a
//! semantic bug would hide — plus the register-IR tier: the IR
//! interpreter, the IR-backed JIT, and the IR-backed JIT under the
//! pathological bounded cache (lowering + translation + eviction all
//! interacting).

use crate::coverage::Coverage;
use jrt_bytecode::Program;
use jrt_trace::NullSink;
use jrt_vm::{
    CodeCacheConfig, EvictionPolicy, ExecMode, GcConfig, JitPolicy, ObservedRun, Vm, VmConfig,
};

/// Pathological code-cache capacity in bytes — small enough that a
/// handful of translated methods already evict each other (mirrors
/// the capacity-sweep knee in the codecache study).
pub const PATHOLOGICAL_CAPACITY: u64 = 384;

/// Per-case bytecode budget: runaway programs end in the same
/// deterministic `BudgetExceeded` on every engine.
pub const CASE_BUDGET: u64 = 150_000;

/// Matrix labels in execution order; index 0 is the reference engine.
pub const MATRIX_LABELS: [&str; 11] = [
    "interp",
    "interp-fold",
    "jit",
    "thresh",
    "tiered",
    "cc-lru",
    "cc-swlru",
    "cc-hot",
    "ir-interp",
    "ir-jit",
    "ir-cc",
];

/// Builds the engine matrix. All configs share the same bytecode
/// budget so nonterminating cases stay comparable.
pub fn engine_configs() -> Vec<(&'static str, VmConfig)> {
    let base = |mode: ExecMode| VmConfig {
        mode,
        max_bytecodes: CASE_BUDGET,
        ..VmConfig::default()
    };
    let bounded = |policy: EvictionPolicy| {
        let mut cfg = base(ExecMode::Jit(JitPolicy::FirstInvocation));
        cfg.code_cache = CodeCacheConfig::bounded(PATHOLOGICAL_CAPACITY, policy);
        cfg
    };
    vec![
        ("interp", base(ExecMode::Interp)),
        ("interp-fold", {
            let mut c = base(ExecMode::Interp);
            c.folding = true;
            c
        }),
        ("jit", base(ExecMode::Jit(JitPolicy::FirstInvocation))),
        ("thresh", base(ExecMode::Jit(JitPolicy::Threshold(2)))),
        (
            "tiered",
            base(ExecMode::Jit(JitPolicy::Tiered { t1: 1, t2: 4 })),
        ),
        ("cc-lru", bounded(EvictionPolicy::Lru)),
        ("cc-swlru", bounded(EvictionPolicy::SizeWeightedLru)),
        ("cc-hot", bounded(EvictionPolicy::HotnessDecay)),
        ("ir-interp", base(ExecMode::IrInterp)),
        ("ir-jit", base(ExecMode::IrJit(JitPolicy::FirstInvocation))),
        ("ir-cc", {
            // The IR translator installs denser code, so the bounded
            // cache only churns at a proportionally smaller capacity.
            let mut cfg = base(ExecMode::IrJit(JitPolicy::FirstInvocation));
            cfg.code_cache =
                CodeCacheConfig::bounded(PATHOLOGICAL_CAPACITY * 3 / 4, EvictionPolicy::Lru);
            cfg
        }),
    ]
}

/// The same engine matrix under the forcing tiny nursery
/// ([`GcConfig::tiny_nursery`]): every engine runs the generational
/// collector with collections every couple of KiB of allocation, so
/// each engine interleaves minor/major collections at *different*
/// allocation-driven points — and the observables must still all
/// match the interpreter's. Same labels as [`MATRIX_LABELS`], so
/// coverage and reports stay comparable.
pub fn engine_configs_gc() -> Vec<(&'static str, VmConfig)> {
    engine_configs()
        .into_iter()
        .map(|(label, cfg)| (label, cfg.with_gc(GcConfig::tiny_nursery())))
        .collect()
}

/// A harness self-test hook: corrupt the named engine's result after
/// its run — its observables under [`crate::Oracle::Diff`], its cost
/// vector under [`crate::Oracle::Perf`] — proving the oracle detects
/// (and shrinks) a seeded fault.
#[derive(Debug, Clone, Copy)]
pub struct Sabotage {
    /// Matrix label whose result gets corrupted.
    pub mode: &'static str,
}

/// The GC-matrix self-test hook: a *real* seeded collector bug, not a
/// result corruption. The named engine's VM silently drops its
/// `drop`-th remembered-set enrollment
/// ([`jrt_vm::VmConfig::gc_sabotage_drop_barrier`]), so a minor
/// collection can reclaim a live nursery object — the differential
/// must surface that as an observable divergence against the
/// (unsabotaged) interpreter reference.
#[derive(Debug, Clone, Copy)]
pub struct GcSabotage {
    /// Matrix label whose VM loses a write barrier.
    pub mode: &'static str,
    /// Which remembered-set enrollment (0-based) to drop.
    pub drop: u64,
}

/// The full differential result of one case.
#[derive(Debug, Default)]
pub struct CaseResult {
    /// Every engine's observed run, in matrix order.
    pub observed: Vec<(&'static str, ObservedRun)>,
    /// Labels whose observables differ from the interpreter's.
    pub divergent: Vec<&'static str>,
}

impl CaseResult {
    /// Reference (interpreter) run.
    pub fn reference(&self) -> &ObservedRun {
        &self.observed[0].1
    }

    /// Runs each `(label, config)` engine in order through `run`,
    /// appending its observed run and comparing its observables with
    /// the first engine's (the interpreter reference). Every oracle's
    /// case runner is a call (or two) of this.
    pub fn run_engines(
        &mut self,
        engines: impl IntoIterator<Item = (&'static str, VmConfig)>,
        mut run: impl FnMut(&'static str, VmConfig) -> ObservedRun,
    ) {
        for (label, cfg) in engines {
            let observed = run(label, cfg);
            if let Some((_, reference)) = self.observed.first() {
                if observed.observables != reference.observables {
                    self.divergent.push(label);
                }
            }
            self.observed.push((label, observed));
        }
    }
}

/// Runs `program` through the whole matrix and compares observables.
pub fn run_case(program: &Program, sabotage: Option<&Sabotage>) -> CaseResult {
    let mut cr = CaseResult::default();
    cr.run_engines(engine_configs(), |label, cfg| {
        let mut run = Vm::new(program, cfg).run_observed(&mut NullSink);
        if sabotage.is_some_and(|s| s.mode == label) {
            // Corrupt the exit value (or fabricate one on error):
            // the smallest possible observable lie.
            run.observables.outcome = match run.observables.outcome {
                Ok(v) => Ok(Some(v.unwrap_or(0) ^ 1)),
                Err(_) => Ok(Some(0)),
            };
        }
        run
    });
    cr
}

/// Folds one case's results into the coverage map.
pub fn record_case(cov: &mut Coverage, cr: &CaseResult) {
    cov.cases += 1;
    cov.record_opcodes(&cr.reference().observables.opcode_counts);
    if cr.reference().observables.outcome.is_err() {
        cov.error_outcomes += 1;
    }
    for (label, run) in &cr.observed {
        cov.record_transitions(label, &run.counters);
    }
    cov.divergences += cr.divergent.len() as u64;
}
