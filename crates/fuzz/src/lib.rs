//! Coverage-guided differential fuzzer for the bytecode toolchain and
//! every execution engine.
//!
//! The whole-system invariant behind the paper's methodology is that
//! all execution techniques — interpretation (plain and folding),
//! translate-on-first-invocation JIT, threshold and tiered
//! compilation, and the bounded code cache under every eviction
//! policy — implement the *same* bytecode semantics; the performance
//! studies only make sense if the engines are observationally
//! equivalent. This crate checks that invariant mechanically:
//!
//! * [`gen`] — a structured generator producing *always-verifiable*
//!   programs (bounded loops by construction, guarded or
//!   deterministically-faulting arithmetic, rank-ordered acyclic call
//!   graphs over classes/fields/virtual slots) from a replayable
//!   [`jrt_testkit::Rng`] seed;
//! * [`diff`] — the differential executor: each program runs through
//!   the full engine matrix and every engine's
//!   [`jrt_vm::Observables`] must equal the interpreter's;
//! * [`coverage`] — the coverage map over executed opcodes, verifier
//!   error paths, and eviction/tier transitions; generation weights
//!   boost features whose opcodes are still uncovered;
//! * [`neg`] — the negative suite asserting all 13 toolchain
//!   rejection paths;
//! * [`perf`] — the performance oracle: per-engine cost vectors
//!   checked against the cost-model invariants;
//! * [`shrink`] — greedy minimization of any failing program to a
//!   small reproducer.
//!
//! One round loop, [`fuzz_with`], drives every [`Oracle`]: the
//! correctness differential ([`Oracle::Diff`], which [`fuzz`] runs),
//! the same differential under the forcing tiny nursery
//! ([`Oracle::Gc`]), and the performance oracle ([`Oracle::Perf`]).
//!
//! # Determinism
//!
//! [`fuzz_with`] generates cases in fixed-size rounds: the whole round is
//! generated sequentially from the round-start coverage snapshot,
//! executed in parallel, then folded back into coverage in case-index
//! order. The report is therefore byte-identical at any `jobs` count,
//! and any case replays alone from `(seed, index)` via
//! [`jrt_testkit::Rng::for_case`].
//!
//! ```
//! let report = jrt_fuzz::fuzz(0x5EED, 8, 2, None);
//! assert_eq!(report.divergences.len(), 0);
//! assert_eq!(report.coverage.cases, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod diff;
pub mod gen;
pub mod lower;
pub mod neg;
pub mod perf;
pub mod shrink;
pub mod spec;

pub use coverage::{Coverage, OPCODE_NAMES, TRANSITION_KEYS};
pub use diff::{
    engine_configs, engine_configs_gc, run_case, CaseResult, GcSabotage, Sabotage, MATRIX_LABELS,
};
pub use gen::gen_spec;
pub use lower::lower;
pub use perf::{
    run_perf_case, CostVector, PerfCase, PerfFinding, GC_LABEL, PERF_LABELS, SIZED_LABEL,
};
pub use spec::ProgramSpec;

use jrt_bytecode::Program;
use jrt_testkit::Rng;
use jrt_trace::NullSink;
use jrt_vm::Vm;

/// Cases generated per round. Generation is sequential within a
/// round; execution is parallel; coverage merges at the round
/// boundary. Smaller rounds track coverage more closely, larger
/// rounds parallelize better.
pub const ROUND: u64 = 32;

/// One detected divergence, already minimized.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The run seed.
    pub seed: u64,
    /// Case index within the run; replay with
    /// `Rng::for_case(seed, case)`.
    pub case: u64,
    /// Engine labels that disagreed with the interpreter.
    pub modes: Vec<&'static str>,
    /// Statement/expression size of the spec as generated.
    pub original_size: usize,
    /// The shrunken reproducer.
    pub minimized: ProgramSpec,
}

/// One detected cost-model violation, attributed and minimized.
#[derive(Debug, Clone)]
pub struct PerfViolation {
    /// The run seed.
    pub seed: u64,
    /// Case index within the run; replay with
    /// `Rng::for_case(seed, case)`.
    pub case: u64,
    /// Engine label the violation is attributed to.
    pub label: &'static str,
    /// Violated invariant name (see [`perf`] module docs).
    pub invariant: &'static str,
    /// Deterministic evidence string.
    pub detail: String,
    /// Statement/expression size of the spec as generated.
    pub original_size: usize,
    /// The shrunken reproducer (still violating *some* cost
    /// invariant).
    pub minimized: ProgramSpec,
}

/// The perf-oracle section of a [`FuzzReport`], present when the run
/// used [`Oracle::Perf`].
#[derive(Debug)]
pub struct PerfReport {
    /// Per-engine cost totals over all cases, in [`PERF_LABELS`]
    /// order.
    pub totals: Vec<(&'static str, CostVector)>,
    /// All cost-model violations, in case order.
    pub violations: Vec<PerfViolation>,
}

/// Outcome of a fuzzing run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Accumulated coverage (opcodes, verifier errors, transitions).
    pub coverage: Coverage,
    /// All divergences, in case order.
    pub divergences: Vec<Divergence>,
    /// Cost totals and violations ([`Oracle::Perf`] runs only).
    pub perf: Option<PerfReport>,
}

impl FuzzReport {
    /// Deterministic rendering: the coverage report plus one block per
    /// divergence with replay instructions. CI diffs this across
    /// `--jobs` counts.
    pub fn render(&self, seed: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "seed: {seed:#x}").unwrap();
        out.push_str(&self.coverage.report());
        for d in &self.divergences {
            writeln!(
                out,
                "divergence at case {} (modes: {}); replay: JRT_FUZZ_SEED={:#x} case {}",
                d.case,
                d.modes.join(","),
                d.seed,
                d.case
            )
            .unwrap();
            writeln!(
                out,
                "  minimized ({} -> {} nodes): {:?}",
                d.original_size,
                d.minimized.size(),
                d.minimized
            )
            .unwrap();
        }
        if let Some(perf) = &self.perf {
            out.push_str("perf totals:\n");
            for (label, c) in &perf.totals {
                write!(out, "  {label}:").unwrap();
                for (name, value) in c.metrics() {
                    write!(out, " {name}={value}").unwrap();
                }
                out.push('\n');
            }
            for v in &perf.violations {
                writeln!(
                    out,
                    "perf violation at case {} ({}: {}): {}; replay: JRT_FUZZ_SEED={:#x} case {}",
                    v.case, v.label, v.invariant, v.detail, v.seed, v.case
                )
                .unwrap();
                writeln!(
                    out,
                    "  minimized ({} -> {} nodes): {:?}",
                    v.original_size,
                    v.minimized.size(),
                    v.minimized
                )
                .unwrap();
            }
        }
        out
    }
}

/// Generates and lowers case `index` of a run exactly as [`fuzz`]
/// would, given the coverage snapshot `cov` at its round start. With
/// an empty snapshot this reproduces any case of round 0.
pub fn gen_case(seed: u64, index: u64, cov: &Coverage) -> ProgramSpec {
    let mut rng = Rng::for_case(seed, index);
    gen::gen_spec(&mut rng, cov)
}

/// What a fuzz run checks every case against, each with its optional
/// seeded fault (the harness self-test). Each variant owns its case
/// runner ([`Oracle::run`]) and its shrink predicates
/// ([`Oracle::diverges`], [`Oracle::violates`]).
#[derive(Debug, Clone, Copy)]
pub enum Oracle {
    /// Every engine's observables against the interpreter's
    /// ([`engine_configs`]); the sabotage corrupts one engine's
    /// observables.
    Diff(Option<Sabotage>),
    /// The same differential with every engine under the forcing tiny
    /// nursery ([`engine_configs_gc`]), so each engine collects at
    /// *different* allocation-driven points. The sabotage drops one
    /// remembered-set enrollment on one engine before its run: a real
    /// collector bug, which diverges only if a minor collection
    /// exploits the missing entry, so whether a given drop is
    /// observable depends on the program.
    Gc(Option<GcSabotage>),
    /// The differential plus the cost-model invariants ([`perf`]); the
    /// sabotage corrupts one engine's cost vector, which must surface
    /// as a violation.
    Perf(Option<Sabotage>),
}

impl Oracle {
    /// Runs `program` through this oracle's engine matrix.
    pub fn run(&self, program: &Program) -> PerfCase {
        let base = match *self {
            Oracle::Diff(sabotage) => diff::run_case(program, sabotage.as_ref()),
            Oracle::Gc(sabotage) => {
                let mut cr = CaseResult::default();
                cr.run_engines(engine_configs_gc(), |label, mut cfg| {
                    if let Some(s) = sabotage.filter(|s| s.mode == label) {
                        cfg.gc_sabotage_drop_barrier = Some(s.drop);
                    }
                    Vm::new(program, cfg).run_observed(&mut NullSink)
                });
                cr
            }
            Oracle::Perf(sabotage) => return perf::run_perf_case(program, sabotage.as_ref()),
        };
        PerfCase {
            base,
            costs: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Whether `spec` still diverges: the divergence shrinker's
    /// predicate. The perf oracle's sabotage corrupts costs, not
    /// observables, so its divergences shrink against the unsabotaged
    /// [`Oracle::Diff`] matrix. Specs that no longer lower/verify
    /// don't count.
    pub fn diverges(&self, spec: &ProgramSpec) -> bool {
        let oracle = match self {
            Oracle::Perf(_) => &Oracle::Diff(None),
            other => other,
        };
        lower::lower(spec).is_ok_and(|p| !oracle.run(&p).base.divergent.is_empty())
    }

    /// Whether `spec` still violates some cost invariant under this
    /// oracle (never outside [`Oracle::Perf`]): the violation
    /// shrinker's predicate. Specs that no longer lower/verify don't
    /// count.
    pub fn violates(&self, spec: &ProgramSpec) -> bool {
        lower::lower(spec).is_ok_and(|p| !self.run(&p).violations.is_empty())
    }
}

/// Runs the correctness differential ([`Oracle::Diff`]): `cases`
/// generated programs through the full engine matrix on `jobs`
/// threads, preceded by the negative suite. Any diverging case is
/// shrunk to a minimal reproducer. See [`fuzz_with`].
pub fn fuzz(seed: u64, cases: u64, jobs: usize, sabotage: Option<Sabotage>) -> FuzzReport {
    fuzz_with(seed, cases, jobs, Oracle::Diff(sabotage))
}

/// Runs the fuzzer: `cases` generated programs through `oracle`'s
/// engine matrix on `jobs` threads ([`jrt_testkit::par_map`]),
/// preceded by the negative suite. Every diverging case, and every
/// case violating a cost invariant, is shrunk to a minimal
/// reproducer; an [`Oracle::Perf`] run's report also carries
/// [`FuzzReport::perf`].
///
/// Deterministic in `(seed, cases, oracle)`: the same inputs produce
/// the same programs, coverage, and verdicts at any `jobs` count.
/// Callers honouring the `JRT_FUZZ_SEED` / `JRT_FUZZ_CASES`
/// environment overrides should map them via
/// [`jrt_testkit::effective_cases_seed`] *before* calling.
pub fn fuzz_with(seed: u64, cases: u64, jobs: usize, oracle: Oracle) -> FuzzReport {
    let mut cov = Coverage::new();
    neg::exercise(&mut cov);
    let mut divergences = Vec::new();
    let mut perf = matches!(oracle, Oracle::Perf(_)).then(|| PerfReport {
        totals: PERF_LABELS
            .iter()
            .map(|l| (*l, CostVector::default()))
            .collect(),
        violations: Vec::new(),
    });
    let mut start = 0u64;
    while start < cases {
        let n = ROUND.min(cases - start);
        // Sequential generation from the round-start snapshot keeps
        // coverage guidance deterministic under parallel execution.
        let snapshot = cov.clone();
        let specs: Vec<(u64, ProgramSpec)> = (start..start + n)
            .map(|i| (i, gen_case(seed, i, &snapshot)))
            .collect();
        let results = jrt_testkit::par_map(&specs, jobs, |(case, spec)| {
            let program = lower::lower(spec).unwrap_or_else(|e| {
                panic!(
                    "seed {seed:#x} case {case}: generated spec failed to lower/verify: {e}\n{spec:?}"
                )
            });
            oracle.run(&program)
        });
        for ((case, spec), pc) in specs.iter().zip(&results) {
            diff::record_case(&mut cov, &pc.base);
            if !pc.base.divergent.is_empty() {
                divergences.push(Divergence {
                    seed,
                    case: *case,
                    modes: pc.base.divergent.clone(),
                    original_size: spec.size(),
                    minimized: jrt_testkit::minimize(
                        spec.clone(),
                        |s| oracle.diverges(s),
                        shrink::candidates,
                    ),
                });
            }
            let Some(perf) = &mut perf else { continue };
            for (label, cost) in &pc.costs {
                if let Some(slot) = perf.totals.iter_mut().find(|(l, _)| l == label) {
                    slot.1.add(cost);
                }
            }
            if !pc.violations.is_empty() {
                // One shrink per case, shared by its findings: the
                // predicate is "still violates some cost invariant".
                let minimized =
                    jrt_testkit::minimize(spec.clone(), |s| oracle.violates(s), shrink::candidates);
                for f in &pc.violations {
                    perf.violations.push(PerfViolation {
                        seed,
                        case: *case,
                        label: f.label,
                        invariant: f.invariant,
                        detail: f.detail.clone(),
                        original_size: spec.size(),
                        minimized: minimized.clone(),
                    });
                }
            }
        }
        start += n;
    }
    FuzzReport {
        coverage: cov,
        divergences,
        perf,
    }
}
