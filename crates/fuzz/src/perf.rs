//! The performance-oracle layer: per-engine cost vectors and explicit
//! cost-model invariants checked on every generated case.
//!
//! Correctness-differential fuzzing ([`crate::diff`]) proves the
//! engine matrix observationally equivalent — but a tiered
//! configuration that is semantically right and pathologically slow
//! passes it silently. This module runs the same matrix with a
//! measuring sink (the one-pass [`SplitSweep`] cache simulator over
//! the paper's L1 points) and collects a [`CostVector`] per engine:
//! executed bytecodes, emitted trace events, translate work split by
//! tier, code-cache install/evict/re-translate churn, and simulated
//! I-/D-cache misses. The vectors are then checked against the
//! cost-model invariants of the paper's execution model:
//!
//! * **translate-attribution** — the Translate-phase events on the
//!   trace are exactly the translator instructions the counters claim
//!   (`translate_events == translate_insts`), on every engine. This
//!   ties [`jrt_vm::Vm::run_observed`]'s counter path to the trace
//!   path.
//! * **installs-accounting** — one successful install per translation
//!   (`code_installs == methods_translated`; the matrix is all per-VM
//!   scope).
//! * **interp-no-translate** — interpreters do no translate work at
//!   all: no translator instructions, no installs, no code bytes, no
//!   Translate-phase events.
//! * **fold-dispatch** — picoJava-style folding shares dispatches; it
//!   must never change the executed bytecode count and never *add*
//!   trace events.
//! * **thresh-subset** — a threshold policy translates a subset of the
//!   methods first-invocation JIT translates, each at most once at
//!   baseline, so its translate work is bounded by the JIT's.
//! * **tiered-baseline** — a tiered policy's *baseline-tier* translate
//!   work (`translate_insts - opt_translate_insts`) is bounded by
//!   first-invocation JIT's; the optimizing tier adds work on top,
//!   which is why the raw totals are not comparable.
//! * **unbounded-no-churn** — unbounded code caches never evict,
//!   re-translate, or fail an install.
//! * **churn-bound** — eviction churn stays within the reuse bound:
//!   every re-translation was preceded by an eviction of that key
//!   (`retranslations <= code_evictions`) and every eviction happened
//!   making room for an install
//!   (`code_evictions <= code_installs + code_install_failures`).
//! * **sized-capacity** — a bounded cache whose capacity equals the
//!   total code bytes the unbounded JIT ever installed evicts nothing,
//!   re-translates nothing, and does exactly the unbounded JIT's
//!   translate work. This extra `cc-sized` engine is derived per case
//!   from the measured `jit` run.
//! * **ir-dispatch-bound** — the register-IR engines dispatch at most
//!   once per executed bytecode: superinstruction fusion and
//!   elimination can only *remove* dispatches
//!   (`ir_dispatches <= bytecodes`, plus one for a dispatch charged to
//!   a faulting step, whose bytecode the counters never credit).
//! * **ir-counters-zero** — non-IR engines never lower methods or
//!   count IR dispatches.
//! * **ir-interp-no-install** — the IR interpreter lowers (translator
//!   work on the trace) but never installs: no translated methods, no
//!   code bytes, no cache churn.
//! * **ir-density** — the IR-backed JIT translates exactly the methods
//!   first-invocation JIT translates but installs no more code bytes:
//!   fused and elided pcs generate nothing.
//!
//! The generational collector adds its own cost-model invariants,
//! checked against the derived `gc-tiny` engine (first-invocation JIT
//! under the forcing tiny nursery) and against every other engine's
//! obligation to do *no* generational work:
//!
//! * **gc-attribution** — the `Gc`/`GcBarrier` phase slices on the
//!   trace are exactly the collector/barrier instructions the
//!   counters claim, on every engine (the GC analog of
//!   translate-attribution).
//! * **gc-off** — engines without the generational collector run no
//!   minor or major collections, copy no bytes, and emit no barrier
//!   instructions. (Legacy threshold mark-sweep may still emit
//!   `Phase::Gc` work, so `gc_insts` itself is *not* required zero.)
//! * **gc-barrier-bound** — the card barrier is two instructions per
//!   reference store, so barrier work is bounded by the executed
//!   `putfield`/`putstatic`/`arrstore` count
//!   (`gc_barrier_insts <= 2 * ref_store_ops`).
//! * **gc-copy-bound** — a copying collector can never move more
//!   bytes than the program ever allocated
//!   (`gc_copied_bytes <= heap_alloc_bytes`).
//!
//! Any violation is attributed to an engine label and an invariant
//! name and shrunk to a minimal reproducer by the same greedy
//! machinery as correctness divergences ([`crate::shrink`]), with
//! "still violates some cost invariant"
//! ([`Oracle::violates`](crate::Oracle::violates)) as the predicate.

use crate::diff::{engine_configs, CaseResult, Sabotage, CASE_BUDGET};
use jrt_bytecode::{ArrayKind, CpIndex, Op, Program};
use jrt_cache::{CacheConfig, SplitSweep};
use jrt_vm::{
    CodeCacheConfig, EvictionPolicy, ExecMode, GcConfig, JitPolicy, ObservedRun, Vm, VmConfig,
};

/// Label of the per-case derived engine: first-invocation JIT under a
/// bounded cache sized to exactly the unbounded JIT's total code
/// bytes.
pub const SIZED_LABEL: &str = "cc-sized";

/// Label of the per-case derived GC engine: first-invocation JIT under
/// the forcing tiny nursery ([`GcConfig::tiny_nursery`]), the only
/// perf engine that runs the generational collector.
pub const GC_LABEL: &str = "gc-tiny";

/// Engine labels a perf run can produce, in report order: the
/// correctness matrix plus [`SIZED_LABEL`] and [`GC_LABEL`].
pub const PERF_LABELS: [&str; 13] = [
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
    SIZED_LABEL,
    GC_LABEL,
];

/// One engine's cost vector for one case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Bytecodes executed.
    pub bytecodes: u64,
    /// Total native trace events emitted (every event fetches its pc,
    /// so this equals the instruction-sweep reference count).
    pub events: u64,
    /// Translate-phase slice of `events`.
    pub translate_events: u64,
    /// Translator instructions per the VM counters (sum of `T_i`).
    pub translate_insts: u64,
    /// Optimizing-tier slice of `translate_insts`.
    pub opt_translate_insts: u64,
    /// Methods translated (counting re-translations and upgrades).
    pub methods_translated: u64,
    /// Re-translations at the optimizing tier.
    pub tier2_recompiles: u64,
    /// Successful code-cache installs.
    pub code_installs: u64,
    /// Code-cache evictions.
    pub code_evictions: u64,
    /// Installs abandoned because the method cannot fit at all.
    pub code_install_failures: u64,
    /// Installs of previously-evicted keys.
    pub retranslations: u64,
    /// Cumulative code bytes ever installed.
    pub code_ever_bytes: u64,
    /// Methods lowered to register IR (IR engines only).
    pub methods_lowered: u64,
    /// IR handler dispatches (IR interpreter only; fusion makes this
    /// at most one per executed bytecode).
    pub ir_dispatches: u64,
    /// Simulated paper-L1 instruction-cache misses.
    pub icache_misses: u64,
    /// Simulated paper-L1 data-cache misses.
    pub dcache_misses: u64,
    /// `Phase::Gc` slice of `events` (collection work on the trace).
    pub gc_events: u64,
    /// `Phase::GcBarrier` slice of `events` (card barriers on the
    /// trace).
    pub gc_barrier_events: u64,
    /// Collector instructions per the VM counters.
    pub gc_insts: u64,
    /// Write-barrier instructions per the VM counters.
    pub gc_barrier_insts: u64,
    /// Minor (nursery) collections.
    pub gc_minor: u64,
    /// Major (full) collections.
    pub gc_major: u64,
    /// Bytes moved by GC evacuation/compaction.
    pub gc_copied_bytes: u64,
    /// Total bytes the program ever allocated on the Java heap.
    pub heap_alloc_bytes: u64,
    /// Executed `putfield`/`putstatic`/`arrstore` bytecodes — every
    /// opcode that *can* take a card barrier (the `arrstore` dispatch
    /// index is shared across element kinds, so this over-counts:
    /// safe for the upper bound).
    pub ref_store_ops: u64,
    /// 1 when the run ended in a runtime fault. A faulting step's
    /// dispatch is charged but its bytecode is not, so the
    /// ir-dispatch-bound invariant widens by exactly this much.
    pub faulted: u64,
}

impl CostVector {
    /// Extracts the vector from an observed run and its measuring
    /// sweep.
    pub fn collect(run: &ObservedRun, sweep: &SplitSweep) -> CostVector {
        let i = &sweep.icache().results()[0];
        let d = &sweep.dcache().results()[0];
        let opcount = |op: Op| {
            run.observables
                .opcode_counts
                .get(usize::from(op.dispatch_index()))
                .copied()
                .unwrap_or(0)
        };
        CostVector {
            bytecodes: run.counters.bytecodes,
            events: i.stats().refs(),
            translate_events: i.translate_stats().refs(),
            translate_insts: run.counters.translate_insts,
            opt_translate_insts: run.counters.opt_translate_insts,
            methods_translated: u64::from(run.counters.methods_translated),
            tier2_recompiles: u64::from(run.counters.tier2_recompiles),
            code_installs: run.counters.code_installs,
            code_evictions: run.counters.code_evictions,
            code_install_failures: run.counters.code_install_failures,
            retranslations: run.counters.retranslations,
            code_ever_bytes: run.counters.code_ever_bytes,
            methods_lowered: u64::from(run.counters.methods_lowered),
            ir_dispatches: run.counters.ir_dispatches,
            icache_misses: i.stats().misses(),
            dcache_misses: d.stats().misses(),
            gc_events: i.gc_stats().refs(),
            gc_barrier_events: i.gc_barrier_stats().refs(),
            gc_insts: run.counters.gc_insts,
            gc_barrier_insts: run.counters.gc_barrier_insts,
            gc_minor: run.counters.gc_minor,
            gc_major: run.counters.gc_major,
            gc_copied_bytes: run.counters.gc_copied_bytes,
            heap_alloc_bytes: run.counters.heap_alloc_bytes,
            ref_store_ops: opcount(Op::PutField(CpIndex(0)))
                + opcount(Op::PutStatic(CpIndex(0)))
                + opcount(Op::ArrStore(ArrayKind::Ref)),
            faulted: u64::from(run.observables.outcome.is_err()),
        }
    }

    /// `(name, value)` pairs in a fixed order — the render/floor
    /// surface.
    pub fn metrics(&self) -> [(&'static str, u64); 25] {
        [
            ("bytecodes", self.bytecodes),
            ("events", self.events),
            ("translate_events", self.translate_events),
            ("translate_insts", self.translate_insts),
            ("opt_translate_insts", self.opt_translate_insts),
            ("methods_translated", self.methods_translated),
            ("tier2_recompiles", self.tier2_recompiles),
            ("code_installs", self.code_installs),
            ("code_evictions", self.code_evictions),
            ("code_install_failures", self.code_install_failures),
            ("retranslations", self.retranslations),
            ("code_ever_bytes", self.code_ever_bytes),
            ("methods_lowered", self.methods_lowered),
            ("ir_dispatches", self.ir_dispatches),
            ("icache_misses", self.icache_misses),
            ("dcache_misses", self.dcache_misses),
            ("gc_events", self.gc_events),
            ("gc_barrier_events", self.gc_barrier_events),
            ("gc_insts", self.gc_insts),
            ("gc_barrier_insts", self.gc_barrier_insts),
            ("gc_minor", self.gc_minor),
            ("gc_major", self.gc_major),
            ("gc_copied_bytes", self.gc_copied_bytes),
            ("heap_alloc_bytes", self.heap_alloc_bytes),
            ("ref_store_ops", self.ref_store_ops),
        ]
    }

    /// Looks a metric up by its [`CostVector::metrics`] name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.metrics()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Element-wise accumulation (for per-label run totals).
    pub fn add(&mut self, other: &CostVector) {
        self.bytecodes += other.bytecodes;
        self.events += other.events;
        self.translate_events += other.translate_events;
        self.translate_insts += other.translate_insts;
        self.opt_translate_insts += other.opt_translate_insts;
        self.methods_translated += other.methods_translated;
        self.tier2_recompiles += other.tier2_recompiles;
        self.code_installs += other.code_installs;
        self.code_evictions += other.code_evictions;
        self.code_install_failures += other.code_install_failures;
        self.retranslations += other.retranslations;
        self.code_ever_bytes += other.code_ever_bytes;
        self.methods_lowered += other.methods_lowered;
        self.ir_dispatches += other.ir_dispatches;
        self.icache_misses += other.icache_misses;
        self.dcache_misses += other.dcache_misses;
        self.gc_events += other.gc_events;
        self.gc_barrier_events += other.gc_barrier_events;
        self.gc_insts += other.gc_insts;
        self.gc_barrier_insts += other.gc_barrier_insts;
        self.gc_minor += other.gc_minor;
        self.gc_major += other.gc_major;
        self.gc_copied_bytes += other.gc_copied_bytes;
        self.heap_alloc_bytes += other.heap_alloc_bytes;
        self.ref_store_ops += other.ref_store_ops;
        self.faulted += other.faulted;
    }
}

/// The perf oracle's seeded fault ([`Sabotage`] under
/// [`crate::Oracle::Perf`]): corrupts the named engine's cost vector,
/// proving the oracle detects, attributes, and shrinks a perf fault.
/// The corruption models gratuitous re-translation: a million phantom
/// translator instructions plus one more re-translation than
/// evictions can explain — every matrix label violates at least one
/// invariant under it.
fn sabotage_cost(cost: &mut CostVector) {
    cost.translate_insts += 1_000_000;
    cost.retranslations += cost.code_evictions + 1;
}

/// One detected cost-model violation, attributed to an engine and an
/// invariant.
#[derive(Debug, Clone)]
pub struct PerfFinding {
    /// Engine label the violation is attributed to.
    pub label: &'static str,
    /// Invariant name (see the module docs).
    pub invariant: &'static str,
    /// Deterministic human-readable evidence.
    pub detail: String,
}

/// The result of one case under an [`Oracle`](crate::Oracle): the
/// correctness differential, plus the cost vectors and violations the
/// perf oracle adds (both empty under the other oracles).
#[derive(Debug)]
pub struct PerfCase {
    /// The correctness-differential view (observables compared against
    /// the interpreter), including the derived `cc-sized` run when one
    /// was made.
    pub base: CaseResult,
    /// Per-engine cost vectors, aligned with `base.observed`.
    pub costs: Vec<(&'static str, CostVector)>,
    /// All cost-model violations, in deterministic order.
    pub violations: Vec<PerfFinding>,
}

/// Runs `program` through the matrix with measuring sinks, derives the
/// `cc-sized` engine, and checks every cost-model invariant.
pub fn run_perf_case(program: &Program, sabotage: Option<&Sabotage>) -> PerfCase {
    let ipoints = [CacheConfig::paper_l1_inst()];
    let dpoints = [CacheConfig::paper_l1_data()];
    let mut costs: Vec<(&'static str, CostVector)> = Vec::new();
    let mut measure = |label: &'static str, cfg: VmConfig| {
        let mut sweep = SplitSweep::new(&ipoints, &dpoints);
        let run = Vm::new(program, cfg).run_observed(&mut sweep);
        let mut cost = CostVector::collect(&run, &sweep);
        if sabotage.is_some_and(|s| s.mode == label) {
            sabotage_cost(&mut cost);
        }
        costs.push((label, cost));
        run
    };

    let mut base = CaseResult::default();
    base.run_engines(engine_configs(), &mut measure);

    // The derived engine: a bounded cache with capacity equal to every
    // code byte the unbounded JIT ever installed must behave exactly
    // like the unbounded JIT. Skipped when the case translated nothing
    // (the invariant is vacuous).
    let jit_ever = base
        .observed
        .iter()
        .find(|(label, _)| *label == "jit")
        .map_or(0, |(_, run)| run.counters.code_ever_bytes);
    let sized = (jit_ever > 0).then(|| {
        let cfg = VmConfig {
            mode: ExecMode::Jit(JitPolicy::FirstInvocation),
            max_bytecodes: CASE_BUDGET,
            code_cache: CodeCacheConfig::bounded(jit_ever, EvictionPolicy::Lru),
            ..VmConfig::default()
        };
        (SIZED_LABEL, cfg)
    });

    // The GC engine: first-invocation JIT under the forcing tiny
    // nursery. Always run — its observables join the differential
    // (collection schedules must be invisible) and its cost vector is
    // the only one allowed nonzero generational work.
    let gc_cfg = VmConfig {
        mode: ExecMode::Jit(JitPolicy::FirstInvocation),
        max_bytecodes: CASE_BUDGET,
        ..VmConfig::default()
    }
    .with_gc(GcConfig::tiny_nursery());
    base.run_engines(sized.into_iter().chain([(GC_LABEL, gc_cfg)]), &mut measure);

    let violations = check_invariants(&costs);
    PerfCase {
        base,
        costs,
        violations,
    }
}

fn lookup<'a>(costs: &'a [(&'static str, CostVector)], label: &str) -> Option<&'a CostVector> {
    costs.iter().find(|(l, _)| *l == label).map(|(_, c)| c)
}

/// Checks every cost-model invariant over one case's vectors. Pure and
/// deterministic: the findings depend only on the vectors, in a fixed
/// order.
pub fn check_invariants(costs: &[(&'static str, CostVector)]) -> Vec<PerfFinding> {
    let mut out = Vec::new();
    let mut fail = |label: &'static str, invariant: &'static str, detail: String| {
        out.push(PerfFinding {
            label,
            invariant,
            detail,
        });
    };
    let jit = lookup(costs, "jit").copied().unwrap_or_default();

    for (label, c) in costs {
        // Per-engine consistency: counters against the trace, installs
        // against translations, churn against the reuse bound.
        if c.translate_events != c.translate_insts {
            fail(
                label,
                "translate-attribution",
                format!(
                    "translate events {} != translate_insts {}",
                    c.translate_events, c.translate_insts
                ),
            );
        }
        if c.code_installs != c.methods_translated {
            fail(
                label,
                "installs-accounting",
                format!(
                    "code_installs {} != methods_translated {}",
                    c.code_installs, c.methods_translated
                ),
            );
        }
        if c.gc_events != c.gc_insts || c.gc_barrier_events != c.gc_barrier_insts {
            fail(
                label,
                "gc-attribution",
                format!(
                    "gc events {} != gc_insts {} or barrier events {} != gc_barrier_insts {}",
                    c.gc_events, c.gc_insts, c.gc_barrier_events, c.gc_barrier_insts
                ),
            );
        }
        if c.gc_barrier_insts > 2 * c.ref_store_ops {
            fail(
                label,
                "gc-barrier-bound",
                format!(
                    "gc_barrier_insts {} > 2 * ref_store_ops {}",
                    c.gc_barrier_insts, c.ref_store_ops
                ),
            );
        }
        if c.gc_copied_bytes > c.heap_alloc_bytes {
            fail(
                label,
                "gc-copy-bound",
                format!(
                    "gc_copied_bytes {} > heap_alloc_bytes {}",
                    c.gc_copied_bytes, c.heap_alloc_bytes
                ),
            );
        }
        if *label != GC_LABEL
            && (c.gc_minor != 0
                || c.gc_major != 0
                || c.gc_copied_bytes != 0
                || c.gc_barrier_insts != 0
                || c.gc_barrier_events != 0)
        {
            fail(
                label,
                "gc-off",
                format!(
                    "non-GC engine did generational work: minors {} majors {} copied {} barriers {}/{}",
                    c.gc_minor,
                    c.gc_major,
                    c.gc_copied_bytes,
                    c.gc_barrier_insts,
                    c.gc_barrier_events
                ),
            );
        }
        if c.retranslations > c.code_evictions {
            fail(
                label,
                "churn-bound",
                format!(
                    "retranslations {} > code_evictions {}",
                    c.retranslations, c.code_evictions
                ),
            );
        }
        if c.code_evictions > c.code_installs + c.code_install_failures {
            fail(
                label,
                "churn-bound",
                format!(
                    "code_evictions {} > installs {} + install_failures {}",
                    c.code_evictions, c.code_installs, c.code_install_failures
                ),
            );
        }
        if label.starts_with("ir-") {
            if c.ir_dispatches > c.bytecodes + c.faulted {
                fail(
                    label,
                    "ir-dispatch-bound",
                    format!(
                        "ir_dispatches {} > bytecodes {} + faulted {}",
                        c.ir_dispatches, c.bytecodes, c.faulted
                    ),
                );
            }
        } else if c.ir_dispatches != 0 || c.methods_lowered != 0 {
            fail(
                label,
                "ir-counters-zero",
                format!(
                    "non-IR engine counted IR work: dispatches {} lowered {}",
                    c.ir_dispatches, c.methods_lowered
                ),
            );
        }
        match *label {
            "interp" | "interp-fold"
                if c.translate_insts != 0
                    || c.methods_translated != 0
                    || c.code_ever_bytes != 0
                    || c.translate_events != 0 =>
            {
                fail(
                    label,
                    "interp-no-translate",
                    format!(
                        "interpreter did translate work: insts {} methods {} bytes {} events {}",
                        c.translate_insts,
                        c.methods_translated,
                        c.code_ever_bytes,
                        c.translate_events
                    ),
                );
            }
            "ir-interp"
                if c.methods_translated != 0
                    || c.code_installs != 0
                    || c.code_ever_bytes != 0
                    || c.code_evictions != 0
                    || c.retranslations != 0
                    || c.code_install_failures != 0 =>
            {
                fail(
                    label,
                    "ir-interp-no-install",
                    format!(
                        "IR interpreter installed code: methods {} installs {} bytes {} evictions {} retranslations {} failures {}",
                        c.methods_translated,
                        c.code_installs,
                        c.code_ever_bytes,
                        c.code_evictions,
                        c.retranslations,
                        c.code_install_failures
                    ),
                );
            }
            "jit" | "thresh" | "tiered" | "ir-jit"
                if c.code_evictions != 0
                    || c.retranslations != 0
                    || c.code_install_failures != 0 =>
            {
                fail(
                    label,
                    "unbounded-no-churn",
                    format!(
                        "unbounded cache churned: evictions {} retranslations {} failures {}",
                        c.code_evictions, c.retranslations, c.code_install_failures
                    ),
                );
            }
            _ => {}
        }
    }

    // Relational invariants against the interpreter / unbounded JIT.
    if let (Some(fold), Some(interp)) = (lookup(costs, "interp-fold"), lookup(costs, "interp")) {
        if fold.bytecodes != interp.bytecodes || fold.events > interp.events {
            fail(
                "interp-fold",
                "fold-dispatch",
                format!(
                    "folding changed execution: bytecodes {} vs {}, events {} vs {}",
                    fold.bytecodes, interp.bytecodes, fold.events, interp.events
                ),
            );
        }
    }
    if let Some(thresh) = lookup(costs, "thresh") {
        if thresh.methods_translated > jit.methods_translated
            || thresh.translate_insts > jit.translate_insts
            || thresh.code_ever_bytes > jit.code_ever_bytes
        {
            fail(
                "thresh",
                "thresh-subset",
                format!(
                    "threshold out-translated first-invocation: methods {} vs {}, insts {} vs {}, bytes {} vs {}",
                    thresh.methods_translated,
                    jit.methods_translated,
                    thresh.translate_insts,
                    jit.translate_insts,
                    thresh.code_ever_bytes,
                    jit.code_ever_bytes
                ),
            );
        }
    }
    if let Some(tiered) = lookup(costs, "tiered") {
        let baseline = tiered
            .translate_insts
            .saturating_sub(tiered.opt_translate_insts);
        if baseline > jit.translate_insts {
            fail(
                "tiered",
                "tiered-baseline",
                format!(
                    "tiered baseline translate work {} (total {} - opt {}) > jit {}",
                    baseline,
                    tiered.translate_insts,
                    tiered.opt_translate_insts,
                    jit.translate_insts
                ),
            );
        }
    }
    if let Some(irj) = lookup(costs, "ir-jit") {
        if irj.methods_translated != jit.methods_translated
            || irj.code_ever_bytes > jit.code_ever_bytes
        {
            fail(
                "ir-jit",
                "ir-density",
                format!(
                    "IR-backed JIT not denser: methods {} vs {}, bytes {} vs {}",
                    irj.methods_translated,
                    jit.methods_translated,
                    irj.code_ever_bytes,
                    jit.code_ever_bytes
                ),
            );
        }
    }
    if let Some(sized) = lookup(costs, SIZED_LABEL) {
        if sized.code_evictions != 0
            || sized.retranslations != 0
            || sized.code_install_failures != 0
            || sized.translate_insts != jit.translate_insts
            || sized.code_ever_bytes != jit.code_ever_bytes
            || sized.methods_translated != jit.methods_translated
        {
            fail(
                SIZED_LABEL,
                "sized-capacity",
                format!(
                    "capacity == total code bytes still churned: evictions {} retranslations {} failures {} insts {} vs {} bytes {} vs {}",
                    sized.code_evictions,
                    sized.retranslations,
                    sized.code_install_failures,
                    sized.translate_insts,
                    jit.translate_insts,
                    sized.code_ever_bytes,
                    jit.code_ever_bytes
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(label: &'static str) -> (&'static str, CostVector) {
        (label, CostVector::default())
    }

    #[test]
    fn empty_matrix_has_no_findings() {
        let costs: Vec<_> = ["interp", "interp-fold", "jit", "thresh", "tiered"]
            .into_iter()
            .map(flat)
            .collect();
        assert!(check_invariants(&costs).is_empty());
    }

    #[test]
    fn detects_interp_translate_work() {
        let mut costs = vec![flat("interp")];
        costs[0].1.translate_insts = 4;
        costs[0].1.translate_events = 4;
        let f = check_invariants(&costs);
        assert!(f.iter().any(|v| v.invariant == "interp-no-translate"));
    }

    #[test]
    fn detects_counter_trace_mismatch() {
        let mut costs = vec![flat("jit")];
        costs[0].1.translate_insts = 10;
        costs[0].1.translate_events = 9;
        let f = check_invariants(&costs);
        assert_eq!(f[0].invariant, "translate-attribution");
        assert_eq!(f[0].label, "jit");
    }

    #[test]
    fn detects_churn_over_reuse_bound() {
        let mut costs = vec![flat("cc-lru")];
        costs[0].1.retranslations = 3;
        costs[0].1.code_evictions = 2;
        let f = check_invariants(&costs);
        assert!(f.iter().any(|v| v.invariant == "churn-bound"));
    }

    #[test]
    fn sabotaged_vector_always_violates() {
        for label in crate::MATRIX_LABELS {
            let mut costs: Vec<_> = crate::MATRIX_LABELS.into_iter().map(flat).collect();
            let slot = costs.iter_mut().find(|(l, _)| *l == label).unwrap();
            sabotage_cost(&mut slot.1);
            let f = check_invariants(&costs);
            assert!(
                f.iter().any(|v| v.label == label),
                "{label}: sabotage not attributed: {f:?}"
            );
        }
    }

    #[test]
    fn detects_generational_work_on_non_gc_engine() {
        let mut costs = vec![flat("jit")];
        costs[0].1.gc_minor = 1;
        let f = check_invariants(&costs);
        assert!(f.iter().any(|v| v.invariant == "gc-off"));
    }

    #[test]
    fn detects_gc_counter_trace_mismatch() {
        let mut costs = vec![flat(GC_LABEL)];
        costs[0].1.gc_insts = 10;
        costs[0].1.gc_events = 9;
        let f = check_invariants(&costs);
        assert!(f
            .iter()
            .any(|v| v.invariant == "gc-attribution" && v.label == GC_LABEL));
    }

    #[test]
    fn detects_barrier_work_over_ref_store_bound() {
        let mut costs = vec![flat(GC_LABEL)];
        costs[0].1.ref_store_ops = 3;
        costs[0].1.gc_barrier_insts = 7;
        costs[0].1.gc_barrier_events = 7;
        let f = check_invariants(&costs);
        assert!(f.iter().any(|v| v.invariant == "gc-barrier-bound"));
    }

    #[test]
    fn detects_copying_more_than_allocated() {
        let mut costs = vec![flat(GC_LABEL)];
        costs[0].1.heap_alloc_bytes = 100;
        costs[0].1.gc_copied_bytes = 101;
        let f = check_invariants(&costs);
        assert!(f.iter().any(|v| v.invariant == "gc-copy-bound"));
    }

    #[test]
    fn metric_lookup_round_trips() {
        let c = CostVector {
            dcache_misses: 77,
            ..Default::default()
        };
        assert_eq!(c.get("dcache_misses"), Some(77));
        assert_eq!(c.get("nonsense"), None);
        for (name, _) in c.metrics() {
            assert!(c.get(name).is_some());
        }
    }
}
