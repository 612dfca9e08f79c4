//! The VM facade: scheduler, GC triggering, thread lifecycle, and
//! run-level reporting.

use crate::config::{ExecMode, SyncKind, VmConfig};
use crate::gc;
use crate::heap::{Heap, HeapError, Value};
use crate::jit::{self, JitState};
use crate::loader::Linker;
use crate::step::{self, StepOutcome};
use crate::thread::{ThreadState, ThreadStatus};
use jrt_bytecode::{MethodId, Op, Program};
use jrt_codecache::ProfileTable;
use jrt_sync::{FatLockEngine, OneBitLockEngine, SyncEngine, SyncStats, ThinLockEngine};
use jrt_trace::TraceSink;
use std::fmt;

/// Scheduler quantum in bytecodes: each runnable thread gets this many
/// steps per round-robin turn.
const QUANTUM: u32 = 200;

/// Runtime errors surfaced by [`Vm::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Null dereference (the analog of `NullPointerException`).
    NullPointer {
        /// `Class::method` where it happened.
        method: String,
        /// Bytecode offset.
        pc: u32,
    },
    /// Integer division by zero.
    DivideByZero {
        /// `Class::method` where it happened.
        method: String,
        /// Bytecode offset.
        pc: u32,
    },
    /// Heap fault.
    Heap(HeapError),
    /// Monitor protocol violation.
    Monitor(String),
    /// Intrinsic failure.
    Intrinsic(String),
    /// Activation stack exceeded its depth bound.
    StackOverflow {
        /// The method that overflowed.
        method: String,
    },
    /// All live threads are blocked on monitors or joins.
    Deadlock,
    /// The configured `max_bytecodes` budget was exhausted.
    BudgetExceeded,
    /// The per-tenant fuel budget ([`VmConfig::fuel`]) was exhausted.
    /// Deterministic by construction: every engine configuration
    /// traps after exactly `budget` bytecodes, so the partial
    /// [`Observables`] still compare across engines.
    FuelExhausted {
        /// The fuel budget that ran out, in bytecodes.
        budget: u64,
    },
    /// Invariant violation inside the VM (a bug).
    Internal(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NullPointer { method, pc } => {
                write!(f, "null pointer dereference in {method} at {pc}")
            }
            VmError::DivideByZero { method, pc } => {
                write!(f, "division by zero in {method} at {pc}")
            }
            VmError::Heap(e) => write!(f, "heap fault: {e}"),
            VmError::Monitor(e) => write!(f, "monitor violation: {e}"),
            VmError::Intrinsic(e) => write!(f, "intrinsic failure: {e}"),
            VmError::StackOverflow { method } => write!(f, "stack overflow in {method}"),
            VmError::Deadlock => write!(f, "deadlock: all threads blocked"),
            VmError::BudgetExceeded => write!(f, "bytecode execution budget exceeded"),
            VmError::FuelExhausted { budget } => {
                write!(f, "fuel exhausted after {budget} bytecodes")
            }
            VmError::Internal(e) => write!(f, "vm internal error: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Console output captured from the `Sys.print_*` intrinsics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    /// Integers printed with `Sys.print_int`.
    pub ints: Vec<i32>,
    /// Characters printed with `Sys.print_char`.
    pub chars: String,
}

/// Aggregate run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Bytecodes executed (all threads).
    pub bytecodes: u64,
    /// Trace instructions emitted by class loading.
    pub classload_insts: u64,
    /// Garbage collections run (legacy full collections plus
    /// generational minor and major collections).
    pub gc_runs: u64,
    /// Bytes reclaimed by GC.
    pub gc_freed_bytes: u64,
    /// Minor (nursery) collections run by the generational GC.
    pub gc_minor: u64,
    /// Major (full, copy-compacting) collections run by the
    /// generational GC.
    pub gc_major: u64,
    /// Bytes copied by GC evacuation/compaction (zero under the
    /// legacy non-moving collector).
    pub gc_copied_bytes: u64,
    /// Write-barrier trace instructions emitted at reference stores
    /// ([`Phase::GcBarrier`](jrt_trace::Phase) events; the tape
    /// round-trip tests assert the two match exactly).
    pub gc_barrier_insts: u64,
    /// Collection-work trace instructions emitted
    /// ([`Phase::Gc`](jrt_trace::Phase) events; tape-checked like
    /// `gc_barrier_insts`).
    pub gc_insts: u64,
    /// Collections whose trace emission hit `MAX_GC_EMISSION` and was
    /// capped. Heap accounting stays exact on capped collections —
    /// this counter is the honest record that the *trace* under-
    /// reports the collection work.
    pub gc_emission_truncated: u64,
    /// Total bytes allocated on the Java heap over the run. Bounds
    /// `gc_copied_bytes`: a collector can never copy more than was
    /// ever allocated.
    pub heap_alloc_bytes: u64,
    /// Methods translated by the JIT (counting re-translations and
    /// tier upgrades).
    pub methods_translated: u32,
    /// Trace instructions emitted by the translator (sum of `T_i`).
    pub translate_insts: u64,
    /// The optimizing-tier slice of `translate_insts`;
    /// `translate_insts - opt_translate_insts` is the baseline-tier
    /// translate work a tiered policy shares with first-invocation JIT.
    pub opt_translate_insts: u64,
    /// Threads created (including the main thread).
    pub threads_created: u32,
    /// Successful code-cache installs (equals `methods_translated` on
    /// every per-VM-scope configuration: one install per translation).
    pub code_installs: u64,
    /// Installed methods evicted from the code cache.
    pub code_evictions: u64,
    /// Installs abandoned because the method alone exceeds the cache
    /// capacity (the key is pinned to interpretation afterwards).
    pub code_install_failures: u64,
    /// Cumulative code bytes ever installed (the append-only figure;
    /// also surfaced in [`Footprint::code_ever_bytes`]).
    pub code_ever_bytes: u64,
    /// Translations of methods that had previously been evicted —
    /// work an unbounded code cache would not have done.
    pub retranslations: u64,
    /// Re-translations at the optimizing tier (tiered policy only).
    pub tier2_recompiles: u32,
    /// Largest single translated method in code bytes (sizes the
    /// floor below which a bounded cache pins methods uncacheable).
    pub largest_method_bytes: u64,
    /// Methods lowered to register IR (IR modes only; each method is
    /// lowered at most once per VM).
    pub methods_lowered: u32,
    /// IR instructions dispatched by the register-IR interpreter.
    /// Superinstruction fusion makes this at most one per interpreted
    /// bytecode, and strictly fewer wherever fusion or folding won.
    pub ir_dispatches: u64,
}

/// Memory-footprint breakdown for the Table 1 study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Loaded class images (code + pools + tables).
    pub class_bytes: u64,
    /// Fixed VM text/data (interpreter, runtime, loader).
    pub vm_base_bytes: u64,
    /// Peak live Java heap.
    pub heap_peak_bytes: u64,
    /// Thread stacks.
    pub stack_bytes: u64,
    /// JIT code cache — live arena occupancy, post-eviction (zero for
    /// the interpreter).
    pub code_cache_bytes: u64,
    /// Cumulative code bytes ever translated (the append-only figure;
    /// equals `code_cache_bytes` when nothing was evicted). Not part
    /// of [`Footprint::total`] — it is not resident memory.
    pub code_ever_bytes: u64,
    /// Translator text + work buffers (zero for the interpreter).
    pub translator_bytes: u64,
}

impl Footprint {
    /// Total resident bytes.
    pub fn total(&self) -> u64 {
        self.class_bytes
            + self.vm_base_bytes
            + self.heap_peak_bytes
            + self.stack_bytes
            + self.code_cache_bytes
            + self.translator_bytes
    }
}

/// Result of one program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Int returned by the entry method, if any.
    pub exit_value: Option<i32>,
    /// Captured console output.
    pub output: Output,
    /// Aggregate counters.
    pub counters: VmCounters,
    /// Per-method cost profiles (`I_i`, `T_i`, `E_i`, `n_i`).
    pub profile: ProfileTable,
    /// Synchronization statistics from the monitor engine.
    pub sync_stats: SyncStats,
    /// Memory footprint (Table 1).
    pub footprint: Footprint,
    /// Mode label ("interp" / "jit" / "opt" / "thresh").
    pub mode: &'static str,
}

/// Engine-independent observable state of one run, extracted by
/// [`Vm::run_observed`]. Two engine configurations executing the same
/// program must produce `==` values here — trace costs, translation
/// counts, and footprints may differ, but everything in this struct
/// is program semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observables {
    /// `Ok(exit value)` or the rendered [`VmError`]. Runtime faults
    /// are deterministic (they name the method and bytecode pc), so
    /// errors compare across engines just like exit values.
    pub outcome: Result<Option<i32>, String>,
    /// Console output captured from the `Sys.print_*` intrinsics.
    pub output: Output,
    /// Bytecodes executed.
    pub bytecodes: u64,
    /// Per-opcode execution histogram indexed by
    /// [`Op::dispatch_index`] — "same bytecode-level execution", not
    /// just the same final state.
    pub opcode_counts: Vec<u64>,
    /// Raw 32-bit images of every class's static slots.
    pub statics: Vec<Vec<i32>>,
    /// Digest of the final heap's *reachable* objects
    /// ([`Heap::reachable_digest`] from thread + static + class
    /// roots) — invariant under GC schedule, so it compares across
    /// GC on/off/forced as well as across engines.
    pub heap_digest: u64,
    /// Reachable heap allocations at exit.
    pub live_objects: usize,
}

/// One observed run: the cross-engine-comparable [`Observables`] plus
/// the engine-specific [`VmCounters`] (those are *not* comparable
/// across engines — they feed the fuzzer's transition-coverage map).
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Engine-independent observables.
    pub observables: Observables,
    /// Engine-specific counters (translations, evictions, …).
    pub counters: VmCounters,
    /// Mode label of the configuration that ran.
    pub mode: &'static str,
}

/// Everything one [`step`](step::step) needs, split by field so the
/// borrow checker can see the disjointness.
pub(crate) struct StepEnv<'a> {
    pub program: &'a Program,
    pub linker: &'a mut Linker,
    pub heap: &'a mut Heap,
    pub jit: &'a mut JitState,
    pub sync: &'a mut dyn SyncEngine,
    pub profile: &'a mut ProfileTable,
    pub mode: &'a ExecMode,
    pub out: &'a mut Output,
    pub classload_insts: &'a mut u64,
    pub folding: bool,
    pub opcode_counts: &'a mut Option<Vec<u64>>,
    /// Whether reference stores emit card-marking write barriers
    /// (true exactly when the generational GC is configured).
    pub gc_barriers: bool,
    pub gc_barrier_insts: &'a mut u64,
}

/// The `javart` virtual machine. See the crate docs for the model.
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    heap: Heap,
    linker: Linker,
    jit: JitState,
    sync: Box<dyn SyncEngine + Send>,
    profile: ProfileTable,
    counters: VmCounters,
    out: Output,
    threads: Vec<ThreadState>,
    opcode_counts: Option<Vec<u64>>,
}

impl fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("mode", &self.config.mode.label())
            .field("threads", &self.threads.len())
            .field("bytecodes", &self.counters.bytecodes)
            .finish()
    }
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program` under `config`.
    pub fn new(program: &'p Program, config: VmConfig) -> Self {
        let sync: Box<dyn SyncEngine + Send> = match config.sync {
            SyncKind::MonitorCache => Box::new(FatLockEngine::new()),
            SyncKind::ThinLock => Box::new(ThinLockEngine::new()),
            SyncKind::OneBit => Box::new(OneBitLockEngine::new()),
        };
        let jit = JitState::new(config.code_cache);
        let mut heap = Heap::with_config(config.gc);
        if let Some(n) = config.gc_sabotage_drop_barrier {
            heap.sabotage_drop_barrier(n);
        }
        Vm {
            program,
            config,
            heap,
            linker: Linker::new(program.num_classes()),
            jit,
            sync,
            profile: ProfileTable::new(),
            counters: VmCounters::default(),
            out: Output::default(),
            threads: Vec::new(),
            opcode_counts: None,
        }
    }

    /// Resets the VM for another run of the same program. Equivalent
    /// to [`Vm::reset_for`] with the current program.
    pub fn reset(&mut self) {
        self.reset_for(self.program);
    }

    /// Resets the VM to run `program` from scratch, reusing the
    /// instance's allocations instead of constructing a new VM (the
    /// pooled-VM pattern of the serving tier: one `Vm` per worker,
    /// reset per job).
    ///
    /// All per-run state is cleared — heap, loaded classes, statics,
    /// monitors, profile, counters, output, threads — so a
    /// subsequent [`Vm::run`] observes exactly what a fresh
    /// [`Vm::new`] would. Under [`crate::CacheScope::Shared`] the installed
    /// code cache survives the reset: shared-scope keys are interned
    /// from bytecode *content*, so byte-identical method bodies from
    /// a later job (even of a different program or tenant) reuse the
    /// existing translation — the cross-tenant dedup the shared
    /// scope exists for. Under the per-VM and per-thread scopes,
    /// whose keys name methods of one specific program, the code
    /// cache is discarded with the rest.
    pub fn reset_for(&mut self, program: &'p Program) {
        self.program = program;
        self.heap.reset();
        if let Some(n) = self.config.gc_sabotage_drop_barrier {
            self.heap.sabotage_drop_barrier(n);
        }
        self.linker = Linker::new(program.num_classes());
        self.sync = match self.config.sync {
            SyncKind::MonitorCache => Box::new(FatLockEngine::new()),
            SyncKind::ThinLock => Box::new(ThinLockEngine::new()),
            SyncKind::OneBit => Box::new(OneBitLockEngine::new()),
        };
        self.profile = ProfileTable::new();
        self.counters = VmCounters::default();
        self.out.ints.clear();
        self.out.chars.clear();
        self.threads.clear();
        self.opcode_counts = None;
        if self.config.code_cache.scope == crate::config::CacheScope::Shared {
            self.jit.reset_for_reuse();
        } else {
            self.jit = JitState::new(self.config.code_cache);
        }
    }

    /// Sets the per-job fuel budget (`None` = unmetered); see
    /// [`VmConfig::fuel`]. Takes effect on the next run, so a pooled
    /// VM can serve tenants with different budgets.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.config.fuel = fuel;
    }

    /// The per-method cost profiles collected so far. The successful
    /// [`Vm::run`] path moves the table into [`RunResult::profile`];
    /// this accessor is for the fault path, where translate costs
    /// accrued before the trap (e.g. under a fuel budget) are still
    /// meaningful to a caller building a cost model.
    pub fn profile(&self) -> &ProfileTable {
        &self.profile
    }

    /// The code cache's lifetime counters. On a pooled VM under
    /// [`CacheScope::Shared`](crate::config::CacheScope) these span
    /// every job served since construction (resets keep the cache),
    /// including the shared-scope content hit/dedup rates.
    pub fn cache_stats(&self) -> jrt_codecache::CodeCacheStats {
        self.jit.cache_stats()
    }

    /// Generational-heap statistics (allocation, promotion, and
    /// pretenure volumes — the survival-rate inputs of the
    /// `gc_study` report). `None` under the legacy collector.
    pub fn gen_stats(&self) -> Option<crate::heap::GenStats> {
        self.heap.gen_stats()
    }

    /// Starts a thread whose root activation is `method(args)`.
    fn start_thread(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        sink: &mut dyn TraceSink,
    ) -> Result<u16, VmError> {
        let tid = self.threads.len() as u16;
        let def = self.program.method_def(method);
        if def.flags.is_native {
            return Err(VmError::Internal("thread root cannot be native".into()));
        }
        let code_addr = self.linker.code_addr(method);
        let use_jit = self.jit.ensure_compiled(
            &self.config.mode,
            &mut self.profile,
            jit::CalleeSite {
                callee: method,
                tid,
                def,
                code_addr,
            },
            sink,
        );
        let mut thread = ThreadState::new(tid);
        thread.push_frame(method, def, args);
        {
            let f = thread.frame_mut();
            f.jit = use_jit;
            if def.flags.is_synchronized {
                f.sync_pending = Some(if def.flags.is_static {
                    self.linker.class(method.class).class_object
                } else {
                    f.locals[0].as_ref().expect("non-null receiver")
                });
            }
        }
        self.profile.record_invocation(method);
        self.threads.push(thread);
        self.counters.threads_created += 1;
        Ok(tid)
    }

    fn run_gc(&mut self, sink: &mut dyn TraceSink) {
        let r = gc::collect(&mut self.heap, &self.threads, &self.linker, sink);
        self.count_gc(&r);
    }

    fn count_gc(&mut self, r: &gc::GcResult) {
        self.counters.gc_runs += 1;
        self.counters.gc_freed_bytes += r.freed_bytes;
        self.counters.gc_copied_bytes += r.copied_bytes;
        self.counters.gc_insts += r.emitted;
        if r.truncated {
            self.counters.gc_emission_truncated += 1;
        }
    }

    /// Drains the generational heap's pending-collection requests.
    /// Allocation never collects mid-bytecode (a nursery overflow
    /// pretenures and *requests* a collection); the scheduler calls
    /// this at the next bytecode boundary, where thread roots are
    /// coherent. A minor collection that overflows the tenured budget
    /// chains into a major one, which is why this drains a loop.
    fn run_pending_gc(&mut self, sink: &mut dyn TraceSink) -> Result<(), VmError> {
        while let Some(kind) = self.heap.take_gc_pending() {
            let r = match kind {
                crate::heap::GcKind::Minor => {
                    self.counters.gc_minor += 1;
                    gc::minor_collect(&mut self.heap, &self.threads, &self.linker, sink)
                        .map_err(VmError::Heap)?
                }
                crate::heap::GcKind::Major => {
                    self.counters.gc_major += 1;
                    gc::major_collect(&mut self.heap, &self.threads, &self.linker, sink)
                }
            };
            self.count_gc(&r);
        }
        Ok(())
    }

    /// Runs the program to completion, streaming the native trace into
    /// `sink`.
    ///
    /// A `Vm` runs once; to reuse the instance (the serving tier's
    /// pooled-VM pattern), call [`Vm::reset`] or [`Vm::reset_for`]
    /// between runs.
    ///
    /// # Errors
    ///
    /// Returns the first runtime fault; see [`VmError`].
    pub fn run(&mut self, sink: &mut impl TraceSink) -> Result<RunResult, VmError> {
        self.run_with(sink)
    }

    /// Runs the program and extracts the engine-independent
    /// [`Observables`] — including after a runtime fault, where the
    /// partial output, opcode histogram, statics, and heap state up
    /// to the fault are still well-defined and comparable. Opcode
    /// counting is enabled only on this path, so [`Vm::run`] pays
    /// nothing for it.
    pub fn run_observed(&mut self, sink: &mut impl TraceSink) -> ObservedRun {
        self.opcode_counts = Some(vec![0; Op::NUM_OPCODES]);
        let result = self.run_with(sink);
        let (outcome, output, counters) = match result {
            Ok(r) => (Ok(r.exit_value), r.output, r.counters),
            Err(e) => {
                self.merge_jit_counters();
                (
                    Err(e.to_string()),
                    std::mem::take(&mut self.out),
                    self.counters,
                )
            }
        };
        // The digest covers *reachable* objects only, walked in
        // handle order from the same roots a collection would use.
        // That makes it GC-schedule-invariant: a generational heap
        // that has already swept its garbage and a legacy heap still
        // holding it digest identically, which is what lets the
        // GC-equivalence tests compare byte-for-byte across
        // GC on/off/forced × every engine.
        let roots: Vec<crate::heap::Handle> = self
            .threads
            .iter()
            .flat_map(|t| t.roots())
            .chain(self.linker.static_roots())
            .chain(self.linker.class_objects())
            .collect();
        let (heap_digest, live_objects) = self.heap.reachable_digest(roots);
        ObservedRun {
            observables: Observables {
                outcome,
                output,
                bytecodes: counters.bytecodes,
                opcode_counts: self.opcode_counts.take().unwrap_or_default(),
                statics: self.linker.statics_snapshot(),
                heap_digest,
                live_objects,
            },
            counters,
            mode: self.config.mode.label(),
        }
    }

    /// The scheduler loop, monomorphized per sink type like
    /// [`step::step`]; class loading, thread starts and collections
    /// take the sink as `&mut dyn TraceSink`.
    fn run_with<S: TraceSink>(&mut self, sink: &mut S) -> Result<RunResult, VmError> {
        if !self.threads.is_empty() {
            return Err(VmError::Internal(
                "Vm::run called again without Vm::reset".into(),
            ));
        }
        // Load the entry class and start the main thread.
        let entry = self.program.entry();
        self.counters.classload_insts +=
            self.linker
                .ensure_loaded(entry.class, self.program, &mut self.heap, sink);
        self.start_thread(entry, Vec::new(), sink)?;

        // Round-robin scheduler.
        loop {
            let mut progressed = false;
            let mut all_done = true;

            for tid in 0..self.threads.len() {
                // Resolve joins whose target finished.
                if let ThreadStatus::Joining(t) = self.threads[tid].status {
                    if self
                        .threads
                        .get(usize::from(t))
                        .is_none_or(|th| th.status == ThreadStatus::Done)
                    {
                        self.threads[tid].status = ThreadStatus::Ready;
                    }
                }
                match self.threads[tid].status {
                    ThreadStatus::Done => continue,
                    ThreadStatus::Joining(_) => {
                        all_done = false;
                        continue;
                    }
                    ThreadStatus::Blocked(_) | ThreadStatus::Ready => {
                        all_done = false;
                        self.threads[tid].status = ThreadStatus::Ready;
                    }
                }

                if self.heap.allocated_since_gc() > self.config.gc_threshold {
                    self.run_gc(sink);
                }

                for _ in 0..QUANTUM {
                    if let Some(fuel) = self.config.fuel {
                        if self.counters.bytecodes >= fuel {
                            return Err(VmError::FuelExhausted { budget: fuel });
                        }
                    }
                    if self.counters.bytecodes >= self.config.max_bytecodes {
                        return Err(VmError::BudgetExceeded);
                    }
                    let outcome = {
                        let mut env = StepEnv {
                            program: self.program,
                            linker: &mut self.linker,
                            heap: &mut self.heap,
                            jit: &mut self.jit,
                            sync: self.sync.as_mut(),
                            profile: &mut self.profile,
                            mode: &self.config.mode,
                            out: &mut self.out,
                            classload_insts: &mut self.counters.classload_insts,
                            folding: self.config.folding,
                            opcode_counts: &mut self.opcode_counts,
                            gc_barriers: self.config.gc.is_generational(),
                            gc_barrier_insts: &mut self.counters.gc_barrier_insts,
                        };
                        step::step(&mut env, &mut self.threads[tid], sink)?
                    };
                    self.counters.bytecodes += 1;
                    if self.heap.is_generational() {
                        self.run_pending_gc(sink)?;
                    }
                    match outcome {
                        StepOutcome::Continue => {
                            progressed = true;
                        }
                        StepOutcome::Blocked => {
                            break;
                        }
                        StepOutcome::ThreadDone => {
                            progressed = true;
                            break;
                        }
                        StepOutcome::Spawn { target } => {
                            progressed = true;
                            let rcls = self.heap.class_of(target).map_err(VmError::Heap)?;
                            let run =
                                self.linker
                                    .class(rcls)
                                    .vtable_lookup("run")
                                    .ok_or_else(|| {
                                        VmError::Intrinsic("spawn target has no run()".into())
                                    })?;
                            let new_tid = self.start_thread(run, vec![Value::Ref(target)], sink)?;
                            self.threads[tid]
                                .frame_mut()
                                .stack
                                .push(Value::Int(i32::from(new_tid)));
                        }
                        StepOutcome::Join(target) => {
                            progressed = true;
                            if usize::from(target) >= self.threads.len() {
                                return Err(VmError::Intrinsic(format!(
                                    "join of unknown thread {target}"
                                )));
                            }
                            if self.threads[usize::from(target)].status != ThreadStatus::Done {
                                self.threads[tid].status = ThreadStatus::Joining(target);
                            }
                            break;
                        }
                    }
                }
            }

            if all_done {
                break;
            }
            if !progressed {
                return Err(VmError::Deadlock);
            }
        }

        sink.finish();
        Ok(self.build_result())
    }

    /// Folds the JIT-side tallies into [`VmCounters`]; shared by the
    /// normal result path and the fault path of [`Vm::run_observed`].
    fn merge_jit_counters(&mut self) {
        self.counters.methods_translated = self.jit.methods_translated;
        self.counters.translate_insts = self.jit.translate_insts;
        self.counters.opt_translate_insts = self.jit.opt_translate_insts;
        let cache = self.jit.cache_stats();
        self.counters.code_installs = cache.installs;
        self.counters.code_evictions = cache.evictions;
        self.counters.code_install_failures = cache.install_failures;
        self.counters.code_ever_bytes = self.jit.ever_bytes();
        self.counters.retranslations = cache.retranslations;
        self.counters.tier2_recompiles = self.jit.tier2_recompiles;
        self.counters.largest_method_bytes = cache.largest_install_bytes;
        self.counters.methods_lowered = self.jit.ir.methods_lowered;
        self.counters.ir_dispatches = self.jit.ir.dispatches;
        self.counters.heap_alloc_bytes = self.heap.stats().allocated_bytes;
    }

    fn build_result(&mut self) -> RunResult {
        self.merge_jit_counters();

        let translated_any = self.jit.methods_translated > 0;
        let footprint = Footprint {
            class_bytes: self.linker.loaded_bytes,
            // Interpreter + runtime text/data: the resident cost of
            // the JVM binary plus mapped system libraries (a couple of
            // MB in the JDK 1.1.6 era).
            vm_base_bytes: 1792 * 1024,
            heap_peak_bytes: self.heap.stats().peak_bytes,
            stack_bytes: self.threads.len() as u64 * 16 * 1024,
            code_cache_bytes: self.jit.live_bytes(),
            code_ever_bytes: self.jit.ever_bytes(),
            translator_bytes: if translated_any {
                128 * 1024 + self.jit.translator_buffer_bytes
            } else {
                0
            },
        };

        let exit_value = self.threads.first().and_then(|t| match t.result {
            Some(Value::Int(v)) => Some(v),
            _ => None,
        });

        RunResult {
            exit_value,
            output: std::mem::take(&mut self.out),
            counters: self.counters,
            profile: std::mem::take(&mut self.profile),
            sync_stats: *self.sync.stats(),
            footprint,
            mode: self.config.mode.label(),
        }
    }
}

#[cfg(test)]
mod send_tests {
    use super::*;

    /// The parallel experiment scheduler runs one `Vm` per worker
    /// thread against a shared `Arc<Program>`; these bounds are what
    /// make that sound.
    #[test]
    fn vm_and_program_are_thread_safe() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Vm<'static>>();
        assert_send::<jrt_bytecode::Program>();
        assert_sync::<jrt_bytecode::Program>();
        assert_send::<RunResult>();
    }
}
