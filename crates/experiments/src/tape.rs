//! Where the report runs the VM, and the memos around those runs.
//!
//! The paper traced each benchmark with Shade on the fly: cachesim5,
//! the branch predictors and the superscalar model read the trace
//! while the JVM ran, and no trace was stored. The report does the
//! same. [`stream`] runs a `(workload, mode)` stream straight into its
//! consumers, beside a [`CountingSink`], and publishes the run's
//! [`RunSummary`]; the report's shared pass ([`crate::pass`]) feeds
//! every stream it reads that way, once per report, and the scale
//! study records the two tapes it tiles the same way.
//!
//! [`run`] is the one way the experiments run a workload for its
//! [`RunResult`]: it counts the run in [`vm_runs`], runs it and checks
//! the workload's checksum. [`config`] is the one table from a [`Mode`]
//! to an engine; [`stream`], [`summary`] and the code-cache study's
//! bounded and shared caches, the engines no `Mode` names, all go
//! through [`run`]. Only the GC study runs the VM itself: it needs
//! the runs' `Observables`, and a sabotaged run must fail its
//! equivalence check rather than panic here.
//!
//! Concurrency: keys are looked up under a brief mutex that hands out
//! an `Arc<OnceLock>` slot per key, and the expensive work happens
//! inside [`OnceLock::get_or_init`] *outside* that mutex — so two jobs
//! needing the same memo entry build it exactly once while jobs for
//! other keys proceed in parallel, which preserves the scheduler's
//! any-worker-count determinism (a memo only changes *when* a value
//! is produced, never the value).
//!
//! Two memos live here: assembled [`Program`]s, so the drivers stop
//! re-assembling the suite once per driver; and the count-only memo,
//! the one home of a run's [`RunSummary`] (run result plus per-phase
//! instruction counts). [`summary`] returns a key's summary: a key
//! some [`stream`] ran answers without touching the VM, and any other
//! key runs the VM once straight into a [`CountingSink`]. The `opt`
//! oracle is derived from the interpreter and JIT summaries inside the
//! memoized `opt` summary, so it needs no memo of its own.

use crate::jobs::Workload;
use crate::runner::Mode;
use jrt_bytecode::Program;
use jrt_trace::{CountingSink, TraceSink};
use jrt_vm::{ExecMode, OracleDecisions, RunResult, SyncKind, Vm, VmConfig};
use jrt_workloads::{Size, Spec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Memo key: workload identity plus the mode, which names the engine
/// and so the stream (the folding interpreter and the register-IR tier
/// emit genuinely different streams than the stock engines).
type Key = (&'static str, Size, Mode);

fn key(w: &Workload, mode: Mode) -> Key {
    (w.spec.name, w.size, mode)
}

/// What one run yields besides its stream: all that a driver reading
/// only counts needs.
#[derive(Debug)]
pub struct RunSummary {
    /// The VM's run result (checksum, counters, profile, footprint).
    pub result: RunResult,
    /// Instruction counts of the run's native stream, per phase.
    pub counts: CountingSink,
}

type Slot<V> = Arc<OnceLock<V>>;
type Memo<K, V> = OnceLock<Mutex<HashMap<K, Slot<V>>>>;

fn slot_of<K: std::hash::Hash + Eq + Copy, V>(map: &'static Memo<K, V>, key: K) -> Slot<V> {
    map.get_or_init(Default::default)
        .lock()
        .expect("run memo poisoned")
        .entry(key)
        .or_default()
        .clone()
}

/// Returns the memoized program for `(spec, size)`, assembling it on
/// first use. All drivers share one `Arc<Program>` per benchmark/size.
pub fn program(spec: &Spec, size: Size) -> Arc<Program> {
    static PROGRAMS: Memo<(&'static str, Size), Arc<Program>> = OnceLock::new();
    slot_of(&PROGRAMS, (spec.name, size))
        .get_or_init(|| Arc::new((spec.build)(size)))
        .clone()
}

/// Returns the [`Workload`] wrapper for `(spec, size)` over the
/// memoized program.
pub fn workload(spec: &Spec, size: Size) -> Workload {
    Workload {
        spec: *spec,
        program: program(spec, size),
        size,
    }
}

/// The engine of `mode`: the one mapping from a [`Mode`] to a
/// [`VmConfig`]. The [`Mode::Opt`] decisions come from the profiles of
/// `w`'s memoized interpreter and JIT summaries.
pub fn config(w: &Workload, mode: Mode) -> VmConfig {
    match mode {
        Mode::Interp => VmConfig::interpreter(),
        Mode::Jit => VmConfig::jit(),
        Mode::Opt => VmConfig::oracle(OracleDecisions::from_profiles(
            &summary(w, Mode::Interp).result.profile,
            &summary(w, Mode::Jit).result.profile,
        )),
        Mode::Folding => VmConfig::interpreter().with_folding(),
        Mode::IrInterp => VmConfig::ir_interp(),
        Mode::IrJit => VmConfig::ir_jit(),
        Mode::ThinLock => VmConfig::jit().with_sync(SyncKind::ThinLock),
        Mode::OneBit => VmConfig::jit().with_sync(SyncKind::OneBit),
        Mode::Tiered => VmConfig {
            mode: ExecMode::Jit(crate::codecache::TIERED),
            ..VmConfig::default()
        },
    }
}

/// VM runs made through [`run`] so far.
static VM_RUNS: AtomicU64 = AtomicU64::new(0);

/// VM runs made through [`run`] so far: streamed, count-only or under
/// a study's own engine; every run of a workload but the GC study's.
pub fn vm_runs() -> u64 {
    VM_RUNS.load(Ordering::Relaxed)
}

/// Runs `w` under `cfg`, streaming into `sink`, counts the run in
/// [`vm_runs`] and checks the workload's checksum.
///
/// # Panics
///
/// Panics if the run faults or returns the wrong checksum: workloads
/// are self-checking and must not fail.
pub fn run(w: &Workload, cfg: VmConfig, sink: &mut impl TraceSink) -> RunResult {
    VM_RUNS.fetch_add(1, Ordering::Relaxed);
    let result = Vm::new(&w.program, cfg)
        .run(sink)
        .expect("workload runs clean");
    w.check(&result);
    result
}

/// Count-only summaries, one per key. Unbounded: an entry is a run
/// result and a counter array, kilobytes apiece.
static SUMMARIES: Memo<Key, Arc<RunSummary>> = OnceLock::new();

/// Runs `w` under `mode` once, straight into `sink` beside a
/// [`CountingSink`], and publishes the run's [`RunSummary`]. A key run
/// again, or summarized first, keeps its first summary, which is
/// equal: a run is deterministic.
pub fn stream(w: &Workload, mode: Mode, sink: &mut impl TraceSink) {
    let mut sinks = (CountingSink::new(), sink);
    let result = run(w, config(w, mode), &mut sinks);
    let (counts, _) = sinks;
    slot_of(&SUMMARIES, key(w, mode)).get_or_init(|| Arc::new(RunSummary { result, counts }));
}

/// Returns the memoized [`RunSummary`] of `w` under `mode`. A key some
/// [`stream`] ran answers from that run; otherwise the first call runs
/// the VM once into a [`CountingSink`] alone. A key a later
/// [`stream`] will run should not be summarized before it, or the key
/// runs twice.
pub fn summary(w: &Workload, mode: Mode) -> Arc<RunSummary> {
    slot_of(&SUMMARIES, key(w, mode))
        .get_or_init(|| {
            let mut counts = CountingSink::new();
            let result = run(w, config(w, mode), &mut counts);
            Arc::new(RunSummary { result, counts })
        })
        .clone()
}

/// Always 0: the report keeps no tapes, so none goes to disk. Kept
/// because the benchmark harness (`perfbench`) still reads it.
pub fn disk_demotions() -> u64 {
    0
}

/// Always 0: the report keeps no tapes, so none comes back from disk.
/// Kept because the benchmark harness (`perfbench`) still reads it.
pub fn disk_promotions() -> u64 {
    0
}

/// Always 0: the report keeps no tapes, so no disk read can fail.
/// Kept because the benchmark harness (`perfbench`) still reads it.
pub fn disk_fallbacks() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::RecordingSink;
    use jrt_workloads::{hello, suite_with_hello};

    fn hello_workload() -> Workload {
        let spec = suite_with_hello().remove(0);
        assert_eq!(spec.name, "hello");
        workload(&spec, Size::Tiny)
    }

    #[test]
    fn stream_matches_a_direct_run_and_publishes_its_summary() {
        let w = hello_workload();
        let mut direct = RecordingSink::new();
        let r = Vm::new(&w.program, VmConfig::ir_interp())
            .run(&mut direct)
            .expect("workload runs clean");
        w.check(&r);

        // No other test touches this key, so no count-only run fills
        // its summary first.
        let k = key(&w, Mode::IrInterp);
        assert!(slot_of(&SUMMARIES, k).get().is_none(), "key must be fresh");
        let mut streamed = RecordingSink::new();
        stream(&w, Mode::IrInterp, &mut streamed);
        assert_eq!(streamed.events, direct.events);
        let published = slot_of(&SUMMARIES, k)
            .get()
            .expect("a stream publishes its summary")
            .clone();
        let s = summary(&w, Mode::IrInterp);
        assert!(
            Arc::ptr_eq(&s, &published),
            "the summary must be the stream's"
        );
        assert_eq!(s.counts.total(), direct.events.len() as u64);
        assert_eq!(s.result.counters, r.counters);
    }

    #[test]
    fn folding_stream_is_shorter_than_stock_interp() {
        let w = hello_workload();
        let stock = summary(&w, Mode::Interp);
        let folded = summary(&w, Mode::Folding);
        assert!(folded.counts.total() < stock.counts.total());
    }

    #[test]
    fn programs_are_memoized() {
        let spec = suite_with_hello().remove(0);
        let a = program(&spec, Size::Tiny);
        let b = program(&spec, Size::Tiny);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn opt_mode_uses_memoized_oracle() {
        let w = hello_workload();
        let opt = summary(&w, Mode::Opt);
        assert_eq!(opt.result.exit_value, Some(hello::expected(Size::Tiny)));
        assert!(Arc::ptr_eq(&opt, &summary(&w, Mode::Opt)));
        // The oracle came from the interpreter and JIT summaries, which
        // the summary memo now holds.
        for mode in [Mode::Interp, Mode::Jit] {
            assert!(
                slot_of(&SUMMARIES, key(&w, mode)).get().is_some(),
                "{mode:?}"
            );
        }
    }
}
