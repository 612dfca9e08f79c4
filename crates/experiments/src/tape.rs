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
//! Concurrency: keys are looked up under a brief mutex that hands out
//! an `Arc<OnceLock>` slot per key, and the expensive work happens
//! inside [`OnceLock::get_or_init`] *outside* that mutex — so two jobs
//! needing the same memo entry build it exactly once while jobs for
//! other keys proceed in parallel, which preserves the scheduler's
//! any-worker-count determinism (a memo only changes *when* a value
//! is produced, never the value).
//!
//! Three memos live here: assembled [`Program`]s, so the drivers stop
//! re-assembling the suite once per driver; the Figure 1 oracle,
//! derived once per workload from the interpreter and JIT summaries
//! instead of two fresh profiling runs per call site; and the
//! count-only memo, the one home of a run's [`RunSummary`] (run result
//! plus per-phase instruction counts). [`summary`] returns a key's
//! summary: a key some [`stream`] ran answers without touching the VM,
//! and any other key runs the VM once straight into a
//! [`CountingSink`]. [`vm_runs`] counts the VM runs of both.
//!
//! The scale study's tiled tapes live on disk, in the spill directory
//! (`JRT_TAPE_DIR`, default a per-process temp directory), and
//! `JRT_TAPE_BUDGET` ([`budget_bytes`]) is the threshold past which
//! the study calls such a tape out-of-core.

use crate::jobs::Workload;
use crate::runner::{self, Mode};
use jrt_bytecode::Program;
use jrt_trace::{CountingSink, TraceSink};
use jrt_vm::{OracleDecisions, RunResult, Vm};
use jrt_workloads::{Size, Spec};
use std::collections::HashMap;
use std::path::PathBuf;
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

/// Returns the memoized oracle for a workload, derived once from the
/// memoized interpreter and JIT profiles (no extra profiling runs).
pub fn oracle(w: &Workload) -> Arc<OracleDecisions> {
    static ORACLES: Memo<(&'static str, Size), Arc<OracleDecisions>> = OnceLock::new();
    slot_of(&ORACLES, (w.spec.name, w.size))
        .get_or_init(|| {
            Arc::new(OracleDecisions::from_profiles(
                &summary(w, Mode::Interp).result.profile,
                &summary(w, Mode::Jit).result.profile,
            ))
        })
        .clone()
}

/// VM runs made through this module so far.
static VM_RUNS: AtomicU64 = AtomicU64::new(0);

/// VM runs made through this module so far: one per [`stream`] call
/// and one per key [`summary`] ran itself.
pub fn vm_runs() -> u64 {
    VM_RUNS.load(Ordering::Relaxed)
}

/// Runs `w` under `mode`'s engine, streaming into `sink`, checks the
/// workload's checksum and counts the run in [`vm_runs`].
fn run(w: &Workload, mode: Mode, sink: &mut impl TraceSink) -> RunResult {
    VM_RUNS.fetch_add(1, Ordering::Relaxed);
    let cfg = runner::vm_config(mode, || oracle(w).as_ref().clone());
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
    let result = run(w, mode, &mut sinks);
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
            let result = run(w, mode, &mut counts);
            Arc::new(RunSummary { result, counts })
        })
        .clone()
}

/// Default out-of-core threshold: 4 GiB.
const DEFAULT_BUDGET_BYTES: u64 = 4 * 1024 * 1024 * 1024;

/// Threshold floor; requests below it are clamped, loudly.
const MIN_BUDGET_BYTES: u64 = 1024 * 1024;

/// Parses a `JRT_TAPE_BUDGET` override. Unset uses the default;
/// unparsable values warn and use the default; parsable values below
/// [`MIN_BUDGET_BYTES`] (including 0) warn and clamp to the floor.
fn parse_budget(raw: Option<&str>) -> u64 {
    let Some(raw) = raw else {
        return DEFAULT_BUDGET_BYTES;
    };
    match raw.trim().parse::<u64>() {
        Ok(v) if v >= MIN_BUDGET_BYTES => v,
        Ok(v) => {
            eprintln!(
                "warning: JRT_TAPE_BUDGET={v} is below the {MIN_BUDGET_BYTES}-byte floor; \
                 clamping to {MIN_BUDGET_BYTES}"
            );
            MIN_BUDGET_BYTES
        }
        Err(_) => {
            eprintln!(
                "warning: JRT_TAPE_BUDGET={raw:?} is not a byte count; \
                 using the default {DEFAULT_BUDGET_BYTES}"
            );
            DEFAULT_BUDGET_BYTES
        }
    }
}

/// The RAM tape budget: the packed size past which the scale study
/// calls a tape out-of-core. `JRT_TAPE_BUDGET` (bytes, clamped to the
/// 1 MiB floor), default 4 GiB.
pub fn budget_bytes() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| parse_budget(std::env::var("JRT_TAPE_BUDGET").ok().as_deref()))
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

/// The spill directory's path, chosen on first use, and whether this
/// process chose it (the per-process default) rather than the user
/// (`JRT_TAPE_DIR`).
static DISK_DIR: OnceLock<(PathBuf, bool)> = OnceLock::new();

/// The scale study's spill directory: `JRT_TAPE_DIR`, default a
/// per-process directory under the system temp dir, created if it does
/// not exist (again, after [`tidy_spill_dir`] removed it). `None` if it
/// cannot be created.
pub(crate) fn disk_dir() -> Option<&'static PathBuf> {
    let (dir, _) = DISK_DIR.get_or_init(|| match std::env::var_os("JRT_TAPE_DIR") {
        Some(dir) => (PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("jrt-tapes-{}", std::process::id())),
            true,
        ),
    });
    match std::fs::create_dir_all(dir) {
        Ok(()) => Some(dir),
        Err(e) => {
            eprintln!(
                "warning: cannot create tape spill dir {}: {e}",
                dir.display()
            );
            None
        }
    }
}

/// Removes the process-owned spill directory if it is empty, so a run
/// leaves nothing behind; a `JRT_TAPE_DIR` directory belongs to the
/// user and is left alone.
pub(crate) fn tidy_spill_dir() {
    if let Some((dir, true)) = DISK_DIR.get() {
        // Fails, harmlessly, while a tiled tape still lives there.
        let _ = std::fs::remove_dir(dir);
    }
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
        let r = crate::runner::run_mode(&w.program, Mode::IrInterp, &mut direct);
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
    fn budget_parsing_clamps_and_defaults() {
        // Unset: default.
        assert_eq!(parse_budget(None), DEFAULT_BUDGET_BYTES);
        // Zero clamps to the floor.
        assert_eq!(parse_budget(Some("0")), MIN_BUDGET_BYTES);
        // Below-floor values clamp too.
        assert_eq!(parse_budget(Some("1")), MIN_BUDGET_BYTES);
        assert_eq!(parse_budget(Some("1048575")), MIN_BUDGET_BYTES);
        // At or above the floor: taken literally.
        assert_eq!(parse_budget(Some("1048576")), MIN_BUDGET_BYTES);
        assert_eq!(parse_budget(Some("2097152")), 2 * 1024 * 1024);
        // Whitespace tolerated; garbage falls back to the default.
        assert_eq!(parse_budget(Some(" 4194304 ")), 4 * 1024 * 1024);
        assert_eq!(parse_budget(Some("4GiB")), DEFAULT_BUDGET_BYTES);
        assert_eq!(parse_budget(Some("")), DEFAULT_BUDGET_BYTES);
        assert_eq!(parse_budget(Some("-1")), DEFAULT_BUDGET_BYTES);
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
        let o1 = oracle(&w);
        let o2 = oracle(&w);
        assert!(Arc::ptr_eq(&o1, &o2));
        let opt = summary(&w, Mode::Opt);
        assert_eq!(opt.result.exit_value, Some(hello::expected(Size::Tiny)));
    }
}
