//! The record-once tape cache behind the report.
//!
//! The paper's measurement pipeline collected each benchmark's native
//! instruction stream **once** with Shade and then fed the recorded
//! trace to every simulator. This module keeps that architecture: a
//! process-global cache memoizes one packed [`Tape`] per
//! `(workload, size, mode)` key, and the report's shared pass
//! ([`crate::pass`]) records each stream it needs and decodes it
//! ([`TapeEntry::decode`]) once per report, feeding every consumer from
//! that decode.
//!
//! Concurrency: keys are looked up under a brief mutex that hands out
//! an `Arc<OnceLock>` slot per key, and the expensive record happens
//! inside [`OnceLock::get_or_init`] *outside* that mutex — so two jobs
//! needing the same tape build it exactly once while jobs for other
//! keys proceed in parallel, which preserves the scheduler's
//! any-worker-count determinism (the cache only changes *when* a
//! stream is produced, never its contents).
//!
//! Assembled [`Program`]s are memoized the same way, so the drivers
//! stop re-assembling the suite once per driver, and the Figure 1
//! oracle is derived once per workload from the memoized interpreter
//! and JIT summaries instead of two fresh profiling runs per call site.
//!
//! The tape store is bounded and tiered: cached tapes are charged
//! against a byte budget (`JRT_TAPE_BUDGET` bytes, default 4 GiB,
//! clamped to a 1 MiB floor — a zero budget would thrash re-records)
//! and the least-recently-used entries are **demoted to disk** when it
//! overflows (segment files under `JRT_TAPE_DIR`, default a per-process
//! temp directory, written and validated by content hash via
//! [`DiskTape`]). A later request for a demoted key promotes it back
//! from disk instead of re-recording; if the file fails validation the
//! store falls back to a fresh recording and counts the event
//! ([`disk_fallbacks`]) — recording is deterministic, so either path
//! reproduces the stream byte-identically (a property the tests pin
//! down).
//!
//! Beside the tapes sits the count-only memo, the one home of a run's
//! [`RunSummary`] (run result plus per-phase instruction counts):
//! [`summary`] returns a key's summary. Every recording publishes its
//! summary there, so a key the pass recorded answers without touching
//! the VM, the tape store or the disk tier; any other key runs the VM
//! once straight into a [`CountingSink`], with no tape. Only the pass
//! and the scale study call [`recorded`]; every other reader of a run
//! calls [`summary`].

use crate::jobs::Workload;
use crate::runner::{self, Mode};
use jrt_bytecode::Program;
use jrt_trace::{CountingSink, DiskTape, Tape, TapeRecorder, TraceSink};
use jrt_vm::{OracleDecisions, RunResult, Vm};
use jrt_workloads::{Size, Spec};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: workload identity plus the mode, which names the engine
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

/// One recording, shared immutably; its run's summary lives in the
/// [`summary`] memo.
#[derive(Debug)]
pub struct TapeEntry {
    /// The packed native-instruction stream.
    pub tape: Tape,
}

/// Tape-store entries decoded so far.
static DECODES: AtomicU64 = AtomicU64::new(0);

impl TapeEntry {
    /// Decodes the tape into `sink` (see [`Tape::replay`]) and counts
    /// the decode in [`decodes`].
    pub fn decode(&self, sink: &mut impl TraceSink) {
        DECODES.fetch_add(1, Ordering::Relaxed);
        self.tape.replay(sink);
    }
}

type Slot<V> = Arc<OnceLock<V>>;
type Memo<K, V> = OnceLock<Mutex<HashMap<K, Slot<V>>>>;

fn slot_of<K: std::hash::Hash + Eq + Copy, V>(map: &'static Memo<K, V>, key: K) -> Slot<V> {
    map.get_or_init(Default::default)
        .lock()
        .expect("tape cache poisoned")
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

/// Runs `w` under `mode`'s engine, streaming into `sink`, and checks
/// the workload's checksum.
fn run(w: &Workload, mode: Mode, sink: &mut impl TraceSink) -> RunResult {
    let cfg = runner::vm_config(mode, || oracle(w).as_ref().clone());
    let result = Vm::new(&w.program, cfg)
        .run(sink)
        .expect("workload runs clean");
    w.check(&result);
    result
}

/// Count-only summaries, keyed like the tapes. Unbounded: an entry is
/// a run result and a counter array, kilobytes next to a tape.
static SUMMARIES: Memo<Key, Arc<RunSummary>> = OnceLock::new();

/// VM recording passes so far.
static RECORDINGS: AtomicU64 = AtomicU64::new(0);

fn record(w: &Workload, mode: Mode) -> Arc<TapeEntry> {
    RECORDINGS.fetch_add(1, Ordering::Relaxed);
    let mut sinks = (TapeRecorder::new(), CountingSink::new());
    let result = run(w, mode, &mut sinks);
    let (rec, counts) = sinks;
    // Publish the summary; a key recorded again (or summarized first)
    // keeps the first one, which is equal.
    slot_of(&SUMMARIES, key(w, mode)).get_or_init(|| Arc::new(RunSummary { result, counts }));
    Arc::new(TapeEntry {
        tape: rec.into_tape(),
    })
}

/// One store slot: the shared once-cell plus an LRU stamp.
struct StoreSlot {
    slot: Slot<Arc<TapeEntry>>,
    last_use: u64,
}

/// The bounded LRU store of packed tapes: slots keyed by [`Key`], with
/// a logical clock for recency ordering.
#[derive(Default)]
struct Store {
    map: HashMap<Key, StoreSlot>,
    tick: u64,
}

impl Store {
    /// Bumps the LRU stamp for `key` and hands out its slot.
    fn slot(&mut self, key: Key) -> Slot<Arc<TapeEntry>> {
        self.tick += 1;
        let tick = self.tick;
        let ts = self.map.entry(key).or_insert_with(|| StoreSlot {
            slot: Slot::default(),
            last_use: 0,
        });
        ts.last_use = tick;
        ts.slot.clone()
    }

    /// Drops least-recently-used initialized entries until the store
    /// fits in `budget`, never touching `keep` (the entry the caller
    /// is about to hand out), and returns the evicted `(key, entry)`
    /// pairs so the caller can demote them to the disk tier.
    /// Uninitialized slots (work in flight) are free and never
    /// dropped. Holders of an evicted `Arc` keep it alive; the store
    /// just forgets it, so the next request rebuilds.
    fn enforce(&mut self, budget: u64, keep: Option<Key>) -> Vec<(Key, Arc<TapeEntry>)> {
        let mut evicted = Vec::new();
        loop {
            let mut total = 0u64;
            let mut victim: Option<(u64, Key)> = None;
            for (k, ts) in &self.map {
                let Some(e) = ts.slot.get() else { continue };
                total += e.tape.size_bytes() as u64 + ENTRY_OVERHEAD_BYTES;
                if keep != Some(*k) && victim.is_none_or(|(lu, _)| ts.last_use < lu) {
                    victim = Some((ts.last_use, *k));
                }
            }
            if total <= budget {
                return evicted;
            }
            let Some((_, k)) = victim else { return evicted };
            if let Some(ts) = self.map.remove(&k) {
                if let Some(v) = ts.slot.get() {
                    evicted.push((k, v.clone()));
                }
            }
        }
    }
}

fn tape_store() -> &'static Mutex<Store> {
    static TAPES: OnceLock<Mutex<Store>> = OnceLock::new();
    TAPES.get_or_init(Default::default)
}

/// Flat per-entry charge for everything around the packed tape (the
/// map slot, and the run result, profile and counting snapshot its
/// recording published to the summary memo).
const ENTRY_OVERHEAD_BYTES: u64 = 4096;

/// Default tape-store byte budget: 4 GiB.
const DEFAULT_BUDGET_BYTES: u64 = 4 * 1024 * 1024 * 1024;

/// Budget floor. A zero (or near-zero) budget would evict every tape
/// the moment it lands and thrash demote/promote (or, historically,
/// re-record) cycles; requests below the floor are clamped, loudly.
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
                 clamping to {MIN_BUDGET_BYTES} (a zero budget would thrash the tape store)"
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

/// The tape-store byte budget: `JRT_TAPE_BUDGET` (bytes, clamped to
/// the 1 MiB floor), default 4 GiB.
pub fn budget_bytes() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| parse_budget(std::env::var("JRT_TAPE_BUDGET").ok().as_deref()))
}

/// Enforces the byte budget on the packed-tape store; evicted entries
/// are demoted to the disk tier (outside the store lock).
fn enforce_budget(budget: u64, keep: Option<Key>) {
    let evicted = tape_store()
        .lock()
        .expect("tape cache poisoned")
        .enforce(budget, keep);
    for (key, e) in evicted {
        demote(key, &e);
    }
}

/// One demoted entry: the on-disk tape. Its run's summary stays in the
/// summary memo, so promotion restores the tape alone.
#[derive(Debug, Clone)]
struct DiskEntry {
    disk: DiskTape,
    /// Logical-content fingerprint taken at demotion; promotion
    /// re-derives it from what it read back and refuses a mismatch.
    expect: u64,
}

fn disk_map() -> &'static Mutex<HashMap<Key, DiskEntry>> {
    static DISK: OnceLock<Mutex<HashMap<Key, DiskEntry>>> = OnceLock::new();
    DISK.get_or_init(Default::default)
}

/// Times an evicted tape was written to the disk tier.
static DISK_DEMOTIONS: AtomicU64 = AtomicU64::new(0);
/// Times a tape was promoted back from the disk tier.
static DISK_PROMOTIONS: AtomicU64 = AtomicU64::new(0);
/// Times a disk-tier read failed validation and fell back to a fresh
/// recording.
static DISK_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// VM recording passes so far: one per tape built by running the VM
/// (first recordings, and re-recordings after eviction or a disk-tier
/// fallback). Count-only [`summary`] runs and promotions are not
/// recordings.
pub fn recordings() -> u64 {
    RECORDINGS.load(Ordering::Relaxed)
}

/// Tape-store entries decoded so far ([`TapeEntry::decode`] calls).
pub fn decodes() -> u64 {
    DECODES.load(Ordering::Relaxed)
}

/// Evicted tapes written to the disk tier so far.
pub fn disk_demotions() -> u64 {
    DISK_DEMOTIONS.load(Ordering::Relaxed)
}

/// Tapes promoted back from the disk tier so far.
pub fn disk_promotions() -> u64 {
    DISK_PROMOTIONS.load(Ordering::Relaxed)
}

/// Disk-tier reads that failed validation (corrupt or unreadable
/// files) and fell back to re-recording. The fallback is counted, not
/// fatal: a damaged spill file can never poison results.
pub fn disk_fallbacks() -> u64 {
    DISK_FALLBACKS.load(Ordering::Relaxed)
}

/// The spill directory's path, chosen on first use, and whether this
/// process chose it (the per-process default) rather than the user
/// (`JRT_TAPE_DIR`).
static DISK_DIR: OnceLock<(PathBuf, bool)> = OnceLock::new();

/// The disk-tier directory: `JRT_TAPE_DIR`, default a per-process
/// directory under the system temp dir, created if it does not exist
/// (again, after [`tidy_spill_dir`] removed it). `None` if it cannot
/// be created (the store then degrades to evict-and-re-record).
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
                "warning: cannot create tape spill dir {}: {e}; \
                 evicted tapes will re-record instead",
                dir.display()
            );
            None
        }
    }
}

/// Removes the process-owned spill directory if it is empty, so an
/// in-process run that spilled only transient files leaves nothing
/// behind; the next demotion creates it again.
pub(crate) fn tidy_spill_dir() {
    if let Some((dir, true)) = DISK_DIR.get() {
        let _demotions_wait = disk_map().lock().expect("disk tier poisoned");
        // Fails, harmlessly, while a demoted tape still lives there.
        let _ = std::fs::remove_dir(dir);
    }
}

/// Deletes the spill directory and everything in it, if this process
/// created it under its default name; a `JRT_TAPE_DIR` directory
/// belongs to the user and is left alone. Call it once no spilled tape
/// will be read again, just before the process exits: demoted tapes
/// are lost and would re-record.
pub fn remove_spill_dir() {
    if let Some((dir, true)) = DISK_DIR.get() {
        match std::fs::remove_dir_all(dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => eprintln!(
                "warning: cannot remove tape spill dir {}: {e}",
                dir.display()
            ),
            _ => {}
        }
    }
}

fn spill_file((name, size, mode): Key) -> String {
    format!("{name}-{size:?}-{mode:?}.tape")
}

/// Writes an evicted entry to the disk tier. Holding the disk-map
/// lock from creating the directory to the end of the write serializes
/// concurrent demotions of the same key and keeps [`tidy_spill_dir`]
/// out; a failed write only warns — the entry just re-records later.
fn demote(key: Key, e: &TapeEntry) {
    let mut map = disk_map().lock().expect("disk tier poisoned");
    let Some(dir) = disk_dir() else { return };
    let path = dir.join(spill_file(key));
    match DiskTape::write(&path, &e.tape) {
        Ok(disk) => {
            DISK_DEMOTIONS.fetch_add(1, Ordering::Relaxed);
            map.insert(
                key,
                DiskEntry {
                    disk,
                    expect: jrt_trace::store::fingerprint(e.tape.len(), e.tape.segments()),
                },
            );
        }
        Err(err) => eprintln!(
            "warning: tape demotion to {} failed: {err}; will re-record on next use",
            path.display()
        ),
    }
}

/// Tries to promote a demoted entry back from disk. Validation
/// failures (corrupt segment, truncated index, fingerprint mismatch)
/// drop the spill entry, bump the fallback counter, and return `None`
/// so the caller re-records.
fn promote(key: Key) -> Option<Arc<TapeEntry>> {
    let entry = disk_map()
        .lock()
        .expect("disk tier poisoned")
        .get(&key)
        .cloned()?;
    let read = entry
        .disk
        .to_tape()
        .map_err(|e| e.to_string())
        .and_then(|t| {
            if jrt_trace::store::fingerprint(t.len(), t.segments()) == entry.expect {
                Ok(t)
            } else {
                Err("content fingerprint mismatch".into())
            }
        });
    match read {
        Ok(tape) => {
            DISK_PROMOTIONS.fetch_add(1, Ordering::Relaxed);
            Some(Arc::new(TapeEntry { tape }))
        }
        Err(err) => {
            DISK_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            disk_map().lock().expect("disk tier poisoned").remove(&key);
            eprintln!(
                "warning: disk-tier tape {} failed validation ({err}); re-recording",
                entry.disk.path().display()
            );
            None
        }
    }
}

/// Returns the cached recording of `w` under `mode`, recording it on
/// first use. The entry is shared (`Arc`) across all callers. The
/// report's shared pass, which decodes it, and the scale study, which
/// tiles it, are its only readers.
pub fn recorded(w: &Workload, mode: Mode) -> Arc<TapeEntry> {
    let key = key(w, mode);
    let slot = tape_store().lock().expect("tape cache poisoned").slot(key);
    // The promote/record happens outside the store lock (other keys
    // proceed in parallel); the budget check runs after, so a giant
    // fresh tape can push out colder ones but is itself protected.
    let e = slot
        .get_or_init(|| promote(key).unwrap_or_else(|| record(w, mode)))
        .clone();
    enforce_budget(budget_bytes(), Some(key));
    e
}

/// Returns the memoized [`RunSummary`] of `w` under `mode`. A key that
/// was ever recorded answers from its recording; otherwise the first
/// call runs the VM once into a [`CountingSink`] alone and records no
/// tape. A key the pass will record must not be summarized before it
/// runs, or the key runs twice.
pub fn summary(w: &Workload, mode: Mode) -> Arc<RunSummary> {
    slot_of(&SUMMARIES, key(w, mode))
        .get_or_init(|| {
            let mut counts = CountingSink::new();
            let result = run(w, mode, &mut counts);
            Arc::new(RunSummary { result, counts })
        })
        .clone()
}

/// Serializes the unit tests that record hello's tapes or use the spill
/// directory: sharing asserts an entry stays, eviction drops them all
/// to disk, a damaged spill must not be promoted by another test first,
/// and the scale study writes its tiled tapes into the directory the
/// demoting tests tidy away.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
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

    /// Deletes every demoted tape and forgets it, then the spill
    /// directory if that empties it. A zero budget demotes every tape
    /// this test binary holds, not just hello's, so a demoting test
    /// calls this before it releases the gate.
    fn remove_spills() {
        for (_, e) in disk_map().lock().expect("disk tier poisoned").drain() {
            e.disk.remove().expect("remove a demoted tape");
        }
        tidy_spill_dir();
    }

    #[test]
    fn recorded_entry_is_shared() {
        let _g = test_gate();
        let w = hello_workload();
        let a = recorded(&w, Mode::Interp);
        let b = recorded(&w, Mode::Interp);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one entry");
        let s = summary(&w, Mode::Interp);
        assert_eq!(s.counts.total(), a.tape.len());
        assert_eq!(s.result.exit_value, Some(hello::expected(Size::Tiny)));
    }

    #[test]
    fn eviction_then_rerecord_replays_identically() {
        let _g = test_gate();
        let w = hello_workload();
        let a = recorded(&w, Mode::Interp);
        let mut before = RecordingSink::new();
        a.decode(&mut before);

        // A zero budget evicts every initialized entry.
        enforce_budget(0, None);
        remove_spills();
        let b = recorded(&w, Mode::Interp);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "entry must have been dropped and re-recorded"
        );

        let mut after = RecordingSink::new();
        b.decode(&mut after);
        assert_eq!(
            before.events, after.events,
            "re-recording after eviction must reproduce the stream byte-for-byte"
        );
    }

    #[test]
    fn budget_keeps_the_entry_just_requested() {
        let _g = test_gate();
        let w = hello_workload();
        let key = key(&w, Mode::Interp);
        let _e = recorded(&w, Mode::Interp);
        // Even an impossible budget spares the protected key.
        enforce_budget(0, Some(key));
        remove_spills();
        let st = tape_store().lock().expect("tape cache poisoned");
        assert!(st.map.contains_key(&key));
    }

    #[test]
    fn decode_matches_direct_run() {
        let _g = test_gate();
        let w = hello_workload();
        let mut direct = RecordingSink::new();
        let r = crate::runner::run_mode(&w.program, Mode::Jit, &mut direct);
        w.check(&r);

        let mut replayed = RecordingSink::new();
        let decodes_0 = decodes();
        let e = recorded(&w, Mode::Jit);
        e.decode(&mut replayed);
        assert!(decodes() > decodes_0, "the decode must be counted");
        assert_eq!(replayed.events, direct.events);
        let s = summary(&w, Mode::Jit);
        assert_eq!(s.result.exit_value, r.exit_value);
        assert_eq!(s.counts.total(), direct.events.len() as u64);
    }

    #[test]
    fn summary_reuses_the_recording_wherever_its_tape_lives() {
        let _g = test_gate();
        let w = hello_workload();
        // No other test touches this key, so no count-only run fills
        // its summary first.
        let k = key(&w, Mode::IrInterp);
        assert!(slot_of(&SUMMARIES, k).get().is_none(), "key must be fresh");
        let e = recorded(&w, Mode::IrInterp);
        let published = slot_of(&SUMMARIES, k)
            .get()
            .expect("a recording publishes its summary")
            .clone();
        let s = summary(&w, Mode::IrInterp);
        assert!(
            Arc::ptr_eq(&s, &published),
            "the summary must be the recording's"
        );
        assert_eq!(s.counts.total(), e.tape.len());
        // Demoted to disk (or dropped), the tape need not come back.
        enforce_budget(0, None);
        remove_spills();
        assert!(Arc::ptr_eq(&summary(&w, Mode::IrInterp), &s));
    }

    #[test]
    fn folding_tape_differs_from_stock_interp() {
        let _g = test_gate();
        let w = hello_workload();
        let stock = recorded(&w, Mode::Interp);
        let folded = recorded(&w, Mode::Folding);
        assert!(folded.tape.len() < stock.tape.len());
    }

    #[test]
    fn budget_parsing_clamps_and_defaults() {
        // Unset: default.
        assert_eq!(parse_budget(None), DEFAULT_BUDGET_BYTES);
        // Zero (the historical thrash case) clamps to the floor.
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
    fn eviction_demotes_to_disk_and_promotes_back() {
        let _g = test_gate();
        let w = hello_workload();
        let key = key(&w, Mode::Interp);
        let a = recorded(&w, Mode::Interp);
        let mut before = RecordingSink::new();
        a.decode(&mut before);

        let demotions_0 = disk_demotions();
        let promotions_0 = disk_promotions();
        enforce_budget(0, None);
        assert!(disk_demotions() > demotions_0, "eviction must spill");
        assert!(
            disk_map()
                .lock()
                .expect("disk tier poisoned")
                .contains_key(&key),
            "spilled entry must be indexed"
        );

        let b = recorded(&w, Mode::Interp);
        remove_spills();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(disk_promotions() > promotions_0, "reload must promote");
        let mut after = RecordingSink::new();
        b.decode(&mut after);
        assert_eq!(before.events, after.events);
    }

    #[test]
    fn corrupt_spill_falls_back_to_rerecord() {
        let _g = test_gate();
        let w = hello_workload();
        let key = key(&w, Mode::Jit);
        let a = recorded(&w, Mode::Jit);
        let mut before = RecordingSink::new();
        a.decode(&mut before);
        enforce_budget(0, None);

        // Damage the spilled payload.
        let spilled = disk_map()
            .lock()
            .expect("disk tier poisoned")
            .get(&key)
            .expect("entry spilled")
            .disk
            .clone();
        let path = spilled.path();
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(path, &bytes).unwrap();

        let fallbacks_0 = disk_fallbacks();
        let b = recorded(&w, Mode::Jit);
        assert!(disk_fallbacks() > fallbacks_0, "fallback must be counted");
        assert!(
            !disk_map()
                .lock()
                .expect("disk tier poisoned")
                .contains_key(&key),
            "damaged spill entry must be forgotten"
        );
        // Forgotten, the damaged file is no longer the store's to delete.
        spilled.remove().expect("remove the damaged spill");
        remove_spills();
        let mut after = RecordingSink::new();
        b.decode(&mut after);
        assert_eq!(
            before.events, after.events,
            "re-recording must reproduce the stream exactly"
        );
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
