//! The trace manifest: "the trace does not change" as a check.
//!
//! `tests/golden/trace_manifest.txt` has one line per case — each
//! program of `suite_with_hello()` and `gc_suite()` at `tiny` on six
//! engines, then on the JIT and the IR-backed JIT in a bounded LRU
//! code cache — holding the event count of its native stream and
//! hashes of every emitted `NativeInst`, of the run's `VmCounters`, of
//! its `Observables` (opcode histogram included) and of its method
//! profiles in `MethodId` order. The instruction hash folds each
//! event's fields in a sink, so the tape encoder is not part of what
//! is pinned. One more line per CI fuzz pass (both differential seeds,
//! both `--perf` passes and `--gc`, each at CI's case count) holds a
//! hash of its rendered report.
//!
//! The report goldens are too coarse to stand in: a stream can change
//! without moving any number the report prints. A change that alters
//! the trace on purpose regenerates the manifest with
//!
//! ```text
//! cargo test --test trace_manifest -- --ignored
//! ```
//!
//! and says why.

use javart::experiments::codecache::PATHOLOGICAL_CAPACITY;
use javart::fuzz::{fuzz_with, Oracle};
use javart::trace::{content_hash, AccessKind, NativeInst, NullSink, TraceSink};
use javart::vm::{CodeCacheConfig, EvictionPolicy, GcConfig, Vm, VmConfig};
use javart::workloads::{gc_suite, suite_with_hello, Size, Spec};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_manifest.txt"
);

/// Worker threads for the cases and the fuzz passes; every line is
/// the same at any count.
const WORKERS: usize = 2;

/// Hash of a value's `Debug` rendering, which names every field, so a
/// new or renamed field changes the manifest too.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    content_hash(format!("{value:?}").as_bytes())
}

/// Folds every field of every event into `hash`, one 64-bit word at a
/// time (`h = (rotl(h, 5) ^ w) * K`), and counts the events. Each step
/// is a bijection of `h` for a fixed word and of the word for a fixed
/// `h`, so changing any single word always changes the result.
#[derive(Debug)]
struct InstHash {
    events: u64,
    hash: u64,
}

impl InstHash {
    fn word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// An optional register as 9 bits: 0 for none, else the register + 1.
fn reg(r: Option<u8>) -> u64 {
    r.map_or(0, |r| u64::from(r) + 1)
}

impl TraceSink for InstHash {
    fn accept(&mut self, inst: &NativeInst) {
        let mut shape = inst.class.index() as u64
            | (inst.phase.index() as u64) << 8
            | reg(inst.dst) << 16
            | reg(inst.src1) << 25
            | reg(inst.src2) << 34;
        self.word(inst.pc);
        if let Some(m) = inst.mem {
            let write = u64::from(m.kind == AccessKind::Write);
            shape |= 1 << 43 | write << 44 | u64::from(m.size) << 45;
            self.word(m.addr);
        }
        if let Some(c) = inst.ctrl {
            shape |= 1 << 53 | u64::from(c.taken) << 54;
            self.word(c.target);
        }
        self.word(shape);
        self.events += 1;
    }
}

/// The six engines of the manifest, with their labels.
fn engines() -> [(&'static str, VmConfig); 6] {
    [
        ("interp", VmConfig::interpreter()),
        ("interp+folding", VmConfig::interpreter().with_folding()),
        ("jit", VmConfig::jit()),
        ("ir-interp", VmConfig::ir_interp()),
        ("ir-jit", VmConfig::ir_jit()),
        (
            "jit+tiny-nursery",
            VmConfig::jit().with_gc(GcConfig::tiny_nursery()),
        ),
    ]
}

/// The bounded engines: the JIT and the IR-backed JIT in an LRU code
/// cache of the code-cache study's pathological size. Every program
/// evicts there, some code from under a running frame, which must
/// then stop running it.
fn bounded_engines() -> [(&'static str, VmConfig); 2] {
    let lru = CodeCacheConfig::bounded(PATHOLOGICAL_CAPACITY, EvictionPolicy::Lru);
    [
        ("jit+lru384", VmConfig::jit().with_code_cache(lru)),
        ("ir-jit+lru384", VmConfig::ir_jit().with_code_cache(lru)),
    ]
}

/// One case's line, and the code evictions of its run: a traced run
/// for the stream, counters and profiles, and an observed run for the
/// observables.
fn case_line(spec: &Spec, engine: &str, cfg: &VmConfig) -> (String, u64) {
    let program = (spec.build)(Size::Tiny);
    let mut sink = InstHash {
        events: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };
    let r = Vm::new(&program, cfg.clone())
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{} on {engine}: {e}", spec.name));
    let observed = Vm::new(&program, cfg.clone()).run_observed(&mut NullSink);
    let profile: Vec<_> = r.profile.iter().collect();
    let line = format!(
        "{} {engine} events={} inst={:016x} counters={:016x} observables={:016x} profile={:016x}",
        spec.name,
        sink.events,
        sink.hash,
        debug_hash(&r.counters),
        debug_hash(&observed.observables),
        debug_hash(&profile),
    );
    (line, r.counters.code_evictions)
}

/// The CI fuzz passes: (label, seed, cases, oracle).
fn fuzz_passes() -> [(&'static str, u64, u64, Oracle); 5] {
    [
        ("diff", 0x5EED_0001, 256, Oracle::Diff(None)),
        ("diff", 0x1A2B_0007, 256, Oracle::Diff(None)),
        ("perf", 0x1A2B_0007, 128, Oracle::Perf(None)),
        ("perf", 0x5EED_0001, 128, Oracle::Perf(None)),
        ("gc", 0x5EED_0001, 128, Oracle::Gc(None)),
    ]
}

/// Every line of the manifest, in order: the cases on the six
/// engines, the cases on the bounded engines, then the fuzz passes.
///
/// # Panics
///
/// Panics if a bounded case evicted no code, so that its line would
/// not pin eviction.
fn manifest() -> String {
    let programs: Vec<Spec> = suite_with_hello().into_iter().chain(gc_suite()).collect();
    let mut cases = Vec::new();
    for spec in &programs {
        for (engine, cfg) in engines() {
            cases.push((spec, engine, cfg, false));
        }
    }
    for spec in &programs {
        for (engine, cfg) in bounded_engines() {
            cases.push((spec, engine, cfg, true));
        }
    }
    let mut lines = jrt_testkit::par_map(&cases, WORKERS, |(spec, engine, cfg, bounded)| {
        let (line, evictions) = case_line(spec, engine, cfg);
        assert!(
            !bounded || evictions > 0,
            "{} on {engine} evicted no code",
            spec.name
        );
        line
    });
    for (label, seed, n, oracle) in fuzz_passes() {
        let report = fuzz_with(seed, n, WORKERS, oracle).render(seed);
        let h = content_hash(report.as_bytes());
        lines.push(format!(
            "fuzz {label} seed={seed:#x} cases={n} report={h:016x}"
        ));
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn trace_matches_the_manifest() {
    let want = std::fs::read_to_string(GOLDEN).expect("read the trace manifest");
    let got = manifest();
    if got == want {
        return;
    }
    let (old, new): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    let mut changed = String::new();
    for k in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(k), new.get(k));
        if o != n {
            changed.push_str(&format!(
                "  line {}:\n    - {}\n    + {}\n",
                k + 1,
                o.unwrap_or(&"(none)"),
                n.unwrap_or(&"(none)")
            ));
        }
    }
    panic!(
        "the trace differs from {GOLDEN}:\n{changed}\
         if the change is on purpose, regenerate it with \
         `cargo test --test trace_manifest -- --ignored` and say why"
    );
}

/// Rewrites the manifest from the current tree.
#[test]
#[ignore = "rewrites tests/golden/trace_manifest.txt"]
fn regenerate_the_manifest() {
    std::fs::write(GOLDEN, manifest()).expect("write the trace manifest");
}
