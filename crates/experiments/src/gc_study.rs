//! Generational-GC study — collection behavior of allocation-heavy
//! workloads under the copying collector.
//!
//! The paper's heap studies treat the collector as part of the
//! runtime's architectural footprint: barrier instructions ride the
//! execution stream and collection work has its own locality. This
//! study measures exactly that on the three allocation-heavy
//! workloads ([`jrt_workloads::gc_suite`]):
//!
//! * **collection counts** — minor (nursery evacuation) and major
//!   (copying compaction) collections under the study nursery;
//! * **survival** — bytes the collector copied as a share of bytes
//!   the program allocated (the weak-generational-hypothesis check:
//!   churny workloads should stay in single digits);
//! * **barrier overhead** — card-marking write-barrier instructions
//!   per 1,000 executed bytecodes (the mutator's steady-state tax);
//! * **cache attribution** — simulated paper-L1 misses inside the
//!   `Gc` and `GcBarrier` trace slices (the sweep's dedicated phase
//!   slices), separating collector locality from mutator locality;
//! * **schedule invisibility** — the same program and size is re-run
//!   under the legacy collector, the production-shaped generational
//!   geometry, and the forcing tiny nursery, plus the interpreter
//!   reference; all observables must be byte-equal.
//!
//! The report is deterministic at any `--jobs` setting (the study
//! runs its small workload set serially). `run_all --filter gc
//! --sabotage-drop-barrier N` arms the collector's seeded
//! missed-write-barrier hook on the measured engine — the must-fail
//! CI leg proves a single lost barrier breaks equivalence and exits 1.

use crate::table::{count, pct, Table};
use jrt_cache::{CacheConfig, SplitSweep};
use jrt_trace::NullSink;
use jrt_vm::{GcConfig, Observables, Vm, VmConfig};
use jrt_workloads::{gc_suite, Size};

/// One workload's collector behavior.
#[derive(Debug, Clone)]
pub struct GcRow {
    /// Benchmark name.
    pub name: String,
    /// Executed bytecodes on the measured (JIT) engine.
    pub bytecodes: u64,
    /// Minor collections.
    pub minors: u64,
    /// Major collections.
    pub majors: u64,
    /// Bytes the program allocated on the Java heap.
    pub alloc_bytes: u64,
    /// Bytes the collector copied (evacuation + compaction).
    pub copied_bytes: u64,
    /// Collector trace instructions (`Phase::Gc`).
    pub gc_insts: u64,
    /// Write-barrier trace instructions (`Phase::GcBarrier`).
    pub barrier_insts: u64,
    /// Paper-L1 I-cache misses inside the `Gc` slice.
    pub gc_imiss: u64,
    /// Paper-L1 D-cache misses inside the `Gc` slice.
    pub gc_dmiss: u64,
    /// Paper-L1 I-cache misses inside the `GcBarrier` slice.
    pub barrier_imiss: u64,
    /// Paper-L1 D-cache misses inside the `GcBarrier` slice.
    pub barrier_dmiss: u64,
    /// Self-check passed and observables were byte-equal across the
    /// interpreter reference and all three collector configurations.
    pub equivalent: bool,
}

impl GcRow {
    /// Copied bytes as a share of allocated bytes. Approximates the
    /// survival rate when only minor collections run; forced majors
    /// re-copy tenured objects, so the ratio can exceed 100%.
    pub fn survival(&self) -> f64 {
        if self.alloc_bytes == 0 {
            0.0
        } else {
            self.copied_bytes as f64 / self.alloc_bytes as f64
        }
    }

    /// Barrier instructions per 1,000 executed bytecodes.
    pub fn barrier_per_kbc(&self) -> f64 {
        if self.bytecodes == 0 {
            0.0
        } else {
            self.barrier_insts as f64 * 1000.0 / self.bytecodes as f64
        }
    }
}

/// The full GC study.
#[derive(Debug, Clone)]
pub struct GcStudy {
    /// Nursery size of the measured configuration, in bytes.
    pub nursery_bytes: u64,
    /// Tenured budget of the measured configuration, in bytes.
    pub tenured_bytes: u64,
    /// One row per GC workload.
    pub rows: Vec<GcRow>,
}

impl GcStudy {
    /// Renders the summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "GC study: generational copying collection on allocation-heavy workloads",
            &[
                "benchmark",
                "bytecodes",
                "minors",
                "majors",
                "alloc bytes",
                "copied",
                "copied/alloc",
                "barrier insts",
                "barrier/1k bc",
                "gc misses I/D",
                "barrier misses I/D",
                "equivalent",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                count(r.bytecodes),
                r.minors.to_string(),
                r.majors.to_string(),
                count(r.alloc_bytes),
                count(r.copied_bytes),
                pct(r.survival()),
                count(r.barrier_insts),
                format!("{:.1}", r.barrier_per_kbc()),
                format!("{}/{}", count(r.gc_imiss), count(r.gc_dmiss)),
                format!("{}/{}", count(r.barrier_imiss), count(r.barrier_dmiss)),
                if r.equivalent { "yes" } else { "NO" }.into(),
            ]);
        }
        t
    }

    /// Renders the study as markdown: the table plus one summary line
    /// per row and the equivalence verdict.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## GC study — generational copying collection\n\n");
        out.push_str(&format!(
            "*Setup:* nursery {} bytes, tenured budget {} bytes; measured on the \
             first-invocation JIT; equivalence checked against the interpreter and \
             the legacy / production-geometry / tiny-nursery collectors.\n\n",
            count(self.nursery_bytes),
            count(self.tenured_bytes)
        ));
        out.push_str(&self.table().to_markdown());
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "- `{}`: {} minor and {} major collection(s) copied {} of {} \
                 allocated bytes ({} copied/alloc); the card barrier cost {} \
                 instructions ({:.1} per 1,000 bytecodes).\n",
                r.name,
                r.minors,
                r.majors,
                count(r.copied_bytes),
                count(r.alloc_bytes),
                pct(r.survival()),
                count(r.barrier_insts),
                r.barrier_per_kbc(),
            ));
        }
        let verdict = if self.all_equivalent() {
            "observationally equivalent under every collector configuration"
        } else {
            "NOT equivalent — collector schedule leaked into observables"
        };
        out.push_str(&format!("- All workloads: {verdict}.\n\n"));
        out
    }

    /// Whether every row passed the cross-collector equivalence check.
    pub fn all_equivalent(&self) -> bool {
        self.rows.iter().all(|r| r.equivalent)
    }
}

/// The measured collector geometry: always the forcing tiny nursery.
/// Even the s1/s10 suites allocate well under the production 256 KiB
/// nursery, so the production geometry would never collect — it is
/// exercised by the equivalence runs instead, while the measured run
/// keeps the collector hot at every size.
pub fn study_config(_size: Size) -> GcConfig {
    GcConfig::tiny_nursery()
}

fn run_observables(program: &jrt_bytecode::Program, cfg: VmConfig) -> Observables {
    Vm::new(program, cfg)
        .run_observed(&mut NullSink)
        .observables
}

fn run_one(spec: &jrt_workloads::Spec, size: Size, sabotage_drop: Option<u64>) -> GcRow {
    let program = (spec.build)(size);
    let study_gc = study_config(size);

    // The measured run: first-invocation JIT under the study nursery,
    // swept through the paper-L1 points for the phase-slice miss
    // attribution the new Gc/GcBarrier sweep slices expose.
    let ipoints = [CacheConfig::paper_l1_inst()];
    let dpoints = [CacheConfig::paper_l1_data()];
    let mut sweep = SplitSweep::new(&ipoints, &dpoints);
    let mut cfg = VmConfig::jit().with_gc(study_gc);
    cfg.gc_sabotage_drop_barrier = sabotage_drop;
    let run = Vm::new(&program, cfg).run_observed(&mut sweep);
    let iresults = sweep.icache().results();
    let dresults = sweep.dcache().results();
    let (i, d) = (&iresults[0], &dresults[0]);

    // Schedule invisibility: interpreter reference plus the JIT under
    // every collector configuration must observe identically.
    let reference = run_observables(&program, VmConfig::interpreter());
    let self_check = run.observables.outcome == Ok(Some((spec.expected)(size)));
    let equivalent = self_check
        && [GcConfig::Legacy, GcConfig::generational(), study_gc]
            .into_iter()
            .all(|gc| run_observables(&program, VmConfig::jit().with_gc(gc)) == reference)
        && run.observables == reference;

    GcRow {
        name: spec.name.to_string(),
        bytecodes: run.counters.bytecodes,
        minors: run.counters.gc_minor,
        majors: run.counters.gc_major,
        alloc_bytes: run.counters.heap_alloc_bytes,
        copied_bytes: run.counters.gc_copied_bytes,
        gc_insts: run.counters.gc_insts,
        barrier_insts: run.counters.gc_barrier_insts,
        gc_imiss: i.gc_stats().misses(),
        gc_dmiss: d.gc_stats().misses(),
        barrier_imiss: i.gc_barrier_stats().misses(),
        barrier_dmiss: d.gc_barrier_stats().misses(),
        equivalent,
    }
}

/// Runs the GC study over [`gc_suite`] at `size`.
pub fn run(size: Size) -> GcStudy {
    run_sabotaged(size, None)
}

/// Runs the study with the seeded missed-write-barrier sabotage armed
/// on the measured engine (`None` = clean run). A sabotaged run whose
/// dropped barrier matters fails the equivalence column, which
/// [`crate::report::Report::check`] reports and `run_all` turns into
/// exit 1 — the CI must-fail harness self-test.
pub fn run_sabotaged(size: Size, sabotage_drop: Option<u64>) -> GcStudy {
    let (nursery_bytes, tenured_bytes) = match study_config(size) {
        GcConfig::Generational {
            nursery_bytes,
            tenured_bytes,
        } => (nursery_bytes, tenured_bytes),
        GcConfig::Legacy => unreachable!("study_config is always generational"),
    };
    GcStudy {
        nursery_bytes,
        tenured_bytes,
        rows: gc_suite()
            .iter()
            .map(|spec| run_one(spec, size, sabotage_drop))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_collects_and_stays_equivalent() {
        let study = run(Size::Tiny);
        assert_eq!(study.rows.len(), 3);
        for r in &study.rows {
            assert!(r.minors > 0, "{}: no minor collections", r.name);
            assert!(r.barrier_insts > 0, "{}: no barrier traffic", r.name);
            assert!(r.copied_bytes <= r.alloc_bytes, "{}: copy bound", r.name);
            assert!(r.equivalent, "{}: schedule leaked", r.name);
        }
        assert!(study.all_equivalent());
        let md = study.to_markdown();
        assert!(md.contains("observationally equivalent"));
    }

    #[test]
    fn seeded_missed_barrier_breaks_equivalence() {
        // The pinned must-fail parameters: dropping `stream`'s first
        // remembered-set enrollment reclaims a live kept array.
        let study = run_sabotaged(Size::Tiny, Some(0));
        assert!(
            !study.all_equivalent(),
            "sabotaged run stayed equivalent — the missed barrier was not observable"
        );
    }
}
