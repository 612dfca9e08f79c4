//! Golden-snapshot test for the generational-GC study.
//!
//! The study's committed output at `Tiny` scale is the last section of
//! `tests/golden/experiments_tiny.md`, from its heading to the end.
//! Running `gc_study::run` on its own (what `run_all --filter gc`
//! does) must reproduce that section byte-identically at several
//! worker counts, which pins down the collection schedule (minor
//! counts, copied bytes), the card-barrier instruction overhead, the
//! Gc/GcBarrier cache-slice miss attribution, and the cross-collector
//! equivalence verdict. The study's rows must also show real
//! collector work — a golden section full of zeros would pin nothing.

use javart::experiments::{gc_study, jobs};
use javart::workloads::Size;

const REPORT: &str = include_str!("golden/experiments_tiny.md");

/// The GC section of the report golden.
fn golden() -> &'static str {
    let start = REPORT.find("## GC study").expect("gc heading");
    &REPORT[start..]
}

#[test]
fn gc_study_tiny_is_byte_identical_at_any_worker_count() {
    let golden = golden();
    for workers in [1, 2, 8] {
        jobs::set_jobs(workers);
        let study = gc_study::run(Size::Tiny);
        for r in &study.rows {
            assert!(r.minors > 0, "{}: no minor collections", r.name);
            assert!(r.barrier_insts > 0, "{}: no write-barrier traffic", r.name);
        }
        assert!(
            study.all_equivalent(),
            "a collector configuration leaked into observables"
        );
        let md = study.to_markdown();
        assert!(
            md == golden,
            "gc_study(Tiny) with {workers} worker(s) diverged from \
             its section of tests/golden/experiments_tiny.md (lengths: got {}, \
             golden {}); first differing byte at offset {:?}",
            md.len(),
            golden.len(),
            md.bytes().zip(golden.bytes()).position(|(a, b)| a != b),
        );
    }
    jobs::set_jobs(0);
}
