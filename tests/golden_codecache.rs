//! Golden-snapshot test for the managed-code-cache study.
//!
//! The study's committed output at `Tiny` scale is its section of
//! `tests/golden/experiments_tiny.md`, from its heading up to the
//! serving section's. Running `codecache::run` on its own (what
//! `run_all --filter codecache` does) must reproduce that section
//! byte-identically — at one worker (the sequential path) and at
//! several worker counts — which pins down the capacity sweep,
//! sharing comparison, tiering table, and thrash-crossover numbers
//! as well as the parallel scheduler's canonical-order merge.

use javart::experiments::{codecache, jobs};
use javart::workloads::Size;

const REPORT: &str = include_str!("golden/experiments_tiny.md");

/// The code-cache section of the report golden.
fn golden() -> &'static str {
    let start = REPORT
        .find("## Managed code cache")
        .expect("codecache heading");
    let end = REPORT.find("## Serving tier").expect("serve heading");
    &REPORT[start..end]
}

#[test]
fn codecache_study_tiny_is_byte_identical_at_any_worker_count() {
    let golden = golden();
    for workers in [1, 2, 8] {
        jobs::set_jobs(workers);
        let md = codecache::run(Size::Tiny).to_markdown();
        assert!(
            md == golden,
            "codecache_study(Tiny) with {workers} worker(s) diverged from \
             its section of tests/golden/experiments_tiny.md (lengths: got {}, \
             golden {}); first differing byte at offset {:?}",
            md.len(),
            golden.len(),
            md.bytes().zip(golden.bytes()).position(|(a, b)| a != b),
        );
    }
    jobs::set_jobs(0);
}
