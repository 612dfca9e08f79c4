//! Golden-snapshot test for the multi-tenant fleet study.
//!
//! The study's committed output at `Tiny` scale is its section of
//! `tests/golden/experiments_tiny.md`, from its heading up to the
//! scale section's. Running `serve::run` on its own (what
//! `run_all --filter serve` does) must reproduce that section
//! byte-identically — at one worker (the sequential path) and at
//! several worker counts — which pins down the traffic mix, the
//! measured cost model, the fleet-scaling simulation (throughput,
//! p50/p99/p999, shed counts, dedup rates), and the parallel
//! measurement phase's canonical-order merge.

use javart::experiments::{jobs, serve};
use javart::workloads::Size;

const REPORT: &str = include_str!("golden/experiments_tiny.md");

/// The serving section of the report golden.
fn golden() -> &'static str {
    let start = REPORT.find("## Serving tier").expect("serve heading");
    let end = REPORT
        .find("**Out-of-core scale study")
        .expect("scale heading");
    &REPORT[start..end]
}

#[test]
fn serve_study_tiny_is_byte_identical_at_any_worker_count() {
    let golden = golden();
    for workers in [1, 2, 8] {
        jobs::set_jobs(workers);
        let md = serve::run(Size::Tiny).to_markdown();
        assert!(
            md == golden,
            "serve_study(Tiny) with {workers} worker(s) diverged from \
             its section of tests/golden/experiments_tiny.md (lengths: got {}, \
             golden {}); first differing byte at offset {:?}",
            md.len(),
            golden.len(),
            md.bytes().zip(golden.bytes()).position(|(a, b)| a != b),
        );
    }
    jobs::set_jobs(0);
}
