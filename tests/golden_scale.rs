//! Golden-snapshot test for the out-of-core scale study.
//!
//! The study's committed output at `Tiny` scale is its section of
//! `tests/golden/experiments_tiny.md`, from its heading up to the GC
//! section's. Running `scale::run` on its own (what
//! `run_all --filter scale` does) must reproduce that section
//! byte-identically — at one worker (the sequential path) and at
//! several worker counts — which pins down the tape tiling, the
//! on-disk segment layout (event and byte counts), and the sharded
//! replay's exact stitch at every shard count. Throughput numbers go
//! to stderr only, so nothing schedule-dependent reaches the report.

use javart::experiments::{jobs, scale};
use javart::workloads::Size;

const REPORT: &str = include_str!("golden/experiments_tiny.md");

/// The scale section of the report golden.
fn golden() -> &'static str {
    let start = REPORT
        .find("**Out-of-core scale study")
        .expect("scale heading");
    let end = REPORT.find("## GC study").expect("gc heading");
    &REPORT[start..end]
}

#[test]
fn scale_study_tiny_is_byte_identical_at_any_worker_count() {
    let golden = golden();
    for workers in [1, 2, 8] {
        jobs::set_jobs(workers);
        let study = scale::run(Size::Tiny);
        assert!(
            study.rows.iter().all(|r| r.shards.iter().all(|p| p.exact)),
            "sharded replay diverged from the serial reference"
        );
        let md = study.to_markdown();
        assert!(
            md == golden,
            "scale_study(Tiny) with {workers} worker(s) diverged from \
             its section of tests/golden/experiments_tiny.md (lengths: got {}, \
             golden {}); first differing byte at offset {:?}",
            md.len(),
            golden.len(),
            md.bytes().zip(golden.bytes()).position(|(a, b)| a != b),
        );
    }
    jobs::set_jobs(0);
}
