//! VM runs of a tiny report, as `tape::vm_runs` counts them: every run
//! of a workload but the GC study's.
//! The shared pass runs each stream it reads once per report, straight
//! into its consumers: the 14 stock streams, plus the 7 folding and 7
//! IR-interpreter ones. The scale study records the JIT streams of `db`
//! and `jess` once per report. Every other reader takes run summaries,
//! which run the VM once per key and process; Figure 11's thin-lock and
//! 1-bit JITs on the 7 benchmarks (14) and the code-cache study's 4
//! tiered JITs are such keys. The code-cache study also runs 53 engines
//! no `Mode` names every report (48 bounded caches, 5 sharing scopes).
//! So:
//!
//! - Table 1 alone runs its 14 stock keys count-only;
//! - a cold report runs 130: 59 through the pass, the scale study and
//!   the summaries no stream published, plus 18 summaries of the
//!   Figure 11 and tiered keys, plus 53;
//! - a warm report runs 83: the 28 pass streams and the 2 scale
//!   recordings, plus 53.
//!
//! The counter is process-global, so this test has a binary of its
//! own.

use javart::experiments::{jobs, report, tape};
use javart::workloads::Size;

#[test]
fn run_all_runs_each_stream_once_per_pass_and_leaves_tmpdir_empty() {
    let tmp = std::env::temp_dir().join(format!("jrt-decode-count-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create a fresh TMPDIR");
    // Before anything reads it: the tape spill directory goes here.
    std::env::set_var("TMPDIR", &tmp);
    jobs::set_jobs(2);
    let runs = tape::vm_runs();
    report::run_filtered(Size::Tiny, Some("table1"), None);
    assert_eq!(tape::vm_runs() - runs, 14, "table1 alone: VM runs");
    for (pass, want) in [("cold", 130), ("warm", 83)] {
        let runs = tape::vm_runs();
        report::run_all(Size::Tiny);
        assert_eq!(tape::vm_runs() - runs, want, "{pass} pass: VM runs");
    }
    jobs::set_jobs(0);
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read TMPDIR")
        .map(|e| e.expect("TMPDIR entry").path())
        .collect();
    assert!(left.is_empty(), "the report left {left:?} in TMPDIR");
    std::fs::remove_dir(&tmp).expect("remove TMPDIR");
}
