//! VM runs of a tiny report. The shared pass runs each stream it
//! reads once per report, straight into its consumers: the 14 stock
//! streams, plus the 7 folding and 7 IR-interpreter ones. The scale
//! study records the JIT streams of `db` and `jess` once per report.
//! Every other reader takes run summaries, which run the VM once per
//! key and process. So Table 1 alone runs its 14 stock keys count-only,
//! a cold report adds the summaries no stream published, and a warm
//! report runs only the 28 pass streams and the 2 scale recordings.
//! The counter (`tape::vm_runs`) is process-global, so this test has a
//! binary of its own.

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
    for (pass, want) in [("cold", 59), ("warm", 30)] {
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
