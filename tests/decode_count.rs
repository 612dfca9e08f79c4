//! Decode and recording counts of a tiny report. The shared pass is
//! the only code that records or decodes a report stream, and it
//! decodes each once: the 14 stock tapes, plus the 7 folding and 7
//! IR-interpreter tapes. Every other reader takes run summaries, so
//! Table 1 alone records and decodes nothing, and `hello`, which only
//! Figure 1 reads, runs count-only. The counters (`tape::decodes`,
//! `tape::recordings`) are process-global, so this test has a binary
//! of its own.

use javart::experiments::{jobs, report, tape};
use javart::workloads::Size;

#[test]
fn run_all_decodes_each_tape_once_per_pass_and_leaves_tmpdir_empty() {
    let tmp = std::env::temp_dir().join(format!("jrt-decode-count-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create a fresh TMPDIR");
    // Before anything reads it: the tape spill directory goes here.
    std::env::set_var("TMPDIR", &tmp);
    jobs::set_jobs(2);
    let counts = || (tape::decodes(), tape::recordings());
    let before = counts();
    report::run_filtered(Size::Tiny, Some("table1"), None);
    assert_eq!(counts(), before, "table1 alone: (decodes, recordings)");
    // The cold pass records every tape; the warm one finds them all.
    for (pass, recorded) in [("cold", 28), ("warm", 0)] {
        let (decodes, recordings) = (tape::decodes(), tape::recordings());
        report::run_all(Size::Tiny);
        assert_eq!(tape::decodes() - decodes, 28, "{pass} pass: tapes decoded");
        assert_eq!(
            tape::recordings() - recordings,
            recorded,
            "{pass} pass: tapes recorded"
        );
    }
    jobs::set_jobs(0);
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read TMPDIR")
        .map(|e| e.expect("TMPDIR entry").path())
        .collect();
    assert!(left.is_empty(), "the report left {left:?} in TMPDIR");
    std::fs::remove_dir(&tmp).expect("remove TMPDIR");
}
