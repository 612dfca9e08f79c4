//! `bench_all`'s command-line contract. Exit status 2 means the run was
//! refused: a usage error, an unreadable or empty baseline, a filter
//! that matches no bench, or an unwritable report. A refused run
//! measures nothing, writes nothing and never panics; in particular a
//! misspelled gate must not overwrite the baseline it names.

use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty directory under the target's scratch area.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs `bench_all` in `dir` with one sample per bench, returning its
/// exit code, stdout and stderr.
fn run(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    run_with(
        Command::new(env!("CARGO_BIN_EXE_bench_all")).current_dir(dir),
        args,
    )
}

/// Runs the prepared `bench_all` command with one sample per bench.
fn run_with(cmd: &mut Command, args: &[&str]) -> (Option<i32>, String, String) {
    let out = cmd
        .args(args)
        .env("JRT_BENCH_SAMPLES", "1")
        .output()
        .expect("spawn bench_all");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A baseline line for the cheap bench the passing cases run.
const BASELINE: &str = "{\"suite\":\"simulators\",\"bench\":\"locks/thin\",\"iters\":1,\
\"samples_ns\":[1000000000],\"median_ns\":1000000000,\"steady_state\":true,\
\"warmup_iters\":0,\"steady_median_ns\":1000000000}\n";

#[test]
fn refused_runs_exit_2_and_measure_and_write_nothing() {
    let dir = fresh_dir("refused");
    std::fs::write(dir.join("base.json"), BASELINE).expect("write baseline");
    std::fs::write(dir.join("empty.json"), "not a bench line\n").expect("write baseline");
    // (arguments, a fragment stderr must contain)
    let cases: [(&[&str], &str); 8] = [
        (&["--chek-against", "base.json", "2"], "\"--chek-against\""),
        (&["locks/thin", "o.json", "extra"], "\"extra\""),
        (
            &[
                "locks/thin",
                "o.json",
                "--check-against",
                "base.json",
                "abc",
            ],
            "\"abc\"",
        ),
        (
            &["locks/thin", "o.json", "--check-against", "base.json", "0"],
            "\"0\"",
        ),
        (
            &["locks/thin", "o.json", "--check-against"],
            "baseline path",
        ),
        (
            &["locks/thin", "o.json", "--check-against", "missing.json"],
            "missing.json",
        ),
        (
            &["locks/thin", "o.json", "--check-against", "empty.json"],
            "empty.json",
        ),
        (&["no_such_bench", "o.json"], "\"no_such_bench\""),
    ];
    for (args, fragment) in cases {
        let (code, stdout, stderr) = run(&dir, args);
        assert_eq!(code, Some(2), "bench_all {args:?}: {stderr}");
        assert!(stderr.contains(fragment), "bench_all {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "bench_all {args:?}: {stderr}");
        assert_eq!(stdout, "", "bench_all {args:?} measured something");
        assert!(!dir.join("o.json").exists(), "bench_all {args:?} wrote");
        assert!(
            !dir.join("BENCH_experiments.json").exists(),
            "bench_all {args:?} wrote the default report"
        );
    }
    let base = std::fs::read_to_string(dir.join("base.json")).expect("read baseline");
    assert_eq!(base, BASELINE, "the baseline was overwritten");
}

#[test]
fn unwritable_report_exits_2_without_panicking() {
    let dir = fresh_dir("unwritable");
    let (code, _, stderr) = run(&dir, &["locks/thin", "missing-dir/o.json"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("missing-dir/o.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn gated_run_writes_its_report_and_passes() {
    let dir = fresh_dir("gated");
    std::fs::write(dir.join("base.json"), BASELINE).expect("write baseline");
    let args = ["locks/thin", "o.json", "--check-against", "base.json", "2"];
    let (code, _, stderr) = run(&dir, &args);
    assert_eq!(code, Some(0), "{stderr}");
    let report = std::fs::read_to_string(dir.join("o.json")).expect("report written");
    assert!(report.contains("\"bench\":\"locks/thin\""), "{report}");
    assert!(stderr.contains("0 regression(s)"), "{stderr}");
}

#[test]
fn stream_replay_bench_leaves_nothing_in_tmpdir() {
    let dir = fresh_dir("spill");
    let tmp = fresh_dir("spill-tmpdir");
    let (code, _, stderr) = run_with(
        Command::new(env!("CARGO_BIN_EXE_bench_all"))
            .current_dir(&dir)
            .env("TMPDIR", &tmp),
        &["consumer/stream_replay", "o.json"],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read TMPDIR")
        .map(|e| e.expect("TMPDIR entry").path())
        .collect();
    assert!(left.is_empty(), "bench_all left {left:?} in TMPDIR");
}
