//! `run_all`'s command-line contract. Exit status 2 means the run was
//! refused (a usage error or an unwritable report) and 1 means a
//! report check failed; neither may panic. Runs that spill tapes leave
//! no files behind: the default spill directory under the system temp
//! dir is removed before exit, while a directory named by
//! `JRT_TAPE_DIR` is kept (minus the scale study's tiled tapes, which
//! are deleted once measured).

use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty directory under the target's scratch area.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .collect()
}

/// Runs `run_all` with `args` and one environment variable set,
/// returning its exit code and stderr.
fn run(args: &[&str], env: (&str, &Path)) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env_remove("JRT_TAPE_DIR")
        .env(env.0, env.1)
        .output()
        .expect("spawn run_all");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_ok(args: &[&str], env: (&str, &Path)) {
    let (code, stderr) = run(args, env);
    assert_eq!(code, Some(0), "run_all {args:?} failed: {stderr}");
}

#[test]
fn default_spill_dir_is_removed_at_exit() {
    let tmp = fresh_dir("spill-default-tmp");
    let out = fresh_dir("spill-default-out").join("report.md");
    let out = out.to_str().expect("utf-8 path");
    assert_ok(
        &["tiny", out, "--jobs", "2", "--filter", "scale"],
        ("TMPDIR", &tmp),
    );
    assert_eq!(entries(&tmp), Vec::<PathBuf>::new(), "left in TMPDIR");
}

#[test]
fn user_spill_dir_is_kept_and_emptied_of_tiled_tapes() {
    let dir = fresh_dir("spill-user");
    assert_ok(
        &["tiny", "/dev/null", "--jobs", "2", "--filter", "scale"],
        ("JRT_TAPE_DIR", &dir),
    );
    assert!(dir.is_dir(), "a user-supplied spill dir must survive");
    assert_eq!(entries(&dir), Vec::<PathBuf>::new(), "left in JRT_TAPE_DIR");
}

#[test]
fn refused_and_failed_runs_exit_with_their_own_status() {
    let tmp = fresh_dir("exit-status-tmp");
    let unwritable = tmp.join("missing-dir").join("o.md");
    let unwritable = unwritable.to_str().expect("utf-8 path");
    // (arguments, exit code, a fragment stderr must contain)
    let cases: [(&[&str], i32, &str); 6] = [
        (&["tiny", "o.md", "--filtr", "fig6"], 2, "\"--filtr\""),
        (&["tiny", "o.md", "extra"], 2, "\"extra\""),
        (&["huge"], 2, "\"huge\""),
        (
            &[
                "tiny",
                "o.md",
                "--filter",
                "fig1",
                "--sabotage-drop-barrier",
                "0",
            ],
            2,
            "needs the gc section",
        ),
        (&["tiny", unwritable, "--filter", "table1"], 2, unwritable),
        (
            &[
                "tiny",
                "/dev/null",
                "--filter",
                "gc",
                "--sabotage-drop-barrier",
                "0",
            ],
            1,
            "gc: ",
        ),
    ];
    for (args, want, fragment) in cases {
        let (code, stderr) = run(args, ("TMPDIR", &tmp));
        assert_eq!(code, Some(want), "run_all {args:?}: {stderr}");
        assert!(stderr.contains(fragment), "run_all {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "run_all {args:?}: {stderr}");
    }
    assert_eq!(entries(&tmp), Vec::<PathBuf>::new(), "left in TMPDIR");
}
