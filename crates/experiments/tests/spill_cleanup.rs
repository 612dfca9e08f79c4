//! The binaries that spill tapes leave no files behind: the default
//! spill directory under the system temp dir is removed before exit,
//! while a directory named by `JRT_TAPE_DIR` is kept (minus the scale
//! study's tiled tapes, which are deleted once measured).

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

fn run(bin: &str, args: &[&str], env: (&str, &Path)) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("JRT_TAPE_DIR")
        .env(env.0, env.1)
        .output()
        .expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn default_spill_dir_is_removed_at_exit() {
    let tmp = fresh_dir("spill-default-tmp");
    let out = fresh_dir("spill-default-out").join("report.md");
    let out = out.to_str().expect("utf-8 path");
    run(
        env!("CARGO_BIN_EXE_run_all"),
        &["tiny", out, "--jobs", "2", "--filter", "scale"],
        ("TMPDIR", &tmp),
    );
    run(
        env!("CARGO_BIN_EXE_scale_study"),
        &["tiny", out, "--jobs", "2"],
        ("TMPDIR", &tmp),
    );
    assert_eq!(entries(&tmp), Vec::<PathBuf>::new(), "left in TMPDIR");
}

#[test]
fn user_spill_dir_is_kept_and_emptied_of_tiled_tapes() {
    let dir = fresh_dir("spill-user");
    run(
        env!("CARGO_BIN_EXE_scale_study"),
        &["tiny", "/dev/null", "--jobs", "2"],
        ("JRT_TAPE_DIR", &dir),
    );
    assert!(dir.is_dir(), "a user-supplied spill dir must survive");
    assert_eq!(entries(&dir), Vec::<PathBuf>::new(), "left in JRT_TAPE_DIR");
}
