//! Runs every experiment and writes EXPERIMENTS.md.
//! Usage: `run_all [tiny|s1|s10] [output-path] [--jobs N] [--filter SUBSTR]
//! [--sabotage-drop-barrier N] [--list]`.

use jrt_experiments::{jobs, report};
use jrt_workloads::Size;
use std::process::exit;

const HELP: &str = "\
usage: run_all [tiny|s1|s10] [output-path] [--jobs N] [--filter SUBSTR]
               [--sabotage-drop-barrier N] [--list]

Runs all 22 experiment drivers and writes the EXPERIMENTS.md report
(default path: EXPERIMENTS.md in the current directory).

Each experiment fans its (workload, mode) cross-product out over a
work-queue of OS threads; results are merged in canonical order, so
the report is byte-identical at any worker count.

  --jobs N         use N worker threads (also: the JRT_JOBS environment
                   variable; the flag wins). Default: the machine's
                   available parallelism. 1 runs fully sequentially.
  --filter SUBSTR  run only the experiments whose name contains SUBSTR
                   (e.g. fig1, table, codecache); skipped sections are
                   absent from the report. A filter that matches no
                   section is an error.
  --sabotage-drop-barrier N
                   arm the GC study's seeded missed-write-barrier bug:
                   the measured engine drops its N-th remembered-set
                   enrollment. A dropped barrier that matters must fail
                   the cross-collector equivalence check (exit 1).
                   Needs the gc section.
  --list           print the section names --filter matches against,
                   one per line, and exit.

Exit status: 0 when the report was written; 1 when a report check
failed (the scale study's sharded-vs-serial exactness or the GC
study's cross-collector equivalence), and the report is not written;
2 on a usage error or when the report cannot be written.";

/// Reports a usage error and exits with status 2.
fn usage(msg: &str) -> ! {
    eprintln!("run_all: {msg} (see --help)");
    exit(2);
}

fn main() {
    let mut positional = Vec::new();
    let mut filter = None;
    let mut sabotage = None;
    let mut args = jobs::cli_args().into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            "--list" => {
                for s in report::SECTIONS {
                    println!("{s}");
                }
                return;
            }
            "--filter" => {
                filter = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--filter needs a value")),
                );
            }
            "--sabotage-drop-barrier" => {
                let n = args.next().and_then(|v| v.parse::<u64>().ok());
                sabotage = Some(n.unwrap_or_else(|| {
                    usage("--sabotage-drop-barrier needs a numeric drop index")
                }));
            }
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            _ => positional.push(arg),
        }
    }
    let mut positional = positional.into_iter();
    let size = match positional.next().as_deref() {
        Some("tiny") => Size::Tiny,
        Some("s10") => Size::S10,
        None | Some("s1") => Size::S1,
        Some(other) => usage(&format!("unknown size {other:?}; use tiny|s1|s10")),
    };
    let out = positional.next().unwrap_or_else(|| "EXPERIMENTS.md".into());
    if let Some(extra) = positional.next() {
        usage(&format!("unexpected argument {extra:?}"));
    }
    if let Some(f) = &filter {
        if report::matching_sections(f).is_empty() {
            usage(&format!(
                "filter {f:?} matches no experiment section; valid names:\n  {}",
                report::SECTIONS.join(" ")
            ));
        }
    }
    let skips_gc = |f: &String| !report::matching_sections(f).contains(&"gc");
    if sabotage.is_some() && filter.as_ref().is_some_and(skips_gc) {
        usage("--sabotage-drop-barrier needs the gc section, which the filter skips");
    }

    let r = report::run_filtered(size, filter.as_deref(), sabotage);
    if let Err(failed) = r.check() {
        eprintln!("run_all: report check failed; report not written:\n{failed}");
        exit(1);
    }
    if let Err(e) = std::fs::write(&out, r.to_markdown()) {
        eprintln!("run_all: writing {out}: {e}");
        exit(2);
    }
    println!("wrote {out}");
}
