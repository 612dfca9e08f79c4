//! Runs every experiment and writes EXPERIMENTS.md.
//! Usage: `run_all [tiny|s1|s10] [output-path] [--jobs N] [--filter SUBSTR]`.

use jrt_experiments::{jobs, report, tape};
use jrt_workloads::Size;

const HELP: &str = "\
usage: run_all [tiny|s1|s10] [output-path] [--jobs N] [--filter SUBSTR] [--list]

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
                   absent from the report (also: the JRT_FILTER
                   environment variable; the flag wins). A filter that
                   matches no section is an error.
  --list           print the section names --filter matches against,
                   one per line, and exit.";

fn main() {
    let mut args = jobs::cli_args();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--list") {
        args.remove(i);
        for s in report::SECTIONS {
            println!("{s}");
        }
        return;
    }
    let mut filter = std::env::var("JRT_FILTER").ok();
    if let Some(i) = args.iter().position(|a| a == "--filter") {
        if i + 1 >= args.len() {
            eprintln!("--filter needs a value (see --help)");
            std::process::exit(2);
        }
        args.remove(i);
        filter = Some(args.remove(i));
    }
    if let Some(f) = &filter {
        if report::matching_sections(f).is_empty() {
            eprintln!(
                "filter {f:?} matches no experiment section; valid names:\n  {}",
                report::SECTIONS.join(" ")
            );
            std::process::exit(2);
        }
    }
    let size = match args.first().map(String::as_str) {
        Some("tiny") => Size::Tiny,
        Some("s10") => Size::S10,
        None | Some("s1") => Size::S1,
        Some(other) => {
            eprintln!("unknown size {other:?}; use tiny|s1|s10 (see --help)");
            std::process::exit(2);
        }
    };
    let out = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "EXPERIMENTS.md".into());
    let r = report::run_filtered(size, filter.as_deref());
    tape::remove_spill_dir();
    let md = r.to_markdown();
    std::fs::write(&out, &md).expect("write report");
    println!("wrote {out}");
}
