//! Runs the out-of-core scale study: tiles workload tapes into
//! s10-class on-disk tapes, replays them sharded across 1/2/4/8
//! workers, and checks the stitched results exactly against a serial
//! streamed reference. Throughput (events/sec) goes to stderr; the
//! markdown section is byte-identical at any `--jobs` setting.
//! Usage: `scale_study [tiny|s1|s10] [output-path] [--jobs N]`.

use jrt_experiments::{jobs, scale, tape};
use jrt_workloads::Size;

fn main() {
    let args = jobs::cli_args();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: scale_study [tiny|s1|s10] [output-path] [--jobs N]\n\
             (JRT_JOBS also sets the worker count; JRT_TAPE_BUDGET caps the\n\
             RAM tape tier; JRT_TAPE_DIR overrides the spill directory;\n\
             no output path = stdout)"
        );
        return;
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
    let study = scale::run(size);
    tape::remove_spill_dir();
    if study.rows.iter().any(|r| r.shards.iter().any(|p| !p.exact)) {
        eprintln!("ERROR: sharded replay diverged from the serial reference");
        let md = study.to_markdown();
        eprint!("{md}");
        std::process::exit(1);
    }
    let md = study.to_markdown();
    match args.get(1) {
        Some(path) => {
            std::fs::write(path, &md).expect("write study output");
            println!("wrote {path}");
        }
        None => print!("{md}"),
    }
}
