//! Adaptive-JIT policy study: the design space Section 3 of the paper
//! opens (when, or whether, to translate a method).
//!
//! Compares four policies on every benchmark:
//! * pure interpretation,
//! * translate on first invocation (the Kaffe/JDK-1.2 heuristic),
//! * count-threshold translation (the HotSpot-style descendant of the
//!   paper's question),
//! * the paper's per-method oracle (`opt`).
//!
//! ```sh
//! cargo run --release --example adaptive_jit [tiny|s1]
//! ```

use javart::experiments::{tape, Mode};
use javart::trace::CountingSink;
use javart::vm::{ExecMode, JitPolicy, VmConfig};
use javart::workloads::{suite_with_hello, Size};

fn main() {
    let size = match std::env::args().nth(1).as_deref() {
        Some("s1") => Size::S1,
        _ => Size::Tiny,
    };
    println!(
        "{:10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "interp", "jit-first", "thresh(8)", "opt", "opt-saves"
    );
    for spec in suite_with_hello() {
        let w = tape::workload(&spec, size);
        // The oracle is derived from the interpreter and JIT runs, so
        // their memoized summaries serve the table and the oracle.
        let count = |mode| tape::summary(&w, mode).counts.total();
        let (interp, jit, opt) = (count(Mode::Interp), count(Mode::Jit), count(Mode::Opt));
        let thresh = VmConfig {
            mode: ExecMode::Jit(JitPolicy::Threshold(8)),
            ..VmConfig::default()
        };
        let mut sink = CountingSink::new();
        tape::run(&w, thresh, &mut sink);
        let thresh = sink.total();
        println!(
            "{:10} {:>12} {:>12} {:>12} {:>12} {:>9.1}%",
            spec.name,
            interp,
            jit,
            thresh,
            opt,
            (1.0 - opt as f64 / jit as f64) * 100.0
        );
    }
}
