//! SpecJVM98-analog benchmark programs, written in `javart` bytecode.
//!
//! The paper evaluates seven SpecJVM98 programs plus a `HelloWorld`
//! micro-benchmark at the `s1` input size. SpecJVM98 is proprietary,
//! so this crate provides deterministic analogs that preserve the
//! property each benchmark contributes to the study:
//!
//! | program | analog | preserved property |
//! |---|---|---|
//! | `compress` | LZW compress + expand over generated data | few hot methods, massive reuse — execution-dominated |
//! | `jess` | forward-chaining fact/rule engine | pattern-match loops, mixed method sizes |
//! | `db` | in-memory record store: add/delete/find/sort | many short methods on small data — translation-significant at s1 |
//! | `javac` | tokenizer/parser/code generator for a toy language | many methods, low reuse — translation-heavy |
//! | `mpeg` | fixed-point 8×8 IDCT + dequantization over many blocks | tight integer kernels, extreme method reuse |
//! | `mtrt` | two-thread fixed-point ray tracer | the suite's multithreaded member |
//! | `jack` | repeated scanning passes over a grammar text | scan-heavy, moderate reuse |
//! | `hello` | prints `HELLO`, returns | class-loading/startup dominated |
//!
//! Outside the suite, [`multi`] runs four byte-identical execution
//! contexts on four threads — the harness for the shared-code-cache
//! study (`run_all --filter codecache` in `jrt-experiments`).
//!
//! Every program is pure bytecode (inputs generated in-program by a
//! seeded linear congruential generator), self-checking (returns a
//! checksum the tests pin), and runs identically under the
//! interpreter and the JIT.
//!
//! # Examples
//!
//! ```
//! use jrt_trace::CountingSink;
//! use jrt_vm::{Vm, VmConfig};
//! use jrt_workloads::{compress, Size};
//!
//! let program = compress::program(Size::Tiny);
//! let result = Vm::new(&program, VmConfig::jit()).run(&mut CountingSink::new())?;
//! assert_eq!(result.exit_value, Some(compress::expected(Size::Tiny)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
mod common;
pub mod compress;
pub mod db;
pub mod graphmut;
pub mod hello;
pub mod jack;
pub mod javac;
pub mod jess;
pub mod mpeg;
pub mod mtrt;
pub mod multi;
pub mod stream;

pub use common::{
    add_rng, host_lib_checksum, library, sys_class, HostRng, Size, LIB_CLASSES_S1, LIB_METHODS,
};

use jrt_bytecode::Program;

/// A named benchmark in the suite.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Benchmark name, matching the paper's tables.
    pub name: &'static str,
    /// Builds the program at the given size.
    pub build: fn(Size) -> Program,
    /// Expected exit value (self-check) at the given size.
    pub expected: fn(Size) -> i32,
    /// Whether the program is multithreaded.
    pub multithreaded: bool,
}

/// The full suite in the paper's order: the seven SpecJVM98 analogs.
pub fn suite() -> Vec<Spec> {
    vec![
        Spec {
            name: "compress",
            build: compress::program,
            expected: compress::expected,
            multithreaded: false,
        },
        Spec {
            name: "jess",
            build: jess::program,
            expected: jess::expected,
            multithreaded: false,
        },
        Spec {
            name: "db",
            build: db::program,
            expected: db::expected,
            multithreaded: false,
        },
        Spec {
            name: "javac",
            build: javac::program,
            expected: javac::expected,
            multithreaded: false,
        },
        Spec {
            name: "mpeg",
            build: mpeg::program,
            expected: mpeg::expected,
            multithreaded: false,
        },
        Spec {
            name: "mtrt",
            build: mtrt::program,
            expected: mtrt::expected,
            multithreaded: true,
        },
        Spec {
            name: "jack",
            build: jack::program,
            expected: jack::expected,
            multithreaded: false,
        },
    ]
}

/// The suite plus the `hello` micro-benchmark (Figure 1 includes it).
pub fn suite_with_hello() -> Vec<Spec> {
    let mut v = vec![Spec {
        name: "hello",
        build: hello::program,
        expected: hello::expected,
        multithreaded: false,
    }];
    v.extend(suite());
    v
}

/// The allocation-heavy GC stress workloads (the `gc_study` inputs).
/// Deliberately *not* part of [`suite`]: the paper's tables iterate
/// the seven SpecJVM98 analogs, and the pinned experiment goldens
/// depend on that set staying fixed.
///
/// * `churn` — object churn: peak minor-collection rate, thin
///   survivor tail;
/// * `stream` — large-array streaming: copy-cost heavy, pretenuring,
///   low barrier traffic;
/// * `graphmut` — pointer-graph mutation: old→young edges on every
///   splice, the remembered-set adversary.
pub fn gc_suite() -> Vec<Spec> {
    vec![
        Spec {
            name: "churn",
            build: churn::program,
            expected: churn::expected,
            multithreaded: false,
        },
        Spec {
            name: "stream",
            build: stream::program,
            expected: stream::expected,
            multithreaded: false,
        },
        Spec {
            name: "graphmut",
            build: graphmut::program,
            expected: graphmut::expected,
            multithreaded: false,
        },
    ]
}
