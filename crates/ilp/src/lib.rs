//! Trace-driven superscalar processor model for ILP studies.
//!
//! The paper's Figures 9 and 10 run SpecJVM98 through a cycle-accurate
//! out-of-order simulator at issue widths 1–8 and report IPC and
//! normalized execution time. This crate provides a trace-driven
//! equivalent: an out-of-order core model with
//!
//! * register renaming (only true dependences stall),
//! * a reorder buffer bounding the in-flight window,
//! * configurable fetch/issue/commit width,
//! * per-class functional-unit latencies,
//! * the paper's L1 I-/D-cache pair (misses add latency),
//! * Table 2's direction predictors on one BTB and return stack, of
//!   which Gshare steers fetch (mispredictions redirect fetch after
//!   branch resolution), and
//! * taken-branch fetch-group breaks (one taken transfer per cycle).
//!
//! The caches and predictors form one front end, probed once per event
//! for every configuration of a [`PipelineSweep`]. It is the whole
//! front end a stream needs: the report reads Table 2's predictors and
//! Table 3's L1 pair from it too, and either half may be left out when
//! no timing core runs.
//!
//! The model is a greedy list scheduler over the dynamic trace — the
//! standard approximation for trace-driven ILP studies. It reproduces
//! the paper's qualitative behaviour: interpreter traces have short
//! dependence chains and excellent locality (high IPC at narrow
//! widths) but their `switch`-dispatch indirect jumps throttle wide
//! issue, while JIT traces scale more evenly.
//!
//! # Examples
//!
//! ```
//! use jrt_ilp::{PipelineConfig, PipelineSweep};
//! use jrt_trace::{NativeInst, Phase, TraceSink};
//!
//! let mut p = PipelineSweep::new(&[PipelineConfig::paper(1), PipelineConfig::paper(4)]);
//! // A loop body of 64 independent ALU ops, executed 64 times.
//! for k in 0..4096u64 {
//!     p.accept(&NativeInst::alu(0x1_0000 + (k % 64) * 4, Phase::NativeExec));
//! }
//! p.finish();
//! let [w1, w4] = p.reports()[..] else { unreachable!() };
//! assert!(w4.ipc() > w1.ipc()); // independent ALU ops issue in parallel
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod pipeline;

pub use config::PipelineConfig;
pub use pipeline::{PipelineReport, PipelineSweep};
