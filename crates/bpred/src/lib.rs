//! Branch prediction models for the `javart` project.
//!
//! The paper (Table 2) evaluates four direction predictors — a simple
//! 2-bit counter, a one-level branch history table, Gshare with 5 bits
//! of global history, and a two-level GAp predictor — together with a
//! 1K-entry branch target buffer. Its headline observation is that the
//! interpreter's indirect-jump-dominated control flow (the bytecode
//! `switch` dispatch and virtual calls) defeats direction/target
//! prediction, while JIT-generated code behaves like conventional
//! compiled code.
//!
//! This crate reimplements those predictors ([`DirectionPredictor`]):
//!
//! * [`TwoBit`] — a single, shared 2-bit saturating counter (included
//!   like in the paper for validation/consistency only);
//! * [`Bht`] — a PC-indexed table of 2-bit counters (one-level);
//! * [`Gshare`] — global history XORed into the PC index;
//! * [`GAp`] — two-level with per-address pattern tables;
//! * [`Btb`] — direct-mapped branch target buffer used for taken
//!   branches and indirect transfers;
//! * [`ReturnStack`] — a small return-address stack;
//! * [`BranchEval`] — a [`TraceSink`](jrt_trace::TraceSink) that drives
//!   predictors sharing one BTB and return stack from a native trace,
//!   reporting Table 2's statistics; the `jrt-ilp` front end holds one.
//!
//! # Examples
//!
//! ```
//! use jrt_bpred::{BranchEval, DirectionPredictor, Gshare};
//! use jrt_trace::{NativeInst, Phase, TraceSink};
//!
//! let mut eval = BranchEval::new(DirectionPredictor::Gshare(Gshare::paper()));
//! // A loop branch: taken 9 of every 10 iterations.
//! for k in 0..200 {
//!     eval.accept(&NativeInst::branch(0x1_0000, 0x0_F000, k % 10 != 9, Phase::NativeExec));
//! }
//! assert!(eval.stats().overall_rate() < 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod eval;
mod predictors;
mod target_cache;

pub use btb::{Btb, ReturnStack};
pub use eval::{BranchEval, BranchStats};
pub use predictors::{Bht, DirectionPredictor, GAp, Gshare, TwoBit};
pub use target_cache::TargetCache;
