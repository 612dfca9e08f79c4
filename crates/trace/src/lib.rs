//! Synthetic native-instruction trace model for the `javart` project.
//!
//! The HPCA 2000 paper this project reproduces ("Architectural Issues in
//! Java Runtime Systems") collected SPARC instruction traces of real JVMs
//! with the Shade binary instrumentation tool and fed those traces to
//! cache simulators, branch predictors, and a superscalar processor
//! model. This crate is the synthetic stand-in for Shade: the `javart`
//! execution engines (interpreter, JIT translator, generated native
//! code) emit a stream of [`NativeInst`] events describing the
//! SPARC-like instructions a real runtime would execute, and any number
//! of [`TraceSink`] consumers observe that stream.
//!
//! The crate deliberately knows nothing about the JVM: it defines
//!
//! * the instruction event model ([`NativeInst`], [`InstClass`],
//!   [`MemRef`], [`CtrlInfo`], [`Phase`]),
//! * the simulated address-space layout ([`Region`], [`layout`]),
//! * the consumer interface ([`TraceSink`]) and combinators,
//! * a ready-made instruction-mix profiler ([`InstMix`]) reproducing the
//!   categories of Figure 2 of the paper,
//! * compact delta-packed trace [`Tape`]s, for a stream that must
//!   outlive its run: a tape replays into any [`TraceSink`], from RAM
//!   or segment by segment from disk ([`DiskTape`]), and
//! * a shared integer-id hasher ([`IdHasher`]) for hot lookup paths.
//!
//! # Examples
//!
//! ```
//! use jrt_trace::{InstClass, InstMix, NativeInst, Phase, TraceSink};
//!
//! let mut mix = InstMix::new();
//! mix.accept(&NativeInst::alu(0x1000, Phase::NativeExec));
//! mix.accept(&NativeInst::load(0x1004, 0x2000_0000, 4, Phase::NativeExec));
//! assert_eq!(mix.total(), 2);
//! assert_eq!(mix.count(InstClass::Load), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod inst;
pub mod mix;
pub mod region;
pub mod sink;
pub mod store;
pub mod tape;

pub use hash::{IdBuildHasher, IdHashMap, IdHashSet, IdHasher};
pub use inst::{AccessKind, CtrlInfo, InstClass, MemRef, NativeInst, Phase, Reg, NUM_REGS};
pub use mix::{InstMix, MixSummary};
pub use region::{layout, Region};
pub use sink::{CountingSink, NullSink, PhaseFilter, RecordingSink, TraceSink};
pub use store::{DiskTape, StoreError};
pub use tape::{content_hash, Segment, Tape, TapeRecorder, SEGMENT_EVENTS};

/// A simulated memory address.
///
/// Addresses are virtual addresses in the synthetic address space
/// described by [`region::layout`]; they never refer to host memory.
pub type Addr = u64;
